//! Determinism gate for the parallel execution layer.
//!
//! The TWPP pipeline fans its per-function stages (dedup, DBB dictionary
//! building, TWPP inversion, timestamp-series compaction), archive frame
//! encoding, and recovery verification across a worker pool. These tests
//! enforce the contract that makes that safe: **every parallel path is
//! byte-identical to the sequential one**, for every thread count, on the
//! `workloads` generators' paper-shaped WPPs.

use std::collections::HashMap;

use proptest::prelude::*;

use twpp_repro::twpp::{
    archive::encode_v2_named, compact_with_stats_threads, ArchiveWriter, Codec, CompactOptions,
    Obs, TwppArchive,
};
use twpp_repro::twpp_ir::FuncId;
use twpp_repro::twpp_tracer::RawWpp;
use twpp_repro::twpp_workloads::{generate, Profile};

/// A small paper-shaped workload, deterministic in `(profile, seed)`.
fn workload_wpp(profile: Profile, seed: u64) -> RawWpp {
    let mut spec = profile.spec().scaled(0.003);
    spec.seed ^= seed;
    generate(&spec).wpp
}

fn profile_strategy() -> impl Strategy<Value = Profile> {
    prop_oneof![
        Just(Profile::Go),
        Just(Profile::Gcc),
        Just(Profile::Li),
        Just(Profile::Ijpeg),
        Just(Profile::Perl),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `compact` must produce identical output for 1..=8 worker threads,
    /// including identical archive bytes end to end.
    #[test]
    fn compact_is_thread_count_invariant(
        profile in profile_strategy(),
        seed in 0u64..1000,
    ) {
        let wpp = workload_wpp(profile, seed);
        let (seq, seq_stats) =
            compact_with_stats_threads(&wpp, CompactOptions::with_threads(1)).unwrap();
        let seq_bytes = TwppArchive::from_compacted_named_with_threads(&seq, &HashMap::new(), 1);
        prop_assert!(seq.functions.len() > 1, "workload must be multi-function");
        for threads in 2..=8usize {
            let (par, par_stats) =
                compact_with_stats_threads(&wpp, CompactOptions::with_threads(threads)).unwrap();
            prop_assert_eq!(&par, &seq, "compact diverged at {} threads", threads);
            // Size accounting is scheduling-independent too.
            prop_assert_eq!(par_stats.after_dict_bytes, seq_stats.after_dict_bytes);
            prop_assert_eq!(par_stats.ctwpp_trace_bytes, seq_stats.ctwpp_trace_bytes);
            prop_assert_eq!(&par_stats.redundancy, &seq_stats.redundancy);
            // And the archive encoded from the parallel result is
            // byte-identical.
            let par_bytes =
                TwppArchive::from_compacted_named_with_threads(&par, &HashMap::new(), threads);
            prop_assert_eq!(par_bytes.as_bytes(), seq_bytes.as_bytes());
        }
    }

    /// The parallel frame-encoding front-end of `ArchiveWriter` commits
    /// frames in deterministic function order: its sink bytes equal the
    /// one-at-a-time writer's for every thread count.
    #[test]
    fn archive_writer_parallel_encoding_is_byte_identical(
        profile in profile_strategy(),
        seed in 0u64..1000,
    ) {
        let wpp = workload_wpp(profile, seed);
        let (c, _) = compact_with_stats_threads(&wpp, CompactOptions::with_threads(1)).unwrap();
        let names: HashMap<FuncId, String> = c
            .functions
            .iter()
            .enumerate()
            .map(|(i, fb)| (fb.func, format!("fn{i}")))
            .collect();

        let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, &names).unwrap();
        for fb in &c.functions {
            w.add_function(fb).unwrap();
        }
        let sequential = w.finish().unwrap();

        for threads in 1..=8usize {
            let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, &names).unwrap();
            w.add_functions(&c.functions, threads).unwrap();
            let parallel = w.finish().unwrap();
            prop_assert_eq!(&parallel, &sequential, "writer diverged at {} threads", threads);
        }
    }

    /// The pipeline compresses the DCG once and the archive encoders
    /// write the bytes it carries. Those bytes must be exactly what
    /// `ArchiveWriter::new` gets by compressing `c.dcg` afresh, under
    /// both codecs and again after a `to_compacted` round trip, and the
    /// stats must count exactly the archive's DCG region.
    #[test]
    fn carried_dcg_bytes_match_a_fresh_compression(
        profile in profile_strategy(),
        seed in 0u64..1000,
    ) {
        let wpp = workload_wpp(profile, seed);
        let (c, stats) = compact_with_stats_threads(&wpp, CompactOptions::with_threads(1)).unwrap();
        let names: HashMap<FuncId, String> = HashMap::new();
        for codec in [Codec::Legacy, Codec::Adaptive] {
            let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, &names).unwrap().with_codec(codec);
            w.add_functions(&c.functions, 1).unwrap();
            let fresh = w.finish().unwrap();

            let carried =
                TwppArchive::from_compacted_codec(&c, &names, 1, &[], &Obs::noop(), codec);
            prop_assert_eq!(carried.as_bytes(), &fresh[..], "codec {:?}", codec);
            // The v3 header's third word is the length of the DCG region,
            // which follows the 20-byte header.
            let region_len = u32::from_le_bytes(fresh[8..12].try_into().unwrap()) as usize;
            prop_assert_eq!(stats.dcg_compressed_bytes, region_len);
            prop_assert_eq!(c.dcg_lzw(), &fresh[20..20 + region_len]);

            let back = carried.to_compacted().unwrap();
            prop_assert_eq!(&back, &c, "round trip changed the compacted form");
            let again =
                TwppArchive::from_compacted_codec(&back, &names, 1, &[], &Obs::noop(), codec);
            prop_assert_eq!(again.as_bytes(), &fresh[..], "codec {:?} after round trip", codec);
        }
    }

    /// Parallel recovery produces the same report and the same rebuilt
    /// archive as sequential recovery — on clean archives, interrupted
    /// writes (no footer, forcing the scan path), and v2 inputs.
    #[test]
    fn recovery_is_thread_count_invariant(
        profile in profile_strategy(),
        seed in 0u64..1000,
        cut_words in 1usize..8,
    ) {
        let wpp = workload_wpp(profile, seed);
        let (c, _) = compact_with_stats_threads(&wpp, CompactOptions::with_threads(1)).unwrap();
        let committed = TwppArchive::from_compacted_named_with_threads(&c, &HashMap::new(), 1);
        let v2 = encode_v2_named(&c, &HashMap::new()).unwrap();
        // An interrupted write: drop the footer and some trailing bytes so
        // salvage must scan for frames.
        let torn = &committed.as_bytes()[..committed.byte_len() - 4 * cut_words - 16];

        for input in [committed.as_bytes(), &v2, torn] {
            let (seq_archive, seq_report) =
                TwppArchive::recover_with_threads(input, 1).unwrap();
            for threads in 2..=8usize {
                let (par_archive, par_report) =
                    TwppArchive::recover_with_threads(input, threads).unwrap();
                prop_assert_eq!(&par_report, &seq_report, "report diverged at {} threads", threads);
                prop_assert_eq!(
                    par_archive.as_bytes(),
                    seq_archive.as_bytes(),
                    "rebuilt archive diverged at {} threads",
                    threads
                );
            }
        }
    }
}

/// The `TWPP_THREADS` default path also matches explicit thread counts
/// (exercised by the CI matrix running the suite under `TWPP_THREADS=1`
/// and `TWPP_THREADS=4`).
#[test]
fn default_thread_resolution_matches_explicit() {
    let wpp = workload_wpp(Profile::Li, 7);
    let (default_out, _) = compact_with_stats_threads(&wpp, CompactOptions::default()).unwrap();
    let (one, _) = compact_with_stats_threads(&wpp, CompactOptions::with_threads(1)).unwrap();
    assert_eq!(default_out, one);
}
