//! `compact_spec`: batch compaction of the five synthetic SPECint95
//! profiles, and the write-path layer probe `ingest_traced` shares.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use twpp::{lzw, CompactOptions, Obs, RedundancyStats, TwppArchive};
use twpp_tracer::RawWpp;
use twpp_workloads::Profile;

use crate::report::Outcome;
use crate::stats::{self, Digest};
use crate::tracer::Tracer;
use crate::Args;

/// Times a set-up of a second or so is repeated; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;

/// Worker threads of every compaction, seal and merge. One, so a run's
/// times follow the single CPU it runs on, which the host reference
/// (`stats::Reference`) tracks; the scoped worker pool that more threads
/// would use is not measured.
pub const WORKERS: usize = 1;

/// Independent instances of each profile. One instance's speed and size
/// depend on which functions its seed makes hot; sixteen average that
/// out.
const INSTANCES: u64 = 16;

/// Profile scale: an eighth of the default, so the sixteen instances
/// hold as many events as two at full scale, and a run holds enough ops
/// (about 17 ms each) for a p99 with ten or more beyond it.
const SCALE: f64 = 0.125;

/// The five profiles, [`INSTANCES`] of each, their seeds XORed with the
/// run seed (and an instance salt).
fn generate_profiles(seed: u64, scale: f64) -> Vec<(String, RawWpp)> {
    let mut out = Vec::new();
    for i in 0..INSTANCES {
        for p in Profile::all() {
            let mut spec = p.spec().scaled(scale);
            spec.seed ^= seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let w = twpp_workloads::generate(&spec);
            out.push((format!("{}#{i}", w.name), w.wpp));
        }
    }
    out
}

/// One batch compaction as a user runs it: the composite pipeline call
/// then the archive encoder. Returns the archive and the pipeline's own
/// stage timings.
pub fn compact_and_encode(
    wpp: &RawWpp,
    threads: usize,
) -> Result<(TwppArchive, twpp::PipelineStats, Instant), String> {
    let (c, stats) = twpp::compact_with_stats_threads(wpp, CompactOptions::with_threads(threads))
        .map_err(|e| format!("compaction failed: {e}"))?;
    let encode_started = Instant::now();
    let archive = TwppArchive::from_compacted_codec(
        &c,
        &HashMap::new(),
        threads,
        &stats.degraded.failed,
        &Obs::noop(),
        twpp::Codec::default(),
    );
    Ok((archive, stats, encode_started))
}

/// Checks that `archive` decodes back to exactly `wpp`.
pub fn reconstructs(archive: &TwppArchive, wpp: &RawWpp) -> bool {
    archive
        .to_compacted()
        .map(|c| c.reconstruct().words() == wpp.words())
        .unwrap_or(false)
}

/// Accumulated write-path layer counts of a traced run.
#[derive(Default)]
pub struct WriteLayers {
    pub calls: u64,
    pub unique: u64,
    pub lzw_in: u64,
    pub lzw_out: u64,
    pub archive_bytes: u64,
    /// How many whole inputs the probe covered (the per-pass divisor).
    pub passes: u64,
}

impl WriteLayers {
    /// Calls the write-path layers that the composite pipeline call
    /// hides — partition, dedup and DCG LZW — through their public entry
    /// points, one span per call under `parent`.
    pub fn probe_parts(
        &mut self,
        tr: &mut Tracer,
        parent: Option<usize>,
        req: u64,
        wpp: &RawWpp,
        threads: usize,
    ) -> Result<(), String> {
        let t = Instant::now();
        let mut part = twpp::partition(wpp).map_err(|e| format!("partition: {e}"))?;
        tr.record("partition", parent, req, t, Instant::now());

        let t = Instant::now();
        let red: RedundancyStats = twpp::eliminate_redundancy_threads(&mut part, threads);
        tr.record("dedup", parent, req, t, Instant::now());
        for (calls, unique) in red.per_func.values() {
            self.calls += calls;
            self.unique += unique;
        }

        let dcg_bytes: Vec<u8> = part
            .dcg
            .to_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let t = Instant::now();
        let packed = lzw::compress(&dcg_bytes);
        tr.record("lzw", parent, req, t, Instant::now());
        self.lzw_in += dcg_bytes.len() as u64;
        self.lzw_out += packed.len() as u64;
        Ok(())
    }

    /// Spans for one [`compact_and_encode`] call that ran from `start`
    /// to `end`: the composite pipeline call, its function stage (only
    /// visible in the returned `StageTimings`, placed after the
    /// partition and dedup stages that precede it) and the encoder.
    #[allow(clippy::too_many_arguments)]
    pub fn record_compaction(
        &mut self,
        tr: &mut Tracer,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        encode_started: Instant,
        end: Instant,
        timings: twpp::StageTimings,
        archive_bytes: usize,
    ) {
        let pipeline = tr.record("pipeline.compact", parent, req, start, encode_started);
        let fs_start = start + Duration::from_nanos(timings.partition_nanos + timings.dedup_nanos);
        let fs_end = fs_start + Duration::from_nanos(timings.function_stage_nanos);
        tr.record("pipeline.function_stage", pipeline, req, fs_start, fs_end);
        tr.record("archive.encode", parent, req, encode_started, end);
        self.archive_bytes += archive_bytes as u64;
    }

    /// Per-pass write-path metrics from the probe's spans.
    pub fn report(&self, tr: &Tracer, out: &mut Outcome) {
        let passes = self.passes.max(1) as f64;
        let own = tr.self_times();
        let per_pass_ms = |name: &str| own.get(name).map_or(0.0, |e| e.2 as f64 / 1e6 / passes);
        out.set("partition.busy_ms", per_pass_ms("partition"));
        out.set("dedup.busy_ms", per_pass_ms("dedup"));
        out.set(
            "pipeline.function_stage_ms",
            per_pass_ms("pipeline.function_stage"),
        );
        out.set("lzw.busy_ms", per_pass_ms("lzw"));
        out.set("archive.encode_ms", per_pass_ms("archive.encode"));
        out.set(
            "dedup.unique_per_call",
            self.unique as f64 / self.calls.max(1) as f64,
        );
        out.set("lzw.in_bytes", self.lzw_in as f64 / passes);
        out.set("lzw.out_bytes", self.lzw_out as f64 / passes);
        out.set("archive.bytes", self.archive_bytes as f64 / passes);
    }
}

/// Runs `compact_spec`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let threads = WORKERS;
    let scale = if args.smoke { 0.01 } else { SCALE };
    let mut host = stats::Reference::new();
    let mut setup = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut inputs));
        let t = Instant::now();
        inputs = generate_profiles(args.seed, scale);
        setup.push((t.elapsed().as_secs_f64(), host.mark()));
        host.sample();
    }
    let digest = inputs
        .iter()
        .fold(Digest::new(), |d, (_, w)| d.words(w.words()));
    let events: u64 = inputs.iter().map(|(_, w)| w.event_count() as u64).sum();
    println!(
        "input compact_spec seed={} profiles={} events={events} digest={:016x}",
        args.seed,
        inputs.len(),
        digest.value()
    );

    let mut out = Outcome::default();
    // The reference archives: each must decode back to its input, or
    // every op on that input fails.
    let mut reference = Vec::new();
    for (name, wpp) in &inputs {
        let (archive, _, _) = compact_and_encode(wpp, threads)?;
        if reconstructs(&archive, wpp) {
            reference.push(Some(archive.as_bytes().to_vec()));
        } else {
            eprintln!("{name}: archive does not reconstruct its input");
            reference.push(None);
        }
    }
    let archive_bytes: u64 = reference.iter().flatten().map(|b| b.len() as u64).sum();

    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, false);
    let mut layers = WriteLayers::default();
    // Op times per input, each with the host reference's mark when it
    // ended: throughput sums the per-input medians, so a burst of machine
    // noise in one pass does not move it.
    let mut op_us: Vec<Vec<(f64, usize)>> = vec![Vec::new(); inputs.len()];
    // Traced runs alternate untraced and traced passes, so the overhead
    // compares like with like on the same warm process.
    let mut pass_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let deadline = Instant::now() + args.seconds;
    let mut pass = 0u64;
    while pass < 2 || Instant::now() < deadline {
        let traced = args.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        let mut this_pass = Duration::ZERO;
        for (i, (_, wpp)) in inputs.iter().enumerate() {
            let req = pass * inputs.len() as u64 + i as u64;
            out.attempted += 1;
            let t = Instant::now();
            let op = tr.open("compact.op", None, req);
            let result = compact_and_encode(wpp, threads);
            let end = Instant::now();
            match result {
                Ok((archive, stats, encode_started)) => {
                    if traced {
                        let bytes = archive.byte_len();
                        layers.record_compaction(
                            &mut tr,
                            op,
                            req,
                            t,
                            encode_started,
                            end,
                            stats.timings,
                            bytes,
                        );
                    }
                    tr.close(op);
                    if reference[i].as_deref() != Some(archive.as_bytes()) {
                        out.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    out.failed += 1;
                }
            }
            let d = end - t;
            this_pass += d;
            op_us[i].push((stats::us(d), host.mark()));
            host.tick();
            if traced {
                let probe = tr.open("layers.probe", None, req);
                layers.probe_parts(&mut tr, probe, req, wpp, threads)?;
                tr.close(probe);
            }
        }
        if traced {
            layers.passes += 1;
        }
        pass_us[usize::from(traced)].push(stats::us(this_pass));
        pass += 1;
    }

    // Times are read at the reference host speed (see README.md): each
    // op's and set-up's at the speed the reference measured around it,
    // so a slow stretch of the run moves neither the median nor the p99.
    host.summary();
    let mut setup_s: Vec<f64> = setup
        .iter()
        .map(|&(s, mark)| s * host.local_scale(mark))
        .collect();
    out.set("setup_s", stats::median(&mut setup_s));
    out.set("peak_rss_mib", stats::peak_rss_mib()?);
    let wall_s: f64 = op_us
        .iter()
        .map(|v| stats::median(&mut v.iter().map(|op| op.0).collect::<Vec<_>>()) / 1e6)
        .sum();
    eprintln!(
        "compact_spec: {:.0} events/s of wall time",
        events as f64 / wall_s
    );
    let mut scaled_us: Vec<Vec<f64>> = op_us
        .iter()
        .map(|v| {
            v.iter()
                .map(|&(us, mark)| us * host.local_scale(mark))
                .collect()
        })
        .collect();
    let busy_s: f64 = scaled_us.iter_mut().map(|v| stats::median(v) / 1e6).sum();
    out.set("events_per_s", events as f64 / busy_s);
    let per_event = archive_bytes as f64 / events as f64;
    out.set("archive_bytes_per_event", per_event);
    // Batch compaction writes nothing but the archive it returns.
    out.set("write_bytes_per_event", per_event);
    // A request is one pass over the whole input set: per-input
    // latencies mix sizes that differ tenfold, so their percentiles
    // would jump between inputs. The p50 pass is the sum of the per-input
    // medians, like the rates; the p99 pass is that sum times the p99 of
    // every op's time over its own input's median.
    out.set("req_per_s", 1.0 / busy_s);
    let mut slowdown: Vec<f64> = scaled_us
        .iter_mut()
        .flat_map(|v| {
            let m = stats::median(v);
            v.iter().map(move |us| us / m).collect::<Vec<_>>()
        })
        .collect();
    let ops = slowdown.len();
    let (p50, p99) = (
        busy_s * 1e6,
        busy_s * 1e6 * stats::percentile(&mut slowdown, 0.99),
    );
    eprintln!(
        "compact_spec: {ops} ops, {} beyond the p99",
        ops - (0.99 * ops as f64).ceil() as usize
    );
    for (name, v) in [
        ("ack_p50_us", p50),
        ("req_p50_us", p50),
        ("ack_p99_us", p99),
        ("req_p99_us", p99),
    ] {
        out.set(name, v);
    }
    if args.trace {
        layers.report(&tr, &mut out);
        finish_trace(&tr, &mut pass_us, &mut out, args);
    }
    Ok(out)
}

/// Tracing overhead from interleaved passes, the span count, the
/// self-time table on standard error and the span file.
pub fn finish_trace(tr: &Tracer, pass_us: &mut [Vec<f64>; 2], out: &mut Outcome, args: &Args) {
    let [untraced, traced] = pass_us;
    let base = stats::median(untraced);
    if base > 0.0 && !traced.is_empty() {
        out.set(
            "trace.overhead_pct",
            100.0 * (stats::median(traced) / base - 1.0),
        );
    }
    out.set("trace.spans", tr.spans().len() as f64);
    eprint!("{}", tr.summary());
    let path = args
        .work_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("{}: {e}", path.display());
    }
}
