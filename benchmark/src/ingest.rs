//! `ingest_traced`: a call-heavy mini-language program, compiled and
//! traced on a seeded input vector, streamed in fixed batches through a
//! durable `twpp::Compactor` and finished into `merged.twpa`.

use std::path::Path;
use std::time::{Duration, Instant};

use twpp::ingest::{WAL_HEADER_LEN, WAL_RECORD_HEADER_LEN};
use twpp::{Compactor, Durability, IngestOptions};
use twpp_tracer::{ExecLimits, RawWpp, WppEvent};

use crate::compact::{self, WriteLayers};
use crate::report::Outcome;
use crate::stats::{self, Digest, Reference, Rng, Timeline};
use crate::tracer::Tracer;
use crate::Args;

/// The traced program.
const PROGRAM: &str = include_str!("../programs/calls.twl");

/// Times the set-up (compile and trace, ~20 ms) is repeated; a set-up
/// this short is mostly noise, so it takes more samples for its median.
const SETUP_REPS: usize = 41;

/// Events per `feed` call. A 1 MiB seal holds 262144 events, so every
/// 32nd feed seals: about 2% of the acks, enough to put the seal stalls
/// into the p99.
const BATCH_EVENTS: usize = 8192;

/// The input vector: the round count, then one `(k, n)` pair per round.
/// `k` picks branches in the program; `n` is the length of a round's
/// call loop.
fn input_vector(seed: u64, rounds: i64) -> Vec<i64> {
    let mut rng = Rng::new(seed ^ 0x1a57_0001);
    let mut input = vec![rounds];
    for _ in 0..rounds {
        input.push(rng.below(1000) as i64);
        input.push(40 + rng.below(81) as i64);
    }
    input
}

/// Compiles and traces the program: the workload's set-up.
fn trace_program(input: &[i64]) -> Result<RawWpp, String> {
    let program = twpp_lang::compile(PROGRAM).map_err(|e| format!("compile: {e}"))?;
    let (_, wpp) = twpp_tracer::run_traced(&program, input, ExecLimits::default())
        .map_err(|e| format!("trace: {e}"))?;
    Ok(wpp)
}

/// Bytes of every regular file directly under `dir` whose name starts
/// with one of `prefixes` (all files when empty).
fn dir_bytes(dir: &Path, prefixes: &[&str]) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p)) {
            total += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

/// One `feed` call: completion time in s since the epoch, duration in
/// µs, and the host reference's mark when it returned.
type Ack = (f64, f64, usize);

/// What one streamed pass did.
struct Pass {
    /// Feed and finish time: what the stream's producer waits for.
    busy: Duration,
    acks: Vec<Ack>,
    /// The `finish` call: duration in µs and the mark when it returned.
    finish: (f64, usize),
    attempted: u64,
    failed: u64,
    wal_bytes: u64,
    segment_bytes: u64,
    written_bytes: u64,
    merged_bytes: u64,
}

/// Streams `events` through a fresh compactor in `dir` and finishes it,
/// checking `merged.twpa` against the batch archive `reference`. The
/// host reference is sampled between feeds.
fn stream_pass(
    dir: &Path,
    events: &[WppEvent],
    reference: &[u8],
    tr: &mut Tracer,
    host: &mut Reference,
    req: u64,
    epoch: Instant,
) -> Result<Pass, String> {
    // The default options (1 MiB seals) but for the worker count and
    // `Durability::Flush`: every write the default makes, without the
    // `fsync`s, whose time on a shared VM's disk follows the other
    // tenants, not the program.
    let opts = IngestOptions {
        threads: Some(compact::WORKERS),
        durability: Durability::Flush,
        ..IngestOptions::default()
    };
    let mut c = Compactor::create(dir, opts).map_err(|e| format!("create: {e}"))?;
    let root = tr.open("ingest.pass", None, req);
    let mut pass = Pass {
        busy: Duration::ZERO,
        acks: Vec::with_capacity(events.len() / BATCH_EVENTS + 1),
        finish: (0.0, 0),
        attempted: 0,
        failed: 0,
        wal_bytes: WAL_HEADER_LEN as u64,
        segment_bytes: 0,
        written_bytes: 0,
        merged_bytes: 0,
    };
    for batch in events.chunks(BATCH_EVENTS) {
        pass.attempted += 1;
        let segments = c.segment_count();
        let t = Instant::now();
        let fed = c.feed(batch);
        let end = Instant::now();
        pass.busy += end - t;
        if let Err(e) = fed {
            eprintln!("feed: {e}");
            pass.failed += 1;
            return Ok(pass);
        }
        pass.acks
            .push(((end - epoch).as_secs_f64(), stats::us(end - t), host.mark()));
        pass.wal_bytes += (WAL_RECORD_HEADER_LEN + 4 * batch.len()) as u64;
        let name = if c.segment_count() > segments {
            "ingest.seal"
        } else {
            "ingest.feed"
        };
        tr.record(name, root, req, t, end);
        host.tick();
    }
    pass.attempted += 1;
    let t = Instant::now();
    let finished = c.finish();
    let end = Instant::now();
    pass.busy += end - t;
    pass.finish = (stats::us(end - t), host.mark());
    tr.record("ingest.finish", root, req, t, end);
    tr.close(root);
    match finished {
        Ok(report) => {
            let merged = std::fs::read(&report.path).map_err(|e| e.to_string())?;
            if merged != reference {
                eprintln!("merged.twpa differs from batch compaction of the same stream");
                pass.failed += 1;
            }
            pass.merged_bytes = merged.len() as u64;
        }
        Err(e) => {
            eprintln!("finish: {e}");
            pass.failed += 1;
        }
    }
    pass.segment_bytes = dir_bytes(dir, &["seg-"])?;
    // The WAL file is truncated at every seal, so its bytes are counted
    // as appended; every other file is counted as it lies on disk.
    let wal_on_disk = dir_bytes(dir, &["wal"])?;
    pass.written_bytes = dir_bytes(dir, &[])? - wal_on_disk + pass.wal_bytes;
    Ok(pass)
}

/// Runs `ingest_traced`.
pub fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let threads = compact::WORKERS;
    let rounds = if args.smoke { 12 } else { 400 };
    let input = input_vector(args.seed, rounds);
    let mut host = Reference::new();
    let mut setup = Vec::new();
    let mut wpp = RawWpp::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        wpp = trace_program(&input)?;
        setup.push((t.elapsed().as_secs_f64(), host.mark()));
        host.sample();
    }
    let events = wpp.events();
    let digest = Digest::new()
        .bytes(
            &input
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<u8>>(),
        )
        .words(wpp.words());
    println!(
        "input ingest_traced seed={} rounds={rounds} events={} digest={:016x}",
        args.seed,
        events.len(),
        digest.value()
    );

    let mut out = Outcome::default();
    let (reference, _, _) = compact::compact_and_encode(&wpp, threads)?;
    if !compact::reconstructs(&reference, &wpp) {
        return Err("batch archive of the traced stream does not reconstruct it".into());
    }

    let mut tr = Tracer::new(Instant::now(), false);
    let mut layers = WriteLayers::default();
    let epoch = Instant::now();
    // Per pass: the feeds' times and marks, and the finish's.
    let mut timed: Vec<(Vec<Ack>, (f64, usize))> = Vec::new();
    let (mut done_events, mut written, mut merged) = (0u64, 0u64, 0u64);
    let (mut wal_bytes, mut segment_bytes) = (0u64, 0u64);
    let mut pass_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let deadline = Instant::now() + args.seconds;
    let mut n = 0u64;
    while n < 2 || Instant::now() < deadline {
        let traced = args.trace && n % 2 == 1;
        tr.set_enabled(traced);
        let dir = run_dir.join(format!("pass-{n}"));
        let pass = stream_pass(
            &dir,
            &events,
            reference.as_bytes(),
            &mut tr,
            &mut host,
            n,
            epoch,
        )?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        out.attempted += pass.attempted;
        out.failed += pass.failed;
        done_events += events.len() as u64;
        written += pass.written_bytes;
        merged += pass.merged_bytes;
        pass_us[usize::from(traced)].push(stats::us(pass.busy));
        if traced {
            // The batch path over the same stream: the layers the
            // compactor's seals and merge run through.
            let probe = tr.open("layers.probe", None, n);
            layers.probe_parts(&mut tr, probe, n, &wpp, threads)?;
            let t = Instant::now();
            let (archive, stats, encode_started) = compact::compact_and_encode(&wpp, threads)?;
            let end = Instant::now();
            let bytes = archive.byte_len();
            layers.record_compaction(
                &mut tr,
                probe,
                n,
                t,
                encode_started,
                end,
                stats.timings,
                bytes,
            );
            tr.close(probe);
            layers.passes += 1;
            wal_bytes += pass.wal_bytes;
            segment_bytes += pass.segment_bytes;
        }
        timed.push((pass.acks, pass.finish));
        n += 1;
        if pass.failed > 0 {
            break;
        }
    }

    // Times are read at the reference host speed (see README.md): each
    // call's and set-up's at the speed the reference measured around it.
    // Rates come from the median pass, so a burst of machine noise in
    // one pass does not move them.
    host.summary();
    let scaled = |us: f64, mark: usize| us * host.local_scale(mark);
    let mut acks = Timeline::new(1000);
    let (mut feed_us, mut scaled_pass_us) = (Vec::new(), Vec::new());
    for (feeds, (finish_us, finish_mark)) in &timed {
        let mut sum = 0.0;
        for &(end_s, us, mark) in feeds {
            acks.push(end_s, scaled(us, mark));
            sum += scaled(us, mark);
        }
        feed_us.push(sum);
        scaled_pass_us.push(sum + scaled(*finish_us, *finish_mark));
    }
    let wall_pass_s = stats::median(&mut pass_us.concat()) / 1e6;
    eprintln!(
        "ingest_traced: {:.0} events/s of wall time",
        events.len() as f64 / wall_pass_s
    );
    let mut setup_s: Vec<f64> = setup
        .iter()
        .map(|&(s, mark)| s * host.local_scale(mark))
        .collect();
    out.set("setup_s", stats::median(&mut setup_s));
    out.set("peak_rss_mib", stats::peak_rss_mib()?);
    out.set(
        "events_per_s",
        events.len() as f64 / stats::median(&mut scaled_pass_us) * 1e6,
    );
    out.set(
        "archive_bytes_per_event",
        merged as f64 / done_events as f64,
    );
    out.set("write_bytes_per_event", written as f64 / done_events as f64);
    let feeds_per_pass = events.len().div_ceil(BATCH_EVENTS) as f64;
    out.set(
        "req_per_s",
        feeds_per_pass / stats::median(&mut feed_us) * 1e6,
    );
    let (p50, p99) = (acks.quantile(0.5), acks.quantile(0.99));
    for (name, v) in [
        ("ack_p50_us", p50),
        ("req_p50_us", p50),
        ("ack_p99_us", p99),
        ("req_p99_us", p99),
    ] {
        out.set(name, v);
    }
    if args.trace {
        let traced = layers.passes.max(1) as f64;
        layers.report(&tr, &mut out);
        let own = tr.self_times();
        let per_pass_ms = |name: &str| own.get(name).map_or(0.0, |e| e.2 as f64 / 1e6 / traced);
        out.set("ingest.feed_ms", per_pass_ms("ingest.feed"));
        out.set("ingest.seal_ms", per_pass_ms("ingest.seal"));
        out.set("ingest.finish_ms", per_pass_ms("ingest.finish"));
        let seals = own.get("ingest.seal").map_or(0, |e| e.0);
        out.set("ingest.seals", seals as f64 / traced);
        out.set("ingest.wal_bytes", wal_bytes as f64 / traced);
        out.set("ingest.segment_bytes", segment_bytes as f64 / traced);
        compact::finish_trace(&tr, &mut pass_us, &mut out, args);
    }
    Ok(out)
}
