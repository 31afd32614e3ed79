//! `serve_oneshot`: the `twpp_server::serve` daemon on loopback TCP over
//! a fleet of profile archives, driven by two closed-loop clients that
//! send a Zipf-skewed mix of Query, Slice and Currency, each request on a
//! fresh connection like `twpp query --remote`.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use twpp::gov::{Budget, CancelToken, Limits};
use twpp::ingest::ServeListener;
use twpp::net::{Answer, BudgetSpec, CurrencyReq, Frame, QueryReq, SliceReq};
use twpp::{FrameCache, LazyArchive, Obs};
use twpp_dataflow::{
    backward_reach_governed, block_effects, solve_backward_effects_governed, DynCfg,
};
use twpp_ir::{BlockId, FuncId};
use twpp_server::{
    answer_currency_req, answer_query_req, answer_slice_req, currency_answer, query_answer, serve,
    slice_answer, Client, ClientError, InProcServer, ServeOptions, ServeReport,
};
use twpp_workloads::Profile;

use crate::compact;
use crate::report::Outcome;
use crate::stats::{self, Digest, Reference, Rng, Timeline, Zipf};
use crate::tracer::Tracer;
use crate::Args;

/// Closed-loop clients, one per CPU of the machine the benchmark was
/// sized on.
const CLIENTS: u64 = 2;
/// Zipf exponent of the request mix over the pool's ranks.
const ZIPF_S: f64 = 1.0;
/// The frame cache holds this share of the fleet's decoded frames.
const FRAME_CACHE_SHARE: f64 = 0.4;
/// The summary cache holds this share of the pool's answer bytes.
const SUMMARY_CACHE_SHARE: f64 = 0.25;
/// Requests replayed in-process by a traced run.
const REPLAY_MAX: usize = 20_000;
/// Requests replayed layer by layer by a traced run.
const DECOMPOSE_MAX: usize = 4_000;

struct Sizes {
    fleet_scale: f64,
    pool: usize,
}

/// The fleet as built on disk.
struct FleetOnDisk {
    dir: PathBuf,
    names: Vec<String>,
    events: u64,
    bytes: u64,
}

/// Times the set-up (build the fleet, start the daemon, wait until it
/// lists the fleet; about a second) is repeated; `setup_s` is their
/// median.
const SETUP_REPS: usize = 5;

/// Archives per profile in the fleet. One archive's size and shape
/// depend on which functions its seed makes hot; four average that out.
const FLEET_INSTANCES: u64 = 4;

/// [`FLEET_INSTANCES`] archives per profile, each seed XORed with the
/// run seed and an instance salt.
fn build_fleet(dir: &Path, seed: u64, scale: f64, threads: usize) -> Result<FleetOnDisk, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut fleet = FleetOnDisk {
        dir: dir.to_path_buf(),
        names: Vec::new(),
        events: 0,
        bytes: 0,
    };
    for i in 0..FLEET_INSTANCES {
        for p in Profile::all() {
            let mut spec = p.spec().scaled(scale);
            spec.seed ^= seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let w = twpp_workloads::generate(&spec);
            let (archive, _, _) = compact::compact_and_encode(&w.wpp, threads)?;
            let name = format!("{}-{i}", w.name);
            let path = dir.join(format!("{name}.twpa"));
            archive
                .save(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            fleet.events += w.wpp.event_count() as u64;
            fleet.bytes += archive.byte_len() as u64;
            fleet.names.push(name);
        }
    }
    Ok(fleet)
}

/// Opens every archive of the fleet with its own cache of `cap` bytes.
fn open_fleet(fleet: &FleetOnDisk, cap: u64) -> Result<Vec<LazyArchive>, String> {
    let cache = Arc::new(FrameCache::new(cap));
    fleet
        .names
        .iter()
        .map(|n| {
            let path = fleet.dir.join(format!("{n}.twpa"));
            LazyArchive::open_with_cache(&path, cache.clone(), Obs::noop())
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// The solver step budget every request carries. A request that needs
/// more gets the daemon's sound partial answer, cut at exactly this
/// many steps, so its cost and its answer are the same on every run.
/// Unbounded, a currency solve on the main loop of one 099.go archive
/// took 96 ms, 5000 times a typical request.
const MAX_STEPS: u64 = 20_000;

const STEP_BUDGET: BudgetSpec = BudgetSpec {
    deadline_ms: 0,
    max_steps: MAX_STEPS,
};

/// A fresh budget of [`MAX_STEPS`] steps, as the daemon gives each
/// request.
fn step_budget() -> Budget {
    Limits::new().max_steps(MAX_STEPS).start()
}

/// One distinct request of the pool.
struct Request {
    frame: Frame,
    /// The daemon's answer must equal this byte for byte.
    expected: Answer,
    /// Trace positions the request is about: every unique trace of the
    /// function for a query, the one trace for a slice or currency.
    events: u64,
}

/// The distinct requests the mix draws from, and the fleet's decoded
/// frame bytes. Slice criteria and currency uses are heads of the
/// trace's dynamic CFG, so every request is answerable; the ones that
/// need more than [`MAX_STEPS`] solver steps are answered partially.
fn request_pool(
    fleet: &FleetOnDisk,
    archives: &[LazyArchive],
    seed: u64,
    size: usize,
) -> Result<(Vec<Request>, u64), String> {
    let mut rng = Rng::new(seed ^ 0x9001_5eed);
    let (mut queries, mut slices, mut currencies) = (Vec::new(), Vec::new(), Vec::new());
    for (name, la) in fleet.names.iter().zip(archives) {
        for func in la.function_ids() {
            let record = la.read_function(func).map_err(|e| format!("{name}: {e}"))?;
            let f = func.as_u32();
            let all: u64 = record
                .traces
                .iter()
                .map(|(_, tt)| u64::from(tt.len()))
                .sum();
            queries.push((
                Frame::Query {
                    req: QueryReq {
                        archive: name.clone(),
                        func: f,
                    },
                    budget: STEP_BUDGET,
                },
                all,
            ));
            for (t, (dict, tt)) in record.traces.iter().enumerate().take(8) {
                let dcfg = DynCfg::new(tt, &record.dicts[*dict as usize]);
                let heads: Vec<u32> = dcfg.nodes().iter().map(|n| n.head.as_u32()).collect();
                let pick = |rng: &mut Rng| heads[rng.below(heads.len() as u64) as usize];
                let events = u64::from(tt.len());
                for _ in 0..3 {
                    slices.push((
                        Frame::Slice {
                            req: SliceReq {
                                archive: name.clone(),
                                func: f,
                                trace: t as u32,
                                criterion: pick(&mut rng),
                            },
                            budget: STEP_BUDGET,
                        },
                        events,
                    ));
                    currencies.push((
                        Frame::Currency {
                            req: CurrencyReq {
                                archive: name.clone(),
                                func: f,
                                trace: t as u32,
                                def_block: pick(&mut rng),
                                use_block: pick(&mut rng),
                                redefs: vec![pick(&mut rng)],
                            },
                            budget: STEP_BUDGET,
                        },
                        events,
                    ));
                }
            }
        }
    }
    let decoded = archives
        .first()
        .map_or(0, |la| la.frame_cache().resident_bytes());
    let mut pool = Vec::with_capacity(size);
    let mut seen = HashSet::new();
    // A quarter queries, then slices and currencies 40:35 of what is
    // left, so a fleet with few functions still fills the pool.
    let shares = [0.25, 0.40, 0.35];
    for (k, list) in [&mut queries, &mut slices, &mut currencies]
        .into_iter()
        .enumerate()
    {
        rng.shuffle(list);
        let left = size.saturating_sub(pool.len()) as f64;
        let take =
            pool.len() + (left * shares[k] / shares[k..].iter().sum::<f64>()).ceil() as usize;
        for (frame, events) in list.drain(..) {
            if pool.len() == take {
                break;
            }
            if !seen.insert(frame.encode()) {
                continue;
            }
            let expected = oracle(archives, &fleet.names, &frame, &step_budget())?;
            pool.push(Request {
                frame,
                expected,
                events,
            });
        }
    }
    Ok((pool, decoded))
}

/// Answer-size strata the request ranks cycle through.
const STRATA: usize = 16;

/// Reorders the pool so that rank `r` holds a request from stratum
/// `r % STRATA`, the seed choosing which one. The last stratum holds the
/// partially answered requests, so the `j`-th of them sits at rank
/// `STRATA * j + STRATA - 1` whatever the seed; the others hold the
/// complete ones by answer size. Otherwise the seed decides how heavy
/// the few head requests are that a Zipf mix sends most often: with
/// persistent connections, where a request's own cost shows, requests/s
/// ranged from 16k to 31k over four seeds, and from 25k to 28k with this
/// order.
fn stratify(pool: Vec<Request>, rng: &mut Rng) -> Vec<Request> {
    let (partial, mut complete): (Vec<Request>, Vec<Request>) =
        pool.into_iter().partition(|r| !r.expected.complete);
    complete.sort_by_key(|r| r.expected.text.len());
    let per = complete.len().div_ceil(STRATA - 1).max(1);
    let mut strata: Vec<Vec<Request>> = Vec::new();
    for r in complete {
        match strata.last_mut() {
            Some(s) if s.len() < per => s.push(r),
            _ => strata.push(vec![r]),
        }
    }
    strata.resize_with(STRATA - 1, Vec::new);
    strata.push(partial);
    for s in &mut strata {
        rng.shuffle(s);
    }
    let mut order = Vec::new();
    while strata.iter().any(|s| !s.is_empty()) {
        order.extend(strata.iter_mut().filter_map(Vec::pop));
    }
    order
}

/// The answer the daemon must give: `answer_*_req` on a directly
/// opened archive.
fn oracle(
    archives: &[LazyArchive],
    names: &[String],
    frame: &Frame,
    budget: &Budget,
) -> Result<Answer, String> {
    let la = |name: &str| {
        names
            .iter()
            .position(|n| n == name)
            .map(|i| &archives[i])
            .ok_or_else(|| format!("unknown archive {name}"))
    };
    let answer = match frame {
        Frame::Query { req, .. } => answer_query_req(la(&req.archive)?, req, budget),
        Frame::Slice { req, .. } => answer_slice_req(la(&req.archive)?, req, budget),
        Frame::Currency { req, .. } => answer_currency_req(la(&req.archive)?, req, budget),
        _ => return Err("not a solvable request".into()),
    };
    answer.map_err(|e| format!("oracle: {e:?}"))
}

/// Everything a set-up leaves for the measured window.
struct Ready {
    daemon: Daemon,
    fleet: FleetOnDisk,
    pool: Vec<Request>,
    opts: ServeOptions,
}

/// A running daemon.
struct Daemon {
    addr: String,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<Result<ServeReport, String>>,
}

impl Daemon {
    fn start(root: &Path, opts: ServeOptions) -> Result<Daemon, String> {
        let listener = ServeListener::bind("tcp:127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr();
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let root = root.to_path_buf();
        let handle = std::thread::spawn(move || {
            serve(&root, listener, None, opts, &token).map_err(|e| format!("serve: {e}"))
        });
        Ok(Daemon {
            addr,
            shutdown,
            handle,
        })
    }

    /// Waits until the daemon lists `archives` archives.
    fn ready(&self, archives: usize) -> Result<(), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        let listed = client.list_archives().map_err(|e| e.to_string())?;
        if listed.len() != archives {
            return Err(format!(
                "daemon lists {} archives, expected {archives}",
                listed.len()
            ));
        }
        Ok(())
    }

    fn stop(self) -> Result<ServeReport, String> {
        self.shutdown.cancel();
        self.handle
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
    }
}

/// What one client saw.
struct ClientLog {
    /// Round trips of answered requests.
    rtt: Timeline,
    /// The same round trips split untraced / traced.
    rtt_us: [Vec<f64>; 2],
    attempted: u64,
    failed: u64,
    /// Pool indices in send order (traced runs only).
    sequence: Vec<usize>,
    tracer: Tracer,
}

/// One closed-loop client until `deadline`: every request connects
/// afresh, sends one frame and reads one reply.
fn client_loop(
    id: u64,
    addr: &str,
    pool: &[Request],
    args: &Args,
    deadline: Instant,
    epoch: Instant,
) -> ClientLog {
    let mut rng = Rng::new(args.seed ^ 0xc11e_0000 ^ (id << 8));
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut log = ClientLog {
        rtt: Timeline::new(1000),
        rtt_us: [Vec::new(), Vec::new()],
        attempted: 0,
        failed: 0,
        sequence: Vec::new(),
        tracer: Tracer::new(epoch, false),
    };
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let idx = zipf.sample(&mut rng);
        let req = (id << 40) | seq;
        // Traced runs trace every other request; the untraced half is the
        // baseline for the overhead.
        let traced = args.trace && seq % 2 == 1;
        log.tracer.set_enabled(traced);
        seq += 1;
        log.attempted += 1;
        if args.trace {
            log.sequence.push(idx);
        }
        let t = Instant::now();
        let reply = Client::connect(addr).and_then(|mut c| {
            // A Busy reply is a failed request, not one to retry.
            c.busy_retries = 0;
            c.request(&pool[idx].frame)
        });
        let end = Instant::now();
        log.tracer.record("net.connect", None, req, t, end);
        match reply {
            Ok(Frame::Answer(a)) if *a == pool[idx].expected => {
                let us = stats::us(end - t);
                log.rtt.push((end - epoch).as_secs_f64(), us);
                log.rtt_us[usize::from(traced)].push(us);
            }
            Ok(_) => {
                eprintln!("request {idx}: reply differs from the direct answer");
                log.failed += 1;
            }
            Err(e) => {
                if !matches!(e, ClientError::Busy) {
                    eprintln!("request {idx}: {e}");
                }
                log.failed += 1;
            }
        }
    }
    log
}

/// Runs `serve_oneshot`.
pub fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let threads = twpp::default_threads();
    let sizes = if args.smoke {
        Sizes {
            fleet_scale: 0.01,
            pool: 300,
        }
    } else {
        Sizes {
            fleet_scale: 0.1,
            pool: 2400,
        }
    };

    // Set-up, repeated: build the fleet, start the daemon, wait until it
    // answers. Sizing the caches and drawing the request pool are the
    // benchmark's own work and are not timed. The host reference is
    // sampled after each repetition: set-up time is read at the
    // reference host speed, like the write workloads' times (see
    // README.md); request latencies are not.
    let mut host = Reference::new();
    let mut setup = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = state.take() {
            let previous: Ready = previous;
            previous.daemon.stop()?;
        }
        let t = Instant::now();
        let fleet = build_fleet(
            &run_dir.join(format!("fleet-{rep}")),
            args.seed,
            sizes.fleet_scale,
            threads,
        )?;
        let built = t.elapsed();
        let direct = open_fleet(&fleet, u64::MAX)?;
        let (pool, decoded) = request_pool(&fleet, &direct, args.seed, sizes.pool)?;
        let pool = stratify(pool, &mut Rng::new(args.seed ^ 0x57a7_a000));
        let answer_bytes: usize = pool
            .iter()
            .map(|r| r.frame.encode().len() + r.expected.text.len() + 64)
            .sum();
        let opts = ServeOptions {
            frame_cache_bytes: (decoded as f64 * FRAME_CACHE_SHARE) as u64,
            summary_cache_bytes: (answer_bytes as f64 * SUMMARY_CACHE_SHARE) as u64,
            ..ServeOptions::default()
        };
        let t = Instant::now();
        let daemon = Daemon::start(&fleet.dir, opts.clone())?;
        daemon.ready(fleet.names.len())?;
        let started = t.elapsed();
        setup.push(((built + started).as_secs_f64(), host.mark()));
        host.sample();
        eprintln!(
            "set-up {rep}: fleet built in {:.3} s, daemon ready in {:.3} s",
            built.as_secs_f64(),
            started.as_secs_f64()
        );
        state = Some(Ready {
            daemon,
            fleet,
            pool,
            opts,
        });
    }
    let Ready {
        daemon,
        fleet,
        pool,
        opts,
    } = state.expect("at least one set-up");
    let mut digest = Digest::new();
    for name in &fleet.names {
        let path = fleet.dir.join(format!("{name}.twpa"));
        digest = digest.bytes(&std::fs::read(&path).map_err(|e| e.to_string())?);
    }
    for r in &pool {
        digest = digest.bytes(&r.frame.encode());
    }
    let partial = pool.iter().filter(|r| !r.expected.complete).count();
    println!(
        "input {} seed={} archives={} events={} pool={} partial={partial} frame_cache={}B summary_cache={}B digest={:016x}",
        args.workload,
        args.seed,
        fleet.names.len(),
        fleet.events,
        pool.len(),
        opts.frame_cache_bytes,
        opts.summary_cache_bytes,
        digest.value()
    );

    let epoch = Instant::now();
    let deadline = epoch + args.seconds;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (addr, pool) = (&daemon.addr, &pool);
                s.spawn(move || client_loop(id, addr, pool, args, deadline, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let report = daemon.stop()?;

    let mut out = Outcome::default();
    let mut split: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rtt = Timeline::new(1000);
    let mut tr = Tracer::new(epoch, args.trace);
    let mut sequences = Vec::new();
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        rtt.extend(log.rtt);
        for (all, mine) in split.iter_mut().zip(&log.rtt_us) {
            all.extend_from_slice(mine);
        }
        sequences.push(log.sequence);
        tr.absorb(log.tracer);
    }

    host.summary();
    let mut setup_s: Vec<f64> = setup
        .iter()
        .map(|&(s, mark)| s * host.local_scale(mark))
        .collect();
    out.set("setup_s", stats::median(&mut setup_s));
    out.set("peak_rss_mib", stats::peak_rss_mib()?);
    let req_per_s = rtt.rate();
    out.set("req_per_s", req_per_s);
    // The read side's throughput: trace positions answered about per
    // second, requests/s times the median positions per distinct
    // request. Over five seeds, with requests/s spreading 0.003
    // (interquartile range over median), the mean of the requests drawn
    // spread 0.31, since it weighs the few head requests the seed puts
    // there, and the mean over the pool 0.107, since a few huge traces
    // dominate it.
    let mut events: Vec<f64> = pool.iter().map(|r| r.events as f64).collect();
    out.set("events_per_s", req_per_s * stats::median(&mut events));
    // Building the fleet writes exactly its archives.
    let per_event = fleet.bytes as f64 / fleet.events as f64;
    out.set("archive_bytes_per_event", per_event);
    out.set("write_bytes_per_event", per_event);
    // A request is acknowledged by its reply: ack and req are one figure.
    let (p50, p99) = (rtt.quantile(0.5), rtt.quantile(0.99));
    for (name, v) in [
        ("req_p50_us", p50),
        ("ack_p50_us", p50),
        ("req_p99_us", p99),
        ("ack_p99_us", p99),
    ] {
        out.set(name, v);
    }

    if args.trace {
        out.set("serve.busy", report.busy as f64);
        out.set("serve.errors", report.errors as f64);
        // The same request sequence, interleaved across clients as sent.
        let mut sequence = Vec::new();
        for i in 0.. {
            let before = sequence.len();
            sequence.extend(sequences.iter().filter_map(|s| s.get(i).copied()));
            if sequence.len() == before || sequence.len() >= REPLAY_MAX {
                break;
            }
        }
        sequence.truncate(REPLAY_MAX);
        replay_in_process(&fleet, &opts, &pool, &sequence, &mut tr, &mut out)?;
        decompose(&fleet, &opts, &pool, &sequence, &mut tr, &mut out)?;
        let mut opens = Vec::new();
        for round in 0..5u64 {
            let t = Instant::now();
            for name in &fleet.names {
                let path = fleet.dir.join(format!("{name}.twpa"));
                let s = Instant::now();
                LazyArchive::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                tr.record("lazy.open", None, round, s, Instant::now());
            }
            opens.push(stats::ms(t.elapsed()));
        }
        out.set("lazy.open_ms", stats::median(&mut opens));
        let handle = out.metrics.get("serve.handle_us").copied().unwrap_or(0.0);
        out.set("net.transport_us", p50 - handle);
        let mut connects: Vec<f64> = tr
            .durations("net.connect")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.set("net.connect_us", stats::median(&mut connects));
        let mut pass_us = split;
        compact::finish_trace(&tr, &mut pass_us, &mut out, args);
    }
    Ok(out)
}

/// `InProcServer::handle` over the same sequence: handle time and the
/// caches' hit ratios, with every reply checked.
fn replay_in_process(
    fleet: &FleetOnDisk,
    opts: &ServeOptions,
    pool: &[Request],
    sequence: &[usize],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let server = InProcServer::new(&fleet.dir, opts.clone()).map_err(|e| e.to_string())?;
    let mut handle_us = Vec::with_capacity(sequence.len());
    for (req, &idx) in sequence.iter().enumerate() {
        let t = Instant::now();
        let reply = server.handle(&pool[idx].frame);
        let end = Instant::now();
        tr.record("serve.handle", None, req as u64, t, end);
        handle_us.push(stats::us(end - t));
        out.attempted += 1;
        if !matches!(&reply, Frame::Answer(a) if **a == pool[idx].expected) {
            out.failed += 1;
        }
    }
    let frames = server.fleet().frame_cache().stats();
    let summaries = server.fleet().summary_stats();
    out.set("serve.handle_us", stats::median(&mut handle_us));
    out.set("cache.frame_hit_ratio", frames.hit_rate());
    out.set("cache.summary_hit_ratio", summaries.hit_rate());
    out.set(
        "archive.frames_read",
        frames.misses as f64 / sequence.len().max(1) as f64,
    );
    Ok(())
}

/// The read path layer by layer on a directly opened fleet with the
/// daemon's frame-cache cap and step budget: frame read, `DynCfg` build,
/// solve, and the answer builder per verb.
fn decompose(
    fleet: &FleetOnDisk,
    opts: &ServeOptions,
    pool: &[Request],
    sequence: &[usize],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let archives = open_fleet(fleet, opts.frame_cache_bytes)?;
    let cache = archives.first().map(|la| la.frame_cache().clone());
    let mut decode_us = Vec::new();
    let mut render: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (req, &idx) in sequence.iter().take(DECOMPOSE_MAX).enumerate() {
        let req = req as u64;
        let frame = &pool[idx].frame;
        let (archive, func) = match frame {
            Frame::Query { req, .. } => (&req.archive, req.func),
            Frame::Slice { req, .. } => (&req.archive, req.func),
            Frame::Currency { req, .. } => (&req.archive, req.func),
            _ => continue,
        };
        let la = &archives[fleet
            .names
            .iter()
            .position(|n| n == archive)
            .ok_or("unknown archive")?];
        let func = FuncId::from_u32(func);
        let root = tr.open("replay.request", None, req);
        let misses = cache.as_ref().map_or(0, |c| c.stats().misses);
        let t = Instant::now();
        let record = la.read_function(func).map_err(|e| e.to_string())?;
        let end = Instant::now();
        tr.record("archive.frame_read", root, req, t, end);
        if cache.as_ref().map_or(0, |c| c.stats().misses) > misses {
            decode_us.push(stats::us(end - t));
        }
        // Build and solve once more from here, then time the answer
        // builder; its render share is its time minus build and solve.
        let mut inner = Duration::ZERO;
        let (verb, answer_time) = match frame {
            Frame::Query { .. } => {
                let t = Instant::now();
                query_answer(func, &record, &step_budget()).map_err(|e| format!("{e:?}"))?;
                (0, t.elapsed())
            }
            Frame::Slice { req: r, .. } => {
                let (dict, tt) = &record.traces[r.trace as usize];
                let t = Instant::now();
                let dcfg = DynCfg::new(tt, &record.dicts[*dict as usize]);
                let built = Instant::now();
                let node = dcfg
                    .node_by_head(BlockId::new(r.criterion))
                    .ok_or("criterion")?;
                std::hint::black_box(backward_reach_governed(&dcfg, node, &step_budget()));
                let solved = Instant::now();
                tr.record("dyncfg.build", root, req, t, built);
                tr.record("dataflow.solve", root, req, built, solved);
                inner = solved - t;
                let t = Instant::now();
                slice_answer(func, &record, r.trace, r.criterion, &step_budget())
                    .map_err(|e| format!("{e:?}"))?;
                (1, t.elapsed())
            }
            Frame::Currency { req: r, .. } => {
                let (dict, tt) = &record.traces[r.trace as usize];
                let t = Instant::now();
                let dcfg = DynCfg::new(tt, &record.dicts[*dict as usize]);
                let built = Instant::now();
                let redefs: Vec<BlockId> = r.redefs.iter().map(|&b| BlockId::new(b)).collect();
                let effects = block_effects(&dcfg, BlockId::new(r.def_block), &redefs);
                let node = dcfg
                    .node_by_head(BlockId::new(r.use_block))
                    .ok_or("use block")?;
                let ts = dcfg.node(node).ts.clone();
                std::hint::black_box(solve_backward_effects_governed(
                    &dcfg,
                    &effects,
                    node,
                    &ts,
                    &step_budget(),
                ));
                let solved = Instant::now();
                tr.record("dyncfg.build", root, req, t, built);
                tr.record("dataflow.solve", root, req, built, solved);
                inner = solved - t;
                let t = Instant::now();
                currency_answer(
                    func,
                    &record,
                    r.trace,
                    r.def_block,
                    r.use_block,
                    &r.redefs,
                    &step_budget(),
                )
                .map_err(|e| format!("{e:?}"))?;
                (2, t.elapsed())
            }
            _ => continue,
        };
        let name = [
            "answer.render.query",
            "answer.render.slice",
            "answer.render.currency",
        ][verb];
        let end = Instant::now();
        tr.record(name, root, req, end - answer_time, end);
        tr.close(root);
        render[verb].push(stats::us(answer_time.saturating_sub(inner)));
    }
    out.set("archive.frame_read_us", stats::median(&mut decode_us));
    let mut build: Vec<f64> = tr
        .durations("dyncfg.build")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let mut solve: Vec<f64> = tr
        .durations("dataflow.solve")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    out.set("dyncfg.build_us", stats::median(&mut build));
    out.set("dataflow.solve_us", stats::median(&mut solve));
    for (verb, name) in [
        "answer.render_us.query",
        "answer.render_us.slice",
        "answer.render_us.currency",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, stats::mean(&render[verb]));
    }
    Ok(())
}
