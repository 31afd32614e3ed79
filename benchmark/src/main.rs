//! The repository benchmark. One invocation runs one workload:
//!
//! ```text
//! twpp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it records spans around every call into a layer and
//! reports the per-layer metrics plus the tracing overhead. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` beside this crate for what each workload is for.

mod compact;
mod ingest;
mod report;
mod serve;
mod stats;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own smoke tests.
    pub smoke: bool,
    /// Where the run writes its files: inside the directory it runs in.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: twpp-benchmark --workload <compact_spec|ingest_traced|serve_oneshot> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        work_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("{}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "compact_spec" => compact::run(&args),
        "ingest_traced" => ingest::run(&args, &run_dir),
        "serve_oneshot" => serve::run(&args, &run_dir),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
