//! The full compaction pipeline: raw WPP → compacted TWPP, with per-stage
//! size accounting (the data behind Tables 2 and 3 of the paper).

#![deny(clippy::unwrap_used)]

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use twpp_ir::FuncId;
use twpp_tracer::raw::RawSizes;
use twpp_tracer::RawWpp;

use crate::dbb::{compact_trace, DbbDictionary};
use crate::dcg::Dcg;
use crate::dedup::{eliminate_redundancy_threads, RedundancyStats};
use crate::gov::{Budget, FaultPlan, StopReason};
use crate::lzw;
use crate::obs::Obs;
use crate::par::{self, WorkerReport};
use crate::partition::{partition, PartitionError, PartitionedWpp};
use crate::timestamped::TimestampedTrace;
use crate::trace::PathTrace;

/// The per-function block of a compacted TWPP: every unique path trace of
/// the function in timestamped form, plus the DBB dictionaries they
/// reference. All the information about one function sits together, which
/// is what makes per-function queries fast.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionBlock {
    /// The function.
    pub func: FuncId,
    /// How many times it was called (used to order the archive layout).
    pub call_count: u64,
    /// Deduplicated DBB dictionaries.
    pub dicts: Vec<DbbDictionary>,
    /// Unique traces in timestamped form, each with the index of its
    /// dictionary in `dicts`. Order matches the DCG's `trace_idx`.
    pub traces: Vec<(u32, TimestampedTrace)>,
}

impl FunctionBlock {
    /// Serialized size in bytes of the timestamped traces (including each
    /// trace's dictionary-index word).
    pub fn trace_bytes(&self) -> usize {
        self.traces
            .iter()
            .map(|(_, tt)| 4 + tt.byte_size())
            .sum()
    }

    /// Serialized size in bytes of the dictionaries.
    pub fn dict_bytes(&self) -> usize {
        self.dicts.iter().map(|d| 4 + d.byte_size()).sum()
    }

    /// Expands every trace back to its original (pre-DBB) block sequence.
    pub fn expanded_traces(&self) -> Vec<PathTrace> {
        self.traces
            .iter()
            .map(|(dict_idx, tt)| {
                let compacted = tt.to_path_trace();
                self.dicts[*dict_idx as usize].expand(&compacted)
            })
            .collect()
    }
}

/// A fully compacted TWPP: the dynamic call graph plus one
/// [`FunctionBlock`] per function, ordered most-frequently-called first
/// (the archive layout order of the paper's access-time study).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompactedTwpp {
    /// The dynamic call graph (trace indices refer into the function
    /// blocks' trace lists). The archive encoders write
    /// [`CompactedTwpp::dcg_lzw`], not this graph, so it is read-only
    /// once compacted.
    pub dcg: Dcg,
    /// Per-function blocks, most-called first.
    pub functions: Vec<FunctionBlock>,
    /// The LZW-compressed serialized `dcg`: the pipeline's stage 5 output
    /// (or an archive's own DCG region), carried so that encoding an
    /// archive does not compress the graph again. A pure function of
    /// `dcg`.
    pub(crate) dcg_lzw: Vec<u8>,
}

impl CompactedTwpp {
    /// The LZW-compressed serialized DCG, exactly as an archive stores it.
    pub fn dcg_lzw(&self) -> &[u8] {
        &self.dcg_lzw
    }

    /// The block of `func`, if the function was ever called.
    pub fn function(&self, func: FuncId) -> Option<&FunctionBlock> {
        self.functions.iter().find(|fb| fb.func == func)
    }

    /// How often each unique trace of `func` was executed: the *hot path*
    /// frequencies of the paper's profile-guided-optimization use case.
    /// Index `i` counts the activations whose `trace_idx` is `i`; the DCG
    /// provides the counts.
    pub fn trace_frequencies(&self, func: FuncId) -> Vec<u64> {
        let n = self
            .function(func)
            .map(|fb| fb.traces.len())
            .unwrap_or(0);
        let mut freqs = vec![0u64; n];
        for (_, node) in self.dcg.iter() {
            if node.func == func {
                freqs[node.trace_idx as usize] += 1;
            }
        }
        freqs
    }

    /// The hottest unique traces of `func`: `(trace index, frequency)`
    /// pairs sorted most-frequent first.
    pub fn hot_paths(&self, func: FuncId) -> Vec<(u32, u64)> {
        let mut pairs: Vec<(u32, u64)> = self
            .trace_frequencies(func)
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as u32, c))
            .collect();
        pairs.sort_by_key(|&(i, c)| (std::cmp::Reverse(c), i));
        pairs
    }

    /// Reconstructs the original raw WPP event stream — the proof that the
    /// whole pipeline is lossless.
    pub fn reconstruct(&self) -> RawWpp {
        let traces: BTreeMap<FuncId, Vec<PathTrace>> = self
            .functions
            .iter()
            .map(|fb| (fb.func, fb.expanded_traces()))
            .collect();
        let part = PartitionedWpp {
            dcg: self.dcg.clone(),
            traces,
        };
        part.reconstruct()
    }

    /// Total serialized trace bytes across all functions.
    pub fn trace_bytes(&self) -> usize {
        self.functions.iter().map(FunctionBlock::trace_bytes).sum()
    }

    /// Total serialized dictionary bytes across all functions.
    pub fn dict_bytes(&self) -> usize {
        self.functions.iter().map(FunctionBlock::dict_bytes).sum()
    }
}

/// Options controlling how the compaction pipeline executes. The options
/// affect only scheduling, never the bytes produced.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CompactOptions {
    /// Worker count for the per-function stages. `None` resolves through
    /// [`crate::par::resolve_threads`]: the `TWPP_THREADS` environment
    /// variable if set, otherwise the hardware's parallelism.
    pub threads: Option<usize>,
}

impl CompactOptions {
    /// Options pinning an explicit worker count.
    pub fn with_threads(threads: usize) -> CompactOptions {
        CompactOptions {
            threads: Some(threads),
        }
    }
}

/// Options for the governed pipeline entry point
/// [`compact_governed`]: scheduling plus a resource envelope, a
/// degradation policy, and an optional fault-injection plan.
#[derive(Clone, Debug)]
pub struct GovOptions {
    /// Worker count, resolved like [`CompactOptions::threads`].
    pub threads: Option<usize>,
    /// Resource envelope checked at stage boundaries and per function.
    /// Exhaustion is a **hard stop** ([`PipelineError::Budget`]) — a
    /// deadlined run never yields a partially-built archive.
    pub budget: Budget,
    /// `true` (the default, matching the pre-governance pipeline):
    /// a panicking per-function stage propagates on the calling thread.
    /// `false`: each per-function stage runs panic-isolated; a failure
    /// becomes a [`FunctionOutcome::Failed`] entry in
    /// [`PipelineStats::degraded`] while every other function completes.
    pub fail_fast: bool,
    /// Deterministic fault injection (tests and the CLI harness).
    pub faults: FaultPlan,
    /// Observability sink. [`Obs::noop`] (the default) records nothing
    /// and costs one branch per instrumentation point; an enabled
    /// observer collects stage spans, per-worker spans and the
    /// `twpp_core_*` metrics. Never influences output bytes.
    pub obs: Obs,
}

impl Default for GovOptions {
    fn default() -> Self {
        GovOptions {
            threads: None,
            budget: Budget::unlimited(),
            fail_fast: true,
            faults: FaultPlan::none(),
            obs: Obs::noop(),
        }
    }
}

impl GovOptions {
    /// Governed options with the degrade policy enabled.
    pub fn degrade() -> GovOptions {
        GovOptions {
            fail_fast: false,
            ..GovOptions::default()
        }
    }
}

/// Errors from the governed pipeline.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// The event stream was malformed.
    Partition(PartitionError),
    /// The resource envelope was exhausted (deadline, step cap, byte
    /// cap, or cancellation). Nothing partial is returned: archives are
    /// either complete-modulo-degraded-functions or not written at all.
    Budget(StopReason),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Partition(e) => write!(f, "{e}"),
            PipelineError::Budget(r) => write!(f, "budget exhausted: {r}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PartitionError> for PipelineError {
    fn from(e: PartitionError) -> Self {
        PipelineError::Partition(e)
    }
}

impl From<StopReason> for PipelineError {
    fn from(r: StopReason) -> Self {
        PipelineError::Budget(r)
    }
}

/// A function whose per-function compaction stage failed under the
/// degrade policy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FailedFunction {
    /// The function whose stage failed.
    pub func: FuncId,
    /// Its call count (preserved so the archive footer can record the
    /// failure with its original frequency rank).
    pub call_count: u64,
    /// Which stage failed (currently always the fused per-function
    /// DBB/TWPP/TsSet stage, `"compact"`).
    pub stage: &'static str,
    /// The panic message or error that killed the stage.
    pub reason: String,
}

/// The outcome of one function's per-function stage under the degrade
/// policy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FunctionOutcome {
    /// The stage completed; the block is part of the output.
    Built(FunctionBlock),
    /// The stage panicked or errored; the function is excluded from the
    /// output and recorded in [`PipelineStats::degraded`].
    Failed(FailedFunction),
}

/// The set of functions that failed during a degraded run. Empty on a
/// clean run — and a clean degraded run is byte-identical to the
/// fail-fast pipeline.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DegradedReport {
    /// Failed functions, in deterministic function-id order.
    pub failed: Vec<FailedFunction>,
}

impl DegradedReport {
    /// Whether every function completed.
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Number of failed functions.
    pub fn len(&self) -> usize {
        self.failed.len()
    }
}

impl std::fmt::Display for DegradedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.failed.is_empty() {
            return write!(f, "degraded: none");
        }
        writeln!(f, "degraded: {} function(s) failed", self.failed.len())?;
        for fail in &self.failed {
            writeln!(
                f,
                "  {} (calls {}): {} stage: {}",
                fail.func, fail.call_count, fail.stage, fail.reason
            )?;
        }
        Ok(())
    }
}

/// Wall-clock nanoseconds spent in each pipeline stage, surfaced by the
/// CLI's `--stats` output and the bench crate's scaling experiment.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct StageTimings {
    /// Stage 1: partitioning the WPP into per-call traces + DCG.
    pub partition_nanos: u64,
    /// Stage 2: redundant path trace elimination.
    pub dedup_nanos: u64,
    /// Stages 3+4: DBB dictionaries and TWPP inversion (the parallel
    /// per-function stage).
    pub function_stage_nanos: u64,
    /// Stage 5: LZW compression of the serialized DCG — the only LZW pass
    /// of a compaction. The archive encoders write its output as it is.
    pub dcg_compress_nanos: u64,
    /// Archive encoding: frame encoding plus writing the header, the
    /// carried compressed DCG and the footer
    /// ([`TwppArchive::from_compacted_codec`](crate::archive::TwppArchive::from_compacted_codec)).
    /// It holds no LZW pass. The pipeline itself leaves this 0; callers
    /// that encode an archive (the CLI, the bench harness) fill it in so
    /// [`StageTimings::total_nanos`] stops undercounting governed runs.
    pub archive_encode_nanos: u64,
}

impl StageTimings {
    /// Sum of all recorded stage times (including archive encoding when
    /// the caller recorded it).
    pub fn total_nanos(&self) -> u64 {
        self.partition_nanos
            .saturating_add(self.dedup_nanos)
            .saturating_add(self.function_stage_nanos)
            .saturating_add(self.dcg_compress_nanos)
            .saturating_add(self.archive_encode_nanos)
    }

    /// Stage timings as stable `(name, nanos)` rows — the order used by
    /// the `--stats` table and the RunReport `timings_nanos` object.
    pub fn named_rows(&self) -> [(&'static str, u64); 5] {
        [
            ("partition", self.partition_nanos),
            ("dedup", self.dedup_nanos),
            ("function_stage", self.function_stage_nanos),
            ("dcg_compress", self.dcg_compress_nanos),
            ("archive_encode", self.archive_encode_nanos),
        ]
    }
}

/// Per-stage size accounting for one WPP, in bytes. Produces the rows of
/// Tables 1–3.
#[derive(Clone, PartialEq, Debug)]
pub struct PipelineStats {
    /// Raw WPP sizes (Table 1): DCG = enter/exit events, traces = block
    /// events.
    pub raw: RawSizes,
    /// Uncompacted per-call path trace bytes (equals `raw.trace_bytes`).
    pub owpp_trace_bytes: usize,
    /// Trace bytes after redundant path trace elimination (Table 2 col 1).
    pub after_dedup_bytes: usize,
    /// Trace bytes after DBB dictionary creation (Table 2 col 2),
    /// excluding the dictionaries themselves.
    pub after_dict_bytes: usize,
    /// Serialized compacted TWPP trace bytes (Table 2 col 3).
    pub ctwpp_trace_bytes: usize,
    /// Serialized DBB dictionary bytes (Table 3).
    pub dict_bytes: usize,
    /// Raw serialized DCG bytes.
    pub dcg_raw_bytes: usize,
    /// LZW-compressed DCG bytes (Table 3).
    pub dcg_compressed_bytes: usize,
    /// Per-function call/unique-trace counts (Figure 8).
    pub redundancy: RedundancyStats,
    /// Wall-clock time spent in each stage.
    pub timings: StageTimings,
    /// How the parallel per-function stage spread over workers.
    pub workers: WorkerReport,
    /// Functions whose per-function stage failed under the degrade
    /// policy. Always empty for the fail-fast entry points.
    pub degraded: DegradedReport,
}

impl PipelineStats {
    /// Compaction factor of redundant path trace elimination.
    pub fn dedup_factor(&self) -> f64 {
        ratio(self.owpp_trace_bytes, self.after_dedup_bytes)
    }

    /// Compaction factor of DBB dictionary creation.
    pub fn dict_factor(&self) -> f64 {
        ratio(self.after_dedup_bytes, self.after_dict_bytes)
    }

    /// Compaction factor of the TWPP transformation (can be below 1, as for
    /// `099.go` in the paper).
    pub fn twpp_factor(&self) -> f64 {
        ratio(self.after_dict_bytes, self.ctwpp_trace_bytes)
    }

    /// OWPP/CTWPP trace-only compression factor (Table 2's last column).
    pub fn trace_factor(&self) -> f64 {
        ratio(self.owpp_trace_bytes, self.ctwpp_trace_bytes)
    }

    /// Total compacted size: DCG + traces + dictionaries (Table 3).
    pub fn total_compacted_bytes(&self) -> usize {
        self.dcg_compressed_bytes + self.ctwpp_trace_bytes + self.dict_bytes
    }

    /// Overall compaction factor (Table 3's last column; 7–64 in the
    /// paper).
    pub fn overall_factor(&self) -> f64 {
        ratio(self.raw.total(), self.total_compacted_bytes())
    }

    /// Rebases these stats into the [`RunReport`](crate::obs::RunReport)
    /// pipeline section (stable field naming, DESIGN.md §13).
    pub fn to_section(&self) -> crate::obs::PipelineSection {
        let t = &self.timings;
        let mut timings: Vec<(&'static str, u64)> = t.named_rows().to_vec();
        timings.push(("total", t.total_nanos()));
        crate::obs::PipelineSection {
            raw_total_bytes: self.raw.total() as u64,
            raw_dcg_bytes: self.raw.dcg_bytes as u64,
            raw_trace_bytes: self.raw.trace_bytes as u64,
            after_dedup_bytes: self.after_dedup_bytes as u64,
            after_dict_bytes: self.after_dict_bytes as u64,
            ctwpp_trace_bytes: self.ctwpp_trace_bytes as u64,
            dict_bytes: self.dict_bytes as u64,
            dcg_compressed_bytes: self.dcg_compressed_bytes as u64,
            total_compacted_bytes: self.total_compacted_bytes() as u64,
            overall_factor: self.overall_factor(),
            timings,
            worker_threads: self.workers.threads as u64,
            items_per_worker: self.workers.items_per_worker.clone(),
            degraded: self
                .degraded
                .failed
                .iter()
                .map(|f| {
                    (
                        f.func.as_u32(),
                        f.call_count,
                        f.stage.to_string(),
                        f.reason.clone(),
                    )
                })
                .collect(),
        }
    }
}

/// Size ratio `a / b` with the divide-by-zero convention used by every
/// compaction factor: an empty denominator yields `+∞` (compaction of
/// something into nothing), and `0 / 0` is also `+∞` by that rule.
pub fn ratio(a: usize, b: usize) -> f64 {
    if b == 0 {
        f64::INFINITY
    } else {
        a as f64 / b as f64
    }
}

/// Runs the full compaction pipeline on the default worker count
/// (`TWPP_THREADS` if set, otherwise the hardware's parallelism).
///
/// # Errors
///
/// Returns a [`PartitionError`] if the event stream is malformed.
pub fn compact(wpp: &RawWpp) -> Result<CompactedTwpp, PartitionError> {
    compact_with_stats(wpp).map(|(c, _)| c)
}

/// Runs the full compaction pipeline, also returning per-stage statistics,
/// on the default worker count.
///
/// # Errors
///
/// Returns a [`PartitionError`] if the event stream is malformed.
pub fn compact_with_stats(wpp: &RawWpp) -> Result<(CompactedTwpp, PipelineStats), PartitionError> {
    compact_with_stats_threads(wpp, CompactOptions::default())
}

/// Runs the full compaction pipeline with explicit [`CompactOptions`].
///
/// The per-function stages — redundancy elimination, DBB dictionary
/// building, TWPP inversion and timestamp-series compaction — never cross
/// function boundaries, so they fan across the worker pool; results are
/// folded in function order, making the output **byte-identical for every
/// thread count** (property-tested in `tests/parallel.rs`).
///
/// # Errors
///
/// Returns a [`PartitionError`] if the event stream is malformed.
pub fn compact_with_stats_threads(
    wpp: &RawWpp,
    options: CompactOptions,
) -> Result<(CompactedTwpp, PipelineStats), PartitionError> {
    let gov = GovOptions {
        threads: options.threads,
        ..GovOptions::default()
    };
    compact_governed(wpp, &gov).map_err(|e| match e {
        PipelineError::Partition(p) => p,
        // Unreachable: the unlimited budget's private cancel token is
        // never cancelled and no other limit is configured.
        PipelineError::Budget(_) => PartitionError::LimitExceeded("unlimited budget exhausted"),
    })
}

/// Runs the full compaction pipeline under a [`Budget`], with optional
/// panic-isolated graceful degradation and fault injection.
///
/// Semantics:
///
/// * **Budget exhaustion is a hard stop** — the pipeline returns
///   [`PipelineError::Budget`] and produces *no* output, so a deadlined
///   or cancelled run can never commit a partially-built archive. The
///   budget is checked at every stage boundary and charged per event
///   after partitioning and per unique trace inside the per-function
///   stage.
/// * **Panics degrade (when `fail_fast` is `false`)** — each
///   per-function stage runs under `catch_unwind`; a panicking or
///   erroring function becomes a [`FailedFunction`] in
///   [`PipelineStats::degraded`] (deterministic function-id order) while
///   every other function completes normally. With `fail_fast: true`
///   (the default, and the path the legacy entry points take) a panic
///   propagates on the calling thread exactly as before.
/// * **No fault ⇒ byte identity** — with an unlimited budget and no
///   injected fault, the output is byte-identical to
///   [`compact_with_stats_threads`] for every thread count and policy
///   (property-tested in `tests/governance.rs`).
///
/// # Errors
///
/// [`PipelineError::Partition`] for malformed event streams (or, in
/// fail-fast mode, a malformed single function);
/// [`PipelineError::Budget`] when the envelope is exhausted.
pub fn compact_governed(
    wpp: &RawWpp,
    options: &GovOptions,
) -> Result<(CompactedTwpp, PipelineStats), PipelineError> {
    let obs = &options.obs;
    let result = {
        let _run = obs.span("compact");
        compact_governed_inner(wpp, options)
    };
    if obs.is_enabled() {
        match &result {
            Ok((compacted, stats)) => {
                record_pipeline_metrics(obs, wpp, compacted, stats, &options.budget)
            }
            Err(PipelineError::Budget(reason)) => {
                obs.counter(
                    "twpp_core_budget_stops_total",
                    "Pipeline runs hard-stopped by budget exhaustion",
                )
                .inc();
                if *reason == StopReason::Cancelled {
                    obs.counter(
                        "twpp_core_cancellations_total",
                        "Pipeline runs stopped by cooperative cancellation",
                    )
                    .inc();
                }
            }
            Err(PipelineError::Partition(_)) => {}
        }
    }
    result
}

/// Records the `twpp_core_*` metrics of one successful pipeline run.
/// Only called with an enabled observer, so handle registration cost is
/// off the noop path entirely.
fn record_pipeline_metrics(
    obs: &Obs,
    wpp: &RawWpp,
    compacted: &CompactedTwpp,
    stats: &PipelineStats,
    budget: &Budget,
) {
    obs.counter(
        "twpp_core_events_processed_total",
        "Raw WPP events consumed by the compaction pipeline",
    )
    .add(wpp.event_count() as u64);
    obs.counter(
        "twpp_core_functions_total",
        "Functions carried through the per-function stage",
    )
    .add(compacted.functions.len() as u64);
    let unique: u64 = compacted
        .functions
        .iter()
        .map(|fb| fb.traces.len() as u64)
        .sum();
    obs.counter(
        "twpp_core_unique_traces_total",
        "Unique path traces surviving redundancy elimination",
    )
    .add(unique);
    obs.counter(
        "twpp_core_panics_isolated_total",
        "Per-function stages that panicked and were isolated (degrade mode)",
    )
    .add(stats.degraded.len() as u64);
    obs.gauge("twpp_core_raw_bytes", "Raw WPP input bytes")
        .set(clamp_i64(stats.raw.total()));
    obs.gauge(
        "twpp_core_after_dedup_bytes",
        "Trace bytes after redundant-trace elimination",
    )
    .set(clamp_i64(stats.after_dedup_bytes));
    obs.gauge(
        "twpp_core_after_dict_bytes",
        "Trace bytes after DBB dictionary creation",
    )
    .set(clamp_i64(stats.after_dict_bytes));
    obs.gauge(
        "twpp_core_ctwpp_trace_bytes",
        "Compacted TWPP trace bytes",
    )
    .set(clamp_i64(stats.ctwpp_trace_bytes));
    obs.gauge("twpp_core_dict_bytes", "Serialized DBB dictionary bytes")
        .set(clamp_i64(stats.dict_bytes));
    obs.gauge(
        "twpp_core_dcg_compressed_bytes",
        "LZW-compressed dynamic call graph bytes",
    )
    .set(clamp_i64(stats.dcg_compressed_bytes));
    let per_func = obs.histogram(
        "twpp_core_traces_per_function",
        "Unique traces per function",
        &[1, 2, 4, 8, 16, 32, 64, 128],
    );
    for fb in &compacted.functions {
        per_func.observe(fb.traces.len() as u64);
    }
    record_budget_metrics(obs, &stats.workers, budget);
}

/// Budget counters shared by compact and (via re-use) query paths.
fn record_budget_metrics(obs: &Obs, workers: &WorkerReport, budget: &Budget) {
    obs.gauge(
        "twpp_core_worker_threads",
        "Worker-pool threads used by the per-function stage",
    )
    .set(clamp_i64(workers.threads));
    if !budget.is_unlimited() {
        obs.counter(
            "twpp_core_budget_steps_total",
            "Budget steps consumed by governed stages",
        )
        .add(budget.steps_used());
        obs.counter(
            "twpp_core_budget_bytes_total",
            "Budget bytes consumed by governed stages",
        )
        .add(budget.bytes_used());
    }
}

/// Clamps a `usize` into the `i64` range a gauge stores.
fn clamp_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn compact_governed_inner(
    wpp: &RawWpp,
    options: &GovOptions,
) -> Result<(CompactedTwpp, PipelineStats), PipelineError> {
    let budget = &options.budget;
    let obs = &options.obs;
    budget.check()?;
    let raw = wpp.size_breakdown();

    // Stage 1: partition into path traces + DCG. The event count is the
    // natural unit for `--max-events`.
    let started = Instant::now();
    let part = {
        let _s = obs.span("partition");
        partition(wpp)?
    };
    let partition_nanos = elapsed_nanos(started);
    budget.charge_steps(wpp.event_count() as u64)?;
    budget.charge_bytes(wpp.byte_len() as u64)?;
    compact_partitioned_inner(part, raw, partition_nanos, options)
}

/// Runs stages 2–5 of the pipeline (dedup, per-function DBB/TWPP/TsSet,
/// sort, DCG compression) over an already-partitioned WPP.
///
/// This is the seam the streaming [`Compactor`](crate::ingest::Compactor)
/// shares with the batch entry points: batch compaction partitions a
/// whole event stream and calls this; the ingest layer partitions each
/// sealed window (with its open-activation context re-entered) and calls
/// this, so segments and whole-trace archives are built by the exact
/// same code and stay byte-compatible. `raw` is the size breakdown of
/// the events `part` was built from (for the stats' compression
/// factors).
///
/// # Errors
///
/// [`PipelineError::Budget`] on envelope exhaustion,
/// [`PipelineError::Partition`] if a per-function stage rejects its
/// input under the fail-fast policy.
pub fn compact_partitioned_governed(
    part: PartitionedWpp,
    raw: RawSizes,
    options: &GovOptions,
) -> Result<(CompactedTwpp, PipelineStats), PipelineError> {
    compact_partitioned_inner(part, raw, 0, options)
}

fn compact_partitioned_inner(
    mut part: PartitionedWpp,
    raw: RawSizes,
    partition_nanos: u64,
    options: &GovOptions,
) -> Result<(CompactedTwpp, PipelineStats), PipelineError> {
    let threads = par::resolve_threads(options.threads);
    let budget = &options.budget;
    let obs = &options.obs;
    let owpp_trace_bytes = part.trace_bytes();

    // Stage 2: redundant path trace elimination (per-function, parallel).
    let started = Instant::now();
    let redundancy = {
        let _s = obs.span("dedup");
        eliminate_redundancy_threads(&mut part, threads)
    };
    let dedup_nanos = elapsed_nanos(started);
    budget.check()?;
    let after_dedup_bytes = part.trace_bytes();

    // Stage 3 + 4: DBB dictionaries, then the TWPP inversion, per
    // function. Each function's work is independent: fan it across the
    // pool and fold the results in function order.
    let started = Instant::now();
    let call_counts: HashMap<FuncId, u64> = part.dcg.call_counts().into_iter().collect();
    let entries: Vec<(&FuncId, &Vec<PathTrace>)> = part.traces.iter().collect();
    let faults = &options.faults;
    let build = |_: usize, entry: &(&FuncId, &Vec<PathTrace>)| -> BuildResult {
        let (&func, traces) = *entry;
        if let Err(reason) = budget.charge_steps(traces.len() as u64) {
            return BuildResult::Stopped(reason);
        }
        faults.apply_delay();
        faults.maybe_panic(func);
        match build_function_block(func, traces, &call_counts) {
            Ok((fb, bytes)) => BuildResult::Built(Box::new(fb), bytes),
            Err(e) => BuildResult::Errored(e),
        }
    };

    let mut after_dict_bytes = 0usize;
    let mut functions: Vec<FunctionBlock> = Vec::with_capacity(entries.len());
    let mut failed: Vec<FailedFunction> = Vec::new();
    let workers;
    if options.fail_fast {
        // Pre-governance semantics: a panicking worker propagates via
        // `resume_unwind` on the calling thread; an errored function
        // fails the whole run.
        let (built, report) =
            par::map_indexed_observed(&entries, threads, obs, "function_stage", build);
        workers = report;
        for r in built {
            match r {
                BuildResult::Built(fb, bytes) => {
                    after_dict_bytes += bytes;
                    functions.push(*fb);
                }
                BuildResult::Errored(e) => return Err(PipelineError::Partition(e)),
                BuildResult::Stopped(reason) => return Err(PipelineError::Budget(reason)),
            }
        }
    } else {
        // Degrade mode: every per-function stage is panic-isolated; one
        // poisoned function becomes a FailedFunction entry instead of
        // aborting the run. Budget exhaustion still hard-stops.
        let (built, report) =
            par::map_indexed_isolated_observed(&entries, threads, obs, "function_stage", build);
        workers = report;
        for (i, r) in built.into_iter().enumerate() {
            let (&func, _) = entries[i];
            let call_count = call_counts.get(&func).copied().unwrap_or(0);
            let outcome = match r {
                Ok(BuildResult::Built(fb, bytes)) => FunctionOutcome::Built({
                    after_dict_bytes += bytes;
                    *fb
                }),
                Ok(BuildResult::Errored(e)) => FunctionOutcome::Failed(FailedFunction {
                    func,
                    call_count,
                    stage: "compact",
                    reason: e.to_string(),
                }),
                Ok(BuildResult::Stopped(reason)) => return Err(PipelineError::Budget(reason)),
                Err(panic_msg) => FunctionOutcome::Failed(FailedFunction {
                    func,
                    call_count,
                    stage: "compact",
                    reason: panic_msg,
                }),
            };
            match outcome {
                FunctionOutcome::Built(fb) => functions.push(fb),
                FunctionOutcome::Failed(ff) => failed.push(ff),
            }
        }
    }
    // Most frequently called functions first (ties broken by id for
    // determinism).
    functions.sort_by(|a, b| {
        b.call_count
            .cmp(&a.call_count)
            .then(a.func.cmp(&b.func))
    });
    failed.sort_by_key(|f| f.func);
    let function_stage_nanos = elapsed_nanos(started);
    budget.check()?;

    // Stage 5: DCG compression — the run's only LZW pass; the archive
    // encoders write these bytes as they are.
    let started = Instant::now();
    let (dcg_raw_bytes, dcg_lzw) = {
        let _s = obs.span("dcg_compress");
        let dcg_words = part.dcg.to_words();
        let dcg_bytes: Vec<u8> = dcg_words.iter().flat_map(|w| w.to_le_bytes()).collect();
        (dcg_bytes.len(), lzw::compress(&dcg_bytes))
    };
    let dcg_compress_nanos = elapsed_nanos(started);
    budget.charge_bytes(dcg_raw_bytes as u64)?;

    let dcg_compressed_bytes = dcg_lzw.len();
    let compacted = CompactedTwpp {
        dcg: part.dcg,
        functions,
        dcg_lzw,
    };
    let stats = PipelineStats {
        raw,
        owpp_trace_bytes,
        after_dedup_bytes,
        after_dict_bytes,
        ctwpp_trace_bytes: compacted.trace_bytes(),
        dict_bytes: compacted.dict_bytes(),
        dcg_raw_bytes,
        dcg_compressed_bytes,
        redundancy,
        timings: StageTimings {
            partition_nanos,
            dedup_nanos,
            function_stage_nanos,
            dcg_compress_nanos,
            // Archive encoding happens outside the pipeline; callers
            // that encode (the CLI, the bench harness) fill this in.
            archive_encode_nanos: 0,
        },
        workers,
        degraded: DegradedReport { failed },
    };
    Ok((compacted, stats))
}

/// The per-function stage's tri-state result, carried through the worker
/// pool so budget stops and partition errors survive the fan-out.
enum BuildResult {
    Built(Box<FunctionBlock>, usize),
    Errored(PartitionError),
    Stopped(StopReason),
}

/// Builds one function's [`FunctionBlock`] — DBB dictionary creation, the
/// TWPP inversion and timestamp-series compaction. Pure per function,
/// hence safe to run on worker threads. Also returns the function's
/// post-dictionary trace bytes (the Table 2 column 2 contribution).
fn build_function_block(
    func: FuncId,
    traces: &[PathTrace],
    call_counts: &HashMap<FuncId, u64>,
) -> Result<(FunctionBlock, usize), PartitionError> {
    let mut after_dict_bytes = 0usize;
    let mut dicts: Vec<DbbDictionary> = Vec::new();
    let mut dict_index: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut tts: Vec<(u32, TimestampedTrace)> = Vec::with_capacity(traces.len());
    for trace in traces {
        let compacted = compact_trace(trace);
        after_dict_bytes += compacted.trace.byte_size();
        // Deduplicate identical dictionaries via their debug-stable key.
        let key = dict_key(&compacted.dictionary);
        let next = u32::try_from(dicts.len())
            .map_err(|_| PartitionError::LimitExceeded("dictionary count exceeds u32"))?;
        let idx = *dict_index.entry(key).or_insert(next);
        if idx == next {
            dicts.push(compacted.dictionary);
        }
        tts.push((idx, TimestampedTrace::from_path_trace(&compacted.trace)));
    }
    Ok((
        FunctionBlock {
            func,
            call_count: call_counts.get(&func).copied().unwrap_or(0),
            dicts,
            traces: tts,
        },
        after_dict_bytes,
    ))
}

/// Elapsed nanoseconds since `started`, saturating at `u64::MAX`.
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A canonical byte key for dictionary deduplication.
fn dict_key(dict: &DbbDictionary) -> Vec<u8> {
    let mut key = Vec::new();
    for (head, chain) in dict.iter() {
        key.extend_from_slice(&head.as_u32().to_le_bytes());
        key.extend_from_slice(&(chain.len() as u32).to_le_bytes());
        for b in chain {
            key.extend_from_slice(&b.as_u32().to_le_bytes());
        }
    }
    key
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use twpp_ir::BlockId;
    use twpp_tracer::WppEvent;

    fn f(i: usize) -> FuncId {
        FuncId::from_index(i)
    }

    /// The paper's running example (Figures 1-7): main's loop calls f five
    /// times; f loops three times per call over one of two paths.
    fn figure1() -> RawWpp {
        let t1: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10];
        let t2: Vec<u32> = vec![1, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 2, 7, 8, 9, 6, 10];
        let calls = [&t2, &t2, &t1, &t2, &t1];
        let mut events = vec![WppEvent::Enter(f(0)), WppEvent::Block(BlockId::new(1))];
        for t in calls {
            events.push(WppEvent::Block(BlockId::new(2)));
            events.push(WppEvent::Block(BlockId::new(3)));
            events.push(WppEvent::Enter(f(1)));
            for &x in t.iter() {
                events.push(WppEvent::Block(BlockId::new(x)));
            }
            events.push(WppEvent::Exit);
            events.push(WppEvent::Block(BlockId::new(4)));
        }
        events.push(WppEvent::Block(BlockId::new(6)));
        events.push(WppEvent::Exit);
        RawWpp::from_events(&events)
    }

    #[test]
    fn figures_1_through_7_pipeline() {
        let wpp = figure1();
        let (c, stats) = compact_with_stats(&wpp).unwrap();

        // Figure 3: redundancy removal leaves 2 unique traces for f.
        assert_eq!(stats.redundancy.per_func[&f(1)], (5, 2));
        assert!(stats.dedup_factor() > 1.0);

        // Figure 5: each of f's traces compacts against a DBB dictionary.
        let fb = c.function(f(1)).unwrap();
        assert_eq!(fb.traces.len(), 2);
        // Each unique trace 1.(2..6)^3.10 becomes 1.2.2.2.10 -> 5 positions.
        for (_, tt) in &fb.traces {
            assert_eq!(tt.len(), 5);
        }

        // Figure 7: timestamps of the repeated DBB form one series.
        let (_, tt) = &fb.traces[0];
        let ts = tt.ts_of(BlockId::new(2)).unwrap();
        assert_eq!(ts.to_string(), "{2:4}");
        assert_eq!(ts.to_wire().unwrap(), vec![2, -4]);

        // The pipeline is lossless end to end.
        assert_eq!(c.reconstruct(), wpp);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let (c, stats) = compact_with_stats(&figure1()).unwrap();
        assert_eq!(stats.owpp_trace_bytes, stats.raw.trace_bytes);
        assert!(stats.after_dedup_bytes <= stats.owpp_trace_bytes);
        assert!(stats.after_dict_bytes <= stats.after_dedup_bytes);
        assert_eq!(stats.ctwpp_trace_bytes, c.trace_bytes());
        assert_eq!(stats.dict_bytes, c.dict_bytes());
        assert!(stats.total_compacted_bytes() > 0);
        assert!(stats.overall_factor() > 0.0);
    }

    #[test]
    fn hot_paths_rank_unique_traces_by_frequency() {
        let (c, _) = compact_with_stats(&figure1()).unwrap();
        // f's calls follow trace pattern B,B,A,B,A: the B-trace (stored
        // first) is hotter.
        let freqs = c.trace_frequencies(f(1));
        assert_eq!(freqs.iter().sum::<u64>(), 5);
        let hot = c.hot_paths(f(1));
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].1, 3);
        assert_eq!(hot[1].1, 2);
        assert!(hot[0].1 >= hot[1].1);
        // Unknown functions have no paths.
        assert!(c.hot_paths(FuncId::from_index(9)).is_empty());
    }

    #[test]
    fn functions_ordered_by_call_count() {
        let (c, _) = compact_with_stats(&figure1()).unwrap();
        assert_eq!(c.functions[0].func, f(1)); // 5 calls
        assert_eq!(c.functions[1].func, f(0)); // 1 call
        assert!(c.functions[0].call_count >= c.functions[1].call_count);
    }

    #[test]
    fn identical_dictionaries_are_shared() {
        let (c, _) = compact_with_stats(&figure1()).unwrap();
        let fb = c.function(f(1)).unwrap();
        // Two traces, two distinct loop bodies -> two dictionaries; but
        // main has one trace and at most one dictionary.
        assert!(fb.dicts.len() <= 2);
        let mb = c.function(f(0)).unwrap();
        assert!(mb.dicts.len() <= 1);
    }

    #[test]
    fn empty_stream_errors() {
        assert!(compact(&RawWpp::new()).is_err());
    }

    #[test]
    fn ratio_divide_by_zero_semantics() {
        // Every compaction factor treats an empty denominator as infinite
        // compaction — including the degenerate 0/0.
        assert_eq!(ratio(10, 0), f64::INFINITY);
        assert_eq!(ratio(0, 0), f64::INFINITY);
        assert_eq!(ratio(0, 4), 0.0);
        assert_eq!(ratio(6, 3), 2.0);
        assert!(ratio(1, 3) > 0.0 && ratio(1, 3) < 1.0);
    }

    #[test]
    fn output_is_identical_for_every_thread_count() {
        let wpp = figure1();
        let (seq, _) = compact_with_stats_threads(&wpp, CompactOptions::with_threads(1)).unwrap();
        for threads in 2..=8 {
            let (par, stats) =
                compact_with_stats_threads(&wpp, CompactOptions::with_threads(threads)).unwrap();
            assert_eq!(par, seq, "compact diverged at {threads} threads");
            assert_eq!(stats.workers.total_items(), 2, "two functions processed");
        }
    }

    #[test]
    fn governed_matches_legacy_when_no_fault_fires() {
        let wpp = figure1();
        let (legacy, legacy_stats) = compact_with_stats(&wpp).unwrap();
        for fail_fast in [true, false] {
            let gov = GovOptions {
                fail_fast,
                ..GovOptions::default()
            };
            let (c, stats) = compact_governed(&wpp, &gov).unwrap();
            assert_eq!(c, legacy);
            assert_eq!(stats.ctwpp_trace_bytes, legacy_stats.ctwpp_trace_bytes);
            assert_eq!(stats.after_dict_bytes, legacy_stats.after_dict_bytes);
            assert!(stats.degraded.is_empty());
        }
    }

    #[test]
    fn governed_degrade_isolates_injected_panic() {
        let wpp = figure1();
        let gov = GovOptions {
            faults: crate::gov::FaultPlan::panic_on(f(1)),
            ..GovOptions::degrade()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (c, stats) = compact_governed(&wpp, &gov).unwrap();
        std::panic::set_hook(prev);
        // f(1) failed; f(0) (main) survived.
        assert_eq!(c.functions.len(), 1);
        assert_eq!(c.functions[0].func, f(0));
        assert_eq!(stats.degraded.len(), 1);
        let fail = &stats.degraded.failed[0];
        assert_eq!(fail.func, f(1));
        assert_eq!(fail.call_count, 5);
        assert_eq!(fail.stage, "compact");
        assert!(fail.reason.contains("injected fault"), "got: {}", fail.reason);
    }

    #[test]
    fn governed_fail_fast_propagates_injected_panic() {
        let wpp = figure1();
        let gov = GovOptions {
            faults: crate::gov::FaultPlan::panic_on(f(1)),
            ..GovOptions::default()
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(|| compact_governed(&wpp, &gov));
        std::panic::set_hook(prev);
        assert!(result.is_err(), "fail-fast must propagate the panic");
    }

    #[test]
    fn governed_budget_exhaustion_is_a_hard_stop() {
        let wpp = figure1();
        // The stream has far more events than one step.
        let gov = GovOptions {
            budget: crate::gov::Limits::new().max_steps(1).start(),
            ..GovOptions::default()
        };
        match compact_governed(&wpp, &gov) {
            Err(PipelineError::Budget(reason)) => {
                assert_eq!(reason, crate::gov::StopReason::StepLimit)
            }
            other => panic!("expected budget stop, got {other:?}"),
        }
        // Cancellation also hard-stops, before any work happens.
        let gov = GovOptions::default();
        gov.budget.cancel_token().cancel();
        match compact_governed(&wpp, &gov) {
            Err(PipelineError::Budget(reason)) => {
                assert_eq!(reason, crate::gov::StopReason::Cancelled)
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn observed_run_records_spans_and_metrics_without_changing_output() {
        let wpp = figure1();
        let (plain, _) = compact_with_stats(&wpp).unwrap();
        let obs = crate::obs::Obs::collecting();
        let gov = GovOptions {
            obs: obs.clone(),
            ..GovOptions::default()
        };
        let (c, _) = compact_governed(&wpp, &gov).unwrap();
        // Observation never changes the produced bytes.
        assert_eq!(c, plain);
        let names: Vec<&str> = obs.spans().iter().map(|s| s.name).collect();
        for expected in ["compact", "partition", "dedup", "function_stage", "dcg_compress"] {
            assert!(names.contains(&expected), "missing span {expected}: {names:?}");
        }
        let snap = obs.snapshot();
        match snap.get("twpp_core_events_processed_total").map(|s| &s.value) {
            Some(crate::obs::SampleValue::Counter(n)) => {
                assert_eq!(*n, wpp.event_count() as u64)
            }
            other => panic!("missing events counter: {other:?}"),
        }
        match snap.get("twpp_core_unique_traces_total").map(|s| &s.value) {
            Some(crate::obs::SampleValue::Counter(n)) => assert_eq!(*n, 3), // f has 2, main 1
            other => panic!("missing unique traces counter: {other:?}"),
        }
        // A budget stop shows up as a stop counter.
        let obs2 = crate::obs::Obs::collecting();
        let gov = GovOptions {
            budget: crate::gov::Limits::new().max_steps(1).start(),
            obs: obs2.clone(),
            ..GovOptions::default()
        };
        assert!(compact_governed(&wpp, &gov).is_err());
        match obs2
            .snapshot()
            .get("twpp_core_budget_stops_total")
            .map(|s| &s.value)
        {
            Some(crate::obs::SampleValue::Counter(1)) => {}
            other => panic!("missing budget stop counter: {other:?}"),
        }
    }

    #[test]
    fn stats_carry_stage_timings_and_worker_report() {
        let (_, stats) =
            compact_with_stats_threads(&figure1(), CompactOptions::with_threads(2)).unwrap();
        // Wall clocks are monotone; every stage ran, so the total is the
        // sum of its parts (all finite).
        assert_eq!(
            stats.timings.total_nanos(),
            stats.timings.partition_nanos
                + stats.timings.dedup_nanos
                + stats.timings.function_stage_nanos
                + stats.timings.dcg_compress_nanos
                + stats.timings.archive_encode_nanos
        );
        // The pipeline itself never encodes an archive: the encode slot
        // is 0 until a caller (CLI / bench) fills it in, and the named
        // rows expose all five stages for the --stats table.
        assert_eq!(stats.timings.archive_encode_nanos, 0);
        let rows = stats.timings.named_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4].0, "archive_encode");
        let mut with_encode = stats.timings;
        with_encode.archive_encode_nanos = 17;
        assert_eq!(with_encode.total_nanos(), stats.timings.total_nanos() + 17);
        assert!(stats.workers.threads >= 1);
        assert_eq!(stats.workers.total_items(), 2);
        assert!(stats.workers.busy_workers() >= 1);
    }
}
