//! The result line: ops attempted and failed, correctness, and every
//! metric by name with its unit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// all of them; `README.md` says what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("events_per_s", "events/s"),
    ("archive_bytes_per_event", "B/event"),
    ("ack_p50_us", "us"),
    ("ack_p99_us", "us"),
    ("write_bytes_per_event", "B/event"),
    ("req_per_s", "req/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
];

/// Per-layer metrics of the traced run. A layer the workload never
/// enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.busy_ms", "ms"),
    ("dedup.busy_ms", "ms"),
    ("dedup.unique_per_call", "ratio"),
    ("pipeline.function_stage_ms", "ms"),
    ("lzw.busy_ms", "ms"),
    ("lzw.in_bytes", "B"),
    ("lzw.out_bytes", "B"),
    ("archive.encode_ms", "ms"),
    ("archive.bytes", "B"),
    ("ingest.feed_ms", "ms"),
    ("ingest.seal_ms", "ms"),
    ("ingest.seals", "count"),
    ("ingest.finish_ms", "ms"),
    ("ingest.wal_bytes", "B"),
    ("ingest.segment_bytes", "B"),
    ("lazy.open_ms", "ms"),
    ("archive.frame_read_us", "us"),
    ("archive.frames_read", "frames/req"),
    ("cache.frame_hit_ratio", "ratio"),
    ("cache.summary_hit_ratio", "ratio"),
    ("dyncfg.build_us", "us"),
    ("dataflow.solve_us", "us"),
    ("answer.render_us.query", "us"),
    ("answer.render_us.slice", "us"),
    ("answer.render_us.currency", "us"),
    ("serve.handle_us", "us"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("net.transport_us", "us"),
    ("net.connect_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The result line for `--trace 0` (end-to-end metrics) or
    /// `--trace 1` (per-layer metrics). A missing end-to-end metric is a
    /// benchmark bug and marks the run incorrect.
    pub fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        // A run that attempted nothing measured nothing: report it as one
        // failed op rather than a vacuous success.
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        let mut correct = failed == 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if trace => 0.0,
                _ => {
                    eprintln!("metric {name} was not measured");
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        )
    }
}
