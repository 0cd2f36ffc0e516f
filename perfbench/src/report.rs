//! The metric catalog and the result line.
//!
//! Every metric the benchmark can print is named here with its unit, and
//! `BENCHMARK.json` must list exactly these names (a test holds the two
//! together). An untraced run prints every end-to-end metric; a traced run
//! prints every per-layer metric, zero where the workload does not
//! exercise that layer.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_s_per_wall_s", "s/s"),
    ("goodput_qps", "1/s"),
    ("good_frac", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("gpus_mean", "gpus"),
];

/// `DropCause` variants in the order the frontend's stats array uses,
/// with their metric suffixes.
pub const DROP_CAUSES: [&str; 7] = [
    "no_route",
    "early_sacrifice",
    "expired",
    "orphaned",
    "stranded",
    "run_end",
    "admission_rejected",
];

/// Layers whose self time the traced run reports, in `self_ms.<layer>`
/// order; spans of unlisted layers count toward `bench`.
pub const LAYERS: &[&str] = &[
    "bench",
    "scheduler",
    "control",
    "cluster",
    "simgpu",
    "singlenode",
    "obs",
    "serve",
];

/// Per-layer metrics: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("scheduler.squishy_ms", "ms"),
        ("scheduler.split_dp_ms", "ms"),
        ("scheduler.assign_plans_ms", "ms"),
        ("scheduler.gpus", "count"),
        ("scheduler.gpus_over_lower_bound", "ratio"),
        ("control.plan_ms", "ms"),
        ("control.sessions", "count"),
        ("control.route_fanout_max", "count"),
        ("control.route_fanout_mean", "count"),
        ("cluster.new_ms", "ms"),
        ("cluster.run_s", "s"),
        ("cluster.events", "count"),
        ("cluster.events_per_query", "count"),
        ("cluster.ns_per_event", "ns"),
        ("cluster.replans", "count"),
        ("simgpu.calendar_ns_per_op", "ns"),
        ("dispatch.queue_wait_p50_ms", "ms"),
        ("dispatch.queue_wait_p99_ms", "ms"),
        ("dispatch.exec_p50_ms", "ms"),
        ("dispatch.batch_mean", "count"),
        ("dispatch.rung_fill", "ratio"),
        ("singlenode.plan_ms", "ms"),
        ("singlenode.run_s", "s"),
        ("singlenode.ns_per_request", "ns"),
        ("obs.trace_events", "count"),
        ("obs.trace_truncated", "count"),
        ("obs.encode_ms", "ms"),
        ("obs.chrome_trace_ms", "ms"),
        ("obs.prometheus_ms", "ms"),
        ("obs.summary_ms", "ms"),
        ("obs.trace_overhead", "ratio"),
        ("serve.proto.encode_ns", "ns"),
        ("serve.proto.decode_ns", "ns"),
        ("serve.admission.admit_ns", "ns"),
        ("serve.routing.pick_ns", "ns"),
        ("serve.backend.exec_rtt_ms", "ms"),
        ("serve.frontend.recv_wait_ms", "ms"),
        ("serve.frontend.budget_violations", "count"),
        ("serve.frontend.retried", "count"),
        ("serve.frontend.probe_misses", "count"),
        ("serve.gen_lag_ms", "ms"),
        ("serve.max_qps", "1/s"),
        ("serve.ladder_good_frac", "ratio"),
        ("trace.wall_ms", "ms"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for cause in DROP_CAUSES {
        out.push((format!("dispatch.drop.{cause}"), "count"));
        out.push((format!("serve.frontend.drop.{cause}"), "count"));
    }
    for layer in LAYERS {
        out.push((format!("self_ms.{layer}"), "ms"));
    }
    out
}

/// Metrics, notes and correctness checks of one invocation.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    values: Vec<(String, f64)>,
    /// Human-readable lines printed above the result (sample counts,
    /// percentiles used, fingerprints).
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// An empty report for an untraced (`traced = false`) or traced run.
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            values: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether this report carries the per-layer set.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets metric `name` (last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_owned(), value));
    }

    /// Adds a human-readable line to the printout.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("CHECK FAILED: {}", what());
            eprintln!("{line}");
            self.notes.push(line);
        }
    }

    /// `(name, unit)` of every metric this report must print.
    fn catalog(&self) -> Vec<(String, &'static str)> {
        if self.traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
        }
    }

    /// Renders the notes, a metric table, and the final JSON result line.
    /// A metric outside the catalog is a bug and panics. A missing
    /// end-to-end metric fails the run; a missing per-layer metric means
    /// the workload does not use that layer and prints as zero.
    pub fn render(mut self) -> String {
        let catalog = self.catalog();
        for (name, _) in &self.values {
            assert!(
                catalog.iter().any(|(n, _)| n == name),
                "metric {name} is not in the catalog"
            );
        }
        let mut rows = Vec::new();
        for (name, unit) in &catalog {
            let value = self.values.iter().find(|(n, _)| n == name).map(|v| v.1);
            let value = match value {
                Some(v) if v.is_finite() => v,
                _ if self.traced => 0.0,
                _ => {
                    self.check(false, || {
                        format!("end-to-end metric {name} was not measured")
                    });
                    0.0
                }
            };
            rows.push((name.clone(), *unit, value));
        }
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for (name, unit, v) in &rows {
            let _ = writeln!(out, "  {name:<40} {v:>16.6} {unit}");
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, unit, v)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
                "{n}"
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_lists_every_catalog_metric() {
        let mut r = Report::new(false);
        for (n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        for _ in 0..3 {
            r.check(true, String::new);
        }
        let out = r.render();
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (n, u) in END_TO_END {
            assert!(last.contains(&format!("\"{n}\": {{\"value\": 1.5, \"unit\": \"{u}\"}}")));
        }
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let r = Report::new(false);
        let out = r.render();
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
