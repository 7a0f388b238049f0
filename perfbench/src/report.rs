//! The run result: metrics by name with units, failure accounting, and
//! the one-line JSON document the benchmark prints last.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Every per-layer metric a traced run prints, with its unit, in
/// output order. A layer a workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.resolve_us", "us"),
    ("engine.new_us", "us"),
    ("engine.hit_ratio", "ratio"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.starts_hit_ratio", "ratio"),
    ("engine.starts_hits", "count"),
    ("engine.starts_misses", "count"),
    ("engine.alloc_hit_ratio", "ratio"),
    ("engine.alloc_hits", "count"),
    ("engine.alloc_misses", "count"),
    ("engine.resident_bytes", "bytes"),
    ("engine.evictions", "count"),
    ("executor.busy_ratio", "ratio"),
    ("alloc.us", "us"),
    ("alloc.share", "ratio"),
    ("alloc.cap_hits", "count"),
    ("sched.calls", "count"),
    ("sched.us", "us"),
    ("bind.calls", "count"),
    ("bind.us", "us"),
    ("refine.upgrades", "count"),
    ("refine.iterations", "count"),
    ("refine.rejected", "count"),
    ("synth.self_us", "us"),
    ("store.load_us", "us"),
    ("store.save_us", "us"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("serve.server_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.rejected", "count"),
    ("serve.queue_depth_max", "count"),
    ("serialize.us", "us"),
    ("gen.late_ms", "ms"),
    ("gen.backlog", "flag"),
    ("jobs.total", "count"),
    ("jobs.feasible", "count"),
    ("error_ratio", "ratio"),
    ("trace.total_us", "us"),
    ("trace.self_sum_us", "us"),
    ("trace.harness_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_us", "us"),
    ("trace.spans", "count"),
    ("latency.samples", "count"),
    ("latency.beyond_p99", "count"),
];

/// Span name → per-layer self-time metric.
pub const LAYER_METRICS: [(&str, &str); 12] = [
    ("pass", "trace.harness_us"),
    ("engine.new", "engine.new_us"),
    ("workloads.resolve", "workloads.resolve_us"),
    ("engine.synth", "synth.self_us"),
    ("alloc", "alloc.us"),
    ("sched", "sched.us"),
    ("bind", "bind.us"),
    ("serialize", "serialize.us"),
    ("store.load", "store.load_us"),
    ("store.save", "store.save_us"),
    ("client.call", "serve.wire_us"),
    ("serve.server", "serve.server_us"),
];

/// Every end-to-end metric an untraced run prints, with its unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rel_score", "score"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong output.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// Set when the run itself is invalid (e.g. an overloaded open
    /// loop) even though every answer was right.
    pub invalid: Option<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    /// Counts one checked operation; `Err` marks it failed.
    pub fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 10 {
                self.errors.push(e);
            }
        }
    }

    /// Whether every output was correct and the run was valid.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.invalid.is_none()
    }

    /// Records the per-layer self times of a traced pass, the traced
    /// total, and the check that the self times sum to it.
    pub fn set_layers(&mut self, tracer: &Tracer, untraced_us: f64) {
        let selves = tracer.self_times();
        let total = tracer.total_us();
        for (span, metric) in LAYER_METRICS {
            self.set(metric, selves.get(span).copied().unwrap_or(0.0));
        }
        let sum: f64 = selves.values().sum();
        self.set("trace.total_us", total);
        self.set("trace.self_sum_us", sum);
        self.set("trace.untraced_us", untraced_us);
        self.set("trace.overhead_ratio", total / untraced_us.max(1.0));
        self.set("trace.spans", tracer.spans().len() as f64);
        self.set(
            "alloc.share",
            selves.get("alloc").copied().unwrap_or(0.0) / total.max(1.0),
        );
        let unnamed: Vec<&&str> = selves
            .keys()
            .filter(|k| !LAYER_METRICS.iter().any(|(span, _)| span == *k))
            .collect();
        if !unnamed.is_empty() {
            self.invalid = Some(format!("spans without a layer metric: {unnamed:?}"));
        }
        if (sum - total).abs() > 1e-6 * total.max(1.0) {
            self.invalid = Some(format!(
                "layer self times sum to {sum} us, traced total {total} us"
            ));
        }
        let mut rows: Vec<(&str, f64)> = selves.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.notes.push(format!(
            "traced total {:.0} us (untraced {:.0} us, overhead x{:.3}); self time by layer:",
            total,
            untraced_us,
            total / untraced_us.max(1.0)
        ));
        for (name, us) in &rows {
            self.notes.push(format!(
                "  {name:<18} {us:>14.0} us  {:>6.2}%",
                100.0 * us / total.max(1.0)
            ));
        }
        if let Some((name, _)) = rows.first() {
            self.notes.push(format!("dominant self time: {name}"));
        }
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// metrics named in `catalog`, each with its unit.
    ///
    /// # Errors
    ///
    /// Returns an error naming a catalog metric the run did not produce
    /// or produced as a non-finite number.
    pub fn json_line(&self, catalog: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let value = self.metrics.get(*name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_json_line_carries_every_catalog_metric_with_its_unit() {
        let mut r = Report::default();
        r.tally(Ok(()));
        r.set("setup_s", 0.25);
        let line = r.json_line(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"p99_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        r.set("p50_ms", f64::NAN);
        assert!(r.json_line(&END_TO_END).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.tally(Err("bad".to_owned()));
        assert!(!r.correct());
        assert_eq!(r.errors, vec!["bad".to_owned()]);
    }
}
