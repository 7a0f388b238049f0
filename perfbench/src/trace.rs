//! The benchmark's own span recorder.
//!
//! Spans are recorded by the benchmark around each public call it makes
//! into a layer; the program itself is not instrumented further. A span
//! may also carry *derived* children: durations the program already
//! reports for work nested inside the call (its phase timers for the
//! allocation search, scheduler and binder passes, and the daemon's
//! request timer). A span's self time is its duration minus its
//! children's, so the self times of all spans sum to the total of the
//! root spans by construction.
//!
//! Recording is single-threaded: a traced pass drives its calls one at
//! a time from the calling thread, so children never overlap.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer the span belongs to.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, microseconds since the tracer was created (derived spans
    /// are laid out back to back from their parent's start).
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Whether the duration was reported by the program rather than
    /// timed by the benchmark.
    pub derived: bool,
}

/// An in-memory span tree. A disabled tracer runs every closure without
/// reading the clock, which is how the untraced comparison pass runs
/// the identical call sequence.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    // Per span: how much of it derived children already fill, so the
    // next derived child is laid out after them.
    derived_fill: Vec<f64>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            derived_fill: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: 0.0,
            derived: false,
        });
        self.derived_fill.push(0.0);
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].dur_us = start.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Attaches a child of known duration to the innermost open span:
    /// work the program timed itself inside the call being traced.
    pub fn derived(&mut self, name: &'static str, dur_us: f64) {
        self.derived_tree(name, dur_us, &[]);
    }

    /// [`Tracer::derived`] with derived grandchildren: `children` ran
    /// inside the reported `name` work (e.g. kernels inside a daemon
    /// request).
    pub fn derived_tree(
        &mut self,
        name: &'static str,
        dur_us: f64,
        children: &[(&'static str, f64)],
    ) {
        if !self.enabled || dur_us <= 0.0 {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let index = self.push_derived(parent, name, dur_us);
        for &(child, child_us) in children {
            if child_us > 0.0 {
                self.push_derived(index, child, child_us);
            }
        }
    }

    fn push_derived(&mut self, parent: usize, name: &'static str, dur_us: f64) -> usize {
        let start_us = self.spans[parent].start_us + self.derived_fill[parent];
        self.derived_fill[parent] += dur_us;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_us,
            dur_us,
            derived: true,
        });
        self.derived_fill.push(0.0);
        self.spans.len() - 1
    }

    /// Every recorded span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the root spans: the traced total.
    #[must_use]
    pub fn total_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_us)
            .sum()
    }

    /// Self time per layer: each span's duration minus its children's,
    /// summed by span name.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_sum = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_sum[parent] += span.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_sum) {
            *out.entry(span.name).or_insert(0.0) += span.dur_us - children;
        }
        out
    }

    /// The span list as a JSON document (one object per span).
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"derived\":{}}}",
                    s.name,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.start_us,
                    s.dur_us,
                    s.derived
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_total() {
        let mut t = Tracer::new(true);
        t.span("pass", |t| {
            t.span("a", |t| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                t.derived("kernel", 500.0);
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let selves = t.self_times();
        let sum: f64 = selves.values().sum();
        assert!(
            (sum - t.total_us()).abs() < 1e-6,
            "{sum} vs {}",
            t.total_us()
        );
        assert_eq!(selves["kernel"], 500.0);
        assert!(selves["a"] >= 1000.0);
        assert_eq!(t.spans().len(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("pass", |t| {
            t.derived("kernel", 5.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.total_us(), 0.0);
    }
}
