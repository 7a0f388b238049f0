//! Readers for what the program already reports about itself: the
//! `rchls-telemetry` counters and histograms, and the process's peak
//! resident set.

use rchls_telemetry::metrics::{self, Counter, Histogram, COUNT_BUCKETS, TIME_BUCKETS_MICROS};
use std::sync::Arc;

/// Every global counter a run reads, in [`Counters`] field order.
const COUNTER_NAMES: [&str; 9] = [
    "synth_cache.hits",
    "synth_cache.misses",
    "starts_cache.hits",
    "starts_cache.misses",
    "alloc_cache.hits",
    "alloc_cache.misses",
    "store.hits",
    "store.misses",
    "store.writes",
];

/// Every global histogram a run reads, in [`Timers`] field order.
const TIMER_NAMES: [&str; 5] = [
    "phase.alloc_micros",
    "phase.sched_micros",
    "phase.bind_micros",
    "serve.request_micros",
    "executor.worker_busy_micros",
];

/// A snapshot of the cache and store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Synthesis-report memo hits / misses.
    pub hits: u64,
    /// See [`Counters::hits`].
    pub misses: u64,
    /// Uniform start-pool cache hits / misses.
    pub starts_hits: u64,
    /// See [`Counters::starts_hits`].
    pub starts_misses: u64,
    /// Allocation-first design cache hits / misses.
    pub alloc_hits: u64,
    /// See [`Counters::alloc_hits`].
    pub alloc_misses: u64,
    /// On-disk store hits, misses and write-backs.
    pub store_hits: u64,
    /// See [`Counters::store_hits`].
    pub store_misses: u64,
    /// See [`Counters::store_hits`].
    pub store_writes: u64,
}

impl Counters {
    /// Field-wise `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            starts_hits: self.starts_hits - earlier.starts_hits,
            starts_misses: self.starts_misses - earlier.starts_misses,
            alloc_hits: self.alloc_hits - earlier.alloc_hits,
            alloc_misses: self.alloc_misses - earlier.alloc_misses,
            store_hits: self.store_hits - earlier.store_hits,
            store_misses: self.store_misses - earlier.store_misses,
            store_writes: self.store_writes - earlier.store_writes,
        }
    }
}

/// Summed microseconds of the program's own phase and request timers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timers {
    /// Allocation-first search time.
    pub alloc_us: f64,
    /// Scheduler-pass time.
    pub sched_us: f64,
    /// Binder-pass time.
    pub bind_us: f64,
    /// Daemon request time, parse to response line.
    pub request_us: f64,
    /// Executor worker busy time.
    pub worker_busy_us: f64,
}

impl Timers {
    /// Field-wise `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Timers) -> Timers {
        Timers {
            alloc_us: self.alloc_us - earlier.alloc_us,
            sched_us: self.sched_us - earlier.sched_us,
            bind_us: self.bind_us - earlier.bind_us,
            request_us: self.request_us - earlier.request_us,
            worker_busy_us: self.worker_busy_us - earlier.worker_busy_us,
        }
    }
}

/// Handles to the global telemetry metrics, looked up once.
pub struct Probe {
    counters: Vec<Arc<Counter>>,
    timers: Vec<Arc<Histogram>>,
    queue_depth: Arc<Histogram>,
    rejected: Vec<Arc<Counter>>,
}

impl Probe {
    /// Looks up (registering if needed) every metric the benchmark reads.
    #[must_use]
    pub fn new() -> Probe {
        Probe {
            counters: COUNTER_NAMES.iter().map(|n| metrics::counter(n)).collect(),
            timers: TIMER_NAMES
                .iter()
                .map(|n| metrics::histogram(n, TIME_BUCKETS_MICROS))
                .collect(),
            queue_depth: metrics::histogram("serve.queue_depth", COUNT_BUCKETS),
            rejected: [
                "serve.rejected_overloaded",
                "serve.rejected_deadline",
                "serve.rejected_conns",
            ]
            .iter()
            .map(|n| metrics::counter(n))
            .collect(),
        }
    }

    /// The current counter values.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let c = |i: usize| self.counters[i].get();
        Counters {
            hits: c(0),
            misses: c(1),
            starts_hits: c(2),
            starts_misses: c(3),
            alloc_hits: c(4),
            alloc_misses: c(5),
            store_hits: c(6),
            store_misses: c(7),
            store_writes: c(8),
        }
    }

    /// The current timer sums.
    #[must_use]
    pub fn timers(&self) -> Timers {
        let t = |i: usize| self.timers[i].sum() as f64;
        Timers {
            alloc_us: t(0),
            sched_us: t(1),
            bind_us: t(2),
            request_us: t(3),
            worker_busy_us: t(4),
        }
    }

    /// Requests the daemon refused so far (overload, deadline, connection
    /// limit).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.iter().map(|c| c.get()).sum()
    }

    /// The deepest admission queue the daemon has seen so far.
    #[must_use]
    pub fn queue_depth_max(&self) -> u64 {
        self.queue_depth.max()
    }
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
