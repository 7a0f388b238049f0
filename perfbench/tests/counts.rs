//! The exact work counts a traced run reports are a pure function of the
//! seed: two runs of the same inputs report identical counts. (One test
//! function, because the counts are read from process-global telemetry
//! that concurrently running tests would disturb.)

use rchls_perfbench::closed::{self, Mode};
use rchls_perfbench::probe::Probe;
use rchls_perfbench::report::Report;
use rchls_perfbench::{serve, workload};
use rchls_reslib::Library;
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Every count the benchmark promises to repeat exactly.
const EXACT: [&str; 18] = [
    "sched.calls",
    "bind.calls",
    "refine.upgrades",
    "refine.iterations",
    "refine.rejected",
    "alloc.cap_hits",
    "engine.hits",
    "engine.misses",
    "engine.starts_hits",
    "engine.starts_misses",
    "engine.alloc_hits",
    "engine.alloc_misses",
    "store.hits",
    "store.misses",
    "store.writes",
    "jobs.total",
    "jobs.feasible",
    "engine.resident_bytes",
];

fn counts(report: &Report) -> Vec<(&'static str, f64)> {
    EXACT
        .iter()
        .map(|&name| (name, report.metrics[name]))
        .collect()
}

/// Runs `run` twice and checks both runs are correct, report identical
/// counts, and have layer self times that sum to the traced total.
fn repeats(what: &str, run: impl Fn() -> Report) -> Report {
    let (a, b) = (run(), run());
    assert!(a.correct(), "{what}: {:?} {:?}", a.errors, a.invalid);
    assert!(b.correct(), "{what}: {:?} {:?}", b.errors, b.invalid);
    assert_eq!(
        counts(&a),
        counts(&b),
        "{what}: counts differ between identical runs"
    );
    let total = a.metrics["trace.total_us"];
    assert!(
        (a.metrics["trace.self_sum_us"] - total).abs() <= 1e-6 * total,
        "{what}: layers do not sum to the total"
    );
    a
}

fn check_all(base: &Path) {
    let library = Library::table1();
    let probe = Probe::new();
    let next = Cell::new(0);
    let fresh_dir = || -> PathBuf {
        next.set(next.get() + 1);
        let dir = base.join(next.get().to_string());
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };

    // sweep_cold: the builtin part of the first pass (all three
    // strategies on every default-grid point).
    let mut sweep = workload::sweep_cold(7, 0, &library);
    sweep.jobs.retain(|j| j.workload.starts_with("builtin:"));
    let report = repeats("sweep_cold", || {
        closed::traced(&sweep, &library, Mode::Batch, &fresh_dir(), &probe)
            .unwrap()
            .0
    });
    assert!(report.metrics["sched.calls"] > 0.0);
    assert!(
        report.metrics["engine.starts_hits"] > 0.0,
        "strategies share start pools"
    );
    assert_eq!(
        report.metrics["store.writes"],
        sweep.jobs.len() as f64,
        "the daemon replay writes back"
    );

    // large_synth: the smallest ladder graph, which hits the
    // enumeration cap like every ladder size.
    let mut ladder = workload::large_synth(7, 0..1, &library);
    ladder.jobs.truncate(1);
    let report = repeats("large_synth", || {
        closed::traced(&ladder, &library, Mode::Serial, &fresh_dir(), &probe)
            .unwrap()
            .0
    });
    assert_eq!(report.metrics["alloc.cap_hits"], 1.0);
    assert!(
        report.metrics["alloc.share"] > 0.5,
        "alloc dominates a capped search"
    );

    // serve_mixed: a short request sequence through the daemon.
    let report = repeats("serve_mixed", || {
        serve::traced(3, 0.5, &library, &fresh_dir(), &probe)
            .unwrap()
            .0
    });
    assert!(report.metrics["store.hits"] > 0.0);
}

#[test]
fn work_counts_repeat_exactly_for_a_seed() {
    let base = std::env::temp_dir().join(format!("rchls-perfbench-counts-{}", std::process::id()));
    let result = std::panic::catch_unwind(|| check_all(&base));
    let _ = std::fs::remove_dir_all(&base);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
