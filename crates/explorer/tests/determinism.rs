//! Executor determinism and cache-effectiveness guarantees on the real
//! paper benchmarks.

use rchls_core::{flow, Bounds, Engine, FlowSpec, RedundancyModel, SynthRequest};
use rchls_dfg::Dfg;
use rchls_explorer::{
    explore, export, inherit, ExploreTask, StrategyDiagnostics, SweepRow, TABLE2_STRATEGIES,
};
use rchls_reslib::Library;

/// The Table-2-style grid each benchmark sweeps in these tests (a
/// tight-to-loose 2×3 block keeps debug-mode runtime reasonable).
fn grid_for(name: &str) -> Vec<(u32, u32)> {
    match name {
        "fir16" => vec![(12, 8), (12, 12), (13, 8), (13, 16), (14, 12), (11, 6)],
        "ewf" => vec![(14, 8), (14, 11), (15, 10), (16, 8), (16, 11), (13, 5)],
        "diffeq" => vec![(5, 11), (5, 15), (6, 13), (7, 7), (7, 11), (4, 4)],
        other => panic!("no grid for {other}"),
    }
}

fn benchmark(name: &str) -> Dfg {
    rchls_workloads::all_benchmarks()
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("benchmark is registered")
        .1()
}

fn explore_on(engine: &Engine, names: &[&str]) -> rchls_explorer::Exploration {
    let tasks: Vec<ExploreTask> = names
        .iter()
        .map(|&n| ExploreTask::new(n, benchmark(n), grid_for(n)))
        .collect();
    explore(
        engine,
        &tasks,
        &FlowSpec::default(),
        RedundancyModel::default(),
    )
}

fn engine(jobs: usize) -> Engine {
    Engine::new(Library::table1()).with_jobs(jobs)
}

/// The serial reference sweep, independent of the engine, its cache and
/// its executor: each Table-2 strategy run directly through the trait
/// at each grid point, then feasibility inheritance.
fn reference_sweep(dfg: &Dfg, grid: &[(u32, u32)]) -> Vec<SweepRow> {
    let lib = Library::table1();
    let raw: Vec<SweepRow> = grid
        .iter()
        .map(|&(latency, area)| {
            let mut row = SweepRow::empty(latency, area);
            for id in TABLE2_STRATEGIES {
                let strategy = flow::strategy(id).expect("built-in strategy");
                let Ok(report) =
                    strategy.run(&SynthRequest::new(dfg, &lib, Bounds::new(latency, area)))
                else {
                    continue;
                };
                let reliability = Some(report.design.reliability.value());
                match id {
                    "baseline" => row.baseline = reliability,
                    "ours" => row.ours = reliability,
                    _ => row.combined = reliability,
                }
                row.diagnostics.push(StrategyDiagnostics {
                    strategy: id.to_owned(),
                    diagnostics: report.diagnostics.scrubbed(),
                });
            }
            row
        })
        .collect();
    inherit(&raw)
}

/// Acceptance: the parallel frontier has identical membership to the
/// serial one, and the parallel rows equal the uncached serial reference
/// sweep, on fir16, ewf, and diffeq.
#[test]
fn parallel_frontier_matches_serial_on_all_paper_benchmarks() {
    for name in ["fir16", "ewf", "diffeq"] {
        let serial = explore_on(&engine(1), &[name]);
        let parallel = explore_on(&engine(4), &[name]);
        assert_eq!(
            serial.frontier.points(),
            parallel.frontier.points(),
            "{name}: frontier membership diverged between 1 and 4 jobs"
        );
        assert_eq!(serial.sweeps, parallel.sweeps, "{name}: rows diverged");
        // And both equal the uncached serial reference.
        let reference = reference_sweep(&benchmark(name), &grid_for(name));
        assert_eq!(
            serial.sweeps[0].rows, reference,
            "{name}: drifted from the serial reference sweep"
        );
    }
}

/// Determinism guard: `--jobs 8` produces byte-identical JSON to
/// `--jobs 1` on fir16 and ewf.
#[test]
fn json_export_is_byte_identical_across_job_counts() {
    for name in ["fir16", "ewf"] {
        let one = explore_on(&engine(1), &[name]);
        let eight = explore_on(&engine(8), &[name]);
        assert_eq!(
            export::frontier_json(&one.frontier),
            export::frontier_json(&eight.frontier),
            "{name}: frontier JSON diverged between 1 and 8 jobs"
        );
        assert_eq!(
            export::exploration_json(&one),
            export::exploration_json(&eight),
            "{name}: exploration JSON diverged between 1 and 8 jobs"
        );
    }
}

/// Cache guarantee: repeating a sweep on a warm session performs zero
/// new synthesis calls, and overlapping grids only pay for new points.
#[test]
fn repeated_sweep_synthesizes_nothing_new() {
    let engine = engine(2);
    let first = explore_on(&engine, &["diffeq"]);
    let misses_after_first = engine.cache_stats().misses;
    assert!(misses_after_first > 0);

    let second = explore_on(&engine, &["diffeq"]);
    assert_eq!(first, second, "cached rerun changed the result");
    assert_eq!(
        engine.cache_stats().misses,
        misses_after_first,
        "a repeated sweep must be answered entirely from the cache"
    );
    assert!(engine.cache_stats().hits >= misses_after_first);

    // A superset grid pays only for the genuinely new points.
    let mut grid = grid_for("diffeq");
    grid.push((6, 15));
    let tasks = [ExploreTask::new("diffeq", benchmark("diffeq"), grid)];
    let _ = explore(
        &engine,
        &tasks,
        &FlowSpec::default(),
        RedundancyModel::default(),
    );
    assert_eq!(
        engine.cache_stats().misses,
        misses_after_first + 3,
        "one new grid point = exactly three new synthesis runs"
    );
}
