//! The design-space sweep behind the paper's tables and figures: fan
//! `(bounds × strategy)` jobs for each benchmark over a session
//! [`Engine`], assemble Table-2-style rows, and archive the Pareto
//! frontier.
//!
//! Every sweep applies *feasibility inheritance*: a design feasible under
//! bounds `(Ld, Ad)` is feasible under any looser bounds, so each sweep
//! point reports the best reliability over all dominated bound pairs in
//! the sweep. This turns the greedy engine's occasional
//! non-monotonicity (a tighter bound steering the heuristic to a better
//! local optimum) into the monotone curves a designer actually has
//! available — at no additional synthesis cost.
//!
//! Strategies are addressed by registry id through the
//! [`rchls_core::Strategy`] trait; the Table-2 columns are the three ids
//! in [`TABLE2_STRATEGIES`].

use crate::pareto::{FrontierPoint, ParetoArchive};
use rchls_core::{flow, Bounds, Diagnostics, Engine, FlowSpec, RedundancyModel, Strategy};
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The paper's three Table-2 strategies, by registry id, in the paper's
/// column order: the redundancy baseline (Ref \[3\]), the
/// reliability-centric approach, and the combined scheme.
pub const TABLE2_STRATEGIES: [&str; 3] = ["baseline", "ours", "combined"];

/// The registered strategies behind [`TABLE2_STRATEGIES`], in order.
pub(crate) fn table2_strategies() -> Vec<Arc<dyn Strategy>> {
    TABLE2_STRATEGIES
        .iter()
        .map(|id| flow::strategy(id).expect("built-in strategies are always registered"))
        .collect()
}

/// One strategy's diagnostics at one sweep point (wall time scrubbed for
/// determinism — see [`Diagnostics::scrubbed`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrategyDiagnostics {
    /// The strategy's registry id.
    pub strategy: String,
    /// The scrubbed diagnostics of the run.
    pub diagnostics: Diagnostics,
}

/// One row of a Table-2-style comparison: the three strategies at one
/// `(Ld, Ad)` point. `None` means the strategy found no feasible design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Latency bound `Ld`.
    pub latency_bound: u32,
    /// Area bound `Ad`.
    pub area_bound: u32,
    /// Reliability of the redundancy baseline (\[3\]).
    pub baseline: Option<f64>,
    /// Reliability of the reliability-centric approach.
    pub ours: Option<f64>,
    /// Reliability of the combined approach.
    pub combined: Option<f64>,
    /// Per-strategy diagnostics of this point's own (raw) runs, in
    /// [`TABLE2_STRATEGIES`] order, feasible runs only. Feasibility
    /// inheritance copies a row's reliabilities from dominated rows but
    /// keeps the row's own diagnostics.
    pub diagnostics: Vec<StrategyDiagnostics>,
}

impl SweepRow {
    /// An empty row at the given bounds.
    #[must_use]
    pub fn empty(latency_bound: u32, area_bound: u32) -> SweepRow {
        SweepRow {
            latency_bound,
            area_bound,
            baseline: None,
            ours: None,
            combined: None,
            diagnostics: Vec::new(),
        }
    }

    /// The reliability column of a [`TABLE2_STRATEGIES`] id.
    fn column_mut(&mut self, strategy: &str) -> &mut Option<f64> {
        match strategy {
            "baseline" => &mut self.baseline,
            "ours" => &mut self.ours,
            "combined" => &mut self.combined,
            other => unreachable!("{other:?} is not a Table-2 strategy"),
        }
    }

    /// Percentage improvement of ours over the baseline (the paper's
    /// "% Imprv" column); `None` if either side is infeasible.
    #[must_use]
    pub fn improvement_pct(&self) -> Option<f64> {
        match (self.baseline, self.ours) {
            (Some(b), Some(o)) if b > 0.0 => Some((o - b) / b * 100.0),
            _ => None,
        }
    }

    /// Percentage improvement of the combined approach over the baseline.
    #[must_use]
    pub fn combined_improvement_pct(&self) -> Option<f64> {
        match (self.baseline, self.combined) {
            (Some(b), Some(c)) if b > 0.0 => Some((c - b) / b * 100.0),
            _ => None,
        }
    }
}

/// Applies feasibility inheritance over a sweep's own dominance order:
/// each row reports, per strategy, the best reliability among all rows
/// whose bounds are no looser (see the module docs). Diagnostics stay
/// with their own row.
#[must_use]
pub fn inherit(raw: &[SweepRow]) -> Vec<SweepRow> {
    raw.iter()
        .map(|row| {
            let dominated = |other: &SweepRow| {
                other.latency_bound <= row.latency_bound && other.area_bound <= row.area_bound
            };
            let best = |f: fn(&SweepRow) -> Option<f64>| {
                raw.iter()
                    .filter(|o| dominated(o))
                    .filter_map(f)
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |a| a.max(v)))
                    })
            };
            SweepRow {
                latency_bound: row.latency_bound,
                area_bound: row.area_bound,
                baseline: best(|r| r.baseline),
                ours: best(|r| r.ours),
                combined: best(|r| r.combined),
                diagnostics: row.diagnostics.clone(),
            }
        })
        .collect()
}

/// Per-strategy average reliabilities over the feasible cells of a sweep
/// (the Figure 9 bars). Returns `(baseline, ours, combined)`.
#[must_use]
pub fn averages(rows: &[SweepRow]) -> (f64, f64, f64) {
    let avg = |f: fn(&SweepRow) -> Option<f64>| {
        let vals: Vec<f64> = rows.iter().filter_map(f).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    (avg(|r| r.baseline), avg(|r| r.ours), avg(|r| r.combined))
}

/// Formats sweep rows as an aligned text table matching the paper's
/// Table 2 layout.
#[must_use]
pub fn format_table(rows: &[SweepRow]) -> String {
    let mut out = String::from("  Ld   Ad    Ref[3]      Ours    %Imprv  Ours+Ref[3]  %Imprv\n");
    for r in rows {
        let cell = |v: Option<f64>| match v {
            Some(x) => format!("{x:.5}"),
            None => "   -   ".into(),
        };
        let pct = |v: Option<f64>| match v {
            Some(x) => format!("{x:+.2}"),
            None => "  -  ".into(),
        };
        out.push_str(&format!(
            "{:>4} {:>4}  {:>8}  {:>8}  {:>8}  {:>10}  {:>7}\n",
            r.latency_bound,
            r.area_bound,
            cell(r.baseline),
            cell(r.ours),
            pct(r.improvement_pct()),
            cell(r.combined),
            pct(r.combined_improvement_pct()),
        ));
    }
    out
}

/// One benchmark to explore: a graph plus its `(Ld, Ad)` bound grid.
#[derive(Debug, Clone)]
pub struct ExploreTask {
    /// Benchmark name (labels rows and frontier points).
    pub name: String,
    /// The workload spec the graph came from, when it was resolved
    /// through the [`rchls_workloads`] source registry — echoed into the
    /// sweep artifacts so randomized runs are reproducible from their
    /// reports.
    pub workload: Option<String>,
    /// The data-flow graph, shared (e.g. with an [`Engine`]'s interned
    /// workload) rather than copied.
    pub dfg: Arc<Dfg>,
    /// The `(latency, area)` bound pairs to sweep.
    pub grid: Vec<(u32, u32)>,
}

impl ExploreTask {
    /// Bundles a named graph (owned or shared) with its grid.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        dfg: impl Into<Arc<Dfg>>,
        grid: Vec<(u32, u32)>,
    ) -> ExploreTask {
        ExploreTask {
            name: name.into(),
            workload: None,
            dfg: dfg.into(),
            grid,
        }
    }

    /// Resolves a workload spec (`builtin:fir16`, `random:64x8@7`,
    /// `file:path.dfg`, or any registered scheme) into a task over
    /// `grid`. The task is named after the graph and carries the
    /// canonical spec.
    ///
    /// # Errors
    ///
    /// Returns the registry's [`rchls_workloads::WorkloadError`] when
    /// the spec does not resolve.
    pub fn from_spec(
        spec: &str,
        grid: Vec<(u32, u32)>,
    ) -> Result<ExploreTask, rchls_workloads::WorkloadError> {
        let workload = rchls_workloads::load_workload(spec)?;
        Ok(
            ExploreTask::new(workload.dfg.name().to_owned(), workload.dfg, grid)
                .with_workload(workload.spec),
        )
    }

    /// Attaches the canonical workload spec this task's graph came from.
    #[must_use]
    pub fn with_workload(mut self, spec: impl Into<String>) -> ExploreTask {
        self.workload = Some(spec.into());
        self
    }
}

/// The full result of an exploration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exploration {
    /// Per-benchmark Table-2-style rows (feasibility-inherited, carrying
    /// per-strategy diagnostics), in task order.
    pub sweeps: Vec<BenchmarkSweep>,
    /// The non-dominated frontier over every synthesized design.
    pub frontier: ParetoArchive,
}

/// One benchmark's sweep rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// The canonical workload spec the benchmark was resolved from
    /// (`None` when the task was built from a bare graph).
    pub workload: Option<String>,
    /// Sweep rows in grid order.
    pub rows: Vec<SweepRow>,
}

/// Sweeps every task's grid with the three Table-2 strategies on
/// `engine` and archives the Pareto frontier of the achieved designs.
///
/// The library, cache tiers (memory, store), cache budget and worker
/// count all come from the engine. Neither the worker count nor the
/// cache state changes a byte of the result: the executor only changes
/// *when* each point is synthesized, and sweep artifacts store
/// wall-time-scrubbed diagnostics (see [`Diagnostics::scrubbed`]).
///
/// # Panics
///
/// Panics if `flow` names a pass id the registry doesn't know — a
/// mistyped id would otherwise be indistinguishable from every grid
/// point being infeasible.
#[must_use]
pub fn explore(
    engine: &Engine,
    tasks: &[ExploreTask],
    flow: &FlowSpec,
    model: RedundancyModel,
) -> Exploration {
    let mut frontier = ParetoArchive::new();
    let sweeps = tasks
        .iter()
        .map(|task| {
            let (raw, candidates) = synthesize_points(engine, task, &task.grid, flow, model);
            frontier.extend(candidates);
            BenchmarkSweep {
                benchmark: task.name.clone(),
                workload: task.workload.clone(),
                rows: inherit(&raw),
            }
        })
        .collect();
    Exploration { sweeps, frontier }
}

/// Synthesizes the given grid points of one task (all three Table-2
/// strategies per point) on `engine`, and assembles the *raw* —
/// pre-inheritance — rows plus the feasible frontier candidates, in
/// point order.
///
/// This is the one fan-out under every sweep: [`explore`] runs it over
/// each task's full grid, [`crate::shard`] over a deterministic slice,
/// and [`crate::resume`] over the pending points between checkpoints.
///
/// # Panics
///
/// Panics if `flow` names a pass id the registry doesn't know.
pub(crate) fn synthesize_points(
    engine: &Engine,
    task: &ExploreTask,
    points: &[(u32, u32)],
    flow: &FlowSpec,
    model: RedundancyModel,
) -> (Vec<SweepRow>, Vec<FrontierPoint>) {
    if let Err(e) = flow.resolve() {
        panic!("sweep: {e}");
    }
    let strategies = table2_strategies();
    let jobs: Vec<(Bounds, &Arc<dyn Strategy>)> = points
        .iter()
        .flat_map(|&(latency, area)| {
            strategies
                .iter()
                .map(move |strategy| (Bounds::new(latency, area), strategy))
        })
        .collect();
    let outcomes = engine.executor().run(&jobs, |&(bounds, strategy)| {
        engine.synth_point(
            &task.dfg,
            task.workload.as_deref(),
            bounds,
            flow,
            model,
            &**strategy,
        )
    });

    let mut candidates = Vec::new();
    let rows = points
        .iter()
        .zip(outcomes.chunks(strategies.len()))
        .map(|(&(latency, area), outcomes)| {
            let mut row = SweepRow::empty(latency, area);
            for (id, report) in TABLE2_STRATEGIES.into_iter().zip(outcomes) {
                let Some(report) = report else { continue };
                let design = &report.design;
                *row.column_mut(id) = Some(design.reliability.value());
                row.diagnostics.push(StrategyDiagnostics {
                    strategy: id.to_owned(),
                    diagnostics: report.diagnostics.scrubbed(),
                });
                candidates.push(FrontierPoint {
                    benchmark: task.name.clone(),
                    strategy: id.to_owned(),
                    latency_bound: latency,
                    area_bound: area,
                    latency: design.latency,
                    area: design.area,
                    reliability: design.reliability.value(),
                });
            }
            row
        })
        .collect();
    (rows, candidates)
}

/// A default exploration grid for an arbitrary graph, derived from its
/// fastest-possible latency and the areas of minimal vs generous
/// allocations: four latency steps (the critical path at the library's
/// fastest versions, then +50%, +100%, +200% — the long tail keeps the
/// small-area column reachable on wide graphs) crossed with four area
/// steps between "a couple of units" and "one generous unit per op
/// class pressure". Deterministic, and always feasible at its loosest
/// corner.
///
/// Returns `None` when the library has no version for one of the
/// graph's op classes (no grid can be feasible then).
#[must_use]
pub fn default_grid(dfg: &Dfg, library: &Library) -> Option<Vec<(u32, u32)>> {
    let classes: Vec<rchls_dfg::OpClass> = dfg.node_ids().map(|n| dfg.node(n).class()).collect();
    if !library.covers(classes.iter().copied()) {
        return None;
    }
    // Fastest critical path: every op on its fastest version.
    let fastest = rchls_bind::Assignment::from_fn(dfg, library, |n| {
        library
            .fastest_id(dfg.node(n).class())
            .expect("coverage checked above")
    });
    let min_latency = rchls_sched::asap(dfg, &fastest.delays(dfg, library))
        .expect("benchmark graphs are acyclic")
        .latency();
    let latencies = [
        min_latency,
        (min_latency * 3).div_ceil(2),
        min_latency * 2,
        min_latency * 3,
    ];
    // Area scale: from a few small units to a generous allocation.
    let min_area: u32 = {
        let mut seen: Vec<rchls_dfg::OpClass> = Vec::new();
        let mut total = 0;
        for &c in &classes {
            if !seen.contains(&c) {
                seen.push(c);
                let id = library.smallest_id(c).expect("coverage checked above");
                total += library.version(id).area();
            }
        }
        total.max(1)
    };
    let generous = (min_area * 2)
        .max(dfg.node_count() as u32 / 2)
        .max(min_area + 3);
    let span = generous - min_area;
    let areas = [
        min_area,
        min_area + span / 3,
        min_area + (2 * span) / 3,
        generous,
    ];
    let mut grid = Vec::new();
    for &l in &latencies {
        for &a in &areas {
            if !grid.contains(&(l, a)) {
                grid.push((l, a));
            }
        }
    }
    Some(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_core::SynthRequest;

    fn engine(jobs: usize) -> Engine {
        Engine::new(Library::table1()).with_jobs(jobs)
    }

    /// Sweeps one graph's grid with the default flow and model.
    fn sweep(engine: &Engine, dfg: Dfg, grid: &[(u32, u32)]) -> Vec<SweepRow> {
        let task = ExploreTask::new(dfg.name().to_owned(), dfg, grid.to_vec());
        let mut out = explore(
            engine,
            &[task],
            &FlowSpec::default(),
            RedundancyModel::default(),
        );
        out.sweeps.pop().expect("one task yields one sweep").rows
    }

    #[test]
    fn parallel_matches_serial_rows_exactly() {
        // (The uncached reference sweep lives in tests/determinism.rs.)
        let grid = [(5u32, 11u32), (6, 13), (7, 9), (4, 2)];
        let serial = sweep(&engine(1), rchls_workloads::diffeq(), &grid);
        for jobs in [2usize, 8] {
            let parallel = sweep(&engine(jobs), rchls_workloads::diffeq(), &grid);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn sweep_produces_row_per_grid_point() {
        let grid = [(5u32, 4u32), (6, 4), (6, 6), (3, 1)];
        let rows = sweep(&engine(1), rchls_workloads::figure4a(), &grid);
        assert_eq!(rows.len(), 4);
        // The infeasible point yields all-None and no diagnostics.
        let last = &rows[3];
        assert!(last.baseline.is_none() && last.ours.is_none() && last.combined.is_none());
        assert!(last.improvement_pct().is_none());
        assert!(last.diagnostics.is_empty());
        // Feasible points carry scrubbed per-strategy diagnostics.
        let first = &rows[0];
        assert_eq!(first.diagnostics.len(), 3);
        assert_eq!(first.diagnostics[0].strategy, "baseline");
        assert!(first
            .diagnostics
            .iter()
            .all(|d| d.diagnostics.wall_time_micros == 0));
    }

    #[test]
    fn combined_column_dominates_ours_column() {
        let grid: Vec<(u32, u32)> = (5..8).flat_map(|l| (3..7).map(move |a| (l, a))).collect();
        for row in sweep(&engine(2), rchls_workloads::figure4a(), &grid) {
            if let (Some(o), Some(c)) = (row.ours, row.combined) {
                assert!(
                    c + 1e-12 >= o,
                    "combined below ours at Ld={} Ad={}",
                    row.latency_bound,
                    row.area_bound
                );
            }
        }
    }

    #[test]
    fn improvement_percentages_match_formula() {
        let row = SweepRow {
            baseline: Some(0.48467),
            ours: Some(0.59998),
            combined: Some(0.59998),
            ..SweepRow::empty(10, 9)
        };
        // The paper's Table 2a first row reports 23.79%.
        assert!((row.improvement_pct().unwrap() - 23.79).abs() < 0.01);
        assert!((row.combined_improvement_pct().unwrap() - 23.79).abs() < 0.01);
    }

    #[test]
    fn figure8_style_curves_are_monotone_for_figure4a() {
        // A 1-D grid: inheritance along one loosening axis.
        let e = engine(2);
        let latency_curve: Vec<(u32, u32)> =
            [4u32, 5, 6, 8, 10, 12].iter().map(|&l| (l, 4)).collect();
        let area_curve: Vec<(u32, u32)> = [1u32, 2, 3, 4, 6, 8].iter().map(|&a| (6, a)).collect();
        for (axis, grid) in [("latency", latency_curve), ("area", area_curve)] {
            let rows = sweep(&e, rchls_workloads::figure4a(), &grid);
            let feasible: Vec<f64> = rows.iter().filter_map(|r| r.ours).collect();
            assert!(!feasible.is_empty(), "{axis}");
            for w in feasible.windows(2) {
                assert!(w[1] + 1e-9 >= w[0], "loosening {axis} lowered reliability");
            }
        }
    }

    #[test]
    fn averages_and_formatting() {
        let rows = sweep(&engine(1), rchls_workloads::figure4a(), &[(5, 4), (6, 5)]);
        let (b, o, c) = averages(&rows);
        assert!(b > 0.0 && o > 0.0 && c > 0.0);
        assert!(c + 1e-12 >= o);
        let table = format_table(&rows);
        assert!(table.contains("Ref[3]"));
        assert!(table.lines().count() == rows.len() + 1);
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn sweep_point_rejects_mistyped_pass_ids() {
        // A single sweep point through the shard path (the partial-grid
        // fan-out) refuses the mistyped id too.
        let task = ExploreTask::new("figure4a", rchls_workloads::figure4a(), vec![(5, 4)]);
        let _ = crate::explore_shard(
            &engine(1),
            &task,
            &FlowSpec::default().with_scheduler("densty"),
            RedundancyModel::default(),
            0,
            1,
        );
    }

    #[test]
    fn all_five_builtins_run_through_the_trait() {
        let g = rchls_workloads::figure4a();
        let lib = Library::table1();
        let bounds = Bounds::new(8, 8);
        for id in ["baseline", "ours", "combined", "pipelined", "redundancy"] {
            let strategy = flow::strategy(id).unwrap_or_else(|| panic!("{id} is registered"));
            assert_eq!(strategy.id(), id);
            let report = strategy
                .run(&SynthRequest::new(&g, &lib, bounds))
                .unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(report.design.latency <= bounds.latency, "{id}");
            assert!(report.design.area <= bounds.area, "{id}");
        }
    }

    #[test]
    fn exploration_builds_a_nonempty_frontier() {
        let tasks = vec![
            ExploreTask::new(
                "figure4a",
                rchls_workloads::figure4a(),
                vec![(5, 4), (6, 6)],
            ),
            ExploreTask::new("diffeq", rchls_workloads::diffeq(), vec![(6, 11)]),
        ];
        let out = explore(
            &engine(4),
            &tasks,
            &FlowSpec::default(),
            RedundancyModel::default(),
        );
        assert_eq!(out.sweeps.len(), 2);
        assert_eq!(out.sweeps[0].rows.len(), 2);
        assert!(!out.frontier.is_empty());
        // Frontier archives only non-dominated designs from both benchmarks.
        let benchmarks: Vec<&str> = out
            .frontier
            .points()
            .iter()
            .map(|p| p.benchmark.as_str())
            .collect();
        assert!(benchmarks.contains(&"figure4a") || benchmarks.contains(&"diffeq"));
        // Frontier strategies are registry ids; rows carry scrubbed
        // diagnostics for each feasible strategy run.
        for p in out.frontier.points() {
            assert!(TABLE2_STRATEGIES.contains(&p.strategy.as_str()));
        }
        for sweep in &out.sweeps {
            for row in &sweep.rows {
                for d in &row.diagnostics {
                    assert_eq!(d.diagnostics.wall_time_micros, 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown scheduler")]
    fn mistyped_pass_id_panics_instead_of_reading_as_infeasible() {
        let tasks = vec![ExploreTask::new(
            "figure4a",
            rchls_workloads::figure4a(),
            vec![(5, 4)],
        )];
        let _ = explore(
            &engine(1),
            &tasks,
            &FlowSpec::default().with_scheduler("densty"),
            RedundancyModel::default(),
        );
    }

    #[test]
    fn tasks_from_workload_specs_echo_the_canonical_spec() {
        let task = ExploreTask::from_spec("random:18x4", vec![(8, 8)]).unwrap();
        assert_eq!(task.workload.as_deref(), Some("random:18x4@0"));
        assert_eq!(task.dfg.node_count(), 18);
        let out = explore(
            &engine(1),
            &[task],
            &FlowSpec::default(),
            RedundancyModel::default(),
        );
        assert_eq!(out.sweeps[0].workload.as_deref(), Some("random:18x4@0"));
        // Tasks built from bare graphs carry no spec.
        let bare = ExploreTask::new("figure4a", rchls_workloads::figure4a(), vec![(5, 4)]);
        assert_eq!(bare.workload, None);
        assert!(ExploreTask::from_spec("warp:9", vec![(5, 4)]).is_err());
    }

    #[test]
    fn default_grid_requires_class_coverage() {
        // An adders-only library cannot grid a graph with multipliers.
        let lib = rchls_reslib::parse_library("library adders\nversion a1 adder 1 1 0.99\n")
            .expect("valid library text");
        assert_eq!(default_grid(&rchls_workloads::diffeq(), &lib), None);
        assert!(default_grid(&rchls_workloads::figure4a(), &lib).is_some());
    }

    #[test]
    fn default_grid_is_deterministic_and_feasible() {
        let dfg = rchls_workloads::fir16();
        let lib = Library::table1();
        let a = default_grid(&dfg, &lib).expect("table1 covers fir16");
        let b = default_grid(&dfg, &lib).expect("table1 covers fir16");
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // The loosest corner must be feasible.
        let &(l, ar) = a.last().unwrap();
        assert!(flow::strategy("ours")
            .unwrap()
            .run(&SynthRequest::new(&dfg, &lib, Bounds::new(l, ar)))
            .is_ok());
    }
}
