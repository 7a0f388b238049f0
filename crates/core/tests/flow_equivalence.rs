//! Golden equivalence: every built-in strategy and pass combination must
//! produce **byte-identical** designs through the session front door
//! (`Engine::synth_point`, cached) and through the uncached primitive
//! (`Strategy::run` over a `SynthRequest`), pinned on the deterministic
//! sweep fixtures. Each test runs every flow through **one shared**
//! engine, so the comparison also proves that cache keys keep flows,
//! strategies and intervals apart. (Test names stay stable across API
//! changes so results can be tracked over time; in them, a strategy's
//! "legacy entry point" is its uncached `Strategy::run`.)
//!
//! The naive `*-reference` passes the kernel goldens compare against are
//! test code: [`support::register_reference_passes`] registers them
//! through the public registry API.

mod support;

use rchls_core::flow::Pipelined;
use rchls_core::{
    flow, Bounds, Design, Engine, FlowSpec, RedundancyModel, Strategy, SynthReport, SynthRequest,
};
use rchls_dfg::{Dfg, DfgBuilder, OpKind};
use rchls_reslib::Library;

/// The deterministic sweep fixtures: per benchmark, the bound pairs the
/// explorer determinism suite pins (trimmed to keep debug runtime sane).
fn fixtures() -> Vec<(Dfg, Vec<Bounds>)> {
    vec![
        (
            rchls_workloads::figure4a(),
            vec![Bounds::new(5, 4), Bounds::new(6, 6), Bounds::new(8, 8)],
        ),
        (
            rchls_workloads::diffeq(),
            vec![Bounds::new(5, 11), Bounds::new(7, 9)],
        ),
    ]
}

/// Byte-identical comparison through the serde rendering (catches any
/// field drift `PartialEq` might coalesce).
fn bytes(design: &Design) -> String {
    serde_json::to_string(design).expect("designs serialize")
}

/// Design plus wall-time-scrubbed diagnostics, rendered for comparison.
fn report_bytes(r: &SynthReport) -> String {
    serde_json::to_string(&SynthReport {
        design: r.design.clone(),
        diagnostics: r.diagnostics.scrubbed(),
    })
    .expect("reports serialize")
}

fn run_trait(
    strategy: &dyn Strategy,
    dfg: &Dfg,
    lib: &Library,
    bounds: Bounds,
    flow: &FlowSpec,
) -> Option<Design> {
    strategy
        .run(&SynthRequest::new(dfg, lib, bounds).with_flow(flow.clone()))
        .ok()
        .map(|r| r.design)
}

/// `strategy` at one point through `engine`'s session caches.
fn run_engine(
    engine: &Engine,
    strategy: &dyn Strategy,
    dfg: &Dfg,
    bounds: Bounds,
    flow: &FlowSpec,
) -> Option<SynthReport> {
    engine.synth_point(
        dfg,
        None,
        bounds,
        flow,
        RedundancyModel::default(),
        strategy,
    )
}

/// Every scheduler × binder × victim × refine combination of the
/// built-in (optimized) passes.
fn all_combos() -> Vec<FlowSpec> {
    let mut combos = Vec::new();
    for scheduler in ["density", "force-directed"] {
        for binder in ["left-edge", "coloring"] {
            for victim in ["max-delay", "min-reliability-loss"] {
                for refine in ["greedy", "off"] {
                    combos.push(
                        FlowSpec::default()
                            .with_scheduler(scheduler)
                            .with_binder(binder)
                            .with_victim(victim)
                            .with_refine(refine),
                    );
                }
            }
        }
    }
    combos
}

#[test]
fn ours_matches_synthesizer_for_every_pass_combination() {
    let lib = Library::table1();
    let engine = Engine::new(lib.clone());
    let ours = flow::strategy("ours").unwrap();
    let combos = all_combos();
    assert_eq!(combos.len(), 16);
    for (dfg, points) in fixtures() {
        for spec in &combos {
            for &bounds in &points {
                let cached = run_engine(&engine, &*ours, &dfg, bounds, spec);
                let uncached = run_trait(&*ours, &dfg, &lib, bounds, spec);
                assert_eq!(
                    cached.as_ref().map(|r| bytes(&r.design)),
                    uncached.as_ref().map(bytes),
                    "{} {spec:?} at {bounds}",
                    dfg.name()
                );
            }
        }
    }
    // Every (graph, flow, bound) triple was its own cache point.
    let points: usize = fixtures().iter().map(|(_, p)| p.len()).sum();
    assert_eq!(engine.memoized_points(), points * combos.len());
}

#[test]
fn baseline_and_combined_match_their_legacy_entry_points() {
    let lib = Library::table1();
    let engine = Engine::new(lib.clone());
    let combos = all_combos();
    for id in ["baseline", "combined"] {
        let strategy = flow::strategy(id).unwrap();
        for (dfg, points) in fixtures() {
            for spec in &combos {
                for &bounds in &points {
                    let cached = run_engine(&engine, &*strategy, &dfg, bounds, spec);
                    let uncached = run_trait(&*strategy, &dfg, &lib, bounds, spec);
                    assert_eq!(
                        cached.as_ref().map(|r| bytes(&r.design)),
                        uncached.as_ref().map(bytes),
                        "{id} {} {spec:?} at {bounds}",
                        dfg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn pipelined_matches_its_legacy_entry_point() {
    let lib = Library::table1();
    let engine = Engine::new(lib.clone());
    let combos = all_combos();
    for (dfg, points) in fixtures() {
        for spec in &combos {
            for &bounds in &points {
                for ii in [2u32, bounds.latency] {
                    let strategy = Pipelined::with_ii(ii);
                    let cached = run_engine(&engine, &strategy, &dfg, bounds, spec);
                    let uncached = run_trait(&strategy, &dfg, &lib, bounds, spec);
                    assert_eq!(
                        cached.as_ref().map(|r| bytes(&r.design)),
                        uncached.as_ref().map(bytes),
                        "pipelined II={ii} {} {spec:?} at {bounds}",
                        dfg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn redundancy_is_deterministic_and_dominates_baseline() {
    // `redundancy` has no pre-refactor entry point; its golden contract
    // is determinism (two runs, byte-identical designs) plus dominance
    // over the baseline whose design space it contains.
    let lib = Library::table1();
    let spec = FlowSpec::default();
    let redundancy = flow::strategy("redundancy").unwrap();
    let baseline = flow::strategy("baseline").unwrap();
    for (dfg, points) in fixtures() {
        for &bounds in &points {
            let a = run_trait(&*redundancy, &dfg, &lib, bounds, &spec);
            let b = run_trait(&*redundancy, &dfg, &lib, bounds, &spec);
            assert_eq!(a.as_ref().map(bytes), b.as_ref().map(bytes));
            if let (Some(red), Some(base)) = (&a, &run_trait(&*baseline, &dfg, &lib, bounds, &spec))
            {
                assert!(
                    red.reliability.value() + 1e-12 >= base.reliability.value(),
                    "redundancy below baseline at {bounds} on {}",
                    dfg.name()
                );
            }
        }
    }
}

/// The tentpole golden: for **all 16 pass combinations** and both the
/// `ours` and `baseline` strategies, swapping the optimized scheduler
/// and binder for their retained naive references
/// (`density-reference`, `left-edge-reference`, ...) produces
/// byte-identical `SynthReport`s (designs and scrubbed diagnostics) —
/// the delta-cost kernels change nothing but wall time. A three-add
/// chain joins the fixtures as the smallest input.
#[test]
fn optimized_and_reference_kernels_agree_across_all_combos_and_strategies() {
    support::register_reference_passes();
    let lib = Library::table1();
    let chain3 = DfgBuilder::new("chain3")
        .ops(&["a", "b", "c"], OpKind::Add)
        .dep("a", "b")
        .dep("b", "c")
        .build()
        .expect("a valid chain");
    let mut inputs = fixtures();
    inputs.push((chain3, vec![Bounds::new(8, 8)]));
    for (dfg, points) in inputs {
        for optimized in all_combos() {
            let reference = optimized
                .clone()
                .with_scheduler(format!("{}-reference", optimized.scheduler))
                .with_binder(format!("{}-reference", optimized.binder));
            for strategy_id in ["ours", "baseline"] {
                let strategy = flow::strategy(strategy_id).unwrap();
                for &bounds in &points {
                    let run = |flow: &FlowSpec| {
                        strategy
                            .run(&SynthRequest::new(&dfg, &lib, bounds).with_flow(flow.clone()))
                            .ok()
                    };
                    assert_eq!(
                        run(&optimized).as_ref().map(report_bytes),
                        run(&reference).as_ref().map(report_bytes),
                        "{} {strategy_id} {optimized:?} at {bounds}",
                        dfg.name()
                    );
                }
            }
        }
    }
}

/// The refine-kernel golden: for every scheduler/binder/victim
/// combination and the three refining strategies, swapping the
/// delta-evaluated `greedy` pass for its retained full-recompute
/// `greedy-reference` produces byte-identical `SynthReport`s (designs
/// and scrubbed diagnostics). The fast side runs on one shared `Engine`
/// (its scratch pool and starts cache span every combo, so pools intern
/// and replay across flows) while the reference side recomputes
/// everything fresh through `Strategy::run` — proving the O(1) latency
/// test, the area lower-bound screen, the cached reliability product,
/// and the interned start pools change nothing but wall time. Figure
/// 4(a) also runs at (6, 4) and (20, 10), a tight-area and a loose
/// corner.
#[test]
fn greedy_and_greedy_reference_agree_across_combos_and_strategies() {
    support::register_reference_passes();
    let lib = Library::table1();
    let engine = Engine::new(lib.clone());
    let mut inputs = fixtures();
    inputs[0].1.extend([Bounds::new(6, 4), Bounds::new(20, 10)]);
    for (dfg, points) in inputs {
        for fast_flow in all_combos()
            .into_iter()
            .filter(|flow| flow.refine == "greedy")
        {
            let reference_flow = fast_flow.clone().with_refine("greedy-reference");
            for strategy_id in ["ours", "baseline", "combined"] {
                let strategy = flow::strategy(strategy_id).unwrap();
                for &bounds in &points {
                    let fast = run_engine(&engine, &*strategy, &dfg, bounds, &fast_flow);
                    let slow = strategy
                        .run(
                            &SynthRequest::new(&dfg, &lib, bounds)
                                .with_flow(reference_flow.clone()),
                        )
                        .ok();
                    assert_eq!(
                        fast.as_ref().map(report_bytes),
                        slow.as_ref().map(report_bytes),
                        "{} {strategy_id} {fast_flow:?} at {bounds}",
                        dfg.name()
                    );
                }
            }
        }
    }
    assert!(
        engine.starts_pools() > 0,
        "the fast side interned start pools"
    );
}

/// The allocation search's floor only drops designs that could never win
/// the portfolio, so the reference pass seeded (`greedy-reference`) and
/// unseeded (`greedy-reference-unseeded`) picks byte-identical `ours` and
/// `combined` designs with the same `alloc_cap_hit`, on the pinned random
/// corpus and on a graph whose allocation search hits the cap at its
/// default bounds. (The optimized `greedy` pass has the same check as a
/// unit test in `flow/refine.rs`.)
#[test]
fn seeded_reference_portfolio_picks_the_unseeded_design() {
    support::register_reference_passes();
    let lib = Library::table1();
    let mut cases: Vec<(String, Bounds)> = Vec::new();
    for (shape, bounds) in [
        ("8x3", Bounds::new(8, 8)),
        ("32x6", Bounds::new(10, 6)),
        ("64x8", Bounds::new(14, 24)),
    ] {
        for seed in 0..3u64 {
            cases.push((format!("random:{shape}@{seed}"), bounds));
        }
    }
    // `rchls synth`'s default bounds for this graph (the loosest corner
    // of its default exploration grid).
    cases.push(("random:128x16@0".to_owned(), Bounds::new(48, 64)));

    for (spec, bounds) in &cases {
        let dfg = rchls_workloads::load_workload(spec)
            .expect("pinned spec")
            .dfg;
        for strategy_id in ["ours", "combined"] {
            let strategy = flow::strategy(strategy_id).unwrap();
            let run = |refine: &str| {
                strategy
                    .run(
                        &SynthRequest::new(&dfg, &lib, *bounds)
                            .with_flow(FlowSpec::default().with_refine(refine)),
                    )
                    .map(|r| (bytes(&r.design), r.diagnostics.alloc_cap_hit))
                    .map_err(|e| e.to_string())
            };
            assert_eq!(
                run("greedy-reference"),
                run("greedy-reference-unseeded"),
                "{strategy_id} on {spec} at {bounds}"
            );
        }
    }
}
