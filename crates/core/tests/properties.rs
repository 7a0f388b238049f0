//! Property-based tests for the synthesis engine on random DAGs.
//!
//! Case counts are kept small: every case runs the full portfolio engine
//! (greedy + uniform starts + allocation search + refinement).

use proptest::prelude::*;
use rchls_core::flow::{Baseline, Combined, Ours};
use rchls_core::{monte_carlo_reliability, Bounds, Design, SynthRequest, SynthesisError};
use rchls_dfg::{Dfg, NodeId, OpKind};
use rchls_reslib::Library;

/// `strategy`'s design at `bounds` under the default flow and model.
fn design(
    strategy: &dyn rchls_core::Strategy,
    g: &Dfg,
    lib: &Library,
    bounds: Bounds,
) -> Result<Design, SynthesisError> {
    strategy
        .run(&SynthRequest::new(g, lib, bounds))
        .map(|r| r.design)
}

fn small_dag() -> impl Strategy<Value = Dfg> {
    (3usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..n);
        let kinds = proptest::collection::vec(0u8..5, n);
        (Just(n), edges, kinds).prop_map(|(_n, edges, kinds)| {
            let mut g = Dfg::new("random");
            for (i, k) in kinds.iter().enumerate() {
                g.add_node(OpKind::ALL[*k as usize], format!("v{i}"));
            }
            for (a, b) in edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    let _ = g.add_edge(NodeId::new(lo as u32), NodeId::new(hi as u32));
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesized_designs_respect_bounds(g in small_dag(), l_extra in 0u32..6, area in 4u32..20) {
        let lib = Library::table1();
        // Latency bound relative to the graph's fastest critical path.
        let min = {
            let fast = rchls_bind::Assignment::from_fn(&g, &lib, |n| {
                lib.fastest_id(g.node(n).class()).expect("table1 covers all classes")
            });
            rchls_sched::asap(&g, &fast.delays(&g, &lib)).unwrap().latency()
        };
        let bounds = Bounds::new(min + l_extra, area);
        let result = design(&Ours, &g, &lib, bounds);
        if let Ok(d) = result {
            prop_assert!(d.latency <= bounds.latency);
            prop_assert!(d.area <= bounds.area);
            let delays = d.assignment.delays(&g, &lib);
            d.schedule.validate(&g, &delays).unwrap();
            d.binding.assert_valid(&g, &d.schedule, &delays);
            // Reported reliability matches the product model.
            let expect = d.assignment.design_reliability(&lib);
            prop_assert!((d.reliability.value() - expect.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn combined_dominates_both_strategies(g in small_dag()) {
        let lib = Library::table1();
        let bounds = Bounds::new(3 * g.node_count() as u32, 16);
        let ours = design(&Ours, &g, &lib, bounds);
        let base = design(&Baseline, &g, &lib, bounds);
        let comb = design(&Combined, &g, &lib, bounds);
        if let Ok(c) = &comb {
            prop_assert!(c.latency <= bounds.latency && c.area <= bounds.area);
            if let Ok(o) = &ours {
                prop_assert!(c.reliability.value() + 1e-12 >= o.reliability.value());
            }
            if let Ok(b) = &base {
                prop_assert!(c.reliability.value() + 1e-12 >= b.reliability.value());
            }
        } else {
            // Combined fails only when both branches fail.
            prop_assert!(ours.is_err() && base.is_err());
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic(g in small_dag(), seed in 0u64..1000) {
        let lib = Library::table1();
        let bounds = Bounds::new(3 * g.node_count() as u32, 12);
        let result = design(&Ours, &g, &lib, bounds);
        if let Ok(d) = result {
            let emp = monte_carlo_reliability(&d, &g, &lib, 20_000, seed);
            prop_assert!(
                (emp - d.reliability.value()).abs() < 0.02,
                "empirical {} vs analytic {}", emp, d.reliability.value()
            );
        }
    }
}
