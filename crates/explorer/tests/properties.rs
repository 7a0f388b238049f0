//! Property-based tests for the Pareto archive and the sweep tables.
//!
//! The sweep case count is kept small: every case runs the full
//! portfolio engine (greedy + uniform starts + allocation search +
//! refinement) for three strategies over a 2×3 grid.

use proptest::prelude::*;
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_dfg::{Dfg, NodeId, OpKind};
use rchls_explorer::{explore, ExploreTask, FrontierPoint, ParetoArchive};
use rchls_reslib::Library;

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

fn points() -> impl Strategy<Value = Vec<FrontierPoint>> {
    proptest::collection::vec((1u32..20, 1u32..20, 0u32..1000, 0u32..3), 1..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(latency, area, rel_millis, strategy)| FrontierPoint {
                benchmark: "prop".to_owned(),
                strategy: ["baseline", "ours", "combined"][strategy as usize].to_owned(),
                latency_bound: latency,
                area_bound: area,
                latency,
                area,
                reliability: f64::from(rel_millis) / 1000.0,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn no_archived_point_dominates_another(ps in points()) {
        let archive: ParetoArchive = ps.into_iter().collect();
        for a in archive.points() {
            for b in archive.points() {
                prop_assert!(!a.dominates(b), "{a:?} dominates {b:?}");
            }
        }
    }

    #[test]
    fn inserting_a_dominated_point_is_a_noop(ps in points(), extra_latency in 1u32..5, extra_area in 1u32..5) {
        let mut archive: ParetoArchive = ps.clone().into_iter().collect();
        let before = archive.clone();
        // Degrade an existing input point on every objective: dominated
        // by whatever archived point covers the original (or equal to a
        // kept point's region) — never frontier-worthy.
        let mut worse = ps[0].clone();
        worse.latency += extra_latency;
        worse.area += extra_area;
        worse.reliability = (worse.reliability - 0.001).max(0.0);
        prop_assert!(!archive.insert(worse));
        prop_assert_eq!(archive.points(), before.points());
    }

    #[test]
    fn frontier_is_insertion_order_independent(ps in points(), rotate in 0usize..40, stride in 1usize..7) {
        let forward: ParetoArchive = ps.clone().into_iter().collect();
        let mut reversed_input = ps.clone();
        reversed_input.reverse();
        let reversed: ParetoArchive = reversed_input.into_iter().collect();
        prop_assert_eq!(forward.points(), reversed.points());
        // A rotated + strided shuffle (deterministic permutation).
        let n = ps.len();
        let mut permuted: Vec<FrontierPoint> = Vec::with_capacity(n);
        let stride = if stride % n == 0 { 1 } else { stride };
        let mut taken = vec![false; n];
        let mut i = rotate % n;
        for _ in 0..n {
            while taken[i] {
                i = (i + 1) % n;
            }
            taken[i] = true;
            permuted.push(ps[i].clone());
            i = (i + stride) % n;
        }
        let shuffled: ParetoArchive = permuted.into_iter().collect();
        prop_assert_eq!(forward.points(), shuffled.points());
    }

    #[test]
    fn reinserting_archived_points_changes_nothing(ps in points()) {
        let archive: ParetoArchive = ps.into_iter().collect();
        let mut again = archive.clone();
        for p in archive.points().to_vec() {
            prop_assert!(!again.insert(p));
        }
        prop_assert_eq!(archive.points(), again.points());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sweep_columns_are_monotone_under_dominance(g in small_dag()) {
        let n = g.node_count() as u32;
        let grid: Vec<(u32, u32)> = [2 * n, 3 * n]
            .iter()
            .flat_map(|&l| [6u32, 10, 14].map(move |a| (l, a)))
            .collect();
        let engine = Engine::new(Library::table1()).with_jobs(1);
        let task = ExploreTask::new("random", g, grid);
        let rows = explore(&engine, &[task], &FlowSpec::default(), RedundancyModel::default())
            .sweeps
            .remove(0)
            .rows;
        for a in &rows {
            for b in &rows {
                if a.latency_bound <= b.latency_bound && a.area_bound <= b.area_bound {
                    for (va, vb) in [(a.baseline, b.baseline), (a.ours, b.ours), (a.combined, b.combined)] {
                        if let (Some(x), Some(y)) = (va, vb) {
                            prop_assert!(y + 1e-12 >= x, "dominated cell beat its superior");
                        }
                        // Feasibility is inherited too.
                        if va.is_some() {
                            prop_assert!(vb.is_some());
                        }
                    }
                }
            }
        }
    }
}
