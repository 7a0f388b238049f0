//! Retained naive reference schedulers.
//!
//! The optimized kernels ([`crate::schedule_density_with`],
//! [`crate::schedule_force_directed_with`]) reuse scratch buffers, cache
//! the topological order, and (for the force kernel) delta-evaluate
//! candidates against a per-class distribution graph. These functions are
//! the slow, allocation-per-step formulations of the *same* algorithms —
//! full recomputation every iteration, no caching — kept as the oracle
//! the determinism suite and the CI golden tests compare against:
//! optimized and reference must produce **byte-identical schedules** on
//! every input.
//!
//! `rchls-core`'s equivalence suites also register them as test-only
//! flow passes (`density-reference`, `force-directed-reference`) so
//! whole synthesis runs are replayed through the naive kernels and
//! diffed end to end.

use crate::delays::Delays;
use crate::density::{class_density, windows};
use crate::error::ScheduleError;
use crate::force::{accumulate_class_distribution, candidate_best};
use crate::schedule::Schedule;
use rchls_dfg::{Dfg, NodeId, OpClass};

/// The naive partition-density scheduler: recomputes the topological
/// order, mobility windows, and skip-one class density from scratch for
/// every placement. Byte-identical to [`crate::schedule_density`].
///
/// # Errors
///
/// Same contract as [`crate::schedule_density`].
pub fn schedule_density_reference(
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
) -> Result<Schedule, ScheduleError> {
    let asap_s = crate::asap(dfg, delays)?;
    let alap_s = crate::alap(dfg, delays, latency)?; // also validates feasibility
    if dfg.is_empty() {
        return Ok(Schedule::new(Vec::new(), delays));
    }

    // Placement order: increasing initial mobility, then topological order
    // (node id as a deterministic stand-in — ids are assigned in
    // construction order and ties only need determinism, not optimality).
    let mut order: Vec<NodeId> = dfg.node_ids().collect();
    order.sort_by_key(|&n| (alap_s.start(n) - asap_s.start(n), n.index()));

    let mut fixed: Vec<Option<u32>> = vec![None; dfg.node_count()];
    for &victim in &order {
        let w = windows(dfg, delays, latency, &fixed)?;
        let (es, ls) = (w.es[victim.index()], w.ls[victim.index()]);
        debug_assert!(es <= ls, "window collapsed below feasibility");
        let class = dfg.node(victim).class();
        let density = class_density(dfg, delays, latency, &fixed, &w, class, Some(victim));
        let d = delays.get(victim);
        let best = (es..=ls)
            .min_by(|&a, &b| {
                let da: f64 = (a..a + d).map(|t| density[(t - 1) as usize]).sum();
                let db: f64 = (b..b + d).map(|t| density[(t - 1) as usize]).sum();
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .expect("window es..=ls is nonempty");
        fixed[victim.index()] = Some(best);
    }

    let starts: Vec<u32> = fixed
        .into_iter()
        .map(|s| s.expect("every node was placed"))
        .collect();
    let schedule = Schedule::new(starts, delays);
    schedule.validate(dfg, delays)?;
    Ok(schedule)
}

/// The naive force-directed scheduler: every iteration recomputes the
/// windows and each class's full distribution graph, and evaluates every
/// unplaced candidate afresh. Byte-identical to
/// [`crate::schedule_force_directed`].
///
/// # Errors
///
/// Same contract as [`crate::schedule_force_directed`].
pub fn schedule_force_directed_reference(
    dfg: &Dfg,
    delays: &Delays,
    latency: u32,
) -> Result<Schedule, ScheduleError> {
    let _ = crate::asap(dfg, delays)?;
    let _ = crate::alap(dfg, delays, latency)?;
    if dfg.is_empty() {
        return Ok(Schedule::new(Vec::new(), delays));
    }

    let mut fixed: Vec<Option<u32>> = vec![None; dfg.node_count()];
    let mut remaining = dfg.node_count();
    while remaining > 0 {
        let w = windows(dfg, delays, latency, &fixed)?;
        let mut best: Option<(f64, NodeId, u32)> = None;
        for class in OpClass::ALL {
            let mut density = vec![0.0f64; latency as usize];
            accumulate_class_distribution(&mut density, dfg, delays, class, &fixed, &w.es, &w.ls);
            for n in dfg.node_ids() {
                if fixed[n.index()].is_some() || dfg.node(n).class() != class {
                    continue;
                }
                let (force, s) =
                    candidate_best(delays.get(n), w.es[n.index()], w.ls[n.index()], &density);
                let better = match best {
                    None => true,
                    Some((bf, bn, _)) => {
                        force.total_cmp(&bf) == std::cmp::Ordering::Less
                            || (force.total_cmp(&bf) == std::cmp::Ordering::Equal && n < bn)
                    }
                };
                if better {
                    best = Some((force, n, s));
                }
            }
        }
        let (_, n, s) = best.expect("at least one unplaced node has a window");
        fixed[n.index()] = Some(s);
        remaining -= 1;
    }

    let starts: Vec<u32> = fixed
        .into_iter()
        .map(|s| s.expect("all nodes placed"))
        .collect();
    let schedule = Schedule::new(starts, delays);
    schedule.validate(dfg, delays)?;
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule_density, schedule_force_directed};
    use rchls_dfg::{DfgBuilder, OpKind};

    fn figure4a() -> Dfg {
        DfgBuilder::new("fig4a")
            .ops(&["A", "B", "C", "D", "E", "F"], OpKind::Add)
            .dep("A", "C")
            .dep("B", "C")
            .dep("C", "D")
            .dep("C", "E")
            .dep("D", "F")
            .dep("E", "F")
            .build()
            .unwrap()
    }

    #[test]
    fn references_match_optimized_kernels_on_figure4a() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        for latency in 4..=8 {
            assert_eq!(
                schedule_density_reference(&g, &d, latency).unwrap(),
                schedule_density(&g, &d, latency).unwrap(),
                "density at L={latency}"
            );
            assert_eq!(
                schedule_force_directed_reference(&g, &d, latency).unwrap(),
                schedule_force_directed(&g, &d, latency).unwrap(),
                "force at L={latency}"
            );
        }
    }

    #[test]
    fn references_reject_tight_deadlines_identically() {
        let g = figure4a();
        let d = Delays::uniform(&g, 1);
        assert_eq!(
            schedule_density_reference(&g, &d, 3).unwrap_err(),
            schedule_density(&g, &d, 3).unwrap_err()
        );
        assert_eq!(
            schedule_force_directed_reference(&g, &d, 2).unwrap_err(),
            schedule_force_directed(&g, &d, 2).unwrap_err()
        );
    }
}
