//! Retained naive reference binders.
//!
//! These are the pre-optimization formulations of
//! [`crate::bind_left_edge`] and [`crate::bind_coloring`] — `BTreeMap`
//! grouping, comparison sorts, per-pass clones — kept verbatim as the
//! oracle the determinism suite and the CI golden tests compare the
//! bucket-pass/preallocated kernels against: optimized and reference
//! must produce **byte-identical bindings** on every input.
//!
//! `rchls-core`'s equivalence suites also register them as test-only
//! flow passes (`left-edge-reference`, `coloring-reference`) so whole
//! synthesis runs are replayed through the naive kernels and diffed end
//! to end.

use crate::assignment::Assignment;
use crate::binding::{Binding, Instance, InstanceId};
use rchls_dfg::{Dfg, NodeId};
use rchls_reslib::{Library, VersionId};
use rchls_sched::Schedule;
use std::collections::BTreeMap;

/// The naive left-edge binder. Byte-identical to
/// [`crate::bind_left_edge`].
#[must_use]
pub fn bind_left_edge_reference(
    dfg: &Dfg,
    schedule: &Schedule,
    assignment: &Assignment,
    library: &Library,
) -> Binding {
    let delays = assignment.delays(dfg, library);
    // Group nodes by version, keeping version order deterministic.
    let mut groups: BTreeMap<VersionId, Vec<NodeId>> = BTreeMap::new();
    for n in dfg.node_ids() {
        groups.entry(assignment.version(n)).or_default().push(n);
    }
    let mut instances: Vec<Instance> = Vec::new();
    let mut owner = vec![InstanceId::new(0); dfg.node_count()];
    for (version, mut nodes) in groups {
        nodes.sort_by_key(|&n| (schedule.start(n), n.index()));
        // Instances of this version: (free_at_step, global instance index).
        let mut lanes: Vec<(u32, usize)> = Vec::new();
        for n in nodes {
            let start = schedule.start(n);
            let finish = schedule.finish(n, &delays);
            // First lane free before `start` (left-edge rule).
            match lanes.iter_mut().find(|(free, _)| *free < start) {
                Some((free, idx)) => {
                    *free = finish;
                    instances[*idx].nodes.push(n);
                    owner[n.index()] = InstanceId::new(*idx as u32);
                }
                None => {
                    let idx = instances.len();
                    instances.push(Instance {
                        version,
                        nodes: vec![n],
                    });
                    lanes.push((finish, idx));
                    owner[n.index()] = InstanceId::new(idx as u32);
                }
            }
        }
    }
    Binding::new(instances, owner)
}

/// The naive conflict-graph coloring binder. Byte-identical to
/// [`crate::bind_coloring`].
#[must_use]
pub fn bind_coloring_reference(
    dfg: &Dfg,
    schedule: &Schedule,
    assignment: &Assignment,
    library: &Library,
) -> Binding {
    let delays = assignment.delays(dfg, library);
    let mut groups: BTreeMap<VersionId, Vec<NodeId>> = BTreeMap::new();
    for n in dfg.node_ids() {
        groups.entry(assignment.version(n)).or_default().push(n);
    }
    let mut instances: Vec<Instance> = Vec::new();
    let mut owner = vec![InstanceId::new(0); dfg.node_count()];
    for (version, nodes) in groups {
        let overlap = |a: NodeId, b: NodeId| {
            schedule.start(a) <= schedule.finish(b, &delays)
                && schedule.start(b) <= schedule.finish(a, &delays)
        };
        // Degree-descending greedy coloring.
        let mut order = nodes.clone();
        order.sort_by_key(|&n| {
            let deg = nodes.iter().filter(|&&m| m != n && overlap(n, m)).count();
            (std::cmp::Reverse(deg), n.index())
        });
        // color -> (global instance index)
        let mut color_instance: Vec<usize> = Vec::new();
        let mut color_of: BTreeMap<NodeId, usize> = BTreeMap::new();
        for &n in &order {
            let mut used: Vec<bool> = vec![false; color_instance.len()];
            for (&m, &c) in &color_of {
                if overlap(n, m) {
                    used[c] = true;
                }
            }
            let color = used.iter().position(|&u| !u).unwrap_or_else(|| {
                let idx = instances.len();
                instances.push(Instance {
                    version,
                    nodes: Vec::new(),
                });
                color_instance.push(idx);
                color_instance.len() - 1
            });
            color_of.insert(n, color);
            let inst_idx = color_instance[color];
            instances[inst_idx].nodes.push(n);
            owner[n.index()] = InstanceId::new(inst_idx as u32);
        }
        // Keep instance node lists in schedule order for readability.
        for &idx in &color_instance {
            instances[idx]
                .nodes
                .sort_by_key(|&n| (schedule.start(n), n.index()));
        }
    }
    Binding::new(instances, owner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bind_coloring, bind_left_edge};
    use rchls_dfg::{DfgBuilder, OpKind};
    use rchls_sched::schedule_density;

    #[test]
    fn references_match_optimized_binders() {
        let g = DfgBuilder::new("mix")
            .ops(&["a", "b", "c", "d"], OpKind::Add)
            .ops(&["m", "n"], OpKind::Mul)
            .dep("a", "m")
            .dep("b", "m")
            .dep("c", "n")
            .dep("m", "d")
            .build()
            .unwrap();
        let lib = Library::table1();
        let assign = Assignment::uniform(&g, &lib).unwrap();
        let delays = assign.delays(&g, &lib);
        for latency in 8..=12 {
            let s = schedule_density(&g, &delays, latency).unwrap();
            assert_eq!(
                bind_left_edge_reference(&g, &s, &assign, &lib),
                bind_left_edge(&g, &s, &assign, &lib),
                "left-edge at L={latency}"
            );
            assert_eq!(
                bind_coloring_reference(&g, &s, &assign, &lib),
                bind_coloring(&g, &s, &assign, &lib),
                "coloring at L={latency}"
            );
        }
    }
}
