//! Allocation-first design-space search.
//!
//! The Figure-6 greedy descends from the most-reliable assignment and can
//! get stuck when the only feasible designs mix versions in ways no
//! single-group move reaches (the paper's own Figure-7(b) FIR design —
//! two ripple-carry adders, two carry-save multipliers and one Brent-Kung
//! adder — is exactly such a point). This module searches from the other
//! end: it considers *allocations* (multisets of unit versions whose total
//! area fits the bound), schedules the graph against each with a
//! version-aware list scheduler, and keeps the most reliable feasible
//! design.
//!
//! The candidate set is fixed: the first `MAX_ALLOCATIONS` count rows in
//! lexicographic order (a search whose area bound admits more reports
//! [`Diagnostics::alloc_cap_hit`]). Only a sliver of that set can beat
//! the refine portfolio's floor, so the search never materializes it. It
//! walks partial count rows best-first by a reliability upper bound, and
//! it stops a list schedule as soon as the allocation can no longer win.
//! [`best_allocation_design_diag`] explains why the result is still
//! exactly the one a full scan of the set would pick.

use crate::bounds::Bounds;
use crate::flow::Diagnostics;
use rchls_bind::{Assignment, Binding, Instance, InstanceId};
use rchls_dfg::{Dfg, NodeId, OpClass};
use rchls_relmath::serial_reliability;
use rchls_reslib::{Library, VersionId};
use rchls_sched::Schedule;
use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

/// The candidate set's size: the first this-many count rows in
/// lexicographic order, covering every class or not.
const MAX_ALLOCATIONS: usize = 200_000;

/// Class slots, indexed like [`OpClass::ALL`].
const SLOTS: usize = OpClass::ALL.len();

type Design = (Assignment, Schedule, Binding);

fn class_slot(c: OpClass) -> usize {
    OpClass::ALL
        .iter()
        .position(|&x| x == c)
        .expect("every class is listed in OpClass::ALL")
}

/// Worst-case relative rounding slack between two floating-point
/// evaluations of a reliability product over `nodes` factors (the
/// serial fold, `powi` runs, incremental updates). A bound `b` proves a
/// product is below `t` only when `b < t × margin`.
fn rounding_margin(nodes: usize) -> f64 {
    1.0 - (nodes as f64 + 8.0) * 4.0 * f64::EPSILON
}

/// Records the `phase.alloc_micros` histogram when the search returns,
/// covering every exit path (including the early cyclic-graph decline).
struct AllocPhaseTimer<'a>(&'a rchls_telemetry::SpanGuard);

impl Drop for AllocPhaseTimer<'_> {
    fn drop(&mut self) {
        crate::obs::alloc_phase_micros().record(self.0.elapsed_micros());
    }
}

/// One unit of an allocation, as the list scheduler sees it.
#[derive(Debug)]
struct Unit {
    version: VersionId,
    slot: usize,
    delay: u32,
    reliability: f64,
    /// `reliability` over the allocation's most reliable unit of the
    /// class: the factor placing a node here costs the reachable product.
    ratio: f64,
    free_at: u32, // first step this unit can start a new op
    nodes: Vec<NodeId>,
}

/// The list scheduler's graph facts, computed once per search, and its
/// reusable per-allocation buffers.
#[derive(Debug)]
struct AllocScratch {
    topo: Vec<NodeId>,
    /// Per node: its class slot.
    slot: Vec<usize>,
    /// Per node: the longest remaining path under the library's
    /// per-class minimum delays (the ready-list priority).
    remaining_path: Vec<u32>,
    /// Per node: `remaining_path` without the node's own delay.
    downstream: Vec<u32>,
    /// Per node: its predecessor count.
    preds: Vec<u32>,
    sources: Vec<NodeId>,
    /// Per class slot: the graph's operation count.
    class_nodes: [u32; SLOTS],
    margin: f64,
    /// List schedules cut short so far.
    aborted: u64,
    units: Vec<Unit>,
    /// Per class slot: the allocation's unit indices, ascending.
    class_units: [Vec<usize>; SLOTS],
    start: Vec<Option<u32>>,
    finish: Vec<u32>,
    owner: Vec<usize>,
    ready: Vec<NodeId>,
    // Event-driven readiness state: unscheduled-predecessor counts, the
    // latest predecessor finish seen so far, and per-step buckets of
    // nodes that become ready at that step.
    pending_preds: Vec<u32>,
    max_pred_finish: Vec<u32>,
    events: Vec<Vec<NodeId>>,
}

impl AllocScratch {
    /// The scheduler state for `dfg` in topological order `topo`, or
    /// `None` when `library` has no version of a class the graph uses.
    fn new(dfg: &Dfg, library: &Library, topo: Vec<NodeId>) -> Option<AllocScratch> {
        let n = dfg.node_count();
        let mut min_delay = [0u32; SLOTS];
        let mut class_nodes = [0u32; SLOTS];
        for (s, &class) in OpClass::ALL.iter().enumerate() {
            class_nodes[s] = u32::try_from(dfg.count_class(class)).unwrap_or(u32::MAX);
            if class_nodes[s] > 0 {
                min_delay[s] = library.min_delay(class)?;
            }
        }
        let slot: Vec<usize> = dfg
            .node_ids()
            .map(|v| class_slot(dfg.node(v).class()))
            .collect();
        let mut remaining_path = vec![0u32; n];
        let mut downstream = vec![0u32; n];
        for &v in topo.iter().rev() {
            let down = dfg
                .succs(v)
                .iter()
                .map(|&s| remaining_path[s.index()])
                .max()
                .unwrap_or(0);
            downstream[v.index()] = down;
            remaining_path[v.index()] = down + min_delay[slot[v.index()]];
        }
        Some(AllocScratch {
            preds: dfg.node_ids().map(|v| dfg.preds(v).len() as u32).collect(),
            sources: dfg
                .node_ids()
                .filter(|&v| dfg.preds(v).is_empty())
                .collect(),
            topo,
            slot,
            remaining_path,
            downstream,
            class_nodes,
            margin: rounding_margin(n),
            aborted: 0,
            units: Vec::new(),
            class_units: Default::default(),
            start: Vec::new(),
            finish: Vec::new(),
            owner: Vec::new(),
            ready: Vec::new(),
            pending_preds: Vec::new(),
            max_pred_finish: Vec::new(),
            events: Vec::new(),
        })
    }
}

/// Version-aware list scheduling against a fixed allocation, bounded
/// below by `threshold`.
///
/// Ready operations are started in priority order (longest remaining path
/// under optimistic per-class minimum delays, then node index). Each op
/// picks, among the free units of its class, the most reliable one that
/// still lets its downstream chain finish within the bound; if none looks
/// safe, it waits for one while starting on the allocation's fastest unit
/// of the class could still meet the bound.
///
/// Returns the design and its reliability, or `None` when the allocation
/// cannot complete the graph within `latency_bound` under this heuristic
/// *or* the design's reliability is below `threshold`. So at threshold 0
/// it is the plain scheduler, and at any threshold it is the plain
/// scheduler's result filtered by `reliability >= threshold`. Two early
/// exits (counted in `scratch.aborted`) make the filter cheap:
///
/// * *Reachable product.* Placed nodes contribute their unit's
///   reliability and unplaced nodes their class's most reliable unit in
///   the allocation; the product only falls as nodes are placed, and
///   once it is below `threshold × margin` the design's rounded
///   reliability is provably below `threshold`.
/// * *Doomed either way.* When no free unit is deadline-safe and even
///   the allocation's fastest unit of the class, started now, would end
///   the downstream chain past the bound, the bound is missed whatever
///   the scheduler does next.
///
/// Readiness is event-driven: each node tracks its count of unscheduled
/// predecessors and the latest predecessor finish; when the count hits
/// zero the node is bucketed at step `max_pred_finish + 1`. The ready
/// list carries deferred nodes forward and is re-sorted by the same key
/// every step.
fn schedule_on_allocation_in(
    dfg: &Dfg,
    library: &Library,
    allocation: &[(VersionId, u32)],
    latency_bound: u32,
    threshold: f64,
    scratch: &mut AllocScratch,
) -> Option<(f64, Design)> {
    let AllocScratch {
        slot,
        remaining_path,
        downstream,
        preds,
        sources,
        class_nodes,
        margin,
        aborted,
        units,
        class_units,
        start,
        finish,
        owner,
        ready,
        pending_preds,
        max_pred_finish,
        events,
        ..
    } = scratch;
    let node_count = dfg.node_count();

    // The units, plus per class the allocation's most reliable unit and
    // its fastest delay (the deferral horizon: as long as starting *now*
    // on such a unit would still meet the deadline, waiting for a safe
    // unit to free up is viable).
    let mut best_rel = [0.0f64; SLOTS];
    let mut horizon = [u32::MAX; SLOTS];
    for list in class_units.iter_mut() {
        list.clear();
    }
    let mut total = 0;
    for &(version, count) in allocation {
        let ver = library.version(version);
        let s = class_slot(ver.class());
        for _ in 0..count {
            let mut nodes = units
                .get_mut(total)
                .map(|u| std::mem::take(&mut u.nodes))
                .unwrap_or_default();
            nodes.clear();
            let unit = Unit {
                version,
                slot: s,
                delay: ver.delay(),
                reliability: ver.reliability().value(),
                ratio: 1.0,
                free_at: 1,
                nodes,
            };
            match units.get_mut(total) {
                Some(reused) => *reused = unit,
                None => units.push(unit),
            }
            class_units[s].push(total);
            total += 1;
        }
        if count > 0 {
            best_rel[s] = best_rel[s].max(ver.reliability().value());
            horizon[s] = horizon[s].min(ver.delay());
        }
    }
    let units = &mut units[..total];
    if units.is_empty() && node_count > 0 {
        return None;
    }
    let mut reachable = 1.0f64;
    for (s, &nodes) in class_nodes.iter().enumerate() {
        if nodes > 0 {
            reachable *= best_rel[s].powi(i32::try_from(nodes).unwrap_or(i32::MAX));
        }
    }
    for unit in units.iter_mut() {
        unit.ratio = unit.reliability / best_rel[unit.slot];
    }
    let abort_below = threshold * *margin;
    if reachable < abort_below {
        *aborted += 1;
        return None;
    }

    start.clear();
    start.resize(node_count, None);
    finish.clear();
    finish.resize(node_count, 0);
    owner.clear();
    owner.resize(node_count, 0);
    pending_preds.clear();
    pending_preds.extend_from_slice(preds);
    max_pred_finish.clear();
    max_pred_finish.resize(node_count, 0);
    let buckets = latency_bound as usize + 2;
    if events.len() < buckets {
        events.resize_with(buckets, Vec::new);
    }
    for bucket in &mut events[..buckets] {
        bucket.clear();
    }
    events[1].extend_from_slice(sources);
    ready.clear();
    let mut remaining = node_count;
    for step in 1..=latency_bound {
        if remaining == 0 {
            break;
        }
        ready.append(&mut events[step as usize]);
        ready.sort_by_key(|&n| (Reverse(remaining_path[n.index()]), n.index()));
        let mut scheduled_any = false;
        for &n in ready.iter() {
            let s = slot[n.index()];
            let down = downstream[n.index()];
            // Units are visited in ascending index order and every
            // comparator ends on the index, so a strict `is-better` scan
            // keeps the first of equals.
            let mut best_safe: Option<usize> = None; // most reliable deadline-safe free unit
            let mut any_free = false;
            for &i in &class_units[s] {
                let u = &units[i];
                if u.free_at > step {
                    continue;
                }
                any_free = true;
                if step - 1 + u.delay + down <= latency_bound {
                    let safe_better = best_safe.is_none_or(|b| {
                        let ub = &units[b];
                        ub.reliability
                            .total_cmp(&u.reliability)
                            .then(u.delay.cmp(&ub.delay))
                            == Ordering::Less
                    });
                    if safe_better {
                        best_safe = Some(i);
                    }
                }
            }
            if !any_free {
                continue;
            }
            let Some(idx) = best_safe else {
                // No safe unit is free. If a fast-enough unit exists in
                // the allocation and starting now on it would still meet
                // the deadline, defer the op: forcing it onto a slow unit
                // now would wreck a downstream chain a wait saves.
                if step - 1 + horizon[s] + down <= latency_bound {
                    continue;
                }
                // Doomed either way: every unit of the class ends the
                // downstream chain past the bound, now or later.
                *aborted += 1;
                return None;
            };
            let unit = &mut units[idx];
            let fin = step + unit.delay - 1;
            start[n.index()] = Some(step);
            finish[n.index()] = fin;
            unit.free_at = step + unit.delay;
            unit.nodes.push(n);
            owner[n.index()] = idx;
            remaining -= 1;
            scheduled_any = true;
            reachable *= unit.ratio;
            if reachable < abort_below {
                *aborted += 1;
                return None;
            }
            for &succ in dfg.succs(n) {
                let i = succ.index();
                pending_preds[i] -= 1;
                max_pred_finish[i] = max_pred_finish[i].max(fin);
                if pending_preds[i] == 0 {
                    // First admissible step: strictly after the latest
                    // predecessor finish (fin >= step, so this bucket is
                    // always in the future — never mutated mid-visit).
                    let at = max_pred_finish[i] + 1;
                    if at <= latency_bound {
                        events[at as usize].push(succ);
                    }
                }
            }
        }
        if scheduled_any {
            ready.retain(|&n| start[n.index()].is_none());
        }
    }
    if remaining > 0 || finish.iter().copied().max().unwrap_or(0) > latency_bound {
        return None;
    }
    // The same serial fold `Assignment::design_reliability` performs.
    let rel = serial_reliability(
        owner
            .iter()
            .map(|&u| library.version(units[u].version).reliability()),
    )
    .value();
    if rel < threshold {
        return None;
    }

    let assignment = Assignment::from_fn(dfg, library, |n| units[owner[n.index()]].version);
    let delays = assignment.delays(dfg, library);
    let starts: Vec<u32> = start.iter().map(|s| s.unwrap_or(1)).collect();
    let schedule = Schedule::new(starts, &delays);
    schedule.validate(dfg, &delays).ok()?;
    // Compact: drop unused units and renumber owners.
    let mut instances: Vec<Instance> = Vec::new();
    let mut owner_map = vec![InstanceId::new(0); node_count];
    for unit in units.iter_mut().filter(|u| !u.nodes.is_empty()) {
        let id = InstanceId::new(instances.len() as u32);
        for &n in &unit.nodes {
            owner_map[n.index()] = id;
        }
        instances.push(Instance {
            version: unit.version,
            nodes: std::mem::take(&mut unit.nodes),
        });
    }
    let binding = Binding::new(instances, owner_map);
    Some((rel, (assignment, schedule, binding)))
}

/// The versions an allocation may draw on: every library version of
/// every class `dfg` uses, grouped by class in [`OpClass::ALL`] order.
/// Allocation count rows are indexed like this list.
fn allocation_versions(dfg: &Dfg, library: &Library) -> Vec<VersionId> {
    OpClass::ALL
        .into_iter()
        .filter(|&c| dfg.count_class(c) > 0)
        .flat_map(|c| library.versions_of(c).map(|(id, _)| id))
        .collect()
}

/// The `(version, count)` pairs of a count row, zero counts dropped.
fn allocation_pairs<'a>(
    versions: &'a [VersionId],
    counts: &'a [u32],
) -> impl Iterator<Item = (VersionId, u32)> + 'a {
    versions
        .iter()
        .zip(counts)
        .filter(|(_, &c)| c > 0)
        .map(|(&v, &c)| (v, c))
}

/// The tree of allocation count rows under an area bound.
///
/// A node at depth `idx` fixes the counts of versions `..idx` and has
/// some area left; its children choose `0..=max_count(idx, area)` units
/// of version `idx`, ascending, so the leaves in depth-first order are
/// the count rows in lexicographic order. Every leaf is a full row,
/// whether or not it covers every class.
struct CountTree {
    versions: Vec<VersionId>,
    /// Per version: unit area.
    area: Vec<u32>,
    /// Per version: the graph's operation count of its class — more
    /// units than that can never all be busy.
    unit_cap: Vec<u32>,
    /// Per version: its class slot.
    slot: Vec<usize>,
    /// Per version: the position of its class's first version.
    class_start: Vec<usize>,
    delay: Vec<u32>,
    reliability: Vec<f64>,
    /// Per version: how many nodes one unit can run within the latency
    /// budget.
    unit_capacity: Vec<u64>,
    /// Per class slot: its version positions, most reliable first (a
    /// stable sort, so library order breaks reliability ties).
    by_reliability: [Vec<usize>; SLOTS],
    class_nodes: [u64; SLOTS],
    /// Per depth: the area every version from there on occupies at its
    /// unit cap. More area left never binds, so a node's area is clamped
    /// to it.
    full: Vec<u32>,
    /// The root's area, clamped like any node's.
    root_area: u32,
    /// [`CountTree::leaves_below`] of the `(depth, area left)` states
    /// asked about: a count, and whether it is exact rather than a
    /// lower bound the asker's need stopped at.
    leaves: RefCell<HashMap<(usize, u32), (u64, bool)>>,
}

impl CountTree {
    fn new(dfg: &Dfg, library: &Library, bounds: Bounds) -> CountTree {
        let versions = allocation_versions(dfg, library);
        let ver = |i: usize| library.version(versions[i]);
        let count = versions.len();
        let area: Vec<u32> = (0..count).map(|i| ver(i).area()).collect();
        let unit_cap: Vec<u32> = (0..count)
            .map(|i| u32::try_from(dfg.count_class(ver(i).class())).unwrap_or(u32::MAX))
            .collect();
        let slot: Vec<usize> = (0..count).map(|i| class_slot(ver(i).class())).collect();
        let class_start: Vec<usize> = (0..count)
            .map(|i| slot.iter().position(|&s| s == slot[i]).unwrap_or(i))
            .collect();
        let delay: Vec<u32> = (0..count).map(|i| ver(i).delay()).collect();
        let reliability: Vec<f64> = (0..count).map(|i| ver(i).reliability().value()).collect();
        let unit_capacity: Vec<u64> = delay
            .iter()
            .map(|&d| u64::from(bounds.latency / d.max(1)))
            .collect();
        let mut by_reliability: [Vec<usize>; SLOTS] = Default::default();
        for (i, &s) in slot.iter().enumerate() {
            by_reliability[s].push(i);
        }
        for order in &mut by_reliability {
            order.sort_by(|&a, &b| reliability[b].total_cmp(&reliability[a]));
        }
        let mut class_nodes = [0u64; SLOTS];
        for (s, &class) in OpClass::ALL.iter().enumerate() {
            class_nodes[s] = dfg.count_class(class) as u64;
        }
        let mut full = vec![0u32; count + 1];
        for idx in (0..count).rev() {
            let own = u64::from(area[idx]) * u64::from(unit_cap[idx]);
            full[idx] = u32::try_from(own + u64::from(full[idx + 1])).unwrap_or(u32::MAX);
        }
        let root_area = bounds.area.min(full[0]);
        CountTree {
            versions,
            area,
            unit_cap,
            slot,
            class_start,
            delay,
            reliability,
            unit_capacity,
            by_reliability,
            class_nodes,
            full,
            root_area,
            leaves: RefCell::default(),
        }
    }

    fn len(&self) -> usize {
        self.versions.len()
    }

    /// The leaves below a node at depth `idx` with `area` left, or
    /// `need` when there are at least that many (`need >= 1`).
    ///
    /// The counts are memoized on the states asked about, and a count
    /// stops at its need, so the work is bounded by the leaves the asker
    /// cares about whatever the unit areas' scale: the walk asks for a
    /// node's leaves only as far as the candidate set reaches, and a
    /// state first met at a smaller position needs the most.
    fn leaves_below(&self, idx: usize, area: u32, need: u64) -> u64 {
        if idx == self.len() {
            return 1;
        }
        let key = (idx, area.min(self.full[idx]));
        if let Some(&(n, exact)) = self.leaves.borrow().get(&key) {
            if exact || n >= need {
                return n.min(need);
            }
        }
        let mut n = 0u64;
        for c in 0..=self.max_count(idx, key.1) {
            n += self.leaves_below(idx + 1, key.1 - c * self.area[idx], need - n);
            if n == need {
                break;
            }
        }
        self.leaves.borrow_mut().insert(key, (n, n < need));
        n
    }

    /// The most units of version `idx` a node with `area` left can take.
    fn max_count(&self, idx: usize, area: u32) -> u32 {
        (area / self.area[idx]).min(self.unit_cap[idx])
    }

    /// Whether taking no unit of version `idx` after `prefix` leaves its
    /// class uncovered: it is the class's last version and the class has
    /// no unit so far.
    fn uncovered(&self, prefix: &[u32], idx: usize) -> bool {
        prefix[self.class_start[idx]..idx].iter().all(|&c| c == 0)
            && (idx + 1 == self.len() || self.slot[idx + 1] != self.slot[idx])
    }

    /// The capacity-aware reliability upper bound of a count row: every
    /// node gets the most reliable version unit capacity admits (0 when
    /// capacity cannot run every node in time).
    fn leaf_bound(&self, counts: &[u32]) -> f64 {
        let mut ub = 1.0f64;
        for (slot, &nodes) in self.class_nodes.iter().enumerate() {
            let mut left = nodes;
            if left == 0 {
                continue;
            }
            for &i in &self.by_reliability[slot] {
                if counts[i] == 0 {
                    continue;
                }
                let here = left.min(u64::from(counts[i]) * self.unit_capacity[i]);
                ub *= self.reliability[i].powi(i32::try_from(here).unwrap_or(i32::MAX));
                left -= here;
                if left == 0 {
                    break;
                }
            }
            if left > 0 {
                // Not enough unit capacity to run every node: the list
                // scheduler cannot finish in time, so the allocation is
                // infeasible outright.
                return 0.0;
            }
        }
        ub
    }

    /// Whether every two versions of a class differ in reliability by
    /// more than a factor `margin⁻²`. Then a row's bound (as computed)
    /// never exceeds that of a row dominating it: either both give every
    /// version the same number of nodes, and the computation is the
    /// same, or the dominating row moves nodes to a version more reliable
    /// by that factor, which outweighs the rounding of both.
    fn separated(&self, margin: f64) -> bool {
        self.by_reliability.iter().all(|order| {
            order
                .windows(2)
                .all(|w| self.reliability[w[1]] < self.reliability[w[0]] * margin * margin)
        })
    }

    /// [`CountTree::leaf_bound`] of the most generous row below a node
    /// at depth `idx` (whose counts are `row[..idx]`) with `area` left:
    /// every later version at its maximum, written into `row[idx..]`.
    /// The bound only grows with any count, so this dominates every
    /// leaf below (in exact arithmetic).
    fn node_bound(&self, row: &mut [u32], idx: usize, area: u32) -> f64 {
        for (j, count) in row.iter_mut().enumerate().skip(idx) {
            *count = self.max_count(j, area);
        }
        self.leaf_bound(row)
    }
}

/// An entry of the best-first walk: a node of the count tree. For a
/// leaf (`idx == tree.len()`) the key is its exact bound; for an inner
/// node it dominates every leaf below. Entries order by key, then by
/// position reversed, so the heap pops the scan order: the highest key
/// first, then the lowest position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    /// The key's bits: keys are never negative, and the bits of
    /// nonnegative floats order like their values.
    key_bits: u64,
    /// Lexicographic position of the first leaf below.
    first: Reverse<u64>,
    /// The count row in the walk's row arena (versions `..idx` set).
    row: usize,
    /// Depth: the versions whose counts are fixed.
    idx: usize,
    /// Area left for versions `idx..`.
    area: u32,
}

impl Entry {
    fn new(key: f64, pos: u64, row: usize, idx: usize, area: u32) -> Entry {
        debug_assert!(key >= 0.0, "bounds are never negative");
        Entry {
            key_bits: key.to_bits(),
            first: Reverse(pos),
            row,
            idx,
            area,
        }
    }

    fn key(&self) -> f64 {
        f64::from_bits(self.key_bits)
    }

    fn pos(&self) -> u64 {
        self.first.0
    }
}

/// The allocation search behind the refine portfolio, seeded with a
/// reliability `floor` the result must match, and recording search
/// facts in `diagnostics` — whether the candidate set is truncated
/// ([`Diagnostics::alloc_cap_hit`]), so a capped search is reported
/// instead of silently presenting a partial optimum as the global one.
///
/// # The floor contract
///
/// The candidate set is the first `MAX_ALLOCATIONS` count rows in
/// lexicographic order, covering or not (`alloc_cap_hit` says whether
/// the area bound admits more). Let `naive` be the design that
/// list-scheduling every covering row of the set in order and keeping
/// the first one attaining the maximum reliability produces. The search
/// returns exactly `naive` when its reliability is `>= floor`, and
/// `None` otherwise. At floor 0 it is the plain search. The refine
/// portfolio passes the best reliability among its other starts: it
/// keeps the most reliable start, and on a tie the allocation design
/// (pushed last) wins, so a design below the floor could never have been
/// chosen and one at or above it still is — the portfolio's pick is
/// unchanged, while the search stops paying for allocations that cannot
/// win.
///
/// # How it stays exact
///
/// Allocations are list-scheduled in the order *(capacity-aware
/// reliability upper bound descending, lexicographic position
/// ascending)*, so almost all of them die to sound prunes, and the walk
/// produces them lazily in exactly that order:
///
/// * *Capacity-aware reliability upper bound* — a unit of version `v`
///   executes at most `⌊Ld / delay(v)⌋` operations within the latency
///   budget, so each class's most reliable versions can cover only that
///   many nodes; the bound gives every node the best version capacity
///   admits. Because it is evaluated in floating point, every prune on
///   it keeps a conservative relative margin (scaled to the node
///   count's worst-case rounding error), so an allocation is skipped
///   only when it *provably* cannot reach the threshold
///   `max(floor, incumbent) × margin` — ties and the first-index rule
///   are unaffected.
/// * *Best-first walk* — a heap of partial count rows keyed by the bound
///   of their most generous completion (every later version at its
///   maximum; the bound only grows with any count), so a node's key
///   dominates every leaf below it. Leaves wait in a second heap keyed
///   by their exact bound, and one is released only when it precedes
///   every open node in the scan order. A node whose key is below the
///   threshold is dropped with its subtree. When two versions of a class
///   are within rounding of each other in reliability, a completion's
///   rounded bound can undershoot a leaf's, so node keys are then
///   inflated by the margin. Subtree leaf counts, memoized per search on
///   the (version, area left) states the walk asks about and stopped at
///   what the cap needs, give every node its first leaf's position, so
///   nodes past the candidate set are never opened and ties break by
///   position as a full scan's index would.
/// * *Latency lower bound* (exact) — the critical path weighted by each
///   class's fastest delay *available in the allocation* floors every
///   achievable latency; an allocation whose floor exceeds
///   `bounds.latency` would fail to schedule anyway.
/// * *Ceiling* — once the incumbent's reliability is that of every node
///   on its class's most reliable version, nothing can beat it (the
///   serial fold is monotone in each factor), so only earlier-positioned
///   allocations, which could tie and take the first-index rule, are
///   still opened or scheduled.
/// * *Bounded list scheduling* — the scheduler gets the same threshold
///   and stops an allocation once the product it can still reach is
///   provably below it, or once the latency bound is provably missed;
///   such an allocation could never have become the incumbent.
pub fn best_allocation_design_diag(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
    floor: f64,
    diagnostics: &mut Diagnostics,
) -> Option<(Assignment, Schedule, Binding)> {
    search(dfg, library, bounds, floor, MAX_ALLOCATIONS, diagnostics)
}

/// [`best_allocation_design_diag`] over a candidate set of the first
/// `cap` count rows.
fn search(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
    floor: f64,
    cap: usize,
    diagnostics: &mut Diagnostics,
) -> Option<Design> {
    let span = rchls_telemetry::span!(timed: "alloc");
    let _record_on_exit = AllocPhaseTimer(&span);
    let topo = dfg.topological_order().ok()?;
    let tree = CountTree::new(dfg, library, bounds);
    let cap = cap as u64;
    diagnostics.alloc_cap_hit |= tree.leaves_below(0, tree.root_area, cap + 1) > cap;
    let mut scratch = AllocScratch::new(dfg, library, topo)?;
    let margin = scratch.margin;
    // What every node on its class's most reliable version evaluates to:
    // no assignment evaluates above it.
    let ceiling_rel = serial_reliability(dfg.node_ids().map(|n| {
        let class = dfg.node(n).class();
        let id = library
            .most_reliable_id(class)
            .expect("library covers every used class");
        library.version(id).reliability()
    }))
    .value();

    let floor_threshold = floor * margin;
    let mut walk = Walk::new(&tree, cap, margin, floor_threshold);
    let mut longest = vec![0u32; dfg.node_count()];
    let mut lower_bounds: Vec<([u32; SLOTS], u32)> = Vec::new();
    let mut allocation: Vec<(VersionId, u32)> = Vec::new();
    let mut list_scheduled = 0u64;
    let mut best: Option<(f64, u64, Design)> = None;
    loop {
        let threshold = match &best {
            Some((brel, ..)) => floor_threshold.max(brel * margin),
            None => floor_threshold,
        };
        // Past the ceiling only earlier positions can still tie.
        let last_pos = match &best {
            Some((brel, bpos, _)) if *brel == ceiling_rel => *bpos,
            _ => u64::MAX,
        };
        let Some(leaf) = walk.next_leaf(threshold, last_pos) else {
            break;
        };
        // Exact latency lower bound: the critical path under the
        // allocation's per-class fastest delays (few distinct rows).
        let counts = walk.row(&leaf);
        let mut mins = [u32::MAX; SLOTS];
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                mins[tree.slot[i]] = mins[tree.slot[i]].min(tree.delay[i]);
            }
        }
        let lb = match lower_bounds.iter().find(|(row, _)| *row == mins) {
            Some(&(_, lb)) => lb,
            None => {
                let mut lb = 0u32;
                for &n in &scratch.topo {
                    let down = dfg
                        .preds(n)
                        .iter()
                        .map(|&p| longest[p.index()])
                        .max()
                        .unwrap_or(0);
                    let d = mins[scratch.slot[n.index()]];
                    debug_assert!(d != u32::MAX, "allocation covers every used class");
                    longest[n.index()] = down + d;
                    lb = lb.max(longest[n.index()]);
                }
                lower_bounds.push((mins, lb));
                lb
            }
        };
        if lb > bounds.latency {
            continue;
        }
        allocation.clear();
        allocation.extend(allocation_pairs(&tree.versions, counts));
        list_scheduled += 1;
        if let Some((rel, design)) = schedule_on_allocation_in(
            dfg,
            library,
            &allocation,
            bounds.latency,
            threshold,
            &mut scratch,
        ) {
            debug_assert!(design.2.total_area(library) <= bounds.area);
            let better = best
                .as_ref()
                .is_none_or(|(brel, bpos, _)| rel > *brel || (rel == *brel && leaf.pos() < *bpos));
            if better {
                best = Some((rel, leaf.pos(), design));
            }
        }
    }
    crate::obs::alloc_search_enumerated().add(walk.enumerated);
    crate::obs::alloc_search_floor_pruned().add(walk.floor_pruned);
    crate::obs::alloc_search_list_scheduled().add(list_scheduled);
    crate::obs::alloc_search_aborted().add(scratch.aborted);
    // A kept allocation can still evaluate below the floor (the prunes
    // are sound, not tight), and then so can the winner.
    best.filter(|(rel, ..)| *rel >= floor).map(|(.., d)| d)
}

/// The best-first walk over a [`CountTree`]'s first `cap` leaves.
struct Walk<'t> {
    tree: &'t CountTree,
    cap: u64,
    /// What an inner node's bound is divided by to make its key: 1 when
    /// the library is [separated](CountTree::separated), so a bound
    /// already dominates every leaf below it as computed, and the
    /// rounding margin otherwise.
    key_margin: f64,
    floor_threshold: f64,
    /// Count rows, `tree.len()` apiece; row 0 is the root's.
    rows: Vec<u32>,
    /// Scratch row for the children's bounds.
    child: Vec<u32>,
    /// Inner nodes, keyed by their bound over `key_margin`.
    nodes: BinaryHeap<Entry>,
    /// Leaves, keyed by their exact bound.
    staged: BinaryHeap<Entry>,
    /// Covering leaves bounded so far.
    enumerated: u64,
    /// Of those, the ones whose bound misses the floor.
    floor_pruned: u64,
}

impl<'t> Walk<'t> {
    fn new(tree: &'t CountTree, cap: u64, margin: f64, floor_threshold: f64) -> Walk<'t> {
        let mut walk = Walk {
            tree,
            cap,
            key_margin: if tree.separated(margin) { 1.0 } else { margin },
            floor_threshold,
            rows: vec![0; tree.len()],
            child: vec![0; tree.len()],
            nodes: BinaryHeap::new(),
            staged: BinaryHeap::new(),
            enumerated: 0,
            floor_pruned: 0,
        };
        if cap > 0 && tree.len() == 0 {
            // The empty row is the tree's only leaf.
            walk.enumerated += 1;
            let key = tree.leaf_bound(&[]);
            walk.staged.push(Entry::new(key, 0, 0, 0, tree.root_area));
        } else if cap > 0 {
            let root = Entry::new(f64::INFINITY, 0, 0, 0, tree.root_area);
            walk.nodes.push(root);
        }
        walk
    }

    fn row(&self, entry: &Entry) -> &[u32] {
        let count = self.tree.len();
        &self.rows[entry.row * count..][..count]
    }

    /// Bounds every child of `node` inside the candidate set and at most
    /// `last_pos`: a leaf is staged, an inner node queued, and either is
    /// dropped when its key is below `threshold`. A zero count of a
    /// class's last version is skipped when the class has no unit yet —
    /// no leaf below covers it.
    fn expand(&mut self, node: Entry, threshold: f64, last_pos: u64) {
        let tree = self.tree;
        let (count, idx) = (tree.len(), node.idx);
        let depth = idx + 1;
        let start = node.row * count;
        self.child[..idx].copy_from_slice(&self.rows[start..start + idx]);
        let skip_zero = tree.uncovered(&self.child, idx);
        let mut pos = node.pos();
        for c in 0..=tree.max_count(idx, node.area) {
            if pos >= self.cap || pos > last_pos {
                break;
            }
            let area = node.area - c * tree.area[idx];
            let first = pos;
            pos += tree.leaves_below(depth, area, self.cap - first);
            if c == 0 && skip_zero {
                continue;
            }
            self.child[idx] = c;
            let key = if depth == count {
                self.enumerated += 1;
                let key = tree.leaf_bound(&self.child);
                if key < self.floor_threshold {
                    self.floor_pruned += 1;
                    continue;
                }
                key
            } else {
                tree.node_bound(&mut self.child, depth, area) / self.key_margin
            };
            if key < threshold {
                continue;
            }
            let row = self.rows.len() / count;
            self.rows.extend_from_slice(&self.child[..depth]);
            self.rows.resize((row + 1) * count, 0);
            let entry = Entry::new(key, first, row, depth, area);
            if depth == count {
                self.staged.push(entry);
            } else {
                self.nodes.push(entry);
            }
        }
    }

    /// The next leaf in scan order whose key reaches `threshold` and
    /// whose position is at most `last_pos`, or `None` when no open
    /// entry can produce one.
    fn next_leaf(&mut self, threshold: f64, last_pos: u64) -> Option<Entry> {
        loop {
            // A leaf goes out only once it precedes every open node: a
            // node's key dominates every leaf below it.
            let take_leaf = match (self.staged.peek(), self.nodes.peek()) {
                (None, None) => return None,
                (Some(leaf), Some(node)) => leaf > node,
                (leaf, _) => leaf.is_some(),
            };
            let heap = if take_leaf {
                &mut self.staged
            } else {
                &mut self.nodes
            };
            let entry = heap.pop().expect("peeked above");
            if entry.key() < threshold {
                return None; // every open entry is at or below this one
            }
            if entry.pos() > last_pos {
                continue;
            }
            if take_leaf {
                return Some(entry);
            }
            self.expand(entry, threshold, last_pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rchls_dfg::{DfgBuilder, OpKind};
    use rchls_relmath::Reliability;
    use rchls_reslib::ResourceVersion;

    fn pair() -> Dfg {
        DfgBuilder::new("pair")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap()
    }

    fn random(nodes: usize, layers: usize, seed: u64) -> Dfg {
        rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
            nodes,
            layers,
            seed,
            ..Default::default()
        })
    }

    /// Table 1 plus a second adder and multiplier *as reliable as the
    /// best*: equal reliabilities make the bound of a count row depend on
    /// how `powi` runs split, and make designs on different allocations
    /// tie exactly.
    fn tied_library() -> Library {
        let r = |p: f64| Reliability::new(p).unwrap();
        Library::new(vec![
            ResourceVersion::new("adder1", OpClass::Adder, 1, 2, r(0.999)),
            ResourceVersion::new("adder1f", OpClass::Adder, 2, 1, r(0.999)),
            ResourceVersion::new("adder3", OpClass::Adder, 4, 1, r(0.987)),
            ResourceVersion::new("mult1", OpClass::Multiplier, 2, 2, r(0.999)),
            ResourceVersion::new("mult1f", OpClass::Multiplier, 3, 1, r(0.999)),
            ResourceVersion::new("mult2", OpClass::Multiplier, 4, 1, r(0.969)),
        ])
        .unwrap()
    }

    /// The eager walk the search must agree with: visits the count rows
    /// of the first `cap` leaves depth-first (lexicographic order),
    /// calling `visit` with each one covering every class the graph
    /// uses. Returns whether the cap truncated the walk.
    fn for_each_allocation(
        dfg: &Dfg,
        library: &Library,
        area_bound: u32,
        cap: usize,
        visit: &mut dyn FnMut(&[u32]),
    ) -> bool {
        struct Walk<'a> {
            library: &'a Library,
            versions: Vec<VersionId>,
            unit_cap: Vec<u32>,
            counts: Vec<u32>,
            leaves: usize,
            cap: usize,
            capped: bool,
        }
        fn recurse(walk: &mut Walk<'_>, idx: usize, area_left: u32, visit: &mut dyn FnMut(&[u32])) {
            if walk.leaves >= walk.cap {
                // Every call ends in a leaf, so a call past the cap means
                // real allocations are being dropped.
                walk.capped = true;
                return;
            }
            if idx == walk.versions.len() {
                walk.leaves += 1;
                let covers = |class: OpClass| {
                    walk.versions
                        .iter()
                        .zip(&walk.counts)
                        .any(|(&v, &c)| c > 0 && walk.library.version(v).class() == class)
                };
                if walk
                    .versions
                    .iter()
                    .all(|&v| covers(walk.library.version(v).class()))
                {
                    visit(&walk.counts);
                }
                return;
            }
            let unit = walk.library.version(walk.versions[idx]).area();
            let cap = (area_left / unit).min(walk.unit_cap[idx]);
            for c in 0..=cap {
                walk.counts[idx] = c;
                recurse(walk, idx + 1, area_left - c * unit, visit);
            }
            walk.counts[idx] = 0;
        }
        let versions = allocation_versions(dfg, library);
        let mut walk = Walk {
            library,
            unit_cap: versions
                .iter()
                .map(|&v| dfg.count_class(library.version(v).class()) as u32)
                .collect(),
            counts: vec![0; versions.len()],
            versions,
            leaves: 0,
            cap,
            capped: false,
        };
        recurse(&mut walk, 0, area_bound, visit);
        walk.capped
    }

    /// The covering count rows of the candidate set, in order, and
    /// whether the cap truncated it.
    fn enumerate_rows(
        dfg: &Dfg,
        library: &Library,
        area: u32,
        cap: usize,
    ) -> (Vec<Vec<u32>>, bool) {
        let mut rows = Vec::new();
        let capped = for_each_allocation(dfg, library, area, cap, &mut |counts| {
            rows.push(counts.to_vec());
        });
        (rows, capped)
    }

    /// The list scheduler on fresh buffers, at threshold 0 (which filters
    /// nothing).
    fn schedule_on_allocation(
        dfg: &Dfg,
        library: &Library,
        allocation: &[(VersionId, u32)],
        latency_bound: u32,
    ) -> Option<Design> {
        let topo = dfg.topological_order().ok()?;
        let mut scratch = AllocScratch::new(dfg, library, topo)?;
        schedule_on_allocation_in(dfg, library, allocation, latency_bound, 0.0, &mut scratch)
            .map(|(_, d)| d)
    }

    /// The naive oracle: list-schedule every covering row of the first
    /// `cap` in enumeration order with the reference scheduler, keep the
    /// first one attaining the maximum reliability. Also returns whether
    /// the set is truncated.
    fn naive_best(
        dfg: &Dfg,
        lib: &Library,
        bounds: Bounds,
        cap: usize,
    ) -> (Option<(f64, Design)>, bool) {
        let versions = allocation_versions(dfg, lib);
        let (rows, capped) = enumerate_rows(dfg, lib, bounds.area, cap);
        let mut best: Option<(f64, usize, Design)> = None;
        for (idx, row) in rows.iter().enumerate() {
            let alloc: Vec<_> = allocation_pairs(&versions, row).collect();
            if let Some(cand) = reference_schedule(dfg, lib, &alloc, bounds.latency) {
                let rel = cand.0.design_reliability(lib).value();
                if best
                    .as_ref()
                    .is_none_or(|(brel, bidx, _)| rel > *brel || (rel == *brel && idx < *bidx))
                {
                    best = Some((rel, idx, cand));
                }
            }
        }
        (best.map(|(rel, _, d)| (rel, d)), capped)
    }

    /// The lazy search over the first `cap` rows: its design and cap flag.
    fn lazy(
        dfg: &Dfg,
        lib: &Library,
        bounds: Bounds,
        floor: f64,
        cap: usize,
    ) -> (Option<Design>, bool) {
        let mut diagnostics = Diagnostics::default();
        let design = search(dfg, lib, bounds, floor, cap, &mut diagnostics);
        (design, diagnostics.alloc_cap_hit)
    }

    /// The floor contract against the oracle, at floors 0, 1 and one ulp
    /// either side of the winner's reliability.
    fn assert_matches_oracle(dfg: &Dfg, lib: &Library, bounds: Bounds, cap: usize, what: &str) {
        let (naive, capped) = naive_best(dfg, lib, bounds, cap);
        let floors = match &naive {
            Some((rel, _)) => vec![
                0.0,
                f64::from_bits(rel.to_bits() - 1),
                *rel,
                f64::from_bits(rel.to_bits() + 1),
                1.0,
            ],
            None => vec![0.0, 0.5, 1.0],
        };
        for floor in floors {
            let expected = naive
                .clone()
                .filter(|(rel, _)| *rel >= floor)
                .map(|(_, d)| d);
            assert_eq!(
                lazy(dfg, lib, bounds, floor, cap),
                (expected, capped),
                "{what} at {bounds}, cap {cap}, floor {floor}"
            );
        }
    }

    /// The total leaf count of the count tree (clamped far above it).
    fn total_leaves(dfg: &Dfg, lib: &Library, area: u32) -> u64 {
        let tree = CountTree::new(dfg, lib, Bounds::new(1, area));
        tree.leaves_below(0, tree.root_area, u64::MAX)
    }

    #[test]
    fn enumeration_respects_area_and_coverage() {
        let g = pair();
        let lib = Library::table1();
        let versions = allocation_versions(&g, &lib);
        let (rows, capped) = enumerate_rows(&g, &lib, 4, MAX_ALLOCATIONS);
        assert!(!capped);
        for row in &rows {
            let alloc: Vec<_> = allocation_pairs(&versions, row).collect();
            let area: u32 = alloc.iter().map(|&(v, n)| lib.version(v).area() * n).sum();
            assert!(area <= 4);
            assert!(alloc.iter().any(|&(_, n)| n > 0));
            // Only adder-class versions appear (graph has no multiplies).
            for &(v, _) in &alloc {
                assert_eq!(lib.version(v).class(), OpClass::Adder);
            }
        }
        // {1x adder1}, {2x adder1}, {1x adder2}, {1x adder3}, {a1+a2}, ...
        assert!(rows.len() >= 5);
    }

    #[test]
    fn scheduling_on_single_slow_unit_serializes() {
        let g = pair();
        let lib = Library::table1();
        let a1 = lib.version_by_name("adder1").unwrap();
        let (assign, sched, binding) =
            schedule_on_allocation(&g, &lib, &[(a1, 1)], 4).expect("4 cycles fit two 2cc adds");
        assert_eq!(sched.latency(), 4);
        assert_eq!(binding.instance_count(), 1);
        let delays = assign.delays(&g, &lib);
        binding.assert_valid(&g, &sched, &delays);
        assert!(schedule_on_allocation(&g, &lib, &[(a1, 1)], 3).is_none());
    }

    #[test]
    fn heterogeneous_units_prefer_reliable_when_safe() {
        // Two independent adds, units {adder1, adder2}, plenty of time:
        // both ops should land on the reliable 2cc adder1 only if it is
        // free; the second op goes to adder2 at step 1 or adder1 later.
        let g = DfgBuilder::new("indep")
            .ops(&["a", "b"], OpKind::Add)
            .build()
            .unwrap();
        let lib = Library::table1();
        let a1 = lib.version_by_name("adder1").unwrap();
        let a2 = lib.version_by_name("adder2").unwrap();
        let (assign, sched, _) = schedule_on_allocation(&g, &lib, &[(a1, 1), (a2, 1)], 8).unwrap();
        let delays = assign.delays(&g, &lib);
        sched.validate(&g, &delays).unwrap();
        // At least one op gets the reliable unit.
        let reliable_ops = g.node_ids().filter(|&n| assign.version(n) == a1).count();
        assert!(reliable_ops >= 1);
    }

    /// The reference list scheduler: the original formulation, which
    /// rescans every node for readiness each step, scans every unit for
    /// each node, and has no early exit. The bounded scheduler must
    /// match its decisions exactly.
    fn reference_schedule(
        dfg: &Dfg,
        library: &Library,
        allocation: &[(VersionId, u32)],
        latency_bound: u32,
    ) -> Option<Design> {
        let mut units: Vec<(VersionId, u32, Vec<NodeId>)> = allocation
            .iter()
            .flat_map(|&(v, n)| (0..n).map(move |_| (v, 1, Vec::new())))
            .collect();
        if units.is_empty() && !dfg.is_empty() {
            return None;
        }
        let ver = |v: VersionId| library.version(v);
        let min_delay = |n: NodeId| library.min_delay(dfg.node(n).class()).unwrap();
        let mut remaining_path = vec![0u32; dfg.node_count()];
        for &n in dfg.topological_order().ok()?.iter().rev() {
            let down = dfg.succs(n).iter().map(|s| remaining_path[s.index()]).max();
            remaining_path[n.index()] = down.unwrap_or(0) + min_delay(n);
        }
        let mut start: Vec<Option<u32>> = vec![None; dfg.node_count()];
        let mut finish = vec![0u32; dfg.node_count()];
        let mut owner = vec![0usize; dfg.node_count()];
        for step in 1..=latency_bound {
            let mut ready: Vec<NodeId> = dfg
                .node_ids()
                .filter(|&n| {
                    start[n.index()].is_none()
                        && dfg
                            .preds(n)
                            .iter()
                            .all(|p| start[p.index()].is_some() && finish[p.index()] < step)
                })
                .collect();
            ready.sort_by_key(|&n| (Reverse(remaining_path[n.index()]), n.index()));
            for n in ready {
                let class = dfg.node(n).class();
                let downstream = remaining_path[n.index()] - min_delay(n);
                let free: Vec<usize> = (0..units.len())
                    .filter(|&i| units[i].1 <= step && ver(units[i].0).class() == class)
                    .collect();
                let delay = |i: usize| ver(units[i].0).delay();
                let Some(&fastest) = free.iter().min_by_key(|&&i| (delay(i), i)) else {
                    continue;
                };
                let safe = free
                    .iter()
                    .copied()
                    .filter(|&i| step - 1 + delay(i) + downstream <= latency_bound)
                    .min_by(|&a, &b| {
                        let rel = |i: usize| ver(units[i].0).reliability().value();
                        rel(b)
                            .total_cmp(&rel(a))
                            .then(delay(a).cmp(&delay(b)))
                            .then(a.cmp(&b))
                    });
                let pick = match safe {
                    Some(i) => i,
                    None => {
                        let horizon = (0..units.len())
                            .filter(|&i| ver(units[i].0).class() == class)
                            .map(delay)
                            .min()
                            .unwrap();
                        if step - 1 + horizon + downstream <= latency_bound {
                            continue;
                        }
                        fastest
                    }
                };
                start[n.index()] = Some(step);
                finish[n.index()] = step + delay(pick) - 1;
                units[pick].1 = step + delay(pick);
                units[pick].2.push(n);
                owner[n.index()] = pick;
            }
        }
        if start.iter().any(Option::is_none) || finish.iter().any(|&f| f > latency_bound) {
            return None;
        }
        let assignment = Assignment::from_fn(dfg, library, |n| units[owner[n.index()]].0);
        let delays = assignment.delays(dfg, library);
        let schedule = Schedule::new(start.iter().map(|s| s.unwrap()).collect(), &delays);
        schedule.validate(dfg, &delays).ok()?;
        let mut instances = Vec::new();
        let mut owner_map = vec![InstanceId::new(0); dfg.node_count()];
        for (version, _, nodes) in units.into_iter().filter(|u| !u.2.is_empty()) {
            for &n in &nodes {
                owner_map[n.index()] = InstanceId::new(instances.len() as u32);
            }
            instances.push(Instance { version, nodes });
        }
        Some((assignment, schedule, Binding::new(instances, owner_map)))
    }

    #[test]
    fn bounded_scheduler_filters_exactly_at_the_threshold() {
        // Bounded at `t`, the scheduler returns `None` exactly when the
        // reference scheduler returns `None` or a design below `t`, and
        // otherwise the same design with its reliability. Thresholds
        // straddle each design's reliability by one ulp, and the early
        // exits must actually fire.
        let mut aborted = 0u64;
        for lib in [Library::table1(), tied_library()] {
            for (nodes, layers, seed) in [(8usize, 3usize, 1u64), (12, 4, 5), (16, 4, 9)] {
                let g = random(nodes, layers, seed);
                let versions = allocation_versions(&g, &lib);
                let margin = rounding_margin(g.node_count());
                for bounds in [
                    Bounds::new(layers as u32 + 1, 8),
                    Bounds::new(layers as u32 + 2, 10),
                    Bounds::new(2 * layers as u32 + 4, 14),
                ] {
                    let (rows, _) = enumerate_rows(&g, &lib, bounds.area, MAX_ALLOCATIONS);
                    let topo = g.topological_order().unwrap();
                    let mut scratch = AllocScratch::new(&g, &lib, topo).unwrap();
                    for row in &rows {
                        let alloc: Vec<_> = allocation_pairs(&versions, row).collect();
                        let reference = reference_schedule(&g, &lib, &alloc, bounds.latency)
                            .map(|d| (d.0.design_reliability(&lib).value(), d));
                        let rel = reference.as_ref().map_or(0.9, |(rel, _)| *rel);
                        for threshold in [
                            0.0,
                            rel * margin,
                            f64::from_bits(rel.to_bits() - 1),
                            rel,
                            f64::from_bits(rel.to_bits() + 1),
                            1.0,
                        ] {
                            let bounded = schedule_on_allocation_in(
                                &g,
                                &lib,
                                &alloc,
                                bounds.latency,
                                threshold,
                                &mut scratch,
                            );
                            let expected = reference.clone().filter(|(rel, _)| *rel >= threshold);
                            assert_eq!(
                                bounded, expected,
                                "{alloc:?} at {bounds}, threshold {threshold}"
                            );
                        }
                    }
                    aborted += scratch.aborted;
                }
            }
        }
        assert!(aborted > 0, "the early exits never fired");
    }

    #[test]
    fn leaf_counts_match_the_eager_walk() {
        // The count tree's subtree totals decide which rows the cap
        // keeps: a cap one below the total truncates, the total does not.
        let lib = Library::table1();
        for (g, area) in [(pair(), 4), (random(10, 3, 0), 12), (random(14, 4, 3), 20)] {
            let total = total_leaves(&g, &lib, area) as usize;
            assert!(total > 1);
            for cap in [total - 1, total, total + 1] {
                let (_, capped) = enumerate_rows(&g, &lib, area, cap);
                assert_eq!(capped, total > cap, "area {area}, cap {cap}");
                let tree = CountTree::new(&g, &lib, Bounds::new(1, area));
                let cap = cap as u64;
                assert_eq!(tree.leaves_below(0, tree.root_area, cap + 1) > cap, capped);
            }
        }
    }

    #[test]
    fn leaf_counts_do_not_scale_with_unit_areas() {
        // Table 1 with adder areas near 10^6 and multiplier areas near
        // 10^7, under bounds near 10^8 and 10^9: a table of leaf counts
        // over every area left would take gigabytes, while the counts
        // only visit the states the walk asks about.
        let r = |p: f64| Reliability::new(p).unwrap();
        let lib = Library::new(vec![
            ResourceVersion::new("adder1", OpClass::Adder, 1_000_003, 2, r(0.999)),
            ResourceVersion::new("adder2", OpClass::Adder, 2_000_001, 1, r(0.969)),
            ResourceVersion::new("adder3", OpClass::Adder, 4_000_007, 1, r(0.987)),
            ResourceVersion::new("mult1", OpClass::Multiplier, 20_000_011, 2, r(0.999)),
            ResourceVersion::new("mult2", OpClass::Multiplier, 40_000_003, 1, r(0.969)),
        ])
        .unwrap();
        let g = rchls_workloads::fir16();
        let loose = Bounds::new(14, 1_000_000_000);
        let tree = CountTree::new(&g, &lib, loose);
        let cap = MAX_ALLOCATIONS as u64;
        assert!(tree.leaves_below(0, tree.root_area, cap + 1) > cap);
        let states = tree.leaves.borrow().len();
        assert!(states < 20_000, "{states} memoized states");
        let (design, capped) = lazy(&g, &lib, loose, 0.0, MAX_ALLOCATIONS);
        assert!(capped && design.is_some());
        assert_matches_oracle(&g, &lib, loose, 2_000, "fir16 (scaled areas)");
        let tight = Bounds::new(11, 100_000_000);
        assert_matches_oracle(&g, &lib, tight, MAX_ALLOCATIONS, "fir16 (scaled areas)");
    }

    #[test]
    fn walk_yields_leaves_in_scan_order() {
        // With nothing to prune, the lazy walk yields exactly the eager
        // candidate set sorted by (bound descending, index ascending) —
        // also under a binding cap and with tied reliabilities, where
        // rounding puts some rows' bounds above their completion's (at
        // the tight latencies of the first two graphs: `powi` splits).
        for lib in [Library::table1(), tied_library()] {
            for (g, bounds) in [
                (random(6, 1, 0), Bounds::new(2, 9)),
                (random(5, 2, 1), Bounds::new(3, 16)),
                (random(10, 3, 0), Bounds::new(6, 12)),
                (random(14, 4, 3), Bounds::new(12, 20)),
            ] {
                let total = total_leaves(&g, &lib, bounds.area) as usize;
                for cap in [MAX_ALLOCATIONS, total / 2, total / 3 + 1] {
                    let tree = CountTree::new(&g, &lib, bounds);
                    let (rows, _) = enumerate_rows(&g, &lib, bounds.area, cap);
                    let mut expected: Vec<(f64, usize)> = rows
                        .iter()
                        .enumerate()
                        .map(|(i, row)| (tree.leaf_bound(row), i))
                        .collect();
                    expected.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                    let margin = rounding_margin(g.node_count());
                    let mut walk = Walk::new(&tree, cap as u64, margin, 0.0);
                    let mut got = Vec::new();
                    while let Some(leaf) = walk.next_leaf(0.0, u64::MAX) {
                        got.push(walk.row(&leaf).to_vec());
                    }
                    let expected: Vec<Vec<u32>> =
                        expected.iter().map(|&(_, i)| rows[i].clone()).collect();
                    assert_eq!(got, expected, "{bounds}, cap {cap}");
                }
            }
        }
    }

    #[test]
    fn enumeration_cap_is_reported_not_silent() {
        // Small graphs under tight bounds never hit the cap...
        let g = pair();
        let lib = Library::table1();
        assert!(!lazy(&g, &lib, Bounds::new(4, 4), 0.0, MAX_ALLOCATIONS).1);
        // ... but a wide graph under an absurd area budget exceeds the
        // combinatorial cap, and the flag must say so (the allocation
        // search surfaces it as `Diagnostics::alloc_cap_hit`).
        let wide = random(48, 4, 11);
        let (rows, capped) = enumerate_rows(&wide, &lib, 10_000, MAX_ALLOCATIONS);
        assert!(capped, "{} allocations", rows.len());
        assert!(rows.len() <= MAX_ALLOCATIONS);
        assert!(lazy(&wide, &lib, Bounds::new(8, 10_000), 0.0, MAX_ALLOCATIONS).1);
    }

    #[test]
    fn pruned_search_matches_the_naive_full_scan() {
        // The documented contract: the lazy search at floor `f` returns
        // exactly the naive scan's winner over the candidate set when it
        // reaches `f`, and nothing otherwise — with the cap binding too.
        // Slack bounds exercise the ceiling prune (the all-most-reliable
        // incumbent, and exact ties on the tied library, where the
        // smallest index must win), tight bounds the margin prune; the
        // floors straddle the winner's reliability by one ulp on each
        // side. The caps cut the candidate set mid-subtree: one leaf into
        // the second subtree of the first version, and at half the rows.
        for lib in [Library::table1(), tied_library()] {
            for (nodes, layers, seed) in [(10usize, 3usize, 0u64), (14, 4, 3), (12, 3, 7)] {
                let g = random(nodes, layers, seed);
                for bounds in [
                    Bounds::new(layers as u32 + 1, 4),
                    Bounds::new(layers as u32 + 3, 8),
                    Bounds::new(2 * layers as u32 + 4, 16),
                ] {
                    let tree = CountTree::new(&g, &lib, bounds);
                    let first_subtree = tree.leaves_below(1, tree.root_area, u64::MAX) as usize;
                    let total = tree.leaves_below(0, tree.root_area, u64::MAX) as usize;
                    let what = format!("{nodes}x{layers}@{seed}");
                    for cap in [MAX_ALLOCATIONS, first_subtree + 1, total / 2] {
                        assert_matches_oracle(&g, &lib, bounds, cap, &what);
                    }
                }
            }
        }
        // Tight latencies on the tied library: dozens of allocations tie
        // the winner's reliability, and the first of them in scan order
        // has a *larger* index than the naive winner, so only the
        // first-index rule picks the right one.
        let lib = tied_library();
        for (nodes, layers, seed, bounds) in [
            (6usize, 1usize, 0u64, Bounds::new(3, 8)),
            (7, 2, 0, Bounds::new(4, 8)),
            (7, 1, 0, Bounds::new(4, 16)),
        ] {
            let g = random(nodes, layers, seed);
            let what = format!("{nodes}x{layers}@{seed} (tied)");
            assert_matches_oracle(&g, &lib, bounds, MAX_ALLOCATIONS, &what);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn lazy_search_matches_the_eager_oracle(
            nodes in 3usize..13,
            layers in 1usize..5,
            seed in 0u64..1000,
            latency_extra in 0u32..8,
            area in 2u32..18,
            cap_choice in 0u32..3,
            tied in 0u8..2,
        ) {
            let lib = if tied == 1 { tied_library() } else { Library::table1() };
            let g = random(nodes, layers.min(nodes), seed);
            let bounds = Bounds::new(layers as u32 + latency_extra, area);
            let total = total_leaves(&g, &lib, area) as usize;
            let cap = match cap_choice {
                0 => MAX_ALLOCATIONS,
                1 => total / 2 + 1,
                _ => total / 5 + 1,
            };
            assert_matches_oracle(&g, &lib, bounds, cap, &format!("{nodes}x{layers}@{seed}"));
        }
    }

    #[test]
    fn floor_never_changes_the_cap_flag() {
        // The cap flag depends on the area bound alone, so a search that
        // drops every allocation still reports the truncation.
        let lib = Library::table1();
        let wide = random(48, 4, 11);
        let (design, capped) = lazy(&wide, &lib, Bounds::new(8, 10_000), 1.0, MAX_ALLOCATIONS);
        assert!(design.is_none(), "no design reaches reliability 1");
        assert!(capped);
    }

    #[test]
    fn diag_variant_mirrors_plain_search_and_records_completeness() {
        let g = pair();
        let lib = Library::table1();
        let bounds = Bounds::new(4, 4);
        let mut diagnostics = Diagnostics::default();
        let design = best_allocation_design_diag(&g, &lib, bounds, 0.0, &mut diagnostics);
        assert_eq!(
            design,
            naive_best(&g, &lib, bounds, MAX_ALLOCATIONS)
                .0
                .map(|(_, d)| d)
        );
        assert!(!diagnostics.alloc_cap_hit);
    }

    #[test]
    fn best_allocation_maps_fir_feasibility_frontier() {
        // Under a *consistent* Table-1 area accounting, FIR at Ld=11 needs
        // at least 9 area units (the paper's Fig. 7 claims (11, 8), but
        // its own resource list sums to 12 — see `rchls_bench::table2_grid`).
        // The allocation search must find the frontier point and reject
        // the point just inside it.
        let g = rchls_workloads::fir16();
        let lib = Library::table1();
        let search = |bounds| {
            best_allocation_design_diag(&g, &lib, bounds, 0.0, &mut Diagnostics::default())
        };
        assert!(search(Bounds::new(11, 8)).is_none());
        let got = search(Bounds::new(11, 9));
        let (assign, sched, binding) = got.expect("a mixed-version design exists at area 9");
        assert!(sched.latency() <= 11);
        assert!(binding.total_area(&lib) <= 9);
        let delays = assign.delays(&g, &lib);
        binding.assert_valid(&g, &sched, &delays);
        // Heterogeneous mixes beat the cheapest uniform design's product.
        let r = assign.design_reliability(&lib).value();
        assert!(r > 0.969f64.powi(23), "reliability {r}");
    }
}
