//! Allocation-first design-space search.
//!
//! The Figure-6 greedy descends from the most-reliable assignment and can
//! get stuck when the only feasible designs mix versions in ways no
//! single-group move reaches (the paper's own Figure-7(b) FIR design —
//! two ripple-carry adders, two carry-save multipliers and one Brent-Kung
//! adder — is exactly such a point). This module searches from the other
//! end: enumerate *allocations* (multisets of unit versions whose total
//! area fits the bound), schedule the graph against each allocation with a
//! version-aware list scheduler, and keep the most reliable feasible
//! design. The enumeration is small for realistic libraries (a handful of
//! versions, tens of area units) and is capped defensively.

use crate::bounds::Bounds;
use crate::flow::Diagnostics;
use rchls_bind::{Assignment, Binding, Instance, InstanceId};
use rchls_dfg::{Dfg, NodeId, OpClass};
use rchls_reslib::{Library, VersionId};
use rchls_sched::Schedule;

/// Hard cap on enumerated allocations; beyond this the search declines
/// (returns no candidates) rather than blow up combinatorially.
const MAX_ALLOCATIONS: usize = 200_000;

/// Records the `phase.alloc_micros` histogram when the search returns,
/// covering every exit path (including the early cyclic-graph decline).
struct AllocPhaseTimer<'a>(&'a rchls_telemetry::SpanGuard);

impl Drop for AllocPhaseTimer<'_> {
    fn drop(&mut self) {
        crate::obs::alloc_phase_micros().record(self.0.elapsed_micros());
    }
}

/// Reusable buffers for [`schedule_on_allocation`] and the allocation
/// search — one set serves every enumerated allocation.
#[derive(Debug, Default)]
struct AllocScratch {
    topo: Vec<NodeId>,
    remaining_path: Vec<u32>,
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
    /// (Re)computes the cached topological order for `dfg`. Returns
    /// `false` for cyclic graphs.
    fn prepare(&mut self, dfg: &Dfg) -> bool {
        match dfg.topological_order() {
            Ok(order) => {
                self.topo = order;
                true
            }
            Err(_) => false,
        }
    }
}

/// Enumerates all unit allocations (counts per version) with total area
/// within `area_bound`, at least one unit for every class the graph uses,
/// and no more units of a class than the graph has operations of it.
///
/// Truncation at the defensive enumeration cap is **silent** here; use
/// [`enumerate_allocations_with_cap`] when the caller needs to know (and
/// report) that the candidate set is partial.
pub fn enumerate_allocations(
    dfg: &Dfg,
    library: &Library,
    area_bound: u32,
) -> Vec<Vec<(VersionId, u32)>> {
    enumerate_allocations_with_cap(dfg, library, area_bound).0
}

/// [`enumerate_allocations`] plus a flag reporting whether the
/// enumeration cap truncated the set: `true` means at least one
/// area-feasible allocation was *not* enumerated, so any search over the
/// returned set is incomplete and should say so (the synthesis flows
/// record it as [`Diagnostics::alloc_cap_hit`]).
pub fn enumerate_allocations_with_cap(
    dfg: &Dfg,
    library: &Library,
    area_bound: u32,
) -> (Vec<Vec<(VersionId, u32)>>, bool) {
    let versions = allocation_versions(dfg, library);
    let mut out = Vec::new();
    let capped = for_each_allocation(dfg, library, &versions, area_bound, &mut |counts| {
        out.push(allocation_pairs(&versions, counts).collect());
    });
    (out, capped)
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

/// Walks every unit allocation over `versions` (counts per version) with
/// total area within `area_bound` and no more units of a class than the
/// graph has operations of it, calling `visit` with the count row of each
/// one that covers every class the graph uses. Returns `true` when the
/// defensive cap truncated the walk.
///
/// The cap counts *leaves* — every complete count row, covering or not —
/// so what it truncates does not depend on what `visit` keeps.
fn for_each_allocation(
    dfg: &Dfg,
    library: &Library,
    versions: &[VersionId],
    area_bound: u32,
    visit: &mut dyn FnMut(&[u32]),
) -> bool {
    struct Walk<'a> {
        library: &'a Library,
        versions: &'a [VersionId],
        /// Per version: the graph's operation count of its class.
        unit_cap: Vec<u32>,
        /// Per version: its class's bit in the coverage mask.
        class_bit: Vec<u8>,
        /// The mask of every class the graph uses.
        used: u8,
        counts: Vec<u32>,
        leaves: usize,
        capped: bool,
    }
    fn recurse(walk: &mut Walk<'_>, idx: usize, area_left: u32, visit: &mut dyn FnMut(&[u32])) {
        if walk.leaves >= MAX_ALLOCATIONS {
            // Every recursion path ends in a leaf, so reaching the cap
            // with calls still pending means real allocations are being
            // dropped — record it instead of truncating silently.
            walk.capped = true;
            return;
        }
        if idx == walk.versions.len() {
            walk.leaves += 1;
            let covered = walk
                .counts
                .iter()
                .zip(&walk.class_bit)
                .filter(|(&c, _)| c > 0)
                .fold(0u8, |mask, (_, &bit)| mask | bit);
            if covered == walk.used {
                visit(&walk.counts);
            }
            return;
        }
        let ver = walk.library.version(walk.versions[idx]);
        let unit = ver.area();
        let cap = (area_left / unit).min(walk.unit_cap[idx]);
        for c in 0..=cap {
            walk.counts[idx] = c;
            recurse(walk, idx + 1, area_left - c * unit, visit);
        }
        walk.counts[idx] = 0;
    }
    debug_assert!(OpClass::ALL.len() <= 8, "coverage uses a u8 mask");
    let bit = |c: OpClass| -> u8 {
        1 << OpClass::ALL
            .iter()
            .position(|&x| x == c)
            .expect("every class is listed in OpClass::ALL")
    };
    let mut walk = Walk {
        library,
        versions,
        unit_cap: versions
            .iter()
            .map(|&v| {
                let ops = dfg.count_class(library.version(v).class());
                u32::try_from(ops).unwrap_or(u32::MAX)
            })
            .collect(),
        class_bit: versions
            .iter()
            .map(|&v| bit(library.version(v).class()))
            .collect(),
        used: OpClass::ALL
            .into_iter()
            .filter(|&c| dfg.count_class(c) > 0)
            .fold(0, |mask, c| mask | bit(c)),
        counts: vec![0; versions.len()],
        leaves: 0,
        capped: false,
    };
    recurse(&mut walk, 0, area_bound, visit);
    walk.capped
}

/// Version-aware list scheduling against a fixed allocation.
///
/// Ready operations are started in priority order (longest remaining path
/// under optimistic per-class minimum delays). Each op picks, among the
/// free units of its class, the most reliable one that still lets its
/// downstream chain finish within the bound; if none looks safe, the
/// fastest free unit is taken.
///
/// Returns `None` when the allocation cannot complete the graph within
/// `latency_bound` under this heuristic.
pub fn schedule_on_allocation(
    dfg: &Dfg,
    library: &Library,
    allocation: &[(VersionId, u32)],
    latency_bound: u32,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut scratch = AllocScratch::default();
    if !scratch.prepare(dfg) {
        return None;
    }
    schedule_on_allocation_in(dfg, library, allocation, latency_bound, &mut scratch)
}

struct Unit {
    version: VersionId,
    free_at: u32, // first step this unit can start a new op
    nodes: Vec<NodeId>,
}

/// [`schedule_on_allocation`] on reusable buffers (`scratch.prepare` must
/// have succeeded for `dfg`). Decision-for-decision identical to the
/// original formulation — only the intermediate allocations and the
/// per-step readiness rescan are gone: instead of re-filtering all nodes
/// every step (O(steps × nodes) even when nothing changed), readiness is
/// event-driven. Each node tracks its count of unscheduled predecessors
/// and the latest predecessor finish; when the count hits zero the node
/// is bucketed at step `max_pred_finish + 1`, the first step the old
/// filter (`all preds started && finished < step`) would have admitted
/// it. The ready list carries deferred nodes forward and is re-sorted by
/// the same `(longest remaining path, node index)` key, so the per-step
/// visit order — and therefore every unit-assignment decision — is
/// byte-identical to the rescan formulation.
fn schedule_on_allocation_in(
    dfg: &Dfg,
    library: &Library,
    allocation: &[(VersionId, u32)],
    latency_bound: u32,
    scratch: &mut AllocScratch,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut units: Vec<Unit> = allocation
        .iter()
        .flat_map(|&(v, n)| {
            (0..n).map(move |_| Unit {
                version: v,
                free_at: 1,
                nodes: Vec::new(),
            })
        })
        .collect();
    if units.is_empty() && !dfg.is_empty() {
        return None;
    }

    // Optimistic remaining-path lengths (per-class minimum delays).
    let min_delay = |n: NodeId| {
        library
            .min_delay(dfg.node(n).class())
            .expect("allocation covers every used class")
    };
    scratch.remaining_path.clear();
    scratch.remaining_path.resize(dfg.node_count(), 0);
    for &n in scratch.topo.iter().rev() {
        let down = dfg
            .succs(n)
            .iter()
            .map(|&s| scratch.remaining_path[s.index()])
            .max()
            .unwrap_or(0);
        scratch.remaining_path[n.index()] = down + min_delay(n);
    }
    let remaining_path = &scratch.remaining_path;

    scratch.start.clear();
    scratch.start.resize(dfg.node_count(), None);
    scratch.finish.clear();
    scratch.finish.resize(dfg.node_count(), 0);
    scratch.owner.clear();
    scratch.owner.resize(dfg.node_count(), 0);
    let (start, finish, owner) = (&mut scratch.start, &mut scratch.finish, &mut scratch.owner);
    let mut remaining = dfg.node_count();
    // The fastest delay actually available per class in this allocation —
    // the deferral horizon: as long as starting *now* on such a unit would
    // still meet the deadline, waiting for one to free up is viable.
    let mut class_min: Vec<(OpClass, u32)> = Vec::new();
    for class in OpClass::ALL {
        let d = units
            .iter()
            .filter(|u| library.version(u.version).class() == class)
            .map(|u| library.version(u.version).delay())
            .min();
        if let Some(d) = d {
            class_min.push((class, d));
        }
    }
    // Event-driven readiness: seed the sources at step 1, then bucket
    // each node when its last predecessor is scheduled.
    let pending = &mut scratch.pending_preds;
    pending.clear();
    pending.extend(dfg.node_ids().map(|n| dfg.preds(n).len() as u32));
    let max_fin = &mut scratch.max_pred_finish;
    max_fin.clear();
    max_fin.resize(dfg.node_count(), 0);
    let buckets = latency_bound as usize + 2;
    if scratch.events.len() < buckets {
        scratch.events.resize_with(buckets, Vec::new);
    }
    for bucket in &mut scratch.events[..buckets] {
        bucket.clear();
    }
    let events = &mut scratch.events;
    events[1].extend(dfg.node_ids().filter(|&n| dfg.preds(n).is_empty()));
    let ready = &mut scratch.ready;
    ready.clear();
    for step in 1..=latency_bound {
        if remaining == 0 {
            break;
        }
        ready.append(&mut events[step as usize]);
        ready.sort_by_key(|&n| (std::cmp::Reverse(remaining_path[n.index()]), n.index()));
        let mut scheduled_any = false;
        for &n in ready.iter() {
            let class = dfg.node(n).class();
            let downstream = remaining_path[n.index()] - min_delay(n);
            // One pass over the units replaces the original
            // filter/retain/min_by pipeline: every comparator ends on the
            // unit index, so each minimum is unique and a strict
            // `is-less` scan finds exactly the element `min_by` would.
            let mut best_safe: Option<usize> = None; // most reliable deadline-safe free unit
            let mut best_fast: Option<usize> = None; // fastest free unit
            for (i, u) in units.iter().enumerate() {
                if u.free_at > step {
                    continue;
                }
                let ver = library.version(u.version);
                if ver.class() != class {
                    continue;
                }
                let fast_better = match best_fast {
                    None => true,
                    Some(b) => (ver.delay(), i) < (library.version(units[b].version).delay(), b),
                };
                if fast_better {
                    best_fast = Some(i);
                }
                if step - 1 + ver.delay() + downstream <= latency_bound {
                    let safe_better = match best_safe {
                        None => true,
                        Some(b) => {
                            let vb = library.version(units[b].version);
                            vb.reliability()
                                .value()
                                .total_cmp(&ver.reliability().value())
                                .then(ver.delay().cmp(&vb.delay()))
                                .then(i.cmp(&b))
                                == std::cmp::Ordering::Less
                        }
                    };
                    if safe_better {
                        best_safe = Some(i);
                    }
                }
            }
            if best_fast.is_none() {
                continue; // no free unit of this class at all
            }
            let pick: Option<usize> = if best_safe.is_some() {
                // Most reliable among deadline-safe units.
                best_safe
            } else {
                // No safe unit is free. If a fast-enough unit exists in the
                // allocation and starting now on it would still meet the
                // deadline, defer the op: forcing it onto a slow unit now
                // would wreck a downstream chain that a one-step wait saves.
                let horizon = class_min
                    .iter()
                    .find(|(c, _)| *c == class)
                    .map(|&(_, d)| d)
                    .expect("class covered by allocation");
                if step - 1 + horizon + downstream <= latency_bound {
                    continue; // wait for a safe unit
                }
                // Doomed either way: grab the fastest to limit the damage.
                best_fast
            };
            let Some(idx) = pick else { continue };
            let delay = library.version(units[idx].version).delay();
            let fin = step + delay - 1;
            start[n.index()] = Some(step);
            finish[n.index()] = fin;
            units[idx].free_at = step + delay;
            units[idx].nodes.push(n);
            owner[n.index()] = idx;
            remaining -= 1;
            scheduled_any = true;
            for &s in dfg.succs(n) {
                pending[s.index()] -= 1;
                max_fin[s.index()] = max_fin[s.index()].max(fin);
                if pending[s.index()] == 0 {
                    // First admissible step: strictly after the latest
                    // predecessor finish (fin >= step, so this bucket is
                    // always in the future — never mutated mid-visit).
                    let at = max_fin[s.index()] + 1;
                    if at <= latency_bound {
                        events[at as usize].push(s);
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

    let assignment = Assignment::from_fn(dfg, library, |n| units[owner[n.index()]].version);
    let delays = assignment.delays(dfg, library);
    let starts: Vec<u32> = start.iter().map(|s| s.unwrap_or(1)).collect();
    let schedule = Schedule::new(starts, &delays);
    schedule.validate(dfg, &delays).ok()?;
    // Compact: drop unused units and renumber owners.
    let mut instances: Vec<Instance> = Vec::new();
    let mut owner_map = vec![InstanceId::new(0); dfg.node_count()];
    for unit in units.into_iter().filter(|u| !u.nodes.is_empty()) {
        let id = InstanceId::new(instances.len() as u32);
        for &n in &unit.nodes {
            owner_map[n.index()] = id;
        }
        instances.push(Instance {
            version: unit.version,
            nodes: unit.nodes,
        });
    }
    let binding = Binding::new(instances, owner_map);
    Some((assignment, schedule, binding))
}

/// Full allocation search: the most reliable feasible design over all
/// enumerated allocations, or `None` if none schedules within the bounds.
/// Equivalent to [`best_allocation_design_diag`] at floor 0 with the
/// diagnostics discarded.
pub fn best_allocation_design(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
) -> Option<(Assignment, Schedule, Binding)> {
    let mut diagnostics = Diagnostics::default();
    best_allocation_design_diag(dfg, library, bounds, 0.0, &mut diagnostics)
}

/// The allocation search behind the refine portfolio, seeded with a
/// reliability `floor` the result must match, and recording search
/// facts in `diagnostics` — whether the enumeration cap truncated the
/// candidate set ([`Diagnostics::alloc_cap_hit`]), so a capped search is
/// reported instead of silently presenting a partial optimum as the
/// global one.
///
/// # The floor contract
///
/// Let `naive` be the design that trying every enumerated allocation in
/// order and keeping the first one attaining the maximum reliability
/// produces. The search returns exactly `naive` when its reliability is
/// `>= floor`, and `None` otherwise. At floor 0 it is the plain search.
/// The refine portfolio passes the best reliability among its other
/// starts: it keeps the most reliable start, and on a tie the
/// allocation design (pushed last) wins, so a design below the floor
/// could never have been chosen and one at or above it still is — the
/// portfolio's pick is unchanged, while the search stops paying for
/// allocations that cannot win.
///
/// # How it stays exact
///
/// The scan visits allocations by descending *capacity-aware reliability
/// upper bound* so almost all of them die to sound prunes:
///
/// * *Capacity-aware reliability upper bound* — a unit of version `v`
///   executes at most `⌊Ld / delay(v)⌋` operations within the latency
///   budget, so each class's most reliable versions can cover only that
///   many nodes; the bound gives every node the best version capacity
///   admits. Because the bound is evaluated in floating point, every
///   prune on it keeps a conservative relative margin (scaled to the
///   node count's worst-case rounding error), so an allocation is skipped
///   only when it *provably* cannot reach the threshold — ties and the
///   first-index tie-breaking are unaffected. Against the floor this
///   runs at the enumeration leaf: an allocation whose bound is below
///   `floor × margin` is never stored, sorted, or scheduled. Against the
///   incumbent it runs during the scan.
/// * *Latency lower bound* (exact) — the critical path weighted by each
///   class's fastest delay *available in the allocation* floors every
///   achievable latency; an allocation whose floor exceeds
///   `bounds.latency` would make [`schedule_on_allocation`] return
///   `None` anyway.
/// * *Ceiling* — once the incumbent assigns every node its class's most
///   reliable version, only earlier-enumerated allocations (which could
///   tie and take the first-index rule) still need evaluating.
///
/// Dropping allocations at the leaf never changes which ones the cap
/// truncates: the cap counts every enumerated leaf, kept or not, so
/// `alloc_cap_hit` is the same at every floor.
pub fn best_allocation_design_diag(
    dfg: &Dfg,
    library: &Library,
    bounds: Bounds,
    floor: f64,
    diagnostics: &mut Diagnostics,
) -> Option<(Assignment, Schedule, Binding)> {
    let span = rchls_telemetry::span!(timed: "alloc");
    let _record_on_exit = AllocPhaseTimer(&span);
    let mut scratch = AllocScratch::default();
    if !scratch.prepare(dfg) {
        return None;
    }
    let slots = OpClass::ALL.len();
    debug_assert!(slots <= 8, "class_mins uses a fixed-width row");
    let class_slot = |c: OpClass| -> usize {
        OpClass::ALL
            .iter()
            .position(|&x| x == c)
            .expect("every class is listed in OpClass::ALL")
    };
    let class_nodes: Vec<u64> = OpClass::ALL
        .iter()
        .map(|&c| dfg.count_class(c) as u64)
        .collect();
    let versions = allocation_versions(dfg, library);
    // Per version: class slot, delay, reliability, and how many nodes one
    // unit can run within the latency budget.
    let version_slot: Vec<usize> = versions
        .iter()
        .map(|&v| class_slot(library.version(v).class()))
        .collect();
    let delay: Vec<u32> = versions
        .iter()
        .map(|&v| library.version(v).delay())
        .collect();
    let reliability: Vec<f64> = versions
        .iter()
        .map(|&v| library.version(v).reliability().value())
        .collect();
    let unit_capacity: Vec<u64> = delay
        .iter()
        .map(|&d| u64::from(bounds.latency / d.max(1)))
        .collect();
    // Per class: its version positions, most reliable first (a stable
    // sort, so library order breaks reliability ties).
    let mut by_reliability: Vec<Vec<usize>> = vec![Vec::new(); slots];
    for (i, &slot) in version_slot.iter().enumerate() {
        by_reliability[slot].push(i);
    }
    for order in &mut by_reliability {
        order.sort_by(|&a, &b| reliability[b].total_cmp(&reliability[a]));
    }
    // Worst-case relative rounding slack of the bound product vs the
    // exact fold `design_reliability` performs.
    let margin = 1.0 - (dfg.node_count() as f64 + 8.0) * 4.0 * f64::EPSILON;
    let floor_threshold = floor * margin;

    // The allocations that clear the floor: flat count rows, the
    // per-class fastest delay, and (bound, enumeration index, row).
    let stride = versions.len();
    let mut rows: Vec<u32> = Vec::new();
    let mut class_mins: Vec<[u32; 8]> = Vec::new();
    let mut metas: Vec<(f64, usize, usize)> = Vec::new();
    let mut enumerated = 0usize;
    let capped = for_each_allocation(dfg, library, &versions, bounds.area, &mut |counts| {
        let idx = enumerated;
        enumerated += 1;
        // Give every node the most reliable version capacity admits.
        let mut ub = 1.0f64;
        for (slot, &nodes) in class_nodes.iter().enumerate() {
            let mut left = nodes;
            if left == 0 {
                continue;
            }
            for &i in &by_reliability[slot] {
                if counts[i] == 0 {
                    continue;
                }
                let here = left.min(u64::from(counts[i]) * unit_capacity[i]);
                ub *= reliability[i].powi(i32::try_from(here).unwrap_or(i32::MAX));
                left -= here;
                if left == 0 {
                    break;
                }
            }
            if left > 0 {
                // Not enough unit capacity to run every node: the list
                // scheduler cannot finish in time, so the allocation is
                // infeasible outright.
                ub = 0.0;
                break;
            }
        }
        if ub < floor_threshold {
            return;
        }
        let mut mins = [u32::MAX; 8];
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 {
                mins[version_slot[i]] = mins[version_slot[i]].min(delay[i]);
            }
        }
        metas.push((ub, idx, class_mins.len()));
        class_mins.push(mins);
        rows.extend_from_slice(counts);
    });
    diagnostics.alloc_cap_hit |= capped;
    // Highest bound first; enumeration index breaks ties so the original
    // scan's tie winner (smallest index) is met first.
    metas.sort_by(|(ua, ia, _), (ub, ib, _)| ub.total_cmp(ua).then(ia.cmp(ib)));

    let mut longest = vec![0u32; dfg.node_count()];
    let mut allocation: Vec<(VersionId, u32)> = Vec::new();
    let mut list_scheduled = 0u64;
    let mut best: Option<(f64, usize, (Assignment, Schedule, Binding))> = None;
    // Set once the incumbent assigns every node its class's most
    // reliable version. The serial-product fold is monotone in each
    // factor (replacing a factor with a larger one never decreases the
    // rounded product), so no assignment evaluates above that
    // incumbent's reliability — any later allocation can at best *tie*,
    // and a tie only wins the (max reliability, first index) rule from a
    // smaller enumeration index.
    let mut best_is_ceiling = false;
    for &(ub, idx, row) in &metas {
        if let Some((brel, bidx, _)) = &best {
            // Incumbent prune: sound because `ub / margin` dominates
            // every reliability the allocation's assignments can
            // evaluate to, rounding included. Skips only strict losers,
            // so the final (max reliability, first index) winner is
            // unchanged.
            if ub < brel * margin {
                continue;
            }
            // Ceiling prune: the incumbent already attains the global
            // assignment-product maximum, so only earlier-enumerated
            // allocations (which could tie and take the first-index
            // rule) still need evaluating. This is what stops slack
            // area bounds from scheduling tens of thousands of
            // capacity-saturated lookalikes.
            if best_is_ceiling && idx > *bidx {
                continue;
            }
        }
        // Exact latency lower bound.
        let mins = &class_mins[row];
        let mut lb = 0u32;
        for &n in &scratch.topo {
            let down = dfg
                .preds(n)
                .iter()
                .map(|&p| longest[p.index()])
                .max()
                .unwrap_or(0);
            let d = mins[class_slot(dfg.node(n).class())];
            debug_assert!(d != u32::MAX, "allocation covers every used class");
            longest[n.index()] = down + d;
            lb = lb.max(longest[n.index()]);
        }
        if lb > bounds.latency {
            continue;
        }
        allocation.clear();
        allocation.extend(allocation_pairs(
            &versions,
            &rows[row * stride..(row + 1) * stride],
        ));
        list_scheduled += 1;
        if let Some(cand) =
            schedule_on_allocation_in(dfg, library, &allocation, bounds.latency, &mut scratch)
        {
            debug_assert!(cand.2.total_area(library) <= bounds.area);
            let rel = cand.0.design_reliability(library).value();
            let better = best
                .as_ref()
                .is_none_or(|(brel, bidx, _)| rel > *brel || (rel == *brel && idx < *bidx));
            if better {
                best_is_ceiling = cand
                    .0
                    .iter()
                    .all(|(n, v)| Some(v) == library.most_reliable_id(dfg.node(n).class()));
                best = Some((rel, idx, cand));
            }
        }
    }
    crate::obs::alloc_search_enumerated().add(enumerated as u64);
    crate::obs::alloc_search_floor_pruned().add((enumerated - metas.len()) as u64);
    crate::obs::alloc_search_list_scheduled().add(list_scheduled);
    // The floor prune is sound but not tight: a kept allocation can
    // still evaluate below the floor, and then so can the winner.
    best.filter(|(rel, ..)| *rel >= floor).map(|(.., d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_dfg::{DfgBuilder, OpKind};

    fn pair() -> Dfg {
        DfgBuilder::new("pair")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap()
    }

    #[test]
    fn enumeration_respects_area_and_coverage() {
        let g = pair();
        let lib = Library::table1();
        let allocs = enumerate_allocations(&g, &lib, 4);
        assert!(!allocs.is_empty());
        for alloc in &allocs {
            let area: u32 = alloc.iter().map(|&(v, n)| lib.version(v).area() * n).sum();
            assert!(area <= 4);
            assert!(alloc.iter().any(|&(_, n)| n > 0));
            // Only adder-class versions appear (graph has no multiplies).
            for &(v, _) in alloc {
                assert_eq!(lib.version(v).class(), OpClass::Adder);
            }
        }
        // {1x adder1}, {2x adder1}, {1x adder2}, {1x adder3}, {a1+a2}, ...
        assert!(allocs.len() >= 5);
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

    #[test]
    fn enumeration_cap_is_reported_not_silent() {
        // Small graphs under tight bounds never hit the cap...
        let g = pair();
        let lib = Library::table1();
        let (allocs, capped) = enumerate_allocations_with_cap(&g, &lib, 4);
        assert!(!capped);
        assert!(!allocs.is_empty());
        // ... but a wide graph under an absurd area budget exceeds the
        // combinatorial cap, and the flag must say so (the allocation
        // search surfaces it as `Diagnostics::alloc_cap_hit`).
        let wide = rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
            nodes: 48,
            layers: 4,
            seed: 11,
            ..Default::default()
        });
        let (allocs, capped) = enumerate_allocations_with_cap(&wide, &lib, 10_000);
        assert!(capped, "{} allocations", allocs.len());
        assert!(allocs.len() <= MAX_ALLOCATIONS);
        // The non-reporting wrapper still returns the same truncated set.
        assert_eq!(allocs, enumerate_allocations(&wide, &lib, 10_000));
    }

    /// The naive reference: schedule every allocation in enumeration
    /// order, keep the first one attaining the maximum reliability.
    fn naive_best(dfg: &Dfg, lib: &Library, bounds: Bounds) -> Option<(f64, Design)> {
        let mut best: Option<(f64, usize, Design)> = None;
        for (idx, alloc) in enumerate_allocations(dfg, lib, bounds.area)
            .iter()
            .enumerate()
        {
            if let Some(cand) = schedule_on_allocation(dfg, lib, alloc, bounds.latency) {
                let rel = cand.0.design_reliability(lib).value();
                if best
                    .as_ref()
                    .is_none_or(|(brel, bidx, _)| rel > *brel || (rel == *brel && idx < *bidx))
                {
                    best = Some((rel, idx, cand));
                }
            }
        }
        best.map(|(rel, _, d)| (rel, d))
    }

    type Design = (Assignment, Schedule, Binding);

    #[test]
    fn pruned_search_matches_the_naive_full_scan() {
        // The documented contract: the bound-guided scan at floor `f`
        // returns exactly the naive scan's winner when it reaches `f`,
        // and nothing otherwise. Slack bounds exercise the ceiling prune
        // (the all-most-reliable incumbent), tight bounds the margin
        // prune; the floors straddle the winner's reliability by one ulp
        // on each side.
        let lib = Library::table1();
        for (nodes, layers, seed) in [(10usize, 3usize, 0u64), (14, 4, 3), (12, 3, 7)] {
            let g = rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
                nodes,
                layers,
                seed,
                ..Default::default()
            });
            for bounds in [
                Bounds::new(layers as u32 + 1, 4),
                Bounds::new(layers as u32 + 3, 8),
                Bounds::new(2 * layers as u32 + 4, 16),
            ] {
                let naive = naive_best(&g, &lib, bounds);
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
                assert_eq!(
                    best_allocation_design(&g, &lib, bounds),
                    naive.clone().map(|(_, d)| d),
                    "{nodes}x{layers}@{seed} at {bounds}"
                );
                for floor in floors {
                    let expected = naive
                        .clone()
                        .filter(|(rel, _)| *rel >= floor)
                        .map(|(_, d)| d);
                    let mut diagnostics = Diagnostics::default();
                    let pruned =
                        best_allocation_design_diag(&g, &lib, bounds, floor, &mut diagnostics);
                    assert_eq!(
                        pruned, expected,
                        "{nodes}x{layers}@{seed} at {bounds}, floor {floor}"
                    );
                }
            }
        }
    }

    #[test]
    fn floor_never_changes_the_cap_flag() {
        // The cap counts enumeration leaves whether or not the floor
        // keeps them, so a search that drops every allocation still
        // reports the truncation the full enumeration hits.
        let lib = Library::table1();
        let wide = rchls_workloads::random_layered_dfg(&rchls_workloads::RandomDfgConfig {
            nodes: 48,
            layers: 4,
            seed: 11,
            ..Default::default()
        });
        let bounds = Bounds::new(8, 10_000);
        let (_, capped) = enumerate_allocations_with_cap(&wide, &lib, bounds.area);
        assert!(capped);
        let mut diagnostics = Diagnostics::default();
        let design = best_allocation_design_diag(&wide, &lib, bounds, 1.0, &mut diagnostics);
        assert!(design.is_none(), "no design reaches reliability 1");
        assert!(diagnostics.alloc_cap_hit);
    }

    #[test]
    fn diag_variant_mirrors_plain_search_and_records_completeness() {
        let g = pair();
        let lib = Library::table1();
        let bounds = Bounds::new(4, 4);
        let mut diagnostics = Diagnostics::default();
        let diag = best_allocation_design_diag(&g, &lib, bounds, 0.0, &mut diagnostics);
        let plain = best_allocation_design(&g, &lib, bounds);
        assert_eq!(diag, plain);
        // An uncapped enumeration reports a complete search.
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
        assert!(best_allocation_design(&g, &lib, Bounds::new(11, 8)).is_none());
        let got = best_allocation_design(&g, &lib, Bounds::new(11, 9));
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
