//! Test-only flow passes: the naive `*-reference` twins of the optimized
//! scheduler, binder and `greedy` refine passes, registered through the
//! public `flow::register_*` API exactly as an out-of-tree crate would.
//!
//! The scheduler and binder twins wrap the retained kernels
//! (`rchls_sched::reference`, `rchls_bind::reference`). The greedy twin is
//! written here on public API only, from the decision procedure in the
//! `flow/refine` module docs: nothing but that spec is shared with the
//! optimized pass, so a bug in any of its caches, screens or comparators
//! shows up as a divergence instead of cancelling out.

use rchls_bind::{reference as bind_reference, Assignment, Binding};
use rchls_core::alloc_search::best_allocation_design_diag;
use rchls_core::flow::{self, Binder, FlowState, RefinePass, Scheduler};
use rchls_core::{Bounds, Diagnostics, SynthesisError, Synthesizer};
use rchls_dfg::{Dfg, NodeId, OpClass};
use rchls_reslib::{Library, LibraryError, VersionId};
use rchls_sched::{reference as sched_reference, Delays, Schedule, ScheduleError};
use std::sync::{Arc, Once};

/// Registers every reference pass once per test process; later calls
/// are no-ops, so each test that names a `*-reference` id calls this
/// first.
pub fn register_reference_passes() {
    static REGISTERED: Once = Once::new();
    REGISTERED.call_once(|| {
        let taken = "reference pass ids are free in a test process";
        flow::register_scheduler(Arc::new(DensityReference)).expect(taken);
        flow::register_scheduler(Arc::new(ForceDirectedReference)).expect(taken);
        flow::register_binder(Arc::new(LeftEdgeReference)).expect(taken);
        flow::register_binder(Arc::new(ColoringReference)).expect(taken);
        flow::register_refine_pass(Arc::new(GreedyReference { seeded: true })).expect(taken);
        flow::register_refine_pass(Arc::new(GreedyReference { seeded: false })).expect(taken);
    });
}

/// `density-reference`: full recomputation per placement.
struct DensityReference;

impl Scheduler for DensityReference {
    fn id(&self) -> &str {
        "density-reference"
    }

    fn schedule(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
    ) -> Result<Schedule, ScheduleError> {
        sched_reference::schedule_density_reference(dfg, delays, latency)
    }
}

/// `force-directed-reference`: recomputes every distribution graph and
/// candidate force each iteration.
struct ForceDirectedReference;

impl Scheduler for ForceDirectedReference {
    fn id(&self) -> &str {
        "force-directed-reference"
    }

    fn schedule(
        &self,
        dfg: &Dfg,
        delays: &Delays,
        latency: u32,
    ) -> Result<Schedule, ScheduleError> {
        sched_reference::schedule_force_directed_reference(dfg, delays, latency)
    }
}

/// `left-edge-reference`: `BTreeMap` grouping plus comparison sorts.
struct LeftEdgeReference;

impl Binder for LeftEdgeReference {
    fn id(&self) -> &str {
        "left-edge-reference"
    }

    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding {
        bind_reference::bind_left_edge_reference(dfg, schedule, assignment, library)
    }
}

/// `coloring-reference`: per-pass node-list clones and `BTreeMap`
/// conflict walks.
struct ColoringReference;

impl Binder for ColoringReference {
    fn id(&self) -> &str {
        "coloring-reference"
    }

    fn bind(
        &self,
        dfg: &Dfg,
        schedule: &Schedule,
        assignment: &Assignment,
        library: &Library,
    ) -> Binding {
        bind_reference::bind_coloring_reference(dfg, schedule, assignment, library)
    }
}

/// Gains at or below this are "no improvement" (the procedure's stop
/// threshold).
const GAIN_EPSILON: f64 = 1e-15;

/// `greedy-reference` (seeded, the procedure as specified) and
/// `greedy-reference-unseeded` (the allocation search runs with floor 0,
/// for checking that the seed never changes the pick): every quantity is
/// re-derived per candidate — full reliability products, full ASAP
/// latency, a recounted area floor — and the start pool is recomputed on
/// every call, never taken from a session cache.
struct GreedyReference {
    seeded: bool,
}

impl RefinePass for GreedyReference {
    fn id(&self) -> &str {
        if self.seeded {
            "greedy-reference"
        } else {
            "greedy-reference-unseeded"
        }
    }

    fn run(
        &self,
        synth: &Synthesizer<'_>,
        figure6: Result<FlowState, SynthesisError>,
        bounds: Bounds,
        diagnostics: &mut Diagnostics,
    ) -> Result<FlowState, SynthesisError> {
        let start = portfolio(synth, figure6, bounds, diagnostics, self.seeded)?;
        upgrade(synth, start, bounds, diagnostics)
    }
}

/// The critical-path latency of `assignment`, from a full ASAP schedule.
fn min_latency(
    dfg: &Dfg,
    library: &Library,
    assignment: &Assignment,
) -> Result<u32, SynthesisError> {
    Ok(rchls_sched::asap(dfg, &assignment.delays(dfg, library))?.latency())
}

/// Every uniform one-version-per-class assignment, counted in mixed
/// radix over the used classes (in `OpClass::ALL` order, the last
/// varying fastest; versions in library order).
fn uniform_assignments(dfg: &Dfg, library: &Library) -> Result<Vec<Assignment>, SynthesisError> {
    let mut choices: Vec<(OpClass, Vec<VersionId>)> = Vec::new();
    for class in OpClass::ALL {
        if dfg.count_class(class) == 0 {
            continue;
        }
        let versions: Vec<VersionId> = library.versions_of(class).map(|(id, _)| id).collect();
        if versions.is_empty() {
            return Err(LibraryError::Empty.into());
        }
        choices.push((class, versions));
    }
    if choices.is_empty() {
        return Ok(Vec::new());
    }
    let total: usize = choices.iter().map(|(_, versions)| versions.len()).product();
    let mut out = Vec::with_capacity(total);
    for index in 0..total {
        let mut rest = index;
        let mut pick = vec![VersionId::new(0); choices.len()];
        for (slot, (_, versions)) in choices.iter().enumerate().rev() {
            pick[slot] = versions[rest % versions.len()];
            rest /= versions.len();
        }
        out.push(Assignment::from_fn(dfg, library, |n| {
            let class = dfg.node(n).class();
            let slot = choices.iter().position(|(c, _)| *c == class);
            pick[slot.expect("every used class has a pick")]
        }));
    }
    Ok(out)
}

/// The starting portfolio: the Figure-6 result (when feasible), every
/// uniform design meeting both bounds at the full latency budget, and
/// the best allocation-first design that reaches the floor (the best
/// reliability among the others when `seeded`, else 0). The most
/// reliable member wins; among equals, the last one.
fn portfolio(
    synth: &Synthesizer<'_>,
    figure6: Result<FlowState, SynthesisError>,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
    seeded: bool,
) -> Result<FlowState, SynthesisError> {
    let (dfg, library) = (synth.dfg(), synth.library());
    let reliability = |state: &FlowState| state.assignment.design_reliability(library).value();
    let mut pool: Vec<FlowState> = Vec::new();
    if let Ok(state) = &figure6 {
        pool.push(state.clone());
    }
    for assignment in uniform_assignments(dfg, library)? {
        if min_latency(dfg, library, &assignment)? > bounds.latency {
            continue;
        }
        let (schedule, binding) = synth.schedule_and_bind(&assignment, bounds.latency)?;
        if binding.total_area(library) <= bounds.area {
            pool.push(FlowState {
                assignment,
                schedule,
                binding,
            });
        }
    }
    let mut floor = 0.0;
    if seeded {
        for state in &pool {
            floor = f64::max(floor, reliability(state));
        }
    }
    if let Some((assignment, schedule, binding)) =
        best_allocation_design_diag(dfg, library, bounds, floor, diagnostics)
    {
        pool.push(FlowState {
            assignment,
            schedule,
            binding,
        });
    }
    diagnostics
        .candidate_pool_sizes
        .push(u32::try_from(pool.len()).expect("a small pool"));
    let mut best: Option<(f64, FlowState)> = None;
    for state in pool {
        let r = reliability(&state);
        if best.as_ref().is_none_or(|(top, _)| r >= *top) {
            best = Some((r, state));
        }
    }
    // An empty pool means Figure 6 failed too: its error is the answer.
    best.map_or(figure6, |(_, state)| Ok(state))
}

/// One upgrade candidate: `node` moves to `version` (the `order`-th
/// version of its class) for a reliability gain of `gain`.
struct Move {
    gain: f64,
    node: NodeId,
    order: usize,
    version: VersionId,
}

/// Orders the queue by gain (largest first), then node index, then
/// version order.
fn by_priority(a: &Move, b: &Move) -> std::cmp::Ordering {
    match b.gain.total_cmp(&a.gain) {
        std::cmp::Ordering::Equal => match a.node.index().cmp(&b.node.index()) {
            std::cmp::Ordering::Equal => a.order.cmp(&b.order),
            node_order => node_order,
        },
        gain_order => gain_order,
    }
}

/// A lower bound on any valid binding's area: a unit of version `v` runs
/// at most `⌊Ld / delay(v)⌋` operations within the budget, so `count`
/// operations need `⌈count / capacity⌉` units of it.
fn area_floor(library: &Library, assignment: &Assignment, latency_bound: u32) -> u64 {
    let mut counts = vec![0u32; library.iter().count()];
    for (_, v) in assignment.iter() {
        counts[v.index()] += 1;
    }
    let mut floor = 0u64;
    for (slot, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let version = library.version(VersionId::new(slot as u32));
        let capacity = latency_bound / version.delay().max(1);
        if capacity == 0 {
            floor += u64::MAX / 2;
            continue;
        }
        floor += u64::from(count).div_ceil(u64::from(capacity)) * u64::from(version.area());
    }
    floor
}

/// The upgrade loop: each iteration takes the first move of the
/// priority-ordered queue that survives the latency test, the area
/// floor and a real schedule-and-bind at the full latency budget, and
/// stops at the first move whose gain is within [`GAIN_EPSILON`] or
/// when no move survives.
fn upgrade(
    synth: &Synthesizer<'_>,
    mut state: FlowState,
    bounds: Bounds,
    diagnostics: &mut Diagnostics,
) -> Result<FlowState, SynthesisError> {
    let (dfg, library) = (synth.dfg(), synth.library());
    loop {
        diagnostics.loop_iterations += 1;
        let current = state.assignment.design_reliability(library).value();
        let mut queue = Vec::new();
        for node in dfg.node_ids() {
            let held = library
                .version(state.assignment.version(node))
                .reliability()
                .value();
            for (order, (version, unit)) in library.versions_of(dfg.node(node).class()).enumerate()
            {
                if unit.reliability().value() <= held {
                    continue;
                }
                let mut swapped = state.assignment.clone();
                swapped.set(node, version);
                queue.push(Move {
                    gain: swapped.design_reliability(library).value() - current,
                    node,
                    order,
                    version,
                });
            }
        }
        queue.sort_by(by_priority);

        let mut winner = None;
        for candidate in &queue {
            if candidate.gain <= GAIN_EPSILON {
                diagnostics.rejected_moves += 1;
                break;
            }
            let mut assignment = state.assignment.clone();
            assignment.set(candidate.node, candidate.version);
            if min_latency(dfg, library, &assignment)? > bounds.latency
                || area_floor(library, &assignment, bounds.latency) > u64::from(bounds.area)
            {
                diagnostics.rejected_moves += 1;
                continue;
            }
            let (schedule, binding) = synth.schedule_and_bind(&assignment, bounds.latency)?;
            if binding.total_area(library) > bounds.area {
                diagnostics.rejected_moves += 1;
                continue;
            }
            winner = Some(FlowState {
                assignment,
                schedule,
                binding,
            });
            break;
        }
        match winner {
            Some(next) => {
                diagnostics.refine_upgrades += 1;
                state = next;
            }
            None => return Ok(state),
        }
    }
}
