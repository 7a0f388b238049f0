//! The [`Strategy`] trait — a whole synthesis algorithm as a pluggable
//! value — plus the request/report types and the `ours` and
//! `redundancy` strategies. The other three built-ins live with their
//! algorithms: [`Baseline`](crate::flow::Baseline),
//! [`Combined`](crate::flow::Combined) and
//! [`Pipelined`](crate::flow::Pipelined).

use crate::bounds::Bounds;
use crate::design::Design;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowSpec};
use crate::redundancy::{add_redundancy_with_model, RedundancyModel};
use crate::scratch::ScratchPool;
use crate::synth::Synthesizer;
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};

/// Everything a strategy needs to synthesize one design point.
#[derive(Debug, Clone)]
pub struct SynthRequest<'a> {
    /// The data-flow graph to synthesize.
    pub dfg: &'a Dfg,
    /// The reliability-characterized resource library.
    pub library: &'a Library,
    /// The latency and area bounds.
    pub bounds: Bounds,
    /// The pass composition (scheduler/binder/victim/refine ids).
    pub flow: FlowSpec,
    /// The redundancy growth model for strategies that replicate units.
    pub redundancy: RedundancyModel,
    /// Session scratch pool the strategy's synthesizers borrow arenas
    /// from (`None` = allocate per run).
    scratch_pool: Option<&'a ScratchPool>,
    /// Session-interned uniform start pools (`None` = recompute per
    /// run).
    starts_cache: Option<&'a crate::engine::StartsCache>,
}

impl<'a> SynthRequest<'a> {
    /// A request with the default flow and redundancy model.
    #[must_use]
    pub fn new(dfg: &'a Dfg, library: &'a Library, bounds: Bounds) -> SynthRequest<'a> {
        SynthRequest {
            dfg,
            library,
            bounds,
            flow: FlowSpec::default(),
            redundancy: RedundancyModel::default(),
            scratch_pool: None,
            starts_cache: None,
        }
    }

    /// Replaces the flow spec.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowSpec) -> SynthRequest<'a> {
        self.flow = flow;
        self
    }

    /// Replaces the redundancy model.
    #[must_use]
    pub fn with_redundancy(mut self, model: RedundancyModel) -> SynthRequest<'a> {
        self.redundancy = model;
        self
    }

    /// Attaches a session [`ScratchPool`]; strategies hand it to every
    /// [`Synthesizer`] they construct so repeated points share arenas.
    #[must_use]
    pub(crate) fn with_scratch_pool(mut self, pool: &'a ScratchPool) -> SynthRequest<'a> {
        self.scratch_pool = Some(pool);
        self
    }

    /// The attached session scratch pool, if any.
    #[must_use]
    pub(crate) fn scratch_pool(&self) -> Option<&'a ScratchPool> {
        self.scratch_pool
    }

    /// Attaches a session [`StartsCache`](crate::engine::StartsCache);
    /// refining flows then intern their uniform start pools per
    /// `(graph, library, bounds, scheduler, binder)` instead of
    /// rescheduling them for every point.
    #[must_use]
    pub(crate) fn with_starts_cache(
        mut self,
        cache: &'a crate::engine::StartsCache,
    ) -> SynthRequest<'a> {
        self.starts_cache = Some(cache);
        self
    }

    /// The attached session starts cache, if any.
    #[must_use]
    pub(crate) fn starts_cache(&self) -> Option<&'a crate::engine::StartsCache> {
        self.starts_cache
    }
}

/// A strategy's full output: the design plus the diagnostics trace that
/// explains how the design was reached.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthReport {
    /// The synthesized design.
    pub design: Design,
    /// What the strategy did to get there.
    pub diagnostics: Diagnostics,
}

impl SynthReport {
    /// Approximate total footprint in bytes (including
    /// `size_of::<SynthReport>()`) — the size-accounting input for
    /// budgeted caches.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        size_of::<SynthReport>()
            + self.design.approx_heap_bytes()
            + self.diagnostics.approx_heap_bytes()
    }
}

/// A complete synthesis algorithm, dispatched by id.
///
/// The built-in ids are `baseline`, `ours`, `combined`, `pipelined`, and
/// `redundancy`; out-of-tree strategies join the same namespace via
/// [`crate::flow::register_strategy`]. Sweep drivers, the CLI, and the
/// explorer dispatch exclusively through this trait.
pub trait Strategy: Send + Sync {
    /// The stable registry id (e.g. `"ours"`).
    fn id(&self) -> &str;

    /// A one-line human description for `rchls flows`-style listings.
    fn description(&self) -> &str {
        ""
    }

    /// The token synthesis caches key this strategy under. Defaults to
    /// [`id`](Strategy::id); strategies carrying extra parameters that
    /// change their output (e.g. a pipelining initiation interval) must
    /// fold them in so differently-parameterized runs never collide.
    fn fingerprint_token(&self) -> String {
        self.id().to_owned()
    }

    /// Synthesizes one design point.
    ///
    /// # Errors
    ///
    /// Returns a [`SynthesisError`] when no feasible design exists under
    /// the request's bounds (or the flow names unknown passes).
    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError>;
}

/// The paper's reliability-centric approach (Figure 6 plus the flow's
/// refine pass). Id `"ours"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ours;

impl Strategy for Ours {
    fn id(&self) -> &str {
        "ours"
    }

    fn description(&self) -> &str {
        "reliability-centric version selection (the paper's Figure 6 + refinement)"
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        Synthesizer::for_request(request)?.synthesize_report(request.bounds)
    }
}

/// Pure redundancy over the best *single-version* design: every uniform
/// one-version-per-class assignment that meets the bounds is scheduled at
/// the full latency budget (maximal sharing), the leftover area is spent
/// on replication, and the most reliable outcome wins. Id `"redundancy"`.
///
/// The baseline's fastest-version design is one point of this space, so
/// this strategy never scores below `"baseline"` at equal bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Redundancy;

impl Strategy for Redundancy {
    fn id(&self) -> &str {
        "redundancy"
    }

    fn description(&self) -> &str {
        "best single-version design + modular redundancy (redundancy-only search)"
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        let span = rchls_telemetry::span!(timed: "strategy.redundancy");
        let synth = Synthesizer::for_request(request)?;
        let starts = synth.uniform_feasible_starts(request.bounds)?;
        let mut diagnostics = Diagnostics::default();
        diagnostics
            .candidate_pool_sizes
            .push(u32::try_from(starts.len()).unwrap_or(u32::MAX));
        let mut best: Option<(Design, u32)> = None;
        for state in starts {
            diagnostics.loop_iterations += 1;
            let replication = vec![1u32; state.binding.instance_count()];
            let mut design = Design::assemble(
                request.dfg,
                request.library,
                state.assignment,
                state.schedule,
                state.binding,
                replication,
            );
            let moves = add_redundancy_with_model(
                &mut design,
                request.dfg,
                request.library,
                request.bounds.area,
                request.redundancy,
            );
            let better = best
                .as_ref()
                .is_none_or(|(b, _)| design.reliability.value() > b.reliability.value());
            if better {
                best = Some((design, moves));
            } else {
                diagnostics.rejected_moves += 1;
            }
        }
        let (design, moves) = best.ok_or_else(|| SynthesisError::NoSolution {
            reason: format!(
                "no single-version design meets {} for redundancy insertion",
                request.bounds
            ),
        })?;
        diagnostics.redundancy_moves = moves;
        synth.harvest_timers(&mut diagnostics);
        diagnostics.wall_time_micros = span.elapsed_micros();
        Ok(SynthReport {
            design,
            diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Baseline, Combined, Pipelined};
    use rchls_dfg::{DfgBuilder, OpKind};

    fn figure4a() -> Dfg {
        DfgBuilder::new("figure4a")
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
    fn unknown_flow_ids_fail_cleanly() {
        let g = figure4a();
        let lib = Library::table1();
        let req = SynthRequest::new(&g, &lib, Bounds::new(6, 4))
            .with_flow(FlowSpec::default().with_scheduler("warp"));
        for s in [&Ours as &dyn Strategy, &Baseline, &Combined, &Redundancy] {
            let err = s.run(&req).unwrap_err();
            assert!(
                matches!(err, SynthesisError::UnknownPass { .. }),
                "{}",
                s.id()
            );
        }
    }

    #[test]
    fn redundancy_strategy_never_scores_below_baseline() {
        let g = figure4a();
        let lib = Library::table1();
        for bounds in [Bounds::new(6, 4), Bounds::new(8, 8), Bounds::new(5, 6)] {
            let req = SynthRequest::new(&g, &lib, bounds);
            let red = Redundancy.run(&req).unwrap();
            let base = Baseline.run(&req).unwrap();
            assert!(
                red.design.reliability.value() + 1e-12 >= base.design.reliability.value(),
                "redundancy below baseline at {bounds}"
            );
            assert!(red.design.area <= bounds.area);
            assert!(red.design.latency <= bounds.latency);
        }
    }

    #[test]
    fn pipelined_fingerprint_tokens_separate_intervals() {
        assert_eq!(Pipelined::auto().fingerprint_token(), "pipelined@auto");
        assert_eq!(Pipelined::with_ii(3).fingerprint_token(), "pipelined@ii=3");
        assert_eq!(Ours.fingerprint_token(), "ours");
        assert_eq!(Pipelined::auto().effective_ii(Bounds::new(8, 4)), 4);
        assert_eq!(Pipelined::auto().effective_ii(Bounds::new(1, 4)), 1);
        assert_eq!(Pipelined::with_ii(2).effective_ii(Bounds::new(8, 4)), 2);
    }

    #[test]
    #[should_panic(expected = "initiation interval")]
    fn zero_interval_is_rejected() {
        let _ = Pipelined::with_ii(0);
    }

    #[test]
    fn reports_carry_wall_time_and_scrub_cleanly() {
        let g = figure4a();
        let lib = Library::table1();
        let report = Combined
            .run(&SynthRequest::new(&g, &lib, Bounds::new(8, 8)))
            .unwrap();
        let scrubbed = report.diagnostics.scrubbed();
        assert_eq!(scrubbed.wall_time_micros, 0);
        // Serde round-trip of the full report.
        let v = Serialize::to_value(&report);
        let back: SynthReport = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, report);
    }
}
