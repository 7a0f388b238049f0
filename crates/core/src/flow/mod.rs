//! The open synthesis-flow API: pass traits, the strategy trait, the
//! id-keyed registry, and the diagnostics-carrying report types.
//!
//! Synthesis is composed from four *pass* slots — [`Scheduler`],
//! [`Binder`], [`VictimPolicy`], and [`RefinePass`] — named by stable
//! string ids in a [`FlowSpec`]. Whole algorithms implement [`Strategy`]
//! and run a [`SynthRequest`] into a [`SynthReport`] whose
//! [`Diagnostics`] make the search inspectable (victim moves, rejected
//! moves, loop iterations, candidate-pool sizes, wall time).
//!
//! Everything resolves through a process-global registry, so out-of-tree
//! crates extend the flow without touching `rchls-core`: implement a
//! trait, call the matching `register_*` function once, and every
//! consumer (CLI flags, sweep drivers, the `rchls-explorer` engine) can
//! name the new id. See [`register_scheduler`] for a worked example.
//!
//! # Examples
//!
//! Run a built-in strategy through the trait API:
//!
//! ```
//! use rchls_core::{flow, Bounds, FlowSpec, SynthRequest};
//! use rchls_reslib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dfg = rchls_workloads::figure4a();
//! let library = Library::table1();
//! let strategy = flow::strategy("ours").expect("built-in");
//! let report = strategy.run(
//!     &SynthRequest::new(&dfg, &library, Bounds::new(6, 4))
//!         .with_flow(FlowSpec::default().with_victim("min-reliability-loss")),
//! )?;
//! assert!(report.design.latency <= 6);
//! println!("loop iterations: {}", report.diagnostics.loop_iterations);
//! # Ok(())
//! # }
//! ```

mod diagnostics;
mod passes;
mod refine;
mod registry;
mod spec;
mod strategy;

pub use crate::baseline::Baseline;
pub use crate::combined::Combined;
pub use crate::pipelined::Pipelined;
pub use diagnostics::Diagnostics;
pub use passes::{
    Binder, ColoringBinder, DensityScheduler, FlowState, ForceDirectedScheduler, LeftEdgeBinder,
    MaxDelayVictim, MinReliabilityLossVictim, NoRefine, RefinePass, Scheduler, VictimPolicy,
};
pub use refine::GreedyRefine;
pub use registry::{
    binder, binder_ids, refine_pass, refine_pass_ids, register_binder, register_refine_pass,
    register_scheduler, register_strategy, register_victim_policy, scheduler, scheduler_ids,
    strategy, strategy_ids, victim_policy, victim_policy_ids, RegistryError,
};
pub use spec::{FlowSpec, ResolvedFlow};
pub use strategy::{Ours, Redundancy, Strategy, SynthReport, SynthRequest};
