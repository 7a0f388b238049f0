//! Parallel design-space exploration for reliability-centric HLS.
//!
//! The paper's entire evaluation is a design-space sweep: synthesize the
//! same data-flow graph under a grid of `(latency, area)` bounds with
//! three strategies, and compare. This crate is that sweep, run on a
//! session [`rchls_core::Engine`] — the engine supplies the library, the
//! worker pool, the cache tiers (memory and on-disk store) and the cache
//! budget:
//!
//! * [`explore`] — fans `(bounds × strategy)` jobs for each benchmark
//!   over the engine's executor with **deterministic, input-ordered
//!   results** (a parallel run is byte-identical to a serial one) and
//!   assembles feasibility-inherited Table-2 rows ([`SweepRow`]);
//! * [`explore_shard`] / [`merge`] and [`CheckpointedSweep`] — the same
//!   fan-out over a slice of the grid, for sharded and resumable sweeps;
//! * [`ParetoArchive`] — maintains the non-dominated frontier over
//!   achieved `(latency, area, reliability)` with dominance pruning and
//!   a deterministic iteration order;
//! * [`export`] — JSON and CSV renderings of frontiers and sweep tables.
//!
//! Strategies and passes are addressed by registry id through the
//! [`rchls_core::Strategy`] trait, so out-of-tree passes sweep and
//! cache exactly like built-ins, and every feasible point carries the
//! [`rchls_core::Diagnostics`] of its run (wall time scrubbed so
//! artifacts stay deterministic).
//!
//! # Examples
//!
//! Explore two benchmarks in parallel and print the Pareto frontier:
//!
//! ```
//! use rchls_core::{Engine, FlowSpec, RedundancyModel};
//! use rchls_explorer::{explore, ExploreTask};
//! use rchls_reslib::Library;
//!
//! let engine = Engine::new(Library::table1()).with_jobs(4);
//! let tasks = vec![
//!     ExploreTask::new("figure4a", rchls_workloads::figure4a(), vec![(5, 4), (6, 6)]),
//!     ExploreTask::new("diffeq", rchls_workloads::diffeq(), vec![(6, 11), (7, 9)]),
//! ];
//! let (flow, model) = (FlowSpec::default(), RedundancyModel::default());
//! let out = explore(&engine, &tasks, &flow, model);
//! assert_eq!(out.sweeps.len(), 2);
//! assert!(!out.frontier.is_empty());
//! // Re-running the same tasks is answered entirely from the session cache.
//! let before = engine.cache_stats().misses;
//! assert_eq!(explore(&engine, &tasks, &flow, model), out);
//! assert_eq!(engine.cache_stats().misses, before);
//! println!("{}", rchls_explorer::export::frontier_table(&out.frontier));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explore;
pub mod export;
mod pareto;
pub mod resume;
pub mod shard;

pub use explore::{
    averages, default_grid, explore, format_table, inherit, BenchmarkSweep, Exploration,
    ExploreTask, StrategyDiagnostics, SweepRow, TABLE2_STRATEGIES,
};
pub use pareto::{FrontierPoint, ParetoArchive};
pub use resume::{sweep_fingerprint, CheckpointedSweep, ResumeOutcome, SweepCheckpoint};
pub use shard::{explore_shard, merge, MergeError, SweepShard};
