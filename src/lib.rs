//! # rc-hls — Reliability-Centric High-Level Synthesis
//!
//! An open-source reproduction of *"Reliability-Centric High-Level
//! Synthesis"* (Tosun, Mansouri, Arvas, Kandemir, Xie — DATE 2005): a
//! high-level synthesis flow that maximizes a data path's soft-error
//! reliability under latency and area bounds by selecting among several
//! reliability-characterized versions of each functional unit.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`dfg`] — data-flow graphs and graph algorithms;
//! * [`relmath`] — reliability mathematics (serial/parallel models, NMR);
//! * [`netlist`] — gate-level netlists and soft-error fault injection;
//! * [`reslib`] — the characterized resource library (Table 1) and the
//!   Q_critical → SER → failure rate → reliability chain (Figure 2);
//! * [`sched`] — ASAP/ALAP, partition-density, force-directed and list
//!   scheduling;
//! * [`bind`] — version assignments, left-edge and coloring binders;
//! * [`core`] — the Figure-6 synthesis algorithm, the NMR baseline, the
//!   combined approach, the dual-objective extensions, and the two ways
//!   to run them: the trait-based flow/strategy API (`core::flow`) —
//!   pluggable scheduler/binder/victim/refine passes and whole
//!   strategies, named by registry id, whose uncached `Strategy::run`
//!   returns a diagnostics-carrying synthesis report — and the session
//!   (`core::Engine`): interned workloads and library, a fingerprint
//!   synthesis cache over an optional on-disk store, and deterministic
//!   parallel batches;
//! * [`explorer`] — design-space exploration on the session engine:
//!   the Table-2 sweep over workload specs (sharded and resumable
//!   variants included) and the Pareto archive;
//! * [`workloads`] — the FIR16 / EWF / DiffEq benchmark graphs plus the
//!   open `WorkloadSource` spec registry (`builtin:` / `random:` /
//!   `file:`).
//!
//! # Quickstart
//!
//! ```
//! use rc_hls::core::{Engine, SynthJob};
//! use rc_hls::reslib::Library;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Engine::new(Library::table1());
//! let design = engine.synth(&SynthJob::new("builtin:fir16", 12, 8))?.design;
//! let dfg = engine.workload("builtin:fir16")?.dfg;
//! println!("{}", design.render(&dfg, engine.library()));
//! assert!(design.latency <= 12 && design.area <= 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rchls_bind as bind;
pub use rchls_core as core;
pub use rchls_dfg as dfg;
pub use rchls_explorer as explorer;
pub use rchls_netlist as netlist;
pub use rchls_relmath as relmath;
pub use rchls_reslib as reslib;
pub use rchls_sched as sched;
pub use rchls_workloads as workloads;
