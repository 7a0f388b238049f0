//! Global pass and strategy registries.
//!
//! Every pass slot of a [`crate::FlowSpec`] and every strategy id resolves
//! through these registries. Built-ins are installed on first access;
//! out-of-tree crates add their own implementations with the `register_*`
//! functions — typically once at startup. The equivalence suites take
//! this path too: the naive `*-reference` oracles of the optimized passes
//! are test code, registered by `crates/core/tests/support`, never
//! built in.
//!
//! ```
//! use rchls_core::flow::{self, Scheduler};
//! use rchls_dfg::Dfg;
//! use rchls_sched::{schedule_density, Delays, Schedule, ScheduleError};
//! use std::sync::Arc;
//!
//! /// An out-of-tree scheduler: density scheduling with a post-check.
//! #[derive(Debug)]
//! struct AuditedDensity;
//!
//! impl Scheduler for AuditedDensity {
//!     fn id(&self) -> &str {
//!         "audited-density"
//!     }
//!     fn schedule(
//!         &self,
//!         dfg: &Dfg,
//!         delays: &Delays,
//!         latency: u32,
//!     ) -> Result<Schedule, ScheduleError> {
//!         let s = schedule_density(dfg, delays, latency)?;
//!         s.validate(dfg, delays)?;
//!         Ok(s)
//!     }
//! }
//!
//! flow::register_scheduler(Arc::new(AuditedDensity)).unwrap();
//! assert!(flow::scheduler_ids().iter().any(|id| id == "audited-density"));
//! // Any FlowSpec naming the id now composes it:
//! let spec = rchls_core::FlowSpec::default().with_scheduler("audited-density");
//! assert!(spec.resolve().is_ok());
//! ```

use crate::flow::passes::{
    Binder, ColoringBinder, DensityScheduler, ForceDirectedScheduler, LeftEdgeBinder,
    MaxDelayVictim, MinReliabilityLossVictim, NoRefine, RefinePass, Scheduler, VictimPolicy,
};
use crate::flow::refine::GreedyRefine;
use crate::flow::{Baseline, Combined, Ours, Pipelined, Redundancy, Strategy};
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Registering a pass or strategy failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    kind: &'static str,
    id: String,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a {} with id {:?} is already registered",
            self.kind, self.id
        )
    }
}

impl std::error::Error for RegistryError {}

/// One id-keyed table. Insertion order is preserved (built-ins first),
/// so listings are deterministic.
struct Table<T: ?Sized> {
    kind: &'static str,
    entries: RwLock<Vec<(String, Arc<T>)>>,
}

impl<T: ?Sized> Table<T> {
    fn new(kind: &'static str, builtins: Vec<(String, Arc<T>)>) -> Table<T> {
        Table {
            kind,
            entries: RwLock::new(builtins),
        }
    }

    fn get(&self, id: &str) -> Option<Arc<T>> {
        crate::sync::read_unpoisoned(&self.entries)
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, v)| Arc::clone(v))
    }

    fn ids(&self) -> Vec<String> {
        crate::sync::read_unpoisoned(&self.entries)
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn insert(&self, id: String, value: Arc<T>) -> Result<(), RegistryError> {
        let mut entries = crate::sync::write_unpoisoned(&self.entries);
        if entries.iter().any(|(k, _)| *k == id) {
            return Err(RegistryError {
                kind: self.kind,
                id,
            });
        }
        entries.push((id, value));
        Ok(())
    }
}

struct Registries {
    schedulers: Table<dyn Scheduler>,
    binders: Table<dyn Binder>,
    victims: Table<dyn VictimPolicy>,
    refines: Table<dyn RefinePass>,
    strategies: Table<dyn Strategy>,
}

fn registries() -> &'static Registries {
    static REGISTRIES: OnceLock<Registries> = OnceLock::new();
    REGISTRIES.get_or_init(|| {
        let sched = |s: Arc<dyn Scheduler>| (s.id().to_owned(), s);
        let bind = |b: Arc<dyn Binder>| (b.id().to_owned(), b);
        let vict = |v: Arc<dyn VictimPolicy>| (v.id().to_owned(), v);
        let refi = |r: Arc<dyn RefinePass>| (r.id().to_owned(), r);
        let strat = |s: Arc<dyn Strategy>| (s.id().to_owned(), s);
        Registries {
            schedulers: Table::new(
                "scheduler",
                vec![
                    sched(Arc::new(DensityScheduler)),
                    sched(Arc::new(ForceDirectedScheduler)),
                ],
            ),
            binders: Table::new(
                "binder",
                vec![
                    bind(Arc::new(LeftEdgeBinder)),
                    bind(Arc::new(ColoringBinder)),
                ],
            ),
            victims: Table::new(
                "victim policy",
                vec![
                    vict(Arc::new(MaxDelayVictim)),
                    vict(Arc::new(MinReliabilityLossVictim)),
                ],
            ),
            refines: Table::new(
                "refine pass",
                vec![refi(Arc::new(GreedyRefine)), refi(Arc::new(NoRefine))],
            ),
            strategies: Table::new(
                "strategy",
                vec![
                    strat(Arc::new(Baseline)),
                    strat(Arc::new(Ours)),
                    strat(Arc::new(Combined)),
                    strat(Arc::new(Pipelined::auto())),
                    strat(Arc::new(Redundancy)),
                ],
            ),
        }
    })
}

/// Looks up a scheduler by id.
#[must_use]
pub fn scheduler(id: &str) -> Option<Arc<dyn Scheduler>> {
    registries().schedulers.get(id)
}

/// Looks up a binder by id.
#[must_use]
pub fn binder(id: &str) -> Option<Arc<dyn Binder>> {
    registries().binders.get(id)
}

/// Looks up a victim policy by id.
#[must_use]
pub fn victim_policy(id: &str) -> Option<Arc<dyn VictimPolicy>> {
    registries().victims.get(id)
}

/// Looks up a refine pass by id.
#[must_use]
pub fn refine_pass(id: &str) -> Option<Arc<dyn RefinePass>> {
    registries().refines.get(id)
}

/// Looks up a strategy by id.
#[must_use]
pub fn strategy(id: &str) -> Option<Arc<dyn Strategy>> {
    registries().strategies.get(id)
}

/// Registered scheduler ids, built-ins first then registration order.
#[must_use]
pub fn scheduler_ids() -> Vec<String> {
    registries().schedulers.ids()
}

/// Registered binder ids, built-ins first then registration order.
#[must_use]
pub fn binder_ids() -> Vec<String> {
    registries().binders.ids()
}

/// Registered victim-policy ids, built-ins first then registration order.
#[must_use]
pub fn victim_policy_ids() -> Vec<String> {
    registries().victims.ids()
}

/// Registered refine-pass ids, built-ins first then registration order.
#[must_use]
pub fn refine_pass_ids() -> Vec<String> {
    registries().refines.ids()
}

/// Registered strategy ids, built-ins first then registration order.
#[must_use]
pub fn strategy_ids() -> Vec<String> {
    registries().strategies.ids()
}

/// Registers an out-of-tree scheduler under its [`Scheduler::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken (built-ins
/// cannot be replaced).
pub fn register_scheduler(pass: Arc<dyn Scheduler>) -> Result<(), RegistryError> {
    registries().schedulers.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree binder under its [`Binder::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_binder(pass: Arc<dyn Binder>) -> Result<(), RegistryError> {
    registries().binders.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree victim policy under its [`VictimPolicy::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_victim_policy(pass: Arc<dyn VictimPolicy>) -> Result<(), RegistryError> {
    registries().victims.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree refine pass under its [`RefinePass::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_refine_pass(pass: Arc<dyn RefinePass>) -> Result<(), RegistryError> {
    registries().refines.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree strategy under its [`Strategy::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_strategy(strategy: Arc<dyn Strategy>) -> Result<(), RegistryError> {
    registries()
        .strategies
        .insert(strategy.id().to_owned(), strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_always_present() {
        for id in ["density", "force-directed"] {
            assert!(scheduler(id).is_some(), "{id}");
        }
        for id in ["left-edge", "coloring"] {
            assert!(binder(id).is_some(), "{id}");
        }
        for id in ["max-delay", "min-reliability-loss"] {
            assert!(victim_policy(id).is_some(), "{id}");
        }
        for id in ["greedy", "off"] {
            assert!(refine_pass(id).is_some(), "{id}");
        }
        for id in ["baseline", "ours", "combined", "pipelined", "redundancy"] {
            assert!(strategy(id).is_some(), "{id}");
        }
        assert!(scheduler("nope").is_none());
        assert!(strategy("nope").is_none());
        // The naive reference twins are test oracles: the equivalence
        // suites register them out of tree, and no listing offers them.
        for ids in [
            scheduler_ids(),
            binder_ids(),
            victim_policy_ids(),
            refine_pass_ids(),
            strategy_ids(),
        ] {
            assert!(!ids.iter().any(|id| id.ends_with("-reference")), "{ids:?}");
        }
        let err = crate::FlowSpec::default()
            .with_scheduler("density-reference")
            .resolve()
            .expect_err("unregistered");
        assert_eq!(
            err.to_string(),
            "unknown scheduler \"density-reference\" (see `rchls flows` for registered ids)"
        );
    }

    #[test]
    fn id_listings_lead_with_builtins() {
        assert_eq!(scheduler_ids()[0], "density");
        assert_eq!(binder_ids()[0], "left-edge");
        assert_eq!(victim_policy_ids()[0], "max-delay");
        assert_eq!(refine_pass_ids()[0], "greedy");
        assert_eq!(strategy_ids()[0], "baseline");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let err = register_scheduler(Arc::new(DensityScheduler)).unwrap_err();
        assert!(err.to_string().contains("density"));
        assert!(register_binder(Arc::new(LeftEdgeBinder)).is_err());
        assert!(register_victim_policy(Arc::new(MaxDelayVictim)).is_err());
        assert!(register_refine_pass(Arc::new(NoRefine)).is_err());
        assert!(register_strategy(Arc::new(Ours)).is_err());
    }
}
