//! The [`FlowSpec`]: a synthesis flow named by stable pass ids.

use crate::error::SynthesisError;
use crate::flow::registry;
use crate::flow::{Binder, RefinePass, Scheduler, VictimPolicy};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Names the four pass slots of a synthesis flow by their registry ids.
///
/// A `FlowSpec` is the serializable description of *which* passes a
/// [`crate::Synthesizer`] composes; the passes themselves are resolved
/// through the [`registry`](crate::flow) at construction time. Because the
/// slots are plain strings, a spec can name passes registered by
/// out-of-tree crates, round-trips through serde unchanged, and
/// fingerprints stably for synthesis caches.
///
/// Built-in ids:
///
/// | slot        | ids                                  |
/// |-------------|--------------------------------------|
/// | `scheduler` | `density`, `force-directed`          |
/// | `binder`    | `left-edge`, `coloring`              |
/// | `victim`    | `max-delay`, `min-reliability-loss`  |
/// | `refine`    | `greedy`, `off`                      |
///
/// The equivalence suites in `crates/core/tests` register naive
/// `-reference` twins of the optimized scheduler, binder and `greedy`
/// passes (e.g. `density-reference`, `greedy-reference`) through the
/// public `register_*` API; they are test oracles, not built-ins.
///
/// # Examples
///
/// ```
/// use rchls_core::FlowSpec;
///
/// let flow = FlowSpec::default().with_scheduler("force-directed");
/// assert_eq!(flow.scheduler, "force-directed");
/// assert_eq!(flow.binder, "left-edge");
/// assert_eq!(FlowSpec::paper().refine, "off");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Time-constrained scheduler id.
    pub scheduler: String,
    /// Binder id (packs operations onto unit instances).
    pub binder: String,
    /// Latency-loop victim-selection policy id.
    pub victim: String,
    /// Post-Figure-6 refinement pass id.
    pub refine: String,
}

impl Default for FlowSpec {
    /// The default flow: the paper's scheduler/binder/victim choices plus
    /// the greedy refinement pass.
    fn default() -> FlowSpec {
        FlowSpec {
            scheduler: "density".to_owned(),
            binder: "left-edge".to_owned(),
            victim: "max-delay".to_owned(),
            refine: "greedy".to_owned(),
        }
    }
}

impl FlowSpec {
    /// The paper's strict Figure-6 flow (density scheduler, left-edge
    /// binder, max-delay victim rule, no refinement pass).
    #[must_use]
    pub fn paper() -> FlowSpec {
        FlowSpec {
            refine: "off".to_owned(),
            ..FlowSpec::default()
        }
    }

    /// Replaces the scheduler slot.
    #[must_use]
    pub fn with_scheduler(mut self, id: impl Into<String>) -> FlowSpec {
        self.scheduler = id.into();
        self
    }

    /// Replaces the binder slot.
    #[must_use]
    pub fn with_binder(mut self, id: impl Into<String>) -> FlowSpec {
        self.binder = id.into();
        self
    }

    /// Replaces the victim-policy slot.
    #[must_use]
    pub fn with_victim(mut self, id: impl Into<String>) -> FlowSpec {
        self.victim = id.into();
        self
    }

    /// Replaces the refine-pass slot.
    #[must_use]
    pub fn with_refine(mut self, id: impl Into<String>) -> FlowSpec {
        self.refine = id.into();
        self
    }

    /// Resolves every slot against the pass registry.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::UnknownPass`] naming the first slot whose
    /// id is not registered.
    pub fn resolve(&self) -> Result<ResolvedFlow, SynthesisError> {
        let unknown = |kind: &str, id: &str| SynthesisError::UnknownPass {
            kind: kind.to_owned(),
            id: id.to_owned(),
        };
        Ok(ResolvedFlow {
            scheduler: registry::scheduler(&self.scheduler)
                .ok_or_else(|| unknown("scheduler", &self.scheduler))?,
            binder: registry::binder(&self.binder)
                .ok_or_else(|| unknown("binder", &self.binder))?,
            victim: registry::victim_policy(&self.victim)
                .ok_or_else(|| unknown("victim policy", &self.victim))?,
            refine: registry::refine_pass(&self.refine)
                .ok_or_else(|| unknown("refine pass", &self.refine))?,
        })
    }
}

/// A [`FlowSpec`] with every slot resolved to a shared pass instance.
#[derive(Clone)]
pub struct ResolvedFlow {
    /// The scheduler pass.
    pub scheduler: Arc<dyn Scheduler>,
    /// The binder pass.
    pub binder: Arc<dyn Binder>,
    /// The victim-selection policy.
    pub victim: Arc<dyn VictimPolicy>,
    /// The refinement pass.
    pub refine: Arc<dyn RefinePass>,
}

impl std::fmt::Debug for ResolvedFlow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedFlow")
            .field("scheduler", &self.scheduler.id())
            .field("binder", &self.binder.id())
            .field("victim", &self.victim.id())
            .field("refine", &self.refine.id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_name_the_paper_passes_plus_refinement() {
        let f = FlowSpec::default();
        assert_eq!(f.scheduler, "density");
        assert_eq!(f.binder, "left-edge");
        assert_eq!(f.victim, "max-delay");
        assert_eq!(f.refine, "greedy");
        assert_eq!(FlowSpec::paper().refine, "off");
    }

    #[test]
    fn builders_replace_single_slots() {
        let f = FlowSpec::default()
            .with_scheduler("force-directed")
            .with_binder("coloring")
            .with_victim("min-reliability-loss")
            .with_refine("off");
        assert_eq!(f.scheduler, "force-directed");
        assert_eq!(f.binder, "coloring");
        assert_eq!(f.victim, "min-reliability-loss");
        assert_eq!(f.refine, "off");
    }

    #[test]
    fn default_flow_resolves() {
        let r = FlowSpec::default().resolve().unwrap();
        assert_eq!(r.scheduler.id(), "density");
        assert_eq!(r.binder.id(), "left-edge");
        assert_eq!(r.victim.id(), "max-delay");
        assert_eq!(r.refine.id(), "greedy");
        assert!(format!("{r:?}").contains("density"));
    }

    #[test]
    fn unknown_ids_are_reported_per_slot() {
        let err = FlowSpec::default()
            .with_scheduler("nope")
            .resolve()
            .unwrap_err();
        assert!(matches!(err, SynthesisError::UnknownPass { .. }), "{err}");
        assert!(err.to_string().contains("nope"));
        assert!(FlowSpec::default().with_binder("nope").resolve().is_err());
        assert!(FlowSpec::default().with_victim("nope").resolve().is_err());
        assert!(FlowSpec::default().with_refine("nope").resolve().is_err());
    }

    #[test]
    fn serde_round_trips_as_plain_ids() {
        let f = FlowSpec::default().with_scheduler("force-directed");
        let v = Serialize::to_value(&f);
        let back: FlowSpec = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, f);
    }
}
