//! Process-global deterministic fault injection (`rchls-chaos`).
//!
//! The same registry discipline as the telemetry sink plane: one
//! process-wide slot, armed explicitly, with a relaxed-atomic fast path
//! so an unarmed process pays exactly one `AtomicBool` load per guarded
//! site — cheap enough that injection points live permanently in
//! production code paths (store I/O, serve connections, engine spills)
//! without moving the benchmark (`perfbench/`).
//!
//! Call sites declare named points with [`faultpoint!`]:
//!
//! ```
//! # fn fsync() -> std::io::Result<()> { Ok(()) }
//! fn guarded_fsync() -> std::io::Result<()> {
//!     if rchls_chaos::faultpoint!("store.write.fsync").is_some() {
//!         return Err(rchls_chaos::injected_io_error("store.write.fsync"));
//!     }
//!     fsync()
//! }
//! ```
//!
//! A site only needs to handle the [`Fault`] variants its catalog entry
//! advertises ([`plan::CATALOG`]); `panic` and `delay` actions are
//! performed *inside* [`evaluate`], so no call site carries
//! panic/sleep plumbing. Faults fire per the armed [`FaultPlan`]'s
//! deterministic triggers — seeded counters and hit ranges, never wall
//! clock — and [`disarm`] returns a [`ChaosReport`] of what actually
//! fired, which the `rchls chaos run` harness embeds in its report.

pub mod plan;

mod obs;

pub use plan::{
    point_info, Action, ActionKind, FaultPlan, FaultRule, PlanError, PointInfo, Trigger, CATALOG,
    FAULT_PLAN_SCHEMA_VERSION,
};

use serde::Value;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Duration;

/// Mirrors "is any plan armed" for the [`faultpoint!`] fast path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// True when a fault plan is armed. One relaxed atomic load — the
/// entire cost of an injection point in a normal process.
#[inline]
#[must_use]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// What a guarded call site must act out for this hit. `panic` and
/// `delay` never reach call sites (see [`evaluate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the guarded operation with an injected error.
    Error,
    /// Proceed, but leave the operation's effect truncated/corrupted.
    Torn,
    /// Drop the connection mid-operation.
    Disconnect,
}

/// The injection point's guard. Expands to a plain `Option<Fault>`
/// expression: `None` at one relaxed atomic load when nothing is
/// armed, otherwise the armed plan's verdict for this hit.
#[macro_export]
macro_rules! faultpoint {
    ($point:expr) => {
        if $crate::armed() {
            $crate::evaluate($point)
        } else {
            None
        }
    };
}

/// The canonical error value for a [`Fault::Error`] at an I/O site.
#[must_use]
pub fn injected_io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("chaos: injected fault at {point}"))
}

/// Arming failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// A plan is already armed; disarm it first. One plan at a time
    /// keeps reports attributable.
    AlreadyArmed,
    /// The plan failed validation (also reachable via hand-built plans
    /// that skipped [`FaultPlan::parse`]).
    Invalid(PlanError),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::AlreadyArmed => {
                write!(f, "a fault plan is already armed (disarm it first)")
            }
            ChaosError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

struct RuleState {
    action: Action,
    trigger: Trigger,
    fired: AtomicU64,
}

struct PointState {
    name: String,
    hits: AtomicU64,
    rules: Vec<RuleState>,
}

struct ArmedPlan {
    seed: u64,
    points: Vec<PointState>,
}

fn slot() -> &'static RwLock<Option<Arc<ArmedPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<ArmedPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Validates `plan` against the catalog and arms it process-wide.
///
/// # Errors
///
/// [`ChaosError::AlreadyArmed`] when a plan is armed (the slot is
/// unchanged), or [`ChaosError::Invalid`] when a rule names an unknown
/// point or an action its point does not support.
pub fn arm(plan: FaultPlan) -> Result<(), ChaosError> {
    for rule in &plan.rules {
        let info = point_info(&rule.point).ok_or_else(|| {
            ChaosError::Invalid(PlanError(format!("unknown point {:?}", rule.point)))
        })?;
        if !info.actions.contains(&rule.action.kind()) {
            return Err(ChaosError::Invalid(PlanError(format!(
                "point {:?} does not support action {:?}",
                rule.point,
                rule.action.kind().as_str()
            ))));
        }
    }
    // Group rules by point, preserving plan order within each point
    // (first firing rule wins a hit).
    let mut points: Vec<PointState> = Vec::new();
    for rule in plan.rules {
        let state = RuleState {
            action: rule.action,
            trigger: rule.trigger,
            fired: AtomicU64::new(0),
        };
        match points.iter_mut().find(|p| p.name == rule.point) {
            Some(p) => p.rules.push(state),
            None => points.push(PointState {
                name: rule.point,
                hits: AtomicU64::new(0),
                rules: vec![state],
            }),
        }
    }
    let mut guard = slot().write().unwrap_or_else(PoisonError::into_inner);
    if guard.is_some() {
        return Err(ChaosError::AlreadyArmed);
    }
    *guard = Some(Arc::new(ArmedPlan {
        seed: plan.seed,
        points,
    }));
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disarms the current plan, returning its final [`ChaosReport`]
/// (`None` when nothing was armed). Evaluations racing the disarm may
/// still act on the old plan through their cloned handle; new
/// evaluations see the fast path go cold immediately.
pub fn disarm() -> Option<ChaosReport> {
    let plan = {
        let mut guard = slot().write().unwrap_or_else(PoisonError::into_inner);
        ARMED.store(false, Ordering::Relaxed);
        guard.take()?
    };
    Some(snapshot(&plan))
}

/// Snapshots the armed plan's counters without disarming (`None` when
/// nothing is armed).
#[must_use]
pub fn report() -> Option<ChaosReport> {
    let plan = slot()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    Some(snapshot(&plan))
}

/// Counts one hit at `point` against the armed plan and returns the
/// fault the call site must act out, if any.
///
/// Rules for the point are checked in plan order; the first whose
/// trigger fires wins the hit. `panic` rules panic here (with a
/// recognizable `chaos: injected panic` message) and `delay` rules
/// sleep here, so call sites only ever see [`Fault`] variants.
///
/// Prefer [`faultpoint!`], which skips this entirely when unarmed.
///
/// # Panics
///
/// By design, when a `panic` rule fires.
#[must_use]
pub fn evaluate(point: &str) -> Option<Fault> {
    let plan = slot()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    let state = plan.points.iter().find(|p| p.name == point)?;
    let hit = state.hits.fetch_add(1, Ordering::Relaxed) + 1;
    obs::evaluations().incr();
    for rule in &state.rules {
        if trigger_fires(&rule.trigger, hit, plan.seed, point) {
            rule.fired.fetch_add(1, Ordering::Relaxed);
            obs::injected().incr();
            match rule.action {
                Action::Error => return Some(Fault::Error),
                Action::Torn => return Some(Fault::Torn),
                Action::Disconnect => return Some(Fault::Disconnect),
                Action::Panic => panic!("chaos: injected panic at {point} (hit {hit})"),
                Action::Delay { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    return None;
                }
            }
        }
    }
    None
}

fn trigger_fires(trigger: &Trigger, hit: u64, seed: u64, point: &str) -> bool {
    match trigger {
        Trigger::Always => true,
        Trigger::Hits(hits) => hits.contains(&hit),
        Trigger::Range { from, to } => (*from..=*to).contains(&hit),
        Trigger::Every { n, offset } => hit > *offset && (hit - offset).is_multiple_of(*n),
        Trigger::OneIn { n } => one_in_hash(seed, point, hit).is_multiple_of(*n),
    }
}

/// FNV-1a over `(seed, point, hit)`: deterministic, seed-sensitive,
/// and independent across points and hits.
fn one_in_hash(seed: u64, point: &str, hit: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
    let h = fnv(OFFSET, &seed.to_le_bytes());
    let h = fnv(h, point.as_bytes());
    fnv(h, &hit.to_le_bytes())
}

/// What an armed plan did: per point, the hit count and per-rule fire
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// The plan seed.
    pub seed: u64,
    /// Per-point accounting, in plan order.
    pub points: Vec<PointReport>,
}

/// One point's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointReport {
    /// The injection-point name.
    pub point: String,
    /// Times the point was evaluated under this plan.
    pub hits: u64,
    /// Per-rule accounting, in plan order.
    pub rules: Vec<RuleReport>,
}

/// One rule's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleReport {
    /// The action's plan-file spelling.
    pub action: String,
    /// The trigger, rendered (see [`Trigger::render`]).
    pub trigger: String,
    /// Times this rule fired.
    pub fired: u64,
}

impl ChaosReport {
    /// Renders the report as a JSON value for embedding in harness
    /// reports.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let points = self
            .points
            .iter()
            .map(|p| {
                let rules = p
                    .rules
                    .iter()
                    .map(|r| {
                        Value::Map(vec![
                            (key("action"), Value::Str(r.action.clone())),
                            (key("trigger"), Value::Str(r.trigger.clone())),
                            (key("fired"), Value::UInt(r.fired)),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    (key("point"), Value::Str(p.point.clone())),
                    (key("hits"), Value::UInt(p.hits)),
                    (key("rules"), Value::Seq(rules)),
                ])
            })
            .collect();
        Value::Map(vec![
            (key("seed"), Value::UInt(self.seed)),
            (key("points"), Value::Seq(points)),
        ])
    }
}

fn key(k: &str) -> Value {
    Value::Str(k.to_owned())
}

fn snapshot(plan: &ArmedPlan) -> ChaosReport {
    ChaosReport {
        seed: plan.seed,
        points: plan
            .points
            .iter()
            .map(|p| PointReport {
                point: p.name.clone(),
                hits: p.hits.load(Ordering::Relaxed),
                rules: p
                    .rules
                    .iter()
                    .map(|r| RuleReport {
                        action: r.action.kind().as_str().to_owned(),
                        trigger: r.trigger.render(),
                        fired: r.fired.load(Ordering::Relaxed),
                    })
                    .collect(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The fault plane is process-global; tests that arm it must not
    /// overlap. (Poisoning recovered so one failed test doesn't cascade.)
    fn arm_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn plan(text: &str) -> FaultPlan {
        FaultPlan::parse(text).expect("test plan parses")
    }

    #[test]
    fn unarmed_points_are_inert() {
        let _guard = arm_lock();
        assert!(!armed());
        assert_eq!(faultpoint!("store.write.fsync"), None);
        // Even a direct evaluate (skipping the fast path) is a no-op.
        assert_eq!(evaluate("store.write.fsync"), None);
        assert!(report().is_none());
        assert!(disarm().is_none());
    }

    #[test]
    fn plans_parse_validate_and_reject_typos() {
        let p = plan(
            r#"{"schema_version": 1, "seed": 7, "faults": [
                {"point": "store.write.fsync", "action": "error", "hits": [1, 3]},
                {"point": "serve.conn.read", "action": "delay", "ms": 5, "every": 2, "offset": 1},
                {"point": "store.read", "action": "torn", "one_in": 3},
                {"point": "serve.worker.exec", "action": "panic", "range": [2, 4]},
                {"point": "serve.conn.write", "action": "disconnect", "always": true}
            ]}"#,
        );
        assert_eq!(p.seed, 7);
        assert_eq!(p.rules.len(), 5);
        assert_eq!(p.rules[0].trigger, Trigger::Hits(vec![1, 3]));
        assert_eq!(p.rules[1].action, Action::Delay { ms: 5 });
        assert_eq!(p.rules[1].trigger, Trigger::Every { n: 2, offset: 1 });
        assert_eq!(p.rules[2].trigger, Trigger::OneIn { n: 3 });
        assert_eq!(p.rules[3].trigger, Trigger::Range { from: 2, to: 4 });
        assert_eq!(p.rules[4].trigger, Trigger::Always);

        let fail = |text: &str, needle: &str| {
            let err = FaultPlan::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        };
        fail("[]", "object");
        fail(r#"{"seed": 1, "faults": []}"#, "schema_version");
        fail(r#"{"schema_version": 2, "faults": []}"#, "schema_version 2");
        fail(r#"{"schema_version": 1}"#, "faults");
        fail(r#"{"schema_version": 1, "faults": [], "sede": 1}"#, "sede");
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "nope", "action": "error"}]}"#,
            "unknown point",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "panic"}]}"#,
            "does not support",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "torn", "hitz": [1]}]}"#,
            "hitz",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "torn", "hits": [1], "one_in": 2}]}"#,
            "at most one trigger",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "torn", "hits": [0]}]}"#,
            "1-based",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "torn", "range": [3, 2]}]}"#,
            "from <= to",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "torn", "offset": 2}]}"#,
            "offset",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "store.read", "action": "error", "ms": 4}]}"#,
            "delay",
        );
        fail(
            r#"{"schema_version": 1, "faults": [{"point": "serve.conn.read", "action": "delay"}]}"#,
            "ms",
        );
    }

    #[test]
    fn triggers_fire_deterministically() {
        let fires = |t: &Trigger, seed: u64| -> Vec<u64> {
            (1..=12)
                .filter(|&h| trigger_fires(t, h, seed, "store.read"))
                .collect()
        };
        assert_eq!(fires(&Trigger::Hits(vec![2, 5]), 0), vec![2, 5]);
        assert_eq!(fires(&Trigger::Range { from: 3, to: 5 }, 0), vec![3, 4, 5]);
        assert_eq!(
            fires(&Trigger::Every { n: 4, offset: 0 }, 0),
            vec![4, 8, 12]
        );
        assert_eq!(
            fires(&Trigger::Every { n: 4, offset: 1 }, 0),
            vec![5, 9] // cadence starts after the first `offset` hits
        );
        assert_eq!(fires(&Trigger::Always, 0), (1..=12).collect::<Vec<u64>>());
        // one_in: deterministic per seed, different across seeds (for
        // these particular seeds), and never empty at rate 1.
        let a = fires(&Trigger::OneIn { n: 3 }, 1);
        assert_eq!(a, fires(&Trigger::OneIn { n: 3 }, 1));
        assert_eq!(
            fires(&Trigger::OneIn { n: 1 }, 9),
            (1..=12).collect::<Vec<u64>>()
        );
        // Same seed, different point => independent firing pattern.
        let other: Vec<u64> = (1..=12)
            .filter(|&h| trigger_fires(&Trigger::OneIn { n: 3 }, h, 1, "store.write"))
            .collect();
        assert!(a != other || a.is_empty() || !other.is_empty());
    }

    #[test]
    fn armed_plans_fire_count_and_report() {
        let _guard = arm_lock();
        let p = plan(
            r#"{"schema_version": 1, "seed": 3, "faults": [
                {"point": "store.write.fsync", "action": "error", "hits": [2]},
                {"point": "store.read", "action": "torn", "every": 2}
            ]}"#,
        );
        arm(p.clone()).expect("arms");
        assert!(armed());
        assert_eq!(arm(p), Err(ChaosError::AlreadyArmed));
        assert_eq!(faultpoint!("store.write.fsync"), None); // hit 1
        assert_eq!(faultpoint!("store.write.fsync"), Some(Fault::Error)); // hit 2
        assert_eq!(faultpoint!("store.write.fsync"), None); // hit 3
        assert_eq!(faultpoint!("store.read"), None); // hit 1
        assert_eq!(faultpoint!("store.read"), Some(Fault::Torn)); // hit 2
        assert_eq!(faultpoint!("engine.spill"), None); // not in the plan
        let report = disarm().expect("was armed");
        assert!(!armed());
        assert_eq!(report.seed, 3);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[0].point, "store.write.fsync");
        assert_eq!(report.points[0].hits, 3);
        assert_eq!(report.points[0].rules[0].fired, 1);
        assert_eq!(report.points[1].hits, 2);
        assert_eq!(report.points[1].rules[0].fired, 1);
        // Rendered report carries the same accounting.
        let rendered = serde_json::to_string(&report.to_value()).expect("renders");
        assert!(rendered.contains("store.write.fsync"));
        assert!(rendered.contains("hits [2]"));
    }

    #[test]
    fn first_matching_rule_wins_each_hit() {
        let _guard = arm_lock();
        let p = plan(
            r#"{"schema_version": 1, "faults": [
                {"point": "store.read", "action": "error", "hits": [1]},
                {"point": "store.read", "action": "torn", "always": true}
            ]}"#,
        );
        arm(p).expect("arms");
        assert_eq!(evaluate("store.read"), Some(Fault::Error));
        assert_eq!(evaluate("store.read"), Some(Fault::Torn));
        let report = disarm().expect("was armed");
        assert_eq!(report.points[0].rules[0].fired, 1);
        assert_eq!(report.points[0].rules[1].fired, 1);
    }

    #[test]
    fn injected_panics_carry_a_recognizable_message() {
        let _guard = arm_lock();
        let p = plan(
            r#"{"schema_version": 1, "faults": [
                {"point": "serve.worker.exec", "action": "panic", "hits": [1]}
            ]}"#,
        );
        arm(p).expect("arms");
        let outcome = std::panic::catch_unwind(|| evaluate("serve.worker.exec"));
        disarm();
        let payload = outcome.expect_err("panic rule fired");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("chaos: injected panic"), "{msg:?}");
    }

    #[test]
    fn hand_built_plans_are_validated_at_arm_time() {
        let _guard = arm_lock();
        let bad = FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                point: "no.such.point".to_owned(),
                action: Action::Error,
                trigger: Trigger::Always,
            }],
        };
        assert!(matches!(arm(bad), Err(ChaosError::Invalid(_))));
        assert!(!armed());
    }
}
