//! Independent correctness checks on every design the program returns.
//!
//! Nothing here trusts the program's own bookkeeping: latency, area and
//! reliability are recomputed from the schedule, the binding and the
//! library's version figures, the reliability through `rchls-relmath`.

use rchls_core::engine::JobOutcome;
use rchls_core::{Design, SynthJob};
use rchls_dfg::Dfg;
use rchls_relmath::{replicated, serial_reliability};
use rchls_reslib::Library;

/// Relative tolerance when comparing a recomputed reliability with the
/// reported one (both are products of the same factors).
const RELIABILITY_TOLERANCE: f64 = 1e-12;

/// Checks one design against its job's bounds and the library.
///
/// # Errors
///
/// Returns what is wrong with the design, naming the first violation.
pub fn check_design(
    dfg: &Dfg,
    library: &Library,
    job: &SynthJob,
    d: &Design,
) -> Result<(), String> {
    let n = dfg.node_count();
    if d.schedule.len() != n || d.assignment.len() != n {
        return Err(format!(
            "schedule/assignment cover {}/{} of {n} operations",
            d.schedule.len(),
            d.assignment.len()
        ));
    }
    // Steps are 1-based: an operation starting at `s` with delay `d`
    // occupies steps `s ..= s + d - 1`, so `finish` is the first free
    // step and the latency is the last busy one.
    let delay = |node| library.version(d.assignment.version(node)).delay();
    let finish = |node| d.schedule.start(node) + delay(node);
    if let Some(node) = dfg.node_ids().find(|&node| d.schedule.start(node) == 0) {
        return Err(format!("{} starts at step 0", dfg.node(node).label()));
    }
    let latency = dfg.node_ids().map(finish).max().map_or(0, |end| end - 1);
    if latency != d.latency {
        return Err(format!(
            "reported latency {} but schedule ends at {latency}",
            d.latency
        ));
    }
    if d.latency > job.latency {
        return Err(format!("latency {} exceeds Ld={}", d.latency, job.latency));
    }
    for (from, to) in dfg.edges() {
        if d.schedule.start(to) < finish(from) {
            return Err(format!(
                "{} starts at {} before its predecessor {} finishes at {}",
                dfg.node(to).label(),
                d.schedule.start(to),
                dfg.node(from).label(),
                finish(from)
            ));
        }
    }
    let instances = d.binding.instances();
    if d.replication.len() != instances.len() || d.replication.contains(&0) {
        return Err("replication counts do not match the binding".to_owned());
    }
    let mut bound = vec![0usize; n];
    for (idx, inst) in instances.iter().enumerate() {
        let mut busy: Vec<(u32, u32)> = Vec::with_capacity(inst.nodes.len());
        for &node in &inst.nodes {
            bound[node.index()] += 1;
            if d.assignment.version(node) != inst.version {
                return Err(format!(
                    "{} runs on unit u{idx} of another version",
                    dfg.node(node).label()
                ));
            }
            if d.binding.instance_of(node).index() != idx {
                return Err(format!("{} has two owners", dfg.node(node).label()));
            }
            busy.push((d.schedule.start(node), finish(node)));
        }
        busy.sort_unstable();
        if busy.windows(2).any(|w| w[1].0 < w[0].1) {
            return Err(format!("unit u{idx} runs overlapping operations"));
        }
    }
    if let Some(node) = bound.iter().position(|&count| count != 1) {
        return Err(format!("operation #{node} is bound {} times", bound[node]));
    }
    let area: u32 = instances
        .iter()
        .zip(&d.replication)
        .map(|(inst, &r)| library.version(inst.version).area() * r)
        .sum();
    if area != d.area {
        return Err(format!(
            "reported area {} but the units add up to {area}",
            d.area
        ));
    }
    if d.area > job.area {
        return Err(format!("area {} exceeds Ad={}", d.area, job.area));
    }
    let reliability = serial_reliability(dfg.node_ids().map(|node| {
        let base = library.version(d.assignment.version(node)).reliability();
        replicated(base, d.replication[d.binding.instance_of(node).index()])
    }))
    .value();
    let reported = d.reliability.value();
    if (reliability - reported).abs() > RELIABILITY_TOLERANCE * reliability.max(f64::MIN_POSITIVE) {
        return Err(format!(
            "reported reliability {reported} but recomputed {reliability}"
        ));
    }
    Ok(())
}

/// Checks one job outcome: it answers the job that was asked, and its
/// design (if any) passes [`check_design`]. Returns the outcome's
/// reliability score (0 for an infeasible job).
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn check_outcome(
    dfg: &Dfg,
    library: &Library,
    job: &SynthJob,
    canonical_spec: &str,
    outcome: &JobOutcome,
) -> Result<f64, String> {
    if outcome.workload != canonical_spec
        || outcome.latency_bound != job.latency
        || outcome.area_bound != job.area
        || outcome.strategy != job.strategy
    {
        return Err(format!(
            "outcome answers {}@({},{}) {} instead of the job asked",
            outcome.workload, outcome.latency_bound, outcome.area_bound, outcome.strategy
        ));
    }
    match (&outcome.report, &outcome.error) {
        (Some(report), None) => {
            check_design(dfg, library, job, &report.design)?;
            Ok(report.design.reliability.value())
        }
        (None, Some(error)) if error.starts_with("no ") => Ok(0.0),
        (None, Some(error)) => Err(format!("job failed: {error}")),
        _ => Err("outcome carries both or neither of report and error".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_core::Engine;

    fn synthesized() -> (Dfg, Library, SynthJob, Design) {
        let engine = Engine::new(Library::table1());
        let job = SynthJob::new("builtin:diffeq", 8, 12);
        let report = engine.synth(&job).expect("diffeq at (8, 12) is feasible");
        let dfg = (*engine.workload(&job.workload).unwrap().dfg).clone();
        (dfg, Library::table1(), job, report.design)
    }

    #[test]
    fn a_synthesized_design_passes() {
        let (dfg, lib, job, design) = synthesized();
        check_design(&dfg, &lib, &job, &design).unwrap();
    }

    #[test]
    fn broken_designs_are_caught() {
        let (dfg, lib, job, design) = synthesized();
        let mut tight = job.clone();
        tight.latency = design.latency - 1;
        assert!(check_design(&dfg, &lib, &tight, &design)
            .unwrap_err()
            .contains("exceeds Ld"));

        let mut wrong_rel = design.clone();
        wrong_rel.reliability = rchls_relmath::Reliability::new(0.5).unwrap();
        assert!(check_design(&dfg, &lib, &job, &wrong_rel)
            .unwrap_err()
            .contains("reliability"));

        let mut wrong_area = design.clone();
        wrong_area.area += 1;
        assert!(check_design(&dfg, &lib, &job, &wrong_area)
            .unwrap_err()
            .contains("area"));

        // Start every operation at step 1: precedence breaks (diffeq
        // has edges).
        let mut squashed = design;
        let delays = squashed.assignment.delays(&dfg, &lib);
        squashed.schedule = rchls_sched::Schedule::new(vec![1; dfg.node_count()], &delays);
        squashed.latency = squashed.schedule.latency();
        let err = check_design(&dfg, &lib, &job, &squashed).unwrap_err();
        assert!(err.contains("before its predecessor"), "{err}");
    }
}
