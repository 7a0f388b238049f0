//! The closed-loop workloads, `sweep_cold` and `large_synth`: one
//! caller that sends the next job only when the previous one returned.

use crate::check::check_outcome;
use crate::probe::{peak_rss_mb, Counters, Probe};
use crate::report::Report;
use crate::serve::Replay;
use crate::stats::{median, p99_with_beyond};
use crate::trace::Tracer;
use crate::workload::JobSet;
use rchls_core::engine::JobOutcome;
use rchls_core::{Diagnostics, Engine, EngineError, SynthJob, SynthReport};
use rchls_reslib::Library;
use std::path::Path;
use std::time::{Duration, Instant};

/// Engine set-ups timed before every pass (besides the pass's own), so
/// `setup_s` is a median over many constructions spread across the run.
const SETUPS_PER_PASS: usize = 5;
/// Set-ups run and discarded first, so a cold process heap does not
/// weigh on `setup_s`.
const SETUP_WARMUP: usize = 5;

/// How a closed-loop workload submits its job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One cold `Engine::run_batch` over the pass's jobs on two workers
    /// (`sweep_cold`).
    Batch,
    /// Serial `Engine::synth` per job (`large_synth`).
    Serial,
}

impl Mode {
    fn workers(self) -> usize {
        match self {
            Mode::Batch => 2,
            Mode::Serial => 1,
        }
    }
}

/// A job's result in the outcome form `rchls batch` prints.
fn to_outcome(
    job: &SynthJob,
    canonical: &str,
    result: Result<SynthReport, EngineError>,
) -> JobOutcome {
    let (report, error) = match result {
        Ok(report) => (
            Some(SynthReport {
                diagnostics: report.diagnostics.scrubbed(),
                ..report
            }),
            None,
        ),
        Err(e) => (None, Some(e.to_string())),
    };
    JobOutcome {
        workload: canonical.to_owned(),
        latency_bound: job.latency,
        area_bound: job.area,
        strategy: job.strategy.clone(),
        report,
        error,
    }
}

/// A fresh engine with every workload of the set resolved, and the time
/// that took.
fn set_up(set: &JobSet, library: &Library, mode: Mode) -> Result<(Engine, Duration), String> {
    let start = Instant::now();
    let engine = Engine::new(library.clone()).with_jobs(mode.workers());
    for spec in &set.specs {
        engine.workload(spec).map_err(|e| e.to_string())?;
    }
    Ok((engine, start.elapsed()))
}

/// Checks a pass's outcomes; with a `reference`, they must also equal
/// it, and without one they become it. Returns the pass's reliability
/// score.
fn check_pass(
    set: &JobSet,
    library: &Library,
    outcomes: &[JobOutcome],
    reference: &mut Option<Vec<JobOutcome>>,
    report: &mut Report,
) -> f64 {
    let mut score = 0.0;
    for (i, (job, outcome)) in set.jobs.iter().zip(outcomes).enumerate() {
        let (canonical, dfg) = &set.graphs[&job.workload];
        let result = check_outcome(dfg, library, job, canonical, outcome).and_then(|s| {
            score += s;
            match reference {
                Some(first) if first[i] != *outcome => Err(format!(
                    "job {i} answered differently than in the reference pass"
                )),
                _ => Ok(()),
            }
        });
        report.tally(result.map_err(|e| {
            format!(
                "{} ({},{}) {}: {e}",
                job.workload, job.latency, job.area, job.strategy
            )
        }));
    }
    if reference.is_none() {
        *reference = Some(outcomes.to_vec());
    }
    score
}

/// A closed-loop workload: how it submits jobs, its input stream, and
/// how many leading passes make up the fixed set `rel_score` sums.
pub struct Closed<'a> {
    /// Submission mode.
    pub mode: Mode,
    /// The inputs of pass `p` (every pass gets fresh graphs).
    pub pass: &'a dyn Fn(u64) -> JobSet,
    /// Passes scored by `rel_score` (always run, whatever the time).
    pub scored_passes: u64,
}

/// The untraced run: passes over the input stream until `seconds` have
/// elapsed and the scored passes are done, each pass on a fresh engine.
/// A pass is the latency unit: one cold sweep (`sweep_cold`) or one
/// ladder of three graphs (`large_synth`), whose per-job times are too
/// bimodal across graphs for a median to be stable.
pub fn measure(w: &Closed<'_>, library: &Library, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let first = (w.pass)(0);
    for _ in 0..SETUP_WARMUP {
        set_up(&first, library, w.mode)?;
    }
    let mut setups = Vec::new();
    let mut samples_ms: Vec<f64> = Vec::new();
    let mut busy = Duration::ZERO;
    let mut pass_rates: Vec<f64> = Vec::new();
    let mut jobs_done = 0usize;
    let mut score = 0.0;
    let start = Instant::now();
    let mut pass = 0u64;
    while pass < w.scored_passes || start.elapsed().as_secs_f64() < seconds {
        let set = if pass == 0 { &first } else { &(w.pass)(pass) };
        for _ in 0..SETUPS_PER_PASS {
            setups.push(set_up(set, library, w.mode)?.1.as_secs_f64());
        }
        let (engine, setup) = set_up(set, library, w.mode)?;
        setups.push(setup.as_secs_f64());
        let t = Instant::now();
        let outcomes = match w.mode {
            Mode::Batch => engine.run_batch(&set.jobs).outcomes,
            Mode::Serial => set
                .jobs
                .iter()
                .map(|job| to_outcome(job, &set.graphs[&job.workload].0, engine.synth(job)))
                .collect(),
        };
        let took = t.elapsed();
        busy += took;
        samples_ms.push(took.as_secs_f64() * 1e3);
        jobs_done += outcomes.len();
        pass_rates.push(outcomes.len() as f64 / took.as_secs_f64());
        let pass_score = check_pass(set, library, &outcomes, &mut None, &mut report);
        if pass < w.scored_passes {
            score += pass_score;
        }
        pass += 1;
    }
    let (p99, beyond) = p99_with_beyond(&samples_ms);
    report.set("setup_s", median(&setups));
    // The median pass throughput: robust to a host disturbance that
    // slows a minority of passes.
    report.set("jobs_per_s", median(&pass_rates));
    report.set("p50_ms", median(&samples_ms));
    report.set("p99_ms", p99);
    report.set("rel_score", score);
    report.set(
        "success_ratio",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    report.notes.push(format!(
        "{jobs_done} jobs in {pass} passes, {:.3} s busy; {} latency samples, {beyond} beyond p99; {} setups",
        busy.as_secs_f64(),
        samples_ms.len(),
        setups.len()
    ));
    Ok(report)
}

/// What a serial (traced or untraced) pass returns.
struct PassResult {
    outcomes: Vec<JobOutcome>,
    wall_us: f64,
    resident_bytes: usize,
    evictions: u64,
}

/// One serial pass through the public calls a job makes, each wrapped
/// in a span; the kernels nested in a synthesis are attached from the
/// program's own phase timers.
fn serial_pass(
    set: &JobSet,
    library: &Library,
    probe: &Probe,
    tracer: &mut Tracer,
) -> Result<PassResult, String> {
    let start = Instant::now();
    let (outcomes, resident_bytes, evictions) = tracer.span("pass", |t| -> Result<_, String> {
        let engine = t.span("engine.new", |_| Engine::new(library.clone()).with_jobs(1));
        for spec in &set.specs {
            t.span("workloads.resolve", |_| engine.workload(spec))
                .map_err(|e| e.to_string())?;
        }
        let mut outcomes = Vec::with_capacity(set.jobs.len());
        for job in &set.jobs {
            let result = t.span("engine.synth", |t| {
                let timers = probe.timers();
                let result = engine.synth(job);
                let spent = probe.timers().since(&timers);
                t.derived("alloc", spent.alloc_us);
                t.derived("sched", spent.sched_us);
                t.derived("bind", spent.bind_us);
                result
            });
            let outcome = to_outcome(job, &set.graphs[&job.workload].0, result);
            t.span("serialize", |_| serde_json::to_string(&outcome))
                .map_err(|e| e.to_string())?;
            outcomes.push(outcome);
        }
        Ok((
            outcomes,
            engine.resident_cache_bytes(),
            engine.cache_evictions(),
        ))
    })?;
    Ok(PassResult {
        outcomes,
        wall_us: start.elapsed().as_secs_f64() * 1e6,
        resident_bytes,
        evictions,
    })
}

/// Sums of the deterministic work counters over a set of outcomes.
pub fn record_work(report: &mut Report, outcomes: &[&JobOutcome]) {
    let mut sum = Diagnostics::default();
    let mut feasible = 0u64;
    let mut cap_hits = 0u64;
    for outcome in outcomes {
        if let Some(r) = &outcome.report {
            feasible += 1;
            cap_hits += u64::from(r.diagnostics.alloc_cap_hit);
            sum.absorb(&r.diagnostics);
        }
    }
    report.set("jobs.total", outcomes.len() as f64);
    report.set("jobs.feasible", feasible as f64);
    report.set("alloc.cap_hits", cap_hits as f64);
    report.set("sched.calls", f64::from(sum.sched_calls));
    report.set("bind.calls", f64::from(sum.bind_calls));
    report.set("refine.upgrades", f64::from(sum.refine_upgrades));
    report.set("refine.iterations", f64::from(sum.loop_iterations));
    report.set("refine.rejected", f64::from(sum.rejected_moves));
}

/// Cache and store counters of one pass, each hit ratio with its base.
pub fn record_counters(report: &mut Report, c: &Counters) {
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    report.set("engine.hits", c.hits as f64);
    report.set("engine.misses", c.misses as f64);
    report.set("engine.hit_ratio", ratio(c.hits, c.misses));
    report.set("engine.starts_hits", c.starts_hits as f64);
    report.set("engine.starts_misses", c.starts_misses as f64);
    report.set(
        "engine.starts_hit_ratio",
        ratio(c.starts_hits, c.starts_misses),
    );
    report.set("engine.alloc_hits", c.alloc_hits as f64);
    report.set("engine.alloc_misses", c.alloc_misses as f64);
    report.set(
        "engine.alloc_hit_ratio",
        ratio(c.alloc_hits, c.alloc_misses),
    );
    report.set("store.hits", c.store_hits as f64);
    report.set("store.misses", c.store_misses as f64);
    report.set("store.writes", c.store_writes as f64);
}

/// The traced run over `set` (the scored passes' inputs): the
/// workload's own path once (for executor utilisation), then three
/// phases — untraced, traced, untraced again — each a serial pass
/// through the public calls on a fresh engine followed by the same jobs
/// replayed through a daemon on an empty store. Exact counts come from
/// the traced phase, which is serial and so repeats exactly for a seed.
pub fn traced(
    set: &JobSet,
    library: &Library,
    mode: Mode,
    dir: &Path,
    probe: &Probe,
) -> Result<(Report, Tracer), String> {
    let mut report = Report::default();
    if mode == Mode::Batch {
        let (engine, _) = set_up(set, library, mode)?;
        let timers = probe.timers();
        let start = Instant::now();
        let batch = engine.run_batch(&set.jobs);
        let wall = start.elapsed().as_secs_f64() * 1e6;
        let busy = probe.timers().since(&timers).worker_busy_us;
        report.set("executor.busy_ratio", busy / (mode.workers() as f64 * wall));
        check_pass(set, library, &batch.outcomes, &mut None, &mut report);
    }
    // Untraced phases before and after the traced one, so warm-up and
    // drift do not land on either side of the overhead ratio.
    let before = serial_pass(set, library, probe, &mut Tracer::new(false))?;
    let replay = Replay::new(set, &before.outcomes, library, dir)?;
    let before_daemon = replay.pass(library, dir, probe, &mut Tracer::new(false), &mut report)?;
    let mut tracer = Tracer::new(true);
    let counters = probe.counters();
    let pass = serial_pass(set, library, probe, &mut tracer)?;
    replay.pass(library, dir, probe, &mut tracer, &mut report)?;
    let counters = probe.counters().since(&counters);
    let after = serial_pass(set, library, probe, &mut Tracer::new(false))?;
    let after_daemon = replay.pass(library, dir, probe, &mut Tracer::new(false), &mut report)?;
    let untraced_us =
        (before.wall_us + before_daemon.wall_us + after.wall_us + after_daemon.wall_us) / 2.0;
    let mut reference = Some(before.outcomes);
    check_pass(set, library, &after.outcomes, &mut reference, &mut report);
    check_pass(set, library, &pass.outcomes, &mut reference, &mut report);
    record_work(&mut report, &pass.outcomes.iter().collect::<Vec<_>>());
    record_counters(&mut report, &counters);
    report.set("engine.resident_bytes", pass.resident_bytes as f64);
    report.set("engine.evictions", pass.evictions as f64);
    report.set_layers(&tracer, untraced_us);
    report.set(
        "error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok((report, tracer))
}
