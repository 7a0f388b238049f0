//! The telemetry determinism suite.
//!
//! Telemetry is out-of-band by construction: installing a sink or
//! reading the metrics registry must never change a synthesis result,
//! and the *deterministic* counters (cache hits/misses over
//! distinct-fingerprint jobs) must not depend on the worker count.
//! This suite holds the stack to both contracts:
//!
//! * identical deterministic cache tallies at `--jobs 1` and `--jobs 8`
//!   (cold run all misses, warm re-run all hits);
//! * byte-identical batch documents with span sinks installed vs none;
//! * a structurally valid Chrome trace whose sched/bind/refine spans
//!   nest inside their enclosing `synth` span by timestamp containment;
//! * exact work counts (jobs, feasible, scheduler and binder calls, the
//!   allocation search's counters) over a pinned job set, which are the
//!   same on every machine;
//! * a committed size ladder's designs and allocation-search work.
//!
//! The sink registry and metrics registry are process-global, and the
//! tests in this binary share one process — every test serializes on
//! [`telemetry_lock`] so resets and sink installs can't interleave.

use rchls_core::{Engine, EngineError, SynthJob};
use rchls_reslib::Library;
use rchls_telemetry::{
    metrics, register_sink, trace_event_names, unregister_sink, AggregatorSink, ChromeTraceSink,
    SpanSink,
};
use serde::Value;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes tests that touch the process-global telemetry state.
/// Poisoning is ignored: a failed test must not cascade into the rest
/// of the suite.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Unregisters a sink id on drop, so an assertion failure mid-test
/// can't leave the global registry dirty for the next test.
struct SinkGuard(&'static str);

impl SinkGuard {
    fn install(sink: Arc<dyn SpanSink>) -> SinkGuard {
        let id: &'static str = match sink.id() {
            "chrome-trace" => "chrome-trace",
            "aggregator" => "aggregator",
            other => panic!("unexpected sink id {other:?}"),
        };
        register_sink(sink).expect("telemetry_lock holds off concurrent installs");
        SinkGuard(id)
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let _ = unregister_sink(self.0);
    }
}

/// Distinct-fingerprint jobs: every spec appears exactly once, so cache
/// tallies are deterministic at any worker count (no two workers can
/// race the same key — a cold batch is all misses, a warm re-run all
/// hits).
fn distinct_jobs() -> Vec<SynthJob> {
    let mut jobs: Vec<SynthJob> = (0..6u64)
        .map(|seed| SynthJob::new(format!("random:16x4@{seed}"), 8, 10))
        .collect();
    jobs.push(SynthJob::new("builtin:figure4a", 6, 4));
    jobs.push(SynthJob::new("builtin:diffeq", 6, 11));
    jobs
}

/// The deterministic counter subset: cache tallies over
/// distinct-fingerprint jobs, and the allocation search's work counts
/// (each distinct search runs exactly once). Pool/executor counters are deliberately
/// excluded — lends and queue depths legitimately vary with scheduling.
const DETERMINISTIC_COUNTERS: &[&str] = &[
    "synth_cache.hits",
    "synth_cache.misses",
    "synth_cache.inserts",
    "starts_cache.hits",
    "starts_cache.misses",
    "alloc_cache.hits",
    "alloc_cache.misses",
    "alloc_search.enumerated",
    "alloc_search.floor_pruned",
    "alloc_search.list_scheduled",
    "alloc_search.aborted",
];

#[test]
fn deterministic_counters_match_across_worker_counts() {
    let _lock = telemetry_lock();
    let jobs = distinct_jobs();
    let mut tallies: Vec<Vec<(&str, u64)>> = Vec::new();
    for workers in [1usize, 8] {
        metrics::reset();
        let engine = Engine::new(Library::table1()).with_jobs(workers);
        let cold = engine.run_batch(&jobs);
        let warm = engine.run_batch(&jobs);
        assert_eq!(
            serde_json::to_string(&cold).expect("batch documents serialize"),
            serde_json::to_string(&warm).expect("batch documents serialize"),
            "warm re-run changed the document at --jobs {workers}"
        );
        // Engine-level stats: the cold batch misses every point, the
        // warm re-run hits every one of them.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, jobs.len() as u64, "--jobs {workers}");
        assert_eq!(stats.hits, jobs.len() as u64, "--jobs {workers}");
        tallies.push(
            DETERMINISTIC_COUNTERS
                .iter()
                .map(|name| (*name, metrics::counter(name).get()))
                .collect(),
        );
    }
    assert_eq!(
        tallies[0], tallies[1],
        "deterministic counters diverged between --jobs 1 and --jobs 8"
    );
    let get = |name: &str| {
        tallies[0]
            .iter()
            .find(|(n, _)| *n == name)
            .expect("counter present")
            .1
    };
    assert_eq!(get("synth_cache.hits"), jobs.len() as u64);
    assert_eq!(get("synth_cache.misses"), jobs.len() as u64);
    assert!(get("starts_cache.misses") > 0, "starts cache saw the batch");
    assert!(
        get("alloc_search.list_scheduled") <= get("alloc_search.enumerated"),
        "only enumerated allocations are scheduled"
    );
    assert!(get("alloc_search.enumerated") > 0, "the alloc search ran");
}

#[test]
fn batch_documents_are_byte_identical_with_sinks_installed() {
    let _lock = telemetry_lock();
    let jobs = distinct_jobs();
    let run = || {
        let batch = Engine::new(Library::table1()).with_jobs(8).run_batch(&jobs);
        serde_json::to_string(&batch).expect("batch documents serialize")
    };
    let plain = run();

    let trace = Arc::new(ChromeTraceSink::new());
    let aggregator = Arc::new(AggregatorSink::new());
    let traced = {
        let _trace_guard = SinkGuard::install(trace.clone());
        let _agg_guard = SinkGuard::install(aggregator.clone());
        run()
    };
    assert_eq!(
        plain, traced,
        "installing span sinks changed the batch document"
    );

    // The sinks really observed the run: the phase spans are present in
    // both the aggregator and the (structurally valid) Chrome trace.
    let summary = aggregator.summary();
    for phase in ["synth", "sched", "bind", "refine"] {
        let agg = summary
            .iter()
            .find(|(name, _)| name == phase)
            .unwrap_or_else(|| panic!("aggregator saw no {phase:?} span"));
        assert!(agg.1.count > 0, "{phase} count");
    }
    let names = trace_event_names(&trace.to_trace_json()).expect("valid Chrome trace");
    for phase in ["synth", "sched", "bind", "refine"] {
        assert!(
            names.iter().any(|n| n == phase),
            "trace missing {phase:?} span"
        );
    }
}

/// One trace event, as far as nesting is concerned.
struct TraceEvent {
    name: String,
    tid: u64,
    ts: u64,
    dur: u64,
}

/// Parses the fields the nesting check needs out of a trace document.
fn trace_events(doc: &str) -> Vec<TraceEvent> {
    let value: Value = serde_json::from_str(doc).expect("trace parses");
    let entries = value.as_map().expect("trace document is an object");
    let Some(Value::Seq(events)) = serde::map_get(entries, "traceEvents") else {
        panic!("missing traceEvents array");
    };
    events
        .iter()
        .map(|event| {
            let fields = event.as_map().expect("trace event is an object");
            let num = |key: &str| match serde::map_get(fields, key) {
                Some(Value::UInt(u)) => *u,
                other => panic!("trace event field {key:?} is not numeric: {other:?}"),
            };
            let Some(Value::Str(name)) = serde::map_get(fields, "name") else {
                panic!("trace event name is not a string");
            };
            TraceEvent {
                name: name.clone(),
                tid: num("tid"),
                ts: num("ts"),
                dur: num("dur"),
            }
        })
        .collect()
}

#[test]
fn trace_nests_phase_spans_within_synth() {
    let _lock = telemetry_lock();
    let trace = Arc::new(ChromeTraceSink::new());
    {
        let _guard = SinkGuard::install(trace.clone());
        let engine = Engine::new(Library::table1()).with_jobs(1);
        engine
            .synth(&SynthJob::new("builtin:diffeq", 6, 11))
            .expect("diffeq at (6, 11) is feasible");
    }
    let events = trace_events(&trace.to_trace_json());
    let synth = events
        .iter()
        .find(|e| e.name == "synth")
        .expect("trace has a synth span");
    // Chrome viewers nest complete events on a tid by timestamp
    // containment; each phase must have at least one span inside the
    // synth envelope on the same thread. Start and duration come from
    // independent clock reads truncated to whole microseconds, so the
    // end-side check allows a few microseconds of rounding skew.
    for phase in ["sched", "bind", "refine"] {
        assert!(
            events.iter().any(|e| e.name == phase
                && e.tid == synth.tid
                && e.ts >= synth.ts
                && e.ts + e.dur <= synth.ts + synth.dur + 16),
            "no {phase:?} span nested inside the synth span"
        );
    }
}

/// The pinned work set: `random:64x8` at two seeds over a tight-to-loose
/// bound grid, under the default flow's two heaviest strategies.
fn pinned_work_jobs() -> Vec<SynthJob> {
    let mut jobs = Vec::new();
    for seed in 0..2u64 {
        let spec = format!("random:64x8@{seed}");
        for (latency, area) in [(10, 24), (10, 32), (14, 24), (14, 32), (20, 32), (20, 48)] {
            for strategy in ["ours", "combined"] {
                jobs.push(SynthJob::new(&spec, latency, area).with_strategy(strategy));
            }
        }
    }
    jobs
}

/// Work counters are exact where wall time is not: a change that makes
/// synthesis do more or less scheduling, binding or allocation search on
/// the pinned set shows up here on any host. `list_scheduled` also pins
/// *which* allocations the search schedules: any change to its visiting
/// order or prunes moves it. Update the numbers only on purpose, with
/// the reason in the change log.
#[test]
fn pinned_set_work_counts_are_exact() {
    let _lock = telemetry_lock();
    metrics::reset();
    let engine = Engine::new(Library::table1()).with_jobs(1);
    let jobs = pinned_work_jobs();
    let (mut feasible, mut sched_calls, mut bind_calls) = (0u64, 0u64, 0u64);
    for job in &jobs {
        match engine.synth(job) {
            Ok(report) => {
                feasible += 1;
                sched_calls += u64::from(report.diagnostics.sched_calls);
                bind_calls += u64::from(report.diagnostics.bind_calls);
            }
            Err(EngineError::Infeasible { .. }) => {}
            Err(other) => panic!("{}: {other}", job.workload),
        }
    }
    assert_eq!(
        (jobs.len(), feasible, sched_calls, bind_calls),
        (24, 22, 1982, 1982)
    );
    let alloc_search = [
        "alloc_search.enumerated",
        "alloc_search.floor_pruned",
        "alloc_search.list_scheduled",
        "alloc_search.aborted",
    ]
    .map(|name| metrics::counter(name).get());
    assert_eq!(alloc_search, [32_755, 7_800, 17_078, 16_853]);
}

/// The committed size ladder: one graph per size at the loosest corner
/// of its default grid (`rchls_explorer::default_grid`'s largest latency
/// and area, hard-coded here). Pins each design's reliability bits,
/// whether the allocation search's candidate set was capped, and how
/// many allocations the search list-scheduled for the job.
#[test]
fn size_ladder_designs_and_search_work_are_pinned() {
    let _lock = telemetry_lock();
    let engine = Engine::new(Library::table1()).with_jobs(1);
    let scheduled = || metrics::counter("alloc_search.list_scheduled").get();
    for (spec, latency, area, bits, capped, list_scheduled) in [
        (
            "random:64x8@0",
            24,
            32,
            0x3fee_03e4_1243_294a_u64,
            false,
            13,
        ),
        ("random:128x16@0", 48, 64, 0x3fec_274c_1b5a_de4e, true, 15),
        (
            "random:160x16@2",
            48,
            80,
            0x3feb_4433_fee3_6f3a,
            true,
            20_521,
        ),
    ] {
        let before = scheduled();
        let report = engine
            .synth(&SynthJob::new(spec, latency, area))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(
            (
                report.design.reliability.value().to_bits(),
                report.diagnostics.alloc_cap_hit,
                scheduled() - before,
            ),
            (bits, capped, list_scheduled),
            "{spec} at ({latency}, {area})"
        );
    }
}
