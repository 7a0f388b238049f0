//! The daemon side of the benchmark: `serve_mixed` (independent daemon
//! users as an open loop at a fixed offered rate against an in-process
//! `rchls-serve` daemon backed by a pre-populated result store), and the
//! [`Replay`] of a closed-loop workload's jobs through a daemon that the
//! traced runs use.

use crate::check::check_outcome;
use crate::closed::{record_counters, record_work};
use crate::probe::{peak_rss_mb, Counters, Probe};
use crate::report::Report;
use crate::stats::{median, nearest_rank, p99_with_beyond};
use crate::trace::Tracer;
use crate::workload::{serve_mixed, JobSet, Kind, Traffic};
use rchls_core::engine::JobOutcome;
use rchls_core::{Engine, SynthJob};
use rchls_reslib::Library;
use rchls_serve::{protocol, Client, ServeConfig, Server, ServerHandle};
use rchls_store::{Lookup, ResultStore};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The fixed offered rate, requests per second.
pub const RATE_PER_S: f64 = 400.0;
/// The latency limit on `p99_ms`; a run over it, or with a growing
/// backlog, is reported as failed.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Client connections (one load-generator thread each).
const CONNECTIONS: usize = 2;
/// Daemon synthesis workers.
const SERVER_JOBS: usize = 2;
/// Daemon start-ups timed for `setup_s`.
const SETUP_REPEATS: usize = 40;
/// Requests per latency window. `p50_ms` and `p99_ms` are medians over
/// the windows, so a host disturbance confined to a minority of the
/// run cannot move them; each window's 99th percentile has ten samples
/// beyond it.
const WINDOW: usize = 1000;
/// The generator sleeps until this long before a request is due and
/// spins the rest, so scheduler wake-up jitter stays out of latencies.
const SPIN: Duration = Duration::from_micros(300);
/// Slack before the first request is due, so both generator threads
/// are connected and waiting.
const LEAD: Duration = Duration::from_millis(50);

/// Everything the runs share: the traffic, the wire lines, the outcome
/// a fresh in-process engine produces for every distinct job, and the
/// pre-populated store.
struct Prepared {
    traffic: Traffic,
    /// Per distinct job: the request line, the exact response line
    /// expected for it, the fresh engine's outcome, and its reliability
    /// score or why the outcome is wrong.
    request_lines: Vec<String>,
    expected_lines: Vec<String>,
    outcomes: Vec<JobOutcome>,
    scores: Vec<Result<f64, String>>,
    store: PathBuf,
}

/// Builds the traffic and its expected answers. Jobs meant to be found
/// in the store are synthesized by a fresh engine attached to it, which
/// writes them back; all other jobs by a fresh storeless engine.
fn prepare(seed: u64, seconds: f64, library: &Library, dir: &Path) -> Result<Prepared, String> {
    let requests = (RATE_PER_S * seconds).round().max(1.0) as usize;
    let traffic = serve_mixed(seed, requests, library);
    let store = dir.join("base");
    let jobs = &traffic.distinct.jobs;
    let (stored, other): (Vec<usize>, Vec<usize>) =
        (0..jobs.len()).partition(|&j| traffic.kinds[j] == Kind::Stored);
    let pick = |idx: &[usize]| -> Vec<SynthJob> { idx.iter().map(|&j| jobs[j].clone()).collect() };
    let writer = ResultStore::open(&store).map_err(|e| e.to_string())?;
    let stored_out = Engine::new(library.clone())
        .with_jobs(SERVER_JOBS)
        .with_store(Arc::new(writer))
        .run_batch(&pick(&stored))
        .outcomes;
    let other_out = Engine::new(library.clone())
        .with_jobs(SERVER_JOBS)
        .run_batch(&pick(&other))
        .outcomes;
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    for (j, o) in stored
        .iter()
        .zip(stored_out)
        .chain(other.iter().zip(other_out))
    {
        outcomes[*j] = Some(o);
    }
    let outcomes: Vec<JobOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every job ran"))
        .collect();
    let mut prepared = Prepared {
        traffic,
        request_lines: Vec::new(),
        expected_lines: Vec::new(),
        outcomes,
        scores: Vec::new(),
        store,
    };
    prepared.encode(library);
    Ok(prepared)
}

impl Prepared {
    /// Fills in each job's request line, expected response line and
    /// checked score from its outcome.
    fn encode(&mut self, library: &Library) {
        let jobs = &self.traffic.distinct.jobs;
        for (j, (job, outcome)) in jobs.iter().zip(&self.outcomes).enumerate() {
            let params = serde_json::to_value(job);
            self.request_lines.push(protocol::request_line(
                j as u64,
                "synth",
                Some(&params),
                None,
            ));
            self.expected_lines.push(protocol::ok_line(
                &Value::UInt(j as u64),
                serde_json::to_value(outcome),
            ));
            let (canonical, dfg) = &self.traffic.distinct.graphs[&job.workload];
            self.scores
                .push(check_outcome(dfg, library, job, canonical, outcome));
        }
    }

    /// Checks one response line for distinct job `j`; returns its score.
    fn check(&self, j: usize, response: std::io::Result<String>) -> Result<f64, String> {
        let line = response.map_err(|e| format!("request for job {j}: {e}"))?;
        if line != self.expected_lines[j] {
            return Err(format!(
                "response for {} differs from a fresh engine's outcome: {line:.160}",
                self.traffic.distinct.jobs[j].workload
            ));
        }
        self.scores[j].clone()
    }
}

/// Copies a store directory tree (so every pass starts from the same
/// pre-populated state).
fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Starts a daemon on `store` and waits until it answers a `ping`;
/// returns it with the time that took.
fn start(store: &Path, library: &Library) -> Result<(ServerHandle, Duration), String> {
    let begin = Instant::now();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        jobs: SERVER_JOBS,
        store: Some(store.display().to_string()),
        ..ServeConfig::default()
    };
    let handle =
        Server::start(config, library.clone()).map_err(|e| format!("server start: {e}"))?;
    let ping =
        Client::connect(&handle.addr().to_string()).and_then(|mut c| c.call("ping", None, None));
    let took = begin.elapsed();
    if let Err(e) = ping {
        stop(handle);
        return Err(format!("daemon did not answer ping: {e}"));
    }
    Ok((handle, took))
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// One open-loop request's record.
struct Sample {
    index: usize,
    latency_ms: f64,
    late_ms: f64,
    result: Result<f64, String>,
}

/// Drives the request sequence at [`RATE_PER_S`] over [`CONNECTIONS`]
/// connections. Request `i` is due `i / rate` after the start and is
/// timed from then; connection `k` carries the requests `i ≡ k`.
fn open_loop(addr: &str, prepared: &Prepared) -> (Vec<Sample>, f64) {
    let requests = &prepared.traffic.requests;
    let period = 1.0 / RATE_PER_S;
    let t0 = Instant::now() + LEAD;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut out = Vec::new();
                    for (i, &j) in requests.iter().enumerate().skip(k).step_by(CONNECTIONS) {
                        let due = t0 + Duration::from_secs_f64(period * i as f64);
                        let now = Instant::now();
                        if due > now + SPIN {
                            std::thread::sleep(due - now - SPIN);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                        let sent = Instant::now();
                        let response = match client.as_mut() {
                            Ok(c) => c.roundtrip(&prepared.request_lines[j]),
                            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                        };
                        let done = Instant::now();
                        if response.is_err() {
                            client = Client::connect(addr);
                        }
                        out.push(Sample {
                            index: i,
                            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            result: prepared.check(j, response),
                        });
                    }
                    (out, Instant::now())
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut last = t0;
        for w in workers {
            let (out, end) = w.join().expect("load generator thread");
            all.extend(out);
            last = last.max(end);
        }
        let span = last.saturating_duration_since(t0).as_secs_f64();
        all.push(Sample {
            index: usize::MAX,
            latency_ms: span,
            late_ms: 0.0,
            result: Ok(0.0),
        });
        all
    });
    let span = samples.pop().expect("span marker").latency_ms;
    samples.sort_by_key(|s| s.index);
    (samples, span)
}

/// Whether the generator fell further and further behind: the median
/// lateness over the last tenth of requests exceeds half the latency
/// limit.
fn backlogged(samples: &[Sample]) -> bool {
    let tail: Vec<f64> = samples[samples.len() - samples.len().div_ceil(10)..]
        .iter()
        .map(|s| s.late_ms)
        .collect();
    median(&tail) > LATENCY_LIMIT_MS / 2.0
}

/// Records an open-loop pass's checks into `report`; returns the
/// latencies in due order and the reliability summed over the distinct
/// jobs answered correctly (each job once, however often requested).
fn tally(samples: &[Sample], prepared: &Prepared, report: &mut Report) -> (Vec<f64>, f64) {
    let jobs = prepared.scores.len();
    let (mut requested, mut answered) = (vec![false; jobs], vec![true; jobs]);
    for s in samples {
        let j = prepared.traffic.requests[s.index];
        requested[j] = true;
        answered[j] &= s.result.is_ok();
        report.tally(s.result.clone().map(|_| ()));
    }
    let score = prepared
        .scores
        .iter()
        .zip(requested.iter().zip(&answered))
        .filter(|(_, (r, a))| **r && **a)
        .filter_map(|(s, _)| s.as_ref().ok())
        .sum();
    (samples.iter().map(|s| s.latency_ms).collect(), score)
}

/// `stat` of each consecutive window of [`WINDOW`] latencies (one
/// window when there are fewer).
fn per_window(latencies: &[f64], stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let windows = (latencies.len() / WINDOW).max(1);
    let size = latencies.len() / windows;
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                latencies.len()
            } else {
                (w + 1) * size
            };
            stat(&latencies[w * size..end])
        })
        .collect()
}

/// Flags an overloaded open loop: a p99 over the limit or a growing
/// backlog makes the run invalid rather than fast.
fn judge(samples: &[Sample], p99: f64, report: &mut Report) {
    let backlog = backlogged(samples);
    report.set("gen.backlog", f64::from(u8::from(backlog)));
    if backlog {
        report.invalid =
            Some("the open loop built a backlog: the offered rate is not sustained".to_owned());
    } else if p99 > LATENCY_LIMIT_MS {
        report.invalid = Some(format!(
            "p99 {p99:.3} ms exceeds the {LATENCY_LIMIT_MS} ms limit"
        ));
    }
}

/// The untraced run.
pub fn measure(seed: u64, seconds: f64, library: &Library, dir: &Path) -> Result<Report, String> {
    let prepared = prepare(seed, seconds, library, dir)?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (handle, took) = start(&prepared.store, library)?;
        setups.push(took.as_secs_f64());
        stop(handle);
    }
    let (handle, took) = start(&prepared.store, library)?;
    setups.push(took.as_secs_f64());
    let (samples, span_s) = open_loop(&handle.addr().to_string(), &prepared);
    stop(handle);
    let mut report = Report::default();
    let (latencies, score) = tally(&samples, &prepared, &mut report);
    let p99s = per_window(&latencies, |w| p99_with_beyond(w).0);
    let p99 = median(&p99s);
    let beyond = per_window(&latencies, |w| p99_with_beyond(w).1 as f64)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    report.set("setup_s", median(&setups));
    report.set(
        "jobs_per_s",
        (report.attempted - report.failed) as f64 / span_s,
    );
    report.set("p50_ms", median(&per_window(&latencies, median)));
    report.set("p99_ms", p99);
    report.set("rel_score", score);
    report.set(
        "success_ratio",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    judge(&samples, p99, &mut report);
    for kind in [Kind::Hot, Kind::Stored, Kind::Fresh] {
        let of_kind: Vec<f64> = samples
            .iter()
            .filter(|s| prepared.traffic.kinds[prepared.traffic.requests[s.index]] == kind)
            .map(|s| s.latency_ms)
            .collect();
        report.notes.push(format!(
            "{kind:?}: {} requests, p50 {:.3} ms, p99 {:.3} ms",
            of_kind.len(),
            median(&of_kind),
            nearest_rank(&of_kind, 0.99)
        ));
    }
    report.notes.push(format!(
        "{} requests offered at {RATE_PER_S}/s over {:.3} s; {} latency samples; p99 is the median of \
         {} windows' p99 [{}] ms, each with >= {beyond} samples beyond (limit {LATENCY_LIMIT_MS} ms); \
         generator late p99 {:.3} ms",
        samples.len(),
        span_s,
        latencies.len(),
        p99s.len(),
        p99s.iter().map(|w| format!("{w:.2}")).collect::<Vec<_>>().join(" "),
        nearest_rank(&late, 0.99)
    ));
    Ok(report)
}

/// Numbers each serial pass's private store copy.
static PASSES: AtomicUsize = AtomicUsize::new(0);

/// What a serial pass through the daemon measured.
pub struct ReplayResult {
    /// Wall time of the pass.
    pub wall_us: f64,
    /// Cache and store counters over the pass.
    pub counters: Counters,
    /// The daemon session's resident cache bytes after the pass.
    pub resident_bytes: f64,
    /// The daemon session's cache evictions after the pass.
    pub evictions: f64,
}

/// A closed-loop workload's jobs replayed through a daemon on an empty
/// store, so its traced run also measures the serve, serialization and
/// store layers on the workload's own inputs.
pub struct Replay(Prepared);

impl Replay {
    /// Prepares the replay of `set`, whose fresh-engine `outcomes` the
    /// daemon's answers must match byte for byte.
    ///
    /// # Errors
    ///
    /// Returns a message when the empty store cannot be created.
    pub fn new(
        set: &JobSet,
        outcomes: &[JobOutcome],
        library: &Library,
        dir: &Path,
    ) -> Result<Replay, String> {
        let store = dir.join("replay-base");
        ResultStore::open(&store).map_err(|e| e.to_string())?;
        let mut prepared = Prepared {
            traffic: Traffic {
                distinct: set.clone(),
                kinds: vec![Kind::Fresh; set.jobs.len()],
                requests: (0..set.jobs.len()).collect(),
            },
            request_lines: Vec::new(),
            expected_lines: Vec::new(),
            outcomes: outcomes.to_vec(),
            scores: Vec::new(),
            store,
        };
        prepared.encode(library);
        Ok(Replay(prepared))
    }

    /// One serial pass of the replay (see [`serial_pass`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the daemon cannot be run.
    pub fn pass(
        &self,
        library: &Library,
        dir: &Path,
        probe: &Probe,
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> Result<ReplayResult, String> {
        serial_pass(&self.0, library, dir, probe, tracer, report)
    }
}

/// One serial pass over the request sequence on one connection, then a
/// load and a save of every object the daemon's store holds. Every call
/// is wrapped in a span; the daemon's request time and the kernels it
/// ran are attached from the program's own timers.
fn serial_pass(
    prepared: &Prepared,
    library: &Library,
    dir: &Path,
    probe: &Probe,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<ReplayResult, String> {
    let store_dir = dir.join(format!("serial-{}", PASSES.fetch_add(1, Ordering::Relaxed)));
    copy_tree(&prepared.store, &store_dir).map_err(|e| format!("copying the store: {e}"))?;
    let scratch = ResultStore::open(store_dir.with_extension("copy")).map_err(|e| e.to_string())?;
    let (handle, _) = start(&store_dir, library)?;
    let addr = handle.addr().to_string();
    let before = probe.counters();
    let start = Instant::now();
    let result = tracer.span("pass", |t| -> Result<(), String> {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        for &j in &prepared.traffic.requests {
            let response = t.span("client.call", |t| {
                let timers = probe.timers();
                let line = client.roundtrip(&prepared.request_lines[j]);
                let parsed = line.as_ref().ok().map(|l| serde_json::from_str::<Value>(l));
                let spent = probe.timers().since(&timers);
                t.derived_tree(
                    "serve.server",
                    spent.request_us,
                    &[
                        ("alloc", spent.alloc_us),
                        ("sched", spent.sched_us),
                        ("bind", spent.bind_us),
                    ],
                );
                match parsed {
                    Some(Err(e)) => Err(std::io::Error::other(e.to_string())),
                    _ => line,
                }
            });
            // The encoding the daemon performs for this answer, from the
            // fresh engine's outcome.
            let encoded = t.span("serialize", |_| {
                protocol::ok_line(
                    &Value::UInt(j as u64),
                    serde_json::to_value(&prepared.outcomes[j]),
                )
            });
            let checked = prepared.check(j, response).and_then(|_| {
                if encoded == prepared.expected_lines[j] {
                    Ok(())
                } else {
                    Err("re-encoding the outcome is not deterministic".to_owned())
                }
            });
            report.tally(checked);
        }
        let store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
        for key in store.keys() {
            match t.span("store.load", |_| store.load(key)) {
                Lookup::Hit(payload) => t
                    .span("store.save", |_| scratch.save(key, &payload))
                    .map_err(|e| e.to_string())?,
                _ => report.tally(Err(format!("store object {key:016x} did not load"))),
            }
        }
        Ok(())
    });
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let session = Client::connect(&addr).and_then(|mut c| c.call("metrics", None, None));
    stop(handle);
    result?;
    let session = session.map_err(|e| format!("metrics request: {e}"))?;
    let fact = |name: &str| -> f64 {
        rchls_serve::response_result(&session)
            .and_then(Value::as_map)
            .and_then(|m| serde::map_get(m, "session"))
            .and_then(Value::as_map)
            .and_then(|m| serde::map_get(m, name))
            .map_or(0.0, |v| match v {
                Value::UInt(n) => *n as f64,
                _ => 0.0,
            })
    };
    Ok(ReplayResult {
        wall_us,
        counters: probe.counters().since(&before),
        resident_bytes: fact("resident_cache_bytes"),
        evictions: fact("cache_evictions"),
    })
}

/// The traced run: the open loop once (generator lateness, backlog,
/// queue depth, worker utilisation, refusals), then the request
/// sequence serially, untraced and traced, each on a fresh daemon and a
/// fresh copy of the pre-populated store.
pub fn traced(
    seed: u64,
    seconds: f64,
    library: &Library,
    dir: &Path,
    probe: &Probe,
) -> Result<(Report, Tracer), String> {
    let prepared = prepare(seed, seconds, library, dir)?;
    let mut report = Report::default();
    let open_dir = dir.join("open");
    copy_tree(&prepared.store, &open_dir).map_err(|e| format!("copying the store: {e}"))?;
    let (handle, _) = start(&open_dir, library)?;
    let rejected = probe.rejected();
    let timers = probe.timers();
    let (samples, span_s) = open_loop(&handle.addr().to_string(), &prepared);
    let busy = probe.timers().since(&timers).worker_busy_us;
    stop(handle);
    let (latencies, _) = tally(&samples, &prepared, &mut report);
    let p99 = median(&per_window(&latencies, |w| p99_with_beyond(w).0));
    let beyond = p99_with_beyond(&latencies).1;
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    report.set("gen.late_ms", nearest_rank(&late, 0.99));
    report.set("latency.samples", latencies.len() as f64);
    report.set("latency.beyond_p99", beyond as f64);
    report.set("serve.rejected", (probe.rejected() - rejected) as f64);
    report.set("serve.queue_depth_max", probe.queue_depth_max() as f64);
    report.set(
        "executor.busy_ratio",
        busy / (SERVER_JOBS as f64 * span_s * 1e6),
    );
    judge(&samples, p99, &mut report);

    // Untraced passes before and after the traced one, so warm-up and
    // drift do not land on either side of the overhead ratio.
    let before = serial_pass(
        &prepared,
        library,
        dir,
        probe,
        &mut Tracer::new(false),
        &mut report,
    )?;
    let mut tracer = Tracer::new(true);
    let pass = serial_pass(&prepared, library, dir, probe, &mut tracer, &mut report)?;
    let after = serial_pass(
        &prepared,
        library,
        dir,
        probe,
        &mut Tracer::new(false),
        &mut report,
    )?;
    let untraced_us = (before.wall_us + after.wall_us) / 2.0;
    record_counters(&mut report, &pass.counters);
    report.set("engine.resident_bytes", pass.resident_bytes);
    report.set("engine.evictions", pass.evictions);
    // Work the daemon performed: every job it synthesized rather than
    // loaded (hot-set jobs once, fresh jobs once).
    let computed: Vec<&JobOutcome> = prepared
        .outcomes
        .iter()
        .zip(&prepared.traffic.kinds)
        .filter(|(_, k)| **k != Kind::Stored)
        .map(|(o, _)| o)
        .collect();
    record_work(&mut report, &computed);
    report.set_layers(&tracer, untraced_us);
    report.set(
        "error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok((report, tracer))
}
