//! The rc-hls benchmark: seeded workloads driven through the program's
//! public front doors, every output checked, end-to-end metrics from an
//! untraced run and a per-layer breakdown from a separate traced run.
//!
//! See `perfbench/README.md` for the metric catalog and how to run it.

pub mod check;
pub mod closed;
pub mod probe;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use rchls_reslib::Library;
use report::Report;
use std::path::{Path, PathBuf};

/// The workloads, by the names `BENCHMARK.json` uses.
pub const WORKLOADS: [&str; 3] = ["sweep_cold", "large_synth", "serve_mixed"];

/// `large_synth` always runs this many ladder passes; `rel_score` sums
/// their designs and the traced run replays them.
pub const LARGE_SYNTH_SCORED_PASSES: u64 = 4;

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
///
/// # Errors
///
/// Returns a usage message for an unknown flag, workload or value.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            opts.workload
        ));
    }
    Ok(opts)
}

/// Where the benchmark keeps its scratch state and traces: a directory
/// under the build's target directory, inside the checkout.
#[must_use]
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-out")
}

/// Runs one invocation. `dir` is a fresh scratch directory the caller
/// removes afterwards.
///
/// # Errors
///
/// Returns a message when the run could not be carried out at all (as
/// opposed to producing wrong output, which the report records).
pub fn run(opts: &Options, dir: &Path) -> Result<Report, String> {
    let library = Library::table1();
    let probe = probe::Probe::new();
    let (mut report, tracer) = match (opts.workload.as_str(), opts.trace) {
        ("serve_mixed", false) => (
            serve::measure(opts.seed, opts.seconds, &library, dir)?,
            None,
        ),
        ("serve_mixed", true) => {
            let (r, t) = serve::traced(opts.seed, opts.seconds, &library, dir, &probe)?;
            (r, Some(t))
        }
        (name, trace) => {
            let seed = opts.seed;
            let (mode, scored_passes, pass): (_, u64, Box<dyn Fn(u64) -> workload::JobSet>) =
                if name == "sweep_cold" {
                    (
                        closed::Mode::Batch,
                        1,
                        Box::new(|p| workload::sweep_cold(seed, p, &library)),
                    )
                } else {
                    (
                        closed::Mode::Serial,
                        LARGE_SYNTH_SCORED_PASSES,
                        Box::new(|p| workload::large_synth(seed, p..p + 1, &library)),
                    )
                };
            if trace {
                let set = if name == "sweep_cold" {
                    pass(0)
                } else {
                    workload::large_synth(seed, 0..scored_passes, &library)
                };
                let (r, t) = closed::traced(&set, &library, mode, dir, &probe)?;
                (r, Some(t))
            } else {
                let w = closed::Closed {
                    mode,
                    pass: &*pass,
                    scored_passes,
                };
                (closed::measure(&w, &library, opts.seconds)?, None)
            }
        }
    };
    if let Some(tracer) = tracer {
        let path = out_dir().join(format!("trace-{}-seed{}.json", opts.workload, opts.seed));
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report
                .notes
                .push(format!("could not write {}: {e}", path.display())),
        }
    }
    Ok(report)
}
