//! `rchls-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human summary on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 when every output was correct, 1 when
//! any was not (or the open loop was overloaded), 2 when the run could
//! not be carried out.

use rchls_perfbench::report::{END_TO_END, PER_LAYER};
use rchls_perfbench::{out_dir, parse_args, run};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: rchls-perfbench --workload <sweep_cold|large_synth|serve_mixed> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let dir = out_dir().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let result = run(&opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} seed {} ({}, {} cpus): {} attempted, {} failed",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        eprintln!("{note}");
    }
    for error in &report.errors {
        eprintln!("FAILED: {error}");
    }
    if let Some(why) = &report.invalid {
        eprintln!("INVALID: {why}");
    }
    let catalog: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalog {
        eprintln!(
            "  {name:<24} {:>16.4} {unit}",
            report.metrics.get(*name).copied().unwrap_or(0.0)
        );
    }
    match report.json_line(catalog) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
