//! Quickstart: synthesize the paper's 16-point FIR filter under latency
//! and area bounds and inspect the resulting design.
//!
//! Run with `cargo run --release --example quickstart`.

use rc_hls::core::{Engine, SynthJob};
use rc_hls::reslib::Library;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A synthesis session over the paper's Table-1 library: three
    // adders, two multipliers, each a different (area, delay,
    // reliability) trade-off.
    let engine = Engine::new(Library::table1());
    let library = engine.library();
    // The 16-point symmetric FIR filter: 15 additions, 8 multiplications.
    let dfg = engine.workload("builtin:fir16")?.dfg;

    println!(
        "benchmark: {} ({} operations)",
        dfg.name(),
        dfg.node_count()
    );
    println!("library:");
    for (_, version) in library.iter() {
        println!("  {version}");
    }

    // Ask for the most reliable design within 12 cycles and 8 area units.
    let job = SynthJob::new("builtin:fir16", 12, 8);
    let design = engine.synth(&job)?.design;

    println!("\nsynthesized under {}:", job.bounds());
    println!("{}", design.render(&dfg, library));

    // Compare with the single-version alternative a conventional flow
    // would pick (everything on the fast type-2 units).
    let single = engine.synth(&job.with_strategy("baseline"))?.design;
    println!(
        "single-version + redundancy baseline reliability: {}",
        single.reliability
    );
    println!(
        "reliability-centric improvement: {:+.2}%",
        (design.reliability.value() - single.reliability.value()) / single.reliability.value()
            * 100.0
    );
    Ok(())
}
