//! Building a custom reliability-characterized library from gate-level
//! fault injection — the end-to-end version of the paper's Section 4 flow
//! (our substitution for its MAX-layout + HSPICE step) — and synthesizing
//! against it.
//!
//! Run with `cargo run --release --example custom_library`.

use rc_hls::core::flow::Ours;
use rc_hls::core::{Bounds, Strategy, SynthRequest};
use rc_hls::dfg::OpClass;
use rc_hls::netlist::generators;
use rc_hls::relmath::Reliability;
use rc_hls::reslib::{characterize_components, Library, ResourceVersion};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: generate the gate-level components (8-bit datapath here to
    // keep the example fast; the characterization chain is width-agnostic).
    let components = vec![
        generators::ripple_carry_adder(8),
        generators::brent_kung_adder(8),
        generators::kogge_stone_adder(8),
    ];

    // Step 2: Monte-Carlo SEU injection, anchored like the paper at
    // R(ripple-carry) = 0.999.
    let anchor = Reliability::new(0.999)?;
    let characterized = characterize_components(&components, anchor, 20_000, 2005);
    println!("component characterization (20k injected faults each):");
    for (name, gates, susceptibility, reliability) in &characterized {
        println!(
            "  {name:<6} gates={gates:<4} susceptibility={susceptibility:.3} -> R={reliability}"
        );
    }

    // Step 3: build a library from the derived reliabilities. Delays and
    // areas follow the architectures' logic depth and gate count.
    let versions = vec![
        ResourceVersion::new("rca8", OpClass::Adder, 1, 2, characterized[0].3),
        ResourceVersion::new("bk8", OpClass::Adder, 2, 1, characterized[1].3),
        ResourceVersion::new("ks8", OpClass::Adder, 4, 1, characterized[2].3),
        // Multipliers from the paper's published values, for brevity.
        ResourceVersion::new("csm", OpClass::Multiplier, 2, 2, Reliability::new(0.999)?),
        ResourceVersion::new("lfm", OpClass::Multiplier, 4, 1, Reliability::new(0.969)?),
    ];
    let library = Library::new(versions)?;

    // Step 4: synthesize a workload against the custom library.
    let dfg = rc_hls::workloads::ar_lattice();
    let design = Ours
        .run(&SynthRequest::new(&dfg, &library, Bounds::new(24, 14)))?
        .design;
    println!("\nAR-lattice design under Ld=24, Ad=14:");
    println!(
        "latency={} area={} reliability={}",
        design.latency, design.area, design.reliability
    );
    Ok(())
}
