//! Design-space exploration: sweep the differential-equation solver over
//! a grid of latency/area bounds and compare the three strategies —
//! the redundancy baseline [3], the reliability-centric approach, and
//! the combined scheme (the paper's Table 2 workflow) — on a session
//! engine.
//!
//! Run with `cargo run --release --example design_space`.

use rc_hls::core::{Engine, FlowSpec, RedundancyModel};
use rc_hls::explorer::{averages, explore, format_table, ExploreTask};
use rc_hls::reslib::Library;

fn main() {
    let dfg = rc_hls::workloads::diffeq();
    // The paper's own Table 2(c) grid.
    let grid = vec![
        (5, 11),
        (5, 13),
        (5, 15),
        (6, 11),
        (6, 13),
        (6, 15),
        (7, 7),
        (7, 9),
        (7, 11),
    ];
    println!("benchmark: {} ({} ops)", dfg.name(), dfg.node_count());
    let engine = Engine::new(Library::table1());
    let task = ExploreTask::new(dfg.name().to_owned(), dfg, grid);
    let exploration = explore(
        &engine,
        &[task],
        &FlowSpec::default(),
        RedundancyModel::default(),
    );
    let rows = &exploration.sweeps[0].rows;
    println!("{}", format_table(rows));
    let (baseline, ours, combined) = averages(rows);
    println!("averages: Ref[3]={baseline:.5}  ours={ours:.5}  combined={combined:.5}");
    println!(
        "\nreading: positive %Imprv at tight bounds (top rows) and the\n\
         combined column dominating everywhere reproduce the paper's trend."
    );
}
