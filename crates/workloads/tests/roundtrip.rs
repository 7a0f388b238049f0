//! The DFG text format round-trips: `parse_dfg(dfg.to_text()) == dfg`
//! over the whole family of generated workloads, so `file:` specs can
//! carry any graph the `random:` source can make.

use proptest::prelude::*;
use rchls_dfg::parse_dfg;
use rchls_testkit::TestDir;
use rchls_workloads::{load_workload, random_layered_dfg, RandomDfgConfig};

fn configs() -> impl Strategy<Value = RandomDfgConfig> {
    (1usize..60, 1usize..8, 0u64..1000, 0u32..=10, 0u32..=10).prop_map(
        |(nodes, layers, seed, edge_decile, mul_decile)| RandomDfgConfig {
            nodes,
            layers,
            seed,
            edge_probability: f64::from(edge_decile) / 10.0,
            multiplier_fraction: f64::from(mul_decile) / 10.0,
        },
    )
}

proptest! {
    #[test]
    fn text_format_round_trips_random_workloads(config in configs()) {
        let dfg = random_layered_dfg(&config);
        let text = dfg.to_text();
        let back = parse_dfg(&text).unwrap();
        prop_assert_eq!(&back, &dfg);
        // And the printer is a fixed point: printing the re-parse gives
        // the same text.
        prop_assert_eq!(back.to_text(), text);
    }

    #[test]
    fn random_specs_round_trip_through_the_file_source(seed in 0u64..50) {
        let spec = format!("random:20x4@{seed}");
        let w = load_workload(&spec).unwrap();
        let dir = TestDir::new("roundtrip");
        let path = dir.join(format!("w{seed}.dfg"));
        std::fs::write(&path, w.dfg.to_text()).unwrap();
        let again = load_workload(&format!("file:{}", path.display())).unwrap();
        prop_assert_eq!(again.dfg, w.dfg);
    }
}

#[test]
fn builtin_benchmarks_round_trip_structurally() {
    // Builder-made graphs may order a node's predecessors differently
    // from the canonical text ordering, so compare re-parse against
    // re-parse (the canonical form) and check the structural counts
    // against the original.
    for (name, ctor) in rchls_workloads::all_benchmarks() {
        let dfg = ctor();
        let text = dfg.to_text();
        let back = parse_dfg(&text).unwrap();
        assert_eq!(back.name(), dfg.name(), "{name}");
        assert_eq!(back.node_count(), dfg.node_count(), "{name}");
        assert_eq!(back.edge_count(), dfg.edge_count(), "{name}");
        assert_eq!(back.to_text(), text, "{name}");
        assert_eq!(parse_dfg(&back.to_text()).unwrap(), back, "{name}");
    }
}
