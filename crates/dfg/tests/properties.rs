//! Property-based tests for the DFG substrate on random DAGs.

use proptest::prelude::*;
use rchls_dfg::{parse_dfg, Dfg, NodeId, OpKind};

/// Strategy: a random DAG with `n` nodes where edges only go from lower to
/// higher ids (guaranteeing acyclicity by construction).
fn random_dag() -> impl Strategy<Value = Dfg> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
        let kinds = proptest::collection::vec(0u8..5, n);
        (Just(n), edges, kinds).prop_map(|(_n, edges, kinds)| {
            let mut g = Dfg::new("random");
            for (i, k) in kinds.iter().enumerate() {
                g.add_node(OpKind::ALL[*k as usize], format!("v{i}"));
            }
            for (a, b) in edges {
                let (lo, hi) = (a.min(b), a.max(b));
                if lo != hi {
                    // Ignore duplicates; they are rejected by add_edge.
                    let _ = g.add_edge(NodeId::new(lo as u32), NodeId::new(hi as u32));
                }
            }
            g
        })
    })
}

/// A small valid input the mutation property starts from.
const VALID_DFG: &str = "graph t\nop a add\nop b mul # c\nop c sub\na -> b\nb -> c\na -> c\n";

/// Bytes that matter to the text format; mutations draw half their
/// replacement bytes from here so they reach past the first token.
const FORMAT_BYTES: &[u8] = b"\n\r\t #->abcgrphopaddmulsubdivcmp";

/// Applies `(op, position, byte)` edits: 0 overwrites, 1 inserts, 2 deletes.
fn mutate(input: &str, edits: &[(u8, usize, u8)]) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for &(op, pos, byte) in edits {
        let byte = if byte < 128 {
            byte
        } else {
            FORMAT_BYTES[usize::from(byte) % FORMAT_BYTES.len()]
        };
        match op {
            0 if !bytes.is_empty() => {
                let i = pos % bytes.len();
                bytes[i] = byte;
            }
            2 if !bytes.is_empty() => {
                bytes.remove(pos % bytes.len());
            }
            _ => bytes.insert(pos % (bytes.len() + 1), byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_never_panics_on_random_bytes(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_dfg(&text) {
            prop_assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn parse_never_panics_on_mutated_input(
        edits in proptest::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 1..=5)
    ) {
        if let Err(e) = parse_dfg(&mutate(VALID_DFG, &edits)) {
            prop_assert!(!e.message.is_empty());
        }
    }
}

proptest! {
    #[test]
    fn topological_order_is_a_valid_linearization(g in random_dag()) {
        let order = g.topological_order().unwrap();
        prop_assert_eq!(order.len(), g.node_count());
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (a, b) in g.edges() {
            prop_assert!(pos[&a] < pos[&b], "edge {} -> {} violated", a, b);
        }
    }

    #[test]
    fn levels_are_monotone_along_edges(g in random_dag()) {
        let m = g.levels(|_| 1).unwrap();
        for (a, b) in g.edges() {
            prop_assert!(m.level(a) < m.level(b));
        }
    }

    #[test]
    fn critical_path_is_a_real_path_with_correct_length(g in random_dag()) {
        let delay = |n: NodeId| (n.index() % 3) as u32 + 1;
        let cp = g.critical_path(delay).unwrap();
        // consecutive nodes are connected
        for w in cp.nodes.windows(2) {
            prop_assert!(g.succs(w[0]).contains(&w[1]));
        }
        let sum: u32 = cp.nodes.iter().map(|&n| delay(n)).sum();
        prop_assert_eq!(sum, cp.length);
        prop_assert_eq!(cp.length, g.levels(delay).unwrap().length());
    }

    #[test]
    fn text_round_trip_preserves_structure(g in random_dag()) {
        let parsed = parse_dfg(&g.to_text()).unwrap();
        prop_assert_eq!(parsed.node_count(), g.node_count());
        prop_assert_eq!(parsed.edge_count(), g.edge_count());
        for n in g.nodes() {
            let p = parsed.node_by_label(n.label()).unwrap();
            prop_assert_eq!(parsed.node(p).kind(), n.kind());
        }
    }

    #[test]
    fn dot_export_mentions_every_node(g in random_dag()) {
        let dot = g.to_dot();
        for n in g.node_ids() {
            let needle = format!("{n} ");
            prop_assert!(dot.contains(&needle));
        }
    }

    #[test]
    fn depth_is_bounded_by_node_count(g in random_dag()) {
        let d = g.depth().unwrap();
        prop_assert!(d as usize <= g.node_count());
        prop_assert!(d >= 1);
    }
}
