//! Never-panic properties of the wire protocol's request parser: any
//! line a client sends, however mangled, parses or is refused with a
//! message for a `bad_request` response.

use proptest::prelude::*;
use rchls_serve::protocol::parse_request;
use rchls_testkit::mutate;

/// A well-formed request the mutation property starts from.
const VALID_REQUEST: &str = r#"{"v": 1, "id": 7, "method": "synth", "params": {"workload": "builtin:figure4a", "latency": 6, "area": 4, "strategy": "combined"}, "deadline_ms": 500}"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parse_request_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..256)
    ) {
        if let Err(message) = parse_request(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(!message.is_empty());
        }
    }

    #[test]
    fn parse_request_never_panics_on_mutated_input(
        edits in proptest::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 1..=5)
    ) {
        if let Err(message) = parse_request(&mutate(VALID_REQUEST, &edits)) {
            prop_assert!(!message.is_empty());
        }
    }
}

#[test]
fn the_mutation_seed_is_a_valid_request() {
    let request = parse_request(VALID_REQUEST).unwrap();
    assert_eq!(request.method, "synth");
    assert_eq!(request.deadline_ms, Some(500));
}
