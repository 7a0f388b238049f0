//! Never-panic properties of the documents the CLI and the daemon read
//! from outside: batch job lists (`rchls batch`, the daemon's `synth` and
//! `batch` params), `--faults` plans, and `rchls merge` shard documents.
//! However mangled, each one parses or is refused with a message.

use proptest::prelude::*;
use rchls_chaos::FaultPlan;
use rchls_core::{Engine, FlowSpec, RedundancyModel, SynthJob};
use rchls_explorer::{explore_shard, export, merge, ExploreTask};
use rchls_reslib::Library;
use rchls_testkit::mutate;
use std::sync::OnceLock;

/// The committed batch example the job-list property mutates.
const VALID_JOBS: &str = include_str!("../../../examples/batch_jobs.json");

/// A committed chaos plan the fault-plan property mutates.
const VALID_PLAN: &str = include_str!("../../../ci/chaos/store_io.plan.json");

/// A one-shard (`0/1`) figure 4(a) sweep document: a mutation that still
/// parses also reaches `merge`'s consistency checks.
fn valid_shard() -> &'static str {
    static SHARD: OnceLock<String> = OnceLock::new();
    SHARD.get_or_init(|| {
        let task = ExploreTask::new(
            "figure4a",
            rchls_workloads::figure4a(),
            vec![(5, 4), (6, 6)],
        )
        .with_workload("builtin:figure4a");
        let engine = Engine::new(Library::table1());
        let shard = explore_shard(
            &engine,
            &task,
            &FlowSpec::default(),
            RedundancyModel::default(),
            0,
            1,
        );
        export::shard_json(&shard)
    })
}

/// Parses `text` as a job list; a refusal carries a message.
fn jobs_never_panic(text: &str) {
    if let Err(e) = serde_json::from_str::<Vec<SynthJob>>(text) {
        assert!(!e.to_string().is_empty());
    }
}

/// Parses `text` as a fault plan; a refusal carries a message.
fn plan_never_panics(text: &str) {
    if let Err(e) = FaultPlan::parse(text) {
        assert!(!e.to_string().is_empty());
    }
}

/// Parses `text` as a shard document and merges it; a refusal at either
/// step carries a message.
fn shard_never_panics(text: &str) {
    match export::shard_from_json(text) {
        Ok(shard) => {
            if let Err(e) = merge(&[shard]) {
                assert!(!e.to_string().is_empty());
            }
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn inputs_never_panic_on_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..256)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        jobs_never_panic(&text);
        plan_never_panics(&text);
        shard_never_panics(&text);
    }

    #[test]
    fn job_lists_never_panic_on_mutated_input(
        edits in proptest::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 1..=5)
    ) {
        jobs_never_panic(&mutate(VALID_JOBS, &edits));
    }

    #[test]
    fn fault_plans_never_panic_on_mutated_input(
        edits in proptest::collection::vec((0u8..3, 0usize..4096, 0u8..=255), 1..=5)
    ) {
        plan_never_panics(&mutate(VALID_PLAN, &edits));
    }

    #[test]
    fn shard_documents_never_panic_on_mutated_input(
        edits in proptest::collection::vec((0u8..3, 0usize..65536, 0u8..=255), 1..=5)
    ) {
        shard_never_panics(&mutate(valid_shard(), &edits));
    }
}

#[test]
fn the_mutation_seeds_are_valid() {
    let jobs: Vec<SynthJob> = serde_json::from_str(VALID_JOBS).unwrap();
    assert_eq!(jobs.len(), 5);
    FaultPlan::parse(VALID_PLAN).unwrap();
    let shard = export::shard_from_json(valid_shard()).unwrap();
    let exploration = merge(&[shard]).unwrap();
    assert_eq!(exploration.sweeps[0].rows.len(), 2);
}
