//! End-to-end coverage for `rchls chaos run` and the `--faults` flag.
//!
//! Lives in its own integration-test binary because an armed fault
//! plan is process-global: these tests must not share a process with
//! the rest of the CLI suite. Within the binary they serialize on
//! [`chaos_lock`].

use rchls_testkit::TestDir;

/// The fault plane is process-global; tests that arm it must not
/// overlap.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run(args: &[&str]) -> Result<String, rchls_cli::CliError> {
    let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
    rchls_cli::run(&args)
}

#[test]
fn chaos_run_passes_under_worker_panics_and_writes_a_report() {
    let _guard = chaos_lock();
    let dir = TestDir::new("cli-chaos-panic");
    let plan = dir.join("plan.json");
    std::fs::write(
        &plan,
        r#"{"schema_version": 1, "faults": [
            {"point": "serve.worker.exec", "action": "panic", "hits": [1]}
        ]}"#,
    )
    .unwrap();
    let script = dir.join("script.json");
    std::fs::write(
        &script,
        r#"{
            "schema_version": 1,
            "serve": {"jobs": 1, "queue_depth": 8},
            "wall_timeout_ms": 60000,
            "clients": [
                {"name": "c1", "retries": 2, "requests": [
                    {"method": "ping"},
                    {"method": "synth",
                     "params": {"workload": "builtin:figure4a", "latency": 6, "area": 4}},
                    {"method": "synth",
                     "params": {"workload": "builtin:figure4a", "latency": 6, "area": 4}}
                ]}
            ]
        }"#,
    )
    .unwrap();
    let report = dir.join("report.json");
    let out = run(&[
        "chaos",
        "run",
        "--plan",
        plan.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ])
    .unwrap();
    // The first heavy request hits the injected panic and comes back as
    // a structured `internal` error; the retry-free second synth
    // succeeds and is byte-checked against the offline engine.
    assert!(out.contains("PASS"), "{out}");
    assert!(out.contains("1 synth responses byte-checked"), "{out}");
    let report = std::fs::read_to_string(report).unwrap();
    assert!(report.contains("\"verdict\": \"pass\""), "{report}");
    assert!(report.contains("\"internal\""), "{report}");
    assert!(report.contains("serve.worker.exec"), "{report}");
    // The run disarmed its plan on the way out.
    assert!(rchls_chaos::report().is_none());
}

#[test]
fn chaos_run_rejects_bad_plans_and_scripts() {
    let _guard = chaos_lock();
    let dir = TestDir::new("cli-chaos-bad");
    let plan = dir.join("plan.json");
    let script = dir.join("script.json");
    std::fs::write(
        &script,
        r#"{"schema_version": 1, "clients": [{"requests": [{"method": "ping"}]}]}"#,
    )
    .unwrap();
    // Unknown injection point: rejected before anything boots.
    std::fs::write(
        &plan,
        r#"{"schema_version": 1, "faults": [
            {"point": "store.telepathy", "action": "error", "hits": [1]}
        ]}"#,
    )
    .unwrap();
    let err = run(&[
        "chaos",
        "run",
        "--plan",
        plan.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
    ])
    .unwrap_err()
    .to_string();
    assert!(err.contains("store.telepathy"), "{err}");
    assert!(rchls_chaos::report().is_none());
    // Unknown script key: same treatment.
    std::fs::write(
        &plan,
        r#"{"schema_version": 1, "faults": [
            {"point": "store.write", "action": "error", "hits": [1]}
        ]}"#,
    )
    .unwrap();
    std::fs::write(&script, r#"{"schema_version": 1, "clientz": []}"#).unwrap();
    let err = run(&[
        "chaos",
        "run",
        "--plan",
        plan.to_str().unwrap(),
        "--script",
        script.to_str().unwrap(),
    ])
    .unwrap_err()
    .to_string();
    assert!(err.contains("clientz"), "{err}");
    assert!(rchls_chaos::report().is_none());
}

#[test]
fn faulted_store_writes_do_not_change_batch_output() {
    let _guard = chaos_lock();
    let dir = TestDir::new("cli-chaos-batch");
    let jobs = dir.join("jobs.json");
    std::fs::write(
        &jobs,
        r#"[{"workload": "builtin:figure4a", "latency": 6, "area": 4}]"#,
    )
    .unwrap();
    let clean = run(&["batch", jobs.to_str().unwrap(), "--jobs", "1"]).unwrap();
    // Same batch, store-backed, with every store write faulted: saves
    // fail (and are counted), but the output document is byte-identical
    // — faults degrade persistence, never results.
    let plan = dir.join("plan.json");
    std::fs::write(
        &plan,
        r#"{"schema_version": 1, "faults": [
            {"point": "store.write", "action": "error", "always": true}
        ]}"#,
    )
    .unwrap();
    let store = dir.join("store");
    let faulted = run(&[
        "batch",
        jobs.to_str().unwrap(),
        "--jobs",
        "1",
        "--store",
        store.to_str().unwrap(),
        "--faults",
        plan.to_str().unwrap(),
    ])
    .unwrap();
    assert_eq!(clean, faulted);
    // The command disarmed its plan on the way out.
    assert!(rchls_chaos::report().is_none());
}
