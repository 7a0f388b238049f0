//! End-to-end tests over the real `rchls` binary: persistent-store
//! byte-identity across cold/warm/corrupted states, kill-and-resume
//! sweeps, shard/merge recombination, and store maintenance commands.

use rchls_testkit::TestDir;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn rchls(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rchls"))
        .args(args)
        .output()
        .expect("spawn rchls")
}

/// Runs the binary and returns stdout, insisting on a zero exit.
fn ok(args: &[&str]) -> String {
    let out = rchls(args);
    assert!(
        out.status.success(),
        "rchls {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The shared small sweep used by the store tests: 6 grid points over
/// figure 4(a), emitted as the deterministic JSON document.
const SWEEP: &[&str] = &[
    "sweep",
    "--workload",
    "builtin:figure4a",
    "--latencies",
    "4,5,6",
    "--areas",
    "4,5",
    "--format",
    "json",
];

fn sweep_with_store(store: &str) -> String {
    let mut args = SWEEP.to_vec();
    args.extend_from_slice(&["--store", store]);
    ok(&args)
}

/// Every regular file below `dir`, depth-first.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(files_under(&path));
        } else {
            found.push(path);
        }
    }
    found
}

#[test]
fn store_cold_warm_and_corrupted_sweeps_are_byte_identical() {
    let dir = TestDir::new("cli-e2e-coldwarm");
    let store = dir.join("store");
    let store = store.to_str().unwrap();

    // The storeless run is the reference document.
    let reference = ok(SWEEP);
    assert_eq!(sweep_with_store(store), reference, "cold run differs");

    let stats = ok(&["store", "stats", "--store", store]);
    assert!(
        !stats.contains("objects      0"),
        "cold sweep wrote nothing:\n{stats}"
    );

    // Warm: everything answers from the store, not a byte moves.
    assert_eq!(sweep_with_store(store), reference, "warm run differs");

    // Truncate one stored object. The poisoned entry must be
    // quarantined and re-synthesized — never trusted.
    let objects = files_under(&Path::new(store).join("objects"));
    assert!(!objects.is_empty());
    let victim = &objects[0];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();

    assert_eq!(
        sweep_with_store(store),
        reference,
        "post-corruption differs"
    );
    let stats = ok(&["store", "stats", "--store", store]);
    assert!(
        stats.contains("quarantined  1"),
        "corrupt entry not quarantined:\n{stats}"
    );

    // Pareto rides the same store and is just as deterministic.
    let pareto = &[
        "pareto",
        "builtin:figure4a",
        "--latencies",
        "4,5,6",
        "--areas",
        "4,5",
        "--format",
        "json",
    ];
    let reference = ok(pareto);
    let mut with_store = pareto.to_vec();
    with_store.extend_from_slice(&["--store", store]);
    assert_eq!(ok(&with_store), reference, "pareto cold differs");
    assert_eq!(ok(&with_store), reference, "pareto warm differs");
}

#[test]
fn store_verify_and_gc_maintain_the_store() {
    let dir = TestDir::new("cli-e2e-maint");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let _ = sweep_with_store(store);

    // Fresh entries verify clean: re-synthesis reproduces every report.
    let report = ok(&["store", "verify", "--store", store]);
    assert!(report.contains(" 0 drifted"), "{report}");
    assert!(!report.contains("summary: 0 ok"), "{report}");

    // `--sample` bounds the walk.
    let sampled = ok(&["store", "verify", "--store", store, "--sample", "2"]);
    assert!(sampled.contains("checking 2"), "{sampled}");

    // Verifying under a different library cannot reproduce the stored
    // fingerprints: that is a key mismatch, loudly reported, not drift.
    let skewed = ok(&["store", "verify", "--store", store, "--mission-time", "2.0"]);
    assert!(skewed.contains(" 0 drifted"), "{skewed}");
    assert!(skewed.contains("key-mismatch"), "{skewed}");

    // gc with no policy flags is an error, not a silent wipe.
    assert!(!rchls(&["store", "gc", "--store", store]).status.success());

    // A zero-byte budget evicts everything.
    let report = ok(&["store", "gc", "--store", store, "--max-bytes", "0"]);
    assert!(report.contains("evicted"), "{report}");
    let stats = ok(&["store", "stats", "--store", store]);
    assert!(stats.contains("objects      0"), "{stats}");
}

#[test]
fn killed_sweep_resumes_to_the_byte_identical_document() {
    let dir = TestDir::new("cli-e2e-resume");
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();
    // A 12-point grid over a 24-node workload: enough work that the
    // child is still mid-sweep when the first checkpoint lands.
    let base = [
        "sweep",
        "--workload",
        "random:24x6@7",
        "--latencies",
        "10,11,12,13",
        "--areas",
        "8,9,10",
        "--format",
        "json",
    ];
    let reference = ok(&base);

    let mut child = Command::new(env!("CARGO_BIN_EXE_rchls"))
        .args(base)
        .args(["--store", store_arg, "--checkpoint-every", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sweep");
    // Kill -9 as soon as the first checkpoint is on disk.
    let checkpoints = store.join("checkpoints");
    let deadline = Instant::now() + Duration::from_secs(60);
    while files_under(&checkpoints).is_empty() {
        if child.try_wait().expect("poll child").is_some() {
            break; // Finished before we could kill it; resume still must work.
        }
        assert!(Instant::now() < deadline, "no checkpoint within 60s");
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Resume from whatever survived; the document must not care.
    let mut resume = base.to_vec();
    resume.extend_from_slice(&["--store", store_arg, "--checkpoint-every", "1", "--resume"]);
    let out = rchls(&resume);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        reference,
        "resumed sweep diverged from the uninterrupted document"
    );
    // The finished run retires its checkpoint.
    assert!(files_under(&checkpoints).is_empty());
}

#[test]
fn sharded_sweeps_merge_into_the_unsharded_document() {
    let dir = TestDir::new("cli-e2e-shard");
    let reference = ok(SWEEP);

    let mut paths = Vec::new();
    for index in 0..3u32 {
        let mut args = SWEEP.to_vec();
        let spec = format!("{index}/3");
        args.extend_from_slice(&["--shard", &spec]);
        let doc = ok(&args);
        let path = dir.join(format!("shard{index}.json"));
        std::fs::write(&path, doc).unwrap();
        paths.push(path);
    }
    let path_args: Vec<&str> = paths.iter().map(|p| p.to_str().unwrap()).collect();

    let mut merge = vec!["merge"];
    merge.extend_from_slice(&path_args);
    merge.extend_from_slice(&["--format", "json"]);
    assert_eq!(ok(&merge), reference, "merge differs from unsharded sweep");

    // Shard order is immaterial.
    let mut shuffled = vec!["merge", path_args[2], path_args[0], path_args[1]];
    shuffled.extend_from_slice(&["--format", "json"]);
    assert_eq!(ok(&shuffled), reference, "merge is order-sensitive");

    // An incomplete set is an error, not a quietly partial document.
    let out = rchls(&["merge", path_args[0], "--format", "json"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("shards"),
        "unexpected error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn operation_free_dfg_files_are_refused_with_a_teaching_error() {
    let dir = TestDir::new("cli-e2e-empty-dfg");
    let path = dir.join("empty.dfg");
    std::fs::write(&path, "# a graph with no operations\ngraph empty\n").unwrap();
    let spec = format!("file:{}", path.display());
    // Default bounds (derived from the graph) and explicit bounds alike:
    // a named error and exit 1, never a panic.
    for extra in [&[][..], &["--latency", "4", "--area", "4"][..]] {
        let mut args = vec!["synth", "--workload", spec.as_str()];
        args.extend_from_slice(extra);
        let out = rchls(&args);
        assert_eq!(out.status.code(), Some(1), "rchls {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{stderr}");
        assert!(stderr.contains("empty.dfg"), "{stderr}");
        assert!(stderr.contains("no operations"), "{stderr}");
        assert!(stderr.contains("op <label> <kind>"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
