//! Two real processes hammering one store directory: the cross-process
//! analogue of the in-process concurrent-writer unit tests. The store's
//! atomicity discipline (unique tmp names carrying the process id, then
//! rename) must hold across address spaces, not just across threads.
//!
//! The child process is this same test binary re-executed with
//! `RCHLS_STORE_MP_CHILD` set; the guard test below becomes the writer
//! under that variable and is a no-op otherwise.

use rchls_store::{Lookup, ResultStore};
use rchls_testkit::TestDir;

const SHARED_KEY: u64 = 42;
const KEYS_PER_WRITER: u64 = 25;

/// Writer-child entry point: under `RCHLS_STORE_MP_CHILD=<dir>|<tag>`,
/// write a contested shared key plus a private key range, then exit.
#[test]
fn multiprocess_writer_child() {
    let Ok(spec) = std::env::var("RCHLS_STORE_MP_CHILD") else {
        return;
    };
    let (dir, tag) = spec.split_once('|').expect("spec is dir|tag");
    let offset: u64 = tag.parse::<u64>().unwrap() * KEYS_PER_WRITER;
    let store = ResultStore::open(dir).unwrap();
    for round in 0..KEYS_PER_WRITER {
        store
            .save(
                SHARED_KEY,
                &format!("{{\"writer\": {tag}, \"round\": {round}}}"),
            )
            .unwrap();
        store
            .save(1000 + offset + round, &format!("{{\"private\": {round}}}"))
            .unwrap();
    }
}

#[test]
fn two_processes_writing_one_store_leave_only_valid_entries() {
    let dir = TestDir::new("store-mp");
    let exe = std::env::current_exe().unwrap();
    let store = ResultStore::open(dir.path()).unwrap();

    let mut children: Vec<std::process::Child> = (0..2)
        .map(|tag| {
            std::process::Command::new(&exe)
                .args(["multiprocess_writer_child", "--exact"])
                .env(
                    "RCHLS_STORE_MP_CHILD",
                    format!("{}|{tag}", dir.path().display()),
                )
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn writer child")
        })
        .collect();
    // The parent reads the contested key while both children write it:
    // every observation must be a valid entry or a miss — never a torn
    // read, never a quarantine.
    let mut hits = 0u32;
    while children.iter_mut().any(|c| c.try_wait().unwrap().is_none()) {
        match store.load(SHARED_KEY) {
            Lookup::Hit(payload) => {
                assert!(payload.contains("\"writer\""), "torn read: {payload}");
                hits += 1;
            }
            Lookup::Miss => {}
            other => panic!("mid-race load quarantined a valid entry: {other:?}"),
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for child in &mut children {
        assert!(child.wait().unwrap().success(), "writer child failed");
    }
    assert!(hits > 0, "the race window never produced a readable entry");

    // Afterwards: the shared key holds one of the two final payloads,
    // every private key is intact, and nothing was quarantined or left
    // behind in tmp/.
    match store.load(SHARED_KEY) {
        Lookup::Hit(payload) => assert!(
            payload.contains(&format!("\"round\": {}", KEYS_PER_WRITER - 1)),
            "last write did not win: {payload}"
        ),
        other => panic!("shared key unreadable after the race: {other:?}"),
    }
    for tag in 0..2u64 {
        for round in 0..KEYS_PER_WRITER {
            let key = 1000 + tag * KEYS_PER_WRITER + round;
            match store.load(key) {
                Lookup::Hit(payload) => {
                    assert_eq!(payload, format!("{{\"private\": {round}}}"))
                }
                other => panic!("private key {key} lost: {other:?}"),
            }
        }
    }
    let stats = store.stats();
    assert_eq!(stats.objects, 1 + 2 * KEYS_PER_WRITER);
    assert_eq!(stats.quarantined, 0);
    let tmp_litter = std::fs::read_dir(dir.join("tmp"))
        .map(|entries| entries.count())
        .unwrap_or(0);
    assert_eq!(tmp_litter, 0, "tmp/ should be empty after clean exits");
}
