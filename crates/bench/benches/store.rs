//! Persistent-store performance: raw save/load envelope throughput and
//! the cost of answering a whole sweep from the on-disk tier with a
//! cold in-memory cache (the restart-recovery path).

use criterion::{criterion_group, criterion_main, Criterion};
use rchls_core::{Engine, FlowSpec, RedundancyModel};
use rchls_explorer::{explore, ExploreTask};
use rchls_reslib::Library;
use rchls_store::{Lookup, ResultStore};
use rchls_testkit::TestDir;
use std::hint::black_box;
use std::sync::Arc;

/// Envelope overhead: header encode + fsync + rename on save, read +
/// validate on load, over a typical report-sized payload.
fn bench_save_load(c: &mut Criterion) {
    let dir = TestDir::new("bench-store-roundtrip");
    let store = ResultStore::open(dir.path()).unwrap();
    let payload = "x".repeat(2048);
    c.bench_function("store/save-2KiB", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key += 1;
            store.save(key, &payload).unwrap();
        })
    });
    store.save(0, &payload).unwrap();
    c.bench_function("store/load-2KiB", |b| {
        b.iter(|| match store.load(0) {
            Lookup::Hit(p) => black_box(p.len()),
            other => panic!("warm load was {other:?}"),
        })
    });
}

/// The restart path: a sweep whose every point replays from the store
/// through a cold in-memory cache — decode + validate per point, no
/// synthesis.
fn bench_store_tier_sweep(c: &mut Criterion) {
    let flow = FlowSpec::default();
    let model = RedundancyModel::default();
    let dir = TestDir::new("bench-store-tier");
    let store = Arc::new(ResultStore::open(dir.path()).unwrap());
    let session = || {
        Engine::new(Library::table1())
            .with_jobs(1)
            .with_store(Arc::clone(&store))
    };
    let grid: Vec<(u32, u32)> = [5u32, 6, 7]
        .iter()
        .flat_map(|&l| [7u32, 11].iter().map(move |&a| (l, a)))
        .collect();
    let task = [ExploreTask::from_spec("builtin:diffeq", grid).unwrap()];
    // Write the whole sweep through once.
    let _ = explore(&session(), &task, &flow, model);
    c.bench_function("store/cold-memory-warm-disk-sweep", |b| {
        b.iter(|| black_box(explore(&session(), &task, &flow, model)))
    });
}

criterion_group!(benches, bench_save_load, bench_store_tier_sweep);
criterion_main!(benches);
