//! Session-engine performance: batch synthesis over `random:` workload
//! families at increasing sizes and worker counts, workload-spec
//! resolution/interning cost, and the warm-cache fast path.
//!
//! End-to-end numbers come from the `perfbench` harness (see
//! `BENCHMARK.json`); these are the statistically sampled micro-curves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rchls_core::{Engine, SynthJob};
use rchls_reslib::Library;
use std::hint::black_box;

/// A family batch: `seeds` random graphs × 2 bound points × 2 strategies.
fn jobs(nodes: usize, layers: usize, seeds: u64) -> Vec<SynthJob> {
    let mut jobs = Vec::new();
    for seed in 0..seeds {
        let spec = format!("random:{nodes}x{layers}@{seed}");
        let (l0, a0) = (layers as u32 + 2, (nodes as u32).div_ceil(2));
        for (latency, area) in [(l0, a0), (l0 * 2, a0 * 2)] {
            for strategy in ["ours", "combined"] {
                jobs.push(SynthJob::new(&spec, latency, area).with_strategy(strategy));
            }
        }
    }
    jobs
}

/// Cold batches over a growing random family, at 1 and 4 workers.
fn bench_batch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine-batch");
    group.sample_size(10);
    for &nodes in &[16usize, 32] {
        let batch = jobs(nodes, 5, 2);
        for workers in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("{nodes}-node/jobs"), workers),
                &workers,
                |b, &workers| {
                    b.iter(|| {
                        let engine = Engine::new(Library::table1()).with_jobs(workers);
                        black_box(engine.run_batch(&batch))
                    })
                },
            );
        }
    }
    group.finish();
}

/// The same batch against a warm session: interned workloads plus
/// memoized synthesis points — the steady-state serving cost.
fn bench_warm_session(c: &mut Criterion) {
    let batch = jobs(32, 5, 2);
    let engine = Engine::new(Library::table1()).with_jobs(4);
    let _ = engine.run_batch(&batch);
    c.bench_function("engine-batch/warm-session", |b| {
        b.iter(|| black_box(engine.run_batch(&batch)))
    });
}

/// Spec resolution alone: the first `workload()` call generates and
/// interns, every later one clones an `Arc`.
fn bench_workload_interning(c: &mut Criterion) {
    let engine = Engine::new(Library::table1());
    let _ = engine.workload("random:64x6@0").unwrap();
    c.bench_function("engine-workload/interned-lookup", |b| {
        b.iter(|| black_box(engine.workload("random:64x6@0").unwrap()))
    });
    c.bench_function("engine-workload/generate-and-intern", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            // A fresh spec each iteration so generation is measured.
            seed += 1;
            black_box(engine.workload(&format!("random:64x6@{seed}")).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_batch_scaling,
    bench_warm_session,
    bench_workload_interning
);
criterion_main!(benches);
