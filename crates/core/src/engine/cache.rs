//! Memoization of synthesis reports keyed by a content fingerprint.
//!
//! A sweep re-synthesizes the same `(DFG, library, bounds, flow, model,
//! strategy)` point whenever grids overlap between runs, benchmarks share
//! structure, or a frontier is refined interactively. The session
//! [`Engine`](crate::Engine)'s [`SynthCache`] makes every repeat
//! near-free: reports are stored under a 64-bit fingerprint of the
//! *content* of all synthesis inputs — the flow's pass
//! ids and the strategy's [`fingerprint
//! token`](crate::Strategy::fingerprint_token), never enum
//! discriminants — so any structurally identical request, even from a
//! rebuilt [`Dfg`] value or an out-of-tree strategy, hits the cache.

use crate::engine::budget::{BudgetedTable, CacheBudget};
use crate::engine::fingerprint::Fingerprint;
use crate::engine::store_tier::{self, Provenance, StoreOutcome};
use crate::{Bounds, FlowSpec, RedundancyModel, SynthReport, SynthesisError};
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use rchls_store::ResultStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The cache key: a content fingerprint of every input that can change a
/// synthesis result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64);

impl CacheKey {
    /// Fingerprints one synthesis request for a strategy, keyed by the
    /// flow's pass ids and the strategy's fingerprint token.
    #[must_use]
    pub fn for_point(
        dfg: &Dfg,
        library: &Library,
        bounds: Bounds,
        flow: &FlowSpec,
        model: RedundancyModel,
        strategy_token: &str,
    ) -> CacheKey {
        let mut fp = Fingerprint::new();
        fp.update(dfg);
        fp.update(library);
        fp.update(&bounds);
        fp.update(flow);
        fp.update(&model);
        fp.update(strategy_token);
        CacheKey(fp.finish())
    }

    /// The raw 64-bit fingerprint.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Counters describing a cache's effectiveness so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that ran a fresh synthesis.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (`0.0` when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One memoized outcome, carrying the cheap-to-compare request facts
/// (`bounds`, the strategy token) so a 64-bit fingerprint collision
/// between two different requests is detected instead of silently
/// returning the wrong design. (The remaining inputs — DFG, library,
/// flow — vary far less across a sweep, so the pair covers virtually all
/// of the key diversity.)
#[derive(Debug, Clone)]
struct CacheEntry {
    bounds: Bounds,
    strategy: String,
    result: Option<SynthReport>,
}

impl CacheEntry {
    /// Approximate bytes this entry keeps resident — the size-accounting
    /// input for the cache's LRU budget.
    fn approx_bytes(&self) -> usize {
        size_of::<CacheEntry>()
            + self.strategy.capacity()
            + self.result.as_ref().map_or(0, SynthReport::approx_bytes)
    }
}

/// A thread-safe memo table of synthesis reports.
///
/// Stores `Option<SynthReport>` per key — `None` records an *infeasible*
/// point so repeated sweeps don't re-prove infeasibility either. The lock
/// is held only for lookups and inserts, never across a synthesis run, so
/// parallel workers proceed without serializing on the cache. (Two
/// workers may race to compute the same fresh key; both compute the same
/// deterministic result, and the second insert is a harmless overwrite.)
///
/// Cached reports keep the wall time of the run that populated the entry;
/// callers assembling deterministic artifacts scrub it (see
/// [`crate::Diagnostics::scrubbed`]).
///
/// Under a [`CacheBudget`], every layer this cache owns (the memo table
/// here, the two [`StartsCache`](crate::engine::StartsCache) tables, and
/// the scratch pool) evicts least-recently-used entries to stay inside
/// its share — see [`SynthCache::set_budget`]. Eviction never changes
/// outputs, only recompute cost.
#[derive(Debug, Default)]
pub(crate) struct SynthCache {
    entries: Mutex<BudgetedTable<CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Session scratch arenas lent to every miss's synthesis run, so a
    /// sweep/batch over this cache allocates one arena per concurrent
    /// worker instead of per point.
    scratch: crate::scratch::ScratchPool,
    /// Session-interned uniform start pools (see
    /// [`StartsCache`](crate::engine::StartsCache)), shared by every
    /// refining flow this cache runs.
    starts: crate::engine::StartsCache,
    /// The optional on-disk second tier (see [`SynthCache::set_store`]):
    /// probed after a memory miss, written back after a fresh
    /// synthesis. Set once per session.
    store: OnceLock<Arc<ResultStore>>,
}

impl SynthCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> SynthCache {
        SynthCache::default()
    }

    /// Attaches the on-disk result store as the second cache tier. The
    /// first store attached to a session wins; later calls are ignored
    /// (tiering is a session-construction decision, not a runtime
    /// toggle).
    pub fn set_store(&self, store: Arc<ResultStore>) {
        let _ = self.store.set(store);
    }

    /// The attached on-disk store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<ResultStore>> {
        self.store.get()
    }

    /// The session scratch pool misses synthesize on.
    #[must_use]
    pub fn scratch_pool(&self) -> &crate::scratch::ScratchPool {
        &self.scratch
    }

    /// The session-interned uniform start pools misses draw from.
    #[must_use]
    pub fn starts_cache(&self) -> &crate::engine::StartsCache {
        &self.starts
    }

    /// Applies a session-wide cache budget: the memo table takes the
    /// synth share, the starts/alloc tables and the scratch pool take
    /// theirs. Layers over their new share evict immediately.
    pub fn set_budget(&self, budget: CacheBudget) {
        let evicted = crate::sync::lock_unpoisoned(&self.entries).set_budget(budget.synth_share());
        crate::obs::synth_cache_evictions().add(evicted);
        self.starts
            .set_budget(budget.starts_share(), budget.alloc_share());
        self.scratch.set_budget(budget.scratch_share());
    }

    /// Looks up `key`, computing and storing with `compute` on a miss.
    /// Infeasibility maps to `None`.
    ///
    /// `bounds` and `strategy_token` double as a collision check: an
    /// entry found under `key` but recorded for a different request is a
    /// fingerprint collision, and the request is computed fresh (and not
    /// cached) rather than answered with the wrong design. `provenance`
    /// rides into the store entry a fresh result is written back as.
    pub(super) fn get_or_compute(
        &self,
        key: CacheKey,
        bounds: Bounds,
        strategy_token: &str,
        provenance: Option<&Provenance>,
        compute: impl FnOnce() -> Result<SynthReport, SynthesisError>,
    ) -> Option<SynthReport> {
        let mut collided = false;
        if let Some(entry) = crate::sync::lock_unpoisoned(&self.entries).get(key.0) {
            if entry.bounds == bounds && entry.strategy == strategy_token {
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::obs::synth_cache_hits().incr();
                return entry.result.clone();
            }
            collided = true;
        }
        // Second tier: the on-disk store. Skipped when the memory entry
        // collided — the store is keyed by the same fingerprint, so its
        // entry is just as suspect for this request.
        let mut probe_store = !collided;
        if probe_store {
            if let Some(store) = self.store.get() {
                match store_tier::load(store, key, bounds, strategy_token) {
                    StoreOutcome::Hit(result) => {
                        // Promote into the memory tier so `seen_points`
                        // and later lookups match a cold-computed
                        // session, then answer.
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.insert_entry(key, bounds, strategy_token, result.clone());
                        return result;
                    }
                    StoreOutcome::Collision => {
                        collided = true;
                        probe_store = false;
                    }
                    StoreOutcome::Miss => {}
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::synth_cache_misses().incr();
        let result = compute().ok();
        if !collided {
            self.insert_entry(key, bounds, strategy_token, result.clone());
            if probe_store {
                if let Some(store) = self.store.get() {
                    store_tier::save(
                        store,
                        key,
                        bounds,
                        strategy_token,
                        result.as_ref(),
                        provenance,
                    );
                }
            }
        }
        result
    }

    /// Inserts one memoized outcome, with the eviction and residency
    /// accounting every insert path shares.
    fn insert_entry(
        &self,
        key: CacheKey,
        bounds: Bounds,
        strategy_token: &str,
        result: Option<SynthReport>,
    ) {
        crate::obs::synth_cache_inserts().incr();
        let entry = CacheEntry {
            bounds,
            strategy: strategy_token.to_owned(),
            result,
        };
        let bytes = entry.approx_bytes();
        let (evicted, resident) = {
            let mut table = crate::sync::lock_unpoisoned(&self.entries);
            let evicted = table.insert(key.0, entry, bytes);
            (evicted, table.resident_bytes())
        };
        crate::obs::synth_cache_evictions().add(evicted);
        crate::obs::synth_cache_resident_bytes().record(resident as u64);
    }

    /// Hit/miss counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct synthesis points ever memoized — independent
    /// of eviction (and worker count), so deterministic documents report
    /// this rather than a resident count.
    #[must_use]
    pub fn seen_points(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).seen_len()
    }

    /// Approximate resident bytes of the memo table.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).resident_bytes()
    }

    /// Entries evicted from the memo table since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        crate::sync::lock_unpoisoned(&self.entries).evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{flow, Engine, Strategy, SynthRequest};
    use rchls_dfg::{DfgBuilder, OpKind};

    fn tiny() -> Dfg {
        DfgBuilder::new("tiny")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap()
    }

    fn ours() -> Arc<dyn Strategy> {
        flow::strategy("ours").unwrap()
    }

    #[test]
    fn identical_requests_hit() {
        let dfg = tiny();
        let engine = Engine::new(Library::table1());
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let first = engine.synth_point(&dfg, None, Bounds::new(6, 4), &flow_spec, model, &*ours());
        let second = engine.synth_point(&dfg, None, Bounds::new(6, 4), &flow_spec, model, &*ours());
        assert_eq!(first, second);
        assert_eq!(engine.cache_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(engine.memoized_points(), 1);
    }

    #[test]
    fn structurally_equal_graphs_share_entries() {
        // A rebuilt graph with the same content fingerprints identically.
        let engine = Engine::new(Library::table1());
        let combined = flow::strategy("combined").unwrap();
        for _ in 0..2 {
            let dfg = tiny();
            let _ = engine.synth_point(
                &dfg,
                None,
                Bounds::new(6, 4),
                &FlowSpec::default(),
                RedundancyModel::default(),
                &*combined,
            );
        }
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn different_inputs_do_not_collide() {
        let dfg = tiny();
        let engine = Engine::new(Library::table1());
        let model = RedundancyModel::default();
        let flow_spec = FlowSpec::default();
        for id in ["baseline", "ours", "combined"] {
            let _ = engine.synth_point(
                &dfg,
                None,
                Bounds::new(6, 4),
                &flow_spec,
                model,
                &*flow::strategy(id).unwrap(),
            );
        }
        let _ = engine.synth_point(&dfg, None, Bounds::new(7, 4), &flow_spec, model, &*ours());
        let _ = engine.synth_point(&dfg, None, Bounds::new(6, 5), &flow_spec, model, &*ours());
        // A different pass id is a different point too.
        let _ = engine.synth_point(
            &dfg,
            None,
            Bounds::new(6, 4),
            &FlowSpec::default().with_victim("min-reliability-loss"),
            model,
            &*ours(),
        );
        assert_eq!(engine.cache_stats(), CacheStats { hits: 0, misses: 6 });
    }

    #[test]
    fn infeasibility_is_cached_too() {
        let dfg = tiny();
        let engine = Engine::new(Library::table1());
        for _ in 0..2 {
            let out = engine.synth_point(
                &dfg,
                None,
                // Latency 1 is impossible for two dependent ops.
                Bounds::new(1, 4),
                &FlowSpec::default(),
                RedundancyModel::default(),
                &*ours(),
            );
            assert!(out.is_none());
        }
        assert_eq!(engine.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn fingerprint_collisions_are_detected_not_served() {
        let dfg = tiny();
        let lib = Library::table1();
        let engine = Engine::new(Library::table1());
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        // Slack bounds settle on the reliable slow adders (latency 4);
        // the tight-latency request must use fast adders (latency 2).
        let wide = Bounds::new(6, 4);
        let tight = Bounds::new(2, 6);
        let key = CacheKey::for_point(&dfg, &lib, wide, &flow_spec, model, "ours");
        let run = |bounds: Bounds| ours().run(&SynthRequest::new(&dfg, &lib, bounds));
        let first = engine
            .cache
            .get_or_compute(key, wide, "ours", None, || run(wide));
        // The same key arriving with a different declared request is a
        // collision: it must compute fresh, never serve the wide result.
        let second = engine
            .cache
            .get_or_compute(key, tight, "ours", None, || run(tight));
        assert_ne!(first, second);
        assert_eq!(second.as_ref().map(|r| r.design.latency), Some(2));
        assert_eq!(engine.cache_stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(
            engine.memoized_points(),
            1,
            "a collided request is not cached"
        );
        // The original entry still answers its own request.
        let again = engine.cache.get_or_compute(key, wide, "ours", None, || {
            unreachable!("must be served from the cache")
        });
        assert_eq!(again, first);
        // A differing strategy token on the same key is a collision too.
        let other = engine
            .cache
            .get_or_compute(key, wide, "pipelined@ii=2", None, || run(wide));
        assert_eq!(engine.cache_stats().misses, 3);
        assert!(other.is_some());
    }

    #[test]
    fn budget_zero_evicts_everything_without_changing_outputs() {
        let dfg = tiny();
        let unlimited = Engine::new(Library::table1());
        let zero = Engine::new(Library::table1()).with_cache_budget(CacheBudget::limited(0));
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let bounds = Bounds::new(6, 4);
        for _ in 0..2 {
            let cached = unlimited
                .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
                .unwrap();
            let evicted = zero
                .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
                .unwrap();
            // Only wall times may differ between a cache hit and a
            // recompute-after-eviction.
            assert_eq!(cached.design, evicted.design);
            assert_eq!(
                cached.diagnostics.scrubbed(),
                evicted.diagnostics.scrubbed()
            );
        }
        // The unlimited session memoized; the budget-0 session kept
        // nothing resident but still counted the distinct point.
        assert_eq!(unlimited.cache_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(zero.cache_stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(zero.cache.resident_bytes(), 0);
        assert_eq!(zero.memoized_points(), 1);
        assert_eq!(zero.cache.evictions(), 2);
        assert!(unlimited.cache.resident_bytes() > 0);
        assert_eq!(unlimited.cache.evictions(), 0);
        assert_eq!(unlimited.memoized_points(), 1);
    }

    #[test]
    fn a_poisoned_lock_does_not_wedge_the_cache() {
        let dfg = tiny();
        let engine = Engine::new(Library::table1());
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let first = engine.synth_point(&dfg, None, Bounds::new(6, 4), &flow_spec, model, &*ours());
        // Panic while holding the memo-table lock, as a panicking request
        // in a shared session would.
        let poisoner = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = engine.cache.entries.lock().unwrap();
                    panic!("poison the cache lock");
                })
                .join()
        });
        assert!(poisoner.is_err());
        assert!(engine.cache.entries.is_poisoned());
        // The session keeps serving: the memoized entry still answers.
        let second = engine.synth_point(&dfg, None, Bounds::new(6, 4), &flow_spec, model, &*ours());
        assert_eq!(first, second);
        assert_eq!(engine.cache_stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn hit_rate_is_reported() {
        let stats = CacheStats { hits: 3, misses: 1 };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// A store in a fresh test directory; keep the directory alive while
    /// the store is in use.
    fn store_at(tag: &str) -> (rchls_testkit::TestDir, Arc<ResultStore>) {
        let dir = rchls_testkit::TestDir::new(&format!("core-store-{tag}"));
        let store = ResultStore::open(dir.path()).expect("temp store opens");
        (dir, Arc::new(store))
    }

    /// A session tiered over an existing store root.
    fn session_over(store: &Arc<ResultStore>) -> Engine {
        Engine::new(Library::table1()).with_store(Arc::clone(store))
    }

    #[test]
    fn store_tier_round_trips_across_sessions() {
        let (_dir, store) = store_at("roundtrip");
        let dfg = tiny();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let bounds = Bounds::new(6, 4);

        let cold = session_over(&store);
        let first = cold
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .unwrap();
        assert_eq!(cold.cache_stats(), CacheStats { hits: 0, misses: 1 });

        // A brand-new session over the same root answers from disk:
        // same design, same scrubbed diagnostics, no synthesis run.
        let warm = session_over(&store);
        let second = warm
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .unwrap();
        assert_eq!(warm.cache_stats(), CacheStats { hits: 1, misses: 0 });
        assert_eq!(first.design, second.design);
        assert_eq!(first.diagnostics.scrubbed(), second.diagnostics);
        // The store keeps wall-time-scrubbed diagnostics, so store-served
        // reports are deterministic as-is.
        assert_eq!(second.diagnostics.wall_time_micros, 0);
        // The hit was promoted into the memory tier: the cumulative
        // point count matches a cold-computed session, and the next
        // lookup never touches disk.
        assert_eq!(warm.memoized_points(), 1);
        let third = warm
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .unwrap();
        assert_eq!(third, second);
        assert_eq!(warm.cache_stats(), CacheStats { hits: 2, misses: 0 });
    }

    #[test]
    fn store_tier_records_infeasibility_too() {
        let (_dir, store) = store_at("infeasible");
        let dfg = tiny();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        // Latency 1 is impossible for two dependent ops.
        let bounds = Bounds::new(1, 4);
        let cold = session_over(&store);
        assert!(cold
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .is_none());
        let warm = session_over(&store);
        assert!(warm
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .is_none());
        assert_eq!(warm.cache_stats(), CacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn corrupt_store_entries_are_recomputed_never_served() {
        let (_dir, store) = store_at("corrupt");
        let dfg = tiny();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let bounds = Bounds::new(6, 4);
        let cold = session_over(&store);
        let first = cold
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .unwrap();

        // Truncate every live entry file behind the store's back.
        let mut corrupted = 0;
        for key in store.keys() {
            let rchls_store::Lookup::Hit(_) = store.load(key) else {
                panic!("cold entries load");
            };
            corrupted += 1;
        }
        assert_eq!(corrupted, 1);
        fn truncate_all(dir: &std::path::Path) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    truncate_all(&path);
                } else {
                    let text = std::fs::read_to_string(&path).unwrap();
                    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
                }
            }
        }
        truncate_all(&store.root().join("objects"));

        // The warm session quarantines, recomputes, and matches.
        let warm = session_over(&store);
        let second = warm
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .unwrap();
        assert_eq!(warm.cache_stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(first.design, second.design);
        assert_eq!(store.stats().quarantined, 1);
        // The recompute wrote a clean entry back.
        let healed = session_over(&store);
        let third = healed
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .unwrap();
        assert_eq!(healed.cache_stats(), CacheStats { hits: 1, misses: 0 });
        assert_eq!(second.design, third.design);
    }

    #[test]
    fn undecodable_store_payloads_are_quarantined() {
        let (_dir, store) = store_at("undecodable");
        let dfg = tiny();
        let lib = Library::table1();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let bounds = Bounds::new(6, 4);
        let key = CacheKey::for_point(&dfg, &lib, bounds, &flow_spec, model, "ours");
        // A valid envelope whose payload is not a StoredEntry — what an
        // engine schema change would leave behind.
        store.save(key.raw(), r#"{"era": "older-engine"}"#).unwrap();
        let engine = session_over(&store);
        assert!(engine
            .synth_point(&dfg, None, bounds, &flow_spec, model, &*ours())
            .is_some());
        assert_eq!(engine.cache_stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(store.stats().quarantined, 1);
    }

    #[test]
    fn store_collisions_compute_fresh_and_keep_the_entry() {
        let (_dir, store) = store_at("collision");
        let dfg = tiny();
        let lib = Library::table1();
        let flow_spec = FlowSpec::default();
        let model = RedundancyModel::default();
        let wide = Bounds::new(6, 4);
        let tight = Bounds::new(2, 6);
        let key = CacheKey::for_point(&dfg, &lib, wide, &flow_spec, model, "ours");
        let run = |bounds: Bounds| ours().run(&SynthRequest::new(&dfg, &lib, bounds));

        let first = session_over(&store)
            .cache
            .get_or_compute(key, wide, "ours", None, || run(wide));
        // A different request arriving under the same fingerprint in a
        // fresh session collides against the *disk* entry: computed
        // fresh, not written back.
        let colliding = session_over(&store);
        let second = colliding
            .cache
            .get_or_compute(key, tight, "ours", None, || run(tight));
        assert_ne!(first, second);
        assert_eq!(second.as_ref().map(|r| r.design.latency), Some(2));
        assert_eq!(colliding.cache_stats(), CacheStats { hits: 0, misses: 1 });
        // The original entry survived and still answers its own request.
        let again = session_over(&store)
            .cache
            .get_or_compute(key, wide, "ours", None, || {
                unreachable!("must be served from the store")
            });
        assert_eq!(
            again.as_ref().map(|r| r.design.clone()),
            first.as_ref().map(|r| r.design.clone())
        );
    }
}
