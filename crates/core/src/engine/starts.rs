//! Session interning of uniform feasible start pools.
//!
//! Every refining flow (the `"greedy"` pass, the `"redundancy"`
//! strategy) begins by scheduling and binding **every uniform
//! one-version-per-class assignment** that meets the bounds — a pool
//! that depends only on `(graph, library, bounds, scheduler, binder)`.
//! Sweeps and batches hit the same pool over and over across strategies
//! and flows that differ only in their victim/refine slots; a
//! [`StartsCache`] computes each pool once per session and replays it
//! (including the deterministic scheduler/binder *call counts* the fresh
//! computation would have booked, so diagnostics stay byte-identical
//! between a cache hit and a miss — only the wall time disappears).
//!
//! The cache is owned by the session [`Engine`](crate::Engine) alongside
//! the scratch pool and travels to every
//! [`Synthesizer`](crate::Synthesizer) through the
//! [`SynthRequest`](crate::SynthRequest), so engine batches, explorer
//! sweeps, and CLI sweeps all share one pool table per session.

use crate::bounds::Bounds;
use crate::engine::budget::BudgetedTable;
use crate::engine::cache::CacheStats;
use crate::engine::fingerprint::Fingerprint;
use crate::error::SynthesisError;
use crate::flow::{Diagnostics, FlowState};
use crate::synth::Synthesizer;
use rchls_bind::{Assignment, Binding};
use rchls_sched::Schedule;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One interned pool plus the request facts that detect fingerprint
/// collisions and the pass-call counts to replay on every hit.
#[derive(Debug, Clone)]
struct StartsEntry {
    bounds: Bounds,
    scheduler: String,
    binder: String,
    states: Vec<FlowState>,
    sched_calls: u32,
    bind_calls: u32,
}

impl StartsEntry {
    /// Approximate bytes this entry keeps resident — the size-accounting
    /// input for the cache's LRU budget.
    fn approx_bytes(&self) -> usize {
        size_of::<StartsEntry>()
            + self.scheduler.capacity()
            + self.binder.capacity()
            + self
                .states
                .iter()
                .map(FlowState::approx_bytes)
                .sum::<usize>()
    }
}

/// One interned allocation-first design (see
/// [`crate::alloc_search::best_allocation_design_diag`]) plus the
/// completeness flag its search reported. The floor's bits are a request
/// fact like the bounds: the same bounds at another floor is another
/// search with another answer.
#[derive(Debug, Clone)]
struct AllocEntry {
    bounds: Bounds,
    floor_bits: u64,
    design: Option<(Assignment, Schedule, Binding)>,
    cap_hit: bool,
}

impl AllocEntry {
    /// Approximate bytes this entry keeps resident — the size-accounting
    /// input for the cache's LRU budget.
    fn approx_bytes(&self) -> usize {
        size_of::<AllocEntry>()
            + self.design.as_ref().map_or(0, |(a, s, b)| {
                a.approx_heap_bytes() + s.approx_heap_bytes() + b.approx_heap_bytes()
            })
    }
}

/// A thread-safe memo table of refine-portfolio ingredients: the uniform
/// feasible start pools (keyed by a content fingerprint of `(dfg,
/// library, bounds, scheduler id, binder id)`) and the allocation-first
/// designs (keyed by `(dfg, library, bounds, floor)` — the allocation
/// search runs its own list scheduler, independent of the flow's passes).
///
/// Mirrors the [`SynthCache`](crate::engine::SynthCache) locking discipline: the
/// lock is never held across a computation, racing workers compute the
/// same deterministic pool, and a fingerprint collision (an entry whose
/// recorded request facts differ) is computed fresh and left uncached
/// rather than answered wrongly.
#[derive(Default)]
pub(crate) struct StartsCache {
    entries: Mutex<BudgetedTable<StartsEntry>>,
    alloc: Mutex<BudgetedTable<AllocEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    alloc_hits: AtomicU64,
    alloc_misses: AtomicU64,
}

impl StartsCache {
    /// Number of *resident* interned pools. Under a budget this can
    /// shrink; for the deterministic ever-interned count use
    /// [`StartsCache::seen_len`].
    #[must_use]
    pub fn len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).len()
    }

    /// Number of *resident* interned allocation-first designs (see
    /// [`StartsCache::alloc_seen_len`] for the deterministic count).
    #[must_use]
    pub fn alloc_len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.alloc).len()
    }

    /// Number of distinct start pools ever interned — independent of
    /// eviction, so deterministic documents report this.
    #[must_use]
    pub fn seen_len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).seen_len()
    }

    /// Number of distinct allocation-first designs ever interned.
    #[must_use]
    pub fn alloc_seen_len(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.alloc).seen_len()
    }

    /// Approximate resident bytes across both tables.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        crate::sync::lock_unpoisoned(&self.entries).resident_bytes()
            + crate::sync::lock_unpoisoned(&self.alloc).resident_bytes()
    }

    /// Entries evicted from both tables since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        crate::sync::lock_unpoisoned(&self.entries).evictions()
            + crate::sync::lock_unpoisoned(&self.alloc).evictions()
    }

    /// Applies the session budget's shares to the pool and alloc-design
    /// tables, evicting immediately when over.
    pub(crate) fn set_budget(&self, pools: Option<usize>, alloc: Option<usize>) {
        let evicted = crate::sync::lock_unpoisoned(&self.entries).set_budget(pools);
        crate::obs::starts_cache_evictions().add(evicted);
        let evicted = crate::sync::lock_unpoisoned(&self.alloc).set_budget(alloc);
        crate::obs::alloc_cache_evictions().add(evicted);
    }

    /// Hit/miss counters for the uniform start pool table. Collisions
    /// count as misses (the pool is computed fresh).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Hit/miss counters for the allocation-first design table.
    #[must_use]
    pub fn alloc_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.alloc_hits.load(Ordering::Relaxed),
            misses: self.alloc_misses.load(Ordering::Relaxed),
        }
    }

    /// The uniform feasible start pool for `synth` at `bounds`: answered
    /// from the cache when interned (replaying the recorded
    /// scheduler/binder call counts into the synthesizer's phase
    /// accounting), computed fresh — and interned — otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the fresh computation's [`SynthesisError`] (library
    /// gaps, malformed graphs); errors are never cached.
    pub(crate) fn get_or_compute(
        &self,
        synth: &Synthesizer<'_>,
        bounds: Bounds,
    ) -> Result<Vec<FlowState>, SynthesisError> {
        let flow = synth.flow();
        let mut fp = Fingerprint::new();
        fp.update("uniform-starts");
        fp.update(synth.dfg());
        fp.update(synth.library());
        fp.update(&bounds);
        fp.update(&flow.scheduler);
        fp.update(&flow.binder);
        let key = fp.finish();

        if let Some(entry) = crate::sync::lock_unpoisoned(&self.entries).get(key) {
            if entry.bounds == bounds
                && entry.scheduler == flow.scheduler
                && entry.binder == flow.binder
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::obs::starts_cache_hits().incr();
                synth.replay_pass_calls(entry.sched_calls, entry.bind_calls);
                return Ok(entry.states.clone());
            }
            // Fingerprint collision: compute fresh, don't poison the
            // existing entry.
            self.misses.fetch_add(1, Ordering::Relaxed);
            crate::obs::starts_cache_misses().incr();
            return synth.uniform_feasible_starts_fresh(bounds);
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::starts_cache_misses().incr();
        let _span = rchls_telemetry::span!("starts.compute");
        let before = synth.pass_call_counts();
        let states = synth.uniform_feasible_starts_fresh(bounds)?;
        let after = synth.pass_call_counts();
        let entry = StartsEntry {
            bounds,
            scheduler: flow.scheduler.clone(),
            binder: flow.binder.clone(),
            states: states.clone(),
            sched_calls: after.0 - before.0,
            bind_calls: after.1 - before.1,
        };
        let bytes = entry.approx_bytes();
        let (evicted, resident) = {
            let mut table = crate::sync::lock_unpoisoned(&self.entries);
            let evicted = table.insert(key, entry, bytes);
            (evicted, table.resident_bytes())
        };
        crate::obs::starts_cache_evictions().add(evicted);
        crate::obs::starts_cache_resident_bytes().record(resident as u64);
        Ok(states)
    }
}

impl StartsCache {
    /// The allocation-first portfolio design for `synth` at `bounds` and
    /// `floor`, interned per `(dfg, library, bounds, floor)`: the design
    /// (or its absence) and the search's cap-hit flag are recorded into
    /// `diagnostics` exactly as a fresh
    /// [`best_allocation_design_diag`](crate::alloc_search::best_allocation_design_diag)
    /// run would record them, so reports are byte-identical across cache
    /// states.
    pub(crate) fn alloc_design(
        &self,
        synth: &Synthesizer<'_>,
        bounds: Bounds,
        floor: f64,
        diagnostics: &mut Diagnostics,
    ) -> Option<(Assignment, Schedule, Binding)> {
        let floor_bits = floor.to_bits();
        let mut fp = Fingerprint::new();
        fp.update("alloc-design");
        fp.update(synth.dfg());
        fp.update(synth.library());
        fp.update(&bounds);
        fp.update(&floor_bits);
        let key = fp.finish();

        if let Some(entry) = crate::sync::lock_unpoisoned(&self.alloc).get(key) {
            if entry.bounds == bounds && entry.floor_bits == floor_bits {
                self.alloc_hits.fetch_add(1, Ordering::Relaxed);
                crate::obs::alloc_cache_hits().incr();
                diagnostics.alloc_cap_hit |= entry.cap_hit;
                return entry.design.clone();
            }
            // Fingerprint collision: compute fresh, leave the entry be.
            self.alloc_misses.fetch_add(1, Ordering::Relaxed);
            crate::obs::alloc_cache_misses().incr();
            return crate::alloc_search::best_allocation_design_diag(
                synth.dfg(),
                synth.library(),
                bounds,
                floor,
                diagnostics,
            );
        }

        self.alloc_misses.fetch_add(1, Ordering::Relaxed);
        crate::obs::alloc_cache_misses().incr();
        let mut fresh = Diagnostics::default();
        let design = crate::alloc_search::best_allocation_design_diag(
            synth.dfg(),
            synth.library(),
            bounds,
            floor,
            &mut fresh,
        );
        diagnostics.alloc_cap_hit |= fresh.alloc_cap_hit;
        let entry = AllocEntry {
            bounds,
            floor_bits,
            design: design.clone(),
            cap_hit: fresh.alloc_cap_hit,
        };
        let bytes = entry.approx_bytes();
        let (evicted, resident) = {
            let mut table = crate::sync::lock_unpoisoned(&self.alloc);
            let evicted = table.insert(key, entry, bytes);
            (evicted, table.resident_bytes())
        };
        crate::obs::alloc_cache_evictions().add(evicted);
        crate::obs::alloc_cache_resident_bytes().record(resident as u64);
        design
    }
}

impl fmt::Debug for StartsCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StartsCache")
            .field("pools", &self.len())
            .field("alloc_designs", &self.alloc_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowSpec, SynthRequest};
    use rchls_dfg::Dfg;
    use rchls_reslib::Library;

    /// A synthesizer for `flow` at `bounds` with no session caches.
    fn synth<'a>(
        dfg: &'a Dfg,
        lib: &'a Library,
        bounds: Bounds,
        flow: FlowSpec,
    ) -> Synthesizer<'a> {
        Synthesizer::for_request(&SynthRequest::new(dfg, lib, bounds).with_flow(flow)).unwrap()
    }

    #[test]
    fn pools_are_interned_once_and_replay_call_counts() {
        let dfg = rchls_workloads::figure4a();
        let lib = Library::table1();
        let cache = StartsCache::default();
        let bounds = Bounds::new(6, 6);

        let fresh_synth = synth(&dfg, &lib, bounds, FlowSpec::default());
        let fresh = fresh_synth.uniform_feasible_starts_fresh(bounds).unwrap();
        let fresh_counts = fresh_synth.pass_call_counts();
        assert!(fresh_counts.0 > 0, "starts must schedule something");

        let miss_synth = synth(&dfg, &lib, bounds, FlowSpec::default());
        let first = cache.get_or_compute(&miss_synth, bounds).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(miss_synth.pass_call_counts(), fresh_counts);

        // The hit returns the same pool and books the same call counts
        // without scheduling anything.
        let hit_synth = synth(&dfg, &lib, bounds, FlowSpec::default());
        let second = cache.get_or_compute(&hit_synth, bounds).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(hit_synth.pass_call_counts(), fresh_counts);
        assert_eq!(first.len(), second.len());
        assert_eq!(first.len(), fresh.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.binding, b.binding);
        }

        // A different bound pair is a different pool.
        let wider = Bounds::new(8, 8);
        let other_synth = synth(&dfg, &lib, wider, FlowSpec::default());
        let _ = cache.get_or_compute(&other_synth, wider).unwrap();
        assert_eq!(cache.len(), 2);

        // ... and a different scheduler/binder slot is too.
        let force = synth(
            &dfg,
            &lib,
            bounds,
            FlowSpec::default().with_scheduler("force-directed"),
        );
        let _ = cache.get_or_compute(&force, bounds).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn alloc_designs_at_two_floors_never_serve_each_other() {
        let dfg = rchls_workloads::figure4a();
        let lib = Library::table1();
        let cache = StartsCache::default();
        let bounds = Bounds::new(6, 6);
        let synth = synth(&dfg, &lib, bounds, FlowSpec::default());
        let lookup = |floor: f64| {
            let mut diagnostics = Diagnostics::default();
            cache.alloc_design(&synth, bounds, floor, &mut diagnostics)
        };
        // Floor 0 finds the design; floor 1 (no design reaches it) does
        // not — and each is computed fresh the first time.
        let open = lookup(0.0);
        assert!(open.is_some());
        assert!(lookup(1.0).is_none());
        assert_eq!(cache.alloc_stats().misses, 2);
        assert_eq!(cache.alloc_seen_len(), 2);
        // Repeats hit their own entries and answer as before.
        assert_eq!(lookup(1.0), None);
        assert_eq!(lookup(0.0), open);
        assert_eq!(cache.alloc_stats().hits, 2);
        assert_eq!(cache.alloc_stats().misses, 2);
    }
}
