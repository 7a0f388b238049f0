//! Seeded workload inputs. Everything the program receives is a spec
//! string plus bounds; the seed only picks which graphs and points.

use rchls_core::SynthJob;
use rchls_dfg::Dfg;
use rchls_explorer::default_grid;
use rchls_reslib::Library;
use std::collections::BTreeMap;
use std::ops::Range;

/// The three strategies the paper's evaluation compares.
pub const STRATEGIES: [&str; 3] = ["ours", "baseline", "combined"];

/// `large_synth`'s size ladder.
pub const LADDER: [&str; 3] = ["128x16", "160x16", "192x16"];

/// A splitmix64 step: the benchmark's only source of randomness.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic stream of draws from one seed and purpose tag.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed` under `tag` (different tags give unrelated
    /// streams from one seed).
    #[must_use]
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(mix(seed ^ mix(tag)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The random-graph seed the workload uses for graph `index` under
/// `tag`: a value below one million, so specs stay short.
#[must_use]
pub fn graph_seed(seed: u64, tag: u64, index: u64) -> u64 {
    mix(seed ^ mix(tag ^ mix(index))) % 1_000_000
}

/// The harness's own copy of a workload's graph, used to lay out grids
/// and to check designs (never timed).
///
/// # Panics
///
/// Panics if the spec does not resolve; every spec here is generated.
#[must_use]
pub fn load(spec: &str) -> (String, Dfg) {
    let w = rchls_workloads::load_workload(spec).expect("generated specs resolve");
    (w.spec, w.dfg)
}

/// Graphs keyed by the spec the jobs use, with their canonical form.
pub type Graphs = BTreeMap<String, (String, Dfg)>;

/// A workload's job list plus the harness's copy of every graph.
#[derive(Debug, Clone)]
pub struct JobSet {
    /// The jobs, in submission order.
    pub jobs: Vec<SynthJob>,
    /// Every distinct spec the jobs name, in first-use order.
    pub specs: Vec<String>,
    /// Graph per spec.
    pub graphs: Graphs,
}

impl JobSet {
    fn new(jobs: Vec<SynthJob>, graphs: Graphs) -> JobSet {
        let mut specs: Vec<String> = Vec::new();
        for job in &jobs {
            if !specs.contains(&job.workload) {
                specs.push(job.workload.clone());
            }
        }
        JobSet {
            jobs,
            specs,
            graphs,
        }
    }
}

/// `sweep_cold`'s inputs for pass `pass`: every builtin plus a seeded
/// `random:64x8` and `random:96x12` (fresh graphs each pass), each on
/// its default grid, under all three strategies.
#[must_use]
pub fn sweep_cold(seed: u64, pass: u64, library: &Library) -> JobSet {
    let mut specs: Vec<String> = rchls_workloads::all_benchmarks()
        .iter()
        .map(|(name, _)| format!("builtin:{name}"))
        .collect();
    specs.push(format!("random:64x8@{}", graph_seed(seed, 1, pass)));
    specs.push(format!("random:96x12@{}", graph_seed(seed, 2, pass)));
    let mut graphs = Graphs::new();
    let mut jobs = Vec::new();
    for spec in specs {
        let (canonical, dfg) = load(&spec);
        let grid = default_grid(&dfg, library).expect("the paper library covers every graph");
        for (latency, area) in grid {
            for strategy in STRATEGIES {
                jobs.push(SynthJob::new(spec.clone(), latency, area).with_strategy(strategy));
            }
        }
        graphs.insert(spec, (canonical, dfg));
    }
    JobSet::new(jobs, graphs)
}

/// The loosest corner of a graph's default grid: the bounds `rchls
/// synth` uses when none are given.
#[must_use]
pub fn default_bounds(dfg: &Dfg, library: &Library) -> (u32, u32) {
    let grid = default_grid(dfg, library).expect("the paper library covers every graph");
    let latency = grid.iter().map(|p| p.0).max().expect("grids are non-empty");
    let area = grid.iter().map(|p| p.1).max().expect("grids are non-empty");
    (latency, area)
}

/// `large_synth`'s inputs for `passes`: one seeded graph of each ladder
/// size per pass (fresh graphs each pass), at default bounds.
#[must_use]
pub fn large_synth(seed: u64, passes: Range<u64>, library: &Library) -> JobSet {
    let mut graphs = Graphs::new();
    let mut jobs = Vec::new();
    for pass in passes {
        for (tag, size) in (10u64..).zip(LADDER) {
            let spec = format!("random:{size}@{}", graph_seed(seed, tag, pass));
            let (canonical, dfg) = load(&spec);
            let (latency, area) = default_bounds(&dfg, library);
            jobs.push(SynthJob::new(spec.clone(), latency, area));
            graphs.insert(spec, (canonical, dfg));
        }
    }
    JobSet::new(jobs, graphs)
}

/// Which cache tier a `serve_mixed` request is meant to reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A repeat from the hot set: answered from the memory cache.
    Hot,
    /// The first request for a job the store already holds.
    Stored,
    /// A job nobody has asked for: synthesis plus a store write.
    Fresh,
}

/// `serve_mixed`'s traffic: distinct jobs plus the request sequence.
#[derive(Debug)]
pub struct Traffic {
    /// Every distinct job, hot set first.
    pub distinct: JobSet,
    /// Tier each distinct job is meant to reach.
    pub kinds: Vec<Kind>,
    /// Request sequence: indices into `distinct.jobs`.
    pub requests: Vec<usize>,
}

/// The tier of request `i`: the mix repeats every 40 requests, with the
/// stored (10%) and fresh (5%) slots spread evenly and alternating
/// between the two connections, so misses never bunch up by chance.
#[must_use]
pub fn kind_of(i: usize) -> Kind {
    match i % 40 {
        0 | 21 => Kind::Fresh,
        5 | 14 | 25 | 34 => Kind::Stored,
        _ => Kind::Hot,
    }
}

/// Size of `serve_mixed`'s hot set.
pub const HOT_JOBS: usize = 16;

/// `serve_mixed`: `requests` requests following [`kind_of`]: repeats of
/// a seeded hot set of builtin grid points, first requests for stored
/// `random:32x6` jobs and fresh `random:32x6` jobs.
#[must_use]
pub fn serve_mixed(seed: u64, requests: usize, library: &Library) -> Traffic {
    let mut rng = Rng::new(seed, 30);
    let mut graphs = Graphs::new();
    // Hot set: seeded (builtin, grid point, strategy) triples.
    let mut candidates: Vec<SynthJob> = Vec::new();
    for (name, _) in rchls_workloads::all_benchmarks() {
        let spec = format!("builtin:{name}");
        let (canonical, dfg) = load(&spec);
        for (latency, area) in default_grid(&dfg, library).expect("covered") {
            for strategy in ["ours", "combined"] {
                candidates.push(SynthJob::new(spec.clone(), latency, area).with_strategy(strategy));
            }
        }
        graphs.insert(spec, (canonical, dfg));
    }
    let mut jobs: Vec<SynthJob> = Vec::new();
    while jobs.len() < HOT_JOBS {
        let pick = candidates.swap_remove(rng.below(candidates.len() as u64) as usize);
        jobs.push(pick);
    }
    let mut kinds = vec![Kind::Hot; HOT_JOBS];
    // Stored and fresh graphs take consecutive seeds from two disjoint
    // ranges, so no two requests share a graph by accident.
    let base = graph_seed(seed, 31, 0) * 100_000;
    let mut sequence = Vec::with_capacity(requests);
    for i in 0..requests {
        let kind = kind_of(i);
        if kind == Kind::Hot {
            sequence.push(rng.below(HOT_JOBS as u64) as usize);
            continue;
        }
        let offset = if kind == Kind::Stored { 0 } else { 50_000 };
        let spec = format!("random:32x6@{}", base + offset + jobs.len() as u64);
        let (canonical, dfg) = load(&spec);
        let grid = default_grid(&dfg, library).expect("covered");
        let (latency, area) = grid[rng.below(grid.len() as u64) as usize];
        graphs.insert(spec.clone(), (canonical, dfg));
        sequence.push(jobs.len());
        jobs.push(SynthJob::new(spec, latency, area));
        kinds.push(kind);
    }
    Traffic {
        distinct: JobSet::new(jobs, graphs),
        kinds,
        requests: sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let lib = Library::table1();
        assert_eq!(sweep_cold(3, 0, &lib).jobs, sweep_cold(3, 0, &lib).jobs);
        assert_ne!(sweep_cold(3, 0, &lib).jobs, sweep_cold(4, 0, &lib).jobs);
        assert_ne!(sweep_cold(3, 0, &lib).jobs, sweep_cold(3, 1, &lib).jobs);
        assert_eq!(
            large_synth(3, 0..2, &lib).jobs[3..],
            large_synth(3, 1..2, &lib).jobs[..]
        );
        let (a, b) = (serve_mixed(5, 200, &lib), serve_mixed(5, 200, &lib));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.distinct.jobs, b.distinct.jobs);
    }

    #[test]
    fn serve_traffic_mixes_all_three_tiers_once_per_new_job() {
        let t = serve_mixed(1, 400, &Library::table1());
        assert_eq!(t.requests.len(), 400);
        for (kind, share) in [(Kind::Hot, 340), (Kind::Stored, 40), (Kind::Fresh, 20)] {
            let n = t.requests.iter().filter(|&&j| t.kinds[j] == kind).count();
            assert_eq!(n, share, "{kind:?}");
        }
        // Stored and fresh jobs are distinct graphs, each requested once.
        let specs: std::collections::BTreeSet<&str> = t.distinct.jobs[HOT_JOBS..]
            .iter()
            .map(|j| j.workload.as_str())
            .collect();
        assert_eq!(specs.len(), t.distinct.jobs.len() - HOT_JOBS);
        assert_eq!(specs.len(), 60);
    }
}
