//! Monte-Carlo validation of the analytic reliability model.
//!
//! The paper's design reliability is computed analytically (the Section-5
//! serial product, with per-instance NMR). This module *simulates* the
//! failure process — every replica of every operation independently
//! suffers a soft error with its version's failure probability, module
//! outputs follow the duplex/majority voting semantics, and the design
//! succeeds iff every operation's module delivers a correct result —
//! giving an empirical estimate to cross-check the closed forms.

use crate::design::Design;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rchls_dfg::Dfg;
use rchls_reslib::Library;

/// Empirical design reliability from `trials` independent mission
/// simulations (deterministic per `seed`).
///
/// Sampling semantics per operation: its instance's replication count `r`
/// determines module success —
/// `r = 1`: the single execution must succeed;
/// `r = 2`: duplex with perfect detect-and-rollback — at least one replica
/// must succeed;
/// odd `r >= 3`: strict majority of replicas must succeed;
/// even `r >= 4`: majority over `r - 1` replicas (the conservative scoring
/// used by the analytic model).
///
/// # Panics
///
/// Panics if `trials == 0`.
///
/// # Examples
///
/// ```
/// use rchls_core::{monte_carlo_reliability, Engine, SynthJob};
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = Engine::new(Library::table1());
/// // The combined scheme replicates units; the simulation votes over
/// // every replica.
/// let job = SynthJob::new("builtin:diffeq", 6, 11).with_strategy("combined");
/// let design = engine.synth(&job)?.design;
/// let dfg = engine.workload(&job.workload)?.dfg;
/// let empirical = monte_carlo_reliability(&design, &dfg, engine.library(), 20_000, 42);
/// assert!((empirical - design.reliability.value()).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn monte_carlo_reliability(
    design: &Design,
    dfg: &Dfg,
    library: &Library,
    trials: usize,
    seed: u64,
) -> f64 {
    assert!(trials > 0, "at least one trial is required");
    let mut rng = StdRng::seed_from_u64(seed);
    // Per-node success probability of one replica, and replica count.
    let per_node: Vec<(f64, u32)> = dfg
        .node_ids()
        .map(|n| {
            let p = library
                .version(design.assignment.version(n))
                .reliability()
                .value();
            let r = design.replication[design.binding.instance_of(n).index()];
            (p, r)
        })
        .collect();
    let mut successes = 0usize;
    'trial: for _ in 0..trials {
        for &(p, r) in &per_node {
            let ok = match r {
                0 | 1 => rng.gen_bool(p),
                2 => rng.gen_bool(p) || rng.gen_bool(p),
                r => {
                    let voters = if r % 2 == 1 { r } else { r - 1 };
                    let good = (0..voters).filter(|_| rng.gen_bool(p)).count() as u32;
                    good > voters / 2
                }
            };
            if !ok {
                continue 'trial;
            }
        }
        successes += 1;
    }
    successes as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::flow::{Ours, Strategy, SynthRequest};
    use crate::redundancy::add_redundancy;
    use rchls_dfg::{DfgBuilder, OpKind};

    #[test]
    fn empirical_matches_analytic_without_redundancy() {
        let g = rchls_workloads::fir16();
        let lib = Library::table1();
        let d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(13, 8)))
            .unwrap()
            .design;
        let emp = monte_carlo_reliability(&d, &g, &lib, 50_000, 7);
        assert!(
            (emp - d.reliability.value()).abs() < 0.01,
            "empirical {emp} vs analytic {}",
            d.reliability
        );
    }

    #[test]
    fn empirical_matches_analytic_with_duplex_redundancy() {
        let g = DfgBuilder::new("chain")
            .ops(&["a", "b", "c"], OpKind::Add)
            .dep("a", "b")
            .dep("b", "c")
            .build()
            .unwrap();
        let lib = Library::table1();
        let mut d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(8, 2)))
            .unwrap()
            .design;
        add_redundancy(&mut d, &g, &lib, 6);
        assert!(d.redundant_instance_count() >= 1);
        let emp = monte_carlo_reliability(&d, &g, &lib, 50_000, 11);
        assert!(
            (emp - d.reliability.value()).abs() < 0.01,
            "empirical {emp} vs analytic {}",
            d.reliability
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = rchls_workloads::diffeq();
        let lib = Library::table1();
        let d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(6, 11)))
            .unwrap()
            .design;
        let a = monte_carlo_reliability(&d, &g, &lib, 5_000, 3);
        let b = monte_carlo_reliability(&d, &g, &lib, 5_000, 3);
        assert_eq!(a, b);
    }
}
