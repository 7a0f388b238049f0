//! Greedy modular-redundancy insertion (the mechanism shared by the
//! Orailoglu–Karri baseline and the paper's combined approach).

use crate::design::Design;
use rchls_dfg::Dfg;
use rchls_reslib::Library;
use serde::{Deserialize, Serialize};

/// How replication counts are allowed to grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RedundancyModel {
    /// Copies are added one at a time: 1 → 2 (duplex with rollback
    /// recovery) → 3 (TMR) → … (default). Under the paper's optimistic
    /// duplex model `1 − (1−R)²`, duplication dominates majority voting,
    /// so the greedy in practice stops at 2 copies — which matches the
    /// small-area redundancy steps visible in the paper's Table 2.
    #[default]
    DuplexAndNmr,
    /// Classic Orailoglu–Karri NMR: only odd module counts (1 → 3 → 5 → …),
    /// pure majority voting with no recovery mechanism.
    NmrOnly,
}

/// Spends any area left under `area_bound` on replicating functional-unit
/// instances, greedily maximizing reliability gain per unit of area.
///
/// Each step considers growing one instance's replication count (per
/// `model`) and commits the move with the best `ΔR / Δarea` among those
/// that still fit. Voter/checker area is free, as in the paper's
/// accounting ("excluding the area required by the result-checking
/// circuitry"). Redundant copies run in lock-step with the original, so
/// latency is unchanged.
///
/// Returns the number of replication moves applied.
pub fn add_redundancy_with_model(
    design: &mut Design,
    dfg: &Dfg,
    library: &Library,
    area_bound: u32,
    model: RedundancyModel,
) -> u32 {
    let step = |cur: u32| match model {
        RedundancyModel::DuplexAndNmr => cur + 1,
        RedundancyModel::NmrOnly => cur + 2,
    };
    let mut applied = 0u32;
    loop {
        let current_area =
            Design::area_with_replication(library, &design.binding, &design.replication);
        let current_rel = Design::reliability_with_replication(
            dfg,
            library,
            &design.assignment,
            &design.binding,
            &design.replication,
        )
        .value();
        let mut best: Option<(f64, usize, u32)> = None;
        for idx in 0..design.replication.len() {
            let next = step(design.replication[idx]);
            let copies_added = next - design.replication[idx];
            let cost = library
                .version(design.binding.instances()[idx].version)
                .area()
                * copies_added;
            if current_area + cost > area_bound {
                continue;
            }
            let mut reps = design.replication.clone();
            reps[idx] = next;
            let rel = Design::reliability_with_replication(
                dfg,
                library,
                &design.assignment,
                &design.binding,
                &reps,
            )
            .value();
            let gain = rel - current_rel;
            if gain <= 1e-15 {
                continue;
            }
            let density = gain / f64::from(cost);
            let better = best.is_none_or(|(bd, bi, _)| {
                density > bd + 1e-18 || ((density - bd).abs() <= 1e-18 && idx < bi)
            });
            if better {
                best = Some((density, idx, next));
            }
        }
        match best {
            Some((_, idx, next)) => {
                design.replication[idx] = next;
                applied += 1;
            }
            None => break,
        }
    }
    // Re-derive the cached metrics.
    design.area = Design::area_with_replication(library, &design.binding, &design.replication);
    design.reliability = Design::reliability_with_replication(
        dfg,
        library,
        &design.assignment,
        &design.binding,
        &design.replication,
    );
    applied
}

/// [`add_redundancy_with_model`] with the default
/// [`RedundancyModel::DuplexAndNmr`].
///
/// # Examples
///
/// ```
/// use rchls_core::flow::Ours;
/// use rchls_core::{add_redundancy, Bounds, Strategy, SynthRequest};
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = DfgBuilder::new("one").op("a", OpKind::Add).build()?;
/// let library = Library::table1();
/// let request = SynthRequest::new(&dfg, &library, Bounds::new(4, 9));
/// let mut design = Ours.run(&request)?.design;
/// let before = design.reliability;
/// let applied = add_redundancy(&mut design, &dfg, &library, 9);
/// assert!(applied >= 1);
/// assert!(design.reliability.value() > before.value());
/// assert!(design.area <= 9);
/// # Ok(())
/// # }
/// ```
pub fn add_redundancy(design: &mut Design, dfg: &Dfg, library: &Library, area_bound: u32) -> u32 {
    add_redundancy_with_model(design, dfg, library, area_bound, RedundancyModel::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::Bounds;
    use crate::flow::{Ours, Strategy, SynthRequest};
    use rchls_dfg::{DfgBuilder, OpKind};

    fn chain2() -> Dfg {
        DfgBuilder::new("chain2")
            .ops(&["a", "b"], OpKind::Add)
            .dep("a", "b")
            .build()
            .unwrap()
    }

    #[test]
    fn no_budget_no_redundancy() {
        let g = chain2();
        let lib = Library::table1();
        let mut d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(6, 2)))
            .unwrap()
            .design;
        let area = d.area;
        let applied = add_redundancy(&mut d, &g, &lib, area);
        assert_eq!(applied, 0);
        assert_eq!(d.area, area);
    }

    #[test]
    fn redundancy_never_exceeds_bound_and_never_hurts() {
        let g = chain2();
        let lib = Library::table1();
        for budget in 2..=10 {
            let mut d = Ours
                .run(&SynthRequest::new(&g, &lib, Bounds::new(6, 2)))
                .unwrap()
                .design;
            let before = d.reliability.value();
            add_redundancy(&mut d, &g, &lib, budget);
            assert!(d.area <= budget, "budget {budget}: area {}", d.area);
            assert!(
                d.reliability.value() + 1e-12 >= before,
                "budget {budget} hurt reliability"
            );
        }
    }

    #[test]
    fn duplex_model_stops_at_two_copies() {
        let g = DfgBuilder::new("one").op("a", OpKind::Add).build().unwrap();
        let lib = Library::table1();
        let mut d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(4, 1)))
            .unwrap()
            .design;
        assert_eq!(d.area, 1); // single adder1
        add_redundancy(&mut d, &g, &lib, 10);
        // Duplex with perfect recovery dominates TMR, so the greedy stops
        // at 2 copies no matter the budget.
        assert_eq!(d.replication, vec![2]);
        let r = 0.999f64;
        let expect = 1.0 - (1.0 - r) * (1.0 - r);
        assert!((d.reliability.value() - expect).abs() < 1e-12);
    }

    #[test]
    fn nmr_only_model_triplicates() {
        let g = DfgBuilder::new("one").op("a", OpKind::Add).build().unwrap();
        let lib = Library::table1();
        let mut d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(4, 1)))
            .unwrap()
            .design;
        add_redundancy_with_model(&mut d, &g, &lib, 3, RedundancyModel::NmrOnly);
        assert_eq!(d.replication, vec![3]);
        let r = 0.999f64;
        let expect = 3.0 * r * r - 2.0 * r * r * r;
        assert!((d.reliability.value() - expect).abs() < 1e-12);
    }

    #[test]
    fn nmr_only_grows_to_five_with_budget() {
        let g = DfgBuilder::new("one").op("a", OpKind::Add).build().unwrap();
        let lib = Library::table1();
        let mut d = Ours
            .run(&SynthRequest::new(&g, &lib, Bounds::new(4, 1)))
            .unwrap()
            .design;
        add_redundancy_with_model(&mut d, &g, &lib, 5, RedundancyModel::NmrOnly);
        assert_eq!(d.replication, vec![5]);
    }
}
