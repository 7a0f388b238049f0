//! The paper's future-work objectives, implemented as extensions:
//! minimize area under (latency, reliability) bounds, and minimize latency
//! under (area, reliability) bounds.
//!
//! Both are built on the primal synthesizer: reliability is monotone in
//! each loosened bound for the greedy engine in practice, so a linear scan
//! from the tightest feasible bound upward finds the smallest bound whose
//! maximal-reliability design clears the reliability floor.

use crate::bounds::Bounds;
use crate::design::Design;
use crate::error::SynthesisError;
use crate::flow::{Ours, Strategy, SynthRequest};
use rchls_dfg::Dfg;
use rchls_relmath::Reliability;
use rchls_reslib::Library;

/// The primal synthesizer's design at `bounds` under the default flow.
fn ours(dfg: &Dfg, library: &Library, bounds: Bounds) -> Result<Design, SynthesisError> {
    Ours.run(&SynthRequest::new(dfg, library, bounds))
        .map(|r| r.design)
}

/// Finds the minimum-area design meeting a latency bound and a
/// reliability floor.
///
/// Scans area bounds from 1 up to `area_cap`, returning the first
/// (smallest-area) design whose achieved reliability is at least
/// `reliability_floor`.
///
/// # Errors
///
/// Returns [`SynthesisError::NoSolution`] if even `area_cap` cannot reach
/// the floor within the latency bound.
///
/// # Examples
///
/// ```
/// use rchls_core::modes::minimize_area;
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_relmath::Reliability;
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = DfgBuilder::new("pair").ops(&["a", "b"], OpKind::Add).dep("a", "b").build()?;
/// let library = Library::table1();
/// let d = minimize_area(&dfg, &library, 6, Reliability::new(0.99)?, 16)?;
/// assert!(d.reliability.value() >= 0.99);
/// # Ok(())
/// # }
/// ```
pub fn minimize_area(
    dfg: &Dfg,
    library: &Library,
    latency_bound: u32,
    reliability_floor: Reliability,
    area_cap: u32,
) -> Result<Design, SynthesisError> {
    for area in 1..=area_cap {
        if let Ok(design) = ours(dfg, library, Bounds::new(latency_bound, area)) {
            if design.reliability.value() + 1e-12 >= reliability_floor.value() {
                return Ok(design);
            }
        }
    }
    Err(SynthesisError::NoSolution {
        reason: format!(
            "no design under latency {latency_bound} reaches reliability {} within area cap \
             {area_cap}",
            reliability_floor
        ),
    })
}

/// Finds the minimum-latency design meeting an area bound and a
/// reliability floor.
///
/// # Errors
///
/// Returns [`SynthesisError::NoSolution`] if even `latency_cap` cannot
/// reach the floor within the area bound.
///
/// # Examples
///
/// ```
/// use rchls_core::modes::minimize_latency;
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_relmath::Reliability;
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = DfgBuilder::new("pair").ops(&["a", "b"], OpKind::Add).dep("a", "b").build()?;
/// let library = Library::table1();
/// let d = minimize_latency(&dfg, &library, 4, Reliability::new(0.99)?, 20)?;
/// assert!(d.reliability.value() >= 0.99);
/// assert!(d.area <= 4);
/// # Ok(())
/// # }
/// ```
pub fn minimize_latency(
    dfg: &Dfg,
    library: &Library,
    area_bound: u32,
    reliability_floor: Reliability,
    latency_cap: u32,
) -> Result<Design, SynthesisError> {
    for latency in 1..=latency_cap {
        if let Ok(design) = ours(dfg, library, Bounds::new(latency, area_bound)) {
            if design.reliability.value() + 1e-12 >= reliability_floor.value() {
                return Ok(design);
            }
        }
    }
    Err(SynthesisError::NoSolution {
        reason: format!(
            "no design under area {area_bound} reaches reliability {} within latency cap \
             {latency_cap}",
            reliability_floor
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rchls_dfg::{DfgBuilder, OpKind};

    fn figure4a() -> Dfg {
        DfgBuilder::new("figure4a")
            .ops(&["A", "B", "C", "D", "E", "F"], OpKind::Add)
            .dep("A", "C")
            .dep("B", "C")
            .dep("C", "D")
            .dep("C", "E")
            .dep("D", "F")
            .dep("E", "F")
            .build()
            .unwrap()
    }

    #[test]
    fn min_area_trades_reliability_floor_for_area() {
        let g = figure4a();
        let lib = Library::table1();
        let loose = minimize_area(&g, &lib, 12, Reliability::new(0.80).unwrap(), 16).unwrap();
        let tight = minimize_area(&g, &lib, 12, Reliability::new(0.99).unwrap(), 16).unwrap();
        assert!(
            tight.area >= loose.area,
            "higher floor cannot need less area"
        );
        assert!(tight.reliability.value() >= 0.99);
    }

    #[test]
    fn min_latency_trades_reliability_floor_for_speed() {
        let g = figure4a();
        let lib = Library::table1();
        let loose = minimize_latency(&g, &lib, 8, Reliability::new(0.80).unwrap(), 20).unwrap();
        let tight = minimize_latency(&g, &lib, 8, Reliability::new(0.99).unwrap(), 20).unwrap();
        assert!(
            tight.latency >= loose.latency,
            "higher floor cannot be faster"
        );
    }

    #[test]
    fn unreachable_floor_reports_no_solution() {
        let g = figure4a();
        let lib = Library::table1();
        // 0.999^6 = 0.99401... is the absolute best; floor above it fails.
        let err = minimize_area(&g, &lib, 20, Reliability::new(0.9999).unwrap(), 30).unwrap_err();
        assert!(matches!(err, SynthesisError::NoSolution { .. }));
    }
}
