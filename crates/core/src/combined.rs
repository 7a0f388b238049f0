//! The paper's unified approach: reliability-centric version selection
//! followed by redundancy on the leftover area.

use crate::baseline::Baseline;
use crate::error::SynthesisError;
use crate::flow::{Strategy, SynthReport, SynthRequest};
use crate::redundancy::add_redundancy_with_model;
use crate::synth::Synthesizer;

/// The paper's unified scheme: reliability-centric selection, then
/// leftover-area redundancy, as a portfolio with the baseline. Id
/// `"combined"`.
///
/// Runs the reliability-centric synthesizer, then spends any area still
/// under the bound on modular redundancy — the "Our approach + Ref \[3\]"
/// column of the paper's Table 2.
///
/// As in the paper, redundant copies use *the same version* the
/// reliability-centric pass selected for the instance ("when we add
/// redundancy for an operator, we use the same version selected by our
/// reliability-centric approach as duplicate(s)").
///
/// The combined design space *contains* the baseline's (a single-version
/// design plus redundancy is one point in it), so the unified scheme is
/// evaluated as a portfolio: if the pure redundancy design happens to beat
/// the refined-then-replicated one, it is returned instead. This is what
/// makes the paper's claim — "this combined approach obtains a better
/// reliability than \[3\]" — hold unconditionally. The report's
/// diagnostics fold together both portfolio branches.
///
/// [`Strategy::run`] returns an error only when *neither* branch of the
/// portfolio finds a feasible design.
///
/// # Examples
///
/// ```
/// use rchls_core::flow::Combined;
/// use rchls_core::{Bounds, Strategy, SynthRequest};
/// use rchls_dfg::{DfgBuilder, OpKind};
/// use rchls_reslib::Library;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = DfgBuilder::new("pair").ops(&["a", "b"], OpKind::Add).dep("a", "b").build()?;
/// let library = Library::table1();
/// let d = Combined.run(&SynthRequest::new(&dfg, &library, Bounds::new(4, 6)))?.design;
/// assert!(d.area <= 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Combined;

impl Strategy for Combined {
    fn id(&self) -> &str {
        "combined"
    }

    fn description(&self) -> &str {
        "reliability-centric selection + leftover-area redundancy (portfolio with baseline)"
    }

    fn run(&self, request: &SynthRequest<'_>) -> Result<SynthReport, SynthesisError> {
        let (dfg, library, bounds, model) = (
            request.dfg,
            request.library,
            request.bounds,
            request.redundancy,
        );
        let span = rchls_telemetry::span!(timed: "strategy.combined");
        let ours = Synthesizer::for_request(request)?
            .synthesize_report(bounds)
            .map(|mut report| {
                report.diagnostics.redundancy_moves +=
                    add_redundancy_with_model(&mut report.design, dfg, library, bounds.area, model);
                report
            });
        let baseline = Baseline.run(request);
        let mut report = match (ours, baseline) {
            (Ok(a), Ok(b)) => {
                if a.design.reliability.value() >= b.design.reliability.value() {
                    let mut a = a;
                    a.diagnostics.absorb(&b.diagnostics);
                    a
                } else {
                    let mut b = b;
                    b.diagnostics.absorb(&a.diagnostics);
                    b
                }
            }
            (Ok(a), Err(_)) => a,
            (Err(_), Ok(b)) => b,
            (Err(e), Err(_)) => return Err(e),
        };
        report.diagnostics.wall_time_micros = span.elapsed_micros();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Ours;
    use crate::{Bounds, Design};
    use rchls_dfg::{Dfg, DfgBuilder, OpKind};
    use rchls_reslib::Library;

    /// `strategy`'s design at `bounds` under the default flow and model.
    fn design(strategy: &dyn Strategy, g: &Dfg, lib: &Library, bounds: Bounds) -> Design {
        strategy
            .run(&SynthRequest::new(g, lib, bounds))
            .unwrap()
            .design
    }

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
    fn combined_is_at_least_as_reliable_as_ours() {
        let g = figure4a();
        let lib = Library::table1();
        for (latency, area) in [(5u32, 4u32), (5, 6), (6, 5), (8, 8)] {
            let bounds = Bounds::new(latency, area);
            let ours = design(&Ours, &g, &lib, bounds);
            let comb = design(&Combined, &g, &lib, bounds);
            assert!(
                comb.reliability.value() + 1e-12 >= ours.reliability.value(),
                "combined regressed at {bounds}"
            );
            assert!(comb.area <= area);
            assert!(comb.latency <= latency);
        }
    }

    #[test]
    fn combined_uses_leftover_area() {
        let g = figure4a();
        let lib = Library::table1();
        let bounds = Bounds::new(8, 8);
        let ours = design(&Ours, &g, &lib, bounds);
        let comb = design(&Combined, &g, &lib, bounds);
        // Redundancy moves are only committed when they strictly improve
        // reliability, so any extra area implies a strictly better design.
        assert!(comb.area >= ours.area);
        if comb.area > ours.area {
            assert!(comb.reliability.value() > ours.reliability.value());
        } else {
            assert!((comb.reliability.value() - ours.reliability.value()).abs() < 1e-12);
        }
    }
}
