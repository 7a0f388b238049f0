//! Frontier and sweep exports: JSON (via the serde plumbing) and CSV.
//!
//! All output is deterministic: frontier points are already sorted by the
//! archive, struct fields serialize in declaration order, and floats use
//! Rust's shortest round-trip formatting.

use crate::explore::{Exploration, SweepRow};
use crate::pareto::ParetoArchive;
use crate::shard::SweepShard;
use std::fmt::Write as _;

/// The frontier as pretty-printed JSON.
#[must_use]
pub fn frontier_json(archive: &ParetoArchive) -> String {
    serde_json::to_string_pretty(archive.points()).expect("frontier points always serialize")
}

/// The frontier as CSV (`benchmark,strategy,latency_bound,area_bound,latency,area,reliability`).
#[must_use]
pub fn frontier_csv(archive: &ParetoArchive) -> String {
    let mut out =
        String::from("benchmark,strategy,latency_bound,area_bound,latency,area,reliability\n");
    for p in archive.points() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            p.benchmark,
            p.strategy,
            p.latency_bound,
            p.area_bound,
            p.latency,
            p.area,
            p.reliability
        );
    }
    out
}

/// A whole exploration (sweep tables plus frontier) as pretty JSON.
#[must_use]
pub fn exploration_json(exploration: &Exploration) -> String {
    serde_json::to_string_pretty(exploration).expect("explorations always serialize")
}

/// A sweep shard document as pretty JSON, for a later `rchls merge`.
#[must_use]
pub fn shard_json(shard: &SweepShard) -> String {
    serde_json::to_string_pretty(shard).expect("shards always serialize")
}

/// Parses a shard document produced by [`shard_json`].
///
/// # Errors
///
/// Returns the decode error when `text` is not a shard document.
pub fn shard_from_json(text: &str) -> Result<SweepShard, serde::Error> {
    serde_json::from_str(text)
}

/// Sweep rows as CSV (`latency_bound,area_bound,baseline,ours,combined`;
/// infeasible cells are empty).
#[must_use]
pub fn rows_csv(rows: &[SweepRow]) -> String {
    let cell = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
    let mut out = String::from("latency_bound,area_bound,baseline,ours,combined\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.latency_bound,
            r.area_bound,
            cell(r.baseline),
            cell(r.ours),
            cell(r.combined)
        );
    }
    out
}

/// The frontier as an aligned text table for terminals.
#[must_use]
pub fn frontier_table(archive: &ParetoArchive) -> String {
    let mut out = format!(
        "{:<12} {:<9} {:>5} {:>5} {:>5} {:>5} {:>12}\n",
        "benchmark", "strategy", "Ld", "Ad", "lat", "area", "reliability"
    );
    for p in archive.points() {
        let _ = writeln!(
            out,
            "{:<12} {:<9} {:>5} {:>5} {:>5} {:>5} {:>12.5}",
            p.benchmark,
            p.strategy,
            p.latency_bound,
            p.area_bound,
            p.latency,
            p.area,
            p.reliability
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::FrontierPoint;

    fn archive() -> ParetoArchive {
        let mut a = ParetoArchive::new();
        a.insert(FrontierPoint {
            benchmark: "fir16".into(),
            strategy: "ours".into(),
            latency_bound: 12,
            area_bound: 8,
            latency: 12,
            area: 8,
            reliability: 0.5,
        });
        a.insert(FrontierPoint {
            benchmark: "fir16".into(),
            strategy: "combined".into(),
            latency_bound: 14,
            area_bound: 16,
            latency: 13,
            area: 15,
            reliability: 0.625,
        });
        a
    }

    #[test]
    fn json_round_trips_through_the_shim() {
        let a = archive();
        let json = frontier_json(&a);
        let back: Vec<FrontierPoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a.points());
    }

    #[test]
    fn csv_has_header_and_one_line_per_point() {
        let a = archive();
        let csv = frontier_csv(&a);
        assert_eq!(csv.lines().count(), 1 + a.len());
        assert!(csv.starts_with("benchmark,strategy"));
        assert!(csv.contains("fir16,ours,12,8,12,8,0.5"));
    }

    #[test]
    fn table_is_aligned_and_complete() {
        let table = frontier_table(&archive());
        assert!(table.contains("reliability"));
        assert_eq!(table.lines().count(), 3);
        assert!(table.contains("0.62500"));
    }
}
