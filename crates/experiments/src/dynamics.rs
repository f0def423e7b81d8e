//! Effect of BGP dynamics on cluster identification (§3.4, Table 4).
//!
//! For a vantage point observed over a period of days, the paper computes
//! the **dynamic prefix set** (prefixes not present in *every* snapshot of
//! the period) and its size, the **maximum effect**. It then intersects
//! that set with the prefixes each log's clusters are identified by —
//! overall and for the busy subset — and finds that churn touches under
//! 3 % of clusters.

use std::collections::BTreeSet;

use netclust_core::Clustering;
use netclust_netgen::{snapshot, Universe, VantageSpec};
use netclust_prefix::Ipv4Net;
use netclust_rtable::RoutingTable;

/// The dynamic prefix set over a series of snapshots: prefixes that are not
/// in the intersection of all snapshots (i.e. appear or disappear at least
/// once during the period). Its size is the paper's *maximum effect*.
/// Empty input yields an empty set.
pub fn dynamic_prefix_set(snapshots: &[&RoutingTable]) -> BTreeSet<Ipv4Net> {
    let mut iter = snapshots.iter();
    let Some(first) = iter.next() else {
        return BTreeSet::new();
    };
    let mut union: BTreeSet<Ipv4Net> = first.prefixes().iter().copied().collect();
    let mut intersection = union.clone();
    for snap in iter {
        let set: BTreeSet<Ipv4Net> = snap.prefixes().iter().copied().collect();
        union.extend(set.iter().copied());
        intersection.retain(|p| set.contains(p));
    }
    union.difference(&intersection).copied().collect()
}

/// Per-log dynamics figures for one period (the per-log rows of Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogDynamics {
    /// Log name.
    pub log_name: String,
    /// Total clusters in the log's clustering.
    pub total_clusters: usize,
    /// Clusters whose identifying prefix appears in this vantage point's
    /// end-of-period table ("`<log>` prefix" rows).
    pub prefixes_in_table: usize,
    /// Of those, prefixes in the period's dynamic set ("Maximum effect").
    pub prefix_effect: usize,
    /// Busy clusters in the log (after thresholding).
    pub busy_total: usize,
    /// Busy clusters identified via this vantage point's table.
    pub busy_in_table: usize,
    /// Of those, in the dynamic set.
    pub busy_effect: usize,
}

/// One period row of Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynamicsRow {
    /// Period length in days (0 = intra-day snapshots only).
    pub period_days: u32,
    /// Table size at the end of the period.
    pub table_size: usize,
    /// Size of the dynamic prefix set over the period.
    pub max_effect: usize,
    /// Per-log figures.
    pub logs: Vec<LogDynamics>,
}

/// A log to analyze: name, its clustering, and the indices of its busy
/// clusters (from [`netclust_core::threshold_busy`]).
pub struct LogUnderStudy<'a> {
    /// Log name for the report.
    pub name: String,
    /// The log's network-aware clustering.
    pub clustering: &'a Clustering,
    /// Busy-cluster indices within `clustering.clusters`.
    pub busy: &'a [usize],
}

/// Runs the Table 4 analysis for one vantage point over several periods.
///
/// `ticks_per_day` controls how many intra-day snapshots are generated per
/// day (the paper's sites dump every ~2 hours → 12/day; smaller values
/// speed up large experiments without changing the qualitative shape).
pub fn dynamics_analysis(
    universe: &Universe,
    spec: &VantageSpec,
    logs: &[LogUnderStudy<'_>],
    periods: &[u32],
    ticks_per_day: u32,
) -> Vec<DynamicsRow> {
    assert!(ticks_per_day >= 1, "need at least one snapshot per day");
    let mut rows = Vec::with_capacity(periods.len());
    for &period in periods {
        // All snapshots of the period.
        let mut snaps: Vec<RoutingTable> = Vec::new();
        for day in 0..=period {
            for tick in 0..ticks_per_day {
                snaps.push(snapshot(universe, spec, day, tick));
            }
        }
        let refs: Vec<&RoutingTable> = snaps.iter().collect();
        let dynamic = dynamic_prefix_set(&refs);
        let end_table = snaps.last().expect("at least one snapshot");
        let end_set: BTreeSet<Ipv4Net> = end_table.prefixes().iter().copied().collect();

        let logs_out = logs
            .iter()
            .map(|study| {
                let in_table =
                    |idx: &usize| end_set.contains(&study.clustering.clusters[*idx].prefix);
                let in_dynamic =
                    |idx: &usize| dynamic.contains(&study.clustering.clusters[*idx].prefix);
                let all: Vec<usize> = (0..study.clustering.clusters.len()).collect();
                LogDynamics {
                    log_name: study.name.clone(),
                    total_clusters: study.clustering.clusters.len(),
                    prefixes_in_table: all.iter().filter(|i| in_table(i)).count(),
                    prefix_effect: all.iter().filter(|i| in_dynamic(i)).count(),
                    busy_total: study.busy.len(),
                    busy_in_table: study.busy.iter().filter(|i| in_table(i)).count(),
                    busy_effect: study.busy.iter().filter(|i| in_dynamic(i)).count(),
                }
            })
            .collect();

        rows.push(DynamicsRow {
            period_days: period,
            table_size: end_table.len(),
            max_effect: dynamic.len(),
            logs: logs_out,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_core::threshold_busy;
    use netclust_core::Assigner;
    use netclust_netgen::{generate, LogSpec, UniverseConfig};
    use netclust_rtable::TableKind;

    fn table(nets: &[&str]) -> RoutingTable {
        let nets = nets.iter().map(|n| n.parse().unwrap()).collect();
        RoutingTable::new("A", "d", TableKind::Bgp, nets)
    }

    #[test]
    fn dynamic_set_is_union_minus_intersection() {
        let d0 = table(&["6.0.0.0/8", "18.0.0.0/8", "24.48.2.0/23"]);
        let d1 = table(&["6.0.0.0/8", "18.0.0.0/8", "12.65.128.0/19"]);
        let d2 = table(&["6.0.0.0/8", "18.0.0.0/8"]);
        let dynamic = dynamic_prefix_set(&[&d0, &d1, &d2]);
        let expect: BTreeSet<Ipv4Net> = ["24.48.2.0/23", "12.65.128.0/19"]
            .iter()
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(dynamic, expect);
    }

    #[test]
    fn single_snapshot_has_no_dynamics() {
        let d0 = table(&["6.0.0.0/8"]);
        assert!(dynamic_prefix_set(&[&d0]).is_empty());
        assert!(dynamic_prefix_set(&[]).is_empty());
    }

    #[test]
    fn effects_grow_with_period_and_stay_small() {
        let u = Universe::generate(UniverseConfig::small(7));
        let log = generate(&u, &LogSpec::tiny("d", 3));
        let merged = netclust_netgen::standard_merged(&u, 0);
        let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));
        let thresh = threshold_busy(&clustering.clusters, 0.7);
        let spec = VantageSpec::new("OREGON", 0.94, 0.03);
        let studies = [LogUnderStudy {
            name: "d".into(),
            clustering: &clustering,
            busy: &thresh.busy,
        }];
        let rows = dynamics_analysis(&u, &spec, &studies, &[0, 4, 14], 4);
        assert_eq!(rows.len(), 3);
        // Maximum effect grows (weakly) with the period.
        assert!(rows[0].max_effect <= rows[1].max_effect);
        assert!(rows[1].max_effect <= rows[2].max_effect);
        // Even intra-day snapshots churn a little.
        assert!(rows[0].max_effect > 0);
        // Churn touches a minority of the table.
        for row in &rows {
            assert!(
                (row.max_effect as f64) < row.table_size as f64 * 0.25,
                "effect {} of {}",
                row.max_effect,
                row.table_size
            );
            let l = &row.logs[0];
            assert!(l.prefix_effect <= l.total_clusters);
            assert!(l.busy_effect <= l.busy_total);
            assert!(l.busy_in_table <= l.busy_total);
            assert!(l.prefixes_in_table <= l.total_clusters);
            // Busy clusters are a subset, so their in-table count cannot
            // exceed the overall one.
            assert!(l.busy_in_table <= l.prefixes_in_table);
        }
    }

    #[test]
    fn table_sizes_grow_over_weeks() {
        let u = Universe::generate(UniverseConfig::small(11));
        let spec = VantageSpec::new("OREGON", 0.94, 0.03);
        let rows = dynamics_analysis(&u, &spec, &[], &[0, 14], 2);
        assert!(rows[1].table_size > rows[0].table_size);
    }

    #[test]
    #[should_panic(expected = "at least one snapshot")]
    fn zero_ticks_panics() {
        let u = Universe::generate(UniverseConfig::small(7));
        let spec = VantageSpec::new("X", 0.5, 0.05);
        let _ = dynamics_analysis(&u, &spec, &[], &[0], 0);
    }
}
