//! Property-based tests on the Figure 3–7 distribution metrics and the
//! §3.4 dynamic prefix set.

use netclust_core::{Assigner, Clustering};
use std::net::Ipv4Addr;

use netclust_experiments::{
    accessed_url_count, cdf, cdf_at, dynamic_prefix_set, split_sessions, unique_clients,
    Distributions, Summary,
};
use netclust_netgen::Log;
use netclust_netgen::{generate, LogSpec, Universe, UniverseConfig};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{RoutingTable, TableKind};
use proptest::prelude::*;

#[test]
fn counts() {
    let log = Log::from_triples(&[(1, 0, 0), (2, 1, 10), (1, 0, 50), (3, 1, 99)]);
    assert_eq!(accessed_url_count(&log), 2);
    let clients = [1u32, 2, 3].map(Ipv4Addr::from);
    assert_eq!(unique_clients(&log), clients);
}

#[test]
fn sessions_partition_requests() {
    let mut log = Log::from_triples(&[(1, 0, 0), (2, 1, 10), (1, 0, 50), (3, 1, 99)]);
    log.name = "tiny".into();
    log.duration_s = 100;
    let sessions = split_sessions(&log, 4);
    assert_eq!(sessions.len(), 4);
    let total: usize = sessions.iter().map(|s| s.requests.len()).sum();
    assert_eq!(total, log.requests.len());
    assert_eq!(sessions[0].requests.len(), 2); // t=0, t=10
    assert_eq!(sessions[2].requests.len(), 1); // t=50
    assert_eq!(sessions[3].requests.len(), 1); // t=99
    assert!(sessions[1].requests.is_empty());
    assert_eq!(sessions[2].name, "tiny.s2");
}

fn arb_net() -> impl Strategy<Value = Ipv4Net> {
    // Clustered address space, so two sets overlap.
    (0u32..1 << 16, 8u8..=28).prop_map(|(hi, len)| Ipv4Net::new(hi << 16, len).unwrap())
}

fn arb_reqs() -> impl Strategy<Value = Vec<(u32, u8, u16)>> {
    proptest::collection::vec((any::<u32>(), any::<u8>(), any::<u16>()), 1..300)
}

proptest! {
    /// Distribution series and orderings are consistent with the clusters.
    #[test]
    fn distributions_are_consistent(reqs in arb_reqs()) {
        let log = Log::from_triples(&reqs);
        let clustering = Clustering::by(log.hits(), Assigner::Simple24);
        let d = Distributions::of(&clustering);
        prop_assert_eq!(d.clients.len(), clustering.len());
        // Orderings are permutations.
        let mut a = d.by_clients.clone();
        a.sort_unstable();
        prop_assert_eq!(&a, &(0..clustering.len()).collect::<Vec<_>>());
        let mut b = d.by_requests.clone();
        b.sort_unstable();
        prop_assert_eq!(&b, &(0..clustering.len()).collect::<Vec<_>>());
        // Reordered series are non-increasing.
        let by_c = Distributions::series_in(&d.clients, &d.by_clients);
        prop_assert!(by_c.windows(2).all(|w| w[0] >= w[1]));
        let by_r = Distributions::series_in(&d.requests, &d.by_requests);
        prop_assert!(by_r.windows(2).all(|w| w[0] >= w[1]));
        // Summary totals match.
        if let Some(s) = Summary::of(&d.requests) {
            prop_assert_eq!(s.total, clustering.clusters.iter().map(|c| c.requests).sum::<u64>());
            prop_assert!(s.min <= s.max);
        }
    }

    /// The CDF is a valid distribution function: non-decreasing, ends at
    /// 1.0, and cdf_at brackets every value correctly.
    #[test]
    fn cdf_is_valid(values in proptest::collection::vec(0u64..1000, 1..200)) {
        let points = cdf(&values);
        prop_assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
        prop_assert!(points.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        for &v in &values {
            let frac = cdf_at(&points, v);
            let expect = values.iter().filter(|&&x| x <= v).count() as f64
                / values.len() as f64;
            prop_assert!((frac - expect).abs() < 1e-12);
        }
    }

    /// For two snapshots the dynamic prefix set is their symmetric
    /// difference.
    #[test]
    fn dynamic_set_of_two_is_the_symmetric_difference(
        a in proptest::collection::btree_set(arb_net(), 0..32),
        b in proptest::collection::btree_set(arb_net(), 0..32),
    ) {
        let ta = RoutingTable::new("A", "d0", TableKind::Bgp, a.iter().copied().collect());
        let tb = RoutingTable::new("A", "d1", TableKind::Bgp, b.iter().copied().collect());
        let dynamic = dynamic_prefix_set(&[&ta, &tb]);
        let sym: Vec<Ipv4Net> = a.symmetric_difference(&b).copied().collect();
        prop_assert_eq!(dynamic.into_iter().collect::<Vec<_>>(), sym);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Session partitioning conserves requests for any session count.
    #[test]
    fn sessions_conserve_requests(seed in 0u64..200, n in 1u32..12) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("s", seed);
        spec.total_requests = 1_000;
        spec.target_clients = 50;
        let log = generate(&u, &spec);
        let sessions = split_sessions(&log, n);
        prop_assert_eq!(sessions.len(), n as usize);
        let total: usize = sessions.iter().map(|s| s.requests.len()).sum();
        prop_assert_eq!(total, log.requests.len());
        for s in &sessions {
            prop_assert!(s.check().is_ok());
        }
    }
}
