//! Property-based tests on universe invariants and generated logs.

use netclust_netgen::{
    generate, snapshot, LogSpec, ProxySpec, SpiderSpec, Universe, UniverseConfig, VantageSpec,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed, the allocation invariants hold: disjoint org
    /// networks, hosts bijective within their org, ground-truth ownership
    /// consistent.
    #[test]
    fn universe_invariants(seed in 0u64..500) {
        let u = Universe::generate(UniverseConfig::small(seed));
        // Disjoint org networks.
        let mut nets: Vec<_> = u.orgs().iter().map(|o| o.network).collect();
        nets.sort();
        for w in nets.windows(2) {
            prop_assert!(u32::from(w[0].last()) < w[1].addr_u32(), "{} vs {}", w[0], w[1]);
        }
        for org in u.orgs().iter().take(60) {
            // host_addr/host_idx are inverse bijections over active hosts.
            for idx in [0, org.active_hosts / 2, org.active_hosts - 1] {
                let addr = org.host_addr(idx).expect("in range");
                prop_assert!(org.network.contains(addr));
                prop_assert_eq!(org.host_idx(addr), Some(idx));
                prop_assert_eq!(u.owner(addr), Some(org.id));
                // admin_key is always defined for org hosts.
                prop_assert!(u.admin_key(addr).is_some());
            }
            prop_assert!(org.host_addr(org.active_hosts).is_none());
        }
    }

    /// Snapshots are subsets of what is announced (plus AS aggregates via
    /// local aggregation) and deterministic in all parameters.
    #[test]
    fn snapshots_within_announcements(seed in 0u64..200, day in 0u32..10, vis in 0.1f64..1.0) {
        let u = Universe::generate(UniverseConfig::small(seed));
        let spec = VantageSpec::new("P", vis, 0.05);
        let snap = snapshot(&u, &spec, day, 0);
        let announced: std::collections::BTreeSet<_> =
            u.announcements(day).into_iter().map(|a| a.prefix).collect();
        let aggregates: std::collections::BTreeSet<_> =
            u.ases().iter().map(|a| a.aggregate).collect();
        for p in snap.prefixes() {
            prop_assert!(
                announced.contains(p) || aggregates.contains(p),
                "{p} neither announced nor an aggregate"
            );
        }
        let again = snapshot(&u, &spec, day, 0);
        prop_assert_eq!(snap.prefixes(), again.prefixes());
    }

    /// DNS names, when present, parse as FQDNs whose suffix identifies a
    /// single administrative entity.
    #[test]
    fn dns_names_are_wellformed(seed in 0u64..200) {
        let u = Universe::generate(UniverseConfig::small(seed));
        let mut seen = 0;
        for org in u.orgs().iter().take(80) {
            let addr = org.host_addr(0).expect("active host");
            if let Some(name) = u.dns_name(addr) {
                seen += 1;
                prop_assert!(name.split('.').count() >= 3, "{name}");
                prop_assert!(!name.contains(' '));
                prop_assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '-'));
            }
        }
        prop_assert!(seen > 0, "some hosts resolve");
    }
}

fn universe() -> Universe {
    Universe::generate(UniverseConfig::small(7))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated logs are well-formed for arbitrary (small) volumes, hit
    /// the requested totals approximately, and stay deterministic.
    #[test]
    fn generated_logs_are_well_formed(
        seed in 0u64..1_000,
        requests in 500u64..5_000,
        clients in 20u64..200,
        urls in 20u32..300,
        casual in 0.0f64..1.0,
    ) {
        let u = universe();
        let mut spec = LogSpec::tiny("p", seed);
        spec.total_requests = requests;
        spec.target_clients = clients;
        spec.num_urls = urls;
        spec.casual_fraction = casual;
        let log = generate(&u, &spec);
        prop_assert!(log.check().is_ok(), "{:?}", log.check());
        let got = log.requests.len() as f64 / requests as f64;
        prop_assert!((0.5..1.5).contains(&got), "request ratio {got}");
        prop_assert!(log.client_count() as u64 >= clients.min(log.client_count() as u64));
        // URL ids are within the table.
        prop_assert!(log.requests.iter().all(|r| (r.url) < urls));
        // Every client belongs to some org of the universe.
        let clients: std::collections::BTreeSet<u32> = log.requests.iter().map(|r| r.client).collect();
        for addr in clients.iter().take(20).map(|&c| std::net::Ipv4Addr::from(c)) {
            prop_assert!(u.owner(addr).is_some(), "client {addr} outside universe");
        }
        // Determinism.
        let again = generate(&u, &spec);
        prop_assert_eq!(log.requests.len(), again.requests.len());
        prop_assert_eq!(&log.requests[..5.min(log.requests.len())],
                        &again.requests[..5.min(again.requests.len())]);
    }

    /// Planted anomalies always land in the truth record with exactly the
    /// requested volume.
    #[test]
    fn planted_anomalies_are_recorded(
        seed in 0u64..500,
        spider_reqs in 200u64..2_000,
        proxy_reqs in 200u64..2_000,
        companions in 0u32..10,
    ) {
        let u = universe();
        let mut spec = LogSpec::tiny("p", seed);
        spec.total_requests = 4_000;
        spec.target_clients = 60;
        spec.spiders = vec![SpiderSpec { requests: spider_reqs, unique_urls: 50, companions }];
        spec.proxies = vec![ProxySpec { requests: proxy_reqs, companions }];
        let log = generate(&u, &spec);
        prop_assert_eq!(log.truth.spiders.len(), 1);
        prop_assert_eq!(log.truth.proxies.len(), 1);
        let spider = u32::from(log.truth.spiders[0]);
        let proxy = u32::from(log.truth.proxies[0]);
        prop_assert_ne!(spider, proxy);
        let s_count = log.requests.iter().filter(|r| r.client == spider).count() as u64;
        let p_count = log.requests.iter().filter(|r| r.client == proxy).count() as u64;
        prop_assert_eq!(s_count, spider_reqs);
        prop_assert_eq!(p_count, proxy_reqs);
    }
}
