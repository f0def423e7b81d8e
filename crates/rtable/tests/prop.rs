//! Property-based tests: the radix trie agrees with a naive reference
//! implementation of longest-prefix match, and dynamics measures satisfy
//! their set-algebra definitions.

use std::collections::BTreeMap;

use netclust_prefix::Ipv4Net;
use netclust_rtable::{
    dynamic_prefix_set, maximum_effect, MergedTable, PrefixTrie, RoutingTable, SnapshotDiff,
    TableKind,
};
use proptest::prelude::*;

mod common;

/// Reference LPM: linear scan over a sorted map.
fn naive_lpm(map: &BTreeMap<Ipv4Net, u32>, addr: u32) -> Option<(Ipv4Net, u32)> {
    map.iter()
        .filter(|(net, _)| net.contains_u32(addr))
        .max_by_key(|(net, _)| net.len())
        .map(|(net, v)| (*net, *v))
}

fn arb_net() -> impl Strategy<Value = Ipv4Net> {
    // Bias toward clustered address space so probes actually hit prefixes.
    (0u32..1 << 16, 8u8..=28).prop_map(|(hi, len)| Ipv4Net::new(hi << 16, len).unwrap())
}

/// Prefixes of any length ≥ /8, anywhere, plus a dense arm packing many
/// overlapping long prefixes (incl. >/24 and host routes) into one /16.
fn arb_net_wide() -> impl Strategy<Value = Ipv4Net> {
    prop_oneof![
        (any::<u32>(), 8u8..=32).prop_map(|(a, l)| Ipv4Net::new(a, l).unwrap()),
        (0u32..=0xFFFF, 16u8..=32).prop_map(|(lo, l)| Ipv4Net::new(0x0A0A_0000 | lo, l).unwrap()),
    ]
}

/// Probes that land inside the given prefixes (prefix address plus masked
/// offsets), on every chunk and block edge around them, and anywhere, so
/// matches, misses and run boundaries are all exercised.
fn targeted_probes(
    entries: &std::collections::BTreeSet<Ipv4Net>,
    offsets: &[u32],
    random: &[u32],
) -> Vec<u32> {
    let mut probes: Vec<u32> = random.to_vec();
    for net in entries {
        probes.extend(common::edge_probes(*net));
        for &off in offsets {
            probes.push(net.addr_u32() | (off & !net.netmask_u32()));
        }
    }
    probes
}

proptest! {
    /// Trie LPM ≡ naive LPM for arbitrary prefix sets and probes.
    #[test]
    fn trie_matches_reference(
        entries in proptest::collection::btree_map(arb_net(), any::<u32>(), 0..64),
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let trie: PrefixTrie<u32> = entries.iter().map(|(n, v)| (*n, *v)).collect();
        prop_assert_eq!(trie.len(), entries.len());
        for addr in probes {
            let got = trie.longest_match_u32(addr).map(|(n, v)| (n, *v));
            // The trie reconstructs the prefix from the probe address; it
            // must equal the canonical stored prefix.
            prop_assert_eq!(got, naive_lpm(&entries, addr));
        }
    }

    /// Insert-then-remove restores prior matching behaviour.
    #[test]
    fn remove_is_inverse_of_insert(
        entries in proptest::collection::btree_map(arb_net(), any::<u32>(), 1..32),
        extra in arb_net(),
        probes in proptest::collection::vec(any::<u32>(), 16),
    ) {
        prop_assume!(!entries.contains_key(&extra));
        let mut trie: PrefixTrie<u32> = entries.iter().map(|(n, v)| (*n, *v)).collect();
        let before: Vec<_> = probes.iter().map(|&a| trie.longest_match_u32(a).map(|(n, v)| (n, *v))).collect();
        trie.insert(extra, 999);
        trie.remove(extra);
        let after: Vec<_> = probes.iter().map(|&a| trie.longest_match_u32(a).map(|(n, v)| (n, *v))).collect();
        prop_assert_eq!(before, after);
    }

    /// Trie iteration returns prefixes in sorted order with no duplicates.
    #[test]
    fn iteration_sorted_unique(
        entries in proptest::collection::btree_set(arb_net(), 0..64),
    ) {
        let trie: PrefixTrie<()> = entries.iter().map(|n| (*n, ())).collect();
        let listed = trie.prefixes();
        let expected: Vec<Ipv4Net> = entries.into_iter().collect();
        prop_assert_eq!(listed, expected);
    }

    /// match_chain is the sorted chain of containing prefixes and ends at
    /// the longest match.
    #[test]
    fn match_chain_consistent(
        entries in proptest::collection::btree_set(arb_net(), 1..48),
        addr in any::<u32>(),
    ) {
        let trie: PrefixTrie<()> = entries.iter().map(|n| (*n, ())).collect();
        let chain = trie.match_chain_u32(addr);
        // Strictly increasing lengths, all containing addr and stored.
        let mut last_len = None;
        for (net, _) in &chain {
            prop_assert!(net.contains_u32(addr));
            prop_assert!(entries.contains(net));
            if let Some(l) = last_len {
                prop_assert!(net.len() > l);
            }
            last_len = Some(net.len());
        }
        prop_assert_eq!(
            chain.last().map(|(n, _)| *n),
            trie.longest_match_u32(addr).map(|(n, _)| n)
        );
        // Chain length equals the number of stored prefixes containing addr.
        let expect = entries.iter().filter(|n| n.contains_u32(addr)).count();
        prop_assert_eq!(chain.len(), expect);
    }

    /// Two-tier lookup: a BGP match always wins over the registry tier,
    /// registry only answers when no BGP prefix covers the address, and
    /// the merged result equals the tier-wise reference computation.
    #[test]
    fn merged_table_tier_semantics(
        bgp in proptest::collection::btree_set(arb_net(), 0..32),
        dump in proptest::collection::btree_set(arb_net(), 0..32),
        probes in proptest::collection::vec(any::<u32>(), 24),
    ) {
        use netclust_rtable::{MatchSource, MergedTable};
        let bgp_map: BTreeMap<Ipv4Net, u32> = bgp.iter().map(|&n| (n, 0)).collect();
        let dump_map: BTreeMap<Ipv4Net, u32> = dump.iter().map(|&n| (n, 0)).collect();
        let tb = RoutingTable::new("B", "d", TableKind::Bgp, bgp.iter().copied().collect());
        let td = RoutingTable::new("D", "d", TableKind::NetworkDump, dump.iter().copied().collect());
        let merged = MergedTable::merge([&tb, &td]);
        for addr in probes {
            let got = merged.lookup_u32(addr);
            let expect = match naive_lpm(&bgp_map, addr) {
                Some((net, _)) => Some((net, MatchSource::Bgp)),
                None => naive_lpm(&dump_map, addr).map(|(net, _)| (net, MatchSource::NetworkDump)),
            };
            prop_assert_eq!(got, expect);
        }
    }

    /// Compiled lookup ≡ trie LPM ≡ linear scan, over prefix sets
    /// mixing short, long (>/24) and host-route entries; a handle resolves
    /// to the prefix scalar lookup reports.
    #[test]
    fn compiled_matches_trie_and_reference(
        entries in proptest::collection::btree_set(arb_net_wide(), 0..96),
        offsets in proptest::collection::vec(any::<u32>(), 4),
        random in proptest::collection::vec(any::<u32>(), 32),
    ) {
        let map: BTreeMap<Ipv4Net, u32> = entries.iter().map(|&n| (n, 0)).collect();
        let trie: PrefixTrie<()> = entries.iter().map(|&n| (n, ())).collect();
        let compiled = trie.compile();
        prop_assert_eq!(compiled.len(), entries.len());
        for addr in targeted_probes(&entries, &offsets, &random) {
            let expect = naive_lpm(&map, addr).map(|(n, _)| n);
            prop_assert_eq!(trie.longest_match_u32(addr).map(|(n, _)| n), expect);
            prop_assert_eq!(compiled.lookup(addr), expect);
            prop_assert_eq!(compiled.resolve(compiled.lookup_handle(addr)), expect);
        }
    }

    /// The compiled merged table preserves the two-tier semantics of the
    /// trie-backed [`MergedTable`] exactly — scalar and batch, on prefix
    /// sets that pack short, long (>/24) and host-route entries of both
    /// tiers into one /16.
    #[test]
    fn compiled_merged_matches_merged(
        bgp in proptest::collection::btree_set(arb_net_wide(), 0..32),
        dump in proptest::collection::btree_set(arb_net_wide(), 0..32),
        offsets in proptest::collection::vec(any::<u32>(), 2),
        random in proptest::collection::vec(any::<u32>(), 24),
    ) {
        let tb = RoutingTable::new("B", "d", TableKind::Bgp, bgp.iter().copied().collect());
        let td = RoutingTable::new("D", "d", TableKind::NetworkDump, dump.iter().copied().collect());
        let merged = MergedTable::merge([&tb, &td]);
        let compiled = merged.compile();
        let all: std::collections::BTreeSet<Ipv4Net> = bgp.union(&dump).copied().collect();
        let probes = targeted_probes(&all, &offsets, &random);
        for &addr in &probes {
            prop_assert_eq!(compiled.lookup_u32(addr), merged.lookup_u32(addr));
            prop_assert_eq!(
                compiled.net_for_u32(addr),
                merged.lookup_u32(addr).map(|(n, _)| n)
            );
        }
        let nets = compiled.net_for_batch(&probes);
        prop_assert_eq!(nets.len(), probes.len());
        for (&addr, net) in probes.iter().zip(nets) {
            prop_assert_eq!(net, merged.lookup_u32(addr).map(|(n, _)| n));
        }
    }

    /// Dynamics: the dynamic prefix set equals union minus intersection and
    /// the pairwise diff churn bounds it.
    #[test]
    fn dynamics_set_algebra(
        a in proptest::collection::btree_set(arb_net(), 0..32),
        b in proptest::collection::btree_set(arb_net(), 0..32),
    ) {
        let ta = RoutingTable::new("A", "d0", TableKind::Bgp, a.iter().copied().collect());
        let tb = RoutingTable::new("A", "d1", TableKind::Bgp, b.iter().copied().collect());
        let dynamic = dynamic_prefix_set(&[&ta, &tb]);
        let diff = SnapshotDiff::between(&ta, &tb);
        // For two snapshots, dynamic set == symmetric difference == diff churn.
        let sym: Vec<Ipv4Net> = a.symmetric_difference(&b).copied().collect();
        prop_assert_eq!(dynamic.iter().copied().collect::<Vec<_>>(), sym);
        prop_assert_eq!(maximum_effect(&[&ta, &tb]), diff.churn());
    }
}

// Coarse prefixes (/0–/7) own thousands of root entries each: the
// default route and class-A-scale fills, under and over node chunks.
proptest! {

    /// Compiled ≡ trie ≡ linear scan when very short prefixes (including
    /// /0) mix with long ones.
    #[test]
    fn compiled_handles_coarse_prefixes(
        coarse in proptest::collection::btree_set(
            (any::<u32>(), 0u8..=7).prop_map(|(a, l)| Ipv4Net::new(a, l).unwrap()),
            0..4,
        ),
        fine in proptest::collection::btree_set(arb_net_wide(), 0..16),
        offsets in proptest::collection::vec(any::<u32>(), 2),
        random in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let entries: std::collections::BTreeSet<Ipv4Net> =
            coarse.union(&fine).copied().collect();
        let map: BTreeMap<Ipv4Net, u32> = entries.iter().map(|&n| (n, 0)).collect();
        let trie: PrefixTrie<()> = entries.iter().map(|&n| (n, ())).collect();
        let compiled = trie.compile();
        for addr in targeted_probes(&entries, &offsets, &random) {
            let expect = naive_lpm(&map, addr).map(|(n, _)| n);
            prop_assert_eq!(trie.longest_match_u32(addr).map(|(n, _)| n), expect);
            prop_assert_eq!(compiled.lookup(addr), expect);
        }
    }
}
