//! Property-based tests: the radix trie and the compiled table agree with
//! a naive reference implementation of longest-prefix match.

use std::collections::BTreeMap;

use netclust_prefix::Ipv4Net;
use netclust_rtable::{
    CompiledTable, MatchSource, MergedTable, PrefixTrie, RoutingTable, TableKind,
};
use netclust_testkit::nets;
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

    /// Two-tier lookup: a BGP match always wins over the registry tier,
    /// registry only answers when no BGP prefix covers the address, and
    /// the merged result equals the tier-wise reference computation.
    #[test]
    fn merged_table_tier_semantics(
        bgp in proptest::collection::btree_set(arb_net(), 0..32),
        dump in proptest::collection::btree_set(arb_net(), 0..32),
        probes in proptest::collection::vec(any::<u32>(), 24),
    ) {
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
    /// to the prefix scalar lookup reports. The same set given shuffled,
    /// every third prefix twice, compiles to the same table: `tiered`
    /// sorts and deduplicates each tier.
    #[test]
    fn compiled_matches_trie_and_reference(
        entries in proptest::collection::btree_set(arb_net_wide(), 0..96),
        offsets in proptest::collection::vec(any::<u32>(), 4),
        random in proptest::collection::vec(any::<u32>(), 32),
        shuffle in any::<u32>(),
    ) {
        let map: BTreeMap<Ipv4Net, u32> = entries.iter().map(|&n| (n, 0)).collect();
        let trie: PrefixTrie<()> = entries.iter().map(|&n| (n, ())).collect();
        let list: Vec<Ipv4Net> = entries.iter().copied().collect();
        let compiled = CompiledTable::tiered(&list, &[]);
        prop_assert_eq!(compiled.len(), entries.len());
        let mut keyed: Vec<(u32, Ipv4Net)> = (0u32..)
            .zip(list.iter().chain(list.iter().step_by(3)))
            .map(|(i, &n)| ((i ^ shuffle).wrapping_mul(0x9E37_79B9), n))
            .collect();
        keyed.sort_unstable();
        let shuffled: Vec<Ipv4Net> = keyed.into_iter().map(|(_, n)| n).collect();
        let copy = CompiledTable::tiered(&shuffled, &[]);
        prop_assert_eq!(copy.len(), compiled.len());
        prop_assert_eq!(copy.live_prefixes(), compiled.live_prefixes());
        for addr in targeted_probes(&entries, &offsets, &random) {
            let expect = naive_lpm(&map, addr).map(|(n, _)| n);
            prop_assert_eq!(trie.longest_match_u32(addr).map(|(n, _)| n), expect);
            prop_assert_eq!(compiled.lookup(addr), expect);
            prop_assert_eq!(compiled.resolve(compiled.lookup_handle(addr)), expect);
            prop_assert_eq!(copy.lookup(addr), expect);
            prop_assert_eq!(copy.lookup_handle(addr), compiled.lookup_handle(addr));
        }
    }

    /// The one compiled table keeps the two-tier semantics exactly — the
    /// match and its tier, scalar and batch — against a reference of two
    /// tries (BGP longest match, else registry longest match) and the
    /// sorted-list [`MergedTable::lookup_u32`], on prefix sets that pack
    /// short, long (>/24) and host-route entries of both tiers into one
    /// /16.
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
        let bgp_trie: PrefixTrie<()> = bgp.iter().map(|&n| (n, ())).collect();
        let dump_trie: PrefixTrie<()> = dump.iter().map(|&n| (n, ())).collect();
        let reference = |addr: u32| match bgp_trie.longest_match_u32(addr) {
            Some((net, _)) => Some((net, MatchSource::Bgp)),
            None => dump_trie.longest_match_u32(addr).map(|(net, _)| (net, MatchSource::NetworkDump)),
        };
        let all: std::collections::BTreeSet<Ipv4Net> = bgp.union(&dump).copied().collect();
        let probes = targeted_probes(&all, &offsets, &random);
        for &addr in &probes {
            let expect = reference(addr);
            let h = compiled.lookup_handle(addr);
            prop_assert_eq!(compiled.resolve(h).zip(compiled.source(h)), expect);
            prop_assert_eq!(merged.lookup_u32(addr), expect);
            prop_assert_eq!(compiled.lookup(addr), expect.map(|(n, _)| n));
        }
        let handles = compiled.match_handles(&probes);
        prop_assert_eq!(handles.len(), probes.len());
        for (&addr, h) in probes.iter().zip(handles) {
            prop_assert_eq!(compiled.resolve(h), reference(addr).map(|(n, _)| n));
        }
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
        let compiled = CompiledTable::tiered(&entries.iter().copied().collect::<Vec<_>>(), &[]);
        for addr in targeted_probes(&entries, &offsets, &random) {
            let expect = naive_lpm(&map, addr).map(|(n, _)| n);
            prop_assert_eq!(trie.longest_match_u32(addr).map(|(n, _)| n), expect);
            prop_assert_eq!(compiled.lookup(addr), expect);
        }
    }
}

/// The oracle property's prefix sets compile to nodes of both classes,
/// so the reference checks every lookup path.
#[test]
fn oracle_tables_reach_every_node_class() {
    let mut rng = proptest::TestRng::for_test("oracle_tables_reach_every_node_class");
    let sets = proptest::collection::btree_set(arb_net_wide(), 0..96);
    let mut seen = [0usize; 2];
    for _ in 0..64 {
        let table = CompiledTable::tiered(
            &sets.generate(&mut rng).into_iter().collect::<Vec<_>>(),
            &[],
        );
        for (s, n) in seen.iter_mut().zip(table.node_classes()) {
            *s += n;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "nodes per class: {seen:?}");
}

/// One layout for both tiers: a BGP match wins where the registry's is
/// longer, the tier comes from the handle, a registry prefix under a BGP
/// cover costs no node, and there is one root.
#[test]
fn one_table_holds_both_tiers() {
    let bgp = nets(&["12.0.0.0/8", "24.48.2.0/24"]);
    let dump = nets(&["12.65.128.0/19", "99.1.2.0/24"]);
    let tb = RoutingTable::new("B", "d", TableKind::Bgp, bgp.clone());
    let td = RoutingTable::new("D", "d", TableKind::NetworkDump, dump.clone());
    let merged = MergedTable::merge([&tb, &td]);
    let table = merged.compile();
    for ip in [
        "12.65.147.94",
        "99.1.2.3",
        "24.48.2.7",
        "24.48.3.7",
        "1.1.1.1",
    ] {
        let addr = u32::from(ip.parse::<std::net::Ipv4Addr>().unwrap());
        let h = table.lookup_handle(addr);
        assert_eq!(
            table.resolve(h).zip(table.source(h)),
            merged.lookup_u32(addr),
            "{ip}"
        );
    }
    // 24.48/16 and 99.1/16 hold a 3-run, 32-byte node each; 12.65/16 is
    // the BGP /8's leaf.
    assert_eq!(table.nodes(), 2);
    assert_eq!(table.memory_bytes(), (1 << 16) * 4 + 2 * 32 + 4 * 8);
    assert_eq!(
        (table.live_prefixes(), table.dump_prefixes()),
        (bgp, &dump[..])
    );
    assert_eq!(table.len(), 4);
}

/// The registry tier shows through wherever BGP has no answer, at every
/// level of the layout: under a BGP /24 with a hole, beside a BGP /25 in a
/// registry /24, and under a registry /25 in a BGP-less /16.
#[test]
fn registry_answers_show_through_every_bgp_hole() {
    let bgp = nets(&["24.48.2.0/25", "24.48.3.0/24", "24.48.3.128/26"]);
    let dump = nets(&[
        "24.48.0.0/16",
        "24.48.2.0/24",
        "24.48.3.192/27",
        "24.49.5.128/25",
    ]);
    let table = CompiledTable::tiered(&bgp, &dump);
    let tb: PrefixTrie<()> = bgp.iter().map(|&n| (n, ())).collect();
    let td: PrefixTrie<()> = dump.iter().map(|&n| (n, ())).collect();
    for probe in 0x182F_FF00..=0x1831_0600u32 {
        let expect = (tb.longest_match_u32(probe))
            .or_else(|| td.longest_match_u32(probe))
            .map(|(n, _)| n);
        assert_eq!(table.lookup(probe), expect, "probe {probe:#x}");
    }
}
