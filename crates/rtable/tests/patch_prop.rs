//! Property-based tests for the incremental patch layer: a `CompiledTable`
//! driven through arbitrary `apply_delta` sequences must remain
//! lookup-equivalent to a from-scratch compile of the same live prefix set
//! — across root rewrites, chunk rebuilds (nodes allocated, grown, freed
//! and reused), arena-slot reuse, and the bulk rebuild, down to
//! withdraw-to-empty and back.

use std::collections::BTreeSet;

use netclust_prefix::Ipv4Net;
use netclust_rtable::{CompiledTable, PatchReport, PrefixTrie, TableDelta};
use proptest::prelude::*;

mod common;

/// Prefixes of any length ≥ /8 anywhere, plus a dense arm packing many
/// overlapping long prefixes (incl. >/24 and host routes) into one /16 so
/// its nodes are created, grown, and collapsed.
fn arb_net() -> impl Strategy<Value = Ipv4Net> {
    prop_oneof![
        (any::<u32>(), 8u8..=32).prop_map(|(a, l)| Ipv4Net::new(a, l).unwrap()),
        (0u32..=0xFFFF, 16u8..=32).prop_map(|(lo, l)| Ipv4Net::new(0x0A0A_0000 | lo, l).unwrap()),
    ]
}

/// One randomized update against the current reference state: announce a
/// (possibly fresh) prefix, withdraw a live one by index, withdraw a
/// possibly-absent one, or replace.
#[derive(Debug, Clone)]
enum Op {
    Announce(Ipv4Net),
    WithdrawLive(usize),
    WithdrawAny(Ipv4Net),
    Replace(Ipv4Net),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Announce / withdraw-live arms appear twice: the vendored proptest
    // has no weighted prop_oneof, and churn should be announce-heavy.
    prop_oneof![
        arb_net().prop_map(Op::Announce),
        arb_net().prop_map(Op::Announce),
        any::<usize>().prop_map(Op::WithdrawLive),
        any::<usize>().prop_map(Op::WithdrawLive),
        arb_net().prop_map(Op::WithdrawAny),
        arb_net().prop_map(Op::Replace),
    ]
}

/// Turns ops into concrete deltas against `live`, mutating `live` the way
/// the table should.
fn realize(ops: &[Op], live: &mut BTreeSet<Ipv4Net>) -> Vec<TableDelta> {
    let mut deltas = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Announce(p) => {
                live.insert(*p);
                deltas.push(TableDelta::announce(*p));
            }
            Op::WithdrawLive(i) => {
                if let Some(&p) = live.iter().nth(i % live.len().max(1)) {
                    live.remove(&p);
                    deltas.push(TableDelta::withdraw(p));
                }
            }
            Op::WithdrawAny(p) => {
                live.remove(p);
                deltas.push(TableDelta::withdraw(*p));
            }
            Op::Replace(p) => {
                // Replace of an absent prefix announces it (upsert).
                live.insert(*p);
                deltas.push(TableDelta::replace(*p));
            }
        }
    }
    deltas
}

/// Probes that land inside the live prefixes (a masked offset), on every
/// prefix, chunk and block edge around them, plus uniform randoms, so
/// matches, misses, and run boundaries are all exercised.
fn probes_for(live: &BTreeSet<Ipv4Net>, random: &[u32]) -> Vec<u32> {
    let mut probes: Vec<u32> = random.to_vec();
    for net in live {
        probes.extend(common::edge_probes(*net));
        probes.push(net.addr_u32() | (0x55 & !net.netmask_u32()));
    }
    probes
}

fn assert_equiv(patched: &CompiledTable, live: &BTreeSet<Ipv4Net>, random: &[u32]) {
    let fresh = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
    let mut live_sorted: Vec<Ipv4Net> = live.iter().copied().collect();
    live_sorted.sort();
    assert_eq!(patched.live_prefixes(), live_sorted);
    for addr in probes_for(live, random) {
        assert_eq!(
            patched.lookup(addr),
            fresh.lookup(addr),
            "lookup({addr:#010x}) diverged from the from-scratch compile"
        );
    }
}

proptest! {
    /// apply_delta ≡ recompile across random delta batches.
    #[test]
    fn patched_table_is_lookup_equivalent_to_recompile(
        initial in proptest::collection::btree_set(arb_net(), 0..48),
        batches in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..12), 1..5),
        random in proptest::collection::vec(any::<u32>(), 24),
    ) {
        let mut live = initial.clone();
        let mut table = CompiledTable::tiered(&initial.iter().copied().collect::<Vec<_>>(), &[]);
        for ops in &batches {
            let deltas = realize(ops, &mut live);
            table.apply_delta(&deltas);
            assert_equiv(&table, &live, &random);
        }
    }

    /// A batch at the recompile threshold (its floor, 64 deltas, on a
    /// table of fewer than 1 280 prefixes) takes the bulk rebuild; the
    /// same deltas in sub-threshold pieces take the chunk-by-chunk path.
    /// Both agree with the reference, and their summed live-set counts
    /// agree with each other — what `core::stream` persists.
    #[test]
    fn recompile_fallback_agrees_with_patch_path(
        initial in proptest::collection::btree_set(arb_net(), 1..32),
        ops in proptest::collection::vec(arb_op(), 64),
        cuts in proptest::collection::vec(1usize..64, 1..8),
        random in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let mut live = initial.clone();
        let deltas = realize(&ops, &mut live);
        // A withdraw of a live prefix from an empty set realizes to nothing.
        prop_assume!(deltas.len() == 64);
        let mut bulk = CompiledTable::tiered(&initial.iter().copied().collect::<Vec<_>>(), &[]);
        let whole = bulk.apply_delta(&deltas);
        prop_assert!(whole.recompiled);
        let mut pieces = CompiledTable::tiered(&initial.iter().copied().collect::<Vec<_>>(), &[]);
        let mut summed = PatchReport::default();
        let mut rest = &deltas[..];
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, after) = rest.split_at(cut.min(rest.len()));
            let r = pieces.apply_delta(piece);
            prop_assert!(!r.recompiled, "{} deltas", piece.len());
            summed.merge(&r);
            rest = after;
        }
        let counts = |r: &PatchReport| (r.announced, r.withdrawn, r.replaced, r.noops);
        prop_assert_eq!(counts(&whole), counts(&summed));
        assert_equiv(&bulk, &live, &random);
        assert_equiv(&pieces, &live, &random);
    }

    /// With a registry tier under the BGP one: patched ≡ a fresh compile
    /// of the live BGP set over the same registry set, where BGP
    /// withdraws uncover registry space and announces mask it again; and
    /// every report equals what the BGP tier alone reports, which is what
    /// `core::stream` persists.
    #[test]
    fn patched_two_tier_table_is_equivalent_and_reports_the_bgp_tier(
        initial in proptest::collection::btree_set(arb_net(), 0..32),
        dump in proptest::collection::btree_set(arb_net(), 0..24),
        batches in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..12), 1..5),
        random in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let dump: Vec<Ipv4Net> = dump.into_iter().collect();
        let mut live = initial.clone();
        let bgp: Vec<Ipv4Net> = initial.iter().copied().collect();
        let mut table = CompiledTable::tiered(&bgp, &dump);
        let mut alone = CompiledTable::tiered(&bgp, &[]);
        for ops in &batches {
            let deltas = realize(ops, &mut live);
            prop_assert_eq!(table.apply_delta(&deltas), alone.apply_delta(&deltas));
            let bgp: Vec<Ipv4Net> = live.iter().copied().collect();
            let fresh = CompiledTable::tiered(&bgp, &dump);
            prop_assert_eq!(table.live_prefixes(), bgp);
            prop_assert_eq!(table.dump_prefixes(), &dump[..]);
            prop_assert_eq!(table.nodes(), fresh.nodes());
            let all: BTreeSet<Ipv4Net> = live.iter().chain(&dump).copied().collect();
            for addr in probes_for(&all, &random) {
                let (h, want) = (table.lookup_handle(addr), fresh.lookup_handle(addr));
                prop_assert_eq!(table.resolve(h), fresh.resolve(want), "{:#010x}", addr);
                prop_assert_eq!(table.source(h), fresh.source(want), "{:#010x}", addr);
            }
        }
    }

    /// Withdraw-to-empty and rebuild-from-empty round-trips: the table
    /// passes through the degenerate empty layout and comes back correct.
    #[test]
    fn withdraw_to_empty_and_back(
        initial in proptest::collection::btree_set(arb_net(), 1..24),
        random in proptest::collection::vec(any::<u32>(), 16),
    ) {
        let mut table = CompiledTable::tiered(&initial.iter().copied().collect::<Vec<_>>(), &[]);
        let wipe: Vec<TableDelta> = initial.iter().map(|&p| TableDelta::withdraw(p)).collect();
        table.apply_delta(&wipe);
        prop_assert_eq!(table.len(), 0);
        for addr in probes_for(&initial, &random) {
            prop_assert_eq!(table.lookup(addr), None);
        }
        let back: Vec<TableDelta> = initial.iter().map(|&p| TableDelta::announce(p)).collect();
        table.apply_delta(&back);
        assert_equiv(&table, &initial, &random);
    }
}

/// Dense >/24 churn inside one /24 block: its low node is allocated,
/// grown far past what fits inline, shrunk, and freed, with equivalence
/// checked at every step.
#[test]
fn low_node_growth_and_collapse_stays_equivalent() {
    let block = 0x0A0A_0A00u32;
    let mut live: BTreeSet<Ipv4Net> = BTreeSet::new();
    live.insert(Ipv4Net::new(block, 24).unwrap());
    let mut table = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
    let random: Vec<u32> = (0..=255u32).map(|i| block | i).collect();

    // Grow: pack /26s, /28s and host routes into the block one at a time.
    let mut grow: Vec<Ipv4Net> = Vec::new();
    for i in 0..4u32 {
        grow.push(Ipv4Net::new(block | (i << 6), 26).unwrap());
    }
    for i in 0..16u32 {
        grow.push(Ipv4Net::new(block | (i << 4), 28).unwrap());
    }
    for i in 0..32u32 {
        grow.push(Ipv4Net::new(block | (i * 7 % 256), 32).unwrap());
    }
    for p in &grow {
        live.insert(*p);
        table.apply_delta(&[TableDelta::announce(*p)]);
        assert_eq!(table.lookup(p.addr_u32()), Some(*p));
    }
    let grown = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
    assert_eq!(table.nodes(), grown.nodes());
    for &addr in &random {
        assert_eq!(table.lookup(addr), grown.lookup(addr));
    }

    // Shrink back down to the bare /24: the low node is gone again, as
    // in a fresh compile, and every address resolves like one.
    for p in &grow {
        live.remove(p);
        table.apply_delta(&[TableDelta::withdraw(*p)]);
    }
    let fresh = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
    assert_eq!((table.nodes(), fresh.nodes()), (1, 1));
    for &addr in &random {
        assert_eq!(table.lookup(addr), fresh.lookup(addr));
    }

    // Regrowing reuses the freed node and arena slots instead of growing
    // either; only the spilled run arrays it strands are new memory.
    let arena_before = table.prefixes().len();
    for p in &grow {
        live.insert(*p);
        table.apply_delta(&[TableDelta::announce(*p)]);
    }
    assert_eq!(table.prefixes().len(), arena_before, "arena slots reused");
    assert_eq!(
        table.memory_bytes() - table.dead_cells() * 4,
        grown.memory_bytes() + (arena_before - grown.prefixes().len()) * 8
    );
    for &addr in &random {
        assert_eq!(table.lookup(addr), grown.lookup(addr));
    }
}

/// Every address where the layout changes shape around the live set must
/// resolve as the trie does.
fn assert_matches_trie(table: &CompiledTable, live: &BTreeSet<Ipv4Net>, step: &str) {
    let trie: PrefixTrie<()> = live.iter().map(|&n| (n, ())).collect();
    for addr in live.iter().flat_map(|&n| common::edge_probes(n)) {
        assert_eq!(
            table.lookup(addr),
            trie.longest_match_u32(addr).map(|(n, _)| n),
            "{step}: lookup({addr:#010x})"
        );
    }
}

/// The new layout's hard case: a /8, /12 or /16 announced or withdrawn
/// over a range mixing leaf root entries, chunks with a mid node only and
/// chunks with low nodes too, nested under and over existing covers.
#[test]
fn short_prefixes_over_node_chunks_stay_equivalent() {
    let specs = [
        "24.0.0.0/8",     // covers everything below
        "24.16.0.0/14",   // a longer cover over four chunks
        "24.17.128.0/17", // mid node, under the /14
        "24.18.3.0/24",
        "24.18.3.64/26", // low node, under the /14
        "24.32.0.0/19",  // mid node, under the /8 only
        "24.33.1.128/25",
        "24.33.1.255/32", // low node at a chunk's edge
        "24.33.255.0/24",
        "24.34.0.0/24", // both sides of a chunk edge
        "24.255.255.255/32",
        "25.0.0.0/30", // just past the /8
    ];
    let mut live: BTreeSet<Ipv4Net> = specs.iter().map(|s| s.parse().unwrap()).collect();
    let mut table = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
    assert_matches_trie(&table, &live, "compiled");

    // Nested under (/16 inside the /14), between (/12 over the /14, under
    // the /8), over (the /8 itself, a second /8 beside it), and over a
    // chunk that is a node only because of what the delta covers.
    let movers = [
        "24.18.0.0/16",
        "24.17.0.0/16",
        "24.16.0.0/12",
        "24.32.0.0/12",
        "24.33.0.0/16",
        "24.0.0.0/8",
        "25.0.0.0/8",
        "24.16.0.0/14",
    ];
    for spec in movers {
        let p: Ipv4Net = spec.parse().unwrap();
        // Announce (or, for the live ones, withdraw), check, and undo.
        for _ in 0..2 {
            let delta = if live.remove(&p) {
                TableDelta::withdraw(p)
            } else {
                live.insert(p);
                TableDelta::announce(p)
            };
            let r = table.apply_delta(&[delta]);
            assert!(!r.recompiled && !r.compacted, "{spec}");
            assert!(r.slot_writes() > 0, "{spec} reaches at least one entry");
            assert_matches_trie(&table, &live, spec);
            let fresh = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
            assert_eq!(table.nodes(), fresh.nodes(), "{spec}");
        }
    }
    // And stacked: all of them live at once, then gone in reverse order.
    for spec in movers.iter().chain(movers.iter().rev()) {
        let p: Ipv4Net = spec.parse().unwrap();
        let delta = if live.remove(&p) {
            TableDelta::withdraw(p)
        } else {
            live.insert(p);
            TableDelta::announce(p)
        };
        table.apply_delta(&[delta]);
        assert_matches_trie(&table, &live, spec);
    }
}

/// The DIR-24-8 layout stored >/24 handles in 16 bits, and recompiled
/// the whole table when a >/24 announce was handed arena slot 65 534 or
/// beyond (+0.2 s on a resume that replayed such a batch). One slot width:
/// neither that many >/24 prefixes (`len` 25) nor that many prefixes of
/// any kind ahead of the new one in the arena (`len` 24) is a cliff.
#[test]
fn long_prefix_count_has_no_recompile_cliff() {
    for len in [25u8, 24] {
        let n = u32::from(u16::MAX) + 16;
        let gone = Ipv4Net::new(0x2000_0700, 25).unwrap();
        let mut live: BTreeSet<Ipv4Net> = (0..n)
            .map(|i| Ipv4Net::new(0x2000_0000 | (i << 8), len).unwrap())
            .collect();
        live.insert(gone);
        let mut table = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);

        let more = Ipv4Net::new(0x2000_0000 | (n << 8) | 0x80, 26).unwrap();
        let r = table.apply_delta(&[TableDelta::announce(more)]);
        assert!(!r.recompiled && r.announced == 1, "/{len}");
        let r = table.apply_delta(&[TableDelta::withdraw(gone)]);
        assert!(!r.recompiled && r.withdrawn == 1, "/{len}");
        live.insert(more);
        live.remove(&gone);

        assert_eq!(table.lookup(more.addr_u32() | 1), Some(more));
        let trie: PrefixTrie<()> = live.iter().map(|&p| (p, ())).collect();
        for addr in [more, gone].into_iter().flat_map(common::edge_probes) {
            assert_eq!(
                table.lookup(addr),
                trie.longest_match_u32(addr).map(|(p, _)| p),
                "/{len}: lookup({addr:#010x})"
            );
        }
    }
}

/// A BGP withdraw that uncovers registry space repaints it from the
/// static list — at the root, in a chunk the registry holds longer
/// prefixes in, and under a BGP chunk — an announce masks it again, and
/// what each patch reports is what the BGP tier alone reports.
#[test]
fn withdraws_uncover_the_registry_and_reports_ignore_it() {
    let nets =
        |specs: &[&str]| -> Vec<Ipv4Net> { specs.iter().map(|s| s.parse().unwrap()).collect() };
    let net = |s: &str| -> Ipv4Net { s.parse().unwrap() };
    let dump = nets(&[
        "24.48.0.0/16",
        "24.48.2.0/24",
        "24.49.0.0/12",
        "24.50.3.64/26",
    ]);
    let mut live = nets(&[
        "24.0.0.0/8",
        "24.48.2.128/25",
        "24.50.0.0/17",
        "30.1.0.0/16",
    ]);
    let mut table = CompiledTable::tiered(&live, &dump);
    let mut alone = CompiledTable::tiered(&live, &[]);
    let batches = [
        vec![TableDelta::withdraw(net("24.0.0.0/8"))],
        vec![TableDelta::withdraw(net("24.50.0.0/17"))],
        vec![TableDelta::announce(net("24.48.0.0/14"))],
        vec![
            TableDelta::withdraw(net("24.48.2.128/25")),
            TableDelta::withdraw(net("30.1.0.0/16")),
        ],
        vec![
            TableDelta::withdraw(net("24.48.0.0/14")),
            TableDelta::announce(net("24.0.0.0/8")),
        ],
    ];
    let probes = (0x1800_0000u32..0x1900_0000)
        .step_by(97)
        .chain(0x1830_0000..=0x1832_FFFF)
        .chain([0x1E01_0001]);
    let probes: Vec<u32> = probes.collect();
    for batch in &batches {
        for d in batch {
            live.retain(|&p| p != d.prefix);
            if d.kind != netclust_rtable::DeltaKind::Withdraw {
                live.push(d.prefix);
            }
        }
        live.sort();
        assert_eq!(
            table.apply_delta(batch),
            alone.apply_delta(batch),
            "{batch:?}"
        );
        let fresh = CompiledTable::tiered(&live, &dump);
        assert_eq!(table.nodes(), fresh.nodes(), "{batch:?}");
        for &p in &probes {
            let (h, want) = (table.lookup_handle(p), fresh.lookup_handle(p));
            assert_eq!(
                table.resolve(h),
                fresh.resolve(want),
                "{batch:?}: {p:#010x}"
            );
            assert_eq!(table.source(h), fresh.source(want), "{batch:?}: {p:#010x}");
        }
    }
}
