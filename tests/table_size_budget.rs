//! The compiled LPM table must stay cache-sized: a budget on what a
//! compile costs for both table shapes the repo generates, and a bound on
//! what routing churn can add to it. These live at the workspace root
//! because `netgen` and `bgpsim` depend on `rtable`.

use std::collections::BTreeSet;

use netclust::bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust::netgen::{standard_merged, Universe, UniverseConfig};
use netclust::prefix::Ipv4Net;
use netclust::rtable::{
    CompiledTable, DeltaKind, MergedTable, RoutingTable, TableDelta, TableKind,
};

/// What a compiled table may cost per prefix, both tiers in its one
/// layout, on the benchmark-shaped table: 34.9 bytes with nodes in two
/// size classes, 50.1 when every node took a 64-byte line.
const UNIFORM_BYTES_PER_PREFIX: f64 = 38.0;

/// The same on a generated universe's table, where the 256 KiB root and
/// the 8-byte arena entries are most of it: 21.8 bytes with the two
/// classes, 22.5 with 64-byte nodes only.
const CLUSTERED_BYTES_PER_PREFIX: f64 = 22.2;

/// The churn model every test here shares: batches of ~8, no session
/// resets (those are replaces, which never touch the layout).
fn churn() -> DeltaStreamConfig {
    DeltaStreamConfig {
        reset_period: 0,
        ..DeltaStreamConfig::default()
    }
}

/// ≈ 110 000 unique prefixes placed uniformly, in the length mix the
/// benchmark uses (55 % /24, 30 % /16–/23, 10 % /25–/28, 5 % /8–/15),
/// and the stream that churns them.
fn uniform_table(seed: u64) -> (Vec<Ipv4Net>, DeltaStream) {
    let stream = DeltaStream::synthetic(seed, 110_000, churn());
    (stream.live_prefixes(), stream)
}

/// Holds `table` to `per_prefix` bytes a prefix, and the layout with
/// every node in a 64-byte line to more than that.
fn assert_within_budget(shape: &str, table: &CompiledTable, per_prefix: f64) {
    let (bytes, prefixes) = (table.memory_bytes(), table.len().max(1) as f64);
    let [small, large] = table.node_classes();
    let one_class = bytes + small * (64 - 32);
    println!(
        "{shape}: {} prefixes ({} registry), {} nodes (32 B {small}, 64 B {large}), \
         {bytes} bytes, {:.1} bytes/prefix ({:.1} in 64-byte nodes only)",
        table.len(),
        table.dump_prefixes().len(),
        table.nodes(),
        bytes as f64 / prefixes,
        one_class as f64 / prefixes,
    );
    assert!(
        bytes as f64 <= per_prefix * prefixes,
        "{shape} table costs {bytes} bytes, budget {per_prefix} a prefix"
    );
    assert!(
        one_class as f64 > per_prefix * prefixes,
        "{shape}: the budget no longer tells 64-byte nodes apart"
    );
    assert_eq!(table.dead_cells(), 0, "a fresh compile strands nothing");
}

/// The benchmark's table: uniform placement, so almost every prefix longer
/// than /16 opens a chunk of its own — the worst case for node count.
#[test]
fn benchmark_shaped_table_fits_the_budget() {
    let (prefixes, _) = uniform_table(0x51CE);
    let split = prefixes.len() * 92 / 100;
    let bgp = RoutingTable::new("BGP", "d0", TableKind::Bgp, prefixes[..split].to_vec());
    let dump = RoutingTable::new(
        "DUMP",
        "d0",
        TableKind::NetworkDump,
        prefixes[split..].to_vec(),
    );
    let compiled = MergedTable::merge([&bgp, &dump]).compile();
    assert_within_budget("uniform", &compiled, UNIFORM_BYTES_PER_PREFIX);
}

/// A generated universe's table: allocation-clustered like a real one
/// (an AS's organizations sit side by side), so chunks are few and dense
/// — the worst case for runs per node.
#[test]
fn allocation_clustered_table_fits_the_budget() {
    let universe = Universe::generate(UniverseConfig::paper(7));
    let compiled = standard_merged(&universe, 0).compile();
    assert_within_budget("clustered", &compiled, CLUSTERED_BYTES_PER_PREFIX);
}

/// At least 20 000 deltas of synthetic BGP churn on the benchmark-shaped
/// table, and on until the table has compacted itself once (≈ 40 000:
/// stranded spill cells must first outnumber the ≈ 80 000 live ones). Every
/// 1 000 deltas the patched table answers like a fresh compile of the live
/// set and costs at most twice what that compile does, and a clone patched
/// further never changes an answer of the table it came from — which is
/// what `StreamingClustering::apply_deltas` relies on when it drops a
/// rejected candidate.
#[test]
fn churn_keeps_the_table_bounded_and_clones_independent() {
    let (base, stream) = uniform_table(0xC4A2);
    let mut table = CompiledTable::tiered(&base, &[]);
    let mut live: BTreeSet<Ipv4Net> = base.iter().copied().collect();
    // 20 000 addresses spread over the whole space (golden-ratio steps).
    let random: Vec<u32> = (0..20_000u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();

    let (mut applied, mut next_check, mut compactions) = (0usize, 1_000usize, 0usize);
    for batch in stream {
        assert!(applied < 100_000, "the compaction rule never fired");
        let report = table.apply_delta(&batch.deltas);
        assert!(!report.recompiled, "batches of ~8 stay chunk-scoped");
        compactions += usize::from(report.compacted);
        for d in &batch.deltas {
            match d.kind {
                DeltaKind::Withdraw => live.remove(&d.prefix),
                _ => live.insert(d.prefix),
            };
        }
        applied += batch.deltas.len();
        if applied < next_check {
            continue;
        }
        next_check += 1_000;

        let fresh = CompiledTable::tiered(&live.iter().copied().collect::<Vec<_>>(), &[]);
        assert!(
            table.memory_bytes() <= 2 * fresh.memory_bytes(),
            "after {applied} deltas: {} bytes patched vs {} fresh",
            table.memory_bytes(),
            fresh.memory_bytes()
        );
        assert_eq!(table.nodes(), fresh.nodes(), "after {applied} deltas");
        let touched = batch.deltas.iter().flat_map(|d| {
            let first = d.prefix.addr_u32();
            let last = first | !d.prefix.netmask_u32();
            [first.wrapping_sub(1), first, last, last.wrapping_add(1)]
        });
        for addr in random.iter().copied().chain(touched) {
            assert_eq!(
                table.lookup(addr),
                fresh.lookup(addr),
                "after {applied} deltas: lookup({addr:#010x})"
            );
        }

        // Withdraw a spread of live prefixes from a clone: the clone
        // loses them, the original must not notice.
        let victims: Vec<Ipv4Net> = live.iter().copied().step_by(live.len() / 40).collect();
        let withdraw: Vec<TableDelta> = victims.iter().map(|&p| TableDelta::withdraw(p)).collect();
        let mut candidate = table.clone();
        candidate.apply_delta(&withdraw);
        assert_eq!(candidate.len() + victims.len(), table.len());
        for p in &victims {
            let last = p.addr_u32() | !p.netmask_u32();
            assert_ne!(candidate.lookup(last), Some(*p));
            for addr in [p.addr_u32(), last] {
                assert_eq!(
                    table.lookup(addr),
                    fresh.lookup(addr),
                    "{p} leaked out of a clone"
                );
            }
        }
        if applied >= 20_000 && compactions >= 1 {
            break;
        }
    }
    println!(
        "{applied} deltas, {compactions} compactions, {} dead cells at the end",
        table.dead_cells()
    );
    assert_eq!(compactions, 1, "one compaction absorbs ≈ 40 000 deltas");
}

/// Invertible batches of 1, 10, 100 and 1 000 deltas against the
/// benchmark-shaped table: announcements of fresh /24s and withdrawals of
/// live prefixes, then the exact inverse. Each direction is patched chunk
/// by chunk (110 000 prefixes put the default policy's recompile threshold
/// at 5 500), and the round trip restores `len()`, `nodes()` and the live
/// set: the layout a live feed leaves behind is the one it found.
#[test]
fn invertible_batches_patch_in_place_and_restore_the_layout() {
    let (base, _) = uniform_table(0xB67);
    let live: BTreeSet<Ipv4Net> = base.iter().copied().collect();
    let mut table = CompiledTable::tiered(&base, &[]);
    let base_nodes = table.nodes();
    // Distinct /24s (an odd multiplier permutes the 2^24 blocks) that the
    // table does not hold.
    let mut fresh = (0u32..)
        .map(|i| Ipv4Net::new(i.wrapping_mul(0x9E_3779) << 8, 24).unwrap())
        .filter(|p| !live.contains(p));

    for n in [1usize, 10, 100, 1_000] {
        let gone = base.iter().copied().step_by(base.len() / n);
        let (forward, inverse): (Vec<_>, Vec<_>) = (fresh.by_ref())
            .take(n.div_ceil(2))
            .map(|p| (TableDelta::announce(p), TableDelta::withdraw(p)))
            .chain(
                gone.take(n / 2)
                    .map(|p| (TableDelta::withdraw(p), TableDelta::announce(p))),
            )
            .unzip();
        assert_eq!(forward.len(), n);
        let fwd = table.apply_delta(&forward);
        let inv = table.apply_delta(&inverse);
        assert!(
            !fwd.recompiled && !inv.recompiled,
            "batch of {n} fell back to recompile"
        );
        assert!(fwd.slot_writes() > 0, "batch of {n} wrote no slots");
        assert_eq!(table.len(), base.len(), "round trip of {n} did not restore");
        assert_eq!(
            table.nodes(),
            base_nodes,
            "round trip of {n} changed the layout"
        );
    }
    assert_eq!(table.live_prefixes(), base);
}
