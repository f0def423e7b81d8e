//! Incremental patch vs full recompile on the compiled LPM table.
//!
//! A live BGP feed is dominated by small announce/withdraw batches, so
//! the interesting number is how much cheaper `apply_delta` lands one
//! than `CompiledTable::from_prefixes` rebuilding all ~110K prefixes.
//! Each patch measurement applies a batch and its exact inverse (the
//! withdrawn prefixes re-announced, the announced ones withdrawn), so the
//! table returns to the base state every iteration and the per-batch cost
//! is `ns_per_iter / 2`; the recompile side rebuilds the same base table
//! from scratch. The headline persisted to `BENCH_table_update.json` is
//! the single-prefix speedup, which the live-update path relies on being
//! orders of magnitude (the acceptance floor is 50x).

use std::collections::BTreeSet;

use criterion::{host_threads, quick_mode, BenchmarkId, Criterion, Throughput};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{CompiledTable, TableDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesizes `n` unique prefixes with a BGP-like length mix (same
/// model as the ingest and obs benches).
fn synth_prefixes(n: usize, seed: u64) -> Vec<Ipv4Net> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set: BTreeSet<Ipv4Net> = BTreeSet::new();
    while set.len() < n {
        let roll: u32 = rng.gen_range(0..100);
        let len: u8 = if roll < 55 {
            24
        } else if roll < 85 {
            rng.gen_range(16..=23)
        } else if roll < 95 {
            rng.gen_range(25..=28)
        } else {
            rng.gen_range(8..=15)
        };
        set.insert(Ipv4Net::new(rng.gen::<u32>(), len).expect("len <= 32"));
    }
    set.into_iter().collect()
}

/// An invertible batch of `n` deltas against `base`: alternating
/// withdrawals of live prefixes and announcements of fresh /24s, with the
/// inverse batch restoring the base set exactly. All touched prefixes are
/// distinct, so the two directions commute and the round trip is clean.
fn invertible_batch(base: &[Ipv4Net], n: usize, seed: u64) -> (Vec<TableDelta>, Vec<TableDelta>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let live: BTreeSet<Ipv4Net> = base.iter().copied().collect();
    let mut picked: BTreeSet<Ipv4Net> = BTreeSet::new();
    let mut forward = Vec::with_capacity(n);
    let mut inverse = Vec::with_capacity(n);
    for i in 0..n {
        if i % 2 == 0 {
            // Withdraw a distinct live prefix; the inverse re-announces it.
            let p = loop {
                let p = base[rng.gen_range(0..base.len())];
                if picked.insert(p) {
                    break p;
                }
            };
            forward.push(TableDelta::withdraw(p));
            inverse.push(TableDelta::announce(p));
        } else {
            // Announce a fresh /24; the inverse withdraws it.
            let p = loop {
                let p = Ipv4Net::new(rng.gen::<u32>(), 24).expect("/24");
                if !live.contains(&p) && picked.insert(p) {
                    break p;
                }
            };
            forward.push(TableDelta::announce(p));
            inverse.push(TableDelta::withdraw(p));
        }
    }
    (forward, inverse)
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let (n_prefixes, sizes): (usize, &[usize]) = if quick_mode() {
        (8_000, &[1, 8, 64])
    } else {
        (110_000, &[1, 8, 64, 512])
    };

    let base = synth_prefixes(n_prefixes, 0xB67);
    let mut table = CompiledTable::from_prefixes(base.iter().copied());
    let base_nodes = table.nodes();
    println!(
        "base table: {} prefixes, {} nodes, {} bytes\n",
        table.len(),
        table.nodes(),
        table.memory_bytes()
    );

    // Pre-timing gate: every swept batch round-trips through the
    // chunk-by-chunk patch path (no bulk rebuild) and restores the base
    // table exactly — the measured numbers are the incremental path's.
    for &n in sizes {
        let (forward, inverse) = invertible_batch(&base, n, n as u64 ^ 0x5EED);
        let fwd = table.apply_delta(&forward);
        let inv = table.apply_delta(&inverse);
        assert!(
            fwd.patched_in_place() && inv.patched_in_place(),
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

    let mut group = c.benchmark_group("table_update");
    group.threads_used(1);
    for &n in sizes {
        let (forward, inverse) = invertible_batch(&base, n, n as u64 ^ 0x5EED);
        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_function(BenchmarkId::new("patch_roundtrip", n), |b| {
            b.iter(|| {
                table.apply_delta(&forward);
                table.apply_delta(&inverse).slot_writes()
            })
        });
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("recompile", n_prefixes), |b| {
        b.iter(|| CompiledTable::from_prefixes(base.iter().copied()).len())
    });
    group.finish();

    // Persist machine-readable results.
    let results = c.take_results();
    let ns_of = |needle: &str| {
        results
            .iter()
            .find(|r| r.id.contains(needle))
            .map(|r| r.ns_per_iter)
            .unwrap_or(f64::NAN)
    };
    let recompile_ns = ns_of("recompile");
    // A measured round trip is two batches, so one batch is half of it.
    let patch_ns = |n: usize| ns_of(&format!("patch_roundtrip/{n}")) / 2.0;
    let single_patch_ns = patch_ns(1);
    let single_speedup = recompile_ns / single_patch_ns;

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"threads_used\": {}}}{}\n",
            r.id,
            r.ns_per_iter,
            r.threads_used,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"host_threads\": {},\n", host_threads()));
    json.push_str("  \"threads_used\": 1,\n");
    json.push_str(&format!("  \"table_prefixes\": {},\n", base.len()));
    json.push_str(&format!(
        "  \"compiled_memory_bytes\": {},\n",
        table.memory_bytes()
    ));
    json.push_str(&format!(
        "  \"delta_sizes\": [{}],\n",
        sizes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"patch_ns_per_batch\": {");
    json.push_str(
        &sizes
            .iter()
            .map(|&n| format!("\"{n}\": {:.1}", patch_ns(n)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("},\n");
    json.push_str(&format!("  \"recompile_ns\": {recompile_ns:.1},\n"));
    json.push_str(&format!(
        "  \"single_patch_speedup\": {single_speedup:.1},\n"
    ));
    json.push_str("  \"single_patch_speedup_floor\": 50,\n");
    json.push_str(&format!("  \"quick\": {}\n", quick_mode()));
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table_update.json");
    std::fs::write(out, &json).expect("write BENCH_table_update.json");
    let patch_disp = if single_patch_ns < 1e3 {
        format!("{single_patch_ns:.0} ns")
    } else {
        format!("{:.1} µs", single_patch_ns / 1e3)
    };
    println!(
        "\nsingle-prefix patch: {patch_disp} vs recompile {:.2} ms -> {single_speedup:.0}x (floor 50x)",
        recompile_ns / 1e6,
    );
    assert!(
        single_speedup >= 50.0,
        "single-prefix patch must be >= 50x faster than recompile, got {single_speedup:.1}x"
    );
    println!("wrote {out}");
}
