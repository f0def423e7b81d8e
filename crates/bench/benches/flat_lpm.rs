//! Compiled LPM (DIR-16 root + compressed nodes) vs radix trie, and
//! `Log` clustering over it, at production table scale (≥100k prefixes).
//!
//! Beyond the console table, results are persisted machine-readably to
//! `BENCH_lpm.json` at the repo root — lookups/sec per engine, requests
//! clustered/sec, and the compiled-over-trie speedup — so CI
//! and docs can quote the numbers without scraping bench output.

use std::collections::BTreeSet;

use criterion::{quick_mode, BenchmarkId, Criterion, Throughput};
use netclust_core::Clustering;
use netclust_prefix::Ipv4Net;
use netclust_rtable::{Handle, MergedTable, RoutingTable, TableKind};
use netclust_weblog::{Log, LogTruth, Request, UrlMeta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesizes `n` unique prefixes with a BGP-like length mix (dominated
/// by /24 and /16–/23, a tail of longer and shorter entries).
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

/// Probe addresses: mostly inside table prefixes (hits), rest random.
fn synth_probes(prefixes: &[Ipv4Net], n: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                rng.gen::<u32>()
            } else {
                let net = prefixes[rng.gen_range(0..prefixes.len())];
                net.addr_u32() | (rng.gen::<u32>() & !net.netmask_u32())
            }
        })
        .collect()
}

/// A synthetic access log whose clients live inside the table's prefixes.
fn synth_log(prefixes: &[Ipv4Net], requests: usize, clients: usize, seed: u64) -> Log {
    let mut rng = StdRng::seed_from_u64(seed);
    let client_addrs: Vec<u32> = (0..clients)
        .map(|_| {
            let net = prefixes[rng.gen_range(0..prefixes.len())];
            net.addr_u32() | (rng.gen::<u32>() & !net.netmask_u32())
        })
        .collect();
    let n_urls = 1_000u32;
    let requests: Vec<Request> = (0..requests)
        .map(|i| Request {
            time: i as u32,
            client: client_addrs[rng.gen_range(0..client_addrs.len())],
            url: rng.gen_range(0..n_urls),
            bytes: rng.gen_range(200..20_000),
            status: 200,
            ua: 0,
        })
        .collect();
    Log {
        name: "flat-lpm-bench".into(),
        requests,
        urls: (0..n_urls)
            .map(|i| UrlMeta {
                path: format!("/u/{i}"),
                size: 4_096,
            })
            .collect(),
        user_agents: vec!["bench".into()],
        start_time: 0,
        duration_s: u32::MAX,
        truth: LogTruth::default(),
    }
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    // Quick mode (CI smoke): shrink workloads so the whole bench runs in
    // seconds; the JSON then carries "quick": true and is not meaningful.
    let (n_prefixes_synth, n_probes, n_requests, n_clients) = if quick_mode() {
        (8_000, 20_000, 60_000, 6_000)
    } else {
        (110_000, 100_000, 400_000, 40_000)
    };

    // ≥100k-prefix merged table: 92% BGP tier, 8% registry-dump tier.
    let prefixes = synth_prefixes(n_prefixes_synth, 0xF1A7);
    let split = prefixes.len() * 92 / 100;
    let bgp = RoutingTable::new(
        "SYNTH-BGP",
        "d0",
        TableKind::Bgp,
        prefixes[..split].to_vec(),
    );
    let dump = RoutingTable::new(
        "SYNTH-ARIN",
        "d0",
        TableKind::NetworkDump,
        prefixes[split..].to_vec(),
    );
    let merged = MergedTable::merge([&bgp, &dump]);
    let compiled = merged.compile();
    let probes = synth_probes(&prefixes, n_probes, 0x9A0B);
    let n_prefixes = merged.len();

    let mut group = c.benchmark_group("flat_lpm");
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function(BenchmarkId::new("trie", n_prefixes), |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&a| merged.lookup_u32(a).is_some())
                .count()
        })
    });
    group.bench_function(BenchmarkId::new("compiled", n_prefixes), |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|&&a| compiled.net_for_u32(a).is_some())
                .count()
        })
    });
    let mut handles = vec![Handle::NONE; probes.len()];
    group.bench_function(BenchmarkId::new("compiled_batch", n_prefixes), |b| {
        b.iter(|| {
            compiled.bgp().lookup_batch(&probes, &mut handles);
            handles.iter().filter(|h| h.is_some()).count()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("compile");
    group.throughput(Throughput::Elements(n_prefixes as u64));
    group.bench_function(BenchmarkId::new("merged", n_prefixes), |b| {
        b.iter(|| merged.compile().memory_bytes())
    });
    group.finish();

    // Clustering one log over the compiled LPM: the generic builder with
    // a caller-supplied assigner, and the network-aware entry point.
    let log = synth_log(&prefixes, n_requests, n_clients, 0xC10C);
    let assign = |a: std::net::Ipv4Addr| compiled.net_for_u32(u32::from(a));
    let mut group = c.benchmark_group("clustering");
    group.throughput(Throughput::Elements(log.requests.len() as u64));
    group.threads_used(1);
    group.bench_function(BenchmarkId::new("build", log.requests.len()), |b| {
        b.iter(|| Clustering::build(&log, "bench", assign).len())
    });
    group.bench_function(
        BenchmarkId::new("network_aware_compiled", log.requests.len()),
        |b| b.iter(|| Clustering::network_aware_compiled(&log, &compiled).len()),
    );
    group.finish();

    // Persist machine-readable results.
    let results = c.take_results();
    let rate = |needle: &str| {
        results
            .iter()
            .find(|r| r.id.contains(needle))
            .and_then(|r| r.per_second())
            .unwrap_or(f64::NAN)
    };
    let trie_rate = rate("flat_lpm/trie");
    let compiled_rate = rate("flat_lpm/compiled/");
    let speedup = compiled_rate / trie_rate;

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"per_second\": {}, \"threads_used\": {}}}{}\n",
            netclust_obs::escape(&r.id),
            r.ns_per_iter,
            r.per_second().map_or("null".into(), |p| format!("{p:.1}")),
            r.threads_used,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    json.push_str(&format!("  \"host_threads\": {threads},\n"));
    json.push_str(&format!("  \"table_prefixes\": {n_prefixes},\n"));
    json.push_str(&format!(
        "  \"compiled_memory_bytes\": {},\n",
        compiled.memory_bytes()
    ));
    json.push_str(&format!("  \"trie_lookups_per_sec\": {trie_rate:.1},\n"));
    json.push_str(&format!(
        "  \"compiled_lookups_per_sec\": {compiled_rate:.1},\n"
    ));
    json.push_str(&format!(
        "  \"compiled_batch_lookups_per_sec\": {:.1},\n",
        rate("compiled_batch")
    ));
    json.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    json.push_str(&format!("  \"compiled_over_trie_speedup\": {speedup:.2}\n"));
    json.push_str("}\n");

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lpm.json");
    std::fs::write(out, &json).expect("write BENCH_lpm.json");
    println!("\ncompiled-over-trie speedup: {speedup:.2}x");
    println!("wrote {out}");
}
