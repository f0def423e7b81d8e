//! The stream's client store held to counted work (`StreamingClustering::
//! ledger`): a patch batch reads the clients inside its deltas' prefixes and
//! the arrival tail, no others, and merging the tail into the sorted run
//! moves a bounded number of records per new client — also when every
//! new client lands in one /16, and over a million random ones (the
//! catch-up a daemon does at boot).
//!
//! `cargo test --release --test client_store -- --nocapture` prints what a
//! patch batch costs at 0, 40 000 and 380 000 clients.

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;

use netclust::bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust::core::{ErrorCounts, StreamingClustering, SwapPolicy};
use netclust::prefix::Ipv4Net;
use netclust::rtable::{MergedTable, RoutingTable, TableKind};

/// Records the arrival tail holds before a merge (`TAIL` in
/// `crates/core/src/clients.rs`).
const TAIL: u64 = 8192;

/// The CLF lines of one 100-byte request from each of `clients`, in
/// order, as the log a stream follows carries them.
fn clf(clients: impl IntoIterator<Item = u32>) -> String {
    let mut text = String::new();
    for client in clients.into_iter().map(Ipv4Addr::from) {
        let _ = writeln!(
            text,
            "{client} - - [13/Feb/1998:07:00:00 +0000] \"GET / HTTP/1.0\" 200 100"
        );
    }
    text
}

/// A step of xorshift64: the test's own reproducible draws.
fn draw(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The benchmark-shaped prefixes (≈ 110 000, as in
/// `tests/table_size_budget.rs`) and the churn that patches them: batches
/// of about 8 deltas, no session resets.
fn benchmark_churn() -> (Vec<Ipv4Net>, DeltaStream) {
    let churn = DeltaStreamConfig {
        reset_period: 0,
        ..DeltaStreamConfig::default()
    };
    let stream = DeltaStream::synthetic(0x51CE, 110_000, churn);
    (stream.live_prefixes(), stream)
}

/// `prefixes` as the benchmark's table: 92 % of them BGP, the rest the
/// registry dump.
fn merged(prefixes: &[Ipv4Net]) -> MergedTable {
    let split = prefixes.len() * 92 / 100;
    let bgp = RoutingTable::new("BGP", "d0", TableKind::Bgp, prefixes[..split].to_vec());
    let dump = RoutingTable::new(
        "dump",
        "d0",
        TableKind::NetworkDump,
        prefixes[split..].to_vec(),
    );
    MergedTable::merge([&bgp, &dump])
}

/// The clients of `sorted` (ascending addresses) inside any of `nets`.
fn inside(sorted: &[u32], nets: &[Ipv4Net]) -> u64 {
    let mut ranges: Vec<(u32, u32)> = (nets.iter())
        .map(|p| (p.addr_u32(), u32::from(p.last())))
        .collect();
    ranges.sort_unstable();
    let mut union: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in ranges {
        match union.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => union.push((lo, hi)),
        }
    }
    (union.iter())
        .map(|&(lo, hi)| {
            let from = sorted.partition_point(|&a| a < lo);
            let to = sorted.partition_point(|&a| a <= hi);
            (to - from) as u64
        })
        .sum()
}

/// The work-ledger row of a patch batch: with `clients` clients placed
/// inside the table's prefixes, merged into the run (a table swap settles
/// the tail), then `extra` new ones in the tail, each of 50 batches reads
/// at least the clients inside its deltas' prefixes and at most those
/// plus the tail. A batch that tested every client read all of them.
#[test]
fn a_patch_batch_reads_only_its_prefixes_clients_and_the_tail() {
    let (prefixes, mut churn) = benchmark_churn();
    let extra = 1_000u32;
    for clients in [0u32, 40_000, 380_000] {
        let mut stream = StreamingClustering::builder(merged(&prefixes))
            .swap_policy(SwapPolicy {
                min_entries: 0,
                max_noise_ratio: 1.0,
                min_coverage_retention: 0.0,
            })
            .build();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(clients);
        let mut place = || {
            let p = prefixes[(draw(&mut rng) % prefixes.len() as u64) as usize];
            let host = (draw(&mut rng) as u32) & u32::MAX.checked_shr(p.len().into()).unwrap_or(0);
            p.addr_u32() | host
        };
        stream.push_clf(clf((0..clients).map(|_| place())).as_bytes());
        assert!(
            stream
                .try_swap(merged(&prefixes), ErrorCounts::default())
                .accepted
        );
        let settled = stream.client_count();
        while stream.client_count() < settled + extra as usize {
            stream.push_clf(clf([place()]).as_bytes());
        }
        let mut addrs: Vec<u32> = (stream.export_state().per_client.iter())
            .map(|r| r.0)
            .collect();
        addrs.dedup();

        let mut ms = Vec::new();
        for _ in 0..50 {
            let batch = churn.next_batch();
            let nets: Vec<Ipv4Net> = batch.deltas.iter().map(|d| d.prefix).collect();
            let want = inside(&addrs, &nets);
            let before = stream.ledger().patch_visited;
            let started = Instant::now();
            stream.apply_deltas(&batch.deltas);
            ms.push(started.elapsed().as_secs_f64() * 1e3);
            let visited = stream.ledger().patch_visited - before;
            assert!(
                (want..=want + u64::from(extra)).contains(&visited),
                "{clients} clients: a batch of {} deltas read {visited} records, {want} inside its prefixes",
                batch.deltas.len()
            );
        }
        ms.sort_by(f64::total_cmp);
        println!(
            "{:>7} clients: apply_deltas median {:.3} ms over 50 batches",
            stream.client_count(),
            ms[ms.len() / 2]
        );
    }
}

/// Pushes `n` new clients, `addr(i)` the i-th, into a stream over
/// 10.0.0.0/8 and returns it: every one counted once, each merge moving no
/// more than the run it merges into, so the records moved a new client
/// are at most `1 + n / TAIL` (the backward merge moves each run record
/// above the tail's least address once, and places each tail record).
fn merged_within_bound(n: u32, addr: impl Fn(u32) -> u32) -> StreamingClustering {
    let ten = Ipv4Net::new(0x0A00_0000, 8).unwrap();
    let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, vec![ten]);
    let mut stream = StreamingClustering::builder(MergedTable::merge([&bgp])).build();
    for from in (0..n).step_by(1 << 16) {
        let part = from..n.min(from + (1 << 16));
        assert!(stream.push_clf(clf(part.map(&addr)).as_bytes()).is_empty());
    }
    assert_eq!(stream.client_count(), n as usize);
    let moved = stream.ledger().merge_moved;
    let bound = u64::from(n) * (1 + u64::from(n) / TAIL);
    println!(
        "{n} new clients: {moved} records moved, {:.1} a client (bound {})",
        moved as f64 / f64::from(n),
        bound / u64::from(n)
    );
    assert!(moved <= bound, "{moved} records moved for {n} clients");
    stream
}

/// Every client of one /16 (65 536), none in order: each merge lands
/// inside the one /16 the run holds.
#[test]
fn sixty_five_thousand_new_clients_in_one_slash_16_move_a_bounded_share() {
    let stream = merged_within_bound(1 << 16, |i| 0x0A01_0000 | (i.wrapping_mul(40_503) & 0xFFFF));
    let state = stream.export_state();
    assert!(state.per_client.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(state.per_client.len(), 1 << 16);
    assert_eq!(state.total_requests, 1 << 16);
}

/// A million distinct clients spread over the whole space in no order (an
/// odd multiplier is a bijection), as a backlog's catch-up brings them.
#[test]
fn a_million_distinct_random_clients_move_a_bounded_share() {
    let stream = merged_within_bound(1_000_000, |i| i.wrapping_mul(0x9E37_79B1) ^ 0x5A5A_5A5A);
    assert_eq!(stream.total_requests(), 1_000_000);
}
