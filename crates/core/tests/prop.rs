//! Property-based tests on clustering invariants.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use netclust_core::{
    threshold_busy, Assigner, ClientClass, ClientStats, Cluster, ClusterAnswer, ClusterQuery,
    Clustering, IngestPipeline, StreamStats, StreamingClustering, SwapPolicy, VerdictAnswer,
    VerdictPolicy,
};
use netclust_netgen::{to_clf, Log, Request};
use netclust_obs::Obs;
use netclust_prefix::Ipv4Net;
use netclust_rtable::{DeltaKind, MergedTable, RoutingTable, TableDelta, TableKind};
use proptest::prelude::*;

fn arb_reqs() -> impl Strategy<Value = Vec<(u32, u8, u16)>> {
    proptest::collection::vec((any::<u32>(), any::<u8>(), any::<u16>()), 1..300)
}

/// What clustering a log must yield: per prefix `[clients, requests,
/// bytes, unique URLs]`, and the requests of clients no prefix covers.
type Expected = (BTreeMap<Ipv4Net, [u64; 4]>, u64);

/// One client as its cluster lists it: (address, requests, bytes).
type Member = (u32, u64, u64);

/// Whom a batch clustering must list: per prefix its members, and the
/// clients no prefix covers, each in address order.
type Members = (BTreeMap<Ipv4Net, Vec<Member>>, Vec<Member>);

/// The reference: ordered maps and the radix-trie LPM — nothing the
/// clustering kernel or the compiled table is built from.
fn oracle(requests: &[Request], table: &MergedTable) -> (Expected, Members) {
    oracle_by(requests, |client| {
        table.lookup_u32(client).map(|(net, _)| net)
    })
}

/// [`oracle`] under any address → cluster rule.
fn oracle_by(requests: &[Request], net_of: impl Fn(u32) -> Option<Ipv4Net>) -> (Expected, Members) {
    let per_client = per_client(requests);
    let (mut clusters, mut unclustered) = (BTreeMap::<Ipv4Net, [u64; 4]>::new(), 0);
    let mut members: Members = (BTreeMap::new(), Vec::new());
    for (&client, &[requests, bytes]) in &per_client {
        let member = (client, requests, bytes);
        match net_of(client) {
            Some(net) => {
                let c = clusters.entry(net).or_default();
                *c = [c[0] + 1, c[1] + requests, c[2] + bytes, 0];
                members.0.entry(net).or_default().push(member);
            }
            None => {
                unclustered += requests;
                members.1.push(member);
            }
        }
    }
    let urls: BTreeSet<(Ipv4Net, u32)> = (requests.iter())
        .filter_map(|r| Some((net_of(r.client)?, r.url)))
        .collect();
    for (net, _) in urls {
        clusters.get_mut(&net).expect("a client put it there")[3] += 1;
    }
    ((clusters, unclustered), members)
}

fn batch_view(c: &Clustering) -> (Expected, Members) {
    let listed = |members: &[ClientStats]| -> Vec<Member> {
        (members.iter())
            .map(|m| (u32::from(m.addr), m.requests, m.bytes))
            .collect()
    };
    let row = |k: &Cluster| {
        [
            c.members(k).len() as u64,
            k.requests,
            k.bytes,
            k.unique_urls as u64,
        ]
    };
    let clusters = c.clusters.iter().map(|k| (k.prefix, row(k))).collect();
    let unclustered = c.unclustered().iter().map(|u| u.requests).sum();
    let members = (c.clusters.iter())
        .map(|k| (k.prefix, listed(c.members(k))))
        .collect();
    ((clusters, unclustered), (members, listed(c.unclustered())))
}

/// Requests and bytes per client address.
fn per_client(requests: &[Request]) -> BTreeMap<u32, [u64; 2]> {
    let mut per_client: BTreeMap<u32, [u64; 2]> = BTreeMap::new();
    for r in requests {
        let sums = per_client.entry(r.client).or_default();
        *sums = [sums[0] + 1, sums[1] + r.bytes as u64];
    }
    per_client
}

/// Point answers against the oracle's rule: the cluster of every seen
/// client and every `unseen` address is `net_of`'s, with that cluster's
/// aggregates in `want` (zeros when it has no client) and the address's
/// own totals in `requests` (zeros when unseen); an unseen address's
/// verdict is `normal`, with no requests and a share of 0 (1 when it has
/// no cluster).
fn check_answers(
    (answer, verdict): (
        impl Fn(Ipv4Addr) -> ClusterAnswer,
        impl Fn(Ipv4Addr) -> VerdictAnswer,
    ),
    net_of: impl Fn(u32) -> Option<Ipv4Net>,
    (want, requests): (&Expected, &[Request]),
    unseen: &[u32],
    what: &str,
) -> Result<(), String> {
    let per_client = per_client(requests);
    let totals = unseen.iter().map(|&addr| (addr, [0, 0]));
    for (client, [requests, bytes]) in per_client.into_iter().chain(totals) {
        let addr = Ipv4Addr::from(client);
        let a = answer(addr);
        let net = net_of(client);
        let row = net
            .and_then(|net| want.0.get(&net))
            .copied()
            .unwrap_or([0; 4]);
        let got = [a.cluster_clients, a.cluster_requests, a.cluster_bytes];
        prop_assert_eq!(
            (a.cluster, got),
            (net, [row[0], row[1], row[2]]),
            "{} {}",
            addr,
            what
        );
        prop_assert_eq!(
            (a.client_requests, a.client_bytes),
            (requests, bytes),
            "{} {}",
            addr,
            what
        );
    }
    for &client in unseen {
        let addr = Ipv4Addr::from(client);
        let net = net_of(client);
        let want = VerdictAnswer {
            addr,
            cluster: net,
            class: ClientClass::Normal,
            requests: 0,
            cluster_share: if net.is_some() { 0.0 } else { 1.0 },
        };
        prop_assert_eq!(verdict(addr), want, "{}", what);
    }
    Ok(())
}

/// The batch answer path the CLI's `--lookup`/`--verdict` print.
fn batch_answers<'a>(
    c: &'a Clustering,
    how: Assigner<'a>,
) -> (
    impl Fn(Ipv4Addr) -> ClusterAnswer + 'a,
    impl Fn(Ipv4Addr) -> VerdictAnswer + 'a,
) {
    let verdict = move |addr| VerdictPolicy::default().judge(&c.answer(how, addr));
    (move |addr| c.answer(how, addr), verdict)
}

/// Addresses no request in `log` came from: for each `(sel, bits)`, one
/// inside table prefix `sel` (with `bits` as its host part), one next to a
/// client (so inside a cluster that has clients) or one anywhere.
fn unseen_addrs(log: &Log, nets: &[Ipv4Net], probes: &[(u8, u32)]) -> Vec<u32> {
    let clients: Vec<u32> = (log.requests.iter().map(|r| r.client))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let addrs = probes.iter().map(|&(sel, bits)| match sel % 3 {
        0 if !nets.is_empty() => {
            let net = nets[sel as usize % nets.len()];
            net.addr_u32() | (bits & !net.netmask_u32())
        }
        1 if !clients.is_empty() => clients[bits as usize % clients.len()] ^ (8 << (bits % 3)),
        _ => bits,
    });
    addrs
        .filter(|a| clients.binary_search(a).is_err())
        .collect()
}

/// The streaming view does not track URLs: its last column is 0.
fn stream_view(s: &StreamingClustering) -> Expected {
    let row = |k: StreamStats| [k.clients, k.requests, k.bytes, 0];
    let clusters = s
        .top_k(usize::MAX)
        .into_iter()
        .map(|(net, k)| (net, row(k)))
        .collect();
    (clusters, s.unclustered_requests())
}

/// Everything a stream answers about its clusters must be the oracle's
/// for the `requests` it was fed under `table`: every cluster's
/// aggregates, the cluster count, a top-N under the (requests descending,
/// prefix) order for a few N, the request total, and the `/v1/cluster`
/// answer for each seen client and each `unseen` address, with the
/// `/v1/verdict` answer for the latter.
fn check_stream(
    s: &StreamingClustering,
    want: &Expected,
    (requests, table, unseen): (&[Request], &MergedTable, &[u32]),
    what: &str,
) -> Result<(), String> {
    prop_assert_eq!(&stream_view(s), want, "{}", what);
    prop_assert_eq!(s.len(), want.0.len(), "{}", what);
    prop_assert_eq!(s.total_requests(), requests.len() as u64, "{}", what);
    let answers = (
        |addr| s.lookup(addr),
        |addr| s.verdict(addr, &VerdictPolicy::default()),
    );
    let net_of = |client| table.lookup_u32(client).map(|(net, _)| net);
    check_answers(answers, net_of, (want, requests), unseen, what)?;
    let mut ranked: Vec<(Ipv4Net, StreamStats)> = (want.0.iter())
        .map(|(&net, &[clients, requests, bytes, _])| {
            let stats = StreamStats {
                clients,
                requests,
                bytes,
            };
            (net, stats)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));
    for n in [0, 1, 3] {
        let top = &ranked[..n.min(ranked.len())];
        prop_assert_eq!(&s.top_k(n)[..], top, "top {} {}", n, what);
    }
    Ok(())
}

/// Distinct clients of `requests` whose cluster differs between the two
/// tables: what a batch that turns one into the other reassigns.
fn moved(requests: &[Request], before: &MergedTable, after: &MergedTable) -> usize {
    let clients: BTreeSet<u32> = requests.iter().map(|r| r.client).collect();
    let net = |t: &MergedTable, c: u32| t.lookup_u32(c).map(|(net, _)| net);
    (clients.into_iter())
        .filter(|&c| net(before, c) != net(after, c))
        .count()
}

proptest! {
    /// Clustering is a partition: every client lands in exactly one
    /// cluster (or unclustered), and aggregates add up to log totals.
    #[test]
    fn clustering_partitions_clients(reqs in arb_reqs(), modulus in 1u32..5) {
        let log = Log::from_triples(&reqs);
        // An arbitrary assigner: cluster by client % modulus, with one
        // residue class unclusterable.
        let rule = |addr: u32| {
            let r = addr % (modulus + 1);
            if r == modulus {
                None
            } else {
                Some(Ipv4Net::new(r << 8, 24).unwrap())
            }
        };
        let clustering = Clustering::build(log.hits(), "prop", |addr| rule(u32::from(addr)));
        // Its prefixes need not cover their members: the member run is
        // grouped by the rule all the same.
        prop_assert_eq!(batch_view(&clustering), oracle_by(&log.requests, rule));
        // Client partition.
        let mut seen: BTreeSet<Ipv4Addr> = BTreeSet::new();
        for cluster in &clustering.clusters {
            prop_assert!(!clustering.members(cluster).is_empty(), "no empty clusters");
            for c in clustering.members(cluster) {
                prop_assert!(seen.insert(c.addr), "client {} in two clusters", c.addr);
            }
        }
        for c in clustering.unclustered() {
            prop_assert!(seen.insert(c.addr), "unclustered client duplicated");
        }
        let expected: BTreeSet<Ipv4Addr> =
            log.requests.iter().map(|r| r.client_addr()).collect();
        prop_assert_eq!(seen, expected);
        // Request and byte conservation.
        let req_total: u64 = clustering.clusters.iter().map(|c| c.requests).sum::<u64>()
            + clustering.unclustered().iter().map(|c| c.requests).sum::<u64>();
        prop_assert_eq!(req_total, log.requests.len() as u64);
        let byte_total: u64 = clustering.clusters.iter().map(|c| c.bytes).sum::<u64>()
            + clustering.unclustered().iter().map(|c| c.bytes).sum::<u64>();
        let log_bytes: u64 = log.requests.iter().map(|r| u64::from(r.bytes)).sum();
        prop_assert_eq!(byte_total, log_bytes);
        // unique_urls bounded by requests and by the URL space.
        for cluster in &clustering.clusters {
            prop_assert!(cluster.unique_urls as u64 <= cluster.requests);
            prop_assert!(cluster.unique_urls <= 256);
        }
    }

    /// One independent oracle for all three drivers of the clustering
    /// kernel: `Clustering::by` over the log's hits, `IngestPipeline` over
    /// its CLF rendering (`to_clf`, plus malformed lines) at 1, 2 and 4
    /// workers, and
    /// `StreamingClustering::push_clf` over the same bytes in arbitrary
    /// line-aligned slices with a batch of routing deltas after each —
    /// `(kind, at, len)`: announce, withdraw or replace the prefix of
    /// length `len` (7 = its own) at table prefix `at`'s address, so live
    /// and absent prefixes that cover seen clients both come up. A batch
    /// may open with a shape that exercises the table's handles: withdraw
    /// a live prefix and announce another (which takes the freed handle),
    /// the same and then re-announce the first (which moves it to a new
    /// handle with its clients), or re-announce a prefix an earlier batch
    /// withdrew. After every batch, accepted or rejected, the stream, a
    /// restarted daemon (snapshot round trip) and, where the case asks,
    /// the stream after a whole-table swap to the same prefixes must agree
    /// with the oracle on every cluster, the cluster count and the top-N,
    /// and the batch must report as reassigned exactly the seen clients
    /// whose prefix changed. Where the case asks, the run goes on from the
    /// restarted daemon, whose handles a fresh compile numbered. Every
    /// driver also answers addresses no request came from — inside table
    /// prefixes, next to clients, anywhere — by the oracle's rule: the
    /// batch ones through the CLI's answer path, the stream after every
    /// slice, batch and restore.
    #[test]
    fn every_driver_matches_the_oracle(
        prefixes in proptest::collection::vec((any::<bool>(), any::<u32>(), 8u8..=26), 1..12),
        reqs in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u8>()), 1..300),
        junk in proptest::collection::vec(any::<u16>(), 0..6),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
        deltas in proptest::collection::vec(
            (
                (0u8..6, any::<u8>(), any::<u8>(), 0u8..4),
                proptest::collection::vec((0u8..3, any::<u8>(), 7u8..=26), 0..4),
            ),
            7,
        ),
        chunk_bytes in 64usize..600,
        probes in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..8),
    ) {
        // Nested prefixes under two /8s, split across both table tiers.
        let nets: Vec<Ipv4Net> = (prefixes.iter())
            .map(|&(hi, bits, len)| {
                let top = if hi { 172u32 << 24 } else { 10 << 24 };
                Ipv4Net::new(top | (bits >> 8), len).unwrap()
            })
            .collect();
        let (bgp, dump) = nets.split_at(nets.len().div_ceil(2));
        let mut live: BTreeSet<Ipv4Net> = bgp.iter().copied().collect();
        let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, bgp.to_vec());
        let dump = RoutingTable::new("D", "d0", TableKind::NetworkDump, dump.to_vec());
        let table = MergedTable::merge([&bgp, &dump]);
        // Three in four clients sit inside a table prefix (a few hosts
        // each, so sums accumulate); the rest are anywhere.
        let triples: Vec<(u32, u8, u16)> = (reqs.iter().zip(0u16..))
            .map(|(&(sel, host, url), time)| {
                let net = nets[sel as usize % nets.len()];
                let inside = net.addr_u32() | (host & 7 & !net.netmask_u32());
                (if sel % 4 == 0 { host } else { inside }, url, time)
            })
            .collect();
        let log = Log::from_triples(&triples);
        let (want, members) = oracle(&log.requests, &table);
        let want_batch = (want.clone(), members);

        let unseen = unseen_addrs(&log, &nets, &probes);
        let net_of = |client| table.lookup_u32(client).map(|(net, _)| net);

        let compiled = table.compile();
        let how = Assigner::NetworkAware(&compiled);
        let built = Clustering::by(log.hits(), how);
        prop_assert_eq!(&batch_view(&built), &want_batch);
        check_answers(batch_answers(&built, how), net_of, (&want, &log.requests), &unseen, "build")?;

        const JUNK: &str = "not a log line\n";
        let mut lines: Vec<String> = to_clf(&log).lines().map(|l| format!("{l}\n")).collect();
        for &at in &junk {
            lines.insert(at as usize % (lines.len() + 1), JUNK.into());
        }
        let text = lines.concat();
        for threads in [1, 2, 4] {
            let report = IngestPipeline::by(Assigner::NetworkAware(&compiled))
                .threads(threads)
                .chunk_bytes(chunk_bytes)
                .run(text.as_bytes());
            prop_assert_eq!(report.counts.malformed, junk.len() as u64);
            prop_assert_eq!(&batch_view(&report.clustering), &want_batch, "threads={}", threads);
            let answers = batch_answers(&report.clustering, how);
            let what = format!("ingest threads={threads}");
            check_answers(answers, net_of, (&want, &log.requests), &unseen, &what)?;
        }

        let mut stream = StreamingClustering::builder(table).build();
        let mut ends: Vec<usize> = cuts.iter().map(|&c| c as usize % lines.len()).collect();
        ends.push(lines.len());
        ends.sort_unstable();
        let merged = |live: &BTreeSet<Ipv4Net>| {
            let bgp = RoutingTable::new("B", "d0", TableKind::Bgp, live.iter().copied().collect());
            MergedTable::merge([&bgp, &dump])
        };
        let mut withdrawn_before: Vec<Ipv4Net> = Vec::new();
        let mut start = 0;
        for (end, ((shape, a, b, after), rest)) in ends.into_iter().zip(&deltas) {
            stream.push_clf(lines[start..end].concat().as_bytes());
            start = end;
            let fed = lines[..end].iter().filter(|l| *l != JUNK).count();
            let seen = &log.requests[..fed];
            let live_now: Vec<Ipv4Net> = live.iter().copied().collect();
            let victim = live_now.get(*a as usize % live_now.len().max(1)).copied();
            let other = {
                let at = nets[*b as usize % nets.len()];
                Ipv4Net::new(at.addr_u32(), 8 + b % 19).unwrap()
            };
            let mut batch = Vec::new();
            match (shape, victim) {
                (1 | 2, Some(victim)) => {
                    batch.push(TableDelta::withdraw(victim));
                    batch.push(TableDelta::announce(other));
                    if *shape == 2 {
                        batch.push(TableDelta::announce(victim));
                    }
                }
                (3, _) if !withdrawn_before.is_empty() => {
                    let again = withdrawn_before[*a as usize % withdrawn_before.len()];
                    batch.push(TableDelta::announce(again));
                }
                _ => {}
            }
            batch.extend(rest.iter().map(|&(kind, at, len)| {
                let at = nets[at as usize % nets.len()];
                let len = if len == 7 { at.len() } else { len };
                let prefix = Ipv4Net::new(at.addr_u32(), len).unwrap();
                match kind {
                    0 => TableDelta::announce(prefix),
                    1 => TableDelta::withdraw(prefix),
                    _ => TableDelta::replace(prefix),
                }
            }));
            let before = merged(&live);
            // A batch the swap policy turns away changes nothing.
            let report = stream.apply_deltas(&batch);
            if report.accepted {
                for d in &batch {
                    if d.kind == DeltaKind::Withdraw {
                        live.remove(&d.prefix);
                        withdrawn_before.push(d.prefix);
                    } else {
                        live.insert(d.prefix);
                    }
                }
            }
            let table_now = merged(&live);
            let reassigned = if report.accepted { moved(seen, &before, &table_now) } else { 0 };
            prop_assert_eq!(report.reassigned_clients, reassigned, "after {:?}", batch);
            // The streaming view does not track URLs.
            let (mut want, _) = oracle(seen, &table_now);
            want.0.values_mut().for_each(|row| row[3] = 0);
            let fed = (seen, &table_now, &unseen[..]);
            check_stream(&stream, &want, fed, &format!("after {batch:?}"))?;
            let restarted =
                StreamingClustering::restore(&stream.export_state(), SwapPolicy::default(), Obs::disabled())
                    .expect("a fresh export restores");
            check_stream(&restarted, &want, fed, &format!("restarted after {batch:?}"))?;
            match after {
                1 => {
                    let swap = stream.try_swap(merged(&live));
                    prop_assert_eq!(swap.accepted, !table_now.is_empty());
                    check_stream(&stream, &want, fed, &format!("swapped after {batch:?}"))?;
                }
                2 => stream = restarted,
                _ => {}
            }
        }
        prop_assert_eq!(stream.clf_counts().malformed, junk.len() as u64);
    }

    /// The simple and classful answers follow the network-aware rule for
    /// every address, seen or not: the method's cluster (the /24; the
    /// Class A/B/C network, none for D/E space), its aggregates and the
    /// address's own totals.
    #[test]
    fn simple_and_classful_answer_every_address(
        reqs in arb_reqs(),
        probes in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..16),
    ) {
        let log = Log::from_triples(&reqs);
        let unseen = unseen_addrs(&log, &[], &probes);
        let slash24 = |a: u32| Ipv4Net::new(a, 24).ok();
        let classful = |a: u32| match a >> 24 {
            0..=127 => Ipv4Net::new(a, 8).ok(),
            128..=191 => Ipv4Net::new(a, 16).ok(),
            192..=223 => Ipv4Net::new(a, 24).ok(),
            _ => None,
        };
        let methods = [(Assigner::Simple24, slash24 as fn(u32) -> _), (Assigner::Classful, classful)];
        for (how, net_of) in methods {
            let clustering = Clustering::by(log.hits(), how);
            let want_batch = oracle_by(&log.requests, net_of);
            prop_assert_eq!(&batch_view(&clustering), &want_batch, "{}", how.label());
            let want = want_batch.0;
            let answers = batch_answers(&clustering, how);
            check_answers(answers, net_of, (&want, &log.requests), &unseen, how.label())?;
        }
    }

    /// simple24 never produces more clusters than clients and never fewer
    /// than ceil(clients / 256); classful clusters are coarser or equal.
    #[test]
    fn method_granularity_bounds(reqs in arb_reqs()) {
        let log = Log::from_triples(&reqs);
        let clients = log.client_count();
        let simple = Clustering::by(log.hits(), Assigner::Simple24);
        prop_assert!(simple.len() <= clients);
        prop_assert!(simple.len() >= clients.div_ceil(256));
        let classful = Clustering::by(log.hits(), Assigner::Classful);
        // Every classful cluster (A/B/C) covers whole /24s, so it cannot
        // outnumber the /24 clustering plus unclustered D/E space.
        prop_assert!(classful.len() <= simple.len());
    }

    /// Thresholding: busy set is minimal-by-construction and covers the
    /// target fraction.
    #[test]
    fn threshold_covers_fraction(reqs in arb_reqs(), pct in 1u32..=100) {
        let log = Log::from_triples(&reqs);
        let clustering = Clustering::by(log.hits(), Assigner::Simple24);
        let fraction = pct as f64 / 100.0;
        let report = threshold_busy(&clustering.clusters, fraction);
        let total: u64 = clustering.clusters.iter().map(|c| c.requests).sum();
        let target = (total as f64 * fraction).ceil() as u64;
        prop_assert!(report.busy_requests >= target.min(total));
        // Minimality: removing the last (smallest) busy cluster drops
        // below the target.
        if !report.busy.is_empty() {
            prop_assert!(report.busy_requests - report.threshold < target);
        }
        // Ranges are consistent.
        let (lo, hi) = report.busy_request_range;
        prop_assert!(lo <= hi);
        prop_assert_eq!(report.threshold, lo);
    }
}
