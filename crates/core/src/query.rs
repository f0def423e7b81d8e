//! The unified query surface: one typed API for "what cluster is this
//! address in, what are the busiest clusters, is this client a spider".
//!
//! The paper's clustering is presented as an offline batch analysis, but
//! §4's real-time discussion and every downstream consumer (CDN server
//! ranking per cluster, role classification from connection patterns)
//! presume an online *ip → cluster oracle*. [`ClusterQuery`] is that
//! oracle's contract: the one-shot CLI answers it from a batch
//! [`Clustering`], the `netclustd` daemon answers it from a live
//! [`StreamingClustering`](crate::stream::StreamingClustering), and report rendering, verdicts, and top-N all
//! flow through the same typed requests and responses instead of
//! binary-private code paths.
//!
//! Responses render to JSON through hand-rolled, dependency-free writers
//! (the same discipline as `netclust-obs`): sorted/fixed key order, floats
//! printed with a fixed precision, so equal answers are byte-identical —
//! the property the daemon's `--deterministic` end-to-end tests pin.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use netclust_prefix::Ipv4Net;

use crate::cluster::Clustering;

/// The answer to "which cluster serves this address, and how busy is it".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterAnswer {
    /// The queried address.
    pub addr: Ipv4Addr,
    /// Its identifying prefix under the responder's view (`None` when the
    /// address matches no table entry).
    pub cluster: Option<Ipv4Net>,
    /// Distinct clients seen in that cluster (0 when unclustered or the
    /// cluster has seen no traffic).
    pub cluster_clients: u64,
    /// Requests seen from that cluster.
    pub cluster_requests: u64,
    /// Bytes served to that cluster.
    pub cluster_bytes: u64,
    /// Requests seen from the queried address itself (0 when unseen).
    pub client_requests: u64,
    /// Bytes served to the queried address itself.
    pub client_bytes: u64,
}

/// One row of a top-N answer: a cluster and its aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRow {
    /// The cluster's identifying prefix.
    pub prefix: Ipv4Net,
    /// Distinct clients seen.
    pub clients: u64,
    /// Requests seen.
    pub requests: u64,
    /// Bytes served.
    pub bytes: u64,
    /// Distinct URLs accessed — tracked by the batch pipeline, not by the
    /// streaming aggregates, hence optional.
    pub unique_urls: Option<u64>,
}

/// Whole-view accounting: the header every report and `/healthz`-style
/// probe needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySummary {
    /// Requests consumed.
    pub total_requests: u64,
    /// Distinct clients seen.
    pub clients: u64,
    /// Clusters with at least one request.
    pub clusters: u64,
    /// Requests from clients matching no table entry.
    pub unclustered_requests: u64,
    /// Fraction of requests that were clusterable.
    pub coverage: f64,
    /// Patch-lineage version of the serving table (0 for a batch view,
    /// which never swaps).
    pub table_version: u64,
}

/// Thresholds for the *structural* spider/proxy verdict — the subset of
/// §4.1.2's signals available without the raw log: request volume and the
/// client's share of its cluster (Figure 10's "the spider dwarfs its
/// cluster-mates"). The timing and User-Agent signals need the full log
/// and stay in the study's offline detector (`netclust_experiments::detect`,
/// whose `AnomalyConfig` takes its volume and share thresholds from here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictPolicy {
    /// Minimum requests before a client is even suspicious.
    pub min_requests: u64,
    /// Cluster-request share at or above which a heavy client is a spider.
    pub min_cluster_share: f64,
}

impl Default for VerdictPolicy {
    fn default() -> Self {
        VerdictPolicy {
            min_requests: 5_000,
            min_cluster_share: 0.80,
        }
    }
}

/// What a client was classified as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientClass {
    /// An ordinary (visible) client.
    Normal,
    /// A bulk crawler.
    Spider,
    /// A forwarding proxy with hidden clients behind it.
    SuspectedProxy,
}

/// The answer to "is this client a spider or a proxy".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictAnswer {
    /// The queried address.
    pub addr: Ipv4Addr,
    /// Its cluster under the responder's view.
    pub cluster: Option<Ipv4Net>,
    /// The structural classification (see [`VerdictPolicy`]).
    pub class: ClientClass,
    /// Requests the client issued.
    pub requests: u64,
    /// Its share of its cluster's requests (1.0 when unclustered — it *is*
    /// its whole "cluster", matching `detect`'s convention).
    pub cluster_share: f64,
}

/// The unified agent/server query surface. Batch and streaming views both
/// answer it; everything user-facing (CLI report, daemon endpoints)
/// consumes this trait instead of reaching into either representation.
pub trait ClusterQuery {
    /// Which cluster serves `addr`, with the cluster's and the client's
    /// observed traffic. Always answers — an unknown address comes back
    /// with `cluster: None` and zero counts, never an error.
    fn lookup(&self, addr: Ipv4Addr) -> ClusterAnswer;

    /// The `n` busiest clusters by request count, ties broken by prefix so
    /// equal views render byte-identical answers.
    fn top(&self, n: usize) -> Vec<ClusterRow>;

    /// Whole-view accounting.
    fn summary(&self) -> QuerySummary;

    /// Structural spider/proxy verdict for `addr` under `policy`: volume
    /// and cluster-share only (the log-dependent signals need the raw log:
    /// see [`VerdictPolicy`]). Default implementation derives everything from
    /// [`lookup`](Self::lookup).
    fn verdict(&self, addr: Ipv4Addr, policy: &VerdictPolicy) -> VerdictAnswer {
        let a = self.lookup(addr);
        let cluster_share = match a.cluster {
            Some(_) if a.cluster_requests > 0 => {
                a.client_requests as f64 / a.cluster_requests as f64
            }
            Some(_) => 0.0,
            None => 1.0,
        };
        let class = if a.client_requests < policy.min_requests {
            ClientClass::Normal
        } else if cluster_share >= policy.min_cluster_share {
            // Figure 10: "almost all the requests are issued by the
            // spider" — it dwarfs its cluster-mates.
            ClientClass::Spider
        } else {
            // Heavy but blended into a busy cluster: volume alone says
            // proxy-like; the UA/timing signals would firm this up.
            ClientClass::SuspectedProxy
        };
        VerdictAnswer {
            addr,
            cluster: a.cluster,
            class,
            requests: a.client_requests,
            cluster_share,
        }
    }
}

/// The wire name of a classification, used by JSON rendering.
pub fn class_name(class: ClientClass) -> &'static str {
    match class {
        ClientClass::Normal => "normal",
        ClientClass::Spider => "spider",
        ClientClass::SuspectedProxy => "suspected_proxy",
    }
}

fn json_opt_prefix(out: &mut String, key: &str, prefix: Option<Ipv4Net>) {
    match prefix {
        Some(p) => {
            let _ = write!(out, "\"{key}\": \"{p}\"");
        }
        None => {
            let _ = write!(out, "\"{key}\": null");
        }
    }
}

impl ClusterAnswer {
    /// Deterministic JSON rendering (fixed key order, no whitespace
    /// variance): equal answers are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"ip\": \"{}\", ", self.addr);
        json_opt_prefix(&mut out, "cluster", self.cluster);
        let _ = write!(
            out,
            ", \"cluster_clients\": {}, \"cluster_requests\": {}, \"cluster_bytes\": {}, \
             \"client_requests\": {}, \"client_bytes\": {}}}",
            self.cluster_clients,
            self.cluster_requests,
            self.cluster_bytes,
            self.client_requests,
            self.client_bytes
        );
        out
    }
}

impl ClusterRow {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"cluster\": \"{}\", \"clients\": {}, \"requests\": {}, \"bytes\": {}, ",
            self.prefix, self.clients, self.requests, self.bytes
        );
        match self.unique_urls {
            Some(u) => {
                let _ = write!(out, "\"unique_urls\": {u}}}");
            }
            None => out.push_str("\"unique_urls\": null}"),
        }
    }
}

/// Renders a top-N answer as a JSON document: `{"clusters": [...]}`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
pub fn top_to_json(rows: &[ClusterRow]) -> String {
    let mut out = String::with_capacity(64 + rows.len() * 96);
    out.push_str("{\"clusters\": [");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        row.write_json(&mut out);
    }
    out.push_str("]}");
    out
}

impl QuerySummary {
    /// Deterministic JSON rendering. `coverage` is printed with six fixed
    /// decimals so equal summaries are byte-identical.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        let _ = write!(
            out,
            "{{\"total_requests\": {}, \"clients\": {}, \"clusters\": {}, \
             \"unclustered_requests\": {}, \"coverage\": {:.6}, \"table_version\": {}}}",
            self.total_requests,
            self.clients,
            self.clusters,
            self.unclustered_requests,
            self.coverage,
            self.table_version
        );
        out
    }
}

impl VerdictAnswer {
    /// Deterministic JSON rendering (fixed six-decimal share).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"ip\": \"{}\", ", self.addr);
        json_opt_prefix(&mut out, "cluster", self.cluster);
        let _ = write!(
            out,
            ", \"class\": \"{}\", \"requests\": {}, \"cluster_share\": {:.6}}}",
            class_name(self.class),
            self.requests,
            self.cluster_share
        );
        out
    }
}

/// Renders the CLI's busiest-clusters table from typed rows — the one
/// rendering path both the batch report and any future streaming report
/// share. Column layout matches the historical `netclust cluster` output;
/// a view that does not track unique URLs prints `-`.
pub fn render_top_table(rows: &[ClusterRow]) -> String {
    let mut out = String::with_capacity(64 + rows.len() * 56);
    let _ = writeln!(
        out,
        "{:>20} {:>8} {:>10} {:>8}",
        "cluster", "clients", "requests", "URLs"
    );
    for row in rows {
        let urls = match row.unique_urls {
            Some(u) => u.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>20} {:>8} {:>10} {:>8}",
            row.prefix.to_string(),
            row.clients,
            row.requests,
            urls
        );
    }
    out
}

/// The first `n` of `items` under the total order `cmp`, in that order —
/// what collecting, `sort_by(cmp)` and `truncate(n)` returns, without
/// holding the rows nobody reads: they pass through a buffer of at most
/// `max(2n, 64)`, cut back to the best `n` by one O(len) selection each
/// time it fills, and the kept `n` are sorted at the end. After the first
/// cut the worst row it kept is a bar: a row that does not beat it cannot
/// be among the best `n` and costs one comparison. `cmp` must be total (no
/// two items equal) for the result to be independent of the input order.
pub(crate) fn keep_top<T>(
    items: impl IntoIterator<Item = T>,
    n: usize,
    mut cmp: impl FnMut(&T, &T) -> std::cmp::Ordering,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    let items = items.into_iter();
    let bound = n.saturating_mul(2).max(64);
    let mut kept = Vec::with_capacity(bound.min(items.size_hint().0));
    // Set by a cut, which leaves the best `n` in front, the worst of them
    // last; rows pushed since lie behind it.
    let mut barred = false;
    for item in items {
        if barred && kept.get(n - 1).is_some_and(|bar| cmp(&item, bar).is_ge()) {
            continue;
        }
        kept.push(item);
        if kept.len() == bound {
            kept.select_nth_unstable_by(n - 1, &mut cmp);
            kept.truncate(n);
            barred = true;
        }
    }
    if n < kept.len() {
        kept.select_nth_unstable_by(n - 1, &mut cmp);
        kept.truncate(n);
    }
    kept.sort_unstable_by(cmp);
    kept
}

impl ClusterQuery for Clustering {
    fn lookup(&self, addr: Ipv4Addr) -> ClusterAnswer {
        match self.cluster_of(addr) {
            Some(cluster) => {
                let member = cluster
                    .clients
                    .binary_search_by_key(&addr, |c| c.addr)
                    .ok()
                    .and_then(|i| cluster.clients.get(i));
                let (client_requests, client_bytes) =
                    member.map_or((0, 0), |c| (c.requests, c.bytes));
                ClusterAnswer {
                    addr,
                    cluster: Some(cluster.prefix),
                    cluster_clients: cluster.client_count() as u64,
                    cluster_requests: cluster.requests,
                    cluster_bytes: cluster.bytes,
                    client_requests,
                    client_bytes,
                }
            }
            None => {
                // Unclustered clients are retained sorted by address.
                let member = self
                    .unclustered
                    .binary_search_by_key(&addr, |c| c.addr)
                    .ok()
                    .and_then(|i| self.unclustered.get(i));
                let (client_requests, client_bytes) =
                    member.map_or((0, 0), |c| (c.requests, c.bytes));
                ClusterAnswer {
                    addr,
                    cluster: None,
                    cluster_clients: 0,
                    cluster_requests: 0,
                    cluster_bytes: 0,
                    client_requests,
                    client_bytes,
                }
            }
        }
    }

    fn top(&self, n: usize) -> Vec<ClusterRow> {
        let busiest = keep_top(&self.clusters, n, |a, b| {
            b.requests.cmp(&a.requests).then(a.prefix.cmp(&b.prefix))
        });
        busiest
            .into_iter()
            .map(|c| ClusterRow {
                prefix: c.prefix,
                clients: c.client_count() as u64,
                requests: c.requests,
                bytes: c.bytes,
                unique_urls: Some(u64::from(c.unique_urls)),
            })
            .collect()
    }

    fn summary(&self) -> QuerySummary {
        let unclustered_requests: u64 = self.unclustered.iter().map(|c| c.requests).sum();
        QuerySummary {
            total_requests: self.total_requests,
            clients: self.client_count() as u64,
            clusters: self.len() as u64,
            unclustered_requests,
            // Request-weighted, as the field says and the stream computes;
            // `Clustering::coverage` is the paper's client-weighted figure.
            coverage: match self.total_requests {
                0 => 0.0,
                total => 1.0 - unclustered_requests as f64 / total as f64,
            },
            table_version: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamingClustering;
    use netclust_netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};

    fn setup() -> (Clustering, StreamingClustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("q", 13);
        spec.total_requests = 8_000;
        spec.target_clients = 300;
        let mut log = generate(&u, &spec);
        // One client no prefix covers (TEST-NET-2), so the client- and the
        // request-weighted coverage differ.
        let stray = u32::from(Ipv4Addr::new(198, 51, 100, 9));
        log.requests.push(netclust_weblog::Request {
            client: stray,
            ..log.requests[0]
        });
        let batch = Clustering::network_aware(&log, &standard_merged(&u, 0));
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push(r);
        }
        (batch, stream)
    }

    /// Selection over an iterator must return exactly what the full sort
    /// did, for every `n` around the interesting edges, ties on the primary
    /// key included — and never have more than `max(2n, 64)` rows alive.
    #[test]
    fn keep_top_equals_sort_then_truncate_and_holds_a_bounded_buffer() {
        use std::cell::Cell;
        /// A row that counts itself in while it is alive.
        struct Row<'a>((u64, u32), &'a Cell<usize>);
        impl Drop for Row<'_> {
            fn drop(&mut self) {
                self.1.set(self.1.get() - 1);
            }
        }
        let by_count_then_id = |a: &(u64, u32), b: &(u64, u32)| b.0.cmp(&a.0).then(a.1.cmp(&b.1));
        // A small multiplicative generator: many ties on the count.
        let items: Vec<(u64, u32)> = (0..500u32)
            .map(|i| (u64::from(i.wrapping_mul(2_654_435_761) >> 27), i))
            .collect();
        let mut sorted = items.clone();
        sorted.sort_by(by_count_then_id);
        for n in [0, 1, 2, 10, 499, 500, 501, 10_000] {
            let want: Vec<_> = sorted.iter().copied().take(n).collect();
            let (alive, most) = (Cell::new(0), Cell::new(0));
            let rows = items.iter().map(|&item| {
                alive.set(alive.get() + 1);
                most.set(most.get().max(alive.get()));
                Row(item, &alive)
            });
            let got = keep_top(rows, n, |a, b| by_count_then_id(&a.0, &b.0));
            assert_eq!(got.iter().map(|r| r.0).collect::<Vec<_>>(), want, "n={n}");
            assert!(most.get() <= (2 * n).max(64), "n={n} held {}", most.get());
        }
        assert!(keep_top(Vec::new(), 3, by_count_then_id).is_empty());
    }

    #[test]
    fn batch_and_stream_agree_through_the_trait() {
        let (batch, stream) = setup();
        let bs = batch.summary();
        let ss = stream.summary();
        assert_eq!(bs.total_requests, ss.total_requests);
        assert_eq!(bs.clients, ss.clients);
        assert_eq!(bs.clusters, ss.clusters);
        assert_eq!((bs.unclustered_requests, ss.unclustered_requests), (1, 1));
        assert!((bs.coverage - ss.coverage).abs() < 1e-9);

        let bt = batch.top(10);
        let st = stream.top(10);
        assert_eq!(bt.len(), st.len());
        for (b, s) in bt.iter().zip(&st) {
            assert_eq!(b.prefix, s.prefix);
            assert_eq!(b.clients, s.clients);
            assert_eq!(b.requests, s.requests);
            assert_eq!(b.bytes, s.bytes);
            assert!(b.unique_urls.is_some());
            assert_eq!(s.unique_urls, None);
        }

        // Per-address lookups agree wherever the batch view can answer
        // (every member client).
        for row in &bt {
            let b = batch.lookup(row.prefix.addr());
            let s = stream.lookup(row.prefix.addr());
            // The network address itself may be unseen; counts still agree.
            assert_eq!(b.client_requests, s.client_requests);
        }
        for cluster in &batch.clusters {
            let Some(member) = cluster.clients.first() else {
                continue;
            };
            let b = batch.lookup(member.addr);
            let s = stream.lookup(member.addr);
            assert_eq!(b.cluster, s.cluster);
            assert_eq!(b.cluster_requests, s.cluster_requests);
            assert_eq!(b.cluster_bytes, s.cluster_bytes);
            assert_eq!(b.client_requests, s.client_requests);
            assert_eq!(b.client_bytes, s.client_bytes);
            assert_eq!(b.client_requests, member.requests);
        }
    }

    #[test]
    fn unknown_address_answers_cleanly() {
        let (batch, stream) = setup();
        let addr = Ipv4Addr::new(203, 0, 113, 7); // TEST-NET-3: never generated
        for view in [&batch as &dyn ClusterQuery, &stream as &dyn ClusterQuery] {
            let a = view.lookup(addr);
            assert_eq!(a.client_requests, 0);
            assert_eq!(a.client_bytes, 0);
            let v = view.verdict(addr, &VerdictPolicy::default());
            assert_eq!(v.class, ClientClass::Normal);
            assert_eq!(v.requests, 0);
        }
    }

    #[test]
    fn verdict_classifies_by_volume_and_share() {
        let (_, mut stream) = setup();
        // A synthetic spider: one client hammers a quiet corner of the
        // address space far beyond the volume floor.
        let spider = stream.top(1).first().map(|r| r.prefix.addr());
        let spider = spider.expect("clusters exist");
        for _ in 0..10_000 {
            stream.push_raw_for_tests(u32::from(spider), 100);
        }
        let policy = VerdictPolicy::default();
        let v = stream.verdict(spider, &policy);
        assert_eq!(v.class, ClientClass::Spider, "{v:?}");
        assert!(v.cluster_share >= policy.min_cluster_share);
        let json = v.to_json();
        assert!(json.contains("\"class\": \"spider\""), "{json}");
    }

    #[test]
    fn json_rendering_is_deterministic_and_shaped() {
        let (batch, stream) = setup();
        assert_eq!(
            top_to_json(&batch.top(5)),
            top_to_json(&batch.top(5)),
            "equal answers must render byte-identically"
        );
        let s = stream.summary().to_json();
        assert!(s.starts_with("{\"total_requests\": "), "{s}");
        assert!(s.contains("\"coverage\": 0.999875"), "{s}");
        let member = batch
            .clusters
            .iter()
            .find_map(|c| c.clients.first())
            .expect("a member");
        let a = batch.lookup(member.addr).to_json();
        assert!(a.contains("\"cluster\": \""), "{a}");
        let miss = stream.lookup(Ipv4Addr::new(203, 0, 113, 9)).to_json();
        assert!(miss.contains("\"cluster\": null"), "{miss}");
    }

    #[test]
    fn top_table_renders_both_views() {
        let (batch, stream) = setup();
        let bt = render_top_table(&batch.top(3));
        assert!(bt.contains("cluster"), "{bt}");
        assert!(bt.lines().count() >= 2);
        let st = render_top_table(&stream.top(3));
        assert!(st.contains(" -"), "streaming view has no URL column: {st}");
    }
}
