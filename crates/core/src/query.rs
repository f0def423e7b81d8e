//! The unified query surface: one typed API for "what cluster is this
//! address in, what are the busiest clusters, is this client a spider".
//!
//! The paper's clustering is presented as an offline batch analysis, but
//! §4's real-time discussion and every downstream consumer (CDN server
//! ranking per cluster, role classification from connection patterns)
//! presume an online *ip → cluster oracle*. Its rule: the cluster of any
//! address, seen or not, is the address's longest match, with that
//! cluster's aggregates and the address's own totals. [`ClusterQuery`]
//! states it for the live [`StreamingClustering`](crate::stream::StreamingClustering)
//! the `netclustd` daemon serves; the one-shot CLI answers the same rule
//! from a batch [`Clustering`] and the [`Assigner`] that built it
//! ([`Clustering::answer`]), and both classify through
//! [`VerdictPolicy::judge`].
//!
//! Responses render to JSON through hand-rolled, dependency-free writers
//! (the same discipline as `netclust-obs`): sorted/fixed key order, floats
//! printed with a fixed precision, so equal answers are byte-identical —
//! the property the daemon's `--deterministic` end-to-end tests pin.

#![deny(clippy::iter_over_hash_type, clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use netclust_prefix::Ipv4Net;

use crate::cluster::{Assigner, Clustering};

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

impl VerdictPolicy {
    /// The structural spider/proxy verdict on an answer: volume and
    /// cluster share only (the log-dependent signals need the raw log).
    pub fn judge(&self, a: &ClusterAnswer) -> VerdictAnswer {
        let cluster_share = match a.cluster {
            Some(_) if a.cluster_requests > 0 => {
                a.client_requests as f64 / a.cluster_requests as f64
            }
            Some(_) => 0.0,
            None => 1.0,
        };
        let class = if a.client_requests < self.min_requests {
            ClientClass::Normal
        } else if cluster_share >= self.min_cluster_share {
            // Figure 10: "almost all the requests are issued by the
            // spider" — it dwarfs its cluster-mates.
            ClientClass::Spider
        } else {
            // Heavy but blended into a busy cluster: volume alone says
            // proxy-like; the UA/timing signals would firm this up.
            ClientClass::SuspectedProxy
        };
        VerdictAnswer {
            addr: a.addr,
            cluster: a.cluster,
            class,
            requests: a.client_requests,
            cluster_share,
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

/// The query surface `netclustd` serves, implemented by the live stream.
/// The batch CLI answers the same rule through [`Clustering::answer`] and
/// [`Clustering::top`].
pub trait ClusterQuery {
    /// Which cluster serves `addr`, with the cluster's and the client's
    /// observed traffic. Always answers — an unknown address comes back
    /// with its longest match (or `cluster: None`) and zero client
    /// counts, never an error.
    fn lookup(&self, addr: Ipv4Addr) -> ClusterAnswer;

    /// The `n` busiest clusters by request count, ties broken by prefix so
    /// equal views render byte-identical answers.
    fn top(&self, n: usize) -> Vec<ClusterRow>;

    /// Structural spider/proxy verdict for `addr` under `policy`: the
    /// [`lookup`](Self::lookup) answer, [judged](VerdictPolicy::judge).
    fn verdict(&self, addr: Ipv4Addr, policy: &VerdictPolicy) -> VerdictAnswer {
        policy.judge(&self.lookup(addr))
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

impl Clustering {
    /// The answer for `addr` under `how`, the assigner this clustering was
    /// made by — the rule the daemon's [`ClusterQuery::lookup`] follows,
    /// for an address the log never saw as for one it did: the cluster is
    /// the assigner's, its aggregates are that cluster's (zeros when it
    /// has no client), and the client's totals come from its
    /// [`members`](Self::members), or from
    /// [`unclustered`](Self::unclustered) when there is no cluster.
    pub fn answer(&self, how: Assigner<'_>, addr: Ipv4Addr) -> ClusterAnswer {
        let cluster = how.net_for(u32::from(addr));
        let found = cluster.and_then(|prefix| {
            let i = self.clusters.binary_search_by_key(&prefix, |c| c.prefix);
            self.clusters.get(i.ok()?)
        });
        let members = match cluster {
            None => self.unclustered(),
            Some(_) => found.map_or(&[][..], |c| self.members(c)),
        };
        let member =
            (members.binary_search_by_key(&addr, |c| c.addr).ok()).and_then(|i| members.get(i));
        ClusterAnswer {
            addr,
            cluster,
            cluster_clients: found.map_or(0, |c| c.client_count() as u64),
            cluster_requests: found.map_or(0, |c| c.requests),
            cluster_bytes: found.map_or(0, |c| c.bytes),
            client_requests: member.map_or(0, |c| c.requests),
            client_bytes: member.map_or(0, |c| c.bytes),
        }
    }

    /// The `n` busiest clusters by request count, ties broken by prefix,
    /// with their unique URL counts.
    pub fn top(&self, n: usize) -> Vec<ClusterRow> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamingClustering;
    use netclust_netgen::{generate, standard_merged, LogSpec, Universe, UniverseConfig};
    use netclust_rtable::CompiledTable;

    fn setup() -> (CompiledTable, Clustering, StreamingClustering) {
        let u = Universe::generate(UniverseConfig::small(7));
        let mut spec = LogSpec::tiny("q", 13);
        spec.total_requests = 8_000;
        spec.target_clients = 300;
        let mut log = generate(&u, &spec);
        // One client no prefix covers (TEST-NET-2): the unclustered answer.
        let stray = u32::from(Ipv4Addr::new(198, 51, 100, 9));
        log.requests.push(netclust_netgen::Request {
            client: stray,
            ..log.requests[0]
        });
        let table = standard_merged(&u, 0).compile();
        let batch = Clustering::by(log.hits(), Assigner::NetworkAware(&table));
        let mut stream = StreamingClustering::builder(standard_merged(&u, 0)).build();
        for r in &log.requests {
            stream.push_raw_for_tests(r.client, r.bytes.into());
        }
        (table, batch, stream)
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
    fn batch_and_stream_answer_alike() {
        let (table, batch, stream) = setup();
        let how = Assigner::NetworkAware(&table);
        assert_eq!(batch.total_requests, stream.total_requests());
        assert_eq!(batch.client_count(), stream.client_count());
        assert_eq!(batch.len(), stream.len());
        assert_eq!(stream.unclustered_requests(), 1);
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

        // Every member, the stray, and each top cluster's network address
        // (seen or not): one answer from both views.
        let members = batch.clusters.iter().flat_map(|c| batch.members(c));
        let addrs = (members.chain(batch.unclustered()).map(|c| c.addr))
            .chain(bt.iter().map(|row| row.prefix.addr()));
        for addr in addrs {
            assert_eq!(batch.answer(how, addr), stream.lookup(addr), "{addr}");
        }
        let stray = batch.answer(how, Ipv4Addr::new(198, 51, 100, 9));
        assert_eq!((stray.cluster, stray.client_requests), (None, 1));
    }

    #[test]
    fn unknown_address_answers_cleanly() {
        let (table, batch, stream) = setup();
        let addr = Ipv4Addr::new(203, 0, 113, 7); // TEST-NET-3: never generated
        let policy = VerdictPolicy::default();
        let batch = batch.answer(Assigner::NetworkAware(&table), addr);
        for a in [batch, stream.lookup(addr)] {
            assert_eq!(a.client_requests, 0);
            assert_eq!(a.client_bytes, 0);
            let v = policy.judge(&a);
            assert_eq!(v.class, ClientClass::Normal);
            assert_eq!(v.requests, 0);
        }
        assert_eq!(stream.verdict(addr, &policy), policy.judge(&batch));
    }

    #[test]
    fn verdict_classifies_by_volume_and_share() {
        let (_, _, mut stream) = setup();
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
        let (table, batch, stream) = setup();
        assert_eq!(
            top_to_json(&batch.top(5)),
            top_to_json(&batch.top(5)),
            "equal answers must render byte-identically"
        );
        let member = batch
            .clusters
            .iter()
            .find_map(|c| batch.members(c).first())
            .expect("a member");
        let a = batch.answer(Assigner::NetworkAware(&table), member.addr);
        assert!(a.to_json().contains("\"cluster\": \""), "{}", a.to_json());
        let miss = stream.lookup(Ipv4Addr::new(203, 0, 113, 9)).to_json();
        assert!(miss.contains("\"cluster\": null"), "{miss}");
    }

    #[test]
    fn top_table_renders_both_views() {
        let (_, batch, stream) = setup();
        let bt = render_top_table(&batch.top(3));
        assert!(bt.contains("cluster"), "{bt}");
        assert!(bt.lines().count() >= 2);
        let st = render_top_table(&stream.top(3));
        assert!(st.contains(" -"), "streaming view has no URL column: {st}");
    }
}
