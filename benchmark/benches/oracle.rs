//! The reference every output is checked against: a two-tier prefix trie
//! (BGP first, registry dump as fallback — the slow obvious path, never
//! the compiled table) and naive counting over the generated requests
//! (never the ingest pipeline).

use std::collections::{BTreeMap, HashMap, HashSet};

use netclust_prefix::Ipv4Net;
use netclust_rtable::{DeltaKind, PrefixTrie, TableDelta};

use crate::gen::Req;
use crate::httpc::{field_opt_str, field_u64};
use crate::json::Json;

pub struct Oracle {
    bgp: PrefixTrie<()>,
    dump: PrefixTrie<()>,
    /// Requests and bytes per client address, over the lines counted so far.
    per_client: HashMap<u32, (u64, u64)>,
    lines: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterAgg {
    pub clients: u64,
    pub requests: u64,
    pub bytes: u64,
}

/// What `netclust cluster` must print for a log, piece by piece.
#[derive(Debug, PartialEq, Eq)]
pub struct CliExpect {
    pub table_line: String,
    /// The summary line after the log path.
    pub summary: String,
    pub busy_line: String,
    /// `(cluster, clients, requests, unique URLs)` rows, busiest first.
    pub top: Vec<(String, u64, u64, u64)>,
}

impl Oracle {
    pub fn new(bgp: &[Ipv4Net], dump: &[Ipv4Net]) -> Oracle {
        Oracle {
            bgp: bgp.iter().map(|p| (*p, ())).collect(),
            dump: dump.iter().map(|p| (*p, ())).collect(),
            per_client: HashMap::new(),
            lines: 0,
        }
    }

    pub fn lpm(&self, addr: u32) -> Option<Ipv4Net> {
        self.bgp
            .longest_match_u32(addr)
            .or_else(|| self.dump.longest_match_u32(addr))
            .map(|(net, ())| net)
    }

    /// Applies one delta batch to the BGP tier, as the daemon must.
    pub fn apply(&mut self, batch: &[TableDelta]) {
        for d in batch {
            match d.kind {
                DeltaKind::Announce | DeltaKind::Replace => {
                    self.bgp.insert(d.prefix, ());
                }
                DeltaKind::Withdraw => {
                    self.bgp.remove(d.prefix);
                }
            }
        }
    }

    /// Counts further log lines.
    pub fn count(&mut self, reqs: &[Req]) {
        for r in reqs {
            let e = self.per_client.entry(r.addr).or_default();
            e.0 += 1;
            e.1 += u64::from(r.bytes);
        }
        self.lines += reqs.len() as u64;
    }

    pub fn client(&self, addr: u32) -> (u64, u64) {
        self.per_client.get(&addr).copied().unwrap_or_default()
    }

    /// Per-cluster aggregates of the counted lines under the current table.
    pub fn clusters(&self) -> BTreeMap<Ipv4Net, ClusterAgg> {
        let mut out: BTreeMap<Ipv4Net, ClusterAgg> = BTreeMap::new();
        for (&addr, &(requests, bytes)) in &self.per_client {
            if let Some(net) = self.lpm(addr) {
                let agg = out.entry(net).or_default();
                agg.clients += 1;
                agg.requests += requests;
                agg.bytes += bytes;
            }
        }
        out
    }

    /// What the batch CLI must report for exactly the counted lines, which
    /// must be `reqs`.
    pub fn cli_expectation(&self, reqs: &[Req], top: usize) -> CliExpect {
        assert_eq!(
            reqs.len() as u64,
            self.lines,
            "expectation is for the counted lines"
        );
        let clusters = self.clusters();
        let mut urls: HashSet<(Ipv4Net, u16)> = HashSet::new();
        for r in reqs {
            if let Some(net) = self.lpm(r.addr) {
                urls.insert((net, r.url));
            }
        }
        let mut unique: HashMap<Ipv4Net, u64> = HashMap::new();
        for (net, _) in urls {
            *unique.entry(net).or_default() += 1;
        }
        let clients = self.per_client.len() as u64;
        let clustered: u64 = clusters.values().map(|c| c.clients).sum();
        let mut rows: Vec<(Ipv4Net, ClusterAgg)> = clusters.iter().map(|(n, a)| (*n, *a)).collect();
        rows.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));

        // The smallest set of busiest clusters holding 70 % of clustered
        // requests (§4.1.3): how many, and the smallest one's requests.
        let clustered_requests: u64 = rows.iter().map(|r| r.1.requests).sum();
        let target = (clustered_requests as f64 * 0.7).ceil() as u64;
        let (mut acc, mut busy, mut threshold) = (0u64, 0usize, 0u64);
        for (_, agg) in &rows {
            if acc >= target {
                break;
            }
            acc += agg.requests;
            busy += 1;
            threshold = agg.requests;
        }
        CliExpect {
            table_line: format!(
                "merged table: {} BGP + {} registry prefixes from 2 files",
                self.bgp.len(),
                self.dump.len()
            ),
            summary: format!(
                "{} requests, {} clients -> {} clusters ({:.2}% clustered, {} unclustered clients)",
                self.lines,
                clients,
                clusters.len(),
                clustered as f64 / clients.max(1) as f64 * 100.0,
                clients - clustered
            ),
            busy_line: format!(
                "busy clusters covering 70% of requests: {busy} (threshold {threshold} requests)"
            ),
            top: rows
                .iter()
                .take(top)
                .map(|(net, agg)| {
                    (
                        net.to_string(),
                        agg.clients,
                        agg.requests,
                        unique.get(net).copied().unwrap_or(0),
                    )
                })
                .collect(),
        }
    }
}

/// Checks the stdout of `netclust cluster` against the oracle: table line,
/// summary line, busy line and every top row. Returns what differs.
pub fn check_cli_stdout(stdout: &[u8], want: &CliExpect) -> Result<(), String> {
    let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
    let mut lines = text.lines();
    let mut expect_line = |what: &str, ok: &dyn Fn(&str) -> bool| match lines.next() {
        Some(l) if ok(l) => Ok(()),
        other => Err(format!("{what}: got {other:?}")),
    };
    expect_line("table line", &|l| l == want.table_line)?;
    expect_line("summary line", &|l| {
        l.split_once(": ")
            .is_some_and(|(_, rest)| rest == want.summary)
    })?;
    expect_line("busy line", &|l| l == want.busy_line)?;
    expect_line("blank line", &|l| l.is_empty())?;
    expect_line("table header", &|l| {
        l.contains("cluster") && l.contains("URLs")
    })?;
    for (i, row) in want.top.iter().enumerate() {
        let line = lines.next().ok_or(format!("top row {i} missing"))?;
        let cols: Vec<&str> = line.split_ascii_whitespace().collect();
        let got = (
            cols.first().copied().unwrap_or(""),
            cols.get(1).and_then(|c| c.parse::<u64>().ok()),
            cols.get(2).and_then(|c| c.parse::<u64>().ok()),
            cols.get(3).and_then(|c| c.parse::<u64>().ok()),
        );
        if got != (row.0.as_str(), Some(row.1), Some(row.2), Some(row.3)) {
            return Err(format!("top row {i}: got {line:?}, want {row:?}"));
        }
    }
    match lines.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected output after the top table: {extra:?}")),
    }
}

/// The serving view of a daemon that has ingested exactly the oracle's
/// counted lines under the oracle's current table: what each endpoint
/// must answer.
pub struct ServingView<'a> {
    oracle: &'a Oracle,
    clusters: BTreeMap<Ipv4Net, ClusterAgg>,
    top10: Vec<(Ipv4Net, ClusterAgg)>,
}

impl<'a> ServingView<'a> {
    pub fn new(oracle: &'a Oracle) -> Self {
        let clusters = oracle.clusters();
        let mut top10: Vec<(Ipv4Net, ClusterAgg)> =
            clusters.iter().map(|(n, a)| (*n, *a)).collect();
        top10.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));
        top10.truncate(10);
        ServingView {
            oracle,
            clusters,
            top10,
        }
    }

    /// `/v1/cluster?ip=` and `/v1/verdict?ip=`: the cluster must be the
    /// oracle's longest match and the counts the oracle's counts.
    pub fn check_point(&self, addr: u32, verdict: bool, body: &[u8]) -> bool {
        let net = self.oracle.lpm(addr);
        if !cluster_field_is(body, net) {
            return false;
        }
        let (requests, bytes) = self.oracle.client(addr);
        if verdict {
            return field_u64(body, "requests") == Some(requests);
        }
        let agg = net
            .and_then(|n| self.clusters.get(&n))
            .copied()
            .unwrap_or_default();
        field_u64(body, "cluster_clients") == Some(agg.clients)
            && field_u64(body, "cluster_requests") == Some(agg.requests)
            && field_u64(body, "cluster_bytes") == Some(agg.bytes)
            && field_u64(body, "client_requests") == Some(requests)
            && field_u64(body, "client_bytes") == Some(bytes)
    }

    /// `/v1/clusters/top?n=10`: the ten busiest clusters, in order.
    pub fn check_top(&self, body: &[u8]) -> bool {
        let Some(doc) = std::str::from_utf8(body).ok().and_then(Json::parse) else {
            return false;
        };
        let Some(rows) = doc.get("clusters").and_then(Json::as_arr) else {
            return false;
        };
        rows.len() == self.top10.len()
            && rows.iter().zip(&self.top10).all(|(row, (net, agg))| {
                row.get("cluster").and_then(Json::as_str) == Some(net.to_string().as_str())
                    && row.get("clients").and_then(Json::as_u64) == Some(agg.clients)
                    && row.get("requests").and_then(Json::as_u64) == Some(agg.requests)
                    && row.get("bytes").and_then(Json::as_u64) == Some(agg.bytes)
            })
    }
}

/// `true` when the body's `"cluster"` field names exactly `want`.
pub fn cluster_field_is(body: &[u8], want: Option<Ipv4Net>) -> bool {
    match (field_opt_str(body, "cluster"), want) {
        (Some(None), None) => true,
        (Some(Some(got)), Some(net)) => got == net.to_string().as_bytes(),
        _ => false,
    }
}

/// One sampled answer from the churn phase: the cluster the daemon named
/// for `addr`, bracketed by the table versions seen before the request
/// went out and after its reply came back.
#[derive(Debug, Clone)]
pub struct VersionedAnswer {
    pub addr: u32,
    pub cluster: Option<String>,
    pub version_lo: u64,
    pub version_hi: u64,
}

/// Replays `batches` into `oracle` (whose table is at `base_version`) and
/// counts the answers that match the oracle's longest match under no table
/// version inside their bracket.
pub fn count_wrong_under_churn(
    oracle: &mut Oracle,
    base_version: u64,
    batches: &[Vec<TableDelta>],
    answers: &[VersionedAnswer],
) -> usize {
    let mut matched = vec![false; answers.len()];
    for step in 0..=batches.len() {
        if step > 0 {
            oracle.apply(&batches[step - 1]);
        }
        let version = base_version + step as u64;
        for (a, ok) in answers.iter().zip(matched.iter_mut()) {
            if !*ok && a.version_lo <= version && version <= a.version_hi {
                *ok = oracle.lpm(a.addr).map(|n| n.to_string()) == a.cluster;
            }
        }
    }
    matched.iter().filter(|ok| !**ok).count()
}

/// An address whose longest match changes because of `batch` — proof, when
/// a recovered daemon names the new cluster, that it replayed the batch.
/// `oracle` must already have the batch applied.
pub fn witness_of(oracle: &Oracle, batch: &[TableDelta]) -> Option<(u32, Ipv4Net)> {
    batch
        .iter()
        .filter(|d| d.kind == DeltaKind::Announce)
        .map(|d| (d.prefix.addr_u32() | 1, d.prefix))
        .find(|&(addr, net)| oracle.lpm(addr) == Some(net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn net(s: &str) -> Ipv4Net {
        s.parse().expect("prefix")
    }

    fn addr(s: &str) -> u32 {
        s.parse::<Ipv4Addr>().expect("addr").into()
    }

    fn small() -> (Oracle, Vec<Req>) {
        let mut o = Oracle::new(
            &[net("10.0.0.0/8"), net("10.1.0.0/16")],
            &[net("192.168.0.0/16")],
        );
        let reqs = vec![
            Req {
                addr: addr("10.1.2.3"),
                url: 1,
                bytes: 100,
            },
            Req {
                addr: addr("10.1.2.3"),
                url: 2,
                bytes: 50,
            },
            Req {
                addr: addr("10.1.9.9"),
                url: 1,
                bytes: 10,
            },
            Req {
                addr: addr("10.200.0.1"),
                url: 7,
                bytes: 1,
            },
            Req {
                addr: addr("192.168.5.5"),
                url: 7,
                bytes: 2,
            },
            Req {
                addr: addr("8.8.8.8"),
                url: 9,
                bytes: 3,
            },
        ];
        o.count(&reqs);
        (o, reqs)
    }

    #[test]
    fn two_tier_longest_match_and_naive_counts() {
        let (o, reqs) = small();
        assert_eq!(o.lpm(addr("10.1.2.3")), Some(net("10.1.0.0/16")));
        assert_eq!(o.lpm(addr("10.2.2.3")), Some(net("10.0.0.0/8")));
        assert_eq!(o.lpm(addr("192.168.1.1")), Some(net("192.168.0.0/16")));
        assert_eq!(o.lpm(addr("8.8.8.8")), None);
        assert_eq!(o.client(addr("10.1.2.3")), (2, 150));
        let want = o.cli_expectation(&reqs, 20);
        assert_eq!(
            want.summary,
            "6 requests, 5 clients -> 3 clusters (80.00% clustered, 1 unclustered clients)"
        );
        // 5 clustered requests → target 4: the /16 (3) then one of the
        // single-request clusters.
        assert_eq!(
            want.busy_line,
            "busy clusters covering 70% of requests: 2 (threshold 1 requests)"
        );
        assert_eq!(want.top[0], ("10.1.0.0/16".to_string(), 2, 3, 2));
        assert_eq!(want.top[1], ("10.0.0.0/8".to_string(), 1, 1, 1));
    }

    fn render(want: &CliExpect) -> String {
        let mut s = format!(
            "{}\nsome/log: {}\n{}\n\n             cluster  clients   requests     URLs\n",
            want.table_line, want.summary, want.busy_line
        );
        for r in &want.top {
            s.push_str(&format!("{:>20} {:>8} {:>10} {:>8}\n", r.0, r.1, r.2, r.3));
        }
        s
    }

    #[test]
    fn a_planted_wrong_cli_row_is_caught() {
        let (o, reqs) = small();
        let want = o.cli_expectation(&reqs, 20);
        let good = render(&want);
        assert_eq!(check_cli_stdout(good.as_bytes(), &want), Ok(()));
        let planted = good.replacen("         3 ", "         4 ", 1);
        assert_ne!(planted, good);
        assert!(check_cli_stdout(planted.as_bytes(), &want).is_err());
        let short = good.lines().take(6).collect::<Vec<_>>().join("\n");
        assert!(check_cli_stdout(short.as_bytes(), &want).is_err());
    }

    #[test]
    fn a_planted_wrong_daemon_answer_is_caught() {
        let (o, _) = small();
        let view = ServingView::new(&o);
        let good = b"{\"ip\": \"10.1.2.3\", \"cluster\": \"10.1.0.0/16\", \"cluster_clients\": 2, \
            \"cluster_requests\": 3, \"cluster_bytes\": 160, \"client_requests\": 2, \"client_bytes\": 150}";
        assert!(view.check_point(addr("10.1.2.3"), false, good));
        let wrong_cluster = String::from_utf8_lossy(good).replace("10.1.0.0/16", "10.0.0.0/8");
        assert!(!view.check_point(addr("10.1.2.3"), false, wrong_cluster.as_bytes()));
        let wrong_count = String::from_utf8_lossy(good)
            .replace("\"cluster_requests\": 3", "\"cluster_requests\": 4");
        assert!(!view.check_point(addr("10.1.2.3"), false, wrong_count.as_bytes()));
        let none = b"{\"ip\": \"8.8.8.8\", \"cluster\": null, \"cluster_clients\": 0, \
            \"cluster_requests\": 0, \"cluster_bytes\": 0, \"client_requests\": 1, \"client_bytes\": 3}";
        assert!(view.check_point(addr("8.8.8.8"), false, none));
        let verdict = b"{\"ip\": \"10.1.9.9\", \"cluster\": \"10.1.0.0/16\", \"class\": \"normal\", \"requests\": 1, \"cluster_share\": 0.333333}";
        assert!(view.check_point(addr("10.1.9.9"), true, verdict));
        let top = b"{\"clusters\": [{\"cluster\": \"10.1.0.0/16\", \"clients\": 2, \"requests\": 3, \"bytes\": 160, \"unique_urls\": null}, \
            {\"cluster\": \"10.0.0.0/8\", \"clients\": 1, \"requests\": 1, \"bytes\": 1, \"unique_urls\": null}, \
            {\"cluster\": \"192.168.0.0/16\", \"clients\": 1, \"requests\": 1, \"bytes\": 2, \"unique_urls\": null}]}";
        assert!(view.check_top(top));
        let swapped = String::from_utf8_lossy(top).replace("\"requests\": 3", "\"requests\": 2");
        assert!(!view.check_top(swapped.as_bytes()));
    }

    #[test]
    fn churn_answers_must_match_some_version_in_their_bracket() {
        let (mut o, _) = small();
        let batches = vec![
            vec![TableDelta::announce(net("10.1.2.0/24"))],
            vec![TableDelta::withdraw(net("10.1.0.0/16"))],
        ];
        let at = |cluster: &str, lo, hi| VersionedAnswer {
            addr: addr("10.1.2.3"),
            cluster: Some(cluster.to_string()),
            version_lo: lo,
            version_hi: hi,
        };
        let answers = vec![
            at("10.1.0.0/16", 5, 5), // before any batch: right
            at("10.1.2.0/24", 5, 6), // raced batch 1: right under v6
            at("10.1.0.0/16", 6, 7), // stale: wrong under v6 and v7
            at("10.1.2.0/24", 7, 7), // after both: right
        ];
        assert_eq!(count_wrong_under_churn(&mut o, 5, &batches, &answers), 1);
        assert_eq!(o.lpm(addr("10.1.9.9")), Some(net("10.0.0.0/8")));
        assert_eq!(
            witness_of(&o, &batches[0]),
            Some((addr("10.1.2.1"), net("10.1.2.0/24")))
        );
    }
}
