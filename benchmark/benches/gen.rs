//! Seeded inputs: routing tables, access-log lines, BGP delta batches and
//! the query mix. The same seed gives the same bytes; the product only
//! ever sees the files, flags and HTTP requests made from them.

use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use netclust_bgpsim::{DeltaStream, DeltaStreamConfig};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{DeltaKind, TableDelta};
use netclust_weblog::clf::format_clf_time;
use netclust_weblog::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What makes one workload's inputs differ from another's.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Table size (BGP + registry dump, split 92 % / 8 %).
    pub prefixes: usize,
    /// Lines in the log before anything is appended.
    pub boot_lines: usize,
    /// Size of the client pool requests are drawn from.
    pub clients: usize,
    /// Zipf exponent of requests over clients.
    pub client_alpha: f64,
    /// Lines held back for the churn phase to append.
    pub churn_lines: usize,
    /// Lines appended after the crash, before recovery.
    pub tail_lines: usize,
    /// Delta batches to draw.
    pub batches: usize,
    /// Requests in the pre-rendered query cycle.
    pub queries: usize,
}

/// One generated request, as the oracle counts it.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub addr: u32,
    pub url: u16,
    pub bytes: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Cluster,
    Verdict,
    Top,
}

/// One pre-rendered request of the query cycle.
#[derive(Debug, Clone)]
pub struct Query {
    pub kind: QueryKind,
    pub addr: u32,
    pub wire: Vec<u8>,
}

/// Lines kept in memory to be appended later, with where each line ends.
#[derive(Debug, Default)]
pub struct Lines {
    pub bytes: Vec<u8>,
    pub ends: Vec<usize>,
}

impl Lines {
    pub fn count(&self) -> usize {
        self.ends.len()
    }

    /// The bytes of lines `from..to`.
    pub fn slice(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        let end = if to == 0 { 0 } else { self.ends[to - 1] };
        &self.bytes[start..end]
    }
}

pub struct Corpus {
    pub bgp_path: PathBuf,
    pub dump_path: PathBuf,
    pub log_path: PathBuf,
    pub bgp: Vec<Ipv4Net>,
    pub dump: Vec<Ipv4Net>,
    /// Every generated request in log order: boot, then churn, then tail.
    pub reqs: Vec<Req>,
    pub boot_lines: usize,
    pub boot_bytes: u64,
    /// The boot lines, held until [`write`](Corpus::write) puts them on disk.
    boot: Vec<u8>,
    pub churn: Lines,
    pub tail: Lines,
    /// Non-empty delta batches over the BGP tier, in application order.
    pub batches: Vec<Vec<TableDelta>>,
    pub queries: Vec<Query>,
    /// Distinct client addresses in the boot lines.
    pub boot_clients: usize,
}

const N_URLS: usize = 2_000;
const USER_AGENT: &str = "Mozilla/4.0 (compatible; MSIE 5.0; Windows 98)";
const LOG_START: u64 = 887_328_000;
/// Log lines per second of log time.
const LINES_PER_SECOND: u64 = 64;

/// `n` unique prefixes with the BGP-like length mix the repo's
/// micro-benchmarks use: 55 % /24, 30 % /16–/23, 10 % /25–/28, 5 % /8–/15.
pub fn synth_prefixes(n: usize, rng: &mut StdRng) -> Vec<Ipv4Net> {
    let mut set = std::collections::BTreeSet::new();
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

fn push_decimal(out: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut n = 0;
    loop {
        digits[n] = b'0' + (v % 10) as u8;
        v /= 10;
        n += 1;
        if v == 0 {
            break;
        }
    }
    while n > 0 {
        n -= 1;
        out.push(digits[n]);
    }
}

fn push_addr(out: &mut Vec<u8>, addr: u32) {
    for (i, octet) in addr.to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        push_decimal(out, u32::from(octet));
    }
}

/// Appends request `index` of the log as one combined-format CLF line.
fn push_line(out: &mut Vec<u8>, req: Req, stamp: &[u8], urls: &[Vec<u8>]) {
    push_addr(out, req.addr);
    out.extend_from_slice(b" - - [");
    out.extend_from_slice(stamp);
    out.extend_from_slice(b"] \"GET ");
    out.extend_from_slice(&urls[usize::from(req.url)]);
    out.extend_from_slice(b" HTTP/1.0\" 200 ");
    push_decimal(out, req.bytes);
    out.extend_from_slice(b" \"-\" \"");
    out.extend_from_slice(USER_AGENT.as_bytes());
    out.extend_from_slice(b"\"\n");
}

fn write_table(path: &Path, prefixes: &[Ipv4Net]) -> std::io::Result<()> {
    let mut body = Vec::with_capacity(prefixes.len() * 18);
    for p in prefixes {
        push_addr(&mut body, p.addr_u32());
        body.push(b'/');
        push_decimal(&mut body, u32::from(p.len()));
        body.push(b'\n');
    }
    std::fs::write(path, body)
}

impl Corpus {
    /// Puts the table files and the log on disk (the directory is emptied
    /// first) and waits for the log to get there: write-back of a fresh
    /// 150 MB file would otherwise run under the first timed phase.
    pub fn write(&mut self) -> std::io::Result<()> {
        let dir = self.log_path.parent().expect("log path has a directory");
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        write_table(&self.bgp_path, &self.bgp)?;
        write_table(&self.dump_path, &self.dump)?;
        let mut log = std::fs::File::create(&self.log_path)?;
        log.write_all(&std::mem::take(&mut self.boot))?;
        log.sync_all()
    }
}

/// The wire form of a delta batch, as `POST /v1/reload` accepts it.
pub fn delta_body(batch: &[TableDelta]) -> Vec<u8> {
    let mut body = Vec::new();
    for d in batch {
        let verb = match d.kind {
            DeltaKind::Announce => "announce",
            DeltaKind::Withdraw => "withdraw",
            DeltaKind::Replace => "replace",
        };
        let _ = writeln!(body, "{verb} {}", d.prefix);
    }
    body
}

/// Generates every input of one run, in memory; [`Corpus::write`] then
/// puts the files under `dir`.
pub fn generate(seed: u64, shape: &Shape, dir: &Path) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed);

    let prefixes = synth_prefixes(shape.prefixes, &mut rng);
    // Every 12th-or-so prefix goes to the registry tier: 92 % / 8 %,
    // spread over the address space rather than split at one address.
    let (mut bgp, mut dump) = (Vec::new(), Vec::new());
    for (i, p) in prefixes.iter().enumerate() {
        if i % 25 < 23 {
            bgp.push(*p);
        } else {
            dump.push(*p);
        }
    }

    // Clients live inside table prefixes, bar 2 % anywhere in the address
    // space, so the unclustered path is exercised and checked too.
    let clients: Vec<u32> = (0..shape.clients)
        .map(|_| {
            if rng.gen_range(0..50) == 0 {
                rng.gen::<u32>()
            } else {
                let net = prefixes[rng.gen_range(0..prefixes.len())];
                net.addr_u32() | (rng.gen::<u32>() & !net.netmask_u32())
            }
        })
        .collect();
    let by_client = ZipfSampler::new(clients.len(), shape.client_alpha);
    let by_url = ZipfSampler::new(N_URLS, 0.8);
    let urls: Vec<Vec<u8>> = (0..N_URLS)
        .map(|i| format!("/docs/section-{}/page-{i}.html", i % 37).into_bytes())
        .collect();

    let total = shape.boot_lines + shape.churn_lines + shape.tail_lines;
    let mut reqs = Vec::with_capacity(total);
    let mut boot = Vec::with_capacity(shape.boot_lines * 160);
    let mut churn = Lines::default();
    let mut tail = Lines::default();
    let mut stamp = Vec::new();
    for i in 0..total {
        let req = Req {
            addr: clients[by_client.sample(&mut rng)],
            url: by_url.sample(&mut rng) as u16,
            bytes: rng.gen_range(200..20_000),
        };
        reqs.push(req);
        if (i as u64).is_multiple_of(LINES_PER_SECOND) {
            stamp = format_clf_time(LOG_START + i as u64 / LINES_PER_SECOND).into_bytes();
        }
        if i < shape.boot_lines {
            push_line(&mut boot, req, &stamp, &urls);
        } else {
            let held = if i < shape.boot_lines + shape.churn_lines {
                &mut churn
            } else {
                &mut tail
            };
            push_line(&mut held.bytes, req, &stamp, &urls);
            held.ends.push(held.bytes.len());
        }
    }
    let mut seen: Vec<u32> = reqs[..shape.boot_lines].iter().map(|r| r.addr).collect();
    seen.sort_unstable();
    seen.dedup();

    let cfg = DeltaStreamConfig {
        mean_batch_size: 8,
        reset_period: 0,
        ..DeltaStreamConfig::default()
    };
    let batches: Vec<Vec<TableDelta>> = DeltaStream::new(seed, bgp.clone(), cfg)
        .map(|b| b.deltas)
        .filter(|d| !d.is_empty())
        .take(shape.batches)
        .collect();

    // The query cycle, per 1000 requests: 899 point lookups, 100 verdicts,
    // 1 top-10; addresses 80 % log clients (same skew), 20 % anywhere.
    let mut qrng = StdRng::seed_from_u64(seed ^ 0x51_7E57);
    let queries = (0..shape.queries)
        .map(|i| {
            let addr = if qrng.gen_range(0..5) == 0 {
                qrng.gen::<u32>()
            } else {
                clients[by_client.sample(&mut qrng)]
            };
            let ip = Ipv4Addr::from(addr);
            let (kind, target) = if i % 1000 == 0 {
                (QueryKind::Top, "/v1/clusters/top?n=10".to_string())
            } else if i % 10 == 5 {
                (QueryKind::Verdict, format!("/v1/verdict?ip={ip}"))
            } else {
                (QueryKind::Cluster, format!("/v1/cluster?ip={ip}"))
            };
            Query {
                kind,
                addr,
                wire: crate::httpc::get(&target),
            }
        })
        .collect();

    Corpus {
        bgp_path: dir.join("t.bgp"),
        dump_path: dir.join("t.dump"),
        log_path: dir.join("access.log"),
        bgp,
        dump,
        reqs,
        boot_lines: shape.boot_lines,
        boot_bytes: boot.len() as u64,
        boot,
        churn,
        tail,
        batches,
        queries,
        boot_clients: seen.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            prefixes: 500,
            boot_lines: 2_000,
            clients: 300,
            client_alpha: 1.0,
            churn_lines: 100,
            tail_lines: 50,
            batches: 3,
            queries: 2_000,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("netclust-benchmark-{tag}-{}", std::process::id()))
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        let (a, b, c) = (scratch("gen-a"), scratch("gen-b"), scratch("gen-c"));
        let written = |seed, dir: &Path| {
            let mut c = generate(seed, &tiny(), dir);
            c.write().expect("write inputs");
            c
        };
        let (one, two, other) = (written(7, &a), written(7, &b), written(8, &c));
        let read = |p: &Path| std::fs::read(p).expect("read back");
        assert_eq!(read(&one.log_path), read(&two.log_path));
        assert_eq!(read(&one.bgp_path), read(&two.bgp_path));
        assert_eq!(one.churn.bytes, two.churn.bytes);
        assert_eq!(one.batches, two.batches);
        assert_ne!(read(&one.log_path), read(&other.log_path));
        for d in [a, b, c] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn lines_parse_back_to_the_requests_they_were_made_from() {
        let dir = scratch("gen-parse");
        let mut c = generate(3, &tiny(), &dir);
        c.write().expect("write inputs");
        let log = std::fs::read(&c.log_path).expect("read log");
        let mut n = 0;
        for (rec, req) in netclust_weblog::clf_bytes::records(&log, 1).zip(&c.reqs) {
            let (_, rec) = rec.expect("every generated line parses");
            assert_eq!((rec.addr, rec.bytes), (req.addr, req.bytes));
            n += 1;
        }
        assert_eq!(n, c.boot_lines);
        assert_eq!(c.churn.count(), 100);
        assert_eq!(c.churn.slice(0, 100), &c.churn.bytes[..]);
        assert_eq!(
            netclust_weblog::clf_bytes::records(c.tail.slice(10, 20), 1).count(),
            10
        );
        assert_eq!(c.bgp.len() + c.dump.len(), 500);
        let kinds = |k| c.queries.iter().filter(|q| q.kind == k).count();
        assert_eq!(
            (
                kinds(QueryKind::Cluster),
                kinds(QueryKind::Verdict),
                kinds(QueryKind::Top)
            ),
            (1_798, 200, 2)
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
