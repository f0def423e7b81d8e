//! Request routing: parsed [`HttpRequest`] in, [`HttpResponse`] out.
//!
//! This is the daemon's hot path — every query a client sends flows
//! through [`handle`] — so it follows the workspace's panic-free
//! contract: no `unwrap`/`expect`, no scalar indexing, every lock
//! acquisition and parse failure mapped to a typed HTTP error. A poisoned
//! lock answers `500`, a malformed parameter answers `400`, and nothing
//! can take the serving loop down.
//!
//! The query endpoints are thin adapters over the unified
//! [`ClusterQuery`] trait — the same surface the one-shot CLI renders its
//! report from — so the daemon and the CLI cannot drift apart on
//! semantics.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::atomic::AtomicU64;
use std::sync::RwLock;

use netclust_core::query::top_to_json;
use netclust_core::{ClusterQuery, StreamingClustering, VerdictPolicy};
use netclust_obs::{Counter, ErrorCounts, Gauge, Histogram, Obs};
use netclust_rtable::{load_tables, parse_feed, DeltaParseError, MergedTable, TableDelta};

use crate::checkpoint::{self, ApplyError, Checkpointer};
use crate::http::{HttpRequest, HttpResponse, Method};
use crate::json;

/// Pre-resolved `serve.*` observability handles (inert when the daemon's
/// [`Obs`] is disabled).
#[derive(Debug, Clone, Default)]
pub struct ServeObs {
    /// Requests routed.
    pub requests: Counter,
    /// Responses with status >= 400.
    pub errors: Counter,
    /// Connections shed by the [`serve.accept`
    /// failpoint](netclust_core::failpoints::SERVE_ACCEPT) or accept
    /// errors.
    pub accept_shed: Counter,
    /// Requests torn by the [`serve.request.parse`
    /// failpoint](netclust_core::failpoints::SERVE_REQUEST_PARSE) or
    /// malformed wire bytes.
    pub parse_errors: Counter,
    /// Full-table reload swaps attempted.
    pub reload_swaps: Counter,
    /// Delta-batch reloads attempted.
    pub reload_deltas: Counter,
    /// Log chunks ingested by the follower.
    pub follow_chunks: Counter,
    /// Log bytes ingested by the follower.
    pub follow_bytes: Counter,
    /// Follower turns that failed: a log poll error, or the stream lock
    /// found poisoned (after which the follower is gone).
    pub follow_errors: Counter,
    /// Bytes the followed file holds past the follower's cursor.
    pub follow_lag: Gauge,
    /// Follower waits a change notice about the log ended.
    pub follow_notified: Counter,
    /// Follower waits that ran to their `--poll-ms` bound.
    pub follow_timed_out: Counter,
    /// 1 while the follower has a change notice armed on the log's
    /// directory, 0 while freshness falls back to `--poll-ms`.
    pub follow_watching: Gauge,
    /// Snapshots made durable (background, post-swap and shutdown alike).
    pub checkpoints: Counter,
    /// Checkpoint triggers that merged into a snapshot already pending or
    /// in flight.
    pub checkpoint_coalesced: Counter,
    /// Snapshot attempts that failed; the bytes stay dirty and are retried.
    pub checkpoint_errors: Counter,
    /// Applied log bytes no durable snapshot covers yet.
    pub checkpoint_dirty: Gauge,
    /// Wall time of each snapshot (export + write + fsync + rename), ms.
    /// Not recorded under `--deterministic`.
    pub checkpoint_ms: Histogram,
    /// How long each snapshot held the stream's read lock to encode, µs:
    /// what a follower write (and every reader queued behind it) waited.
    /// Not recorded under `--deterministic`.
    pub checkpoint_hold_us: Histogram,
}

impl ServeObs {
    /// Resolves every handle against `obs`.
    pub fn resolve(obs: &Obs) -> Self {
        ServeObs {
            requests: obs.counter("serve.http.requests"),
            errors: obs.counter("serve.http.errors"),
            accept_shed: obs.counter("serve.accept.shed"),
            parse_errors: obs.counter("serve.request.parse_errors"),
            reload_swaps: obs.counter("serve.reload.swaps"),
            reload_deltas: obs.counter("serve.reload.deltas"),
            follow_chunks: obs.counter("serve.follow.chunks"),
            follow_bytes: obs.counter("serve.follow.bytes"),
            follow_errors: obs.counter("serve.follow.errors"),
            follow_lag: obs.gauge("serve.follow.lag_bytes"),
            follow_notified: obs.counter("serve.follow.wakes.notified"),
            follow_timed_out: obs.counter("serve.follow.wakes.timed_out"),
            follow_watching: obs.gauge("serve.follow.watching"),
            checkpoints: obs.counter("serve.checkpoints"),
            checkpoint_coalesced: obs.counter("serve.checkpoint.coalesced"),
            checkpoint_errors: obs.counter("serve.checkpoint.errors"),
            checkpoint_dirty: obs.gauge("serve.checkpoint.dirty_bytes"),
            checkpoint_ms: obs.histogram("serve.checkpoint.ms"),
            checkpoint_hold_us: obs.histogram("serve.checkpoint.hold_us"),
        }
    }
}

/// Everything the HTTP workers, the log follower, and the reload path
/// share. One instance per daemon, behind an `Arc`.
pub struct AppState {
    /// The live clustering view, log cursor included. Queries and
    /// snapshot exports take the read half; the follower and reloads take
    /// the write half.
    pub stream: RwLock<StreamingClustering>,
    /// Crash-safe persistence, when `--state-dir` is set: the state store
    /// and the follower's line to the checkpointer thread.
    pub checkpointer: Option<Checkpointer>,
    /// The daemon-wide observability registry (`/metrics` snapshots it).
    pub obs: Obs,
    /// Pre-resolved `serve.*` handles.
    pub metrics: ServeObs,
    /// Whether `/metrics` snapshots deterministically (no wall-clock
    /// spans), for byte-stable output under `--deterministic`.
    pub deterministic: bool,
    /// Default `n` for `/v1/clusters/top`.
    pub top_default: usize,
    /// Thresholds for `/v1/verdict`.
    pub verdict: VerdictPolicy,
    /// Monotonic index for journaled reload batches.
    pub feed_index: AtomicU64,
}

/// Routes one request. Infallible: every failure mode is an HTTP error
/// response, never a panic.
pub fn handle(state: &AppState, req: &HttpRequest) -> HttpResponse {
    state.metrics.requests.inc();
    let resp = route(state, req);
    if resp.status >= 400 {
        state.metrics.errors.inc();
    }
    resp
}

const KNOWN_PATHS: &[&str] = &[
    "/healthz",
    "/metrics",
    "/v1/cluster",
    "/v1/clusters/top",
    "/v1/verdict",
    "/v1/reload",
];

fn route(state: &AppState, req: &HttpRequest) -> HttpResponse {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/healthz") => health(state),
        (Method::Get, "/metrics") => metrics(state),
        (Method::Get, "/v1/cluster") => cluster(state, req),
        (Method::Get, "/v1/clusters/top") => top(state, req),
        (Method::Get, "/v1/verdict") => verdict(state, req),
        (Method::Post, "/v1/reload") => reload(state, req),
        (_, path) if KNOWN_PATHS.contains(&path) => HttpResponse::json(
            405,
            json::error_body("method not allowed for this endpoint"),
        ),
        _ => HttpResponse::json(404, json::error_body("no such endpoint")),
    }
}

/// Read-locks the stream or produces the 500 every endpoint shares.
macro_rules! read_stream {
    ($state:expr) => {
        match $state.stream.read() {
            Ok(guard) => guard,
            Err(_) => return HttpResponse::json(500, json::error_body("state lock poisoned")),
        }
    };
}

fn health(state: &AppState) -> HttpResponse {
    let stream = read_stream!(state);
    HttpResponse::json(
        200,
        json::health_body(
            stream.table_version(),
            stream.total_requests(),
            stream.len() as u64,
        ),
    )
}

fn metrics(state: &AppState) -> HttpResponse {
    // What the process holds as of this snapshot. Read from the kernel,
    // so not a function of the input: left out of `--deterministic`
    // output like every clock-derived value.
    if !state.deterministic {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let bytes = |key| status_kb(&status, key).map(|kb| kb.saturating_mul(1024));
        let rss = bytes("VmRSS:");
        for (name, value) in [
            ("process.rss_bytes", rss),
            ("process.hwm_bytes", bytes("VmHWM:")),
        ] {
            if let Some(value) = value {
                state.obs.gauge(name).set(value);
            }
        }
        // Where the resident set goes: each store the stream grows, as its
        // elements × element size, and what neither they nor the table
        // (`lpm.table_bytes`, the same gauge the stream publishes) account
        // for.
        if let Ok(memory) = state.stream.read().map(|stream| stream.memory()) {
            let stores = [
                ("mem.client_records_bytes", memory.client_records),
                ("mem.address_map_bytes", memory.address_map),
                ("mem.aggregates_bytes", memory.aggregates),
                ("mem.patch_state_bytes", memory.patch_state),
            ];
            let mut attributed = state.obs.gauge("lpm.table_bytes").get();
            for (name, value) in stores {
                state.obs.gauge(name).set(value as u64);
                attributed += value as u64;
            }
            if let Some(rss) = rss {
                let rest = rss.saturating_sub(attributed);
                state.obs.gauge("mem.unattributed_bytes").set(rest);
            }
        }
    }
    HttpResponse::json(200, state.obs.snapshot(state.deterministic).to_json())
}

/// The value of a `Key:   123 kB` line of `/proc/<pid>/status`.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    line.split_ascii_whitespace().next()?.parse().ok()
}

fn ip_param(req: &HttpRequest) -> Result<Ipv4Addr, HttpResponse> {
    let Some(raw) = req.query_param("ip") else {
        return Err(HttpResponse::json(
            400,
            json::error_body("query parameter ip is required"),
        ));
    };
    raw.parse()
        .map_err(|_| HttpResponse::json(400, json::error_body("ip is not a valid IPv4 address")))
}

fn cluster(state: &AppState, req: &HttpRequest) -> HttpResponse {
    let ip = match ip_param(req) {
        Ok(ip) => ip,
        Err(resp) => return resp,
    };
    let stream = read_stream!(state);
    HttpResponse::json(200, stream.lookup(ip).to_json())
}

fn verdict(state: &AppState, req: &HttpRequest) -> HttpResponse {
    let ip = match ip_param(req) {
        Ok(ip) => ip,
        Err(resp) => return resp,
    };
    let stream = read_stream!(state);
    HttpResponse::json(200, stream.verdict(ip, &state.verdict).to_json())
}

fn top(state: &AppState, req: &HttpRequest) -> HttpResponse {
    let n = match req.query_param("n") {
        None => state.top_default,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n.min(10_000),
            Err(_) => {
                return HttpResponse::json(400, json::error_body("n is not a non-negative integer"))
            }
        },
    };
    let stream = read_stream!(state);
    HttpResponse::json(200, top_to_json(&stream.top(n)))
}

/// `POST /v1/reload`: `?table=a,b&dump=c` re-reads those files and drives
/// the validated [`StreamingClustering::try_swap`] gate; otherwise the
/// body is an `announce|withdraw|replace PREFIX` feed driven through
/// [`StreamingClustering::apply_deltas`]. Either way the old generation
/// keeps serving on rejection. Files are read, parsed and merged before
/// the stream's write lock is taken; the candidate is compiled or patched,
/// gated and published inside it, so concurrent queries wait for a reload
/// as long as that takes.
fn reload(state: &AppState, req: &HttpRequest) -> HttpResponse {
    let table_param = req.query_param("table");
    let dump_param = req.query_param("dump");
    if table_param.is_some() || dump_param.is_some() {
        state.metrics.reload_swaps.inc();
        reload_swap(state, table_param, dump_param)
    } else if !req.body.is_empty() {
        state.metrics.reload_deltas.inc();
        reload_deltas(state, &req.body)
    } else {
        HttpResponse::json(
            400,
            json::error_body("reload wants ?table=/?dump= paths or a delta body"),
        )
    }
}

fn reload_swap(
    state: &AppState,
    table_param: Option<&str>,
    dump_param: Option<&str>,
) -> HttpResponse {
    let paths = |list: Option<&str>| -> Vec<String> {
        let items = list.unwrap_or_default().split(',');
        items.filter(|p| !p.is_empty()).map(String::from).collect()
    };
    let tables = match load_tables(&paths(table_param), &paths(dump_param)) {
        Ok(tables) => tables,
        Err(e) => return HttpResponse::json(400, json::error_body(&e.to_string())),
    };
    if tables.is_empty() {
        return HttpResponse::json(400, json::error_body("no readable tables in reload"));
    }
    let mut noise = ErrorCounts::default();
    tables.iter().for_each(|(_, counts)| noise.merge(*counts));
    let merged = MergedTable::merge(tables.iter().map(|(table, _)| table));

    let mut stream = match state.stream.write() {
        Ok(guard) => guard,
        Err(_) => return HttpResponse::json(500, json::error_body("state lock poisoned")),
    };
    let report = stream.try_swap(merged, noise);
    drop(stream);
    if report.accepted {
        // A swap changes the serving table wholesale; snapshot now so a
        // crash cannot resurrect the old table.
        if let Err(msg) = checkpoint::checkpoint_now(state) {
            return HttpResponse::json(500, json::error_body(&msg));
        }
    }
    HttpResponse::json(
        if report.accepted { 200 } else { 409 },
        json::swap_report_body(&report),
    )
}

fn reload_deltas(state: &AppState, body: &[u8]) -> HttpResponse {
    let deltas = match parse_delta_lines(body) {
        Ok(deltas) => deltas,
        Err(e) => return HttpResponse::json(400, json::error_body(&e.to_string())),
    };
    if deltas.is_empty() {
        return HttpResponse::json(400, json::error_body("delta body held no updates"));
    }

    let report = match checkpoint::apply_journaled(state, &deltas) {
        Ok(report) => report,
        Err(e) => {
            let status = match e {
                ApplyError::Poisoned(_) => 500,
                ApplyError::Journal(_) => 503,
            };
            return HttpResponse::json(status, json::error_body(&e.to_string()));
        }
    };
    HttpResponse::json(
        if report.accepted { 200 } else { 409 },
        json::patch_report_body(&report),
    )
}

/// Why a `/v1/reload` delta body does not parse. Its text is the 400
/// answer's error message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaBodyError {
    /// The body is not UTF-8.
    NotUtf8,
    /// A line (1-based) is not an update.
    Line(usize, DeltaParseError),
}

impl fmt::Display for DeltaBodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaBodyError::NotUtf8 => f.write_str("delta body is not UTF-8"),
            DeltaBodyError::Line(line, e) => write!(f, "line {line}: {e}"),
        }
    }
}

impl std::error::Error for DeltaBodyError {}

/// The message, for callers that report errors as text.
impl From<DeltaBodyError> for String {
    fn from(e: DeltaBodyError) -> String {
        e.to_string()
    }
}

/// Parses one `announce|withdraw|replace PREFIX` feed (blank lines and
/// `#` comments ignored) — the same wire grammar as the CLI's
/// `--bgp-feed` files.
pub fn parse_delta_lines(body: &[u8]) -> Result<Vec<TableDelta>, DeltaBodyError> {
    let text = std::str::from_utf8(body).map_err(|_| DeltaBodyError::NotUtf8)?;
    let batches = parse_feed(text).map_err(|(line, e)| DeltaBodyError::Line(line, e))?;
    Ok(batches.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The answer to a `/v1/reload` of `body` on a daemon with an empty
    /// table.
    fn reload_body(body: &[u8]) -> (u16, String) {
        reload_request(Vec::new(), body)
    }

    /// The answer to a `/v1/reload` with `query` and `body` on a daemon
    /// with an empty table.
    fn reload_request(query: Vec<(String, String)>, body: &[u8]) -> (u16, String) {
        let stream = StreamingClustering::builder(MergedTable::merge(std::iter::empty())).build();
        let state = AppState {
            stream: RwLock::new(stream),
            checkpointer: None,
            obs: Obs::disabled(),
            metrics: ServeObs::default(),
            deterministic: true,
            top_default: 10,
            verdict: VerdictPolicy::default(),
            feed_index: AtomicU64::new(0),
        };
        let req = HttpRequest {
            method: Method::Post,
            path: "/v1/reload".to_string(),
            query,
            keep_alive: false,
            body: body.to_vec(),
        };
        let resp = handle(&state, &req);
        (resp.status, String::from_utf8(resp.body).expect("UTF-8"))
    }

    #[test]
    fn a_bad_delta_body_answers_400_with_the_pinned_message() {
        assert_eq!(
            reload_body(b"announce 10.0.0.0/8\n\xff\n"),
            (400, r#"{"error": "delta body is not UTF-8"}"#.to_string())
        );
        assert_eq!(
            reload_body(b"announce 10.0.0.0/8\n# a comment\nflap 10.1.0.0/16\n"),
            (
                400,
                r#"{"error": "line 3: unknown update \"flap\" (announce|withdraw|replace)"}"#
                    .to_string()
            )
        );
        let e = parse_delta_lines(b"announce 10.0.0.0/33").expect_err("bad prefix");
        let text: String = e.clone().into();
        assert_eq!(text, e.to_string());
        assert_eq!(text, r#"line 1: bad prefix in "announce 10.0.0.0/33""#);
    }

    /// A table file whose content lines are half noise is refused however
    /// many comment lines it carries: blank and comment lines are never
    /// noise, so they cannot dilute the ratio a swap reload budgets (5 %).
    #[test]
    fn comment_lines_do_not_dilute_a_reload_noise_ratio() {
        let dir = netclust_testkit::TempDir::new("netclust-noise");
        let path = dir.join("t.dump");
        let mut text = "# a registry dump\n".repeat(100);
        for i in 0..5 {
            text.push_str(&format!("10.{i}.0.0/16\nnot-a-prefix\n"));
        }
        std::fs::write(&path, text).expect("write dump");
        let dump = path.to_string_lossy().into_owned();
        let (status, body) = reload_request(vec![("dump".to_string(), dump)], b"");
        assert_eq!(status, 409, "{body}");
        assert!(
            body.contains("NoiseOverBudget { ratio: 0.5, budget: 0.05 }"),
            "{body}"
        );
    }
}
