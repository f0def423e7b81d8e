//! The traced pass: the same generated inputs replayed in this process,
//! with a span around every call into a layer's public functions.
//!
//! Six groups, each under a parent span so the children's shares add up
//! and the remainder is a number: `batch` (tables → compile → open →
//! ingest → top), `request` (parse → handle → encode), `catchup` (poll →
//! push → export → checkpoint per 4 MiB chunk), `trickle` (the same for a
//! 50-line append), `reload` (delta parse → journal append → apply) and
//! `recover` (recover → restore → replay → tail). Spans inside the
//! product are a later change.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::{Duration, Instant};

use netclust_core::query::render_top_table;
use netclust_core::{
    ClusterQuery, FsyncPolicy, JournalBatch, RunConfig, StateStore, StreamingClustering, SwapPolicy,
};
use netclust_obs::Obs;
use netclust_rtable::{MergedTable, RoutingTable, TableKind, DEFAULT_PREFETCH_DISTANCE};
use netclust_serve::http::{encode_response, parse_request, Parse};
use netclust_serve::router::{self, parse_delta_lines};
use netclust_serve::{Daemon, ServeConfig};
use netclust_weblog::chunk::{split_lines, LogData};
use netclust_weblog::clf_bytes;
use netclust_weblog::follow::LogFollower;

use crate::blackbox::{Measured, CHURN_LINES_PER_TICK};
use crate::gen::{delta_body, Corpus, QueryKind};
use crate::httpc::Conn;
use crate::stats::median;
use crate::trace::Tracer;

type Res<T> = Result<T, String>;
pub type Layers = BTreeMap<&'static str, f64>;

fn err<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

const MS: f64 = 1e-6;
const US: f64 = 1e-3;
/// `batch` is replayed this many times; each layer reports its median.
const BATCH_OPS: u32 = 3;
/// Requests per `request` block span.
const BLOCK: usize = 1_000;
/// Trickle appends replayed.
const TRICKLES: usize = 200;

fn med(t: &Tracer, name: &str, scale: f64) -> f64 {
    median(&t.durations(name)) * scale
}

/// `batch`: what `netclust cluster` does, call by call.
fn batch(t: &mut Tracer, corpus: &Corpus, log: &Path, out: &mut Layers) -> Res<()> {
    let mut last = None;
    for op in 0..BATCH_OPS {
        let root = t.open("batch", op, None);
        let bgp_text = err("read table", std::fs::read_to_string(&corpus.bgp_path))?;
        let dump_text = err("read table", std::fs::read_to_string(&corpus.dump_path))?;
        let tables = t.timed("rtable.table.parse", root, || {
            let (bgp, _) = RoutingTable::parse("t.bgp", "file", TableKind::Bgp, &bgp_text);
            let (dump, _) =
                RoutingTable::parse("t.dump", "file", TableKind::NetworkDump, &dump_text);
            let n = (bgp.len() + dump.len()) as u64;
            ([bgp, dump], vec![("prefixes", n)])
        });
        let merged = t.timed("rtable.table.merge", root, || {
            (MergedTable::merge(tables.iter()), vec![])
        });
        let compiled = t.timed("rtable.flat.compile", root, || {
            let c = merged.compile();
            let bytes = c.memory_bytes() as u64;
            (c, vec![("bytes", bytes)])
        });
        let data = t.timed("weblog.chunk.open", root, || (LogData::open(log), vec![]));
        let data = err("open log", data)?;
        let report = t.timed("core.ingest.run", root, || {
            let r = RunConfig::new().pipeline(&compiled).run(&data);
            let lines = r.clustering.total_requests;
            (r, vec![("lines", lines), ("bytes", data.len() as u64)])
        });
        t.timed("core.query.top", root, || {
            let rows = report.clustering.top(20);
            (
                black_box(render_top_table(&rows)),
                vec![("rows", rows.len() as u64)],
            )
        });
        t.close(root, &[]);
        out.insert("rtable.flat.table_mb", compiled.memory_bytes() as f64 / 1e6);
        last = Some((compiled, data));
    }
    let (compiled, data) = last.ok_or("no batch op ran")?;
    out.insert("rtable.table.parse_ms", med(t, "rtable.table.parse", MS));
    out.insert("rtable.table.merge_ms", med(t, "rtable.table.merge", MS));
    out.insert("rtable.flat.compile_ms", med(t, "rtable.flat.compile", MS));
    out.insert("core.ingest.run_tn_ms", med(t, "core.ingest.run", MS));
    out.insert("core.query.top_ms", med(t, "core.query.top", MS));
    out.insert("batch.total_ms", med(t, "batch", MS));
    out.insert(
        "trace.batch.unattributed_share",
        t.unattributed_share("batch"),
    );

    // The same work sliced other ways, outside the parent span.
    let lines = clf_bytes::lines(&data).count() as f64;
    let side = t.open("batch.extra", 0, None);
    let parsed = t.timed("weblog.clf_bytes.parse", side, || {
        let n = clf_bytes::records(&data, 1)
            .filter(|r| black_box(r).is_ok())
            .count();
        (n, vec![("lines", n as u64)])
    });
    if parsed as f64 != lines {
        return Err(format!("{parsed} of {lines} lines parse"));
    }
    // Both thread counts on the same warm mapping, so their ratio is the
    // threads' doing; the run inside `batch` also pays the first touch.
    for (name, threads) in [
        ("core.ingest.run_tn_warm", None),
        ("core.ingest.run_t1", Some(1)),
    ] {
        t.timed(name, side, || {
            let mut cfg = RunConfig::new();
            if let Some(n) = threads {
                cfg = cfg.threads(n);
            }
            let r = cfg.pipeline(&compiled).run(&data);
            (black_box(r.clustering.len()), vec![("lines", lines as u64)])
        });
    }
    t.timed("weblog.chunk.split", side, || {
        let chunks = split_lines(&data, 1 << 20).len();
        ((), vec![("chunks", chunks as u64)])
    });
    let mut clients: Vec<u32> = corpus.reqs[..corpus.boot_lines]
        .iter()
        .map(|r| r.addr)
        .collect();
    clients.sort_unstable();
    clients.dedup();
    let mut nets = vec![None; clients.len()];
    t.timed("rtable.flat.lookup", side, || {
        for _ in 0..8 {
            compiled.net_for_slice(&clients, &mut nets, DEFAULT_PREFETCH_DISTANCE);
            black_box(&nets);
        }
        ((), vec![("lookups", 8 * clients.len() as u64)])
    });
    t.close(side, &[]);
    let parse_ms = med(t, "weblog.clf_bytes.parse", MS);
    let t1_ms = med(t, "core.ingest.run_t1", MS);
    out.insert("weblog.clf_bytes.parse_ns_line", parse_ms / MS / lines);
    out.insert("core.ingest.run_t1_ms", t1_ms);
    out.insert("core.ingest.accumulate_ms", t1_ms - parse_ms);
    out.insert(
        "core.ingest.par_speedup",
        t1_ms / med(t, "core.ingest.run_tn_warm", MS),
    );
    out.insert(
        "weblog.chunk.open_ms",
        med(t, "weblog.chunk.open", MS) + med(t, "weblog.chunk.split", MS),
    );
    out.insert(
        "rtable.flat.lookup_ns",
        med(t, "rtable.flat.lookup", 1.0) / (8 * clients.len()) as f64,
    );
    Ok(())
}

/// `request`: the daemon's read path against an in-process `Daemon`
/// loaded with the log, then one connection's round trips to price the
/// wire.
fn request(t: &mut Tracer, corpus: &Corpus, log: &Path, out: &mut Layers) -> Res<()> {
    let daemon = err(
        "in-process daemon",
        Daemon::start(
            ServeConfig::new()
                .tables(vec![corpus.bgp_path.clone()])
                .dumps(vec![corpus.dump_path.clone()])
                .log(log)
                .poll_interval(Duration::from_millis(10)),
        ),
    )?;
    let state = daemon.state().clone();
    let deadline = Instant::now() + Duration::from_secs(60);
    while state
        .stream
        .read()
        .map_err(|_| "stream lock poisoned")?
        .total_requests()
        < corpus.boot_lines as u64
    {
        if Instant::now() > deadline {
            return Err("in-process daemon never caught up".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    for (op, block) in corpus.queries.chunks(BLOCK).take(20).enumerate() {
        let root = t.open("request", op as u32, None);
        let requests = t.timed("serve.http.parse", root, || {
            let parsed: Vec<_> = block
                .iter()
                .filter_map(|q| match parse_request(&q.wire) {
                    Parse::Complete { request, .. } => Some(request),
                    _ => None,
                })
                .collect();
            let n = parsed.len() as u64;
            (parsed, vec![("requests", n)])
        });
        if requests.len() != block.len() {
            return Err("a generated request does not parse".to_string());
        }
        // Handled kind by kind so each endpoint has its own span.
        let mut responses = Vec::with_capacity(block.len());
        for (name, kind) in [
            ("serve.router.cluster", QueryKind::Cluster),
            ("serve.router.verdict", QueryKind::Verdict),
            ("serve.router.top", QueryKind::Top),
        ] {
            let handled = t.timed(name, root, || {
                let r: Vec<_> = block
                    .iter()
                    .zip(&requests)
                    .filter(|(q, _)| q.kind == kind)
                    .map(|(_, req)| router::handle(&state, req))
                    .collect();
                let n = r.len() as u64;
                (r, vec![("requests", n)])
            });
            responses.extend(handled);
        }
        t.timed("serve.http.encode", root, || {
            let mut bytes = 0u64;
            for r in &responses {
                bytes += black_box(encode_response(r, true)).len() as u64;
            }
            (
                (),
                vec![("requests", responses.len() as u64), ("bytes", bytes)],
            )
        });
        t.close(root, &[]);
    }
    let per = |t: &Tracer, name: &str| {
        t.durations(name).iter().sum::<f64>() / t.count(name, "requests").max(1) as f64
    };
    let parse_ns = per(t, "serve.http.parse");
    let encode_ns = per(t, "serve.http.encode");
    let cluster_ns = per(t, "serve.router.cluster");
    out.insert("serve.http.parse_ns", parse_ns);
    out.insert("serve.router.cluster_ns", cluster_ns);
    out.insert("serve.router.verdict_ns", per(t, "serve.router.verdict"));
    out.insert("serve.router.top_us", per(t, "serve.router.top") * US);
    out.insert("serve.http.encode_ns", encode_ns);
    out.insert(
        "trace.request.unattributed_share",
        t.unattributed_share("request"),
    );

    // Below the router: the query trait and its JSON, the top-k scan and
    // the wait-free pinned read the daemon does not use yet.
    let side = t.open("request.extra", 0, None);
    let points: Vec<u32> = corpus
        .queries
        .iter()
        .filter(|q| q.kind == QueryKind::Cluster)
        .take(20_000)
        .map(|q| q.addr)
        .collect();
    {
        let stream = state.stream.read().map_err(|_| "stream lock poisoned")?;
        let answers = t.timed("core.query.lookup", side, || {
            let a: Vec<_> = points
                .iter()
                .map(|&p| stream.lookup(Ipv4Addr::from(p)))
                .collect();
            (a, vec![("lookups", points.len() as u64)])
        });
        t.timed("core.query.json", side, || {
            for a in &answers {
                black_box(a.to_json());
            }
            ((), vec![("answers", answers.len() as u64)])
        });
        t.timed("core.stream.top_k", side, || {
            for _ in 0..20 {
                black_box(stream.top_k(10));
            }
            ((), vec![("calls", 20)])
        });
        let handle = stream.handle();
        t.timed("core.epoch.pin", side, || {
            for &p in &points {
                black_box(handle.net_for_u32(p));
            }
            ((), vec![("lookups", points.len() as u64)])
        });
    }
    t.close(side, &[]);
    let n = points.len() as f64;
    out.insert("core.query.lookup_ns", med(t, "core.query.lookup", 1.0) / n);
    out.insert("core.query.json_ns", med(t, "core.query.json", 1.0) / n);
    out.insert(
        "core.stream.top_k_us",
        med(t, "core.stream.top_k", US) / 20.0,
    );
    out.insert("core.epoch.pin_ns", med(t, "core.epoch.pin", 1.0) / n);

    // One connection, closed loop, point lookups only: what the socket
    // loop adds on top of parse + handle + encode.
    let mut conn = err("connect", Conn::connect(daemon.local_addr()))?;
    let mut trips = Vec::with_capacity(20_000);
    for q in corpus
        .queries
        .iter()
        .filter(|q| q.kind == QueryKind::Cluster)
        .take(20_000)
    {
        let sent = Instant::now();
        let (status, _) = err("round trip", conn.round_trip(&q.wire))?;
        trips.push(sent.elapsed().as_nanos() as f64);
        if status != 200 {
            return Err(format!("in-process daemon answered {status}"));
        }
    }
    drop(conn);
    out.insert(
        "serve.daemon.wire_us",
        (median(&trips) - (parse_ns + cluster_ns + encode_ns)) * US,
    );
    err("in-process daemon shutdown", daemon.shutdown())
}

/// One follower turn as the daemon takes it: poll, push, then the
/// checkpoint that follows every chunk (and every trickle, once the log
/// goes idle). `names` are the four span names; `false` when the log had
/// nothing new.
fn turn(
    t: &mut Tracer,
    root: usize,
    names: [&'static str; 4],
    follower: &mut LogFollower,
    stream: &mut StreamingClustering,
    store: &mut StateStore,
) -> Res<bool> {
    let chunk = t.timed(names[0], root, || {
        let c = follower.poll();
        let bytes = c.as_ref().ok().and_then(|c| c.as_ref()).map_or(0, Vec::len);
        (c, vec![("bytes", bytes as u64)])
    });
    let Some(chunk) = err("poll", chunk)? else {
        return Ok(false);
    };
    t.timed(names[1], root, || {
        let before = stream.total_requests();
        let bad = stream.push_clf(&chunk).len();
        (bad, vec![("lines", stream.total_requests() - before)])
    });
    let mut state = t.timed(names[2], root, || {
        let s = stream.export_state();
        let clients = s.per_client.len() as u64;
        (s, vec![("clients", clients)])
    });
    state.feed_pos = follower.offset();
    let written = t.timed(names[3], root, || (store.checkpoint(&state), vec![]));
    err("checkpoint", written)?;
    Ok(true)
}

/// The write side as the daemon's follower and reload path drive it, and
/// then recovery from the state it leaves behind.
fn write_side(
    t: &mut Tracer,
    corpus: &Corpus,
    log: &Path,
    dir: &Path,
    journaled: usize,
    out: &mut Layers,
) -> Res<()> {
    let tables = [
        RoutingTable::new("t.bgp", "file", TableKind::Bgp, corpus.bgp.clone()),
        RoutingTable::new(
            "t.dump",
            "file",
            TableKind::NetworkDump,
            corpus.dump.clone(),
        ),
    ];
    let mut stream = RunConfig::new().streaming(MergedTable::merge(tables.iter()));
    let mut store = err(
        "create state dir",
        StateStore::create(dir, FsyncPolicy::EveryBatch),
    )?;
    let mut follower = LogFollower::new(log);

    let catchup = [
        "weblog.follow.poll",
        "core.stream.push_clf",
        "core.stream.export",
        "core.persist.checkpoint",
    ];
    let root = t.open("catchup", 0, None);
    while turn(t, root, catchup, &mut follower, &mut stream, &mut store)? {}
    t.close(root, &[]);
    if stream.total_requests() != corpus.boot_lines as u64 {
        return Err(format!(
            "catch-up applied {} lines",
            stream.total_requests()
        ));
    }
    let poll_s: f64 = t.durations("weblog.follow.poll").iter().sum::<f64>() * 1e-9;
    let push_ns: f64 = t.durations("core.stream.push_clf").iter().sum();
    out.insert(
        "weblog.follow.poll_mb_s",
        corpus.boot_bytes as f64 / 1e6 / poll_s,
    );
    out.insert(
        "core.stream.push_clf_ns_line",
        push_ns / corpus.boot_lines as f64,
    );
    out.insert("core.stream.export_ms", med(t, "core.stream.export", MS));
    out.insert(
        "core.persist.checkpoint_ms",
        med(t, "core.persist.checkpoint", MS),
    );
    let snapshot = store.snapshot_path(store.generation());
    let snapshot_bytes = err("snapshot size", std::fs::metadata(&snapshot))?.len();
    out.insert("core.persist.snapshot_mb", snapshot_bytes as f64 / 1e6);
    out.insert(
        "trace.catchup.unattributed_share",
        t.unattributed_share("catchup"),
    );

    let trickle = [
        "weblog.follow.poll_small",
        "core.stream.push_small",
        "core.stream.export_small",
        "core.persist.checkpoint_small",
    ];
    let mut file = err(
        "open log",
        std::fs::OpenOptions::new().append(true).open(log),
    )?;
    for op in 0..TRICKLES.min(corpus.churn.count() / CHURN_LINES_PER_TICK) {
        let from = op * CHURN_LINES_PER_TICK;
        err(
            "append",
            file.write_all(corpus.churn.slice(from, from + CHURN_LINES_PER_TICK)),
        )?;
        let root = t.open("trickle", op as u32, None);
        let fed = turn(t, root, trickle, &mut follower, &mut stream, &mut store)?;
        t.close(root, &[]);
        if !fed {
            return Err("a trickle append was not seen by the follower".to_string());
        }
    }
    let small_turn_us: f64 = trickle.iter().map(|n| med(t, n, US)).sum();
    out.insert(
        "weblog.follow.poll_small_us",
        med(t, "weblog.follow.poll_small", US),
    );
    out.insert(
        "core.stream.push_small_us",
        med(t, "core.stream.push_small", US),
    );
    out.insert(
        "trace.trickle.unattributed_share",
        t.unattributed_share("trickle"),
    );

    // `reload`: what POST /v1/reload does with a delta body, the batches
    // left journaled (not snapshotted) as before the crash.
    let mut reassigned = 0u64;
    let journaled_from = corpus.batches.len().saturating_sub(journaled);
    for (op, batch) in corpus.batches.iter().enumerate() {
        if op == journaled_from {
            // Everything so far is snapshotted; the rest stays in the
            // journal, as in the state the black-box crash leaves.
            let mut state = stream.export_state();
            state.feed_pos = follower.offset();
            err("checkpoint", store.checkpoint(&state))?;
        }
        let body = delta_body(batch);
        let root = t.open("reload", op as u32, None);
        let deltas = t.timed("serve.router.delta_parse", root, || {
            (
                parse_delta_lines(&body),
                vec![("deltas", batch.len() as u64)],
            )
        });
        let deltas = deltas?;
        let appended = t.timed("core.persist.append", root, || {
            let r = store.append_batch(&JournalBatch {
                feed_index: op as u64,
                session_reset: false,
                deltas: deltas.clone(),
            });
            (r, vec![])
        });
        err("journal append", appended)?;
        let report = t.timed("core.stream.apply_deltas", root, || {
            let r = stream.apply_deltas(&deltas);
            (
                r,
                vec![
                    ("deltas", deltas.len() as u64),
                    ("reassigned", r.reassigned_clients as u64),
                ],
            )
        });
        t.close(root, &[]);
        if !report.accepted {
            return Err(format!("delta batch {op} rejected: {:?}", report.rejection));
        }
        reassigned += report.reassigned_clients as u64;
    }
    out.insert(
        "serve.router.delta_parse_us",
        med(t, "serve.router.delta_parse", US),
    );
    out.insert("core.persist.append_us", med(t, "core.persist.append", US));
    out.insert(
        "core.stream.apply_deltas_ms",
        med(t, "core.stream.apply_deltas", MS),
    );
    out.insert("core.stream.reassigned_clients", reassigned as f64);
    out.insert(
        "trace.reload.unattributed_share",
        t.unattributed_share("reload"),
    );

    // The table patch alone, on an owned table: the floor under a reload.
    let mut owned = MergedTable::merge(tables.iter()).compile();
    let side = t.open("reload.extra", 0, None);
    for (i, batch) in corpus.batches.iter().enumerate() {
        let name = if i == 0 {
            "rtable.patch.first"
        } else {
            "rtable.patch.apply"
        };
        t.timed(name, side, || {
            (
                black_box(owned.apply_delta(batch)),
                vec![("deltas", batch.len() as u64)],
            )
        });
    }
    t.close(side, &[]);
    drop(owned);
    let patch_us = med(t, "rtable.patch.apply", US);
    out.insert("rtable.patch.first_ms", med(t, "rtable.patch.first", MS));
    out.insert("rtable.patch.apply_us", patch_us);
    out.insert(
        "core.stream.apply_other_ms",
        out["core.stream.apply_deltas_ms"] - patch_us * 1e-3,
    );
    // At the churn rates the follower takes about one small turn per
    // 10 ms poll and a batch lands every 2 s: the share of wall time some
    // writer-side call is running.
    out.insert(
        "core.stream.write_hold_share",
        small_turn_us * 1e-6 * 100.0 + out["core.stream.apply_deltas_ms"] * 1e-3 / 2.0,
    );

    // `recover`: the process died here; the log kept growing.
    drop(stream);
    drop(store);
    err("append tail", file.write_all(&corpus.tail.bytes))?;
    drop(file);
    let root = t.open("recover", 0, None);
    let recovered = t.timed("core.persist.recover", root, || {
        (StateStore::recover(dir, FsyncPolicy::EveryBatch), vec![])
    });
    let (_store, state, report) = err("recover", recovered)?;
    let restored = t.timed("core.stream.restore", root, || {
        let r = StreamingClustering::restore(&state, SwapPolicy::default(), Obs::disabled());
        (r, vec![("clients", state.per_client.len() as u64)])
    });
    let mut stream = err("restore", restored)?;
    t.timed("core.stream.replay", root, || {
        for b in &report.batches {
            black_box(stream.apply_deltas(&b.deltas));
        }
        ((), vec![("batches", report.batches.len() as u64)])
    });
    if report.batches.len() != corpus.batches.len() - journaled_from {
        return Err(format!(
            "recovered {} journaled batches",
            report.batches.len()
        ));
    }
    t.timed("weblog.follow.tail", root, || {
        let mut follower = LogFollower::resume_at(log, state.feed_pos);
        let before = stream.total_requests();
        while let Ok(Some(chunk)) = follower.poll() {
            stream.push_clf(&chunk);
        }
        ((), vec![("lines", stream.total_requests() - before)])
    });
    t.close(root, &[]);
    let want = (corpus.boot_lines
        + TRICKLES.min(corpus.churn.count() / CHURN_LINES_PER_TICK) * CHURN_LINES_PER_TICK
        + corpus.tail.count()) as u64;
    if stream.total_requests() != want {
        return Err(format!(
            "recovered view holds {} of {want} lines",
            stream.total_requests()
        ));
    }
    out.insert(
        "core.persist.recover_ms",
        med(t, "core.persist.recover", MS),
    );
    out.insert("core.stream.restore_ms", med(t, "core.stream.restore", MS));
    out.insert("core.stream.replay_ms", med(t, "core.stream.replay", MS));
    out.insert("weblog.follow.tail_ms", med(t, "weblog.follow.tail", MS));
    out.insert(
        "trace.recover.unattributed_share",
        t.unattributed_share("recover"),
    );
    Ok(())
}

/// Runs every group over `log` (a private copy of the boot log, which the
/// pass appends to) and folds the spans into the per-layer metrics. The
/// remainders are what the black-box medians leave unexplained.
pub fn run(
    corpus: &Corpus,
    log: &Path,
    state_dir: &Path,
    journaled: usize,
    blackbox: &Measured,
) -> Res<(Layers, Tracer)> {
    let mut t = Tracer::new();
    let mut out = Layers::new();
    batch(&mut t, corpus, log, &mut out)?;
    request(&mut t, corpus, log, &mut out)?;
    write_side(&mut t, corpus, log, state_dir, journaled, &mut out)?;
    out.insert(
        "cli.process_other_ms",
        blackbox.get("cli_wall_ms") - out["batch.total_ms"],
    );
    out.insert(
        "serve.daemon.resume_other_ms",
        blackbox.get("recover_answer_s") * 1e3
            - (out["rtable.table.parse_ms"]
                + out["core.persist.recover_ms"]
                + out["core.stream.restore_ms"]
                + out["core.stream.replay_ms"]),
    );
    Ok((out, t))
}
