//! End-to-end tests for `netclustd`: the full service loop — boot from
//! table files, tail a growing access log, answer the query API over
//! real sockets, reload live, survive SIGKILL and resume from the
//! persisted state, shut down gracefully on SIGTERM.
//!
//! In-process tests drive [`netclust_serve::Daemon`] directly (fast, and
//! the fault-injection tests need the in-process metrics handles); the
//! crash/resume test runs the real `netclustd` binary via
//! `CARGO_BIN_EXE_netclustd`.

use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use netclust_core::{failpoints, FaultPlan};
use netclust_netgen::{generate, standard_collection, to_clf, LogSpec, Universe, UniverseConfig};
use netclust_rtable::TableKind;
use netclust_serve::{Daemon, ServeConfig};
use netclust_testkit::{get, json_u64, wait_for, wait_for_port, Client, KillOnDrop, TempDir};

/// Synthesizes a corpus on disk: routing-table files, a CLF access log,
/// and the facts the assertions need.
struct Fixture {
    dir: TempDir,
    tables: Vec<PathBuf>,
    dumps: Vec<PathBuf>,
    log: PathBuf,
    clf: String,
    total_requests: u64,
    a_client: Ipv4Addr,
}

fn fixture(name: &str, seed: u64) -> Fixture {
    fixture_of(name, seed, 3_000)
}

fn fixture_of(name: &str, seed: u64, requests: u64) -> Fixture {
    let dir = TempDir::new(&format!("netclustd-e2e-{name}"));
    let universe = Universe::generate(UniverseConfig::small(seed));
    let mut tables = Vec::new();
    let mut dumps = Vec::new();
    for table in standard_collection(&universe, 0, 0) {
        let ext = match table.kind {
            TableKind::Bgp => "bgp",
            TableKind::NetworkDump => "dump",
        };
        let path = dir.join(format!(
            "{}.{ext}",
            table.name.to_lowercase().replace(['&', '-', ' '], "_")
        ));
        let body: String = table.prefixes().iter().map(|p| format!("{p}\n")).collect();
        std::fs::write(&path, body).expect("write table");
        match table.kind {
            TableKind::Bgp => tables.push(path),
            TableKind::NetworkDump => dumps.push(path),
        }
    }
    let mut spec = LogSpec::tiny(name, seed);
    spec.total_requests = requests;
    let log = generate(&universe, &spec);
    let text = to_clf(&log);
    let a_client = log.requests.first().expect("nonempty log").client_addr();
    let log_path = dir.join("access.log");
    Fixture {
        dir,
        tables,
        dumps,
        log: log_path,
        clf: text,
        total_requests: log.requests.len() as u64,
        a_client,
    }
}

fn path_list(paths: &[PathBuf]) -> String {
    paths
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join(",")
}

fn base_config(fx: &Fixture) -> ServeConfig {
    ServeConfig::new()
        .tables(fx.tables.clone())
        .dumps(fx.dumps.clone())
        .poll_interval(Duration::from_millis(20))
}

#[test]
fn the_full_api_answers_over_one_keep_alive_connection() {
    let fx = fixture("api", 11);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let daemon = Daemon::start(base_config(&fx).log(&fx.log)).expect("boot");
    let addr = daemon.local_addr();
    let want = fx.total_requests;
    wait_for("log ingested", || {
        get(addr, "/healthz")
            .1
            .contains(&format!("\"total_requests\": {want}"))
    });

    // Every endpoint, pipelined over one socket.
    let mut c = Client::connect(addr);
    let (status, body) = c.send("GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""), "{body}");

    let (status, body) = c.send("GET", &format!("/v1/cluster?ip={}", fx.a_client), None);
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"ip\": \"{}\"", fx.a_client)),
        "{body}"
    );
    assert!(body.contains("\"cluster\""), "{body}");

    let (status, body) = c.send("GET", "/v1/clusters/top?n=5", None);
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"clusters\": ["), "{body}");

    let (status, body) = c.send("GET", &format!("/v1/verdict?ip={}", fx.a_client), None);
    assert_eq!(status, 200);
    assert!(body.contains("\"class\""), "{body}");

    let (status, body) = c.send("GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(body.contains("serve.http.requests"), "{body}");
    assert!(body.contains("serve.follow.chunks"), "{body}");
    if cfg!(target_os = "linux") {
        // What the process holds, read when the snapshot is taken.
        let (rss, hwm) = (
            json_u64(&body, "process.rss_bytes"),
            json_u64(&body, "process.hwm_bytes"),
        );
        assert!(0 < rss && rss <= hwm, "rss {rss}, high-water mark {hwm}");
    }

    // Error surface, still on the same socket.
    let (status, _) = c.send("GET", "/v1/cluster", None);
    assert_eq!(status, 400, "missing ip");
    let (status, _) = c.send("GET", "/v1/cluster?ip=not-an-ip", None);
    assert_eq!(status, 400, "bad ip");
    let (status, _) = c.send("GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = c.send("GET", "/v1/reload", None);
    assert_eq!(status, 405, "reload is POST-only");

    // `c` is still open: it holds one worker waiting on it, another waits
    // on the listener and the rest for their turn at it. Shutdown wakes
    // both waits.
    let asked = Instant::now();
    daemon.shutdown().expect("clean shutdown");
    let took = asked.elapsed();
    assert!(took < Duration::from_millis(500), "shutdown took {took:?}");
}

/// The stop wakes every wait: a follower whose next look is a minute away,
/// a worker holding an idle keep-alive connection, the acceptor and the
/// checkpointer all end theirs, and the final checkpoint is written.
#[test]
fn shutdown_ends_every_wait_at_once() {
    let fx = fixture("stop", 47);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let state_dir = fx.dir.join("state");
    let args = [
        "--table".to_string(),
        path_list(&fx.tables),
        "--dump".to_string(),
        path_list(&fx.dumps),
        "--log".to_string(),
        fx.log.display().to_string(),
        "--state-dir".to_string(),
        state_dir.display().to_string(),
        "--poll-ms".to_string(),
        "60000".to_string(),
    ];
    let config = ServeConfig::from_args(&args).expect("flags");
    let daemon = Daemon::start(config).expect("boot");
    let addr = daemon.local_addr();
    let mut idle = Client::connect(addr);
    let want = format!("\"total_requests\": {}", fx.total_requests);
    wait_for("log ingested", || {
        idle.send("GET", "/healthz", None).1.contains(&want)
    });
    let before = snapshots(&state_dir);

    let asked = Instant::now();
    daemon.shutdown().expect("clean shutdown");
    let took = asked.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    assert!(snapshots(&state_dir) > before, "no final checkpoint");
    assert_eq!(tmp_files(&state_dir), Vec::<String>::new());
}

#[test]
fn the_follower_feeds_appended_lines_into_the_live_view() {
    let fx = fixture("follow", 13);
    std::fs::write(&fx.log, "").expect("create empty log");
    let daemon = Daemon::start(base_config(&fx).log(&fx.log)).expect("boot");
    let addr = daemon.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"total_requests\": 0"), "{body}");

    // Append the corpus in two pieces, torn mid-line at the seam: the
    // follower must hold the torn tail until the rest arrives.
    let bytes = fx.clf.as_bytes();
    let cut = bytes.len() / 2;
    let cut = cut + bytes[cut..].iter().position(|&b| b == b'\n').unwrap_or(0) / 2;
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&fx.log)
            .expect("open log");
        f.write_all(&bytes[..cut]).expect("first half");
        f.sync_all().expect("sync");
        std::thread::sleep(Duration::from_millis(120));
        f.write_all(&bytes[cut..]).expect("second half");
    }
    let want = fx.total_requests;
    wait_for("all appended lines ingested", || {
        get(addr, "/healthz")
            .1
            .contains(&format!("\"total_requests\": {want}"))
    });
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn reload_applies_deltas_and_swaps_tables() {
    let fx = fixture("reload", 17);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let daemon = Daemon::start(base_config(&fx).log(&fx.log)).expect("boot");
    let addr = daemon.local_addr();
    let want = fx.total_requests;
    wait_for("log ingested", || {
        get(addr, "/healthz")
            .1
            .contains(&format!("\"total_requests\": {want}"))
    });

    // Delta reload: announcing a fresh prefix is always coverage-safe.
    let mut c = Client::connect(addr);
    let (status, body) = c.send(
        "POST",
        "/v1/reload",
        Some("# live feed\nannounce 10.99.0.0/16\n"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"mode\": \"deltas\""), "{body}");
    assert!(body.contains("\"accepted\": true"), "{body}");

    // Full-table swap back to the same files: a no-op candidate passes
    // every validation gate.
    let target = format!(
        "/v1/reload?table={}&dump={}",
        path_list(&fx.tables),
        path_list(&fx.dumps)
    );
    let (status, body) = c.send("POST", &target, None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"mode\": \"swap\""), "{body}");
    assert!(body.contains("\"accepted\": true"), "{body}");

    // Bad inputs answer 400, not a wedged daemon; an unreadable table
    // file is named with the reason it could not be read.
    let (status, body) = c.send("POST", "/v1/reload?table=/nonexistent.bgp", None);
    assert_eq!(status, 400);
    assert_eq!(
        body,
        format!(
            "{{\"error\": \"cannot read table /nonexistent.bgp: {}\"}}",
            missing_file()
        )
    );
    let (status, _) = c.send("POST", "/v1/reload", Some("frobnicate 1.2.3.0/24\n"));
    assert_eq!(status, 400);
    // Two different lengths are invalid framing (RFC 9112 §6.3): the
    // answer is 400 on the wire, not whichever header came last.
    let mut raw = Client::connect(addr);
    let wire = "POST /v1/reload HTTP/1.1\r\nHost: t\r\nContent-Length: 8\r\n\
                Content-Length: 22\r\n\r\nannounce 10.98.0.0/16\n";
    raw.conn.write_all(wire.as_bytes()).expect("send request");
    let (status, body) = raw.read_response();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("content-length"), "{body}");
    // Neither is a length behind whitespace before the colon (RFC 9112
    // §5.1): a skipped header would leave its body to parse as the next
    // request.
    let mut raw = Client::connect(addr);
    let wire = "POST /v1/reload HTTP/1.1\r\nHost: t\r\nContent-Length : 22\r\n\r\n\
                announce 10.97.0.0/16\n";
    raw.conn.write_all(wire.as_bytes()).expect("send request");
    let (status, body) = raw.read_response();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not a token"), "{body}");
    // An HTTP/1.1 request must name its host (RFC 9112 §3.2).
    let mut raw = Client::connect(addr);
    raw.conn
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("send request");
    let (status, body) = raw.read_response();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("missing host header"), "{body}");

    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn the_accept_failpoint_sheds_connections() {
    let fx = fixture("shed", 19);
    let plan = FaultPlan::new(7).with(failpoints::SERVE_ACCEPT, 1.0);
    let daemon = Daemon::start(base_config(&fx).faults(plan)).expect("boot");
    let addr = daemon.local_addr();

    // Every connection is shed before a worker sees it: the socket opens
    // (kernel backlog) and then closes without a byte of response.
    for _ in 0..3 {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let mut out = Vec::new();
        let _ = conn.read_to_end(&mut out);
        assert!(out.is_empty(), "shed connection answered: {out:?}");
    }
    wait_for("shed connections counted", || {
        daemon.state().metrics.accept_shed.get() >= 3
    });
    drop(daemon);
}

/// Two workers, two connections held open: a third and a fourth wait in
/// the listen queue — connected, unanswered — and each is served, in
/// arrival order, as a holder closes.
#[test]
fn waiting_connections_are_served_in_order_as_workers_free_up() {
    let fx = fixture("queue", 43);
    let daemon = Daemon::start(base_config(&fx).http_threads(2)).expect("boot");
    let addr = daemon.local_addr();
    let mut holders: Vec<Client> = (0..2).map(|_| Client::connect(addr)).collect();
    for holder in &mut holders {
        assert_eq!(holder.send("GET", "/healthz", None).0, 200);
    }
    let ask = |target: &str| {
        let mut c = Client::connect(addr);
        let request = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
        c.conn.write_all(request.as_bytes()).expect("send");
        c
    };
    let (mut third, mut fourth) = (ask("/v1/clusters/top?n=1"), ask("/nope"));
    let served = || daemon.state().metrics.requests.get();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(served(), 2, "served with no worker free");

    holders.pop();
    let (status, body) = third.read_response();
    assert!(
        status == 200 && body.starts_with("{\"clusters\": ["),
        "{body}"
    );
    assert_eq!(served(), 3, "the fourth was served with no worker free");
    holders.pop();
    assert_eq!(fourth.read_response().0, 404);
    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn the_parse_failpoint_tears_requests_into_400s() {
    let fx = fixture("torn", 23);
    let plan = FaultPlan::new(7).with(failpoints::SERVE_REQUEST_PARSE, 1.0);
    let daemon = Daemon::start(base_config(&fx).faults(plan)).expect("boot");
    let addr = daemon.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 400, "injected parse fault must answer 400: {body}");
    assert!(body.contains("torn"), "{body}");
    assert!(daemon.state().metrics.parse_errors.get() >= 1);
    drop(daemon);
}

#[test]
fn equal_corpora_render_byte_identical_json() {
    let fx = fixture("determinism", 29);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let mk = || {
        let daemon = Daemon::start(base_config(&fx).log(&fx.log)).expect("boot");
        let addr = daemon.local_addr();
        let want = fx.total_requests;
        wait_for("log ingested", || {
            get(addr, "/healthz")
                .1
                .contains(&format!("\"total_requests\": {want}"))
        });
        let cluster = get(addr, &format!("/v1/cluster?ip={}", fx.a_client)).1;
        let top = get(addr, "/v1/clusters/top?n=20").1;
        let verdict = get(addr, &format!("/v1/verdict?ip={}", fx.a_client)).1;
        daemon.shutdown().expect("clean shutdown");
        (cluster, top, verdict)
    };
    let a = mk();
    let b = mk();
    assert_eq!(
        a, b,
        "two daemons over the same corpus must agree byte-for-byte"
    );
}

/// Why `/nonexistent.bgp` cannot be read, in the words of the OS.
fn missing_file() -> std::io::Error {
    std::fs::read("/nonexistent.bgp").expect_err("no such file")
}

/// A daemon whose table file cannot be read does not start, and says
/// which file and why.
#[test]
fn an_unreadable_table_is_a_config_error() {
    let config = ServeConfig::new().tables(vec![PathBuf::from("/nonexistent.bgp")]);
    let Err(e) = Daemon::start(config) else {
        panic!("booted without a table");
    };
    assert!(matches!(e, netclust_serve::ServeError::Config(_)), "{e:?}");
    let want = format!(
        "config: cannot read table /nonexistent.bgp: {}",
        missing_file()
    );
    assert_eq!(e.to_string(), want);
}

/// The binary's own edges: `--help` is the generated table on stdout and
/// exit 0 wherever it appears; a refused flag is exit 2, named on stderr.
#[test]
fn netclustd_help_and_usage_errors() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_netclustd"))
            .args(args)
            .output();
        let out = out.expect("run netclustd");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), out.stdout, stderr)
    };
    let help = netclust_serve::config::FLAGS.render_help();
    for args in [&["--help"][..], &["--table", "t", "-h"][..]] {
        let (code, stdout, _) = run(args);
        assert_eq!(
            (code, stdout),
            (Some(0), help.clone().into_bytes()),
            "{args:?}"
        );
    }
    for (args, named) in [
        (
            &["--table", "t", "--fsync", "every-batch"][..],
            "every_batch | every_n:<N> | os",
        ),
        (
            &["--table", "t", "--tpo", "5"][..],
            "unknown flag \"--tpo\"",
        ),
        (&["--table", "t", "--top"][..], "--top needs a value"),
        (
            &["--table", "t", "--fault", "swap.compile=1"][..],
            "no such failpoint (there are persist.journal.write, persist.snapshot.rename, \
             persist.fsync, serve.accept, serve.request.parse)",
        ),
        (
            &["--table", "t", "--fault", "serve.accept=nan"][..],
            "--fault got \"serve.accept=nan\": wants a probability from 0 to 1",
        ),
        (
            &["--table", "t", "--http-threads", "0"][..],
            "--http-threads got \"0\"",
        ),
        (&["--top", "5"][..], "--table or --dump is required"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stdout.is_empty() && stderr.contains(named),
            "{args:?}: {stderr}"
        );
    }
}

/// Spawns the real `netclustd` on the fixture with `<dir>/state` as its
/// state dir.
fn spawn_netclustd(fx: &Fixture, port_file: &Path, flags: &[&str], resume: bool) -> KillOnDrop {
    spawn_netclustd_in(fx, &fx.dir.join("state"), port_file, flags, resume)
}

/// [`spawn_netclustd`] with `state` as its state dir.
fn spawn_netclustd_in(
    fx: &Fixture,
    state: &Path,
    port_file: &Path,
    flags: &[&str],
    resume: bool,
) -> KillOnDrop {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_netclustd"));
    cmd.arg("--table")
        .arg(path_list(&fx.tables))
        .arg("--dump")
        .arg(path_list(&fx.dumps))
        .arg("--log")
        .arg(&fx.log)
        .arg("--state-dir")
        .arg(state)
        .arg("--port-file")
        .arg(port_file)
        .args(flags);
    if resume {
        cmd.arg("--resume");
    }
    KillOnDrop(cmd.spawn().expect("spawn netclustd"))
}

/// `kill -TERM`, then the exit status.
fn terminate(daemon: &mut KillOnDrop) -> std::process::ExitStatus {
    signal_term(daemon);
    wait_for("graceful exit", || {
        matches!(daemon.0.try_wait(), Ok(Some(_)))
    });
    daemon.0.wait().expect("wait")
}

fn signal_term(daemon: &KillOnDrop) {
    let status = Command::new("kill")
        .args(["-TERM", &daemon.0.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
}

/// The real binary at `--poll-ms 60000`, with a keep-alive connection
/// open: SIGTERM wakes every wait, so it exits 0 at once rather than at
/// the follower's next look, with a final snapshot and no `.tmp` left.
#[test]
fn a_sigterm_stops_a_slow_polling_daemon_at_once() {
    let fx = fixture("sigterm", 53);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let state_dir = fx.dir.join("state");
    let port = fx.dir.join("port");
    let mut daemon = spawn_netclustd(&fx, &port, &["--poll-ms", "60000"], false);
    let mut idle = Client::connect(wait_for_port(&port));
    let want = format!("\"total_requests\": {}", fx.total_requests);
    wait_for("log ingested", || {
        idle.send("GET", "/healthz", None).1.contains(&want)
    });
    let before = snapshots(&state_dir);

    let asked = Instant::now();
    signal_term(&daemon);
    let exit = loop {
        if let Some(exit) = daemon.0.try_wait().expect("try_wait") {
            break exit;
        }
        assert!(
            asked.elapsed() < Duration::from_secs(5),
            "no exit 5 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let took = asked.elapsed();
    eprintln!("exited {} ms after SIGTERM", took.as_millis());
    assert!(exit.success(), "SIGTERM: {exit:?}");
    assert!(
        took < Duration::from_secs(1),
        "exited {took:?} after SIGTERM"
    );
    assert!(snapshots(&state_dir) > before, "no final checkpoint");
    assert_eq!(tmp_files(&state_dir), Vec::<String>::new());
    drop(idle);
}

/// Out of descriptors, `accept` fails and leaves the connection queued, so
/// the listener stays readable: the acceptor must back off on the stop
/// alone, not spin on the listener. Under `ulimit -n 32` with more workers
/// than descriptors, connections past the limit are each an `EMFILE`;
/// over one second the daemon may use a fifth of a core at most.
#[cfg(target_os = "linux")]
#[test]
fn accept_errors_back_off_instead_of_spinning() {
    let fx = fixture("emfile", 59);
    let port = fx.dir.join("port");
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg("ulimit -n 32 && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_netclustd"))
        .arg("--table")
        .arg(path_list(&fx.tables))
        .arg("--dump")
        .arg(path_list(&fx.dumps))
        .arg("--port-file")
        .arg(&port)
        .args(["--http-threads", "48"]);
    let daemon = KillOnDrop(cmd.spawn().expect("spawn netclustd"));
    let addr = wait_for_port(&port);
    let held: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Every free descriptor taken, the rest of the queue an `EMFILE` each.
    std::thread::sleep(Duration::from_millis(300));
    let cpu = || {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", daemon.0.id())).expect("stat");
        let fields: Vec<u64> = stat
            .rsplit_once(')')
            .expect("comm")
            .1
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        // utime + stime (fields 14 and 15), in clock ticks of 1/100 s.
        Duration::from_millis(10 * (fields[10] + fields[11]))
    };
    let (cpu_before, wall) = (cpu(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let (spent, wall) = (cpu() - cpu_before, wall.elapsed());
    eprintln!("{spent:?} of CPU over {wall:?} out of descriptors");
    assert!(
        spent * 5 < wall,
        "{spent:?} of CPU over {wall:?}: the acceptor spins"
    );

    // Freed descriptors serve again, and the failures were counted.
    drop(held);
    let shed = json_u64(&get(addr, "/metrics").1, "serve.accept.shed");
    assert!(
        shed > 0,
        "no accept failed: the test did not run out of descriptors"
    );
}

/// The real binary: boot with persistence, ingest, SIGKILL mid-flight,
/// resume from the state dir, verify the view survived, then stop
/// gracefully on SIGTERM.
#[test]
fn netclustd_survives_kill_and_resumes_from_its_checkpoint() {
    let fx = fixture("resume", 31);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let flags = [
        "--poll-ms",
        "20",
        "--checkpoint-bytes",
        "1",
        "--deterministic",
    ];

    let port_a = fx.dir.join("port-a");
    let first = spawn_netclustd(&fx, &port_a, &flags, false);
    let addr = wait_for_port(&port_a);
    let want = fx.total_requests;
    wait_for("log ingested", || {
        get(addr, "/healthz")
            .1
            .contains(&format!("\"total_requests\": {want}"))
    });
    // The threshold is one byte, so the checkpointer snapshots as soon as
    // the chunk is applied; wait until the snapshot has hit the disk.
    wait_for("checkpoint written", || {
        get(addr, "/metrics").1.contains("serve.checkpoints")
            && !get(addr, "/metrics").1.contains("\"serve.checkpoints\": 0")
    });
    let top_before = get(addr, "/v1/clusters/top?n=20").1;
    // Under --deterministic /metrics is a function of the input alone:
    // nothing read from the kernel or sized by the allocator.
    let metrics = get(addr, "/metrics").1;
    assert!(!metrics.contains("process."), "{metrics}");
    assert!(!metrics.contains("\"mem."), "{metrics}");

    // The thread model as a checked fact (a child process, so tests running
    // in parallel here cannot disturb the count): main, the default four
    // HTTP workers, follower, checkpointer — and nothing that only accepts.
    // `comm` holds 15 bytes, which cuts the names short.
    if cfg!(target_os = "linux") {
        let tasks = std::fs::read_dir(format!("/proc/{}/task", first.0.id())).expect("tasks");
        let comm = |task: std::io::Result<std::fs::DirEntry>| {
            std::fs::read_to_string(task.ok()?.path().join("comm")).ok()
        };
        let mut names: Vec<String> = tasks.filter_map(comm).collect();
        names.sort();
        let want = "netclustd\nnetclustd-check\nnetclustd-follo\n".to_string()
            + &"netclustd-http-\n".repeat(4);
        assert_eq!(names.concat(), want);
    }

    // SIGKILL: no graceful path, no final checkpoint.
    drop(first);

    let port_b = fx.dir.join("port-b");
    let mut second = spawn_netclustd(&fx, &port_b, &flags, true);
    let addr = wait_for_port(&port_b);
    wait_for("resumed view restored", || {
        get(addr, "/healthz")
            .1
            .contains(&format!("\"total_requests\": {want}"))
    });
    let top_after = get(addr, "/v1/clusters/top?n=20").1;
    assert_eq!(
        top_before, top_after,
        "the resumed daemon must serve the same clusters byte-for-byte"
    );

    // Graceful SIGTERM: exits 0 after its final checkpoint.
    let exit = terminate(&mut second);
    assert!(
        exit.success(),
        "graceful shutdown must exit 0, got {exit:?}"
    );
}

/// `--resume` reads no table file: the snapshot's prefix lists are the
/// table. A state dir resumed twice — once with the table files in place,
/// once with them deleted — answers alike, byte for byte, and the
/// snapshot each resumed daemon writes as it stops is the same file.
#[test]
fn a_resume_reads_no_table_file() {
    let fx = fixture("resume-no-table", 37);
    std::fs::write(&fx.log, &fx.clf).expect("write log");
    let flags = ["--poll-ms", "20", "--deterministic"];
    let state = fx.dir.join("state");
    let port = fx.dir.join("port");
    let mut first = spawn_netclustd(&fx, &port, &flags, false);
    let addr = wait_for_port(&port);
    let want = format!("\"total_requests\": {}", fx.total_requests);
    wait_for("log ingested", || get(addr, "/healthz").1.contains(&want));
    // A patched table: the resumed one is compiled from the live map's
    // list, not from the files.
    let body = "announce 10.99.0.0/16\nwithdraw 10.99.0.0/16\nannounce 10.98.0.0/16\n";
    let (status, _) = Client::connect(addr).send("POST", "/v1/reload", Some(body));
    assert_eq!(status, 200);
    assert!(terminate(&mut first).success());
    let copy = fx.dir.join("state-copy");
    std::fs::create_dir(&copy).expect("copy dir");
    for entry in std::fs::read_dir(&state).expect("state dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, copy.join(path.file_name().expect("a name"))).expect("copy");
    }

    let targets = [
        "/v1/clusters/top?n=20".to_string(),
        format!("/v1/cluster?ip={}", fx.a_client),
        "/v1/cluster?ip=10.98.1.1".to_string(),
        "/healthz".to_string(),
    ];
    let resume = |dir: &Path| {
        let port = dir.with_extension("port");
        let mut daemon = spawn_netclustd_in(&fx, dir, &port, &flags, true);
        let addr = wait_for_port(&port);
        wait_for("resumed", || get(addr, "/healthz").1.contains(&want));
        let answers: Vec<String> = targets.iter().map(|t| get(addr, t).1).collect();
        assert!(terminate(&mut daemon).success());
        let newest = snapshots(dir);
        let snapshot = std::fs::read(dir.join(format!("snapshot-{newest:06}.snap")));
        (answers, newest, snapshot.expect("the stop's snapshot"))
    };
    let with_tables = resume(&state);
    for table in fx.tables.iter().chain(&fx.dumps) {
        std::fs::remove_file(table).expect("delete a table file");
    }
    let without = resume(&copy);
    assert_eq!(with_tables.0, without.0);
    assert_eq!(with_tables.1, without.1);
    assert!(with_tables.2 == without.2, "the snapshots differ");
}

/// The real binary on a disk whose fsyncs fail: `--fault persist.fsync`
/// fails three in ten of the state store's fsyncs once it has booted. The
/// daemon keeps answering, counts the snapshots that failed, and answers a
/// reload 200 only for a batch it can keep: after `kill -9` and `--resume`,
/// every batch it acknowledged is in the recovered table.
#[test]
fn failing_fsyncs_never_lose_an_acknowledged_reload() {
    const RELOADS: usize = 40;
    let fx = fixture("fsync-fault", 61);
    let lines: Vec<&str> = fx.clf.lines().collect();
    let per_turn = lines.len() / (RELOADS + 1);
    let append = |from: usize, to: usize| {
        let mut log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&fx.log)
            .expect("open log");
        for line in &lines[from..to] {
            writeln!(log, "{line}").expect("append");
        }
    };
    append(0, per_turn);
    let mut flags = vec!["--poll-ms", "20", "--checkpoint-bytes", "1"];
    flags.extend(["--deterministic", "--fault-seed", "5"]);
    let port_a = fx.dir.join("port-a");
    let first = spawn_netclustd(
        &fx,
        &port_a,
        &[&flags[..], &["--fault", "persist.fsync=0.3"]].concat(),
        false,
    );
    let addr = wait_for_port(&port_a);
    let mut client = Client::connect(addr);
    let (mut acked, mut refused) = (Vec::new(), 0);
    for i in 0..RELOADS {
        // The log moves between reloads, so the checkpointer keeps
        // snapshotting (and failing to) while they arrive.
        append((i + 1) * per_turn, (i + 2) * per_turn);
        let prefix = format!("198.18.0.{i}/32");
        let body = format!("announce {prefix}\n");
        match client.send("POST", "/v1/reload", Some(&body)) {
            (200, _) => acked.push(prefix),
            (503, _) => refused += 1,
            (status, body) => panic!("reload {i}: {status} {body}"),
        }
        assert_eq!(client.send("GET", "/healthz", None).0, 200);
        std::thread::sleep(Duration::from_millis(10));
    }
    let metrics = get(addr, "/metrics").1;
    let failed = json_u64(&metrics, "serve.checkpoint.errors");
    eprintln!(
        "{} reloads acknowledged, {refused} refused, {failed} snapshots failed",
        acked.len()
    );
    assert!(failed > 0, "no snapshot failed: the fault is not wired");
    assert!(refused > 0 && !acked.is_empty(), "{refused} refused");

    // SIGKILL, then resume on a sound disk.
    drop(first);
    let port_b = fx.dir.join("port-b");
    let mut second = spawn_netclustd(&fx, &port_b, &flags, true);
    let addr = wait_for_port(&port_b);
    for prefix in &acked {
        let ip = prefix.trim_end_matches("/32");
        let body = get(addr, &format!("/v1/cluster?ip={ip}")).1;
        assert!(
            body.contains(&format!("\"cluster\": \"{prefix}\"")),
            "acknowledged {prefix} lost: {body}"
        );
    }
    assert!(terminate(&mut second).success());
}

/// The newest snapshot generation in `state_dir` (0 when there is none).
fn snapshots(state_dir: &Path) -> u64 {
    std::fs::read_dir(state_dir)
        .expect("state dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| {
            name.strip_prefix("snapshot-")?
                .strip_suffix(".snap")?
                .parse()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

fn tmp_files(state_dir: &Path) -> Vec<String> {
    std::fs::read_dir(state_dir)
        .expect("state dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect()
}

/// A busy log is never idle between two polls. 50 lines every 5 ms for a
/// second, followed at `--poll-ms 10`: every append must become visible
/// without a snapshot in its way, the checkpointer must stay out of it
/// while the log is busy and catch up once it goes quiet, and a SIGTERM
/// landing on an in-flight snapshot must still leave a state dir that
/// resumes to the same answers.
#[test]
fn a_trickle_is_served_fresh_and_checkpointed_behind() {
    const POLL: Duration = Duration::from_millis(10);
    const APPENDS: usize = 200;
    const LINES_PER_APPEND: usize = 50;
    let fx = fixture_of("trickle", 37, ((APPENDS + 1) * LINES_PER_APPEND) as u64);
    let lines: Vec<&str> = fx.clf.lines().collect();
    assert_eq!(lines.len(), (APPENDS + 1) * LINES_PER_APPEND);
    let blocks: Vec<String> = lines
        .chunks(LINES_PER_APPEND)
        .map(|block| block.iter().map(|l| format!("{l}\n")).collect())
        .collect();
    std::fs::write(&fx.log, "").expect("create empty log");
    let state_dir = fx.dir.join("state");
    let flags = ["--poll-ms", "10"];

    let port_a = fx.dir.join("port-a");
    let mut daemon = spawn_netclustd(&fx, &port_a, &flags, false);
    let addr = wait_for_port(&port_a);
    let checkpoints =
        |c: &mut Client| json_u64(&c.send("GET", "/metrics", None).1, "serve.checkpoints");
    let mut control = Client::connect(addr);
    let before = checkpoints(&mut control);

    // The watcher samples /healthz flat out; the writer appends on a 5 ms
    // schedule and notes when each append was complete.
    let done = std::sync::atomic::AtomicBool::new(false);
    let total = (APPENDS * LINES_PER_APPEND) as u64;
    let (samples, written, stalls, at_end) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut c = Client::connect(addr);
            let mut samples: Vec<(Instant, u64)> = Vec::new();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                let body = c.send("GET", "/healthz", None).1;
                samples.push((Instant::now(), json_u64(&body, "total_requests")));
            }
            samples
        });
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(&fx.log)
            .expect("open log");
        let start = Instant::now();
        let mut written: Vec<(Instant, u64)> = Vec::new();
        let mut stalls = 0u64;
        for (i, block) in blocks[..APPENDS].iter().enumerate() {
            let due = start + Duration::from_millis(5) * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            log.write_all(block.as_bytes()).expect("append");
            let now = Instant::now();
            // A gap this long looks like a quiet log to the daemon, and
            // may rightly draw a checkpoint.
            if written.last().is_some_and(|&(prev, _)| now - prev > POLL) {
                stalls += 1;
            }
            written.push((now, ((i + 1) * LINES_PER_APPEND) as u64));
            if i == APPENDS / 2 {
                // A journaled delta reload in the middle of it all: store
                // mutex and stream write lock against both other writers.
                let (status, body) =
                    control.send("POST", "/v1/reload", Some("announce 10.99.0.0/16\n"));
                assert_eq!(status, 200, "{body}");
            }
        }
        let at_end = (Instant::now(), checkpoints(&mut control));
        // Let the watcher see the last append land (give up after 2 s; the
        // freshness check below then names the append that never showed).
        let deadline = Instant::now() + Duration::from_secs(2);
        while json_u64(&control.send("GET", "/healthz", None).1, "total_requests") < total
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (watcher.join().expect("watcher"), written, stalls, at_end)
    });
    let (trickle_end, count_at_end) = at_end;
    let during = count_at_end - before;
    assert!(
        during <= 2 + stalls,
        "{during} checkpoints during a busy second ({stalls} writer stalls)"
    );

    // Freshness: each append against the first sample that covers it.
    let mut late = 0usize;
    for &(at, total) in &written {
        let seen = samples
            .iter()
            .find(|&&(_, t)| t >= total)
            .map(|&(when, _)| when.saturating_duration_since(at))
            .unwrap_or_else(|| panic!("append {total} never became visible"));
        assert!(
            seen < Duration::from_secs(1),
            "append {total} took {seen:?}"
        );
        if seen > 3 * POLL {
            late += 1;
        }
    }
    // On a quiet host every append makes it; a shared one may deschedule
    // the watcher or the daemon now and then, so a tenth may miss.
    assert!(
        late * 10 <= written.len(),
        "{late} of {} appends took more than 3 poll intervals ({stalls} writer stalls)",
        written.len()
    );

    // Quiet now: the pending bytes must be made durable promptly.
    while checkpoints(&mut control) == count_at_end {
        assert!(
            trickle_end.elapsed() < Duration::from_millis(500),
            "no checkpoint within 500 ms of the log going quiet"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    wait_for("no snapshot left half-written", || {
        tmp_files(&state_dir).is_empty()
    });

    // One more append; as soon as it is applied the answers are final.
    // The quiet-log checkpoint follows within two polls: send SIGTERM the
    // moment its temp file appears (or after 1 s if we never catch it).
    {
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(&fx.log)
            .expect("open log");
        log.write_all(blocks[APPENDS].as_bytes()).expect("append");
    }
    let total = total + LINES_PER_APPEND as u64;
    // (Polled flat out: the window we are after opens ~10 ms from now.)
    let deadline = Instant::now() + Duration::from_secs(20);
    while json_u64(&control.send("GET", "/healthz", None).1, "total_requests") != total {
        assert!(Instant::now() < deadline, "last append never applied");
    }
    let top_before = control.send("GET", "/v1/clusters/top?n=20", None).1;
    let cluster_before = control
        .send("GET", &format!("/v1/cluster?ip={}", fx.a_client), None)
        .1;
    drop(control);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut caught = false;
    while !caught && Instant::now() < deadline {
        caught = !tmp_files(&state_dir).is_empty();
    }
    eprintln!("caught a snapshot in flight: {caught}");
    let exit = terminate(&mut daemon);
    assert!(exit.success(), "SIGTERM mid-checkpoint: {exit:?}");
    assert_eq!(tmp_files(&state_dir), Vec::<String>::new());

    let port_b = fx.dir.join("port-b");
    let mut resumed = spawn_netclustd(&fx, &port_b, &flags, true);
    let addr = wait_for_port(&port_b);
    let mut c = Client::connect(addr);
    assert_eq!(
        json_u64(&c.send("GET", "/healthz", None).1, "total_requests"),
        total,
        "the final checkpoint covers every applied line: nothing to replay"
    );
    assert_eq!(c.send("GET", "/v1/clusters/top?n=20", None).1, top_before);
    assert_eq!(
        c.send("GET", &format!("/v1/cluster?ip={}", fx.a_client), None)
            .1,
        cluster_before
    );
    drop(c);
    let exit = terminate(&mut resumed);
    assert!(exit.success(), "{exit:?}");
}

/// The trickle above against the *default* `--poll-ms` (200 ms): the
/// follower waits for the log, not for the clock, so an append is visible
/// in milliseconds however long the interval — and the interval still
/// decides when the log counts as quiet, so the busy second draws no
/// snapshots.
#[test]
fn a_trickle_is_served_fresh_at_the_default_poll_interval() {
    const APPENDS: usize = 200;
    const LINES_PER_APPEND: usize = 50;
    // `--poll-ms`' default: a gap this long between appends is a quiet log.
    const QUIET: Duration = Duration::from_millis(200);
    let fx = fixture_of("trickle-default", 41, (APPENDS * LINES_PER_APPEND) as u64);
    let lines: Vec<&str> = fx.clf.lines().collect();
    let blocks: Vec<String> = lines
        .chunks(LINES_PER_APPEND)
        .map(|block| block.iter().map(|l| format!("{l}\n")).collect())
        .collect();
    std::fs::write(&fx.log, "").expect("create empty log");
    let port = fx.dir.join("port");
    let _daemon = spawn_netclustd(&fx, &port, &[], false);
    let addr = wait_for_port(&port);
    let mut control = Client::connect(addr);
    let metric = |c: &mut Client, key: &str| json_u64(&c.send("GET", "/metrics", None).1, key);
    let before = metric(&mut control, "serve.checkpoints");

    let done = std::sync::atomic::AtomicBool::new(false);
    let total = (APPENDS * LINES_PER_APPEND) as u64;
    let (samples, written, stalls) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut c = Client::connect(addr);
            let mut samples: Vec<(Instant, u64)> = Vec::new();
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                let body = c.send("GET", "/healthz", None).1;
                samples.push((Instant::now(), json_u64(&body, "total_requests")));
            }
            samples
        });
        let mut log = std::fs::OpenOptions::new()
            .append(true)
            .open(&fx.log)
            .expect("open log");
        let start = Instant::now();
        let mut written: Vec<(Instant, u64)> = Vec::new();
        let mut stalls = 0u64;
        for (i, block) in blocks.iter().enumerate() {
            let due = start + Duration::from_millis(5) * i as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            log.write_all(block.as_bytes()).expect("append");
            let now = Instant::now();
            if written.last().is_some_and(|&(prev, _)| now - prev > QUIET) {
                stalls += 1;
            }
            written.push((now, ((i + 1) * LINES_PER_APPEND) as u64));
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while json_u64(&control.send("GET", "/healthz", None).1, "total_requests") < total
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        done.store(true, std::sync::atomic::Ordering::SeqCst);
        (watcher.join().expect("watcher"), written, stalls)
    });
    let during = metric(&mut control, "serve.checkpoints") - before;
    assert!(
        during <= 2 + stalls,
        "{during} checkpoints during a busy second ({stalls} writer stalls)"
    );

    let mut latencies: Vec<Duration> = written
        .iter()
        .map(|&(at, total)| {
            samples
                .iter()
                .find(|&&(_, t)| t >= total)
                .map(|&(when, _)| when.saturating_duration_since(at))
                .unwrap_or_else(|| panic!("append {total} never became visible"))
        })
        .collect();
    latencies.sort();
    let fresh = latencies
        .iter()
        .filter(|&&l| l <= Duration::from_millis(30))
        .count();
    let median = latencies[latencies.len() / 2];
    eprintln!(
        "{fresh} of {} appends visible within 30 ms, median {median:?}",
        latencies.len()
    );
    assert!(
        fresh * 10 >= latencies.len() * 9,
        "under 90 % of appends visible within 30 ms (median {median:?}, {stalls} writer stalls)"
    );
    if cfg!(target_os = "linux") {
        assert_eq!(metric(&mut control, "serve.follow.watching"), 1);
        assert!(metric(&mut control, "serve.follow.wakes.notified") > 0);
    }
}
