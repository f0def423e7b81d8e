//! What a caught-up `netclustd` may have held at its worst: the real
//! binary follows a generated log of 200 000 clients, snapshots it, answers
//! top-N on every worker, and reports a high-water mark that must fit a
//! budget per client. A child process, so nothing else shares the resident
//! set `/metrics` reports.
#![cfg(target_os = "linux")]

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

const CLIENTS: u32 = 200_000;
const CLUSTERS: u32 = 50_000;

/// The table, the binary and its threads. A poll reads 64 KiB, so a
/// backlog needs no room of its own. This test's table is 50 000
/// adjacent /24s: 196 nodes of 256 runs, a 64-byte line in any layout, so
/// sizing nodes by their runs takes nothing off it (worst of five runs
/// 14.95 MB, and 14.97 with every node a 64-byte line).
const BUDGET_FIXED: u64 = 12 << 20;
/// A client's 24-byte record, its share of the address index (4-byte
/// slots at 7/8 load at most) and of its cluster's aggregates, plus what
/// the one snapshot in flight holds for it: its row in its /16's bucket,
/// the low 16 address bits and its counts' varints (the bucket table
/// and the one /16's sort scratch are in the fixed part). The whole reads
/// 13.90–14.02 MB on a 2-vCPU x86-64 Linux host (five runs; 14.75–14.97
/// with an 8-byte sort key a row beside the varints and the prefix lists
/// coded into a buffer, which 25 bytes a client allowed; 16.1–16.3 with
/// the index a std map of 9 bytes a bucket, which 32 allowed; 16.8–17.1
/// with the aggregates in a map keyed by prefix, which 36 allowed); a
/// 4 MiB poll buffer, or 15 bytes a client more in the state or the
/// snapshot, each put it over.
const BUDGET_PER_CLIENT: u64 = 20;

/// A spawned `netclustd` that a failing assertion cannot leak.
struct Netclustd(Child);

impl Drop for Netclustd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One `GET` on `conn` (keep-alive); the body of the reply.
fn get(conn: &mut TcpStream, target: &str) -> String {
    let request = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
    conn.write_all(request.as_bytes()).expect("send");
    let mut reply = Vec::new();
    let mut scratch = [0u8; 16 << 10];
    loop {
        if let Some(head_end) = reply.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&reply[..head_end]).to_ascii_lowercase();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .map(|v| v.trim().parse().expect("content-length"))
                .expect("content-length header");
            if reply.len() >= head_end + 4 + length {
                return String::from_utf8_lossy(&reply[head_end + 4..]).into_owned();
            }
        }
        let n = conn.read(&mut scratch).expect("read reply");
        assert!(n > 0, "connection closed mid-reply");
        reply.extend_from_slice(&scratch[..n]);
    }
}

fn get_once(addr: SocketAddr, target: &str) -> String {
    get(&mut connect(addr), target)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    conn
}

fn json_u64(body: &str, key: &str) -> u64 {
    let at = body
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    let digits = body[at + key.len() + 4..]
        .chars()
        .take_while(char::is_ascii_digit);
    digits.collect::<String>().parse().expect("a number")
}

fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn a_caught_up_daemon_fits_a_budget_per_client() {
    let dir = std::env::temp_dir().join(format!("netclustd-rss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 50 000 /24s, four clients in each, one line a client in an order
    // that scatters neighbours.
    let mut table = String::new();
    for i in 0..CLUSTERS {
        let _ = writeln!(table, "{}/24", Ipv4Addr::from(0x0A00_0000 | (i << 8)));
    }
    std::fs::write(dir.join("t.bgp"), table).expect("table");
    let mut log = String::new();
    for i in 0..CLIENTS {
        let client = (i * 7_919) % CLIENTS;
        let addr = Ipv4Addr::from(0x0A00_0000 | ((client / 4) << 8) | (client % 4 + 1));
        let _ = writeln!(
            log,
            "{addr} - - [13/Feb/1998:07:00:00 +0000] \"GET /p{}.html HTTP/1.0\" 200 {} \"-\" \"Mozilla/4.5\"",
            client % 512,
            100 + client % 9_000,
        );
    }
    std::fs::write(dir.join("access.log"), log).expect("log");

    let port_file = dir.join("port");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_netclustd"));
    cmd.arg("--table").arg(dir.join("t.bgp"));
    cmd.arg("--log").arg(dir.join("access.log"));
    cmd.arg("--state-dir").arg(dir.join("state"));
    cmd.arg("--port-file").arg(&port_file);
    cmd.args(["--poll-ms", "10"]);
    let daemon = Netclustd(cmd.spawn().expect("spawn netclustd"));

    let mut addr = None;
    wait_for("the port file", || {
        let text = std::fs::read_to_string(&port_file).unwrap_or_default();
        addr = text.strip_suffix('\n').and_then(|a| a.parse().ok());
        addr.is_some()
    });
    let addr: SocketAddr = addr.expect("bound address");
    wait_for("catch-up", || {
        json_u64(&get_once(addr, "/healthz"), "total_requests") == u64::from(CLIENTS)
    });
    // The snapshot that covers the whole log is the largest there will be.
    wait_for("the log to be durable", || {
        json_u64(&get_once(addr, "/metrics"), "serve.checkpoint.dirty_bytes") == 0
    });

    // 200 top-N requests, on four connections held open together: each is
    // served by a worker of its own, so every worker answers fifty.
    let mut conns: Vec<TcpStream> = (0..4).map(|_| connect(addr)).collect();
    for _ in 0..50 {
        for conn in &mut conns {
            let body = get(conn, "/v1/clusters/top?n=20");
            assert!(body.starts_with("{\"clusters\": ["), "{body}");
        }
    }
    drop(conns);

    let metrics = get_once(addr, "/metrics");
    let (rss, hwm) = (
        json_u64(&metrics, "process.rss_bytes"),
        json_u64(&metrics, "process.hwm_bytes"),
    );
    let budget = BUDGET_FIXED + BUDGET_PER_CLIENT * u64::from(CLIENTS);
    println!("{CLIENTS} clients: resident {rss}, high-water mark {hwm}, budget {budget}");
    // What the stores it can name fill, read from their lengths: they are
    // resident (every record and slot was written), so their sum with the
    // table's bytes stays below the resident set.
    let mut attributed = json_u64(&metrics, "lpm.table_bytes");
    for name in [
        "mem.client_records_bytes",
        "mem.address_map_bytes",
        "mem.aggregates_bytes",
    ] {
        let bytes = json_u64(&metrics, name);
        println!("{name} {bytes}");
        attributed += bytes;
    }
    let rest = json_u64(&metrics, "mem.unattributed_bytes");
    println!("lpm.table_bytes + mem.*: {attributed}, mem.unattributed_bytes {rest}");
    // Not resident any more: the last snapshot's room, freed when it was
    // written, which is what the high-water mark holds over the resident
    // set.
    let room = json_u64(&metrics, "mem.snapshot_buffer_bytes");
    println!(
        "mem.snapshot_buffer_bytes {room}, high-water mark - resident {}",
        hwm - rss
    );
    assert!(
        attributed < rss,
        "{attributed} bytes attributed of {rss} resident"
    );
    assert_eq!(rest, rss - attributed);
    assert!(hwm < budget, "held {hwm} bytes at its worst");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
