//! What a caught-up `netclustd` may have held at its worst: the real
//! binary follows a generated log of 200 000 clients, snapshots it, answers
//! top-N on every worker, and reports a high-water mark that must fit a
//! budget per client. A child process, so nothing else shares the resident
//! set `/metrics` reports.
#![cfg(target_os = "linux")]

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::process::Command;

use netclust_testkit::{get, json_u64, wait_for, wait_for_port, Client, KillOnDrop, TempDir};

const CLIENTS: u32 = 200_000;
const CLUSTERS: u32 = 50_000;

/// The table, the binary and its threads. A poll reads 64 KiB, so a
/// backlog needs no room of its own, and a snapshot codes its rows
/// straight into its file, so it needs none either. This test's table is
/// 50 000 adjacent /24s: 196 nodes of 256 runs, a 64-byte line in any
/// layout, so sizing nodes by their runs takes nothing off it (worst of
/// five runs 14.95 MB, and 14.97 with every node a 64-byte line).
const BUDGET_FIXED: u64 = 6 << 20;
/// A client's 12-byte record and its share of its cluster's aggregates,
/// 5 bytes here (the client store's root and arrival-tail index, 288 KiB,
/// are in the fixed part). The whole reads 9.22–9.41 MB on a 2-vCPU
/// x86-64 Linux host (seven runs), the high-water mark no higher than the
/// resident set; 10.51–10.56 on the same host, the same day, with a
/// 4-byte memo of its cluster in each record and `u64` sums in each
/// 24-byte cluster slot, 10.03–10.08 with the memo alone put back and
/// 9.74–9.79 with the slot sums alone. The budget, 9.89 MB, leaves 5 %
/// over the worst run and refuses the memo; the slot sums are held to
/// 16 bytes by tests/daemon_alloc_budget.rs. Earlier, on that host,
/// 16-byte records and 24-byte slots read 9.03–9.19 when they were new,
/// and 11.73–11.87 (12.94–13.11 when first measured) with 24-byte
/// records and a snapshot's rows coded into room
/// reserved at 6 bytes a client, which 12 MiB and 15 bytes a client
/// allowed; 13.90–14.02 with a hashed address index of
/// 4-byte slots and the rows bucketed by /16, which 20 bytes a client
/// allowed; 14.75–14.97 with an 8-byte sort key a row beside the varints
/// and the prefix lists coded into a buffer, which 25 allowed; 16.1–16.3
/// with the index a std map of 9 bytes a bucket, which 32 allowed;
/// 16.8–17.1 with the aggregates in a map keyed by prefix, which 36
/// allowed; 22 allowed 16-byte records and 24-byte slots.
const BUDGET_PER_CLIENT: u64 = 18;

#[test]
fn a_caught_up_daemon_fits_a_budget_per_client() {
    let dir = TempDir::new("netclustd-rss");

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
    let daemon = KillOnDrop(cmd.spawn().expect("spawn netclustd"));

    let addr = wait_for_port(&port_file);
    wait_for("catch-up", || {
        json_u64(&get(addr, "/healthz").1, "total_requests") == u64::from(CLIENTS)
    });
    // The snapshot that covers the whole log is the largest there will be.
    wait_for("the log to be durable", || {
        json_u64(&get(addr, "/metrics").1, "serve.checkpoint.dirty_bytes") == 0
    });

    // 200 top-N requests, on four connections held open together: each is
    // served by a worker of its own, so every worker answers fifty.
    let mut conns: Vec<Client> = (0..4).map(|_| Client::connect(addr)).collect();
    for _ in 0..50 {
        for conn in &mut conns {
            let body = conn.send("GET", "/v1/clusters/top?n=20", None).1;
            assert!(body.starts_with("{\"clusters\": ["), "{body}");
        }
    }
    drop(conns);

    let metrics = get(addr, "/metrics").1;
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
        "mem.patch_state_bytes",
    ] {
        let bytes = json_u64(&metrics, name);
        println!("{name} {bytes}");
        attributed += bytes;
    }
    let rest = json_u64(&metrics, "mem.unattributed_bytes");
    println!("lpm.table_bytes + mem.*: {attributed}, mem.unattributed_bytes {rest}");
    // A snapshot codes its rows straight into its file: no room of them
    // sets the high-water mark over the resident set.
    assert!(!metrics.contains("mem.snapshot_buffer_bytes"), "{metrics}");
    println!("high-water mark - resident {}", hwm - rss);
    assert!(
        attributed < rss,
        "{attributed} bytes attributed of {rss} resident"
    );
    assert_eq!(rest, rss - attributed);
    assert!(hwm < budget, "held {hwm} bytes at its worst");

    drop(daemon);
}
