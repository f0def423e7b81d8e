//! Batch ingest must not hold the log: clustering a mapped file — by any
//! of the three methods, which share the one pipeline — may grow the
//! process's peak resident set by the accumulators and the chunks in
//! flight, not by the file. This is its own test binary with one test, so
//! no other test's allocations share the process whose high-water mark it
//! reads.
#![cfg(target_os = "linux")]

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::net::Ipv4Addr;

use netclust_testkit::TempDir;

use netclust::core::{Assigner, IngestPipeline};
use netclust::rtable::{MergedTable, RoutingTable, TableKind};
use netclust::weblog::chunk::LogData;

/// The log is at least this long; the run may add less than half of it.
const LOG_BYTES: u64 = 64 << 20;

/// Peak resident set of this process so far, in bytes.
fn vm_hwm() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .expect("VmHWM line in /proc/self/status");
    kb.trim().parse::<u64>().unwrap() * 1024
}

#[test]
fn clustering_a_mapped_log_does_not_hold_it() {
    let dir = TempDir::new("netclust-rss");
    let path = dir.join("access.log");

    // 4 096 clients under two /16s, 512 urls, streamed to disk line by
    // line: the log itself is never in this process's memory.
    let mut lines = 0u64;
    {
        let mut out = BufWriter::new(File::create(&path).unwrap());
        let mut written = 0u64;
        while written < LOG_BYTES {
            let client = lines.wrapping_mul(2_654_435_761) % 4096;
            let addr = Ipv4Addr::from(0x0A00_0000 | ((client as u32 & 1) << 16) | client as u32);
            let line = format!(
                "{addr} - - [13/Feb/1998:07:00:00 +0000] \"GET /docs/page{}.html HTTP/1.0\" 200 {} \"-\" \"Mozilla/4.5\"\n",
                lines % 512,
                lines % 9000,
            );
            out.write_all(line.as_bytes()).unwrap();
            written += line.len() as u64;
            lines += 1;
        }
        out.flush().unwrap();
    }

    let bgp = RoutingTable::new(
        "B",
        "d0",
        TableKind::Bgp,
        vec![
            "10.0.0.0/16".parse().unwrap(),
            "10.1.0.0/16".parse().unwrap(),
        ],
    );
    let table = MergedTable::merge([&bgp]).compile();

    let before = vm_hwm();
    let log = LogData::open(&path).unwrap();
    assert!(log.is_mapped() && log.len() as u64 >= LOG_BYTES);
    // One high-water mark over all three runs bounds each of them. The
    // /24s: 16 third octets under each /16; everything is in Class A 10/8.
    for (how, clusters) in [
        (Assigner::NetworkAware(&table), 2),
        (Assigner::Simple24, 32),
        (Assigner::Classful, 1),
    ] {
        let report = IngestPipeline::by(how).run_log(&log).unwrap();
        assert_eq!(report.counts.records, lines);
        assert_eq!(report.counts.malformed, 0);
        assert_eq!(report.clustering.client_count(), 4096);
        assert_eq!(report.clustering.len(), clusters, "{}", how.label());
    }
    let growth = vm_hwm() - before;
    println!(
        "log {} bytes, peak resident set grew {growth} bytes",
        log.len()
    );
    assert!(
        growth < LOG_BYTES / 2,
        "peak resident set grew {growth} bytes over a {} byte log",
        log.len()
    );
    drop(log);
}
