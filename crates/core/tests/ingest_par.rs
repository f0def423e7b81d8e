//! Parallel-ingest determinism properties: for each of the three methods
//! the serial scan (`threads(1)`) must report what the `Log` route —
//! `netclust_netgen::from_clf` into a `Log`, then `Clustering::by` —
//! reports, and the sharded work-stealing scan must produce reports
//! *byte-identical* to the serial one over random corpora, chunk sizes,
//! and thread counts — including parse errors, quarantine byte ranges,
//! and error counts. And
//! the file-backed entry, which gives every scanned chunk's pages back to the
//! kernel, must report exactly what `run` reports over an owned copy.

use netclust_core::{Assigner, Clustering, IngestPipeline, IngestReport};
use netclust_netgen::from_clf;
use netclust_obs::Obs;
use netclust_rtable::{CompiledTable, MergedTable, RoutingTable, TableKind};
use netclust_weblog::chunk::LogData;
use proptest::prelude::*;

/// A routing table whose prefixes cover some — not all — of the corpus
/// base networks below, so clusterings mix clustered and unclustered
/// clients and both LPM tiers answer.
fn table() -> CompiledTable {
    let bgp = RoutingTable::new(
        "B",
        "d0",
        TableKind::Bgp,
        vec![
            "10.0.0.0/8".parse().unwrap(),
            "10.1.0.0/16".parse().unwrap(),
            "172.16.0.0/13".parse().unwrap(),
            "192.168.0.0/17".parse().unwrap(),
        ],
    );
    let dump = RoutingTable::new(
        "D",
        "d0",
        TableKind::NetworkDump,
        vec![
            "203.0.0.0/10".parse().unwrap(),
            "12.65.128.0/19".parse().unwrap(),
        ],
    );
    MergedTable::merge([&bgp, &dump]).compile()
}

/// Base /16s the corpus draws client addresses from: mostly inside the
/// table's prefixes, a couple outside (unclustered, one of them for the
/// classful method as well), spread across the top address bits so
/// multiple merge partitions fill.
const BASES: [u32; 8] = [
    0x0A00_0000, // 10.0/16        → 10/8
    0x0A01_0000, // 10.1/16        → the longer 10.1/16
    0xAC11_0000, // 172.17/16      → 172.16/13
    0xC0A8_0000, // 192.168/16     → 192.168/17 (half covered)
    0xCB00_0000, // 203.0/16       → dump tier
    0x0C41_0000, // 12.65/16       → dump tier (partially)
    0x0808_0000, // 8.8/16         → miss
    0xE0AD_0000, // 224.173/16     → miss, and Class D: no classful network
];

/// One corpus line: a client in `BASES[base] | low`, a url, a byte
/// count, or a planted malformed line.
#[derive(Debug, Clone)]
enum Line {
    Request {
        base: u8,
        low: u16,
        url: u8,
        bytes: u16,
    },
    Garbage,
}

fn arb_lines() -> impl Strategy<Value = Vec<Line>> {
    // `pick` folds a ~10% garbage rate into an unweighted tuple draw.
    let line = (0u8..10, 0u8..8, any::<u16>(), any::<u8>(), any::<u16>()).prop_map(
        |(pick, base, low, url, bytes)| {
            if pick == 0 {
                Line::Garbage
            } else {
                Line::Request {
                    base,
                    low,
                    url,
                    bytes,
                }
            }
        },
    );
    proptest::collection::vec(line, 0..400)
}

fn render(lines: &[Line]) -> String {
    let mut out = String::new();
    for l in lines {
        match l {
            Line::Request {
                base,
                low,
                url,
                bytes,
            } => {
                let addr = std::net::Ipv4Addr::from(BASES[*base as usize] | *low as u32);
                out.push_str(&format!(
                    "{addr} - - [13/Feb/1998:07:00:00 +0000] \"GET /u{url} HTTP/1.0\" 200 {bytes}\n"
                ));
            }
            Line::Garbage => out.push_str("### torn line ###\n"),
        }
    }
    out
}

/// Full-report equality, down to per-client stats and quarantine byte
/// ranges: the Debug rendering covers every field of the clustering, so
/// equal strings ⇔ byte-identical reports.
fn assert_reports_identical(got: &IngestReport, want: &IngestReport, data: &[u8], ctx: &str) {
    assert_eq!(got.counts, want.counts, "{ctx}: counts");
    assert_eq!(got.errors, want.errors, "{ctx}: errors");
    assert_eq!(
        got.quarantine(data),
        want.quarantine(data),
        "{ctx}: quarantine"
    );
    assert_eq!(
        format!("{:?}", got.clustering),
        format!("{:?}", want.clustering),
        "{ctx}: clustering"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the method, the serial scan equals the `Log` route —
    /// clusters, members, `unique_urls`, the method label (all in the
    /// `Debug` rendering) and the parse errors — and the sharded scan is
    /// byte-identical to the serial one across chunk sizes and thread
    /// counts.
    #[test]
    fn parallel_ingest_matches_serial(
        lines in arb_lines(),
        chunk_bytes in 24usize..2048,
        threads in 2usize..=4,
    ) {
        let table = table();
        let text = render(&lines);
        let data = text.as_bytes();
        let (log, log_errors) = from_clf("prop", data);
        for how in [Assigner::NetworkAware(&table), Assigner::Simple24, Assigner::Classful] {
            let method = how.label();
            let want = Clustering::by(log.hits(), how);
            let serial = IngestPipeline::by(how)
                .chunk_bytes(chunk_bytes)
                .threads(1)
                .run(data);
            assert_eq!(serial.clustering.method, method);
            assert_eq!(
                format!("{:?}", serial.clustering),
                format!("{want:?}"),
                "{method}: serial scan vs the Log route"
            );
            assert_eq!(serial.errors, log_errors, "{method}");
            assert_eq!(serial.counts.records as usize, lines.len(), "{method}");
            let stolen = IngestPipeline::by(how)
                .chunk_bytes(chunk_bytes)
                .threads(threads)
                .run(data);
            assert_reports_identical(&stolen, &serial, data, &format!("{method} t={threads}"));
        }
    }
}

/// Releasing is invisible: over a mapped file, `run_log` hands every
/// scanned chunk back to the kernel and still reports what `run` reports
/// over an owned copy of the same bytes — clustering, errors with global
/// line numbers, counts — across chunk sizes and thread counts;
/// afterwards the mapping still reads the exact rejected bytes. Only
/// `ingest.released_bytes` tells the two apart.
#[test]
fn mapped_and_released_matches_owned() {
    let table = table();
    // ~1.3 MB: garbage every 41st line (so malformed lines straddle chunk
    // boundaries at every chunk size) and a torn, unterminated last line.
    let lines: Vec<Line> = (0..16_000u32)
        .map(|i| {
            if i % 41 == 7 {
                Line::Garbage
            } else {
                Line::Request {
                    base: (i % 8) as u8,
                    low: (i.wrapping_mul(40_503) % 65_536) as u16,
                    url: (i % 200) as u8,
                    bytes: (i % 1500) as u16,
                }
            }
        })
        .collect();
    let mut text = render(&lines);
    text.push_str("torn final line with no newline");
    let bytes = text.into_bytes();
    let rejected: Vec<&[u8]> = bytes
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"###") || l.starts_with(b"torn"))
        .collect();
    assert_eq!(rejected.len(), 16_000 / 41 + 1 + 1);

    let dir = netclust_testkit::TempDir::new("netclust-ingest-par");
    let path = dir.join("access.log");
    std::fs::write(&path, &bytes).unwrap();

    let released = |obs: &Obs| obs.snapshot(true).counters["ingest.released_bytes"];
    for chunk_bytes in [1usize, 64, 4096, 1 << 20] {
        for threads in [1usize, 2, 4] {
            let ctx = format!("chunk_bytes={chunk_bytes} threads={threads}");
            let pipeline = |obs: &Obs| {
                IngestPipeline::by(Assigner::NetworkAware(&table))
                    .chunk_bytes(chunk_bytes)
                    .threads(threads)
                    .obs(obs.clone())
            };
            let owned_obs = Obs::enabled();
            let owned = pipeline(&owned_obs).run(&bytes);
            assert_eq!(released(&owned_obs), 0, "{ctx}");

            let log = LogData::open(&path).unwrap();
            let mapped_obs = Obs::enabled();
            let mapped = pipeline(&mapped_obs).run_log(&log).unwrap();
            assert_reports_identical(&mapped, &owned, &bytes, &ctx);
            if cfg!(target_os = "linux") {
                // Megabyte chunks give back all but their boundary
                // pages (of whatever size the host's pages are);
                // sub-page chunks have no whole page to give.
                let got = released(&mapped_obs) as usize;
                match chunk_bytes {
                    0..=64 => assert_eq!(got, 0, "{ctx}"),
                    4096 => assert!(got < bytes.len(), "{ctx}: released {got}"),
                    _ => assert!(
                        got > bytes.len() / 2 && got < bytes.len(),
                        "{ctx}: released {got}"
                    ),
                }
            }
            // The released mapping still reads every rejected line.
            let quarantined: Vec<&[u8]> = mapped
                .quarantine(&log)
                .iter()
                .map(|q| &log[q.start..q.end])
                .collect();
            assert_eq!(quarantined, rejected, "{ctx}");
            assert_eq!(log.bytes(), &bytes[..], "{ctx}");
        }
    }

    // An owned `LogData` through the same entry: nothing reaches the
    // kernel and nothing changes.
    let owned_log = LogData::from_vec(bytes.clone());
    let obs = Obs::enabled();
    let via_owned = IngestPipeline::by(Assigner::NetworkAware(&table))
        .obs(obs.clone())
        .run_log(&owned_log)
        .unwrap();
    assert_eq!(released(&obs), 0);
    assert_eq!(owned_log.release(&owned_log), 0);
    assert_eq!(owned_log.bytes(), &bytes[..]);
    assert_eq!(via_owned.errors.len(), rejected.len());
}
