//! Property-based tests: log generation invariants and CLF round-trips.

use std::collections::BTreeMap;

use netclust_netgen::{Universe, UniverseConfig};
use netclust_weblog::clf::{self, ClfError};
use netclust_weblog::clf_bytes::{self, RawRecord};
use netclust_weblog::{generate, Log, LogSpec, ProxySpec, SpiderSpec};
use proptest::prelude::*;

fn universe() -> Universe {
    Universe::generate(UniverseConfig::small(7))
}

/// Each request as its CLF line states it: (absolute time, client, path,
/// bytes, status, User-Agent). Parsing renumbers URL and User-Agent ids,
/// so the ids themselves are not compared.
fn as_text(log: &Log) -> Vec<(u64, u32, &str, u32, u16, &str)> {
    log.requests
        .iter()
        .map(|r| {
            (
                log.start_time + u64::from(r.time),
                r.client,
                &*log.urls[r.url as usize].path,
                r.bytes,
                r.status,
                &*log.user_agents[r.ua as usize],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated logs are well-formed for arbitrary (small) volumes, hit
    /// the requested totals approximately, and stay deterministic.
    #[test]
    fn generated_logs_are_well_formed(
        seed in 0u64..1_000,
        requests in 500u64..5_000,
        clients in 20u64..200,
        urls in 20u32..300,
        casual in 0.0f64..1.0,
    ) {
        let u = universe();
        let mut spec = LogSpec::tiny("p", seed);
        spec.total_requests = requests;
        spec.target_clients = clients;
        spec.num_urls = urls;
        spec.casual_fraction = casual;
        let log = generate(&u, &spec);
        prop_assert!(log.check().is_ok(), "{:?}", log.check());
        let got = log.requests.len() as f64 / requests as f64;
        prop_assert!((0.5..1.5).contains(&got), "request ratio {got}");
        prop_assert!(log.client_count() as u64 >= clients.min(log.client_count() as u64));
        // URL ids are within the table.
        prop_assert!(log.requests.iter().all(|r| (r.url) < urls));
        // Every client belongs to some org of the universe.
        for addr in log.unique_clients().iter().take(20) {
            prop_assert!(u.owner(*addr).is_some(), "client {addr} outside universe");
        }
        // Determinism.
        let again = generate(&u, &spec);
        prop_assert_eq!(log.requests.len(), again.requests.len());
        prop_assert_eq!(&log.requests[..5.min(log.requests.len())],
                        &again.requests[..5.min(again.requests.len())]);
    }

    /// Planted anomalies always land in the truth record with exactly the
    /// requested volume.
    #[test]
    fn planted_anomalies_are_recorded(
        seed in 0u64..500,
        spider_reqs in 200u64..2_000,
        proxy_reqs in 200u64..2_000,
        companions in 0u32..10,
    ) {
        let u = universe();
        let mut spec = LogSpec::tiny("p", seed);
        spec.total_requests = 4_000;
        spec.target_clients = 60;
        spec.spiders = vec![SpiderSpec { requests: spider_reqs, unique_urls: 50, companions }];
        spec.proxies = vec![ProxySpec { requests: proxy_reqs, companions }];
        let log = generate(&u, &spec);
        prop_assert_eq!(log.truth.spiders.len(), 1);
        prop_assert_eq!(log.truth.proxies.len(), 1);
        let spider = u32::from(log.truth.spiders[0]);
        let proxy = u32::from(log.truth.proxies[0]);
        prop_assert_ne!(spider, proxy);
        let s_count = log.requests.iter().filter(|r| r.client == spider).count() as u64;
        let p_count = log.requests.iter().filter(|r| r.client == proxy).count() as u64;
        prop_assert_eq!(s_count, spider_reqs);
        prop_assert_eq!(p_count, proxy_reqs);
    }

    /// A generated log, written with `to_clf` and parsed back, is the same
    /// requests in the same order: absolute time, client, path, bytes,
    /// status and User-Agent, over spiders (their own User-Agent) and
    /// proxies (a random one per request) as well as ordinary clients.
    #[test]
    fn clf_roundtrip(
        seed in 0u64..300,
        casual in 0.0f64..1.0,
        spiders in 0usize..=2,
        proxies in 0usize..=2,
    ) {
        let u = universe();
        let mut spec = LogSpec::tiny("rt", seed);
        spec.total_requests = 800;
        spec.target_clients = 40;
        spec.casual_fraction = casual;
        spec.spiders = vec![SpiderSpec { requests: 120, unique_urls: 40, companions: 1 }; spiders];
        spec.proxies = vec![ProxySpec { requests: 120, companions: 1 }; proxies];
        let log = generate(&u, &spec);
        let text = clf::to_clf(&log);
        let (parsed, errors) = clf::from_clf("rt", text.as_bytes());
        prop_assert!(errors.is_empty(), "{errors:?}");
        prop_assert!(parsed.check().is_ok());
        prop_assert_eq!(as_text(&parsed), as_text(&log));
    }

    /// Random byte edits of a generated corpus — any byte, `+`, spaces,
    /// newlines and non-ASCII included — never panic the parser; every
    /// non-blank line gives exactly one record or one error, in line
    /// order; every line the edits missed parses to its original request;
    /// and `from_clf` reports the same errors and a consistent `Log`.
    #[test]
    fn corrupted_corpus_parses_line_for_line(
        seed in 0u64..100,
        edits in proptest::collection::vec((0usize..400, 0usize..90, 0u8..=255u8), 1..30),
    ) {
        let u = universe();
        let mut spec = LogSpec::tiny("bad", seed);
        spec.total_requests = 400;
        spec.target_clients = 30;
        let log = generate(&u, &spec);
        let text = clf::to_clf(&log);
        let original: Vec<&[u8]> = text.as_bytes().split(|&b| b == b'\n').collect();
        let mut lines: Vec<Vec<u8>> = original.iter().map(|l| l.to_vec()).collect();
        for &(line, col, val) in &edits {
            let n = lines.len();
            let l = &mut lines[line % n];
            if l.is_empty() {
                l.push(val);
            } else {
                let n = l.len();
                l[col % n] = val;
            }
        }
        let bytes = lines.join(&b'\n');

        let results: Vec<_> = clf_bytes::records(&bytes, 0).collect();
        let numbered: Vec<usize> = results
            .iter()
            .map(|r| match r {
                Ok((line, _)) => *line,
                Err(e) => e.line,
            })
            .collect();
        let non_blank: Vec<usize> = clf_bytes::lines(&bytes)
            .enumerate()
            .filter(|(_, l)| !l.trim_ascii().is_empty())
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(&numbered, &non_blank);
        let errors: Vec<ClfError> = results.iter().filter_map(|r| r.as_ref().err().copied()).collect();
        prop_assert!(errors.windows(2).all(|w| w[0].line < w[1].line), "{errors:?}");

        let records: BTreeMap<usize, &RawRecord> =
            results.iter().filter_map(|r| r.as_ref().ok()).map(|(l, r)| (*l, r)).collect();
        let expected = as_text(&log);
        let mut at = 0;
        for (i, line) in lines.iter().enumerate() {
            if let (true, Some(want)) = (line[..] == *original[i], expected.get(i)) {
                let r = records.get(&at);
                prop_assert!(r.is_some(), "untouched line {i} (now {at}) did not parse");
                let r = r.unwrap();
                let got = (r.epoch, r.addr, r.path, r.bytes, r.status, r.ua);
                let want = (want.0, want.1, want.2.as_bytes(), want.3, want.4, want.5.as_bytes());
                prop_assert_eq!(got, want, "line {}", i);
            }
            at += 1 + line.iter().filter(|&&b| b == b'\n').count();
        }

        let (parsed, log_errors) = clf::from_clf("bad", &bytes);
        prop_assert_eq!(log_errors, errors);
        prop_assert_eq!(parsed.requests.len(), records.len());
        prop_assert!(parsed.check().is_ok(), "{:?}", parsed.check());
    }

    /// Session partitioning conserves requests for any session count.
    #[test]
    fn sessions_conserve_requests(seed in 0u64..200, n in 1u32..12) {
        let u = universe();
        let mut spec = LogSpec::tiny("s", seed);
        spec.total_requests = 1_000;
        spec.target_clients = 50;
        let log = generate(&u, &spec);
        let sessions = log.sessions(n);
        prop_assert_eq!(sessions.len(), n as usize);
        let total: usize = sessions.iter().map(|s| s.requests.len()).sum();
        prop_assert_eq!(total, log.requests.len());
        for s in &sessions {
            prop_assert!(s.check().is_ok());
        }
    }
}
