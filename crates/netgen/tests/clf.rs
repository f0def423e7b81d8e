//! Property-based tests of the CLF parser and the log's CLF writer and
//! reader over generated corpora.

use std::collections::BTreeMap;

use netclust_netgen::{
    from_clf, generate, to_clf, Log, LogSpec, ProxySpec, SpiderSpec, Universe, UniverseConfig,
};
use netclust_weblog::clf::ClfError;
use netclust_weblog::clf_bytes::{self, RawRecord};
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

/// Twelve cases a property, each a corpus drawn over a universe, unless
/// `PROPTEST_CASES` asks for a harder run.
fn config() -> ProptestConfig {
    match std::env::var("PROPTEST_CASES") {
        Ok(_) => ProptestConfig::default(),
        Err(_) => ProptestConfig::with_cases(12),
    }
}

proptest! {
    #![proptest_config(config())]

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
        let text = to_clf(&log);
        let (parsed, errors) = from_clf("rt", text.as_bytes());
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
        let text = to_clf(&log);
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

        let (parsed, log_errors) = from_clf("bad", &bytes);
        prop_assert_eq!(log_errors, errors);
        prop_assert_eq!(parsed.requests.len(), records.len());
        prop_assert!(parsed.check().is_ok(), "{:?}", parsed.check());
    }
}
