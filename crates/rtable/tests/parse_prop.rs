//! Properties of the table-file parsers (`RoutingTable::parse_report`,
//! `load_tables`) over files drawn from the formats they accept — the three
//! §3.1.2 prefix forms with extra columns, comments, blank lines, CRLF
//! endings and non-UTF-8 bytes — with 1–4 byte edits: they never panic,
//! every refused line is the one a naive line-by-line recognizer refuses,
//! and every accepted prefix re-renders and re-parses to itself. The shim
//! does not shrink: a failure prints the bytes it was given.

use std::net::Ipv4Addr;

use netclust_prefix::{parse_table_entry, Ipv4Net};
use netclust_rtable::{load_tables, ErrorCounts, RoutingTable, TableKind};
use netclust_testkit::{self as testkit, apply, number, Edit, Op, TempDir};
use proptest::collection::vec;
use proptest::prelude::*;

/// One entry in one of the three forms, before its line's columns.
fn arb_entry() -> impl Strategy<Value = String> {
    let octets = || (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>());
    let join = |(a, b, c, d): (u8, u8, u8, u8), n: usize| {
        [a, b, c, d][..n]
            .iter()
            .map(u8::to_string)
            .collect::<Vec<_>>()
            .join(".")
    };
    prop_oneof![
        (octets(), 1usize..=4, 0u8..=34)
            .prop_map(move |(o, n, len)| format!("{}/{len}", join(o, n))),
        (octets(), 1usize..=4, 0u32..=32, 1usize..=4).prop_map(move |(o, n, len, m)| {
            let mask = u32::MAX.checked_shl(32 - len).unwrap_or(0);
            let mask = Ipv4Addr::from(mask).octets();
            let mask = join((mask[0], mask[1], mask[2], mask[3]), m);
            format!("{}/{mask}", join(o, n))
        }),
        (octets(), 1usize..=4).prop_map(move |(o, n)| join(o, n)),
    ]
}

/// One line of a table file without its ending: an entry with leading
/// blanks and extra columns, a comment, a blank line, or an entry with a
/// byte that is not UTF-8 spliced in.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    let entry = (arb_entry(), "[ \t]{0,2}", vec("[a-zA-Z0-9.:-]{1,10}", 0..3))
        .prop_map(|(e, lead, cols)| format!("{lead}{e} {}", cols.join("\t")).into_bytes());
    let comment = ("[ \t]{0,2}", "[ -~]{0,20}").prop_map(|(l, c)| format!("{l}#{c}").into_bytes());
    let blank = "[ \t]{0,3}".prop_map(String::into_bytes);
    let bad = (arb_entry(), any::<usize>(), 0x80u8..=0xff).prop_map(|(e, at, b)| {
        let mut line = e.into_bytes();
        line.insert(at % (line.len() + 1), b);
        line
    });
    prop_oneof![entry, comment, blank, bad]
}

/// A file: lines with LF or CRLF endings, the last one possibly without.
fn arb_file() -> impl Strategy<Value = Vec<u8>> {
    (vec((arb_line(), any::<bool>()), 0..12), any::<bool>()).prop_map(|(lines, last_eol)| {
        let mut file = Vec::new();
        for (line, crlf) in &lines {
            file.extend_from_slice(line);
            file.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
        }
        if !last_eol && file.ends_with(b"\n") {
            file.pop();
        }
        file
    })
}

/// Byte edits: an insert, a removal or an overwrite, with the grammar's
/// punctuation, a digit or any byte.
fn arb_edit() -> impl Strategy<Value = Edit> {
    let byte = prop_oneof![
        Just(b'.'),
        Just(b'/'),
        Just(b'+'),
        Just(b'#'),
        Just(b' '),
        Just(b'\r'),
        Just(b'\n'),
        Just(0xffu8),
        0u8..=9u8,
        any::<u8>(),
    ];
    let byte = byte.prop_map(|b| if b <= 9 { b'0' + b } else { b });
    testkit::arb_edit(&[Op::Insert, Op::Remove, Op::Set], byte)
}

/// What a line must parse to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Read {
    /// Blank or a `#` comment.
    Skipped,
    /// The entry's prefix.
    Prefix(Ipv4Net),
    /// Not an entry.
    Refused,
}

/// The recognizer: split at LF, decode each line on its own (a byte that
/// is not UTF-8 stands for U+FFFD), trim, skip blanks and comments, and
/// read the first column as an entry.
fn recognize(file: &[u8]) -> Vec<Read> {
    let mut lines: Vec<&[u8]> = file.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    let read = |line: &[u8]| {
        let line = String::from_utf8_lossy(line);
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Read::Skipped;
        }
        let column = line.split_whitespace().next().unwrap_or_default();
        entry(column).map_or(Read::Refused, Read::Prefix)
    };
    lines.into_iter().map(read).collect()
}

/// One to four dotted octets of ASCII digits, leading zeros allowed, the
/// missing trailing ones zero.
fn dotted(s: &str) -> Option<u32> {
    testkit::dotted(s, 1, |p| number(p, 255))
}

/// `addr/len`, `addr/mask` or a bare address standing for its Class A, B
/// or C network.
fn entry(column: &str) -> Option<Ipv4Net> {
    let (addr, len) = match column.split_once('/') {
        None => {
            let addr = dotted(column)?;
            let len = match addr >> 24 {
                0..=127 => 8,
                128..=191 => 16,
                192..=223 => 24,
                _ => return None,
            };
            (addr, len)
        }
        Some((addr, mask)) if mask.contains('.') => {
            let mask = dotted(mask)?;
            let len = mask.leading_ones();
            let rest = mask.checked_shl(len).unwrap_or(0);
            (dotted(addr)?, Some(len).filter(|_| rest == 0)?)
        }
        Some((addr, len)) => (dotted(addr)?, number(len, 32)?),
    };
    Ipv4Net::new(addr, len as u8).ok()
}

/// The accepted prefixes, sorted and deduplicated, as a table holds them.
fn prefixes(want: &[Read]) -> Vec<Ipv4Net> {
    let mut nets: Vec<Ipv4Net> = (want.iter())
        .filter_map(|r| match r {
            Read::Prefix(net) => Some(*net),
            _ => None,
        })
        .collect();
    nets.sort();
    nets.dedup();
    nets
}

fn count(want: &[Read], what: fn(&Read) -> bool) -> usize {
    want.iter().filter(|r| what(r)).count()
}

proptest! {
    /// `parse_report` over an edited UTF-8 file: its tallies and its
    /// refused lines (0-based in the report, so one less than the line
    /// number) are the recognizer's, and its prefixes are the accepted
    /// ones, each of which renders and re-parses to itself.
    #[test]
    fn parse_report_refuses_the_lines_a_recognizer_refuses(
        file in arb_file(),
        edits in vec(arb_edit(), 1..5),
    ) {
        let bytes = apply(&file, &edits);
        let Ok(text) = std::str::from_utf8(&bytes) else { return Ok(()) };
        let want = recognize(&bytes);
        let (table, report) = RoutingTable::parse_report("t", "d", TableKind::Bgp, text);
        let refused: Vec<usize> = (want.iter().zip(1..))
            .filter_map(|(r, line)| (*r == Read::Refused).then_some(line))
            .collect();
        let bad: Vec<usize> = report.bad.iter().map(|(i, _)| i + 1).collect();
        prop_assert_eq!(&bad, &refused, "{:?}", text);
        prop_assert_eq!(report.total_lines, want.len(), "{:?}", text);
        prop_assert_eq!(report.skipped, count(&want, |r| *r == Read::Skipped), "{:?}", text);
        prop_assert_eq!(report.parsed, count(&want, |r| matches!(r, Read::Prefix(_))));
        prop_assert_eq!(table.prefixes(), &prefixes(&want)[..], "{:?}", text);
        for net in table.prefixes() {
            prop_assert_eq!(parse_table_entry(&net.to_string()), Ok(*net));
            prop_assert_eq!(net.to_string().parse::<Ipv4Net>(), Ok(*net));
        }
    }

    /// `load_tables` over the same files, bytes that are not UTF-8
    /// included: never an error for a readable file, both tiers read alike,
    /// and each reports the recognizer's content and refused line counts
    /// and holds its accepted prefixes.
    #[test]
    fn load_tables_reads_any_bytes_line_by_line(
        file in arb_file(),
        edits in vec(arb_edit(), 1..5),
    ) {
        let bytes = apply(&file, &edits);
        let want = recognize(&bytes);
        let dir = TempDir::new("netclust-parse-prop");
        let path = dir.join("t.bgp");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_tables(&[&path], &[&path]);
        let loaded = loaded.map_err(|e| format!("{e} on {bytes:?}"))?;
        let content = want.len() - count(&want, |r| *r == Read::Skipped);
        let counts = ErrorCounts::new(content as u64, count(&want, |r| *r == Read::Refused) as u64);
        let kinds: Vec<TableKind> = loaded.iter().map(|(t, _)| t.kind).collect();
        prop_assert_eq!(kinds, vec![TableKind::Bgp, TableKind::NetworkDump]);
        for (table, got) in &loaded {
            prop_assert_eq!(got, &counts, "{:?}", bytes);
            prop_assert_eq!(table.prefixes(), &prefixes(&want)[..], "{:?}", bytes);
        }
    }
}
