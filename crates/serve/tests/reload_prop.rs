//! Properties of the `/v1/reload` body parser (`parse_delta_lines`, the
//! grammar of the CLI's `--bgp-feed` files too) over bodies drawn from the
//! update lines it accepts and their near misses — comments, blank lines,
//! CRLF endings, bytes that are not UTF-8 — with 1–4 byte edits: it never
//! panics, a refusal is typed and names the line a naive line-by-line
//! recognizer refuses first, and every accepted line re-renders and
//! re-parses to the same delta. The shim does not shrink: a failure prints
//! the bytes it was given.

use netclust_prefix::Ipv4Net;
use netclust_rtable::{DeltaKind, DeltaParseError, TableDelta};
use netclust_serve::router::{parse_delta_lines, DeltaBodyError};
use netclust_testkit::{self as testkit, apply, dotted, number, octet, Edit, Op};
use proptest::collection::vec;
use proptest::prelude::*;

/// A prefix column: CIDR, or a near miss (no length, a mask, a dropped
/// octet, a length past 32, a zero-padded octet, a signed length).
fn arb_prefix() -> impl Strategy<Value = String> {
    let octets = (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>());
    (octets, 0u8..=34, 0usize..9).prop_map(|((a, b, c, d), len, form)| match form {
        0 => format!("{a}.{b}.{c}.{d}"),
        1 => format!("{a}.{b}.{c}.{d}/255.255.0.0"),
        2 => format!("{a}.{b}.{c}/{len}"),
        3 => format!("{a}.0{b}.{c}.{d}/{len}"),
        4 => format!("{a}.{b}.{c}.{d}/+{len}"),
        _ => format!("{a}.{b}.{c}.{d}/{len}"),
    })
}

/// One line without its ending: an update (a known verb or not, extra
/// blanks, a trailing column), a comment, a blank line, or an update with
/// a byte that is not UTF-8 spliced in.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    let verb = prop_oneof![
        Just("announce"),
        Just("withdraw"),
        Just("replace"),
        Just("flap"),
        Just("Announce"),
    ];
    let update = (
        verb,
        arb_prefix(),
        "[ \t]{1,2}",
        "[ \t]{0,2}",
        vec("[a-z0-9#]{1,6}", 0..2),
    )
        .prop_map(|(v, p, sep, lead, rest)| format!("{lead}{v}{sep}{p} {}", rest.join(" ")));
    let update = update.prop_map(String::into_bytes);
    let comment = ("[ \t]{0,2}", "[ -~]{0,20}").prop_map(|(l, c)| format!("{l}#{c}").into_bytes());
    let blank = "[ \t]{0,3}".prop_map(String::into_bytes);
    let bad = (arb_prefix(), any::<usize>(), 0x80u8..=0xff).prop_map(|(p, at, b)| {
        let mut line = format!("announce {p}").into_bytes();
        line.insert(at % (line.len() + 1), b);
        line
    });
    prop_oneof![update, comment, blank, bad]
}

/// A body: lines with LF or CRLF endings, the last one possibly without.
fn arb_body() -> impl Strategy<Value = Vec<u8>> {
    (vec((arb_line(), any::<bool>()), 0..10), any::<bool>()).prop_map(|(lines, last_eol)| {
        let mut body = Vec::new();
        for (line, crlf) in &lines {
            body.extend_from_slice(line);
            body.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
        }
        if !last_eol && body.ends_with(b"\n") {
            body.pop();
        }
        body
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

/// What the recognizer makes of one line.
#[derive(Debug, Clone, PartialEq)]
enum Read {
    /// Blank or a `#` comment.
    Skipped,
    /// An update.
    Delta(TableDelta),
    /// The refusal the parser must give.
    Refused(DeltaParseError),
}

/// `a.b.c.d/len`: four octets as `Ipv4Addr` reads them and a length of
/// ASCII digits up to 32.
fn cidr(s: &str) -> Option<Ipv4Net> {
    let (addr, len) = s.split_once('/')?;
    Ipv4Net::new(dotted(addr, 4, octet)?, number(len, 32)? as u8).ok()
}

/// The recognizer: split at LF, trim, skip blanks and comments; the
/// second column must be CIDR (else the whole trimmed line is the bad
/// prefix), then the first a verb.
fn recognize(text: &str) -> Vec<Read> {
    let mut lines: Vec<&str> = text.split('\n').collect();
    if lines.last() == Some(&"") {
        lines.pop();
    }
    let read = |line: &str| {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Read::Skipped;
        }
        let mut columns = line.split_whitespace();
        let verb = columns.next().unwrap_or_default();
        let Some(prefix) = columns.next().and_then(cidr) else {
            return Read::Refused(DeltaParseError::BadPrefix(line.to_string()));
        };
        match verb {
            "announce" => Read::Delta(TableDelta::announce(prefix)),
            "withdraw" => Read::Delta(TableDelta::withdraw(prefix)),
            "replace" => Read::Delta(TableDelta::replace(prefix)),
            other => Read::Refused(DeltaParseError::UnknownUpdate(other.to_string())),
        }
    };
    lines.into_iter().map(read).collect()
}

fn render(d: &TableDelta) -> String {
    let verb = match d.kind {
        DeltaKind::Announce => "announce",
        DeltaKind::Withdraw => "withdraw",
        DeltaKind::Replace => "replace",
    };
    format!("{verb} {}", d.prefix)
}

proptest! {
    /// A body that is not UTF-8 is refused as such; any other body parses
    /// to the recognizer's updates in order, or is refused for the first
    /// line the recognizer refuses, with that line's 1-based number and
    /// its reason. Every accepted update renders to a line that parses
    /// back to it, alone and as a body.
    #[test]
    fn reload_bodies_parse_as_a_recognizer_reads_them(
        body in arb_body(),
        edits in vec(arb_edit(), 1..5),
    ) {
        let bytes = apply(&body, &edits);
        let got = parse_delta_lines(&bytes);
        let Ok(text) = std::str::from_utf8(&bytes) else {
            prop_assert_eq!(got, Err(DeltaBodyError::NotUtf8));
            return Ok(());
        };
        let reads = recognize(text);
        let refused = (reads.iter().zip(1..)).find_map(|(r, line)| match r {
            Read::Refused(e) => Some(DeltaBodyError::Line(line, e.clone())),
            _ => None,
        });
        let want = refused.map_or_else(
            || {
                let deltas = reads.iter().filter_map(|r| match r {
                    Read::Delta(d) => Some(*d),
                    _ => None,
                });
                Ok(deltas.collect::<Vec<_>>())
            },
            Err,
        );
        prop_assert_eq!(&got, &want, "{:?}", text);
        let deltas = got.unwrap_or_default();
        for d in &deltas {
            prop_assert_eq!(render(d).parse::<TableDelta>(), Ok(*d));
        }
        let rendered: Vec<String> = deltas.iter().map(render).collect();
        prop_assert_eq!(parse_delta_lines(rendered.join("\n").as_bytes()), Ok(deltas));
    }
}
