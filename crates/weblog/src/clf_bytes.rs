//! The Common Log Format parser: a zero-copy field scanner over raw bytes.
//!
//! Every CLF line the workspace reads goes through here: the batch
//! ingest, the daemon's log follower, and the studies' reader in
//! `netclust-netgen`, which builds an in-memory log from [`records`].
//! At production ingest rates (§4's real-time pipeline) parsing
//! dominates the end-to-end cost, so the scanner allocates nothing per
//! line:
//!
//! * each line decodes into a borrowed [`RawRecord`]; the path and
//!   User-Agent stay slices of the input,
//! * delimiter searches are SWAR (eight bytes at a time), and the
//!   dotted-quad and CLF-timestamp decoders are inlined integer scanners,
//!   with a fast path for the canonical fixed-width timestamp,
//! * [`records`] iterates a whole buffer line by line, reporting each
//!   malformed line as a [`ClfError`] with its line number, and
//!   [`records_no_ua`] does the same without the User-Agent scan.
//!
//! The batch consumer — chunked parallel parsing fused with compiled-LPM
//! clustering — lives in `netclust-core` (`IngestPipeline`); this module
//! provides its scanner.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::clf::{ClfError, ClfErrorKind, MONTHS};

/// One CLF line decoded without copying: the textual fields borrow from
/// the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord<'a> {
    /// Client IPv4 address, host order.
    pub addr: u32,
    /// Request timestamp, Unix epoch seconds.
    pub epoch: u64,
    /// Request path, as it appeared on the wire.
    pub path: &'a [u8],
    /// HTTP status code.
    pub status: u16,
    /// Response size in bytes (`-` decodes to 0).
    pub bytes: u32,
    /// User-Agent string (`-` when absent).
    pub ua: &'a [u8],
}

/// SWAR byte search: scans word-at-a-time using the zero-byte trick
/// (`(w - 0x01…) & !w & 0x80…`). Borrows only propagate toward higher
/// bytes, so the lowest set high-bit always marks the *first* match even
/// when spurious bits appear above it.
#[inline]
fn find(hay: &[u8], needle: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let broadcast = u64::from(needle) * LO;
    let (words, tail) = hay.as_chunks::<8>();
    for (i, w) in words.iter().enumerate() {
        let w = u64::from_le_bytes(*w) ^ broadcast;
        let hit = w.wrapping_sub(LO) & !w & HI;
        if hit != 0 {
            return Some(i * 8 + (hit.trailing_zeros() >> 3) as usize);
        }
    }
    tail.iter()
        .position(|&b| b == needle)
        .map(|j| words.len() * 8 + j)
}

#[inline]
fn trim_ascii_start(mut s: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = s {
        if first.is_ascii_whitespace() {
            s = rest;
        } else {
            break;
        }
    }
    s
}

#[inline]
fn trim_ascii(s: &[u8]) -> &[u8] {
    let mut s = trim_ascii_start(s);
    while let [rest @ .., last] = s {
        if last.is_ascii_whitespace() {
            s = rest;
        } else {
            break;
        }
    }
    s
}

/// Parses an unsigned decimal integer occupying the whole slice. Rejects
/// empty slices, non-digits, and overflow. (Unlike `str::parse` it also
/// rejects a leading `+`, which CLF never contains.)
#[inline]
fn parse_uint(s: &[u8], max: u64) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for &b in s {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(d as u64)?;
        if v > max {
            return None;
        }
    }
    Some(v)
}

/// Parses a dotted-quad IPv4 address with `std`'s strictness: exactly four
/// octets, 1–3 digits each, no leading zeros, each ≤ 255.
#[inline]
fn parse_ipv4(s: &[u8]) -> Option<u32> {
    let mut addr: u32 = 0;
    let mut rest = s;
    for octet in 0..4 {
        if octet > 0 {
            match rest {
                [b'.', r @ ..] => rest = r,
                _ => return None,
            }
        }
        let mut val: u32 = 0;
        let mut digits = 0usize;
        let mut first = 0u8;
        while let [b, r @ ..] = rest {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            if digits == 0 {
                first = *b;
            }
            val = val * 10 + u32::from(d);
            digits += 1;
            rest = r;
            if digits > 3 {
                return None;
            }
        }
        // No empty octets, no leading zeros ("012"), nothing above 255.
        if digits == 0 || val > 255 || (digits > 1 && first == b'0') {
            return None;
        }
        addr = (addr << 8) | val;
    }
    if rest.is_empty() {
        Some(addr)
    } else {
        None
    }
}

#[inline]
fn month_number(s: &[u8]) -> Option<u32> {
    MONTHS
        .iter()
        .position(|m| m.as_bytes() == s)
        .and_then(|i| u32::try_from(i + 1).ok())
}

/// Decodes two ASCII digit bytes.
#[inline]
fn two_digits(a: u8, b: u8) -> Option<u32> {
    let a = a.wrapping_sub(b'0');
    let b = b.wrapping_sub(b'0');
    if a > 9 || b > 9 {
        None
    } else {
        Some(u32::from(a * 10 + b))
    }
}

/// The latest year a timestamp may carry: four digits, as the fixed-width
/// path reads and [`format_clf_time`](crate::clf::format_clf_time)
/// writes. The general path's year is unbounded text otherwise, and its
/// day count, times 86 400, would overflow.
const MAX_YEAR: u64 = 9999;

/// Days since the Unix epoch for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy as u64;
    era * 146_097 + doe as i64 - 719_468
}

/// Fast path for the canonical fixed-width timestamp
/// `dd/Mon/yyyy:HH:MM:SS +0000` (26 bytes, two-digit day). Returns `None`
/// for anything else — including in-range shapes with out-of-range values
/// — and the caller falls back to the general parser, which accepts the
/// same values on this shape by construction. The 26-byte slice pattern
/// carries both the length and separator checks, so no indexing is
/// needed.
#[inline]
fn parse_clf_time_fixed(s: &[u8]) -> Option<u64> {
    let [d0, d1, b'/', m0, m1, m2, b'/', y0, y1, y2, y3, b':', h0, h1, b':', n0, n1, b':', s0, s1, b' ', b'+', b'0', b'0', b'0', b'0'] =
        s
    else {
        return None;
    };
    let d = two_digits(*d0, *d1)?;
    let m = month_number(&[*m0, *m1, *m2])?;
    let y = i64::from(two_digits(*y0, *y1)? * 100 + two_digits(*y2, *y3)?);
    let h = two_digits(*h0, *h1)?;
    let mi = two_digits(*n0, *n1)?;
    let sec = two_digits(*s0, *s1)?;
    if d == 0 || d > 31 || h > 23 || mi > 59 || sec > 60 {
        return None;
    }
    let days = days_from_civil(y, m, d);
    u64::try_from(days * 86_400 + i64::from(h * 3600 + mi * 60 + sec)).ok()
}

/// Parses a CLF date (the part between brackets) to Unix epoch seconds.
/// Only `+0000` offsets and years up to [`MAX_YEAR`] are accepted.
#[allow(
    clippy::indexing_slicing,
    reason = "every range bound is an offset `find` returned for the slice it cuts (plus one past a found byte)."
)]
fn parse_clf_time(s: &[u8]) -> Option<u64> {
    if let Some(t) = parse_clf_time_fixed(s) {
        return Some(t);
    }
    // dd/Mon/yyyy:HH:MM:SS +0000
    let colon = find(s, b':')?;
    let (date, rest) = (&s[..colon], &s[colon + 1..]);
    let slash1 = find(date, b'/')?;
    let after = &date[slash1 + 1..];
    let slash2 = find(after, b'/')?;
    let (mon, year_part) = (&after[..slash2], &after[slash2 + 1..]);
    // Anything after a third slash is ignored rather than rejected.
    let year = match find(year_part, b'/') {
        Some(i) => &year_part[..i],
        None => year_part,
    };
    #[allow(clippy::cast_possible_truncation, reason = "parse_uint is bounded by u32::MAX above.")]
    let d = parse_uint(&date[..slash1], u32::MAX as u64)? as u32;
    let m = month_number(mon)?;
    let y = parse_uint(year, MAX_YEAR)? as i64;
    let space = find(rest, b' ')?;
    let (time, zone) = (&rest[..space], &rest[space + 1..]);
    if zone != b"+0000" {
        return None;
    }
    let c1 = find(time, b':')?;
    let c2 = find(&time[c1 + 1..], b':')? + c1 + 1;
    let sec_tok = match find(&time[c2 + 1..], b':') {
        Some(i) => &time[c2 + 1..c2 + 1 + i],
        None => &time[c2 + 1..],
    };
    let h = parse_uint(&time[..c1], u64::MAX)?;
    let mi = parse_uint(&time[c1 + 1..c2], u64::MAX)?;
    let sec = parse_uint(sec_tok, u64::MAX)?;
    if d == 0 || d > 31 || h > 23 || mi > 59 || sec > 60 {
        return None;
    }
    let days = days_from_civil(y, m, d);
    u64::try_from(days * 86_400 + (h * 3600 + mi * 60 + sec) as i64).ok()
}

/// Splits off the token before the first space: `(token, rest_after_space)`.
/// Mirrors one step of `str::split(' ')` — the token may be empty, and
/// `rest` is `None` when no space remains.
#[inline]
#[allow(clippy::indexing_slicing, reason = "i is where `find` saw the space in `s`.")]
fn split_token(s: &[u8]) -> (&[u8], Option<&[u8]>) {
    match find(s, b' ') {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    }
}

/// Decodes one CLF line, already trimmed of ASCII whitespace (the
/// `records` iterators trim once while skipping blanks), into a borrowed
/// [`RawRecord`]. `lineno` is the 0-based line number recorded in errors.
///
/// Without `WANT_UA`, `ua` is always `b"-"`: UA extraction never fails, so
/// the `Result` — success or exact error — is otherwise the same, and
/// consumers that ignore the UA (the fused clustering pipeline) skip its
/// backwards quote scan entirely.
#[inline]
#[allow(
    clippy::indexing_slicing,
    reason = "every range bound is an offset `find`/`rposition` returned for the slice it cuts, or the fast path's 31, taken only after `get(31)` saw the bracket."
)]
fn parse_line<const WANT_UA: bool>(
    mut rest: &[u8],
    lineno: usize,
) -> Result<RawRecord<'_>, ClfError> {
    let err = |kind: ClfErrorKind| ClfError { line: lineno, kind };
    let sp = find(rest, b' ').ok_or_else(|| err(ClfErrorKind::MissingFields))?;
    let addr = parse_ipv4(&rest[..sp]).ok_or_else(|| err(ClfErrorKind::BadClientAddress))?;
    rest = &rest[sp + 1..];
    // Canonical tail fast path: `- - [` then a fixed-width timestamp whose
    // closing bracket sits exactly 27 bytes past the opening one. The
    // guess is only taken when the 26 bytes parse as a fixed-width
    // timestamp — which cannot contain `]` — so an accepted guess always
    // equals what the general `find` route would produce.
    let (open, fast_epoch) = if rest.starts_with(b"- - [") {
        let close = 4 + 27;
        if rest.get(close) == Some(&b']') {
            (4, parse_clf_time_fixed(&rest[5..close]))
        } else {
            (4, None)
        }
    } else {
        (
            find(rest, b'[').ok_or_else(|| err(ClfErrorKind::MissingTimestamp))?,
            None,
        )
    };
    let (epoch, close) = match fast_epoch {
        Some(t) => (t, open + 27),
        None => {
            let close = find(&rest[open + 1..], b']')
                .map(|i| i + open + 1)
                .ok_or_else(|| err(ClfErrorKind::MissingTimestampClose))?;
            let t = parse_clf_time(&rest[open + 1..close])
                .ok_or_else(|| err(ClfErrorKind::BadTimestamp))?;
            (t, close)
        }
    };
    rest = trim_ascii_start(&rest[close + 1..]);
    if rest.first() != Some(&b'"') {
        return Err(err(ClfErrorKind::MissingRequestLine));
    }
    let req_end =
        find(&rest[1..], b'"').ok_or_else(|| err(ClfErrorKind::UnterminatedRequestLine))? + 1;
    let request_line = &rest[1..req_end];
    // Method is the first space-separated token (never absent — an empty
    // request line still yields an empty method token); the path is the
    // second.
    let path = match find(request_line, b' ') {
        None => return Err(err(ClfErrorKind::RequestLineLacksPath)),
        Some(m) => split_token(&request_line[m + 1..]).0,
    };
    rest = trim_ascii_start(&rest[req_end + 1..]);
    let (status_tok, after_status) = split_token(rest);
    #[allow(clippy::cast_possible_truncation, reason = "parse_uint is bounded by u16::MAX above.")]
    let status =
        parse_uint(status_tok, u16::MAX as u64).ok_or_else(|| err(ClfErrorKind::BadStatus))? as u16;
    let tail = after_status.ok_or_else(|| err(ClfErrorKind::MissingBytes))?;
    let (bytes_tok, after_bytes) = split_token(tail);
    #[allow(clippy::cast_possible_truncation, reason = "parse_uint is bounded by u32::MAX above.")]
    let bytes: u32 = if bytes_tok == b"-" {
        0
    } else {
        parse_uint(bytes_tok, u32::MAX as u64).ok_or_else(|| err(ClfErrorKind::BadBytes))? as u32
    };
    // Optional combined-format tail: "referer" "user-agent". The UA is the
    // segment between the last two quotes (everything before a lone quote,
    // `-` when no quotes remain).
    let ua = match after_bytes {
        _ if !WANT_UA => &b"-"[..],
        None => &b"-"[..],
        Some(t) => match t.iter().rposition(|&b| b == b'"') {
            None => &b"-"[..],
            Some(last) => match t[..last].iter().rposition(|&b| b == b'"') {
                Some(prev) => &t[prev + 1..last],
                None => &t[..last],
            },
        },
    };
    Ok(RawRecord {
        addr,
        epoch,
        path,
        status,
        bytes,
        ua,
    })
}

/// Iterator over the records of a CLF buffer: yields `Ok((lineno,
/// record))` for parsable lines and `Err(error)` for malformed ones,
/// skipping blank lines. `first_line` offsets the reported line numbers.
pub fn records(
    data: &[u8],
    first_line: usize,
) -> impl Iterator<Item = Result<(usize, RawRecord<'_>), ClfError>> {
    lines(data).enumerate().filter_map(move |(i, line)| {
        let trimmed = trim_ascii(line);
        if trimmed.is_empty() {
            return None;
        }
        let lineno = first_line + i;
        Some(parse_line::<true>(trimmed, lineno).map(|r| (lineno, r)))
    })
}

/// [`records`] without the User-Agent — same records and errors with
/// `ua` fixed to `b"-"`, skipping the User-Agent scan per line — for the
/// chunked parser, which also has to learn how many lines each chunk
/// held: as it walks, the iterator keeps `*lines_seen` at the number of
/// lines passed so far, blank ones included, so once it is exhausted that
/// is the buffer's line count and no second scan is needed for it. (A
/// chain of its own, so the loop behind [`records`] — the daemon's
/// parser — carries no counter.)
pub fn records_no_ua<'a: 's, 's>(
    data: &'a [u8],
    first_line: usize,
    lines_seen: &'s mut usize,
) -> impl Iterator<Item = Result<(usize, RawRecord<'a>), ClfError>> + 's {
    lines(data).enumerate().filter_map(move |(i, line)| {
        *lines_seen = i + 1;
        let trimmed = trim_ascii(line);
        if trimmed.is_empty() {
            return None;
        }
        let lineno = first_line + i;
        Some(parse_line::<false>(trimmed, lineno).map(|r| (lineno, r)))
    })
}

/// Iterates `\n`-separated lines, stripping one trailing `\r` each —
/// byte-level `str::lines`. A trailing newline does not produce a final
/// empty line.
#[allow(
    clippy::indexing_slicing,
    reason = "pos < data.len() is checked; i is where `find` saw the newline."
)]
pub fn lines(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if pos >= data.len() {
            return None;
        }
        let rest = &data[pos..];
        let (line, advance) = match find(rest, b'\n') {
            Some(i) => (&rest[..i], i + 1),
            None => (rest, rest.len()),
        };
        pos += advance;
        Some(line.strip_suffix(b"\r").unwrap_or(line))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clf::format_clf_time;

    /// 13/Feb/1998:07:00:00 +0000, the time on most rows below.
    const T0: u64 = 887_353_200;

    #[test]
    fn ipv4_matches_std() {
        for s in [
            "0.0.0.0",
            "1.2.3.4",
            "255.255.255.255",
            "12.65.147.94",
            "01.2.3.4",
            "1.2.3.04",
            "1.2.3",
            "1.2.3.4.5",
            "1.2.3.256",
            "1.2.3.",
            ".1.2.3",
            "1..2.3",
            "a.b.c.d",
            "1.2.3.4 ",
            "",
            "999.1.1.1",
            "+1.2.3.4",
        ] {
            let expect = s.parse::<std::net::Ipv4Addr>().ok().map(u32::from);
            assert_eq!(parse_ipv4(s.as_bytes()), expect, "{s:?}");
        }
    }

    #[test]
    fn time_roundtrips_through_the_writer() {
        assert_eq!(format_clf_time(887_328_000), "13/Feb/1998:00:00:00 +0000");
        // The last second of year 9999 is the latest a CLF date can say.
        for t in [
            0u64,
            887_328_000,
            1_000_000_000,
            4_102_444_799,
            253_402_300_799,
        ] {
            assert_eq!(
                parse_clf_time(format_clf_time(t).as_bytes()),
                Some(t),
                "t = {t}"
            );
        }
    }

    /// Each date pinned to what the parser makes of it, the fixed-width
    /// fast path and the general fallback alike.
    #[test]
    fn time_pinned() {
        for (s, want) in [
            ("13/Feb/1998:07:21:35 +0000", Some(887_354_495)),
            ("13/Feb/1998:00:00:00 +0000", Some(887_328_000)),
            ("01/Jan/1970:00:00:00 +0000", Some(0)),
            ("31/Dec/2099:23:59:60 +0000", Some(4_102_444_800)),
            ("5/Feb/1998:07:21:35 +0000", Some(886_663_295)),
            ("13/Feb/01998:07:21:35 +0000", Some(887_354_495)),
            ("13/Feb/1998:07:21:35:99 +0000", Some(887_354_495)),
            ("5/Feb/1998/x:07:21:35 +0000", Some(886_663_295)),
            ("13/Feb/1998:07:21:35 +0100", None),
            ("99/Feb/1998:07:21:35 +0000", None),
            ("13/feb/1998:07:21:35 +0000", None),
            ("13/Feb/0098:07:21:35 +0000", None),
            ("32/Feb/1998:00:00:00 +0000", None),
            ("13/Xxx/1998:00:00:00 +0000", None),
            ("00/Feb/1998:00:00:00 +0000", None),
            ("13/Feb/1998:24:00:00 +0000", None),
            ("13/Feb/1998:00:61:00 +0000", None),
            ("13/Feb/1998:00:00 +0000", None),
            ("+13/Feb/1998:07:21:35 +0000", None),
            ("13/Feb/+998:07:21:35 +0000", None),
            ("13/Feb/10000:07:21:35 +0000", None),
            ("13/Feb/99999999:07:21:35 +0000", None),
            ("13/Feb/999999999999:07:21:35 +0000", None),
            ("13/Feb/9223372036854775807:07:21:35 +0000", None),
            ("13/Feb/18446744073709551616:07:21:35 +0000", None),
            ("nonsense", None),
            ("", None),
        ] {
            assert_eq!(parse_clf_time(s.as_bytes()), want, "{s:?}");
        }
    }

    #[test]
    fn record_zero_copy_fields() {
        let line = b"12.65.147.94 - - [13/Feb/1998:07:21:35 +0000] \"GET /a.html HTTP/1.0\" 200 5120 \"-\" \"Mozilla/4.0 (X11; Linux)\"";
        let (lineno, r) = records(line, 4).next().unwrap().unwrap();
        assert_eq!(lineno, 4);
        assert_eq!(r.addr, u32::from_be_bytes([12, 65, 147, 94]));
        assert_eq!(r.path, b"/a.html");
        assert_eq!(r.status, 200);
        assert_eq!(r.bytes, 5120);
        assert_eq!(r.ua, b"Mozilla/4.0 (X11; Linux)");
        assert_eq!(r.epoch, 887_354_495);
        // The borrowed fields point into the input buffer.
        let base = line.as_ptr() as usize;
        let path_pos = r.path.as_ptr() as usize - base;
        assert_eq!(&line[path_pos..path_pos + r.path.len()], b"/a.html");
    }

    /// One malformed line per error kind. The `match` is exhaustive, so a
    /// new kind does not compile until it has a row here.
    fn malformed(kind: ClfErrorKind) -> &'static str {
        match kind {
            ClfErrorKind::MissingFields => "1.2.3.4",
            ClfErrorKind::BadClientAddress => {
                "999.1.1.1 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100"
            }
            ClfErrorKind::MissingTimestamp => {
                "1.2.3.4 - - 13/Feb/1998:07:00:00 \"GET /x HTTP/1.0\" 200 100"
            }
            ClfErrorKind::MissingTimestampClose => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000 \"GET /x HTTP/1.0\" 200 100"
            }
            ClfErrorKind::BadTimestamp => {
                "1.2.3.4 - - [32/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100"
            }
            ClfErrorKind::MissingRequestLine => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] GET /x HTTP/1.0 200 100"
            }
            ClfErrorKind::UnterminatedRequestLine => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0 200 100"
            }
            ClfErrorKind::RequestLineLacksPath => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET\" 200 100"
            }
            ClfErrorKind::BadStatus => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" abc 100"
            }
            ClfErrorKind::MissingBytes => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200"
            }
            ClfErrorKind::BadBytes => {
                "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 xyz"
            }
        }
    }

    const KINDS: [ClfErrorKind; 11] = [
        ClfErrorKind::MissingFields,
        ClfErrorKind::BadClientAddress,
        ClfErrorKind::MissingTimestamp,
        ClfErrorKind::MissingTimestampClose,
        ClfErrorKind::BadTimestamp,
        ClfErrorKind::MissingRequestLine,
        ClfErrorKind::UnterminatedRequestLine,
        ClfErrorKind::RequestLineLacksPath,
        ClfErrorKind::BadStatus,
        ClfErrorKind::MissingBytes,
        ClfErrorKind::BadBytes,
    ];

    /// What a line parses to: `Ok((epoch, user agent))` or the error kind.
    type Outcome<Ua> = Result<(u64, Ua), ClfErrorKind>;

    /// Lines at the edges of the grammar, each pinned to what this parser
    /// does with it.
    const EDGES: [(&str, Outcome<&str>); 20] = [
        ("garbage", Err(ClfErrorKind::MissingFields)),
        ("not a log line", Err(ClfErrorKind::BadClientAddress)),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 99999 1",
            Err(ClfErrorKind::BadStatus),
        ),
        // A `]` before the timestamp: the close is searched after the open.
        (
            "1.2.3.4 ] - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Ok((T0, "-")),
        ),
        // A leading `+` is not a digit, in any number.
        (
            "+1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadClientAddress),
        ),
        (
            "1.2.3.4 - - [+13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadTimestamp),
        ),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" +200 100",
            Err(ClfErrorKind::BadStatus),
        ),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 +100",
            Err(ClfErrorKind::BadBytes),
        ),
        // Only ASCII whitespace (not U+00A0, U+2003 or the vertical tab)
        // is trimmed or separates fields.
        (
            "\u{a0}1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadClientAddress),
        ),
        (
            "\u{b}1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadClientAddress),
        ),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100\u{2003}",
            Err(ClfErrorKind::BadBytes),
        ),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100 \"-\" \"UA\"\u{a0}",
            Ok((T0, "UA")),
        ),
        // Double spaces: the UA is what the last two quotes enclose, but
        // the status and bytes are exactly one space apart.
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100  \"-\"  \"Mozilla/4.0  (X11)\"",
            Ok((T0, "Mozilla/4.0  (X11)")),
        ),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200  100",
            Err(ClfErrorKind::BadBytes),
        ),
        (
            "1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100 Mozilla\"",
            Ok((T0, "Mozilla")),
        ),
        // The general timestamp path reads what the fixed-width one cannot.
        (
            "1.2.3.4 - - [5/Feb/1998:07:21:35 +0000] \"GET /x HTTP/1.0\" 200 100",
            Ok((886_663_295, "-")),
        ),
        // Hostile years: beyond four digits the day count once overflowed.
        (
            "1.2.3.4 - - [13/Feb/10000:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadTimestamp),
        ),
        (
            "1.2.3.4 - - [13/Feb/99999999:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadTimestamp),
        ),
        (
            "1.2.3.4 - - [13/Feb/999999999999:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadTimestamp),
        ),
        (
            "1.2.3.4 - - [13/Feb/9223372036854775807:07:00:00 +0000] \"GET /x HTTP/1.0\" 200 100",
            Err(ClfErrorKind::BadTimestamp),
        ),
    ];

    /// Every error kind and every edge row, as one buffer through
    /// [`records`]: each line's outcome and line number pinned.
    #[test]
    fn malformed_lines_pinned() {
        let rows: Vec<(&str, Outcome<&str>)> = KINDS
            .iter()
            .map(|&kind| (malformed(kind), Err(kind)))
            .chain(EDGES)
            .collect();
        let text = rows.iter().map(|r| r.0).collect::<Vec<_>>().join("\n");
        let got: Vec<(usize, Outcome<&[u8]>)> = records(text.as_bytes(), 0)
            .map(|item| match item {
                Ok((line, r)) => (line, Ok((r.epoch, r.ua))),
                Err(e) => (e.line, Err(e.kind)),
            })
            .collect();
        let want: Vec<(usize, Outcome<&[u8]>)> = rows
            .iter()
            .enumerate()
            .map(|(line, r)| (line, r.1.map(|(epoch, ua)| (epoch, ua.as_bytes()))))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn find_matches_position_across_lengths() {
        // Exercise the SWAR word loop and the scalar remainder, including
        // bytes >= 0x80 around the needle (borrow-propagation territory).
        let mut hay: Vec<u8> = (0..41u8).map(|i| i.wrapping_mul(37) | 0x80).collect();
        for pos in [0usize, 3, 7, 8, 9, 15, 16, 31, 39, 40] {
            let mut h = hay.clone();
            h[pos] = b'\n';
            assert_eq!(find(&h, b'\n'), Some(pos), "pos={pos}");
        }
        hay.push(b'\n');
        hay.push(b'\n');
        assert_eq!(find(&hay, b'\n'), Some(41));
        assert_eq!(find(&hay[..41], b'\n'), None);
        assert_eq!(find(&[], b'\n'), None);
    }

    #[test]
    fn no_ua_variant_matches_except_ua() {
        let text = b"12.65.147.94 - - [13/Feb/1998:07:21:35 +0000] \"GET /a.html HTTP/1.0\" 200 5120 \"-\" \"Mozilla/4.0 (X11; Linux)\"\n\
                     1.2.3.4 - - [13/Feb/1998:07:00:00 +0000] \"GET /x HTTP/1.0\" abc 100\n";
        let full: Vec<_> = records(text, 3).collect();
        assert_eq!(full[0].as_ref().unwrap().1.ua, b"Mozilla/4.0 (X11; Linux)");
        assert!(full[1].is_err());
        let mut seen = 0;
        let lean: Vec<_> = records_no_ua(text, 3, &mut seen).collect();
        let want: Vec<_> = full
            .into_iter()
            .map(|item| item.map(|(line, r)| (line, RawRecord { ua: b"-", ..r })))
            .collect();
        assert_eq!(lean, want);
    }

    #[test]
    fn lines_match_str_lines() {
        for text in [
            "a\nb\nc",
            "a\nb\nc\n",
            "a\r\nb\r\n",
            "",
            "\n",
            "\n\n",
            "a\n\nb",
        ] {
            let expect: Vec<&[u8]> = text.lines().map(str::as_bytes).collect();
            let got: Vec<&[u8]> = lines(text.as_bytes()).collect();
            assert_eq!(got, expect, "{text:?}");
            // An exhausted record iterator has walked exactly these
            // lines, blank ones included.
            let mut seen = 0;
            records_no_ua(text.as_bytes(), 7, &mut seen).for_each(drop);
            assert_eq!(seen, expect.len(), "{text:?}");
        }
    }
}
