//! Properties of the incremental request parser over requests drawn from
//! the grammar it accepts — request line, field lines, `Content-Length`
//! bodies, bare-LF heads and heads near [`MAX_HEAD_BYTES`] — over the
//! two field forms it refuses (`Transfer-Encoding`, obs-fold), and over
//! byte edits of them: torn reads change nothing, pipelined requests come
//! apart one by one, no input panics, a request read a byte at a time
//! costs linear work, and a parsed request re-encoded parses to itself.
//! The shim does not shrink: a failure prints the bytes it was given.

use netclust_serve::http::{
    parse_request, HttpRequest, Method, Parse, RequestParser, MAX_HEAD_BYTES,
};
use netclust_testkit::{self as testkit, apply, Edit, Op};
use proptest::collection::vec;
use proptest::prelude::*;

/// A request's bytes and what they must parse to.
#[derive(Debug, Clone)]
struct Wire {
    bytes: Vec<u8>,
    /// Where the body starts: just past the head's blank line.
    head_end: usize,
    want: HttpRequest,
}

/// Method, path segment and query pairs.
type Line = (usize, String, Vec<(String, String)>);
/// HTTP/1.1?, `Connection` (none, close, keep-alive), bare LF?, a `Host`
/// on an HTTP/1.0 request?, where among the other fields the host goes.
type Framing = (bool, usize, bool, bool, usize);
/// Field lines other than the ones the parser reads.
type Fields = Vec<(String, String)>;
/// `Content-Length` given?, the body.
type Body = (bool, String);
/// Pad the head to within `slack` bytes of the limit?, `slack`.
type Pad = (bool, usize);

fn arb_wire() -> impl Strategy<Value = Wire> {
    let line = (
        0usize..3,
        "[a-zA-Z0-9._~-]{0,12}",
        vec(("[a-z]{1,6}", "[a-zA-Z0-9.-]{0,8}"), 0..4),
    );
    let framing = (
        any::<bool>(),
        0usize..3,
        any::<bool>(),
        any::<bool>(),
        0usize..8,
    );
    let fields = vec(("X-[A-Za-z0-9-]{0,10}", "[ -~]{0,20}"), 0..5);
    let body = (any::<bool>(), "[ -~]{0,40}");
    // A slack under 4 puts the terminator across the limit.
    let pad = (any::<bool>(), prop_oneof![0usize..4, 0usize..120]);
    (line, framing, fields, body, pad).prop_map(build)
}

fn build(
    ((method, segment, query), framing, fields, body, pad): (Line, Framing, Fields, Body, Pad),
) -> Wire {
    let (http11, connection, bare_lf, host_on_10, host_at) = framing;
    let (sized, body) = body;
    let eol = if bare_lf { "\n" } else { "\r\n" };
    let (verb, method) = [
        ("GET", Method::Get),
        ("POST", Method::Post),
        ("PUT", Method::Other),
    ][method];
    let mut target = format!("/{segment}");
    if !query.is_empty() {
        let pairs: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
        target = format!("{target}?{}", pairs.join("&"));
    }
    let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
    let mut lines = vec![format!("{verb} {target} {version}")];
    lines.extend(
        fields
            .iter()
            .map(|(name, value)| format!("{name}: {value}")),
    );
    if http11 || host_on_10 {
        lines.insert(
            1 + host_at % (fields.len() + 1),
            "Host: 127.0.0.1:8080".to_string(),
        );
    }
    lines.push(["", "Connection: close", "Connection: keep-alive"][connection].to_string());
    lines.retain(|l| !l.is_empty());
    let body = if sized { body } else { String::new() };
    if sized {
        lines.push(format!("Content-Length: {}", body.len()));
    }
    let (near_limit, slack) = pad;
    let head_len = lines.iter().map(String::len).sum::<usize>() + eol.len() * (lines.len() - 1);
    let filler = eol.len() + "X-Pad: ".len();
    if near_limit && head_len + filler + slack <= MAX_HEAD_BYTES {
        let pad = MAX_HEAD_BYTES - slack - head_len - filler;
        lines.push(format!("X-Pad: {}", "p".repeat(pad)));
    }
    let head = format!("{}{eol}{eol}", lines.join(eol));
    let keep_alive = [http11, false, true][connection];
    Wire {
        head_end: head.len(),
        bytes: [head.as_bytes(), body.as_bytes()].concat(),
        want: HttpRequest {
            method,
            path: format!("/{segment}"),
            query,
            keep_alive,
            body: body.into_bytes(),
        },
    }
}

/// A request with one more head line the parser must refuse: a
/// `Transfer-Encoding` field (any case, any value) or a line folded onto
/// the one before it (RFC 9112 §5.2's obs-fold), at any line boundary of
/// the head after the request line.
fn arb_refused() -> impl Strategy<Value = Wire> {
    let name = prop_oneof![
        Just("Transfer-Encoding"),
        Just("transfer-encoding"),
        Just("TRANSFER-ENCODING"),
    ];
    let field = (name, "[ \t]{0,2}", "[ -~]{0,12}").prop_map(|(n, ws, v)| format!("{n}:{ws}{v}"));
    let fold = ("[ \t]{1,3}", "[ -~]{0,16}").prop_map(|(ws, rest)| format!("{ws}{rest}"));
    let line = prop_oneof![field, fold];
    (arb_wire(), line, any::<usize>()).prop_map(|(mut wire, line, at)| {
        let head = &wire.bytes[..wire.head_end];
        let eol: &[u8] = if head.ends_with(b"\r\n\r\n") {
            b"\r\n"
        } else {
            b"\n"
        };
        // Line starts after the request line, the closing blank one last.
        let starts: Vec<usize> = (1..wire.head_end - eol.len() + 1)
            .filter(|&i| head[i - 1] == b'\n')
            .collect();
        let at = starts[at % starts.len()];
        let inserted = [line.as_bytes(), eol].concat();
        wire.head_end += inserted.len();
        wire.bytes.splice(at..at, inserted);
        wire
    })
}

/// What a connection loop ends with when `wire` arrives as two reads
/// split at `cut`: it parses after each read and reads on only after
/// `Partial`.
fn fed_in_two(wire: &[u8], cut: usize) -> Parse {
    match parse_request(&wire[..cut]) {
        Parse::Partial => parse_request(wire),
        done => done,
    }
}

/// Every split of a short wire; of a long one, those near its ends and
/// its head's end, and a stride through the rest.
fn cuts(len: usize, head_end: usize) -> impl Iterator<Item = usize> {
    (0..=len).filter(move |&c| {
        len <= 512 || c % 61 == 0 || c + 8 >= len || c.abs_diff(head_end) <= 8 || c <= 8
    })
}

/// Byte edits: an insert, a removal, a bit flip or an overwrite, with a
/// line break, field punctuation, a digit or any byte.
fn arb_edit() -> impl Strategy<Value = Edit> {
    let byte = prop_oneof![
        Just(b'\r'),
        Just(b'\n'),
        Just(b':'),
        Just(b' '),
        Just(b'\t'),
        Just(b'0'),
        any::<u8>(),
    ];
    testkit::arb_edit(&[Op::Insert, Op::Remove, Op::Xor, Op::Set], byte)
}

/// Bytes past two for each of the request's that a parser fed one byte
/// at a time may look at: the search looks at a line break again on the
/// read after it, at the blank line's bytes up to three times, and a
/// generated head has at most ten lines.
const SLACK: usize = 16;

/// `s` with every byte but RFC 3986's unreserved ones and `/` escaped as
/// `%XX`, which `percent_decode` reads back as `s`.
fn escape(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'/' | b'-' | b'.' | b'_' | b'~' => char::from(b).to_string(),
            _ if b.is_ascii_alphanumeric() => char::from(b).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// `request` in canonical form: the request line, `Host`,
/// `Content-Length`, `Connection`, the body.
fn encode(request: &HttpRequest) -> Vec<u8> {
    let verb = match request.method {
        Method::Get => "GET",
        Method::Post => "POST",
        Method::Other => "PUT",
    };
    let query: Vec<String> = (request.query.iter())
        .map(|(k, v)| format!("{}={}", escape(k), escape(v)))
        .collect();
    let connection = if request.keep_alive {
        "keep-alive"
    } else {
        "close"
    };
    let head = format!(
        "{verb} {}?{} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        escape(&request.path),
        query.join("&"),
        request.body.len(),
    );
    [head.as_bytes(), &request.body].concat()
}

proptest! {
    /// A request parses to what it says, consuming exactly its bytes;
    /// every strict prefix asks for more; and fed as two reads split
    /// anywhere it parses as it does whole.
    #[test]
    fn any_split_parses_as_the_whole(wire in arb_wire()) {
        let whole = parse_request(&wire.bytes);
        let want = Parse::Complete { request: wire.want.clone(), consumed: wire.bytes.len() };
        prop_assert_eq!(&whole, &want, "{:?}", String::from_utf8_lossy(&wire.bytes));
        for cut in cuts(wire.bytes.len(), wire.head_end) {
            if cut < wire.bytes.len() {
                prop_assert_eq!(parse_request(&wire.bytes[..cut]), Parse::Partial, "cut {}", cut);
            }
            prop_assert_eq!(&fed_in_two(&wire.bytes, cut), &whole, "cut {}", cut);
        }
    }

    /// A `Transfer-Encoding` field or a folded line makes the request
    /// invalid, fed whole or as two reads split anywhere.
    #[test]
    fn transfer_encoding_and_folded_lines_are_refused(wire in arb_refused()) {
        let whole = parse_request(&wire.bytes);
        prop_assert!(
            matches!(whole, Parse::Invalid(_)),
            "{:?} on {:?}",
            whole,
            String::from_utf8_lossy(&wire.bytes)
        );
        for cut in cuts(wire.bytes.len(), wire.head_end) {
            prop_assert_eq!(&fed_in_two(&wire.bytes, cut), &whole, "cut {}", cut);
        }
    }

    /// n requests written back to back parse to the n requests, in order,
    /// each consuming its own bytes and nothing of the next.
    #[test]
    fn pipelined_requests_parse_one_by_one(wires in vec(arb_wire(), 1..6)) {
        let mut buf: Vec<u8> = wires.iter().flat_map(|w| w.bytes.clone()).collect();
        for w in &wires {
            match parse_request(&buf) {
                Parse::Complete { request, consumed } => {
                    prop_assert_eq!(&request, &w.want);
                    prop_assert_eq!(consumed, w.bytes.len());
                    buf.drain(..consumed);
                }
                other => prop_assert!(false, "{:?} on {:?}", other, String::from_utf8_lossy(&buf)),
            }
        }
        prop_assert!(buf.is_empty());
    }

    /// Edited bytes never panic the parser: the outcome is a request that
    /// consumed some of them, a call for more, or a refusal — and it does
    /// not depend on how the bytes were split into reads.
    #[test]
    fn edited_bytes_never_panic_and_split_alike(
        wire in prop_oneof![arb_wire(), arb_refused()],
        edits in vec(arb_edit(), 1..5),
    ) {
        let bytes = apply(&wire.bytes, &edits);
        let whole = parse_request(&bytes);
        if let Parse::Complete { consumed, .. } = &whole {
            prop_assert!((1..=bytes.len()).contains(consumed), "{:?}", bytes);
        }
        for cut in cuts(bytes.len(), wire.head_end) {
            prop_assert_eq!(&fed_in_two(&bytes, cut), &whole, "cut {} of {:?}", cut, bytes);
        }
    }

    /// A request read one byte at a time asks for more until its last
    /// byte comes, then parses as it does whole, and its parser has looked
    /// at about two bytes for each: the search passes each byte once, and
    /// the head parse and the body copy read theirs once.
    #[test]
    fn a_request_read_a_byte_at_a_time_costs_linear_work(wire in arb_wire()) {
        let n = wire.bytes.len();
        let mut parser = RequestParser::default();
        for end in 1..n {
            prop_assert_eq!(parser.parse(&wire.bytes[..end]), Parse::Partial, "at {}", end);
        }
        let want = Parse::Complete { request: wire.want.clone(), consumed: n };
        prop_assert_eq!(parser.parse(&wire.bytes), want);
        let examined = parser.examined();
        prop_assert!(examined <= 2 * n + SLACK, "{} bytes examined for {}", examined, n);
    }

    /// A request that parses, generated or edited, re-encoded in canonical
    /// form parses to itself, consuming exactly the encoding.
    #[test]
    fn a_parsed_request_re_encoded_parses_to_itself(
        wire in prop_oneof![arb_wire(), arb_refused()],
        edits in vec(arb_edit(), 0..3),
    ) {
        let Parse::Complete { request, .. } = parse_request(&apply(&wire.bytes, &edits)) else {
            return Ok(());
        };
        let bytes = encode(&request);
        let want = Parse::Complete { request, consumed: bytes.len() };
        prop_assert_eq!(parse_request(&bytes), want, "{:?}", String::from_utf8_lossy(&bytes));
    }
}
