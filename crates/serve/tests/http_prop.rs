//! Properties of the incremental request parser over requests drawn from
//! the grammar it accepts — request line, field lines, `Content-Length`
//! bodies, bare-LF heads and heads near [`MAX_HEAD_BYTES`] — over the
//! two field forms it refuses (`Transfer-Encoding`, obs-fold), and over
//! byte edits of them: torn reads change nothing, pipelined requests come
//! apart one by one, and no input panics. The shim does not shrink: a
//! failure prints the bytes it was given.

use netclust_serve::http::{parse_request, HttpRequest, Method, Parse, MAX_HEAD_BYTES};
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

/// One byte edit: (where, what, the byte).
type Edit = (usize, usize, u8);

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
    (any::<usize>(), 0usize..4, byte)
}

fn apply(bytes: &mut Vec<u8>, (at, op, byte): Edit) {
    let at = at % (bytes.len() + 1);
    match op {
        0 => bytes.insert(at, byte),
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        2 if at < bytes.len() => bytes[at] ^= byte | 1,
        _ if at < bytes.len() => bytes[at] = byte,
        _ => bytes.push(byte),
    }
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
        let mut bytes = wire.bytes.clone();
        for edit in edits {
            apply(&mut bytes, edit);
        }
        let whole = parse_request(&bytes);
        if let Parse::Complete { consumed, .. } = &whole {
            prop_assert!((1..=bytes.len()).contains(consumed), "{:?}", bytes);
        }
        for cut in cuts(bytes.len(), wire.head_end) {
            prop_assert_eq!(&fed_in_two(&bytes, cut), &whole, "cut {} of {:?}", cut, bytes);
        }
    }
}
