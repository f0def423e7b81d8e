//! Hand-rolled HTTP/1.1 request parsing and response framing.
//!
//! Deliberately minimal: the daemon speaks exactly the subset its API
//! needs — `GET`/`POST`, `Content-Length` bodies, keep-alive — and rejects
//! everything else with a clean `400`/`405` instead of guessing. The
//! parser is incremental over a growing byte buffer so a connection loop
//! can feed it torn reads and pipelined batches alike: it either consumes
//! one complete request (returning how many bytes it ate), asks for more
//! bytes, or declares the prefix unsalvageable. A connection keeps a
//! [`RequestParser`], so a request read in many pieces is scanned once.
//!
//! Nothing here panics: every malformed input is a typed
//! [`Parse::Invalid`], all slicing is range-based, and header sizes are
//! bounded ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]) so a hostile peer
//! cannot balloon memory.

use std::ops::Range;

/// Upper bound on the request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Bytes of the longest head terminator, `\r\n\r\n`: a head of
/// [`MAX_HEAD_BYTES`] may still be arriving until this many more have.
const MAX_TERMINATOR_BYTES: usize = 4;

/// Upper bound on a request body (`/v1/reload` delta feeds are the only
/// bodies the API accepts).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Request methods the daemon distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET` — every query endpoint.
    Get,
    /// `POST` — `/v1/reload`.
    Post,
    /// Anything else; the router answers `405`.
    Other,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method.
    pub method: Method,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Decoded `key=value` query parameters, in wire order.
    pub query: Vec<(String, String)>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way).
    pub keep_alive: bool,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of trying to parse one request off the front of a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// One complete request; `consumed` bytes belong to it and should be
    /// drained before parsing the next pipelined request.
    Complete {
        /// The parsed request.
        request: HttpRequest,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// The buffer holds a valid-so-far prefix; read more bytes.
    Partial,
    /// The prefix can never become a valid request; answer `400` and
    /// close.
    Invalid(&'static str),
}

/// Incremental request parser; see [`Parse`].
pub fn parse_request(buf: &[u8]) -> Parse {
    RequestParser::default().parse(buf)
}

/// [`parse_request`] over one connection's buffer as it grows between
/// calls: the search for the head's end resumes where the last call left
/// it, and the head is parsed once, so a request that arrives in k reads
/// costs its bytes plus O(k), not k times its bytes. After a
/// [`Parse::Complete`] it starts on the next request, whose bytes begin
/// the buffer once the caller has drained the consumed ones.
#[derive(Debug, Default)]
pub struct RequestParser {
    /// No blank line ends the head before this offset.
    scanned: usize,
    /// The request whose head has arrived, and where its body lies.
    head: Option<(HttpRequest, Range<usize>)>,
    /// Bytes looked at: by the search, by the head parse, as body.
    looked_at: usize,
}

impl RequestParser {
    /// The request at the front of `buf`, which holds the bytes of the
    /// previous call's and, if that was `Partial`, more.
    pub fn parse(&mut self, buf: &[u8]) -> Parse {
        let (mut request, body) = match self.head.take() {
            Some(head) => head,
            None => match self.find_head(buf) {
                Ok(head) => head,
                Err(outcome) => return outcome,
            },
        };
        let Some(bytes) = buf.get(body.clone()) else {
            self.head = Some((request, body));
            return Parse::Partial;
        };
        self.scanned = 0;
        self.looked_at += bytes.len();
        request.body = bytes.to_vec();
        Parse::Complete {
            request,
            consumed: body.end,
        }
    }

    /// Bytes this parser has looked at, over every request it parsed.
    pub fn examined(&self) -> usize {
        self.looked_at
    }

    /// The head at the front of `buf`, searched for from where the last
    /// call stopped.
    fn find_head(&mut self, buf: &[u8]) -> Result<(HttpRequest, Range<usize>), Parse> {
        let from = self.scanned;
        let (head_len, body_start) = match find_head_end(buf, from) {
            Ok(found) => found,
            Err(resume) => {
                self.looked_at += buf.len().saturating_sub(from);
                self.scanned = resume;
                return Err(if buf.len() >= MAX_HEAD_BYTES + MAX_TERMINATOR_BYTES {
                    Parse::Invalid("request head exceeds 8 KiB")
                } else {
                    Parse::Partial
                });
            }
        };
        self.looked_at += body_start - from + head_len;
        read_head(buf.get(..head_len).unwrap_or_default(), body_start).map_err(Parse::Invalid)
    }
}

/// The request `head` (without its blank line) describes, less its body,
/// and where the body lies: from `body_start`, for its `Content-Length`.
fn read_head(head: &[u8], body_start: usize) -> Result<(HttpRequest, Range<usize>), &'static str> {
    if head.len() > MAX_HEAD_BYTES {
        return Err("request head exceeds 8 KiB");
    }
    let mut lines = head.split(|&b| b == b'\n').map(strip_cr);
    let Some(request_line) = lines.next() else {
        return Err("empty request head");
    };
    let Ok(request_line) = std::str::from_utf8(request_line) else {
        return Err("request line is not UTF-8");
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err("malformed request line");
    };
    if parts.next().is_some() {
        return Err("malformed request line");
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err("unsupported HTTP version"),
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => Method::Other,
    };

    let mut content_length = None;
    let mut keep_alive = http11;
    let mut host = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        // RFC 9112 §5.2: a line folded onto the previous one is refused.
        if line.first().is_some_and(|&b| b == b' ' || b == b'\t') {
            return Err("obsolete line folding");
        }
        let Ok(line) = std::str::from_utf8(line) else {
            return Err("header is not UTF-8");
        };
        let Some((name, value)) = line.split_once(':') else {
            return Err("header without a colon");
        };
        // RFC 9112 §5.1: a name is a token, with no whitespace before the
        // colon; `Content-Length : 5` must not pass as some other header.
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err("header name is not a token");
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: digits only (`usize::from_str` would take a
            // leading `+`), and a repeat must say the same length.
            let n = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Err("unparsable content-length"),
            };
            if content_length.is_some_and(|earlier| earlier != n) {
                return Err("conflicting content-length headers");
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are outside the daemon's subset.
            return Err("transfer-encoding is not supported");
        } else if name.eq_ignore_ascii_case("host") {
            // RFC 9112 §3.2: one `Host` line, with a valid value.
            if host {
                return Err("more than one host header");
            }
            if !is_host(value) {
                return Err("invalid host header");
            }
            host = true;
        }
    }
    // RFC 9112 §3.2: an HTTP/1.1 request names its host; 1.0 may not.
    if http11 && !host {
        return Err("missing host header");
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err("body exceeds 1 MiB");
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let request = HttpRequest {
        method,
        path: percent_decode(path),
        query: parse_query(query),
        keep_alive,
        body: Vec::new(),
    };
    Ok((request, body_start..body_start + content_length))
}

/// A `tchar` of RFC 9110 §5.6.2: what a field name is made of.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// A `Host` value of RFC 9110 §7.2: `uri-host [ ":" port ]`, the host a
/// bracketed IP literal or a (possibly empty) reg-name of RFC 3986 §3.2.2
/// — which an IPv4 address is — and the port digits.
fn is_host(value: &str) -> bool {
    let (host, port) = match value.strip_prefix('[') {
        Some(literal) => match literal.split_once(']') {
            Some((ip, port))
                if !ip.is_empty() && ip.bytes().all(|b| b == b':' || is_name_char(b)) =>
            {
                ("", port)
            }
            _ => return false,
        },
        None => value.split_at(value.find(':').unwrap_or(value.len())),
    };
    let port_ok = port.is_empty()
        || port
            .strip_prefix(':')
            .is_some_and(|p| p.bytes().all(|b| b.is_ascii_digit()));
    port_ok && is_reg_name(host.as_bytes())
}

/// Name characters and percent escapes only.
fn is_reg_name(mut name: &[u8]) -> bool {
    while let Some((&b, rest)) = name.split_first() {
        name = match (b, rest) {
            (b'%', [hi, lo, tail @ ..]) if hex(*hi).is_some() && hex(*lo).is_some() => tail,
            _ if is_name_char(b) => rest,
            _ => return false,
        };
    }
    true
}

/// RFC 3986's unreserved characters and sub-delimiters: a reg-name's, and
/// with `:` an IP literal's.
fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"-._~!$&'()*+,;=".contains(&b)
}

/// Locates the head terminator (a blank line: `\r\n\r\n`, `\n\n`, or a
/// mixed-ending equivalent), searching from `from`, before which none
/// ends. Returns `(head_len, body_start)`: the head excluding its final
/// line break, and the index just past the terminator. Without one, the
/// offset to search from once more bytes have come: the end, or a line
/// break whose blank line may still be arriving.
fn find_head_end(buf: &[u8], from: usize) -> Result<(usize, usize), usize> {
    let mut i = from;
    while let Some(&b) = buf.get(i) {
        if b == b'\n' {
            // The head's final newline is at `i`; a blank line follows if
            // the next line break comes immediately.
            let after = match (buf.get(i + 1), buf.get(i + 2)) {
                (Some(b'\n'), _) => Some(i + 2),
                (Some(b'\r'), Some(b'\n')) => Some(i + 3),
                (None, _) | (Some(b'\r'), None) => return Err(i),
                _ => None,
            };
            if let Some(body_start) = after {
                let head_len = if i > 0 && buf.get(i - 1) == Some(&b'\r') {
                    i - 1
                } else {
                    i
                };
                return Ok((head_len, body_start));
            }
        }
        i += 1;
    }
    Err(i)
}

fn strip_cr(line: &[u8]) -> &[u8] {
    match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    }
}

fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decodes `%xx` escapes and `+`-as-space; malformed escapes pass through
/// literally (the router's own validation rejects them downstream).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let pair = bytes.get(i + 1).zip(bytes.get(i + 2));
                match pair.and_then(|(&hi, &lo)| Some((hex(hi)?, hex(lo)?))) {
                    Some((hi, lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A response the router hands back; [`encode_response`] frames it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )]
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }
}

/// Reason phrase for the status codes the daemon emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Frames a response as HTTP/1.1 wire bytes with an explicit
/// `Content-Length` and `Connection` header.
pub fn encode_response(resp: &HttpResponse, keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut out = Vec::with_capacity(head.len() + resp.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&resp.body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (HttpRequest, usize) {
        match parse_request(buf) {
            Parse::Complete { request, consumed } => (request, consumed),
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_simple_get() {
        let wire = b"GET /v1/cluster?ip=10.2.3.4 HTTP/1.1\r\nHost: x\r\n\r\n";
        let (req, consumed) = complete(wire);
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/v1/cluster");
        assert_eq!(req.query_param("ip"), Some("10.2.3.4"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn torn_headers_ask_for_more_bytes() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: example\r\n\r\n";
        for cut in 1..wire.len() {
            let head = wire.get(..cut).expect("in range");
            assert_eq!(
                parse_request(head),
                Parse::Partial,
                "cut at {cut} must be Partial"
            );
        }
        assert!(matches!(parse_request(wire), Parse::Complete { .. }));
    }

    #[test]
    fn torn_body_asks_for_more_bytes() {
        let wire = b"POST /v1/reload HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n12345";
        assert_eq!(parse_request(wire), Parse::Partial);
        let mut full = wire.to_vec();
        full.extend_from_slice(b"67890");
        let (req, consumed) = complete(&full);
        assert_eq!(req.body, b"1234567890");
        assert_eq!(consumed, full.len());
    }

    /// RFC 9112 §6.3: a length with a sign, or two different lengths, is
    /// invalid framing, not the last header winning; a repeat of the same
    /// length is allowed.
    #[test]
    fn content_length_is_digits_and_one_value() {
        for (wire, why) in [
            (
                &b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: +5\r\n\r\n12345"[..],
                "unparsable content-length",
            ),
            (
                b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\n12345",
                "conflicting content-length headers",
            ),
            (
                b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\ncontent-length: 5\r\n\r\n12345",
                "conflicting content-length headers",
            ),
        ] {
            assert_eq!(parse_request(wire), Parse::Invalid(why), "{wire:?}");
        }
        let (req, _) = complete(
            b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\ncontent-length:  5\r\n\r\n12345",
        );
        assert_eq!(req.body, b"12345");
    }

    /// RFC 9112 §5.1 and §5.2: whitespace before the colon, an empty or
    /// non-token name, and a folded line are invalid, so a length or an
    /// encoding cannot hide behind a header the parser would skip and the
    /// body be read as the next request.
    #[test]
    fn header_names_are_tokens() {
        for (wire, why) in [
            (
                &b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Length : 5\r\n\r\n12345"[..],
                "header name is not a token",
            ),
            (
                b"POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding\t: chunked\r\n\r\n",
                "header name is not a token",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: x\r\n: empty\r\n\r\n",
                "header name is not a token",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: x\r\nX(y): 1\r\n\r\n",
                "header name is not a token",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n folded: 2\r\n\r\n",
                "obsolete line folding",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n\tmore\r\n\r\n",
                "obsolete line folding",
            ),
        ] {
            assert_eq!(parse_request(wire), Parse::Invalid(why), "{wire:?}");
        }
        let (req, _) = complete(
            b"POST /x HTTP/1.1\r\nHost: x\r\nX-Odd_Name.1~!: v\r\nContent-Length: 2\r\n\r\nok",
        );
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn oversized_head_is_rejected_not_buffered_forever() {
        let mut wire = b"GET /".to_vec();
        wire.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(parse_request(&wire), Parse::Invalid(_)));
    }

    /// A head of exactly the limit is valid, however its terminator is
    /// torn: its first bytes alone are not yet too long.
    #[test]
    fn a_head_at_the_limit_is_partial_until_its_terminator_arrives() {
        for eol in ["\r\n", "\n"] {
            let start = format!("GET /x HTTP/1.1{eol}Host: x{eol}X-Pad: ");
            let pad = "a".repeat(MAX_HEAD_BYTES - start.len());
            let wire = format!("{start}{pad}{eol}{eol}");
            for cut in MAX_HEAD_BYTES..wire.len() {
                assert_eq!(
                    parse_request(&wire.as_bytes()[..cut]),
                    Parse::Partial,
                    "{cut}"
                );
            }
            let (_, consumed) = complete(wire.as_bytes());
            assert_eq!(consumed, wire.len());
            let over = format!("{start}a{pad}{eol}{eol}");
            assert!(matches!(parse_request(over.as_bytes()), Parse::Invalid(_)));
        }
    }

    #[test]
    fn oversized_body_is_rejected() {
        let wire = format!(
            "POST /v1/reload HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse_request(wire.as_bytes()), Parse::Invalid(_)));
    }

    #[test]
    fn pipelined_keep_alive_requests_parse_in_sequence() {
        let mut wire = Vec::new();
        wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        wire.extend_from_slice(b"GET /v1/clusters/top?n=3 HTTP/1.1\r\nHost: x\r\n\r\n");
        wire.extend_from_slice(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");

        let (r1, c1) = complete(&wire);
        assert_eq!(r1.path, "/healthz");
        assert!(r1.keep_alive);
        wire.drain(..c1);

        let (r2, c2) = complete(&wire);
        assert_eq!(r2.path, "/v1/clusters/top");
        assert_eq!(r2.query_param("n"), Some("3"));
        wire.drain(..c2);

        let (r3, c3) = complete(&wire);
        assert_eq!(r3.path, "/metrics");
        assert!(!r3.keep_alive, "Connection: close overrides 1.1 default");
        wire.drain(..c3);
        assert!(wire.is_empty());
    }

    #[test]
    fn bare_lf_heads_and_http10_defaults() {
        let (req, _) = complete(b"GET /healthz HTTP/1.0\nHost: x\n\n");
        assert_eq!(req.path, "/healthz");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        // HTTP/1.0 may leave the host out.
        let (req, _) = complete(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert_eq!(req.path, "/healthz");
    }

    /// RFC 9112 §3.2: an HTTP/1.1 request without `Host`, and any request
    /// with two `Host` lines or an invalid value, is refused.
    #[test]
    fn host_is_required_once_and_valid() {
        for (wire, why) in [
            (&b"GET /x HTTP/1.1\r\n\r\n"[..], "missing host header"),
            (
                b"GET /x HTTP/1.1\r\nHost: a\r\nhost: a\r\n\r\n",
                "more than one host header",
            ),
            (
                b"GET /x HTTP/1.0\r\nHost: a\r\nHost: b\r\n\r\n",
                "more than one host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: a b\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.0\r\nHost: a/b\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: a:8x\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: a:1:2\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: a%2\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: [::1\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: []\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: [::1]x\r\n\r\n",
                "invalid host header",
            ),
            (
                b"GET /x HTTP/1.1\r\nHost: u@h\r\n\r\n",
                "invalid host header",
            ),
        ] {
            assert_eq!(parse_request(wire), Parse::Invalid(why), "{wire:?}");
        }
        for host in [
            "",
            "t",
            "127.0.0.1:8080",
            "example.com",
            "[::1]",
            "[::1]:80",
            "a%2Fb",
            "h:",
        ] {
            let wire = format!("GET /x HTTP/1.1\r\nHost: {host}\r\n\r\n");
            assert!(
                matches!(parse_request(wire.as_bytes()), Parse::Complete { .. }),
                "{host:?}"
            );
        }
    }

    #[test]
    fn malformed_inputs_are_invalid_not_panics() {
        for case in [
            &b"BOGUS\r\n\r\n"[..],
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: x\r\nbroken header line\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
            b"POST /x HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\xff\xfe\r\n\r\n",
        ] {
            assert!(
                matches!(parse_request(case), Parse::Invalid(_)),
                "case {case:?}"
            );
        }
    }

    #[test]
    fn percent_decoding_covers_the_api_characters() {
        assert_eq!(percent_decode("10.0.0.1"), "10.0.0.1");
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(
            percent_decode("bad%zz"),
            "bad%zz",
            "malformed passes through"
        );
    }

    #[test]
    fn response_framing_is_exact() {
        let resp = HttpResponse::json(200, "{\"ok\": true}".to_string());
        let wire = encode_response(&resp, true);
        let text = String::from_utf8(wire).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 12\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\": true}"), "{text}");
    }
}
