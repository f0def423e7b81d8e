//! A keep-alive HTTP/1.1 client over one `TcpStream`: blocking round
//! trips for the closed loops, and send-now / read-when-ready halves for
//! the open loop, which must neither wait for a reply before the next
//! request is due nor sleep past a reply that has arrived.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd as _;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Where a response ends in a buffer that starts with it.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// More bytes are needed.
    Partial,
    /// `buf[body..end]` is the body of a complete response.
    Complete {
        status: u16,
        body: usize,
        end: usize,
    },
    /// Not an HTTP response the daemon could have sent.
    Bad,
}

/// Frames one `Content-Length`-delimited response at the front of `buf`.
pub fn frame(buf: &[u8]) -> Frame {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 16 * 1024 {
            Frame::Bad
        } else {
            Frame::Partial
        };
    };
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Frame::Bad;
    };
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|c| c.parse::<u16>().ok());
    let length = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>().ok())?
    });
    match (status, length) {
        (Some(status), Some(length)) => {
            let body = head_end + 4;
            if buf.len() >= body + length {
                Frame::Complete {
                    status,
                    body,
                    end: body + length,
                }
            } else {
                Frame::Partial
            }
        }
        _ => Frame::Bad,
    }
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that belong to the response handed out
    /// last; dropped on the next read.
    spent: usize,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            spent: 0,
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut scratch = [0u8; 16 * 1024];
        let n = self.stream.read(&mut scratch)?;
        self.buf.extend_from_slice(&scratch[..n]);
        Ok(n)
    }

    /// Blocks until one whole response is in: `(status, body)`.
    pub fn recv(&mut self) -> io::Result<(u16, &[u8])> {
        self.buf.drain(..std::mem::take(&mut self.spent));
        loop {
            match frame(&self.buf) {
                Frame::Complete { status, body, end } => {
                    self.spent = end;
                    return Ok((status, &self.buf[body..end]));
                }
                Frame::Partial => {
                    if self.fill()? == 0 {
                        return Err(bad("connection closed mid-response"));
                    }
                }
                Frame::Bad => return Err(bad("unframeable response")),
            }
        }
    }

    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<(u16, &[u8])> {
        self.send(wire)?;
        self.recv()
    }

    /// Switches the socket to non-blocking for [`try_recv`](Self::try_recv).
    pub fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        self.stream.set_nonblocking(on)
    }

    /// One whole response if the bytes are already here; never waits.
    pub fn try_recv(&mut self) -> io::Result<Option<(u16, &[u8])>> {
        self.buf.drain(..std::mem::take(&mut self.spent));
        loop {
            match frame(&self.buf) {
                Frame::Complete { status, body, end } => {
                    self.spent = end;
                    return Ok(Some((status, &self.buf[body..end])));
                }
                Frame::Partial => match self.fill() {
                    Ok(0) => return Err(bad("connection closed")),
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
                    Err(e) => return Err(e),
                },
                Frame::Bad => return Err(bad("unframeable response")),
            }
        }
    }

    /// Sleeps until the socket is readable or `timeout` passes, with
    /// nanosecond timer resolution (`SO_RCVTIMEO` rounds to scheduler
    /// ticks, which would make the open loop's sends late).
    pub fn wait_readable(&self, timeout: Duration) {
        let mut fd = PollFd {
            fd: self.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            sec: timeout.as_secs() as i64,
            nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: one valid pollfd and a valid timespec, both live for the
        // call; a null sigmask leaves the signal mask alone.
        unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    }
}

/// `GET <target>` as keep-alive wire bytes.
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: b\r\n\r\n").into_bytes()
}

/// `POST <target>` with a body, as keep-alive wire bytes.
pub fn post(target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST {target} HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// The unsigned integer after `"key": ` in a flat JSON body.
pub fn field_u64(body: &[u8], key: &str) -> Option<u64> {
    let rest = after_key(body, key)?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// The value after `"key": ` when it is a string (`Some(Some(..))`) or
/// `null` (`Some(None)`); `None` when the key is missing or malformed.
pub fn field_opt_str<'a>(body: &'a [u8], key: &str) -> Option<Option<&'a [u8]>> {
    let rest = after_key(body, key)?;
    if rest.starts_with(b"null") {
        return Some(None);
    }
    let rest = rest.strip_prefix(b"\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    Some(Some(&rest[..end]))
}

fn after_key<'a>(body: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let needle = format!("\"{key}\": ");
    let at = body
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())?;
    Some(&body[at + needle.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_whole_partial_and_pipelined_responses() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";
        let Frame::Complete { status, body, end } = frame(one) else {
            panic!("one whole response");
        };
        assert_eq!((status, &one[body..end]), (200, &b"hello"[..]));
        assert_eq!(frame(&one[..one.len() - 1]), Frame::Partial);
        assert_eq!(frame(&one[..20]), Frame::Partial);
        let mut two = one.to_vec();
        two.extend_from_slice(b"HTTP/1.1 409 Conflict\r\ncontent-length: 0\r\n\r\n");
        assert_eq!(
            frame(&two),
            Frame::Complete {
                status: 200,
                body,
                end
            }
        );
        assert_eq!(
            frame(&two[end..]),
            Frame::Complete {
                status: 409,
                body: two.len() - end,
                end: two.len() - end
            }
        );
    }

    #[test]
    fn refuses_what_the_daemon_never_sends() {
        assert_eq!(frame(b"SSH-2.0-OpenSSH\r\n\r\n"), Frame::Bad);
        assert_eq!(frame(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\n"), Frame::Bad);
    }

    #[test]
    fn flat_field_extraction() {
        let body = b"{\"ip\": \"1.2.3.4\", \"cluster\": \"1.2.0.0/16\", \"cluster_requests\": 77, \"x\": null}";
        assert_eq!(field_u64(body, "cluster_requests"), Some(77));
        assert_eq!(
            field_opt_str(body, "cluster"),
            Some(Some(&b"1.2.0.0/16"[..]))
        );
        assert_eq!(field_opt_str(body, "x"), Some(None));
        assert_eq!(field_opt_str(body, "missing"), None);
        assert_eq!(field_u64(body, "ip"), None);
    }
}
