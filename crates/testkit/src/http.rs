use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::Child;
use std::time::Duration;

/// A spawned child, a `netclustd` under test, that a failing assertion
/// cannot leak: killed and reaped when dropped.
pub struct KillOnDrop(pub Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One keep-alive HTTP/1.1 connection with exact Content-Length framing,
/// so several requests can flow over the same socket.
pub struct Client {
    /// The socket, for writing raw bytes the client would not frame.
    pub conn: TcpStream,
    /// Bytes read past the last reply.
    buf: Vec<u8>,
}

/// One whole reply.
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// Status line and header lines, as sent.
    pub head: String,
    /// The `Content-Length` bytes after the head.
    pub body: String,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> Client {
        Client::over(TcpStream::connect(addr).expect("connect"))
    }

    /// A client on a connected socket; a read waits at most 30 s.
    pub fn over(conn: TcpStream) -> Client {
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            conn,
            buf: Vec::new(),
        }
    }

    /// Sends one request, with a `Content-Length` body if one is given,
    /// and reads its reply: the status and the body.
    pub fn send(&mut self, method: &str, target: &str, body: Option<&str>) -> (u16, String) {
        let mut req = format!("{method} {target} HTTP/1.1\r\nHost: t\r\n");
        if let Some(body) = body {
            req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        } else {
            req.push_str("\r\n");
        }
        self.conn.write_all(req.as_bytes()).expect("send request");
        self.read_response()
    }

    /// The next reply's status and body; panics if the connection ends
    /// first.
    pub fn read_response(&mut self) -> (u16, String) {
        let reply = self.next_reply().expect("a whole reply before the close");
        (reply.status, reply.body)
    }

    /// The next reply, or `None` once the connection is closed (or a read
    /// fails) before one is whole.
    pub fn next_reply(&mut self) -> Option<Reply> {
        let mut scratch = [0u8; 16 << 10];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
                let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
                let length = head.lines().find_map(|l| {
                    let l = l.to_ascii_lowercase();
                    let v = l.strip_prefix("content-length:")?;
                    Some(v.trim().parse::<usize>().expect("content-length"))
                });
                let end = head_end + 4 + length.expect("content-length header");
                if self.buf.len() >= end {
                    let body = String::from_utf8_lossy(&self.buf[head_end + 4..end]).into_owned();
                    self.buf.drain(..end);
                    let status = status.expect("status code");
                    return Some(Reply { status, head, body });
                }
            }
            match self.conn.read(&mut scratch) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
            }
        }
    }
}

/// One `GET` on a connection of its own: the status and the body.
pub fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    Client::connect(addr).send("GET", target, None)
}

/// The unsigned number after `"key": ` in a JSON body.
pub fn json_u64(body: &str, key: &str) -> u64 {
    let at = body
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    let digits = body[at + key.len() + 4..]
        .chars()
        .take_while(char::is_ascii_digit);
    digits.collect::<String>().parse().expect("a number")
}

/// Polls `probe` until it returns true; panics naming `what` after 60 s.
#[allow(clippy::disallowed_types, reason = "a test's deadline; it never reaches an output.")]
pub fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !probe() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for a daemon to write its address and a newline to `port_file`;
/// the address.
pub fn wait_for_port(port_file: &Path) -> SocketAddr {
    let mut addr = None;
    wait_for("the port file", || {
        let text = std::fs::read_to_string(port_file).unwrap_or_default();
        addr = text.strip_suffix('\n').and_then(|a| a.parse().ok());
        addr.is_some()
    });
    addr.expect("bound address")
}
