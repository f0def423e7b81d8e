//! One wait: `poll(2)` on a descriptor plus a stop waker.

#![allow(
    clippy::disallowed_types,
    reason = "every clock read here bounds how long a wait may last; none reaches an output."
)]

use std::io::{self, PipeReader, PipeWriter, Write as _};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// SAFETY: the C library's signatures: `struct pollfd` is `PollFd` below,
// `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs and
// macOS; `signal` takes a signal number and a handler address by value.
unsafe extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

/// `struct pollfd`: descriptor, events, returned events.
#[repr(C)]
struct PollFd(i32, i16, i16);

const POLLIN: i16 = 1;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;
/// The back-off when `poll(2)` itself fails (it cannot, short of kernel
/// memory): never a spin.
const RETRY: Duration = Duration::from_millis(10);

/// How a wait ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The descriptor waited on is readable (or hung up), stop or not.
    Ready,
    /// The waker was woken: a stop was requested.
    Stopped,
    /// The timeout passed.
    TimedOut,
}

/// A stop request that ends waits: a flag, and a pipe whose read end turns
/// readable for good when the flag is set — "is a stop requested?" and
/// "end my wait" in one.
#[derive(Debug)]
pub struct Waker {
    woken: AtomicBool,
    /// Never read: one byte in it keeps it readable.
    reader: PipeReader,
    writer: PipeWriter,
}

impl Waker {
    /// A waker that has not been woken.
    pub fn new() -> io::Result<Waker> {
        let (reader, writer) = io::pipe()?;
        Ok(Waker {
            woken: AtomicBool::default(),
            reader,
            writer,
        })
    }

    /// Requests the stop, ending every wait on this waker, present and
    /// future. Async-signal-safe: an atomic swap and at most one `write(2)`.
    pub fn wake(&self) {
        // ordering: no data rides on the flag; SeqCst keeps the handshake
        // trivially correct. Only the first wake writes: the pipe never fills.
        if !self.woken.swap(true, Ordering::SeqCst) {
            let _ = (&self.writer).write(&[1]);
        }
    }

    /// Whether [`wake`](Self::wake) has been called.
    pub fn is_woken(&self) -> bool {
        // ordering: the stop flag only; SeqCst matches the swap in `wake`.
        self.woken.load(Ordering::SeqCst)
    }

    /// Blocks until woken ([`Wake::Stopped`]) or `timeout` passes
    /// ([`Wake::TimedOut`]); `None` waits for the wake alone.
    pub fn wait(&self, timeout: Option<Duration>) -> Wake {
        self.poll(None, deadline(timeout))
    }

    /// Blocks until `fd` is readable ([`Wake::Ready`]), the waker is woken
    /// ([`Wake::Stopped`]) or `timeout` passes ([`Wake::TimedOut`]): one
    /// `poll(2)` on the two descriptors.
    pub fn wait_for(&self, fd: &impl AsFd, timeout: Option<Duration>) -> Wake {
        self.poll(Some(fd.as_fd()), deadline(timeout))
    }

    /// The wait proper, rounded up to whole milliseconds: never early.
    pub(crate) fn poll(&self, fd: Option<BorrowedFd<'_>>, deadline: Option<Instant>) -> Wake {
        let wanted = fd.map_or(-1, |fd| fd.as_raw_fd());
        let mut fds = [
            PollFd(self.reader.as_raw_fd(), POLLIN, 0),
            PollFd(wanted, POLLIN, 0),
        ];
        loop {
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            let ms = left.map_or(-1, |left| {
                i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
            });
            // SAFETY: two `pollfd`s the kernel may write for the length of
            // the call; each holds a live descriptor or -1.
            let n = unsafe { poll(fds.as_mut_ptr(), 2, ms) };
            let [_, PollFd(_, _, wanted)] = fds;
            match n {
                0 => return Wake::TimedOut,
                _ if n > 0 && wanted != 0 => return Wake::Ready,
                _ if n > 0 => return Wake::Stopped,
                _ if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted => {}
                _ => std::thread::sleep(left.map_or(RETRY, |left| left.min(RETRY))),
            }
        }
    }
}

/// `timeout` from now.
pub(crate) fn deadline(timeout: Option<Duration>) -> Option<Instant> {
    timeout.map(|timeout| Instant::now() + timeout)
}

/// The process's stop waker, which SIGINT and SIGTERM
/// [`wake`](Waker::wake) — all their handler does. Created (and the handler
/// installed) by the first call.
pub fn stop_signals() -> io::Result<&'static Waker> {
    static STOP: OnceLock<Waker> = OnceLock::new();
    extern "C" fn on_signal(_signum: i32) {
        if let Some(stop) = STOP.get() {
            stop.wake();
        }
    }
    if STOP.get().is_none() {
        let _ = STOP.set(Waker::new()?);
    }
    // SAFETY: `signal` is the libc function std already links; the handler's
    // one act is `wake`, async-signal-safe, on a waker as old as the process.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    Ok(STOP.wait())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn a_wake_ends_every_wait_present_and_future() {
        let stop = Waker::new().expect("waker");
        assert!(!stop.is_woken());
        assert_eq!(stop.wait(Some(Duration::from_millis(20))), Wake::TimedOut);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..3).map(|_| scope.spawn(|| stop.wait(None))).collect();
            std::thread::sleep(Duration::from_millis(50));
            stop.wake();
            for waiter in waiters {
                assert_eq!(waiter.join().expect("waiter"), Wake::Stopped);
            }
        });
        assert!(started.elapsed() < Duration::from_secs(5));
        stop.wake();
        assert!(stop.is_woken());
        assert_eq!(stop.wait(Some(Duration::from_secs(10))), Wake::Stopped);
    }

    #[test]
    fn a_readable_descriptor_comes_before_the_stop() {
        let stop = Waker::new().expect("waker");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let timeout = Some(Duration::from_millis(20));
        assert_eq!(stop.wait_for(&listener, timeout), Wake::TimedOut);
        let _peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        assert_eq!(stop.wait_for(&listener, None), Wake::Ready);
        stop.wake();
        assert_eq!(stop.wait_for(&listener, None), Wake::Ready);
        let (_conn, _) = listener.accept().expect("accept");
        assert_eq!(stop.wait_for(&listener, None), Wake::Stopped);
    }
}
