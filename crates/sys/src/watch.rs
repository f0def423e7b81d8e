//! Change notices for one log path: an inotify watch of its directory
//! (Linux; elsewhere [`Watch::arm`] returns `None`).

pub use imp::Watch;

#[cfg(target_os = "linux")]
mod imp {
    use std::ffi::{c_char, CString, OsString};
    use std::fs::{self, File};
    use std::io::{ErrorKind, Read};
    use std::os::fd::{AsFd, AsRawFd, FromRawFd, OwnedFd};
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;
    use std::time::Duration;

    use crate::wait::{deadline, Wake, Waker};

    // SAFETY: glibc's and musl's signatures; `inotify_init1` takes flags by
    // value and only returns a descriptor or -1.
    unsafe extern "C" {
        safe fn inotify_init1(flags: i32) -> i32;
        fn inotify_add_watch(fd: i32, pathname: *const c_char, mask: u32) -> i32;
    }

    /// `IN_NONBLOCK | IN_CLOEXEC`: `O_NONBLOCK | O_CLOEXEC` on every Linux
    /// architecture with a Rust host toolchain but SPARC and PA-RISC, where
    /// `inotify_init1` refuses them and no watch arms.
    const INIT_FLAGS: i32 = 0o4000 | 0o2_000_000;
    const IN_MODIFY: u32 = 0x2;
    const IN_CLOSE_WRITE: u32 = 0x8;
    const IN_MOVED_FROM: u32 = 0x40;
    const IN_MOVED_TO: u32 = 0x80;
    const IN_CREATE: u32 = 0x100;
    const IN_DELETE: u32 = 0x200;
    const IN_MOVE_SELF: u32 = 0x800;
    const IN_Q_OVERFLOW: u32 = 0x4000;
    const IN_IGNORED: u32 = 0x8000;
    const IN_ONLYDIR: u32 = 0x0100_0000;
    /// A name appeared, went or moved: the path may lead elsewhere now.
    const RELINKED: u32 = IN_CREATE | IN_DELETE | IN_MOVED_FROM | IN_MOVED_TO;
    /// A file written or relinked; the directory itself moved (spent).
    const MASK: u32 = IN_MODIFY | IN_CLOSE_WRITE | RELINKED | IN_MOVE_SELF | IN_ONLYDIR;
    /// `struct inotify_event` without its name: wd, mask, cookie, len.
    const HEADER: usize = 16;

    /// One inotify descriptor watching the directory of a log path, and of
    /// its target when the path is a symlink (notices name the target).
    #[derive(Debug)]
    pub struct Watch {
        /// The inotify descriptor, read through `File`'s `read`.
        queue: File,
        /// (watch descriptor, name as notices give it, whether it is the
        /// path's own name) for each place the log is named.
        names: Vec<(i32, OsString, bool)>,
    }

    impl Watch {
        /// Watches the directory of `log`, and the target's when `log` is a
        /// symlink; `None` when a directory does not exist, the symlink
        /// dangles, inotify limits are reached or `log` names no file.
        pub fn arm(log: &Path) -> Option<Watch> {
            let fd = inotify_init1(INIT_FLAGS);
            if fd < 0 {
                return None;
            }
            // SAFETY: `fd` was just returned by `inotify_init1`; nothing else
            // holds it, so `OwnedFd` is its one owner and closes it once.
            let queue = File::from(unsafe { OwnedFd::from_raw_fd(fd) });
            let mut watch = Watch {
                queue,
                names: Vec::new(),
            };
            watch.add(log, true)?;
            if fs::symlink_metadata(log).is_ok_and(|meta| meta.is_symlink()) {
                watch.add(&fs::canonicalize(log).ok()?, false)?;
            }
            Some(watch)
        }

        /// Watches the directory of `file` for notices naming it.
        fn add(&mut self, file: &Path, own: bool) -> Option<()> {
            let name = file.file_name()?.to_owned();
            let dir = file.parent().filter(|dir| !dir.as_os_str().is_empty());
            let dir = CString::new(dir.unwrap_or(Path::new(".")).as_os_str().as_bytes()).ok()?;
            // SAFETY: `dir` is NUL-terminated and outlives the call, which
            // only reads it; `queue` is a live inotify descriptor.
            let wd = unsafe { inotify_add_watch(self.queue.as_raw_fd(), dir.as_ptr(), MASK) };
            (wd >= 0).then(|| self.names.push((wd, name, own)))
        }

        /// Waits, in one `poll(2)` on the queue and `stop`: `Some(Ready)` at
        /// a notice naming the log (written, created, deleted, renamed) or a
        /// queue overflow, consuming every notice queued with it, so a burst
        /// of writes is one wake; others do not end the wait. `None` when
        /// the watch is spent — dropped by the kernel, unreadable, or the
        /// path's own name appeared, went or moved (a rotation, a symlink
        /// swapped): arm a new one on wherever the path leads now.
        pub fn wait(&mut self, stop: &Waker, timeout: Duration) -> Option<Wake> {
            let deadline = deadline(Some(timeout));
            loop {
                match stop.poll(Some(self.queue.as_fd()), deadline) {
                    Wake::Ready if !self.drain()? => {}
                    wake => return Some(wake),
                }
            }
        }

        /// Reads every queued notice: whether one concerned the log, `None`
        /// when the watch is spent.
        fn drain(&mut self) -> Option<bool> {
            // Room for 15 notices of the longest name (16 + 255 + NUL).
            let mut buf = [0u8; 4096];
            let (mut changed, mut spent) = (false, false);
            loop {
                let n = match self.queue.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return None,
                };
                let mut events = buf.get(..n).unwrap_or_default();
                while let Some((wd, mask, name, rest)) = next_event(events) {
                    spent |= mask & (IN_IGNORED | IN_MOVE_SELF) != 0;
                    changed |= mask & IN_Q_OVERFLOW != 0;
                    for (watched, log, own) in &self.names {
                        if *watched == wd && log.as_bytes() == name {
                            spent |= *own && mask & RELINKED != 0;
                            changed = true;
                        }
                    }
                    events = rest;
                }
            }
            (!spent).then_some(changed)
        }
    }

    /// Splits the first `struct inotify_event` off `events`: its watch
    /// descriptor, its mask, its name without the NUL padding, and the
    /// records after it. The kernel hands out whole records only.
    fn next_event(events: &[u8]) -> Option<(i32, u32, &[u8], &[u8])> {
        let word = |at: usize| -> Option<[u8; 4]> { events.get(at..at + 4)?.try_into().ok() };
        let (wd, mask) = (i32::from_ne_bytes(word(0)?), u32::from_ne_bytes(word(4)?));
        let len = usize::try_from(u32::from_ne_bytes(word(12)?)).ok()?;
        let end = HEADER.checked_add(len)?;
        let padded = events.get(HEADER..end)?;
        let name = padded.split(|&b| b == 0).next().unwrap_or_default();
        Some((wd, mask, name, events.get(end..)?))
    }

    #[cfg(test)]
    #[test]
    fn records_split_on_their_length_and_lose_their_padding() {
        let mut events = Vec::new();
        for (wd, mask, name) in [(1, IN_MODIFY, &b"access.log\0\0"[..]), (2, IN_IGNORED, b"")] {
            for word in [wd, mask, 0, name.len() as u32] {
                events.extend_from_slice(&word.to_ne_bytes());
            }
            events.extend_from_slice(name);
        }
        let (wd, mask, name, rest) = next_event(&events).expect("first");
        assert_eq!((wd, mask, name), (1, IN_MODIFY, &b"access.log"[..]));
        let (wd, mask, name, rest) = next_event(rest).expect("second");
        assert_eq!((wd, mask, name, rest), (2, IN_IGNORED, &b""[..], &b""[..]));
        assert!(next_event(&events[..HEADER + 3]).is_none(), "a cut record");
    }
}

/// No change notices off Linux: a watch never arms.
#[cfg(not(target_os = "linux"))]
mod imp {
    /// Uninhabited.
    #[derive(Debug)]
    pub struct Watch(std::convert::Infallible);

    #[allow(missing_docs, reason = "the Linux implementation's API, documented there.")]
    impl Watch {
        pub fn arm(_log: &std::path::Path) -> Option<Watch> {
            None
        }

        pub fn wait(&mut self, _: &crate::Waker, _: std::time::Duration) -> Option<crate::Wake> {
            match self.0 {}
        }
    }
}
