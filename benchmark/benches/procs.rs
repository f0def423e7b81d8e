//! Child-process ownership and `/proc` accounting.
//!
//! Every process the harness starts is owned by an [`Owned`] guard: it is
//! killed and reaped when the guard drops (normal return, `?`, panic
//! unwind), and the kernel kills it if the harness itself dies first
//! (`PR_SET_PDEATHSIG`), which covers Ctrl-C and `kill -9` of the harness.
//! A leaked daemon tailing the same log made the sizing prototype's churn
//! numbers 10–100× worse, so [`other_daemon_running`] lets the harness
//! refuse to start beside one.

use std::io::Read as _;
use std::os::unix::process::CommandExt as _;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;
const SC_CLK_TCK: i32 = 2;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs,
/// of which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// A child the harness owns; dropping it kills and reaps the process.
pub struct Owned {
    child: Option<Child>,
}

impl Owned {
    /// Spawns `cmd` with the parent-death signal armed.
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Owned> {
        // SAFETY: the closure runs between fork and exec and makes one
        // async-signal-safe syscall; it touches no memory of the parent.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64, 0, 0, 0);
                Ok(())
            });
        }
        Ok(Owned {
            child: Some(cmd.spawn()?),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map(Child::id).unwrap_or(0)
    }

    /// `SIGKILL`, then reap.
    pub fn kill9(mut self) {
        self.reap_killed();
    }

    /// `SIGTERM`, then wait up to `limit` for the exit code (`None` when
    /// the process had to be killed or died by signal).
    pub fn terminate(mut self, limit: Duration) -> Option<i32> {
        let mut child = self.child.take()?;
        // SAFETY: plain syscall on a pid this guard owns and has not reaped.
        unsafe { kill(child.id() as i32, SIGTERM) };
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.code(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return None;
                }
            }
        }
    }

    /// `true` while the process has not exited.
    pub fn alive(&mut self) -> bool {
        match self.child.as_mut() {
            Some(c) => matches!(c.try_wait(), Ok(None)),
            None => false,
        }
    }

    fn reap_killed(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Owned {
    fn drop(&mut self) {
        self.reap_killed();
    }
}

/// One finished run of a short-lived process.
pub struct Finished {
    /// exec → exit.
    pub wall: Duration,
    pub stdout: Vec<u8>,
    /// Peak resident set, from the kernel's `ru_maxrss` for this child.
    pub peak_rss_mb: f64,
    pub exit_ok: bool,
}

/// Runs `cmd` to completion, capturing stdout and the child's own rusage.
pub fn run_to_exit(cmd: &mut Command) -> std::io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let started = Instant::now();
    let mut owned = Owned::spawn(cmd)?;
    let mut stdout = Vec::new();
    if let Some(out) = owned.child.as_mut().and_then(|c| c.stdout.take()) {
        let mut out = out;
        out.read_to_end(&mut stdout)?;
    }
    // Reap through wait4 so the rusage is this child's alone; the guard
    // gives the `Child` up first so std never waits on a reaped pid.
    let child = owned.child.take().expect("spawned above");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: both out-pointers reference live, correctly sized locals and
    // the pid is an unreaped child of this process.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall = started.elapsed();
    drop(child);
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(Finished {
        wall,
        stdout,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0
        exit_ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
    })
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks() -> f64 {
    // SAFETY: sysconf with a constant name has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state(3) … utime is field 14, stime 15 (1-based).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / clock_ticks())
}

pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_mb(&status)
}

/// Pid of some running `netclustd` that is not ours, if any.
pub fn other_daemon_running() -> Option<u32> {
    for entry in std::fs::read_dir("/proc").ok()?.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if let Ok(comm) = std::fs::read_to_string(Path::new("/proc").join(&name).join("comm")) {
            if comm.trim() == "netclustd" {
                return Some(pid);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (net) clu(std) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    317 45 0 0 20 0 7 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(317 + 45));
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_megabytes() {
        let status =
            "Name:\tnetclustd\nVmPeak:\t  900000 kB\nVmHWM:\t  112640 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(110.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn a_dropped_guard_leaves_no_process_behind() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let owned = Owned::spawn(&mut cmd).expect("spawn sleep");
        let pid = owned.pid();
        drop(owned);
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn run_to_exit_reports_output_exit_and_rss() {
        let mut ok = Command::new("sh");
        ok.args(["-c", "echo hi"]);
        let done = run_to_exit(&mut ok).expect("run sh");
        assert_eq!(done.stdout, b"hi\n");
        assert!(done.exit_ok);
        assert!(done.peak_rss_mb > 0.1);
        let mut bad = Command::new("sh");
        bad.args(["-c", "exit 3"]);
        assert!(!run_to_exit(&mut bad).expect("run sh").exit_ok);
    }
}
