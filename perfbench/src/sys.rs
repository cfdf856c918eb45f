//! Process resource accounting (`getrusage`, `wait4`), running a child
//! program under a deadline, and the host record.

use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitStatus};
use std::time::{Duration, Instant};

use crate::workload::Workload;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux: two timevals, then
/// fourteen `long` counters of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const WNOHANG: i32 = 1;

/// CPU seconds (user + sys) and peak resident set (MiB).
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

impl From<&Rusage> for Usage {
    fn from(ru: &Rusage) -> Self {
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            peak_rss_mib: ru.maxrss as f64 / 1024.0,
        }
    }
}

/// This process's usage so far, all threads.
pub fn self_usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit Linux
    // layout and RUSAGE_SELF is a valid `who`; getrusage writes only into
    // `*usage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    Usage::from(&ru)
}

/// A child program that ran to exit.
pub struct Finished {
    pub status: ExitStatus,
    /// Spawn to exit, seconds.
    pub wall: f64,
    /// The child's usage, including the descendants it waited for.
    pub usage: Usage,
}

/// Spawns `cmd` and reaps it with `wait4`, so its usage is its own. A
/// child still running after `deadline` is killed and reaped.
pub fn run_child(cmd: &mut Command, deadline: Duration) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let pid = i32::try_from(child.id()).map_err(|e| e.to_string())?;
    let mut killed = false;
    loop {
        let mut status = 0i32;
        let mut ru = Rusage::default();
        // SAFETY: `pid` is our own child, not yet reaped (std never waits on
        // it here), and `status`/`ru` are live, writable locals of the types
        // wait4 fills.
        let rc = unsafe { wait4(pid, &mut status, WNOHANG, &mut ru) };
        if rc == pid {
            if killed {
                return Err(format!("still running after {deadline:?}; killed"));
            }
            return Ok(Finished {
                status: ExitStatus::from_raw(status),
                wall: t0.elapsed().as_secs_f64(),
                usage: Usage::from(&ru),
            });
        }
        if rc < 0 {
            return Err(format!("wait4: {}", std::io::Error::last_os_error()));
        }
        if !killed && t0.elapsed() > deadline {
            let _ = child.kill();
            killed = true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One line naming the host and the runtime selections the numbers
/// depend on.
pub fn host_line(w: Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" kernel={} mailbox={} transport={} workload={}",
        hpl_blas::kernels::active().name(),
        hpl_comm::active_mailbox_name(),
        w.transport().name(),
        w.name()
    )
}
