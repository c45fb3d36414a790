//! CPU time and peak memory of this process and its children.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs, of which only `ru_maxrss` is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

fn usage(who: c_int) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and `who` is one of the two values the call accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 / 1e6
}

fn cpu_of(who: c_int) -> f64 {
    let u = usage(who);
    seconds(&u.utime) + seconds(&u.stime)
}

/// User plus system CPU seconds of this process.
pub fn self_cpu_seconds() -> f64 {
    cpu_of(RUSAGE_SELF)
}

/// User plus system CPU seconds of every child this process has reaped.
pub fn children_cpu_seconds() -> f64 {
    cpu_of(RUSAGE_CHILDREN)
}

/// The larger of this process's peak resident set and that of its
/// largest reaped child, in MiB.
///
/// This process's own peak comes from `VmHWM`, the high-water mark of
/// its current address space: `getrusage`'s `ru_maxrss` also keeps the
/// peak of whatever process spawned it (`cargo run`), which survives
/// `exec`. A child's `ru_maxrss` starts from this process's resident set
/// when it was spawned, so it never reports more than this process or
/// the child itself used; and since the benchmark runs in a child of
/// the launching process (see `relaunch`), no process reaped before it
/// started counts among its children.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let own_kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    own_kib.max(usage(RUSAGE_CHILDREN).maxrss as f64) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = self_cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(self_cpu_seconds() > before, "{x}");
        assert!(children_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
