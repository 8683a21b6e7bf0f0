//! Process-level counters: CPU time, peak memory, context switches and
//! thread count of the benchmark process (server and clients share it).

/// A reading of the process's resource usage so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

/// Affinity masks cover this many CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut [u64; MASK_WORDS]) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; MASK_WORDS]) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Reads the process's usage (all threads, including ones that have
/// exited — the server spawns a thread per connection).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn usage() -> Usage {
    let mut raw = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the layout
    // 64-bit Linux defines (two `struct timeval` of two longs each, then
    // fourteen longs); `getrusage` writes only within it and keeps no
    // pointer after returning.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        user_s: secs(raw.utime),
        sys_s: secs(raw.stime),
        // ru_maxrss is in KiB on Linux.
        peak_rss_mb: raw.longs[0] as f64 / 1024.0,
        ctx_switches: (raw.longs[12] + raw.longs[13]).max(0) as u64,
    }
}

/// On other targets the process counters read as zero.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn usage() -> Usage {
    Usage::default()
}

/// The CPUs the calling thread may run on (empty when that cannot be
/// read, or off Linux).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread; the kernel writes at most that many
    // bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`. Returns whether the kernel accepted the mask.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed, only
    // read by the kernel; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), &mask) == 0 }
}

/// Off Linux nothing is known about CPUs and nothing is pinned.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Off Linux nothing is known about CPUs and nothing is pinned.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to(_cpus: &[usize]) -> bool {
    false
}

/// Threads in the process right now (0 when `/proc` is unavailable).
pub fn threads_now() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_advances_with_work() {
        let before = usage();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = usage();
        assert!(after.user_s + after.sys_s >= before.user_s + before.sys_s);
        assert!(after.peak_rss_mb > 0.0);
        assert!(threads_now() >= 1);
    }

    #[test]
    fn a_thread_can_be_pinned_to_each_allowed_cpu() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            for &cpu in &cpus {
                assert!(pin_to(&[cpu]));
                assert_eq!(allowed_cpus(), vec![cpu]);
            }
        })
        .join()
        .unwrap();
    }
}
