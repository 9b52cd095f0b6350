//! Host-side measurement: process CPU time, host speed, peak RSS,
//! provenance and the small statistics the benchmark reports.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// 64-bit words of a CPU mask: room for 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending (`[0]` if the kernel
/// will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed; pid
    // 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|c| rc == 0 && mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        vec![0]
    } else {
        cpus
    }
}

/// Pins the calling thread to `cpu`; threads it spawns later inherit the
/// pin. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed; pid
    // 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of this process, at nanosecond resolution (scheduler accounting, not
/// the 10 ms ticks of `/proc/self/stat`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Linux `CLOCK_THREAD_CPUTIME_ID`: user + system time of the calling
/// thread only.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) that
    // outlives the call; `clock_gettime` only writes through the pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system, all threads) this process has used.
///
/// # Panics
///
/// Panics if the kernel rejects the clock id (not Linux).
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// Entries of the probe's table: 1 MiB of `u64`. Of 256 KiB, 1, 4 and
/// 16 MiB tables, a hash-map probe and an ALU loop, probed side by side
/// over ten `colocate` runs, this size tracked the serial rep best (IQR ÷
/// median of the normalised median rep 0.037, against 0.081 for 4 MiB
/// and 0.16 raw).
const PROBE_TABLE: usize = 1 << 17;

/// Read-modify-writes per probe: about 1 ms on a 2-core Firecracker VM.
const PROBE_STEPS: usize = 300_000;

/// Thread CPU seconds of one probe on the reference host, a 2-core
/// Firecracker VM. Fixed: every speed-normalised time is expressed at
/// this speed, so changing it rescales every result.
pub const PROBE_REF_S: f64 = 1.0e-3;

/// Pause between probes: the probe thread is busy about 2% of the time.
const PROBE_PERIOD: Duration = Duration::from_millis(50);

/// One probe: a sequential pass that brings `table` back into the cache
/// (untimed), then `PROBE_STEPS` pseudo-random read-modify-writes over
/// it, timed in thread CPU seconds (so time spent waiting for a core does
/// not count, but cache stalls do).
fn probe(table: &mut [u64], x: &mut u64) -> f64 {
    let warm: u64 = table.iter().step_by(8).fold(0, |a, v| a ^ v);
    std::hint::black_box(warm);
    let t0 = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
    for _ in 0..PROBE_STEPS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let i = (*x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(*x).rotate_left(5);
    }
    std::hint::black_box(&*table);
    clock_seconds(CLOCK_THREAD_CPUTIME_ID) - t0
}

/// Host speed, sampled while the benchmark runs.
///
/// A shared host's speed drifts in phases of seconds to minutes, and
/// each CPU drifts on its own: other tenants contend for the core and
/// its caches, and the same code then takes up to twice as long, in CPU
/// time as much as in wall time. A `Pacer` runs a fixed memory-bound
/// probe every 50 ms on a thread of its own, pinned in turn to each of
/// the CPUs the measured code runs on. Dividing a host time by
/// [`Pacer::slowdown`] over the same window expresses it at the reference
/// host's speed ([`PROBE_REF_S`]). A time taken on one CPU is measured
/// on that CPU alone: pin the measured thread and pass the pacer only
/// its CPU.
pub struct Pacer {
    start: Instant,
    /// `(seconds since start at the probe's end, probe CPU seconds)`.
    samples: Arc<Mutex<Vec<(f64, f64)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Pacer {
    /// Starts the probe thread, probing `cpus` in turn.
    ///
    /// # Panics
    ///
    /// Panics if the thread cannot be spawned.
    pub fn start(cpus: Vec<usize>) -> Pacer {
        let start = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (samples.clone(), stop.clone());
            std::thread::Builder::new()
                .name("pacer".into())
                .spawn(move || {
                    let mut table = vec![0u64; PROBE_TABLE];
                    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
                    for cpu in cpus.iter().cycle() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        pin_to(*cpu);
                        let s = probe(&mut table, &mut x);
                        let at = start.elapsed().as_secs_f64();
                        samples.lock().expect("pacer samples").push((at, s));
                        std::thread::sleep(PROBE_PERIOD);
                    }
                })
                .expect("spawn the pacer thread")
        };
        Pacer {
            start,
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// When the pacer started (the process start, for `setup_s`).
    pub fn started(&self) -> Instant {
        self.start
    }

    /// How much slower than the reference host this host ran between
    /// `from` and `to`: the mean probe in that window over
    /// [`PROBE_REF_S`]. The mean, not the median, so that rare stalls (the
    /// CPU taken away for a while) count in proportion, as they do in the
    /// measured time. A window with fewer than three probes borrows the
    /// ones that follow it, waiting for them if need be. NaN if the probe
    /// thread has died, so the result line reports the run as incorrect.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let a = from.saturating_duration_since(self.start).as_secs_f64();
        let b = to.saturating_duration_since(self.start).as_secs_f64();
        loop {
            {
                let s = self.samples.lock().expect("pacer samples");
                let after: Vec<(f64, f64)> = s.iter().copied().filter(|p| p.0 >= a).collect();
                let inside = after.iter().filter(|p| p.0 <= b).count();
                if after.len() >= 3 {
                    let n = inside.max(3);
                    let probes: Vec<f64> = after[..n].iter().map(|p| p.1).collect();
                    return probes.iter().sum::<f64>() / probes.len() as f64 / PROBE_REF_S;
                }
            }
            if self.thread.as_ref().is_none_or(JoinHandle::is_finished) {
                return f64::NAN;
            }
            std::thread::sleep(PROBE_PERIOD);
        }
    }
}

impl Drop for Pacer {
    /// Stops the probe thread and waits for it to end.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Host wall and CPU time spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the OS let this process use at its first call: argument parsing,
/// before a serial workload pins itself to one CPU.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(tacker_par::available_jobs)
}

/// The checked-out commit, read from `.git` without spawning git;
/// `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of `v` (mean of the middle two for an even count; 0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// 64-bit FNV-1a over a string: the digests the benchmark prints.
pub fn digest(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pacer_reads_a_finite_slowdown_and_stops() {
        let pacer = Pacer::start(allowed_cpus());
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        // A window shorter than three probes waits for the ones after it.
        let s = pacer.slowdown(t0, Instant::now());
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
        drop(pacer);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let (_, wall, cpu) = timed(|| (0..5_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(cpu > 0.0 && wall > 0.0);
    }
}
