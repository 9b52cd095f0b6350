//! Dependency-free work pool with deterministic ordering.
//!
//! The evaluation pipeline is embarrassingly parallel — 6 LC services ×
//! 12 BE apps, each pair an independent deterministic simulation — but a
//! parallel sweep is only useful if it reproduces the serial sweep
//! *exactly*. This crate provides the primitives that make that easy:
//!
//! * A **persistent worker pool**, started lazily on the first parallel
//!   batch and shared by the whole process (`std::thread` + an `mpsc`
//!   channel, no external crates). Sweep-scale fan-outs go through
//!   [`pool_map`] / [`pool_map_sharded`]: workers claim items off a
//!   shared cursor, every result is written back to the slot of its
//!   input index, and the caller always participates in draining its own
//!   batch — so progress never depends on pool availability and nested
//!   maps cannot deadlock. A panicking item is caught, the rest of the
//!   batch still completes, and the panic is re-raised on the caller
//!   *after* the join — the pool itself is never poisoned.
//! * [`pool_map_sharded`] additionally takes per-item **weights**
//!   (expected event counts) and claims heaviest-first, which bounds the
//!   tail of a skewed batch; weights steer scheduling only, never
//!   results, so `jobs = N` stays bit-identical to `jobs = 1`.
//! * [`derive_seed`]: a stable string-keyed seed mixer, so every run of a
//!   sweep gets its own RNG stream derived from the (pair, load, policy)
//!   tuple instead of sharing one mutable stream whose draw order would
//!   depend on scheduling.
//!
//! Serial fallback: `jobs = 0` resolves to [`available_jobs`], a batch of
//! one item (or one resolved worker) runs inline, and a weighted batch
//! whose total expected work is below [`SERIAL_WORK_THRESHOLD_EVENTS`]
//! runs inline too — a 1-core host never pays any coordination overhead.
//! [`planned_jobs`] exposes the resolved worker count so benchmark
//! provenance can record what actually ran.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Number of worker threads the host supports, per the OS scheduler,
/// read once per process: the query reads cgroup files and costs tens of
/// microseconds, and every batch plans with it.
///
/// Falls back to 1 when the platform cannot report it.
pub fn available_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The shared `TACKER_JOBS` environment convention: an explicit request
/// (e.g. a `--jobs` flag, `Some` when given) wins, then the
/// `TACKER_JOBS` environment variable, then `0` (auto-detect every
/// core). Both spellings mean the same thing — `0` is auto — so scripts
/// can pin a fleet-wide default via the environment and still override
/// per invocation. The CLI and the benchmark binaries both resolve
/// through here; don't hand-roll the parse.
///
/// # Errors
///
/// When `TACKER_JOBS` is set but not a number.
pub fn env_jobs(requested: Option<usize>) -> Result<usize, String> {
    if let Some(jobs) = requested {
        return Ok(jobs);
    }
    match std::env::var("TACKER_JOBS") {
        Ok(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("TACKER_JOBS expects a number, got `{v}`")),
        Err(_) => Ok(0),
    }
}

/// Resolves a user-facing jobs request: `0` means "use every core".
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// Expected-event totals below this run serially even when more workers
/// are allowed: dispatch and join cost tens of microseconds, which is
/// only worth paying once the batch carries at least a few milliseconds
/// of simulation (~100k events at current engine throughput).
pub const SERIAL_WORK_THRESHOLD_EVENTS: u64 = 100_000;

/// The worker count a (possibly weighted) batch will actually use:
/// `requested` resolved via [`effective_jobs`], clamped to the host's
/// cores (oversubscribing pure CPU-bound simulation only adds scheduler
/// overhead — the old per-call design shipped a 1-core "parallel" sweep
/// that was *slower* than serial for exactly this reason), capped by the
/// item count, and collapsed to 1 when `total_weight` (expected events;
/// pass `u64::MAX` when unknown) is under
/// [`SERIAL_WORK_THRESHOLD_EVENTS`]. Benchmarks record this next to the
/// requested value so shard-balance and fallback decisions stay
/// auditable.
pub fn planned_jobs(requested: usize, items: usize, total_weight: u64) -> usize {
    let jobs = effective_jobs(requested)
        .min(available_jobs())
        .min(items.max(1));
    if total_weight < SERIAL_WORK_THRESHOLD_EVENTS {
        1
    } else {
        jobs
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide persistent pool: workers block on one shared channel.
struct Pool {
    sender: mpsc::Sender<Job>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = available_jobs();
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for idx in 0..threads {
            let receiver = Arc::clone(&receiver);
            // Workers live for the process. Each job is run under
            // `catch_unwind`, so a panicking cell cannot take its worker
            // down with it; batch-level code re-raises on the caller.
            std::thread::Builder::new()
                .name(format!("tacker-par-{idx}"))
                .spawn(move || loop {
                    let job = {
                        let rx = receiver.lock().unwrap_or_else(PoisonError::into_inner);
                        rx.recv()
                    };
                    match job {
                        Ok(job) => {
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                        // Channel closed: the process is tearing down.
                        Err(_) => return,
                    }
                })
                .expect("failed to spawn tacker-par worker");
        }
        Pool { sender }
    })
}

/// One in-flight `pool_map` batch. Workers (helpers from the pool plus
/// the calling thread) claim positions in `order` off the shared cursor;
/// results land in the slot of their *input* index, so output order is
/// input order whatever the interleaving.
struct Batch<T, R, F> {
    items: Vec<T>,
    f: F,
    /// Claim order: indices into `items`; heaviest-first under sharding.
    order: Vec<u32>,
    cursor: AtomicUsize,
    finished: AtomicUsize,
    results: Mutex<Vec<Option<R>>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    complete: Mutex<bool>,
    complete_cv: Condvar,
}

impl<T, R, F> Batch<T, R, F>
where
    F: Fn(usize, &T) -> R,
{
    fn work(&self) {
        let n = self.order.len();
        loop {
            let at = self.cursor.fetch_add(1, Ordering::Relaxed);
            if at >= n {
                return;
            }
            let i = self.order[at] as usize;
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i, &self.items[i]))) {
                Ok(r) => {
                    let mut slots = self.results.lock().unwrap_or_else(PoisonError::into_inner);
                    slots[i] = Some(r);
                }
                Err(payload) => {
                    // Keep the first panic (by completion order); the
                    // batch still drains so later calls see a clean pool.
                    let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                    first.get_or_insert(payload);
                }
            }
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == n {
                let mut done = self.complete.lock().unwrap_or_else(PoisonError::into_inner);
                *done = true;
                self.complete_cv.notify_all();
            }
        }
    }
}

fn pool_map_impl<T, R, F>(jobs: usize, items: Vec<T>, weights: Option<&[u64]>, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "one weight per item");
    }
    let total: u64 = weights.map_or(u64::MAX, |w| {
        w.iter().fold(0u64, |acc, &x| acc.saturating_add(x))
    });
    let jobs = planned_jobs(jobs, n, total);
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    if let Some(w) = weights {
        // Heaviest-first claim order bounds the tail of a skewed batch:
        // the longest cells start earliest. Ties keep input order.
        // Scheduling only — results always join by input index.
        order.sort_by_key(|&i| (std::cmp::Reverse(w[i as usize]), i));
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let batch = Arc::new(Batch {
        items,
        f,
        order,
        cursor: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
        results: Mutex::new(slots),
        panic: Mutex::new(None),
        complete: Mutex::new(false),
        complete_cv: Condvar::new(),
    });
    for _ in 0..jobs - 1 {
        let helper = Arc::clone(&batch);
        // A helper that arrives after the batch drained exits at once; a
        // failed send only happens at process teardown.
        let _ = pool().sender.send(Box::new(move || helper.work()));
    }
    // The caller always drains its own batch: progress never depends on
    // pool availability, so nested maps cannot deadlock.
    batch.work();
    {
        let mut done = batch
            .complete
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while !*done {
            done = batch
                .complete_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    if let Some(payload) = batch
        .panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        resume_unwind(payload);
    }
    let mut slots = batch.results.lock().unwrap_or_else(PoisonError::into_inner);
    slots
        .drain(..)
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// Maps `f` over owned `items` on the persistent pool, preserving input
/// ordering in the output. `jobs = 0` means every core; the caller's
/// thread always participates, so `jobs = 1` (or a single item) runs
/// inline with no pool interaction at all.
///
/// # Panics
///
/// Re-raises the first item panic on the caller after the whole batch
/// has drained; the pool stays usable for subsequent maps.
pub fn pool_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    pool_map_impl(jobs, items, None, f)
}

/// [`pool_map`] over a fallible `f`: returns the first error by *input
/// order* (not completion order), so error reporting is deterministic.
/// All items are still evaluated — workloads here are pure simulations
/// with no side effects worth cancelling.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing item.
pub fn try_pool_map<T, R, E, F>(jobs: usize, items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    E: Send + 'static,
    F: Fn(usize, &T) -> Result<R, E> + Send + Sync + 'static,
{
    pool_map_impl(jobs, items, None, f).into_iter().collect()
}

/// [`pool_map`] with per-item expected-work `weights` (event counts):
/// items are claimed heaviest-first so one long cell cannot serialize
/// the tail, and a batch whose weight total is under
/// [`SERIAL_WORK_THRESHOLD_EVENTS`] runs inline. Output order and
/// content are identical to [`pool_map`] for any weights.
///
/// # Panics
///
/// Panics if `weights.len() != items.len()`; item panics re-raise as in
/// [`pool_map`].
pub fn pool_map_sharded<T, R, F>(jobs: usize, items: Vec<T>, weights: &[u64], f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    pool_map_impl(jobs, items, Some(weights), f)
}

/// Fallible [`pool_map_sharded`]; first error by input order.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing item.
pub fn try_pool_map_sharded<T, R, E, F>(
    jobs: usize,
    items: Vec<T>,
    weights: &[u64],
    f: F,
) -> Result<Vec<R>, E>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    E: Send + 'static,
    F: Fn(usize, &T) -> Result<R, E> + Send + Sync + 'static,
{
    pool_map_impl(jobs, items, Some(weights), f)
        .into_iter()
        .collect()
}

/// Derives a per-run RNG seed from a base seed and a tuple of string /
/// integer parts (FNV-1a over the parts, then a SplitMix64 finalizer).
///
/// Sweeps seed each run from its own (pair, load, policy) coordinates so
/// runs stay independent of execution order; two sweeps over the same grid
/// at different `--jobs` produce bit-identical per-run streams.
pub fn derive_seed(base: u64, parts: &[&str]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ base;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Separator so ("ab","c") and ("a","bc") differ.
        h ^= 0x1f;
        h = h.wrapping_mul(FNV_PRIME);
    }
    // SplitMix64 finalizer: spreads low-entropy inputs over all 64 bits.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Arc<Vec<AtomicU64>> = Arc::new((0..100).map(|_| AtomicU64::new(0)).collect());
        let seen = Arc::clone(&counters);
        pool_map(7, (0..100usize).collect(), move |_, &i| {
            seen[i].fetch_add(1, Ordering::Relaxed)
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn planned_jobs_applies_caps_and_threshold() {
        // Light batches collapse to serial whatever was requested.
        assert_eq!(planned_jobs(8, 16, SERIAL_WORK_THRESHOLD_EVENTS - 1), 1);
        // Heavy batches are capped by item count and host cores.
        assert_eq!(planned_jobs(8, 3, u64::MAX), available_jobs().min(3));
        assert_eq!(planned_jobs(2, 16, u64::MAX), available_jobs().min(2));
        assert!(planned_jobs(usize::MAX, 1024, u64::MAX) <= available_jobs());
        // Empty batches resolve to one inline worker.
        assert_eq!(planned_jobs(8, 0, u64::MAX), 1);
    }

    #[test]
    fn pool_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 7 + i as u64)
            .collect();
        for jobs in [1, 2, 4, 33] {
            let par = pool_map(jobs, items.clone(), |i, x| x * 7 + i as u64);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn sharded_weights_steer_scheduling_not_results() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 2).collect();
        // Ascending, descending, uniform and spiky weights all produce
        // the identical output vector.
        let descending: Vec<u64> = (0..64).rev().map(|w| w + 1_000_000).collect();
        let ascending: Vec<u64> = (0..64).map(|w| w + 1_000_000).collect();
        let spiky: Vec<u64> = (0..64)
            .map(|i| if i == 17 { 50_000_000 } else { 1_000_000 })
            .collect();
        for weights in [&descending, &ascending, &spiky] {
            let out = pool_map_sharded(4, items.clone(), weights, |_, x| x * 2);
            assert_eq!(out, serial);
        }
    }

    #[test]
    fn sharded_light_batch_falls_back_to_serial() {
        // Total weight under the threshold: runs inline on the caller.
        let caller = std::thread::current().id();
        let weights = vec![10u64; 8];
        let threads = pool_map_sharded(4, (0..8u32).collect(), &weights, move |_, _| {
            std::thread::current().id()
        });
        assert!(threads.iter().all(|&t| t == caller));
    }

    #[test]
    fn try_pool_map_reports_lowest_index_error() {
        let items: Vec<u32> = (0..64).collect();
        let r = try_pool_map(4, items.clone(), |_, &x| {
            if x == 9 || x == 41 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(r, Err(9));
        let ok = try_pool_map::<_, _, u32, _>(4, items, |_, &x| Ok(x * 2));
        assert_eq!(ok.unwrap()[10], 20);
    }

    #[test]
    fn nested_pool_maps_make_progress() {
        // Outer × inner parallel maps: the caller of each batch drains
        // it itself, so even a fully busy pool cannot deadlock this.
        let out = pool_map(2, vec![10u64, 20, 30], |_, &base| {
            pool_map(2, (0..4u64).collect(), move |_, &x| base + x)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![46, 86, 126]);
    }

    #[test]
    fn panicking_cell_does_not_poison_the_pool() {
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool_map(4, (0..16u32).collect(), |_, &x| {
                assert!(x != 7, "boom");
                x
            })
        }));
        assert!(boom.is_err(), "panic must reach the caller");
        // The pool keeps serving subsequent batches, and they are
        // complete and correctly ordered.
        for _ in 0..3 {
            let ok = pool_map(4, (0..64u32).collect(), |_, &x| x + 1);
            assert_eq!(ok, (1..=64u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let a = derive_seed(42, &["Resnet50", "fft", "tacker"]);
        let b = derive_seed(42, &["Resnet50", "fft", "tacker"]);
        assert_eq!(a, b, "same tuple, same seed");
        assert_ne!(a, derive_seed(43, &["Resnet50", "fft", "tacker"]));
        assert_ne!(a, derive_seed(42, &["Resnet50", "fft", "baymax"]));
        assert_ne!(a, derive_seed(42, &["Resnet50", "sgemm", "tacker"]));
        // Concatenation boundaries matter.
        assert_ne!(
            derive_seed(0, &["ab", "c"]),
            derive_seed(0, &["a", "bc"]),
            "separator keeps part boundaries distinct"
        );
    }
}
