//! Device façade: plan building, execution and memoization.
//!
//! Co-location experiments replay the same kernels thousands of times
//! (every LC query runs the same layer sequence), so the device memoizes
//! [`KernelRun`] results by launch fingerprint. Simulation is deterministic,
//! which makes memoization exact rather than approximate.
//!
//! Below the fingerprint cache sits a second memo, keyed by a plan's SM-0
//! workload ([`workload_key`]): the engine simulates SM 0 only, so launches
//! whose grids differ but whose SM-0 blocks carry the same per-role
//! iteration counts (a PTB kernel's single persistent wave at two grids)
//! run the same simulation. A fingerprint miss lowers the plan and probes
//! the memo; a memo hit shares the stored run under the new fingerprint
//! and skips the simulation. It still counts a miss: the counters report
//! fingerprint lookups, whatever served them.
//!
//! Both maps are striped across [`CACHE_SHARDS`] independently locked maps
//! so concurrent sweep workers (see `tacker-par`) do not serialize on one
//! global mutex: a worker simulating pair A and a worker simulating pair B
//! almost always touch different shards. Hit/miss counters are plain
//! atomics for the same reason. Sharding never changes *results* — every
//! key maps to exactly one shard, and simulation is pure, so a racing
//! double-miss simply computes the same `KernelRun` twice and stores one
//! of them.
//!
//! Lookups probe by fingerprint before anything else: a hit costs one
//! fingerprint hash plus one shard probe, and a launch is lowered into an
//! [`ExecutablePlan`] on a miss only. Callers that hold a launch's parts
//! rather than a [`KernelLaunch`] use [`Device::run_keyed`] and build the
//! launch on a miss only.
//!
//! Results are stored and returned as `Arc<KernelRun>`: a cache hit is a
//! refcount bump, never a deep copy of the run's interval and role
//! vectors. Shared runs are immutable by construction — consumers that
//! need a perturbed copy (`scale_run`) derive a fresh owned value.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use tacker_kernel::{FpBuild, KernelDef, KernelKind, KernelLaunch};

use crate::engine::{simulate, simulate_family, workload_key};
use crate::error::SimError;
use crate::plan::ExecutablePlan;
use crate::result::KernelRun;
use crate::spec::GpuSpec;

/// Number of independently locked cache stripes. A power of two so shard
/// selection is a mask; 16 stripes keep the expected contention between
/// any two concurrent workers under 7% even before accounting for the
/// short critical sections.
pub const CACHE_SHARDS: usize = 16;

/// A key of a striped run map: an avalanche-mixed hash, which the stripe
/// maps hash with the identity [`FpBuild`] instead of SipHash.
trait StripeKey: Copy + Eq + Hash {
    /// The stripe of this key. Bits 32.. select it: the identity-hashed
    /// stripe maps take their bucket from the low bits and their control
    /// byte from the top seven, which must stay free to vary inside one
    /// stripe.
    fn stripe(self) -> usize;
}

impl StripeKey for u64 {
    fn stripe(self) -> usize {
        ((self >> 32) as usize) & (CACHE_SHARDS - 1)
    }
}

impl StripeKey for u128 {
    fn stripe(self) -> usize {
        (self as u64).stripe()
    }
}

/// One stripe of a run map.
type Shard<K> = HashMap<K, Arc<KernelRun>, FpBuild>;

/// Shared runs by key, striped over [`CACHE_SHARDS`] locked maps.
#[derive(Debug)]
struct Stripes<K>(Vec<Mutex<Shard<K>>>);

impl<K: StripeKey> Stripes<K> {
    fn new() -> Self {
        Stripes((0..CACHE_SHARDS).map(|_| Mutex::default()).collect())
    }

    fn shard(&self, key: K) -> MutexGuard<'_, Shard<K>> {
        self.0[key.stripe()].lock().expect("cache poisoned")
    }

    fn get(&self, key: K) -> Option<Arc<KernelRun>> {
        self.shard(key).get(&key).map(Arc::clone)
    }

    fn insert(&self, key: K, run: &Arc<KernelRun>) {
        self.shard(key).insert(key, Arc::clone(run));
    }

    /// A copy sharing every stored run.
    fn fork(&self) -> Self {
        Stripes(
            self.0
                .iter()
                .map(|s| Mutex::new(s.lock().expect("cache poisoned").clone()))
                .collect(),
        )
    }

    fn len(&self) -> usize {
        self.0
            .iter()
            .map(|s| s.lock().expect("cache poisoned").len())
            .sum()
    }

    fn clear(&self) {
        for shard in &self.0 {
            shard.lock().expect("cache poisoned").clear();
        }
    }
}

/// A simulated GPU with a sharded execution cache.
#[derive(Debug)]
pub struct Device {
    spec: GpuSpec,
    /// Runs by launch (or plan) fingerprint.
    cache: Stripes<u64>,
    /// Runs by SM-0 workload ([`workload_key`]): the simulations behind
    /// the cache, shared by every fingerprint that runs the same one.
    memo: Stripes<u128>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hit/miss counters restricted to fused-kernel plans. Fused launches
    /// are the reuse the content-derived `KernelId`s were built for, so
    /// they are accounted separately from plain kernels.
    fused_hits: AtomicU64,
    fused_misses: AtomicU64,
}

impl Device {
    /// Creates a device from a spec.
    pub fn new(spec: GpuSpec) -> Device {
        Device::with_runs(spec, Stripes::new(), Stripes::new())
    }

    fn with_runs(spec: GpuSpec, cache: Stripes<u64>, memo: Stripes<u128>) -> Device {
        Device {
            spec,
            cache,
            memo,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fused_hits: AtomicU64::new(0),
            fused_misses: AtomicU64::new(0),
        }
    }

    /// A new device of the same spec whose cache and SM-0 memo start with
    /// every run memoized here, shared rather than re-simulated, and whose
    /// hit/miss counters start at zero. Simulation is pure, so a fork
    /// returns exactly the runs a cold device would compute; the two
    /// devices' memos are independent afterwards.
    pub fn fork(&self) -> Device {
        Device::with_runs(self.spec.clone(), self.cache.fork(), self.memo.fork())
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Executes a plain kernel launch, memoized. The cache is probed by
    /// the launch fingerprint first; lowering (`lower → plan → simulate`)
    /// happens on a miss only, so a repeat launch costs one fingerprint
    /// hash, one shard probe and a refcount bump.
    ///
    /// # Errors
    ///
    /// Propagates plan construction and simulation errors. Failures are
    /// not cached, so a launch that fails lowering fails on every call.
    pub fn run_launch(&self, launch: &KernelLaunch) -> Result<Arc<KernelRun>, SimError> {
        self.run_keyed(launch.fingerprint(), &launch.def, || launch.clone())
    }

    /// [`Device::run_launch`] keyed by a precomputed fingerprint: `fp`
    /// must equal `launch().fingerprint()` and `def` must be the launch's
    /// definition. `launch` is called on a miss only, so callers holding
    /// the launch's parts (a `WorkloadKernel`) build no launch on a hit.
    ///
    /// # Errors
    ///
    /// As [`Device::run_launch`].
    pub fn run_keyed(
        &self,
        fp: u64,
        def: &KernelDef,
        launch: impl FnOnce() -> KernelLaunch,
    ) -> Result<Arc<KernelRun>, SimError> {
        if let Some(hit) = self.probe(fp, def.kind() == KernelKind::Fused) {
            return Ok(hit);
        }
        let launch = launch();
        debug_assert_eq!(launch.fingerprint(), fp, "run_keyed: key/launch mismatch");
        self.run_miss(&ExecutablePlan::from_launch(&self.spec, &launch)?)
    }

    /// Executes a family of launches, memoized: the result for each launch
    /// is exactly what [`Device::run_launch`] would return for it, and the
    /// hit/miss counters move exactly as they would for those calls in
    /// order (a launch repeated within the family counts as a hit after
    /// its first occurrence).
    ///
    /// Fingerprint misses whose SM-0 workload the memo holds are served
    /// from it; the rest are simulated together, one simulation per
    /// distinct workload: launches whose plans differ only in per-role
    /// work counts — a fused pair profiled at several load ratios — share
    /// the simulation of their common prefix (see DESIGN.md §3, *Ratio
    /// families*).
    pub fn run_family(&self, launches: &[KernelLaunch]) -> Vec<Result<Arc<KernelRun>, SimError>> {
        /// Where a launch's result comes from.
        enum Slot {
            Done(Result<Arc<KernelRun>, SimError>),
            /// The first occurrence of a fingerprint, served by simulated
            /// workload `plan`: counts a miss.
            Miss {
                plan: usize,
                fp: u64,
                fused: bool,
            },
            /// A repeat of an earlier miss of this family: counts a hit.
            Repeat {
                plan: usize,
                fused: bool,
            },
        }
        // The workloads to simulate, and each fingerprint missed so far
        // with the workload that serves it.
        let mut plans: Vec<(u128, ExecutablePlan)> = Vec::new();
        let mut missed: Vec<(u64, usize)> = Vec::new();
        let slots: Vec<Slot> = launches
            .iter()
            .map(|launch| {
                let fp = launch.fingerprint();
                let fused = launch.def.kind() == KernelKind::Fused;
                if let Some(&(_, plan)) = missed.iter().find(|(f, _)| *f == fp) {
                    return Slot::Repeat { plan, fused };
                }
                if let Some(hit) = self.probe(fp, fused) {
                    return Slot::Done(Ok(hit));
                }
                let plan = match ExecutablePlan::from_launch(&self.spec, launch) {
                    Ok(plan) => plan,
                    Err(e) => return Slot::Done(Err(e)),
                };
                let key = workload_key(&self.spec, &plan);
                if let Some(shared) = self.memo.get(key) {
                    self.count_miss(fused);
                    self.cache.insert(fp, &shared);
                    return Slot::Done(Ok(shared));
                }
                let plan = match plans.iter().position(|(k, _)| *k == key) {
                    Some(i) => i,
                    None => {
                        plans.push((key, plan));
                        plans.len() - 1
                    }
                };
                missed.push((fp, plan));
                Slot::Miss { plan, fp, fused }
            })
            .collect();
        let family: Vec<&ExecutablePlan> = plans.iter().map(|(_, plan)| plan).collect();
        let runs: Vec<Result<Arc<KernelRun>, SimError>> = simulate_family(&self.spec, &family)
            .into_iter()
            .zip(&plans)
            .map(|(result, (key, _))| {
                let run = Arc::new(result?);
                self.memo.insert(*key, &run);
                Ok(run)
            })
            .collect();
        // A failed workload is stored nowhere, so each launch it serves
        // fails uncounted, as it would on its own.
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(result) => result,
                Slot::Miss { plan, fp, fused } => {
                    let shared = runs[plan].clone()?;
                    self.count_miss(fused);
                    self.cache.insert(fp, &shared);
                    Ok(shared)
                }
                Slot::Repeat { plan, fused } => {
                    let shared = runs[plan].clone()?;
                    self.count_hit(fused);
                    Ok(shared)
                }
            })
            .collect()
    }

    /// Executes a prepared plan, memoized: by its fingerprint when it has
    /// one, and by its SM-0 workload in any case. Hits return the shared
    /// stored run (refcount bump, zero copy); a plan without a
    /// fingerprint counts a miss on every call.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors. Failures are not cached.
    pub fn run_plan(&self, plan: &ExecutablePlan) -> Result<Arc<KernelRun>, SimError> {
        if let Some(hit) = plan.fingerprint.and_then(|fp| self.probe(fp, plan.fused)) {
            return Ok(hit);
        }
        self.run_miss(plan)
    }

    /// The one cache probe of a lookup: on a hit, counts it (and a fused
    /// hit when `fused`) and shares the cached run.
    fn probe(&self, fp: u64, fused: bool) -> Option<Arc<KernelRun>> {
        let hit = self.cache.get(fp)?;
        self.count_hit(fused);
        Some(hit)
    }

    /// Counts one cache hit (and a fused hit when `fused`).
    fn count_hit(&self, fused: bool) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if fused {
            self.fused_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts `n` plain-kernel hits in one add: launches a caller served
    /// from its own copies of runs this device returned, each of which a
    /// probe would have hit (the cache never evicts except through
    /// [`Device::clear_cache`]). Keeps the counters reading as if every
    /// such launch had probed.
    pub fn credit_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one miss (and a fused miss when `fused`).
    fn count_miss(&self, fused: bool) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if fused {
            self.fused_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs a plan whose fingerprint probe missed, or that has none: from
    /// the SM-0 memo when it holds the plan's workload, else simulated and
    /// stored there. Counts a miss on success and stores the run under the
    /// plan's fingerprint, if any.
    fn run_miss(&self, plan: &ExecutablePlan) -> Result<Arc<KernelRun>, SimError> {
        let key = workload_key(&self.spec, plan);
        let shared = match self.memo.get(key) {
            Some(shared) => shared,
            None => {
                let fresh = Arc::new(simulate(&self.spec, plan)?);
                self.memo.insert(key, &fresh);
                fresh
            }
        };
        self.count_miss(plan.fused);
        if let Some(fp) = plan.fingerprint {
            self.cache.insert(fp, &shared);
        }
        Ok(shared)
    }

    /// (cache hits, cache misses) so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let (hits, misses) = self.cache_stats();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// (cache hits, cache misses) so far for fused-kernel plans only.
    pub fn fused_cache_stats(&self) -> (u64, u64) {
        (
            self.fused_hits.load(Ordering::Relaxed),
            self.fused_misses.load(Ordering::Relaxed),
        )
    }

    /// Fraction of fused-plan lookups served from the cache, in `[0, 1]`.
    pub fn fused_cache_hit_rate(&self) -> f64 {
        let (hits, misses) = self.fused_cache_stats();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Number of memoized kernel runs across all shards, by fingerprint.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Clears the execution cache and the SM-0 memo *and* resets the
    /// hit/miss counters (plain and fused). A cleared device reports
    /// provenance as if freshly constructed — repeated-bench passes that
    /// clear between iterations are not polluted by earlier passes'
    /// lookups, and the next lookup of every plan is a miss that
    /// re-simulates.
    ///
    /// Contrast with [`Device::reset_stats`], which zeroes the counters
    /// but keeps every memoized run: use `clear_cache` to force
    /// re-simulation (cold-start benchmarks), `reset_stats` to measure
    /// hit rates over a window while staying warm.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.memo.clear();
        self.reset_stats();
    }

    /// Resets the hit/miss counters (plain and fused) without touching
    /// the memoized runs themselves: subsequent lookups of already-seen
    /// plans are still hits (refcount bumps), they just count from zero.
    ///
    /// Contrast with [`Device::clear_cache`], which also drops the
    /// memoized runs and therefore forces re-simulation. `reset_stats`
    /// scopes provenance counters to a measurement window; `clear_cache`
    /// restores cold-start behaviour.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.fused_hits.store(0, Ordering::Relaxed);
        self.fused_misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tacker_kernel::ast::{Expr, Stmt};
    use tacker_kernel::{Bindings, Dim3, KernelDef, KernelKind, ResourceUsage};

    fn launch_of(kind: KernelKind, shared: u64, blocks: u64) -> KernelLaunch {
        let def = KernelDef::builder("d", kind)
            .block_dim(Dim3::x(128))
            .resources(ResourceUsage::new(32, shared))
            .body(vec![Stmt::compute_cd(Expr::lit(100), "fma")])
            .build()
            .unwrap();
        KernelLaunch::new(Arc::new(def), blocks, Bindings::new())
    }

    fn launch(blocks: u64) -> KernelLaunch {
        launch_of(KernelKind::Cuda, 0, blocks)
    }

    #[test]
    fn warm_lookups_share_the_run_and_count_one_hit_each() {
        for kind in [KernelKind::Cuda, KernelKind::Fused] {
            let dev = Device::new(GpuSpec::rtx2080ti());
            let l = launch_of(kind, 0, 68);
            let fused = u64::from(kind == KernelKind::Fused);
            let cold = dev.run_launch(&l).unwrap();
            assert_eq!(dev.cache_stats(), (0, 1));
            assert_eq!(dev.fused_cache_stats(), (0, fused));
            let warm = dev.run_launch(&l).unwrap();
            assert!(Arc::ptr_eq(&cold, &warm), "{kind:?}: hit must alias");
            assert_eq!(dev.cache_stats(), (1, 1));
            assert_eq!(dev.fused_cache_stats(), (fused, fused));
            // The keyed entry point hits the same entry and never builds
            // the launch on a hit.
            let keyed = dev
                .run_keyed(l.fingerprint(), &l.def, || unreachable!("built on a hit"))
                .unwrap();
            assert!(Arc::ptr_eq(&cold, &keyed), "{kind:?}: keyed hit must alias");
            assert_eq!(dev.cache_stats(), (2, 1));
            assert_eq!(dev.fused_cache_stats(), (2 * fused, fused));
        }
    }

    #[test]
    fn keyed_miss_builds_the_launch_once_and_caches_it() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        let mut built = 0;
        let run = dev
            .run_keyed(l.fingerprint(), &l.def, || {
                built += 1;
                l.clone()
            })
            .unwrap();
        assert_eq!(built, 1);
        assert_eq!(dev.cache_stats(), (0, 1));
        assert!(Arc::ptr_eq(&run, &dev.run_launch(&l).unwrap()));
    }

    #[test]
    fn launches_that_fail_lowering_are_never_cached() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        // 128 KiB of shared memory per block fits no SM.
        let fat = launch_of(KernelKind::Cuda, 128 * 1024, 10);
        for _ in 0..3 {
            assert!(matches!(
                dev.run_launch(&fat),
                Err(SimError::LaunchFailure { .. })
            ));
            assert!(dev
                .run_keyed(fat.fingerprint(), &fat.def, || fat.clone())
                .is_err());
        }
        assert_eq!(dev.cache_len(), 0);
        assert_eq!(dev.cache_stats(), (0, 0));
    }

    #[test]
    fn forks_share_memoized_runs_with_fresh_counters() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        let run = dev.run_launch(&l).unwrap();
        let fork = dev.fork();
        assert_eq!(fork.cache_stats(), (0, 0));
        assert_eq!(fork.cache_len(), 1);
        // The fork replays the parent's run without re-simulating it.
        assert!(Arc::ptr_eq(&run, &fork.run_launch(&l).unwrap()));
        assert_eq!(fork.cache_stats(), (1, 0));
        // The fork carries the SM-0 memo too: a grid of the same SM-0
        // workload misses the fingerprint cache but shares the run.
        assert!(Arc::ptr_eq(&run, &fork.run_launch(&launch(40)).unwrap()));
        assert_eq!(fork.cache_stats(), (1, 1));
        // Caches and memos are independent after the fork.
        fork.run_launch(&launch(680)).unwrap();
        assert_eq!((fork.cache_len(), dev.cache_len()), (3, 1));
        assert_eq!((fork.memo.len(), dev.memo.len()), (2, 1));
        assert_eq!(dev.cache_stats(), (0, 1));
    }

    #[test]
    fn memoization_hits_on_repeat() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        let a = dev.run_launch(&l).unwrap();
        let b = dev.run_launch(&l).unwrap();
        assert_eq!(a, b);
        let (hits, misses) = dev.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        assert!((dev.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_grids_are_distinct_entries() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let a = dev.run_launch(&launch(68)).unwrap();
        let b = dev.run_launch(&launch(680)).unwrap();
        assert!(b.cycles > a.cycles);
        let (_, misses) = dev.cache_stats();
        assert_eq!(misses, 2);
        assert_eq!(dev.cache_len(), 2);
    }

    #[test]
    fn plans_without_fingerprints_are_never_cached() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let launch = launch(68);
        let mut plan = crate::plan::ExecutablePlan::from_launch(dev.spec(), &launch).unwrap();
        plan.fingerprint = None;
        let first = dev.run_plan(&plan).unwrap();
        let second = dev.run_plan(&plan).unwrap();
        let (hits, misses) = dev.cache_stats();
        assert_eq!((hits, misses), (0, 2));
        assert_eq!(dev.cache_len(), 0);
        // Every call counts a miss, but the SM-0 memo serves the second.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(dev.memo.len(), 1);
    }

    /// A plan of two roles, one synchronizing on barrier 1 with
    /// `expected` arrivals, over `blocks` blocks.
    fn barrier_plan(expected: u32, blocks: u64) -> ExecutablePlan {
        use tacker_kernel::{BlockProgram, Op, WarpProgram, WarpRole};
        let role = |name: &str, ops| WarpRole {
            name: name.into(),
            warps: 2,
            program: WarpProgram::new(ops),
            original_blocks: blocks,
        };
        let compute = Op::Compute {
            unit: tacker_kernel::ast::ComputeUnit::Cuda,
            ops: 64,
        };
        let mut block = BlockProgram::new(vec![
            role("a", vec![compute.clone(), Op::Barrier { id: 1 }]),
            role("b", vec![compute]),
        ]);
        block.set_barrier_expectation(1, expected);
        ExecutablePlan::assemble(
            "sync",
            true,
            block,
            blocks,
            ResourceUsage::new(32, 0),
            128,
            None,
        )
    }

    #[test]
    fn failed_simulations_are_never_memoized() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        // Barrier 1 expects role b's warps too, which never arrive.
        let deadlock = barrier_plan(4, 68);
        for _ in 0..3 {
            assert!(matches!(
                dev.run_plan(&deadlock),
                Err(SimError::Deadlock { .. })
            ));
        }
        assert_eq!((dev.cache_len(), dev.memo.len()), (0, 0));
        assert_eq!(dev.cache_stats(), (0, 0));
        // The same shape with a barrier table it can meet runs, apart.
        let run = dev.run_plan(&barrier_plan(2, 68)).unwrap();
        assert_eq!(dev.memo.len(), 1);
        assert!(dev.run_plan(&deadlock).is_err());
        assert!(Arc::ptr_eq(
            &run,
            &dev.run_plan(&barrier_plan(2, 68)).unwrap()
        ));
        assert_eq!(dev.cache_stats(), (0, 2));
    }

    #[test]
    fn grids_of_one_sm0_workload_share_one_simulation() {
        for kind in [KernelKind::Cuda, KernelKind::Fused] {
            let dev = Device::new(GpuSpec::rtx2080ti());
            let fused = u64::from(kind == KernelKind::Fused);
            // Grids 69..=136 all place blocks 0 and 68 on SM 0, one
            // iteration each.
            let first = dev.run_launch(&launch_of(kind, 0, 69)).unwrap();
            for grid in [100, 136] {
                let run = dev.run_launch(&launch_of(kind, 0, grid)).unwrap();
                assert!(Arc::ptr_eq(&first, &run), "{kind:?} grid {grid}");
            }
            // Counted as fingerprint misses, exactly as if simulated.
            assert_eq!(dev.cache_stats(), (0, 3));
            assert_eq!(dev.fused_cache_stats(), (0, 3 * fused));
            assert_eq!((dev.cache_len(), dev.memo.len()), (3, 1));
            // A third SM-0 block is another workload.
            let longer = dev.run_launch(&launch_of(kind, 0, 137)).unwrap();
            assert!(longer.cycles > first.cycles);
            assert_eq!(dev.memo.len(), 2);
            // The shared run is also each fingerprint's cache entry.
            let again = dev.run_launch(&launch_of(kind, 0, 100)).unwrap();
            assert!(Arc::ptr_eq(&first, &again));
            assert_eq!(dev.cache_stats(), (1, 4));
        }
    }

    #[test]
    fn clear_cache_forces_resim() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        let first = dev.run_launch(&l).unwrap();
        dev.clear_cache();
        // Counters were reset along with the entries, so only the
        // post-clear re-simulation is visible.
        assert_eq!(dev.cache_stats(), (0, 0));
        assert_eq!((dev.cache_len(), dev.memo.len()), (0, 0));
        // Neither the fingerprint nor the SM-0 workload is remembered.
        let resim = dev.run_launch(&l).unwrap();
        assert!(!Arc::ptr_eq(&first, &resim));
        assert!(!Arc::ptr_eq(&first, &dev.run_launch(&launch(40)).unwrap()));
        assert_eq!(*first, *resim);
        let (hits, misses) = dev.cache_stats();
        assert_eq!((hits, misses), (0, 2));
    }

    #[test]
    fn reset_stats_keeps_entries_but_zeroes_counters() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        dev.run_launch(&l).unwrap();
        dev.run_launch(&l).unwrap();
        assert_eq!(dev.cache_stats(), (1, 1));
        dev.reset_stats();
        assert_eq!(dev.cache_stats(), (0, 0));
        assert_eq!(dev.fused_cache_stats(), (0, 0));
        assert_eq!(dev.cache_len(), 1, "entries survive a stats reset");
        // The next lookup is a hit against the surviving entry.
        let run = dev.run_launch(&l).unwrap();
        assert_eq!(dev.cache_stats(), (1, 0));
        // The SM-0 memo survives too: a new grid of the same workload
        // misses the cache but shares the run.
        assert!(Arc::ptr_eq(&run, &dev.run_launch(&launch(40)).unwrap()));
        assert_eq!(dev.cache_stats(), (1, 1));
        assert_eq!((dev.cache_len(), dev.memo.len()), (2, 1));
    }

    #[test]
    fn credited_hits_count_as_plain_hits() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        dev.run_launch(&l).unwrap();
        dev.credit_hits(0);
        assert_eq!(dev.cache_stats(), (0, 1));
        // Three launches served from a held copy read exactly as three
        // probes of the cached entry would.
        dev.credit_hits(3);
        let probed = Device::new(GpuSpec::rtx2080ti());
        for _ in 0..4 {
            probed.run_launch(&l).unwrap();
        }
        assert_eq!(dev.cache_stats(), probed.cache_stats());
        assert_eq!(dev.cache_stats(), (3, 1));
        assert_eq!(dev.fused_cache_stats(), (0, 0), "credits are plain hits");
        assert!((dev.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(dev.cache_len(), 1, "crediting stores nothing");
    }

    #[test]
    fn repeat_hits_share_one_allocation() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        let a = dev.run_launch(&l).unwrap();
        let b = dev.run_launch(&l).unwrap();
        let c = dev.run_launch(&l).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must alias the cached run");
        assert!(Arc::ptr_eq(&b, &c));
    }

    #[test]
    fn entries_spread_across_shards() {
        // Many distinct grids should not all land in one stripe; with 40
        // well-mixed fingerprints the chance of a single stripe holding
        // everything is (1/16)^39 — i.e. this would only fail if shard
        // selection were broken.
        let dev = Device::new(GpuSpec::rtx2080ti());
        for blocks in 1..=40 {
            dev.run_launch(&launch(blocks * 17)).unwrap();
        }
        assert_eq!(dev.cache_len(), 40);
        let populated = dev
            .cache
            .0
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(populated > 1, "all entries landed in one shard");
    }

    #[test]
    fn concurrent_lookups_are_consistent() {
        let dev = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let launches: Vec<KernelLaunch> = (1..=8).map(|b| launch(b * 34)).collect();
        let baseline: Vec<Arc<KernelRun>> = launches
            .iter()
            .map(|l| dev.run_launch(l).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (l, expect) in launches.iter().zip(&baseline) {
                        assert_eq!(&dev.run_launch(l).unwrap(), expect);
                    }
                });
            }
        });
        let (hits, misses) = dev.cache_stats();
        assert_eq!(misses, 8, "every distinct launch simulated once");
        assert_eq!(hits, 8 * 4);
    }
}
