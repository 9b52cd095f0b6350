//! Device façade: plan building, execution and memoization.
//!
//! Co-location experiments replay the same kernels thousands of times
//! (every LC query runs the same layer sequence), so the device memoizes
//! [`KernelRun`] results by launch fingerprint. Simulation is deterministic,
//! which makes memoization exact rather than approximate.
//!
//! The cache is striped across [`CACHE_SHARDS`] independently locked maps
//! so concurrent sweep workers (see `tacker-par`) do not serialize on one
//! global mutex: a worker simulating pair A and a worker simulating pair B
//! almost always touch different shards. Hit/miss counters are plain
//! atomics for the same reason. Sharding never changes *results* — every
//! fingerprint maps to exactly one shard, and simulation is pure, so a
//! racing double-miss simply computes the same `KernelRun` twice and
//! stores it once.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tacker_kernel::{FpBuild, KernelDef, KernelKind, KernelLaunch};

use crate::engine::{simulate, simulate_family};
use crate::error::SimError;
use crate::plan::ExecutablePlan;
use crate::result::KernelRun;
use crate::spec::GpuSpec;

/// Number of independently locked cache stripes. A power of two so shard
/// selection is a mask; 16 stripes keep the expected contention between
/// any two concurrent workers under 7% even before accounting for the
/// short critical sections.
pub const CACHE_SHARDS: usize = 16;

/// One cache stripe. Keys are launch fingerprints, already avalanche-mixed,
/// so the map hashes them with the identity [`FpBuild`] instead of SipHash.
type Shard = HashMap<u64, Arc<KernelRun>, FpBuild>;

/// A simulated GPU with a sharded execution cache.
#[derive(Debug)]
pub struct Device {
    spec: GpuSpec,
    shards: Vec<Mutex<Shard>>,
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
        Device {
            spec,
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fused_hits: AtomicU64::new(0),
            fused_misses: AtomicU64::new(0),
        }
    }

    /// A new device of the same spec whose cache starts with every run
    /// memoized here, shared rather than re-simulated, and whose hit/miss
    /// counters start at zero. Simulation is pure, so a fork returns
    /// exactly the runs a cold device would compute; the two caches are
    /// independent afterwards.
    pub fn fork(&self) -> Device {
        Device {
            spec: self.spec.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| Mutex::new(s.lock().expect("cache poisoned").clone()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fused_hits: AtomicU64::new(0),
            fused_misses: AtomicU64::new(0),
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The cache stripe responsible for a fingerprint. Fingerprints are
    /// already well-mixed hashes, so bits 32.. select the shard: the
    /// identity-hashed stripe maps take their bucket from the low bits and
    /// their control byte from the top seven, which must stay free to vary
    /// inside one stripe.
    fn shard(&self, fp: u64) -> &Mutex<Shard> {
        &self.shards[((fp >> 32) as usize) & (CACHE_SHARDS - 1)]
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
        self.run_miss(&ExecutablePlan::from_launch(&self.spec, &launch)?, fp)
    }

    /// Executes a family of launches, memoized: the result for each launch
    /// is exactly what [`Device::run_launch`] would return for it, and the
    /// hit/miss counters move exactly as they would for those calls in
    /// order (a launch repeated within the family counts as a hit after
    /// its first, simulated occurrence).
    ///
    /// The misses are simulated together: launches whose plans differ only
    /// in per-role work counts — a fused pair profiled at several load
    /// ratios — share the simulation of their common prefix (see
    /// DESIGN.md §3, *Ratio families*).
    pub fn run_family(&self, launches: &[KernelLaunch]) -> Vec<Result<Arc<KernelRun>, SimError>> {
        /// Where a launch's result comes from.
        enum Slot {
            Done(Result<Arc<KernelRun>, SimError>),
            /// Index into the simulated plans.
            Miss(usize),
            /// A repeat of an earlier miss of this family.
            Repeat(usize),
        }
        let mut plans: Vec<(u64, ExecutablePlan)> = Vec::new();
        let slots: Vec<Slot> = launches
            .iter()
            .map(|launch| {
                let fp = launch.fingerprint();
                if let Some(i) = plans.iter().position(|(f, _)| *f == fp) {
                    return Slot::Repeat(i);
                }
                if let Some(hit) = self.probe(fp, launch.def.kind() == KernelKind::Fused) {
                    return Slot::Done(Ok(hit));
                }
                match ExecutablePlan::from_launch(&self.spec, launch) {
                    Ok(plan) => {
                        plans.push((fp, plan));
                        Slot::Miss(plans.len() - 1)
                    }
                    Err(e) => Slot::Done(Err(e)),
                }
            })
            .collect();
        let family: Vec<&ExecutablePlan> = plans.iter().map(|(_, plan)| plan).collect();
        let runs: Vec<Result<Arc<KernelRun>, SimError>> = simulate_family(&self.spec, &family)
            .into_iter()
            .zip(&plans)
            .map(|(result, (fp, plan))| {
                let run = Arc::new(result?);
                self.count_miss(plan.fused);
                self.shard(*fp)
                    .lock()
                    .expect("cache poisoned")
                    .insert(*fp, Arc::clone(&run));
                Ok(run)
            })
            .collect();
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(result) => result,
                Slot::Miss(i) => runs[i].clone(),
                Slot::Repeat(i) => {
                    // A failed first occurrence is not cached, so its
                    // repeat fails again uncounted; a stored one is a hit.
                    let shared = runs[i].clone()?;
                    self.count_hit(plans[i].1.fused);
                    Ok(shared)
                }
            })
            .collect()
    }

    /// Executes a prepared plan, memoized when the plan has a fingerprint.
    /// Hits return the shared cached run (refcount bump, zero copy).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors. Failures are not cached.
    pub fn run_plan(&self, plan: &ExecutablePlan) -> Result<Arc<KernelRun>, SimError> {
        match plan.fingerprint {
            Some(fp) => match self.probe(fp, plan.fused) {
                Some(hit) => Ok(hit),
                None => self.run_miss(plan, fp),
            },
            None => self.simulate_counted(plan),
        }
    }

    /// The one cache probe of a lookup: on a hit, counts it (and a fused
    /// hit when `fused`) and shares the cached run.
    fn probe(&self, fp: u64, fused: bool) -> Option<Arc<KernelRun>> {
        let shard = self.shard(fp).lock().expect("cache poisoned");
        let hit = Arc::clone(shard.get(&fp)?);
        drop(shard);
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

    /// Counts one simulated miss (and a fused miss when `fused`).
    fn count_miss(&self, fused: bool) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if fused {
            self.fused_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Simulates a plan whose probe under `fp` missed and stores the run.
    fn run_miss(&self, plan: &ExecutablePlan, fp: u64) -> Result<Arc<KernelRun>, SimError> {
        let run = self.simulate_counted(plan)?;
        self.shard(fp)
            .lock()
            .expect("cache poisoned")
            .insert(fp, Arc::clone(&run));
        Ok(run)
    }

    /// Simulates a plan, counting a miss (and a fused miss) on success.
    fn simulate_counted(&self, plan: &ExecutablePlan) -> Result<Arc<KernelRun>, SimError> {
        let run = Arc::new(simulate(&self.spec, plan)?);
        self.count_miss(plan.fused);
        Ok(run)
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

    /// Number of memoized kernel runs across all shards.
    pub fn cache_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache poisoned").len())
            .sum()
    }

    /// Clears the execution cache *and* resets the hit/miss counters
    /// (plain and fused). A cleared device reports provenance as if
    /// freshly constructed — repeated-bench passes that clear between
    /// iterations are not polluted by earlier passes' lookups, and the
    /// next lookup of every plan is a miss that re-simulates.
    ///
    /// Contrast with [`Device::reset_stats`], which zeroes the counters
    /// but keeps every memoized run: use `clear_cache` to force
    /// re-simulation (cold-start benchmarks), `reset_stats` to measure
    /// hit rates over a window while staying warm.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache poisoned").clear();
        }
        self.reset_stats();
    }

    /// Resets the hit/miss counters (plain and fused) without touching
    /// the cached runs themselves: subsequent lookups of already-seen
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
        // Caches are independent after the fork.
        fork.run_launch(&launch(680)).unwrap();
        assert_eq!((fork.cache_len(), dev.cache_len()), (2, 1));
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
        dev.run_plan(&plan).unwrap();
        dev.run_plan(&plan).unwrap();
        let (hits, misses) = dev.cache_stats();
        assert_eq!((hits, misses), (0, 2));
        assert_eq!(dev.cache_len(), 0);
    }

    #[test]
    fn clear_cache_forces_resim() {
        let dev = Device::new(GpuSpec::rtx2080ti());
        let l = launch(68);
        dev.run_launch(&l).unwrap();
        dev.clear_cache();
        // Counters were reset along with the entries, so only the
        // post-clear re-simulation is visible.
        assert_eq!(dev.cache_stats(), (0, 0));
        dev.run_launch(&l).unwrap();
        let (hits, misses) = dev.cache_stats();
        assert_eq!((hits, misses), (0, 1));
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
        dev.run_launch(&l).unwrap();
        assert_eq!(dev.cache_stats(), (1, 0));
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
            .shards
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
