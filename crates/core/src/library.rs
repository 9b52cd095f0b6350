//! The offline fusion library (§V-C, §VI-C, §VIII-A).
//!
//! For each fusable (Tensor kernel, CUDA kernel) pair the library:
//!
//! 1. enumerates every feasible fusion ratio ([`tacker_fuser::enumerate_configs`]);
//! 2. measures all candidates and the sequential execution at a balanced
//!    profiling workload, keeping the fastest (or declining to fuse when
//!    sequential wins — §V-C);
//! 3. profiles the winning fused kernel at the paper's four load ratios
//!    (10%, 20%, 180%, 190%) and fits the two-stage duration model (§VI-C);
//! 4. serves duration predictions to the online manager and refreshes
//!    models when online error exceeds the 10% threshold.
//!
//! Pairs are prepared lazily and cached under a key; a pair whose
//! Tensor kernel is a black-box cuDNN implementation never enters the
//! library (its source is unavailable for fusion).
//!
//! **An entry is a pure function of the pair it is prepared from.**
//! Preparation profiles on a pair-local [`KernelProfiler`] over the
//! library's device: it measures the Tensor member directly and fits only
//! the CUDA member's LR model, so no caller's profiler history (nor the
//! device's cache warmth) reaches the entry. Preparation runs on the
//! calling thread, in a fixed order: candidates in enumeration order, then
//! the load ratios in [`PROFILE_RATIOS`] order.
//!
//! **Which pair a key is prepared from.** A key covers every launch of the
//! same two definitions within the same work buckets. A library *scoped*
//! to the (LC kernel × BE kernel) pairs it serves prepares each key from
//! its canonical member, the in-scope pair with the smallest
//! `(tc fingerprint, cd fingerprint)`; that depends on the set of pairs,
//! not on which caller met the key first. A key outside the scope is
//! prepared from the pair asked, so an unscoped library
//! ([`FusionLibrary::new`], scoped to no pair) prepares each key from the
//! first pair asked.
//!
//! **Per-run state.** A run never mutates a shared entry: it serves from
//! a view (`FusionLibrary::for_run`) that copies each entry on first
//! use, so strikes and online refits stay within the run, and the run's
//! shapes that share a key share its copy.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tacker_fuser::{
    enumerate_configs, fuse_flexible, select_best, FusedKernel, FusionConfig, FusionDecision,
    PackPriority,
};
use tacker_kernel::{KernelId, KernelKind, SimTime, SmCapacity};
use tacker_predictor::FusedPairModel;
use tacker_sim::Device;
use tacker_workloads::{BeApp, LcService, WorkloadKernel};

use crate::error::TackerError;
use crate::profile::{work_feature, KernelProfiler};

/// Model-fitting load ratios. The paper profiles four (10%, 20%, 180%,
/// 190%, §VI-C) and leans on online refresh; we add three mid-curve points
/// so the *initial* model is already reliable for scheduling — a
/// documented robustness deviation (see DESIGN.md).
pub const PROFILE_RATIOS: [f64; 7] = [0.1, 0.2, 0.7, 1.0, 1.3, 1.8, 1.9];

/// A prepared pair: the best fused kernel and its duration model.
#[derive(Debug, Clone)]
pub struct PairEntry {
    /// The winning fused kernel.
    pub fused: FusedKernel,
    /// The fitted two-stage load-ratio model.
    pub model: FusedPairModel,
    /// Offline-measured fused duration at the balanced profiling workload.
    pub offline_fused: SimTime,
    /// Offline-measured sequential duration of the same workload.
    pub offline_sequential: SimTime,
    /// Online launches where fusion lost to sequential execution. After
    /// [`PairEntry::MAX_STRIKES`] the pair is no longer considered — the
    /// paper's "this CD kernel would not be considered for fusion" rule
    /// (§VIII-I).
    pub strikes: u32,
}

impl PairEntry {
    /// Strikes after which a pair is blacklisted.
    pub const MAX_STRIKES: u32 = 2;

    /// Whether the pair is still eligible for fusion.
    pub fn eligible(&self) -> bool {
        self.strikes < Self::MAX_STRIKES
    }

    /// Records the outcome of an online fused launch: refreshes the model
    /// on >10% error and strikes the pair when fusion lost to sequential
    /// execution *or* ran far over its prediction (a pair the model cannot
    /// be trusted on consumes headroom it never accounted for). Returns
    /// whether the model was refreshed.
    pub fn observe_outcome(&mut self, x_tc: SimTime, x_cd: SimTime, actual: SimTime) -> bool {
        let predicted = self.model.predict(x_tc, x_cd);
        if actual > x_tc + x_cd || actual > predicted.mul_f64(1.5) {
            self.strikes += 1;
        }
        self.model.observe(x_tc, x_cd, actual)
    }
}

/// Library key: the kernel pair plus per-kernel work-scale buckets, so a
/// GEMM definition reused at very different shapes gets its own models per
/// scale class (each configuration is effectively a distinct kernel).
type PairKey = (KernelId, KernelId, u32, u32);

fn work_bucket(wk: &WorkloadKernel) -> u32 {
    (work_feature(wk).max(1.0) as u64).ilog2() / 2
}

fn pair_key(tc: &WorkloadKernel, cd: &WorkloadKernel) -> PairKey {
    (tc.def.id(), cd.def.id(), work_bucket(tc), work_bucket(cd))
}

/// Each distinct (definition, work bucket) among `kernels`, as its
/// member with the smallest fingerprint.
fn group_minima<'a>(
    kernels: impl Iterator<Item = (&'a WorkloadKernel, u64)>,
) -> Vec<(&'a WorkloadKernel, u64)> {
    let mut groups: HashMap<(KernelId, u32), (&WorkloadKernel, u64)> = HashMap::new();
    for (k, fp) in kernels {
        groups
            .entry((k.def.id(), work_bucket(k)))
            .and_modify(|min| {
                if fp < min.1 {
                    *min = (k, fp);
                }
            })
            .or_insert((k, fp));
    }
    groups.into_values().collect()
}

/// What `prepare` answers for a key: the entry, or `None` when the pair is
/// declined.
type Prepared = Option<Arc<Mutex<PairEntry>>>;

/// Where a library's entries come from.
enum Source {
    /// Each key is prepared from its canonical member (see the module
    /// docs); a pair outside the scope is prepared as asked.
    Scoped(HashMap<PairKey, (WorkloadKernel, WorkloadKernel)>),
    /// A run's view: each key's entry is copied from the shared library.
    Copies(Arc<FusionLibrary>),
}

/// The fusion library.
pub struct FusionLibrary {
    device: Arc<Device>,
    source: Source,
    /// One slot per key asked for, filled once. A preparer holds its key's
    /// slot while it builds, so racing callers of one key wait for the
    /// entry instead of preparing it again.
    entries: Mutex<HashMap<PairKey, Arc<Mutex<Option<Prepared>>>>>,
    /// Memoized fused-kernel construction, keyed by the component kernels'
    /// content-derived ids and the fusion ratio. `fuse_flexible` is
    /// deterministic and content ids are stable across runs, so a ratio
    /// already built for this (TC, CD) pair — by any caller, at any work
    /// bucket — is reused instead of re-running the AST transform.
    fused_defs: Mutex<HashMap<(KernelId, KernelId, FusionConfig), FusedKernel>>,
}

impl FusionLibrary {
    fn with_source(device: Arc<Device>, source: Source) -> FusionLibrary {
        FusionLibrary {
            device,
            source,
            entries: Mutex::new(HashMap::new()),
            fused_defs: Mutex::new(HashMap::new()),
        }
    }

    /// Creates an unscoped library over a profiler's device: each key is
    /// prepared from the first pair asked. The profiler's own history is
    /// neither read nor written (see the module docs).
    pub fn new(profiler: Arc<KernelProfiler>) -> FusionLibrary {
        FusionLibrary::with_source(
            Arc::clone(profiler.device()),
            Source::Scoped(HashMap::new()),
        )
    }

    /// A library on `device` scoped to every (LC query kernel × BE task
    /// kernel) pair of `lcs` × `bes` that orients as (Tensor, CUDA): each
    /// key is prepared from its member with the smallest `(tc fingerprint,
    /// cd fingerprint)`.
    pub(crate) fn scoped<'a>(
        device: &Arc<Device>,
        lcs: impl IntoIterator<Item = &'a LcService>,
        bes: &[BeApp],
    ) -> FusionLibrary {
        // A key's members from one orientation are the product of two
        // kernel groups (same definition and work bucket), whose smallest
        // pair is the pair of the groups' smallest members: pairing group
        // minima finds every key's canonical member.
        let be_groups = group_minima(
            bes.iter()
                .flat_map(BeApp::task_kernels)
                .map(|k| (k, k.fingerprint())),
        );
        // Without BE kernels there is no pair (an LC-only run, such as a
        // peak-load calibration), so the LC kernels are not even grouped.
        let lc_groups = if be_groups.is_empty() {
            Vec::new()
        } else {
            group_minima(lcs.into_iter().flat_map(|lc| {
                lc.query_kernels()
                    .iter()
                    .zip(lc.query_fingerprints().iter().copied())
            }))
        };
        let mut members: HashMap<PairKey, ((u64, u64), &WorkloadKernel, &WorkloadKernel)> =
            HashMap::new();
        for &(lk, lfp) in &lc_groups {
            for &(bk, bfp) in &be_groups {
                let Some((tc, cd)) = FusionLibrary::orient(lk, bk) else {
                    continue;
                };
                let fps = if std::ptr::eq(tc, lk) {
                    (lfp, bfp)
                } else {
                    (bfp, lfp)
                };
                match members.entry(pair_key(tc, cd)) {
                    Entry::Vacant(v) => {
                        v.insert((fps, tc, cd));
                    }
                    Entry::Occupied(mut o) if fps < o.get().0 => {
                        o.insert((fps, tc, cd));
                    }
                    Entry::Occupied(_) => {}
                }
            }
        }
        let members = members
            .into_iter()
            .map(|(key, (_, tc, cd))| (key, (tc.clone(), cd.clone())))
            .collect();
        FusionLibrary::with_source(Arc::clone(device), Source::Scoped(members))
    }

    /// A run's view of `shared`: it answers with a copy of each shared
    /// entry, taken on first use, so what the run's launches change
    /// (strikes, online refits) never reaches another run.
    pub(crate) fn for_run(shared: &Arc<FusionLibrary>) -> FusionLibrary {
        FusionLibrary::with_source(
            Arc::clone(&shared.device),
            Source::Copies(Arc::clone(shared)),
        )
    }

    /// Kept for source compatibility and ignored: preparation always runs
    /// on the calling thread (see the module docs).
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Orients a kernel pair as (tensor, cuda) if possible.
    pub fn orient<'a>(
        a: &'a WorkloadKernel,
        b: &'a WorkloadKernel,
    ) -> Option<(&'a WorkloadKernel, &'a WorkloadKernel)> {
        match (a.def.kind(), b.def.kind()) {
            (KernelKind::Tensor, KernelKind::Cuda) => Some((a, b)),
            (KernelKind::Cuda, KernelKind::Tensor) => Some((b, a)),
            _ => None,
        }
    }

    /// A grid for `cd` whose predicted duration is `ratio ×` the predicted
    /// duration of `tc`, derived from the per-kernel LR models.
    fn cd_grid_for_ratio(
        profiler: &KernelProfiler,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
        ratio: f64,
    ) -> Result<u64, TackerError> {
        let t_tc = profiler.predict(tc)?;
        let t_cd_unit = profiler.predict(cd)?;
        if t_cd_unit == SimTime::ZERO {
            return Ok(cd.grid.max(1));
        }
        let scale = ratio * t_tc.as_nanos() as f64 / t_cd_unit.as_nanos() as f64;
        Ok(((cd.grid as f64 * scale).round() as u64).max(1))
    }

    /// Builds (or retrieves) the fused kernel for one ratio. Infeasible
    /// ratios yield `None` and are cheap enough not to cache.
    fn fused_for(
        &self,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
        cfg: FusionConfig,
        sm: &SmCapacity,
    ) -> Option<FusedKernel> {
        let key = (tc.def.id(), cd.def.id(), cfg);
        if let Some(hit) = self
            .fused_defs
            .lock()
            .expect("fused defs poisoned")
            .get(&key)
        {
            return Some(hit.clone());
        }
        let fused = fuse_flexible(&tc.def, &cd.def, cfg, sm).ok()?;
        self.fused_defs
            .lock()
            .expect("fused defs poisoned")
            .insert(key, fused.clone());
        Some(fused)
    }

    /// Measures the fused kernel for concrete component launches.
    fn measure_fused(
        &self,
        fused: &FusedKernel,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
        cd_grid: u64,
    ) -> Result<SimTime, TackerError> {
        let launch = fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings);
        Ok(self.device.run_launch(&launch)?.duration)
    }

    /// Prepares (or retrieves) the entry for an oriented pair's key.
    ///
    /// Returns `None` when the pair is not fusable or the offline
    /// measurement decided sequential execution is faster. Once prepared,
    /// a key's result never changes: later calls return the same entry.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors; fusion infeasibility is *not* an error
    /// (it yields `None`).
    pub fn prepare(
        &self,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
    ) -> Result<Prepared, TackerError> {
        let key = pair_key(tc, cd);
        let slot = Arc::clone(
            self.entries
                .lock()
                .expect("entries poisoned")
                .entry(key)
                .or_default(),
        );
        let mut slot = slot.lock().expect("entry slot poisoned");
        if let Some(prepared) = &*slot {
            return Ok(prepared.clone());
        }
        let entry = match &self.source {
            Source::Scoped(members) => {
                let (tc, cd) = members.get(&key).map_or((tc, cd), |(tc, cd)| (tc, cd));
                self.build_entry(tc, cd)?
            }
            Source::Copies(shared) => shared
                .prepare(tc, cd)?
                .map(|e| e.lock().expect("entry poisoned").clone()),
        };
        Ok(slot.insert(entry.map(|e| Arc::new(Mutex::new(e)))).clone())
    }

    /// The entry of one pair, profiled on a pair-local profiler.
    fn build_entry(
        &self,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
    ) -> Result<Option<PairEntry>, TackerError> {
        if tc.def.kind() != KernelKind::Tensor || cd.def.kind() != KernelKind::Cuda {
            return Ok(None);
        }
        // Black-box kernels (cuDNN) cannot be fused — no source (§VIII-H).
        if tc.def.is_opaque() || cd.def.is_opaque() {
            return Ok(None);
        }
        let spec = self.device.spec().clone();
        let configs = enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst);
        if configs.is_empty() {
            return Ok(None);
        }
        // The Tensor member is measured, so its predictions below answer
        // from history; only the CUDA member's LR model is fitted.
        let profiler = KernelProfiler::new(Arc::clone(&self.device));
        let t_tc = profiler.measure(tc)?;
        // Balanced profiling workload: CD sized to match the TC duration.
        let cd_grid = Self::cd_grid_for_ratio(&profiler, tc, cd, 1.0)?;
        let mut cd_balanced = cd.clone();
        cd_balanced.grid = cd_grid;
        let sequential = t_tc + profiler.measure(&cd_balanced)?;

        let candidates: Vec<FusedKernel> = configs
            .into_iter()
            .filter_map(|cfg| self.fused_for(tc, cd, cfg, &spec.sm))
            .collect();
        let decision = select_best(candidates, sequential, |cand| {
            self.measure_fused(cand, tc, cd, cd_grid).ok()
        })?;
        let FusionDecision::Fuse {
            kernel,
            fused_duration,
            sequential_duration,
        } = decision
        else {
            return Ok(None);
        };

        // Fit the two-stage model at the paper's profiling ratios. Grids
        // and CD predictions come first, in ratio order — the profiler
        // sees the calls a ratio-by-ratio loop makes, since fused
        // measurements touch only the device — and then the fused
        // launches, equal but for the CD grid, run as one family.
        let mut x_cds = Vec::with_capacity(PROFILE_RATIOS.len());
        let mut launches = Vec::with_capacity(PROFILE_RATIOS.len());
        for ratio in PROFILE_RATIOS {
            let g = Self::cd_grid_for_ratio(&profiler, tc, cd, ratio)?;
            let mut cd_scaled = cd.clone();
            cd_scaled.grid = g;
            x_cds.push(profiler.predict(&cd_scaled)?);
            launches.push(kernel.launch(tc.grid, g, &tc.bindings, &cd.bindings));
        }
        let samples = x_cds
            .into_iter()
            .zip(self.device.run_family(&launches))
            .map(|(x_cd, run)| Ok((x_cd.ratio(t_tc), run?.duration.ratio(t_tc))))
            .collect::<Result<Vec<(f64, f64)>, TackerError>>()?;
        // A pair whose duration cannot be modelled (e.g. degenerate
        // profiling ratios for very coarse CD kernels) is not fused: no
        // model means no QoS guarantee.
        let Ok(model) = FusedPairModel::fit(
            format!("{}+{}", kernel.tc_name(), kernel.cd_name()),
            &samples,
        ) else {
            return Ok(None);
        };
        Ok(Some(PairEntry {
            fused: kernel,
            model,
            offline_fused: fused_duration,
            offline_sequential: sequential_duration,
            strikes: 0,
        }))
    }

    /// The answers of every prepared key (including declined ones).
    fn prepared(&self) -> Vec<Prepared> {
        let slots: Vec<_> = self
            .entries
            .lock()
            .expect("entries poisoned")
            .values()
            .cloned()
            .collect();
        slots
            .iter()
            .filter_map(|slot| slot.lock().expect("entry slot poisoned").clone())
            .collect()
    }

    /// Number of prepared pairs (including declined ones).
    pub fn prepared_pairs(&self) -> usize {
        self.prepared().len()
    }

    /// Number of memoized fused-kernel constructions (one per distinct
    /// `(tc_id, cd_id, ratio)` the library has built).
    pub fn cached_fused_defs(&self) -> usize {
        self.fused_defs.lock().expect("fused defs poisoned").len()
    }

    /// Number of pairs that fused (entries with a kernel).
    pub fn fused_pairs(&self) -> usize {
        self.prepared().iter().filter(|p| p.is_some()).count()
    }
}

impl std::fmt::Debug for FusionLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionLibrary")
            .field("prepared", &self.prepared_pairs())
            .field("fused", &self.fused_pairs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_sim::{Device, GpuSpec};
    use tacker_workloads::gemm::{gemm_workload, GemmShape};
    use tacker_workloads::parboil::Benchmark;

    fn setup() -> (Arc<KernelProfiler>, FusionLibrary) {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let profiler = Arc::new(KernelProfiler::new(device));
        let lib = FusionLibrary::new(Arc::clone(&profiler));
        (profiler, lib)
    }

    fn tc_kernel() -> WorkloadKernel {
        let def = tacker_workloads::dnn::compile::shared_gemm();
        gemm_workload(&def, GemmShape::new(2048, 2048, 1024))
    }

    #[test]
    fn orientation() {
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        assert!(FusionLibrary::orient(&tc, &cd).is_some());
        assert!(FusionLibrary::orient(&cd, &tc).is_some());
        assert!(FusionLibrary::orient(&cd, &cd).is_none());
    }

    #[test]
    fn prepare_builds_entry_with_two_stage_model() {
        let (_, lib) = setup();
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        let entry = lib.prepare(&tc, &cd).unwrap().expect("pair should fuse");
        let e = entry.lock().unwrap();
        assert!(e.offline_fused < e.offline_sequential);
        let infl = e.model.opportune_load_ratio();
        assert!(infl > 0.0 && infl < 2.5, "inflection {infl}");
        // The model predicts something sane at ratio 1.
        let x_tc = SimTime::from_micros(100);
        let pred = e.model.predict(x_tc, x_tc);
        assert!(pred >= x_tc.mul_f64(0.8));
        assert!(pred <= x_tc.mul_f64(2.2));
    }

    #[test]
    fn prepare_is_cached() {
        let (_, lib) = setup();
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        lib.prepare(&tc, &cd).unwrap();
        lib.prepare(&tc, &cd).unwrap();
        assert_eq!(lib.prepared_pairs(), 1);
        assert_eq!(lib.fused_pairs(), 1);
    }

    /// The fields two entries of one pair must agree on.
    type Fields = (
        FusionConfig,
        KernelId,
        FusedPairModel,
        SimTime,
        SimTime,
        u32,
    );

    fn fields(lib: &FusionLibrary, tc: &WorkloadKernel, cd: &WorkloadKernel) -> Option<Fields> {
        let entry = lib.prepare(tc, cd).unwrap()?;
        let e = entry.lock().unwrap().clone();
        Some((
            e.fused.config(),
            e.fused.def().id(),
            e.model,
            e.offline_fused,
            e.offline_sequential,
            e.strikes,
        ))
    }

    fn library_on(device: &Arc<Device>) -> FusionLibrary {
        FusionLibrary::new(Arc::new(KernelProfiler::new(Arc::clone(device))))
    }

    fn cold_device() -> Arc<Device> {
        Arc::new(Device::new(GpuSpec::rtx2080ti()))
    }

    #[test]
    fn entries_are_pure_functions_of_their_pair() {
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        let alone = fields(&library_on(&cold_device()), &tc, &cd).expect("fuses");

        // After other pairs of the same definitions (other keys), on a
        // library whose profiler already fitted models from other launches.
        let device = cold_device();
        let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
        let other_tc = gemm_workload(&tc.def, GemmShape::new(512, 512, 256));
        let other_cd = Benchmark::Cutcp.task_scaled(16)[0].clone();
        assert_ne!(pair_key(&other_tc, &cd), pair_key(&tc, &cd));
        assert_ne!(pair_key(&tc, &other_cd), pair_key(&tc, &cd));
        profiler.predict(&other_tc).unwrap();
        profiler.predict(&other_cd).unwrap();
        let lib = FusionLibrary::new(profiler);
        lib.prepare(&other_tc, &cd).unwrap();
        lib.prepare(&tc, &other_cd).unwrap();
        assert_eq!(
            fields(&lib, &tc, &cd).as_ref(),
            Some(&alone),
            "after other pairs"
        );

        // On a warm device: every run above is memoized.
        assert_eq!(
            fields(&library_on(&device), &tc, &cd).as_ref(),
            Some(&alone),
            "warm"
        );

        // Two libraries preparing at once on one cold device.
        let device = cold_device();
        let raced: Vec<Option<Fields>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| s.spawn(|| fields(&library_on(&device), &tc, &cd)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for entry in &raced {
            assert_eq!(entry.as_ref(), Some(&alone), "raced");
        }
    }

    #[test]
    fn scoped_libraries_prepare_each_key_from_its_canonical_member() {
        // Two GEMM launches in one work bucket: one key, two members.
        let def = tacker_workloads::dnn::compile::shared_gemm();
        let a = gemm_workload(&def, GemmShape::new(2048, 2048, 1024));
        let b = gemm_workload(&def, GemmShape::new(2048, 2048, 1152));
        let be = BeApp::new(
            "cutcp",
            tacker_workloads::Intensity::Compute,
            Benchmark::Cutcp.task(),
        );
        let cd = &be.task_kernels()[0];
        assert_eq!(pair_key(&a, cd), pair_key(&b, cd));
        let (canonical, other) = if a.fingerprint() < b.fingerprint() {
            (&a, &b)
        } else {
            (&b, &a)
        };
        let device = cold_device();
        let reference = fields(&library_on(&device), canonical, cd);
        assert!(reference.is_some());
        assert_ne!(fields(&library_on(&device), other, cd), reference);

        let svc_a = LcService::new("a", 8, vec![a.clone()]);
        let svc_b = LcService::new("b", 8, vec![b.clone()]);
        for lcs in [[&svc_a, &svc_b], [&svc_b, &svc_a]] {
            for asked in [&a, &b] {
                let lib = FusionLibrary::scoped(&device, lcs, std::slice::from_ref(&be));
                assert_eq!(fields(&lib, asked, cd), reference);
            }
        }
    }

    #[test]
    fn run_views_copy_entries_on_first_use() {
        let (_, shared) = setup();
        let shared = Arc::new(shared);
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        let run = FusionLibrary::for_run(&shared);
        let entry = run.prepare(&tc, &cd).unwrap().expect("fuses");
        entry.lock().unwrap().strikes = PairEntry::MAX_STRIKES;
        // The run's later asks share its copy; nobody else sees it.
        let again = run.prepare(&tc, &cd).unwrap().expect("fuses");
        assert!(Arc::ptr_eq(&entry, &again));
        let eligible = |lib: &FusionLibrary| {
            let e = lib.prepare(&tc, &cd).unwrap().expect("fuses");
            let eligible = e.lock().unwrap().eligible();
            eligible
        };
        assert!(eligible(&shared));
        assert!(eligible(&FusionLibrary::for_run(&shared)));
        assert_eq!(shared.prepared_pairs(), 1);
    }

    #[test]
    fn non_fusable_pairs_yield_none() {
        let (_, lib) = setup();
        let cd1 = Benchmark::Cutcp.task()[0].clone();
        let cd2 = Benchmark::Mriq.task()[0].clone();
        assert!(lib.prepare(&cd1, &cd2).unwrap().is_none());
    }
}
