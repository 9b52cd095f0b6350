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
//! Pairs are prepared lazily and cached; a pair whose Tensor kernel is a
//! black-box cuDNN implementation never enters the library (its source is
//! unavailable for fusion).
//!
//! Preparation runs on the calling thread, in a fixed order: candidates
//! in enumeration order, then the load ratios in [`PROFILE_RATIOS`] order.
//! The only parallel layer is the sweep above it, one cell per worker; a
//! nested fan-out here would drive one run's [`KernelProfiler`] from
//! several threads, and its predictions depend on call order.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tacker_fuser::{
    enumerate_configs, fuse_flexible, select_best, FusedKernel, FusionConfig, FusionDecision,
    PackPriority,
};
use tacker_kernel::{KernelId, KernelKind, SimTime, SmCapacity};
use tacker_predictor::FusedPairModel;
use tacker_workloads::WorkloadKernel;

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

/// The fusion library.
pub struct FusionLibrary {
    profiler: Arc<KernelProfiler>,
    pack: PackPriority,
    entries: Mutex<HashMap<PairKey, Option<Arc<Mutex<PairEntry>>>>>,
    /// Memoized fused-kernel construction, keyed by the component kernels'
    /// content-derived ids and the fusion ratio. `fuse_flexible` is
    /// deterministic and content ids are stable across runs, so a ratio
    /// already built for this (TC, CD) pair — by any caller, at any work
    /// bucket — is reused instead of re-running the AST transform.
    fused_defs: Mutex<HashMap<(KernelId, KernelId, FusionConfig), FusedKernel>>,
}

impl FusionLibrary {
    /// Creates a library over a profiler (and its device).
    pub fn new(profiler: Arc<KernelProfiler>) -> FusionLibrary {
        FusionLibrary {
            profiler,
            pack: PackPriority::TensorFirst,
            entries: Mutex::new(HashMap::new()),
            fused_defs: Mutex::new(HashMap::new()),
        }
    }

    /// Creates a library with an explicit packing priority (ablation).
    pub fn with_priority(profiler: Arc<KernelProfiler>, pack: PackPriority) -> FusionLibrary {
        FusionLibrary {
            profiler,
            pack,
            entries: Mutex::new(HashMap::new()),
            fused_defs: Mutex::new(HashMap::new()),
        }
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
        &self,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
        ratio: f64,
    ) -> Result<u64, TackerError> {
        let t_tc = self.profiler.predict(tc)?;
        let t_cd_unit = self.profiler.predict(cd)?;
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
        Ok(self.profiler.device().run_launch(&launch)?.duration)
    }

    /// Prepares (or retrieves) the entry for an oriented pair, using the
    /// given launches as the profiling workload.
    ///
    /// Returns `None` when the pair is not fusable or the offline
    /// measurement decided sequential execution is faster. Once prepared,
    /// a pair's result never changes: later calls return the same entry.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors; fusion infeasibility is *not* an error
    /// (it yields `None`).
    pub fn prepare(
        &self,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
    ) -> Result<Option<Arc<Mutex<PairEntry>>>, TackerError> {
        let key = (tc.def.id(), cd.def.id(), work_bucket(tc), work_bucket(cd));
        if let Some(cached) = self.entries.lock().expect("entries poisoned").get(&key) {
            return Ok(cached.clone());
        }
        let entry = self.build_entry(tc, cd)?;
        let entry = entry.map(|e| Arc::new(Mutex::new(e)));
        // First insert wins: a racing preparer of the same pair adopts the
        // resident entry, so every caller holds the one entry of a pair
        // (the manager memoizes it per pair for the rest of a run).
        Ok(self
            .entries
            .lock()
            .expect("entries poisoned")
            .entry(key)
            .or_insert(entry)
            .clone())
    }

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
        let spec = self.profiler.device().spec().clone();
        let configs = enumerate_configs(&tc.def, &cd.def, &spec.sm, self.pack);
        if configs.is_empty() {
            return Ok(None);
        }
        // Balanced profiling workload: CD sized to match the TC duration.
        let cd_grid = self.cd_grid_for_ratio(tc, cd, 1.0)?;
        let mut cd_balanced = cd.clone();
        cd_balanced.grid = cd_grid;
        let sequential = self.profiler.measure(tc)? + self.profiler.measure(&cd_balanced)?;

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
        let x_tc = self.profiler.predict(tc)?;
        let mut x_cds = Vec::with_capacity(PROFILE_RATIOS.len());
        let mut launches = Vec::with_capacity(PROFILE_RATIOS.len());
        for ratio in PROFILE_RATIOS {
            let g = self.cd_grid_for_ratio(tc, cd, ratio)?;
            let mut cd_scaled = cd.clone();
            cd_scaled.grid = g;
            x_cds.push(self.profiler.predict(&cd_scaled)?);
            launches.push(kernel.launch(tc.grid, g, &tc.bindings, &cd.bindings));
        }
        let samples = x_cds
            .into_iter()
            .zip(self.profiler.device().run_family(&launches))
            .map(|(x_cd, run)| Ok((x_cd.ratio(x_tc), run?.duration.ratio(x_tc))))
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

    /// Number of prepared pairs (including declined ones).
    pub fn prepared_pairs(&self) -> usize {
        self.entries.lock().expect("entries poisoned").len()
    }

    /// Number of memoized fused-kernel constructions (one per distinct
    /// `(tc_id, cd_id, ratio)` the library has built).
    pub fn cached_fused_defs(&self) -> usize {
        self.fused_defs.lock().expect("fused defs poisoned").len()
    }

    /// Number of pairs that fused (entries with a kernel).
    pub fn fused_pairs(&self) -> usize {
        self.entries
            .lock()
            .expect("entries poisoned")
            .values()
            .filter(|v| v.is_some())
            .count()
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

    #[test]
    fn preparation_is_reproducible_on_a_shared_device() {
        // The second library finds every fused run memoized by the first;
        // a fresh profiler drives the same calls in the same order, so the
        // entries agree field for field.
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        let prepare = || {
            let lib = FusionLibrary::new(Arc::new(KernelProfiler::new(Arc::clone(&device))));
            let entry = lib.prepare(&tc, &cd).unwrap().expect("fuses");
            let e = entry.lock().unwrap().clone();
            e
        };
        let cold = prepare();
        let warm = prepare();
        assert_eq!(cold.fused.config(), warm.fused.config());
        assert_eq!(cold.offline_fused, warm.offline_fused);
        assert_eq!(cold.offline_sequential, warm.offline_sequential);
        assert_eq!(
            cold.model.opportune_load_ratio(),
            warm.model.opportune_load_ratio()
        );
    }

    #[test]
    fn non_fusable_pairs_yield_none() {
        let (_, lib) = setup();
        let cd1 = Benchmark::Cutcp.task()[0].clone();
        let cd2 = Benchmark::Mriq.task()[0].clone();
        assert!(lib.prepare(&cd1, &cd2).unwrap().is_none());
    }
}
