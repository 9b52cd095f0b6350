//! Per-kernel duration models, trained by profiling (§VI-C).
//!
//! Every kernel gets a linear-regression model mapping a scalar *work
//! feature* to duration. For Parboil-style kernels the feature is the
//! original block count; kernels whose per-block work scales with a launch
//! parameter (GEMM's `k_iters`, the benchmarks' `iters`, pooling's window)
//! fold it in multiplicatively. Profiling runs on the simulated device,
//! standing in for the paper's "historical data".

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tacker_kernel::{FpBuild, KernelId, SimTime, StableHasher};
use tacker_predictor::KernelDurationModel;
use tacker_sim::{Device, KernelRun};
use tacker_trace::{NoopSink, TraceEvent, TraceSink};
use tacker_workloads::{LcService, WorkloadKernel};

use crate::error::TackerError;

/// Launch parameters that multiply a kernel's per-block work.
const WORK_PARAMS: [&str; 3] = ["k_iters", "iters", "win_sq"];

/// The scalar work feature of a launch: `grid × Π work-params`.
pub fn work_feature(wk: &WorkloadKernel) -> f64 {
    let mut f = wk.grid.max(1) as f64;
    for key in WORK_PARAMS {
        if let Some(v) = wk.bindings.get(key) {
            f *= (*v).max(1) as f64;
        }
    }
    f
}

/// The feature row used by the duration models: `[grid × Π work-params,
/// grid]`. The second feature captures per-block costs (launch, prologue,
/// epilogue) that do not scale with the loop knobs.
pub fn feature_row(wk: &WorkloadKernel) -> Vec<f64> {
    vec![work_feature(wk), wk.grid.max(1) as f64]
}

/// Profiles kernels on a device and serves duration predictions.
///
/// Predictions depend on call order: a launch already measured answers
/// from its exact history, an unseen one from its definition's LR model,
/// and the model is fitted from whichever launch of the definition first
/// needed it (its profiling points then join the history). Two call
/// sequences over the same launches can therefore predict differently, so
/// one run's profiler must be driven from one thread, in a fixed order.
/// The type is `Sync` so that runs can share a device, not so that one
/// profiler can be driven concurrently.
pub struct KernelProfiler {
    device: Arc<Device>,
    models: Mutex<HashMap<KernelId, KernelDurationModel>>,
    /// Exact durations of previously seen launches ("historical data",
    /// §VI-C): recurring kernels predict from history; unseen launches fall
    /// back to the LR model. Keyed by launch fingerprint (identity-hashed).
    history: Mutex<HashMap<u64, SimTime, FpBuild>>,
    /// When set, [`KernelProfiler::predict`] skips the exact launch
    /// history and answers from the LR models only — the serving runtime's
    /// predictor-outage fault (history keeps recording underneath, so
    /// recovery is instant).
    history_bypass: AtomicBool,
    sink: Arc<dyn TraceSink>,
    tracing: bool,
}

impl std::fmt::Debug for KernelProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelProfiler")
            .field("models", &self.model_count())
            .field("tracing", &self.tracing)
            .finish()
    }
}

impl KernelProfiler {
    /// Creates a profiler bound to a device, with tracing disabled.
    pub fn new(device: Arc<Device>) -> KernelProfiler {
        KernelProfiler::with_sink(device, Arc::new(NoopSink))
    }

    /// Creates a profiler emitting a [`TraceEvent::PredictionError`] per
    /// accuracy probe to `sink`.
    pub fn with_sink(device: Arc<Device>, sink: Arc<dyn TraceSink>) -> KernelProfiler {
        let tracing = sink.enabled();
        KernelProfiler {
            device,
            models: Mutex::new(HashMap::new()),
            history: Mutex::new(HashMap::default()),
            history_bypass: AtomicBool::new(false),
            sink,
            tracing,
        }
    }

    /// Toggles the predictor-outage mode: while on, [`KernelProfiler::predict`]
    /// ignores exact launch history and falls back to the LR models.
    pub fn set_history_bypass(&self, bypass: bool) {
        self.history_bypass.store(bypass, Ordering::Relaxed);
    }

    /// Whether the predictor-outage mode is on.
    pub(crate) fn history_bypassed(&self) -> bool {
        self.history_bypass.load(Ordering::Relaxed)
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Measures (simulates) a launch; memoized by the device.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn measure(&self, wk: &WorkloadKernel) -> Result<SimTime, TackerError> {
        let fp = wk.fingerprint();
        let duration = self.device.run_keyed(fp, &wk.def, || wk.launch())?.duration;
        self.history
            .lock()
            .expect("history poisoned")
            .insert(fp, duration);
        Ok(duration)
    }

    /// Records launches measured elsewhere on this profiler's device as
    /// `(fingerprint, duration)` history, exactly as measuring each one
    /// would, without probing the device again.
    pub(crate) fn record_history(&self, measured: impl IntoIterator<Item = (u64, SimTime)>) {
        self.history
            .lock()
            .expect("history poisoned")
            .extend(measured);
    }

    /// The duration the launch history holds under `fp`, bypass or not.
    /// A recorded duration is the device's run of that launch, so it never
    /// changes once recorded.
    pub(crate) fn recorded(&self, fp: u64) -> Option<SimTime> {
        self.history
            .lock()
            .expect("history poisoned")
            .get(&fp)
            .copied()
    }

    /// Builds (once) the duration model for this kernel definition by
    /// profiling grid and work-parameter scalings of the representative
    /// launch. The first model stored for a definition stays: a later
    /// builder adopts it instead of replacing a model callers already used.
    ///
    /// # Errors
    ///
    /// Propagates simulation and fitting errors.
    pub fn ensure_model(&self, representative: &WorkloadKernel) -> Result<(), TackerError> {
        let id = representative.def.id();
        if self
            .models
            .lock()
            .expect("models poisoned")
            .contains_key(&id)
        {
            return Ok(());
        }
        let mut points: Vec<(Vec<f64>, SimTime)> = Vec::new();
        for grid_mul in [1u64, 2, 4, 8] {
            for work_mul in [1u64, 2, 4] {
                let mut wk = representative.clone();
                wk.grid = (wk.grid * grid_mul).max(1);
                if work_mul > 1 {
                    let mut scaled = false;
                    for key in WORK_PARAMS {
                        if let Some(v) = wk.bindings.get_mut(key) {
                            *v *= work_mul;
                            scaled = true;
                        }
                    }
                    if !scaled {
                        continue; // no work parameter to scale
                    }
                }
                points.push((feature_row(&wk), self.measure(&wk)?));
            }
        }
        let model = KernelDurationModel::fit_rows(representative.def.name(), &points)?;
        self.models
            .lock()
            .expect("models poisoned")
            .entry(id)
            .or_insert(model);
        Ok(())
    }

    /// Predicts the duration of a launch, profiling its kernel first if
    /// needed.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn predict(&self, wk: &WorkloadKernel) -> Result<SimTime, TackerError> {
        self.predict_keyed(wk, wk.fingerprint())
    }

    /// [`KernelProfiler::predict`] with `wk`'s fingerprint already known:
    /// `fp` must equal `wk.fingerprint()`. A history hit is one mutex and
    /// one identity-hashed probe.
    pub(crate) fn predict_keyed(
        &self,
        wk: &WorkloadKernel,
        fp: u64,
    ) -> Result<SimTime, TackerError> {
        match self.peek_keyed(wk, fp) {
            Some(settled) => Ok(settled),
            None => self.predict_model_only(wk),
        }
    }

    /// What [`KernelProfiler::predict_keyed`] answers for `wk` when the
    /// answer is settled, without a side effect: the launch's history, or
    /// its definition's fitted model. `None` where `predict_keyed` would
    /// first fit that model, which records the fit's profiling runs as
    /// history, so that the next call can answer differently.
    pub(crate) fn peek_keyed(&self, wk: &WorkloadKernel, fp: u64) -> Option<SimTime> {
        debug_assert_eq!(fp, wk.fingerprint(), "peek_keyed: key/kernel mismatch");
        if !self.history_bypassed() {
            if let Some(seen) = self.recorded(fp) {
                return Some(seen);
            }
        }
        let models = self.models.lock().expect("models poisoned");
        let model = models.get(&wk.def.id())?;
        Some(model.predict_row(&feature_row(wk)))
    }

    /// Predicts strictly from the LR model, ignoring launch history (used
    /// by the prediction-accuracy experiments, Fig. 17).
    pub fn predict_model_only(&self, wk: &WorkloadKernel) -> Result<SimTime, TackerError> {
        self.ensure_model(wk)?;
        let models = self.models.lock().expect("models poisoned");
        let model = models
            .get(&wk.def.id())
            .expect("model inserted by ensure_model");
        Ok(model.predict_row(&feature_row(wk)))
    }

    /// Prediction error of the model against the simulated ground truth
    /// for one launch, as a relative value.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn prediction_error(&self, wk: &WorkloadKernel) -> Result<f64, TackerError> {
        let predicted = self.predict_model_only(wk)?;
        let actual = self.measure(wk)?;
        let rel_error = if actual == SimTime::ZERO {
            0.0
        } else {
            (predicted.as_nanos() as f64 - actual.as_nanos() as f64).abs()
                / actual.as_nanos() as f64
        };
        if self.tracing {
            self.sink.record(TraceEvent::PredictionError {
                kernel: wk.def.name_shared(),
                predicted,
                actual,
                rel_error,
            });
        }
        Ok(rel_error)
    }

    /// Number of fitted models.
    pub fn model_count(&self) -> usize {
        self.models.lock().expect("models poisoned").len()
    }
}

/// The plan-sequence fingerprint of `lc`'s query: a hash of its kernels'
/// launch fingerprints in order, the same on every GPU profile.
pub(crate) fn query_fingerprint(lc: &LcService) -> u64 {
    let mut hasher = StableHasher::new();
    for &fp in lc.query_fingerprints() {
        hasher.write_u64(fp);
    }
    hasher.finish()
}

/// One service's query measured on a GPU profile: every kernel's memoized
/// zero-fault run, in sequence. The runs are the ones the decision loop's
/// device probes return, so the busy-period replay reads them instead of
/// probing, and their durations are the exact predictions of a profiler
/// whose history holds them. A fleet measures each service once per GPU
/// profile and hands the profiles to every node of that profile.
pub(crate) struct QueryProfile {
    /// Memoized zero-fault runs, shared with the device cache.
    pub(crate) runs: Vec<Arc<KernelRun>>,
    /// The runs' durations, contiguous: the kernels' predictions, recorded
    /// as profiler history and read by every decided LC kernel.
    pub(crate) durations: Vec<SimTime>,
    /// Prefix sums of `durations`: `prefix[i]` is the time kernels `..i`
    /// take, so a replayed segment's time is one subtraction.
    prefix: Vec<SimTime>,
}

impl QueryProfile {
    /// Measures `lc`'s query on `device`.
    pub(crate) fn measure(device: &Device, lc: &LcService) -> Result<QueryProfile, TackerError> {
        let runs: Vec<Arc<KernelRun>> = lc
            .query_kernels()
            .iter()
            .zip(lc.query_fingerprints())
            .map(|(k, &fp)| device.run_keyed(fp, &k.def, || k.launch()))
            .collect::<Result<_, _>>()?;
        let durations: Vec<SimTime> = runs.iter().map(|r| r.duration).collect();
        let prefix = std::iter::once(SimTime::ZERO)
            .chain(durations.iter().scan(SimTime::ZERO, |sum, &d| {
                *sum += d;
                Some(*sum)
            }))
            .collect();
        Ok(QueryProfile {
            runs,
            durations,
            prefix,
        })
    }

    /// The solo query time: the summed durations.
    pub(crate) fn solo(&self) -> SimTime {
        self.prefix[self.durations.len()]
    }

    /// The time kernels `from..to` take back to back.
    pub(crate) fn elapsed(&self, from: usize, to: usize) -> SimTime {
        self.prefix[to] - self.prefix[from]
    }

    /// Where a replay of the query's kernels from `from` (a kernel still
    /// to run) stops: after the first kernel by whose end `due` has
    /// elapsed (the next arrival is due then), or after the last kernel if
    /// the query retires first or `due` is `None`. The replay runs at
    /// least one kernel, even when `due` is zero.
    pub(crate) fn replay_end(&self, from: usize, due: Option<SimTime>) -> usize {
        let kernels = self.durations.len();
        let Some(due) = due else {
            return kernels;
        };
        let start = self.prefix[from];
        let before_due = self.prefix[from + 1..].partition_point(|&end| end - start < due);
        (from + 1 + before_due).min(kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_sim::GpuSpec;
    use tacker_workloads::parboil::Benchmark;

    fn profiler() -> KernelProfiler {
        KernelProfiler::new(Arc::new(Device::new(GpuSpec::rtx2080ti())))
    }

    #[test]
    fn feature_folds_work_params() {
        let wk = &Benchmark::Sgemm.task()[0];
        // sgemm task: grid 1024, iters 8.
        assert_eq!(work_feature(wk), 1024.0 * 8.0);
    }

    #[test]
    fn predictions_track_simulation_within_a_few_percent() {
        let p = profiler();
        for b in [Benchmark::Mriq, Benchmark::Sgemm, Benchmark::Lbm] {
            // Train on the default task, validate on a 3× scaled one.
            p.ensure_model(&b.task()[0]).unwrap();
            let held = &b.task_scaled(3)[0];
            let err = p.prediction_error(held).unwrap();
            assert!(err < 0.08, "{}: error {err}", b.name());
        }
    }

    #[test]
    fn history_bypass_falls_back_to_models() {
        let p = profiler();
        let wk = &Benchmark::Sgemm.task()[0];
        let measured = p.measure(wk).unwrap();
        assert_eq!(p.predict(wk).unwrap(), measured);
        p.set_history_bypass(true);
        let model_only = p.predict_model_only(wk).unwrap();
        assert_eq!(p.predict(wk).unwrap(), model_only);
        p.set_history_bypass(false);
        assert_eq!(p.predict(wk).unwrap(), measured);
    }

    #[test]
    fn peek_answers_only_what_is_settled() {
        let p = profiler();
        let task = Benchmark::Sgemm.task();
        let (wk, other) = (&task[0], Benchmark::Sgemm.task_scaled(3));
        let other = &other[0];
        // Unseen: the first prediction fits the model and records the
        // fit's runs, so the next answer is the launch's history.
        assert_eq!(p.peek_keyed(wk, wk.fingerprint()), None);
        let first = p.predict(wk).unwrap();
        let settled = p.peek_keyed(wk, wk.fingerprint()).expect("history");
        assert_eq!(settled, p.measure(wk).unwrap());
        assert_eq!(p.predict(wk).unwrap(), settled);
        assert_ne!(first, settled, "the fit's answer is the model's");
        // Another launch of the definition answers from the fitted model.
        let model = p.peek_keyed(other, other.fingerprint()).expect("model");
        assert_eq!(model, p.predict_model_only(other).unwrap());
        assert_eq!(p.predict(other).unwrap(), model);
        assert_eq!(p.model_count(), 1);
    }

    #[test]
    fn model_built_once_per_definition() {
        let p = profiler();
        let wk = &Benchmark::Fft.task()[0];
        p.predict(wk).unwrap();
        p.predict(wk).unwrap();
        assert_eq!(p.model_count(), 1);
    }
}
