//! The runtime QoS-aware kernel manager (§VII).
//!
//! At every scheduling point the manager sees the head kernel of the
//! latency-critical query, the QoS headroom, and the head kernels of the
//! best-effort applications, and decides what to launch:
//!
//! * **fusion** — if some (LC, BE) pair has a prepared fused kernel whose
//!   predicted duration satisfies Equation 8
//!   (`T_tc + T_cd > T_fuse` and `T_fuse − T_lc < T_hr`), launch the fused
//!   kernel of the pair with the largest throughput gain
//!   `T_gain = T_be − (T_fuse − T_lc)`;
//! * **reorder** — otherwise, launch a BE kernel that fits the headroom
//!   outright (Baymax's behaviour);
//! * **LC kernel** — otherwise run the LC kernel directly.
//!
//! When multiple LC queries are active, the oldest runs first, and the
//! Equation 9 headroom the server passes already reserves the remaining
//! time of every active query (§VII-B-2's accounting), so fusion stays on.
//!
//! One call may decide a stretch of the front query's kernels; see
//! [`KernelManager::decide`] for where its walk stops.
//!
//! Heads arrive resolved ([`Head`]: a kernel plus its launch fingerprint,
//! hashed once per run), and the manager memoizes what never changes for
//! an (LC, BE) head pair within a run in a [`PairSlot`]: the orientation,
//! the library entry and the fused launch. Everything that does change —
//! strikes, predictions, the fused model, headroom, the guard — is read
//! fresh at every decision. A serve run hands the manager its own view of
//! the library (`FusionLibrary::for_run`), so the entries it strikes and
//! refits are the run's copies.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tacker_kernel::{FpBuild, KernelLaunch, SimTime};
use tacker_sim::{Device, KernelRun, SimError};
use tacker_trace::{DecisionKind, FusionRejectReason, NoopSink, TraceEvent, TraceSink};
use tacker_workloads::WorkloadKernel;

use crate::error::TackerError;
use crate::guard::{GuardLevel, QosGuard};
use crate::library::{FusionLibrary, PairEntry};
use crate::profile::KernelProfiler;

/// Scheduling policies under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Kernel fusion + reorder (the paper's system).
    Tacker,
    /// Reorder only (the Baymax baseline).
    Baymax,
    /// Fusion only, no reorder (ablation).
    FusionOnly,
    /// No best-effort work at all (for measuring solo latency / peak load).
    LcOnly,
}

impl Policy {
    /// Whether this policy may launch fused kernels.
    pub fn fusion_enabled(self) -> bool {
        matches!(self, Policy::Tacker | Policy::FusionOnly)
    }

    /// Whether this policy may reorder BE kernels into headroom.
    pub fn reorder_enabled(self) -> bool {
        matches!(self, Policy::Tacker | Policy::Baymax)
    }

    /// Whether BE kernels run at all.
    pub fn best_effort_enabled(self) -> bool {
        !matches!(self, Policy::LcOnly)
    }
}

/// A scheduling head: a workload kernel with its launch fingerprint.
///
/// [`Head::new`] is the only public constructor, so `fp() ==
/// kernel().fingerprint()` holds by construction. A run resolves every
/// LC query kernel and BE task kernel into a head once, then decides,
/// predicts and launches by the stored fingerprint without re-hashing.
/// A head also carries its profiled duration once the run's profiler
/// history holds its fingerprint: an LC query head from the start, a BE
/// task head from the first time the history records its task position.
/// That duration is the exact prediction whenever the history is not
/// bypassed, so the manager predicts such a head without a history probe.
#[derive(Debug, Clone, Copy)]
pub struct Head<'a> {
    wk: &'a WorkloadKernel,
    fp: u64,
    /// The duration the run's profiler history holds under `fp`: the
    /// prediction whenever that history is not bypassed.
    profiled: Option<SimTime>,
}

impl<'a> Head<'a> {
    /// Resolves `wk`: hashes its launch fingerprint once.
    pub fn new(wk: &'a WorkloadKernel) -> Head<'a> {
        Head {
            wk,
            fp: wk.fingerprint(),
            profiled: None,
        }
    }

    /// Pairs `wk` with its already-hashed launch fingerprint and its
    /// profiled duration: `fp` must equal `wk.fingerprint()`, and
    /// `duration` must be what the deciding manager's profiler history
    /// holds under `fp`.
    pub(crate) fn profiled(wk: &'a WorkloadKernel, fp: u64, duration: SimTime) -> Head<'a> {
        debug_assert_eq!(fp, wk.fingerprint(), "Head::profiled: key/kernel mismatch");
        Head {
            wk,
            fp,
            profiled: Some(duration),
        }
    }

    /// The workload kernel.
    pub fn kernel(self) -> &'a WorkloadKernel {
        self.wk
    }

    /// The kernel's launch fingerprint (its device-cache key).
    pub fn fp(self) -> u64 {
        self.fp
    }

    /// The profiled duration the head carries, if any.
    #[cfg(test)]
    pub(crate) fn carried(self) -> Option<SimTime> {
        self.profiled
    }

    /// Runs the kernel on `device` keyed by the stored fingerprint: a warm
    /// launch is one cache probe, and the launch is built on a miss only.
    pub(crate) fn run(self, device: &Device) -> Result<Arc<KernelRun>, SimError> {
        device.run_keyed(self.fp, &self.wk.def, || self.wk.launch())
    }
}

/// What the manager decided to launch.
#[derive(Debug)]
pub enum Decision {
    /// Run the LC head kernel directly.
    RunLc {
        /// Predicted duration of the LC kernel.
        predicted: SimTime,
    },
    /// Run a fused (LC, BE) kernel.
    RunFused {
        /// Index of the chosen BE application.
        be_index: usize,
        /// The fused kernel launch, shared with the manager's pair memo.
        launch: Arc<KernelLaunch>,
        /// `launch.fingerprint()`, computed once per pair.
        fp: u64,
        /// The library entry (for online model refresh).
        entry: Arc<Mutex<PairEntry>>,
        /// Predicted fused duration.
        predicted: SimTime,
        /// Predicted solo duration of the Tensor component.
        x_tc: SimTime,
        /// Predicted solo duration of the CUDA component.
        x_cd: SimTime,
        /// Predicted solo duration of the LC kernel (either component).
        lc_predicted: SimTime,
    },
    /// Run a BE head kernel in the headroom (reorder).
    RunBe {
        /// Index of the chosen BE application.
        be_index: usize,
        /// Predicted duration of the BE kernel.
        predicted: SimTime,
    },
    /// Nothing runnable.
    Idle,
}

/// What a run resolved for one (LC head, BE head) pair, keyed by the two
/// fingerprints. Orientation, the library's answer and the fused launch
/// are functions of the pair's content, so they are fixed for a run; a
/// slot is built by [`PairSlot::resolve`] at the pair's first evaluation
/// and its fused launch at the pair's first Equation 8 accept.
enum PairSlot {
    /// Both kernels run on the same core type.
    NoOrientation,
    /// The library declined the pair (not fusable, or sequential wins).
    NotPrepared,
    /// A prepared pair.
    Prepared {
        /// Whether the LC head is the Tensor component.
        lc_is_tc: bool,
        /// The library's entry for the pair's key (in a serve run, the
        /// run's copy); its strikes and model change online and are read
        /// under its lock at every decision.
        entry: Arc<Mutex<PairEntry>>,
        /// The fused launch and its fingerprint, built on first accept.
        launch: Option<(Arc<KernelLaunch>, u64)>,
    },
}

impl PairSlot {
    /// Orients the pair and asks the library for its entry (preparing it
    /// on first sight).
    fn resolve(
        library: &FusionLibrary,
        lc: Head<'_>,
        be: Head<'_>,
    ) -> Result<PairSlot, TackerError> {
        let Some((tc, cd)) = FusionLibrary::orient(lc.wk, be.wk) else {
            return Ok(PairSlot::NoOrientation);
        };
        let lc_is_tc = std::ptr::eq(tc, lc.wk);
        Ok(match library.prepare(tc, cd)? {
            None => PairSlot::NotPrepared,
            Some(entry) => PairSlot::Prepared {
                lc_is_tc,
                entry,
                launch: None,
            },
        })
    }

    /// The prepared pair's fused launch for the oriented heads `(tc, cd)`,
    /// built (and fingerprinted) on the first call only.
    fn fused_launch(
        slot: &mut Option<(Arc<KernelLaunch>, u64)>,
        entry: &Mutex<PairEntry>,
        tc: &WorkloadKernel,
        cd: &WorkloadKernel,
    ) -> (Arc<KernelLaunch>, u64) {
        let (launch, fp) = slot.get_or_insert_with(|| {
            let e = entry.lock().expect("entry poisoned");
            let launch = e.fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings);
            let fp = launch.fingerprint();
            (Arc::new(launch), fp)
        });
        (Arc::clone(launch), *fp)
    }
}

/// The per-run pair memo (see [`PairSlot`]).
type PairSlots = HashMap<(u64, u64), PairSlot, FpBuild>;

/// The online kernel manager.
pub struct KernelManager {
    profiler: Arc<KernelProfiler>,
    library: Arc<FusionLibrary>,
    policy: Policy,
    sink: Arc<dyn TraceSink>,
    /// `sink.enabled()` hoisted once at construction: the NoopSink path
    /// never builds an event.
    tracing: bool,
    /// Device wall-clock nanos of the current scheduling point, set by the
    /// server via [`KernelManager::set_now`] so decision events carry a
    /// timestamp without changing `decide`'s signature.
    now_nanos: AtomicU64,
    /// Adaptive QoS guard; when set, its degradation ladder caps what the
    /// policy may do and its margin shrinks the headroom seen by
    /// [`KernelManager::decide`].
    guard: Option<Arc<QosGuard>>,
    /// Memoized pair resolutions, keyed by `(lc.fp, be.fp)`.
    pairs: Mutex<PairSlots>,
}

impl KernelManager {
    /// Creates a manager with tracing disabled.
    pub fn new(
        profiler: Arc<KernelProfiler>,
        library: Arc<FusionLibrary>,
        policy: Policy,
    ) -> KernelManager {
        KernelManager::with_sink(profiler, library, policy, Arc::new(NoopSink))
    }

    /// Creates a manager emitting one [`TraceEvent::Decision`] per
    /// scheduling point (plus [`TraceEvent::FusionRejected`] per evaluated
    /// but rejected fusion candidate) to `sink`.
    pub fn with_sink(
        profiler: Arc<KernelProfiler>,
        library: Arc<FusionLibrary>,
        policy: Policy,
        sink: Arc<dyn TraceSink>,
    ) -> KernelManager {
        let tracing = sink.enabled();
        KernelManager {
            profiler,
            library,
            policy,
            sink,
            tracing,
            now_nanos: AtomicU64::new(0),
            guard: None,
            pairs: Mutex::new(PairSlots::default()),
        }
    }

    /// Attaches an adaptive QoS guard: the guard's ladder level caps what
    /// the policy may launch and its margin is subtracted from both
    /// headrooms at every decision.
    #[must_use]
    pub fn with_guard(mut self, guard: Arc<QosGuard>) -> KernelManager {
        self.guard = Some(guard);
        self
    }

    /// The guard's current ladder level ([`GuardLevel::Fuse`] when no
    /// guard is attached).
    pub fn guard_level(&self) -> GuardLevel {
        self.guard.as_ref().map_or(GuardLevel::Fuse, |g| g.level())
    }

    fn fusion_allowed(&self) -> bool {
        self.policy.fusion_enabled() && self.guard_level().fusion_allowed()
    }

    fn reorder_allowed(&self) -> bool {
        self.policy.reorder_enabled() && self.guard_level().reorder_allowed()
    }

    /// Whether BE kernels may run now: the policy runs them and the
    /// guard's ladder level allows them.
    pub(crate) fn best_effort_allowed(&self) -> bool {
        self.policy.best_effort_enabled() && self.guard_level().best_effort_allowed()
    }

    /// A head's predicted duration: its profiled duration while the
    /// profiler answers from history (the two are the same number),
    /// otherwise the profiler's prediction.
    fn predict(&self, head: Head<'_>) -> Result<SimTime, TackerError> {
        match head.profiled {
            Some(duration) if !self.profiler.history_bypassed() => {
                debug_assert_eq!(
                    Some(duration),
                    self.profiler.peek_keyed(head.wk, head.fp),
                    "a carried duration is the history's"
                );
                Ok(duration)
            }
            _ => self.profiler.predict_keyed(head.wk, head.fp),
        }
    }

    /// Sets the device wall-clock instant stamped onto subsequent decision
    /// events.
    pub fn set_now(&self, now: SimTime) {
        self.now_nanos.store(now.as_nanos(), Ordering::Relaxed);
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_nanos.load(Ordering::Relaxed))
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The fusion library.
    pub fn library(&self) -> &Arc<FusionLibrary> {
        &self.library
    }

    /// Records a [`TraceEvent::FusionRejected`] for an evaluated but
    /// rejected (LC, BE) candidate pair.
    fn reject_fusion(
        &self,
        lc: Head<'_>,
        be: Head<'_>,
        reason: FusionRejectReason,
        x_tc: Option<SimTime>,
        x_cd: Option<SimTime>,
        t_fuse: Option<SimTime>,
    ) {
        self.sink.record(TraceEvent::FusionRejected {
            lc: lc.wk.def.name_shared(),
            be: be.wk.def.name_shared(),
            reason,
            x_tc,
            x_cd,
            t_fuse,
        });
    }

    /// Evaluates the fusion opportunity of one (LC, BE) head pair.
    ///
    /// Returns `(decision, gain)` when Equation 8 is satisfied.
    fn try_fuse(
        &self,
        slots: &mut PairSlots,
        lc: Head<'_>,
        be_index: usize,
        be: Head<'_>,
        headroom: SimTime,
    ) -> Result<Option<(Decision, SimTime)>, TackerError> {
        let slot = match slots.entry((lc.fp, be.fp)) {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => v.insert(PairSlot::resolve(&self.library, lc, be)?),
        };
        let (lc_is_tc, entry, launch) = match slot {
            PairSlot::NoOrientation => {
                if self.tracing {
                    self.reject_fusion(lc, be, FusionRejectReason::NoOrientation, None, None, None);
                }
                return Ok(None);
            }
            PairSlot::NotPrepared => {
                if self.tracing {
                    self.reject_fusion(lc, be, FusionRejectReason::NotPrepared, None, None, None);
                }
                return Ok(None);
            }
            PairSlot::Prepared {
                lc_is_tc,
                entry,
                launch,
            } => (*lc_is_tc, &*entry, launch),
        };
        let (tc, cd) = if lc_is_tc { (lc, be) } else { (be, lc) };
        let (x_tc, x_cd, t_fuse) = {
            let e = entry.lock().expect("entry poisoned");
            if !e.eligible() {
                if self.tracing {
                    self.reject_fusion(lc, be, FusionRejectReason::Blacklisted, None, None, None);
                }
                return Ok(None);
            }
            let x_tc = self.predict(tc)?;
            let x_cd = self.predict(cd)?;
            (x_tc, x_cd, e.model.predict(x_tc, x_cd))
        };
        let (t_lc, t_be) = if lc_is_tc { (x_tc, x_cd) } else { (x_cd, x_tc) };
        // Equation 8 (with a small benefit margin absorbing model noise).
        let parallel_wins = (x_tc + x_cd).mul_f64(0.95) > t_fuse;
        let extra = t_fuse.saturating_sub(t_lc);
        if !parallel_wins || extra >= headroom {
            if self.tracing {
                let reason = if parallel_wins {
                    FusionRejectReason::ExceedsHeadroom
                } else {
                    FusionRejectReason::ParallelLoses
                };
                self.reject_fusion(lc, be, reason, Some(x_tc), Some(x_cd), Some(t_fuse));
            }
            return Ok(None);
        }
        let gain = t_be.saturating_sub(extra);
        if gain == SimTime::ZERO {
            if self.tracing {
                self.reject_fusion(
                    lc,
                    be,
                    FusionRejectReason::NoGain,
                    Some(x_tc),
                    Some(x_cd),
                    Some(t_fuse),
                );
            }
            return Ok(None);
        }
        let (launch, fp) = PairSlot::fused_launch(launch, entry, tc.wk, cd.wk);
        Ok(Some((
            Decision::RunFused {
                be_index,
                launch,
                fp,
                entry: Arc::clone(entry),
                predicted: t_fuse,
                x_tc,
                x_cd,
                lc_predicted: t_lc,
            },
            gain,
        )))
    }

    /// Makes scheduling decisions for a stretch of LC heads.
    ///
    /// `lc_heads` are the pending kernels of the query being served, in
    /// order (empty when no query is active), `headroom` the current QoS
    /// headroom available to fusion, `reorder_headroom` the
    /// (budget-capped) headroom available to whole reordered BE kernels,
    /// and `be_heads` the ready head kernel of each BE application.
    ///
    /// Decides the heads one after another, each exactly as a call with
    /// that head alone would, and returns `(n, decision)`: heads `..n`
    /// were decided [`Decision::RunLc`] and `decision` is head `n`'s. The
    /// walk stops at the first decision that is not `RunLc`, at the last
    /// head, or right after a decision that resolved a new pair in the
    /// memo. Deciding more than one head is exact only when the headrooms,
    /// the BE heads and the guard do not move across `RunLc` launches,
    /// which the caller guarantees.
    ///
    /// # Errors
    ///
    /// Propagates profiling/fusion errors.
    pub fn decide(
        &self,
        lc_heads: &[Head<'_>],
        headroom: SimTime,
        reorder_headroom: SimTime,
        be_heads: &[Option<Head<'_>>],
    ) -> Result<(usize, Decision), TackerError> {
        // The guard's inflated margin shrinks the headroom the decision
        // sees, absorbing systematic under-prediction.
        let margin = self.guard.as_ref().map_or(SimTime::ZERO, |g| g.margin());
        let headroom = headroom.saturating_sub(margin);
        let reorder_headroom = reorder_headroom.saturating_sub(margin);
        let mut slots = (!lc_heads.is_empty() && self.fusion_allowed())
            .then(|| self.pairs.lock().expect("pair memo poisoned"));
        let mut n = 0;
        loop {
            let lc_head = lc_heads.get(n).copied();
            let memo = slots.as_ref().map_or(0, |s| s.len());
            let (decision, gain) = self.decide_inner(
                lc_head,
                headroom,
                reorder_headroom,
                be_heads,
                slots.as_deref_mut(),
            )?;
            if self.tracing {
                self.emit_decision(
                    &decision,
                    gain,
                    lc_head,
                    headroom,
                    reorder_headroom,
                    be_heads,
                );
            }
            let resolved = slots.as_ref().is_some_and(|s| s.len() > memo);
            if !matches!(decision, Decision::RunLc { .. }) || n + 1 >= lc_heads.len() || resolved {
                return Ok((n, decision));
            }
            n += 1;
        }
    }

    /// One head's decision; `slots` is the locked pair memo when fusion
    /// is allowed.
    fn decide_inner(
        &self,
        lc_head: Option<Head<'_>>,
        headroom: SimTime,
        reorder_headroom: SimTime,
        be_heads: &[Option<Head<'_>>],
        slots: Option<&mut PairSlots>,
    ) -> Result<(Decision, Option<SimTime>), TackerError> {
        match lc_head {
            Some(lc) => {
                let lc_predicted = self.predict(lc)?;
                // 1. Fusion with the highest-gain BE partner.
                if let Some(slots) = slots {
                    let mut best: Option<(Decision, SimTime)> = None;
                    for (i, be) in be_heads.iter().enumerate() {
                        let Some(be) = *be else { continue };
                        if let Some((d, gain)) = self.try_fuse(slots, lc, i, be, headroom)? {
                            if best.as_ref().is_none_or(|(_, g)| gain > *g) {
                                best = Some((d, gain));
                            }
                        }
                    }
                    if let Some((decision, gain)) = best {
                        return Ok((decision, Some(gain)));
                    }
                }
                // 2. Reorder a BE kernel into the headroom.
                if self.reorder_allowed() {
                    for (i, be) in be_heads.iter().enumerate() {
                        let Some(be) = be else { continue };
                        let predicted = self.predict(*be)?;
                        if predicted < reorder_headroom {
                            return Ok((
                                Decision::RunBe {
                                    be_index: i,
                                    predicted,
                                },
                                None,
                            ));
                        }
                    }
                }
                // 3. The LC kernel itself.
                Ok((
                    Decision::RunLc {
                        predicted: lc_predicted,
                    },
                    None,
                ))
            }
            None => {
                // No LC query active: BE runs freely.
                if self.best_effort_allowed() {
                    for (i, be) in be_heads.iter().enumerate() {
                        if let Some(be) = be {
                            let predicted = self.predict(*be)?;
                            return Ok((
                                Decision::RunBe {
                                    be_index: i,
                                    predicted,
                                },
                                None,
                            ));
                        }
                    }
                }
                Ok((Decision::Idle, None))
            }
        }
    }

    /// Emits the [`TraceEvent::Decision`] describing one scheduling point.
    fn emit_decision(
        &self,
        decision: &Decision,
        gain: Option<SimTime>,
        lc_head: Option<Head<'_>>,
        headroom: SimTime,
        reorder_headroom: SimTime,
        be_heads: &[Option<Head<'_>>],
    ) {
        let be_name = |i: usize| {
            be_heads
                .get(i)
                .and_then(|b| b.as_ref())
                .map(|b| b.wk.def.name_shared())
                .unwrap_or_else(|| "".into())
        };
        let (kind, kernel, predicted, x_tc, x_cd, t_lc) = match decision {
            Decision::RunFused {
                launch,
                predicted,
                x_tc,
                x_cd,
                lc_predicted,
                ..
            } => (
                DecisionKind::Fuse,
                launch.def.name_shared(),
                *predicted,
                Some(*x_tc),
                Some(*x_cd),
                Some(*lc_predicted),
            ),
            Decision::RunBe {
                be_index,
                predicted,
            } => {
                let kind = if lc_head.is_some() {
                    DecisionKind::Reorder
                } else {
                    DecisionKind::FreeBe
                };
                (kind, be_name(*be_index), *predicted, None, None, None)
            }
            Decision::RunLc { predicted } => (
                DecisionKind::RunLc,
                lc_head
                    .map(|k| k.wk.def.name_shared())
                    .unwrap_or_else(|| "".into()),
                *predicted,
                None,
                None,
                None,
            ),
            Decision::Idle => (
                DecisionKind::Idle,
                "".into(),
                SimTime::ZERO,
                None,
                None,
                None,
            ),
        };
        self.sink.record(TraceEvent::Decision {
            at: self.now(),
            kind,
            kernel,
            headroom,
            reorder_headroom,
            predicted,
            x_tc,
            x_cd,
            t_lc,
            t_gain: gain,
        });
    }
}

impl std::fmt::Debug for KernelManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelManager")
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_sim::{Device, GpuSpec};
    use tacker_workloads::gemm::{gemm_workload, GemmShape};
    use tacker_workloads::parboil::Benchmark;

    fn manager(policy: Policy) -> KernelManager {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let profiler = Arc::new(KernelProfiler::new(device));
        let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
        KernelManager::new(profiler, library, policy)
    }

    fn tc_kernel() -> WorkloadKernel {
        let def = tacker_workloads::dnn::compile::shared_gemm();
        gemm_workload(&def, GemmShape::new(2048, 2048, 1024))
    }

    #[test]
    fn policy_capabilities() {
        assert!(Policy::Tacker.fusion_enabled() && Policy::Tacker.reorder_enabled());
        assert!(!Policy::Baymax.fusion_enabled() && Policy::Baymax.reorder_enabled());
        assert!(Policy::FusionOnly.fusion_enabled() && !Policy::FusionOnly.reorder_enabled());
        assert!(!Policy::LcOnly.best_effort_enabled());
    }

    #[test]
    fn tacker_fuses_when_headroom_allows() {
        let m = manager(Policy::Tacker);
        let lc = tc_kernel();
        let be = Benchmark::Cutcp.task()[0].clone();
        let d = m
            .decide(
                &[Head::new(&lc)],
                SimTime::from_millis(20),
                SimTime::from_millis(20),
                &[Some(Head::new(&be))],
            )
            .unwrap()
            .1;
        assert!(matches!(d, Decision::RunFused { .. }), "got {d:?}");
    }

    #[test]
    fn no_headroom_means_lc_runs_directly() {
        let m = manager(Policy::Tacker);
        let lc = tc_kernel();
        let be = Benchmark::Cutcp.task()[0].clone();
        // Equation 8 is strict: zero headroom blocks fusion even when the
        // model predicts the fused kernel costs (almost) nothing extra.
        let d = m
            .decide(
                &[Head::new(&lc)],
                SimTime::ZERO,
                SimTime::ZERO,
                &[Some(Head::new(&be))],
            )
            .unwrap()
            .1;
        assert!(matches!(d, Decision::RunLc { .. }), "got {d:?}");
    }

    #[test]
    fn baymax_reorders_but_never_fuses() {
        let m = manager(Policy::Baymax);
        let lc = tc_kernel();
        let be = Benchmark::Cutcp.task()[0].clone();
        let d = m
            .decide(
                &[Head::new(&lc)],
                SimTime::from_millis(20),
                SimTime::from_millis(20),
                &[Some(Head::new(&be))],
            )
            .unwrap()
            .1;
        assert!(matches!(d, Decision::RunBe { .. }), "got {d:?}");
    }

    #[test]
    fn fusion_only_policy_never_reorders() {
        let m = manager(Policy::FusionOnly);
        let lc = tc_kernel();
        // A non-fusable BE head (no library pair: both CUDA kernels).
        let be = Benchmark::Lbm.task()[0].clone();
        let lc_cd = Benchmark::Mriq.task()[0].clone();
        let hr = SimTime::from_millis(20);
        let d = m
            .decide(&[Head::new(&lc_cd)], hr, hr, &[Some(Head::new(&be))])
            .unwrap()
            .1;
        // CD LC head + CD BE head: fusion impossible, reorder disabled →
        // the LC kernel runs directly.
        assert!(matches!(d, Decision::RunLc { .. }), "got {d:?}");
        let _ = lc;
    }

    #[test]
    fn degraded_guard_caps_the_policy() {
        use crate::guard::GuardConfig;
        let guard = Arc::new(QosGuard::new(
            SimTime::from_millis(50),
            GuardConfig::default(),
        ));
        // Sustained 2x under-prediction walks the ladder down.
        for _ in 0..64 {
            let _ = guard.observe_launch(1, SimTime::from_millis(1), SimTime::from_millis(2));
        }
        assert!(guard.level() > GuardLevel::Fuse, "guard never degraded");
        let m = manager(Policy::Tacker).with_guard(Arc::clone(&guard));
        assert_eq!(m.guard_level(), guard.level());
        let lc = tc_kernel();
        let be = Benchmark::Cutcp.task()[0].clone();
        let d = m
            .decide(
                &[Head::new(&lc)],
                SimTime::from_millis(20),
                SimTime::from_millis(20),
                &[Some(Head::new(&be))],
            )
            .unwrap()
            .1;
        // Tacker would fuse here (see tacker_fuses_when_headroom_allows);
        // the degraded guard forbids it.
        assert!(!matches!(d, Decision::RunFused { .. }), "got {d:?}");
    }

    #[test]
    fn idle_when_nothing_to_do() {
        let m = manager(Policy::Tacker);
        let d = m
            .decide(&[], SimTime::ZERO, SimTime::ZERO, &[None, None])
            .unwrap()
            .1;
        assert!(matches!(d, Decision::Idle));
    }

    #[test]
    fn free_be_run_when_no_lc() {
        let m = manager(Policy::Tacker);
        let be = Benchmark::Lbm.task()[0].clone();
        let d = m
            .decide(&[], SimTime::ZERO, SimTime::ZERO, &[Some(Head::new(&be))])
            .unwrap()
            .1;
        assert!(matches!(d, Decision::RunBe { be_index: 0, .. }));
    }

    /// One device per test binary: simulations are pure, so property
    /// cases share memoized runs.
    fn shared_device() -> &'static Arc<Device> {
        static DEVICE: std::sync::OnceLock<Arc<Device>> = std::sync::OnceLock::new();
        DEVICE.get_or_init(|| Arc::new(Device::new(GpuSpec::rtx2080ti())))
    }

    /// What two decisions must agree on.
    fn summary(d: &Decision) -> (usize, Option<usize>, Option<u64>, SimTime, [SimTime; 3]) {
        match d {
            Decision::RunLc { predicted } => (0, None, None, *predicted, [SimTime::ZERO; 3]),
            Decision::RunBe {
                be_index,
                predicted,
            } => (1, Some(*be_index), None, *predicted, [SimTime::ZERO; 3]),
            Decision::RunFused {
                be_index,
                fp,
                predicted,
                x_tc,
                x_cd,
                lc_predicted,
                ..
            } => (
                2,
                Some(*be_index),
                Some(*fp),
                *predicted,
                [*x_tc, *x_cd, *lc_predicted],
            ),
            Decision::Idle => (3, None, None, SimTime::ZERO, [SimTime::ZERO; 3]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Two managers over two profilers and libraries kept in step
        /// (same history and models, same strikes and refits, same history
        /// bypass) decide alike when one gets BE heads carrying their
        /// profiled duration, drawn per head wherever the history holds
        /// it, and the other plain heads: same stretches, decisions and
        /// event streams while strikes blacklist pairs, refits move the
        /// fused models, the bypass toggles and measuring fills the
        /// history between walks. Pool kernels are measured up front or
        /// not, so that first fits also happen inside walks.
        #[test]
        fn carried_be_durations_decide_like_history_probes(
            measured in 0u16..256,
            steps in proptest::collection::vec(
                (proptest::collection::vec(0usize..3, 1..5), 0usize..5, 0usize..6, 0u32..26, 0u8..10, 0u8..4),
                1..40,
            ),
        ) {
            let gemm = tacker_workloads::dnn::compile::shared_gemm();
            let lc_pool = [
                tc_kernel(),
                gemm_workload(&gemm, GemmShape::new(4096, 2048, 512)),
                Benchmark::Mriq.task()[0].clone(),
            ];
            // BE pool: CUDA kernels plus a Tensor GEMM; index 5 is "no head".
            let be_pool = [
                Benchmark::Cutcp.task()[0].clone(),
                Benchmark::Fft.task()[0].clone(),
                Benchmark::Lbm.task()[0].clone(),
                gemm_workload(&gemm, GemmShape::new(1024, 1024, 512)),
                Benchmark::Sgemm.task()[0].clone(),
            ];
            let world = || {
                let profiler = Arc::new(KernelProfiler::new(Arc::clone(shared_device())));
                let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
                let sink = Arc::new(tacker_trace::RingSink::unbounded());
                let manager = KernelManager::with_sink(
                    Arc::clone(&profiler),
                    library,
                    Policy::Tacker,
                    sink.clone() as Arc<dyn TraceSink>,
                );
                (profiler, manager, sink)
            };
            let worlds = [world(), world()];
            for (i, wk) in lc_pool.iter().chain(&be_pool).enumerate() {
                if measured >> i & 1 == 1 {
                    for (p, _, _) in &worlds {
                        p.measure(wk).expect("measure");
                    }
                }
            }
            let lc_heads: Vec<Head<'_>> = lc_pool.iter().map(Head::new).collect();
            for (i, (ls, b1, b2, hr_log, op, carry)) in steps.into_iter().enumerate() {
                for (p, m, _) in &worlds {
                    match op {
                        0 | 1 => {
                            let (lc, be) = (&lc_pool[ls[0]], &be_pool[b1]);
                            let Some((tc, cd)) = FusionLibrary::orient(lc, be) else { continue };
                            if let Some(entry) = m.library().prepare(tc, cd).expect("prepare") {
                                let x = p.predict(tc).expect("x_tc");
                                let y = p.predict(cd).expect("x_cd");
                                let lost = (x + y).mul_f64(3.0);
                                entry.lock().expect("entry").observe_outcome(x, y, lost);
                            }
                        }
                        2 => p.set_history_bypass(!p.history_bypassed()),
                        3 => drop(p.measure(&be_pool[b1]).expect("measure")),
                        _ => {}
                    }
                }
                let stretch: Vec<Head<'_>> = if op == 9 {
                    Vec::new()
                } else {
                    ls.iter().map(|&l| lc_heads[l]).collect()
                };
                let heads = |profiler: &KernelProfiler, carried: bool| {
                    [(b1, 1), (b2, 2)].map(|(b, bit)| {
                        let wk = be_pool.get(b)?;
                        let head = Head::new(wk);
                        Some(match profiler.recorded(head.fp) {
                            Some(d) if carried && carry & bit != 0 => {
                                Head::profiled(wk, head.fp, d)
                            }
                            _ => head,
                        })
                    })
                };
                let hr = SimTime::from_nanos((1 << hr_log) - 1);
                let [(cp, carrying, carry_sink), (pp, probing, probe_sink)] = &worlds;
                let (n, carried) = carrying.decide(&stretch, hr, hr, &heads(cp, true)).expect("carried");
                let (m, probed) = probing.decide(&stretch, hr, hr, &heads(pp, false)).expect("probed");
                proptest::prop_assert_eq!(n, m, "step {}", i);
                proptest::prop_assert_eq!(summary(&carried), summary(&probed), "step {}", i);
                proptest::prop_assert_eq!(carry_sink.drain(), probe_sink.drain(), "step {}", i);
            }
        }
    }

    #[test]
    fn lc_only_never_runs_be() {
        let m = manager(Policy::LcOnly);
        let be = Benchmark::Lbm.task()[0].clone();
        let d = m
            .decide(&[], SimTime::ZERO, SimTime::ZERO, &[Some(Head::new(&be))])
            .unwrap()
            .1;
        assert!(matches!(d, Decision::Idle));
    }
}
