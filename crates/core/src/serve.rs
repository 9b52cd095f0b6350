//! The serving runtime and the unified [`ColocationRun`] builder.
//!
//! Every co-location experiment — batch or online — runs through one
//! event-driven engine: LC queries stream in under an [`ArrivalSpec`]
//! (paced Poisson, bursty, or trace replay), BE applications keep an
//! endless backlog, and the [`crate::manager::KernelManager`] is driven
//! at every completion. Serving mode adds two layers on top of the batch
//! semantics:
//!
//! * a **fault-injection layer** ([`crate::fault::FaultPlan`]) that
//!   perturbs realized kernel timings (mispredictions, stragglers),
//!   floods the device with uninvited BE work, and blinds the predictor —
//!   without ever touching the device's memoized execution caches;
//! * an **adaptive QoS guard** ([`crate::guard::QosGuard`]) that watches
//!   predicted-vs-actual errors and tail-latency pressure, inflates the
//!   headroom margin, and walks a degradation ladder (fuse →
//!   reorder-only → LC-only), recovering when the pressure subsides.
//!
//! With a zero [`FaultPlan`], Poisson arrivals and no guard, the engine
//! is bit-identical to the historical batch loop: same arrival streams,
//! same decisions, same report numbers. [`ColocationRun`] is the single
//! entry point for every co-location experiment.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tacker_kernel::{KernelDef, SimTime};
use tacker_sim::{scale_run, Device, KernelRun, SimError, TimelineRecorder};
use tacker_trace::timeseries::{SpanKind, WindowRow, WindowSeries};
use tacker_trace::{Counter, Gauge, MetricsRegistry, NoopSink, TraceEvent, TraceSink};
use tacker_workloads::{BeApp, LcService};

use crate::config::ExperimentConfig;
use crate::error::TackerError;
use crate::fault::FaultPlan;
use crate::guard::{GuardConfig, GuardLevel, GuardTransition, QosGuard};
use crate::library::FusionLibrary;
use crate::manager::{Decision, Head, KernelManager, Policy};
use crate::metrics::{LatencyStats, DEFAULT_EXACT_LIMIT};
use crate::profile::{KernelProfiler, QueryProfile};
use crate::report::{GuardAudit, RunReport, ServiceReport, ViolationRecord};
use crate::server::resolve_loads;

/// Caps the violation-attribution and guard-audit logs so a pathological
/// run cannot grow the report without bound.
pub const VIOLATION_LOG_CAP: usize = 65_536;

/// Fault classes a [`ViolationRecord`] can carry, in the order the
/// engine's per-class fault counters use.
const FAULT_KINDS: [&str; 4] = ["mispredict", "straggler", "be_flood", "predictor_outage"];

/// One LC service with its configured load.
#[derive(Debug, Clone)]
pub struct ServiceLoad {
    /// The service.
    pub lc: LcService,
    /// Mean query inter-arrival time.
    pub mean_interarrival: SimTime,
    /// Seed of this service's arrival stream.
    pub seed: u64,
}

/// How LC queries arrive.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ArrivalSpec {
    /// Paced Poisson: exponential gaps with bounded burstiness (clipped to
    /// `[0.5, 2.2]×` the mean), normalized so the realized mean equals the
    /// target. The batch loop's historical arrival model.
    #[default]
    Poisson,
    /// The Poisson stream with arrivals grouped into back-to-back bursts
    /// of `burst` queries at the same overall rate.
    Bursty {
        /// Queries per burst (≥ 1; 1 degenerates to Poisson).
        burst: usize,
    },
    /// Replay explicit absolute arrival instants, one stream per service.
    /// Stream lengths override the configured query count.
    Replay(Vec<Vec<SimTime>>),
}

/// Serving-mode options: fault plan, the optional QoS guard, and
/// telemetry collection. The default is indistinguishable from a batch
/// run. [`ColocationRun`]'s builder methods set them.
#[derive(Debug, Clone)]
pub(crate) struct ServeOptions {
    /// Faults to inject.
    pub(crate) faults: FaultPlan,
    /// Enable the adaptive QoS guard with this configuration.
    pub(crate) guard: Option<GuardConfig>,
    /// Exact latency samples retained per service (and for the
    /// aggregate) before [`LatencyStats`] spills into its fixed-memory
    /// sketch; `0` sketches from the first query. Telemetry options are
    /// pure observers: they never change scheduling decisions.
    pub(crate) exact_limit: usize,
    /// Enable windowed time-series collection with this window width.
    pub(crate) window: Option<SimTime>,
    /// Enable the replays (see [`ColocationRun::steady_fast_path`]).
    pub(crate) fast_path: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            faults: FaultPlan::default(),
            guard: None,
            exact_limit: DEFAULT_EXACT_LIMIT,
            window: None,
            fast_path: true,
        }
    }
}

/// Builder for co-location runs, replacing the eight `run_colocation*`
/// entry points.
///
/// ```no_run
/// use std::sync::Arc;
/// use tacker::prelude::*;
///
/// let device = Arc::new(tacker_sim::Device::new(tacker_sim::GpuSpec::rtx2080ti()));
/// let lc = tacker_workloads::lc_service("Resnet50", &device).unwrap();
/// let be = vec![tacker_workloads::be_app("sgemm").unwrap()];
/// let config = ExperimentConfig::default();
/// let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
///     .unwrap()
///     .policy(Policy::Tacker)
///     .run()
///     .unwrap();
/// if let Some(p99) = report.p99_latency() {
///     println!("p99 latency: {p99}");
/// }
/// ```
pub struct ColocationRun<'a> {
    device: &'a Arc<Device>,
    config: ExperimentConfig,
    lcs: Vec<LcService>,
    bes: Vec<BeApp>,
    policy: Policy,
    mean_interarrival: Option<SimTime>,
    loads: Option<Vec<ServiceLoad>>,
    sink: Arc<dyn TraceSink>,
    arrivals: ArrivalSpec,
    options: ServeOptions,
    /// The fusion library shared with other runs (a sweep's); `None`
    /// scopes a private one to this run's services and BE apps.
    library: Option<Arc<FusionLibrary>>,
}

impl<'a> ColocationRun<'a> {
    /// Starts a run of `lcs` against `be_apps` on `device` with
    /// `Policy::Tacker`, calibrated per-service load, no tracing, no
    /// faults and no guard.
    ///
    /// # Errors
    ///
    /// Returns [`TackerError::Config`] when no service is given or a
    /// service has no kernels.
    pub fn new(
        device: &'a Arc<Device>,
        config: &ExperimentConfig,
        lcs: &[LcService],
        be_apps: &[BeApp],
    ) -> Result<ColocationRun<'a>, TackerError> {
        if lcs.is_empty() || lcs.iter().any(|s| s.query_kernels().is_empty()) {
            return Err(TackerError::Config {
                reason: "need at least one LC service, each with kernels".to_string(),
            });
        }
        Ok(ColocationRun {
            device,
            config: config.clone(),
            lcs: lcs.to_vec(),
            bes: be_apps.to_vec(),
            policy: Policy::Tacker,
            mean_interarrival: None,
            loads: None,
            sink: Arc::new(NoopSink),
            arrivals: ArrivalSpec::default(),
            options: ServeOptions::default(),
            library: None,
        })
    }

    /// Selects the scheduling policy (default [`Policy::Tacker`]).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the calibrated load factor (fraction of peak load,
    /// `0 < load ≤ 1`; [`ColocationRun::run`] rejects any other value).
    #[must_use]
    pub fn at_load(mut self, load: f64) -> Self {
        self.config = self.config.with_load(load);
        self
    }

    /// Uses an explicit mean query inter-arrival time, skipping peak-load
    /// calibration. Only valid for single-service runs; multi-service
    /// runs use [`ColocationRun::with_loads`].
    #[must_use]
    pub fn at(mut self, mean_interarrival: SimTime) -> Self {
        self.mean_interarrival = Some(mean_interarrival);
        self
    }

    /// Uses explicit per-service loads (services and arrival seeds
    /// included), overriding the services given to `new`.
    #[must_use]
    pub fn with_loads(mut self, loads: &[ServiceLoad]) -> Self {
        self.loads = Some(loads.to_vec());
        self
    }

    /// Streams runtime events to `sink`: one
    /// [`TraceEvent::Decision`] per scheduling point, a
    /// [`TraceEvent::KernelRetired`] per device launch, plus fusion
    /// rejections, model refreshes, query completions, and (in serving
    /// mode) fault injections, guard steps and QoS violations.
    #[must_use]
    pub fn traced(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Selects the arrival process (default [`ArrivalSpec::Poisson`]).
    #[must_use]
    pub fn arrivals(mut self, spec: ArrivalSpec) -> Self {
        self.arrivals = spec;
        self
    }

    /// Injects faults from `plan`.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.options.faults = plan;
        self
    }

    /// Enables the adaptive QoS guard.
    #[must_use]
    pub fn guarded(mut self, config: GuardConfig) -> Self {
        self.options.guard = Some(config);
        self
    }

    /// Enables windowed time-series telemetry with the given window
    /// width: one [`WindowRow`] per non-empty window lands in
    /// [`RunReport::windows`] (and on the trace sink as
    /// [`TraceEvent::WindowStats`] when tracing). Windows only observe:
    /// the replays ([`ColocationRun::steady_fast_path`]) still run by
    /// segment and feed the windows every kernel of each segment.
    #[must_use]
    pub fn windowed(mut self, width: SimTime) -> Self {
        self.options.window = Some(width);
        self
    }

    /// Sets how many exact latency samples are retained before spilling
    /// into the fixed-memory quantile sketch (`0` = sketch from the
    /// first query). Default [`DEFAULT_EXACT_LIMIT`].
    #[must_use]
    pub fn latency_exact_limit(mut self, limit: usize) -> Self {
        self.options.exact_limit = limit;
        self
    }

    /// Enables or disables the busy-period and idle-period replays
    /// (default on). In a run with no faults, no trace sink and no guard
    /// they skip the decision loop where its decisions are known, one
    /// segment per step: while a query is active, the front query's
    /// kernels replay from its measured [`QueryProfile`] until it retires
    /// or the next arrival is due (busy-period replay). Without admissible
    /// BE work every such decision is RunLc; with it, the replay covers
    /// the kernels for which the manager provably decides RunLc. While no
    /// query is active, the first BE app's kernels run back to back until
    /// the next arrival is due, once its task is ready (idle-period
    /// replay). Windows and the timeline see every replayed kernel.
    /// Bit-identical to the decision loop by construction. Turn off to
    /// force the full decision loop (e.g. when benchmarking it).
    #[must_use]
    pub fn steady_fast_path(mut self, on: bool) -> Self {
        self.options.fast_path = on;
        self
    }

    /// Serves fusion from `library`, shared with other runs on the same
    /// device, instead of a library scoped to this run alone.
    #[must_use]
    pub(crate) fn with_library(mut self, library: &Arc<FusionLibrary>) -> Self {
        self.library = Some(Arc::clone(library));
        self
    }

    /// Executes the run.
    ///
    /// # Errors
    ///
    /// Propagates simulation, fusion and prediction errors, or a
    /// [`TackerError::Config`] for unusable load/arrival combinations.
    pub fn run(self) -> Result<RunReport, TackerError> {
        let device = self.device;
        let services = resolve_loads(
            &self.config,
            &self.lcs,
            self.loads.as_deref(),
            self.mean_interarrival,
            || Arc::clone(device),
        )?;
        let arrivals =
            merged_arrivals(&generate_arrivals(&services, &self.config, &self.arrivals)?);
        run_engine(
            self.device,
            &services,
            &self.bes,
            self.policy,
            &self.config,
            self.sink,
            &self.options,
            &arrivals,
            None,
            self.library.as_ref(),
        )
    }
}

struct ActiveQuery {
    /// Index of the owning service.
    service: usize,
    arrival: SimTime,
    deadline: SimTime,
    /// Index of the next kernel to run in the service's kernel sequence.
    next: usize,
    /// Length of that sequence: the query retires once `next` reaches it.
    kernels: usize,
    remaining_pred: SimTime,
    /// In-flight queries at admission (attribution context).
    depth_at_admission: usize,
    /// Snapshot of the per-class fault counters at admission; the delta
    /// at completion names the faults in effect while in flight.
    faults_at_admission: [u64; 4],
}

/// The Equation 9 headroom: the tightest slack over the active queries,
/// each reserving the remaining GPU time of itself and every earlier
/// query, minus the safety margin for prediction noise. Zero when no
/// query is active.
fn eq9_headroom(active: &VecDeque<ActiveQuery>, now: SimTime, safety: SimTime) -> SimTime {
    if active.is_empty() {
        return SimTime::ZERO;
    }
    // "Unbounded" seed for the minimum.
    let mut headroom = SimTime::from_millis(u64::MAX / 2_000_000);
    let mut cum = SimTime::ZERO;
    for q in active {
        cum += q.remaining_pred;
        let slack = q
            .deadline
            .saturating_sub(now)
            .saturating_sub(cum)
            .saturating_sub(safety);
        headroom = headroom.min(slack);
    }
    headroom
}

struct BeState<'a> {
    /// The app's task kernels, resolved once per run.
    task: &'a [Head<'a>],
    /// The run's copy of each task kernel's device run, taken at the
    /// kernel's first launch: every later launch is served from it.
    runs: Vec<Option<Arc<KernelRun>>>,
    /// Which task kernels a fused launch has already credited, recording
    /// their duration as profiler history.
    recorded: Vec<bool>,
    /// Position of the head kernel within the current task iteration.
    next: usize,
    /// Prefix sums of the task's durations over two iterations:
    /// `prefix[i]` is the time positions `..i` (mod the task's length)
    /// take back to back. Empty until the task is ready for idle-period
    /// segments (see [`BeState::idle_segment`]).
    prefix: Vec<SimTime>,
}

impl<'a> BeState<'a> {
    fn new(task: &'a [Head<'a>]) -> BeState<'a> {
        BeState {
            task,
            runs: vec![None; task.len()],
            recorded: vec![false; task.len()],
            next: 0,
            prefix: Vec::new(),
        }
    }

    fn head(&self) -> Option<Head<'a>> {
        self.task.get(self.next).copied()
    }

    /// The head kernel's run: one device probe at its task position's
    /// first launch, the run's copy (one credited hit) at every later one.
    fn head_run(
        &mut self,
        device: &Device,
        credited: &mut CreditedHits<'_>,
    ) -> Result<Arc<KernelRun>, SimError> {
        let slot = &mut self.runs[self.next];
        if let Some(run) = slot {
            credited.hits += 1;
            return Ok(Arc::clone(run));
        }
        let run = self.task[self.next].run(device)?;
        *slot = Some(Arc::clone(&run));
        Ok(run)
    }

    /// The solo work a fused launch credits for the head kernel: what
    /// `KernelProfiler::measure` returns, and like it recorded as profiler
    /// history — at the position's first credit only, since every later
    /// one would insert the same duration again.
    fn credit(
        &mut self,
        device: &Device,
        profiler: &KernelProfiler,
        credited: &mut CreditedHits<'_>,
    ) -> Result<SimTime, SimError> {
        let duration = self.head_run(device, credited)?.duration;
        if !self.recorded[self.next] {
            self.recorded[self.next] = true;
            profiler.record_history([(self.task[self.next].fp(), duration)]);
        }
        Ok(duration)
    }

    /// Retires the head; the endless task stream wraps to the next
    /// iteration after its last kernel.
    fn pop(&mut self) {
        self.next += 1;
        if self.next == self.task.len() {
            self.next = 0;
        }
    }

    /// Retires the kernels an idle period launches back to back from the
    /// head until an arrival `due` from now (`due > 0`): the fewest, `m ≥
    /// 1`, whose summed duration `S(m)` reaches `due`. Returns `m`,
    /// `S(m − 1)` and `S(m)`, with the head moved `m` positions on.
    ///
    /// `None`, with nothing done, until the task is ready: every position
    /// has its run copy, so no first-launch probe is skipped, and its
    /// prediction is settled ([`KernelProfiler::peek_keyed`]), so
    /// predicting it has no side effect. In a zero-fault run both stay
    /// true once true (copies, history and models are only ever added),
    /// so the prefix sums are taken once. `None` for a task that takes no
    /// time, too.
    fn idle_segment(
        &mut self,
        profiler: &KernelProfiler,
        due: SimTime,
    ) -> Option<(u64, SimTime, SimTime)> {
        let len = self.task.len();
        if self.prefix.is_empty() {
            let settled = |h: &Head<'_>| profiler.peek_keyed(h.kernel(), h.fp()).is_some();
            if self.runs.iter().any(Option::is_none) || !self.task.iter().all(settled) {
                return None;
            }
            let durations = self.runs.iter().flatten().map(|r| r.duration);
            let sums = durations
                .cycle()
                .take(2 * len)
                .scan(SimTime::ZERO, |sum, d| {
                    *sum += d;
                    Some(*sum)
                });
            self.prefix = std::iter::once(SimTime::ZERO).chain(sums).collect();
        }
        let cycle = self.prefix[len].as_nanos();
        if cycle == 0 {
            return None;
        }
        // `whole` iterations fall short of `due`; the rest, 1 ns to one
        // iteration, ends inside the next, as in `QueryProfile::replay_end`.
        let whole = (due.as_nanos() - 1) / cycle;
        let rest = due - SimTime::from_nanos(whole * cycle);
        let from = self.next;
        let start = self.prefix[from];
        let tail =
            1 + self.prefix[from + 1..=from + len].partition_point(|&end| end - start < rest);
        let done = SimTime::from_nanos(whole * cycle);
        let before_last = done + (self.prefix[from + tail - 1] - start);
        let elapsed = done + (self.prefix[from + tail] - start);
        self.next = (from + tail) % len;
        Some((whole * len as u64 + tail as u64, before_last, elapsed))
    }
}

/// Plain-kernel launches a run served from its own copies of device runs
/// instead of probing the device. Each would have been a cache hit, so
/// the count is credited to the device's hit counter in one add when the
/// run ends, on error paths too: device counters read as if every launch
/// had probed.
struct CreditedHits<'d> {
    device: &'d Device,
    hits: u64,
}

impl Drop for CreditedHits<'_> {
    fn drop(&mut self) {
        self.device.credit_hits(self.hits);
    }
}

#[cfg(test)]
thread_local! {
    /// The `(from, end)` kernel range of every busy-period replay segment
    /// on this thread.
    static BUSY_SEGMENTS: std::cell::RefCell<Vec<(usize, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// The `(head position, kernels)` of every idle-period segment on this
    /// thread.
    static IDLE_SEGMENTS: std::cell::RefCell<Vec<(usize, u64)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Materializes the per-service arrival streams. Shared with the fleet
/// dispatcher ([`crate::fleet`]), which generates one fleet-level set of
/// streams and hands each device the part routed to it.
pub(crate) fn generate_arrivals(
    services: &[ServiceLoad],
    config: &ExperimentConfig,
    spec: &ArrivalSpec,
) -> Result<Vec<Vec<SimTime>>, TackerError> {
    if let ArrivalSpec::Replay(streams) = spec {
        if streams.len() != services.len() {
            return Err(TackerError::Config {
                reason: format!(
                    "replay needs one arrival stream per service ({} streams, {} services)",
                    streams.len(),
                    services.len()
                ),
            });
        }
        if streams.iter().any(Vec::is_empty) {
            return Err(TackerError::Config {
                reason: "replay arrival streams must not be empty".to_string(),
            });
        }
        return Ok(streams
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.sort();
                s
            })
            .collect());
    }
    if config.queries == 0 {
        return Err(TackerError::Config {
            reason: "need at least one query per service (queries = 0)".to_string(),
        });
    }
    let burst = match spec {
        ArrivalSpec::Bursty { burst } => (*burst).max(1),
        _ => 1,
    };
    // Exponential gaps with bounded burstiness (clipped to [0.5, 2.2]x the
    // mean), normalized so the realized mean equals the target. An
    // unbounded open-loop Poisson stream at meaningful load has latency
    // tails that *no* non-preemptive scheduler can keep under a 50 ms QoS;
    // production inference frontends pace dispatch the same way (see
    // DESIGN.md §5).
    let mut arrivals_per_service = Vec::with_capacity(services.len());
    for svc in services {
        let mut rng = StdRng::seed_from_u64(svc.seed);
        let mut gaps: Vec<f64> = (0..config.queries)
            .map(|_| (-(rng.random::<f64>().max(1e-12)).ln()).clamp(0.5, 2.2))
            .collect();
        let mean_gap: f64 = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
        for g in &mut gaps {
            *g /= mean_gap.max(1e-12);
        }
        let mut arrivals = Vec::with_capacity(config.queries);
        let mut t = SimTime::ZERO;
        let mut burst_start = SimTime::ZERO;
        for (i, g) in gaps.iter().enumerate() {
            t += svc.mean_interarrival.mul_f64(*g);
            if i % burst == 0 {
                burst_start = t;
            }
            arrivals.push(burst_start);
        }
        arrivals_per_service.push(arrivals);
    }
    Ok(arrivals_per_service)
}

/// Every service's arrivals (each stream already sorted by
/// [`generate_arrivals`]) merged into one stream sorted by
/// `(time, service)`: the order serve admits and fleet dispatch routes.
/// A k-way merge over the services' next arrivals, so it costs a heap
/// step per arrival and no buffer beyond the output.
pub(crate) fn merged_arrivals(per_service: &[Vec<SimTime>]) -> Vec<(SimTime, usize)> {
    debug_assert!(per_service.iter().all(|s| s.is_sorted()), "unsorted stream");
    let mut merged = Vec::with_capacity(per_service.iter().map(Vec::len).sum());
    let mut cursor = vec![0; per_service.len()];
    // Each service's next arrival as `(time, service)`: the minimum is the
    // merged stream's next entry.
    let mut heads: BinaryHeap<Reverse<(SimTime, usize)>> = per_service
        .iter()
        .enumerate()
        .filter_map(|(si, stream)| stream.first().map(|&t| Reverse((t, si))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((t, si)) = *head;
        merged.push((t, si));
        cursor[si] += 1;
        match per_service[si].get(cursor[si]) {
            Some(&next) => *head = Reverse((next, si)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    merged
}

/// A [`merged_arrivals`] stream, admitted in order by a cursor.
struct Arrivals<'a> {
    merged: &'a [(SimTime, usize)],
    /// Arrivals admitted so far: a prefix of `merged`.
    admitted: usize,
}

impl Arrivals<'_> {
    /// Admits the next arrival if it is due by `now`: its
    /// `(time, service)`.
    fn admit(&mut self, now: SimTime) -> Option<(SimTime, usize)> {
        let next = *self.merged.get(self.admitted).filter(|(t, _)| *t <= now)?;
        self.admitted += 1;
        Some(next)
    }

    /// The next arrival not yet admitted, if any.
    fn upcoming(&self) -> Option<SimTime> {
        self.merged.get(self.admitted).map(|&(t, _)| t)
    }
}

/// The event-driven engine behind every [`ColocationRun`]. `arrivals` is
/// the run's `(time, service)` stream in [`merged_arrivals`] order.
/// `measured` holds each service's query already measured on `device`'s
/// GPU profile (a fleet node's); without it the engine measures them
/// itself.
/// `library` is a fusion library on `device` shared with other runs;
/// without it the engine scopes one to `services` × `be_apps`. Either
/// way the run serves from its own copies of the library's entries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_engine(
    device: &Arc<Device>,
    services: &[ServiceLoad],
    be_apps: &[BeApp],
    policy: Policy,
    config: &ExperimentConfig,
    sink: Arc<dyn TraceSink>,
    opts: &ServeOptions,
    arrivals: &[(SimTime, usize)],
    measured: Option<Vec<Arc<QueryProfile>>>,
    library: Option<&Arc<FusionLibrary>>,
) -> Result<RunReport, TackerError> {
    if services.is_empty() || services.iter().any(|s| s.lc.query_kernels().is_empty()) {
        return Err(TackerError::Config {
            reason: "need at least one LC service, each with kernels".to_string(),
        });
    }
    let tracing = sink.enabled();
    let registry = MetricsRegistry::new();
    let profiler = Arc::new(KernelProfiler::with_sink(
        Arc::clone(device),
        Arc::clone(&sink),
    ));
    let shared = library.map_or_else(
        || {
            let lcs = services.iter().map(|svc| &svc.lc);
            Arc::new(FusionLibrary::scoped(device, lcs, be_apps))
        },
        Arc::clone,
    );
    let library = Arc::new(FusionLibrary::for_run(&shared));
    let faults = &opts.faults;
    let serving = opts.guard.is_some() || !faults.is_zero();
    let guard = opts
        .guard
        .clone()
        .map(|g| Arc::new(QosGuard::new(config.qos_target, g)));
    let mut manager = KernelManager::with_sink(
        Arc::clone(&profiler),
        Arc::clone(&library),
        policy,
        Arc::clone(&sink),
    );
    if let Some(g) = &guard {
        manager = manager.with_guard(Arc::clone(g));
    }

    // Every service's query measured once on this device's GPU profile:
    // the paper's "historical data" (these exact kernels recur every
    // query). Recorded
    // as profiler history, each run's duration is the exact prediction of
    // its kernel, so remaining-time accounting reads the profiles, and as
    // replay profiles they advance time by exactly the durations the
    // decision loop's probes return.
    let profiles: Vec<Arc<QueryProfile>> = match measured {
        Some(profiles) => profiles,
        None => services
            .iter()
            .map(|svc| QueryProfile::measure(device, &svc.lc).map(Arc::new))
            .collect::<Result<_, _>>()?,
    };
    for (svc, p) in services.iter().zip(&profiles) {
        let fps = svc.lc.query_fingerprints().iter().copied();
        profiler.record_history(fps.zip(p.durations.iter().copied()));
    }
    // Every LC query kernel and BE task kernel resolved into a `Head` once:
    // decisions, predictions and launches below key the profiler history
    // and the device cache by the stored fingerprint instead of re-hashing
    // the kernel at every use. An LC head also carries its profiled
    // duration, the prediction the history holds for it, so the manager
    // reads it without a history probe.
    let lc_heads: Vec<Vec<Head<'_>>> = services
        .iter()
        .zip(&profiles)
        .map(|(svc, p)| {
            let kernels = svc.lc.query_kernels().iter();
            let fps = svc.lc.query_fingerprints();
            kernels
                .zip(fps)
                .zip(&p.durations)
                .map(|((k, &fp), &duration)| Head::profiled(k, fp, duration))
                .collect()
        })
        .collect();
    let be_task_heads: Vec<Vec<Head<'_>>> = be_apps
        .iter()
        .map(|app| app.task_kernels().iter().map(Head::new).collect())
        .collect();

    let be_states: Vec<BeState<'_>> = be_task_heads.iter().map(|t| BeState::new(t)).collect();
    // The manager's view of each BE app's ready head, kept across
    // decisions: an entry changes only when its app retires a kernel
    // (`RunState::be_retired`), and never between `Some` and `None`. All
    // `None` when the policy runs no BE work.
    let be_heads: Vec<Option<Head<'_>>> = be_states
        .iter()
        .map(|b| b.head().filter(|_| policy.best_effort_enabled()))
        .collect();

    // The replays (see ColocationRun::steady_fast_path) need a run in which every
    // launch realizes its memoized timing (no faults), no trace sink
    // (Decision events would embed per-point headroom the replays skip
    // computing) and no guard (its level and margin may move at every
    // launch). Without admissible BE work, the manager's only decision
    // while a query is active is RunLc for the front query's next kernel;
    // with it, one manager call decides a stretch of them. While no query
    // is active the only decision is RunBe for the first BE head
    // (idle-period replay, in the RunBe arm).
    let steady = opts.fast_path && !tracing && faults.is_zero() && guard.is_none();

    // Fault sampling resolved up front: which LC kernel positions of which
    // service run persistently slower than their profile says.
    let mispredict: Vec<Vec<f64>> = services
        .iter()
        .map(|svc| {
            (0..svc.lc.query_kernels().len())
                .map(|i| faults.mispredict_factor(svc.lc.name(), i))
                .collect()
        })
        .collect();

    // Best-effort injection budget. Headroom alone is blind to *future*
    // arrivals: BE work injected into a busy period delays every query that
    // joins that busy period later, 1:1. The budget therefore replenishes
    // only during genuinely idle time and is capped at a small fraction of
    // the QoS target, bounding how far any arrival cluster can be
    // stretched by work injected before the cluster was visible.
    // Signed, in nanoseconds: over-predictions drive it negative (debt),
    // blocking further injection until idle time repays it.
    let budget_cap = config.qos_target.mul_f64(0.08).as_nanos() as i128;
    let exact_limit = opts.exact_limit;
    // Windowed time-series collection: closed rows stream to the sink as
    // WindowStats events (when tracing) and collect into the report.
    let windows = opts.window.map(WindowSeries::new);
    let mut run = RunState {
        device,
        config,
        faults,
        profiler: &profiler,
        manager,
        guard: guard.as_deref(),
        sink: sink.as_ref(),
        tracing,
        observed: tracing || windows.is_some() || guard.is_some() || config.record_timeline,
        profiles: &profiles,
        lc_heads: &lc_heads,
        mispredict,
        steady,
        // Safety margin absorbing prediction noise when filling headroom.
        safety: config.qos_target.mul_f64(0.10),
        budget_cap,
        // Metric handles resolved once; hot-loop updates are atomic ops.
        // The serve counters are only registered in serving mode so batch
        // runs render the exact same metric set as before.
        m_decisions: registry.counter("decisions"),
        m_violations: registry.counter("qos_violations"),
        m_budget: registry.gauge("injection_budget_ns"),
        m_guard_steps: serving.then(|| registry.counter("guard_steps")),
        m_faults: serving.then(|| registry.counter("faults_injected")),
        now: SimTime::ZERO,
        arrivals: Arrivals {
            merged: arrivals,
            admitted: 0,
        },
        active: VecDeque::new(),
        be_states,
        be_heads,
        credited: CreditedHits { device, hits: 0 },
        budget: budget_cap * 3 / 10,
        // Fused-plan cache counters are device-lifetime; track deltas so
        // the windows only see this run's traffic.
        last_cache: windows.is_some().then(|| device.fused_cache_stats()),
        windows,
        last_guard_level: None,
        fault_counts: [0; 4],
        last_be: None,
        launch_seq: 0,
        next_flood: 0,
        in_outage: false,
        report: RunReport {
            policy,
            qos_target: config.qos_target,
            services: services
                .iter()
                .map(|svc| ServiceReport {
                    name: svc.lc.name().to_string(),
                    latency: LatencyStats::with_limit(exact_limit),
                    qos_violations: 0,
                })
                .collect(),
            be_work: SimTime::ZERO,
            be_kernels: 0,
            fused_launches: 0,
            reordered_launches: 0,
            wall: SimTime::ZERO,
            busy: SimTime::ZERO,
            model_refreshes: 0,
            timeline: config.record_timeline.then(TimelineRecorder::new),
            metrics: registry.clone(),
            guard_steps: 0,
            faults_injected: 0,
            guard_level: None,
            latency: LatencyStats::with_limit(exact_limit),
            windows: Vec::new(),
            violation_log: Vec::new(),
            guard_log: Vec::new(),
        },
    };
    run.serve_loop()?;
    let report = run.finish();
    sink.flush();
    Ok(report)
}

/// Streams closed window rows to `sink` as [`TraceEvent::WindowStats`]
/// events when tracing.
fn row_emitter(sink: &dyn TraceSink, tracing: bool) -> impl FnMut(&WindowRow) + '_ {
    move |row| {
        if tracing {
            sink.record(TraceEvent::WindowStats { row: row.clone() });
        }
    }
}

/// The label of a launch of `kind` in trace events and the timeline.
fn span_label(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Lc => "LC",
        SpanKind::Be => "BE",
        SpanKind::Fused => "FUSED",
    }
}

/// Feeds the window series and the timeline `runs` of `kind`, launched
/// back to back from `start`: for each kernel, the headroom sample at its
/// start (when `headroom` is given), its span and its timeline entry. A
/// launch reaches the windows and the timeline only through here, whether
/// it was decided or replayed in a segment.
fn feed_spans<'r>(
    mut windows: Option<&mut WindowSeries>,
    mut timeline: Option<&mut TimelineRecorder>,
    emit: &mut impl FnMut(&WindowRow),
    start: SimTime,
    runs: impl IntoIterator<Item = &'r KernelRun>,
    kind: SpanKind,
    headroom: Option<SimTime>,
) {
    let mut t = start;
    for run in runs {
        let end = t + run.duration;
        if let Some(ws) = windows.as_deref_mut() {
            if let Some(headroom) = headroom {
                ws.observe_headroom(t, headroom, emit);
            }
            let (tc, cd) = run.pipe_utilizations();
            ws.on_span(t, end, tc, cd, kind, emit);
        }
        if let Some(tl) = timeline.as_deref_mut() {
            tl.advance_to(t);
            tl.record(run, span_label(kind));
        }
        t = end;
    }
}

/// One run of the engine: what it reads and what it updates. Its methods
/// are the serve loop's steps (see [`RunState::serve_loop`] for their order). Every
/// launch ends in [`RunState::launched`]; every launch a decision makes
/// passes [`RunState::faulted`] first.
struct RunState<'a> {
    device: &'a Device,
    config: &'a ExperimentConfig,
    faults: &'a FaultPlan,
    profiler: &'a KernelProfiler,
    manager: KernelManager,
    guard: Option<&'a QosGuard>,
    sink: &'a dyn TraceSink,
    tracing: bool,
    /// Whether a launch has an observer (windows, sink, guard, timeline).
    /// In a run that may replay, only windows and the timeline can be on.
    observed: bool,
    /// Each service's query, measured.
    profiles: &'a [Arc<QueryProfile>],
    /// Each service's query kernels, resolved.
    lc_heads: &'a [Vec<Head<'a>>],
    /// The misprediction factor of each service's LC kernel positions.
    mispredict: Vec<Vec<f64>>,
    /// Whether the run may replay (see
    /// [`ColocationRun::steady_fast_path`]).
    steady: bool,
    /// Safety margin subtracted from the Equation 9 headroom.
    safety: SimTime,
    budget_cap: i128,
    m_decisions: Arc<Counter>,
    m_violations: Arc<Counter>,
    m_budget: Arc<Gauge>,
    m_guard_steps: Option<Arc<Counter>>,
    m_faults: Option<Arc<Counter>>,

    now: SimTime,
    arrivals: Arrivals<'a>,
    active: VecDeque<ActiveQuery>,
    be_states: Vec<BeState<'a>>,
    be_heads: Vec<Option<Head<'a>>>,
    credited: CreditedHits<'a>,
    /// The BE injection budget in nanoseconds (see `run_engine`).
    budget: i128,
    windows: Option<WindowSeries>,
    /// The device's fused-plan cache counters at the last window update.
    last_cache: Option<(u64, u64)>,
    /// Last guard ladder level pushed into the window series.
    last_guard_level: Option<GuardLevel>,
    /// Per-class fault counters (`FAULT_KINDS` order) for attribution.
    fault_counts: [u64; 4],
    /// The definition of the last co-running BE kernel launched — the
    /// co-runner a violation is attributed to. Named only when a
    /// violation record is written.
    last_be: Option<&'a KernelDef>,
    /// Device launches so far: the straggler fault's launch index.
    launch_seq: u64,
    next_flood: usize,
    in_outage: bool,
    report: RunReport,
}

impl<'a> RunState<'a> {
    /// The serve loop, until every query has retired. Out of line, like
    /// the replays, so that the loop keeps the run's fields in registers.
    #[inline(never)]
    fn serve_loop(&mut self) -> Result<(), TackerError> {
        loop {
            self.flood()?;
            self.outage();
            self.admit();
            if self.active.is_empty() && self.arrivals.upcoming().is_none() {
                return Ok(());
            }
            let lc_only = self.be_heads.iter().all(Option::is_none);
            if self.steady && lc_only && !self.active.is_empty() {
                self.busy_replay();
            } else if !self.decide()? {
                return Ok(());
            }
            self.end_iteration();
            self.retire();
        }
    }

    /// Uninvited BE bursts (a misbehaving co-tenant): executed outside
    /// the scheduler's ledger, before it gets to decide anything. Their
    /// launches take no straggler or misprediction and feed no guard
    /// observation.
    fn flood(&mut self) -> Result<(), TackerError> {
        while let Some(&burst) = self.faults.be_floods.get(self.next_flood) {
            if burst.at > self.now {
                break;
            }
            self.next_flood += 1;
            if self.be_states.is_empty() {
                continue;
            }
            self.fault_event("be_flood", "", f64::from(burst.kernels));
            for i in 0..burst.kernels as usize {
                let bi = i % self.be_states.len();
                let Some(head) = self.be_states[bi].head() else {
                    continue;
                };
                let predicted = self.profiler.predict_keyed(head.kernel(), head.fp())?;
                let run = self.be_states[bi].head_run(self.device, &mut self.credited)?;
                self.launch_seq += 1;
                self.launched(&run, SpanKind::Be, predicted, None);
                self.be_retired(bi, run.duration);
            }
        }
        Ok(())
    }

    /// Predictor-outage windows: bypass exact launch history while one is
    /// active (predictions fall back to the LR models).
    fn outage(&mut self) {
        let outage = self.faults.outage_active(self.now);
        if outage != self.in_outage {
            self.in_outage = outage;
            self.profiler.set_history_bypass(outage);
            if outage {
                self.fault_event("predictor_outage", "", 1.0);
            }
        }
    }

    /// Admits every arrival due by now, oldest first.
    fn admit(&mut self) {
        while let Some((arrival, si)) = self.arrivals.admit(self.now) {
            let depth = self.active.len();
            self.active.push_back(ActiveQuery {
                service: si,
                arrival,
                deadline: arrival + self.config.qos_target,
                next: 0,
                kernels: self.lc_heads[si].len(),
                remaining_pred: self.profiles[si].solo(),
                depth_at_admission: depth,
                faults_at_admission: self.fault_counts,
            });
            if let Some(ws) = self.windows.as_mut() {
                ws.on_arrivals(arrival, 1, &mut row_emitter(self.sink, self.tracing));
                ws.on_queue_depth(depth as u64 + 1);
            }
        }
    }

    /// LC-only busy-period replay: without BE heads the manager's only
    /// decision for the front query's next kernel is RunLc, predicted at
    /// the profiled duration, so its kernels replay from the profile up to
    /// [`RunState::segment_end`]; the loop then admits and retires exactly
    /// where the decision loop would. Out of line, so that the loop keeps
    /// the run's fields in registers.
    #[inline(never)]
    fn busy_replay(&mut self) {
        let headroom = self.windows.is_some().then(|| self.headroom());
        self.lc_segment(self.segment_end(), headroom);
    }

    /// Where a busy-period segment of the front query stops: when it
    /// retires or the next arrival is due ([`QueryProfile::replay_end`]).
    fn segment_end(&self) -> usize {
        let q = &self.active[0];
        // Nothing arrives during the segment: `upcoming` stays put.
        let due = self.arrivals.upcoming().map(|t| t - self.now);
        self.profiles[q.service].replay_end(q.next, due)
    }

    /// The front query's kernels up to `end`, each decided RunLc, in one
    /// step: every per-kernel update is a sum (clock, busy time, launch
    /// count, decisions, the query's predicted remaining time), and the
    /// budget gauge holds the value each decision would set. The windows
    /// and the timeline get every kernel of it, each with the window
    /// `headroom` sample: during the segment `now` grows by exactly what
    /// the front query's predicted remaining time shrinks, so every
    /// Equation 9 slack term stays put.
    fn lc_segment(&mut self, end: usize, headroom: Option<SimTime>) {
        let si = self.active[0].service;
        let from = self.active[0].next;
        let profile = &*self.profiles[si];
        #[cfg(test)]
        BUSY_SEGMENTS.with(|log| log.borrow_mut().push((from, end)));
        let kernels = (end - from) as u64;
        self.m_decisions.add(kernels);
        // RunLc moves no budget.
        self.m_budget.set(self.budget as f64);
        if self.observed {
            feed_spans(
                self.windows.as_mut(),
                self.report.timeline.as_mut(),
                &mut row_emitter(self.sink, self.tracing),
                self.now,
                profile.runs[from..end].iter().map(|r| &**r),
                SpanKind::Lc,
                headroom,
            );
        }
        let elapsed = profile.elapsed(from, end);
        let q = &mut self.active[0];
        q.next = end;
        q.remaining_pred = q.remaining_pred.saturating_sub(elapsed);
        self.launch_seq += kernels;
        self.now += elapsed;
        self.report.busy += elapsed;
    }

    /// Manager decisions on the Equation 9 headroom, capped by the
    /// injection budget, and the last one's arm. A steady run hands the
    /// manager the front query's kernels up to [`RunState::segment_end`],
    /// any other run one kernel. The kernels decided RunLc before the
    /// last decision launch from the profile as one segment, each
    /// credited as the device hit its `run_lc` probe would have been:
    /// across them nothing a decision reads moves (headrooms, budget, BE
    /// heads; a steady run has no guard). `false` when the run is over:
    /// the device is idle and nothing is left to arrive.
    fn decide(&mut self) -> Result<bool, TackerError> {
        let headroom = self.headroom();
        let (fusion_headroom, reorder_headroom) = self.capped_headrooms(headroom);
        let lc_heads = match self.active.front() {
            Some(q) => {
                let end = if self.steady {
                    self.segment_end()
                } else {
                    q.next + 1
                };
                &self.lc_heads[q.service][q.next..end]
            }
            None => &[],
        };
        let was_idle = self.active.is_empty();
        self.manager.set_now(self.now);
        // With multiple active queries the oldest executes first and the
        // Equation 9 headroom above already reserves the remaining GPU time
        // of every query, so fusion stays enabled (§VII-B-2's accounting).
        let (stretch, decision) =
            self.manager
                .decide(lc_heads, fusion_headroom, reorder_headroom, &self.be_heads)?;
        if stretch > 0 {
            self.credited.hits += stretch as u64;
            let end = self.active[0].next + stretch;
            self.lc_segment(end, Some(headroom));
        }
        if let Some(ws) = self.windows.as_mut().filter(|_| !was_idle) {
            let mut emit = row_emitter(self.sink, self.tracing);
            ws.observe_headroom(self.now, headroom, &mut emit);
        }
        self.m_decisions.inc();
        self.m_budget.set(self.budget as f64);
        match decision {
            Decision::RunLc { predicted } => self.run_lc(predicted),
            Decision::RunFused { .. } => self.run_fused(decision)?,
            Decision::RunBe {
                be_index,
                predicted,
            } => self.run_be(be_index, predicted, was_idle)?,
            Decision::Idle => return Ok(self.idle()),
        }
        Ok(true)
    }

    /// The Equation 9 headroom of the active queries now.
    fn headroom(&self) -> SimTime {
        eq9_headroom(&self.active, self.now, self.safety)
    }

    /// `headroom` capped by the injection budget: what fusion and what
    /// reordering may use, in that order.
    fn capped_headrooms(&self, headroom: SimTime) -> (SimTime, SimTime) {
        // Reordering whole BE kernels into the headroom is what stretches
        // busy periods, so it is budget-capped. Fusion's extra time is an
        // order of magnitude smaller per unit of BE work, so it gets a
        // small grace on top of the budget — but its actual cost is still
        // charged, driving the budget into debt that blocks further
        // injection until idle time repays it.
        let budget_time = SimTime::from_nanos(self.budget.max(0) as u64);
        let reorder = headroom.min(budget_time);
        // Fusion may run the budget into bounded debt: its extras are small
        // and high-leverage, so a per-busy-period allowance (the grace, up
        // to the debt floor) keeps cheap fusions flowing while expensive
        // ones are cut off quickly.
        let grace = self.config.qos_target.mul_f64(0.01);
        let debt_floor = -(self.config.qos_target.mul_f64(0.05).as_nanos() as i128);
        let fusion = if self.budget > debt_floor {
            headroom.min(budget_time + grace)
        } else {
            SimTime::ZERO
        };
        (fusion, reorder)
    }

    /// Moves the front query past its next kernel, whose profiled duration
    /// leaves the query's predicted remaining time: that kernel's service
    /// and position.
    fn next_lc(&mut self) -> (usize, usize) {
        let q = self.active.front_mut().expect("an LC launch needs a query");
        let (si, idx) = (q.service, q.next);
        q.next += 1;
        q.remaining_pred = q
            .remaining_pred
            .saturating_sub(self.profiles[si].durations[idx]);
        (si, idx)
    }

    /// The RunLc arm: the front query's next kernel, launched from the
    /// run's profile (the run a device probe returns).
    fn run_lc(&mut self, predicted: SimTime) {
        let (si, idx) = self.next_lc();
        let run = Arc::clone(&self.profiles[si].runs[idx]);
        self.credited.hits += 1;
        let run = self.faulted(run, self.mispredict[si][idx]);
        let head = self.lc_heads[si][idx];
        self.launched(&run, SpanKind::Lc, predicted, Some(head));
    }

    /// The RunFused arm: the front query's next kernel fused with a BE
    /// head. A mispredicted LC kernel is just as slow inside a fused launch
    /// as outside it. The guard observes no fused launch; the BE kernel's
    /// solo work is credited after the launch is retired, because the
    /// credit probes the device at the BE kernel's first launch.
    fn run_fused(&mut self, decision: Decision) -> Result<(), TackerError> {
        let Decision::RunFused {
            be_index,
            launch,
            fp,
            entry,
            x_tc,
            x_cd,
            lc_predicted,
            predicted,
        } = decision
        else {
            unreachable!("run_fused takes a RunFused decision");
        };
        let (si, idx) = self.next_lc();
        let run = self
            .device
            .run_keyed(fp, &launch.def, || (*launch).clone())?;
        let run = self.faulted(run, self.mispredict[si][idx]);
        self.launched(&run, SpanKind::Fused, predicted, None);
        let work =
            self.be_states[be_index].credit(self.device, self.profiler, &mut self.credited)?;
        self.be_retired(be_index, work);
        self.report.fused_launches += 1;
        self.budget -= run.duration.saturating_sub(lc_predicted).as_nanos() as i128;
        // Online model refresh (>10% error, §VI-C) and pair blacklisting
        // when fusion lost to sequential (§VIII-I).
        if entry
            .lock()
            .expect("entry poisoned")
            .observe_outcome(x_tc, x_cd, run.duration)
        {
            self.report.model_refreshes += 1;
            if self.tracing {
                let actual = run.duration.as_nanos() as f64;
                let rel_error = if actual > 0.0 {
                    (predicted.as_nanos() as f64 - actual).abs() / actual
                } else {
                    0.0
                };
                self.sink.record(TraceEvent::ModelRefresh {
                    kernel: run.name.clone(),
                    rel_error,
                });
            }
        }
        Ok(())
    }

    /// The RunBe arm: a BE head kernel reordered into the headroom, or
    /// run on an idle device (which replenishes the budget). On an idle
    /// device, in a run that may replay, the rest of the idle period
    /// follows in one step once the app's task is ready
    /// ([`RunState::idle_segment`]).
    #[inline(never)]
    fn run_be(
        &mut self,
        be_index: usize,
        predicted: SimTime,
        was_idle: bool,
    ) -> Result<(), TackerError> {
        let be = self.be_heads[be_index].expect("BE head exists");
        let run = self.be_states[be_index].head_run(self.device, &mut self.credited)?;
        let run = self.faulted(run, 1.0);
        self.launched(&run, SpanKind::Be, predicted, Some(be));
        self.be_retired(be_index, run.duration);
        if !was_idle {
            self.report.reordered_launches += 1;
            self.budget -= run.duration.as_nanos() as i128;
            return Ok(());
        }
        // Free-running BE during idle replenishes the budget.
        self.budget = self
            .budget_cap
            .min(self.budget + run.duration.as_nanos() as i128);
        if self.steady {
            self.idle_segment(be_index);
        }
        Ok(())
    }

    /// The rest of an idle period in one step: with no query active,
    /// every decision until the next arrival is due is RunBe for app `i`'s
    /// next head, so every such BE kernel launches here, found in closed
    /// form by [`BeState::idle_segment`]. Each per-kernel update is a sum
    /// or a last write: the clock, busy time, BE work, kernel and launch
    /// counts, credited hits and the `decisions` counter add; the budget
    /// replenishes once (`min(cap, min(cap, x) + d) = min(cap, x + d)`
    /// for `d ≥ 0`); the gauge holds the budget before the last kernel;
    /// the co-runner and the head are the last kernel's and the one after
    /// it. The skipped predictions are settled, so they changed nothing.
    /// The windows and the timeline get every kernel. Nothing is done
    /// when no arrival is due later or the task is not ready: the decision
    /// loop then goes on kernel by kernel.
    fn idle_segment(&mut self, i: usize) {
        let now = self.now;
        let Some(due) = self.arrivals.upcoming().filter(|&t| t > now) else {
            return;
        };
        let from = self.be_states[i].next;
        let Some((kernels, before_last, elapsed)) =
            self.be_states[i].idle_segment(self.profiler, due - now)
        else {
            return;
        };
        #[cfg(test)]
        IDLE_SEGMENTS.with(|log| log.borrow_mut().push((from, kernels)));
        let be = &self.be_states[i];
        if self.observed {
            let copies = be
                .runs
                .iter()
                .map(|r| &**r.as_ref().expect("a ready task's copy"));
            feed_spans(
                self.windows.as_mut(),
                self.report.timeline.as_mut(),
                &mut row_emitter(self.sink, self.tracing),
                now,
                copies.cycle().skip(from).take(kernels as usize),
                SpanKind::Be,
                None,
            );
        }
        let len = be.task.len();
        self.last_be = Some(&*be.task[(be.next + len - 1) % len].kernel().def);
        self.be_heads[i] = be.head();
        let replenished = |t: SimTime| self.budget_cap.min(self.budget + t.as_nanos() as i128);
        self.m_budget.set(replenished(before_last) as f64);
        self.budget = replenished(elapsed);
        self.m_decisions.add(kernels);
        self.credited.hits += kernels;
        self.launch_seq += kernels;
        self.now += elapsed;
        self.report.busy += elapsed;
        self.report.be_work += elapsed;
        self.report.be_kernels += kernels;
    }

    /// The Idle arm: jump to the next arrival of any service — or the
    /// next flood burst, which also re-opens the device; genuine idle
    /// replenishes the injection budget. `false` when nothing is left.
    fn idle(&mut self) -> bool {
        let flood = self.faults.be_floods.get(self.next_flood).map(|b| b.at);
        let Some(t) = self.arrivals.upcoming().into_iter().chain(flood).min() else {
            return false;
        };
        let target = self.now.max(t);
        self.budget = self
            .budget_cap
            .min(self.budget + target.saturating_sub(self.now).as_nanos() as i128);
        self.now = target;
        true
    }

    /// The fault step of a launch a decision makes: counts the launch,
    /// then scales its run by the LC kernel position's misprediction
    /// factor `mf` (1.0 for a BE kernel) and the launch's straggler
    /// factor, recording each fault that fires.
    #[inline(always)]
    fn faulted(&mut self, run: Arc<KernelRun>, mf: f64) -> Arc<KernelRun> {
        self.launch_seq += 1;
        if mf != 1.0 {
            self.fault_event("mispredict", &run.name, mf);
        }
        let sf = self.faults.straggler_factor(self.launch_seq);
        if sf != 1.0 {
            self.fault_event("straggler", &run.name, sf);
        }
        if mf * sf == 1.0 {
            run
        } else {
            Arc::new(scale_run(&run, mf * sf))
        }
    }

    /// Every per-launch update a decision (or a flood) makes, in order:
    /// the clock and busy time, the window span and timeline entry
    /// ([`feed_spans`]), the [`TraceEvent::KernelRetired`] event carrying
    /// the predicted duration next to the realized one, and the guard's
    /// observation of `guard_kernel` (none for floods and fused launches).
    #[inline(always)]
    fn launched(
        &mut self,
        run: &KernelRun,
        kind: SpanKind,
        predicted: SimTime,
        guard_kernel: Option<Head<'a>>,
    ) {
        let start = self.now;
        self.now += run.duration;
        self.report.busy += run.duration;
        if self.observed {
            self.observed_launch(start, run, kind, predicted, guard_kernel);
        }
    }

    /// The observers' part of [`RunState::launched`], out of line so the
    /// decision loop stays small when no observer is on.
    #[inline(never)]
    fn observed_launch(
        &mut self,
        start: SimTime,
        run: &KernelRun,
        kind: SpanKind,
        predicted: SimTime,
        guard_kernel: Option<Head<'a>>,
    ) {
        feed_spans(
            self.windows.as_mut(),
            self.report.timeline.as_mut(),
            &mut row_emitter(self.sink, self.tracing),
            start,
            [run],
            kind,
            None,
        );
        if self.tracing {
            self.sink.record(TraceEvent::KernelRetired {
                kernel: run.name.clone(),
                label: span_label(kind).into(),
                start,
                end: self.now,
                tc_util: run.summary.tc_util,
                cd_util: run.summary.cd_util,
                predicted,
                actual: run.duration,
            });
        }
        if let (Some(g), Some(head)) = (self.guard, guard_kernel) {
            let kernel = head.kernel().def.id().get();
            let step = g.observe_launch(kernel, predicted, run.duration);
            self.note_guard(step);
        }
    }

    /// Accounts BE app `i`'s head kernel as retired with `work` of solo BE
    /// work, moves the app to its next kernel and refreshes the manager's
    /// view of the app's head (a `None` view — BE work disabled — stays
    /// `None`).
    #[inline(always)]
    fn be_retired(&mut self, i: usize, work: SimTime) {
        self.report.be_work += work;
        self.report.be_kernels += 1;
        self.last_be = self.be_states[i].head().map(|h| &*h.kernel().def);
        self.be_states[i].pop();
        if self.be_heads[i].is_some() {
            self.be_heads[i] = self.be_states[i].head();
        }
    }

    /// Bookkeeping for one injected fault: report counter, the per-class
    /// counter used for violation attribution, metric and trace event.
    fn fault_event(&mut self, kind: &'static str, kernel: &str, factor: f64) {
        self.report.faults_injected += 1;
        let class = FAULT_KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("known fault class");
        self.fault_counts[class] += 1;
        if let Some(m) = &self.m_faults {
            m.inc();
        }
        if self.tracing {
            self.sink.record(TraceEvent::FaultInjected {
                at: self.now,
                kind: kind.into(),
                kernel: kernel.into(),
                factor,
            });
        }
    }

    /// Bookkeeping for one guard ladder step: report counter, audit log,
    /// metric and trace event.
    fn note_guard(&mut self, step: Option<GuardTransition>) {
        let Some(t) = step else {
            return;
        };
        self.report.guard_steps += 1;
        if self.report.guard_log.len() < VIOLATION_LOG_CAP {
            self.report.guard_log.push(GuardAudit {
                at: self.now,
                from: t.from,
                to: t.to,
                reason: t.reason,
                ewma_error: t.ewma_error,
                pressure: t.pressure,
            });
        }
        if let Some(m) = &self.m_guard_steps {
            m.inc();
        }
        if self.tracing {
            self.sink.record(TraceEvent::GuardStep {
                at: self.now,
                from: t.from.name().into(),
                to: t.to.name().into(),
                reason: t.reason.into(),
                ewma_error: t.ewma_error,
                pressure: t.pressure,
            });
        }
    }

    /// End-of-iteration telemetry: the guard ladder level (when it
    /// changed; the level is sticky in the series) and the fused-plan
    /// cache deltas land in the window the iteration ended in.
    fn end_iteration(&mut self) {
        let Some(ws) = self.windows.as_mut() else {
            return;
        };
        let level = self.guard.map(QosGuard::level);
        if level != self.last_guard_level {
            self.last_guard_level = level;
            ws.set_guard(level.map(GuardLevel::name));
        }
        if let Some((lh, lm)) = self.last_cache {
            let (h, m) = self.device.fused_cache_stats();
            if (h, m) != (lh, lm) {
                ws.on_cache(h - lh, m - lm);
                self.last_cache = Some((h, m));
            }
        }
    }

    /// Retires the completed queries at the front of the queue.
    fn retire(&mut self) {
        let now = self.now;
        let target = self.config.qos_target;
        while let Some(q) = self.active.front() {
            if q.next != q.kernels {
                break;
            }
            let latency = now.saturating_sub(q.arrival);
            let violated = latency > target;
            if violated && self.report.violation_log.len() < VIOLATION_LOG_CAP {
                // Which fault classes fired while the query was in flight;
                // an outage window straddling the completion counts even
                // when it started before admission.
                let mut in_effect: Vec<&'static str> = FAULT_KINDS
                    .iter()
                    .zip(self.fault_counts.iter().zip(q.faults_at_admission.iter()))
                    .filter(|(_, (now_n, adm_n))| now_n > adm_n)
                    .map(|(k, _)| *k)
                    .collect();
                if self.faults.outage_active(now) && !in_effect.contains(&"predictor_outage") {
                    in_effect.push("predictor_outage");
                }
                self.report.violation_log.push(ViolationRecord {
                    at: now,
                    service: self.report.services[q.service].name.clone(),
                    latency,
                    target,
                    guard_level: self.guard.map(QosGuard::level),
                    faults: in_effect,
                    be_kernel: self.last_be.map(|d| (d.name().to_string(), d.id().get())),
                    queue_depth: q.depth_at_admission,
                });
            }
            let svc = &mut self.report.services[q.service];
            if violated {
                svc.qos_violations += 1;
                self.m_violations.inc();
                if self.tracing {
                    self.sink.record(TraceEvent::QosViolation {
                        at: now,
                        service: svc.name.as_str().into(),
                        latency,
                        target,
                    });
                }
            }
            svc.latency.observe(latency);
            if self.tracing {
                self.sink.record(TraceEvent::QueryCompleted {
                    service: svc.name.as_str().into(),
                    arrival: q.arrival,
                    latency,
                    violated,
                });
            }
            self.report.latency.observe(latency);
            if let Some(ws) = self.windows.as_mut() {
                ws.on_completion(now, violated, &mut row_emitter(self.sink, self.tracing));
            }
            self.active.pop_front();
            if let Some(g) = self.guard {
                let step = g.observe_query(latency);
                self.note_guard(step);
            }
        }
    }

    /// Closes the windows and completes the report.
    fn finish(mut self) -> RunReport {
        if let Some(ws) = self.windows.take() {
            self.report.windows = ws.finish(&mut row_emitter(self.sink, self.tracing));
        }
        self.report.wall = self.now;
        self.report.guard_level = self.guard.map(QosGuard::level);
        self.report.latency.shrink_to_fit();
        for svc in &mut self.report.services {
            svc.latency.shrink_to_fit();
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_sim::GpuSpec;
    use tacker_workloads::parboil::Benchmark;
    use tacker_workloads::Intensity;

    fn tiny_lc() -> LcService {
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        let mut kernels = Vec::new();
        for _ in 0..3 {
            kernels.push(tacker_workloads::gemm::gemm_workload(
                &gemm,
                tacker_workloads::gemm::GemmShape::new(2048, 1024, 512),
            ));
            kernels.push(tacker_workloads::dnn::elementwise::elementwise_workload(
                &tacker_workloads::dnn::elementwise::relu(),
                4_000_000,
            ));
        }
        LcService::new("tiny", 8, kernels)
    }

    fn tiny_be() -> BeApp {
        BeApp::new("cutcp", Intensity::Compute, Benchmark::Cutcp.task())
    }

    fn config() -> ExperimentConfig {
        ExperimentConfig::default().with_queries(30).with_seed(42)
    }

    fn device() -> Arc<Device> {
        Arc::new(Device::new(GpuSpec::rtx2080ti()))
    }

    fn base_run(device: &Arc<Device>) -> RunReport {
        ColocationRun::new(device, &config(), &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn bursty_arrivals_keep_rate_but_cluster() {
        let svc = [ServiceLoad {
            lc: tiny_lc(),
            mean_interarrival: SimTime::from_millis(2),
            seed: 7,
        }];
        let cfg = config().with_queries(40);
        let poisson = generate_arrivals(&svc, &cfg, &ArrivalSpec::Poisson).unwrap();
        let bursty = generate_arrivals(&svc, &cfg, &ArrivalSpec::Bursty { burst: 4 }).unwrap();
        assert_eq!(poisson[0].len(), 40);
        assert_eq!(bursty[0].len(), 40);
        // Burst members share the group head's arrival instant.
        assert_eq!(bursty[0][0], bursty[0][3]);
        assert_ne!(poisson[0][0], poisson[0][3]);
        // burst = 1 degenerates to the Poisson stream exactly.
        let one = generate_arrivals(&svc, &cfg, &ArrivalSpec::Bursty { burst: 1 }).unwrap();
        assert_eq!(one, poisson);
    }

    #[test]
    fn replay_streams_are_validated_and_sorted() {
        let svc = [ServiceLoad {
            lc: tiny_lc(),
            mean_interarrival: SimTime::from_millis(2),
            seed: 7,
        }];
        let cfg = config();
        assert!(generate_arrivals(&svc, &cfg, &ArrivalSpec::Replay(vec![])).is_err());
        assert!(generate_arrivals(&svc, &cfg, &ArrivalSpec::Replay(vec![vec![]])).is_err());
        let none = cfg.clone().with_queries(0);
        assert!(generate_arrivals(&svc, &none, &ArrivalSpec::Poisson).is_err());
        let replay =
            ArrivalSpec::Replay(vec![vec![SimTime::from_millis(5), SimTime::from_millis(1)]]);
        let out = generate_arrivals(&svc, &cfg, &replay).unwrap();
        assert_eq!(
            out[0],
            vec![SimTime::from_millis(1), SimTime::from_millis(5)]
        );
    }

    #[test]
    fn zero_fault_serve_options_are_batch_identical() {
        let device = device();
        let batch = base_run(&device);
        let served = ColocationRun::new(&device, &config(), &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .arrivals(ArrivalSpec::Poisson)
            .faults(FaultPlan::none())
            .latency_exact_limit(DEFAULT_EXACT_LIMIT)
            .steady_fast_path(true)
            .run()
            .unwrap();
        assert_eq!(batch.query_latencies(), served.query_latencies());
        assert_eq!(batch.be_kernels, served.be_kernels);
        assert_eq!(batch.fused_launches, served.fused_launches);
        assert_eq!(batch.wall, served.wall);
        assert_eq!(served.faults_injected, 0);
        assert_eq!(served.guard_steps, 0);
    }

    #[test]
    fn guard_on_zero_faults_is_batch_identical() {
        let device = device();
        let batch = base_run(&device);
        let guarded = ColocationRun::new(&device, &config(), &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .guarded(GuardConfig::default())
            .run()
            .unwrap();
        assert_eq!(batch.query_latencies(), guarded.query_latencies());
        assert_eq!(batch.be_kernels, guarded.be_kernels);
        assert_eq!(batch.wall, guarded.wall);
        assert_eq!(guarded.guard_steps, 0, "guard fired on a fault-free run");
        assert_eq!(guarded.guard_level, Some(crate::guard::GuardLevel::Fuse));
    }

    #[test]
    fn misprediction_faults_perturb_latencies_and_trip_the_guard() {
        let device = device();
        let batch = base_run(&device);
        let plan = FaultPlan::mispredicting(1.5, 0.5).with_seed(3);
        let faulted = ColocationRun::new(&device, &config(), &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .faults(plan.clone())
            .run()
            .unwrap();
        assert!(faulted.faults_injected > 0, "no faults applied");
        assert!(
            faulted.wall > batch.wall,
            "stretched kernels must stretch the run"
        );
        let guarded = ColocationRun::new(&device, &config(), &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .faults(plan)
            .guarded(GuardConfig::default())
            .run()
            .unwrap();
        assert!(guarded.guard_steps > 0, "guard never reacted");
        assert!(guarded.guard_level > Some(crate::guard::GuardLevel::Fuse));
    }

    #[test]
    fn outage_and_flood_faults_inject_and_complete() {
        let device = device();
        let plan = FaultPlan::none()
            .with_outage(SimTime::ZERO, SimTime::from_millis(5))
            .with_flood(SimTime::from_millis(1), 4);
        let r = ColocationRun::new(&device, &config(), &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .faults(plan)
            .run()
            .unwrap();
        assert_eq!(r.query_count(), 30);
        // Both the outage window and the flood burst fired.
        assert!(r.faults_injected >= 2, "got {}", r.faults_injected);
        assert!(r.be_kernels >= 4, "flood kernels must execute");
    }

    /// Everything a report carries, as text.
    fn text(r: &RunReport) -> String {
        format!("{r:?}\n{}", r.prometheus_text())
    }

    /// One windowed LC-only steady-state run, guarded or not: large gaps
    /// so most queries are alone in flight. Its busy-period segments too.
    fn steady_run(
        device: &Arc<Device>,
        fast: bool,
        guarded: bool,
    ) -> (Vec<(usize, usize)>, RunReport) {
        BUSY_SEGMENTS.with(|log| log.borrow_mut().clear());
        let mut run = ColocationRun::new(device, &config(), &[tiny_lc()], &[])
            .unwrap()
            .at(SimTime::from_micros(900))
            .windowed(SimTime::from_millis(1))
            .steady_fast_path(fast);
        if guarded {
            run = run.guarded(GuardConfig::default());
        }
        let report = run.run().unwrap();
        (BUSY_SEGMENTS.with(|log| log.take()), report)
    }

    #[test]
    fn fast_path_report_is_bit_identical_to_slow_path() {
        let device = device();
        let (segments, fast) = steady_run(&device, true, false);
        device.reset_stats();
        let (none, slow) = steady_run(&device, false, false);
        assert!(none.is_empty(), "the decision loop replayed");
        assert!(!segments.is_empty(), "a windowed run logged no segment");
        // Prove the fast run actually replayed from profiles: the slow
        // run probes the device cache for every kernel of every query,
        // the fast run only for warm-up and profile building.
        let (slow_hits, _) = device.cache_stats();
        device.reset_stats();
        let (_, again) = steady_run(&device, true, false);
        let (fast_hits, _) = device.cache_stats();
        assert!(
            fast_hits < slow_hits / 2,
            "fast path did not engage: {fast_hits} vs {slow_hits} cache hits"
        );
        assert_eq!(text(&again), text(&slow));
        assert_eq!(text(&fast), text(&slow));
        assert!(!fast.windows.is_empty());
        // A guard turns the replays off: the decision loop's report.
        let (guarded_segments, guarded) = steady_run(&device, true, true);
        let (_, decided) = steady_run(&device, false, true);
        assert!(guarded_segments.is_empty(), "a guarded run replayed");
        assert_eq!(text(&guarded), text(&decided));
    }

    #[test]
    fn replay_makes_no_per_kernel_probes_under_queueing() {
        // Arrivals far faster than a query runs keep many queries queued;
        // the replay probes the device only for warm-up and profiles.
        let device = device();
        let probes = |queries: usize, fast: bool| {
            device.reset_stats();
            let r = ColocationRun::new(&device, &config().with_queries(queries), &[tiny_lc()], &[])
                .unwrap()
                .at(SimTime::from_micros(50))
                .windowed(SimTime::from_millis(1))
                .steady_fast_path(fast)
                .run()
                .unwrap();
            let (hits, misses) = device.cache_stats();
            (
                hits + misses,
                r.windows.iter().map(|w| w.queue_depth_max).max(),
            )
        };
        let (few, _) = probes(10, true);
        let (many, depth) = probes(40, true);
        assert!(depth > Some(10), "arrivals did not queue: depth {depth:?}");
        assert_eq!(
            few, many,
            "busy-period replay did not engage: {many} vs {few} probes"
        );
        let (slow, _) = probes(40, false);
        assert!(
            slow >= 40 * 6,
            "the decision loop probes every kernel: {slow}"
        );
    }

    #[test]
    fn idle_replay_serves_be_kernels() {
        // Gaps of several solo query times leave idle periods that the
        // free-running BE app fills; windows and the timeline are on. The
        // tight target makes queries that queue behind BE work violate,
        // so under a guard the guard steps down its ladder and stops
        // admitting BE work mid-period.
        let device = device();
        let profiler = KernelProfiler::new(Arc::clone(&device));
        let solo = crate::server::solo_query_duration(&profiler, &tiny_lc()).unwrap();
        let mut cfg = config().with_timeline();
        cfg.qos_target = solo.mul_f64(1.1);
        let run = |fast: bool, guarded: bool| {
            device.reset_stats();
            BUSY_SEGMENTS.with(|log| log.borrow_mut().clear());
            IDLE_SEGMENTS.with(|log| log.borrow_mut().clear());
            let mut run = ColocationRun::new(&device, &cfg, &[tiny_lc()], &[tiny_be()])
                .unwrap()
                .at(solo.mul_f64(3.0))
                .windowed(SimTime::from_millis(1))
                .steady_fast_path(fast);
            if guarded {
                run = run.guarded(GuardConfig::default());
            }
            let r = run.run().unwrap();
            let idle: u64 = IDLE_SEGMENTS
                .with(|log| log.take())
                .iter()
                .map(|s| s.1)
                .sum();
            let busy = BUSY_SEGMENTS.with(|log| log.take()).len();
            (idle, busy, device.cache_stats(), r)
        };
        run(false, false); // warm the device: every run below reads it warm
        let (replayed, busy, fast_probes, fast) = run(true, false);
        let (none, no_busy, slow_probes, slow) = run(false, false);
        assert_eq!((none, no_busy), (0, 0), "the decision loop replayed");
        assert!(
            replayed * 2 > fast.be_kernels,
            "idle segments served {replayed} of {} BE kernels",
            fast.be_kernels
        );
        assert!(busy > 0, "no busy-period segment");
        // Every launch reads as a probe of the warm cache: each LC kernel
        // (alone or fused), each BE kernel and each fused launch.
        let (hits, misses) = fast_probes;
        let launches = 30 * 6 + fast.be_kernels + fast.fused_launches;
        assert!(
            misses == 0 && hits >= launches,
            "{hits} hits for {launches} launches"
        );
        assert_eq!(fast_probes, slow_probes, "device counters diverged");
        assert_eq!(text(&fast), text(&slow));
        // A guard turns the replays off: no segment, the decision loop's
        // report, with the guard stepping down mid-period.
        let (idle, busy, guarded_probes, guarded) = run(true, true);
        let (_, _, decided_probes, decided) = run(false, true);
        assert_eq!((idle, busy), (0, 0), "a guarded run replayed");
        assert!(guarded.guard_steps > 0, "the guard never stepped");
        assert_eq!(guarded_probes, decided_probes, "device counters diverged");
        assert_eq!(text(&guarded), text(&decided));
    }

    #[test]
    fn busy_replay_segments_stop_where_arrivals_are_due() {
        let device = device();
        let lc = tiny_lc();
        let profile = QueryProfile::measure(&device, &lc).unwrap();
        let solo = profile.solo();
        // Two queries due at once (the second already due when the first
        // starts), one landing exactly on the end of the second's
        // kernel 1 (a prefix sum), one after everything has retired, and
        // one a nanosecond into a kernel.
        let boundary = solo + profile.elapsed(0, 2);
        let late = solo * 10;
        let mid = late + profile.elapsed(0, 3) + SimTime::from_nanos(1);
        let stream = vec![SimTime::ZERO, SimTime::ZERO, boundary, late, mid];
        let run = |fast: bool| {
            BUSY_SEGMENTS.with(|log| log.borrow_mut().clear());
            let r = ColocationRun::new(&device, &config(), std::slice::from_ref(&lc), &[])
                .unwrap()
                .policy(Policy::LcOnly)
                .at(solo)
                .arrivals(ArrivalSpec::Replay(vec![stream.clone()]))
                .steady_fast_path(fast)
                .run()
                .unwrap();
            (BUSY_SEGMENTS.with(|log| log.take()), r)
        };
        let (segments, fast) = run(true);
        let (none, slow) = run(false);
        assert!(none.is_empty(), "the decision loop replayed");
        // Query 0 runs to retirement although query 2 is due later; query
        // 1 stops exactly at the boundary, the rest as the arrivals cut.
        assert_eq!(
            segments,
            [(0, 6), (0, 2), (2, 6), (0, 6), (0, 4), (4, 6), (0, 6)]
        );
        assert_eq!(text(&fast), text(&slow));
        let latencies = fast.query_latencies();
        assert_eq!(latencies[..2], [solo, solo * 2]);
        assert_eq!(latencies[3], solo);
    }

    /// An LC service of ReLUs (CUDA kernels) of the given element counts,
    /// with a GEMM (a Tensor kernel) at position `gemm_at`, if any.
    fn lc_of(relus: &[u64], gemm_at: Option<usize>) -> LcService {
        let relu = tacker_workloads::dnn::elementwise::relu();
        let mut kernels: Vec<_> = relus
            .iter()
            .map(|&n| tacker_workloads::dnn::elementwise::elementwise_workload(&relu, n))
            .collect();
        if let Some(at) = gemm_at {
            let gemm = tacker_workloads::dnn::compile::shared_gemm();
            let shape = tacker_workloads::gemm::GemmShape::new(2048, 1024, 512);
            kernels.insert(at, tacker_workloads::gemm::gemm_workload(&gemm, shape));
        }
        LcService::new("relus", 8, kernels)
    }

    /// The busy-period segments of a co-located run of `lc` against cutcp
    /// under `policy`, `cfg` and `guard` on the arrival `stream`, checked
    /// bit-identical (report and device counters) to the decision loop.
    fn colocated_segments(
        lc: &LcService,
        policy: Policy,
        cfg: &ExperimentConfig,
        guard: Option<GuardConfig>,
        stream: &[SimTime],
    ) -> (Vec<(usize, usize)>, RunReport) {
        let run = |fast: bool| {
            let device = device();
            BUSY_SEGMENTS.with(|log| log.borrow_mut().clear());
            let mut run = ColocationRun::new(&device, cfg, std::slice::from_ref(lc), &[tiny_be()])
                .unwrap()
                .policy(policy)
                .at(SimTime::from_millis(1))
                .arrivals(ArrivalSpec::Replay(vec![stream.to_vec()]))
                .steady_fast_path(fast);
            if let Some(guard) = guard.clone() {
                run = run.guarded(guard);
            }
            let r = run.run().unwrap();
            let counters = (device.cache_stats(), device.fused_cache_stats());
            (BUSY_SEGMENTS.with(|log| log.take()), counters, r)
        };
        let (segments, fast_counters, fast) = run(true);
        let (none, slow_counters, slow) = run(false);
        assert!(none.is_empty(), "the decision loop replayed");
        assert_eq!(text(&fast), text(&slow));
        assert_eq!(fast_counters, slow_counters, "device counters diverged");
        (segments, fast)
    }

    #[test]
    fn colocated_stretches_stop_at_unresolved_pairs_and_due_arrivals() {
        // FusionOnly never reorders, and ReLU × cutcp (two CUDA kernels)
        // never fuses, so every decision while a query is active is
        // RunLc. A walk stops right after a decision that meets a pair
        // first seen, and at its last head, which the RunLc arm launches;
        // only the kernels decided before that replay as a segment. Query
        // 0 resolves the pairs: its kernels 0, 1 and 3 each meet a pair
        // first seen, so kernel 2 (a ReLU of kernel 0's shape) replays,
        // and kernel 3 ends its walk. Query 1 arrives as query 0 retires,
        // and query 2 lands exactly on the end of query 1's kernel 1: the
        // first walk of query 1 ends there, at kernel 1, and the second
        // at the query's last kernel, and query 2 walks all four.
        let lc = lc_of(&[4_000_000, 2_000_000, 4_000_000, 1_000_000], None);
        let profile = QueryProfile::measure(&device(), &lc).unwrap();
        let solo = profile.solo();
        let stream = [SimTime::ZERO, solo, solo + profile.elapsed(0, 2)];
        let (segments, report) =
            colocated_segments(&lc, Policy::FusionOnly, &config(), None, &stream);
        assert_eq!(segments, [(2, 3), (0, 1), (2, 3), (0, 3)]);
        assert_eq!(report.query_latencies()[..2], [solo, solo]);
    }

    #[test]
    fn colocated_stretches_stop_at_fusions() {
        // GEMM × cutcp is a prepared pair, eligible until struck twice.
        // Query 0 resolves both pairs: kernel 0 meets ReLU × cutcp, and
        // the next walk replays kernel 1 and stops right after kernel 2
        // meets GEMM × cutcp. Query 1 comes long after: its walk replays
        // kernels 0 and 1 and stops at the GEMM, which fuses. Kernel 3 is
        // each query's last walk of one head.
        let lc = lc_of(&[4_000_000, 4_000_000, 4_000_000], Some(2));
        let solo = QueryProfile::measure(&device(), &lc).unwrap().solo();
        let stream = [SimTime::ZERO, solo * 20];
        let (segments, report) =
            colocated_segments(&lc, Policy::FusionOnly, &config(), None, &stream);
        assert_eq!(segments, [(1, 2), (0, 2)]);
        assert!(report.fused_launches > 0, "the pair never fused");
    }

    #[test]
    fn first_prediction_fits_inside_a_colocated_stretch() {
        // A target below the solo query time plus the safety margin
        // leaves no headroom, so Baymax never reorders. cutcp is
        // unpredicted when the lone query starts: kernel 0's decision
        // fits its model and answers from it, and every later one answers
        // from the history the fit recorded. Both are RunLc, and the walk
        // makes the decision loop's own calls, so the fit happens inside
        // the stretch: kernels 0 to 4 replay, and the last ends the walk.
        let lc = tiny_lc();
        let solo = QueryProfile::measure(&device(), &lc).unwrap().solo();
        let mut cfg = config();
        cfg.qos_target = solo.mul_f64(1.05);
        let (segments, _) = colocated_segments(&lc, Policy::Baymax, &cfg, None, &[SimTime::ZERO]);
        assert_eq!(segments, [(0, 5)]);
    }

    #[test]
    fn guarded_colocated_runs_decide_every_busy_kernel() {
        // A burst at time zero violates and walks the guard down its
        // ladder; the spaced queries after it meet the target, and after
        // enough calm launches the guard steps back up in the middle of a
        // query, re-allowing reorders and fusions that a walk decided at
        // the stretch's start would have ruled out.
        let lc = tiny_lc();
        let solo = QueryProfile::measure(&device(), &lc).unwrap().solo();
        let mut cfg = config();
        cfg.qos_target = solo * 3;
        let start = solo * 8;
        let mut stream = vec![SimTime::ZERO; 6];
        stream.extend((0..40).map(|i| start + solo.mul_f64(1.5) * i));
        let guard = Some(GuardConfig::default());
        let (segments, report) = colocated_segments(&lc, Policy::Tacker, &cfg, guard, &stream);
        assert!(segments.is_empty(), "a guarded co-located run replayed");
        let recovered = report.guard_log.iter().filter(|g| g.reason == "recovered");
        assert!(recovered.count() > 0, "the guard never stepped back up");
    }

    #[test]
    fn unsettled_predictions_keep_inception_with_dense_t_and_cutcp_exact() {
        // Baymax at load 0.5: judging reorder from a BE head's first
        // prediction (which fits its model) and deciding on the second
        // changed this run's report.
        let device = device();
        let lc = tacker_workloads::lc_service("Inception", &device).unwrap();
        let bes = ["Dense-T", "cutcp"].map(|b| tacker_workloads::be_app(b).unwrap());
        let cfg = ExperimentConfig::default().with_queries(150).with_seed(38);
        let text = |fast: bool| {
            let r = ColocationRun::new(&device, &cfg, std::slice::from_ref(&lc), &bes)
                .unwrap()
                .policy(Policy::Baymax)
                .at_load(0.5)
                .steady_fast_path(fast)
                .run()
                .unwrap();
            format!("{r:?}\n{}", r.prometheus_text())
        };
        assert_eq!(text(true), text(false));
    }

    #[test]
    fn idle_segments_stop_where_arrivals_are_due() {
        // Baymax with a target below the solo query time plus the safety
        // margin never reorders or fuses, so BE heads move only in idle
        // periods. The first idle period ends exactly after one iteration
        // of the task, which the decision loop runs kernel by kernel,
        // taking the copies. The task's last two kernels share a
        // definition, so the last one's prediction is settled by the model
        // the second fits before its first launch: only the missing copy
        // keeps that kernel in the loop.
        // Each later period starts with the decided kernel at the head
        // position, then replays as one segment to an arrival due: at a
        // whole-iteration boundary, 1 ns past a kernel boundary, inside the
        // first kernel, and 1 ns past three iterations from mid-task.
        // Fine windows and the timeline leave the segments as they are,
        // and receive each segment's kernels from its old head on.
        let measuring = device();
        let lc = tiny_lc();
        let solo = QueryProfile::measure(&measuring, &lc).unwrap().solo();
        let mut task = Benchmark::Mriq.task();
        task.extend(Benchmark::Cutcp.task());
        task.extend(Benchmark::Cutcp.task_scaled(2));
        let len = task.len();
        let d: Vec<SimTime> = task
            .iter()
            .map(|k| Head::new(k).run(&measuring).unwrap().duration)
            .collect();
        // The duration at position `p` of the endless task stream.
        let at = |p: usize| d[p % len];
        let cycle: SimTime = d.iter().copied().sum();
        let be = BeApp::new("mix", Intensity::Compute, task);
        let mut cfg = config();
        cfg.qos_target = solo.mul_f64(1.05);
        let ns = SimTime::from_nanos;
        let mut stream = vec![cycle];
        let mut end = cycle + solo;
        // Arrival 1, on the period's whole-iteration boundary.
        stream.push(end + at(0) + cycle * 2);
        end = stream[1] + solo;
        // Arrival 2, 1 ns into position 3's kernel.
        stream.push(end + at(1) + at(2) + ns(1));
        end += at(1) + at(2) + at(3) + solo;
        // Arrival 3, 1 ns into position 5's kernel.
        stream.push(end + at(4) + ns(1));
        end += at(4) + at(5) + solo;
        // Arrival 4, three iterations and 1 ns after position 6's kernel.
        stream.push(end + at(6) + cycle * 3 + ns(1));
        let run = |fast: bool, observed: bool| {
            let device = device();
            IDLE_SEGMENTS.with(|log| log.borrow_mut().clear());
            let cfg = if observed {
                cfg.clone().with_timeline()
            } else {
                cfg.clone()
            };
            let mut run = ColocationRun::new(
                &device,
                &cfg,
                std::slice::from_ref(&lc),
                std::slice::from_ref(&be),
            )
            .unwrap()
            .policy(Policy::Baymax)
            .at(SimTime::from_millis(1))
            .arrivals(ArrivalSpec::Replay(vec![stream.clone()]))
            .steady_fast_path(fast);
            if observed {
                run = run.windowed(SimTime::from_micros(10));
            }
            let r = run.run().unwrap();
            let counters = (device.cache_stats(), device.fused_cache_stats());
            (IDLE_SEGMENTS.with(|log| log.take()), counters, r)
        };
        for observed in [false, true] {
            let (segments, fast_counters, fast) = run(true, observed);
            let (none, slow_counters, slow) = run(false, observed);
            assert!(none.is_empty(), "the decision loop replayed");
            let l = len as u64;
            assert_eq!(
                segments,
                [(1, 2 * l), (2, 2), (5 % len, 1), (7 % len, 3 * l + 1)]
            );
            // The first period's kernels and each later period's decided
            // one went through the decision loop.
            let segmented: u64 = segments.iter().map(|&(_, m)| m).sum();
            assert_eq!(fast.be_kernels, l + 4 + segmented);
            let latencies = fast.query_latencies();
            assert_eq!(latencies[..2], [solo, solo]);
            assert_eq!(latencies[2], at(3) - ns(1) + solo);
            assert_eq!(latencies[3], at(5) - ns(1) + solo);
            assert_eq!(text(&fast), text(&slow));
            assert_eq!(fast_counters, slow_counters, "device counters diverged");
            assert_eq!(observed, !fast.windows.is_empty());
        }
    }

    #[test]
    fn merged_arrivals_match_a_sort_of_the_concatenation() {
        let mut rng = StdRng::seed_from_u64(5);
        for services in 1..5 {
            // Coarse times, so that ties across services and duplicates
            // within one stream are common.
            let streams: Vec<Vec<SimTime>> = (0..services)
                .map(|_| {
                    let len = rng.random::<u64>() % 40;
                    let mut s: Vec<SimTime> = (0..len)
                        .map(|_| SimTime::from_micros(rng.random::<u64>() % 20))
                        .collect();
                    s.sort();
                    s
                })
                .collect();
            let mut reference: Vec<(SimTime, usize)> = streams
                .iter()
                .enumerate()
                .flat_map(|(si, s)| s.iter().map(move |&t| (t, si)))
                .collect();
            reference.sort();
            assert_eq!(merged_arrivals(&streams), reference, "{streams:?}");
        }
        let tied = [vec![SimTime::ZERO; 3], vec![SimTime::ZERO, SimTime::ZERO]];
        let expect: Vec<(SimTime, usize)> = [0, 0, 0, 1, 1].map(|si| (SimTime::ZERO, si)).into();
        assert_eq!(merged_arrivals(&tied), expect);
        assert!(merged_arrivals(&[]).is_empty());
    }

    #[test]
    fn fast_path_timeline_matches_slow_path() {
        let device = device();
        let cfg = config().with_queries(12).with_timeline();
        let mut reports = [true, false].map(|fast| {
            ColocationRun::new(&device, &cfg, &[tiny_lc()], &[])
                .unwrap()
                .at(SimTime::from_micros(900))
                .steady_fast_path(fast)
                .run()
                .unwrap()
        });
        let slow = reports[1].timeline.take().unwrap();
        let fast = reports[0].timeline.take().unwrap();
        assert_eq!(fast.entries(), slow.entries());
        assert_eq!(fast.now(), slow.now());
    }

    #[test]
    fn fast_path_is_inert_under_tracing_and_faults() {
        // Tracing and faults each force the decision loop; the reports must
        // still be produced (and for faults, still perturbed).
        let device = device();
        let collector = Arc::new(tacker_trace::RingSink::unbounded());
        let traced = ColocationRun::new(&device, &config(), &[tiny_lc()], &[])
            .unwrap()
            .at(SimTime::from_micros(900))
            .traced(collector.clone())
            .run()
            .unwrap();
        assert_eq!(traced.query_count(), 30);
        assert!(!collector.events().is_empty(), "tracing must stay live");
        let faulted = ColocationRun::new(&device, &config(), &[tiny_lc()], &[])
            .unwrap()
            .at(SimTime::from_micros(900))
            .faults(FaultPlan::mispredicting(1.5, 0.5).with_seed(3))
            .run()
            .unwrap();
        assert!(faulted.faults_injected > 0);
    }

    #[test]
    fn explicit_interarrival_needs_single_service() {
        let device = device();
        let two = [tiny_lc(), tiny_lc()];
        let err = ColocationRun::new(&device, &config(), &two, &[])
            .unwrap()
            .at(SimTime::from_millis(1))
            .run();
        assert!(matches!(err, Err(TackerError::Config { .. })));
    }
}
