//! Fleet-scale serving: §IV's cluster deployment taken online.
//!
//! The paper deploys Tacker across a cluster by preparing fused kernels
//! for the GPUs that host the best-effort apps. Here each node scopes its
//! fusion library to the run's services and its own resident BE apps
//! ([`FleetNode::with_be`]), and this module *serves traffic* across the
//! fleet. A [`FleetRun`] stands up N [`FleetNode`]s with heterogeneous
//! GPU profiles (the paper evaluates RTX 2080 Ti and V100), generates
//! one fleet-level set of LC arrival streams, and routes every query to
//! a device through a pluggable [`DispatchPolicy`]:
//!
//! * **round-robin** — queries rotate over devices in arrival order;
//! * **least-outstanding** — fewest model-predicted queries still in
//!   flight on the device;
//! * **QoS-headroom** — the device whose predicted completion leaves the
//!   most Equation 8/9 slack against the query's deadline;
//! * **cache-affinity** — prefer a device whose fused-plan/execution
//!   cache is already warm for the query's plan-sequence fingerprint
//!   (ties broken by least-outstanding).
//!
//! Routing runs serially over the merged arrival stream against a
//! deterministic analytical model (per-device FIFO of predicted
//! completions, per-`(device, service)` zero-fault query service times
//! measured on scratch devices), so the assignment is a pure function of
//! the workload — independent of host parallelism. Execution then fans
//! out per device over the persistent `tacker-par` pool: each node serves
//! exactly its routed arrivals, the subsequence of the fleet's merged
//! stream routed to it, through the one serving engine behind
//! [`crate::serve::ColocationRun`], and the per-device [`RunReport`]s
//! merge in node order into a [`FleetReport`]. A fleet of one node with a
//! zero [`DispatchModel`] is bit-identical to the single-device serving
//! runtime: every policy routes every query to the only device, which
//! then serves the very stream the single-device run generates.
//!
//! The [`DispatchModel`] adds a constant dispatcher hop to every query:
//! arrivals land on the device `latency` later and the device-side QoS
//! budget shrinks by the same amount, so a fleet QoS violation is exactly
//! "dispatch latency + device latency exceeds the original target".

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use tacker_kernel::SimTime;
use tacker_sim::{Device, GpuSpec};
use tacker_trace::{NoopSink, TraceEvent, TraceSink};
use tacker_workloads::{BeApp, LcService};

use crate::config::ExperimentConfig;
use crate::error::TackerError;
use crate::guard::GuardConfig;
use crate::manager::Policy;
use crate::metrics::LatencyStats;
use crate::profile::{query_fingerprint, QueryProfile};
use crate::report::RunReport;
use crate::serve::{
    generate_arrivals, merged_arrivals, run_engine, ArrivalSpec, ServeOptions, ServiceLoad,
};
use crate::server::resolve_loads;

/// How the global dispatcher picks a device for each LC query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Rotate over devices in merged arrival order.
    RoundRobin,
    /// Fewest model-predicted queries still in flight; ties go to the
    /// lowest node index.
    LeastOutstanding,
    /// Most Equation 8/9 slack: route to the device whose predicted
    /// completion (queue drain + this query's service time) leaves the
    /// largest margin against the query's QoS deadline.
    QosHeadroom,
    /// Prefer devices whose execution/fused-plan cache is warm for the
    /// query's plan-sequence fingerprint; among warm (or, failing any,
    /// all) devices pick the least outstanding.
    CacheAffinity,
}

impl DispatchPolicy {
    /// Every policy, in comparison-table order.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastOutstanding,
        DispatchPolicy::QosHeadroom,
        DispatchPolicy::CacheAffinity,
    ];

    /// Stable kebab-case name (CLI/bench spelling).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
            DispatchPolicy::QosHeadroom => "qos-headroom",
            DispatchPolicy::CacheAffinity => "cache-affinity",
        }
    }

    /// Parses the kebab-case name.
    ///
    /// # Errors
    ///
    /// Returns [`TackerError::Config`] for unknown names.
    pub fn parse(name: &str) -> Result<DispatchPolicy, TackerError> {
        DispatchPolicy::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| TackerError::Config {
                reason: format!(
                    "unknown dispatch policy `{name}` (one of: {})",
                    DispatchPolicy::ALL.map(DispatchPolicy::name).join(", ")
                ),
            })
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The dispatch-latency model: a constant per-query hop between the
/// global dispatcher and the chosen device. Arrivals land on the device
/// `latency` later, the device-side QoS budget shrinks by `latency`, and
/// every reported end-to-end latency includes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchModel {
    /// Per-query dispatch latency.
    pub latency: SimTime,
}

impl DispatchModel {
    /// No dispatch cost — the identity-gate model.
    pub fn zero() -> DispatchModel {
        DispatchModel {
            latency: SimTime::ZERO,
        }
    }

    /// A constant per-query dispatch latency.
    pub fn constant(latency: SimTime) -> DispatchModel {
        DispatchModel { latency }
    }

    /// Sets the per-query dispatch latency.
    #[must_use]
    pub fn with_latency(mut self, latency: SimTime) -> Self {
        self.latency = latency;
        self
    }
}

/// One GPU of the serving fleet: an id, a device profile, and the BE
/// applications resident on it (empty for a dedicated LC node).
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// Node identifier (also the `device` field of dispatch trace rows).
    pub id: String,
    /// The GPU profile simulated for this node.
    pub spec: GpuSpec,
    /// BE applications co-located on this node.
    pub be: Vec<BeApp>,
}

impl FleetNode {
    /// A node with no resident BE work.
    pub fn new(id: impl Into<String>, spec: GpuSpec) -> FleetNode {
        FleetNode {
            id: id.into(),
            spec,
            be: Vec::new(),
        }
    }

    /// Adds a resident BE application.
    #[must_use]
    pub fn with_be(mut self, app: BeApp) -> FleetNode {
        self.be.push(app);
        self
    }
}

/// Builds a default heterogeneous fleet of `n` nodes alternating the
/// paper's two evaluation GPUs: even indices are RTX 2080 Ti profiles,
/// odd indices are V100 profiles. Node ids are `gpu-<i>`.
pub fn heterogeneous_fleet(n: usize) -> Vec<FleetNode> {
    (0..n)
        .map(|i| {
            let spec = if i % 2 == 0 {
                GpuSpec::rtx2080ti()
            } else {
                GpuSpec::v100()
            };
            FleetNode::new(format!("gpu-{i}"), spec)
        })
        .collect()
}

/// Per-device slice of a [`FleetReport`].
#[derive(Debug)]
pub struct FleetDeviceReport {
    /// Node id.
    pub id: String,
    /// GPU profile name.
    pub gpu: String,
    /// Queries routed to this device.
    pub queries: usize,
    /// Peak dispatcher-model outstanding queries observed at dispatch.
    pub max_outstanding: u64,
    /// Mean dispatcher-model outstanding queries over this device's
    /// dispatch events (0 when nothing was routed here).
    pub mean_outstanding: f64,
    /// The device's serving report (device-relative latencies; `None`
    /// when no query was routed to this device, in which case the node
    /// never runs). The fleet accessors fold the dispatch latency back
    /// in.
    pub report: Option<RunReport>,
}

impl FleetDeviceReport {
    /// Fraction of this device's wall time spent executing kernels.
    pub fn utilization(&self) -> f64 {
        self.report.as_ref().map_or(0.0, RunReport::utilization)
    }

    /// Simulated warm-query throughput: queries completed per second of
    /// this device's simulated wall time.
    pub fn sim_queries_per_sec(&self) -> f64 {
        match &self.report {
            Some(r) if r.wall > SimTime::ZERO => {
                r.query_count() as f64 / (r.wall.as_nanos() as f64 / 1e9)
            }
            _ => 0.0,
        }
    }
}

/// Per-service fleet aggregate: latency statistics and violations merged
/// over every device the service's queries were routed to.
#[derive(Debug)]
pub struct FleetServiceReport {
    /// Service name.
    pub name: String,
    /// Completed queries across the fleet.
    pub queries: usize,
    /// QoS violations across the fleet (against the original target —
    /// device-side accounting already charges the dispatch latency).
    pub qos_violations: usize,
    /// Merged device-relative latency statistics; add the fleet's
    /// dispatch latency for end-to-end numbers.
    pub latency: LatencyStats,
}

/// Outcome of one fleet serving run: the deterministic merge of every
/// per-device [`RunReport`] plus the dispatcher's own accounting.
#[derive(Debug)]
pub struct FleetReport {
    /// The dispatch policy used.
    pub dispatch_policy: DispatchPolicy,
    /// The on-device scheduling policy.
    pub device_policy: Policy,
    /// The original (fleet-level) QoS target.
    pub qos_target: SimTime,
    /// The constant per-query dispatch latency applied.
    pub dispatch_latency: SimTime,
    /// Per-device results, in node order.
    pub devices: Vec<FleetDeviceReport>,
    /// Per-service fleet aggregates, in service order.
    pub services: Vec<FleetServiceReport>,
    /// Merged device-relative latency statistics over every query.
    pub latency: LatencyStats,
    /// Fleet makespan: the largest per-device simulated wall time.
    pub wall: SimTime,
    /// Peak dispatcher-model outstanding over all dispatch events.
    pub outstanding_max: u64,
    /// Mean dispatcher-model outstanding over all dispatch events.
    pub outstanding_mean: f64,
}

impl FleetReport {
    /// Total completed queries across the fleet.
    pub fn query_count(&self) -> usize {
        self.services.iter().map(|s| s.queries).sum()
    }

    /// Total QoS violations across the fleet.
    pub fn qos_violations(&self) -> usize {
        self.services.iter().map(|s| s.qos_violations).sum()
    }

    /// QoS violation rate over all completed queries (0 when none ran).
    pub fn violation_rate(&self) -> f64 {
        let n = self.query_count();
        if n == 0 {
            0.0
        } else {
            self.qos_violations() as f64 / n as f64
        }
    }

    /// Mean end-to-end query latency, dispatch hop included (`None` when
    /// no query completed).
    pub fn mean_latency(&self) -> Option<SimTime> {
        self.latency.mean().map(|t| t + self.dispatch_latency)
    }

    /// 99th-percentile end-to-end query latency, dispatch hop included.
    /// The hop is a constant shift, so percentiles translate exactly.
    pub fn p99_latency(&self) -> Option<SimTime> {
        self.latency
            .percentile(99.0)
            .map(|t| t + self.dispatch_latency)
    }

    /// Load-balance skew: the peak over the mean dispatcher-model
    /// outstanding (1.0 = perfectly level; larger = burstier imbalance).
    pub fn outstanding_skew(&self) -> f64 {
        if self.outstanding_mean > 0.0 {
            self.outstanding_max as f64 / self.outstanding_mean
        } else {
            1.0
        }
    }

    /// Aggregate simulated warm-query throughput: total queries per
    /// second of fleet makespan. Devices run concurrently, so this is
    /// the number a load balancer in front of the fleet would observe.
    pub fn sim_queries_per_sec(&self) -> f64 {
        if self.wall > SimTime::ZERO {
            self.query_count() as f64 / (self.wall.as_nanos() as f64 / 1e9)
        } else {
            0.0
        }
    }
}

/// One dispatcher routing decision (kept for report assembly).
struct Assignment {
    device: usize,
    outstanding: u64,
}

/// Builder for fleet serving runs, mirroring
/// [`crate::serve::ColocationRun`] at cluster scale.
///
/// ```no_run
/// use tacker::fleet::{heterogeneous_fleet, DispatchPolicy, FleetRun};
/// use tacker::prelude::*;
///
/// let device = std::sync::Arc::new(tacker_sim::Device::new(tacker_sim::GpuSpec::rtx2080ti()));
/// let lc = tacker_workloads::lc_service("Resnet50", &device).unwrap();
/// let config = ExperimentConfig::default();
/// let report = FleetRun::new(heterogeneous_fleet(4), &config, &[lc])
///     .unwrap()
///     .dispatch_policy(DispatchPolicy::QosHeadroom)
///     .run()
///     .unwrap();
/// println!("violation rate {:.4}", report.violation_rate());
/// ```
pub struct FleetRun {
    nodes: Vec<FleetNode>,
    config: ExperimentConfig,
    lcs: Vec<LcService>,
    device_policy: Policy,
    dispatch_policy: DispatchPolicy,
    dispatch: DispatchModel,
    arrivals: ArrivalSpec,
    mean_interarrival: Option<SimTime>,
    loads: Option<Vec<ServiceLoad>>,
    guard: Option<GuardConfig>,
    window: Option<SimTime>,
    fast_path: bool,
    sink: Arc<dyn TraceSink>,
}

impl FleetRun {
    /// Starts a fleet run of `lcs` over `nodes` with round-robin
    /// dispatch, zero dispatch latency, `Policy::Tacker` on-device, and
    /// calibrated per-service load.
    ///
    /// # Errors
    ///
    /// Returns [`TackerError::Config`] when the fleet or service list is
    /// empty, or a service has no kernels.
    pub fn new(
        nodes: Vec<FleetNode>,
        config: &ExperimentConfig,
        lcs: &[LcService],
    ) -> Result<FleetRun, TackerError> {
        if nodes.is_empty() {
            return Err(TackerError::Config {
                reason: "fleet needs at least one node".to_string(),
            });
        }
        if lcs.is_empty() || lcs.iter().any(|s| s.query_kernels().is_empty()) {
            return Err(TackerError::Config {
                reason: "need at least one LC service, each with kernels".to_string(),
            });
        }
        Ok(FleetRun {
            nodes,
            config: config.clone(),
            lcs: lcs.to_vec(),
            device_policy: Policy::Tacker,
            dispatch_policy: DispatchPolicy::RoundRobin,
            dispatch: DispatchModel::zero(),
            arrivals: ArrivalSpec::Poisson,
            mean_interarrival: None,
            loads: None,
            guard: None,
            window: None,
            fast_path: true,
            sink: Arc::new(NoopSink),
        })
    }

    /// Selects the on-device scheduling policy (default
    /// [`Policy::Tacker`]).
    #[must_use]
    pub fn device_policy(mut self, policy: Policy) -> Self {
        self.device_policy = policy;
        self
    }

    /// Selects the dispatch policy (default
    /// [`DispatchPolicy::RoundRobin`]).
    #[must_use]
    pub fn dispatch_policy(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch_policy = policy;
        self
    }

    /// Sets the dispatch-latency model (default [`DispatchModel::zero`]).
    #[must_use]
    pub fn dispatch_model(mut self, model: DispatchModel) -> Self {
        self.dispatch = model;
        self
    }

    /// Selects the fleet-level arrival process (default Poisson).
    #[must_use]
    pub fn arrivals(mut self, spec: ArrivalSpec) -> Self {
        self.arrivals = spec;
        self
    }

    /// Uses an explicit mean query inter-arrival time (single service
    /// only), skipping peak-load calibration.
    #[must_use]
    pub fn at(mut self, mean_interarrival: SimTime) -> Self {
        self.mean_interarrival = Some(mean_interarrival);
        self
    }

    /// Uses explicit per-service loads, overriding the services given to
    /// `new`.
    #[must_use]
    pub fn with_loads(mut self, loads: &[ServiceLoad]) -> Self {
        self.loads = Some(loads.to_vec());
        self
    }

    /// Arms the adaptive QoS guard on every device.
    #[must_use]
    pub fn guarded(mut self, config: GuardConfig) -> Self {
        self.guard = Some(config);
        self
    }

    /// Enables per-device windowed telemetry with the given width.
    #[must_use]
    pub fn windowed(mut self, width: SimTime) -> Self {
        self.window = Some(width);
        self
    }

    /// Enables or disables the per-device busy-period replay
    /// (default on).
    #[must_use]
    pub fn steady_fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// Streams one [`TraceEvent::QueryDispatched`] per routing decision
    /// to `sink`. Fleet tracing covers the dispatcher only: per-device
    /// engines run untraced so their event streams cannot interleave
    /// non-deterministically across pool workers.
    #[must_use]
    pub fn traced(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Executes the run under the configured dispatch policy.
    ///
    /// # Errors
    ///
    /// Propagates simulation/fusion errors and returns
    /// [`TackerError::Config`] for unusable setups (zero queries, a load
    /// factor outside `(0, 1]`, or a dispatch latency at or above the QoS
    /// target).
    pub fn run(&self) -> Result<FleetReport, TackerError> {
        self.run_with(self.dispatch_policy)
    }

    /// Runs once per given dispatch policy over the *same* workload
    /// (identical fleet-level arrival streams), returning the reports in
    /// policy order — the per-policy comparison table.
    ///
    /// # Errors
    ///
    /// As [`FleetRun::run`].
    pub fn run_policies(
        &self,
        policies: &[DispatchPolicy],
    ) -> Result<Vec<(DispatchPolicy, FleetReport)>, TackerError> {
        policies
            .iter()
            .map(|&p| Ok((p, self.run_with(p)?)))
            .collect()
    }

    fn run_with(&self, dispatch_policy: DispatchPolicy) -> Result<FleetReport, TackerError> {
        if self.dispatch.latency >= self.config.qos_target {
            return Err(TackerError::Config {
                reason: format!(
                    "dispatch latency {} consumes the whole QoS target {}",
                    self.dispatch.latency, self.config.qos_target
                ),
            });
        }
        // Calibration is pure per GPU profile: run it on a fresh device
        // of the first node's profile.
        let services = resolve_loads(
            &self.config,
            &self.lcs,
            self.loads.as_deref(),
            self.mean_interarrival,
            || Arc::new(Device::new(self.nodes[0].spec.clone())),
        )?;
        let merged = merged_arrivals(&generate_arrivals(&services, &self.config, &self.arrivals)?);

        // Per-(device, service) zero-fault query profiles, measured
        // on the process-wide device of each GPU profile
        // ([`profile_device`]). Its runs are memoized simulations — pure
        // and deterministic per profile — so every fleet device below forks
        // that cache instead of simulating the same kernels again, and a
        // later fleet run in the same process starts warm. Cache-affinity
        // routing models warmth in the dispatcher (its `warm` sets), not
        // through these host-side simulation caches.
        let profiles: Vec<Arc<Device>> = self
            .nodes
            .iter()
            .map(|node| profile_device(&node.spec))
            .collect();
        let mut measured: Vec<Vec<Arc<QueryProfile>>> = Vec::with_capacity(self.nodes.len());
        for (d, dev) in profiles.iter().enumerate() {
            // Nodes of one GPU profile share its device and its profiles.
            if let Some(same) = profiles[..d].iter().position(|p| Arc::ptr_eq(p, dev)) {
                measured.push(measured[same].clone());
                continue;
            }
            let row = services
                .iter()
                .map(|svc| QueryProfile::measure(dev, &svc.lc).map(Arc::new))
                .collect::<Result<_, _>>()?;
            measured.push(row);
        }
        let service_time: Vec<Vec<SimTime>> = measured
            .iter()
            .map(|row| row.iter().map(|p| p.solo()).collect())
            .collect();
        // Plan-sequence fingerprints (device-independent) for affinity.
        let service_fp: Vec<u64> = services
            .iter()
            .map(|svc| query_fingerprint(&svc.lc))
            .collect();

        let assignments = self.route(
            dispatch_policy,
            &services,
            &merged,
            &service_time,
            &service_fp,
        );

        // Routed queries per (device, service), and the dispatcher's
        // outstanding counts per device as (sum, count, max).
        let n = self.nodes.len();
        let mut routed = vec![vec![0usize; services.len()]; n];
        let mut outstanding = vec![(0u64, 0u64, 0u64); n];
        for ((_, s), a) in merged.iter().zip(&assignments) {
            routed[a.device][*s] += 1;
            let e = &mut outstanding[a.device];
            e.0 += a.outstanding;
            e.1 += 1;
            e.2 = e.2.max(a.outstanding);
        }
        let streams = device_streams(merged, assignments, &routed, self.dispatch.latency);
        let mut device_config = self.config.clone();
        device_config.qos_target = self.config.qos_target.saturating_sub(self.dispatch.latency);

        struct DeviceTask {
            services: Vec<ServiceLoad>,
            arrivals: Vec<(SimTime, usize)>,
            measured: Vec<Arc<QueryProfile>>,
            be: Vec<BeApp>,
            device: Arc<Device>,
        }
        let tasks: Vec<Option<DeviceTask>> = self
            .nodes
            .iter()
            .zip(streams)
            .enumerate()
            .map(|(d, (node, arrivals))| {
                if arrivals.is_empty() {
                    return None;
                }
                let served = (0..services.len()).filter(|&s| routed[d][s] > 0);
                Some(DeviceTask {
                    services: served.clone().map(|s| services[s].clone()).collect(),
                    arrivals,
                    measured: served.map(|s| Arc::clone(&measured[d][s])).collect(),
                    be: node.be.clone(),
                    device: Arc::new(profiles[d].fork()),
                })
            })
            .collect();

        let policy = self.device_policy;
        let opts = self.device_options();
        let reports: Vec<Option<Result<RunReport, TackerError>>> =
            tacker_par::pool_map(self.jobs_used(), tasks, move |_, task| {
                let task = task.as_ref()?;
                Some(run_engine(
                    &task.device,
                    &task.services,
                    &task.be,
                    policy,
                    &device_config,
                    Arc::new(NoopSink),
                    &opts,
                    &task.arrivals,
                    Some(task.measured.clone()),
                    None,
                ))
            });

        self.merge(dispatch_policy, &services, &routed, &outstanding, reports)
    }

    /// The serve options every device runs under.
    fn device_options(&self) -> ServeOptions {
        ServeOptions {
            faults: crate::fault::FaultPlan::none(),
            guard: self.guard.clone(),
            exact_limit: crate::metrics::DEFAULT_EXACT_LIMIT,
            window: self.window,
            fast_path: self.fast_path,
        }
    }

    /// The worker count a run uses for its per-device serving: the
    /// configured jobs resolved against the host and the node count.
    /// Results do not depend on it.
    pub fn jobs_used(&self) -> usize {
        tacker_par::planned_jobs(self.config.jobs, self.nodes.len(), u64::MAX)
    }

    /// The deterministic router: walks the merged fleet stream in order
    /// (by `(arrival, service)`, each service's queries in stream order)
    /// and assigns each query a device under `policy`, maintaining a
    /// per-device model: the predicted free time of the device's single
    /// FIFO, the predicted completion instants still in flight, and (for
    /// [`DispatchPolicy::CacheAffinity`], the one policy that reads them)
    /// the warm plan fingerprints. A device's completions are
    /// nondecreasing (each starts no earlier than the last one finished)
    /// and landing times are too (the stream is sorted), so the in-flight
    /// completions are a FIFO that retires from its front.
    fn route(
        &self,
        policy: DispatchPolicy,
        services: &[ServiceLoad],
        merged: &[(SimTime, usize)],
        service_time: &[Vec<SimTime>],
        service_fp: &[u64],
    ) -> Vec<Assignment> {
        let n = self.nodes.len();
        let tracing = self.sink.enabled();
        let mut free_at = vec![SimTime::ZERO; n];
        let mut in_flight: Vec<VecDeque<SimTime>> = vec![VecDeque::new(); n];
        let affinity = policy == DispatchPolicy::CacheAffinity;
        let mut warm: Vec<HashSet<u64>> = vec![HashSet::new(); n];
        let mut assignments = Vec::with_capacity(merged.len());
        for (i, &(at, s)) in merged.iter().enumerate() {
            let land = at + self.dispatch.latency;
            for fl in &mut in_flight {
                while fl.front().is_some_and(|&f| f <= land) {
                    fl.pop_front();
                }
            }
            let outstanding = |d: usize| in_flight[d].len();
            let least = |candidates: &mut dyn Iterator<Item = usize>| -> usize {
                candidates
                    .min_by_key(|&d| (outstanding(d), d))
                    .expect("fleet is non-empty")
            };
            let d = match policy {
                DispatchPolicy::RoundRobin => i % n,
                DispatchPolicy::LeastOutstanding => least(&mut (0..n)),
                DispatchPolicy::QosHeadroom => {
                    // Equation 8/9 slack at the dispatcher: deadline minus
                    // predicted completion behind the device's queue.
                    (0..n)
                        .max_by_key(|&d| {
                            let start = land.max(free_at[d]);
                            let finish = start + service_time[d][s];
                            let deadline = at + self.config.qos_target;
                            // Negative slack sorts below zero slack.
                            (
                                deadline.as_nanos() as i128 - finish.as_nanos() as i128,
                                usize::MAX - d,
                            )
                        })
                        .expect("fleet is non-empty")
                }
                DispatchPolicy::CacheAffinity => {
                    let fp = service_fp[s];
                    let mut warm_devices = (0..n).filter(|&d| warm[d].contains(&fp));
                    match warm_devices.next() {
                        Some(first) => least(&mut std::iter::once(first).chain(warm_devices)),
                        None => least(&mut (0..n)),
                    }
                }
            };
            let start = land.max(free_at[d]);
            let finish = start + service_time[d][s];
            free_at[d] = finish;
            in_flight[d].push_back(finish);
            if affinity {
                warm[d].insert(service_fp[s]);
            }
            let outstanding = in_flight[d].len() as u64;
            if tracing {
                self.sink.record(TraceEvent::QueryDispatched {
                    at,
                    service: services[s].lc.name().into(),
                    device: self.nodes[d].id.as_str().into(),
                    latency: self.dispatch.latency,
                    outstanding,
                });
            }
            assignments.push(Assignment {
                device: d,
                outstanding,
            });
        }
        if tracing {
            self.sink.flush();
        }
        assignments
    }

    /// Deterministic merge of per-device reports (node order) into the
    /// fleet report, given the queries routed per (device, service) and
    /// each device's dispatcher outstanding counts as (sum, count, max).
    fn merge(
        &self,
        dispatch_policy: DispatchPolicy,
        services: &[ServiceLoad],
        routed: &[Vec<usize>],
        outstanding: &[(u64, u64, u64)],
        reports: Vec<Option<Result<RunReport, TackerError>>>,
    ) -> Result<FleetReport, TackerError> {
        let mut fleet_services: Vec<FleetServiceReport> = services
            .iter()
            .map(|svc| FleetServiceReport {
                name: svc.lc.name().to_string(),
                queries: 0,
                qos_violations: 0,
                latency: LatencyStats::with_limit(crate::metrics::DEFAULT_EXACT_LIMIT),
            })
            .collect();
        let mut fleet_latency = LatencyStats::with_limit(crate::metrics::DEFAULT_EXACT_LIMIT);
        let mut devices = Vec::with_capacity(self.nodes.len());
        let mut wall = SimTime::ZERO;
        for (d, (node, slot)) in self.nodes.iter().zip(reports).enumerate() {
            let report = match slot {
                Some(r) => Some(r?),
                None => None,
            };
            if let Some(r) = &report {
                wall = wall.max(r.wall);
                fleet_latency.merge(&r.latency);
                // The device kept only routed services, in fleet order.
                let svc_map: Vec<usize> =
                    (0..services.len()).filter(|&s| routed[d][s] > 0).collect();
                debug_assert_eq!(svc_map.len(), r.per_service().len());
                for (dev_s, &s) in svc_map.iter().enumerate() {
                    let from = &r.per_service()[dev_s];
                    let to = &mut fleet_services[s];
                    to.queries += from.query_count();
                    to.qos_violations += from.qos_violations;
                    to.latency.merge(&from.latency);
                }
            }
            let (sum, count, max) = outstanding[d];
            devices.push(FleetDeviceReport {
                id: node.id.clone(),
                gpu: node.spec.name.clone(),
                queries: count as usize,
                max_outstanding: max,
                mean_outstanding: if count > 0 {
                    sum as f64 / count as f64
                } else {
                    0.0
                },
                report,
            });
        }
        fleet_latency.shrink_to_fit();
        for svc in &mut fleet_services {
            svc.latency.shrink_to_fit();
        }
        let total_events: u64 = outstanding.iter().map(|e| e.1).sum();
        let total_sum: u64 = outstanding.iter().map(|e| e.0).sum();
        let outstanding_max = outstanding.iter().map(|e| e.2).max().unwrap_or(0);
        Ok(FleetReport {
            dispatch_policy,
            device_policy: self.device_policy,
            qos_target: self.config.qos_target,
            dispatch_latency: self.dispatch.latency,
            devices,
            services: fleet_services,
            latency: fleet_latency,
            wall,
            outstanding_max,
            outstanding_mean: if total_events > 0 {
                total_sum as f64 / total_events as f64
            } else {
                0.0
            },
        })
    }
}

/// Hands each device its arrivals: the subsequence of the fleet's
/// `merged` stream that `assignments` routed to it, shifted by the
/// dispatch `latency`, with each fleet service renumbered to its index
/// among the services `routed` to that device (`routed[d][s]` counts
/// service `s`'s queries on device `d`). The renumbering keeps the
/// order, so each stream is in [`merged_arrivals`] order over the
/// device's own services, ties included.
fn device_streams(
    merged: Vec<(SimTime, usize)>,
    assignments: Vec<Assignment>,
    routed: &[Vec<usize>],
    latency: SimTime,
) -> Vec<Vec<(SimTime, usize)>> {
    let local: Vec<Vec<usize>> = routed
        .iter()
        .map(|row| {
            row.iter()
                .scan(0, |next, &count| {
                    let at = *next;
                    *next += usize::from(count > 0);
                    Some(at)
                })
                .collect()
        })
        .collect();
    let mut streams: Vec<Vec<(SimTime, usize)>> = routed
        .iter()
        .map(|row| Vec::with_capacity(row.iter().sum()))
        .collect();
    for ((at, s), a) in merged.into_iter().zip(assignments) {
        streams[a.device].push((at + latency, local[a.device][s]));
    }
    streams
}

/// The process-wide device of a GPU profile: one memoized simulation
/// cache per distinct spec (compared in full, not by name), shared by
/// every fleet run in the process. Fleet runs measure service times on it
/// and fork their node devices from it, so each kernel is simulated once
/// per profile rather than once per node device per run.
fn profile_device(spec: &GpuSpec) -> Arc<Device> {
    static DEVICES: OnceLock<Mutex<Vec<Arc<Device>>>> = OnceLock::new();
    let mut devices = DEVICES
        .get_or_init(Mutex::default)
        .lock()
        .expect("profile devices poisoned");
    if let Some(dev) = devices.iter().find(|d| d.spec() == spec) {
        return Arc::clone(dev);
    }
    let dev = Arc::new(Device::new(spec.clone()));
    devices.push(Arc::clone(&dev));
    dev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ColocationRun;
    use tacker_trace::RingSink;
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
        ExperimentConfig::default().with_queries(24).with_seed(42)
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(DispatchPolicy::parse("stochastic").is_err());
    }

    #[test]
    fn heterogeneous_fleet_alternates_specs() {
        let nodes = heterogeneous_fleet(3);
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].spec.name, "RTX 2080Ti");
        assert_eq!(nodes[1].spec.name, "V100");
        assert_eq!(nodes[2].spec.name, "RTX 2080Ti");
        assert_eq!(nodes[2].id, "gpu-2");
    }

    #[test]
    fn fleet_of_one_is_bit_identical_to_single_device() {
        let cfg = config();
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let solo = ColocationRun::new(&device, &cfg, &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .run()
            .unwrap();
        for policy in DispatchPolicy::ALL {
            let nodes = vec![FleetNode::new("gpu-0", GpuSpec::rtx2080ti()).with_be(tiny_be())];
            let fleet = FleetRun::new(nodes, &cfg, &[tiny_lc()])
                .unwrap()
                .dispatch_policy(policy)
                .run()
                .unwrap();
            let dev = fleet.devices[0].report.as_ref().unwrap();
            assert_eq!(dev.query_latencies(), solo.query_latencies());
            assert_eq!(dev.qos_violations(), solo.qos_violations());
            assert_eq!(dev.wall, solo.wall);
            assert_eq!(dev.busy, solo.busy);
            assert_eq!(dev.fused_launches, solo.fused_launches);
            assert_eq!(dev.be_work, solo.be_work);
            assert_eq!(fleet.query_count(), solo.query_count());
            assert_eq!(fleet.mean_latency(), solo.mean_latency());
        }
    }

    #[test]
    fn jobs_used_is_the_planned_pool() {
        let cfg = config().with_jobs(4);
        let fleet = || FleetRun::new(heterogeneous_fleet(3), &cfg, &[tiny_lc()]).unwrap();
        let pooled = 4.min(tacker_par::available_jobs()).min(3);
        // Every device fans out, whether it serves by segment or decides
        // each kernel.
        for run in [
            fleet(),
            fleet().windowed(SimTime::from_millis(10)),
            fleet().guarded(GuardConfig::default()),
            fleet().steady_fast_path(false),
        ] {
            assert_eq!(run.jobs_used(), pooled);
        }
    }

    #[test]
    fn device_streams_are_the_merge_of_their_routed_services() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let latency = SimTime::from_micros(3);
        for case in 0..64 {
            let services = 1 + case % 4;
            let devices = 2 + case % 3;
            // Coarse times, so that ties across services are common.
            let streams: Vec<Vec<SimTime>> = (0..services)
                .map(|_| {
                    let len = rng.random::<u64>() % 30;
                    let mut s: Vec<SimTime> = (0..len)
                        .map(|_| SimTime::from_micros(rng.random::<u64>() % 8))
                        .collect();
                    s.sort();
                    s
                })
                .collect();
            let merged = merged_arrivals(&streams);
            let assignments: Vec<Assignment> = merged
                .iter()
                .map(|_| Assignment {
                    device: rng.random::<u64>() as usize % devices,
                    outstanding: 0,
                })
                .collect();
            // The per-service construction: split each device's queries by
            // service, keep its non-empty streams in fleet order, merge.
            let mut split = vec![vec![Vec::new(); services]; devices];
            let mut routed = vec![vec![0; services]; devices];
            for (&(at, s), a) in merged.iter().zip(&assignments) {
                split[a.device][s].push(at + latency);
                routed[a.device][s] += 1;
            }
            let expect: Vec<Vec<(SimTime, usize)>> = split
                .into_iter()
                .map(|per_service| {
                    let kept: Vec<Vec<SimTime>> =
                        per_service.into_iter().filter(|s| !s.is_empty()).collect();
                    merged_arrivals(&kept)
                })
                .collect();
            assert_eq!(
                device_streams(merged, assignments, &routed, latency),
                expect,
                "{streams:?}"
            );
        }
    }

    #[test]
    fn round_robin_splits_queries_evenly() {
        let report = FleetRun::new(heterogeneous_fleet(2), &config(), &[tiny_lc()])
            .unwrap()
            .run()
            .unwrap();
        let a = report.devices[0].queries;
        let b = report.devices[1].queries;
        assert_eq!(a + b, 24);
        assert_eq!(a, 12);
        assert_eq!(b, 12);
        assert_eq!(report.query_count(), 24);
        // Both device reports exist and the fleet wall is their max.
        let walls: Vec<SimTime> = report
            .devices
            .iter()
            .map(|d| d.report.as_ref().unwrap().wall)
            .collect();
        assert_eq!(report.wall, walls[0].max(walls[1]));
    }

    #[test]
    fn cache_affinity_sticks_to_the_warm_device() {
        let report = FleetRun::new(heterogeneous_fleet(2), &config(), &[tiny_lc()])
            .unwrap()
            .dispatch_policy(DispatchPolicy::CacheAffinity)
            .run()
            .unwrap();
        // One service: the first query warms gpu-0, every later query
        // prefers it; gpu-1 never runs.
        assert_eq!(report.devices[0].queries, 24);
        assert_eq!(report.devices[1].queries, 0);
        assert!(report.devices[1].report.is_none());
        assert_eq!(report.devices[1].utilization(), 0.0);
    }

    #[test]
    fn dispatch_latency_shifts_latencies_by_a_constant() {
        let cfg = config();
        let hop = SimTime::from_millis(2);
        let base = FleetRun::new(heterogeneous_fleet(1), &cfg, &[tiny_lc()])
            .unwrap()
            .run()
            .unwrap();
        let shifted = FleetRun::new(heterogeneous_fleet(1), &cfg, &[tiny_lc()])
            .unwrap()
            .dispatch_model(DispatchModel::constant(hop))
            .run()
            .unwrap();
        // The device schedule translates in time, so device-relative
        // latencies are unchanged and end-to-end adds exactly the hop.
        let dev_base = base.devices[0].report.as_ref().unwrap();
        let dev_shifted = shifted.devices[0].report.as_ref().unwrap();
        assert_eq!(dev_base.query_latencies(), dev_shifted.query_latencies());
        assert_eq!(
            shifted.mean_latency().unwrap(),
            base.mean_latency().unwrap() + hop
        );
        assert_eq!(
            shifted.p99_latency().unwrap(),
            base.p99_latency().unwrap() + hop
        );
        // Violations are judged against the original target: the device
        // budget shrank by the hop.
        let target = cfg.qos_target;
        let expect: usize = dev_base
            .query_latencies()
            .iter()
            .filter(|&&l| l + hop > target)
            .count();
        assert_eq!(shifted.qos_violations(), expect);
    }

    #[test]
    fn dispatch_latency_must_leave_qos_budget() {
        let cfg = config();
        let err = FleetRun::new(heterogeneous_fleet(1), &cfg, &[tiny_lc()])
            .unwrap()
            .dispatch_model(DispatchModel::constant(cfg.qos_target))
            .run()
            .unwrap_err();
        assert!(matches!(err, TackerError::Config { .. }));
    }

    #[test]
    fn run_policies_compares_on_identical_arrivals() {
        let rows = FleetRun::new(heterogeneous_fleet(2), &config(), &[tiny_lc()])
            .unwrap()
            .run_policies(&DispatchPolicy::ALL)
            .unwrap();
        assert_eq!(rows.len(), 4);
        for (policy, report) in &rows {
            assert_eq!(report.dispatch_policy, *policy);
            assert_eq!(report.query_count(), 24);
        }
    }

    #[test]
    fn dispatcher_trace_covers_every_query() {
        let sink = Arc::new(RingSink::unbounded());
        let report = FleetRun::new(heterogeneous_fleet(2), &config(), &[tiny_lc()])
            .unwrap()
            .dispatch_policy(DispatchPolicy::LeastOutstanding)
            .traced(sink.clone())
            .run()
            .unwrap();
        let events = sink.events();
        let dispatches: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::QueryDispatched {
                    device,
                    outstanding,
                    ..
                } => Some((device.clone(), *outstanding)),
                _ => None,
            })
            .collect();
        assert_eq!(dispatches.len(), report.query_count());
        assert!(dispatches.iter().all(|(_, o)| *o >= 1));
        assert!(dispatches.iter().any(|(d, _)| &**d == "gpu-0"));
        assert_eq!(
            report.outstanding_max,
            dispatches.iter().map(|(_, o)| *o).max().unwrap()
        );
    }
}
