//! The unified co-location run report.
//!
//! One [`RunReport`] describes every kind of run — single- or
//! multi-service, batch or serving. Per-service
//! latency results live behind [`RunReport::per_service`]; the aggregate
//! accessors ([`RunReport::p99_latency`] and friends) fold over all
//! services and return `None` instead of a fake zero when a run completed
//! no queries.

use std::fmt::Write as _;

use tacker_kernel::SimTime;
use tacker_sim::TimelineRecorder;
use tacker_trace::timeseries::WindowRow;
use tacker_trace::MetricsRegistry;

use crate::guard::GuardLevel;
use crate::manager::Policy;
use crate::metrics::LatencyStats;

/// Per-service results of a co-location run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Service name.
    pub name: String,
    /// Latency statistics over completed queries: exact samples for small
    /// runs, a fixed-memory quantile sketch above the retention limit.
    pub latency: LatencyStats,
    /// Queries that missed the QoS target.
    pub qos_violations: usize,
}

impl ServiceReport {
    /// Completed queries.
    pub fn query_count(&self) -> usize {
        self.latency.count()
    }

    /// Mean query latency (`None` when no query completed).
    pub fn mean_latency(&self) -> Option<SimTime> {
        self.latency.mean()
    }

    /// 99th-percentile query latency (`None` when no query completed).
    /// Exact in sample mode, sketch-estimated within
    /// `QuantileSketch::RELATIVE_ERROR` in sketch mode.
    pub fn p99_latency(&self) -> Option<SimTime> {
        self.latency.percentile(99.0)
    }
}

/// Attribution for one QoS violation: the runtime context a violating
/// query completed under, answering *why* the target was missed.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Completion instant of the violating query.
    pub at: SimTime,
    /// The service whose query violated.
    pub service: String,
    /// End-to-end latency of the query.
    pub latency: SimTime,
    /// The QoS target it missed.
    pub target: SimTime,
    /// Guard ladder level in effect at completion (`None` when the guard
    /// was disarmed).
    pub guard_level: Option<GuardLevel>,
    /// Fault classes injected while the query was in flight
    /// (`"mispredict"`, `"straggler"`, `"be_flood"`,
    /// `"predictor_outage"`), empty when none fired.
    pub faults: Vec<&'static str>,
    /// The last co-running BE kernel launched before the violation, as
    /// `(name, content fingerprint)`.
    pub be_kernel: Option<(String, u64)>,
    /// Queue depth (in-flight queries) when the query was admitted.
    pub queue_depth: usize,
}

impl ViolationRecord {
    /// One stable-field-order JSON object for BENCH artifacts and logs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        let _ = write!(
            out,
            "{{\"at\":{},\"service\":\"{}\",\"latency\":{},\"target\":{}",
            self.at.as_nanos(),
            self.service,
            self.latency.as_nanos(),
            self.target.as_nanos()
        );
        if let Some(level) = self.guard_level {
            let _ = write!(out, ",\"guard\":\"{}\"", level.name());
        }
        out.push_str(",\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{f}\"");
        }
        out.push(']');
        if let Some((name, fp)) = &self.be_kernel {
            let _ = write!(out, ",\"be_kernel\":\"{name}\",\"be_fingerprint\":{fp}");
        }
        let _ = write!(out, ",\"queue_depth\":{}}}", self.queue_depth);
        out
    }
}

/// One audited QoS-guard ladder transition.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardAudit {
    /// Device wall-clock instant of the step.
    pub at: SimTime,
    /// Ladder level before the step.
    pub from: GuardLevel,
    /// Ladder level after the step.
    pub to: GuardLevel,
    /// What tripped (or cleared) the step.
    pub reason: &'static str,
    /// Worst per-kernel EWMA relative prediction error at the step.
    pub ewma_error: f64,
    /// EWMA of the QoS-violation indicator at the step.
    pub pressure: f64,
}

impl GuardAudit {
    /// One stable-field-order JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"at\":{},\"from\":\"{}\",\"to\":\"{}\",\"reason\":\"{}\",\"ewma_error\":{:.6},\"pressure\":{:.6}}}",
            self.at.as_nanos(),
            self.from.name(),
            self.to.name(),
            self.reason,
            self.ewma_error,
            self.pressure
        )
    }
}

/// Outcome of one co-location run (one or more LC services).
#[derive(Debug)]
pub struct RunReport {
    /// The scheduling policy used.
    pub policy: Policy,
    /// The QoS target the run was configured with.
    pub qos_target: SimTime,
    /// Per-service latency results (see [`RunReport::per_service`]).
    pub(crate) services: Vec<ServiceReport>,
    /// Total useful BE work completed (sum of solo durations of completed
    /// BE kernels).
    pub be_work: SimTime,
    /// BE kernels completed.
    pub be_kernels: u64,
    /// Fused launches performed.
    pub fused_launches: u64,
    /// BE kernels launched via reordering into headroom.
    pub reordered_launches: u64,
    /// Total simulated wall-clock time.
    pub wall: SimTime,
    /// Simulated time the device spent executing kernels (LC, BE and
    /// fused launches, including injected flood work); `wall - busy` is
    /// idle time. Pure accounting — identical on the fast and slow
    /// serving paths.
    pub busy: SimTime,
    /// Online model refreshes triggered (>10% prediction error).
    pub model_refreshes: u64,
    /// Device activity timeline, when recording was enabled.
    pub timeline: Option<TimelineRecorder>,
    /// Run-level metrics: decision and violation counters and the
    /// injection-budget gauge. [`RunReport::prometheus_text`] adds the
    /// latency summaries.
    pub metrics: MetricsRegistry,
    /// QoS-guard ladder steps taken (0 when the guard was off or never
    /// tripped).
    pub guard_steps: u64,
    /// Faults injected by the run's [`crate::fault::FaultPlan`].
    pub faults_injected: u64,
    /// Final guard ladder level (`None` when the guard was off).
    pub guard_level: Option<GuardLevel>,
    /// Aggregate latency statistics over all services, in completion
    /// order (same bounded-memory representation as the per-service
    /// stats).
    pub latency: LatencyStats,
    /// Telemetry windows collected when windowed collection was enabled
    /// (empty otherwise). One row per non-empty fixed-width window of
    /// simulated time.
    pub windows: Vec<WindowRow>,
    /// Attribution record for every QoS violation, in violation order
    /// (capped at [`crate::serve::VIOLATION_LOG_CAP`]).
    pub violation_log: Vec<ViolationRecord>,
    /// Audit log of every guard ladder transition, in step order.
    pub guard_log: Vec<GuardAudit>,
}

impl RunReport {
    /// Per-service latency results.
    pub fn per_service(&self) -> &[ServiceReport] {
        &self.services
    }

    /// End-to-end latencies of every completed query, concatenated
    /// service-major (a single-service run preserves completion order).
    /// Empty for services that spilled into sketch mode — use
    /// [`RunReport::latency`] for statistics at any scale.
    pub fn query_latencies(&self) -> Vec<SimTime> {
        self.services
            .iter()
            .flat_map(|s| s.latency.samples())
            .collect()
    }

    /// Total completed queries across all services.
    pub fn query_count(&self) -> usize {
        self.services.iter().map(|s| s.latency.count()).sum()
    }

    /// Total queries that missed the QoS target, across all services.
    pub fn qos_violations(&self) -> usize {
        self.services.iter().map(|s| s.qos_violations).sum()
    }

    /// Mean query latency over all services (`None` when no query
    /// completed).
    pub fn mean_latency(&self) -> Option<SimTime> {
        self.latency.mean()
    }

    /// 99th-percentile query latency over all services (`None` when no
    /// query completed). Exact in sample mode — served from a cached
    /// sort, so repeated calls no longer re-sort the sample vector —
    /// and sketch-estimated within `QuantileSketch::RELATIVE_ERROR`
    /// beyond the retention limit.
    pub fn p99_latency(&self) -> Option<SimTime> {
        self.latency.percentile(99.0)
    }

    /// BE work completed per second of wall time (the throughput metric
    /// compared across policies in Fig. 14).
    pub fn be_work_rate(&self) -> f64 {
        if self.wall == SimTime::ZERO {
            0.0
        } else {
            self.be_work.as_nanos() as f64 / self.wall.as_nanos() as f64
        }
    }

    /// Whether every query of every service met the QoS target.
    pub fn qos_met(&self) -> bool {
        self.services.iter().all(|s| s.qos_violations == 0)
    }

    /// The run's metrics in the Prometheus text exposition format: the
    /// registry's counters and gauges, plus `query_latency_us` summaries
    /// (over all services, and per service) rendered from the latency
    /// statistics' quantile sketches.
    pub fn prometheus_text(&self) -> String {
        let mut latencies = vec![("query_latency_us".to_string(), self.latency.to_sketch())];
        latencies.extend(self.services.iter().map(|s| {
            (
                format!("query_latency_us.{}", s.name),
                s.latency.to_sketch(),
            )
        }));
        tacker_trace::prometheus_text(&self.metrics, &latencies)
    }

    /// Fraction of wall time the device was executing kernels (0 when
    /// nothing ran).
    pub fn utilization(&self) -> f64 {
        if self.wall == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_nanos() as f64 / self.wall.as_nanos() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_trace::MetricsRegistry;

    fn svc(name: &str, lat_ms: &[u64], violations: usize) -> ServiceReport {
        let mut latency = LatencyStats::exact();
        for m in lat_ms {
            latency.observe(SimTime::from_millis(*m));
        }
        ServiceReport {
            name: name.to_string(),
            latency,
            qos_violations: violations,
        }
    }

    fn report(services: Vec<ServiceReport>) -> RunReport {
        let registry = MetricsRegistry::new();
        let mut latency = LatencyStats::exact();
        for s in &services {
            for t in s.latency.samples() {
                latency.observe(t);
            }
        }
        RunReport {
            policy: Policy::Tacker,
            qos_target: SimTime::from_millis(50),
            services,
            be_work: SimTime::ZERO,
            be_kernels: 0,
            fused_launches: 0,
            reordered_launches: 0,
            wall: SimTime::from_millis(100),
            busy: SimTime::ZERO,
            model_refreshes: 0,
            timeline: None,
            metrics: registry,
            guard_steps: 0,
            faults_injected: 0,
            guard_level: None,
            latency,
            windows: Vec::new(),
            violation_log: Vec::new(),
            guard_log: Vec::new(),
        }
    }

    #[test]
    fn empty_run_has_no_percentiles() {
        let r = report(vec![svc("a", &[], 0)]);
        assert_eq!(r.p99_latency(), None);
        assert_eq!(r.mean_latency(), None);
        assert_eq!(r.per_service()[0].p99_latency(), None);
        assert_eq!(r.query_count(), 0);
        assert!(r.qos_met());
    }

    #[test]
    fn aggregates_fold_over_services() {
        let r = report(vec![svc("a", &[10, 20], 1), svc("b", &[30], 2)]);
        assert_eq!(r.query_count(), 3);
        assert_eq!(r.qos_violations(), 3);
        assert_eq!(r.mean_latency(), Some(SimTime::from_millis(20)));
        assert_eq!(r.p99_latency(), Some(SimTime::from_millis(30)));
        assert_eq!(
            r.query_latencies(),
            vec![
                SimTime::from_millis(10),
                SimTime::from_millis(20),
                SimTime::from_millis(30)
            ]
        );
        assert!(!r.qos_met());
    }
}
