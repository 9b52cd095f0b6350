//! Peak-load calibration (§VIII-B).
//!
//! The co-location engine itself lives in [`crate::serve`]; this module
//! is calibration support ([`calibrate_peak_interarrival`],
//! [`solo_query_duration`], and the per-service load resolution both run
//! types share).

use std::sync::{Arc, Mutex};

use tacker_kernel::SimTime;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::LcService;

use crate::config::ExperimentConfig;
use crate::error::TackerError;
use crate::manager::Policy;
use crate::profile::{query_fingerprint, KernelProfiler};
use crate::serve::ColocationRun;

pub use crate::report::ServiceReport;
pub use crate::serve::ServiceLoad;

/// Resolves a run's per-service loads after validating `config`:
/// explicit `loads` win, then a single service's explicit mean
/// inter-arrival time; otherwise each service is calibrated to its peak
/// supported load on the device `calibration` returns, and carries an
/// equal share of the configured load factor so the combined LC demand
/// stays feasible.
pub(crate) fn resolve_loads(
    config: &ExperimentConfig,
    lcs: &[LcService],
    loads: Option<&[ServiceLoad]>,
    mean_interarrival: Option<SimTime>,
    calibration: impl FnOnce() -> Arc<Device>,
) -> Result<Vec<ServiceLoad>, TackerError> {
    config.validate()?;
    if let Some(loads) = loads {
        return Ok(loads.to_vec());
    }
    if let Some(mean_interarrival) = mean_interarrival {
        if lcs.len() != 1 {
            return Err(TackerError::Config {
                reason: "explicit inter-arrival needs exactly one service; use with_loads"
                    .to_string(),
            });
        }
        return Ok(vec![ServiceLoad {
            lc: lcs[0].clone(),
            mean_interarrival,
            seed: config.seed,
        }]);
    }
    // Calibration runs one full LC-only simulation per service, so
    // multi-service setups fan the (independent, cached) calibrations out
    // over the persistent pool; results join in service order, and
    // per-service seeds depend only on the service index, so the loads are
    // identical at any jobs count.
    let share = lcs.len() as f64 / config.load_factor;
    let device = calibration();
    let calibration_config = config.clone();
    let peaks = tacker_par::try_pool_map(config.jobs, lcs.to_vec(), move |_, lc| {
        calibrate_peak_interarrival(&device, lc, &calibration_config)
    })?;
    Ok(lcs
        .iter()
        .zip(peaks)
        .enumerate()
        .map(|(i, (lc, peak))| ServiceLoad {
            lc: lc.clone(),
            mean_interarrival: peak.mul_f64(share),
            seed: config.seed.wrapping_add(i as u64),
        })
        .collect())
}

/// The solo (un-co-located) duration of one LC query: the sum of its
/// kernels' measured durations.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn solo_query_duration(
    profiler: &KernelProfiler,
    lc: &LcService,
) -> Result<SimTime, TackerError> {
    let mut total = SimTime::ZERO;
    for k in lc.query_kernels() {
        total += profiler.measure(k)?;
    }
    Ok(total)
}

/// Finds the service's *peak supported load* (§VIII-B): the highest
/// Poisson arrival rate whose 99%-ile latency still meets the QoS target
/// when the service runs alone. Returns the corresponding mean
/// inter-arrival time. Results are cached by content: the service's
/// query kernels, the device's GPU profile, and the config fields the
/// calibration runs read (QoS target, query count, seed).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn calibrate_peak_interarrival(
    device: &Arc<Device>,
    lc: &LcService,
    config: &ExperimentConfig,
) -> Result<SimTime, TackerError> {
    /// Everything a calibration reads. The GPU profile is compared whole,
    /// like [`crate::fleet`]'s profile devices: two profiles of one name
    /// can differ in any parameter.
    #[derive(PartialEq)]
    struct CalibrationKey {
        kernels: u64,
        gpu: GpuSpec,
        qos_target: SimTime,
        queries: usize,
        seed: u64,
    }
    static CACHE: Mutex<Vec<(CalibrationKey, SimTime)>> = Mutex::new(Vec::new());
    let cache = || CACHE.lock().expect("calibration cache poisoned");
    let key = CalibrationKey {
        kernels: query_fingerprint(lc),
        gpu: device.spec().clone(),
        qos_target: config.qos_target,
        queries: config.queries,
        seed: config.seed,
    };
    if let Some((_, hit)) = cache().iter().find(|(k, _)| *k == key) {
        return Ok(*hit);
    }
    // Calibration replays the experiment's own arrival sample (same seed
    // and query count) with BE disabled, so the chosen load provably meets
    // QoS for the arrivals the experiment will see — the paper's "without
    // causing QoS violation" condition.
    let config = &ExperimentConfig {
        record_timeline: false,
        ..config.clone()
    };
    let profiler = KernelProfiler::new(Arc::clone(device));
    let solo = solo_query_duration(&profiler, lc)?;
    let meets = |mult: f64| -> Result<bool, TackerError> {
        let r = ColocationRun::new(device, config, std::slice::from_ref(lc), &[])?
            .policy(Policy::LcOnly)
            .at(solo.mul_f64(mult))
            .run()?;
        Ok(r.p99_latency().is_none_or(|p| p <= config.qos_target))
    };
    // Bisect the inter-arrival multiplier: larger = lighter load. A
    // degenerate service, which misses QoS even at the lightest load,
    // keeps that load.
    let (mut lo, mut hi) = (1.0_f64, 16.0_f64);
    if meets(hi)? {
        if meets(lo)? {
            hi = lo;
        } else {
            for _ in 0..10 {
                let mid = 0.5 * (lo + hi);
                if meets(mid)? {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
    }
    let peak = solo.mul_f64(hi);
    cache().push((key, peak));
    Ok(peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunReport;
    use tacker_sim::GpuSpec;
    use tacker_workloads::parboil::Benchmark;
    use tacker_workloads::{BeApp, Intensity};

    /// A small synthetic LC service so tests stay fast: a few GEMM + CD
    /// kernels.
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

    fn run(device: &Arc<Device>, policy: Policy, cfg: &ExperimentConfig) -> RunReport {
        ColocationRun::new(device, cfg, &[tiny_lc()], &[tiny_be()])
            .unwrap()
            .policy(policy)
            .run()
            .unwrap()
    }

    #[test]
    fn lc_only_meets_qos_and_does_no_be_work() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let r = run(&device, Policy::LcOnly, &config());
        assert_eq!(r.query_count(), 30);
        assert!(r.qos_met(), "violations {}", r.qos_violations());
        assert_eq!(r.be_kernels, 0);
        assert_eq!(r.fused_launches, 0);
    }

    #[test]
    fn baymax_reorders_and_meets_qos() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let r = run(&device, Policy::Baymax, &config());
        assert!(r.qos_met(), "violations {}", r.qos_violations());
        assert!(r.be_kernels > 0);
        assert_eq!(r.fused_launches, 0);
        assert!(r.reordered_launches > 0);
    }

    #[test]
    fn tacker_fuses_and_beats_baymax_throughput() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let baymax = run(&device, Policy::Baymax, &config());
        let tacker = run(&device, Policy::Tacker, &config());
        assert!(tacker.qos_met(), "violations {}", tacker.qos_violations());
        assert!(tacker.fused_launches > 0, "no fusions happened");
        assert!(
            tacker.be_work_rate() > baymax.be_work_rate(),
            "tacker {} vs baymax {}",
            tacker.be_work_rate(),
            baymax.be_work_rate()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let a = run(&device, Policy::Tacker, &config());
        let b = run(&device, Policy::Tacker, &config());
        assert_eq!(a.query_latencies(), b.query_latencies());
        assert_eq!(a.be_kernels, b.be_kernels);
    }

    #[test]
    fn timeline_recording_shows_overlap_only_for_tacker() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let cfg = config().with_timeline();
        let baymax = run(&device, Policy::Baymax, &cfg);
        let tacker = run(&device, Policy::Tacker, &cfg);
        let b_tl = baymax.timeline.unwrap();
        let t_tl = tacker.timeline.unwrap();
        assert_eq!(b_tl.both_active_time(), SimTime::ZERO);
        assert!(t_tl.both_active_time() > SimTime::ZERO);
    }

    #[test]
    fn multi_service_runs_and_meets_qos() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        let second = LcService::new(
            "tiny2",
            4,
            vec![
                tacker_workloads::gemm::gemm_workload(
                    &gemm,
                    tacker_workloads::gemm::GemmShape::new(1024, 1024, 512),
                ),
                tacker_workloads::dnn::elementwise::elementwise_workload(
                    &tacker_workloads::dnn::elementwise::batch_norm(),
                    2_000_000,
                ),
            ],
        );
        let cfg = config().with_queries(20);
        let r = ColocationRun::new(&device, &cfg, &[tiny_lc(), second], &[tiny_be()])
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.per_service().len(), 2);
        for svc in r.per_service() {
            assert_eq!(svc.query_count(), 20, "{}", svc.name);
            assert_eq!(svc.qos_violations, 0, "{}", svc.name);
        }
        assert!(r.be_work_rate() >= 0.0);
        assert!(r.qos_met());
    }

    #[test]
    fn calibration_cache_is_keyed_by_content() {
        // A seed no other test calibrates with, so every first lookup
        // below misses.
        let cfg = config().with_queries(20).with_seed(0xca1);
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let peak = |device: &Arc<Device>, lc: &LcService| {
            calibrate_peak_interarrival(device, lc, &cfg).unwrap()
        };
        let tiny = tiny_lc();
        let full = peak(&device, &tiny);
        // A same-named service with other kernels calibrates its own
        // kernels: it reads the peak of a differently named service with
        // the same kernels, not the cached peak of its namesake.
        let half = tiny.query_kernels()[..2].to_vec();
        let fresh = peak(&device, &LcService::new("tiny-half", 8, half.clone()));
        assert_ne!(fresh, full, "the shorter query must calibrate differently");
        assert_eq!(peak(&device, &LcService::new("tiny", 8, half)), fresh);
        // Likewise a same-named GPU profile with other parameters.
        let mut slow = GpuSpec::rtx2080ti();
        slow.clock_ghz *= 0.5;
        let mut renamed = slow.clone();
        renamed.name.push_str(" (half clock)");
        let fresh = peak(&Arc::new(Device::new(renamed)), &tiny);
        assert_ne!(fresh, full, "a slower GPU must calibrate differently");
        assert_eq!(peak(&Arc::new(Device::new(slow)), &tiny), fresh);
    }

    #[test]
    fn empty_service_is_a_config_error() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let empty = LcService::new("empty", 1, vec![]);
        assert!(matches!(
            ColocationRun::new(&device, &config(), &[empty], &[]).map(|_| ()),
            Err(TackerError::Config { .. })
        ));
    }
}
