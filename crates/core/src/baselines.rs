//! Baselines and co-running interface comparisons (§VIII-G).
//!
//! * **Baymax** is [`crate::manager::Policy::Baymax`] — the same server
//!   loop with fusion disabled (reorder only).
//! * **MPS+PTB** and **Stream+PTB** are modelled via
//!   [`tacker_sim::concurrent`]: black-box co-residency with scheduler
//!   jitter. This module wraps them in the Fig. 20 overlap-rate
//!   experiment, alongside Tacker's deterministic fusion.

use std::sync::Arc;

use tacker_kernel::SimTime;
use tacker_sim::{corun, CorunPolicy, Device, ExecutablePlan};
use tacker_workloads::WorkloadKernel;

use crate::error::TackerError;
use crate::library::FusionLibrary;
use crate::metrics::overlap_rate;
use crate::profile::KernelProfiler;

/// The co-running interfaces compared in Fig. 20.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorunInterface {
    /// Tacker's static kernel fusion.
    TackerFusion,
    /// NVIDIA MPS with PTB kernels.
    MpsPtb,
    /// CUDA streams with PTB kernels.
    StreamPtb,
}

impl CorunInterface {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CorunInterface::TackerFusion => "Tacker",
            CorunInterface::MpsPtb => "MPS+PTB",
            CorunInterface::StreamPtb => "Stream+PTB",
        }
    }
}

/// Result of one overlap experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapResult {
    /// Interface used.
    pub interface: CorunInterface,
    /// Solo duration of the TC kernel.
    pub solo_tc: SimTime,
    /// Solo duration of the CD kernel.
    pub solo_cd: SimTime,
    /// Co-running duration.
    pub corun: SimTime,
    /// The Equation 11 overlap rate, in `[0, 0.5]`.
    pub overlap: f64,
}

/// Runs the Fig. 20 overlap experiment for one (TC, CD) kernel pair.
///
/// The paper tunes the solo durations of the two kernels to be equal; the
/// caller is expected to pass launches satisfying that (the harness scales
/// the CD grid).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn overlap_experiment(
    device: &Arc<Device>,
    tc: &WorkloadKernel,
    cd: &WorkloadKernel,
    interface: CorunInterface,
    seed: u64,
) -> Result<OverlapResult, TackerError> {
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(device)));
    let solo_tc = profiler.measure(tc)?;
    let solo_cd = profiler.measure(cd)?;
    let spec = device.spec();

    let corun_duration = match interface {
        CorunInterface::TackerFusion => {
            let library = FusionLibrary::new(Arc::clone(&profiler));
            match library.prepare(tc, cd)? {
                Some(entry) => {
                    let launch = {
                        let e = entry.lock().expect("entry poisoned");
                        e.fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings)
                    };
                    device.run_launch(&launch)?.duration
                }
                // Declined fusion: sequential execution.
                None => solo_tc + solo_cd,
            }
        }
        CorunInterface::MpsPtb | CorunInterface::StreamPtb => {
            let policy = if interface == CorunInterface::MpsPtb {
                CorunPolicy::MpsPtb
            } else {
                CorunPolicy::StreamPtb
            };
            let plan_tc = ExecutablePlan::from_launch(spec, &tc.launch())?;
            let plan_cd = ExecutablePlan::from_launch(spec, &cd.launch())?;
            let report = corun(spec, &plan_tc, &plan_cd, policy, seed)?;
            spec.cycles_to_time(report.corun)
        }
    };

    Ok(OverlapResult {
        interface,
        solo_tc,
        solo_cd,
        corun: corun_duration,
        overlap: overlap_rate(solo_tc, solo_cd, corun_duration),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_sim::GpuSpec;
    use tacker_workloads::gemm::{gemm_workload, GemmShape};
    use tacker_workloads::parboil::Benchmark;

    /// A pair with tuned-equal solo durations, as §VIII-G prescribes.
    fn pair(device: &Arc<Device>) -> (WorkloadKernel, WorkloadKernel) {
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        let tc = gemm_workload(&gemm, GemmShape::new(2048, 2048, 1024));
        let mut cd = Benchmark::Cutcp.task()[0].clone();
        let t_tc = device.run_launch(&tc.launch()).expect("tc").duration;
        let t_cd = device.run_launch(&cd.launch()).expect("cd").duration;
        cd.grid = ((cd.grid as f64 * t_tc.ratio(t_cd)).round() as u64).max(1);
        (tc, cd)
    }

    #[test]
    fn tacker_fusion_yields_positive_overlap() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let (tc, cd) = pair(&device);
        let r = overlap_experiment(&device, &tc, &cd, CorunInterface::TackerFusion, 1).unwrap();
        assert!(r.overlap > 0.05, "overlap {}", r.overlap);
        assert!(r.overlap <= 0.5);
    }

    #[test]
    fn tacker_beats_or_matches_black_box_interfaces_on_average() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let (tc, cd) = pair(&device);
        let tacker =
            overlap_experiment(&device, &tc, &cd, CorunInterface::TackerFusion, 1).unwrap();
        let mut mps_sum = 0.0;
        let mut stream_sum = 0.0;
        for seed in 0..5 {
            mps_sum += overlap_experiment(&device, &tc, &cd, CorunInterface::MpsPtb, seed)
                .unwrap()
                .overlap;
            stream_sum += overlap_experiment(&device, &tc, &cd, CorunInterface::StreamPtb, seed)
                .unwrap()
                .overlap;
        }
        assert!(tacker.overlap >= mps_sum / 5.0 - 1e-9);
        assert!(tacker.overlap >= stream_sum / 5.0 - 1e-9);
    }

    #[test]
    fn interface_names() {
        assert_eq!(CorunInterface::TackerFusion.name(), "Tacker");
        assert_eq!(CorunInterface::MpsPtb.name(), "MPS+PTB");
        assert_eq!(CorunInterface::StreamPtb.name(), "Stream+PTB");
    }
}
