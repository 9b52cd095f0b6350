//! Shared helpers for the figure/table regeneration binaries and the
//! Criterion benches.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper; run them all with `cargo run -p tacker-bench --bin <figNN>`.
//! The binaries print machine-readable rows so EXPERIMENTS.md can record
//! paper-vs-measured values.

use std::sync::Arc;

use tacker::prelude::*;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::{BeApp, LcService};

/// Re-exported so every figure binary fans its grid out the same way.
pub use tacker_par::{available_jobs, pool_map, try_pool_map};

/// The LC services of the paper's evaluation (Table II).
const EVAL_LC_NAMES: [&str; 6] = [
    "Resnet50",
    "ResNext",
    "VGG16",
    "VGG19",
    "Inception",
    "Densenet",
];

/// The standard experiment configuration used by the evaluation figures.
pub fn eval_config() -> ExperimentConfig {
    ExperimentConfig::default().with_queries(150)
}

/// Worker threads for figure regeneration: the shared
/// [`tacker_par::env_jobs`] convention (`TACKER_JOBS`, `0` = every
/// core), with an unparseable value treated as auto. Figure rows are
/// joined in grid order, so the printed output is identical at any jobs
/// count.
pub fn bench_jobs() -> usize {
    tacker_par::env_jobs(None).unwrap_or(0)
}

/// The paper's LC services, instantiated against a device.
///
/// # Panics
///
/// Panics if a Table II service name is unknown (a workloads-crate bug).
pub fn eval_lc_services(device: &Arc<Device>) -> Vec<LcService> {
    EVAL_LC_NAMES
        .iter()
        .map(|name| tacker_workloads::lc_service(name, device).expect("known LC service"))
        .collect()
}

/// A fresh simulated 2080Ti.
pub fn rtx2080ti() -> Arc<Device> {
    Arc::new(Device::new(GpuSpec::rtx2080ti()))
}

/// A fresh simulated V100.
pub fn v100() -> Arc<Device> {
    Arc::new(Device::new(GpuSpec::v100()))
}

/// Throughput improvement of Tacker over Baymax for one (LC, BE) pair, in
/// percent, plus the two run reports.
///
/// # Panics
///
/// Panics on simulation errors (binaries are allowed to crash loudly).
pub fn pair_improvement(
    device: &Arc<Device>,
    lc: &LcService,
    be: &BeApp,
    config: &ExperimentConfig,
) -> (f64, RunReport, RunReport) {
    let be_slice = vec![be.clone()];
    let lc_slice = std::slice::from_ref(lc);
    let baymax = ColocationRun::new(device, config, lc_slice, &be_slice)
        .expect("baymax run")
        .policy(Policy::Baymax)
        .run()
        .expect("baymax run");
    let tacker = ColocationRun::new(device, config, lc_slice, &be_slice)
        .expect("tacker run")
        .policy(Policy::Tacker)
        .run()
        .expect("tacker run");
    let imp = 100.0
        * tacker::metrics::throughput_improvement(baymax.be_work_rate(), tacker.be_work_rate());
    (imp, baymax, tacker)
}

/// CPU time (user + system) consumed by this process, in clock ticks.
/// Falls back to wall-clock milliseconds off Linux; only ratios are used.
///
/// The Criterion trace-overhead bench times with it: on a shared machine
/// wall-clock carries bursty preemption/steal noise, while CPU time
/// doesn't bill preemption to the process. (`gates serve`'s telemetry
/// gate times wall clock instead, in back-to-back pairs whose paired
/// difference cancels slow drift.)
///
/// # Panics
///
/// Panics only in the non-Linux fallback if the system clock reads before
/// the Unix epoch.
pub fn cpu_time_ticks() -> u64 {
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesized comm: utime is the 12th, stime
        // the 13th (fields 14 and 15 of the full line).
        if let Some(rest) = stat.rsplit(')').next() {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            if let (Some(ut), Some(st)) = (fields.get(11), fields.get(12)) {
                if let (Ok(ut), Ok(st)) = (ut.parse::<u64>(), st.parse::<u64>()) {
                    return ut + st;
                }
            }
        }
    }
    u64::try_from(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_millis(),
    )
    .expect("fits")
}
