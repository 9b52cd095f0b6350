//! Shared helpers for the `reproduce` and `gates` binaries and the
//! Criterion benches.
//!
//! `reproduce` regenerates the paper's tables and figures into
//! `results/<name>.txt` (`cargo run --release -p tacker-bench --bin
//! reproduce -- [--out DIR] [NAME...]`); `gates` runs the CI gates into
//! `results/BENCH_<gate>.json`.

use std::sync::Arc;

use tacker::prelude::*;
use tacker_sim::{Device, GpuSpec};

/// The standard experiment configuration used by the evaluation figures.
pub fn eval_config() -> ExperimentConfig {
    ExperimentConfig::default().with_queries(150)
}

/// A fresh simulated 2080Ti.
pub fn rtx2080ti() -> Arc<Device> {
    Arc::new(Device::new(GpuSpec::rtx2080ti()))
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
