//! Tacker: Tensor-CUDA Core kernel fusion with QoS-aware scheduling.
//!
//! This crate is the paper's primary contribution (HPCA 2022): a runtime
//! that co-locates latency-critical (LC) inference services with
//! best-effort (BE) applications on one GPU, exploiting the *parallelism
//! between Tensor Cores and CUDA Cores* that kernel-granularity schedulers
//! leave on the table (the "false high utilization" problem).
//!
//! The pieces map one-to-one onto the paper:
//!
//! * [`profile`] — per-kernel duration models (LR over a work feature),
//!   trained by profiling on the simulated device;
//! * [`library`] — the offline fusion library: for every fusable
//!   (TC kernel, CD kernel) pair it enumerates fusion ratios, measures the
//!   candidates, keeps the best (or declines to fuse, §V-C), and fits the
//!   two-stage load-ratio duration model (§VI);
//! * [`manager`] — the online QoS-aware kernel manager (§VII): computes
//!   QoS headroom, applies Equation 8 to choose fusion, falls back to
//!   Baymax-style reordering, and handles multiple active queries
//!   (Equation 9);
//! * [`serve`] — the serving runtime and the [`ColocationRun`] builder:
//!   streaming LC arrivals (Poisson, bursty, or trace replay), endless BE
//!   task streams, end-to-end latency and BE throughput accounting;
//! * [`fleet`] — fleet-scale serving (§IV taken online): a global
//!   dispatcher routing queries over N heterogeneous devices under
//!   pluggable policies (round-robin, least-outstanding, QoS-headroom,
//!   cache-affinity), with per-device engines running concurrently on the
//!   `tacker-par` pool and merging into one [`FleetReport`];
//! * [`fault`] — deterministic fault injection (mispredictions,
//!   stragglers, BE floods, predictor outages);
//! * [`guard`] — the adaptive QoS guard: an error/pressure tracker that
//!   inflates the headroom margin and degrades fuse → reorder-only →
//!   LC-only under sustained misprediction or tail-latency pressure;
//! * [`server`] — peak-load calibration (`calibrate_peak_interarrival`);
//! * [`baselines`] — Baymax (reorder-only) and the co-running interface
//!   models used in §VIII-G;
//! * [`sweep`] — parallel (LC × BE) grid execution over the `tacker-par`
//!   work pool, with per-cell derived RNG seeds so any `--jobs` count
//!   reproduces the serial sweep exactly.
//!
//! # Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tacker::prelude::*;
//!
//! let device = Arc::new(tacker_sim::Device::new(tacker_sim::GpuSpec::rtx2080ti()));
//! let lc = tacker_workloads::lc_service("Resnet50", &device).unwrap();
//! let be = vec![tacker_workloads::be_app("sgemm").unwrap()];
//! let config = ExperimentConfig::default();
//! let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
//!     .unwrap()
//!     .policy(Policy::Tacker)
//!     .run()
//!     .unwrap();
//! if let Some(p99) = report.p99_latency() {
//!     println!("p99 latency: {p99}");
//! }
//! ```

pub mod baselines;
pub mod config;
pub mod error;
pub mod fault;
pub mod fleet;
pub mod guard;
pub mod library;
pub mod manager;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod serve;
pub mod server;
pub mod sweep;

pub use config::ExperimentConfig;
pub use error::TackerError;
pub use fault::{FaultPlan, FloodBurst, MispredictFault, OutageWindow, StragglerFault};
pub use fleet::{
    heterogeneous_fleet, DispatchModel, DispatchPolicy, FleetDeviceReport, FleetNode, FleetReport,
    FleetRun, FleetServiceReport,
};
pub use guard::{GuardConfig, GuardLevel, QosGuard};
pub use library::{FusionLibrary, PairEntry};
pub use manager::{Decision, Head, KernelManager, Policy};
pub use metrics::{LatencyStats, DEFAULT_EXACT_LIMIT};
pub use profile::{work_feature, KernelProfiler};
pub use report::{GuardAudit, RunReport, ServiceReport, ViolationRecord};
pub use serve::{ArrivalSpec, ColocationRun, ServiceLoad, VIOLATION_LOG_CAP};
pub use sweep::{
    expected_cell_events, run_improvement_sweep, run_pair_sweep, sweep_jobs_used, SweepCell,
};

/// Convenient glob imports: the whole public experiment surface — device
/// and engine options from `tacker-sim` included — behind one `use
/// tacker::prelude::*`. Every options type here follows the same builder
/// idiom: `Default::default()` (or a named constructor) plus chained
/// `with_*` setters.
pub mod prelude {
    pub use crate::config::ExperimentConfig;
    pub use crate::fault::FaultPlan;
    pub use crate::fleet::{
        heterogeneous_fleet, DispatchModel, DispatchPolicy, FleetNode, FleetReport, FleetRun,
    };
    pub use crate::guard::{GuardConfig, GuardLevel};
    pub use crate::library::FusionLibrary;
    pub use crate::manager::Policy;
    pub use crate::metrics::LatencyStats;
    pub use crate::report::{RunReport, ServiceReport, ViolationRecord};
    pub use crate::serve::{ArrivalSpec, ColocationRun, ServiceLoad};
    pub use crate::sweep::{
        expected_cell_events, run_improvement_sweep, run_pair_sweep, sweep_jobs_used, SweepCell,
    };
    pub use tacker_kernel::SimTime;
    pub use tacker_sim::{Device, EngineOptions, GpuSpec, KernelRun, QueueKind};
}
