//! Discrete-event GPU simulator for the Tacker reproduction.
//!
//! The paper evaluates on real NVIDIA GPUs; this crate is the synthetic
//! substrate that stands in for them. It models the parts of the machine
//! that Tacker's phenomena depend on:
//!
//! * **two independent compute pipelines per SM** (Tensor Cores and CUDA
//!   Cores) — the resource pair whose parallelism kernel fusion exploits;
//! * **warp-level execution with deterministic switching**: warps of a
//!   thread block interleave on memory waits and barriers, so a fused block
//!   with heterogeneous warps keeps both pipelines busy at once (Fig. 12);
//! * **explicit occupancy**: resident blocks per SM limited by threads,
//!   registers, shared memory, block slots and named barriers — what makes
//!   naive 1:1 fusion collapse (§V-C);
//! * **a shared memory system** (L1 per SM, DRAM bandwidth shared across
//!   SMs) producing the implicit contention that penalizes memory-intensive
//!   co-location;
//! * **named barriers** with partial-arrival semantics, so `__syncthreads()`
//!   kept inside one branch of a fused kernel deadlocks, exactly as §V-D
//!   warns, while rewritten `bar.sync id, cnt` barriers work.
//!
//! The top-level entry points are [`Device::run_plan`] for executing a single
//! [`ExecutablePlan`] (with memoization) and [`timeline::TimelineRecorder`]
//! for building device-level activity traces (Figs. 1, 2, 15).

pub(crate) mod compile;
pub mod concurrent;
pub mod device;
pub mod engine;
pub mod error;
pub mod perturb;
pub mod plan;
pub mod power;
pub mod queue;
pub mod result;
pub mod spec;
pub mod timeline;

pub use concurrent::{corun, CorunPolicy, CorunReport};
pub use device::Device;
pub use engine::{simulate, simulate_with_options, EngineOptions, QueueKind};
pub use error::SimError;
pub use perturb::scale_run;
pub use plan::ExecutablePlan;
pub use power::PowerModel;
pub use result::{ActivitySummary, Interval, KernelRun, RunSummary};
pub use spec::GpuSpec;
pub use timeline::{TimelineEntry, TimelineRecorder};
