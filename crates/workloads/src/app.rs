//! Application-level workload abstractions.
//!
//! The scheduler consumes kernels, not benchmarks: an LC service turns a
//! query into a finite kernel sequence; a BE application yields an endless
//! stream of task iterations, each a kernel sequence. [`WorkloadKernel`]
//! couples a kernel definition with its concrete grid and bindings.

use std::fmt;
use std::sync::Arc;

use tacker_kernel::{Bindings, KernelDef, KernelKind, KernelLaunch};
use tacker_sim::{Device, KernelRun, SimError};

/// The paper's BE-application classification (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intensity {
    /// Bound by arithmetic throughput (mriq, fft, mrif, cutcp, cp).
    Compute,
    /// Bound by memory bandwidth (sgemm, lbm, tpacf, DNN training).
    Memory,
}

impl fmt::Display for Intensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Intensity::Compute => write!(f, "compute-intensive"),
            Intensity::Memory => write!(f, "memory-intensive"),
        }
    }
}

/// A concrete kernel invocation: definition + grid + bindings.
#[derive(Debug, Clone)]
pub struct WorkloadKernel {
    /// The kernel definition.
    pub def: Arc<KernelDef>,
    /// Original grid size (blocks) for this input.
    pub grid: u64,
    /// Launch parameter bindings.
    pub bindings: Bindings,
}

impl WorkloadKernel {
    /// Creates a workload kernel.
    pub fn new(def: Arc<KernelDef>, grid: u64, bindings: Bindings) -> Self {
        WorkloadKernel {
            def,
            grid,
            bindings,
        }
    }

    /// The launch for this invocation.
    pub fn launch(&self) -> KernelLaunch {
        KernelLaunch::new(Arc::clone(&self.def), self.grid, self.bindings.clone())
    }

    /// The device-cache key of this invocation: bit-equal to
    /// `self.launch().fingerprint()`, without building the launch.
    pub fn fingerprint(&self) -> u64 {
        KernelLaunch::fingerprint_of(&self.def, self.grid, &self.bindings)
    }

    /// Runs this invocation on `device`, memoized: a warm call is one
    /// fingerprint hash plus one cache probe, and the launch is built
    /// (and lowered) on a cache miss only.
    ///
    /// # Errors
    ///
    /// Propagates plan construction and simulation errors.
    pub fn run_on(&self, device: &Device) -> Result<Arc<KernelRun>, SimError> {
        device.run_keyed(self.fingerprint(), &self.def, || self.launch())
    }

    /// Whether this kernel runs on Tensor Cores.
    pub fn is_tensor(&self) -> bool {
        self.def.kind() == KernelKind::Tensor
    }

    /// Whether this kernel runs on CUDA Cores.
    pub fn is_cuda(&self) -> bool {
        self.def.kind() == KernelKind::Cuda
    }
}

impl fmt::Display for WorkloadKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}<<<{}>>>", self.def.name(), self.grid)
    }
}

/// A latency-critical inference service: each query is the same kernel
/// sequence (shapes fixed by the configured batch size).
#[derive(Clone)]
pub struct LcService {
    name: String,
    batch: u32,
    kernels: Arc<Vec<WorkloadKernel>>,
    /// Every query kernel's launch fingerprint, hashed once.
    fingerprints: Arc<Vec<u64>>,
}

impl LcService {
    /// Creates a service from its per-query kernel sequence.
    pub fn new(name: impl Into<String>, batch: u32, kernels: Vec<WorkloadKernel>) -> LcService {
        LcService {
            name: name.into(),
            batch,
            fingerprints: Arc::new(kernels.iter().map(WorkloadKernel::fingerprint).collect()),
            kernels: Arc::new(kernels),
        }
    }

    /// Service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured batch size (Table II).
    pub fn batch(&self) -> u32 {
        self.batch
    }

    /// The kernel sequence one query executes.
    pub fn query_kernels(&self) -> &[WorkloadKernel] {
        &self.kernels
    }

    /// The launch fingerprint of every query kernel, in sequence (hashed
    /// once, when the service is built).
    pub fn query_fingerprints(&self) -> &[u64] {
        &self.fingerprints
    }

    /// Number of Tensor-Core kernels per query.
    pub fn tc_kernel_count(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_tensor()).count()
    }

    /// Number of CUDA-Core kernels per query.
    pub fn cd_kernel_count(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_cuda()).count()
    }
}

impl fmt::Debug for LcService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LcService")
            .field("name", &self.name)
            .field("batch", &self.batch)
            .field("kernels", &self.kernels.len())
            .finish()
    }
}

/// A best-effort application: an endless stream of identical task
/// iterations, each a kernel sequence.
#[derive(Clone)]
pub struct BeApp {
    name: String,
    intensity: Intensity,
    task: Arc<Vec<WorkloadKernel>>,
}

impl BeApp {
    /// Creates a BE application from one task iteration's kernels.
    pub fn new(name: impl Into<String>, intensity: Intensity, task: Vec<WorkloadKernel>) -> BeApp {
        BeApp {
            name: name.into(),
            intensity,
            task: Arc::new(task),
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Compute- or memory-intensive classification.
    pub fn intensity(&self) -> Intensity {
        self.intensity
    }

    /// The kernels of one task iteration.
    pub fn task_kernels(&self) -> &[WorkloadKernel] {
        &self.task
    }
}

impl fmt::Debug for BeApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BeApp")
            .field("name", &self.name)
            .field("intensity", &self.intensity)
            .field("kernels", &self.task.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_kernel::ast::{Expr, Stmt};
    use tacker_kernel::{Dim3, ResourceUsage};

    fn kernel(kind: KernelKind) -> WorkloadKernel {
        let def = KernelDef::builder("k", kind)
            .block_dim(Dim3::x(64))
            .resources(ResourceUsage::new(32, 0))
            .body(vec![Stmt::compute_cd(Expr::lit(1), "x")])
            .build()
            .unwrap();
        WorkloadKernel::new(Arc::new(def), 10, Bindings::new())
    }

    #[test]
    fn kind_predicates() {
        assert!(kernel(KernelKind::Tensor).is_tensor());
        assert!(kernel(KernelKind::Cuda).is_cuda());
        assert!(!kernel(KernelKind::Fused).is_tensor());
    }

    #[test]
    fn service_counts_kernel_kinds() {
        let svc = LcService::new(
            "svc",
            32,
            vec![
                kernel(KernelKind::Tensor),
                kernel(KernelKind::Cuda),
                kernel(KernelKind::Cuda),
            ],
        );
        assert_eq!(svc.tc_kernel_count(), 1);
        assert_eq!(svc.cd_kernel_count(), 2);
        assert_eq!(svc.batch(), 32);
    }

    #[test]
    fn launch_round_trip() {
        let wk = kernel(KernelKind::Cuda);
        let launch = wk.launch();
        assert_eq!(launch.grid_blocks, 10);
        assert_eq!(launch.def.name(), "k");
    }
}
