//! Kernel definitions and launches.
//!
//! A [`KernelDef`] is the static, input-independent part of a kernel: its
//! body AST, block shape and resource usage — what the paper's offline fuser
//! manipulates. A [`KernelLaunch`] adds the dynamic part known only at
//! runtime: the grid size and parameter bindings derived from the task input.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::{body_unit_usage, Stmt};
use crate::dims::Dim3;
use crate::error::KernelError;
use crate::fingerprint::{def_fingerprint, DefContent, StableHasher};
use crate::resources::ResourceUsage;

/// An interned kernel name: cheap to clone (one refcount bump), derefs to
/// `&str`. Threaded through executable plans, run results and trace events
/// so the simulator's hot path never copies name bytes.
pub type Name = Arc<str>;

/// Content-derived identity of a kernel definition.
///
/// The id is a stable structural fingerprint ([`crate::fingerprint`]):
/// two definitions with equal content — name, kind, block shape,
/// resources, parameters, body and flags — share one id in any process.
/// In particular, a fused kernel rebuilt from the same (TC, CD, ratio)
/// triple by a later run fingerprints identically, so its launches hit
/// execution caches warmed by earlier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(u64);

impl KernelId {
    /// Raw fingerprint value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

/// Which class of compute the kernel predominantly occupies.
///
/// The scheduler uses this to pick fusion partners: a [`KernelKind::Tensor`]
/// kernel fuses with a [`KernelKind::Cuda`] kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Occupies Tensor Cores (GEMM-like).
    Tensor,
    /// Occupies CUDA Cores.
    Cuda,
    /// A fused kernel occupying both (produced by the fuser, never authored).
    Fused,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKind::Tensor => write!(f, "TC"),
            KernelKind::Cuda => write!(f, "CD"),
            KernelKind::Fused => write!(f, "FUSED"),
        }
    }
}

/// Parameter bindings supplied at launch: parameter name → value.
pub type Bindings = BTreeMap<String, u64>;

/// A static kernel definition.
///
/// Construct with [`KernelDef::builder`]. The definition is immutable after
/// construction; the fuser produces *new* definitions rather than mutating.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDef {
    id: KernelId,
    name: Name,
    kind: KernelKind,
    block_dim: Dim3,
    resources: ResourceUsage,
    params: Vec<String>,
    body: Vec<Stmt>,
    /// True once the PTB transform has been applied.
    ptb: bool,
    /// True for kernels whose source is unavailable (black-box library
    /// kernels like cuDNN's): they execute normally but cannot be
    /// transformed or fused.
    opaque: bool,
}

impl KernelDef {
    /// Starts building a kernel definition.
    pub fn builder(name: impl Into<String>, kind: KernelKind) -> KernelDefBuilder {
        KernelDefBuilder {
            name: name.into(),
            kind,
            block_dim: Dim3::x(256),
            resources: ResourceUsage::new(32, 0),
            params: Vec::new(),
            body: Vec::new(),
            ptb: false,
            opaque: false,
        }
    }

    /// Unique id of this definition.
    pub fn id(&self) -> KernelId {
        self.id
    }

    /// Kernel name (as it would appear in CUDA source).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned kernel name, sharing this definition's allocation.
    pub fn name_shared(&self) -> Name {
        Arc::clone(&self.name)
    }

    /// Compute class.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Threads per block.
    pub fn block_dim(&self) -> Dim3 {
        self.block_dim
    }

    /// Per-block resource usage.
    pub fn resources(&self) -> &ResourceUsage {
        &self.resources
    }

    /// Declared parameter names, in declaration order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The body AST.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Whether this definition has been through the PTB transform.
    pub fn is_ptb(&self) -> bool {
        self.ptb
    }

    /// Whether the kernel source is unavailable (black-box library
    /// kernels), making it ineligible for source-level transforms.
    pub fn is_opaque(&self) -> bool {
        self.opaque
    }

    /// Which units the body computes on: `(uses_tensor, uses_cuda)`.
    pub fn unit_usage(&self) -> (bool, bool) {
        body_unit_usage(&self.body)
    }

    /// Creates a derived definition with a new name, body and flags, keeping
    /// everything else. Used by the fuser's transforms.
    pub fn derive(
        &self,
        name: impl Into<String>,
        kind: KernelKind,
        block_dim: Dim3,
        resources: ResourceUsage,
        body: Vec<Stmt>,
        ptb: bool,
    ) -> Result<KernelDef, KernelError> {
        let mut params = Vec::new();
        for s in &body {
            s.collect_params(&mut params);
        }
        KernelDefBuilder {
            name: name.into(),
            kind,
            block_dim,
            resources,
            params,
            body,
            ptb,
            opaque: self.opaque,
        }
        .build()
    }
}

impl fmt::Display for KernelDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} `{}` [{} thr/blk, {}]",
            self.kind,
            self.name,
            self.block_dim.total(),
            self.resources
        )
    }
}

/// Builder for [`KernelDef`].
#[derive(Debug, Clone)]
pub struct KernelDefBuilder {
    name: String,
    kind: KernelKind,
    block_dim: Dim3,
    resources: ResourceUsage,
    params: Vec<String>,
    body: Vec<Stmt>,
    ptb: bool,
    opaque: bool,
}

impl KernelDefBuilder {
    /// Sets the block shape (threads per block). Default: 256 × 1 × 1.
    pub fn block_dim(mut self, dim: Dim3) -> Self {
        self.block_dim = dim;
        self
    }

    /// Sets per-block resource usage. Default: 32 regs/thread, 0 B smem.
    pub fn resources(mut self, resources: ResourceUsage) -> Self {
        self.resources = resources;
        self
    }

    /// Declares a launch parameter.
    pub fn param(mut self, name: impl Into<String>) -> Self {
        self.params.push(name.into());
        self
    }

    /// Sets the body AST.
    pub fn body(mut self, body: Vec<Stmt>) -> Self {
        self.body = body;
        self
    }

    /// Marks the definition as already PTB-transformed.
    pub fn ptb(mut self, ptb: bool) -> Self {
        self.ptb = ptb;
        self
    }

    /// Marks the definition as a black-box (source-unavailable) kernel.
    pub fn opaque(mut self, opaque: bool) -> Self {
        self.opaque = opaque;
        self
    }

    /// Finalizes the definition.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidDefinition`] when the body is empty, the
    /// block is empty or exceeds 1024 threads, or the body references a
    /// parameter that was not declared (undeclared parameters are added
    /// automatically when using [`KernelDef::derive`], but `build` insists on
    /// explicit declarations to catch typos).
    pub fn build(mut self) -> Result<KernelDef, KernelError> {
        let invalid = |reason: &str| KernelError::InvalidDefinition {
            kernel: self.name.clone(),
            reason: reason.to_string(),
        };
        if self.body.is_empty() {
            return Err(invalid("empty body"));
        }
        let threads = self.block_dim.total();
        if threads == 0 {
            return Err(invalid("zero-sized block"));
        }
        if threads > 1024 {
            return Err(invalid("block exceeds 1024 threads"));
        }
        let mut referenced = Vec::new();
        for s in &self.body {
            s.collect_params(&mut referenced);
        }
        for p in &referenced {
            if !self.params.contains(p) {
                return Err(KernelError::InvalidDefinition {
                    kernel: self.name.clone(),
                    reason: format!("body references undeclared parameter `{p}`"),
                });
            }
        }
        // Account for declared shared memory if the resource record
        // understates it.
        let declared: u64 = self.body.iter().map(Stmt::shared_bytes).sum();
        if declared > self.resources.shared_mem_bytes {
            self.resources.shared_mem_bytes = declared;
        }
        let id = KernelId(def_fingerprint(&DefContent {
            name: &self.name,
            kind_tag: match self.kind {
                KernelKind::Tensor => 0,
                KernelKind::Cuda => 1,
                KernelKind::Fused => 2,
            },
            block_dim: self.block_dim,
            resources: &self.resources,
            params: &self.params,
            body: &self.body,
            ptb: self.ptb,
            opaque: self.opaque,
        }));
        Ok(KernelDef {
            id,
            name: self.name.into(),
            kind: self.kind,
            block_dim: self.block_dim,
            resources: self.resources,
            params: self.params,
            body: self.body,
            ptb: self.ptb,
            opaque: self.opaque,
        })
    }
}

/// A kernel invocation: a definition plus the dynamic launch state.
#[derive(Debug, Clone)]
pub struct KernelLaunch {
    /// The kernel being launched.
    pub def: Arc<KernelDef>,
    /// Number of thread blocks in the (original, pre-PTB) grid.
    pub grid_blocks: u64,
    /// Parameter bindings.
    pub bindings: Bindings,
}

impl KernelLaunch {
    /// Creates a launch.
    pub fn new(def: Arc<KernelDef>, grid_blocks: u64, bindings: Bindings) -> Self {
        KernelLaunch {
            def,
            grid_blocks,
            bindings,
        }
    }

    /// A stable fingerprint of (definition, grid, bindings) for memoising
    /// simulated executions.
    ///
    /// The definition contributes its content-derived [`KernelId`] and the
    /// hash itself is a pinned algorithm ([`StableHasher`]), so equal
    /// launches fingerprint identically across runs and processes — a
    /// fused kernel rebuilt by a later run hits caches keyed by this value.
    pub fn fingerprint(&self) -> u64 {
        KernelLaunch::fingerprint_of(&self.def, self.grid_blocks, &self.bindings)
    }

    /// The [`KernelLaunch::fingerprint`] of the launch `(def, grid_blocks,
    /// bindings)` would make, computed from borrowed parts: callers that
    /// only need the cache key (a device-cache probe, a history lookup)
    /// never clone the bindings into a launch.
    pub fn fingerprint_of(def: &KernelDef, grid_blocks: u64, bindings: &Bindings) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(def.id().get());
        h.write_u64(grid_blocks);
        h.write_u64(bindings.len() as u64);
        for (k, v) in bindings {
            h.write_str(k);
            h.write_u64(*v);
        }
        h.finish()
    }
}

impl fmt::Display for KernelLaunch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}<<<{}, {}>>>",
            self.def.name(),
            self.grid_blocks,
            self.def.block_dim()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    fn toy_def() -> KernelDef {
        KernelDef::builder("toy", KernelKind::Cuda)
            .block_dim(Dim3::x(128))
            .resources(ResourceUsage::new(32, 1024))
            .param("n")
            .body(vec![Stmt::compute_cd(Expr::param("n"), "fma")])
            .build()
            .unwrap()
    }

    #[test]
    fn ids_are_content_derived() {
        // Structurally equal definitions share one identity (this is what
        // lets rebuilt fused kernels hit execution caches across runs)...
        assert_eq!(toy_def().id(), toy_def().id());
        // ...while any content difference separates them.
        let other = KernelDef::builder("toy2", KernelKind::Cuda)
            .block_dim(Dim3::x(128))
            .resources(ResourceUsage::new(32, 1024))
            .param("n")
            .body(vec![Stmt::compute_cd(Expr::param("n"), "fma")])
            .build()
            .unwrap();
        assert_ne!(toy_def().id(), other.id());
    }

    #[test]
    fn empty_body_rejected() {
        let err = KernelDef::builder("bad", KernelKind::Cuda)
            .body(vec![])
            .build()
            .unwrap_err();
        assert!(matches!(err, KernelError::InvalidDefinition { .. }));
    }

    #[test]
    fn oversized_block_rejected() {
        let err = KernelDef::builder("bad", KernelKind::Cuda)
            .block_dim(Dim3::x(2048))
            .body(vec![Stmt::compute_cd(Expr::lit(1), "fma")])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("1024"));
    }

    #[test]
    fn undeclared_param_rejected() {
        let err = KernelDef::builder("bad", KernelKind::Cuda)
            .body(vec![Stmt::compute_cd(Expr::param("mystery"), "fma")])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("mystery"));
    }

    #[test]
    fn shared_decl_bumps_resources() {
        let def = KernelDef::builder("smem", KernelKind::Cuda)
            .resources(ResourceUsage::new(32, 0))
            .body(vec![
                Stmt::shared_decl("tile", 9000),
                Stmt::compute_cd(Expr::lit(1), "fma"),
            ])
            .build()
            .unwrap();
        assert_eq!(def.resources().shared_mem_bytes, 9000);
    }

    #[test]
    fn launch_fingerprint_distinguishes_inputs() {
        let def = Arc::new(toy_def());
        let mut b1 = Bindings::new();
        b1.insert("n".into(), 10);
        let mut b2 = Bindings::new();
        b2.insert("n".into(), 20);
        let l1 = KernelLaunch::new(Arc::clone(&def), 64, b1.clone());
        let l2 = KernelLaunch::new(Arc::clone(&def), 64, b2);
        let l3 = KernelLaunch::new(Arc::clone(&def), 128, b1);
        assert_ne!(l1.fingerprint(), l2.fingerprint());
        assert_ne!(l1.fingerprint(), l3.fingerprint());
        assert_eq!(l1.fingerprint(), l1.fingerprint());
        for l in [&l1, &l2, &l3] {
            assert_eq!(
                KernelLaunch::fingerprint_of(&l.def, l.grid_blocks, &l.bindings),
                l.fingerprint()
            );
        }
    }

    #[test]
    fn display_forms() {
        let def = toy_def();
        assert!(format!("{def}").contains("CD `toy`"));
        let launch = KernelLaunch::new(Arc::new(toy_def()), 12, Bindings::new());
        assert_eq!(format!("{launch}"), "toy<<<12, 128>>>");
    }
}
