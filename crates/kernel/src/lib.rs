//! Kernel intermediate representation for the Tacker reproduction.
//!
//! This crate defines everything the rest of the workspace agrees on when it
//! talks about a GPU kernel:
//!
//! * geometry and time primitives ([`Dim3`], [`Cycles`], [`SimTime`]);
//! * per-kernel resource usage and per-SM capacities ([`ResourceUsage`],
//!   [`SmCapacity`]);
//! * a miniature CUDA-like abstract syntax tree ([`ast`]) that the fuser
//!   rewrites (PTB transform, thread-range split, `bar.sync` allocation) and
//!   that can be rendered back to CUDA-looking source ([`source`]);
//! * a lowering pass from the AST to per-warp timing segment programs
//!   ([`segments`], [`lower`]) which the discrete-event simulator executes.
//!
//! The paper's kernel fuser is a source-to-source CUDA compiler. Since this
//! reproduction has no CUDA toolchain, the AST plays the role of the parsed
//! source: the same structural transformations are applied to it, and the
//! simulator executes the lowered semantics while the renderer shows the
//! equivalent CUDA text.
//!
//! # Example
//!
//! ```
//! use tacker_kernel::{ast::*, Dim3, KernelDef, KernelKind, ResourceUsage};
//!
//! let body = vec![
//!     Stmt::shared_decl("tile", 4096),
//!     Stmt::loop_over(
//!         "k",
//!         Expr::param("k_iters"),
//!         vec![
//!             Stmt::global_load("a", Expr::lit(128), 0.5),
//!             Stmt::sync_threads(),
//!             Stmt::compute_cd(Expr::lit(256), "acc += a[i] * b[i]"),
//!             Stmt::sync_threads(),
//!         ],
//!     ),
//!     Stmt::global_store("c", Expr::lit(64), 0.0),
//! ];
//! let def = KernelDef::builder("toy", KernelKind::Cuda)
//!     .block_dim(Dim3::x(256))
//!     .resources(ResourceUsage::new(32, 4096))
//!     .param("k_iters")
//!     .body(body)
//!     .build()
//!     .expect("valid kernel");
//! assert_eq!(def.name(), "toy");
//! ```

pub mod ast;
pub mod dims;
pub mod error;
pub mod fingerprint;
pub mod intern;
pub mod kernel;
pub mod lower;
pub mod resources;
pub mod segments;
pub mod source;
pub mod time;

pub use ast::{ComputeUnit, Expr, MemDir, MemSpace, Stmt};
pub use dims::{Dim3, LaunchGeometry};
pub use error::KernelError;
pub use fingerprint::{FpBuild, FpHasher, StableHasher};
pub use intern::{intern, intern_name, NameId};
pub use kernel::{Bindings, KernelDef, KernelDefBuilder, KernelId, KernelKind, KernelLaunch, Name};
pub use lower::{lower_block, LowerOptions};
pub use resources::{ResourceUsage, SmCapacity};
pub use segments::{BarrierSpec, BlockProgram, Op, WarpProgram, WarpRole};
pub use time::{Cycles, SimTime};

/// The fixed number of threads in a warp, as on all NVIDIA architectures the
/// paper targets (Volta and Turing).
pub const WARP_SIZE: u32 = 32;
