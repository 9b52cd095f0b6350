//! Explicit SM resources: what a block consumes and what an SM provides.
//!
//! These are the "explicit resources" of §III-C in the paper (thread slots,
//! registers, shared memory, block slots, barriers). The fuser's feasibility
//! checks and the simulator's occupancy calculator both use them.

use std::fmt;

use crate::WARP_SIZE;

/// Per-block resource usage of a kernel.
///
/// ```
/// use tacker_kernel::ResourceUsage;
/// let r = ResourceUsage::new(64, 16 * 1024);
/// assert_eq!(r.registers_per_thread, 64);
/// assert_eq!(r.shared_mem_bytes, 16 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ResourceUsage {
    /// Registers used by each thread.
    pub registers_per_thread: u32,
    /// Static shared memory allocated per block, in bytes.
    pub shared_mem_bytes: u64,
    /// Number of distinct named barriers the block uses (`bar.sync` ids).
    /// Plain kernels use one (`__syncthreads`); fused kernels use one per
    /// branch that synchronizes.
    pub barriers: u32,
}

impl ResourceUsage {
    /// Creates a usage record with a single implicit barrier.
    pub const fn new(registers_per_thread: u32, shared_mem_bytes: u64) -> Self {
        ResourceUsage {
            registers_per_thread,
            shared_mem_bytes,
            barriers: 1,
        }
    }

    /// Sets the number of named barriers.
    pub const fn with_barriers(mut self, barriers: u32) -> Self {
        self.barriers = barriers;
        self
    }

    /// Registers consumed by a whole block of `threads` threads, with
    /// allocation granularity rounding (the hardware allocates registers in
    /// warp-sized chunks).
    pub fn registers_per_block(&self, threads: u32) -> u64 {
        let warps = threads.div_ceil(WARP_SIZE) as u64;
        warps * WARP_SIZE as u64 * self.registers_per_thread as u64
    }

    /// Combines the usage of two component kernels fused into one block.
    ///
    /// Registers take the max per-thread count (each thread runs only one
    /// branch, but the compiler must allocate for the widest); shared memory
    /// and barrier counts add, exactly as in the paper's §V-C example where a
    /// 16 KB + 32 KB pair needs 48 KB.
    pub fn fuse_with(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            registers_per_thread: self.registers_per_thread.max(other.registers_per_thread),
            shared_mem_bytes: self.shared_mem_bytes + other.shared_mem_bytes,
            barriers: self.barriers + other.barriers,
        }
    }
}

impl fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reg/thr, {} B smem, {} barriers",
            self.registers_per_thread, self.shared_mem_bytes, self.barriers
        )
    }
}

/// Per-SM capacity limits of a GPU generation.
///
/// Defaults match the NVIDIA Turing SM used in the paper's main experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmCapacity {
    /// Maximum resident threads per SM.
    pub max_threads: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks: u32,
    /// Register file size (32-bit registers) per SM.
    pub registers: u64,
    /// Shared memory per SM, bytes.
    pub shared_mem_bytes: u64,
    /// Hardware named barriers per SM block slot (PTX allows ids 0..16).
    pub max_barriers: u32,
}

impl SmCapacity {
    /// Turing (RTX 2080Ti) SM limits.
    pub const TURING: SmCapacity = SmCapacity {
        max_threads: 1024,
        max_blocks: 16,
        registers: 65_536,
        shared_mem_bytes: 64 * 1024,
        max_barriers: 16,
    };

    /// Volta (V100) SM limits — notably 96 KB shared memory, which the paper
    /// credits for V100's better memory-intensive co-location results.
    pub const VOLTA: SmCapacity = SmCapacity {
        max_threads: 2048,
        max_blocks: 32,
        registers: 65_536,
        shared_mem_bytes: 96 * 1024,
        max_barriers: 16,
    };

    /// How many blocks of the given shape fit on one SM, limited by thread
    /// slots, block slots, registers, shared memory and named barriers.
    ///
    /// Returns 0 when a single block does not fit at all.
    ///
    /// ```
    /// use tacker_kernel::{ResourceUsage, SmCapacity};
    /// let sm = SmCapacity::TURING;
    /// // 256 threads, 32 regs/thread, 16 KB smem: limited by smem to 4.
    /// let r = ResourceUsage::new(32, 16 * 1024);
    /// assert_eq!(sm.blocks_per_sm(&r, 256), 4);
    /// ```
    pub fn blocks_per_sm(&self, usage: &ResourceUsage, threads_per_block: u32) -> u32 {
        if threads_per_block == 0 || threads_per_block > self.max_threads {
            return 0;
        }
        let by_threads = self.max_threads / threads_per_block;
        let regs_per_block = usage.registers_per_block(threads_per_block);
        let by_regs = if regs_per_block == 0 {
            self.max_blocks
        } else if regs_per_block > self.registers {
            0
        } else {
            (self.registers / regs_per_block) as u32
        };
        let by_smem = if usage.shared_mem_bytes == 0 {
            self.max_blocks
        } else if usage.shared_mem_bytes > self.shared_mem_bytes {
            0
        } else {
            (self.shared_mem_bytes / usage.shared_mem_bytes) as u32
        };
        let by_barriers = if usage.barriers == 0 {
            self.max_blocks
        } else if usage.barriers > self.max_barriers {
            0
        } else {
            self.max_barriers / usage.barriers
        };
        by_threads
            .min(by_regs)
            .min(by_smem)
            .min(by_barriers)
            .min(self.max_blocks)
    }

    /// Whether a single block of this shape fits on the SM at all.
    pub fn fits(&self, usage: &ResourceUsage, threads_per_block: u32) -> bool {
        self.blocks_per_sm(usage, threads_per_block) > 0
    }
}

impl Default for SmCapacity {
    fn default() -> Self {
        SmCapacity::TURING
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_rounding_is_warp_granular() {
        let r = ResourceUsage::new(40, 0);
        // 33 threads round to 2 warps = 64 threads worth of registers.
        assert_eq!(r.registers_per_block(33), 64 * 40);
    }

    #[test]
    fn fuse_adds_smem_and_barriers_maxes_regs() {
        let a = ResourceUsage::new(32, 16 * 1024);
        let b = ResourceUsage::new(64, 32 * 1024);
        let f = a.fuse_with(&b);
        assert_eq!(f.registers_per_thread, 64);
        assert_eq!(f.shared_mem_bytes, 48 * 1024);
        assert_eq!(f.barriers, 2);
    }

    #[test]
    fn occupancy_limited_by_each_resource() {
        let sm = SmCapacity::TURING;
        // Thread-limited: 512 threads → 2 blocks.
        assert_eq!(sm.blocks_per_sm(&ResourceUsage::new(16, 0), 512), 2);
        // Register-limited: 64 regs × 256 thr = 16384 per block → 4 blocks.
        assert_eq!(sm.blocks_per_sm(&ResourceUsage::new(64, 0), 256), 4);
        // Shared-memory-limited: 32 KB → 2 blocks.
        assert_eq!(sm.blocks_per_sm(&ResourceUsage::new(16, 32 * 1024), 128), 2);
        // Block-slot-limited: tiny blocks cap at 16.
        assert_eq!(sm.blocks_per_sm(&ResourceUsage::new(8, 0), 32), 16);
    }

    #[test]
    fn paper_example_48kb_fused_block() {
        // §V-C: TC kernel 16 KB × 2 blocks + CD kernel 32 KB. A fused block
        // with one of each uses 48 KB → only 1 fits in a 64 KB Turing SM.
        let fused = ResourceUsage::new(32, 16 * 1024).fuse_with(&ResourceUsage::new(32, 32 * 1024));
        assert_eq!(SmCapacity::TURING.blocks_per_sm(&fused, 256), 1);
        // Volta's 96 KB SM fits the same fused block twice.
        assert_eq!(SmCapacity::VOLTA.blocks_per_sm(&fused, 256), 2);
    }

    #[test]
    fn zero_and_oversized_blocks() {
        let sm = SmCapacity::TURING;
        assert_eq!(sm.blocks_per_sm(&ResourceUsage::new(16, 0), 0), 0);
        assert_eq!(sm.blocks_per_sm(&ResourceUsage::new(16, 0), 2048), 0);
        assert!(!sm.fits(&ResourceUsage::new(16, 128 * 1024), 128));
    }

    #[test]
    fn barrier_limit_applies() {
        let sm = SmCapacity::TURING;
        let r = ResourceUsage::new(8, 0).with_barriers(9);
        // 16 named barriers / 9 per block → 1 block.
        assert_eq!(sm.blocks_per_sm(&r, 32), 1);
    }
}
