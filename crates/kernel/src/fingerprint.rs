//! Content fingerprints for kernel definitions and launches.
//!
//! A [`KernelDef`](crate::KernelDef)'s identity is derived from its
//! structural content — name, kind, block shape, resources, parameters,
//! body AST and flags — rather than from a process-local counter. Two
//! structurally equal definitions therefore share one
//! [`KernelId`](crate::KernelId) in *any* process, which is what lets the
//! device execution cache recognise a fused kernel rebuilt by a later run
//! (or another process, or another sweep cell) as the kernel it has
//! already simulated.
//!
//! The hash is a hand-rolled FNV-1a 64 with explicit domain-separation
//! tags and length prefixes, so it does not depend on `std`'s hasher
//! (whose keys/algorithm are unspecified across toolchains) and stays
//! stable across runs, processes and Rust versions.

use crate::ast::{ComputeUnit, Expr, MemDir, MemSpace, Stmt};
use crate::dims::Dim3;
use crate::resources::ResourceUsage;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic, platform-independent streaming hasher (FNV-1a 64).
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the algorithm is
/// pinned: the same byte stream fingerprints identically on every host,
/// process and toolchain.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a single byte (used for enum/variant tags).
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Absorbs an `f64` via its bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Finishes the hash. A final SplitMix64-style avalanche spreads the
    /// FNV state over all 64 bits so the low bits (used for cache-shard
    /// selection) are well mixed even for short inputs.
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A pass-through [`Hasher`](std::hash::Hasher) for maps keyed by
/// fingerprints that [`StableHasher::finish`] already avalanche-mixed.
///
/// A lone `u64` key hashes to itself, so a lookup skips SipHash
/// entirely; a tuple key folds each further word in with a rotate-xor,
/// which keeps `(a, b)` and `(b, a)` apart. Keys must be well mixed in
/// every bit (launch and plan fingerprints, [`KernelId`](crate::KernelId)
/// values): hashbrown selects the bucket from the low bits and the
/// control byte from the top seven. Any other key type still works —
/// equality decides a lookup — but may cluster.
#[derive(Debug, Default, Clone, Copy)]
pub struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = self.0.rotate_left(26) ^ v;
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`FpHasher`]:
/// `HashMap<u64, V, FpBuild>` is a fingerprint-keyed map.
pub type FpBuild = std::hash::BuildHasherDefault<FpHasher>;

fn hash_expr(h: &mut StableHasher, e: &Expr) {
    match e {
        Expr::Lit(v) => {
            h.write_tag(0);
            h.write_u64(*v);
        }
        Expr::Param(p) => {
            h.write_tag(1);
            h.write_str(p);
        }
        Expr::BlockIdx => h.write_tag(2),
        Expr::Add(a, b) => {
            h.write_tag(3);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Mul(a, b) => {
            h.write_tag(4);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::CeilDiv(a, b) => {
            h.write_tag(5);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Div(a, b) => {
            h.write_tag(6);
            hash_expr(h, a);
            hash_expr(h, b);
        }
    }
}

fn hash_body(h: &mut StableHasher, body: &[Stmt]) {
    h.write_u64(body.len() as u64);
    for s in body {
        hash_stmt(h, s);
    }
}

fn hash_stmt(h: &mut StableHasher, s: &Stmt) {
    match s {
        Stmt::SharedDecl { name, bytes } => {
            h.write_tag(0);
            h.write_str(name);
            h.write_u64(*bytes);
        }
        Stmt::Loop { var, count, body } => {
            h.write_tag(1);
            h.write_str(var);
            hash_expr(h, count);
            hash_body(h, body);
        }
        Stmt::Compute {
            unit,
            ops_per_thread,
            desc,
        } => {
            h.write_tag(2);
            h.write_tag(match unit {
                ComputeUnit::Tensor => 0,
                ComputeUnit::Cuda => 1,
            });
            hash_expr(h, ops_per_thread);
            h.write_str(desc);
        }
        Stmt::MemAccess {
            dir,
            space,
            bytes_per_thread,
            locality,
            buffer,
        } => {
            h.write_tag(3);
            h.write_tag(match dir {
                MemDir::Read => 0,
                MemDir::Write => 1,
            });
            h.write_tag(match space {
                MemSpace::Global => 0,
                MemSpace::Shared => 1,
            });
            hash_expr(h, bytes_per_thread);
            h.write_f64(*locality);
            h.write_str(buffer);
        }
        Stmt::SyncThreads => h.write_tag(4),
        Stmt::BarSync { id, count_threads } => {
            h.write_tag(5);
            h.write_u64(*id as u64);
            h.write_u32(*count_threads);
        }
        Stmt::ThreadRange { lo, hi, body } => {
            h.write_tag(6);
            h.write_u32(*lo);
            h.write_u32(*hi);
            hash_body(h, body);
        }
        Stmt::BlockGuard { limit, body } => {
            h.write_tag(7);
            hash_expr(h, limit);
            hash_body(h, body);
        }
        Stmt::PtbLoop {
            original_blocks,
            body,
        } => {
            h.write_tag(8);
            hash_expr(h, original_blocks);
            hash_body(h, body);
        }
    }
}

/// The content fields a definition's identity is derived from.
///
/// Everything that participates in [`KernelDef`](crate::KernelDef)'s
/// structural equality participates here, so `a == b` implies equal
/// fingerprints, and any field perturbation changes the fingerprint
/// (modulo 64-bit collisions).
pub(crate) struct DefContent<'a> {
    pub name: &'a str,
    pub kind_tag: u8,
    pub block_dim: Dim3,
    pub resources: &'a ResourceUsage,
    pub params: &'a [String],
    pub body: &'a [Stmt],
    pub ptb: bool,
    pub opaque: bool,
}

/// Fingerprints a definition's structural content.
pub(crate) fn def_fingerprint(c: &DefContent<'_>) -> u64 {
    let mut h = StableHasher::new();
    // Version tag: bump if the encoding ever changes, so stale persisted
    // fingerprints (if any appear later) cannot alias new ones.
    h.write_tag(1);
    h.write_str(c.name);
    h.write_tag(c.kind_tag);
    h.write_u32(c.block_dim.x);
    h.write_u32(c.block_dim.y);
    h.write_u32(c.block_dim.z);
    h.write_u32(c.resources.registers_per_thread);
    h.write_u64(c.resources.shared_mem_bytes);
    h.write_u32(c.resources.barriers);
    h.write_u64(c.params.len() as u64);
    for p in c.params {
        h.write_str(p);
    }
    hash_body(&mut h, c.body);
    h.write_tag(c.ptb as u8);
    h.write_tag(c.opaque as u8);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        let mut b = StableHasher::new();
        b.write_str("ab");
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_str("ba");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_prevents_concat_aliasing() {
        // ("ab", "c") must not hash like ("a", "bc").
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fp_maps_agree_with_random_state_maps() {
        use std::collections::HashMap;
        let fp = |i: u64| {
            let mut h = StableHasher::new();
            h.write_u64(i);
            h.finish()
        };
        let mut single: HashMap<u64, u64, FpBuild> = HashMap::default();
        let mut single_ref: HashMap<u64, u64> = HashMap::new();
        let mut pair: HashMap<(u64, u64), u64, FpBuild> = HashMap::default();
        let mut pair_ref: HashMap<(u64, u64), u64> = HashMap::new();
        for i in 0..500u64 {
            single.insert(fp(i), i);
            single_ref.insert(fp(i), i);
            // Both orders and the diagonal: the fold must tell them apart.
            for key in [(fp(i), fp(i + 1)), (fp(i + 1), fp(i)), (fp(i), fp(i))] {
                pair.insert(key, i);
                pair_ref.insert(key, i);
            }
        }
        assert_eq!(single.len(), single_ref.len());
        assert_eq!(pair.len(), pair_ref.len());
        // Present and absent keys alike.
        for i in 0..1000u64 {
            assert_eq!(single.get(&fp(i)), single_ref.get(&fp(i)));
            for key in [(fp(i), fp(i + 1)), (fp(i + 1), fp(i)), (fp(i), fp(i + 2))] {
                assert_eq!(pair.get(&key), pair_ref.get(&key));
            }
        }
        // A lone fingerprint hashes to itself.
        use std::hash::BuildHasher;
        assert_eq!(FpBuild::default().hash_one(fp(7)), fp(7));
    }

    #[test]
    fn expr_variants_are_domain_separated() {
        let lit = {
            let mut h = StableHasher::new();
            hash_expr(&mut h, &Expr::Lit(2));
            h.finish()
        };
        let idx = {
            let mut h = StableHasher::new();
            hash_expr(&mut h, &Expr::BlockIdx);
            h.finish()
        };
        assert_ne!(lit, idx);
    }
}
