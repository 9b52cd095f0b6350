//! The one quantile module: nearest-rank definition and the streaming
//! quantile sketch.
//!
//! This module is the single source of truth for percentiles:
//!
//! * [`nearest_rank`] pins the rank definition (`⌈p·n⌉`-th smallest,
//!   clamped to `[1, n]`) shared by the exact sample-sorting percentile
//!   in `tacker::metrics` and the sketch below;
//! * [`QuantileSketch`] is a DDSketch-style mergeable quantile sketch over
//!   integer nanosecond samples with a **fixed bucket budget** — O(1)
//!   memory at any sample count — whose quantile estimates stay within
//!   [`QuantileSketch::RELATIVE_ERROR`] (≈0.5%) relative error of the
//!   exact nearest-rank value.
//!
//! # Determinism
//!
//! The sketch is bit-reproducible: bucket indices are pure functions of
//! the sample value, and every accumulator (bucket counts, count, sum,
//! min, max) is an integer, so [`QuantileSketch::merge`] is commutative
//! and associative — merging per-service sketches in **any order** yields
//! exactly the sketch of the union stream. This is what lets the serving
//! runtime keep one sketch per service plus an all-service aggregate and
//! have the two views agree bit for bit. Bucket counts are stored as
//! `u16` and widened to `u64` the first time a bucket would overflow, so
//! they never saturate; equality compares count values, not storage
//! width.

/// The nearest-rank of quantile `p ∈ [0, 1]` over `n` samples: the
/// `⌈p·n⌉`-th smallest sample, clamped into `[1, n]`. Returns 0 only when
/// `n == 0`. This is the rank definition every percentile in the
/// workspace uses (exact and sketch).
pub fn nearest_rank(n: u64, p: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    let p = p.clamp(0.0, 1.0);
    ((p * n as f64).ceil() as u64).clamp(1, n)
}

/// Fixed bucket budget of the sketch: buckets cover `[1, γ^BUCKETS)`
/// nanoseconds ≈ 19 years, far beyond any simulated latency.
const BUCKETS: usize = 4096;

/// Bucket-width parameter `γ = (1 + α) / (1 − α)` with `α = 0.005`:
/// bucket `i` holds values in `[γ^i, γ^(i+1))`, so the geometric midpoint
/// is within `√γ − 1 ≈ 0.5%` of any value in the bucket.
const GAMMA: f64 = 1.005 / 0.995;

/// A mergeable, deterministic, fixed-memory quantile sketch over
/// non-negative integer samples (nanoseconds, by convention).
///
/// DDSketch-style log buckets with a fixed budget ([`BUCKETS`] = 4096
/// counts, [`QuantileSketch::memory_bytes`]): `u16` counts ≈ 8 KiB,
/// widened once to `u64` (≈ 32 KiB) if any bucket passes `u16::MAX`
/// samples. Values below 1 clamp into the first bucket, values beyond the
/// last bucket clamp into it. Count, sum, min and max are exact integers;
/// quantiles return the holding bucket's geometric midpoint clamped into
/// the observed `[min, max]`, and the top rank returns the exact maximum.
#[derive(Clone)]
pub struct QuantileSketch {
    counts: Counts,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && (0..BUCKETS).all(|i| self.counts.get(i) == other.counts.get(i))
    }
}

impl Eq for QuantileSketch {}

/// Per-bucket counts over a stored range of bucket indexes, `offset..`
/// `offset + len`; every bucket outside it holds zero. The range is the
/// whole budget until [`QuantileSketch::shrink_to_fit`] trims it to the
/// occupied buckets, and the first later write restores it.
#[derive(Clone)]
struct Counts {
    offset: usize,
    store: Store,
}

/// Stored counts: `u16` until a bucket would overflow, then `u64`.
/// Latency sketches rarely see 65,536 samples in one 1%-wide bucket, and
/// reports that keep many sketches keep them at a quarter of the size.
#[derive(Clone)]
enum Store {
    Narrow(Box<[u16]>),
    Wide(Box<[u64]>),
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Narrow(c) => c.len(),
            Store::Wide(c) => c.len(),
        }
    }

    fn get(&self, j: usize) -> u64 {
        match self {
            Store::Narrow(c) => u64::from(c[j]),
            Store::Wide(c) => c[j],
        }
    }
}

impl Counts {
    fn new() -> Counts {
        Counts {
            offset: 0,
            store: Store::Narrow(vec![0; BUCKETS].into_boxed_slice()),
        }
    }

    fn get(&self, i: usize) -> u64 {
        match i.checked_sub(self.offset) {
            Some(j) if j < self.store.len() => self.store.get(j),
            _ => 0,
        }
    }

    /// `(bucket, count)` over the stored range, in bucket order.
    fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.store.len()).map(|j| (self.offset + j, self.store.get(j)))
    }

    /// Restores the whole budget after a trim, keeping every count.
    fn expand(&mut self) {
        if self.offset == 0 && self.store.len() == BUCKETS {
            return;
        }
        self.store = match &self.store {
            Store::Narrow(_) => Store::Narrow((0..BUCKETS).map(|i| self.get(i) as u16).collect()),
            Store::Wide(_) => Store::Wide((0..BUCKETS).map(|i| self.get(i)).collect()),
        };
        self.offset = 0;
    }

    /// The counts as `u64`s over the whole budget, converting the
    /// storage on first use.
    fn widen(&mut self) -> &mut [u64] {
        self.expand();
        if let Store::Narrow(c) = &self.store {
            self.store = Store::Wide(c.iter().map(|&n| u64::from(n)).collect());
        }
        match &mut self.store {
            Store::Wide(c) => c,
            Store::Narrow(_) => unreachable!("widened above"),
        }
    }

    fn add(&mut self, i: usize, n: u64) {
        self.expand();
        if let Store::Narrow(c) = &mut self.store {
            if let Some(sum) = u16::try_from(n).ok().and_then(|n| c[i].checked_add(n)) {
                c[i] = sum;
                return;
            }
        }
        self.widen()[i] += n;
    }

    fn merge(&mut self, other: &Counts) {
        self.expand();
        if let (Store::Narrow(a), Store::Narrow(b)) = (&mut self.store, &other.store) {
            let a = &mut a[other.offset..other.offset + b.len()];
            if a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.checked_add(*y).is_some())
            {
                a.iter_mut().zip(b.iter()).for_each(|(x, y)| *x += y);
                return;
            }
        }
        let wide = self.widen();
        for (i, n) in other.iter() {
            wide[i] += n;
        }
    }

    /// Trims the stored range to buckets `range` (which must hold every
    /// non-zero count).
    fn trim(&mut self, range: std::ops::Range<usize>) {
        let (lo, hi) = (range.start - self.offset, range.end - self.offset);
        self.store = match &self.store {
            Store::Narrow(c) => Store::Narrow(c[lo..hi].into()),
            Store::Wide(c) => Store::Wide(c[lo..hi].into()),
        };
        self.offset = range.start;
    }

    fn bytes(&self) -> usize {
        match &self.store {
            Store::Narrow(c) => std::mem::size_of_val::<[u16]>(c),
            Store::Wide(c) => std::mem::size_of_val::<[u64]>(c),
        }
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl std::fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

impl QuantileSketch {
    /// Worst-case relative error of a quantile estimate versus the exact
    /// nearest-rank sample: one bucket's half-width, `√γ − 1`.
    pub const RELATIVE_ERROR: f64 = 0.005_013;

    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            counts: Counts::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket holding `value`: `⌊ln(v) / ln(γ)⌋`, clamped into the
    /// budget. A pure function of the value — the cornerstone of
    /// merge-order invariance.
    fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            return 0;
        }
        let idx = ((value as f64).ln() / GAMMA.ln()).floor() as isize;
        idx.clamp(0, BUCKETS as isize - 1) as usize
    }

    /// Geometric midpoint of bucket `i`, the representative a quantile
    /// query returns.
    fn bucket_mid(i: usize) -> f64 {
        ((i as f64 + 0.5) * GAMMA.ln()).exp()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.counts.add(Self::bucket_index(value), 1);
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean, rounded down (`None` when empty).
    pub fn mean(&self) -> Option<u64> {
        (self.count > 0)
            .then(|| u64::try_from(self.sum / u128::from(self.count)).unwrap_or(u64::MAX))
    }

    /// Exact minimum sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank quantile estimate for `p ∈ [0, 1]` (`None` when
    /// empty): walks the cumulative bucket counts to the holding bucket
    /// and returns its geometric midpoint clamped into `[min, max]`;
    /// the top rank returns the exact maximum. Within
    /// [`QuantileSketch::RELATIVE_ERROR`] of the exact sample quantile.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(self.count, p);
        if rank >= self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, n) in self.counts.iter() {
            seen += n;
            if seen >= rank {
                let mid = Self::bucket_mid(i).round() as u64;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self`. Bucket-wise integer addition (widening
    /// the counts if a bucket would pass `u16::MAX`): commutative,
    /// associative, and equal to having observed the union stream in any
    /// order.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.counts.merge(&other.counts);
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Memory footprint of the bucket array plus scalars: ≈ 8 KiB, or
    /// ≈ 32 KiB once a bucket has passed `u16::MAX` samples — independent
    /// of how many samples were observed otherwise — until
    /// [`QuantileSketch::shrink_to_fit`] trims it.
    pub fn memory_bytes(&self) -> usize {
        self.counts.bytes() + std::mem::size_of::<Self>()
    }

    /// Releases the storage of the empty buckets below the smallest and
    /// above the largest sample, for a sketch that will take few or no
    /// more samples (a finished run's report): a latency distribution
    /// spanning one decade keeps ≈ 230 buckets instead of 4096. Changes
    /// no count, quantile or equality; the next `observe` or `merge`
    /// restores the full budget.
    pub fn shrink_to_fit(&mut self) {
        // Bucket indexes are monotone in the value, so the exact extremes
        // bound the occupied range.
        let range = if self.count == 0 {
            self.counts.offset..self.counts.offset
        } else {
            Self::bucket_index(self.min)..Self::bucket_index(self.max) + 1
        };
        self.counts.trim(range);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_nearest_rank(samples: &[u64], p: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
    }

    #[test]
    fn rank_definition() {
        assert_eq!(nearest_rank(0, 0.5), 0);
        assert_eq!(nearest_rank(10, 0.0), 1);
        assert_eq!(nearest_rank(10, 0.5), 5);
        assert_eq!(nearest_rank(10, 0.99), 10);
        assert_eq!(nearest_rank(10, 1.0), 10);
        assert_eq!(nearest_rank(1000, 0.999), 999);
    }

    #[test]
    fn relative_error_bound_covers_one_bucket() {
        // The documented constant must dominate the actual half-width.
        assert!(GAMMA.sqrt() - 1.0 <= QuantileSketch::RELATIVE_ERROR);
    }

    #[test]
    fn empty_sketch() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.99), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn exact_scalars_and_bounded_quantiles() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 37 % 100_000 + 1).collect();
        let mut s = QuantileSketch::new();
        for &v in &samples {
            s.observe(v);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), samples.iter().map(|&v| u128::from(v)).sum());
        assert_eq!(s.min(), samples.iter().copied().min());
        assert_eq!(s.max(), samples.iter().copied().max());
        for p in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let exact = exact_nearest_rank(&samples, p);
            let est = s.percentile(p).unwrap();
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= QuantileSketch::RELATIVE_ERROR + 1e-9,
                "p={p}: est={est} exact={exact} rel={rel}"
            );
        }
        // The top rank is the exact maximum.
        assert_eq!(s.percentile(1.0), s.max());
    }

    #[test]
    fn merge_equals_union_in_any_order() {
        let a_samples = [5u64, 900, 42, 1_000_000, 7];
        let b_samples = [1u64, 3_000_000_000, 65, 65, 65];
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut union = QuantileSketch::new();
        for &v in &a_samples {
            a.observe(v);
            union.observe(v);
        }
        for &v in &b_samples {
            b.observe(v);
            union.observe(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, union);
        assert_eq!(ba, union);
    }

    #[test]
    fn extremes_clamp_into_the_budget() {
        let mut s = QuantileSketch::new();
        s.observe(0);
        s.observe(u64::MAX);
        assert_eq!(s.count(), 2);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(u64::MAX));
        // Quantiles stay inside the observed range even for clamped
        // buckets: rank 1 of {0, MAX} is bucket 0's midpoint (≈1), and
        // the top rank returns the exact maximum.
        assert_eq!(s.percentile(0.5), Some(1));
        assert_eq!(s.percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn merge_widens_counts_without_saturating() {
        let samples = [5u64, 900, 900, 1_000_000];
        let mut small = QuantileSketch::new();
        for &v in &samples {
            small.observe(v);
        }
        // 32 self-merges scale every count by 2^32: the 900 bucket
        // (2^33 samples) no longer fits a u16.
        let mut big = small.clone();
        for _ in 0..32 {
            let copy = big.clone();
            big.merge(&copy);
        }
        assert!(matches!(big.counts.store, Store::Wide(_)), "counts widened");
        assert!(matches!(small.counts.store, Store::Narrow(_)));
        assert!(big.memory_bytes() > small.memory_bytes());
        assert_eq!(big.count(), 4 << 32);
        assert_eq!(big.sum(), small.sum() << 32);
        let bucket = QuantileSketch::bucket_index(900);
        assert_eq!(big.counts.get(bucket), 2 << 32);
        // Same distribution, so the same quantiles (the top rank is the
        // exact maximum in both).
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(big.percentile(p), small.percentile(p), "p={p}");
        }
        // Wide into narrow and narrow into wide agree, and equality looks
        // at count values, not storage width.
        let mut wide_first = big.clone();
        wide_first.merge(&small);
        let mut narrow_first = small.clone();
        narrow_first.merge(&big);
        assert!(matches!(narrow_first.counts.store, Store::Wide(_)));
        assert_eq!(wide_first, narrow_first);
        assert_eq!(wide_first.count(), (4 << 32) + 4);
        let mut widened = small.clone();
        widened.counts.widen();
        assert_eq!(widened, small);
        // A single bucket crossing u16::MAX widens through `add` too.
        let mut edge = QuantileSketch::new();
        edge.counts.add(bucket, u64::from(u16::MAX));
        assert!(matches!(edge.counts.store, Store::Narrow(_)));
        edge.counts.add(bucket, 1);
        assert_eq!(edge.counts.get(bucket), 1 << 16);
    }

    #[test]
    fn shrink_to_fit_keeps_the_distribution() {
        let samples: Vec<u64> = (0..5_000u64).map(|i| 2_000_000 + i * 7_919).collect();
        let mut full = QuantileSketch::new();
        for &v in &samples {
            full.observe(v);
        }
        let mut trimmed = full.clone();
        trimmed.shrink_to_fit();
        assert!(trimmed.memory_bytes() * 4 < full.memory_bytes());
        assert_eq!(trimmed, full);
        for p in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(trimmed.percentile(p), full.percentile(p), "p={p}");
        }
        // Writes after a trim see the whole budget again.
        let mut other = QuantileSketch::new();
        other.observe(3);
        other.observe(1 << 40);
        other.shrink_to_fit();
        let mut union = full.clone();
        union.merge(&other);
        let mut merged = trimmed.clone();
        merged.merge(&other);
        assert_eq!(merged, union);
        trimmed.observe(5);
        full.observe(5);
        assert_eq!(trimmed, full);
        assert_eq!(trimmed.percentile(0.0), full.percentile(0.0));
        // An empty sketch trims to nothing and still works.
        let mut empty = QuantileSketch::new();
        empty.shrink_to_fit();
        assert_eq!(empty.percentile(0.5), None);
        empty.observe(9);
        assert_eq!(empty.percentile(0.5), Some(9));
    }

    #[test]
    fn memory_is_fixed() {
        let mut s = QuantileSketch::new();
        let before = s.memory_bytes();
        for i in 0..100_000u64 {
            s.observe(i * 131 + 1);
        }
        assert_eq!(s.memory_bytes(), before);
    }
}
