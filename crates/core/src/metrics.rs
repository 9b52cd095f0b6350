//! Latency and throughput metrics.
//!
//! The rank definition for every percentile in the workspace lives in
//! `tacker_trace::quantile` ([`nearest_rank`]): the exact [`percentile`]
//! here and the `QuantileSketch` agree on "the `⌈p·n⌉`-th smallest
//! sample". [`LatencyStats`] is the
//! bounded-memory latency accumulator built on that module: exact
//! samples up to a retention limit, a fixed-memory sketch beyond it.

use tacker_kernel::SimTime;
use tacker_trace::quantile::nearest_rank;
use tacker_trace::QuantileSketch;

/// Mean of a latency sample.
pub fn mean(samples: &[SimTime]) -> SimTime {
    if samples.is_empty() {
        return SimTime::ZERO;
    }
    let total: u128 = samples.iter().map(|s| s.as_nanos() as u128).sum();
    SimTime::from_nanos((total / samples.len() as u128) as u64)
}

/// The p-th percentile (nearest-rank method), `p ∈ [0, 100]`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(samples: &[SimTime], p: f64) -> SimTime {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return SimTime::ZERO;
    }
    nth_ranked(samples, p)
}

/// The nearest-rank p-th percentile of non-empty `samples`, from one
/// sorted scratch copy.
fn nth_ranked<T: Ord + Copy>(samples: &[T], p: f64) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[nearest_rank(sorted.len() as u64, p / 100.0) as usize - 1]
}

/// Default number of exact latency samples [`LatencyStats`] retains
/// before spilling into the fixed-memory sketch. Small enough that batch
/// experiments (tens to hundreds of queries) stay exact — and therefore
/// bit-identical to the pre-sketch reports — while long serving runs cap
/// out at ~16 KiB of samples plus the 8–32 KiB sketch.
pub const DEFAULT_EXACT_LIMIT: usize = 4096;

/// Exact samples in nanoseconds: `u32`s while every sample fits (below
/// ≈ 4.29 s, far past any QoS target), `u64`s from the first that does
/// not. Halves what a report holds for its exact latencies.
#[derive(Debug, Clone)]
enum Samples {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Samples {
    fn push(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        match self {
            Samples::Narrow(v) => match u32::try_from(ns) {
                Ok(n) => v.push(n),
                Err(_) => {
                    let mut wide: Vec<u64> = v.iter().map(|&n| u64::from(n)).collect();
                    wide.push(ns);
                    *self = Samples::Wide(wide);
                }
            },
            Samples::Wide(v) => v.push(ns),
        }
    }

    fn len(&self) -> usize {
        match self {
            Samples::Narrow(v) => v.len(),
            Samples::Wide(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples in observation order, widened one at a time.
    fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        let (narrow, wide): (&[u32], &[u64]) = match self {
            Samples::Narrow(v) => (v, &[]),
            Samples::Wide(v) => (&[], v),
        };
        narrow
            .iter()
            .map(|&n| u64::from(n))
            .chain(wide.iter().copied())
            .map(SimTime::from_nanos)
    }

    /// Exact mean of non-empty samples, as the free [`mean`] computes it.
    fn mean(&self) -> SimTime {
        let total: u128 = self.iter().map(|s| u128::from(s.as_nanos())).sum();
        SimTime::from_nanos((total / self.len() as u128) as u64)
    }

    /// Nearest-rank percentile of non-empty samples, sorted at their
    /// stored width.
    fn percentile(&self, p: f64) -> SimTime {
        match self {
            Samples::Narrow(v) => SimTime::from_nanos(nth_ranked(v, p).into()),
            Samples::Wide(v) => SimTime::from_nanos(nth_ranked(v, p)),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Samples::Narrow(v) => v.capacity() * std::mem::size_of::<u32>(),
            Samples::Wide(v) => v.capacity() * std::mem::size_of::<u64>(),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Samples::Narrow(v) => v.shrink_to_fit(),
            Samples::Wide(v) => v.shrink_to_fit(),
        }
    }
}

#[derive(Debug, Clone)]
enum Repr {
    /// Every sample retained; percentiles are exact. A percentile query
    /// sorts a scratch copy and keeps nothing: a finished run's report
    /// holds only its samples.
    Exact { samples: Samples, limit: usize },
    /// Fixed-memory DDSketch-style summary; percentiles are within
    /// [`QuantileSketch::RELATIVE_ERROR`] of exact.
    Sketch(QuantileSketch),
}

/// Bounded-memory latency statistics: exact nearest-rank percentiles for
/// small runs, a mergeable fixed-memory quantile sketch beyond a
/// retention limit.
///
/// Construction picks the mode: [`LatencyStats::exact`] never spills
/// (the pre-existing behavior), [`LatencyStats::auto`] spills past
/// [`DEFAULT_EXACT_LIMIT`] samples, and [`LatencyStats::with_limit`]`(0)`
/// sketches from the first sample. Spilling replays the retained samples
/// into the sketch, so the summary covers the whole stream either way.
///
/// Count, sum (hence mean), min and max stay exact in both modes. The
/// struct tracks its own [`peak_bytes`](LatencyStats::peak_bytes) —
/// the high-water mark of retained sample memory — which the bench
/// suite's bounded-memory gate reads.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    repr: Repr,
    peak_bytes: usize,
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::auto()
    }
}

impl LatencyStats {
    /// Exact-only stats: never spills to the sketch.
    pub fn exact() -> Self {
        LatencyStats::with_limit(usize::MAX)
    }

    /// Exact up to [`DEFAULT_EXACT_LIMIT`] samples, sketch beyond.
    pub fn auto() -> Self {
        LatencyStats::with_limit(DEFAULT_EXACT_LIMIT)
    }

    /// Exact up to `limit` retained samples, sketch beyond; `limit == 0`
    /// sketches from the first sample.
    pub fn with_limit(limit: usize) -> Self {
        let repr = if limit == 0 {
            Repr::Sketch(QuantileSketch::new())
        } else {
            Repr::Exact {
                samples: Samples::Narrow(Vec::new()),
                limit,
            }
        };
        let mut stats = LatencyStats {
            repr,
            peak_bytes: 0,
        };
        stats.note_retained();
        stats
    }

    fn note_retained(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.retained_bytes());
    }

    /// Records one query latency.
    pub fn observe(&mut self, latency: SimTime) {
        let spill = match &mut self.repr {
            Repr::Exact { samples, limit } => {
                samples.push(latency);
                samples.len() > *limit
            }
            Repr::Sketch(s) => {
                s.observe(latency.as_nanos());
                false
            }
        };
        self.note_retained();
        if spill {
            self.force_sketch();
        }
    }

    /// Converts an exact representation into the sketch, replaying every
    /// retained sample.
    fn force_sketch(&mut self) {
        if let Repr::Exact { .. } = &self.repr {
            self.repr = Repr::Sketch(self.to_sketch());
            self.note_retained();
        }
    }

    /// Completed samples recorded.
    pub fn count(&self) -> usize {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.len(),
            Repr::Sketch(s) => s.count() as usize,
        }
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact mean latency (`None` when empty) — the sum is exact in both
    /// modes.
    pub fn mean(&self) -> Option<SimTime> {
        match &self.repr {
            Repr::Exact { samples, .. } => (!samples.is_empty()).then(|| samples.mean()),
            Repr::Sketch(s) => s.mean().map(SimTime::from_nanos),
        }
    }

    /// The p-th percentile, `p ∈ [0, 100]` (`None` when empty): exact
    /// nearest-rank in exact mode (the free [`percentile`]), sketch
    /// estimate within [`QuantileSketch::RELATIVE_ERROR`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<SimTime> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        match &self.repr {
            Repr::Exact { samples, .. } => (!samples.is_empty()).then(|| samples.percentile(p)),
            Repr::Sketch(s) => s.percentile(p / 100.0).map(SimTime::from_nanos),
        }
    }

    /// The retained exact samples, in observation order (empty once the
    /// stats have spilled to the sketch).
    pub fn samples(&self) -> Vec<SimTime> {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.iter().collect(),
            Repr::Sketch(_) => Vec::new(),
        }
    }

    /// Whether the stats have spilled into sketch mode.
    pub fn is_sketch(&self) -> bool {
        matches!(self.repr, Repr::Sketch(_))
    }

    /// Bytes currently held for latency samples: the sample vector in
    /// exact mode, the sketch footprint in sketch mode.
    pub fn retained_bytes(&self) -> usize {
        match &self.repr {
            Repr::Exact { samples, .. } => samples.bytes(),
            Repr::Sketch(s) => s.memory_bytes(),
        }
    }

    /// Releases the spare capacity of the exact-mode sample vector, or
    /// the sketch's empty buckets outside the observed range, for stats
    /// that will take no more samples (a finished run's report). Does not
    /// touch the recorded samples, any statistic or the peak.
    pub(crate) fn shrink_to_fit(&mut self) {
        match &mut self.repr {
            Repr::Exact { samples, .. } => samples.shrink_to_fit(),
            Repr::Sketch(s) => s.shrink_to_fit(),
        }
    }

    /// High-water mark of [`retained_bytes`](LatencyStats::retained_bytes)
    /// over the stats' lifetime — what the bounded-memory bench gate
    /// checks stays flat as query count grows in sketch mode.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// This stream as a [`QuantileSketch`] (built from the samples in
    /// exact mode, cloned in sketch mode).
    pub fn to_sketch(&self) -> QuantileSketch {
        match &self.repr {
            Repr::Exact { samples, .. } => {
                let mut sketch = QuantileSketch::new();
                for s in samples.iter() {
                    sketch.observe(s.as_nanos());
                }
                sketch
            }
            Repr::Sketch(s) => s.clone(),
        }
    }

    /// Folds `other` into `self`. Exact+exact concatenates samples
    /// (spilling if the limit is crossed); any sketch involvement
    /// converts `self` to sketch mode and merges bucket-wise, which is
    /// order-invariant.
    pub fn merge(&mut self, other: &LatencyStats) {
        match &other.repr {
            Repr::Exact { samples, .. } => {
                for s in samples.iter() {
                    self.observe(s);
                }
            }
            Repr::Sketch(o) => {
                self.force_sketch();
                if let Repr::Sketch(s) = &mut self.repr {
                    s.merge(o);
                }
                self.note_retained();
            }
        }
    }
}

/// Relative throughput improvement of `new` over `base` (Equation 10's
/// intent): positive when `new` completes more BE work per unit time.
pub fn throughput_improvement(base_work_rate: f64, new_work_rate: f64) -> f64 {
    if base_work_rate <= 0.0 {
        return 0.0;
    }
    (new_work_rate - base_work_rate) / base_work_rate
}

/// The §VIII-G overlap rate (Equation 11), clamped to `[0, 0.5]`.
pub fn overlap_rate(solo_a: SimTime, solo_b: SimTime, corun: SimTime) -> f64 {
    let a = solo_a.as_nanos() as f64;
    let b = solo_b.as_nanos() as f64;
    let c = corun.as_nanos() as f64;
    if a + b <= 0.0 {
        0.0
    } else {
        ((a + b - c) / (a + b)).clamp(0.0, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(v: &[u64]) -> Vec<SimTime> {
        v.iter().map(|&x| SimTime::from_micros(x)).collect()
    }

    #[test]
    fn mean_and_percentiles() {
        let s = times(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(mean(&s), SimTime::from_micros(55));
        assert_eq!(percentile(&s, 50.0), SimTime::from_micros(50));
        assert_eq!(percentile(&s, 99.0), SimTime::from_micros(100));
        assert_eq!(percentile(&s, 100.0), SimTime::from_micros(100));
        assert_eq!(percentile(&s, 0.0), SimTime::from_micros(10));
    }

    #[test]
    fn empty_samples_are_zero() {
        assert_eq!(mean(&[]), SimTime::ZERO);
        assert_eq!(percentile(&[], 99.0), SimTime::ZERO);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = times(&[90, 10, 50]);
        assert_eq!(percentile(&s, 50.0), SimTime::from_micros(50));
    }

    #[test]
    fn improvement_sign() {
        assert!((throughput_improvement(100.0, 118.6) - 0.186).abs() < 1e-9);
        assert!(throughput_improvement(100.0, 90.0) < 0.0);
        assert_eq!(throughput_improvement(0.0, 5.0), 0.0);
    }

    #[test]
    fn overlap_rate_bounds() {
        let a = SimTime::from_micros(100);
        // Perfect overlap: corun = max(a, b) = 100 → rate 0.5.
        assert!((overlap_rate(a, a, a) - 0.5).abs() < 1e-9);
        // No overlap: corun = a + b → 0.
        assert_eq!(overlap_rate(a, a, SimTime::from_micros(200)), 0.0);
        // Pathological corun > serial clamps at 0.
        assert_eq!(overlap_rate(a, a, SimTime::from_micros(300)), 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_percentile_panics() {
        let _ = percentile(&[], 101.0);
    }

    #[test]
    fn latency_stats_exact_matches_free_functions() {
        let s = times(&[90, 10, 50, 70, 30]);
        let mut stats = LatencyStats::exact();
        for &t in &s {
            stats.observe(t);
        }
        assert_eq!(stats.count(), 5);
        assert!(!stats.is_sketch());
        assert_eq!(stats.mean(), Some(mean(&s)));
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(stats.percentile(p), Some(percentile(&s, p)));
        }
        assert_eq!(stats.samples(), &s[..]);
    }

    #[test]
    fn shrink_to_fit_keeps_samples_and_peak() {
        let s = times(&[90, 10, 50, 70, 30]);
        let mut stats = LatencyStats::exact();
        for &t in &s {
            stats.observe(t);
        }
        let p99 = stats.percentile(99.0);
        let peak = stats.peak_bytes();
        stats.shrink_to_fit();
        assert_eq!(stats.samples(), &s[..]);
        assert_eq!(stats.percentile(99.0), p99);
        // Latencies below ≈ 4.29 s keep four bytes each.
        assert_eq!(stats.retained_bytes(), s.len() * 4);
        assert_eq!(stats.peak_bytes(), peak);
    }

    #[test]
    fn samples_past_u32_nanoseconds_widen_losslessly() {
        let s = vec![
            SimTime::from_millis(3),
            SimTime::from_millis(5_000),
            SimTime::from_micros(7),
        ];
        let mut stats = LatencyStats::exact();
        for &t in &s {
            stats.observe(t);
        }
        stats.shrink_to_fit();
        assert_eq!(stats.samples(), s);
        assert_eq!(stats.percentile(100.0), Some(SimTime::from_millis(5_000)));
        assert_eq!(stats.mean(), Some(mean(&s)));
        assert_eq!(stats.retained_bytes(), s.len() * 8);
    }

    #[test]
    fn latency_stats_spills_past_the_limit_and_stays_bounded() {
        let mut stats = LatencyStats::with_limit(10);
        for i in 0..10u64 {
            stats.observe(SimTime::from_micros(i * 10 + 10));
        }
        assert!(!stats.is_sketch());
        stats.observe(SimTime::from_micros(110));
        assert!(stats.is_sketch(), "11th sample crosses the limit");
        assert_eq!(stats.count(), 11);
        assert!(stats.samples().is_empty());
        let fixed = stats.retained_bytes();
        for i in 0..100_000u64 {
            stats.observe(SimTime::from_nanos(i * 997 + 1));
        }
        assert_eq!(stats.retained_bytes(), fixed, "sketch memory is flat");
        // Mean stays exact even after the spill.
        assert!(stats.mean().is_some());
        assert!(stats.peak_bytes() >= fixed);
    }

    #[test]
    fn latency_stats_limit_zero_sketches_immediately() {
        let mut stats = LatencyStats::with_limit(0);
        stats.observe(SimTime::from_micros(42));
        assert!(stats.is_sketch());
        assert_eq!(stats.count(), 1);
    }

    #[test]
    fn latency_stats_merge_matches_union_sketch() {
        let mut a = LatencyStats::with_limit(0);
        let mut b = LatencyStats::with_limit(0);
        let mut all = LatencyStats::with_limit(0);
        for i in 0..50u64 {
            let t = SimTime::from_micros(i * 13 + 7);
            if i % 2 == 0 {
                a.observe(t);
            } else {
                b.observe(t);
            }
            all.observe(t);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.to_sketch(), all.to_sketch());
    }

    #[test]
    fn latency_stats_percentile_cache_survives_repeat_queries() {
        let mut stats = LatencyStats::exact();
        for i in 0..100u64 {
            stats.observe(SimTime::from_micros((i * 37) % 91 + 1));
        }
        let first = stats.percentile(99.0);
        assert_eq!(stats.percentile(99.0), first);
        stats.observe(SimTime::from_micros(1));
        // Cache invalidated, result still exact.
        assert_eq!(
            stats.percentile(0.0),
            Some(SimTime::from_micros(1)),
            "new minimum visible after cache invalidation"
        );
    }
}
