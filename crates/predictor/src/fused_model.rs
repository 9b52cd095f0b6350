//! The two-stage linear regression model for fused kernels (§VI-A/§VI-B).
//!
//! The fused kernel's duration, normalized by the Tensor part's original
//! duration `X_tc`, is a piecewise-linear function of the pair's load ratio
//! `X_cd / X_tc` (Fig. 10):
//!
//! * **before the inflection** (`Load_ratio < Load_ratio_opportune`) the CD
//!   part finishes inside the co-run; growing it lengthens the co-run only
//!   mildly (shallow slope);
//! * **after the inflection** the CD part solo-runs after the co-run, so
//!   every unit of extra CD work converts directly into fused duration
//!   (slope ≈ 1).
//!
//! The model fits one line per stage, takes their intersection as the
//! opportune load ratio, and predicts `T_fuse = f(ratio) × X_tc`
//! (Equations 2–6). Following §VI-C, it retrains from accumulated online
//! observations whenever a prediction misses by more than 10%.
//!
//! A retrain refits on the whole sample history and costs O(n) in its
//! length. Prefix sums of (count, Σx, Σy, Σx², Σxy, Σy²) over the
//! ratio-sorted samples score every split in O(1), with a bound on each
//! score's rounding error; only the splits that bound cannot rule out are
//! re-scored exactly with [`LinReg::fit`] and a residual sum. The chosen
//! lines are bit-for-bit those of the exhaustive O(n²) split search.

use tacker_kernel::SimTime;

use crate::error::PredictError;
use crate::linreg::{mean_abs_pct_error, LinReg};

/// Which side of the inflection point a load ratio falls on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Co-run covers the whole execution (TC part may solo-run afterwards).
    BeforeInflection,
    /// The CUDA part solo-runs after the co-run.
    AfterInflection,
}

/// A fitted two-stage model for one (TC kernel, CD kernel) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedPairModel {
    pair: String,
    low: LinReg,
    high: LinReg,
    inflection: f64,
    samples: Vec<(f64, f64)>,
    error_threshold: f64,
    retrains: u32,
}

impl FusedPairModel {
    /// Fits the model from `(load_ratio, T_fuse / X_tc)` profile points.
    ///
    /// The paper profiles four ratios (10%, 20%, 180%, 190%) — two per
    /// stage; any sample set with at least two points per stage works. The
    /// split is chosen to minimize total squared error over all candidate
    /// partitions of the ratio-sorted samples.
    ///
    /// ```
    /// use tacker_kernel::SimTime;
    /// use tacker_predictor::FusedPairModel;
    ///
    /// # fn main() -> Result<(), tacker_predictor::PredictError> {
    /// // (load ratio, fused duration / X_tc) profile points.
    /// let model = FusedPairModel::fit("gemm+fft", &[
    ///     (0.1, 1.02), (0.2, 1.04), (1.8, 1.9), (1.9, 2.0),
    /// ])?;
    /// let x_tc = SimTime::from_micros(100);
    /// let x_cd = SimTime::from_micros(50); // ratio 0.5: co-run regime
    /// assert!(model.predict(x_tc, x_cd) < x_tc + x_cd);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`PredictError::InsufficientData`] with fewer than four samples, or
    /// degenerate fits.
    pub fn fit(
        pair: impl Into<String>,
        profile: &[(f64, f64)],
    ) -> Result<FusedPairModel, PredictError> {
        let mut samples = profile.to_vec();
        if samples.len() < 4 {
            return Err(PredictError::InsufficientData {
                got: samples.len(),
                need: 4,
            });
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (low, high) = Self::fit_split(&samples)?;
        let inflection = Self::inflection_of(&low, &high, &samples);
        Ok(FusedPairModel {
            pair: pair.into(),
            low,
            high,
            inflection,
            samples,
            error_threshold: 0.10,
            retrains: 0,
        })
    }

    /// Picks the split of the ratio-sorted samples whose two stage lines
    /// have the least total squared error, in O(n).
    ///
    /// The result is the one an exhaustive search returns: fit both sides of
    /// every split with [`LinReg::fit`], sum the squared residuals, keep the
    /// first strict minimum. Prefix sums score each split in O(1) together
    /// with a bound on that score's rounding error, which gives a lower
    /// bound on the split's exact error. One exact fit of the best-scoring
    /// split caps the minimum; only the splits whose lower bound is within
    /// that cap (usually just that one) and the splits too ill-conditioned
    /// to score are then fitted exactly.
    fn fit_split(sorted: &[(f64, f64)]) -> Result<(LinReg, LinReg), PredictError> {
        let degenerate = |reason: &str| PredictError::Degenerate {
            reason: reason.to_string(),
        };
        let n = sorted.len();
        if n < 4 {
            return Err(degenerate("fewer than four samples"));
        }
        if sorted.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(degenerate("non-finite sample"));
        }
        let splits = 2..=(n - 2);
        let total = sorted.iter().fold(Sums::default(), |s, &p| s.add(p));
        let tol = Tolerance::of(sorted);
        let mut low = Sums::default().add(sorted[0]);
        let mut guess: Option<(f64, usize)> = None;
        let lower: Vec<f64> = splits
            .clone()
            .map(|split| {
                low = low.add(sorted[split - 1]);
                let (Some((lo_sse, lo_err)), Some((hi_sse, hi_err))) =
                    (low.sse(&tol), total.sub(low).sse(&tol))
                else {
                    return f64::NEG_INFINITY; // never pruned
                };
                let sse = lo_sse + hi_sse;
                if guess.is_none_or(|(g, _)| sse < g) {
                    guess = Some((sse, split));
                }
                sse - lo_err - hi_err
            })
            .collect();
        // With values beyond ±1e60 the exact residuals can overflow: prune nothing.
        let cap = match guess.and_then(|(_, split)| Self::exact_split(sorted, split)) {
            Some((sse, _, _)) if tol.tame => sse,
            _ => f64::INFINITY,
        };
        let mut best: Option<(f64, LinReg, LinReg)> = None;
        for (split, bound) in splits.zip(lower) {
            if bound > cap {
                continue;
            }
            let Some((sse, l, h)) = Self::exact_split(sorted, split) else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, _, _)| sse < *b) {
                best = Some((sse, l, h));
            }
        }
        best.map(|(_, l, h)| (l, h))
            .ok_or_else(|| degenerate("no valid two-stage split"))
    }

    /// Fits both sides of one split and sums their squared residuals;
    /// `None` when either side cannot be fitted.
    fn exact_split(sorted: &[(f64, f64)], split: usize) -> Option<(f64, LinReg, LinReg)> {
        let (lo, hi) = sorted.split_at(split);
        let (Ok(l), Ok(h)) = (LinReg::fit(lo), LinReg::fit(hi)) else {
            return None;
        };
        let sse: f64 = lo
            .iter()
            .map(|(x, y)| (y - l.predict(*x)).powi(2))
            .chain(hi.iter().map(|(x, y)| (y - h.predict(*x)).powi(2)))
            .sum();
        Some((sse, l, h))
    }

    fn inflection_of(low: &LinReg, high: &LinReg, sorted: &[(f64, f64)]) -> f64 {
        let lo_x = sorted.first().map(|(x, _)| *x).unwrap_or(0.0);
        let hi_x = sorted.last().map(|(x, _)| *x).unwrap_or(2.0);
        match low.intersect_x(high) {
            Some(x) if x.is_finite() => x.clamp(lo_x, hi_x),
            _ => (lo_x + hi_x) / 2.0,
        }
    }

    /// The pair label.
    pub fn pair(&self) -> &str {
        &self.pair
    }

    /// The fitted opportune load ratio (the inflection point of Fig. 10).
    pub fn opportune_load_ratio(&self) -> f64 {
        self.inflection
    }

    /// How many online retrains have happened.
    pub fn retrains(&self) -> u32 {
        self.retrains
    }

    /// Which stage a load ratio falls on.
    pub fn stage(&self, load_ratio: f64) -> Stage {
        if load_ratio < self.inflection {
            Stage::BeforeInflection
        } else {
            Stage::AfterInflection
        }
    }

    /// Predicts the normalized duration `T_fuse / X_tc` at a load ratio.
    ///
    /// The curve is the upper envelope of the two stage lines, which is
    /// exactly the piecewise model when the post-inflection slope is
    /// steeper.
    pub fn predict_norm(&self, load_ratio: f64) -> f64 {
        let r = load_ratio.max(0.0);
        match self.stage(r) {
            Stage::BeforeInflection => self.low.predict(r),
            Stage::AfterInflection => self.high.predict(r),
        }
        .max(0.0)
    }

    /// Predicts the fused duration from the components' (predicted)
    /// original durations (Equation 1 + the two-stage model).
    pub fn predict(&self, x_tc: SimTime, x_cd: SimTime) -> SimTime {
        if x_tc == SimTime::ZERO {
            return x_cd;
        }
        let ratio = x_cd.ratio(x_tc);
        x_tc.mul_f64(self.predict_norm(ratio))
    }

    /// Records an online observation. If the relative prediction error
    /// exceeds the 10% threshold, the model retrains with the new point
    /// (and all accumulated history) and returns `true`.
    pub fn observe(&mut self, x_tc: SimTime, x_cd: SimTime, actual: SimTime) -> bool {
        if x_tc == SimTime::ZERO || actual == SimTime::ZERO {
            return false;
        }
        let ratio = x_cd.ratio(x_tc);
        let norm = actual.ratio(x_tc);
        let predicted = self.predict(x_tc, x_cd);
        let err = (predicted.as_nanos() as f64 - actual.as_nanos() as f64).abs()
            / actual.as_nanos() as f64;
        self.samples.push((ratio, norm));
        if err > self.error_threshold {
            self.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            if let Ok((low, high)) = Self::fit_split(&self.samples) {
                self.inflection = Self::inflection_of(&low, &high, &self.samples);
                self.low = low;
                self.high = high;
                self.retrains += 1;
            }
            true
        } else {
            false
        }
    }

    /// Mean absolute percentage error over held-out `(ratio, norm)` points,
    /// split by stage: `(before_inflection, after_inflection)`.
    pub fn validation_error_by_stage(&self, held_out: &[(f64, f64)]) -> (f64, f64) {
        let before: Vec<(f64, f64)> = held_out
            .iter()
            .copied()
            .filter(|(r, _)| self.stage(*r) == Stage::BeforeInflection)
            .collect();
        let after: Vec<(f64, f64)> = held_out
            .iter()
            .copied()
            .filter(|(r, _)| self.stage(*r) == Stage::AfterInflection)
            .collect();
        (
            mean_abs_pct_error(|r| self.predict_norm(r), &before),
            mean_abs_pct_error(|r| self.predict_norm(r), &after),
        )
    }

    /// The two fitted stage lines `(before, after)`.
    pub fn lines(&self) -> (&LinReg, &LinReg) {
        (&self.low, &self.high)
    }
}

/// Running least-squares sums over one side of a split.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    n: f64,
    x: f64,
    y: f64,
    xx: f64,
    xy: f64,
    yy: f64,
}

impl Sums {
    fn add(self, (x, y): (f64, f64)) -> Sums {
        Sums {
            n: self.n + 1.0,
            x: self.x + x,
            y: self.y + y,
            xx: self.xx + x * x,
            xy: self.xy + x * y,
            yy: self.yy + y * y,
        }
    }

    fn sub(self, o: Sums) -> Sums {
        Sums {
            n: self.n - o.n,
            x: self.x - o.x,
            y: self.y - o.y,
            xx: self.xx - o.xx,
            xy: self.xy - o.xy,
            yy: self.yy - o.yy,
        }
    }

    /// The least-squares line's squared error over these samples and a
    /// bound on how far that estimate, or the residual sum of any
    /// [`LinReg::fit`] of the same samples, can fall below it. `None` when
    /// the x spread is too small next to its rounding error to tell.
    fn sse(&self, tol: &Tolerance) -> Option<(f64, f64)> {
        let cxx = self.xx - self.x * self.x / self.n;
        let cxy = self.xy - self.x * self.y / self.n;
        let cyy = self.yy - self.y * self.y / self.n;
        // A clear spread also guarantees `LinReg::fit` accepts the side.
        if !(cxx > 4.0 * tol.xx && self.n * (cxx - 2.0 * tol.xx) >= 2e-12) {
            return None;
        }
        // Largest slope within the error box, then first-order propagation
        // of the three centred sums' errors through `cyy - cxy² / cxx`.
        let slope = (cxy.abs() + tol.xy) / (cxx - tol.xx);
        let err = tol.yy + 2.0 * slope * tol.xy + slope * slope * tol.xx;
        Some((cyy - cxy * cxy / cxx, err))
    }
}

/// Absolute rounding-error bounds on the centred sums `Σ(x-x̄)²`,
/// `Σ(x-x̄)(y-ȳ)` and `Σ(y-ȳ)²` of any side of a split.
///
/// A running sum of `n` terms, and a total minus a prefix, err by at most
/// `n·ε·Σ|term|`; with `|x| ≤ mx`, `|y| ≤ my` that and the centring stay
/// within `4n²ε·mx²` (`mx·my`, `my²`). Twice that also covers the rounding
/// of an exact fit's residual sum.
#[derive(Debug, Clone, Copy)]
struct Tolerance {
    xx: f64,
    xy: f64,
    yy: f64,
    /// Whether every value is within ±1e60, so no exact residual overflows.
    tame: bool,
}

impl Tolerance {
    fn of(samples: &[(f64, f64)]) -> Tolerance {
        let (mx, my) = samples.iter().fold((0.0f64, 0.0f64), |(mx, my), (x, y)| {
            (mx.max(x.abs()), my.max(y.abs()))
        });
        let n = samples.len() as f64;
        let unit = 8.0 * n * n * f64::EPSILON;
        Tolerance {
            xx: unit * mx * mx,
            xy: unit * mx * my,
            yy: unit * my * my,
            tame: mx <= 1e60 && my <= 1e60,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic ground truth shaped like Fig. 10: shallow slope 0.15 up to
    /// ratio 1.0 (norm 0.95→1.1), then slope 1.0.
    fn truth(ratio: f64) -> f64 {
        if ratio < 1.0 {
            0.95 + 0.15 * ratio
        } else {
            1.1 + 1.0 * (ratio - 1.0)
        }
    }

    fn paper_profile() -> Vec<(f64, f64)> {
        // The four profiling ratios from §VI-C.
        [0.1, 0.2, 1.8, 1.9]
            .iter()
            .map(|&r| (r, truth(r)))
            .collect()
    }

    #[test]
    fn recovers_inflection_from_four_points() {
        let m = FusedPairModel::fit("gemm+fft", &paper_profile()).unwrap();
        assert!(
            (m.opportune_load_ratio() - 1.0).abs() < 0.05,
            "inflection {}",
            m.opportune_load_ratio()
        );
        assert_eq!(m.stage(0.5), Stage::BeforeInflection);
        assert_eq!(m.stage(1.5), Stage::AfterInflection);
    }

    #[test]
    fn predictions_match_truth_on_both_stages() {
        let m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        for r in [0.05, 0.3, 0.7, 1.2, 1.6, 1.95] {
            let pred = m.predict_norm(r);
            let t = truth(r);
            assert!((pred - t).abs() / t < 0.03, "ratio {r}: {pred} vs {t}");
        }
    }

    #[test]
    fn predict_scales_linearly_with_x_tc() {
        // Second observation of §VI-A: fixed ratio ⇒ linear in X_tc.
        let m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        let d1 = m.predict(SimTime::from_micros(100), SimTime::from_micros(50));
        let d2 = m.predict(SimTime::from_micros(200), SimTime::from_micros(100));
        let ratio = d2.as_nanos() as f64 / d1.as_nanos() as f64;
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_tc_duration_degrades_to_cd_duration() {
        let m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        assert_eq!(
            m.predict(SimTime::ZERO, SimTime::from_micros(7)),
            SimTime::from_micros(7)
        );
    }

    #[test]
    fn observe_retrains_on_large_error() {
        let mut m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        // Reality shifted: everything 30% slower.
        let x_tc = SimTime::from_micros(100);
        let mut retrained = false;
        for r in [0.4, 0.6, 0.8, 1.2, 1.4] {
            let x_cd = x_tc.mul_f64(r);
            let actual = x_tc.mul_f64(truth(r) * 1.3);
            retrained |= m.observe(x_tc, x_cd, actual);
        }
        assert!(retrained);
        assert!(m.retrains() >= 1);
        // After retraining, predictions track the shifted truth better.
        let pred = m.predict_norm(0.5);
        assert!((pred - truth(0.5) * 1.3).abs() / (truth(0.5) * 1.3) < 0.15);
    }

    #[test]
    fn observe_keeps_model_on_small_error() {
        let mut m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        let x_tc = SimTime::from_micros(100);
        let x_cd = SimTime::from_micros(50);
        let actual = x_tc.mul_f64(truth(0.5) * 1.02); // 2% off
        assert!(!m.observe(x_tc, x_cd, actual));
        assert_eq!(m.retrains(), 0);
    }

    #[test]
    fn validation_error_split_by_stage() {
        let m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        let held: Vec<(f64, f64)> = [0.3, 0.5, 1.3, 1.7]
            .iter()
            .map(|&r| (r, truth(r)))
            .collect();
        let (before, after) = m.validation_error_by_stage(&held);
        assert!(before < 0.08, "before {before}");
        assert!(after < 0.08, "after {after}");
    }

    #[test]
    fn prediction_is_continuous_at_the_inflection() {
        let m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        let infl = m.opportune_load_ratio();
        let below = m.predict_norm(infl - 1e-9);
        let above = m.predict_norm(infl + 1e-9);
        // The two stage lines intersect at the inflection, so the curve is
        // continuous there.
        assert!((below - above).abs() < 1e-3, "jump {below} → {above}");
    }

    #[test]
    fn negative_ratios_clamp_to_zero() {
        let m = FusedPairModel::fit("p", &paper_profile()).unwrap();
        assert_eq!(m.predict_norm(-5.0), m.predict_norm(0.0));
    }

    #[test]
    fn split_search_rejects_short_and_non_finite_input() {
        for short in [
            &[][..],
            &[(0.1, 1.0)],
            &[(0.1, 1.0), (0.2, 1.0), (1.8, 2.0)],
        ] {
            assert!(matches!(
                FusedPairModel::fit_split(short),
                Err(PredictError::Degenerate { .. })
            ));
        }
        let mut profile = paper_profile();
        profile[2].1 = f64::INFINITY;
        assert!(matches!(
            FusedPairModel::fit("p", &profile),
            Err(PredictError::Degenerate { .. })
        ));
    }

    #[test]
    fn too_few_samples_rejected() {
        assert!(matches!(
            FusedPairModel::fit("p", &[(0.1, 1.0), (0.2, 1.0), (1.8, 2.0)]),
            Err(PredictError::InsufficientData { .. })
        ));
    }
}
