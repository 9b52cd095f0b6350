//! Property-based tests for the duration predictors.

use proptest::prelude::*;
use proptest::TestRng;
use tacker_kernel::SimTime;
use tacker_predictor::{FusedPairModel, KernelDurationModel, LinReg, MultiLinReg, Stage};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Least squares recovers an arbitrary noiseless line.
    #[test]
    fn linreg_recovers_lines(
        slope in -1e3f64..1e3,
        intercept in -1e6f64..1e6,
        xs in proptest::collection::vec(-1e3f64..1e3, 3..20),
    ) {
        // Need at least two distinct x values.
        prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6));
        let samples: Vec<(f64, f64)> = xs.iter().map(|&x| (x, slope * x + intercept)).collect();
        let lr = LinReg::fit(&samples).expect("fit");
        prop_assert!((lr.slope() - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!(lr.r2(&samples) > 1.0 - 1e-9);
    }

    /// Multi-feature least squares recovers an arbitrary noiseless plane.
    #[test]
    fn multilinreg_recovers_planes(
        w0 in -1e4f64..1e4,
        w1 in -1e2f64..1e2,
        w2 in -1e2f64..1e2,
        seed in 0u64..1000,
    ) {
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let a = ((i * 7 + seed as usize) % 13) as f64;
                let b = ((i * 11 + 3) % 17) as f64;
                vec![a, b]
            })
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| w0 + w1 * r[0] + w2 * r[1]).collect();
        let m = MultiLinReg::fit(&rows, &ys).expect("fit");
        for (r, y) in rows.iter().zip(&ys) {
            prop_assert!((m.predict(r) - y).abs() < 1e-3 * (1.0 + y.abs()));
        }
    }

    /// The two-stage model's normalized prediction is monotone
    /// non-decreasing in the load ratio when fit to monotone convex data.
    #[test]
    fn two_stage_is_monotone_on_convex_data(
        low_slope in 0.0f64..0.4,
        knee in 0.5f64..1.5,
        base in 0.9f64..1.2,
    ) {
        let truth = |r: f64| if r < knee { base + low_slope * r } else {
            base + low_slope * knee + (r - knee)
        };
        let samples: Vec<(f64, f64)> = (1..=20).map(|i| {
            let r = i as f64 * 0.1;
            (r, truth(r))
        }).collect();
        let m = FusedPairModel::fit("p", &samples).expect("fit");
        let mut prev = 0.0f64;
        let mut r = 0.05f64;
        while r < 2.0 {
            let v = m.predict_norm(r);
            prop_assert!(v >= prev - 1e-6, "non-monotone at {r}: {v} < {prev}");
            prev = v;
            r += 0.05;
        }
        // Stage classification is consistent with the inflection.
        let infl = m.opportune_load_ratio();
        prop_assert_eq!(m.stage(infl - 0.01), Stage::BeforeInflection);
        prop_assert_eq!(m.stage(infl + 0.01), Stage::AfterInflection);
    }

    /// Duration predictions never go negative and observe() never panics.
    #[test]
    fn kernel_model_is_total(
        blocks in proptest::collection::vec(1u64..100_000, 4..12),
        slope_ns in 1u64..10_000,
        query in 0u64..1_000_000,
    ) {
        prop_assume!(blocks.iter().any(|&b| b != blocks[0]));
        let profile: Vec<(u64, SimTime)> = blocks
            .iter()
            .map(|&b| (b, SimTime::from_nanos(slope_ns * b)))
            .collect();
        let mut m = KernelDurationModel::fit_blocks("k", &profile).expect("fit");
        let _ = m.predict(query as f64);
        let _ = m.observe(query as f64, SimTime::from_nanos(slope_ns * query));
        let p = m.predict(query as f64);
        prop_assert!(p.as_nanos() as f64 <= 2.0 * (slope_ns * query.max(1)) as f64 + 1e6);
    }

    /// Fused prediction scales linearly with X_tc at fixed ratio
    /// (the paper's second observation, §VI-A).
    #[test]
    fn fused_prediction_linear_in_x_tc(
        x_tc_us in 10u64..10_000,
        ratio_pct in 10u64..190,
    ) {
        let samples: Vec<(f64, f64)> = [0.1, 0.2, 0.7, 1.0, 1.3, 1.8, 1.9]
            .iter()
            .map(|&r| (r, if r < 1.0 { 1.0 + 0.2 * r } else { 1.2 + (r - 1.0) }))
            .collect();
        let m = FusedPairModel::fit("p", &samples).expect("fit");
        let x_tc = SimTime::from_micros(x_tc_us);
        let x_cd = x_tc.mul_f64(ratio_pct as f64 / 100.0);
        let d1 = m.predict(x_tc, x_cd);
        let d2 = m.predict(x_tc * 2, x_cd * 2);
        let ratio = d2.as_nanos() as f64 / d1.as_nanos().max(1) as f64;
        prop_assert!((ratio - 2.0).abs() < 0.01, "scaling ratio {ratio}");
    }
}

/// The exhaustive O(n²) two-stage split search: fit both sides of every
/// split of the ratio-sorted samples, sum the squared residuals, keep the
/// first strict minimum. Returns the stage lines and the clamped
/// inflection the model derives from them.
fn reference_fit(samples: &[(f64, f64)]) -> Option<(LinReg, LinReg, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    let mut best: Option<(f64, LinReg, LinReg)> = None;
    for split in 2..=n.checked_sub(2)? {
        let (lo, hi) = sorted.split_at(split);
        let (Ok(l), Ok(h)) = (LinReg::fit(lo), LinReg::fit(hi)) else {
            continue;
        };
        let sse: f64 = lo
            .iter()
            .map(|(x, y)| (y - l.predict(*x)).powi(2))
            .chain(hi.iter().map(|(x, y)| (y - h.predict(*x)).powi(2)))
            .sum();
        if best.as_ref().is_none_or(|(b, _, _)| sse < *b) {
            best = Some((sse, l, h));
        }
    }
    let (_, low, high) = best?;
    let (lo_x, hi_x) = (sorted[0].0, sorted[n - 1].0);
    let inflection = match low.intersect_x(&high) {
        Some(x) if x.is_finite() => x.clamp(lo_x, hi_x),
        _ => (lo_x + hi_x) / 2.0,
    };
    Some((low, high, inflection))
}

/// Whether the model holds exactly the reference's lines and inflection.
fn matches_reference(m: &FusedPairModel, reference: &(LinReg, LinReg, f64)) -> bool {
    let bits = |l: &LinReg| (l.slope().to_bits(), l.intercept().to_bits());
    let (low, high) = m.lines();
    let (r_low, r_high, r_infl) = reference;
    bits(low) == bits(r_low)
        && bits(high) == bits(r_high)
        && m.opportune_load_ratio().to_bits() == r_infl.to_bits()
}

/// Sample sets built to make the split search hard, by `case`: exact ties
/// near zero error (0), noise of 1e-9, 0.01 and 0.2 (1–3), ratios repeated
/// on a 0.25 grid with and without noise (4, 5), fully collinear data (6)
/// and one non-finite value (7).
fn adversarial_samples(seed: u64, n: usize, case: u64) -> Vec<(f64, f64)> {
    let mut rng = TestRng::seed_from_u64(seed);
    let knee = 0.3 + 1.4 * rng.next_f64();
    let base = 0.8 + 0.4 * rng.next_f64();
    let low_slope = 0.3 * rng.next_f64();
    let high_slope = 0.6 + 0.8 * rng.next_f64();
    let noise = [0.0, 1e-9, 0.01, 0.2, 0.0, 0.01, 0.0, 0.01][case as usize];
    let mut samples: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let r = if case == 4 || case == 5 {
                0.25 * rng.below(11) as f64
            } else {
                0.05 + 2.45 * rng.next_f64()
            };
            let y = if case == 6 || r < knee {
                base + low_slope * r
            } else {
                base + low_slope * knee + high_slope * (r - knee)
            };
            (r, y + noise * (2.0 * rng.next_f64() - 1.0))
        })
        .collect();
    if case == 7 {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize];
        let i = rng.below(n as u64) as usize;
        if rng.below(2) == 0 {
            samples[i].0 = bad;
        } else {
            samples[i].1 = bad;
        }
    }
    samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The O(n) split search returns bit-for-bit the lines and inflection
    /// of the exhaustive search, or both fail.
    #[test]
    fn split_search_matches_exhaustive_reference(
        seed in 0u64..u64::MAX,
        n in 4usize..300,
        case in 0u64..8,
    ) {
        let samples = adversarial_samples(seed, n, case);
        match (FusedPairModel::fit("p", &samples), reference_fit(&samples)) {
            (Ok(m), Some(r)) => prop_assert!(
                matches_reference(&m, &r),
                "case {case}, n {n}, seed {seed}: {:?} vs {:?}", m.lines(), r
            ),
            (Err(_), None) => {}
            (m, r) => prop_assert!(false, "case {case}, n {n}, seed {seed}: {m:?} vs {r:?}"),
        }
    }
}

/// An online stream where about half the observations miss by more than
/// 10%: after every miss the model holds the reference's refit of the
/// whole history, and every prediction comes from those lines.
///
/// The reference costs O(n²) per miss, so unoptimized builds run a 500-point
/// prefix of the 2000-point stream.
#[test]
fn online_refits_match_exhaustive_reference() {
    let points: u32 = if cfg!(debug_assertions) { 500 } else { 2000 };
    let truth = |r: f64| if r < 1.0 { 0.95 + 0.15 * r } else { 0.1 + r };
    let mut history: Vec<(f64, f64)> = [0.1, 0.2, 0.7, 1.0, 1.3, 1.8, 1.9]
        .iter()
        .map(|&r| (r, truth(r)))
        .collect();
    let mut model = FusedPairModel::fit("p", &history).expect("fit");
    let mut reference = reference_fit(&history).expect("reference fit");
    assert!(matches_reference(&model, &reference));
    let mut rng = TestRng::seed_from_u64(0x0b5e_77e5);
    let (mut misses, mut refits) = (0u32, 0u32);
    for _ in 0..points {
        let x_tc = SimTime::from_micros(50 + rng.below(950));
        let x_cd = x_tc.mul_f64(0.05 + 2.4 * rng.next_f64());
        let ratio = x_cd.ratio(x_tc);
        // ±20% noise puts roughly half the observations >10% off.
        let actual = x_tc.mul_f64(truth(ratio) * (0.8 + 0.4 * rng.next_f64()));

        let (low, high, inflection) = &reference;
        let line = if ratio < *inflection { low } else { high };
        let expected = x_tc.mul_f64(line.predict(ratio).max(0.0));
        assert_eq!(
            model.predict(x_tc, x_cd),
            expected,
            "prediction at ratio {ratio}"
        );

        history.push((ratio, actual.ratio(x_tc)));
        if model.observe(x_tc, x_cd, actual) {
            misses += 1;
            if let Some(refit) = reference_fit(&history) {
                reference = refit;
                refits += 1;
            }
            assert!(matches_reference(&model, &reference), "after miss {misses}");
        }
    }
    assert_eq!(model.retrains(), refits);
    assert!(
        (points * 2 / 5..=points * 3 / 5).contains(&misses),
        "{misses} misses of {points}"
    );
}
