//! Ordinary least-squares simple linear regression.

use crate::error::PredictError;

/// A fitted line `y = slope · x + intercept`.
///
/// ```
/// use tacker_predictor::LinReg;
/// let lr = LinReg::fit(&[(1.0, 3.0), (2.0, 5.0), (3.0, 7.0)]).unwrap();
/// assert!((lr.slope() - 2.0).abs() < 1e-9);
/// assert!((lr.predict(10.0) - 21.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinReg {
    slope: f64,
    intercept: f64,
}

impl LinReg {
    /// Fits a line to `(x, y)` samples by least squares.
    ///
    /// # Errors
    ///
    /// * [`PredictError::InsufficientData`] with fewer than two samples;
    /// * [`PredictError::Degenerate`] when all x values coincide or inputs
    ///   are non-finite.
    pub fn fit(samples: &[(f64, f64)]) -> Result<LinReg, PredictError> {
        if samples.len() < 2 {
            return Err(PredictError::InsufficientData {
                got: samples.len(),
                need: 2,
            });
        }
        if samples
            .iter()
            .any(|(x, y)| !x.is_finite() || !y.is_finite())
        {
            return Err(PredictError::Degenerate {
                reason: "non-finite sample".to_string(),
            });
        }
        let n = samples.len() as f64;
        let sx: f64 = samples.iter().map(|(x, _)| x).sum();
        let sy: f64 = samples.iter().map(|(_, y)| y).sum();
        let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = samples.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return Err(PredictError::Degenerate {
                reason: "all x values identical".to_string(),
            });
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        Ok(LinReg { slope, intercept })
    }

    /// Constructs a line directly.
    pub fn from_parts(slope: f64, intercept: f64) -> LinReg {
        LinReg { slope, intercept }
    }

    /// The fitted slope.
    pub fn slope(&self) -> f64 {
        self.slope
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Evaluates the line at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Coefficient of determination against the given samples.
    pub fn r2(&self, samples: &[(f64, f64)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mean = samples.iter().map(|(_, y)| y).sum::<f64>() / samples.len() as f64;
        let ss_tot: f64 = samples.iter().map(|(_, y)| (y - mean).powi(2)).sum();
        let ss_res: f64 = samples
            .iter()
            .map(|(x, y)| (y - self.predict(*x)).powi(2))
            .sum();
        if ss_tot < 1e-12 {
            if ss_res < 1e-12 {
                1.0
            } else {
                0.0
            }
        } else {
            1.0 - ss_res / ss_tot
        }
    }

    /// The x where this line intersects `other`; `None` for parallel lines.
    pub fn intersect_x(&self, other: &LinReg) -> Option<f64> {
        let ds = self.slope - other.slope;
        if ds.abs() < 1e-12 {
            None
        } else {
            Some((other.intercept - self.intercept) / ds)
        }
    }
}

/// Mean absolute percentage error of predictions against samples, in `[0, ∞)`.
///
/// Samples with `|y| ≤ 1e-12` have no percentage error and are left out of
/// the mean; with none left the error is 0.
pub fn mean_abs_pct_error(pred: impl Fn(f64) -> f64, samples: &[(f64, f64)]) -> f64 {
    let (sum, scored) = samples
        .iter()
        .filter(|(_, y)| y.abs() > 1e-12)
        .fold((0.0, 0usize), |(sum, scored), (x, y)| {
            (sum + ((pred(*x) - y) / y).abs(), scored + 1)
        });
    if scored == 0 {
        0.0
    } else {
        sum / scored as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let samples: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let lr = LinReg::fit(&samples).unwrap();
        assert!((lr.slope() - 3.0).abs() < 1e-9);
        assert!((lr.intercept() - 7.0).abs() < 1e-9);
        assert!((lr.r2(&samples) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                // deterministic pseudo-noise
                let noise = ((i * 37 % 11) as f64 - 5.0) * 0.1;
                (x, 2.0 * x + 1.0 + noise)
            })
            .collect();
        let lr = LinReg::fit(&samples).unwrap();
        assert!((lr.slope() - 2.0).abs() < 0.05);
        assert!(lr.r2(&samples) > 0.99);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(matches!(
            LinReg::fit(&[(1.0, 2.0)]),
            Err(PredictError::InsufficientData { .. })
        ));
        assert!(matches!(
            LinReg::fit(&[(1.0, 2.0), (1.0, 3.0)]),
            Err(PredictError::Degenerate { .. })
        ));
        assert!(matches!(
            LinReg::fit(&[(f64::NAN, 2.0), (1.0, 3.0)]),
            Err(PredictError::Degenerate { .. })
        ));
    }

    #[test]
    fn intersection() {
        let a = LinReg::from_parts(1.0, 0.0);
        let b = LinReg::from_parts(2.0, -1.0);
        assert!((a.intersect_x(&b).unwrap() - 1.0).abs() < 1e-12);
        assert!(a.intersect_x(&a).is_none());
    }

    #[test]
    fn mape_zero_for_perfect_predictions() {
        let samples = [(1.0, 2.0), (2.0, 4.0)];
        let e = mean_abs_pct_error(|x| 2.0 * x, &samples);
        assert!(e < 1e-12);
        let e = mean_abs_pct_error(|x| 2.2 * x, &samples);
        assert!((e - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mape_leaves_zero_targets_out_of_the_mean() {
        let samples = [(1.0, 2.0), (2.0, 4.0), (3.0, 0.0)];
        let e = mean_abs_pct_error(|x| 2.2 * x, &samples);
        assert!((e - 0.1).abs() < 1e-9, "{e}");
        assert_eq!(mean_abs_pct_error(|x| x, &[(1.0, 0.0)]), 0.0);
        assert_eq!(mean_abs_pct_error(|x| x, &[]), 0.0);
    }
}

/// Multiple linear regression `y = w₀ + Σ wᵢ·xᵢ`, fitted by solving the
/// normal equations with Gaussian elimination.
///
/// Used for kernels whose duration depends on more than one launch knob
/// (e.g. a GEMM's duration ≈ a·(blocks·k_iters) + b·blocks + c).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLinReg {
    /// `[intercept, w₁, …, w_n]`.
    weights: Vec<f64>,
}

impl MultiLinReg {
    /// Fits the regression to rows of features and targets.
    ///
    /// # Errors
    ///
    /// * [`PredictError::InsufficientData`] with fewer rows than
    ///   `features + 1`;
    /// * [`PredictError::Degenerate`] for inconsistent row widths,
    ///   non-finite inputs or a singular normal matrix.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64]) -> Result<MultiLinReg, PredictError> {
        let n = rows.len();
        if n == 0 || n != targets.len() {
            return Err(PredictError::InsufficientData {
                got: n.min(targets.len()),
                need: 2,
            });
        }
        let d = rows[0].len() + 1; // + intercept
        if n < d {
            return Err(PredictError::InsufficientData { got: n, need: d });
        }
        if rows.iter().any(|r| r.len() + 1 != d)
            || rows.iter().flatten().any(|v| !v.is_finite())
            || targets.iter().any(|v| !v.is_finite())
        {
            return Err(PredictError::Degenerate {
                reason: "inconsistent or non-finite rows".to_string(),
            });
        }
        // Normal equations: (XᵀX) w = Xᵀy, with X including the 1s column.
        let mut xtx = vec![vec![0.0f64; d]; d];
        let mut xty = vec![0.0f64; d];
        for (row, &y) in rows.iter().zip(targets) {
            let mut x = Vec::with_capacity(d);
            x.push(1.0);
            x.extend_from_slice(row);
            for i in 0..d {
                xty[i] += x[i] * y;
                for j in 0..d {
                    xtx[i][j] += x[i] * x[j];
                }
            }
        }
        // Small ridge term for numerical stability on collinear features.
        for (i, row) in xtx.iter_mut().enumerate() {
            row[i] += 1e-9 * (1.0 + row[i].abs());
        }
        let weights = solve_gauss(xtx, xty).ok_or_else(|| PredictError::Degenerate {
            reason: "singular normal matrix".to_string(),
        })?;
        Ok(MultiLinReg { weights })
    }

    /// Evaluates the regression at a feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` has a different width than the training rows.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len() + 1, self.weights.len(), "feature width mismatch");
        self.weights[0]
            + row
                .iter()
                .zip(&self.weights[1..])
                .map(|(x, w)| x * w)
                .sum::<f64>()
    }

    /// The fitted weights `[intercept, w₁, …]`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Solves `A·x = b` by Gaussian elimination with partial pivoting.
fn solve_gauss(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            let pivot_row = &upper[col];
            for (dst, src) in lower[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *dst -= f * src;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod multi_tests {
    use super::*;

    #[test]
    fn recovers_planar_fit() {
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 7.0 + 2.0 * r[0] - 3.0 * r[1]).collect();
        let m = MultiLinReg::fit(&rows, &targets).unwrap();
        assert!((m.predict(&[10.0, 2.0]) - (7.0 + 20.0 - 6.0)).abs() < 1e-6);
        assert!((m.weights()[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_underdetermined_and_bad_rows() {
        assert!(matches!(
            MultiLinReg::fit(&[vec![1.0, 2.0]], &[3.0]),
            Err(PredictError::InsufficientData { .. })
        ));
        assert!(
            MultiLinReg::fit(&[vec![1.0], vec![2.0, 3.0], vec![4.0]], &[1.0, 2.0, 3.0]).is_err()
        );
        assert!(
            MultiLinReg::fit(&[vec![f64::NAN], vec![1.0], vec![2.0]], &[1.0, 2.0, 3.0]).is_err()
        );
    }

    #[test]
    fn collinear_features_survive_via_ridge() {
        // Second feature is exactly 2× the first.
        let rows: Vec<Vec<f64>> = (1..10).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let targets: Vec<f64> = (1..10).map(|i| 5.0 * i as f64).collect();
        let m = MultiLinReg::fit(&rows, &targets).unwrap();
        assert!((m.predict(&[4.0, 8.0]) - 20.0).abs() < 1e-3);
    }
}
