//! Least-squares polynomial fitting.
//!
//! Figures 7 and 8 of the paper annotate the Pareto frontiers with cubic fits
//! (`P(c)` and `A(c)`). This module provides the same capability: fit an n-th
//! degree polynomial to a set of `(x, y)` points by solving the normal
//! equations with Gaussian elimination.

use std::fmt;

/// A polynomial with coefficients in ascending order of degree:
/// `coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients in ascending degree order.
    ///
    /// # Panics
    /// Panics if `coeffs` is empty or contains non-finite values.
    pub fn new(coeffs: Vec<f64>) -> Self {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        assert!(
            coeffs.iter().all(|c| c.is_finite()),
            "coefficients must be finite"
        );
        Polynomial { coeffs }
    }

    /// Coefficients in ascending degree order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates the polynomial at `x` (Horner's method).
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Coefficient of determination (R²) against a point set.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn r_squared(&self, points: &[(f64, f64)]) -> f64 {
        assert!(!points.is_empty(), "need points to compute R^2");
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
        let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let ss_res: f64 = points.iter().map(|p| (p.1 - self.eval(p.0)).powi(2)).sum();
        if ss_tot == 0.0 {
            return 1.0;
        }
        1.0 - ss_res / ss_tot
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms: Vec<String> = self
            .coeffs
            .iter()
            .enumerate()
            .map(|(i, c)| match i {
                0 => format!("{c:.4e}"),
                1 => format!("{c:.4e}*x"),
                _ => format!("{c:.4e}*x^{i}"),
            })
            .collect();
        write!(f, "{}", terms.join(" + "))
    }
}

/// Fits a polynomial of the given degree to `points` by least squares.
///
/// # Panics
/// Panics if there are fewer points than `degree + 1`, or if the system is
/// numerically singular (e.g. all x values identical).
///
/// ```
/// use dscs_simcore::fit::polyfit;
/// let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
/// let poly = polyfit(&pts, 1);
/// assert!((poly.coefficients()[1] - 2.0).abs() < 1e-9);
/// ```
pub fn polyfit(points: &[(f64, f64)], degree: usize) -> Polynomial {
    let n = degree + 1;
    assert!(points.len() >= n, "need at least degree+1 points to fit");
    assert!(
        points.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
        "points must be finite"
    );

    // Build the normal equations A^T A c = A^T y where A is the Vandermonde matrix.
    let mut ata = vec![vec![0.0f64; n]; n];
    let mut aty = vec![0.0f64; n];
    for &(x, y) in points {
        let mut powers = vec![1.0f64; 2 * n - 1];
        for k in 1..2 * n - 1 {
            powers[k] = powers[k - 1] * x;
        }
        for (i, aty_i) in aty.iter_mut().enumerate() {
            *aty_i += powers[i] * y;
            for j in 0..n {
                ata[i][j] += powers[i + j];
            }
        }
    }

    let coeffs = solve_linear_system(ata, aty);
    Polynomial::new(coeffs)
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// # Panics
/// Panics if the matrix is singular (pivot smaller than 1e-12 after scaling).
fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty range");
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let pivot = a[col][col];
        assert!(pivot.abs() > 1e-12, "singular system in polynomial fit");
        for row in col + 1..n {
            let factor = a[row][col] / pivot;
            let (upper, lower) = a.split_at_mut(row);
            let pivot_row = &upper[col];
            for (x, &p) in lower[0][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *x -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut sum = b[row];
        for col in row + 1..n {
            sum -= a[row][col] * x[col];
        }
        x[row] = sum / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exact_line() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 5.0 - 0.5 * i as f64)).collect();
        let p = polyfit(&pts, 1);
        assert!((p.coefficients()[0] - 5.0).abs() < 1e-9);
        assert!((p.coefficients()[1] + 0.5).abs() < 1e-9);
        assert!(p.r_squared(&pts) > 0.999_999);
    }

    #[test]
    fn fits_exact_cubic() {
        let f = |x: f64| 1.0 - 2.0 * x + 0.3 * x * x + 0.01 * x * x * x;
        let pts: Vec<(f64, f64)> = (0..30).map(|i| (i as f64, f(i as f64))).collect();
        let p = polyfit(&pts, 3);
        for (i, expect) in [1.0, -2.0, 0.3, 0.01].iter().enumerate() {
            assert!((p.coefficients()[i] - expect).abs() < 1e-6, "coef {i}");
        }
    }

    #[test]
    fn eval_uses_horner_correctly() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.eval(2.0), 1.0 + 4.0 + 12.0);
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn r_squared_penalises_bad_fit() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, (i as f64).powi(2))).collect();
        let linear = polyfit(&pts, 1);
        let cubic = polyfit(&pts, 3);
        assert!(cubic.r_squared(&pts) > linear.r_squared(&pts));
    }

    #[test]
    fn noisy_fit_recovers_trend() {
        // Deterministic "noise" so the test is stable.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                let noise = ((i * 7919) % 13) as f64 / 13.0 - 0.5;
                (x, 2.0 * x + 1.0 + 0.1 * noise)
            })
            .collect();
        let p = polyfit(&pts, 1);
        assert!((p.coefficients()[1] - 2.0).abs() < 0.05);
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::new(vec![1.0, -2.0]);
        let s = format!("{p}");
        assert!(s.contains("x"));
    }

    #[test]
    #[should_panic(expected = "at least degree+1")]
    fn too_few_points_panics() {
        let _ = polyfit(&[(0.0, 0.0)], 3);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn degenerate_xs_panic() {
        let pts = vec![(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)];
        let _ = polyfit(&pts, 2);
    }
}
