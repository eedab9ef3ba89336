//! Non-negative least squares (Lawson–Hanson active-set algorithm).
//!
//! Juggler trains its size and time models with scipy's `curve_fit` under
//! "enforced positive bounds, which avoids negative coefficients" (§5.2).
//! For linear-in-coefficients models that is exactly the NNLS problem
//! `min ‖A·x − b‖₂ s.t. x ≥ 0`.

use crate::linalg::Matrix;

/// Solves `min ‖a·x − b‖₂` subject to `x ≥ 0` with Lawson–Hanson.
///
/// Returns the coefficient vector (length `a.cols()`). The algorithm always
/// terminates on finite inputs; an internal iteration cap (`30 · cols`)
/// guards against numerically degenerate cycling, returning the best iterate
/// found.
///
/// # Panics
/// Panics if `b.len() != a.rows()`.
#[must_use]
pub fn nnls(a: &Matrix, b: &[f64]) -> Vec<f64> {
    nnls_with_stats(a, b).0
}

/// [`nnls`] plus the number of Lawson–Hanson outer iterations the solve
/// took — the model-quality diagnostics surface this, and each solve also
/// feeds the `modeling_nnls_*` metrics when a registry is in scope.
///
/// # Panics
/// Panics if `b.len() != a.rows()`.
#[must_use]
pub fn nnls_with_stats(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
    assert_eq!(b.len(), a.rows(), "shape mismatch in nnls");
    let _prof = obs::prof::scope("nnls");
    // Columns of calibration design matrices span many orders of magnitude
    // (a constant term next to e·f ~ 1e10). Normalize each column to unit
    // norm so the Gram matrix stays well conditioned, then unscale the
    // coefficients at the end; non-negativity is preserved because the
    // scales are positive.
    let n = a.cols();
    let mut scales = vec![1.0f64; n];
    let mut scaled = a.clone();
    for j in 0..n {
        let norm = (0..a.rows())
            .map(|i| a[(i, j)] * a[(i, j)])
            .sum::<f64>()
            .sqrt();
        if norm > 1e-300 {
            scales[j] = norm;
            for i in 0..a.rows() {
                scaled[(i, j)] /= norm;
            }
        }
    }
    let (mut x, iterations) = nnls_normalized(&scaled, b);
    for j in 0..n {
        x[j] /= scales[j];
    }
    obs::prof::count("nnls_iterations", iterations);
    if let Some(reg) = obs::Registry::current() {
        reg.counter("modeling_nnls_solves_total", "NNLS solves performed")
            .inc();
        reg.counter(
            "modeling_nnls_iterations_total",
            "Lawson-Hanson outer iterations across all solves",
        )
        .add(iterations);
        reg.histogram(
            "modeling_nnls_iterations",
            "Lawson-Hanson outer iterations per solve",
        )
        .record(iterations);
    }
    (x, iterations)
}

/// Lawson–Hanson on a column-normalized design matrix. Returns the
/// solution and the number of outer iterations executed.
fn nnls_normalized(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
    let n = a.cols();
    let at = a.transpose();
    let gram = at.matmul(a); // AᵀA, n×n
    let atb = at.matvec(b); // Aᵀb

    let mut x = vec![0.0f64; n];
    let mut passive = vec![false; n];
    let max_outer = 30 * n.max(1);

    // Solve the unconstrained problem restricted to the passive set.
    let solve_passive = |passive: &[bool]| -> Option<Vec<f64>> {
        let idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
        if idx.is_empty() {
            return Some(vec![0.0; n]);
        }
        let k = idx.len();
        let mut g = Matrix::zeros(k, k);
        let mut rhs = vec![0.0; k];
        for (r, &jr) in idx.iter().enumerate() {
            rhs[r] = atb[jr];
            for (c, &jc) in idx.iter().enumerate() {
                g[(r, c)] = gram[(jr, jc)];
            }
        }
        // Tiny ridge for numerical robustness on near-collinear terms.
        for r in 0..k {
            g[(r, r)] += 1e-12 * (1.0 + g[(r, r)].abs());
        }
        let z = g.solve_spd(&rhs)?;
        let mut full = vec![0.0; n];
        for (r, &j) in idx.iter().enumerate() {
            full[j] = z[r];
        }
        Some(full)
    };

    let mut iterations = 0u64;
    for _ in 0..max_outer {
        iterations += 1;
        // Gradient of ½‖Ax−b‖² is AᵀAx − Aᵀb; w = −gradient.
        let grad = gram.matvec(&x);
        let w: Vec<f64> = (0..n).map(|j| atb[j] - grad[j]).collect();

        // Pick the most violated inactive constraint.
        let candidate = (0..n)
            .filter(|&j| !passive[j])
            .max_by(|&i, &j| w[i].partial_cmp(&w[j]).expect("finite gradients"));
        let Some(jmax) = candidate else { break };
        let tol = 1e-10 * (1.0 + atb.iter().fold(0.0f64, |m, v| m.max(v.abs())));
        if w[jmax] <= tol {
            break; // KKT conditions met.
        }
        passive[jmax] = true;

        // Inner loop: retreat until the passive solution is feasible.
        loop {
            let Some(z) = solve_passive(&passive) else {
                // Singular restricted system: drop the newest variable.
                passive[jmax] = false;
                break;
            };
            let infeasible: Vec<usize> = (0..n).filter(|&j| passive[j] && z[j] <= 0.0).collect();
            if infeasible.is_empty() {
                x = z;
                break;
            }
            // Step from x toward z, stopping at the first boundary.
            let alpha = infeasible
                .iter()
                .map(|&j| x[j] / (x[j] - z[j]))
                .fold(f64::INFINITY, f64::min)
                .clamp(0.0, 1.0);
            for j in 0..n {
                if passive[j] {
                    x[j] += alpha * (z[j] - x[j]);
                    if x[j] <= 1e-14 {
                        x[j] = 0.0;
                        passive[j] = false;
                    }
                }
            }
        }
    }
    (x, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn unconstrained_optimum_already_nonnegative() {
        // y = 2 a + 3 b exactly; NNLS must find it.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ]);
        let b = [2.0, 3.0, 5.0, 7.0];
        let x = nnls(&a, &b);
        assert!((x[0] - 2.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 3.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn clamps_negative_coefficient_to_zero() {
        // Unconstrained fit of y = -1·a would be negative; NNLS clamps.
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let b = [-1.0, -2.0, -3.0];
        let x = nnls(&a, &b);
        assert_eq!(x, vec![0.0]);
    }

    #[test]
    fn mixed_signs_projects_correctly() {
        // True model y = 4·a − 2·b. With b's coefficient clamped to 0, the
        // solution must be the best fit using `a` alone.
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![f64::from(i), f64::from(i % 3)])
            .collect();
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = rows.iter().map(|r| 4.0 * r[0] - 2.0 * r[1]).collect();
        let x = nnls(&a, &b);
        assert!(x.iter().all(|&c| c >= 0.0));
        // Compare against the one-variable OLS optimum.
        let a1 = Matrix::from_rows(&rows.iter().map(|r| vec![r[0]]).collect::<Vec<_>>());
        let best1 = a1.solve_least_squares(&b).unwrap();
        let mut x_ref = vec![best1[0], 0.0];
        // NNLS may also keep b active at 0; residuals must match the
        // restricted optimum up to tolerance.
        let r_nnls = residual(&a, &x, &b);
        let r_ref = residual(&a, &x_ref, &b);
        assert!(r_nnls <= r_ref + 1e-8, "{r_nnls} vs {r_ref}");
        x_ref[1] = 0.0;
    }

    #[test]
    fn stats_report_outer_iterations() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let (x, iterations) = nnls_with_stats(&a, &[2.0, 3.0, 5.0]);
        assert!(iterations >= 2, "two variables enter the passive set");
        assert!((x[0] - 2.0).abs() < 1e-8, "{x:?}");
        assert!((x[1] - 3.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn zero_matrix_returns_zero() {
        let a = Matrix::zeros(3, 2);
        let x = nnls(&a, &[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn recovers_paper_style_size_model() {
        // D_size = θ0·e + θ1·e·f with θ = (120, 8.5): the second size-model
        // family from §5.2.
        let grid = [
            (1000.0, 10.0),
            (1000.0, 50.0),
            (5000.0, 10.0),
            (5000.0, 50.0),
            (9000.0, 90.0),
        ];
        let rows: Vec<Vec<f64>> = grid.iter().map(|&(e, f)| vec![e, e * f]).collect();
        let y: Vec<f64> = grid.iter().map(|&(e, f)| 120.0 * e + 8.5 * e * f).collect();
        let x = nnls(&Matrix::from_rows(&rows), &y);
        assert!((x[0] - 120.0).abs() < 1e-4, "{x:?}");
        assert!((x[1] - 8.5).abs() < 1e-6, "{x:?}");
    }

    #[test]
    fn large_scale_features_stay_stable() {
        // e up to 1e5, f up to 1e5 — e·f ~ 1e10 as in real HiBench params.
        let grid = [
            (1.0e4, 1.0e4),
            (1.0e4, 1.2e5),
            (7.0e4, 1.0e4),
            (7.0e4, 1.2e5),
            (4.0e4, 5.0e4),
        ];
        let rows: Vec<Vec<f64>> = grid.iter().map(|&(e, f)| vec![1.0, e, e * f]).collect();
        let y: Vec<f64> = grid
            .iter()
            .map(|&(e, f)| 3.0e6 + 40.0 * e + 0.008 * e * f)
            .collect();
        let x = nnls(&Matrix::from_rows(&rows), &y);
        let pred_err: f64 = rows
            .iter()
            .zip(&y)
            .map(|(r, t)| {
                let p = x[0] * r[0] + x[1] * r[1] + x[2] * r[2];
                ((p - t) / t).abs()
            })
            .sum::<f64>()
            / y.len() as f64;
        assert!(pred_err < 1e-6, "relative error {pred_err}, coeffs {x:?}");
    }
}
