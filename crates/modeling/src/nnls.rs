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
    let mut ws = Workspace::default();
    ws.start(a.cols());
    for (i, &y) in b.iter().enumerate() {
        ws.push_row(a.row(i), y);
    }
    let iterations = ws.solve();
    (ws.x, iterations)
}

/// The buffers of a Lawson–Hanson solve, reused from solve to solve: a
/// model selection runs every solve of its LOO-CV and refits through one
/// workspace, so after the first solve has grown the buffers a solve
/// allocates nothing. All matrices are row-major slices.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Columns of the design.
    n: usize,
    /// The design, `rows × n`; column-scaled in place by [`Workspace::solve`].
    a: Vec<f64>,
    /// The response, one entry per design row.
    b: Vec<f64>,
    /// Column norms (1 for a zero column).
    scales: Vec<f64>,
    /// Aᵀ of the scaled design, `n × rows`.
    at: Vec<f64>,
    /// AᵀA, `n × n`.
    gram: Vec<f64>,
    /// Aᵀb.
    atb: Vec<f64>,
    /// The iterate; after a solve, the coefficients.
    pub(crate) x: Vec<f64>,
    passive: Vec<bool>,
    /// Negative gradient `Aᵀb − AᵀAx`.
    w: Vec<f64>,
    /// Passive column indices, ascending.
    idx: Vec<usize>,
    /// The passive system, `k × k`, its right-hand side, its Cholesky
    /// factor and the two substitutions.
    sys: Vec<f64>,
    rhs: Vec<f64>,
    chol: Vec<f64>,
    fwd: Vec<f64>,
    sol: Vec<f64>,
    /// The passive solution scattered to all `n` columns.
    z: Vec<f64>,
}

impl Workspace {
    /// Starts a design of `n` columns with no rows.
    pub(crate) fn start(&mut self, n: usize) {
        self.n = n;
        self.a.clear();
        self.b.clear();
    }

    /// Appends a design row and its response.
    pub(crate) fn push_row(&mut self, row: &[f64], y: f64) {
        debug_assert_eq!(row.len(), self.n, "ragged rows");
        self.a.extend_from_slice(row);
        self.b.push(y);
    }

    /// Solves the pushed design, leaving the coefficients in `self.x`, and
    /// returns the number of outer iterations.
    pub(crate) fn solve(&mut self) -> u64 {
        let _prof = obs::prof::scope("nnls");
        // Columns of calibration design matrices span many orders of
        // magnitude (a constant term next to e·f ~ 1e10). Normalize each
        // column to unit norm so the Gram matrix stays well conditioned,
        // then unscale the coefficients at the end; non-negativity is
        // preserved because the scales are positive.
        let (m, n) = (self.b.len(), self.n);
        self.scales.clear();
        self.scales.resize(n, 1.0);
        for j in 0..n {
            let norm = (0..m)
                .map(|i| self.a[i * n + j] * self.a[i * n + j])
                .sum::<f64>()
                .sqrt();
            if norm > 1e-300 {
                self.scales[j] = norm;
                for i in 0..m {
                    self.a[i * n + j] /= norm;
                }
            }
        }
        let iterations = self.lawson_hanson();
        for j in 0..n {
            self.x[j] /= self.scales[j];
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
        iterations
    }

    /// Lawson–Hanson on the column-normalized design. Returns the number
    /// of outer iterations executed.
    fn lawson_hanson(&mut self) -> u64 {
        let (m, n) = (self.b.len(), self.n);
        self.at.clear();
        self.at.resize(n * m, 0.0);
        for i in 0..m {
            for j in 0..n {
                self.at[j * m + i] = self.a[i * n + j];
            }
        }
        // AᵀA, accumulated as a matrix product that skips zero entries.
        self.gram.clear();
        self.gram.resize(n * n, 0.0);
        for i in 0..n {
            for k in 0..m {
                let a = self.at[i * m + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    self.gram[i * n + j] += a * self.a[k * n + j];
                }
            }
        }
        self.atb.clear();
        for i in 0..n {
            let row = &self.at[i * m..(i + 1) * m];
            self.atb
                .push(row.iter().zip(&self.b).map(|(a, b)| a * b).sum());
        }

        self.x.clear();
        self.x.resize(n, 0.0);
        self.passive.clear();
        self.passive.resize(n, false);
        let max_outer = 30 * n.max(1);
        let tol = 1e-10 * (1.0 + self.atb.iter().fold(0.0f64, |m, v| m.max(v.abs())));

        let mut iterations = 0u64;
        for _ in 0..max_outer {
            iterations += 1;
            // Gradient of ½‖Ax−b‖² is AᵀAx − Aᵀb; w = −gradient.
            self.w.clear();
            for j in 0..n {
                let row = &self.gram[j * n..(j + 1) * n];
                let grad: f64 = row.iter().zip(&self.x).map(|(a, b)| a * b).sum();
                self.w.push(self.atb[j] - grad);
            }

            // Pick the most violated inactive constraint.
            let (w, passive) = (&self.w, &self.passive);
            let candidate = (0..n)
                .filter(|&j| !passive[j])
                .max_by(|&i, &j| w[i].partial_cmp(&w[j]).expect("finite gradients"));
            let Some(jmax) = candidate else { break };
            if self.w[jmax] <= tol {
                break; // KKT conditions met.
            }
            self.passive[jmax] = true;

            // Inner loop: retreat until the passive solution is feasible.
            loop {
                if !self.solve_passive() {
                    // Singular restricted system: drop the newest variable.
                    self.passive[jmax] = false;
                    break;
                }
                let (x, z, passive) = (&mut self.x, &self.z, &mut self.passive);
                let infeasible = |j: &usize| passive[*j] && z[*j] <= 0.0;
                if !(0..n).any(|j| infeasible(&j)) {
                    x.copy_from_slice(z);
                    break;
                }
                // Step from x toward z, stopping at the first boundary.
                let alpha = (0..n)
                    .filter(infeasible)
                    .map(|j| x[j] / (x[j] - z[j]))
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
        iterations
    }

    /// Solves the unconstrained problem restricted to the passive set into
    /// `self.z` (zero off the set). False when the restricted system is not
    /// numerically positive definite.
    fn solve_passive(&mut self) -> bool {
        let n = self.n;
        self.z.clear();
        self.z.resize(n, 0.0);
        self.idx.clear();
        self.idx.extend((0..n).filter(|&j| self.passive[j]));
        let k = self.idx.len();
        if k == 0 {
            return true;
        }
        self.sys.clear();
        self.rhs.clear();
        for &jr in &self.idx {
            self.rhs.push(self.atb[jr]);
            for &jc in &self.idx {
                self.sys.push(self.gram[jr * n + jc]);
            }
        }
        // Tiny ridge for numerical robustness on near-collinear terms.
        for r in 0..k {
            self.sys[r * k + r] += 1e-12 * (1.0 + self.sys[r * k + r].abs());
        }
        // Cholesky factor L (lower) of the passive system.
        let (g, l) = (&self.sys, &mut self.chol);
        l.clear();
        l.resize(k * k, 0.0);
        for i in 0..k {
            for j in 0..=i {
                let mut sum = g[i * k + j];
                for c in 0..j {
                    sum -= l[i * k + c] * l[j * k + c];
                }
                if i == j {
                    if sum <= 0.0 {
                        return false;
                    }
                    l[i * k + j] = sum.sqrt();
                } else {
                    l[i * k + j] = sum / l[j * k + j];
                }
            }
        }
        // Forward substitution L y = rhs.
        self.fwd.clear();
        for i in 0..k {
            let mut sum = self.rhs[i];
            for c in 0..i {
                sum -= l[i * k + c] * self.fwd[c];
            }
            self.fwd.push(sum / l[i * k + i]);
        }
        // Backward substitution Lᵀ sol = y.
        self.sol.clear();
        self.sol.resize(k, 0.0);
        for i in (0..k).rev() {
            let mut sum = self.fwd[i];
            for c in i + 1..k {
                sum -= l[c * k + i] * self.sol[c];
            }
            self.sol[i] = sum / l[i * k + i];
        }
        for (r, &j) in self.idx.iter().enumerate() {
            self.z[j] = self.sol[r];
        }
        true
    }
}

/// The Matrix-based Lawson–Hanson the workspace solver replaced, kept as
/// the oracle it is tested against bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::linalg::Matrix;

    /// SplitMix64 draws in `[0, 1)`.
    pub(crate) fn unit(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// Matrix–vector product.
    pub(crate) fn matvec(a: &Matrix, v: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|i| a.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Solves the symmetric positive-definite system `a * x = b` via
    /// Cholesky; `None` if `a` is not (numerically) SPD.
    fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let n = a.rows();
        let mut l = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[i * n + k] * z[k];
            }
            z[i] = sum / l[i * n + i];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = z[i];
            for k in i + 1..n {
                sum -= l[k * n + i] * x[k];
            }
            x[i] = sum / l[i * n + i];
        }
        Some(x)
    }

    /// Solution and outer iterations of `min ‖a·x − b‖₂, x ≥ 0`.
    pub(crate) fn nnls_with_stats(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
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
        (x, iterations)
    }

    fn nnls_normalized(a: &Matrix, b: &[f64]) -> (Vec<f64>, u64) {
        let n = a.cols();
        let at = a.transpose();
        let gram = at.matmul(a);
        let atb = matvec(&at, b);

        let mut x = vec![0.0f64; n];
        let mut passive = vec![false; n];
        let max_outer = 30 * n.max(1);

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
            for r in 0..k {
                g[(r, r)] += 1e-12 * (1.0 + g[(r, r)].abs());
            }
            let z = solve_spd(&g, &rhs)?;
            let mut full = vec![0.0; n];
            for (r, &j) in idx.iter().enumerate() {
                full[j] = z[r];
            }
            Some(full)
        };

        let mut iterations = 0u64;
        for _ in 0..max_outer {
            iterations += 1;
            let grad = matvec(&gram, &x);
            let w: Vec<f64> = (0..n).map(|j| atb[j] - grad[j]).collect();
            let candidate = (0..n)
                .filter(|&j| !passive[j])
                .max_by(|&i, &j| w[i].partial_cmp(&w[j]).expect("finite gradients"));
            let Some(jmax) = candidate else { break };
            let tol = 1e-10 * (1.0 + atb.iter().fold(0.0f64, |m, v| m.max(v.abs())));
            if w[jmax] <= tol {
                break;
            }
            passive[jmax] = true;
            loop {
                let Some(z) = solve_passive(&passive) else {
                    passive[jmax] = false;
                    break;
                };
                let infeasible: Vec<usize> =
                    (0..n).filter(|&j| passive[j] && z[j] <= 0.0).collect();
                if infeasible.is_empty() {
                    x = z;
                    break;
                }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        oracle::matvec(a, x)
            .iter()
            .zip(b)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            .sqrt()
    }

    /// A random design of 2–12 rows and 1–4 columns spanning many orders
    /// of magnitude, with some columns zeroed, some a multiple of another
    /// (collinear), and responses that often want a negative coefficient.
    fn random_design(state: &mut u64) -> (Matrix, Vec<f64>) {
        use oracle::unit;
        let m = 2 + (unit(state) * 11.0) as usize;
        let n = 1 + (unit(state) * 4.0) as usize;
        let mut rows = vec![vec![0.0; n]; m];
        for j in 0..n {
            let kind = unit(state);
            let scale = 10f64.powi((unit(state) * 10.0) as i32);
            for row in &mut rows {
                row[j] = if kind < 0.15 {
                    0.0
                } else if kind < 0.3 && j > 0 {
                    row[j - 1] * 3.0
                } else {
                    scale * unit(state)
                };
            }
        }
        let truth: Vec<f64> = (0..n).map(|_| unit(state) * 4.0 - 2.0).collect();
        let b = rows
            .iter()
            .map(|r| {
                let clean: f64 = r.iter().zip(&truth).map(|(a, t)| a * t).sum();
                clean * (1.0 + 0.05 * (unit(state) - 0.5)) + (unit(state) - 0.5)
            })
            .collect();
        (Matrix::from_rows(&rows), b)
    }

    /// One workspace, reused across every solve as a model selection
    /// reuses it, reproduces the Matrix-based Lawson–Hanson bit for bit:
    /// the coefficients and the iteration count.
    #[test]
    fn workspace_matches_matrix_oracle_bit_for_bit() {
        let mut state = 29;
        let mut ws = Workspace::default();
        let (mut clamped, mut degenerate) = (0, 0);
        for case in 0..3000 {
            let (a, b) = random_design(&mut state);
            let (want, want_iters) = oracle::nnls_with_stats(&a, &b);
            ws.start(a.cols());
            for (i, &y) in b.iter().enumerate() {
                ws.push_row(a.row(i), y);
            }
            let iters = ws.solve();
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ws.x), bits(&want), "case {case}: {a:?} {b:?}");
            assert_eq!(iters, want_iters, "case {case}");
            assert_eq!(nnls_with_stats(&a, &b), (want.clone(), want_iters));
            clamped += usize::from(want.contains(&0.0));
            degenerate +=
                usize::from((0..a.cols()).any(|j| (0..a.rows()).all(|i| a[(i, j)] == 0.0)));
        }
        assert!(clamped > 100, "few clamped coefficients: {clamped}");
        assert!(degenerate > 100, "few zero columns: {degenerate}");
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
        // Compare against the one-variable OLS optimum Σ a·y / Σ a².
        let dot: f64 = rows.iter().zip(&b).map(|(r, y)| r[0] * y).sum();
        let norm: f64 = rows.iter().map(|r| r[0] * r[0]).sum();
        let x_ref = vec![dot / norm, 0.0];
        // NNLS may also keep b active at 0; residuals must match the
        // restricted optimum up to tolerance.
        let r_nnls = residual(&a, &x, &b);
        let r_ref = residual(&a, &x_ref, &b);
        assert!(r_nnls <= r_ref + 1e-8, "{r_nnls} vs {r_ref}");
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
