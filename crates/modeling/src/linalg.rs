//! Minimal dense matrix type: the design rows handed to [`crate::nnls()`]
//! and the Gram log-determinant of D-optimal experiment design. The NNLS
//! solver itself runs over row-major slices in its own workspace.

use serde::{Deserialize, Serialize};

/// Row-major dense `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major slice of rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let ncols = rows.first().map_or(0, Vec::len);
        let mut m = Matrix::zeros(rows.len(), ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols, "ragged rows");
            m.data[i * ncols..(i + 1) * ncols].copy_from_slice(r);
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrowed row slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// `log(det(selfᵀ · self + ridge·I))` — the D-optimality objective used
    /// by the greedy experiment-design selector.
    ///
    /// # Panics
    /// Panics if `ridge < 0`.
    #[must_use]
    pub fn logdet_gram(&self, ridge: f64) -> f64 {
        assert!(ridge >= 0.0);
        let mut g = self.transpose().matmul(self);
        for i in 0..g.rows {
            g[(i, i)] += ridge;
        }
        // Cholesky log-det: 2 Σ log L_ii.
        let n = g.rows;
        let mut l = vec![0.0f64; n * n];
        let mut logdet = 0.0;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = g[(i, j)];
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        return f64::NEG_INFINITY;
                    }
                    l[i * n + j] = sum.sqrt();
                    logdet += 2.0 * l[i * n + j].ln();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        logdet
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_and_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.rows(), 2);
        assert_eq!(at.cols(), 3);
        let g = at.matmul(&a);
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
    }

    #[test]
    fn logdet_gram_of_identity() {
        let i3 = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert!((i3.logdet_gram(0.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn logdet_gram_monotone_in_added_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        assert!(b.logdet_gram(1e-9) > a.logdet_gram(1e-9));
    }
}
