//! Property-based tests of the numerical core: NNLS optimality conditions,
//! model-selection sanity, and experiment-design invariants.

use proptest::prelude::*;

use modeling::{d_optimal_greedy, fit_best, full_factorial, nnls, Matrix, ModelSpec, Sample};

/// `rows · x`.
fn matvec(rows: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    rows.iter()
        .map(|r| r.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

fn design_matrix() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (2usize..8, 1usize..4).prop_flat_map(|(rows, cols)| {
        let cell = -100.0f64..100.0;
        (
            prop::collection::vec(
                prop::collection::vec(cell.clone(), cols..=cols),
                rows.max(cols)..=rows.max(cols) + 4,
            ),
            prop::collection::vec(-1000.0f64..1000.0, rows.max(cols)..=rows.max(cols) + 4),
        )
            .prop_map(|(m, y)| {
                let n = m.len().min(y.len());
                (m[..n].to_vec(), y[..n].to_vec())
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// NNLS never returns negative coefficients and never beats-worse the
    /// trivial zero solution.
    #[test]
    fn nnls_is_feasible_and_no_worse_than_zero((rows, y) in design_matrix()) {
        let a = Matrix::from_rows(&rows);
        let x = nnls(&a, &y);
        prop_assert!(x.iter().all(|&c| c >= 0.0 && c.is_finite()), "{x:?}");
        let res = |xv: &[f64]| -> f64 {
            matvec(&rows, xv).iter().zip(&y).map(|(p, t)| (p - t) * (p - t)).sum()
        };
        let zero = vec![0.0; a.cols()];
        prop_assert!(res(&x) <= res(&zero) + 1e-6 * (1.0 + res(&zero)));
    }

    /// For consistent non-negative systems, NNLS recovers the generator
    /// (well-conditioned diagonal-dominant case).
    #[test]
    fn nnls_recovers_nonnegative_truth(coeffs in prop::collection::vec(0.0f64..50.0, 1..4)) {
        let n = coeffs.len();
        // Identity-plus-extra-rows design: trivially well conditioned.
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| f64::from(u8::from(i == j))).collect())
            .collect();
        rows.push(vec![1.0; n]);
        let a = Matrix::from_rows(&rows);
        let y = matvec(&rows, &coeffs);
        let x = nnls(&a, &y);
        for (got, want) in x.iter().zip(&coeffs) {
            prop_assert!((got - want).abs() < 1e-6, "{x:?} vs {coeffs:?}");
        }
    }

    /// fit_best always returns finite predictions and non-negative
    /// coefficients on positive responses.
    #[test]
    fn fit_best_is_stable(scale in 1.0f64..1e6, jitter in prop::collection::vec(0.9f64..1.1, 9)) {
        let mut samples = Vec::new();
        let mut k = 0;
        for &e in &[1.0e3, 5.0e3, 2.0e4] {
            for &f in &[2.0e3, 8.0e3, 3.0e4] {
                samples.push(Sample::ef(e, f, scale * (1.0 + 1e-6 * e * f) * jitter[k]));
                k += 1;
            }
        }
        let cv = fit_best(&ModelSpec::size_candidates(), &samples).expect("fits");
        prop_assert!(cv.model.coeffs.iter().all(|&c| c >= 0.0 && c.is_finite()));
        let pred = cv.model.predict(1.0e4, 1.0e4, 1.0);
        prop_assert!(pred.is_finite() && pred >= 0.0);
    }

    /// Full factorial size is the product of the axis lengths, and every
    /// combination is unique.
    #[test]
    fn full_factorial_product(axes in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 1..4), 0..4)) {
        let grid = full_factorial(&axes);
        let expect: usize = axes.iter().map(Vec::len).product();
        prop_assert_eq!(grid.len(), expect.max(1));
        for combo in &grid {
            prop_assert_eq!(combo.len(), axes.len());
        }
    }

    /// Greedy D-optimal selection returns k distinct, in-range indices.
    #[test]
    fn d_optimal_returns_distinct_indices(n in 2usize..20, k in 1usize..8) {
        prop_assume!(k <= n);
        let candidates: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![1.0, i as f64, (i as f64).sqrt()])
            .collect();
        let picks = d_optimal_greedy(&candidates, k);
        prop_assert_eq!(picks.len(), k);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k, "duplicates in {:?}", picks);
        prop_assert!(picks.iter().all(|&i| i < n));
    }
}
