//! Composite neural-network building blocks assembled from primitive tape ops.
//!
//! Everything in this module stays differentiable (including twice-differentiable)
//! because it only composes the primitives defined on [`Tape`].

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Numerically-stable row-wise softmax.
///
/// The per-row maximum is subtracted as a detached value; this does not change
/// the value or the gradient of softmax and keeps `exp` in range.
pub fn softmax_rows(tape: &Tape, x: Var) -> Var {
    let shifted = sub_row_max(tape, x);
    let e = tape.exp(shifted);
    let sums = tape.sum_rows(e);
    let inv = tape.pow_scalar(sums, -1.0);
    tape.mul(e, tape.col_broadcast(inv, x.cols()))
}

/// Numerically-stable row-wise log-softmax.
pub fn log_softmax_rows(tape: &Tape, x: Var) -> Var {
    let shifted = sub_row_max(tape, x);
    let e = tape.exp(shifted);
    let log_sums = tape.ln(tape.sum_rows(e));
    tape.sub(shifted, tape.col_broadcast(log_sums, x.cols()))
}

fn sub_row_max(tape: &Tape, x: Var) -> Var {
    let max = tape.row_max(x);
    tape.sub(x, tape.col_broadcast(max, x.cols()))
}

/// Builds a one-hot matrix (`labels.len() x n_classes`) for use as a constant mask.
pub fn one_hot(labels: &[usize], n_classes: usize) -> Matrix {
    let mut m = Matrix::zeros(labels.len(), n_classes);
    for (i, &c) in labels.iter().enumerate() {
        assert!(c < n_classes, "label {c} out of range for {n_classes} classes");
        m[(i, c)] = 1.0;
    }
    m
}

/// Mean negative log-likelihood of `log_probs` (shape `n x C`) on the rows listed
/// in `node_indices` with the given `labels`.
///
/// This is the GCN training objective of Eq. (1): cross-entropy over labelled nodes.
pub fn masked_nll(tape: &Tape, log_probs: Var, node_indices: &[usize], labels: &[usize], n_classes: usize) -> Var {
    assert_eq!(
        node_indices.len(),
        labels.len(),
        "masked_nll: index/label length mismatch"
    );
    assert!(!node_indices.is_empty(), "masked_nll: empty node set");
    let selected = tape.gather_rows(log_probs, node_indices);
    let mask = tape.constant(one_hot(labels, n_classes));
    let picked = tape.mul(selected, mask);
    let total = tape.sum_all(picked);
    tape.mul_scalar(total, -1.0 / node_indices.len() as f64)
}

/// Negative log-likelihood of a single node's prediction for a single class,
/// `-log f(A, X)^{c}_{v}` — the per-target attack/explainer loss used throughout
/// the paper (Eq. 2, 3 and 4).
pub fn node_class_nll(tape: &Tape, log_probs: Var, node: usize, class: usize, n_classes: usize) -> Var {
    masked_nll(tape, log_probs, &[node], &[class], n_classes)
}

/// Differentiable symmetric GCN normalization
/// `Ã = D^{-1/2} (A + I) D^{-1/2}` with `D_ii = 1 + Σ_j A_ij`.
///
/// The normalization is part of the computation graph, so gradients with respect to
/// the raw adjacency account for the degree renormalization an edge insertion
/// causes. This `O(n²)` form is the test oracle of the sparse attack gradients
/// and of the masked GCN.
pub fn gcn_normalize(tape: &Tape, a: Var) -> Var {
    assert_eq!(a.rows(), a.cols(), "gcn_normalize expects a square adjacency matrix");
    let n = a.rows();
    let a_hat = tape.add_const(a, &Matrix::eye(n));
    let degrees = tape.sum_rows(a_hat);
    let d_inv_sqrt = tape.pow_scalar(degrees, -0.5);
    let row_scaled = tape.mul(a_hat, tape.col_broadcast(d_inv_sqrt, n));
    let d_inv_sqrt_row = tape.transpose(d_inv_sqrt);
    tape.mul(row_scaled, tape.row_broadcast(d_inv_sqrt_row, n))
}

/// Plain (non-differentiable) symmetric GCN normalization on a concrete matrix.
pub fn gcn_normalize_matrix(a: &Matrix) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "gcn_normalize_matrix expects a square matrix");
    let n = a.rows();
    let mut a_hat = a.clone();
    for i in 0..n {
        a_hat[(i, i)] += 1.0;
    }
    let deg = a_hat.row_sums();
    let inv_sqrt: Vec<f64> = (0..n).map(|i| 1.0 / deg[(i, 0)].sqrt()).collect();
    Matrix::from_fn(n, n, |i, j| a_hat[(i, j)] * inv_sqrt[i] * inv_sqrt[j])
}

/// Element-wise binary entropy `-(g ln g + (1-g) ln(1-g))` of gate values in
/// `[0, 1]`. A saturated sigmoid is exactly 0 or 1 in f64 (|logit| ≳ 37), so
/// the logs are epsilon-stabilized.
pub fn binary_entropy(tape: &Tape, g: Var) -> Var {
    let eps = 1e-12;
    let one_minus = tape.add_scalar(tape.mul_scalar(g, -1.0), 1.0);
    tape.neg(tape.add(
        tape.mul(g, tape.ln(tape.add_scalar(g, eps))),
        tape.mul(one_minus, tape.ln(tape.add_scalar(one_minus, eps))),
    ))
}

/// A dense layer `x @ w + b` with the bias broadcast over rows.
pub fn linear(tape: &Tape, x: Var, w: Var, b: Var) -> Var {
    let xw = tape.matmul(x, w);
    tape.add(xw, tape.row_broadcast(b, x.rows()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::grad;

    #[test]
    fn softmax_rows_sum_to_one() {
        let tape = Tape::new();
        let x = tape.input(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1000.0]));
        let s = tape.value(softmax_rows(&tape, x));
        for i in 0..2 {
            let sum: f64 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
            assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        // Extreme logits stay finite thanks to the max-shift.
        assert!((s[(1, 2)] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let tape = Tape::new();
        let x = tape.input(Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.2, 2.0, 2.0, 2.0]));
        let ls = tape.value(log_softmax_rows(&tape, x));
        let s = tape.value(softmax_rows(&tape, x));
        assert!(ls.approx_eq(&s.map(f64::ln), 1e-9));
    }

    #[test]
    fn one_hot_rows() {
        let m = one_hot(&[2, 0], 3);
        assert_eq!(m.row(0), &[0.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn masked_nll_known_value() {
        let tape = Tape::new();
        // log-probs for 2 nodes, 2 classes
        let lp = tape.input(Matrix::from_vec(
            2,
            2,
            vec![(0.9f64).ln(), (0.1f64).ln(), (0.4f64).ln(), (0.6f64).ln()],
        ));
        let loss = masked_nll(&tape, lp, &[0, 1], &[0, 1], 2);
        let expected = -(0.9f64.ln() + 0.6f64.ln()) / 2.0;
        assert!((tape.value(loss).scalar() - expected).abs() < 1e-9);
    }

    #[test]
    fn node_class_nll_picks_single_entry() {
        let tape = Tape::new();
        let lp = tape.input(Matrix::from_vec(2, 3, vec![-0.1, -2.0, -3.0, -1.5, -0.2, -2.5]));
        let loss = node_class_nll(&tape, lp, 1, 2, 3);
        assert!((tape.value(loss).scalar() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gcn_normalize_matches_matrix_version() {
        let tape = Tape::new();
        let a = Matrix::from_vec(3, 3, vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let av = tape.input(a.clone());
        let norm = tape.value(gcn_normalize(&tape, av));
        let direct = gcn_normalize_matrix(&a);
        assert!(norm.approx_eq(&direct, 1e-12));
        // Symmetric input gives symmetric output.
        assert!(norm.approx_eq(&norm.transpose(), 1e-12));
    }

    #[test]
    fn gcn_normalize_row_known_values() {
        // Path graph 0-1: degrees with self loops are [2, 2].
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let norm = gcn_normalize_matrix(&a);
        assert!((norm[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((norm[(0, 1)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gcn_normalize_gradient_matches_finite_diff() {
        let a0 = Matrix::from_vec(3, 3, vec![0.0, 1.0, 0.2, 1.0, 0.0, 0.7, 0.2, 0.7, 0.0]);
        let f = |t: &Tape, a: Var| {
            let norm = gcn_normalize(t, a);
            t.sum_all(t.mul(norm, norm))
        };
        let tape = Tape::new();
        let a = tape.input(a0.clone());
        let y = f(&tape, a);
        let g = tape.value(grad(&tape, y, &[a])[0]);

        let eps = 1e-6;
        let mut numeric = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                let mut p = a0.clone();
                p[(i, j)] += eps;
                let tp = Tape::new();
                let vp = tp.input(p);
                let fp = tp.value(f(&tp, vp)).scalar();
                let mut m = a0.clone();
                m[(i, j)] -= eps;
                let tm = Tape::new();
                let vm = tm.input(m);
                let fm = tm.value(f(&tm, vm)).scalar();
                numeric[(i, j)] = (fp - fm) / (2.0 * eps);
            }
        }
        assert!(g.approx_eq(&numeric, 1e-5), "{g:?} vs {numeric:?}");
    }

    #[test]
    fn linear_layer_shapes() {
        let tape = Tape::new();
        let x = tape.input(Matrix::ones(4, 3));
        let w = tape.input(Matrix::ones(3, 2));
        let b = tape.input(Matrix::row_vector(&[1.0, -1.0]));
        let y = tape.value(linear(&tape, x, w, b));
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(y[(0, 0)], 4.0);
        assert_eq!(y[(0, 1)], 2.0);
    }
}
