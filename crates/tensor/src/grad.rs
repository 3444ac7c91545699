//! Reverse-mode gradient construction.
//!
//! [`grad`] walks the tape backwards from a scalar output and accumulates
//! vector-Jacobian products. Crucially every VJP is expressed *with tape
//! operations*, so the returned gradients are ordinary [`Var`]s that can be fed
//! into further computations and differentiated again (double backward). This is
//! what lets GEAttack differentiate through the explainer's inner gradient-descent
//! updates (Eq. 6/8 of the paper).

use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::tape::{Op, SparseVar, Tape, Var};

/// Computes `d output / d wrt[i]` for every requested variable.
///
/// `output` must be a `1x1` scalar. Variables that `output` does not depend on
/// receive an all-zeros gradient of their own shape.
///
/// The gradients are recorded on the same tape, so they can participate in new
/// expressions whose gradients can be taken in turn.
///
/// # Panics
/// Panics if `output` is not `1x1`.
pub fn grad(tape: &Tape, output: Var, wrt: &[Var]) -> Vec<Var> {
    grad_full(tape, output, wrt, &[]).0
}

/// [`grad`] extended with gradients for sparse operands.
///
/// For every requested [`SparseVar`] the second return value holds
/// `∂ output / ∂ A[i, j]` at exactly the positions registered via
/// [`Tape::sparse_input`], in registration order. These are concrete values, not
/// tape nodes: the sparse gradients are produced by candidate-masked SDDMM and
/// are consumed as final results (edge scores) by the attack loops, which do not
/// differentiate through them again. The dense gradients remain fully
/// differentiable tape expressions, including through spmm nodes (the
/// dense-operand backward of an spmm is another spmm).
///
/// Only paths from a requested variable to `output` are differentiated: a
/// node whose gradient cannot reach any `wrt` or `sparse_wrt` operand gets no
/// backward nodes, so constants such as input features cost nothing in the
/// backward pass.
pub fn grad_full(tape: &Tape, output: Var, wrt: &[Var], sparse_wrt: &[SparseVar]) -> (Vec<Var>, Vec<Vec<f64>>) {
    assert_eq!(output.shape(), (1, 1), "grad: output must be a 1x1 scalar");

    // One accumulation buffer per requested sparse operand, aligned with its
    // registered positions. Accumulation happens eagerly (values, not tape ops)
    // in the deterministic reverse-node-id order of the sweep.
    let mut sparse_accum: HashMap<usize, Vec<f64>> = sparse_wrt
        .iter()
        .map(|s| (s.id(), vec![0.0; tape.sparse_positions(*s).len()]))
        .collect();
    let live = live_nodes(tape, output, wrt, sparse_wrt);

    let mut grads: Vec<Option<Var>> = vec![None; output.id() + 1];
    grads[output.id()] = Some(tape.constant(Matrix::ones(1, 1)));

    for id in (0..=output.id()).rev() {
        if !live[id] {
            continue;
        }
        let Some(g) = grads[id] else { continue };
        let op = tape.op_of(id);
        let parents = tape.parents_of(id);
        let parents = parents.as_slice();
        if let Op::Spmm { sparse } = op {
            if let Some(buffer) = sparse_accum.get_mut(&sparse) {
                let positions = tape.sparse_positions_by_id(sparse);
                let g_val = tape.value_ref(g);
                let b_val = tape.value_ref(tape.var_for(parents[0]));
                for (slot, v) in SparseMatrix::sddmm(&positions, &g_val, &b_val).into_iter().enumerate() {
                    buffer[slot] += v;
                }
            }
        }
        let (first, second) = vjp(tape, id, &op, parents, g, &live);
        if let Some((slot, contribution)) = first {
            accumulate(tape, &mut grads, slot, contribution);
        }
        if let Some((slot, contribution)) = second {
            accumulate(tape, &mut grads, slot, contribution);
        }
    }

    let dense = wrt
        .iter()
        .map(|w| {
            if w.id() <= output.id() {
                if let Some(g) = grads[w.id()] {
                    return g;
                }
            }
            tape.constant(Matrix::zeros(w.rows(), w.cols()))
        })
        .collect();
    let sparse = sparse_wrt
        .iter()
        .map(|s| sparse_accum.remove(&s.id()).expect("buffer was created above"))
        .collect();
    (dense, sparse)
}

/// Convenience wrapper around [`grad`] returning concrete matrices instead of tape
/// handles. Use this when the gradient is a final result (e.g. an optimizer step)
/// rather than part of a larger differentiable expression.
pub fn grad_values(tape: &Tape, output: Var, wrt: &[Var]) -> Vec<Matrix> {
    grad(tape, output, wrt).into_iter().map(|v| tape.value(v)).collect()
}

/// Marks the nodes up to `output` whose gradient can reach a requested
/// operand: the `wrt` nodes themselves, every spmm over a requested sparse
/// operand (its output gradient feeds the masked SDDMM), and every
/// non-detached node with a live parent (a detached op — the softmax row max,
/// the ReLU mask — is a constant to the gradient). Parents precede their
/// children on the tape, so one forward pass settles every node.
///
/// The sweep visits only live nodes and [`vjp`] emits contributions only into
/// live parents. Every child of a live node is live, so a live node still
/// receives every contribution it would without pruning, recorded in the same
/// relative order; the gradients that reach `wrt` are unchanged bit for bit,
/// including when they are differentiated again.
fn live_nodes(tape: &Tape, output: Var, wrt: &[Var], sparse_wrt: &[SparseVar]) -> Vec<bool> {
    let mut live = vec![false; output.id() + 1];
    for w in wrt {
        if let Some(l) = live.get_mut(w.id()) {
            *l = true;
        }
    }
    tape.with_nodes(|nodes| {
        for (id, node) in nodes[..live.len()].iter().enumerate() {
            live[id] = live[id]
                || matches!(node.op, Op::Spmm { sparse } if sparse_wrt.iter().any(|s| s.id() == sparse))
                || (!node.op.is_detached() && node.parents.as_slice().iter().any(|&p| live[p]));
        }
    });
    live
}

fn accumulate(tape: &Tape, grads: &mut [Option<Var>], id: usize, contribution: Var) {
    grads[id] = Some(match grads[id] {
        Some(existing) => tape.add(existing, contribution),
        None => contribution,
    });
}

/// Up to two per-parent gradient contributions, inline (no heap allocation on
/// the per-node backward path — every primitive has at most two parents).
type Contribs = (Option<(usize, Var)>, Option<(usize, Var)>);

fn one(slot: usize, v: Var) -> Contribs {
    (Some((slot, v)), None)
}

/// Vector-Jacobian products of a single node: for each live parent, the
/// gradient contribution flowing into it given the output gradient `g` of node
/// `id`. Dead parents get nothing; binary ops build only their live side, in
/// the order the full rule would record it.
fn vjp(tape: &Tape, id: usize, op: &Op, parents: &[usize], g: Var, live: &[bool]) -> Contribs {
    if !parents.iter().any(|&p| live[p]) {
        return (None, None);
    }
    let parent_var = |k: usize| tape.var_for(parents[k]);
    let wants = |k: usize| live[parents[k]];
    match op {
        Op::Leaf | Op::ReluMask | Op::RowMax => (None, None),
        Op::Add => (wants(0).then_some((parents[0], g)), wants(1).then_some((parents[1], g))),
        Op::Sub => (
            wants(0).then_some((parents[0], g)),
            wants(1).then(|| (parents[1], tape.neg(g))),
        ),
        Op::Neg => one(parents[0], tape.neg(g)),
        Op::Mul => {
            let a = parent_var(0);
            let b = parent_var(1);
            (
                wants(0).then(|| (parents[0], tape.mul(g, b))),
                wants(1).then(|| (parents[1], tape.mul(g, a))),
            )
        }
        Op::AddScalar(_) => one(parents[0], g),
        Op::MulScalar(s) => one(parents[0], tape.mul_scalar(g, *s)),
        Op::PowScalar(p) => {
            let a = parent_var(0);
            let deriv = tape.mul_scalar(tape.pow_scalar(a, p - 1.0), *p);
            one(parents[0], tape.mul(g, deriv))
        }
        Op::MatMul => {
            // Transposes before products: node order sets the accumulation
            // order of a later double backward, which must not depend on which
            // sides are live.
            let bt = wants(0).then(|| tape.transpose(parent_var(1)));
            let at = wants(1).then(|| tape.transpose(parent_var(0)));
            (
                bt.map(|bt| (parents[0], tape.matmul(g, bt))),
                at.map(|at| (parents[1], tape.matmul(at, g))),
            )
        }
        Op::Transpose => one(parents[0], tape.transpose(g)),
        Op::Sigmoid => {
            // dσ/dx = σ(x)(1 - σ(x)); reuse the node's own output value.
            let y = tape.var_for(id);
            let one_minus = tape.add_scalar(tape.mul_scalar(y, -1.0), 1.0);
            let deriv = tape.mul(y, one_minus);
            one(parents[0], tape.mul(g, deriv))
        }
        Op::Relu => {
            // The subgradient mask is a detached op: the second derivative of
            // ReLU is zero almost everywhere, so detaching is exact for the
            // double-backward use case, and a replayed tape recomputes it.
            let mask = tape.relu_mask(parent_var(0));
            one(parents[0], tape.mul(g, mask))
        }
        Op::Tanh => {
            let y = tape.var_for(id);
            let y2 = tape.mul(y, y);
            let deriv = tape.add_scalar(tape.mul_scalar(y2, -1.0), 1.0);
            one(parents[0], tape.mul(g, deriv))
        }
        Op::Exp => {
            let y = tape.var_for(id);
            one(parents[0], tape.mul(g, y))
        }
        Op::Ln => {
            let a = parent_var(0);
            let inv = tape.pow_scalar(a, -1.0);
            one(parents[0], tape.mul(g, inv))
        }
        Op::SumAll => {
            let a = parent_var(0);
            one(parents[0], tape.broadcast_scalar(g, a.rows(), a.cols()))
        }
        Op::SumRows => {
            let a = parent_var(0);
            one(parents[0], tape.col_broadcast(g, a.cols()))
        }
        Op::SumCols => {
            let a = parent_var(0);
            one(parents[0], tape.row_broadcast(g, a.rows()))
        }
        Op::BroadcastScalar { .. } => one(parents[0], tape.sum_all(g)),
        Op::ColBroadcast { .. } => one(parents[0], tape.sum_rows(g)),
        Op::RowBroadcast { .. } => one(parents[0], tape.sum_cols(g)),
        Op::GatherRows { indices } => {
            let a = parent_var(0);
            one(parents[0], tape.scatter_rows(g, indices, a.rows()))
        }
        Op::ScatterRows { indices, .. } => one(parents[0], tape.gather_rows(g, indices)),
        Op::Spmm { sparse } => {
            // C = A · B with sparse A: ∂L/∂B = Aᵀ · g, emitted as another spmm so
            // the dense gradient stays differentiable. The sparse operand's
            // gradient is handled by the masked SDDMM in the sweep itself.
            let at = tape.sparse_transpose_of(*sparse);
            one(parents[0], tape.spmm(at, g))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `d f / d x` for a scalar-valued builder.
    fn finite_diff(build: impl Fn(&Tape, Var) -> Var, x0: &Matrix, eps: f64) -> Matrix {
        let mut out = Matrix::zeros(x0.rows(), x0.cols());
        for i in 0..x0.rows() {
            for j in 0..x0.cols() {
                let mut plus = x0.clone();
                plus[(i, j)] += eps;
                let mut minus = x0.clone();
                minus[(i, j)] -= eps;
                let tape = Tape::new();
                let vp = tape.input(plus);
                let fp = tape.value(build(&tape, vp)).scalar();
                let tape = Tape::new();
                let vm = tape.input(minus);
                let fm = tape.value(build(&tape, vm)).scalar();
                out[(i, j)] = (fp - fm) / (2.0 * eps);
            }
        }
        out
    }

    fn check_grad(build: impl Fn(&Tape, Var) -> Var + Copy, x0: Matrix, tol: f64) {
        let tape = Tape::new();
        let x = tape.input(x0.clone());
        let y = build(&tape, x);
        let g = grad(&tape, y, &[x]);
        let analytic = tape.value(g[0]);
        let numeric = finite_diff(build, &x0, 1e-5);
        assert!(
            analytic.approx_eq(&numeric, tol),
            "gradient mismatch\nanalytic: {analytic:?}\nnumeric: {numeric:?}"
        );
    }

    #[test]
    fn grad_of_sum_is_ones() {
        let tape = Tape::new();
        let x = tape.input(Matrix::from_fn(3, 2, |i, j| (i + j) as f64));
        let y = tape.sum_all(x);
        let g = grad(&tape, y, &[x]);
        assert!(tape.value(g[0]).approx_eq(&Matrix::ones(3, 2), 1e-12));
    }

    #[test]
    fn grad_of_unrelated_var_is_zero() {
        let tape = Tape::new();
        let x = tape.input(Matrix::ones(2, 2));
        let z = tape.input(Matrix::ones(3, 1));
        let y = tape.sum_all(x);
        let g = grad(&tape, y, &[z]);
        assert!(tape.value(g[0]).approx_eq(&Matrix::zeros(3, 1), 1e-12));
    }

    #[test]
    fn unrequested_constants_get_no_backward_nodes() {
        // `X` is a constant, so d sum(X·W) / dW needs Xᵀ but never the n×f
        // `∂L/∂X = G·Wᵀ`: no node recorded by `grad` may have X's shape.
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(5, 3, |i, j| (i as f64) - 0.5 * (j as f64)));
        let w = tape.input(Matrix::from_fn(3, 2, |i, j| 0.1 * (i + j) as f64 + 0.2));
        let loss = tape.sum_all(tape.matmul(x, w));
        let before = tape.len();
        let g = grad(&tape, loss, &[w]);
        assert_eq!(g[0].shape(), w.shape());
        for id in before..tape.len() {
            assert_ne!(
                tape.var_for(id).shape(),
                x.shape(),
                "node {id} is a gradient for the constant X"
            );
        }
        let expected = tape.value(x).transpose().matmul(&Matrix::ones(5, 2));
        assert_eq!(tape.value(g[0]).as_slice(), expected.as_slice());
    }

    #[test]
    fn grad_elementwise_chain_matches_finite_diff() {
        let x0 = Matrix::from_vec(2, 3, vec![0.5, -1.2, 0.3, 2.0, -0.7, 1.1]);
        check_grad(
            |t, x| {
                let s = t.sigmoid(x);
                let r = t.mul(s, s);
                t.sum_all(r)
            },
            x0,
            1e-6,
        );
    }

    #[test]
    fn grad_matmul_matches_finite_diff() {
        let x0 = Matrix::from_vec(2, 3, vec![0.5, -1.2, 0.3, 2.0, -0.7, 1.1]);
        check_grad(
            |t, x| {
                let w = t.constant(Matrix::from_fn(3, 2, |i, j| 0.3 * (i as f64) - 0.2 * (j as f64) + 0.1));
                let h = t.matmul(x, w);
                let h = t.relu(h);
                t.sum_all(t.mul(h, h))
            },
            x0,
            1e-5,
        );
    }

    #[test]
    fn grad_exp_ln_pow_matches_finite_diff() {
        let x0 = Matrix::from_vec(1, 4, vec![0.4, 1.3, 2.2, 0.9]);
        check_grad(
            |t, x| {
                let e = t.exp(x);
                let l = t.ln(t.add_scalar(e, 1.0));
                let p = t.pow_scalar(l, 1.5);
                t.sum_all(p)
            },
            x0,
            1e-6,
        );
    }

    #[test]
    fn grad_broadcast_reduction_matches_finite_diff() {
        let x0 = Matrix::from_vec(3, 1, vec![0.2, -0.4, 0.9]);
        check_grad(
            |t, x| {
                let b = t.col_broadcast(x, 4);
                let s = t.sigmoid(b);
                let r = t.sum_cols(s);
                t.sum_all(t.mul(r, r))
            },
            x0,
            1e-6,
        );
    }

    #[test]
    fn grad_gather_scatter_matches_finite_diff() {
        let x0 = Matrix::from_fn(4, 2, |i, j| 0.1 * (i as f64 + 1.0) * (j as f64 + 1.0));
        check_grad(
            |t, x| {
                let g = t.gather_rows(x, &[2, 0, 2]);
                let s = t.mul(g, g);
                t.sum_all(s)
            },
            x0,
            1e-6,
        );
    }

    #[test]
    fn grad_transpose_matches_finite_diff() {
        let x0 = Matrix::from_fn(2, 3, |i, j| (i as f64) - 0.5 * (j as f64));
        check_grad(
            |t, x| {
                let xt = t.transpose(x);
                let p = t.matmul(xt, x);
                t.sum_all(p)
            },
            x0,
            1e-5,
        );
    }

    #[test]
    fn double_backward_quadratic() {
        // f(x) = sum(x^3); df/dx = 3x^2; g(x) = sum(df/dx) => dg/dx = 6x.
        let x0 = Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]);
        let tape = Tape::new();
        let x = tape.input(x0.clone());
        let f = tape.sum_all(tape.pow_scalar(x, 3.0));
        let df = grad(&tape, f, &[x])[0];
        let g = tape.sum_all(df);
        let d2 = grad(&tape, g, &[x])[0];
        let expected = x0.map(|v| 6.0 * v);
        assert!(tape.value(d2).approx_eq(&expected, 1e-8));
    }

    #[test]
    fn double_backward_through_gradient_step() {
        // Mimics the GEAttack inner loop on a toy problem:
        //   inner loss  L(m, a) = sum((m - a)^2)
        //   one gradient step m1 = m0 - eta * dL/dm = m0 - 2 eta (m0 - a)
        //   outer loss  J(a) = sum(m1 * a)
        // Analytically m1 = m0(1-2eta) + 2 eta a, so dJ/da = m0(1-2eta) + 4 eta a.
        let eta = 0.3;
        let m0 = Matrix::from_vec(1, 3, vec![0.5, -0.2, 1.0]);
        let a0 = Matrix::from_vec(1, 3, vec![1.5, 0.4, -0.3]);

        let tape = Tape::new();
        let a = tape.input(a0.clone());
        let m = tape.constant(m0.clone());
        let diff = tape.sub(m, a);
        let inner = tape.sum_all(tape.mul(diff, diff));
        let dm = grad(&tape, inner, &[m])[0];
        let m1 = tape.sub(m, tape.mul_scalar(dm, eta));
        let outer = tape.sum_all(tape.mul(m1, a));
        let da = grad(&tape, outer, &[a])[0];

        let expected = Matrix::from_fn(1, 3, |_, j| m0[(0, j)] * (1.0 - 2.0 * eta) + 4.0 * eta * a0[(0, j)]);
        assert!(
            tape.value(da).approx_eq(&expected, 1e-8),
            "outer gradient through inner step mismatch: {:?} vs {expected:?}",
            tape.value(da)
        );
    }

    #[test]
    fn grad_values_returns_matrices() {
        let tape = Tape::new();
        let x = tape.input(Matrix::ones(2, 2));
        let y = tape.sum_all(tape.mul(x, x));
        let gs = grad_values(&tape, y, &[x]);
        assert!(gs[0].approx_eq(&Matrix::full(2, 2, 2.0), 1e-12));
    }

    #[test]
    #[should_panic(expected = "1x1 scalar")]
    fn grad_requires_scalar_output() {
        let tape = Tape::new();
        let x = tape.input(Matrix::ones(2, 2));
        let _ = grad(&tape, x, &[x]);
    }

    fn sparse_example() -> SparseMatrix {
        SparseMatrix::from_rows(
            3,
            3,
            &[vec![(0, 0.5), (2, 2.0)], vec![(1, -1.5)], vec![(0, 1.0), (1, 3.0)]],
        )
    }

    #[test]
    fn spmm_forward_bitwise_matches_dense() {
        let tape = Tape::new();
        let s = sparse_example();
        let b0 = Matrix::from_fn(3, 2, |i, j| 0.3 * (i as f64) - 0.4 * (j as f64) + 0.1);
        let a = tape.sparse_constant(s.clone());
        let b = tape.input(b0.clone());
        let c = tape.spmm(a, b);
        let dense = s.to_dense().matmul(&b0);
        assert_eq!(tape.value(c).as_slice(), dense.as_slice());
    }

    #[test]
    fn spmm_dense_gradient_matches_dense_matmul_gradient() {
        // d sum((A·B)²) / dB through the sparse path must equal the dense path.
        let s = sparse_example();
        let b0 = Matrix::from_fn(3, 2, |i, j| 0.2 * (i as f64 + 1.0) + 0.7 * (j as f64) - 0.3);

        let tape = Tape::new();
        let a = tape.sparse_constant(s.clone());
        let b = tape.input(b0.clone());
        let c = tape.spmm(a, b);
        let loss = tape.sum_all(tape.mul(c, c));
        let sparse_grad = tape.value(grad(&tape, loss, &[b])[0]);

        let tape = Tape::new();
        let a = tape.constant(s.to_dense());
        let b = tape.input(b0);
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(tape.mul(c, c));
        let dense_grad = tape.value(grad(&tape, loss, &[b])[0]);

        assert_eq!(sparse_grad.as_slice(), dense_grad.as_slice(), "bitwise-equal backward");
    }

    #[test]
    fn masked_sparse_gradient_matches_dense_adjacency_gradient() {
        // ∂ sum((A·B)²) / ∂A at requested positions — stored and unstored alike —
        // must match the full dense gradient matrix.
        let s = sparse_example();
        let b0 = Matrix::from_fn(3, 2, |i, j| 0.9 - 0.35 * (i as f64) + 0.15 * (j as f64));
        let positions = vec![(0, 0), (0, 1), (1, 2), (2, 1), (2, 2)];

        let tape = Tape::new();
        let a = tape.sparse_input(s.clone(), positions.clone());
        let b = tape.constant(b0.clone());
        let c = tape.spmm(a, b);
        let loss = tape.sum_all(tape.mul(c, c));
        let (_, sparse_grads) = grad_full(&tape, loss, &[], &[a]);

        let tape = Tape::new();
        let ad = tape.input(s.to_dense());
        let b = tape.constant(b0);
        let c = tape.matmul(ad, b);
        let loss = tape.sum_all(tape.mul(c, c));
        let dense_grad = tape.value(grad(&tape, loss, &[ad])[0]);

        for (&(i, j), &v) in positions.iter().zip(&sparse_grads[0]) {
            assert!(
                (v - dense_grad[(i, j)]).abs() < 1e-12,
                "masked gradient mismatch at ({i},{j}): {v} vs {}",
                dense_grad[(i, j)]
            );
        }
    }

    #[test]
    fn sparse_gradient_accumulates_over_multiple_uses() {
        // The same sparse operand feeding two spmm nodes (a two-layer GCN shape)
        // accumulates both contributions.
        let s = sparse_example();
        let b0 = Matrix::from_fn(3, 2, |i, j| 0.25 * (i as f64) + 0.5 * (j as f64) + 0.1);
        let positions = s.stored_positions();

        let tape = Tape::new();
        let a = tape.sparse_input(s.clone(), positions.clone());
        let b = tape.constant(b0.clone());
        let h = tape.spmm(a, b);
        let c = tape.spmm(a, h);
        let loss = tape.sum_all(c);
        let (_, sparse_grads) = grad_full(&tape, loss, &[], &[a]);

        let tape = Tape::new();
        let ad = tape.input(s.to_dense());
        let b = tape.constant(b0);
        let h = tape.matmul(ad, b);
        let c = tape.matmul(ad, h);
        let loss = tape.sum_all(c);
        let dense_grad = tape.value(grad(&tape, loss, &[ad])[0]);

        for (&(i, j), &v) in positions.iter().zip(&sparse_grads[0]) {
            assert!((v - dense_grad[(i, j)]).abs() < 1e-10, "mismatch at ({i},{j})");
        }
    }

    #[test]
    fn unused_sparse_operand_gets_zero_gradient() {
        let tape = Tape::new();
        let a = tape.sparse_input(sparse_example(), vec![(0, 0), (1, 1)]);
        let x = tape.input(Matrix::ones(1, 1));
        let loss = tape.sum_all(tape.mul(x, x));
        let (dense, sparse) = grad_full(&tape, loss, &[x], &[a]);
        assert_eq!(tape.value(dense[0]).scalar(), 2.0);
        assert_eq!(sparse[0], vec![0.0, 0.0]);
    }
}
