//! Replay property tests: a tape recorded at one set of leaf values, then
//! re-run with [`Tape::set_value`] + [`Tape::replay`] at another, must hold
//! bit for bit the values a fresh recording at the second set holds — forward
//! values, gradients and gradients of gradients alike.
//!
//! Programs are random straight-line compositions of every primitive op.
//! Leaf values come from a small discrete pool (zeros of both signs, repeated
//! values) mixed with uniform draws, so matmul zero-skip patterns change
//! between the two leaf sets, row maxima tie and ReLU inputs sit exactly at 0.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use geattack_tensor::{grad::grad, nn, Matrix, SparseMatrix, Tape, Var};

const N: usize = 4;
const C: usize = 3;

/// Shapes of the leaves every program starts from.
const LEAF_SHAPES: [(usize, usize); 6] = [(N, N), (N, C), (C, C), (1, 1), (N, 1), (1, C)];

#[derive(Clone, Copy, Debug)]
enum Unary {
    Neg,
    AddScalar,
    MulScalar,
    Square,
    Cube,
    Sigmoid,
    Relu,
    Tanh,
    /// `exp(tanh x)`.
    Exp,
    /// `ln(exp(tanh x) + 0.5)`: a positive argument.
    Ln,
    /// `(σ(x) + 0.5)⁻¹`: a negative power of a positive argument.
    Reciprocal,
}

const UNARIES: [Unary; 11] = [
    Unary::Neg,
    Unary::AddScalar,
    Unary::MulScalar,
    Unary::Square,
    Unary::Cube,
    Unary::Sigmoid,
    Unary::Relu,
    Unary::Tanh,
    Unary::Exp,
    Unary::Ln,
    Unary::Reciprocal,
];

/// One instruction over earlier values (indices into the value list). Every
/// instruction appends exactly one value.
#[derive(Clone, Debug)]
enum Instr {
    Unary(Unary, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MatMul(usize, usize),
    Spmm(usize),
    Transpose(usize),
    SumAll(usize),
    SumRows(usize),
    SumCols(usize),
    BroadcastScalar(usize, usize, usize),
    ColBroadcast(usize, usize),
    RowBroadcast(usize, usize),
    Gather(usize, Vec<usize>),
    Scatter(usize, Vec<usize>, usize),
    Softmax(usize),
    LogSoftmax(usize),
}

/// A random program: its instructions and the sparse constant `spmm` uses.
#[derive(Debug)]
struct Program {
    instrs: Vec<Instr>,
    sparse: SparseMatrix,
}

fn generate_program(rng: &mut ChaCha8Rng) -> Program {
    let mut shapes: Vec<(usize, usize)> = LEAF_SHAPES.to_vec();
    let mut instrs = Vec::new();
    let pick = |rng: &mut ChaCha8Rng, shapes: &[(usize, usize)], want: &dyn Fn((usize, usize)) -> bool| {
        let matching: Vec<usize> = (0..shapes.len()).filter(|&i| want(shapes[i])).collect();
        (!matching.is_empty()).then(|| matching[rng.gen_range(0..matching.len())])
    };
    for _ in 0..rng.gen_range(6..18usize) {
        let a = rng.gen_range(0..shapes.len());
        let (r, c) = shapes[a];
        let kind = rng.gen_range(0..17usize);
        let (instr, shape) = match kind {
            1..=3 => {
                let b = pick(rng, &shapes, &|s| s == (r, c)).expect("a itself matches");
                let instr = match kind {
                    1 => Instr::Add(a, b),
                    2 => Instr::Sub(a, b),
                    _ => Instr::Mul(a, b),
                };
                (instr, (r, c))
            }
            4 => match pick(rng, &shapes, &|s| s.0 == c) {
                Some(b) => (Instr::MatMul(a, b), (r, shapes[b].1)),
                None => (Instr::Transpose(a), (c, r)),
            },
            5 => match pick(rng, &shapes, &|s| s.0 == N) {
                Some(b) => (Instr::Spmm(b), (N, shapes[b].1)),
                None => (Instr::SumAll(a), (1, 1)),
            },
            6 => (Instr::Transpose(a), (c, r)),
            7 => (Instr::SumAll(a), (1, 1)),
            8 => (Instr::SumRows(a), (r, 1)),
            9 => (Instr::SumCols(a), (1, c)),
            10 => {
                let s = pick(rng, &shapes, &|s| s == (1, 1)).expect("a 1x1 leaf exists");
                let (rows, cols) = LEAF_SHAPES[rng.gen_range(0..LEAF_SHAPES.len())];
                (Instr::BroadcastScalar(s, rows, cols), (rows, cols))
            }
            11 => {
                let v = pick(rng, &shapes, &|s| s.1 == 1).expect("an n x 1 leaf exists");
                let cols = rng.gen_range(1..C + 2);
                (Instr::ColBroadcast(v, cols), (shapes[v].0, cols))
            }
            12 => {
                let v = pick(rng, &shapes, &|s| s.0 == 1).expect("a 1 x m leaf exists");
                let rows = rng.gen_range(1..N + 2);
                (Instr::RowBroadcast(v, rows), (rows, shapes[v].1))
            }
            13 => {
                // Repeated indices on purpose.
                let indices: Vec<usize> = (0..rng.gen_range(1..6usize)).map(|_| rng.gen_range(0..r)).collect();
                let len = indices.len();
                (Instr::Gather(a, indices), (len, c))
            }
            14 => {
                let total = rng.gen_range(1..N + 1);
                let indices: Vec<usize> = (0..r).map(|_| rng.gen_range(0..total)).collect();
                (Instr::Scatter(a, indices, total), (total, c))
            }
            15 => (Instr::Softmax(a), (r, c)),
            16 => (Instr::LogSoftmax(a), (r, c)),
            _ => (Instr::Unary(UNARIES[rng.gen_range(0..UNARIES.len())], a), (r, c)),
        };
        instrs.push(instr);
        shapes.push(shape);
    }
    let mut dense = Matrix::zeros(N, N);
    for i in 0..N {
        for j in 0..N {
            if rng.gen_bool(0.4) {
                dense[(i, j)] = rng.gen_range(-1.5..1.5);
            }
        }
    }
    Program {
        instrs,
        sparse: SparseMatrix::from_dense(&dense),
    }
}

/// Leaf values drawn half from a discrete pool (signed zeros, ties) and half
/// uniformly.
fn leaf_values(rng: &mut ChaCha8Rng) -> Vec<Matrix> {
    const POOL: [f64; 6] = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0];
    LEAF_SHAPES
        .iter()
        .map(|&(r, c)| {
            Matrix::from_fn(r, c, |_, _| {
                if rng.gen_bool(0.5) {
                    POOL[rng.gen_range(0..POOL.len())]
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
        })
        .collect()
}

/// Records `program` on `tape` at `leaves` and returns the leaf handles plus
/// every value worth comparing: each instruction's result, a loss over all of
/// them, its gradients with respect to the leaves, and the gradients of a
/// function of those gradients (double backward).
fn record(tape: &Tape, program: &Program, leaves: &[Matrix]) -> (Vec<Var>, Vec<Var>) {
    let leaf_vars: Vec<Var> = leaves.iter().map(|m| tape.input(m.clone())).collect();
    let sparse = tape.sparse_constant(program.sparse.clone());
    let mut values = leaf_vars.clone();
    // Products and sums may grow; a tanh keeps every value (and so every
    // gradient) bounded without moving exact zeros or breaking ties.
    let squash = |v: Var| tape.tanh(v);
    for instr in &program.instrs {
        let v = |i: usize| values[i];
        let out = match instr {
            Instr::Unary(op, a) => {
                let a = v(*a);
                match op {
                    Unary::Neg => tape.neg(a),
                    Unary::AddScalar => tape.add_scalar(a, 0.5),
                    Unary::MulScalar => tape.mul_scalar(a, -1.5),
                    Unary::Square => squash(tape.pow_scalar(a, 2.0)),
                    Unary::Cube => squash(tape.pow_scalar(a, 3.0)),
                    Unary::Sigmoid => tape.sigmoid(a),
                    Unary::Relu => tape.relu(a),
                    Unary::Tanh => tape.tanh(a),
                    Unary::Exp => tape.exp(tape.tanh(a)),
                    Unary::Ln => tape.ln(tape.add_scalar(tape.exp(tape.tanh(a)), 0.5)),
                    Unary::Reciprocal => tape.pow_scalar(tape.add_scalar(tape.sigmoid(a), 0.5), -1.0),
                }
            }
            Instr::Add(a, b) => squash(tape.add(v(*a), v(*b))),
            Instr::Sub(a, b) => tape.sub(v(*a), v(*b)),
            Instr::Mul(a, b) => squash(tape.mul(v(*a), v(*b))),
            Instr::MatMul(a, b) => squash(tape.matmul(v(*a), v(*b))),
            Instr::Spmm(b) => squash(tape.spmm(sparse, v(*b))),
            Instr::Transpose(a) => tape.transpose(v(*a)),
            Instr::SumAll(a) => squash(tape.sum_all(v(*a))),
            Instr::SumRows(a) => squash(tape.sum_rows(v(*a))),
            Instr::SumCols(a) => squash(tape.sum_cols(v(*a))),
            Instr::BroadcastScalar(a, rows, cols) => tape.broadcast_scalar(v(*a), *rows, *cols),
            Instr::ColBroadcast(a, cols) => tape.col_broadcast(v(*a), *cols),
            Instr::RowBroadcast(a, rows) => tape.row_broadcast(v(*a), *rows),
            Instr::Gather(a, indices) => tape.gather_rows(v(*a), indices),
            Instr::Scatter(a, indices, total) => squash(tape.scatter_rows(v(*a), indices, *total)),
            Instr::Softmax(a) => nn::softmax_rows(tape, v(*a)),
            Instr::LogSoftmax(a) => squash(nn::log_softmax_rows(tape, v(*a))),
        };
        values.push(out);
    }

    let sum = |terms: Vec<Var>| terms.into_iter().reduce(|acc, t| tape.add(acc, t)).expect("non-empty");
    let loss = sum(values.iter().map(|&v| tape.sum_all(tape.sigmoid(v))).collect());
    let grads = grad(tape, loss, &leaf_vars);
    let loss2 = sum(grads.iter().map(|&g| tape.sum_all(tape.mul(g, g))).collect());
    let grads2 = grad(tape, loss2, &leaf_vars);

    let mut outputs = values;
    outputs.push(loss);
    outputs.extend(grads);
    outputs.push(loss2);
    outputs.extend(grads2);
    (leaf_vars, outputs)
}

fn bits(tape: &Tape, vars: &[Var]) -> Vec<Vec<u64>> {
    vars.iter()
        .map(|&v| tape.value_ref(v).as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn replay_equals_fresh_recording_bit_for_bit(seed in 0u64..u64::MAX) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let program = generate_program(&mut rng);
        let first = leaf_values(&mut rng);
        let second = leaf_values(&mut rng);

        let replayed = Tape::new();
        let (leaves, outputs) = record(&replayed, &program, &first);
        for (&leaf, value) in leaves.iter().zip(&second) {
            replayed.set_value(leaf, value);
        }
        replayed.replay();

        let fresh = Tape::new();
        let (_, fresh_outputs) = record(&fresh, &program, &second);
        prop_assert_eq!(replayed.len(), fresh.len());
        prop_assert_eq!(bits(&replayed, &outputs), bits(&fresh, &fresh_outputs), "program {:?}", program);

        // Replaying back to the first leaves restores the first recording.
        for (&leaf, value) in leaves.iter().zip(&first) {
            replayed.set_value(leaf, value);
        }
        replayed.replay();
        let again = Tape::new();
        let (_, again_outputs) = record(&again, &program, &first);
        prop_assert_eq!(bits(&replayed, &outputs), bits(&again, &again_outputs));
    }
}

#[test]
#[should_panic(expected = "sparse input with gradient positions")]
fn replay_panics_on_sparse_input_with_positions() {
    let tape = Tape::new();
    let a = tape.sparse_input(SparseMatrix::from_dense(&Matrix::eye(2)), vec![(0, 1)]);
    let b = tape.input(Matrix::ones(2, 1));
    let _ = tape.spmm(a, b);
    tape.replay();
}
