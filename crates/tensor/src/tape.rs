//! The autodiff tape: eagerly-evaluated operations recorded as a DAG.
//!
//! Every operation immediately computes its [`Matrix`] value and records a node
//! referencing its parents. Gradients ([`crate::grad::grad`]) are produced by
//! *emitting more tape operations*, which makes the gradient expressions themselves
//! differentiable — the double-backward capability GEAttack's bilevel objective
//! needs (the outer gradient w.r.t. the adjacency matrix flows through the inner
//! explainer gradient-descent steps).
//!
//! # Record once, replay many times
//!
//! A recorded tape is also a program. [`Tape::set_value`] overwrites an input
//! leaf in place and [`Tape::replay`] re-evaluates every recorded node in id
//! order, writing into the buffers the recording allocated. Recording and
//! replay share one evaluator per op (recording allocates the output shape and
//! calls it), so a replayed tape holds, bit for bit, the values a fresh
//! recording at the new leaves would hold — gradient nodes included. Loops that
//! run one fixed-shape computation many times (an explainer's mask epochs, a
//! GCN's training epochs) record it once and replay it instead of rebuilding
//! the tape every step.
//!
//! The rule that makes this sound: **what gets recorded — ops, shapes, indices
//! and any value read eagerly while recording (`value_ref(...)` feeding a
//! scalar or a branch) — may depend only on constants, never on a leaf that is
//! later overwritten.** Values the gradient must treat as constants (the
//! softmax row max, the ReLU subgradient mask) are therefore recorded as
//! detached ops rather than read out and re-inserted as leaves. Tapes holding a
//! [`Tape::sparse_input`] with gradient positions cannot be replayed: their
//! SDDMM gradients are accumulated outside the tape by
//! [`crate::grad::grad_full`] and would go stale.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var` is a cheap `Copy` handle: it stores the node id plus the value's shape so
/// shape checks do not need to touch the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    pub(crate) id: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl Var {
    /// Node id within its tape.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of rows of the recorded value.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the recorded value.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the recorded value.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// Handle to a sparse matrix registered on a [`Tape`].
///
/// Sparse values live in their own arena next to the dense nodes: they only ever
/// appear as the left operand of [`Tape::spmm`], and their gradients are read out
/// as plain values at registered positions (see [`crate::grad::grad_full`]) rather
/// than re-entering the tape as differentiable nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseVar {
    pub(crate) id: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl SparseVar {
    /// Sparse-node id within its tape.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of rows of the registered matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the registered matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` of the registered matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

pub(crate) struct SparseNode {
    pub(crate) matrix: Arc<SparseMatrix>,
    /// Positions at which `∂L/∂A` is requested (the candidate mask). Empty for
    /// constants that are never differentiated against.
    pub(crate) positions: Rc<Vec<(usize, usize)>>,
    /// Lazily-created transpose node (the backward pass of [`Op::Spmm`] needs
    /// `Aᵀ`, and the transpose of a transpose links back here).
    transpose_id: Cell<Option<usize>>,
}

/// Primitive differentiable operations.
///
/// Composite functions (softmax, cross-entropy, GCN normalization, ...) are built
/// from these in [`crate::nn`]; keeping the primitive set small keeps the
/// vector-Jacobian-product rules in `grad.rs` short and auditable.
///
/// Some variants carry shape payloads that are only read by `Debug` output; they
/// are kept because they make tape dumps self-describing when debugging.
#[allow(dead_code)]
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Leaf node (input or constant); has no parents.
    Leaf,
    Add,
    Sub,
    Neg,
    /// Element-wise (Hadamard) product.
    Mul,
    AddScalar(f64),
    MulScalar(f64),
    /// Element-wise power with a constant exponent.
    PowScalar(f64),
    MatMul,
    Transpose,
    Sigmoid,
    Relu,
    /// Detached ReLU subgradient mask `[a > 0]` (1.0 or 0.0 per element); no
    /// gradient flows through it.
    ReluMask,
    Tanh,
    Exp,
    Ln,
    /// Sum of all elements into a `1x1` matrix.
    SumAll,
    /// Per-row sums into an `n x 1` matrix.
    SumRows,
    /// Per-column sums into a `1 x m` matrix.
    SumCols,
    /// Detached per-row maxima into an `n x 1` matrix; no gradient flows
    /// through it.
    RowMax,
    /// Broadcast of a `1x1` scalar to `rows x cols`.
    BroadcastScalar {
        rows: usize,
        cols: usize,
    },
    /// Broadcast of an `n x 1` column vector across `cols` columns.
    ColBroadcast {
        cols: usize,
    },
    /// Broadcast of a `1 x m` row vector across `rows` rows.
    RowBroadcast {
        rows: usize,
    },
    /// Row selection (`indices.len() x cols`). The indices are reference-counted
    /// so cloning the op during the backward sweep never copies the index list.
    GatherRows {
        indices: Rc<Vec<usize>>,
    },
    /// Row scattering into a `total_rows x cols` zero matrix.
    ScatterRows {
        indices: Rc<Vec<usize>>,
        total_rows: usize,
    },
    /// Sparse-times-dense product; `sparse` indexes the tape's sparse arena and
    /// the single dense parent is the right operand.
    Spmm {
        sparse: usize,
    },
}

impl Op {
    /// Whether the op is a detached read of its parent: its value enters the
    /// computation as a constant, so gradient construction never marks it live.
    pub(crate) fn is_detached(&self) -> bool {
        matches!(self, Op::ReluMask | Op::RowMax)
    }
}

/// The (at most two) parent node ids of an operation, stored inline: every
/// primitive is unary or binary, so a heap-allocated list per node — cloned
/// again on every backward visit — would be pure allocator churn on the hot
/// explainer/attack loops, whose tapes hold thousands of tiny-matrix nodes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Parents {
    ids: [usize; 2],
    len: u8,
}

impl Parents {
    pub(crate) const NONE: Parents = Parents { ids: [0, 0], len: 0 };

    pub(crate) fn one(a: usize) -> Parents {
        Parents { ids: [a, 0], len: 1 }
    }

    pub(crate) fn two(a: usize, b: usize) -> Parents {
        Parents { ids: [a, b], len: 2 }
    }

    pub(crate) fn as_slice(&self) -> &[usize] {
        &self.ids[..self.len as usize]
    }
}

pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) parents: Parents,
    pub(crate) value: Matrix,
}

/// An autodiff tape (a growable arena of `Node`s).
///
/// Either record a computation once per step (read the results out as
/// [`Matrix`] values and drop the tape), or record it once and re-run it with
/// [`Tape::set_value`] + [`Tape::replay`] — see the module docs for the rule a
/// replayed recording must follow.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    sparse_nodes: RefCell<Vec<SparseNode>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
            sparse_nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Records a leaf holding `value` (an input the caller may later differentiate
    /// with respect to).
    pub fn input(&self, value: Matrix) -> Var {
        self.push(Op::Leaf, Parents::NONE, value)
    }

    /// Records a leaf holding `value`. Semantically identical to [`Tape::input`];
    /// the distinct name documents intent (constants are never differentiated
    /// against, though doing so simply yields zeros).
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(Op::Leaf, Parents::NONE, value)
    }

    /// Convenience: records a `1x1` constant.
    pub fn scalar(&self, value: f64) -> Var {
        self.constant(Matrix::from_vec(1, 1, vec![value]))
    }

    /// Clones the value currently stored for `v`.
    pub fn value(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Borrows the value stored for `v` without cloning.
    pub fn value_ref(&self, v: Var) -> Ref<'_, Matrix> {
        Ref::map(self.nodes.borrow(), |nodes| &nodes[v.id].value)
    }

    /// Overwrites the value of the input leaf `leaf` in place. The next
    /// [`Tape::replay`] propagates it to every node recorded after it.
    ///
    /// # Panics
    /// Panics if `leaf` is not a leaf or `value` has a different shape.
    pub fn set_value(&self, leaf: Var, value: &Matrix) {
        let mut nodes = self.nodes.borrow_mut();
        let node = &mut nodes[leaf.id];
        assert!(matches!(node.op, Op::Leaf), "set_value: node {} is not a leaf", leaf.id);
        assert_eq!(
            node.value.shape(),
            value.shape(),
            "set_value: shape mismatch for leaf {}",
            leaf.id
        );
        node.value.as_mut_slice().copy_from_slice(value.as_slice());
    }

    /// Re-evaluates every recorded node in id order from the current leaf
    /// values, overwriting each node's value in place. The result equals a
    /// fresh recording of the same program at the current leaves, bit for bit.
    ///
    /// # Panics
    /// Panics if the tape holds a [`Tape::sparse_input`] with gradient
    /// positions: those gradients live outside the tape and cannot be replayed.
    pub fn replay(&self) {
        let sparse = self.sparse_nodes.borrow();
        assert!(
            sparse.iter().all(|s| s.positions.is_empty()),
            "replay: the tape holds a sparse input with gradient positions, whose gradients are not tape nodes"
        );
        let mut nodes = self.nodes.borrow_mut();
        for id in 0..nodes.len() {
            let (before, rest) = nodes.split_at_mut(id);
            let node = &mut rest[0];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            eval_into(&node.op, node.parents, before, &sparse, &mut node.value);
            debug_assert!(
                !node.value.has_non_finite(),
                "tape op {:?} produced a non-finite value",
                node.op
            );
        }
    }

    /// Appends a node holding its already-computed `value`.
    fn push(&self, op: Op, parents: Parents, value: Matrix) -> Var {
        debug_assert!(!value.has_non_finite(), "tape op {op:?} produced a non-finite value");
        let rows = value.rows();
        let cols = value.cols();
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { op, parents, value });
        Var { id, rows, cols }
    }

    /// Records `op` over `parents`: allocates the `rows x cols` output and
    /// fills it with the op's evaluator, the one [`Tape::replay`] runs.
    fn record(&self, op: Op, parents: Parents, rows: usize, cols: usize) -> Var {
        let mut value = Matrix::zeros(rows, cols);
        eval_into(
            &op,
            parents,
            &self.nodes.borrow(),
            &self.sparse_nodes.borrow(),
            &mut value,
        );
        self.push(op, parents, value)
    }

    pub(crate) fn with_nodes<R>(&self, f: impl FnOnce(&[Node]) -> R) -> R {
        f(&self.nodes.borrow())
    }

    pub(crate) fn parents_of(&self, id: usize) -> Parents {
        self.nodes.borrow()[id].parents
    }

    pub(crate) fn op_of(&self, id: usize) -> Op {
        self.nodes.borrow()[id].op.clone()
    }

    pub(crate) fn var_for(&self, id: usize) -> Var {
        let nodes = self.nodes.borrow();
        let v = &nodes[id].value;
        Var {
            id,
            rows: v.rows(),
            cols: v.cols(),
        }
    }

    // ---- sparse operands --------------------------------------------------------

    /// Registers a sparse matrix as a constant operand (never differentiated
    /// against; asking for its gradient yields zeros at zero positions).
    /// Passing an `Arc` shares the matrix with the caller instead of copying
    /// it, so a loop can register the same operand (a graph's CSR features,
    /// say) on every fresh tape.
    pub fn sparse_constant(&self, matrix: impl Into<Arc<SparseMatrix>>) -> SparseVar {
        self.sparse_push(matrix.into(), Rc::new(Vec::new()))
    }

    /// Registers a sparse matrix as an input whose gradient will be requested at
    /// exactly `positions` (the candidate mask of the masked-SDDMM backward).
    /// Positions outside the stored pattern are legal — the gradient of a matmul
    /// with respect to a structurally-zero entry is still well defined.
    pub fn sparse_input(&self, matrix: SparseMatrix, positions: Vec<(usize, usize)>) -> SparseVar {
        for &(i, j) in &positions {
            assert!(
                i < matrix.rows() && j < matrix.cols(),
                "gradient position ({i},{j}) out of range for {}x{}",
                matrix.rows(),
                matrix.cols()
            );
        }
        self.sparse_push(Arc::new(matrix), Rc::new(positions))
    }

    fn sparse_push(&self, matrix: Arc<SparseMatrix>, positions: Rc<Vec<(usize, usize)>>) -> SparseVar {
        let (rows, cols) = matrix.shape();
        let mut nodes = self.sparse_nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(SparseNode {
            matrix,
            positions,
            transpose_id: Cell::new(None),
        });
        SparseVar { id, rows, cols }
    }

    /// The sparse matrix registered for `v` (cheap `Arc` clone).
    pub fn sparse_value(&self, v: SparseVar) -> Arc<SparseMatrix> {
        Arc::clone(&self.sparse_nodes.borrow()[v.id].matrix)
    }

    /// The gradient positions registered for `v` (cheap `Rc` clone).
    pub fn sparse_positions(&self, v: SparseVar) -> Rc<Vec<(usize, usize)>> {
        self.sparse_positions_by_id(v.id)
    }

    pub(crate) fn sparse_positions_by_id(&self, id: usize) -> Rc<Vec<(usize, usize)>> {
        Rc::clone(&self.sparse_nodes.borrow()[id].positions)
    }

    /// The (lazily-created, cached) transpose of sparse node `id`, used by the
    /// [`Op::Spmm`] backward rule. Transposing a transpose returns the original.
    pub(crate) fn sparse_transpose_of(&self, id: usize) -> SparseVar {
        {
            let nodes = self.sparse_nodes.borrow();
            if let Some(t) = nodes[id].transpose_id.get() {
                let m = &nodes[t].matrix;
                return SparseVar {
                    id: t,
                    rows: m.rows(),
                    cols: m.cols(),
                };
            }
        }
        let transposed = self.sparse_nodes.borrow()[id].matrix.transpose();
        let t = self.sparse_push(Arc::new(transposed), Rc::new(Vec::new()));
        let nodes = self.sparse_nodes.borrow();
        nodes[id].transpose_id.set(Some(t.id));
        nodes[t.id].transpose_id.set(Some(id));
        t
    }

    // ---- primitive operations -------------------------------------------------

    fn assert_same_shape(a: Var, b: Var, what: &str) {
        assert_eq!(
            a.shape(),
            b.shape(),
            "{what}: shape mismatch {:?} vs {:?}",
            a.shape(),
            b.shape()
        );
    }

    /// Element-wise sum `a + b`.
    pub fn add(&self, a: Var, b: Var) -> Var {
        Self::assert_same_shape(a, b, "add");
        self.record(Op::Add, Parents::two(a.id, b.id), a.rows, a.cols)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        Self::assert_same_shape(a, b, "sub");
        self.record(Op::Sub, Parents::two(a.id, b.id), a.rows, a.cols)
    }

    /// Element-wise negation `-a`.
    pub fn neg(&self, a: Var) -> Var {
        self.record(Op::Neg, Parents::one(a.id), a.rows, a.cols)
    }

    /// Element-wise (Hadamard) product `a ⊙ b`.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        Self::assert_same_shape(a, b, "mul");
        self.record(Op::Mul, Parents::two(a.id, b.id), a.rows, a.cols)
    }

    /// Adds the constant `s` to every element.
    pub fn add_scalar(&self, a: Var, s: f64) -> Var {
        self.record(Op::AddScalar(s), Parents::one(a.id), a.rows, a.cols)
    }

    /// Multiplies every element by the constant `s`.
    pub fn mul_scalar(&self, a: Var, s: f64) -> Var {
        self.record(Op::MulScalar(s), Parents::one(a.id), a.rows, a.cols)
    }

    /// Element-wise power `a^p` with constant exponent `p`.
    pub fn pow_scalar(&self, a: Var, p: f64) -> Var {
        self.record(Op::PowScalar(p), Parents::one(a.id), a.rows, a.cols)
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        assert_eq!(
            a.cols, b.rows,
            "matmul: inner dimensions differ ({} vs {})",
            a.cols, b.rows
        );
        self.record(Op::MatMul, Parents::two(a.id, b.id), a.rows, b.cols)
    }

    /// Sparse-times-dense matrix product `a @ b` where `a` is a registered
    /// [`SparseVar`]. The forward value is bit-identical to a dense `matmul` of
    /// `a`'s dense form (same accumulation order, zero entries skipped); the
    /// backward rule sends a dense gradient to `b` (via `aᵀ @ g`, itself an spmm)
    /// and a candidate-masked SDDMM gradient to `a`'s registered positions.
    pub fn spmm(&self, a: SparseVar, b: Var) -> Var {
        assert_eq!(
            a.cols, b.rows,
            "spmm: inner dimensions differ ({} vs {})",
            a.cols, b.rows
        );
        self.record(Op::Spmm { sparse: a.id }, Parents::one(b.id), a.rows, b.cols)
    }

    /// Matrix transpose.
    pub fn transpose(&self, a: Var) -> Var {
        self.record(Op::Transpose, Parents::one(a.id), a.cols, a.rows)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.record(Op::Sigmoid, Parents::one(a.id), a.rows, a.cols)
    }

    /// Element-wise ReLU.
    pub fn relu(&self, a: Var) -> Var {
        self.record(Op::Relu, Parents::one(a.id), a.rows, a.cols)
    }

    /// The ReLU subgradient mask `[a > 0]` as a detached value: gradients
    /// treat it as a constant.
    pub(crate) fn relu_mask(&self, a: Var) -> Var {
        self.record(Op::ReluMask, Parents::one(a.id), a.rows, a.cols)
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.record(Op::Tanh, Parents::one(a.id), a.rows, a.cols)
    }

    /// Element-wise exponential.
    pub fn exp(&self, a: Var) -> Var {
        self.record(Op::Exp, Parents::one(a.id), a.rows, a.cols)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self, a: Var) -> Var {
        self.record(Op::Ln, Parents::one(a.id), a.rows, a.cols)
    }

    /// Sum of all elements as a `1x1` matrix.
    pub fn sum_all(&self, a: Var) -> Var {
        self.record(Op::SumAll, Parents::one(a.id), 1, 1)
    }

    /// Per-row sums as an `n x 1` column vector.
    pub fn sum_rows(&self, a: Var) -> Var {
        self.record(Op::SumRows, Parents::one(a.id), a.rows, 1)
    }

    /// Per-column sums as a `1 x m` row vector.
    pub fn sum_cols(&self, a: Var) -> Var {
        self.record(Op::SumCols, Parents::one(a.id), 1, a.cols)
    }

    /// Per-row maxima as a detached `n x 1` column vector: gradients treat it
    /// as a constant.
    pub(crate) fn row_max(&self, a: Var) -> Var {
        self.record(Op::RowMax, Parents::one(a.id), a.rows, 1)
    }

    /// Broadcasts a `1x1` scalar to a `rows x cols` matrix.
    pub fn broadcast_scalar(&self, a: Var, rows: usize, cols: usize) -> Var {
        assert_eq!(a.shape(), (1, 1), "broadcast_scalar requires a 1x1 input");
        self.record(Op::BroadcastScalar { rows, cols }, Parents::one(a.id), rows, cols)
    }

    /// Broadcasts an `n x 1` column vector across `cols` columns.
    pub fn col_broadcast(&self, a: Var, cols: usize) -> Var {
        assert_eq!(a.cols, 1, "col_broadcast requires an n x 1 input");
        self.record(Op::ColBroadcast { cols }, Parents::one(a.id), a.rows, cols)
    }

    /// Broadcasts a `1 x m` row vector across `rows` rows.
    pub fn row_broadcast(&self, a: Var, rows: usize) -> Var {
        assert_eq!(a.rows, 1, "row_broadcast requires a 1 x m input");
        self.record(Op::RowBroadcast { rows }, Parents::one(a.id), rows, a.cols)
    }

    /// Selects rows `indices` of `a`.
    pub fn gather_rows(&self, a: Var, indices: &[usize]) -> Var {
        self.record(
            Op::GatherRows {
                indices: Rc::new(indices.to_vec()),
            },
            Parents::one(a.id),
            indices.len(),
            a.cols,
        )
    }

    /// Scatters the rows of `a` into a `total_rows x cols` zero matrix at `indices`.
    pub fn scatter_rows(&self, a: Var, indices: &[usize], total_rows: usize) -> Var {
        assert_eq!(a.rows, indices.len(), "scatter_rows: row count must match index count");
        self.record(
            Op::ScatterRows {
                indices: Rc::new(indices.to_vec()),
                total_rows,
            },
            Parents::one(a.id),
            total_rows,
            a.cols,
        )
    }

    // ---- composite conveniences -------------------------------------------------

    /// `a ⊙ c` where `c` is a plain matrix (recorded as a constant leaf).
    pub fn mul_const(&self, a: Var, c: &Matrix) -> Var {
        let c = self.constant(c.clone());
        self.mul(a, c)
    }

    /// `a + c` where `c` is a plain matrix (recorded as a constant leaf).
    pub fn add_const(&self, a: Var, c: &Matrix) -> Var {
        let c = self.constant(c.clone());
        self.add(a, c)
    }

    /// Mean of all elements as a `1x1` matrix.
    pub fn mean_all(&self, a: Var) -> Var {
        let n = (a.rows * a.cols) as f64;
        let s = self.sum_all(a);
        self.mul_scalar(s, 1.0 / n)
    }

    /// Element-wise division `a / b` (implemented as `a ⊙ b^{-1}`).
    pub fn div(&self, a: Var, b: Var) -> Var {
        let inv = self.pow_scalar(b, -1.0);
        self.mul(a, inv)
    }
}

/// The evaluator of every non-leaf op: computes `op` over the values of
/// `parents` (all ids below the node's own, so `nodes` may be just the prefix
/// before it) into `out`, which already has the output shape. Every element of
/// `out` is overwritten; its prior contents are ignored. Recording and
/// [`Tape::replay`] both run exactly this code, which is what makes a replay
/// bit-identical to a fresh recording.
fn eval_into(op: &Op, parents: Parents, nodes: &[Node], sparse: &[SparseNode], out: &mut Matrix) {
    let arg = |k: usize| &nodes[parents.as_slice()[k]].value;
    match op {
        Op::Leaf => unreachable!("leaves hold their values; they are never evaluated"),
        Op::Add => arg(0).zip_map_into(arg(1), |a, b| a + b, out),
        Op::Sub => arg(0).zip_map_into(arg(1), |a, b| a - b, out),
        Op::Mul => arg(0).zip_map_into(arg(1), |a, b| a * b, out),
        Op::Neg => arg(0).map_into(|x| -x, out),
        Op::AddScalar(s) => arg(0).map_into(|x| x + s, out),
        Op::MulScalar(s) => arg(0).map_into(|x| x * s, out),
        Op::PowScalar(p) => arg(0).map_into(|x| x.powf(*p), out),
        Op::MatMul => arg(0).matmul_into(arg(1), out),
        Op::Spmm { sparse: s } => sparse[*s].matrix.spmm_into(arg(0), out),
        Op::Transpose => arg(0).transpose_into(out),
        Op::Sigmoid => arg(0).map_into(|x| 1.0 / (1.0 + (-x).exp()), out),
        Op::Relu => arg(0).map_into(|x| x.max(0.0), out),
        Op::ReluMask => arg(0).map_into(|x| if x > 0.0 { 1.0 } else { 0.0 }, out),
        Op::Tanh => arg(0).map_into(f64::tanh, out),
        Op::Exp => arg(0).map_into(f64::exp, out),
        Op::Ln => arg(0).map_into(f64::ln, out),
        Op::SumAll => out.as_mut_slice()[0] = arg(0).sum(),
        Op::SumRows => arg(0).row_sums_into(out),
        Op::SumCols => arg(0).col_sums_into(out),
        Op::RowMax => arg(0).row_max_into(out),
        Op::BroadcastScalar { .. } => out.as_mut_slice().fill(arg(0).scalar()),
        Op::ColBroadcast { .. } => arg(0).broadcast_col_into(out),
        Op::RowBroadcast { .. } => arg(0).broadcast_row_into(out),
        Op::GatherRows { indices } => arg(0).gather_rows_into(indices, out),
        Op::ScatterRows { indices, .. } => arg(0).scatter_rows_into(indices, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let tape = Tape::new();
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let v = tape.input(m.clone());
        assert_eq!(v.shape(), (2, 2));
        assert!(tape.value(v).approx_eq(&m, 0.0));
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn eager_values_match_matrix_ops() {
        let tape = Tape::new();
        let a = tape.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = tape.input(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let s = tape.add(a, b);
        let p = tape.matmul(a, b);
        assert!(tape
            .value(s)
            .approx_eq(&Matrix::from_vec(2, 2, vec![6.0, 8.0, 10.0, 12.0]), 1e-12));
        assert!(tape
            .value(p)
            .approx_eq(&Matrix::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]), 1e-12));
    }

    #[test]
    fn sigmoid_range() {
        let tape = Tape::new();
        let a = tape.input(Matrix::from_vec(1, 3, vec![-100.0, 0.0, 100.0]));
        let s = tape.value(tape.sigmoid(a));
        assert!(s[(0, 0)] < 1e-12);
        assert!((s[(0, 1)] - 0.5).abs() < 1e-12);
        assert!((s[(0, 2)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reductions_and_broadcasts() {
        let tape = Tape::new();
        let a = tape.input(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        assert_eq!(tape.value(tape.sum_all(a)).scalar(), 21.0);
        assert!(tape
            .value(tape.sum_rows(a))
            .approx_eq(&Matrix::col_vector(&[6.0, 15.0]), 1e-12));
        assert!(tape
            .value(tape.sum_cols(a))
            .approx_eq(&Matrix::row_vector(&[5.0, 7.0, 9.0]), 1e-12));
        let s = tape.scalar(2.5);
        assert_eq!(tape.value(tape.broadcast_scalar(s, 2, 2)).sum(), 10.0);
        let c = tape.input(Matrix::col_vector(&[1.0, 2.0]));
        assert_eq!(tape.value(tape.col_broadcast(c, 3)).shape(), (2, 3));
        let r = tape.input(Matrix::row_vector(&[1.0, 2.0, 3.0]));
        assert_eq!(tape.value(tape.row_broadcast(r, 2)).shape(), (2, 3));
    }

    #[test]
    fn gather_scatter_ops() {
        let tape = Tape::new();
        let a = tape.input(Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64));
        let g = tape.gather_rows(a, &[3, 1]);
        assert_eq!(tape.value(g).row(0), &[6.0, 7.0]);
        let s = tape.scatter_rows(g, &[3, 1], 4);
        assert_eq!(tape.value(s).row(3), &[6.0, 7.0]);
        assert_eq!(tape.value(s).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn div_matches_manual() {
        let tape = Tape::new();
        let a = tape.input(Matrix::row_vector(&[2.0, 9.0]));
        let b = tape.input(Matrix::row_vector(&[4.0, 3.0]));
        let d = tape.div(a, b);
        assert!(tape.value(d).approx_eq(&Matrix::row_vector(&[0.5, 3.0]), 1e-12));
    }

    #[test]
    fn replay_recomputes_from_overwritten_leaves() {
        let tape = Tape::new();
        let x = tape.input(Matrix::row_vector(&[1.0, -2.0]));
        let y = tape.sum_all(tape.mul(tape.relu(x), x));
        tape.set_value(x, &Matrix::row_vector(&[3.0, 4.0]));
        assert_eq!(tape.value(y).scalar(), 1.0, "set_value alone does not recompute");
        tape.replay();
        assert_eq!(tape.value(y).scalar(), 25.0);
    }

    #[test]
    #[should_panic(expected = "is not a leaf")]
    fn set_value_rejects_computed_nodes() {
        let tape = Tape::new();
        let x = tape.input(Matrix::ones(1, 1));
        let y = tape.neg(x);
        tape.set_value(y, &Matrix::ones(1, 1));
    }

    #[test]
    #[should_panic(expected = "set_value: shape mismatch")]
    fn set_value_rejects_a_new_shape() {
        let tape = Tape::new();
        let x = tape.input(Matrix::ones(1, 2));
        tape.set_value(x, &Matrix::ones(2, 1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let tape = Tape::new();
        let a = tape.input(Matrix::zeros(2, 2));
        let b = tape.input(Matrix::zeros(2, 3));
        let _ = tape.add(a, b);
    }
}
