//! The masked two-layer GCN shared by both explainers and both joint attacks.
//!
//! GNNExplainer, PGExplainer, GEAttack and PG-GEAttack all evaluate the GCN on
//! a target's computation subgraph with one weight per **directed adjacency
//! slot** instead of a binary adjacency: an explainer gate, an attacker's
//! differentiable adjacency value, or a product of both. [`EdgeSlots`] fixes
//! the slot layout — the subgraph CSR in row-major order, optionally with
//! zero-valued candidate slots for pairs that are not (yet) edges — and
//! [`Gcn::masked_log_probs`] / [`Gcn::masked_hidden`] run the forward pass on
//! an `nnz×1` slot-weight variable:
//!
//! ```text
//! deg_i = 1 + Σ_{e ∈ row i} w_e ,  s = deg^{-1/2}
//! (Ã_w · X)_i = s_i² X_i + Σ_{e=(i,j) ∈ row i} w_e s_i s_j X_j
//! ```
//!
//! which is `D^{-1/2}(A_w + I)D^{-1/2} · X` for the dense weighted adjacency
//! `A_w` that holds `w_e` at slot `e` and zero elsewhere, at `O(nnz·f)` cost
//! and without a `k×k` matrix. Every op is an ordinary tape op, so gradients
//! with respect to the weights can be differentiated again (GEAttack's double
//! backward through the explainer's inner steps).

use geattack_graph::ComputationSubgraph;
use geattack_tensor::{nn, Matrix, SparseMatrix, Tape, Var};

use crate::gcn::{Gcn, GcnParamVars};

/// Directed adjacency slots of a computation subgraph.
///
/// Slots are listed row by row, and within a row by ascending column, so slot
/// order is the row-major order of the local adjacency pattern. The pattern is
/// the subgraph's edges plus, optionally, zero-valued extra pairs: the
/// candidate edges an attacker wants gradients for.
#[derive(Clone, Debug)]
pub struct EdgeSlots {
    num_nodes: usize,
    /// Slots of row `i` are `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    row_idx: Vec<usize>,
    col_idx: Vec<usize>,
    rev: Vec<usize>,
    pair: Vec<usize>,
    values: Matrix,
    /// `k × nnz` 0/1 matrix with `R[i,e] = 1` iff slot `e` lies in row `i`.
    incidence: SparseMatrix,
}

impl EdgeSlots {
    /// The slots of the subgraph's edges (`2|E_sub|` of them), all valued 1.
    pub fn new(sub: &ComputationSubgraph) -> Self {
        Self::with_extra_pairs(sub, &[])
    }

    /// The subgraph's edge slots plus the two directed slots `(u,v)` and
    /// `(v,u)` of every extra local pair, valued 0.
    ///
    /// # Panics
    /// Panics if an extra pair is a self loop or already an edge.
    pub fn with_extra_pairs(sub: &ComputationSubgraph, extra: &[(usize, usize)]) -> Self {
        let k = sub.num_nodes();
        let mut rows: Vec<Vec<(usize, f64)>> = (0..k)
            .map(|i| sub.csr.neighbors(i).iter().map(|&j| (j, 1.0)).collect())
            .collect();
        for &(u, v) in extra {
            assert!(
                u != v && !sub.csr.has_edge(u, v),
                "extra slot ({u},{v}) must be a non-edge"
            );
            rows[u].push((v, 0.0));
            rows[v].push((u, 0.0));
        }
        let mut offsets = vec![0usize; k + 1];
        let (mut row_idx, mut col_idx, mut values) = (Vec::new(), Vec::new(), Vec::new());
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_by_key(|&(j, _)| j);
            row.dedup_by_key(|&mut (j, _)| j);
            offsets[i + 1] = offsets[i] + row.len();
            for &(j, value) in row.iter() {
                row_idx.push(i);
                col_idx.push(j);
                values.push(value);
            }
        }
        let slot_in = |i: usize, j: usize| {
            let p = col_idx[offsets[i]..offsets[i + 1]]
                .binary_search(&j)
                .expect("slot pattern must be symmetric");
            offsets[i] + p
        };
        let rev: Vec<usize> = row_idx.iter().zip(&col_idx).map(|(&i, &j)| slot_in(j, i)).collect();
        // Row-major order visits (i,j) with i < j before its reverse (j,i), so
        // every reverse slot is numbered by the time it is reached.
        let (mut pair, mut pairs) = (vec![0usize; row_idx.len()], 0usize);
        for e in 0..row_idx.len() {
            pair[e] = if row_idx[e] < col_idx[e] { pairs } else { pair[rev[e]] };
            pairs += usize::from(row_idx[e] < col_idx[e]);
        }
        let incidence_rows: Vec<Vec<(usize, f64)>> = (0..k)
            .map(|i| (offsets[i]..offsets[i + 1]).map(|e| (e, 1.0)).collect())
            .collect();
        let nnz = row_idx.len();
        Self {
            num_nodes: k,
            offsets,
            row_idx,
            col_idx,
            rev,
            pair,
            values: Matrix::from_vec(nnz, 1, values),
            incidence: SparseMatrix::from_rows(k, nnz, &incidence_rows),
        }
    }

    /// Number of subgraph nodes `k`.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed slots.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Row (source node) of slot `e`.
    pub fn row(&self, e: usize) -> usize {
        self.row_idx[e]
    }

    /// Column (destination node) of slot `e`.
    pub fn col(&self, e: usize) -> usize {
        self.col_idx[e]
    }

    /// `rev()[e]` is the slot of `(j,i)` for slot `e = (i,j)`.
    pub fn rev(&self) -> &[usize] {
        &self.rev
    }

    /// `pair()[e]` is the index of slot `e`'s undirected pair among the slots
    /// `(i,j)` with `i < j`, numbered in slot order.
    pub fn pair(&self) -> &[usize] {
        &self.pair
    }

    /// The slot of `(i,j)`, if the pattern holds it.
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let start = self.offsets[i];
        self.col_idx[start..self.offsets[i + 1]]
            .binary_search(&j)
            .ok()
            .map(|p| start + p)
    }

    /// The adjacency value of every slot (`nnz×1`): 1 on edges, 0 on extra
    /// candidate slots.
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// `g[slot(i,j)] + g[slot(j,i)]` for a per-slot column `g` (`nnz×1`): the
    /// undirected entry of a gradient with respect to the slot values.
    ///
    /// # Panics
    /// Panics if `(i,j)` is not a slot.
    pub fn undirected(&self, g: &Matrix, i: usize, j: usize) -> f64 {
        let slot = |i, j| self.slot(i, j).expect("undirected entry of a non-slot");
        g[(slot(i, j), 0)] + g[(slot(j, i), 0)]
    }

    /// `(m_e + m_{rev(e)}) / 2` for an `nnz×1` per-slot variable `m`.
    pub fn symmetrize(&self, tape: &Tape, m: Var) -> Var {
        tape.mul_scalar(tape.add(m, tape.gather_rows(m, &self.rev)), 0.5)
    }
}

/// `X ↦ Ã_w · X` for the slot weights `weights`, with the normalization
/// computed once for both GCN layers: the masked degrees are the self loop
/// plus the row sums of the weights, slot `e = (i,j)` is normalized to
/// `w_e · s_i · s_j`, and the product is a gather-scale-scatter over the slots
/// plus the self-loop term.
fn propagation<'a>(tape: &'a Tape, slots: &'a EdgeSlots, weights: Var) -> impl Fn(Var) -> Var + 'a {
    assert_eq!(weights.shape(), (slots.nnz(), 1), "one weight per slot");
    let incidence = tape.sparse_constant(slots.incidence.clone());
    let deg = tape.add_scalar(tape.spmm(incidence, weights), 1.0);
    let s = tape.pow_scalar(deg, -0.5);
    let self_loop = tape.mul(s, s);
    let edge_vals = tape.mul(
        tape.mul(weights, tape.gather_rows(s, &slots.row_idx)),
        tape.gather_rows(s, &slots.col_idx),
    );
    move |x: Var| {
        let cols = x.cols();
        let gathered = tape.gather_rows(x, &slots.col_idx);
        let weighted = tape.mul(tape.col_broadcast(edge_vals, cols), gathered);
        tape.add(
            tape.spmm(incidence, weighted),
            tape.mul(tape.col_broadcast(self_loop, cols), x),
        )
    }
}

impl Gcn {
    /// First-layer embeddings `σ(Ã_w X W₁ + b₁)` (`k × hidden`) under the slot
    /// weights `weights` (`nnz×1`). `xw1` is the subgraph's projection `X·W₁`,
    /// which depends on neither the weights nor the adjacency, so loops compute
    /// it once.
    pub fn masked_hidden(&self, tape: &Tape, slots: &EdgeSlots, weights: Var, xw1: Var, params: &GcnParamVars) -> Var {
        let prop = propagation(tape, slots, weights);
        tape.relu(tape.add(prop(xw1), tape.row_broadcast(params.b1, slots.num_nodes())))
    }

    /// Log-probabilities (`k × C`) of the GCN under the slot weights `weights`
    /// (`nnz×1`); `xw1` as in [`Gcn::masked_hidden`].
    pub fn masked_log_probs(
        &self,
        tape: &Tape,
        slots: &EdgeSlots,
        weights: Var,
        xw1: Var,
        params: &GcnParamVars,
    ) -> Var {
        let k = slots.num_nodes();
        let prop = propagation(tape, slots, weights);
        let h = tape.relu(tape.add(prop(xw1), tape.row_broadcast(params.b1, k)));
        let logits = tape.add(prop(tape.matmul(h, params.w2)), tape.row_broadcast(params.b2, k));
        nn::log_softmax_rows(tape, logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_graph::{computation_subgraph, Graph};

    /// Path 0-1-2-3 plus the isolated node 4.
    fn path_with_isolated_node() -> Graph {
        let edges = [(0, 1), (1, 2), (2, 3)];
        Graph::from_edges(5, &edges, Matrix::zeros(5, 1), vec![0; 5], 1)
    }

    #[test]
    fn slots_are_row_major_with_candidate_pairs_merged_in() {
        let graph = path_with_isolated_node();
        let sub = computation_subgraph(&graph, 1, 2, &[4]);
        assert_eq!(sub.nodes, vec![0, 1, 2, 3, 4]);
        let slots = EdgeSlots::with_extra_pairs(&sub, &[(1, 4)]);
        let listed: Vec<(usize, usize)> = (0..slots.nnz()).map(|e| (slots.row(e), slots.col(e))).collect();
        assert_eq!(
            listed,
            vec![(0, 1), (1, 0), (1, 2), (1, 4), (2, 1), (2, 3), (3, 2), (4, 1)]
        );
        assert_eq!(slots.values().as_slice(), &[1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0]);
        for e in 0..slots.nnz() {
            let r = slots.rev()[e];
            assert_eq!((slots.row(r), slots.col(r)), (slots.col(e), slots.row(e)));
            assert_eq!(slots.pair()[e], slots.pair()[r]);
            assert_eq!(slots.slot(slots.row(e), slots.col(e)), Some(e));
        }
        assert_eq!(slots.pair(), &[0, 0, 1, 2, 1, 3, 3, 2]);
        assert_eq!(slots.slot(0, 2), None);
        assert_eq!(EdgeSlots::new(&sub).nnz(), 6);
    }
}
