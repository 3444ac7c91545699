//! # geattack-attack
//!
//! Targeted structure attacks on GCN node classification — the baselines the paper
//! compares GEAttack against (Section 5.1 / Appendix A.4):
//!
//! * [`rna`] — Random attack toward nodes of the target label;
//! * [`fga`] — fast-gradient attack (FGA) and its targeted variant FGA-T;
//! * [`nettack`] — Nettack with the linearized surrogate and the
//!   degree-distribution unnoticeability test;
//! * [`ig`] — IG-Attack based on integrated gradients;
//! * [`fga_te`] — FGA-T&E, which avoids nodes already present in the clean-graph
//!   explanation.
//!
//! All attacks are **direct, addition-only, evasion** attacks: the model is frozen,
//! only edges incident to the target node are inserted, and the budget `Δ` equals
//! the target's degree (configurable). Every attack returns a
//! [`geattack_graph::Perturbation`] so the evaluation pipeline can later ask which
//! edges were adversarial.

use geattack_gnn::Gcn;
use geattack_graph::{Graph, Perturbation};
use geattack_tensor::{grad::grad_full, nn, Matrix, SparseMatrix, Tape};

pub mod fga;
pub mod fga_te;
pub mod ig;
pub mod nettack;
pub mod rna;

pub use fga::{Fga, FgaT};
pub use fga_te::{FgaTE, FgaTEConfig};
pub use ig::{IgAttack, IgConfig};
pub use nettack::{Nettack, NettackConfig};
pub use rna::RandomAttack;

/// Everything a targeted structure attack needs to know.
#[derive(Clone, Copy, Debug)]
pub struct AttackContext<'a> {
    /// The (frozen) victim model.
    pub model: &'a Gcn,
    /// The clean graph.
    pub graph: &'a Graph,
    /// The victim node.
    pub target: usize,
    /// The specific incorrect label the attacker wants the model to predict.
    pub target_label: usize,
    /// Maximum number of edge insertions `Δ`.
    pub budget: usize,
}

impl<'a> AttackContext<'a> {
    /// Creates a context with the paper's default budget `Δ = degree(target)`
    /// (at least 1).
    pub fn with_degree_budget(model: &'a Gcn, graph: &'a Graph, target: usize, target_label: usize) -> Self {
        let budget = graph.degree(target).max(1);
        Self {
            model,
            graph,
            target,
            target_label,
            budget,
        }
    }
}

/// A targeted structure attack: produce a set of edge insertions that should make
/// the model predict `target_label` for `target`.
pub trait TargetedAttack {
    /// Runs the attack and returns the chosen perturbation (at most `budget` edges).
    fn attack(&self, ctx: &AttackContext<'_>) -> Perturbation;

    /// Name used in result tables.
    fn name(&self) -> &'static str;
}

/// Candidate endpoints for a direct attack on `target`: every node that is not the
/// target itself, not already a neighbor, and not excluded.
pub fn candidate_endpoints(graph: &Graph, target: usize, exclude: &[usize]) -> Vec<usize> {
    (0..graph.num_nodes())
        .filter(|&v| v != target && !graph.has_edge(target, v) && !exclude.contains(&v))
        .collect()
}

/// The adjacency gradient a direct attack actually consumes: the target's row
/// `∂L/∂A[target, ·]` and column `∂L/∂A[·, target]`, nothing else.
///
/// Every attack in this crate (and GEAttack's outer loop) only ever reads the
/// gradient at candidate endpoints of one target node, so materializing the full
/// `n×n` gradient is pure waste. The sparse backward produces exactly these `2n`
/// entries through a candidate-masked SDDMM at `O((nnz + n)·f)` instead of the
/// dense `O(n²·f)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetGradient {
    target: usize,
    /// `∂L/∂A[target, v]` for every `v`.
    row: Vec<f64>,
    /// `∂L/∂A[v, target]` for every `v`.
    col: Vec<f64>,
}

impl TargetGradient {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.row.len()
    }

    /// Symmetrized score of inserting the undirected edge `(target, v)`:
    /// `∂L/∂A[target, v] + ∂L/∂A[v, target]`.
    pub fn undirected(&self, v: usize) -> f64 {
        self.row[v] + self.col[v]
    }

    /// Extracts the target's row and column from a dense gradient matrix (the
    /// test oracle's shape).
    #[cfg(test)]
    pub fn from_dense(grad: &Matrix, target: usize) -> Self {
        let n = grad.rows();
        Self {
            target,
            row: grad.row(target).to_vec(),
            col: (0..n).map(|v| grad[(v, target)]).collect(),
        }
    }

    /// Element-wise sum with another slice of the same target (IG accumulation).
    pub fn accumulated(&self, other: &TargetGradient) -> TargetGradient {
        assert_eq!(self.target, other.target, "cannot accumulate different targets");
        assert_eq!(self.row.len(), other.row.len());
        TargetGradient {
            target: self.target,
            row: self.row.iter().zip(&other.row).map(|(a, b)| a + b).collect(),
            col: self.col.iter().zip(&other.col).map(|(a, b)| a + b).collect(),
        }
    }

    /// Every entry multiplied by `s` (IG averaging).
    pub fn scaled(&self, s: f64) -> TargetGradient {
        TargetGradient {
            target: self.target,
            row: self.row.iter().map(|v| v * s).collect(),
            col: self.col.iter().map(|v| v * s).collect(),
        }
    }

    /// `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.row.iter().chain(&self.col).any(|v| !v.is_finite())
    }
}

/// Dense-oracle gradient of a loss `±log f(A, X)^{class}_{target}` with respect
/// to the **full** raw adjacency matrix, with the GCN normalization inside the
/// tape. The reference the sparse path is tested against; `negate` selects the
/// untargeted `+log p` variant.
#[cfg(test)]
pub fn dense_adjacency_gradient(
    model: &Gcn,
    adjacency: &Matrix,
    features: &Matrix,
    target: usize,
    class: usize,
    negate: bool,
) -> Matrix {
    let tape = Tape::new();
    let a = tape.input(adjacency.clone());
    let x = tape.constant(features.clone());
    let params = model.insert_params_frozen(&tape);
    let log_probs = model.log_probs_from_raw_adj(&tape, a, x, &params);
    let nll = nn::node_class_nll(&tape, log_probs, target, class, model.num_classes());
    let loss = if negate { tape.mul_scalar(nll, -1.0) } else { nll };
    geattack_tensor::grad::grad_values(&tape, loss, &[a]).remove(0)
}

/// Candidate-masked sparse gradient of `±log f(A, X)^{class}_{target}` with
/// respect to the **raw** adjacency, returned as the target's row and column.
///
/// The forward pass runs on the SpMM core over the sparse normalized adjacency
/// `Ã = D^{-1/2}(A + I)D^{-1/2}`; the backward requests `∂L/∂Ã` only at the
/// stored entries plus the target's full row and column (the candidate
/// endpoints), then applies the normalization chain rule in closed form:
///
/// ```text
/// ∂L/∂a_pq = G̃_pq·s_p·s_q − (r_p + c_p) / (2·d_p)
/// r_p = Σ_j G̃_pj·ã_pj ,  c_p = Σ_i G̃_ip·ã_ip ,  s_p = d_p^{-1/2}
/// ```
///
/// where `G̃ = ∂L/∂Ã` and the `r`/`c` sums run over stored entries only (`ã` is
/// zero elsewhere). This accounts exactly for the degree renormalization an edge
/// insertion causes — the same quantity the dense tape computes by
/// differentiating through `gcn_normalize` — at `O((nnz + n)·f)` cost.
///
/// The adjacency-independent feature projection `X·W₁` is supplied by the
/// caller — greedy attacks recompute the gradient after every edge insertion,
/// and the projection never changes (see [`LossGradients`]).
pub fn sparse_adjacency_gradient_projected(
    model: &Gcn,
    raw: &SparseMatrix,
    xw1_value: &Matrix,
    target: usize,
    class: usize,
    negate: bool,
) -> TargetGradient {
    let n = raw.rows();
    let norm = geattack_graph::normalize_sparse(raw);

    // Gradient positions: every stored entry of Ã (row-major, needed by the
    // r/c sums), then the unstored entries of the target's row and column (the
    // candidate endpoints).
    let mut positions = norm.matrix.stored_positions();
    let nnz = positions.len();
    let target_row_stored: Vec<bool> = {
        let mut stored = vec![false; n];
        for &j in norm.matrix.row_indices(target) {
            stored[j] = true;
        }
        stored
    };
    for (v, &stored) in target_row_stored.iter().enumerate() {
        if !stored {
            positions.push((target, v));
            positions.push((v, target));
        }
    }

    let tape = Tape::new();
    let a = tape.sparse_input(norm.matrix.clone(), positions.clone());
    let xw1 = tape.constant(xw1_value.clone());
    let params = model.insert_params_frozen(&tape);
    let log_probs = model.log_probs_sparse_projected(&tape, a, xw1, &params);
    let nll = nn::node_class_nll(&tape, log_probs, target, class, model.num_classes());
    let loss = if negate { tape.mul_scalar(nll, -1.0) } else { nll };
    let (_, mut sparse_grads) = grad_full(&tape, loss, &[], &[a]);
    let gt = sparse_grads.pop().expect("one sparse operand was requested");

    // r_p / c_p over the stored entries (the first `nnz` positions, in the same
    // row-major order the CSR iterates).
    let mut r = vec![0.0; n];
    let mut c = vec![0.0; n];
    let mut idx = 0;
    for (i, r_i) in r.iter_mut().enumerate() {
        for (&j, &v) in norm.matrix.row_indices(i).iter().zip(norm.matrix.row_values(i)) {
            let g = gt[idx];
            idx += 1;
            *r_i += g * v;
            c[j] += g * v;
        }
    }
    debug_assert_eq!(idx, nnz);

    // G̃ on the target's full row and column (stored values from the first
    // block, candidate values from the tail).
    let mut row_gt = vec![0.0; n];
    let mut col_gt = vec![0.0; n];
    for (k, &(i, j)) in positions.iter().enumerate() {
        if i == target {
            row_gt[j] = gt[k];
        }
        if j == target {
            col_gt[i] = gt[k];
        }
    }

    let s = &norm.inv_sqrt;
    let d = &norm.degrees;
    let target_term = (r[target] + c[target]) / (2.0 * d[target]);
    let mut row = vec![0.0; n];
    let mut col = vec![0.0; n];
    for v in 0..n {
        if v == target {
            continue;
        }
        row[v] = row_gt[v] * s[target] * s[v] - target_term;
        col[v] = col_gt[v] * s[v] * s[target] - (r[v] + c[v]) / (2.0 * d[v]);
    }
    TargetGradient { target, row, col }
}

/// Re-usable state for repeated adjacency-gradient calls against one frozen
/// model and one graph's features.
///
/// A greedy attack recomputes the loss gradient after every edge insertion, but
/// the feature projection `X·W₁` is independent of the adjacency — computing it
/// once here (as a CSR product, [`Graph::project`]) and reusing it removes an
/// `nnz(X)·h` product per gradient call.
pub struct LossGradients<'a> {
    model: &'a Gcn,
    xw1: Matrix,
}

impl<'a> LossGradients<'a> {
    /// Prepares the reusable state (one `X·W₁` projection of `graph`'s
    /// features; edge insertions never change it).
    pub fn new(model: &'a Gcn, graph: &Graph) -> Self {
        Self {
            model,
            xw1: graph.project(&model.params().w1),
        }
    }

    /// Gradient of `±log f(A, X)^{class}_{target}` for an arbitrary weighted raw
    /// adjacency, through the candidate-masked sparse backward.
    pub fn at_raw(&self, raw: &SparseMatrix, target: usize, class: usize, negate: bool) -> TargetGradient {
        sparse_adjacency_gradient_projected(self.model, raw, &self.xw1, target, class, negate)
    }

    /// Gradient of the targeted attack loss `L_GNN = -log f(A, X)^{ŷ}_{target}`
    /// (Eq. 4) at `graph`'s candidate endpoints. The loss is minimized by edge
    /// insertions, so the most negative entries are the most attractive.
    pub fn targeted(&self, graph: &Graph, target: usize, target_label: usize) -> TargetGradient {
        self.at_raw(&graph.csr().to_sparse(), target, target_label, false)
    }

    /// Gradient of the untargeted attack loss `+log f(A, X)^{y_true}_{target}`
    /// at `graph`'s candidate endpoints; again the most negative entries are
    /// the most attractive.
    pub fn untargeted(&self, graph: &Graph, target: usize) -> TargetGradient {
        self.at_raw(&graph.csr().to_sparse(), target, graph.label(target), true)
    }
}

/// Picks the candidate with the minimum symmetrized gradient entry (the edge whose
/// insertion most decreases the loss). Returns `None` if `candidates` is empty.
pub fn best_candidate_by_gradient(grad: &TargetGradient, candidates: &[usize]) -> Option<usize> {
    candidates.iter().copied().min_by(|&a, &b| {
        grad.undirected(a)
            .partial_cmp(&grad.undirected(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_gnn::{train, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName, GeneratorConfig};
    use geattack_graph::stratified_split;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    pub(crate) fn small_setup(seed: u64) -> (Graph, Gcn) {
        let cfg = GeneratorConfig::at_scale(0.06, seed);
        let graph = load(DatasetName::Cora, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 80,
                patience: None,
                seed,
                ..Default::default()
            },
        );
        (graph, trained.model)
    }

    /// Picks a victim that the clean model classifies correctly, plus a target
    /// label different from the truth.
    pub(crate) fn pick_victim(graph: &Graph, model: &Gcn) -> (usize, usize) {
        let preds = model.predict_labels(graph);
        let victim = (0..graph.num_nodes())
            .find(|&i| preds[i] == graph.label(i) && graph.degree(i) >= 2)
            .expect("no correctly classified node found");
        let target_label = (graph.label(victim) + 1) % graph.num_classes();
        (victim, target_label)
    }

    #[test]
    fn candidate_endpoints_exclude_neighbors_and_self() {
        let (graph, _) = small_setup(1);
        let target = 0;
        let cands = candidate_endpoints(&graph, target, &[]);
        assert!(!cands.contains(&target));
        for &v in graph.neighbors(target) {
            assert!(!cands.contains(&v));
        }
        let excluded = cands[0];
        let cands2 = candidate_endpoints(&graph, target, &[excluded]);
        assert!(!cands2.contains(&excluded));
        assert_eq!(cands2.len(), cands.len() - 1);
    }

    #[test]
    fn targeted_gradient_identifies_helpful_edges() {
        let (graph, model) = small_setup(2);
        let (victim, target_label) = pick_victim(&graph, &model);
        let grad = LossGradients::new(&model, &graph).targeted(&graph, victim, target_label);
        let cands = candidate_endpoints(&graph, victim, &[]);
        let best = best_candidate_by_gradient(&grad, &cands).unwrap();
        // The chosen edge must have a negative score (it decreases the targeted loss)...
        assert!(grad.undirected(best) < 0.0);
        // ...and actually increase the probability of the target label when added.
        let before = model.predict_proba(&graph)[(victim, target_label)];
        let mut attacked = graph.clone();
        attacked.add_edge(victim, best);
        let after = model.predict_proba(&attacked)[(victim, target_label)];
        assert!(
            after > before,
            "best gradient edge did not raise target-label probability ({before} -> {after})"
        );
    }

    #[test]
    fn sparse_gradient_matches_dense_oracle() {
        // The candidate-masked sparse gradient must agree with the full dense
        // tape (which differentiates through gcn_normalize) on every candidate
        // endpoint, for both the targeted and untargeted losses.
        let (graph, model) = small_setup(5);
        let (victim, target_label) = pick_victim(&graph, &model);

        let features = graph.features().to_dense();
        let sparse = LossGradients::new(&model, &graph).targeted(&graph, victim, target_label);
        let grad = dense_adjacency_gradient(&model, &graph.to_dense(), &features, victim, target_label, false);
        let max_abs = (0..graph.num_nodes())
            .map(|v| grad[(victim, v)].abs())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let dense = TargetGradient::from_dense(&grad, victim);
        for v in 0..graph.num_nodes() {
            if v == victim {
                continue;
            }
            let expected = dense.undirected(v);
            let got = sparse.undirected(v);
            assert!(
                (got - expected).abs() < 1e-8 * (1.0 + max_abs),
                "targeted gradient mismatch at {v}: {got} vs {expected}"
            );
        }

        let sparse = LossGradients::new(&model, &graph).untargeted(&graph, victim);
        let dense = dense_adjacency_gradient(&model, &graph.to_dense(), &features, victim, graph.label(victim), true);
        for v in 0..graph.num_nodes() {
            if v == victim {
                continue;
            }
            let expected = dense[(victim, v)] + dense[(v, victim)];
            assert!(
                (sparse.undirected(v) - expected).abs() < 1e-8,
                "untargeted gradient mismatch at {v}"
            );
        }
    }

    #[test]
    fn sparse_gradient_matches_finite_differences() {
        // Directly pin the masked sparse gradient against central differences of
        // the loss under symmetric edge-weight nudges — the same check gcn.rs
        // runs for the dense adjacency gradient.
        let (graph, model) = small_setup(6);
        let (victim, target_label) = pick_victim(&graph, &model);
        let sparse = LossGradients::new(&model, &graph).targeted(&graph, victim, target_label);

        let loss_at = |adj: &Matrix| -> f64 {
            let tape = Tape::new();
            let a = tape.input(adj.clone());
            let x = tape.constant(graph.features().to_dense());
            let params = model.insert_params_frozen(&tape);
            let lp = model.log_probs_from_raw_adj(&tape, a, x, &params);
            tape.value(nn::node_class_nll(&tape, lp, victim, target_label, model.num_classes()))
                .scalar()
        };

        let eps = 1e-5;
        let dense_adj = graph.to_dense();
        let candidates: Vec<usize> = candidate_endpoints(&graph, victim, &[]).into_iter().take(4).collect();
        for &v in &candidates {
            // Symmetric nudge: the undirected score is the sum of the two
            // directed entries, matching d/dα L(A + α(e_tv + e_vt)).
            let mut plus = dense_adj.clone();
            plus[(victim, v)] += eps;
            plus[(v, victim)] += eps;
            let mut minus = dense_adj.clone();
            minus[(victim, v)] -= eps;
            minus[(v, victim)] -= eps;
            let numeric = (loss_at(&plus) - loss_at(&minus)) / (2.0 * eps);
            assert!(
                (sparse.undirected(v) - numeric).abs() < 1e-5,
                "finite-difference mismatch at candidate {v}: {} vs {numeric}",
                sparse.undirected(v)
            );
        }
    }

    #[test]
    fn untargeted_gradient_nonzero_on_candidates() {
        let (graph, model) = small_setup(3);
        let (victim, _) = pick_victim(&graph, &model);
        let grad = LossGradients::new(&model, &graph).untargeted(&graph, victim);
        let cands = candidate_endpoints(&graph, victim, &[]);
        let any_nonzero = cands.iter().any(|&v| grad.undirected(v).abs() > 1e-12);
        assert!(any_nonzero, "untargeted gradient is identically zero on candidates");
    }

    #[test]
    fn degree_budget_context() {
        let (graph, model) = small_setup(4);
        let ctx = AttackContext::with_degree_budget(&model, &graph, 0, 1);
        assert_eq!(ctx.budget, graph.degree(0).max(1));
        assert_eq!(ctx.target, 0);
    }
}
