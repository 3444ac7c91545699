//! GNNExplainer (Ying et al., NeurIPS 2019), structure-mask variant.
//!
//! For a target node, GNNExplainer learns a soft mask `M_A` over the edges of
//! the node's computation subgraph by minimizing
//! `L = -log f(A ⊙ σ(M_A), X)^{ŷ}_{v} + α‖σ(M_A) ⊙ A‖₁ + β H(σ(M_A) ⊙ A)`
//! (Eq. 2/3 of the GEAttack paper plus the standard size/entropy regularizers of
//! the reference implementation). Edges with the largest mask values form the
//! explanation subgraph `G_S`.
//!
//! The mask holds one entry per directed adjacency slot of
//! [`EdgeSlots`] (the reference implementations' length-`|E|` `edge_mask`), and
//! the masked forward pass is the shared [`Gcn::masked_log_probs`]. A mask
//! entry off the adjacency would get zero gradient, so this optimizes the same
//! variables as a dense `k×k` mask at `O(|E_sub|·d)` per epoch.
//!
//! Only the mask changes between epochs, so the loss and its gradient are
//! recorded on one tape and replayed at each updated mask
//! ([`geattack_tensor::Tape::replay`]); a test pins the result bit for bit to
//! the fresh-tape-per-epoch loop.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_gnn::{BatchedForward, EdgeSlots, Gcn, GcnParamVars, RECEPTIVE_FIELD_HOPS};
use geattack_graph::{computation_subgraph, Graph};
use geattack_tensor::{grad::grad, init, nn, Adam, Matrix, Optimizer, Tape, Var};

use crate::explainer::{Explainer, Explanation};

/// Hyper-parameters of the GNNExplainer mask optimization (defaults follow the
/// reference implementation the paper uses).
#[derive(Clone, Debug)]
pub struct GnnExplainerConfig {
    /// Number of mask-optimization epochs.
    pub epochs: usize,
    /// Adam learning rate for the mask.
    pub lr: f64,
    /// Coefficient of the mask-size (L1) regularizer.
    pub size_coeff: f64,
    /// Coefficient of the mask-entropy regularizer.
    pub entropy_coeff: f64,
    /// Standard deviation of the random mask initialization.
    pub mask_init_std: f64,
    /// RNG seed for mask initialization.
    pub seed: u64,
}

impl Default for GnnExplainerConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            lr: 0.01,
            size_coeff: 0.005,
            entropy_coeff: 1.0,
            mask_init_std: 0.1,
            seed: 0,
        }
    }
}

/// The GNNExplainer method.
#[derive(Clone, Debug, Default)]
pub struct GnnExplainer {
    /// Optimization hyper-parameters.
    pub config: GnnExplainerConfig,
}

impl GnnExplainer {
    /// Creates an explainer with the given configuration.
    pub fn new(config: GnnExplainerConfig) -> Self {
        Self { config }
    }

    /// The explainer objective `L_Explainer` of Eq. (2)/(3) over a per-slot mask
    /// `m` (`nnz×1`): negative log-likelihood of the explained class under the
    /// gates `a ⊙ σ((m_e + m_{rev(e)})/2)`, plus size and entropy regularizers
    /// of `σ(m)` weighted by `a` — the slot form of the dense `σ(M) ⊙ A`.
    ///
    /// `a` holds the slot values ([`EdgeSlots::values`]); GEAttack records it as
    /// a tape input to differentiate the loss with respect to the adjacency.
    /// `xw1` is the subgraph's feature projection `X·W₁` and `params` the frozen
    /// model parameters, both shared across epochs and inner steps.
    #[allow(clippy::too_many_arguments)]
    pub fn loss(
        &self,
        tape: &Tape,
        model: &Gcn,
        slots: &EdgeSlots,
        a: Var,
        xw1: Var,
        params: &GcnParamVars,
        m: Var,
        target_local: usize,
        explained_class: usize,
    ) -> Var {
        let gates = tape.mul(a, tape.sigmoid(slots.symmetrize(tape, m)));
        let log_probs = model.masked_log_probs(tape, slots, gates, xw1, params);
        let nll = nn::node_class_nll(tape, log_probs, target_local, explained_class, model.num_classes());

        // Regularizers count only the slots that are edges (a = 1).
        let gate = tape.sigmoid(m);
        let size_reg = tape.mul_scalar(tape.sum_all(tape.mul(gate, a)), self.config.size_coeff);

        let ent = nn::binary_entropy(tape, gate);
        let denom = tape.value_ref(a).sum().max(1.0);
        let ent_reg = tape.mul_scalar(tape.sum_all(tape.mul(ent, a)), self.config.entropy_coeff / denom);

        tape.add(tape.add(nll, size_reg), ent_reg)
    }
}

impl Explainer for GnnExplainer {
    fn explain_class_with_forward(
        &self,
        model: &Gcn,
        graph: &Graph,
        target: usize,
        explained_class: usize,
        _forward: &BatchedForward,
    ) -> Explanation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "explain.gnnexplainer");
        self.explain_with(model, graph, target, explained_class, Self::optimize_mask)
    }
}

/// One explanation's mask-optimization problem: everything but the mask is
/// fixed across epochs.
struct MaskProblem<'a> {
    model: &'a Gcn,
    slots: EdgeSlots,
    /// The subgraph's feature projection `X·W₁`.
    xw1: Matrix,
    target_local: usize,
    explained_class: usize,
}

impl GnnExplainer {
    /// Builds the target's mask problem, runs `optimize` from the seeded
    /// initial mask and ranks the subgraph's edges by the optimized mask.
    fn explain_with(
        &self,
        model: &Gcn,
        graph: &Graph,
        target: usize,
        explained_class: usize,
        optimize: impl FnOnce(&Self, &MaskProblem, Matrix) -> Matrix,
    ) -> Explanation {
        let sub = computation_subgraph(graph, target, RECEPTIVE_FIELD_HOPS, &[]);
        let slots = EdgeSlots::new(&sub);
        if slots.nnz() == 0 {
            return Explanation::from_edge_weights(target, explained_class, Vec::new());
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed.wrapping_add(target as u64));
        let mask = init::normal(slots.nnz(), 1, 0.0, self.config.mask_init_std, &mut rng);
        let problem = MaskProblem {
            model,
            xw1: graph.project_rows(&sub.nodes, &model.params().w1),
            slots,
            target_local: sub.target_local,
            explained_class,
        };
        let mask = optimize(self, &problem, mask);
        let slots = &problem.slots;

        // The weight of edge (i,j), i < j, is σ((m_ij + m_ji)/2).
        let edges = (0..slots.nnz())
            .filter(|&e| slots.row(e) < slots.col(e))
            .map(|e| {
                let raw = 0.5 * (mask[(e, 0)] + mask[(slots.rev()[e], 0)]);
                let weight = 1.0 / (1.0 + (-raw).exp());
                (sub.to_global(slots.row(e)), sub.to_global(slots.col(e)), weight)
            })
            .collect();
        Explanation::from_edge_weights(target, explained_class, edges)
    }

    /// Records the loss at `mask` on a tape with `grad` w.r.t. the mask,
    /// returning the tape, the mask leaf and its gradient. Only the mask
    /// changes between epochs; the slot values, `X·W₁` and the frozen
    /// parameters are constants.
    fn record_mask_gradient(&self, problem: &MaskProblem, mask: &Matrix) -> (Tape, Var, Var) {
        let tape = Tape::new();
        let xw1 = tape.constant(problem.xw1.clone());
        let a = tape.constant(problem.slots.values().clone());
        let params = problem.model.insert_params_frozen(&tape);
        let m = tape.input(mask.clone());
        let loss = self.loss(
            &tape,
            problem.model,
            &problem.slots,
            a,
            xw1,
            &params,
            m,
            problem.target_local,
            problem.explained_class,
        );
        let dm = grad(&tape, loss, &[m])[0];
        (tape, m, dm)
    }

    /// Runs the configured Adam epochs on the mask. The loss and its gradient
    /// form one fixed-shape program whose only input is the mask, so it is
    /// recorded once and replayed each later epoch at the updated mask.
    fn optimize_mask(&self, problem: &MaskProblem, mut mask: Matrix) -> Matrix {
        if self.config.epochs == 0 {
            return mask;
        }
        let mut optimizer = Adam::new(self.config.lr);
        let (tape, m, dm) = self.record_mask_gradient(problem, &mask);
        for epoch in 0..self.config.epochs {
            if epoch > 0 {
                tape.set_value(m, &mask);
                tape.replay();
            }
            optimizer.step(
                std::slice::from_mut(&mut mask),
                std::slice::from_ref(&*tape.value_ref(dm)),
            );
        }
        mask
    }

    /// [`GnnExplainer::optimize_mask`] with a fresh tape recorded every epoch:
    /// the oracle replay is pinned against.
    #[cfg(test)]
    fn optimize_mask_fresh_tapes(&self, problem: &MaskProblem, mut mask: Matrix) -> Matrix {
        let mut optimizer = Adam::new(self.config.lr);
        for _ in 0..self.config.epochs {
            let (tape, _, dm) = self.record_mask_gradient(problem, &mask);
            optimizer.step(std::slice::from_mut(&mut mask), &[tape.value(dm)]);
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_gnn::{train, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName};
    use geattack_graph::{stratified_split, FamilyConfig};

    fn small_setup() -> (Graph, Gcn) {
        let cfg = FamilyConfig::new(0.06, 21);
        let graph = load(DatasetName::Cora, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 80,
                patience: None,
                ..Default::default()
            },
        );
        (graph, trained.model)
    }

    #[test]
    fn explanation_covers_subgraph_edges() {
        let (graph, model) = small_setup();
        let explainer = GnnExplainer::new(GnnExplainerConfig {
            epochs: 20,
            ..Default::default()
        });
        let target = (0..graph.num_nodes()).max_by_key(|&i| graph.degree(i)).unwrap();
        let explanation = explainer.explain(&model, &graph, target);
        assert!(!explanation.is_empty());
        // Every direct edge of the target is in the 2-hop computation subgraph and
        // therefore must be covered by the explanation.
        for &v in graph.neighbors(target) {
            assert!(
                explanation.rank_of(target, v).is_some(),
                "edge ({target},{v}) missing from explanation"
            );
        }
        // Weights are valid sigmoid outputs.
        for &(_, _, w) in &explanation.ranked_edges {
            assert!((0.0..=1.0).contains(&w));
        }
    }

    #[test]
    fn explanation_is_deterministic_for_seed() {
        let (graph, model) = small_setup();
        let explainer = GnnExplainer::new(GnnExplainerConfig {
            epochs: 10,
            ..Default::default()
        });
        let target = graph.num_nodes() / 2;
        let a = explainer.explain(&model, &graph, target);
        let b = explainer.explain(&model, &graph, target);
        assert_eq!(a.ranked_edges.len(), b.ranked_edges.len());
        for (x, y) in a.ranked_edges.iter().zip(b.ranked_edges.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
            assert!((x.2 - y.2).abs() < 1e-12);
        }
    }

    /// Every field of an explanation, weights as bits.
    fn explanation_bits(e: &Explanation) -> (usize, usize, Vec<(usize, usize, u64)>) {
        let edges = e.ranked_edges.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect();
        (e.target, e.explained_class, edges)
    }

    #[test]
    fn replayed_mask_optimization_is_bit_identical_to_fresh_tapes() {
        let (graph, model) = small_setup();
        let hub = (0..graph.num_nodes()).max_by_key(|&i| graph.degree(i)).unwrap();
        let targets = [hub, graph.num_nodes() / 2];
        for epochs in [0, 1, 40] {
            let explainer = GnnExplainer::new(GnnExplainerConfig {
                epochs,
                ..Default::default()
            });
            for target in targets {
                let class = model.predict_proba(&graph).argmax_row(target);
                let replayed = explainer.explain_with(&model, &graph, target, class, GnnExplainer::optimize_mask);
                let fresh =
                    explainer.explain_with(&model, &graph, target, class, GnnExplainer::optimize_mask_fresh_tapes);
                assert_eq!(
                    explanation_bits(&replayed),
                    explanation_bits(&fresh),
                    "epochs={epochs} target={target}"
                );
                assert_eq!(
                    explanation_bits(&explainer.explain(&model, &graph, target)),
                    explanation_bits(&replayed)
                );
            }
        }
    }

    #[test]
    fn replay_matches_fresh_tapes_on_an_edgeless_subgraph() {
        // A node without edges has an empty slot set (nnz = 0): no mask to
        // optimize, and both paths return the same empty explanation.
        let (graph, model) = small_setup();
        let mut edges = Vec::new();
        for u in 0..graph.num_nodes() {
            for &v in graph.neighbors(u) {
                if u < v && u != 0 && v != 0 {
                    edges.push((u, v));
                }
            }
        }
        let cut = Graph::from_edges(
            graph.num_nodes(),
            &edges,
            graph.features().to_dense(),
            graph.labels().to_vec(),
            graph.num_classes(),
        );
        let explainer = GnnExplainer::new(GnnExplainerConfig {
            epochs: 40,
            ..Default::default()
        });
        let replayed = explainer.explain_with(&model, &cut, 0, 1, GnnExplainer::optimize_mask);
        let fresh = explainer.explain_with(&model, &cut, 0, 1, GnnExplainer::optimize_mask_fresh_tapes);
        assert!(replayed.is_empty());
        assert_eq!(explanation_bits(&replayed), explanation_bits(&fresh));
    }

    #[test]
    fn mask_optimization_separates_edges() {
        // After optimization the mask weights should not all be identical: the
        // explainer must have learned that some edges matter more than others.
        let (graph, model) = small_setup();
        let explainer = GnnExplainer::new(GnnExplainerConfig {
            epochs: 40,
            ..Default::default()
        });
        let target = (0..graph.num_nodes()).max_by_key(|&i| graph.degree(i)).unwrap();
        let explanation = explainer.explain(&model, &graph, target);
        let weights: Vec<f64> = explanation.ranked_edges.iter().map(|&(_, _, w)| w).collect();
        let spread = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - weights.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 1e-3,
            "mask weights did not differentiate edges (spread {spread})"
        );
    }
}
