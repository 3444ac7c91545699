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

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_gnn::{EdgeSlots, Gcn, GcnParamVars};
use geattack_graph::{computation_subgraph, Graph};
use geattack_tensor::{grad::grad_values, init, nn, Adam, Optimizer, Tape, Var};

use crate::explainer::{Explainer, Explanation};

/// Hyper-parameters of the GNNExplainer mask optimization (defaults follow the
/// reference implementation the paper uses).
#[derive(Clone, Debug)]
pub struct GnnExplainerConfig {
    /// Number of mask-optimization epochs.
    pub epochs: usize,
    /// Adam learning rate for the mask.
    pub lr: f64,
    /// Computation-subgraph radius; 2 for the paper's two-layer GCN.
    pub hops: usize,
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
            hops: 2,
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
    fn explain(&self, model: &Gcn, graph: &Graph, target: usize) -> Explanation {
        let explained_class = model.predict_proba(graph).argmax_row(target);
        self.explain_class(model, graph, target, explained_class)
    }

    fn explain_class(&self, model: &Gcn, graph: &Graph, target: usize, explained_class: usize) -> Explanation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "explain.gnnexplainer");
        let sub = computation_subgraph(graph, target, self.config.hops, &[]);
        let slots = EdgeSlots::new(&sub);
        if slots.nnz() == 0 {
            return Explanation::from_edge_weights(target, explained_class, Vec::new());
        }

        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed.wrapping_add(target as u64));
        let mut mask = init::normal(slots.nnz(), 1, 0.0, self.config.mask_init_std, &mut rng);
        let mut optimizer = Adam::new(self.config.lr);
        // X·W₁ depends on the mask no more than the slot values do, so both
        // feed every epoch's tape as constants.
        let xw1_value = graph.project_rows(&sub.nodes, &model.params().w1);

        for _ in 0..self.config.epochs {
            let tape = Tape::new();
            let xw1 = tape.constant(xw1_value.clone());
            let a = tape.constant(slots.values().clone());
            let params = model.insert_params_frozen(&tape);
            let m = tape.input(mask.clone());
            let loss = self.loss(
                &tape,
                model,
                &slots,
                a,
                xw1,
                &params,
                m,
                sub.target_local,
                explained_class,
            );
            let grads = grad_values(&tape, loss, &[m]);
            let mut mask_params = vec![mask];
            optimizer.step(&mut mask_params, &grads);
            mask = mask_params.pop().unwrap();
        }

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

    fn name(&self) -> &'static str {
        "GNNExplainer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_gnn::{train, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName, GeneratorConfig};
    use geattack_graph::stratified_split;

    fn small_setup() -> (Graph, Gcn) {
        let cfg = GeneratorConfig::at_scale(0.06, 21);
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
