//! PGExplainer (Luo et al., NeurIPS 2020).
//!
//! PGExplainer trains a small MLP, shared across all nodes, that maps an edge's
//! endpoint embeddings (plus the target node's embedding) to an importance logit.
//! Once trained on a sample of instances it explains any node inductively — no
//! per-node optimization. The training objective is the same mutual-information
//! style loss as GNNExplainer: make the prediction under the masked adjacency match
//! the model's prediction, while keeping the mask sparse.
//!
//! **Deviation from the reference implementation.** Training replaces the
//! concrete-distribution (Gumbel-softmax) reparameterization of the edge gates
//! with the deterministic sigmoid relaxation, so no sampling noise enters the
//! loss and training is reproducible from the seed alone. Explanations rank
//! edges by the same sigmoid scores, and the ranking is all the detection
//! metrics and GEAttack read.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_gnn::{BatchedForward, EdgeSlots, Gcn, RECEPTIVE_FIELD_HOPS};
use geattack_graph::{computation_subgraph, Graph};
use geattack_tensor::{grad::grad_values, init, nn, Adam, Matrix, Optimizer, Tape, Var};

use crate::explainer::{Explainer, Explanation};

/// Hyper-parameters of PGExplainer.
#[derive(Clone, Debug)]
pub struct PgExplainerConfig {
    /// Training epochs over the sampled instances.
    pub epochs: usize,
    /// Adam learning rate for the MLP.
    pub lr: f64,
    /// Hidden width of the edge-scoring MLP.
    pub hidden: usize,
    /// Coefficient of the mask-size regularizer.
    pub size_coeff: f64,
    /// Coefficient of the mask-entropy regularizer.
    pub entropy_coeff: f64,
    /// Number of nodes sampled as training instances.
    pub training_instances: usize,
    /// RNG seed (MLP init and instance sampling).
    pub seed: u64,
}

impl Default for PgExplainerConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            lr: 0.005,
            hidden: 32,
            size_coeff: 0.01,
            entropy_coeff: 0.5,
            training_instances: 20,
            seed: 0,
        }
    }
}

/// Parameters of the edge-scoring MLP.
///
/// The first layer conceptually takes the concatenation `[z_u ; z_v ; z_t]` of the
/// two endpoint embeddings and the target embedding; it is stored as three blocks
/// (`w_src`, `w_dst`, `w_tgt`) so the forward pass is three matmuls and no
/// concatenation op is required.
#[derive(Clone, Debug)]
pub struct PgMlpParams {
    /// Block applied to the source endpoint embedding.
    pub w_src: Matrix,
    /// Block applied to the destination endpoint embedding.
    pub w_dst: Matrix,
    /// Block applied to the explained (target) node embedding.
    pub w_tgt: Matrix,
    /// First-layer bias.
    pub b1: Matrix,
    /// Output layer weights.
    pub w2: Matrix,
    /// Output layer bias.
    pub b2: Matrix,
}

impl PgMlpParams {
    fn init(embedding_dim: usize, hidden: usize, rng: &mut impl rand::Rng) -> Self {
        Self {
            w_src: init::he_normal(embedding_dim, hidden, rng),
            w_dst: init::he_normal(embedding_dim, hidden, rng),
            w_tgt: init::he_normal(embedding_dim, hidden, rng),
            b1: Matrix::zeros(1, hidden),
            w2: init::he_normal(hidden, 1, rng),
            b2: Matrix::zeros(1, 1),
        }
    }

    /// Flat list of the six parameter matrices.
    pub fn to_vec(&self) -> Vec<Matrix> {
        vec![
            self.w_src.clone(),
            self.w_dst.clone(),
            self.w_tgt.clone(),
            self.b1.clone(),
            self.w2.clone(),
            self.b2.clone(),
        ]
    }

    /// Rebuilds the parameters from the list produced by [`PgMlpParams::to_vec`].
    pub fn from_vec(mut v: Vec<Matrix>) -> Self {
        assert_eq!(v.len(), 6, "expected 6 parameter matrices");
        let b2 = v.pop().unwrap();
        let w2 = v.pop().unwrap();
        let b1 = v.pop().unwrap();
        let w_tgt = v.pop().unwrap();
        let w_dst = v.pop().unwrap();
        let w_src = v.pop().unwrap();
        Self {
            w_src,
            w_dst,
            w_tgt,
            b1,
            w2,
            b2,
        }
    }

    /// Records the parameters on `tape` as trainable inputs.
    pub fn insert(&self, tape: &Tape) -> PgMlpVars {
        self.record(|m| tape.input(m))
    }

    fn record(&self, mut leaf: impl FnMut(Matrix) -> Var) -> PgMlpVars {
        PgMlpVars {
            w_src: leaf(self.w_src.clone()),
            w_dst: leaf(self.w_dst.clone()),
            w_tgt: leaf(self.w_tgt.clone()),
            b1: leaf(self.b1.clone()),
            w2: leaf(self.w2.clone()),
            b2: leaf(self.b2.clone()),
        }
    }
}

/// Tape handles to the MLP parameters.
#[derive(Clone, Copy, Debug)]
pub struct PgMlpVars {
    /// Source-endpoint block.
    pub w_src: Var,
    /// Destination-endpoint block.
    pub w_dst: Var,
    /// Target-node block.
    pub w_tgt: Var,
    /// First-layer bias.
    pub b1: Var,
    /// Output weights.
    pub w2: Var,
    /// Output bias.
    pub b2: Var,
}

impl PgMlpVars {
    /// Handles in the order of [`PgMlpParams::to_vec`].
    pub fn to_vec(&self) -> Vec<Var> {
        vec![self.w_src, self.w_dst, self.w_tgt, self.b1, self.w2, self.b2]
    }
}

/// A trained PGExplainer.
#[derive(Clone, Debug)]
pub struct PgExplainer {
    /// Hyper-parameters the explainer was trained with.
    pub config: PgExplainerConfig,
    params: PgMlpParams,
}

impl PgExplainer {
    /// Read access to the trained MLP parameters.
    pub fn params(&self) -> &PgMlpParams {
        &self.params
    }

    /// Reassembles an explainer from a config and already-trained parameters
    /// (the experiment cache restores persisted explainers through this).
    pub fn from_parts(config: PgExplainerConfig, params: PgMlpParams) -> Self {
        Self { config, params }
    }

    /// Records the MLP parameters on a tape as constants.
    pub fn insert_params_frozen(&self, tape: &Tape) -> PgMlpVars {
        self.params.record(|m| tape.constant(m))
    }

    /// Differentiable logits of the local edges `(u, v)`, given endpoint
    /// embeddings `z` (`k x h`, a tape variable so gradients can flow back into
    /// the adjacency when GEAttack needs them).
    pub fn edge_logits(tape: &Tape, z: Var, edges: &[(usize, usize)], target_local: usize, params: &PgMlpVars) -> Var {
        assert!(!edges.is_empty(), "edge_logits requires at least one edge");
        let src: Vec<usize> = edges.iter().map(|&(u, _)| u).collect();
        let dst: Vec<usize> = edges.iter().map(|&(_, v)| v).collect();
        let z_src = tape.gather_rows(z, &src);
        let z_dst = tape.gather_rows(z, &dst);
        let z_tgt = tape.gather_rows(z, &vec![target_local; edges.len()]);
        let pre = tape.add(
            tape.add(tape.matmul(z_src, params.w_src), tape.matmul(z_dst, params.w_dst)),
            tape.matmul(z_tgt, params.w_tgt),
        );
        let pre = tape.add(pre, tape.row_broadcast(params.b1, pre.rows()));
        let hidden = tape.relu(pre);
        let out = tape.matmul(hidden, params.w2);
        tape.add(out, tape.row_broadcast(params.b2, out.rows()))
    }

    /// The PGExplainer training loss for one instance: the explained class's
    /// negative log-likelihood under the MLP's gates — each undirected edge's
    /// gate weighs both of its directed slots — plus size and entropy
    /// regularizers of the gates. `edges` are the subgraph's edges in the
    /// order of [`EdgeSlots::pair`], `z` holds the subgraph nodes' embeddings
    /// and `xw1` the subgraph's epoch-invariant feature projection `X·W₁`.
    #[allow(clippy::too_many_arguments)]
    pub fn instance_loss(
        &self,
        tape: &Tape,
        model: &Gcn,
        slots: &EdgeSlots,
        edges: &[(usize, usize)],
        z: Var,
        xw1: Var,
        target_local: usize,
        explained_class: usize,
        params: &PgMlpVars,
    ) -> Var {
        let logits = Self::edge_logits(tape, z, edges, target_local, params);
        let gates = tape.sigmoid(logits);
        let weights = tape.gather_rows(gates, slots.pair());
        let gcn_params = model.insert_params_frozen(tape);
        let log_probs = model.masked_log_probs(tape, slots, weights, xw1, &gcn_params);
        let nll = nn::node_class_nll(tape, log_probs, target_local, explained_class, model.num_classes());

        let size_reg = tape.mul_scalar(tape.sum_all(gates), self.config.size_coeff);
        let ent = nn::binary_entropy(tape, gates);
        let ent_reg = tape.mul_scalar(tape.mean_all(ent), self.config.entropy_coeff);
        tape.add(tape.add(nll, size_reg), ent_reg)
    }

    /// Trains PGExplainer on instances sampled from `candidate_nodes` (typically
    /// the test split, following the inductive setting of the original paper).
    pub fn train(model: &Gcn, graph: &Graph, candidate_nodes: &[usize], config: PgExplainerConfig) -> Self {
        Self::train_with_forward(
            model,
            graph,
            candidate_nodes,
            config,
            &BatchedForward::new(model, graph),
        )
    }

    /// [`PgExplainer::train`] with the clean full-graph forward already computed
    /// (it supplies both the node embeddings and the predictions the instances
    /// are built from). `forward` must be `BatchedForward::new(model, graph)`;
    /// results are bit-identical to [`PgExplainer::train`].
    pub fn train_with_forward(
        model: &Gcn,
        graph: &Graph,
        candidate_nodes: &[usize],
        config: PgExplainerConfig,
        forward: &BatchedForward,
    ) -> Self {
        assert!(
            !candidate_nodes.is_empty(),
            "PGExplainer needs at least one training instance"
        );
        let _span = geattack_telemetry::span_labeled(
            geattack_telemetry::Level::Phase,
            "pgexplainer.train",
            format!("epochs={}", config.epochs),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut params = PgMlpParams::init(model.hidden(), config.hidden, &mut rng);
        let mut optimizer = Adam::new(config.lr);

        let mut instances = candidate_nodes.to_vec();
        instances.shuffle(&mut rng);
        instances.truncate(config.training_instances.max(1));

        let embeddings = forward.hidden();
        let predictions = forward.probs();
        let explainer = Self {
            config: config.clone(),
            params: params.clone(),
        };

        // Per-instance state that never changes across epochs — the slot
        // layout, the edge list, the gathered embeddings, the explained class
        // and the feature projection X·W₁ — is extracted once instead of being
        // rebuilt `epochs` times (values are identical either way).
        struct InstanceState {
            target_local: usize,
            slots: EdgeSlots,
            edges: Vec<(usize, usize)>,
            z_value: Matrix,
            xw1_value: Matrix,
            explained_class: usize,
        }
        let prepared: Vec<InstanceState> = instances
            .iter()
            .filter_map(|&node| {
                let sub = computation_subgraph(graph, node, RECEPTIVE_FIELD_HOPS, &[]);
                let edges = sub.csr.edges();
                if edges.is_empty() {
                    return None;
                }
                let z_value = embeddings.gather_rows(&sub.nodes);
                let xw1_value = graph.project_rows(&sub.nodes, &model.params().w1);
                Some(InstanceState {
                    target_local: sub.target_local,
                    slots: EdgeSlots::new(&sub),
                    edges,
                    z_value,
                    xw1_value,
                    explained_class: predictions.argmax_row(node),
                })
            })
            .collect();

        for _ in 0..config.epochs {
            for instance in &prepared {
                let tape = Tape::new();
                let z = tape.constant(instance.z_value.clone());
                let xw1 = tape.constant(instance.xw1_value.clone());
                let param_vars = params.insert(&tape);
                let current = Self {
                    config: config.clone(),
                    params: params.clone(),
                };
                let loss = current.instance_loss(
                    &tape,
                    model,
                    &instance.slots,
                    &instance.edges,
                    z,
                    xw1,
                    instance.target_local,
                    instance.explained_class,
                    &param_vars,
                );
                let grads = grad_values(&tape, loss, &param_vars.to_vec());
                let mut flat = params.to_vec();
                optimizer.step(&mut flat, &grads);
                params = PgMlpParams::from_vec(flat);
            }
        }
        Self { params, ..explainer }
    }
}

impl Explainer for PgExplainer {
    /// Scores the target's computation subgraph from the full-graph
    /// first-layer embeddings `forward.hidden()`.
    fn explain_class_with_forward(
        &self,
        _model: &Gcn,
        graph: &Graph,
        target: usize,
        explained_class: usize,
        forward: &BatchedForward,
    ) -> Explanation {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "explain.pgexplainer");
        let sub = computation_subgraph(graph, target, RECEPTIVE_FIELD_HOPS, &[]);
        let edges = sub.csr.edges();
        if edges.is_empty() {
            return Explanation::from_edge_weights(target, explained_class, vec![]);
        }
        let tape = Tape::new();
        let z = tape.constant(forward.hidden().gather_rows(&sub.nodes));
        let params = self.insert_params_frozen(&tape);
        let logits = Self::edge_logits(&tape, z, &edges, sub.target_local, &params);
        let gates = tape.value(tape.sigmoid(logits));

        let weighted = edges
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (sub.to_global(u), sub.to_global(v), gates[(e, 0)]))
            .collect();
        Explanation::from_edge_weights(target, explained_class, weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_gnn::{train, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName};
    use geattack_graph::{stratified_split, FamilyConfig};

    fn small_setup() -> (Graph, Gcn, Vec<usize>) {
        let cfg = FamilyConfig::new(0.06, 31);
        let graph = load(DatasetName::Citeseer, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 60,
                patience: None,
                ..Default::default()
            },
        );
        (graph, trained.model, split.test)
    }

    #[test]
    fn subgraph_edges_incidence_consistency() {
        // Star 0-1, 0-2: the MLP scores the edges in `EdgeSlots::pair` order,
        // so the i-th subgraph edge owns pair index i on both directed slots.
        let adj = Matrix::from_vec(3, 3, vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let graph = Graph::new(adj, Matrix::eye(3), vec![0, 1, 1], 2);
        let sub = computation_subgraph(&graph, 0, 1, &[]);
        let edges = sub.csr.edges();
        assert_eq!(edges, vec![(0, 1), (0, 2)]);
        let slots = EdgeSlots::new(&sub);
        assert_eq!(slots.nnz(), 2 * edges.len());
        for e in 0..slots.nnz() {
            let (u, v) = edges[slots.pair()[e]];
            let (i, j) = (slots.row(e), slots.col(e));
            assert_eq!((i.min(j), i.max(j)), (u, v));
            assert_eq!(slots.rev()[slots.rev()[e]], e);
            assert_eq!(slots.pair()[slots.rev()[e]], slots.pair()[e]);
        }
    }

    #[test]
    fn masked_adjacency_from_gates_places_values_symmetrically() {
        // Each edge's gate weighs both directed slots of that edge, and no
        // slot exists for the non-edge 1-2.
        let adj = Matrix::from_vec(3, 3, vec![0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let graph = Graph::new(adj, Matrix::eye(3), vec![0, 1, 1], 2);
        let sub = computation_subgraph(&graph, 0, 1, &[]);
        let slots = EdgeSlots::new(&sub);
        let tape = Tape::new();
        let gates = tape.constant(Matrix::col_vector(&[0.25, 0.75]));
        let weights = tape.value(tape.gather_rows(gates, slots.pair()));
        for (i, j, w) in [(0, 1, 0.25), (1, 0, 0.25), (0, 2, 0.75), (2, 0, 0.75)] {
            assert_eq!(weights[(slots.slot(i, j).unwrap(), 0)], w);
        }
        assert_eq!(slots.slot(1, 2), None);
    }

    #[test]
    fn trained_pgexplainer_produces_ranked_edges() {
        let (graph, model, test_nodes) = small_setup();
        let config = PgExplainerConfig {
            epochs: 3,
            training_instances: 8,
            ..Default::default()
        };
        let explainer = PgExplainer::train(&model, &graph, &test_nodes, config);
        let target = (0..graph.num_nodes()).max_by_key(|&i| graph.degree(i)).unwrap();
        let explanation = explainer.explain(&model, &graph, target);
        assert!(!explanation.is_empty());
        for &(_, _, w) in &explanation.ranked_edges {
            assert!((0.0..=1.0).contains(&w));
        }
        for &v in graph.neighbors(target) {
            assert!(explanation.rank_of(target, v).is_some());
        }
    }

    #[test]
    fn explanation_is_inductive_and_deterministic() {
        let (graph, model, test_nodes) = small_setup();
        let config = PgExplainerConfig {
            epochs: 2,
            training_instances: 5,
            ..Default::default()
        };
        let explainer = PgExplainer::train(&model, &graph, &test_nodes, config);
        let target = test_nodes[0];
        let a = explainer.explain(&model, &graph, target);
        let b = explainer.explain(&model, &graph, target);
        assert_eq!(a.ranked_edges.len(), b.ranked_edges.len());
        for (x, y) in a.ranked_edges.iter().zip(b.ranked_edges.iter()) {
            assert!((x.2 - y.2).abs() < 1e-12);
        }
    }

    #[test]
    fn training_changes_mlp_parameters() {
        let (graph, model, test_nodes) = small_setup();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let before = PgMlpParams::init(model.hidden(), 32, &mut rng);
        let config = PgExplainerConfig {
            epochs: 2,
            training_instances: 5,
            seed: 0,
            ..Default::default()
        };
        let explainer = PgExplainer::train(&model, &graph, &test_nodes, config);
        let diff = explainer.params().w_src.sub(&before.w_src).frobenius_norm();
        assert!(diff > 1e-9, "training left the MLP untouched");
    }
}
