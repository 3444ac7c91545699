//! The two-layer graph convolutional network used throughout the paper.
//!
//! `f_θ(A, X) = softmax( Ã · σ( Ã X W₁ + b₁ ) W₂ + b₂ )` with
//! `Ã = D^{-1/2}(A + I)D^{-1/2}` (Kipf & Welling, 2017). The forward pass is
//! expressed on a [`Tape`], so attacks can differentiate the output with respect to
//! the adjacency matrix, the explainer's edge mask, or both.

use rand::Rng;

use geattack_graph::Graph;
use geattack_tensor::{init, nn, Matrix, SparseVar, Tape, Var};

/// Radius, in hops, of the two-layer GCN's receptive field. A node's
/// prediction reads exactly its 2-hop neighbourhood, so that is the
/// computation subgraph every explainer and joint attack works on
/// (GNNExplainer's L-hop computation graph for an L-layer GNN).
pub const RECEPTIVE_FIELD_HOPS: usize = 2;

/// Trainable parameters of a two-layer GCN.
#[derive(Clone, Debug)]
pub struct GcnParams {
    /// First-layer weights (`in_features x hidden`).
    pub w1: Matrix,
    /// First-layer bias (`1 x hidden`).
    pub b1: Matrix,
    /// Second-layer weights (`hidden x n_classes`).
    pub w2: Matrix,
    /// Second-layer bias (`1 x n_classes`).
    pub b2: Matrix,
}

impl GcnParams {
    /// Glorot-initialized parameters.
    pub fn init(in_features: usize, hidden: usize, n_classes: usize, rng: &mut impl Rng) -> Self {
        Self {
            w1: init::glorot_uniform(in_features, hidden, rng),
            b1: Matrix::zeros(1, hidden),
            w2: init::glorot_uniform(hidden, n_classes, rng),
            b2: Matrix::zeros(1, n_classes),
        }
    }

    /// Parameters as a flat list (the order expected by [`GcnParams::from_vec`]).
    pub fn to_vec(&self) -> Vec<Matrix> {
        vec![self.w1.clone(), self.b1.clone(), self.w2.clone(), self.b2.clone()]
    }

    /// Rebuilds parameters from the flat list produced by [`GcnParams::to_vec`].
    pub fn from_vec(mut params: Vec<Matrix>) -> Self {
        assert_eq!(params.len(), 4, "expected 4 parameter matrices");
        let b2 = params.pop().unwrap();
        let w2 = params.pop().unwrap();
        let b1 = params.pop().unwrap();
        let w1 = params.pop().unwrap();
        Self { w1, b1, w2, b2 }
    }
}

/// Architecture description plus parameters of a two-layer GCN.
#[derive(Clone, Debug)]
pub struct Gcn {
    params: GcnParams,
    in_features: usize,
    hidden: usize,
    n_classes: usize,
}

/// Tape handles to one set of GCN parameters (used during training).
#[derive(Clone, Copy, Debug)]
pub struct GcnParamVars {
    /// First-layer weights.
    pub w1: Var,
    /// First-layer bias.
    pub b1: Var,
    /// Second-layer weights.
    pub w2: Var,
    /// Second-layer bias.
    pub b2: Var,
}

impl GcnParamVars {
    /// Handles as a flat list matching [`GcnParams::to_vec`].
    pub fn to_vec(&self) -> Vec<Var> {
        vec![self.w1, self.b1, self.w2, self.b2]
    }
}

impl Gcn {
    /// Creates a GCN with freshly initialized parameters.
    pub fn new(in_features: usize, hidden: usize, n_classes: usize, rng: &mut impl Rng) -> Self {
        assert!(hidden > 0 && n_classes > 1 && in_features > 0, "invalid GCN dimensions");
        Self {
            params: GcnParams::init(in_features, hidden, n_classes, rng),
            in_features,
            hidden,
            n_classes,
        }
    }

    /// Creates a GCN from existing parameters.
    pub fn from_params(params: GcnParams) -> Self {
        let in_features = params.w1.rows();
        let hidden = params.w1.cols();
        let n_classes = params.w2.cols();
        Self {
            params,
            in_features,
            hidden,
            n_classes,
        }
    }

    /// Input feature dimensionality.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Hidden dimensionality.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.n_classes
    }

    /// Read access to the parameters.
    pub fn params(&self) -> &GcnParams {
        &self.params
    }

    /// Replaces the parameters (e.g. after an optimizer step).
    pub fn set_params(&mut self, params: GcnParams) {
        assert_eq!(params.w1.shape(), (self.in_features, self.hidden));
        assert_eq!(params.w2.shape(), (self.hidden, self.n_classes));
        self.params = params;
    }

    /// Records the parameters on `tape` as trainable inputs.
    pub fn insert_params(&self, tape: &Tape) -> GcnParamVars {
        GcnParamVars {
            w1: tape.input(self.params.w1.clone()),
            b1: tape.input(self.params.b1.clone()),
            w2: tape.input(self.params.w2.clone()),
            b2: tape.input(self.params.b2.clone()),
        }
    }

    /// Records the parameters on `tape` as constants (frozen model — the evasion
    /// attack setting of the paper).
    pub fn insert_params_frozen(&self, tape: &Tape) -> GcnParamVars {
        GcnParamVars {
            w1: tape.constant(self.params.w1.clone()),
            b1: tape.constant(self.params.b1.clone()),
            w2: tape.constant(self.params.w2.clone()),
            b2: tape.constant(self.params.b2.clone()),
        }
    }

    /// Differentiable forward pass producing logits (`n x C`), given an already
    /// normalized adjacency `a_norm` and features `x` recorded on `tape`.
    pub fn logits(&self, tape: &Tape, a_norm: Var, x: Var, params: &GcnParamVars) -> Var {
        let h = self.hidden_layer(tape, a_norm, x, params);
        let h2 = tape.matmul(a_norm, tape.matmul(h, params.w2));
        tape.add(h2, tape.row_broadcast(params.b2, h2.rows()))
    }

    /// Differentiable first-layer embeddings `σ(Ã X W₁ + b₁)` (`n x hidden`).
    pub fn hidden_layer(&self, tape: &Tape, a_norm: Var, x: Var, params: &GcnParamVars) -> Var {
        let xw = tape.matmul(x, params.w1);
        let axw = tape.matmul(a_norm, xw);
        let pre = tape.add(axw, tape.row_broadcast(params.b1, axw.rows()));
        tape.relu(pre)
    }

    /// Differentiable log-probabilities (`n x C`).
    pub fn log_probs(&self, tape: &Tape, a_norm: Var, x: Var, params: &GcnParamVars) -> Var {
        let logits = self.logits(tape, a_norm, x, params);
        nn::log_softmax_rows(tape, logits)
    }

    /// Differentiable forward pass that starts from a **raw** dense adjacency
    /// variable and performs the GCN normalization on the tape. This `O(n²)`
    /// path is the test oracle for the sparse adjacency gradients and for the
    /// masked GCN of [`crate::masked`].
    pub fn log_probs_from_raw_adj(&self, tape: &Tape, a_raw: Var, x: Var, params: &GcnParamVars) -> Var {
        self.log_probs(tape, nn::gcn_normalize(tape, a_raw), x, params)
    }

    // ---- sparse forward paths ---------------------------------------------------
    //
    // The SpMM kernel replays the dense matmul's exact accumulation order, so
    // the paths below produce bit-identical values to their dense counterparts
    // while costing O(nnz·f) instead of O(n²·f) per layer. Every one of them
    // takes the feature projection `X·W₁` as an input: it does not depend on
    // the adjacency, so it is computed once per graph as a CSR product
    // ([`Graph::project`]) — or on the tape, where training needs `∂/∂W₁`.

    /// [`Gcn::hidden_layer`] on a sparse normalized adjacency, from the
    /// projection `X·W₁`.
    fn hidden_layer_projected(&self, tape: &Tape, a_norm: SparseVar, xw1: Var, params: &GcnParamVars) -> Var {
        let axw = tape.spmm(a_norm, xw1);
        let pre = tape.add(axw, tape.row_broadcast(params.b1, axw.rows()));
        tape.relu(pre)
    }

    /// The second layer `Ã·(H·W₂) + b₂` on a sparse normalized adjacency.
    fn output_layer(&self, tape: &Tape, a_norm: SparseVar, h: Var, params: &GcnParamVars) -> Var {
        let h2 = tape.spmm(a_norm, tape.matmul(h, params.w2));
        tape.add(h2, tape.row_broadcast(params.b2, h2.rows()))
    }

    /// [`Gcn::log_probs`] on a sparse normalized adjacency, with the feature
    /// projection `X·W₁` supplied by the caller (greedy attack loops compute it
    /// once and reuse it across every gradient call). Bit-identical to
    /// [`Gcn::log_probs`].
    pub fn log_probs_sparse_projected(&self, tape: &Tape, a_norm: SparseVar, xw1: Var, params: &GcnParamVars) -> Var {
        let h = self.hidden_layer_projected(tape, a_norm, xw1, params);
        nn::log_softmax_rows(tape, self.output_layer(tape, a_norm, h, params))
    }

    /// Class probabilities for every node of a concrete graph (no gradients).
    pub fn predict_proba(&self, graph: &Graph) -> Matrix {
        let tape = Tape::new();
        let (_, logits) = self.graph_hidden_and_logits(&tape, graph);
        let probs = nn::softmax_rows(&tape, logits);
        tape.value(probs)
    }

    /// Hard label predictions for every node of a concrete graph.
    pub fn predict_labels(&self, graph: &Graph) -> Vec<usize> {
        let probs = self.predict_proba(graph);
        (0..graph.num_nodes()).map(|i| probs.argmax_row(i)).collect()
    }

    /// First-layer node embeddings of a concrete graph (used by PGExplainer to
    /// build edge features).
    pub fn node_embeddings(&self, graph: &Graph) -> Matrix {
        let tape = Tape::new();
        let (_, h, _) = self.graph_hidden(&tape, graph);
        tape.value(h)
    }

    /// Full-graph first layer `σ(Ã·(X·W₁) + b₁)` of the frozen model, returned
    /// with the sparse normalized adjacency and the parameters it recorded (the
    /// second layer's inputs).
    fn graph_hidden(&self, tape: &Tape, graph: &Graph) -> (SparseVar, Var, GcnParamVars) {
        let a_norm = tape.sparse_constant(geattack_graph::normalized_adjacency_csr(graph).matrix);
        let xw1 = tape.constant(graph.project(&self.params.w1));
        let params = self.insert_params_frozen(tape);
        (a_norm, self.hidden_layer_projected(tape, a_norm, xw1, &params), params)
    }

    /// Full-graph hidden layer **and** logits off one shared first-layer product:
    /// the hidden activations are computed once and feed both return values,
    /// instead of [`Gcn::predict_proba`] and [`Gcn::node_embeddings`] each
    /// paying the first layer separately. The op sequence per output is
    /// identical to the single-purpose paths, so both values are bit-identical
    /// to them — this is what `BatchedForward` records.
    pub(crate) fn graph_hidden_and_logits(&self, tape: &Tape, graph: &Graph) -> (Var, Var) {
        let (a_norm, h, params) = self.graph_hidden(tape, graph);
        (h, self.output_layer(tape, a_norm, h, &params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_tensor::grad::grad_values;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_graph() -> Graph {
        // Two triangles joined by one edge; labels follow the triangles.
        let mut adj = Matrix::zeros(6, 6);
        for &(u, v) in &[(0usize, 1usize), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            adj[(u, v)] = 1.0;
            adj[(v, u)] = 1.0;
        }
        let feats = Matrix::from_fn(6, 4, |i, j| if (i < 3) == (j < 2) { 1.0 } else { 0.0 });
        Graph::new(adj, feats, vec![0, 0, 0, 1, 1, 1], 2)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = toy_graph();
        let gcn = Gcn::new(4, 8, 2, &mut rng);
        let probs = gcn.predict_proba(&g);
        assert_eq!(probs.shape(), (6, 2));
        for i in 0..6 {
            let s: f64 = probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert_eq!(gcn.predict_labels(&g).len(), 6);
        assert_eq!(gcn.node_embeddings(&g).shape(), (6, 8));
    }

    #[test]
    fn sparse_prediction_is_bit_identical_to_dense() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = toy_graph();
        let gcn = Gcn::new(4, 8, 2, &mut rng);

        // Dense reference forward, built explicitly on the dense tape path.
        let tape = Tape::new();
        let a_norm = tape.constant(geattack_graph::normalized_adjacency(&g));
        let x = tape.constant(g.features().to_dense());
        let params = gcn.insert_params_frozen(&tape);
        let dense_logits = tape.value(gcn.logits(&tape, a_norm, x, &params));
        let dense_hidden = tape.value(gcn.hidden_layer(&tape, a_norm, x, &params));

        // Sparse forward on the same parameters: CSR adjacency, CSR `X·W₁`.
        let tape = Tape::new();
        let (sparse_hidden, sparse_logits) = gcn.graph_hidden_and_logits(&tape, &g);
        let (sparse_hidden, sparse_logits) = (tape.value(sparse_hidden), tape.value(sparse_logits));

        assert_eq!(sparse_logits.as_slice(), dense_logits.as_slice());
        assert_eq!(sparse_hidden.as_slice(), dense_hidden.as_slice());
        assert_eq!(gcn.node_embeddings(&g).as_slice(), dense_hidden.as_slice());
    }

    #[test]
    fn params_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = GcnParams::init(5, 3, 2, &mut rng);
        let back = GcnParams::from_vec(p.to_vec());
        assert!(back.w1.approx_eq(&p.w1, 0.0));
        assert!(back.b2.approx_eq(&p.b2, 0.0));
        let gcn = Gcn::from_params(p);
        assert_eq!(gcn.in_features(), 5);
        assert_eq!(gcn.hidden(), 3);
        assert_eq!(gcn.num_classes(), 2);
    }

    #[test]
    fn gradient_wrt_parameters_is_nonzero() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = toy_graph();
        let gcn = Gcn::new(4, 8, 2, &mut rng);
        let tape = Tape::new();
        let a_norm = tape.constant(geattack_graph::normalized_adjacency(&g));
        let x = tape.constant(g.features().to_dense());
        let params = gcn.insert_params(&tape);
        let lp = gcn.log_probs(&tape, a_norm, x, &params);
        let loss = nn::masked_nll(&tape, lp, &[0, 3], &[0, 1], 2);
        let grads = grad_values(&tape, loss, &params.to_vec());
        assert_eq!(grads.len(), 4);
        assert!(grads[0].frobenius_norm() > 0.0, "w1 gradient must be non-zero");
        assert!(grads[2].frobenius_norm() > 0.0, "w2 gradient must be non-zero");
    }

    #[test]
    fn gradient_wrt_raw_adjacency_matches_finite_diff() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = toy_graph();
        let gcn = Gcn::new(4, 8, 2, &mut rng);
        let target = 0usize;
        let class = 1usize;

        let f = |adj: &Matrix| -> f64 {
            let tape = Tape::new();
            let a = tape.input(adj.clone());
            let x = tape.constant(g.features().to_dense());
            let params = gcn.insert_params_frozen(&tape);
            let lp = gcn.log_probs_from_raw_adj(&tape, a, x, &params);
            tape.value(nn::node_class_nll(&tape, lp, target, class, 2)).scalar()
        };

        let dense_adj = g.to_dense();
        let tape = Tape::new();
        let a = tape.input(dense_adj.clone());
        let x = tape.constant(g.features().to_dense());
        let params = gcn.insert_params_frozen(&tape);
        let lp = gcn.log_probs_from_raw_adj(&tape, a, x, &params);
        let loss = nn::node_class_nll(&tape, lp, target, class, 2);
        let grad_a = grad_values(&tape, loss, &[a]).remove(0);

        // Check a handful of entries against central differences.
        let eps = 1e-5;
        for &(i, j) in &[(0usize, 3usize), (0, 5), (1, 4), (2, 3)] {
            let mut p = dense_adj.clone();
            p[(i, j)] += eps;
            let mut m = dense_adj.clone();
            m[(i, j)] -= eps;
            let numeric = (f(&p) - f(&m)) / (2.0 * eps);
            assert!(
                (grad_a[(i, j)] - numeric).abs() < 1e-5,
                "adjacency gradient mismatch at ({i},{j}): {} vs {numeric}",
                grad_a[(i, j)]
            );
        }
    }
}
