//! One shared forward pass serving every victim.
//!
//! The attack/evaluation loops repeatedly need, for one *fixed* (graph, weights)
//! pair, quantities that all fall out of a single GCN forward: class
//! probabilities per victim, hard predictions, and the first-layer embeddings
//! PGExplainer builds edge features from. Before this existed every consumer
//! called [`Gcn::predict_proba`] or [`Gcn::node_embeddings`] itself, re-running
//! the full `Ã·(X·W₁)` product per victim. [`BatchedForward`] runs the forward
//! **once**, sharing the first layer (with `X·W₁` a CSR product off the
//! graph's shared features) between the hidden and logit heads, and serves all
//! rows from the cached matrices.
//!
//! Bit-identity: the recorded op sequence per output is exactly the one the
//! single-purpose entry points replay, so [`BatchedForward::probs`] equals
//! [`Gcn::predict_proba`] and [`BatchedForward::hidden`] equals
//! [`Gcn::node_embeddings`] bit-for-bit (pinned by
//! `batched_forward_is_bit_identical_to_per_call_forwards`). Routing a call site through a `BatchedForward` can therefore never
//! change a report byte — only how often the kernels run.

use geattack_graph::Graph;
use geattack_tensor::{nn, Matrix, Tape};

use crate::gcn::Gcn;

/// The cached result of one full-graph GCN forward pass.
#[derive(Clone, Debug)]
pub struct BatchedForward {
    hidden: Matrix,
    probs: Matrix,
}

impl BatchedForward {
    /// Runs the forward once for `(model, graph)` and caches both heads.
    pub fn new(model: &Gcn, graph: &Graph) -> Self {
        let _span = geattack_telemetry::span_labeled(
            geattack_telemetry::Level::Detail,
            "gnn.batched_forward",
            format!("n={}", graph.num_nodes()),
        );
        let tape = Tape::new();
        let (hidden, logits) = model.graph_hidden_and_logits(&tape, graph);
        let probs = nn::softmax_rows(&tape, logits);
        Self {
            hidden: tape.value(hidden),
            probs: tape.value(probs),
        }
    }

    /// First-layer embeddings `σ(Ã X W₁ + b₁)` (`n x hidden`); bit-identical to
    /// [`Gcn::node_embeddings`].
    pub fn hidden(&self) -> &Matrix {
        &self.hidden
    }

    /// Class probabilities (`n x C`); bit-identical to [`Gcn::predict_proba`].
    pub fn probs(&self) -> &Matrix {
        &self.probs
    }

    /// Hard prediction for one node (argmax of its probability row).
    pub fn predicted_class(&self, node: usize) -> usize {
        self.probs.argmax_row(node)
    }

    /// Hard predictions for every node; bit-identical to [`Gcn::predict_labels`].
    pub fn predict_labels(&self) -> Vec<usize> {
        (0..self.probs.rows()).map(|i| self.probs.argmax_row(i)).collect()
    }

    /// Number of nodes the forward covered.
    pub fn num_nodes(&self) -> usize {
        self.probs.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_graph() -> Graph {
        let mut adj = Matrix::zeros(6, 6);
        for &(u, v) in &[(0usize, 1usize), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            adj[(u, v)] = 1.0;
            adj[(v, u)] = 1.0;
        }
        let feats = Matrix::from_fn(6, 4, |i, j| if (i < 3) == (j < 2) { 1.0 } else { 0.0 });
        Graph::new(adj, feats, vec![0, 0, 0, 1, 1, 1], 2)
    }

    #[test]
    fn batched_forward_is_bit_identical_to_per_call_forwards() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = toy_graph();
        let gcn = Gcn::new(4, 8, 2, &mut rng);
        let forward = BatchedForward::new(&gcn, &g);
        assert_eq!(forward.probs().as_slice(), gcn.predict_proba(&g).as_slice());
        assert_eq!(forward.hidden().as_slice(), gcn.node_embeddings(&g).as_slice());
        assert_eq!(forward.predict_labels(), gcn.predict_labels(&g));
        for i in 0..g.num_nodes() {
            assert_eq!(forward.predicted_class(i), gcn.predict_proba(&g).argmax_row(i));
        }
        assert_eq!(forward.num_nodes(), 6);
    }
}
