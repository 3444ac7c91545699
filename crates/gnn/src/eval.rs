//! Evaluation utilities: accuracy, prediction margins and per-node predictions.

use geattack_graph::Graph;
use geattack_tensor::Matrix;

use crate::gcn::Gcn;

/// Classification accuracy of `model` on the listed nodes.
pub fn accuracy(model: &Gcn, graph: &Graph, nodes: &[usize]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let predictions = model.predict_labels(graph);
    let correct = nodes.iter().filter(|&&i| predictions[i] == graph.label(i)).count();
    correct as f64 / nodes.len() as f64
}

/// Per-node prediction record used for victim selection and attack evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodePrediction {
    /// Node id.
    pub node: usize,
    /// Predicted class.
    pub predicted: usize,
    /// Ground-truth class.
    pub label: usize,
    /// Probability assigned to the ground-truth class.
    pub true_class_prob: f64,
    /// Classification margin: probability of the true class minus the largest
    /// probability among the other classes. Positive means correctly classified
    /// with confidence; the paper selects victims with the 10 highest and 10 lowest
    /// margins plus random nodes.
    pub margin: f64,
}

/// Computes a single node's prediction record from a precomputed probability matrix.
pub fn prediction_from_probs(probs: &Matrix, graph: &Graph, node: usize) -> NodePrediction {
    let label = graph.label(node);
    let row = probs.row(node);
    let predicted = probs.argmax_row(node);
    let true_class_prob = row[label];
    let best_other = row
        .iter()
        .enumerate()
        .filter(|&(c, _)| c != label)
        .map(|(_, &p)| p)
        .fold(f64::NEG_INFINITY, f64::max);
    NodePrediction {
        node,
        predicted,
        label,
        true_class_prob,
        margin: true_class_prob - best_other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_graph() -> Graph {
        let mut adj = Matrix::zeros(4, 4);
        for &(u, v) in &[(0usize, 1usize), (2, 3)] {
            adj[(u, v)] = 1.0;
            adj[(v, u)] = 1.0;
        }
        let feats = Matrix::from_fn(4, 2, |i, j| if (i < 2) == (j == 0) { 1.0 } else { 0.0 });
        Graph::new(adj, feats, vec![0, 0, 1, 1], 2)
    }

    #[test]
    fn accuracy_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = toy_graph();
        let gcn = Gcn::new(2, 4, 2, &mut rng);
        let acc = accuracy(&gcn, &g, &[0, 1, 2, 3]);
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(accuracy(&gcn, &g, &[]), 0.0);
    }

    #[test]
    fn margin_sign_matches_correctness() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = toy_graph();
        let gcn = Gcn::new(2, 4, 2, &mut rng);
        let probs = gcn.predict_proba(&g);
        for p in (0..4).map(|i| prediction_from_probs(&probs, &g, i)) {
            if p.predicted == p.label {
                assert!(p.margin >= 0.0, "correct prediction must have non-negative margin");
            } else {
                assert!(p.margin <= 0.0, "wrong prediction must have non-positive margin");
            }
            assert!((0.0..=1.0).contains(&p.true_class_prob));
        }
    }

    #[test]
    fn predicted_class_consistent_with_predictions() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = toy_graph();
        let gcn = Gcn::new(2, 4, 2, &mut rng);
        let probs = gcn.predict_proba(&g);
        assert_eq!(prediction_from_probs(&probs, &g, 2).predicted, probs.argmax_row(2));
    }
}
