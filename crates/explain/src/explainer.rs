//! The explanation interface shared by GNNExplainer and PGExplainer.

use geattack_gnn::{BatchedForward, Gcn};
use geattack_graph::Graph;

/// An explanation of a single node's prediction: every edge of the node's
/// computation subgraph together with an importance weight, ranked from most to
/// least influential.
///
/// The paper's inspection protocol (Section 3) ranks edges by the learned mask
/// weight, keeps the top-`L` as the explanation subgraph `G_S` and then asks
/// whether the attacker's inserted edges appear near the top of that ranking.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Node whose prediction is being explained (global id).
    pub target: usize,
    /// Class label that was explained (the model's prediction on the given graph).
    pub explained_class: usize,
    /// `(u, v, weight)` for every edge of the computation subgraph, with `u < v`,
    /// sorted by decreasing weight.
    pub ranked_edges: Vec<(usize, usize, f64)>,
}

impl Explanation {
    /// Creates an explanation from unordered edge weights (sorts internally).
    pub fn from_edge_weights(target: usize, explained_class: usize, mut edges: Vec<(usize, usize, f64)>) -> Self {
        for e in &mut edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        // `total_cmp` is a total order even with NaN weights (a NaN ranks
        // above every number), which `sort_by` requires of its comparator.
        edges.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        Self {
            target,
            explained_class,
            ranked_edges: edges,
        }
    }

    /// Number of edges covered by the explanation.
    pub fn len(&self) -> usize {
        self.ranked_edges.len()
    }

    /// True when the explanation covers no edges.
    pub fn is_empty(&self) -> bool {
        self.ranked_edges.is_empty()
    }

    /// The top-`l` most important edges — the explanation subgraph `G_S`.
    pub fn top_edges(&self, l: usize) -> Vec<(usize, usize)> {
        self.ranked_edges.iter().take(l).map(|&(u, v, _)| (u, v)).collect()
    }

    /// Restricts the explanation to its top-`l` edges (the paper's explanation
    /// size `L`), preserving ranking.
    pub fn truncated(&self, l: usize) -> Explanation {
        Explanation {
            target: self.target,
            explained_class: self.explained_class,
            ranked_edges: self.ranked_edges.iter().take(l).copied().collect(),
        }
    }

    /// Zero-based rank of the given undirected edge, if it appears.
    pub fn rank_of(&self, u: usize, v: usize) -> Option<usize> {
        let key = if u <= v { (u, v) } else { (v, u) };
        self.ranked_edges.iter().position(|&(a, b, _)| (a, b) == key)
    }
}

/// A post-hoc explanation method for a trained GCN.
///
/// An explainer implements one method, [`Explainer::explain_class_with_forward`],
/// which is handed the clean forward pass its caller already computed (the
/// evaluation loop scores attack success from it, FGA-T&E shares one across
/// victims). [`Explainer::explain`] is the convenience entry point that
/// computes that forward itself.
pub trait Explainer {
    /// Explains the model's prediction `explained_class` for `target` on `graph`
    /// (which may already contain adversarial perturbations — that is exactly
    /// the inspection setting of the paper).
    ///
    /// `forward` **must** be [`BatchedForward::new(model, graph)`] for these
    /// exact arguments and `explained_class` its predicted class for `target`;
    /// explainers that consume full-graph quantities beyond the prediction
    /// (PGExplainer reads the first-layer embeddings) serve them from it.
    fn explain_class_with_forward(
        &self,
        model: &Gcn,
        graph: &Graph,
        target: usize,
        explained_class: usize,
        forward: &BatchedForward,
    ) -> Explanation;

    /// Explains the class the model currently predicts for `target` on
    /// `graph`, running the forward pass itself.
    fn explain(&self, model: &Gcn, graph: &Graph, target: usize) -> Explanation {
        let forward = BatchedForward::new(model, graph);
        self.explain_class_with_forward(model, graph, target, forward.predicted_class(target), &forward)
    }
}

/// Shared explainer state (e.g. one trained PGExplainer inspected from many
/// threads or sessions) is itself an explainer.
impl<T: Explainer + ?Sized> Explainer for std::sync::Arc<T> {
    fn explain_class_with_forward(
        &self,
        model: &Gcn,
        graph: &Graph,
        target: usize,
        explained_class: usize,
        forward: &BatchedForward,
    ) -> Explanation {
        (**self).explain_class_with_forward(model, graph, target, explained_class, forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Explanation {
        Explanation::from_edge_weights(0, 1, vec![(3, 1, 0.2), (0, 1, 0.9), (2, 0, 0.5)])
    }

    #[test]
    fn edges_sorted_and_canonicalized() {
        let e = example();
        assert_eq!(e.len(), 3);
        assert_eq!(e.ranked_edges[0], (0, 1, 0.9));
        assert_eq!(e.ranked_edges[1], (0, 2, 0.5));
        assert_eq!(e.ranked_edges[2], (1, 3, 0.2));
    }

    #[test]
    fn nan_weights_sort_deterministically() {
        // A comparator that calls NaN "equal" to everything is not a total
        // order; ranking must still be well defined and order-independent.
        let edges = vec![
            (0, 1, 0.5),
            (1, 2, f64::NAN),
            (2, 3, 0.9),
            (0, 3, f64::NAN),
            (1, 3, 0.1),
        ];
        let e = Explanation::from_edge_weights(0, 0, edges.clone());
        let order: Vec<(usize, usize)> = e.ranked_edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(order, vec![(0, 3), (1, 2), (2, 3), (0, 1), (1, 3)]);
        let reversed = Explanation::from_edge_weights(0, 0, edges.into_iter().rev().collect());
        let reversed: Vec<(usize, usize)> = reversed.ranked_edges.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(order, reversed);
    }

    #[test]
    fn top_edges_and_truncation() {
        let e = example();
        assert_eq!(e.top_edges(2), vec![(0, 1), (0, 2)]);
        let t = e.truncated(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.target, 0);
        assert_eq!(t.explained_class, 1);
    }

    #[test]
    fn rank_and_weight_lookup() {
        let e = example();
        assert_eq!(e.rank_of(1, 0), Some(0));
        assert_eq!(e.rank_of(3, 1), Some(2));
        assert_eq!(e.rank_of(5, 6), None);
    }

    #[test]
    fn empty_explanation() {
        let e = Explanation::from_edge_weights(4, 0, vec![]);
        assert!(e.is_empty());
        assert!(e.top_edges(3).is_empty());
    }
}
