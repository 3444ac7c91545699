//! The central attributed-graph type used across the workspace.

use std::collections::HashSet;
use std::sync::Arc;

use geattack_tensor::{Matrix, SparseMatrix};

use crate::csr::Csr;

/// An undirected attributed graph `G = (A, X, y)`.
///
/// The adjacency lives as CSR ([`Csr`]) plus a canonical edge-set hash index
/// for `O(1)` membership tests — the sparse compute core and the traversal
/// preprocessing both consume the CSR directly, so nothing `O(n²)` is stored.
/// Node features are an `n x d` CSR matrix held **once** behind an [`Arc`]:
/// the attacks only ever insert edges, so every clone, perturbed copy and
/// [`crate::Perturbation::apply`] result shares the source's features, and
/// every `X·W` is a CSR product ([`Graph::project`], [`Graph::project_rows`]).
/// Every node carries a class label in `0..n_classes`. [`Graph::to_dense`]
/// materializes the dense adjacency for the dense test oracles.
#[derive(Clone, Debug)]
pub struct Graph {
    csr: Csr,
    edge_set: HashSet<(usize, usize)>,
    features: Arc<SparseMatrix>,
    labels: Vec<usize>,
    n_classes: usize,
}

fn canonical_edge(u: usize, v: usize) -> (usize, usize) {
    (u.min(v), u.max(v))
}

impl Graph {
    /// Creates a graph from a dense adjacency matrix (tests and small fixtures;
    /// the generators use [`Graph::from_edges`]).
    ///
    /// # Panics
    /// Panics if the adjacency matrix is not square/symmetric/0-1, if the feature
    /// row count does not match, or if any label is out of range.
    pub fn new(adj: Matrix, features: Matrix, labels: Vec<usize>, n_classes: usize) -> Self {
        let n = adj.rows();
        assert_eq!(adj.cols(), n, "adjacency matrix must be square");
        for i in 0..n {
            assert_eq!(adj[(i, i)], 0.0, "self loop on node {i}; strip self loops first");
            for j in 0..n {
                let v = adj[(i, j)];
                assert!(v == 0.0 || v == 1.0, "adjacency entries must be 0/1 (found {v})");
                assert_eq!(v, adj[(j, i)], "adjacency must be symmetric at ({i},{j})");
            }
        }
        Self::from_csr(Csr::from_dense(&adj), features, labels, n_classes)
    }

    /// Creates a graph from an undirected edge list over `n` nodes. Each
    /// `(u, v)` pair is inserted in both directions; duplicates and self loops
    /// are ignored (matching [`Csr::from_edges`]).
    ///
    /// # Panics
    /// Panics on out-of-bounds edges, mismatched feature/label counts, or
    /// out-of-range labels.
    pub fn from_edges(
        n: usize,
        edges: &[(usize, usize)],
        features: Matrix,
        labels: Vec<usize>,
        n_classes: usize,
    ) -> Self {
        Self::from_csr(Csr::from_edges(n, edges), features, labels, n_classes)
    }

    /// Creates a graph directly from a CSR adjacency. The dense `features`
    /// are converted to CSR (the only copy the graph keeps).
    ///
    /// # Panics
    /// Panics on mismatched feature/label counts or out-of-range labels.
    pub fn from_csr(csr: Csr, features: Matrix, labels: Vec<usize>, n_classes: usize) -> Self {
        Self::with_features(csr, Arc::new(SparseMatrix::from_dense(&features)), labels, n_classes)
    }

    fn with_features(csr: Csr, features: Arc<SparseMatrix>, labels: Vec<usize>, n_classes: usize) -> Self {
        let n = csr.num_nodes();
        assert_eq!(features.rows(), n, "feature rows must match node count");
        assert_eq!(labels.len(), n, "label count must match node count");
        assert!(n_classes > 0, "need at least one class");
        for (i, &l) in labels.iter().enumerate() {
            assert!(l < n_classes, "label {l} of node {i} out of range");
        }
        let edge_set: HashSet<(usize, usize)> = csr.edges().into_iter().collect();
        Self {
            csr,
            edge_set,
            features,
            labels,
            n_classes,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.n_classes
    }

    /// The CSR adjacency (a borrow — the graph owns exactly one copy).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Materializes the dense adjacency matrix. `O(n²)` — for the dense test
    /// oracles, never on a hot path.
    pub fn to_dense(&self) -> Matrix {
        self.csr.to_dense()
    }

    /// Node feature matrix (`n x d`, CSR), shared by every clone of the graph.
    pub fn features(&self) -> &Arc<SparseMatrix> {
        &self.features
    }

    /// The feature projection `X·W` (`n x w.cols()`) as a CSR product —
    /// bit-identical to the dense `X.matmul(w)`.
    pub fn project(&self, w: &Matrix) -> Matrix {
        self.features.spmm(w)
    }

    /// Rows `nodes` of [`Graph::project`], in the given order, computed
    /// without touching any other row.
    pub fn project_rows(&self, nodes: &[usize], w: &Matrix) -> Matrix {
        self.features.spmm_rows(nodes, w)
    }

    /// Node labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Label of a single node.
    pub fn label(&self, node: usize) -> usize {
        self.labels[node]
    }

    /// Degree of `node` (number of incident edges).
    pub fn degree(&self, node: usize) -> usize {
        self.csr.degree(node)
    }

    /// Neighbors of `node` in ascending order.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        self.csr.neighbors(node)
    }

    /// Returns `true` if `(u, v)` is an edge (`O(1)` via the edge-set index).
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.edge_set.contains(&canonical_edge(u, v))
    }

    /// Adds the undirected edge `(u, v)`, patching the CSR in place. Returns
    /// `false` if it already existed or `u == v`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        let inserted = self.csr.insert_edge(u, v);
        debug_assert!(inserted, "edge set and CSR out of sync at ({u},{v})");
        self.edge_set.insert(canonical_edge(u, v));
        true
    }

    /// Removes the undirected edge `(u, v)`, patching the CSR in place.
    /// Returns `false` if it did not exist.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        let removed = self.csr.remove_edge(u, v);
        debug_assert!(removed, "edge set and CSR out of sync at ({u},{v})");
        self.edge_set.remove(&canonical_edge(u, v));
        true
    }

    /// All undirected edges as `(u, v)` with `u < v`, in ascending order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        self.csr.edges()
    }

    /// All nodes with the given label.
    pub fn nodes_with_label(&self, label: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == label)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fraction of edges whose endpoints share a label (edge homophily).
    pub fn edge_homophily(&self) -> f64 {
        let edges = self.edges();
        if edges.is_empty() {
            return 0.0;
        }
        let same = edges.iter().filter(|&&(u, v)| self.labels[u] == self.labels[v]).count();
        same as f64 / edges.len() as f64
    }

    /// Average node degree.
    pub fn average_degree(&self) -> f64 {
        2.0 * self.num_edges() as f64 / self.num_nodes() as f64
    }

    /// Builds a new graph keeping only `nodes` (in the given order), remapping
    /// edges, features and labels. Returns the new graph; the mapping from old to
    /// new ids is simply `nodes[i] -> i`. Runs in `O(Σ degree)` over the kept
    /// nodes — no dense materialization.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Graph {
        let k = nodes.len();
        let mut to_local = vec![usize::MAX; self.num_nodes()];
        for (a, &u) in nodes.iter().enumerate() {
            to_local[u] = a;
        }
        let mut edges = Vec::new();
        for (a, &u) in nodes.iter().enumerate() {
            for &v in self.csr.neighbors(u) {
                let b = to_local[v];
                if b != usize::MAX && a < b {
                    edges.push((a, b));
                }
            }
        }
        let rows: Vec<Vec<(usize, f64)>> = nodes.iter().map(|&u| self.features.row_entries(u).collect()).collect();
        let features = SparseMatrix::from_rows(k, self.num_features(), &rows);
        let labels = nodes.iter().map(|&u| self.labels[u]).collect();
        Graph::with_features(Csr::from_edges(k, &edges), Arc::new(features), labels, self.n_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn triangle_plus_isolated() -> Graph {
        let mut adj = Matrix::zeros(4, 4);
        for &(u, v) in &[(0usize, 1usize), (1, 2), (0, 2)] {
            adj[(u, v)] = 1.0;
            adj[(v, u)] = 1.0;
        }
        let features = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        Graph::new(adj, features, vec![0, 0, 1, 1], 2)
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_isolated();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_features(), 3);
        assert_eq!(g.num_classes(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn from_edges_matches_dense_construction() {
        let dense = triangle_plus_isolated();
        let sparse = Graph::from_edges(
            4,
            &[(0, 1), (1, 2), (0, 2), (2, 1)],
            Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64),
            vec![0, 0, 1, 1],
            2,
        );
        assert_eq!(sparse.csr(), dense.csr());
        assert_eq!(sparse.edges(), dense.edges());
        assert!(sparse.to_dense().approx_eq(&dense.to_dense(), 0.0));
    }

    #[test]
    fn add_remove_edge_symmetry() {
        let mut g = triangle_plus_isolated();
        assert!(g.add_edge(0, 3));
        assert!(!g.add_edge(0, 3), "duplicate edge must be rejected");
        assert!(!g.add_edge(2, 2), "self loop must be rejected");
        assert!(g.has_edge(3, 0));
        assert!(g.remove_edge(3, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.remove_edge(0, 3));
    }

    #[test]
    fn incremental_edits_match_rebuilt_graph() {
        let mut g = triangle_plus_isolated();
        g.add_edge(1, 3);
        g.remove_edge(0, 2);
        let rebuilt = Graph::from_edges(
            4,
            &[(0, 1), (1, 2), (1, 3)],
            g.features().to_dense(),
            g.labels().to_vec(),
            2,
        );
        assert_eq!(g.csr(), rebuilt.csr());
        assert_eq!(g.edges(), rebuilt.edges());
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn edges_and_labels() {
        let g = triangle_plus_isolated();
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.nodes_with_label(1), vec![2, 3]);
        // Two of three triangle edges connect different labels.
        assert!((g.edge_homophily() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = triangle_plus_isolated();
        let induced = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(induced.num_nodes(), 3);
        assert_eq!(induced.num_edges(), 3);
        assert_eq!(induced.labels(), &[1, 0, 0]);
        assert_eq!(
            induced.features().to_dense(),
            g.features().to_dense().gather_rows(&[2, 0, 1])
        );
    }

    #[test]
    fn copies_share_one_feature_matrix() {
        let g = triangle_plus_isolated();
        assert!(Arc::ptr_eq(g.features(), g.clone().features()));
        let mut edited = g.clone();
        assert!(edited.add_edge(0, 3));
        assert!(Arc::ptr_eq(g.features(), edited.features()));
        let mut p = crate::Perturbation::new();
        p.add_edge(1, 3);
        assert!(Arc::ptr_eq(g.features(), p.apply(&g).features()));
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_adjacency_rejected() {
        let mut adj = Matrix::zeros(2, 2);
        adj[(0, 1)] = 1.0;
        let _ = Graph::new(adj, Matrix::zeros(2, 1), vec![0, 0], 1);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        let mut adj = Matrix::zeros(2, 2);
        adj[(0, 0)] = 1.0;
        let _ = Graph::new(adj, Matrix::zeros(2, 1), vec![0, 0], 1);
    }
}
