//! Computation-subgraph extraction.
//!
//! For an `L`-layer GCN the prediction of a node only depends on its `L`-hop
//! neighbourhood. GNNExplainer (and therefore GEAttack's inner loop) follows the
//! reference implementation and optimizes the edge mask on this *computation
//! subgraph* rather than the full graph, which keeps mask optimization cheap
//! without changing the result.

use std::collections::HashMap;

use geattack_tensor::Matrix;

use crate::csr::Csr;
use crate::graph::Graph;

/// A node-induced subgraph with bookkeeping to translate between local and global
/// node ids.
///
/// The local adjacency is stored as CSR; only test oracles and small fixtures
/// materialize the dense `k x k` matrix, via
/// [`ComputationSubgraph::dense_adjacency`]. At 100k-node scales the
/// 2-hop neighbourhood of a hub can span tens of thousands of nodes, where the
/// dense matrix would be multi-gigabyte — the CSR stays proportional to the
/// local edge count.
#[derive(Clone, Debug)]
pub struct ComputationSubgraph {
    /// Original (global) node id of every local node, ascending. The local
    /// features are these rows of the graph's: consumers project them with
    /// [`Graph::project_rows`] instead of gathering a `k x d` copy.
    pub nodes: Vec<usize>,
    /// Map from global node id to local index.
    pub global_to_local: HashMap<usize, usize>,
    /// Local adjacency in CSR form (`k` nodes).
    pub csr: Csr,
    /// Local index of the target node the subgraph was built around.
    pub target_local: usize,
}

impl ComputationSubgraph {
    /// Number of nodes in the subgraph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges in the subgraph.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Materializes the local dense adjacency (`k x k`), the input of the
    /// dense test oracles. `O(k²)`: production code uses
    /// [`ComputationSubgraph::csr`].
    pub fn dense_adjacency(&self) -> Matrix {
        self.csr.to_dense()
    }

    /// Translates a local node index back to the global id.
    pub fn to_global(&self, local: usize) -> usize {
        self.nodes[local]
    }

    /// Translates a global node id to the local index, if present.
    pub fn to_local(&self, global: usize) -> Option<usize> {
        self.global_to_local.get(&global).copied()
    }
}

/// Extracts the `hops`-hop computation subgraph around `target`, additionally
/// forcing `extra_nodes` (e.g. endpoints of candidate adversarial edges) into the
/// node set so their rows/columns exist in the local adjacency.
pub fn computation_subgraph(graph: &Graph, target: usize, hops: usize, extra_nodes: &[usize]) -> ComputationSubgraph {
    assert!(target < graph.num_nodes(), "target {target} out of bounds");
    let csr = graph.csr();
    let mut nodes = csr.k_hop_nodes(&[target], hops);
    for &e in extra_nodes {
        assert!(e < graph.num_nodes(), "extra node {e} out of bounds");
        if nodes.binary_search(&e).is_err() {
            nodes.push(e);
        }
    }
    nodes.sort_unstable();
    nodes.dedup();

    let global_to_local: HashMap<usize, usize> = nodes.iter().enumerate().map(|(l, &g)| (g, l)).collect();
    let k = nodes.len();
    let mut local_edges = Vec::new();
    for (a, &u) in nodes.iter().enumerate() {
        for &v in csr.neighbors(u) {
            if let Some(&b) = global_to_local.get(&v) {
                if a < b {
                    local_edges.push((a, b));
                }
            }
        }
    }
    let local_csr = Csr::from_edges(k, &local_edges);
    let target_local = global_to_local[&target];
    ComputationSubgraph {
        nodes,
        global_to_local,
        csr: local_csr,
        target_local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut adj = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            adj[(i, i + 1)] = 1.0;
            adj[(i + 1, i)] = 1.0;
        }
        let feats = Matrix::from_fn(n, 2, |i, j| (i * 2 + j) as f64);
        Graph::new(adj, feats, vec![0; n], 1)
    }

    #[test]
    fn two_hop_subgraph_of_path() {
        let g = path_graph(7);
        let sub = computation_subgraph(&g, 3, 2, &[]);
        assert_eq!(sub.nodes, vec![1, 2, 3, 4, 5]);
        assert_eq!(sub.num_nodes(), 5);
        assert_eq!(sub.target_local, 2);
        let adj = sub.dense_adjacency();
        assert_eq!(adj[(0, 1)], 1.0);
        assert_eq!(adj[(0, 2)], 0.0);
        assert!(sub.csr.has_edge(0, 1));
        assert!(!sub.csr.has_edge(0, 2));
    }

    #[test]
    fn extra_nodes_are_included() {
        let g = path_graph(7);
        let sub = computation_subgraph(&g, 0, 1, &[6]);
        assert_eq!(sub.nodes, vec![0, 1, 6]);
        assert_eq!(sub.to_local(6), Some(2));
        assert_eq!(sub.to_global(2), 6);
        // 6 is not connected to anything inside the subgraph.
        assert_eq!(sub.csr.degree(2), 0);
        assert_eq!(sub.dense_adjacency().row(2), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn edge_translation_roundtrip() {
        let g = path_graph(5);
        let sub = computation_subgraph(&g, 2, 1, &[]);
        let (gu, gv) = (sub.to_global(0), sub.to_global(1));
        assert_eq!((gu, gv), (1, 2));
        assert_eq!(sub.to_local(gu), Some(0));
    }

    #[test]
    fn duplicate_extra_nodes_deduped() {
        let g = path_graph(4);
        let sub = computation_subgraph(&g, 0, 1, &[3, 3, 1]);
        assert_eq!(sub.nodes, vec![0, 1, 3]);
    }
}
