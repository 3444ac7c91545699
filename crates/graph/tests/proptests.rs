//! Property-based tests of the graph substrate: structural invariants of CSR,
//! graphs, subgraphs and perturbations under random inputs.

use proptest::prelude::*;

use geattack_graph::csr::Csr;
use geattack_graph::graph::Graph;
use geattack_graph::perturb::Perturbation;
use geattack_graph::preprocess::largest_connected_component;
use geattack_graph::subgraph::computation_subgraph;
use geattack_tensor::Matrix;

const N: usize = 12;

fn edges_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..N, 0usize..N), 0..40)
}

fn graph_from_edges(edges: &[(usize, usize)]) -> Graph {
    let mut adj = Matrix::zeros(N, N);
    for &(u, v) in edges {
        if u != v {
            adj[(u, v)] = 1.0;
            adj[(v, u)] = 1.0;
        }
    }
    let features = Matrix::from_fn(N, 3, |i, j| ((i + j) % 2) as f64);
    let labels: Vec<usize> = (0..N).map(|i| i % 3).collect();
    Graph::new(adj, features, labels, 3)
}

const F: usize = 9;

/// `N x F` dense features whose rows are empty (signed zeros only), fully
/// dense, or mixed; the mixed rows carry `-0.0` and `0.0` entries.
fn features_strategy() -> impl Strategy<Value = Matrix> {
    let value = (0usize..4, -2.0f64..2.0).prop_map(|(pick, v)| [-0.0, 0.0, v, v][pick]);
    proptest::collection::vec((0usize..3, proptest::collection::vec(value, F)), N).prop_map(|rows| {
        let data = rows
            .into_iter()
            .flat_map(|(kind, values)| {
                values.into_iter().map(move |v| match kind {
                    0 => -0.0 * v.signum(),
                    1 if v == 0.0 => 0.75,
                    _ => v,
                })
            })
            .collect();
        Matrix::from_vec(N, F, data)
    })
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_degree_sum_is_twice_edge_count(edges in edges_strategy()) {
        let csr = Csr::from_edges(N, &edges);
        let degree_sum: usize = (0..N).map(|i| csr.degree(i)).sum();
        prop_assert_eq!(degree_sum, 2 * csr.num_edges());
    }

    #[test]
    fn csr_adjacency_is_symmetric(edges in edges_strategy()) {
        let csr = Csr::from_edges(N, &edges);
        for u in 0..N {
            for &v in csr.neighbors(u) {
                prop_assert!(csr.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    fn graph_and_csr_agree(edges in edges_strategy()) {
        let graph = graph_from_edges(&edges);
        let csr = graph.csr();
        prop_assert_eq!(graph.num_edges(), csr.num_edges());
        for i in 0..N {
            prop_assert_eq!(graph.degree(i), csr.degree(i));
            prop_assert_eq!(graph.neighbors(i), csr.neighbors(i));
        }
    }

    #[test]
    fn incremental_graph_edits_match_rebuild(
        edges in edges_strategy(),
        edits in proptest::collection::vec((0usize..N, 0usize..N, 0usize..2), 0..30),
    ) {
        // Random interleaved insert/remove sequence: the incrementally patched
        // CSR must equal the CSR rebuilt from the surviving edge set.
        let mut graph = graph_from_edges(&edges);
        let mut reference: std::collections::BTreeSet<(usize, usize)> =
            graph.edges().into_iter().collect();
        for (u, v, op) in edits {
            let key = (u.min(v), u.max(v));
            if op == 1 {
                let changed = graph.add_edge(u, v);
                prop_assert_eq!(changed, u != v && !reference.contains(&key));
                if changed { reference.insert(key); }
            } else {
                let changed = graph.remove_edge(u, v);
                prop_assert_eq!(changed, reference.remove(&key));
            }
        }
        let survivors: Vec<(usize, usize)> = reference.iter().copied().collect();
        let rebuilt = Csr::from_edges(N, &survivors);
        prop_assert_eq!(graph.csr(), &rebuilt);
        prop_assert_eq!(graph.edges(), survivors);
        for i in 0..N {
            prop_assert_eq!(graph.degree(i), rebuilt.degree(i));
        }
    }

    #[test]
    fn lcc_is_connected_and_no_larger_than_original(edges in edges_strategy()) {
        let graph = graph_from_edges(&edges);
        let (lcc, nodes) = largest_connected_component(&graph);
        prop_assert!(lcc.num_nodes() <= graph.num_nodes());
        prop_assert_eq!(lcc.num_nodes(), nodes.len());
        if lcc.num_nodes() > 0 {
            let comps = lcc.csr().connected_components();
            prop_assert!(comps.iter().all(|&c| c == comps[0]), "LCC is not connected");
        }
    }

    #[test]
    fn computation_subgraph_preserves_edges_and_target(edges in edges_strategy(), target in 0usize..N) {
        let graph = graph_from_edges(&edges);
        let sub = computation_subgraph(&graph, target, 2, &[]);
        prop_assert_eq!(sub.to_global(sub.target_local), target);
        // Every edge of the local adjacency must exist in the full graph, and
        // the dense materialization agrees with the CSR.
        let local_dense = sub.dense_adjacency();
        for a in 0..sub.num_nodes() {
            for b in 0..sub.num_nodes() {
                prop_assert_eq!(local_dense[(a, b)] > 0.5, sub.csr.has_edge(a, b));
                if sub.csr.has_edge(a, b) {
                    prop_assert!(graph.has_edge(sub.to_global(a), sub.to_global(b)));
                }
            }
        }
        // Every direct neighbor of the target must be present.
        for &v in graph.neighbors(target) {
            prop_assert!(sub.to_local(v).is_some());
        }
    }

    #[test]
    fn perturbation_apply_adds_exactly_the_new_edges(
        edges in edges_strategy(),
        additions in proptest::collection::vec((0usize..N, 0usize..N), 1..6),
    ) {
        let graph = graph_from_edges(&edges);
        let mut perturbation = Perturbation::new();
        for (u, v) in additions {
            if u != v && !graph.has_edge(u, v) && !perturbation.contains_added(u, v) {
                perturbation.add_edge(u, v);
            }
        }
        let attacked = perturbation.apply(&graph);
        prop_assert_eq!(attacked.num_edges(), graph.num_edges() + perturbation.size());
        for &(u, v) in perturbation.added() {
            prop_assert!(attacked.has_edge(u, v));
            prop_assert!(!graph.has_edge(u, v));
        }
    }

    #[test]
    fn edge_homophily_is_a_fraction(edges in edges_strategy()) {
        let graph = graph_from_edges(&edges);
        let h = graph.edge_homophily();
        prop_assert!((0.0..=1.0).contains(&h));
    }

    #[test]
    fn sparse_normalization_is_bitwise_equal_to_dense_on_random_graphs(edges in edges_strategy()) {
        let graph = graph_from_edges(&edges);
        let dense = geattack_graph::normalized_adjacency(&graph);
        let sparse = geattack_graph::normalized_adjacency_csr(&graph);
        let densified = sparse.matrix.to_dense();
        prop_assert_eq!(densified.as_slice(), dense.as_slice());
        // The chain-rule inputs agree with the dense degree definition.
        for i in 0..N {
            let degree = 1.0 + graph.degree(i) as f64;
            prop_assert_eq!(sparse.degrees[i].to_bits(), degree.to_bits());
            prop_assert_eq!(sparse.inv_sqrt[i].to_bits(), (1.0 / degree.sqrt()).to_bits());
        }
    }

    /// The CSR feature projections — all rows, a row subset, and the kernel
    /// under both — equal the dense gather-then-matmul to the bit, for repeated
    /// and unsorted row indices and every panel width.
    #[test]
    fn csr_projections_are_bitwise_equal_to_dense_matmul(
        x in features_strategy(),
        rows in proptest::collection::vec(0usize..N, 0..20),
        width in 1usize..20,
        seed in 0u64..1000,
    ) {
        let graph = Graph::from_edges(N, &[], x.clone(), vec![0; N], 1);
        let w = Matrix::from_fn(F, width, |i, j| ((seed as f64 + 1.0) * (i as f64 + 0.3) - 0.9 * j as f64).sin());
        let dense = graph.features().to_dense();
        prop_assert_eq!(bits(&dense), bits(&x.map(|v| v + 0.0)), "CSR round-trip drops only the zeros' sign");
        let expected = bits(&dense.gather_rows(&rows).matmul(&w));
        prop_assert_eq!(bits(&graph.features().spmm_rows(&rows, &w)), expected.clone());
        prop_assert_eq!(bits(&graph.project_rows(&rows, &w)), expected);
        prop_assert_eq!(bits(&x.gather_rows(&rows).matmul(&w)), bits(&dense.gather_rows(&rows).matmul(&w)));
        prop_assert_eq!(bits(&graph.project(&w)), bits(&dense.matmul(&w)));
        prop_assert_eq!(bits(&graph.project(&w)), bits(&x.matmul(&w)));
    }

    #[test]
    fn csr_to_sparse_round_trips_the_adjacency(edges in edges_strategy()) {
        let graph = graph_from_edges(&edges);
        let sparse = graph.csr().to_sparse();
        let densified = sparse.to_dense();
        let dense = graph.to_dense();
        prop_assert_eq!(densified.as_slice(), dense.as_slice());
        prop_assert_eq!(sparse.nnz(), 2 * graph.num_edges());
    }
}
