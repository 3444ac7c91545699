//! # geattack-graph
//!
//! Graph data structures, preprocessing and synthetic benchmark datasets for the
//! GEAttack reproduction.
//!
//! The central type is [`graph::Graph`]: a CSR-native attributed graph
//! `G = (A, X, y)` whose adjacency is stored sparse end to end (a dense matrix
//! is only materialized through the [`graph::Graph::to_dense`] escape hatch)
//! and whose features are one CSR matrix shared by every copy of the graph.
//! Supporting modules provide the CSR structure itself ([`csr`]), the
//! incremental generator builder ([`builder`]), largest connected-component
//! extraction and GCN normalization ([`preprocess`]), computation-subgraph
//! extraction for explainers ([`subgraph`]), node splits ([`split`]), the
//! pluggable [`family::GraphFamily`] generator trait, synthetic
//! CITESEER/CORA/ACM-like datasets ([`datasets`]) and adversarial perturbation
//! bookkeeping ([`perturb`]).

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod family;
pub mod graph;
pub mod perturb;
pub mod preprocess;
pub mod split;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::{CitationFamily, DatasetName, DatasetSpec};
pub use family::{FamilyConfig, GraphFamily};
pub use graph::Graph;
pub use perturb::Perturbation;
pub use preprocess::{
    largest_connected_component, normalize_sparse, normalized_adjacency, normalized_adjacency_csr, GraphStats,
    SparseNormalized,
};
pub use split::{random_split, stratified_split, DataSplit};
pub use subgraph::{computation_subgraph, ComputationSubgraph};
