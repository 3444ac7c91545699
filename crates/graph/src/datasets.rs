//! Synthetic stand-ins for the paper's benchmark datasets.
//!
//! The original evaluation uses CITESEER, CORA and ACM (largest connected
//! component, Table 3 of the paper). Shipping or downloading the raw corpora is
//! not possible in this environment, so each dataset is replaced by a
//! **class-structured synthetic citation graph** with matching statistics:
//!
//! * the same number of classes,
//! * node / edge counts scaled by a user-chosen `scale` factor (1.0 = paper scale),
//! * a heavy-tailed degree distribution produced by preferential attachment,
//! * strong edge homophily (≈ 0.72–0.81, as in real citation graphs), and
//! * sparse bag-of-words features whose active "topic words" correlate with the
//!   class label, so a GCN reaches realistic accuracy and both the attacks and the
//!   explainers have the same signal structure to exploit.
//!
//! This substitution is documented in `DESIGN.md`; every algorithm in the paper
//! consumes only `(A, X, y)` and relies on exactly the properties listed above, so
//! relative comparisons between attackers (the content of Tables 1–2 and Figures
//! 2–8) are preserved even though absolute numbers differ from the paper.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use geattack_tensor::Matrix;

use crate::builder::GraphBuilder;
use crate::family::{stream_seed, topic_features, FamilyConfig, GraphFamily};
use crate::graph::Graph;
use crate::preprocess::largest_connected_component;

/// The three benchmark datasets of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetName {
    /// CITESEER citation network (6 classes).
    Citeseer,
    /// CORA citation network (7 classes).
    Cora,
    /// ACM co-authorship network (3 classes).
    Acm,
}

impl DatasetName {
    /// All datasets, in the order used by the paper's tables.
    pub const ALL: [DatasetName; 3] = [DatasetName::Citeseer, DatasetName::Cora, DatasetName::Acm];

    /// Human-readable (paper) name.
    pub fn as_str(&self) -> &'static str {
        match self {
            DatasetName::Citeseer => "CITESEER",
            DatasetName::Cora => "CORA",
            DatasetName::Acm => "ACM",
        }
    }

    /// Parses a case-insensitive dataset name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "citeseer" => Some(DatasetName::Citeseer),
            "cora" => Some(DatasetName::Cora),
            "acm" => Some(DatasetName::Acm),
            _ => None,
        }
    }

    /// Target statistics of the real dataset's largest connected component
    /// (Table 3 of the paper).
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetName::Citeseer => DatasetSpec {
                name: "CITESEER",
                nodes: 2110,
                edges: 3668,
                classes: 6,
                features: 3703,
                homophily: 0.74,
            },
            DatasetName::Cora => DatasetSpec {
                name: "CORA",
                nodes: 2485,
                edges: 5069,
                classes: 7,
                features: 1433,
                homophily: 0.80,
            },
            DatasetName::Acm => DatasetSpec {
                name: "ACM",
                nodes: 3025,
                edges: 13128,
                classes: 3,
                features: 1870,
                homophily: 0.82,
            },
        }
    }
}

/// Target statistics for a synthetic dataset (mirrors Table 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Paper name of the dataset.
    pub name: &'static str,
    /// Node count of the real LCC.
    pub nodes: usize,
    /// Undirected edge count of the real LCC.
    pub edges: usize,
    /// Number of classes.
    pub classes: usize,
    /// Bag-of-words feature dimensionality.
    pub features: usize,
    /// Target edge homophily (fraction of intra-class edges).
    pub homophily: f64,
}

/// Configuration of the synthetic generator.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Scale factor applied to node count, edge count and feature dimensionality.
    /// `1.0` reproduces the paper-scale statistics; the experiment defaults use a
    /// smaller scale so the full pipeline runs in seconds.
    pub scale: f64,
    /// Minimum feature dimensionality after scaling.
    pub min_features: usize,
    /// Average number of active words per node.
    pub words_per_node: usize,
    /// Probability that an active word is drawn from the node's class topic block.
    pub topic_affinity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            scale: 0.25,
            min_features: 64,
            words_per_node: 24,
            topic_affinity: 0.85,
            seed: 0,
        }
    }
}

impl GeneratorConfig {
    /// Config at a reduced scale (useful for tests and CI).
    pub fn at_scale(scale: f64, seed: u64) -> Self {
        Self {
            scale,
            seed,
            ..Self::default()
        }
    }
}

/// Generates the synthetic stand-in for `name` and returns its largest connected
/// component, matching the paper's preprocessing.
pub fn load(name: DatasetName, config: &GeneratorConfig) -> Graph {
    let graph = generate(&name.spec(), config);
    let (lcc, _) = largest_connected_component(&graph);
    lcc
}

/// Generates a synthetic class-structured citation graph following `spec`.
pub fn generate(spec: &DatasetSpec, config: &GeneratorConfig) -> Graph {
    assert!(config.scale > 0.0 && config.scale <= 1.0, "scale must be in (0, 1]");
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(spec.name, config.seed));

    let n = ((spec.nodes as f64) * config.scale).round().max(40.0) as usize;
    let target_edges = ((spec.edges as f64) * config.scale).round().max(60.0) as usize;
    let d = (((spec.features as f64) * config.scale).round() as usize).max(config.min_features);
    let classes = spec.classes;

    // Balanced-ish class assignment with a little randomness.
    let mut labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
    labels.shuffle(&mut rng);

    let builder = generate_edges(n, target_edges, &labels, spec.homophily, &mut rng);
    let features = generate_features(n, d, classes, &labels, config, &mut rng);

    Graph::from_csr(builder.into_csr(), features, labels, classes)
}

/// Degree-corrected planted-partition edges: nodes are processed in random order
/// and attach preferentially to already-popular nodes; the partner's class is the
/// node's own class with probability `homophily`.
fn generate_edges(n: usize, target_edges: usize, labels: &[usize], homophily: f64, rng: &mut impl Rng) -> GraphBuilder {
    let classes = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); classes];
    for (i, &c) in labels.iter().enumerate() {
        by_class[c].push(i);
    }

    let mut adj = GraphBuilder::new(n);
    let mut edges = 0usize;

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);

    // Backbone: connect each new node to a previously placed node, preferring a
    // same-class partner with probability `homophily`. This keeps most of the graph
    // in one component while already respecting the homophily target.
    for w in 1..order.len() {
        let u = order[w];
        let placed = &order[..w];
        let same_class = rng.gen::<f64>() < homophily;
        let v = pick_partner(placed, labels, labels[u], same_class, &adj, rng);
        if adj.add_edge(u, v) {
            edges += 1;
        }
    }

    // Extra edges up to the target count, with preferential attachment so that a
    // heavy-tailed (hub-containing) degree distribution emerges.
    let mut attempts = 0usize;
    let max_attempts = target_edges * 50;
    while edges < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = order[rng.gen_range(0..n)];
        let same_class = rng.gen::<f64>() < homophily;
        let pool: &[usize] = if same_class {
            &by_class[labels[u]]
        } else {
            &by_class[(labels[u] + rng.gen_range(1..classes.max(2))) % classes]
        };
        if pool.len() < 2 {
            continue;
        }
        let v = pick_partner(pool, labels, labels[u], same_class, &adj, rng);
        if adj.add_edge(u, v) {
            edges += 1;
        }
    }
    adj
}

/// Picks an attachment partner from `pool`, preferring same-class nodes when
/// `same_class` is set and skewing toward high-degree nodes (preferential
/// attachment via a best-of-3 tournament).
fn pick_partner(
    pool: &[usize],
    labels: &[usize],
    class: usize,
    same_class: bool,
    adj: &GraphBuilder,
    rng: &mut impl Rng,
) -> usize {
    let matching: Vec<usize> = if same_class {
        pool.iter().copied().filter(|&v| labels[v] == class).collect()
    } else {
        Vec::new()
    };
    let candidates: &[usize] = if !matching.is_empty() { &matching } else { pool };
    let mut best = candidates[rng.gen_range(0..candidates.len())];
    for _ in 0..2 {
        let cand = candidates[rng.gen_range(0..candidates.len())];
        if adj.degree(cand) > adj.degree(best) {
            best = cand;
        }
    }
    best
}

/// Sparse bag-of-words features: the vocabulary is partitioned into per-class
/// topic blocks plus a shared block; each node activates `words_per_node` words,
/// mostly from its own class block (shared with every synthetic family via
/// [`topic_features`]).
fn generate_features(
    n: usize,
    d: usize,
    classes: usize,
    labels: &[usize],
    config: &GeneratorConfig,
    rng: &mut impl Rng,
) -> Matrix {
    topic_features(n, d, classes, labels, config.words_per_node, config.topic_affinity, rng)
}

/// Adapter exposing one synthetic citation dataset as a [`GraphFamily`], so the
/// paper's three benchmarks are ordinary members of the scenario registry rather
/// than the only way to obtain a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CitationFamily {
    dataset: DatasetName,
}

impl CitationFamily {
    /// Wraps `dataset` as a graph family.
    pub fn new(dataset: DatasetName) -> Self {
        Self { dataset }
    }

    /// The wrapped dataset.
    pub fn dataset(&self) -> DatasetName {
        self.dataset
    }
}

impl GraphFamily for CitationFamily {
    fn name(&self) -> &'static str {
        match self.dataset {
            DatasetName::Citeseer => "citeseer",
            DatasetName::Cora => "cora",
            DatasetName::Acm => "acm",
        }
    }

    fn reference_nodes(&self) -> usize {
        self.dataset.spec().nodes
    }

    fn generate(&self, config: &FamilyConfig) -> Graph {
        generate(
            &self.dataset.spec(),
            &GeneratorConfig::at_scale(config.scale, config.seed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_names() {
        assert_eq!(DatasetName::parse("cora"), Some(DatasetName::Cora));
        assert_eq!(DatasetName::parse("CiteSeer"), Some(DatasetName::Citeseer));
        assert_eq!(DatasetName::parse("unknown"), None);
        assert_eq!(DatasetName::Acm.as_str(), "ACM");
    }

    #[test]
    fn specs_match_paper_table3() {
        let c = DatasetName::Citeseer.spec();
        assert_eq!((c.nodes, c.edges, c.classes, c.features), (2110, 3668, 6, 3703));
        let c = DatasetName::Cora.spec();
        assert_eq!((c.nodes, c.edges, c.classes, c.features), (2485, 5069, 7, 1433));
        let c = DatasetName::Acm.spec();
        assert_eq!((c.nodes, c.edges, c.classes, c.features), (3025, 13128, 3, 1870));
    }

    #[test]
    fn generated_graph_matches_scaled_statistics() {
        let cfg = GeneratorConfig::at_scale(0.15, 7);
        let spec = DatasetName::Cora.spec();
        let g = generate(&spec, &cfg);
        let expected_nodes = (spec.nodes as f64 * cfg.scale).round() as usize;
        assert_eq!(g.num_nodes(), expected_nodes);
        assert_eq!(g.num_classes(), spec.classes);
        let expected_edges = (spec.edges as f64 * cfg.scale).round() as usize;
        let e = g.num_edges();
        assert!(
            e as f64 > 0.7 * expected_edges as f64 && (e as f64) < 1.3 * expected_edges as f64,
            "edge count {e} too far from target {expected_edges}"
        );
    }

    #[test]
    fn generated_graph_is_homophilous() {
        let cfg = GeneratorConfig::at_scale(0.15, 3);
        let g = generate(&DatasetName::Citeseer.spec(), &cfg);
        let h = g.edge_homophily();
        assert!(h > 0.55, "homophily {h} too low for a citation-like graph");
    }

    #[test]
    fn features_are_sparse_and_class_correlated() {
        let cfg = GeneratorConfig::at_scale(0.15, 11);
        let spec = DatasetName::Acm.spec();
        let g = generate(&spec, &cfg);
        let x = g.features().to_dense();
        // Sparse: average active words per node close to the configured number.
        let avg_active = x.sum() / g.num_nodes() as f64;
        assert!(avg_active < 1.5 * cfg.words_per_node as f64);
        // Class-correlated: same-class nodes share more active words than
        // different-class nodes on average.
        let labels = g.labels();
        let mut same = (0.0, 0usize);
        let mut diff = (0.0, 0usize);
        for i in (0..g.num_nodes()).step_by(7) {
            for j in (i + 1..g.num_nodes()).step_by(11) {
                let overlap: f64 = x.row(i).iter().zip(x.row(j)).map(|(a, b)| a * b).sum();
                if labels[i] == labels[j] {
                    same = (same.0 + overlap, same.1 + 1);
                } else {
                    diff = (diff.0 + overlap, diff.1 + 1);
                }
            }
        }
        let same_avg = same.0 / same.1.max(1) as f64;
        let diff_avg = diff.0 / diff.1.max(1) as f64;
        assert!(
            same_avg > diff_avg,
            "same-class overlap {same_avg} <= cross-class {diff_avg}"
        );
    }

    #[test]
    fn load_returns_connected_graph() {
        let cfg = GeneratorConfig::at_scale(0.12, 5);
        let g = load(DatasetName::Cora, &cfg);
        let comps = g.csr().connected_components();
        assert!(comps.iter().all(|&c| c == comps[0]), "LCC must be connected");
        assert!(g.num_nodes() > 100);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::at_scale(0.1, 42);
        let a = generate(&DatasetName::Citeseer.spec(), &cfg);
        let b = generate(&DatasetName::Citeseer.spec(), &cfg);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.csr(), b.csr());
        assert_eq!(a.features(), b.features());
    }

    #[test]
    fn citation_family_adapter_matches_direct_generation() {
        let family = CitationFamily::new(DatasetName::Cora);
        assert_eq!(family.name(), "cora");
        assert_eq!(family.dataset(), DatasetName::Cora);
        let via_family = family.generate(&FamilyConfig::new(0.1, 42));
        let direct = generate(&DatasetName::Cora.spec(), &GeneratorConfig::at_scale(0.1, 42));
        assert_eq!(via_family.csr(), direct.csr());
        assert_eq!(via_family.features(), direct.features());
        assert_eq!(via_family.labels(), direct.labels());
        // The default `load` applies the same LCC preprocessing as `datasets::load`.
        let loaded = family.load(&FamilyConfig::new(0.1, 42));
        let reference = load(DatasetName::Cora, &GeneratorConfig::at_scale(0.1, 42));
        assert_eq!(loaded.num_nodes(), reference.num_nodes());
        assert_eq!(loaded.num_edges(), reference.num_edges());
    }

    #[test]
    fn different_datasets_get_different_streams() {
        let cfg = GeneratorConfig::at_scale(0.1, 42);
        let a = generate(&DatasetName::Citeseer.spec(), &cfg);
        let b = generate(&DatasetName::Cora.spec(), &cfg);
        assert_ne!(a.num_nodes(), b.num_nodes());
    }
}
