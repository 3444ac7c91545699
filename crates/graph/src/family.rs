//! The pluggable graph-generator abstraction behind the scenario subsystem.
//!
//! The paper evaluates only on three citation graphs, but the claim it makes —
//! that jointly attacking the GNN and its explainer evades explanation-based
//! detection — is a statement about *graphs*, not about CITESEER. [`GraphFamily`]
//! turns "where the graph comes from" into a trait: every implementation is a
//! **seeded, deterministic** generator that maps a [`FamilyConfig`] (scale +
//! seed) to a [`Graph`]. The citation generators of [`crate::datasets`] are one
//! implementation ([`crate::datasets::CitationFamily`]); the `geattack-scenarios`
//! crate registers synthetic families with different topology (BA-Shapes,
//! powerlaw-cluster, Tree-Cycles) behind the same trait, so the
//! whole attack x explainer pipeline can sweep across graph families without
//! knowing how any of them is built.
//!
//! Determinism contract: two calls to [`GraphFamily::generate`] with equal
//! configs must return byte-identical graphs (same adjacency, features and
//! labels), on any thread. The scenario sweep runner relies on this to make
//! parallel and serial sweeps produce identical reports.

use rand::Rng;
use serde::{Deserialize, Serialize};

use geattack_tensor::Matrix;

use crate::graph::Graph;
use crate::preprocess::largest_connected_component;

/// The two knobs every graph family understands: how big, and which random
/// stream. Family-specific shape parameters (motif counts, triad
/// probability, ...) live on the family value itself.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FamilyConfig {
    /// Size factor in `(0, 1]`; `1.0` is the family's reference scale.
    pub scale: f64,
    /// RNG seed; combined with the family name so different families draw from
    /// distinct streams under the same seed.
    pub seed: u64,
}

impl FamilyConfig {
    /// Creates a config, checking the scale is usable.
    pub fn new(scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1], got {scale}");
        Self { scale, seed }
    }
}

/// A seeded, deterministic generator of attributed graphs.
///
/// Implementations must be pure functions of the config: no global state, no
/// ambient randomness. The default [`load`](GraphFamily::load) applies the
/// paper's preprocessing (largest connected component) on top of
/// [`generate`](GraphFamily::generate).
pub trait GraphFamily: Send + Sync {
    /// Registry key of the family (lower-case, kebab-case, e.g. `ba-shapes`).
    fn name(&self) -> &'static str;

    /// Generates the raw graph for `config`. Must be deterministic per config.
    fn generate(&self, config: &FamilyConfig) -> Graph;

    /// Approximate node count of the generated graph at `scale = 1.0`.
    ///
    /// A **cost estimate** for schedulers (the sweep runner orders cells by
    /// `(reference_nodes · scale)² · epochs` so the work queue starts the
    /// biggest cells first), not a contract: LCC extraction and family-specific
    /// structure shift the exact count.
    fn reference_nodes(&self) -> usize {
        500
    }

    /// Generates the graph and keeps only its largest connected component,
    /// mirroring the preprocessing the paper applies to the citation datasets.
    fn load(&self, config: &FamilyConfig) -> Graph {
        let (lcc, _) = largest_connected_component(&self.generate(config));
        lcc
    }
}

/// Derives a per-family RNG seed from the user seed, so `seed = 0` does not make
/// every family sample the same ChaCha stream (small FNV-1a over the name).
pub fn stream_seed(name: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ seed
}

/// Sparse class-correlated bag-of-words features shared by every synthetic
/// family: the vocabulary is partitioned into one topic block per class plus a
/// shared block; each node activates `words_per_node` words, drawn from its own
/// class block with probability `topic_affinity` and uniformly otherwise. A GCN
/// reaches realistic accuracy on such features, which is what the attack and
/// explainer pipeline needs from any family.
pub fn topic_features(
    n: usize,
    d: usize,
    classes: usize,
    labels: &[usize],
    words_per_node: usize,
    topic_affinity: f64,
    rng: &mut impl Rng,
) -> Matrix {
    let block = d / (classes + 1).max(1);
    let mut features = Matrix::zeros(n, d);
    for i in 0..n {
        let class_block_start = labels[i] * block;
        for _ in 0..words_per_node {
            let j = if rng.gen::<f64>() < topic_affinity && block > 0 {
                class_block_start + rng.gen_range(0..block)
            } else {
                rng.gen_range(0..d)
            };
            features[(i, j)] = 1.0;
        }
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    struct TwoTriangles;

    impl GraphFamily for TwoTriangles {
        fn name(&self) -> &'static str {
            "two-triangles"
        }

        fn generate(&self, config: &FamilyConfig) -> Graph {
            // Two disjoint triangles; seed shifts which one carries an extra node
            // so the LCC is deterministic but seed-dependent.
            let big = (config.seed % 2) as usize * 3;
            let mut adj = Matrix::zeros(7, 7);
            for &(u, v) in &[(0usize, 1usize), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
                adj[(u, v)] = 1.0;
                adj[(v, u)] = 1.0;
            }
            adj[(big, 6)] = 1.0;
            adj[(6, big)] = 1.0;
            let labels = vec![0, 0, 1, 1, 0, 1, 0];
            let features = Matrix::from_fn(7, 2, |i, j| ((i + j) % 2) as f64);
            Graph::new(adj, features, labels, 2)
        }
    }

    #[test]
    fn default_load_extracts_lcc() {
        let family = TwoTriangles;
        let g = family.load(&FamilyConfig::new(1.0, 0));
        assert_eq!(g.num_nodes(), 4, "triangle plus attached node");
        let g = family.load(&FamilyConfig::new(1.0, 1));
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn stream_seed_separates_families() {
        assert_ne!(stream_seed("ba-shapes", 0), stream_seed("tree-cycles", 0));
        assert_ne!(stream_seed("ba-shapes", 0), stream_seed("ba-shapes", 1));
        assert_eq!(stream_seed("powerlaw-cluster", 9), stream_seed("powerlaw-cluster", 9));
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_rejected() {
        let _ = FamilyConfig::new(0.0, 0);
    }

    #[test]
    fn topic_features_are_class_correlated() {
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x = topic_features(40, 64, 2, &labels, 12, 0.9, &mut rng);
        let overlap = |i: usize, j: usize| -> f64 { x.row(i).iter().zip(x.row(j)).map(|(a, b)| a * b).sum() };
        let mut same = 0.0;
        let mut diff = 0.0;
        for i in 0..40 {
            for j in (i + 1)..40 {
                if labels[i] == labels[j] {
                    same += overlap(i, j);
                } else {
                    diff += overlap(i, j);
                }
            }
        }
        assert!(same > diff, "same-class word overlap {same} <= cross-class {diff}");
    }
}
