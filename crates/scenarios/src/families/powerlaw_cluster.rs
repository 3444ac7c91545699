//! Holme–Kim powerlaw-cluster graphs: preferential attachment with triad
//! formation.
//!
//! Plain Barabási–Albert growth yields the heavy-tailed degree distribution of
//! real networks but almost no triangles; Holme & Kim (2002) interleave each
//! preferential-attachment step with a *triad-formation* step — with
//! probability `triad`, the new node also links to a random neighbour of the
//! node it just attached to — producing hubs **and** high clustering at once.
//! That combination (social-network-like structure) is a distinct regime from
//! the motif-planted BA-Shapes: explanation masks concentrate on dense triangle neighbourhoods while
//! gradient attacks still find cheap hub edges.
//!
//! Labels are assigned by attachment wave (contiguous growth phases), so early
//! high-degree nodes and late low-degree nodes carry different classes while
//! features stay class-correlated through [`topic_features`].
//!
//! Generation is CSR-native: a [`GraphBuilder`] plus a `DegreeTree` replace
//! the old dense matrix and linear roulette scan, so the `huge` preset grows
//! 100k-node graphs in `O(n·m·log n)` time and `O(E)` memory while every
//! existing preset stays byte-identical (same RNG stream, same picks).

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_graph::family::{stream_seed, topic_features, FamilyConfig, GraphFamily};
use geattack_graph::{Graph, GraphBuilder};

use super::{feature_dim, DegreeTree};

/// Holme–Kim generator. Reference scale: 500 nodes, 2 attachment edges per new
/// node, 60% triad-formation probability, 4 growth-wave classes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerlawCluster {
    /// Node count at scale 1.0.
    pub nodes: usize,
    /// Edges each new node attaches with (the BA `m` parameter).
    pub attach_edges: usize,
    /// Probability of a triad-formation step after each attachment.
    pub triad: f64,
    /// Number of growth-wave classes.
    pub classes: usize,
    /// Registry name (the registry also exposes the 100k-node `huge` preset as
    /// a distinct family).
    pub name: &'static str,
}

impl Default for PowerlawCluster {
    fn default() -> Self {
        Self {
            nodes: 500,
            attach_edges: 2,
            triad: 0.6,
            classes: 4,
            name: "powerlaw-cluster",
        }
    }
}

impl PowerlawCluster {
    /// The 100k-node preset, registered as `powerlaw-cluster-huge`. Same shape
    /// parameters as the default family — only the reference node count grows,
    /// exercising the sparse end-to-end path at a scale the dense core could
    /// never hold in memory.
    pub fn huge() -> Self {
        Self {
            nodes: 100_000,
            name: "powerlaw-cluster-huge",
            ..Self::default()
        }
    }
}

impl GraphFamily for PowerlawCluster {
    fn name(&self) -> &'static str {
        self.name
    }

    fn reference_nodes(&self) -> usize {
        self.nodes
    }

    fn generate(&self, config: &FamilyConfig) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(self.name(), config.seed));
        let n = ((self.nodes as f64 * config.scale).round() as usize).max(60);
        let m = self.attach_edges.max(1).min(n - 1);

        let mut builder = GraphBuilder::new(n);
        let mut degree = DegreeTree::new(n);
        let add = |builder: &mut GraphBuilder, degree: &mut DegreeTree, u: usize, v: usize| -> bool {
            if builder.add_edge(u, v) {
                degree.add(u, 1);
                degree.add(v, 1);
                return true;
            }
            false
        };

        // Seed clique of m+1 nodes, as in the BA base.
        for u in 0..=m {
            for v in 0..u {
                add(&mut builder, &mut degree, u, v);
            }
        }

        // Growth: each new node makes m attachments. The first is always
        // preferential; each subsequent one is, with probability `triad`, a
        // triad-formation step toward a random neighbour of the previous
        // attachment target (falling back to preferential attachment when
        // every such neighbour is already linked).
        for u in (m + 1)..n {
            let preferential = |rng: &mut ChaCha8Rng, degree: &DegreeTree, u: usize| -> usize {
                let total = degree.prefix(u);
                let ticket = rng.gen_range(0..total.max(1));
                if total == 0 {
                    0
                } else {
                    degree.pick(ticket)
                }
            };
            let mut last_target: Option<usize> = None;
            let mut attached = 0usize;
            let mut guard = 0usize;
            while attached < m && guard < 50 * m {
                guard += 1;
                let target = match last_target {
                    Some(anchor) if rng.gen::<f64>() < self.triad => {
                        // Triad formation: a uniformly random neighbour of the
                        // anchor that `u` is not yet linked to. Only nodes below
                        // `u` exist yet, so the anchor's ascending neighbour
                        // slice filtered to `w < u` enumerates exactly the old
                        // dense scan's candidate list, in the same order.
                        let candidates: Vec<usize> = builder
                            .neighbors(anchor)
                            .iter()
                            .copied()
                            .filter(|&w| w < u && !builder.has_edge(u, w))
                            .collect();
                        if candidates.is_empty() {
                            preferential(&mut rng, &degree, u)
                        } else {
                            candidates[rng.gen_range(0..candidates.len())]
                        }
                    }
                    _ => preferential(&mut rng, &degree, u),
                };
                if add(&mut builder, &mut degree, u, target) {
                    attached += 1;
                    last_target = Some(target);
                }
            }
        }

        // Growth waves as classes: node i's class is its attachment phase.
        let labels: Vec<usize> = (0..n).map(|i| (i * self.classes) / n).collect();
        let d = feature_dim(config.scale);
        let features = topic_features(n, d, self.classes, &labels, 16, 0.85, &mut rng);
        Graph::from_csr(builder.into_csr(), features, labels, self.classes)
    }
}
