//! The synthetic graph families of the scenario subsystem.
//!
//! Each family is a [`geattack_graph::GraphFamily`]: a seeded, deterministic
//! generator with a characteristic topology. Together with the citation
//! adapters from `geattack-graph` they cover three structurally distinct
//! synthetic regimes — hub-dominated preferential attachment with planted
//! motifs ([`ba_shapes`]), hub-and-triangle powerlaw-cluster graphs
//! ([`powerlaw_cluster`], whose `huge` preset is the 100k-node rung of the
//! workload ladder) and sparse bridge-heavy trees with cycle motifs
//! ([`tree_cycles`]). BA-Shapes and Tree-Cycles are the two synthetic
//! benchmarks GNNExplainer was evaluated on.

pub mod ba_shapes;
pub mod powerlaw_cluster;
pub mod tree_cycles;

pub use ba_shapes::BaShapes;
pub use powerlaw_cluster::PowerlawCluster;
pub use tree_cycles::TreeCycles;

/// Feature dimensionality shared by the synthetic families: enough topic words
/// per class for a GCN to learn from, scaled down with the graph so quick-mode
/// sweeps stay fast.
pub(crate) fn feature_dim(scale: f64) -> usize {
    ((160.0 * scale).round() as usize).max(64)
}

/// Fenwick (binary-indexed) tree over node degrees, for `O(log n)`
/// degree-proportional roulette picks in the preferential-attachment families.
///
/// [`DegreeTree::pick`] returns exactly the node the generators' original
/// linear scan over `degree[..u]` returned — the smallest `v` whose cumulative
/// degree prefix exceeds the ticket — so swapping the scan for the tree leaves
/// every RNG-driven graph byte-identical while dropping generation from
/// `O(n²·m)` to `O(n·m·log n)`.
pub(crate) struct DegreeTree {
    tree: Vec<usize>,
}

impl DegreeTree {
    /// A tree over `n` nodes, all with degree zero.
    pub(crate) fn new(n: usize) -> Self {
        Self { tree: vec![0; n + 1] }
    }

    /// Increments node `v`'s degree by `delta`.
    pub(crate) fn add(&mut self, v: usize, delta: usize) {
        let mut i = v + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the degrees of nodes `0..k`.
    pub(crate) fn prefix(&self, k: usize) -> usize {
        let mut i = k;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// The smallest `v` with `prefix(v + 1) > ticket` — i.e. the node a linear
    /// roulette scan lands on. Requires `ticket < prefix(n)`.
    pub(crate) fn pick(&self, mut ticket: usize) -> usize {
        let n = self.tree.len() - 1;
        let mut pos = 0usize;
        let mut bit = n.next_power_of_two();
        while bit > 0 {
            let next = pos + bit;
            if next <= n && self.tree[next] <= ticket {
                ticket -= self.tree[next];
                pos = next;
            }
            bit >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::DegreeTree;

    #[test]
    fn pick_matches_linear_roulette_scan() {
        let degrees = [0usize, 3, 0, 1, 5, 0, 2];
        let mut tree = DegreeTree::new(degrees.len());
        for (v, &d) in degrees.iter().enumerate() {
            tree.add(v, d);
        }
        let total: usize = degrees.iter().sum();
        assert_eq!(tree.prefix(degrees.len()), total);
        assert_eq!(tree.prefix(4), 4);
        for ticket in 0..total {
            // Reference: the generators' original linear scan.
            let mut remaining = ticket;
            let mut expected = 0;
            for (v, &d) in degrees.iter().enumerate() {
                if remaining < d {
                    expected = v;
                    break;
                }
                remaining -= d;
            }
            assert_eq!(tree.pick(ticket), expected, "ticket {ticket}");
        }
    }
}
