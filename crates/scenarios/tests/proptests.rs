//! Property tests of the scenario generators: every family must be seed-
//! deterministic, connected after LCC extraction, class-structured enough to
//! train on, and shaped like the topology it claims to model.

use proptest::prelude::*;

use geattack_graph::{FamilyConfig, GraphFamily};
use geattack_scenarios::registry;

/// The synthetic families (the citation adapters are covered by the
/// `geattack-graph` unit tests).
const SYNTHETIC: [&str; 3] = ["ba-shapes", "powerlaw-cluster", "tree-cycles"];

fn family(name: &str) -> Box<dyn GraphFamily> {
    registry::resolve(name).unwrap_or_else(|| panic!("{name} must resolve"))
}

fn degree_stats(graph: &geattack_graph::Graph) -> (f64, usize) {
    let n = graph.num_nodes();
    let degrees: Vec<usize> = (0..n).map(|i| graph.degree(i)).collect();
    let avg = degrees.iter().sum::<usize>() as f64 / n as f64;
    let max = degrees.iter().copied().max().unwrap_or(0);
    (avg, max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn generation_is_deterministic_per_seed(seed in 0u64..1000, idx in 0usize..SYNTHETIC.len()) {
        let name = SYNTHETIC[idx];
        let config = FamilyConfig::new(0.1, seed);
        let a = family(name).generate(&config);
        let b = family(name).generate(&config);
        prop_assert!(a.csr() == b.csr(), "{name}: adjacency differs");
        prop_assert!(a.features() == b.features(), "{name}: features differ");
        prop_assert_eq!(a.labels(), b.labels(), "{name}: labels differ");
    }

    #[test]
    fn different_seeds_give_different_graphs(seed in 0u64..1000, idx in 0usize..SYNTHETIC.len()) {
        let name = SYNTHETIC[idx];
        let a = family(name).generate(&FamilyConfig::new(0.12, seed));
        let b = family(name).generate(&FamilyConfig::new(0.12, seed + 1));
        prop_assert!(
            a.csr() != b.csr() || a.features() != b.features(),
            "{}: seeds {} and {} produced identical graphs",
            name, seed, seed + 1
        );
    }

    #[test]
    fn load_returns_a_connected_graph(seed in 0u64..200, idx in 0usize..SYNTHETIC.len()) {
        let name = SYNTHETIC[idx];
        let graph = family(name).load(&FamilyConfig::new(0.1, seed));
        let comps = graph.csr().connected_components();
        prop_assert!(comps.iter().all(|&c| c == comps[0]), "{name}: LCC must be one component");
        prop_assert!(graph.num_nodes() >= 30, "{name}: LCC too small ({} nodes)", graph.num_nodes());
        // Every class must survive preprocessing so stratified splits work.
        for class in 0..graph.num_classes() {
            prop_assert!(
                !graph.nodes_with_label(class).is_empty(),
                "{name}: class {class} vanished in the LCC"
            );
        }
    }

    #[test]
    fn degree_distributions_match_the_family_shape(seed in 0u64..50) {
        // BA-Shapes is hub-dominated: the max degree towers over the average.
        let ba = family("ba-shapes").generate(&FamilyConfig::new(0.3, seed));
        let (ba_avg, ba_max) = degree_stats(&ba);
        prop_assert!(
            ba_max as f64 > 3.0 * ba_avg,
            "ba-shapes: expected hubs (max {ba_max} vs avg {ba_avg:.2})"
        );

        // Tree-Cycles is sparse: parent + two children + a few cycle anchors.
        let tc = family("tree-cycles").generate(&FamilyConfig::new(0.3, seed));
        let (tc_avg, _) = degree_stats(&tc);
        prop_assert!(
            tc_avg < 3.5,
            "tree-cycles: average degree {tc_avg:.2} too high for a tree with motifs"
        );

        // Powerlaw-cluster keeps BA's hubs while the triad steps add the
        // triangles preferential attachment alone lacks: ablating the triad
        // probability to zero must collapse the triangle count.
        let pc = family("powerlaw-cluster").generate(&FamilyConfig::new(0.3, seed));
        let (pc_avg, pc_max) = degree_stats(&pc);
        prop_assert!(
            pc_max as f64 > 3.0 * pc_avg,
            "powerlaw-cluster: expected hubs (max {pc_max} vs avg {pc_avg:.2})"
        );
        let no_triads = geattack_scenarios::PowerlawCluster {
            triad: 0.0,
            ..Default::default()
        }
        .generate(&FamilyConfig::new(0.3, seed));
        // Preferential attachment alone already closes some triangles through
        // the hubs, so the bar is a robust 1.5x, not a fixed count.
        prop_assert!(
            2 * triangle_count(&pc) > 3 * triangle_count(&no_triads).max(1),
            "triad formation must drive the clustering ({} vs {} triangles without triads)",
            triangle_count(&pc),
            triangle_count(&no_triads)
        );
    }
}

/// Number of triangles (each counted once) in the graph: for every edge
/// `(i, j)` with `i < j`, count the common neighbors above `j` by merging the
/// two ascending CSR neighbor lists.
fn triangle_count(graph: &geattack_graph::Graph) -> usize {
    let mut count = 0;
    for (i, j) in graph.edges() {
        let (mut a, mut b) = (graph.neighbors(i), graph.neighbors(j));
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => a = &a[1..],
                std::cmp::Ordering::Greater => b = &b[1..],
                std::cmp::Ordering::Equal => {
                    if x > j {
                        count += 1;
                    }
                    a = &a[1..];
                    b = &b[1..];
                }
            }
        }
    }
    count
}

#[test]
fn scale_grows_every_family() {
    for name in SYNTHETIC {
        let small = family(name).generate(&FamilyConfig::new(0.1, 0));
        let large = family(name).generate(&FamilyConfig::new(0.6, 0));
        assert!(
            large.num_nodes() > small.num_nodes(),
            "{name}: scale 0.6 ({} nodes) not larger than scale 0.1 ({} nodes)",
            large.num_nodes(),
            small.num_nodes()
        );
    }
}
