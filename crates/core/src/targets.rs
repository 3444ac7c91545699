//! Victim (target node) selection and target-label assignment.
//!
//! Following the protocol of IG-Attack that the paper adopts (Section 5.1), 40
//! victims are selected from the correctly-classified test nodes: the 10 with the
//! highest classification margin, the 10 with the lowest margin, and the rest at
//! random. The *specific incorrect target label* for each victim is obtained by a
//! preliminary untargeted FGA pass: whatever wrong label FGA pushes the node to
//! becomes the label every targeted attacker must reach; victims FGA cannot flip
//! are discarded (the paper evaluates on the successfully attacked nodes).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_attack::{AttackContext, Fga, TargetedAttack};
use geattack_gnn::eval::prediction_from_probs;
use geattack_gnn::Gcn;
use geattack_graph::Graph;
use geattack_tensor::Matrix;

/// A victim node together with the label the attacker must force.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    /// Node id.
    pub node: usize,
    /// Ground-truth label.
    pub true_label: usize,
    /// Specific incorrect label the attack must produce (ASR-T is measured against
    /// this label).
    pub target_label: usize,
    /// Degree of the node in the clean graph (used for the degree-bucketed plots).
    pub degree: usize,
}

/// Configuration of victim selection.
#[derive(Clone, Debug)]
pub struct VictimSelectionConfig {
    /// Total number of victims (the paper uses 40).
    pub count: usize,
    /// How many top-margin nodes to include.
    pub top_margin: usize,
    /// How many bottom-margin nodes to include.
    pub bottom_margin: usize,
    /// RNG seed for the random remainder.
    pub seed: u64,
}

impl Default for VictimSelectionConfig {
    fn default() -> Self {
        Self {
            count: 40,
            top_margin: 10,
            bottom_margin: 10,
            seed: 0,
        }
    }
}

/// Selects victim nodes among `candidate_nodes` (typically the test split).
///
/// Only nodes the clean model classifies correctly are eligible — attacking an
/// already-misclassified node is meaningless for ASR.
pub fn select_victims(
    model: &Gcn,
    graph: &Graph,
    candidate_nodes: &[usize],
    config: &VictimSelectionConfig,
) -> Vec<usize> {
    select_victims_from_probs(&model.predict_proba(graph), graph, candidate_nodes, config)
}

/// [`select_victims`] from a precomputed clean-graph probability matrix
/// (`model.predict_proba(graph)` or [`geattack_gnn::BatchedForward::probs`]).
/// The pipeline computes that forward once and shares it between victim
/// selection and PGExplainer training; results are identical to
/// [`select_victims`].
pub fn select_victims_from_probs(
    probs: &Matrix,
    graph: &Graph,
    candidate_nodes: &[usize],
    config: &VictimSelectionConfig,
) -> Vec<usize> {
    let mut correct: Vec<_> = candidate_nodes
        .iter()
        .map(|&i| prediction_from_probs(probs, graph, i))
        .filter(|p| p.predicted == p.label)
        .collect();
    correct.sort_by(|a, b| b.margin.partial_cmp(&a.margin).unwrap_or(std::cmp::Ordering::Equal));

    let total = config.count.min(correct.len());
    let top_n = config.top_margin.min(total);
    let bottom_n = config.bottom_margin.min(total.saturating_sub(top_n));

    let mut chosen: Vec<usize> = Vec::with_capacity(total);
    chosen.extend(correct.iter().take(top_n).map(|p| p.node));
    chosen.extend(correct.iter().rev().take(bottom_n).map(|p| p.node));

    let mut remaining: Vec<usize> = correct.iter().map(|p| p.node).filter(|n| !chosen.contains(n)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    remaining.shuffle(&mut rng);
    chosen.extend(remaining.into_iter().take(total - chosen.len()));
    chosen
}

/// Runs the preliminary untargeted FGA pass to assign each victim its specific
/// target label. Victims whose prediction FGA cannot change are dropped.
pub fn assign_target_labels(model: &Gcn, graph: &Graph, victims: &[usize]) -> Vec<Victim> {
    let mut out = Vec::with_capacity(victims.len());
    for &node in victims {
        let true_label = graph.label(node);
        let ctx = AttackContext::with_degree_budget(model, graph, node, 0);
        let perturbation = Fga.attack(&ctx);
        if perturbation.is_empty() {
            continue;
        }
        let attacked = perturbation.apply(graph);
        let new_label = model.predict_proba(&attacked).argmax_row(node);
        if new_label != true_label {
            out.push(Victim {
                node,
                true_label,
                target_label: new_label,
                degree: graph.degree(node),
            });
        }
    }
    out
}

/// The victims of one degree bucket (Figures 2, 3 and 7): the first `count`
/// of `candidate_nodes` (in order) whose clean-graph degree is exactly
/// `degree` and whose clean prediction (`predictions`, one label per node) is
/// correct, with target labels assigned by [`assign_target_labels`].
pub fn victims_with_degree(
    model: &Gcn,
    graph: &Graph,
    predictions: &[usize],
    candidate_nodes: &[usize],
    degree: usize,
    count: usize,
) -> Vec<Victim> {
    let nodes: Vec<usize> = candidate_nodes
        .iter()
        .copied()
        .filter(|&n| graph.degree(n) == degree && predictions[n] == graph.label(n))
        .take(count)
        .collect();
    assign_target_labels(model, graph, &nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geattack_gnn::{train, TrainConfig};
    use geattack_graph::datasets::{load, DatasetName};
    use geattack_graph::{stratified_split, FamilyConfig};

    fn setup() -> (Graph, Gcn, Vec<usize>) {
        let cfg = FamilyConfig::new(0.08, 81);
        let graph = load(DatasetName::Cora, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
        let trained = train(
            &graph,
            &split,
            &TrainConfig {
                epochs: 80,
                patience: None,
                ..Default::default()
            },
        );
        (graph, trained.model, split.test)
    }

    #[test]
    fn selected_victims_are_correctly_classified() {
        let (graph, model, test_nodes) = setup();
        let config = VictimSelectionConfig {
            count: 12,
            top_margin: 4,
            bottom_margin: 4,
            seed: 1,
        };
        let victims = select_victims(&model, &graph, &test_nodes, &config);
        assert_eq!(victims.len(), 12);
        let preds = model.predict_labels(&graph);
        for &v in &victims {
            assert_eq!(preds[v], graph.label(v), "victim {v} is already misclassified");
            assert!(test_nodes.contains(&v));
        }
        // No duplicates.
        let mut unique = victims.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), victims.len());
    }

    #[test]
    fn target_labels_differ_from_truth() {
        let (graph, model, test_nodes) = setup();
        let config = VictimSelectionConfig {
            count: 8,
            top_margin: 2,
            bottom_margin: 2,
            seed: 2,
        };
        let victims = select_victims(&model, &graph, &test_nodes, &config);
        let assigned = assign_target_labels(&model, &graph, &victims);
        assert!(!assigned.is_empty(), "FGA pre-pass flipped no victims at all");
        for v in &assigned {
            assert_ne!(v.target_label, v.true_label);
            assert_eq!(v.degree, graph.degree(v.node));
        }
    }

    #[test]
    fn degree_bucketed_selection() {
        let (graph, model, test_nodes) = setup();
        let predictions = model.predict_labels(&graph);
        let victims = victims_with_degree(&model, &graph, &predictions, &test_nodes, 2, 5);
        assert!(!victims.is_empty() && victims.len() <= 5);
        let mut last = 0;
        for v in &victims {
            assert_eq!(v.degree, 2);
            assert_eq!(predictions[v.node], v.true_label, "only correctly classified nodes");
            assert_ne!(v.target_label, v.true_label);
            // Split order: each victim comes later in the candidate list.
            let at = test_nodes.iter().position(|&n| n == v.node).expect("a candidate");
            assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn probs_based_selection_matches_model_based() {
        let (graph, model, test_nodes) = setup();
        let config = VictimSelectionConfig {
            count: 10,
            top_margin: 3,
            bottom_margin: 3,
            seed: 7,
        };
        let direct = select_victims(&model, &graph, &test_nodes, &config);
        let forward = geattack_gnn::BatchedForward::new(&model, &graph);
        let shared = select_victims_from_probs(forward.probs(), &graph, &test_nodes, &config);
        assert_eq!(direct, shared, "shared-forward selection diverged");
    }

    #[test]
    fn selection_is_deterministic() {
        let (graph, model, test_nodes) = setup();
        let config = VictimSelectionConfig {
            count: 10,
            top_margin: 3,
            bottom_margin: 3,
            seed: 7,
        };
        let a = select_victims(&model, &graph, &test_nodes, &config);
        let b = select_victims(&model, &graph, &test_nodes, &config);
        assert_eq!(a, b);
    }
}
