//! Shared helpers for the runnable examples: a small synthetic dataset, a trained
//! GCN and a victim node, so every example can focus on the part it demonstrates.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_gnn::{train, Gcn, TrainConfig};
use geattack_graph::datasets::{load, DatasetName};
use geattack_graph::{stratified_split, DataSplit, FamilyConfig, Graph};

/// A ready-to-attack setup: graph, trained model, split and a correctly-classified
/// victim with a chosen (incorrect) target label.
pub struct DemoSetup {
    /// The clean synthetic graph.
    pub graph: Graph,
    /// The trained GCN.
    pub model: Gcn,
    /// Train/val/test split.
    pub split: DataSplit,
    /// The victim node.
    pub victim: usize,
    /// The label the attacker wants the model to predict.
    pub target_label: usize,
}

/// Builds a small CORA-like setup (a few hundred nodes, trains in about a second).
pub fn demo_setup(scale: f64, seed: u64) -> DemoSetup {
    let graph = load(DatasetName::Cora, &FamilyConfig::new(scale, seed));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
    let trained = train(
        &graph,
        &split,
        &TrainConfig {
            epochs: 120,
            patience: Some(30),
            seed,
            ..Default::default()
        },
    );
    let model = trained.model;

    let preds = model.predict_labels(&graph);
    let victim = split
        .test
        .iter()
        .copied()
        .find(|&i| preds[i] == graph.label(i) && graph.degree(i) >= 3)
        .expect("no suitable victim in the test split");
    let target_label = (graph.label(victim) + 1) % graph.num_classes();
    DemoSetup {
        graph,
        model,
        split,
        victim,
        target_label,
    }
}
