//! The preliminary study of Section 3 (Figures 1-3), in miniature: a conventional
//! attacker (Nettack) flips a node's prediction, and GNNExplainer — used as an
//! inspection tool — ranks the inserted adversarial edges near the top of the
//! explanation, where a human inspector would see them. GEAttack's edges, chosen
//! to evade the explainer, rank much lower.
//!
//! ```text
//! cargo run --release -p geattack-examples --bin inspector_study
//! ```

use geattack_attack::{AttackContext, Nettack, TargetedAttack};
use geattack_core::{GeAttack, GeAttackConfig};
use geattack_examples::demo_setup;
use geattack_explain::{detection_scores, Explainer, GnnExplainer, GnnExplainerConfig};

fn inspect(name: &str, setup: &geattack_examples::DemoSetup, attacker: &dyn TargetedAttack) {
    let ctx = AttackContext::with_degree_budget(&setup.model, &setup.graph, setup.victim, setup.target_label);
    let perturbation = attacker.attack(&ctx);
    let attacked = perturbation.apply(&setup.graph);
    let flipped = setup.model.predict_proba(&attacked).argmax_row(setup.victim) != setup.graph.label(setup.victim);

    let explainer = GnnExplainer::new(GnnExplainerConfig::default());
    let explanation = explainer.explain(&setup.model, &attacked, setup.victim).truncated(20);
    let scores = detection_scores(&explanation, perturbation.added(), 15);

    println!("== {name} ==");
    println!("  prediction flipped: {flipped}");
    println!("  adversarial edges and their explanation ranks:");
    for &(u, v) in perturbation.added() {
        let rank = explanation
            .rank_of(u, v)
            .map(|r| format!("rank {}", r + 1))
            .unwrap_or_else(|| "not in top-20".to_string());
        println!("    ({u},{v}): {rank}");
    }
    println!(
        "  detection scores: F1@15 {:.2}, NDCG@15 {:.2}  (higher = easier for the inspector to spot)",
        scores.f1, scores.ndcg
    );
    println!();
}

fn main() {
    let setup = demo_setup(0.12, 11);
    println!(
        "victim node {} (degree {}), attacking toward label {}\n",
        setup.victim,
        setup.graph.degree(setup.victim),
        setup.target_label
    );
    inspect(
        "Attacker 1: Nettack (attacks the GCN only)",
        &setup,
        &Nettack::default(),
    );
    inspect(
        "Attacker 2: GEAttack (attacks the GCN and its explanations)",
        &setup,
        &GeAttack::new(
            GnnExplainer::new(GnnExplainerConfig::default()),
            GeAttackConfig::default(),
        ),
    );
    println!("The joint attacker keeps its edges out of the top ranks of the explanation,");
    println!("so an inspector examining the explanation subgraph is unlikely to notice them.");
}
