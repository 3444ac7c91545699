//! Quickstart: train a GCN on a synthetic citation graph, jointly attack it with
//! GEAttack, and check (a) whether the prediction flipped and (b) whether
//! GNNExplainer would reveal the inserted edges.
//!
//! ```text
//! cargo run --release -p geattack-examples --bin quickstart
//! ```

use geattack_attack::{AttackContext, TargetedAttack};
use geattack_core::{GeAttack, GeAttackConfig};
use geattack_examples::demo_setup;
use geattack_explain::{detection_scores, Explainer, GnnExplainer, GnnExplainerConfig};
use geattack_gnn::accuracy;

fn main() {
    let setup = demo_setup(0.12, 7);
    let test_acc = accuracy(&setup.model, &setup.graph, &setup.split.test);
    println!("GCN test accuracy on the clean graph: {:.1}%", test_acc * 100.0);
    println!(
        "victim node {} (degree {}), true label {}, attacker's target label {}",
        setup.victim,
        setup.graph.degree(setup.victim),
        setup.graph.label(setup.victim),
        setup.target_label
    );

    // Run GEAttack with the paper's default λ = 20 and Δ = degree(victim),
    // against the GNNExplainer an inspector will run.
    let ctx = AttackContext::with_degree_budget(&setup.model, &setup.graph, setup.victim, setup.target_label);
    let explainer = GnnExplainer::new(GnnExplainerConfig::default());
    let attack = GeAttack::new(explainer.clone(), GeAttackConfig::default());
    let perturbation = attack.attack(&ctx);
    println!(
        "GEAttack inserted {} adversarial edges: {:?}",
        perturbation.size(),
        perturbation.added()
    );

    let attacked = perturbation.apply(&setup.graph);
    let new_prediction = setup.model.predict_proba(&attacked).argmax_row(setup.victim);
    println!(
        "prediction after the attack: {} ({})",
        new_prediction,
        if new_prediction == setup.target_label {
            "target label reached"
        } else {
            "target label NOT reached"
        }
    );

    // Would an inspector running GNNExplainer notice the inserted edges?
    let explanation = explainer.explain(&setup.model, &attacked, setup.victim).truncated(20);
    let scores = detection_scores(&explanation, perturbation.added(), 15);
    println!(
        "GNNExplainer detection of the adversarial edges:  Precision@15 {:.2}  Recall@15 {:.2}  F1@15 {:.2}  NDCG@15 {:.2}",
        scores.precision, scores.recall, scores.f1, scores.ndcg
    );
    for &(u, v) in perturbation.added() {
        match explanation.rank_of(u, v) {
            Some(rank) => println!(
                "  adversarial edge ({u},{v}) appears at rank {} of the explanation",
                rank + 1
            ),
            None => println!("  adversarial edge ({u},{v}) does not appear in the top-20 explanation"),
        }
    }
}
