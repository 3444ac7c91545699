//! Integration tests of the inspection story (Section 3 of the paper): explainers
//! surface conventionally-attacked edges, and the detection metrics behave
//! consistently across explainers.

use geattack_attack::{AttackContext, FgaT, TargetedAttack};
use geattack_core::pipeline::ExplainerKind;
use geattack_explain::{detection_scores, Explainer, GnnExplainer, GnnExplainerConfig};
use geattack_integration_tests::{tiny_config, tiny_prepared};

#[test]
fn gnnexplainer_detects_fga_t_edges_on_average() {
    let prepared = tiny_prepared("cora", 6);
    let explainer = GnnExplainer::new(GnnExplainerConfig {
        epochs: 30,
        ..Default::default()
    });
    let mut recalls = Vec::new();
    for victim in prepared.victims.iter().take(5) {
        let ctx = AttackContext::with_degree_budget(&prepared.model, &prepared.graph, victim.node, victim.target_label);
        let perturbation = FgaT::default().attack(&ctx);
        let attacked = perturbation.apply(&prepared.graph);
        let explanation = explainer.explain(&prepared.model, &attacked, victim.node).truncated(20);
        recalls.push(detection_scores(&explanation, perturbation.added(), 15).recall);
    }
    let mean_recall = recalls.iter().sum::<f64>() / recalls.len() as f64;
    assert!(
        mean_recall > 0.3,
        "GNNExplainer failed to surface FGA-T's adversarial edges (mean recall {mean_recall:.2})"
    );
}

#[test]
fn pgexplainer_pipeline_produces_valid_detection_scores() {
    let mut config = tiny_config("citeseer", 7);
    config.explainer = ExplainerKind::PgExplainer;
    config.victims.count = 4;
    let prepared = geattack_core::pipeline::prepare(config).unwrap();
    let inspector = prepared.inspector().unwrap();
    let victim = prepared.victims[0];
    let ctx = AttackContext::with_degree_budget(&prepared.model, &prepared.graph, victim.node, victim.target_label);
    let perturbation = FgaT::default().attack(&ctx);
    let attacked = perturbation.apply(&prepared.graph);
    let explanation = inspector.explain(&prepared.model, &attacked, victim.node);
    assert!(!explanation.is_empty());
    let scores = detection_scores(&explanation.truncated(20), perturbation.added(), 15);
    for value in [scores.precision, scores.recall, scores.f1, scores.ndcg] {
        assert!((0.0..=1.0).contains(&value));
    }
}

#[test]
fn explanation_of_clean_graph_contains_no_adversarial_edges() {
    // Sanity: detection metrics must be zero when nothing was perturbed.
    let prepared = tiny_prepared("cora", 8);
    let explainer = GnnExplainer::new(GnnExplainerConfig {
        epochs: 20,
        ..Default::default()
    });
    let victim = prepared.victims[0];
    let explanation = explainer.explain(&prepared.model, &prepared.graph, victim.node);
    let scores = detection_scores(&explanation, &[], 15);
    assert_eq!(scores.f1, 0.0);
    assert_eq!(scores.ndcg, 0.0);
}
