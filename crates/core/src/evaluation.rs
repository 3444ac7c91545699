//! Joint-attack evaluation: attack success rates plus explainer-based detection.

use serde::{Deserialize, Serialize};

use geattack_explain::{detection_scores, DetectionScores, Explainer};
use geattack_gnn::{BatchedForward, Gcn};
use geattack_graph::{Graph, Perturbation};

use crate::targets::Victim;

/// Outcome of attacking a single victim with a single attacker.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Victim node id.
    pub node: usize,
    /// Clean-graph degree of the victim.
    pub degree: usize,
    /// Number of adversarial edges actually inserted.
    pub perturbation_size: usize,
    /// `true` when the attacked prediction differs from the ground-truth label
    /// (the ASR numerator).
    pub success_any: bool,
    /// `true` when the attacked prediction equals the attacker's specific target
    /// label (the ASR-T numerator).
    pub success_target: bool,
    /// Detection scores of the adversarial edges in the explainer's output.
    pub detection: DetectionScores,
}

/// The detection metrics' cut-off `K`: the paper scores the adversarial edges
/// among the inspector's top 15.
pub const DETECTION_K: usize = 15;

/// Applies a perturbation, queries the model and the explainer, and produces the
/// full outcome record for one victim.
///
/// `explanation_size` is the explanation subgraph size `L` (20 by default): the
/// explainer's ranking is truncated to its top-`L` edges before the top-`K`
/// ([`DETECTION_K`]) detection metrics are computed, mirroring the paper's
/// protocol.
///
/// Explain/detect wall-clock accumulates into `phases`: "explain" is the
/// inspector explaining the attacked prediction, "detect" is applying the
/// perturbation, re-predicting and scoring adversarial-edge detection. The
/// timing never feeds back into the computation.
pub fn evaluate_attack(
    model: &Gcn,
    graph: &Graph,
    explainer: &dyn Explainer,
    victim: &Victim,
    perturbation: &Perturbation,
    explanation_size: usize,
    phases: &crate::telemetry::PhaseAccumulator,
) -> AttackOutcome {
    let detect_started = std::time::Instant::now();
    let attacked = perturbation.apply(graph);
    // One shared forward on the attacked graph serves the success check *and*
    // whatever full-graph quantities the explainer needs (PGExplainer reads the
    // first-layer embeddings from it instead of re-running the layer).
    let forward = BatchedForward::new(model, &attacked);
    let predicted = forward.predicted_class(victim.node);
    let success_any = predicted != victim.true_label;
    let success_target = predicted == victim.target_label;
    phases.add_detect(detect_started.elapsed());

    // The explainer explains the class the model predicts on the attacked
    // graph — exactly `predicted`, so the forward pass is not repeated.
    let explain_started = std::time::Instant::now();
    let explanation = {
        let _span = geattack_telemetry::span_labeled(
            geattack_telemetry::Level::Detail,
            "explain.victim",
            victim.node.to_string(),
        );
        explainer
            .explain_class_with_forward(model, &attacked, victim.node, predicted, &forward)
            .truncated(explanation_size)
    };
    phases.add_explain(explain_started.elapsed());

    let detect_started = std::time::Instant::now();
    let detection = detection_scores(&explanation, perturbation.added(), DETECTION_K);
    phases.add_detect(detect_started.elapsed());

    AttackOutcome {
        node: victim.node,
        degree: victim.degree,
        perturbation_size: perturbation.size(),
        success_any,
        success_target,
        detection,
    }
}

/// Mean and standard deviation of a sample.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MeanStd {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation (the paper reports ±std over runs).
    pub std: f64,
}

impl MeanStd {
    /// Computes mean and (population) standard deviation of `values`.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Self { mean, std: var.sqrt() }
    }
}

/// Per-attacker summary over one run's victims (all metrics in `[0, 1]`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunSummary {
    /// Attacker name.
    pub attacker: String,
    /// Number of victims evaluated.
    pub victims: usize,
    /// Attack success rate toward any wrong label.
    pub asr: f64,
    /// Attack success rate toward the specific target label.
    pub asr_t: f64,
    /// Mean Precision@K of adversarial-edge detection.
    pub precision: f64,
    /// Mean Recall@K.
    pub recall: f64,
    /// Mean F1@K.
    pub f1: f64,
    /// Mean NDCG@K.
    pub ndcg: f64,
}

/// Aggregates the outcomes of one run into a [`RunSummary`].
pub fn summarize_run(attacker: &str, outcomes: &[AttackOutcome]) -> RunSummary {
    let n = outcomes.len().max(1) as f64;
    RunSummary {
        attacker: attacker.to_string(),
        victims: outcomes.len(),
        asr: outcomes.iter().filter(|o| o.success_any).count() as f64 / n,
        asr_t: outcomes.iter().filter(|o| o.success_target).count() as f64 / n,
        precision: outcomes.iter().map(|o| o.detection.precision).sum::<f64>() / n,
        recall: outcomes.iter().map(|o| o.detection.recall).sum::<f64>() / n,
        f1: outcomes.iter().map(|o| o.detection.f1).sum::<f64>() / n,
        ndcg: outcomes.iter().map(|o| o.detection.ndcg).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(success_any: bool, success_target: bool, f1: f64) -> AttackOutcome {
        AttackOutcome {
            node: 0,
            degree: 2,
            perturbation_size: 2,
            success_any,
            success_target,
            detection: DetectionScores {
                precision: f1,
                recall: f1,
                f1,
                ndcg: f1,
            },
        }
    }

    #[test]
    fn mean_std_basics() {
        let m = MeanStd::of(&[1.0, 3.0]);
        assert!((m.mean - 2.0).abs() < 1e-12);
        assert!((m.std - 1.0).abs() < 1e-12);
        assert_eq!(MeanStd::of(&[]), MeanStd::default());
    }

    #[test]
    fn summarize_run_rates() {
        let outcomes = vec![
            outcome(true, true, 0.4),
            outcome(true, false, 0.2),
            outcome(false, false, 0.0),
        ];
        let s = summarize_run("FGA-T", &outcomes);
        assert_eq!(s.victims, 3);
        assert!((s.asr - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.asr_t - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.f1 - 0.2).abs() < 1e-12);
    }
}
