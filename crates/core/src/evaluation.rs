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

/// Applies a perturbation, queries the model and the explainer, and produces the
/// full outcome record for one victim.
///
/// `detection_k` is the metric cut-off `K` (15 in the paper) and
/// `explanation_size` is the explanation subgraph size `L` (20 by default): the
/// explainer's ranking is truncated to its top-`L` edges before the top-`K`
/// detection metrics are computed, mirroring the paper's protocol.
///
/// When `phases` is given, explain/detect wall-clock accumulates into it:
/// "explain" is the inspector explaining the attacked prediction, "detect" is
/// applying the perturbation, re-predicting and scoring adversarial-edge
/// detection. The computation is identical either way.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_attack(
    model: &Gcn,
    graph: &Graph,
    explainer: &dyn Explainer,
    victim: &Victim,
    perturbation: &Perturbation,
    detection_k: usize,
    explanation_size: usize,
    phases: Option<&crate::telemetry::PhaseAccumulator>,
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
    if let Some(phases) = phases {
        phases.add_detect(detect_started.elapsed());
    }

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
    if let Some(phases) = phases {
        phases.add_explain(explain_started.elapsed());
    }

    let detect_started = std::time::Instant::now();
    let detection = detection_scores(&explanation, perturbation.added(), detection_k);
    if let Some(phases) = phases {
        phases.add_detect(detect_started.elapsed());
    }

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

/// Per-attacker result aggregated over several runs (mean ± std, as reported in
/// Tables 1 and 2).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AggregatedSummary {
    /// Attacker name.
    pub attacker: String,
    /// Number of runs aggregated.
    pub runs: usize,
    /// ASR over runs.
    pub asr: MeanStd,
    /// ASR-T over runs.
    pub asr_t: MeanStd,
    /// Precision@K over runs.
    pub precision: MeanStd,
    /// Recall@K over runs.
    pub recall: MeanStd,
    /// F1@K over runs.
    pub f1: MeanStd,
    /// NDCG@K over runs.
    pub ndcg: MeanStd,
}

/// Aggregates per-run summaries of the same attacker.
pub fn aggregate_runs(summaries: &[RunSummary]) -> AggregatedSummary {
    assert!(!summaries.is_empty(), "cannot aggregate zero runs");
    let attacker = summaries[0].attacker.clone();
    assert!(
        summaries.iter().all(|s| s.attacker == attacker),
        "aggregate_runs mixes different attackers"
    );
    let collect = |f: fn(&RunSummary) -> f64| MeanStd::of(&summaries.iter().map(f).collect::<Vec<_>>());
    AggregatedSummary {
        attacker,
        runs: summaries.len(),
        asr: collect(|s| s.asr),
        asr_t: collect(|s| s.asr_t),
        precision: collect(|s| s.precision),
        recall: collect(|s| s.recall),
        f1: collect(|s| s.f1),
        ndcg: collect(|s| s.ndcg),
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

    #[test]
    fn aggregate_runs_mean_and_std() {
        let a = summarize_run("X", &[outcome(true, true, 0.4)]);
        let b = summarize_run("X", &[outcome(false, false, 0.2)]);
        let agg = aggregate_runs(&[a, b]);
        assert_eq!(agg.runs, 2);
        assert!((agg.asr.mean - 0.5).abs() < 1e-12);
        assert!((agg.f1.mean - 0.3).abs() < 1e-12);
        assert!(agg.f1.std > 0.0);
    }

    #[test]
    #[should_panic(expected = "mixes different attackers")]
    fn aggregate_rejects_mixed_attackers() {
        let a = summarize_run("X", &[outcome(true, true, 0.4)]);
        let b = summarize_run("Y", &[outcome(true, true, 0.4)]);
        let _ = aggregate_runs(&[a, b]);
    }
}
