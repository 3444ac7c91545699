//! End-to-end integration test: dataset generation → GCN training → victim
//! selection → joint attack → explainer-based detection, asserting the qualitative
//! shape of the paper's headline result.

use geattack_core::evaluation::summarize_run;
use geattack_core::pipeline::{prepare, run_attacker_kind, AttackerKind};
use geattack_gnn::accuracy;
use geattack_integration_tests::{tiny_config, tiny_prepared};

#[test]
fn full_pipeline_produces_sane_results() {
    let prepared = tiny_prepared("cora", 1);

    // The trained GCN must beat chance on the test split, otherwise the attack
    // evaluation is meaningless.
    let acc = accuracy(&prepared.model, &prepared.graph, &prepared.split.test);
    let chance = 1.0 / prepared.graph.num_classes() as f64;
    assert!(acc > chance + 0.15, "GCN test accuracy {acc:.3} too close to chance");

    // Victims exist, are correctly classified and have attainable target labels.
    assert!(!prepared.victims.is_empty());
    for v in &prepared.victims {
        assert_ne!(v.true_label, v.target_label);
    }

    // GEAttack succeeds on most victims and its outcomes are well-formed.
    let outcomes = run_attacker_kind(&prepared, AttackerKind::GeAttack).unwrap();
    assert_eq!(outcomes.len(), prepared.victims.len());
    let summary = summarize_run("GEAttack", &outcomes);
    assert!(
        summary.asr_t >= 0.5,
        "GEAttack ASR-T {:.2} unexpectedly low",
        summary.asr_t
    );
    for o in &outcomes {
        assert!(o.perturbation_size >= 1);
        for value in [
            o.detection.precision,
            o.detection.recall,
            o.detection.f1,
            o.detection.ndcg,
        ] {
            assert!((0.0..=1.0).contains(&value));
        }
    }
}

#[test]
fn geattack_is_no_easier_to_detect_than_fga_t() {
    // The paper's headline comparison: GEAttack achieves comparable attack success
    // to FGA-T while being harder for GNNExplainer to detect. A single tiny run
    // (a handful of victims) is far too noisy to pin this, so — like the paper,
    // which reports means over independent runs — we average over three seeds on
    // a slightly larger instance and assert the non-strict version (no worse than
    // FGA-T plus a small tolerance).
    let seeds = [1u64, 2, 3];
    let mut fga_asr = 0.0;
    let mut fga_ndcg = 0.0;
    let mut ge_asr = 0.0;
    let mut ge_ndcg = 0.0;
    for &seed in &seeds {
        let mut config = tiny_config("citeseer", seed);
        config.graph.scale = 0.12;
        config.victims.count = 12;
        config.victims.top_margin = 4;
        config.victims.bottom_margin = 4;
        let prepared = prepare(config).unwrap();
        let fga = summarize_run("FGA-T", &run_attacker_kind(&prepared, AttackerKind::FgaT).unwrap());
        let ge = summarize_run(
            "GEAttack",
            &run_attacker_kind(&prepared, AttackerKind::GeAttack).unwrap(),
        );
        fga_asr += fga.asr / seeds.len() as f64;
        fga_ndcg += fga.ndcg / seeds.len() as f64;
        ge_asr += ge.asr / seeds.len() as f64;
        ge_ndcg += ge.ndcg / seeds.len() as f64;
    }

    assert!(
        ge_asr >= fga_asr - 0.2,
        "GEAttack lost too much attack power: mean ASR {ge_asr} vs {fga_asr}"
    );
    assert!(
        ge_ndcg <= fga_ndcg + 0.1,
        "GEAttack should not be easier to detect than FGA-T (mean NDCG {ge_ndcg} vs {fga_ndcg})"
    );
}
