//! Integration tests covering every attacker through the shared pipeline.

use geattack_core::evaluation::summarize_run;
use geattack_core::pipeline::{run_attacker_kind, AttackerKind};
use geattack_integration_tests::tiny_prepared;

#[test]
fn every_attacker_respects_the_protocol() {
    let prepared = tiny_prepared("cora", 3);
    for kind in AttackerKind::ALL {
        let outcomes = run_attacker_kind(&prepared, kind).unwrap();
        assert_eq!(outcomes.len(), prepared.victims.len(), "{}: outcome count", kind.name());
        for (victim, outcome) in prepared.victims.iter().zip(&outcomes) {
            assert_eq!(victim.node, outcome.node);
            // Direct attack under the degree budget.
            let budget = prepared.graph.degree(victim.node).max(1);
            assert!(
                outcome.perturbation_size <= budget,
                "{} exceeded the budget on node {}",
                kind.name(),
                victim.node
            );
        }
    }
}

#[test]
fn gradient_attacks_beat_random_attack() {
    let prepared = tiny_prepared("citeseer", 4);
    let rna = summarize_run("RNA", &run_attacker_kind(&prepared, AttackerKind::Rna).unwrap());
    let fga_t = summarize_run("FGA-T", &run_attacker_kind(&prepared, AttackerKind::FgaT).unwrap());
    let ge = summarize_run(
        "GEAttack",
        &run_attacker_kind(&prepared, AttackerKind::GeAttack).unwrap(),
    );

    // The paper's Table 1 ordering: optimized attacks reach (near-)perfect ASR-T,
    // the random baseline does not.
    assert!(
        fga_t.asr_t >= rna.asr_t,
        "FGA-T ({}) should not lose to RNA ({})",
        fga_t.asr_t,
        rna.asr_t
    );
    assert!(
        ge.asr_t >= rna.asr_t,
        "GEAttack ({}) should not lose to RNA ({})",
        ge.asr_t,
        rna.asr_t
    );
    assert!(fga_t.asr_t >= 0.5);
}

#[test]
fn untargeted_fga_has_asr_but_not_necessarily_asr_t() {
    let prepared = tiny_prepared("cora", 5);
    let fga = summarize_run("FGA", &run_attacker_kind(&prepared, AttackerKind::Fga).unwrap());
    assert!(fga.asr >= fga.asr_t, "ASR must always dominate ASR-T");
    assert!(fga.asr > 0.0, "untargeted FGA flipped nothing at all");
}
