//! Pins the determinism contract of the rayon-parallelized pipeline: running
//! the multi-victim attack loop with `config.parallel` on and off must produce
//! byte-identical outcomes (same victims, same perturbation sizes, same
//! detection scores), because every victim draws from victim-local RNG state.
//! The same holds one level up, for a sweep whose cells share trained bases
//! across explainers: serial and parallel sessions write the same report.

use geattack_core::engine::Engine;
use geattack_core::evaluation::AttackOutcome;
use geattack_core::pipeline::{prepare, run_attacker_kind, AttackerKind};
use geattack_integration_tests::{spec_file, tiny_config};

fn outcomes_with_parallel(parallel: bool, kind: AttackerKind, seed: u64) -> Vec<AttackOutcome> {
    let mut config = tiny_config("cora", seed);
    config.victims.count = 6;
    config.parallel = parallel;
    let prepared = prepare(config).unwrap();
    assert!(
        prepared.victims.len() >= 2,
        "need at least two victims to exercise the parallel path"
    );
    run_attacker_kind(&prepared, kind).unwrap()
}

fn assert_identical(serial: &[AttackOutcome], parallel: &[AttackOutcome], kind: AttackerKind) {
    assert_eq!(serial.len(), parallel.len(), "{}: outcome count differs", kind.name());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.node, p.node, "{}: victim order differs", kind.name());
        assert_eq!(s.degree, p.degree, "{}: node {} degree", kind.name(), s.node);
        assert_eq!(
            s.perturbation_size,
            p.perturbation_size,
            "{}: node {} perturbation size",
            kind.name(),
            s.node
        );
        assert_eq!(s.success_any, p.success_any, "{}: node {} ASR bit", kind.name(), s.node);
        assert_eq!(
            s.success_target,
            p.success_target,
            "{}: node {} ASR-T bit",
            kind.name(),
            s.node
        );
        for (metric, sv, pv) in [
            ("precision", s.detection.precision, p.detection.precision),
            ("recall", s.detection.recall, p.detection.recall),
            ("f1", s.detection.f1, p.detection.f1),
            ("ndcg", s.detection.ndcg, p.detection.ndcg),
        ] {
            assert!(
                sv == pv,
                "{}: node {} {metric} differs between serial ({sv}) and parallel ({pv})",
                kind.name(),
                s.node
            );
        }
    }
}

#[test]
fn gradient_attacker_is_deterministic_across_thread_counts() {
    let serial = outcomes_with_parallel(false, AttackerKind::FgaT, 11);
    let parallel = outcomes_with_parallel(true, AttackerKind::FgaT, 11);
    assert_identical(&serial, &parallel, AttackerKind::FgaT);
}

#[test]
fn seeded_random_attacker_is_deterministic_across_thread_counts() {
    // RNA derives its RNG from the per-target seed, so even the "random"
    // baseline must not be affected by scheduling.
    let serial = outcomes_with_parallel(false, AttackerKind::Rna, 12);
    let parallel = outcomes_with_parallel(true, AttackerKind::Rna, 12);
    assert_identical(&serial, &parallel, AttackerKind::Rna);
}

#[test]
fn joint_attacker_is_deterministic_across_thread_counts() {
    let serial = outcomes_with_parallel(false, AttackerKind::GeAttack, 13);
    let parallel = outcomes_with_parallel(true, AttackerKind::GeAttack, 13);
    assert_identical(&serial, &parallel, AttackerKind::GeAttack);
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Two parallel executions with the same seed must agree with each other,
    // not just with the serial baseline (guards against work-stealing order
    // leaking into results through shared state).
    let first = outcomes_with_parallel(true, AttackerKind::FgaT, 14);
    let second = outcomes_with_parallel(true, AttackerKind::FgaT, 14);
    assert_identical(&first, &second, AttackerKind::FgaT);
}

#[test]
fn shared_base_sweep_is_byte_identical_serial_and_parallel() {
    // Both explainers on every graph: each (family, seed) base is trained
    // once and shared by its GNNExplainer and PGExplainer cells, whichever
    // thread gets to it first.
    let spec = spec_file("tests/specs/two_explainers.json");
    let serial = Engine::new().serial(true).run_report(&spec).expect("serial sweep runs");
    for _ in 0..2 {
        let engine = Engine::new();
        let parallel = engine.run_report(&spec).expect("parallel sweep runs");
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "a parallel shared-base sweep must be byte-identical to the serial one"
        );
        assert_eq!(engine.metrics().counter_value("prepare.bases_built"), 2);
        assert_eq!(engine.metrics().counter_value("prepare.bases_reused"), 2);
    }
}
