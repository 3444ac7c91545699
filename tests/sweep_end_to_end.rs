//! End-to-end test of the scenario sweep runner: a quick multi-family,
//! multi-attacker, multi-seed grid must execute deterministically (parallel ==
//! serial, byte-identical JSON) and produce the documented report schema.

use geattack_core::engine::Engine;
use geattack_core::sweep::SweepReport;
use geattack_integration_tests::spec_file;
use geattack_scenarios::SweepSpec;

/// Runs a whole-grid sweep through a fresh engine, as `geattack-sweep` does.
fn run_sweep(spec: &SweepSpec, serial: bool) -> Result<SweepReport, geattack_core::GeError> {
    Engine::new().serial(serial).run_report(spec)
}

/// The acceptance grid: 2 families x 2 attackers x 2 seeds, quick scale.
fn quick_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "name": "e2e",
            "families": ["ba-shapes", "tree-cycles"],
            "scales": [0.08],
            "seeds": [0, 1],
            "attackers": ["fga-t", "rna"],
            "explainers": ["gnnexplainer"],
            "budgets": ["degree"],
            "victims": 4
        }"#,
    )
    .expect("spec parses")
}

#[test]
fn sweep_is_deterministic_and_parallel_matches_serial() {
    // The plain grid plus the two parameterised cell kinds: degree buckets
    // and a λ sweep on the attacker axis.
    for spec in [
        quick_spec(),
        spec_file("tests/specs/degree_buckets.json"),
        spec_file("tests/specs/lambda.json"),
    ] {
        let serial = run_sweep(&spec, true).expect("serial sweep runs");
        let parallel = run_sweep(&spec, false).expect("parallel sweep runs");
        let again = run_sweep(&spec, false).expect("repeated sweep runs");
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "{}: parallel sweep must be byte-identical to the serial one",
            spec.name
        );
        assert_eq!(
            parallel.to_json(),
            again.to_json(),
            "{}: repeated sweeps of the same spec must be byte-identical",
            spec.name
        );
    }
}

#[test]
fn report_schema_covers_the_whole_grid() {
    let spec = quick_spec();
    let report = run_sweep(&spec, true).expect("sweep runs");

    // Every grid cell is present, in deterministic grid order.
    assert_eq!(report.cells.len(), spec.total_cells());
    assert_eq!(report.cells.len(), 2 * 2 * 2);
    let mut keys: Vec<(String, u64, String)> = report
        .cells
        .iter()
        .map(|c| (c.family.clone(), c.seed, c.attacker.clone()))
        .collect();
    let ordered = keys.clone();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), report.cells.len(), "no duplicate grid cells");
    assert_eq!(
        ordered.first().map(|k| k.0.as_str()),
        Some("ba-shapes"),
        "cells follow the spec's family order"
    );

    // One aggregate per (family, attacker) grid point, each over both seeds.
    assert_eq!(report.aggregates.len(), 2 * 2);
    for aggregate in &report.aggregates {
        assert_eq!(aggregate.seeds, 2, "both seeds aggregated");
        assert_eq!(aggregate.budget, "degree");
        for metric in [
            aggregate.asr.mean,
            aggregate.asr_t.mean,
            aggregate.precision.mean,
            aggregate.recall.mean,
            aggregate.f1.mean,
            aggregate.ndcg.mean,
        ] {
            assert!((0.0..=1.0).contains(&metric), "metric {metric} out of [0, 1]");
        }
    }

    // Cells record the generated graph so reports are self-describing.
    for cell in &report.cells {
        assert!(cell.nodes >= 30, "cell records the LCC node count");
        assert!(cell.edges > 0, "cell records the edge count");
    }

    // The JSON artifact round-trips and keeps the executed spec embedded.
    let json = report.to_json();
    let back: SweepReport = serde_json::from_str(&json).expect("report JSON round-trips");
    assert_eq!(back.sweep, "e2e");
    assert_eq!(back.spec, spec);
    assert_eq!(back.cells.len(), report.cells.len());
    assert_eq!(back.aggregates.len(), report.aggregates.len());
}

#[test]
fn checked_in_quick_spec_stays_valid() {
    // The CI smoke job runs `geattack-sweep examples/sweeps/quick.json`; keep
    // the checked-in spec parsing and satisfying the acceptance grid shape.
    let spec = spec_file("examples/sweeps/quick.json");
    assert!(spec.families.len() >= 2, "acceptance: >= 2 families");
    assert!(spec.attackers.len() >= 2, "acceptance: >= 2 attackers");
    assert!(spec.seeds.len() >= 2, "acceptance: >= 2 seeds");
    assert!(spec.quick, "the smoke spec must stay quick");

    // The paper-attackers spec the benchmark's `paper` workload runs.
    let paper = spec_file("examples/sweeps/paper.json");
    assert_eq!(paper.name, "paper");
    assert_eq!(paper.attackers, ["geattack", "fga-t", "fga-t&e", "ig"]);
    assert_eq!(paper.explainers, ["gnnexplainer", "pgexplainer"]);
}

#[test]
fn checked_in_paper_specs_resolve() {
    // `examples/paper/` holds one spec per table and figure of the paper plus
    // the paper-scale twins; each must parse and resolve every axis entry.
    let dir = format!("{}/../examples/paper", env!("CARGO_MANIFEST_DIR"));
    let mut names = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("spec reads");
        let spec = SweepSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        Engine::new()
            .plan(&spec, None)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(path.file_stem().and_then(|s| s.to_str()), Some(spec.name.as_str()));
        names.push(spec.name);
    }
    // Seven quick specs (Tables 1-2, Figures 2-8) and three paper-scale twins.
    assert_eq!(names.len(), 10, "{names:?}");
}
