//! Observability invariants of the sweep engine: recording telemetry must
//! never change a report's bytes, traces must cover the executed plan, and
//! the engine's timing/metrics surfaces must be populated by a real run.

use std::sync::{Arc, Mutex, MutexGuard};

use geattack_core::engine::{CellEvent, Engine};
use geattack_scenarios::SweepSpec;
use geattack_telemetry::{Level, RingRecorder};

/// The recorder is process-global, so a test that installs one would also
/// record the spans of a sweep running concurrently in a sibling test. Every
/// test here holds this lock for its whole body, which keeps the exact span
/// counts exact.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A small but real grid: 2 prepared cells x 2 attackers.
fn quick_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "name": "telemetry-e2e",
            "families": ["tree-cycles"],
            "scales": [0.07],
            "seeds": [0, 1],
            "attackers": ["fga-t", "rna"],
            "explainers": ["gnnexplainer"],
            "budgets": ["degree"],
            "victims": 3
        }"#,
    )
    .expect("spec parses")
}

#[test]
fn recording_telemetry_never_changes_report_bytes_and_traces_cover_the_plan() {
    let _serial = serial();
    let spec = quick_spec();
    let baseline = Engine::new()
        .serial(true)
        .run_report(&spec)
        .expect("baseline sweep runs")
        .to_json();

    // Same sweep with a Detail-level recorder capturing every span.
    let recorder = Arc::new(RingRecorder::with_level(100_000, Level::Detail));
    geattack_telemetry::install(recorder.clone());
    let traced = Engine::new().serial(true).run_report(&spec).map(|r| r.to_json());
    geattack_telemetry::uninstall();
    let traced = traced.expect("traced sweep runs");
    assert_eq!(
        baseline, traced,
        "an installed recorder must not change the report bytes"
    );

    let spans = recorder.snapshot();
    assert_eq!(recorder.dropped(), 0, "ring must be large enough for the quick grid");
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("cell"), 2, "one cell span per prepared cell");
    assert_eq!(count("prepare"), 2, "one prepare span per prepared cell");
    assert_eq!(count("attack.run"), 4, "one span per attacker x budget x cell");
    assert_eq!(count("gnn.train"), 2, "preparation trains one GCN per cell");
    assert!(count("gnn.epoch") >= 2, "epoch spans nest under training");
    assert!(count("spmm") > 0, "the sparse kernel is traced at Detail level");
    assert!(count("attack.fga-t") > 0 && count("attack.rna") > 0);
    assert!(count("explain.gnnexplainer") > 0);

    // Cell spans carry their grid position as the label, covering the plan.
    let mut cell_labels: Vec<&str> = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.label.as_str())
        .collect();
    cell_labels.sort_unstable();
    assert_eq!(cell_labels, vec!["0", "1"]);

    // Parentage: every attack.run span nests (transitively) under a cell span.
    for span in spans.iter().filter(|s| s.name == "attack.run") {
        let mut parent = span.parent;
        let mut reaches_cell = false;
        while parent != 0 {
            match spans.iter().find(|s| s.id == parent) {
                Some(p) => {
                    if p.name == "cell" {
                        reaches_cell = true;
                        break;
                    }
                    parent = p.parent;
                }
                None => break,
            }
        }
        assert!(reaches_cell, "attack.run span {} is orphaned", span.id);
    }
}

#[test]
fn finished_events_and_run_telemetry_carry_real_timings() {
    let _serial = serial();
    let spec = quick_spec();
    let engine = Engine::new().serial(true);
    let mut session = engine.submit(spec).expect("submits");
    let mut finished = 0usize;
    for event in session.by_ref() {
        if let CellEvent::Finished { timing, .. } = event {
            finished += 1;
            assert!(timing.total_ms > 0.0);
            assert!(timing.prepare_ms > 0.0, "preparation dominates and must be visible");
            assert!(timing.prepare_ms <= timing.total_ms);
        }
    }
    assert_eq!(finished, 2);

    let run = session.wait().expect("session succeeds");
    let t = &run.telemetry;
    assert_eq!((t.planned_cells, t.cell_latency.count), (2, 2));
    assert!(t.phase_totals.attack_ms > 0.0, "attack phase accumulated");
    assert!(t.phase_totals.explain_ms > 0.0, "explain phase accumulated");
    assert!(t.phase_totals.detect_ms > 0.0, "detect phase accumulated");
    assert_eq!(t.cell_latency.count, 2);
    assert!(t.cell_latency.max >= t.cell_latency.p50);

    let meta = run.meta_json();
    for key in ["\"telemetry\"", "\"phase_totals_ms\"", "\"cell_latency_ms\""] {
        assert!(meta.contains(key), "meta.json misses {key}: {meta}");
    }

    // The engine-lifetime metrics registry saw the same session.
    let metrics = engine.metrics();
    assert_eq!(metrics.counter_value("cells.planned"), 2);
    assert_eq!(metrics.counter_value("cells.finished"), 2);
    assert_eq!(metrics.counter_value("cells.failed"), 0);
    assert_eq!(metrics.histogram("cell.total_ms").count(), 2);
}
