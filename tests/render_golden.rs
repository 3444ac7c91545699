//! Golden tests of `geattack-render`: each `tests/golden/<name>.json` spec,
//! run through the engine and rendered, must print exactly
//! `tests/golden/<name>.txt`. One spec per layout: a table (`table`), and a
//! figure against the victim degree (`degree`), λ (`lambda`), the explanation
//! size L (`size`) and the inner steps T (`steps`).
//!
//! To regenerate a golden file after a deliberate change, run the spec with
//! `geattack-sweep` and render its report with `geattack-render`.

use geattack_bench::render::render;
use geattack_core::engine::Engine;
use geattack_scenarios::SweepSpec;

#[test]
fn renderings_match_their_golden_files() {
    let dir = format!("{}/golden", env!("CARGO_MANIFEST_DIR"));
    for name in ["table", "degree", "lambda", "size", "steps"] {
        let text = std::fs::read_to_string(format!("{dir}/{name}.json")).expect("golden spec");
        let spec = SweepSpec::from_json(&text).expect("golden spec parses");
        let report = Engine::new().run_report(&spec).expect("golden spec runs");
        let expected = std::fs::read_to_string(format!("{dir}/{name}.txt")).expect("golden rendering");
        let rendered = render(&report);
        assert_eq!(rendered, expected, "{name}: rendering drifted:\n{rendered}");
    }
}
