//! Shared fixtures for the cross-crate integration tests.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use geattack_core::pipeline::{prepare, PipelineConfig, Prepared};
use geattack_scenarios::SweepSpec;

/// A deliberately tiny experiment configuration on graph `family` (a
/// scenario-registry name such as `"cora"`) so the integration tests run in a
/// few seconds while still exercising every stage of the pipeline.
pub fn tiny_config(family: &str, seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::quick(family, seed);
    config.graph.scale = 0.07;
    config.victims.count = 8;
    config.victims.top_margin = 3;
    config.victims.bottom_margin = 3;
    config.gnnexplainer.epochs = 25;
    config.geattack.candidate_pool = 20;
    config.geattack.explainer.epochs = 20;
    config.pgexplainer.epochs = 2;
    config.pgexplainer.training_instances = 6;
    config
}

/// Prepares a tiny experiment (synthetic graph, trained GCN, victims).
pub fn tiny_prepared(family: &str, seed: u64) -> Prepared {
    prepare(tiny_config(family, seed)).expect("tiny config always prepares")
}

/// A deterministic RNG for tests that need one.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A checked-in sweep spec, by path from the repository root (e.g.
/// `tests/specs/lambda.json`, `examples/sweeps/quick.json`).
pub fn spec_file(path: &str) -> SweepSpec {
    let path = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    SweepSpec::from_json(&text).unwrap_or_else(|e| panic!("{path} parses: {e}"))
}
