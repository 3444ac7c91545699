//! Integration tests of the sweep distribution layer: a sharded execution
//! must merge into the exact report of an unsharded run, and a warm cached
//! run must reproduce the cold run byte-for-byte while skipping every
//! experiment preparation (GCN training) — the two properties the CI
//! `shard-equivalence` and `cache-roundtrip` jobs `cmp` at the binary level.

use geattack_core::engine::Engine;
use geattack_core::registry::builtin_explainers;
use geattack_core::sweep::{merge_shards, Shard, SweepReport, SweepRun};
use geattack_core::{ExplainerKind, GeError};
use geattack_integration_tests::spec_file;
use geattack_scenarios::SweepSpec;

/// Runs a whole-grid sweep through a fresh engine, as `geattack-sweep` does.
fn run_sweep(spec: &SweepSpec, serial: bool) -> Result<SweepReport, GeError> {
    Engine::new().serial(serial).run_report(spec)
}

/// One engine run with optional shard slice and cache directory — the
/// `geattack-sweep` flag combinations, expressed against the engine API. A
/// fresh engine per call keeps the cache counters per-run, like one CLI
/// invocation.
fn run_with(
    spec: &SweepSpec,
    shard: Option<Shard>,
    cache_dir: Option<std::path::PathBuf>,
) -> Result<SweepRun, GeError> {
    let mut engine = Engine::new().serial(true);
    if let Some(dir) = cache_dir {
        engine = engine.with_cache(dir, None)?;
    }
    engine.run(spec, shard)
}

/// A two-prep-cell grid (1 family x 2 seeds) that is cheap but real: every
/// cell trains a GCN and runs two attackers.
fn small_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "name": "dist",
            "families": ["tree-cycles"],
            "scales": [0.07],
            "seeds": [0, 1],
            "attackers": ["fga-t", "rna"],
            "victims": 3
        }"#,
    )
    .expect("spec parses")
}

/// The cache entries a whole-grid run of `spec` reads or writes: one base per
/// (family, scale, seed), shared by every explainer, plus one PGExplainer
/// stage per PGExplainer cell. A session looks each up once.
fn cache_entries(spec: &SweepSpec) -> u64 {
    let bases = spec.families.len() * spec.scales.len() * spec.seeds.len();
    let pg_explainers = spec
        .explainers
        .iter()
        .filter(|name| {
            builtin_explainers()
                .resolve(name)
                .is_ok_and(|plugin| plugin.prepare_kind() == ExplainerKind::PgExplainer)
        })
        .count();
    (bases * (1 + pg_explainers)) as u64
}

/// A unique temp directory for one test's cache.
fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("geattack-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_execution_merges_into_the_unsharded_report() {
    let spec = small_spec();
    let unsharded = run_sweep(&spec, true).expect("unsharded run");

    let run_shard = |index: usize| run_with(&spec, Some(Shard { index, count: 2 }), None).expect("shard runs");
    let s0 = run_shard(0);
    let s1 = run_shard(1);
    assert_eq!(
        s0.telemetry.planned_cells, 1,
        "each shard owns one of the two prep cells"
    );
    assert_eq!(s1.telemetry.planned_cells, 1);
    assert_eq!(s0.shard.cells.len(), 2, "one prep cell x two attackers");
    assert_eq!(s0.shard.spec_hash, s1.shard.spec_hash);

    // Merge order must not matter; the result must match the unsharded run
    // byte-for-byte.
    let merged = merge_shards(&[s1.shard.clone(), s0.shard.clone()]).expect("merges");
    assert_eq!(
        merged.to_json(),
        unsharded.to_json(),
        "sharded + merged must be byte-identical to unsharded"
    );

    // The parameterised cell kinds and cells sharing a base across
    // explainers shard and merge the same way.
    for spec in [
        spec_file("tests/specs/degree_buckets.json"),
        spec_file("tests/specs/lambda.json"),
        spec_file("tests/specs/two_explainers.json"),
    ] {
        let unsharded = run_sweep(&spec, true).expect("unsharded run");
        let shards: Vec<_> = (0..2)
            .map(|index| {
                run_with(&spec, Some(Shard { index, count: 2 }), None)
                    .expect("shard runs")
                    .shard
            })
            .collect();
        let merged = merge_shards(&shards).expect("merges");
        assert_eq!(merged.to_json(), unsharded.to_json(), "{}", spec.name);
    }
}

#[test]
fn a_split_trains_each_base_on_one_shard() {
    // 2 bases (seeds) x 2 explainers: ownership by base puts both explainer
    // cells of a seed on one shard, so the split trains each base once.
    let spec = spec_file("tests/specs/two_explainers.json");
    let mut bases_built = 0;
    let mut shards = Vec::new();
    for index in 0..2 {
        let engine = Engine::new().serial(true);
        let run = engine.run(&spec, Some(Shard { index, count: 2 })).expect("shard runs");
        assert_eq!(
            run.telemetry.planned_cells, 2,
            "shard {index} owns one base's two cells"
        );
        bases_built += engine.metrics().counter_value("prepare.bases_built");
        shards.push(run.shard);
    }
    assert_eq!(bases_built, 2, "each base trains on exactly one shard");
    let merged = merge_shards(&shards).expect("merges");
    let unsharded = run_sweep(&spec, true).expect("unsharded run");
    assert_eq!(merged.to_json(), unsharded.to_json());
}

#[test]
fn cached_rerun_is_byte_identical_and_skips_all_preparation() {
    for (spec, tag) in &[
        (small_spec(), "cache"),
        (spec_file("tests/specs/degree_buckets.json"), "cache-degree"),
        (spec_file("tests/specs/lambda.json"), "cache-lambda"),
        (spec_file("tests/specs/two_explainers.json"), "cache-two-explainers"),
    ] {
        let dir = temp_cache(tag);
        let entries = cache_entries(spec);
        let cold = run_with(spec, None, Some(dir.clone())).expect("cold run");
        let cold_counters = cold.cache.expect("caching was on");
        assert_eq!(
            cold_counters.misses, entries,
            "{}: one miss per base and stage",
            spec.name
        );
        assert_eq!(cold_counters.hits, 0);

        let warm = run_with(spec, None, Some(dir.clone())).expect("warm run");
        let warm_counters = warm.cache.expect("caching was on");
        assert_eq!(
            warm_counters.hits, entries,
            "{}: a warm run must skip every GCN and PGExplainer training",
            spec.name
        );
        assert_eq!(warm_counters.misses, 0);

        let cold_report = merge_shards(std::slice::from_ref(&cold.shard)).expect("cold merges");
        let warm_report = merge_shards(std::slice::from_ref(&warm.shard)).expect("warm merges");
        assert_eq!(
            warm_report.to_json(),
            cold_report.to_json(),
            "cold and warm reports must be byte-identical"
        );
        // And caching itself must not change the result.
        let uncached = run_sweep(spec, true).expect("uncached run");
        assert_eq!(uncached.to_json(), cold_report.to_json());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn shards_share_a_cache_and_stay_deterministic() {
    let spec = small_spec();
    let dir = temp_cache("shard-cache");
    let run_shard =
        |index: usize| run_with(&spec, Some(Shard { index, count: 2 }), Some(dir.clone())).expect("shard runs");
    // Cold: each shard populates its own slice of the shared cache.
    let cold0 = run_shard(0);
    let cold1 = run_shard(1);
    assert_eq!(cold0.cache.unwrap().misses, 1);
    assert_eq!(cold1.cache.unwrap().misses, 1);
    // Warm: both shards hit entries regardless of which process wrote them.
    let warm0 = run_shard(0);
    let warm1 = run_shard(1);
    assert_eq!(warm0.cache.unwrap().hits, 1);
    assert_eq!(warm1.cache.unwrap().hits, 1);

    let cold = merge_shards(&[cold0.shard, cold1.shard]).expect("cold merges");
    let warm = merge_shards(&[warm0.shard, warm1.shard]).expect("warm merges");
    assert_eq!(warm.to_json(), cold.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}
