//! Persisting prepared experiments in an on-disk cache, one entry per stage.
//!
//! Preparation — dataset generation, GCN training, victim selection and (for
//! PGExplainer inspections) explainer training — dominates sweep wall-clock,
//! and each of its two stages is a pure function of a subset of
//! [`PipelineConfig`]. This module memoizes them as separate entries:
//!
//! * the **base** ([`Base`]: graph, split, GCN, victims), keyed by
//!   [`base_key`] over the graph family with its scale and seed, the
//!   training and the victim-selection configs — no explainer setting, so a
//!   GNNExplainer cell and a PGExplainer cell on the same graph share one
//!   entry;
//! * the **PGExplainer stage** (the trained MLP), keyed by [`pg_stage_key`]
//!   over the base key plus PGExplainer's training config. GNNExplainer runs
//!   per victim at attack time and has no stage entry.
//!
//! [`encode_base`] / [`decode_base`] and [`encode_pg_stage`] /
//! [`decode_pg_stage`] serialize the stages through the exact-bits binary
//! codec of `geattack-cache`; [`prepare_base_cached`] and
//! [`prepare_on_cached`] tie them to the store with corrupted-entry recovery: an
//! entry that fails to decode is evicted (alone) and recomputed, never
//! trusted and never fatal.
//!
//! Two invariants make warm runs byte-identical to cold ones:
//!
//! * the codec round-trips every `f64` bit pattern exactly, so a decoded
//!   experiment produces the same attack outcomes as the freshly-computed one;
//! * each key covers *all* inputs of its stage and *only* those, so
//!   scheduling knobs like `parallel` share entries.
//!
//! Bump [`CODE_VERSION_SALT`] whenever the semantics of
//! [`prepare`](crate::pipeline::prepare) change:
//! old entries then simply stop matching any key and are never resurrected.

use geattack_cache::{CacheStore, Decoder, Encoder, KeyHasher};
use geattack_explain::{PgExplainer, PgExplainerConfig, PgMlpParams};
use geattack_gnn::{Gcn, GcnParams, RECEPTIVE_FIELD_HOPS};
use geattack_graph::datasets::{MIN_FEATURES, TOPIC_AFFINITY, WORDS_PER_NODE};
use geattack_graph::{DataSplit, Graph};
use geattack_tensor::Matrix;

use crate::error::{GeError, Result};
use crate::pipeline::{prepare_base, prepare_on, train_pg_explainer, Base, ExplainerKind, PipelineConfig, Prepared};
use crate::targets::Victim;

/// Version salt folded into every cache key. Bump on any change to the
/// preparation pipeline's semantics (generators, training, victim selection,
/// PGExplainer training) or to how it is staged: old entries become
/// unreachable instead of stale.
pub const CODE_VERSION_SALT: &str = "prepare-v4";

/// Version of the encoded payload layout, checked before decoding.
/// v2: adjacency as a count-prefixed sorted `u < v` edge list (O(|E|)) instead
/// of the dense n²-bit pack. v3: the PGExplainer MLP moved out of the base
/// payload into its own stage entry.
const PAYLOAD_VERSION: u32 = 3;

/// Content-hash key of the base stage `config` prepares, under the
/// compiled-in [`CODE_VERSION_SALT`].
pub fn base_key(config: &PipelineConfig) -> String {
    base_key_salted(config, CODE_VERSION_SALT)
}

/// [`base_key`] under an explicit salt (tests use this to prove that bumping
/// the salt invalidates existing entries).
pub fn base_key_salted(config: &PipelineConfig, salt: &str) -> String {
    let mut h = KeyHasher::new();
    // The graph fields keep the byte layout of the keys earlier builds wrote
    // for registry families (a `"scenario"` tag, two absent scale/seed
    // overrides, then the citation generator's scale, its three fixed knobs
    // and the seed), so existing `prepare-v4` entries keep hitting.
    h.write_str("geattack-base")
        .write_str(salt)
        .write_str("scenario")
        .write_str(&geattack_scenarios::canonical(&config.family))
        .write_opt_f64(None)
        .write_opt_u64(None);
    h.write_f64(config.graph.scale)
        .write_usize(MIN_FEATURES)
        .write_usize(WORDS_PER_NODE)
        .write_f64(TOPIC_AFFINITY)
        .write_u64(config.graph.seed);
    let t = &config.train;
    h.write_usize(t.hidden)
        .write_usize(t.epochs)
        .write_f64(t.lr)
        .write_f64(t.weight_decay)
        .write_opt_u64(t.patience.map(|p| p as u64))
        .write_u64(t.seed);
    let v = &config.victims;
    h.write_usize(v.count)
        .write_usize(v.top_margin)
        .write_usize(v.bottom_margin)
        .write_u64(v.seed);
    h.finish()
}

/// Content-hash key of the PGExplainer stage `config` prepares on its base,
/// under the compiled-in [`CODE_VERSION_SALT`]; `None` when the inspector
/// trains nothing during preparation.
pub fn pg_stage_key(config: &PipelineConfig) -> Option<String> {
    pg_stage_key_salted(config, CODE_VERSION_SALT)
}

/// [`pg_stage_key`] under an explicit salt.
pub fn pg_stage_key_salted(config: &PipelineConfig, salt: &str) -> Option<String> {
    if config.explainer != ExplainerKind::PgExplainer {
        return None;
    }
    let mut h = KeyHasher::new();
    h.write_str("geattack-pg-stage")
        .write_str(salt)
        .write_str(&base_key_salted(config, salt));
    let p = &config.pgexplainer;
    // The hop radius was a PGExplainer setting; it keeps its slot so the
    // pinned keys keep their bytes.
    h.write_usize(p.epochs)
        .write_f64(p.lr)
        .write_usize(RECEPTIVE_FIELD_HOPS)
        .write_usize(p.hidden)
        .write_f64(p.size_coeff)
        .write_f64(p.entropy_coeff)
        .write_usize(p.training_instances)
        .write_u64(p.seed);
    Some(h.finish())
}

fn put_matrix(enc: &mut Encoder, m: &Matrix) {
    enc.put_usize(m.rows());
    enc.put_usize(m.cols());
    enc.put_f64_slice(m.as_slice());
}

fn get_matrix(dec: &mut Decoder) -> Result<Matrix> {
    let rows = dec.get_usize().map_err(GeError::Cache)?;
    let cols = dec.get_usize().map_err(GeError::Cache)?;
    let data = dec.get_f64_vec().map_err(GeError::Cache)?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(GeError::Cache(format!(
            "matrix shape {rows}x{cols} does not match {} values",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Serializes a base stage: graph, GCN, split and victims.
pub fn encode_base(base: &Base) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(PAYLOAD_VERSION);

    // Graph: labels, features and the adjacency as a count-prefixed sorted
    // `u < v` edge list straight off the CSR — O(|E|) in the sparse regime
    // where the old n²-bit pack was the payload's quadratic term.
    let graph = &base.graph;
    let n = graph.num_nodes();
    enc.put_usize(n);
    enc.put_usize(graph.num_classes());
    enc.put_usize_slice(graph.labels());
    put_matrix(&mut enc, &graph.features().to_dense());
    let edges = graph.edges();
    enc.put_usize(edges.len());
    for &(u, v) in &edges {
        enc.put_usize(u);
        enc.put_usize(v);
    }

    // Model: the four GCN parameter matrices (dims are embedded per matrix).
    for m in base.model.params().to_vec() {
        put_matrix(&mut enc, &m);
    }

    // Split and victims.
    enc.put_usize_slice(&base.split.train);
    enc.put_usize_slice(&base.split.val);
    enc.put_usize_slice(&base.split.test);
    enc.put_usize(base.victims.len());
    for v in &base.victims {
        enc.put_usize(v.node);
        enc.put_usize(v.true_label);
        enc.put_usize(v.target_label);
        enc.put_usize(v.degree);
    }
    enc.finish()
}

/// Checks the payload layout version.
fn check_version(dec: &mut Decoder) -> Result<()> {
    let version = dec.get_u32().map_err(GeError::Cache)?;
    if version != PAYLOAD_VERSION {
        return Err(GeError::Cache(format!(
            "payload version {version}, expected {PAYLOAD_VERSION}"
        )));
    }
    Ok(())
}

/// Rebuilds a [`Base`] from an encoded payload. Every structural invariant is
/// re-checked with `Err` (never a panic), so arbitrary corruption degrades
/// into a cache miss.
pub fn decode_base(payload: &[u8]) -> Result<Base> {
    let mut dec = Decoder::new(payload);
    check_version(&mut dec)?;

    let n = dec.get_usize().map_err(GeError::Cache)?;
    let n_classes = dec.get_usize().map_err(GeError::Cache)?;
    let labels = dec.get_usize_vec().map_err(GeError::Cache)?;
    if labels.len() != n || n_classes == 0 || labels.iter().any(|&l| l >= n_classes) {
        return Err(GeError::Cache("corrupt graph labels".to_string()));
    }
    let features = get_matrix(&mut dec)?;
    if features.rows() != n {
        return Err(GeError::Cache("corrupt feature matrix".to_string()));
    }
    let edge_count = dec.get_usize().map_err(GeError::Cache)?;
    if n > 0 && edge_count > n * (n - 1) / 2 {
        return Err(GeError::Cache("corrupt edge count".to_string()));
    }
    let mut edges = Vec::with_capacity(edge_count);
    let mut prev = None;
    for _ in 0..edge_count {
        let u = dec.get_usize().map_err(GeError::Cache)?;
        let v = dec.get_usize().map_err(GeError::Cache)?;
        // The encoder emits strictly ascending `u < v` pairs; anything else is
        // corruption and must degrade into a cache miss, not a panic inside
        // graph construction.
        if u >= v || v >= n {
            return Err(GeError::Cache("corrupt edge list entry".to_string()));
        }
        if prev.is_some() && Some((u, v)) <= prev {
            return Err(GeError::Cache("corrupt edge list order".to_string()));
        }
        prev = Some((u, v));
        edges.push((u, v));
    }
    let graph = Graph::from_edges(n, &edges, features, labels, n_classes);

    let mut params = Vec::with_capacity(4);
    for _ in 0..4 {
        params.push(get_matrix(&mut dec)?);
    }
    // Full cross-matrix shape check: a corrupt-but-internally-consistent
    // entry must fail here, not panic later inside a forward pass.
    let (w1, b1, w2, b2) = (&params[0], &params[1], &params[2], &params[3]);
    let hidden = w1.cols();
    let shapes_ok = w1.rows() == graph.num_features()
        && hidden > 0
        && b1.rows() == 1
        && b1.cols() == hidden
        && w2.rows() == hidden
        && w2.cols() == n_classes
        && b2.rows() == 1
        && b2.cols() == n_classes;
    if !shapes_ok {
        return Err(GeError::Cache("corrupt GCN parameters".to_string()));
    }
    let model = Gcn::from_params(GcnParams::from_vec(params));

    let split = DataSplit {
        train: dec.get_usize_vec().map_err(GeError::Cache)?,
        val: dec.get_usize_vec().map_err(GeError::Cache)?,
        test: dec.get_usize_vec().map_err(GeError::Cache)?,
    };
    if !split.is_partition_of(n) {
        return Err(GeError::Cache("corrupt data split".to_string()));
    }

    let victim_count = dec.get_usize().map_err(GeError::Cache)?;
    if victim_count > n {
        return Err(GeError::Cache("corrupt victim count".to_string()));
    }
    let mut victims = Vec::with_capacity(victim_count);
    for _ in 0..victim_count {
        let victim = Victim {
            node: dec.get_usize().map_err(GeError::Cache)?,
            true_label: dec.get_usize().map_err(GeError::Cache)?,
            target_label: dec.get_usize().map_err(GeError::Cache)?,
            degree: dec.get_usize().map_err(GeError::Cache)?,
        };
        if victim.node >= n || victim.true_label >= n_classes || victim.target_label >= n_classes {
            return Err(GeError::Cache("corrupt victim record".to_string()));
        }
        victims.push(victim);
    }
    dec.finish().map_err(GeError::Cache)?;

    Ok(Base::from_parts(graph, model, split, victims))
}

/// Serializes a trained PGExplainer's MLP parameters (its config is not
/// stored — the decoder is handed the config that, by key construction,
/// produced them).
pub fn encode_pg_stage(pg: &PgExplainer) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(PAYLOAD_VERSION);
    let p = pg.params();
    for m in [&p.w_src, &p.w_dst, &p.w_tgt, &p.b1, &p.w2, &p.b2] {
        put_matrix(&mut enc, m);
    }
    enc.finish()
}

/// Rebuilds a trained PGExplainer from an encoded stage payload, the config
/// that trained it and the base it was trained on. Like [`decode_base`], any
/// corruption is an `Err`, never a panic.
pub fn decode_pg_stage(payload: &[u8], config: &PgExplainerConfig, base: &Base) -> Result<PgExplainer> {
    let mut dec = Decoder::new(payload);
    check_version(&mut dec)?;
    let mut ms = Vec::with_capacity(6);
    for _ in 0..6 {
        ms.push(get_matrix(&mut dec)?);
    }
    dec.finish().map_err(GeError::Cache)?;
    let [w_src, w_dst, w_tgt, b1, w2, b2]: [Matrix; 6] = ms.try_into().expect("six matrices");
    // MLP shape contract: three embedding_dim x h blocks feeding a 1 x h bias
    // and an h x 1 output layer, where the embedding dimension is the GCN's
    // hidden width (the explainer scores hidden-layer embeddings) and h comes
    // from the explainer config.
    let h = config.hidden;
    let embedding_dim = base.model.hidden();
    let mlp_ok = [&w_src, &w_dst, &w_tgt]
        .iter()
        .all(|w| w.rows() == embedding_dim && w.cols() == h)
        && b1.rows() == 1
        && b1.cols() == h
        && w2.rows() == h
        && w2.cols() == 1
        && b2.rows() == 1
        && b2.cols() == 1;
    if !mlp_ok {
        return Err(GeError::Cache("corrupt PGExplainer parameters".to_string()));
    }
    Ok(PgExplainer::from_parts(
        config.clone(),
        PgMlpParams {
            w_src,
            w_dst,
            w_tgt,
            b1,
            w2,
            b2,
        },
    ))
}

/// Loads the entry under `key` from `store`, or computes and persists it: on
/// a hit the entry is decoded instead of recomputed; on a miss (or after
/// evicting an entry that fails to decode) `compute` runs and its result is
/// encoded and stored.
fn memoized<T>(
    store: &CacheStore,
    key: &str,
    decode: impl FnOnce(&[u8]) -> Result<T>,
    compute: impl FnOnce() -> Result<T>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) -> Result<T> {
    if let Some(payload) = store.load(key) {
        let decoded = {
            let _span = geattack_telemetry::span(geattack_telemetry::Level::Phase, "persist.decode");
            decode(&payload)
        };
        match decoded {
            Ok(value) => {
                store.record_hit();
                store
                    .metrics()
                    .counter("persist.bytes_decoded")
                    .add(payload.len() as u64);
                return Ok(value);
            }
            Err(e) => {
                eprintln!("cache: evicting corrupt entry {key}: {e}");
                store.evict(key);
            }
        }
    }
    store.record_miss();
    let value = compute()?;
    let payload = {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Phase, "persist.encode");
        encode(&value)
    };
    store
        .metrics()
        .counter("persist.bytes_encoded")
        .add(payload.len() as u64);
    if let Err(e) = store.store(key, &payload) {
        eprintln!("cache: warning: could not persist entry {key}: {e}");
    }
    Ok(value)
}

/// [`prepare_base`] with optional on-disk memoization under the base key.
/// Without a store this is exactly [`prepare_base`].
pub fn prepare_base_cached(config: &PipelineConfig, cache: Option<&CacheStore>) -> Result<Base> {
    base_cached(config, cache, CODE_VERSION_SALT)
}

/// [`prepare_on`] with optional on-disk memoization of the PGExplainer stage:
/// a hit decodes the trained MLP instead of retraining it. GNNExplainer
/// experiments have no stage entry and never touch the store.
pub fn prepare_on_cached(base: &Base, config: PipelineConfig, cache: Option<&CacheStore>) -> Result<Prepared> {
    on_cached(base, config, cache, CODE_VERSION_SALT)
}

fn base_cached(config: &PipelineConfig, cache: Option<&CacheStore>, salt: &str) -> Result<Base> {
    match cache {
        None => prepare_base(config),
        Some(store) => memoized(
            store,
            &base_key_salted(config, salt),
            decode_base,
            || prepare_base(config),
            encode_base,
        ),
    }
}

fn on_cached(base: &Base, config: PipelineConfig, cache: Option<&CacheStore>, salt: &str) -> Result<Prepared> {
    let (Some(store), Some(key)) = (cache, pg_stage_key_salted(&config, salt)) else {
        return Ok(prepare_on(base, config));
    };
    let pg = memoized(
        store,
        &key,
        |payload| decode_pg_stage(payload, &config.pgexplainer, base),
        || Ok(train_pg_explainer(base, &config.pgexplainer)),
        encode_pg_stage,
    )?;
    Ok(Prepared::on_base(base, Some(pg), config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::summarize_run;
    use crate::pipeline::tests::assert_same_experiment;
    use crate::pipeline::{prepare, run_attacker_kind, AttackerKind};

    fn tiny_config(seed: u64) -> PipelineConfig {
        let mut config = PipelineConfig::quick("cora", seed);
        config.graph.scale = 0.06;
        config.set_victim_count(4);
        config.gnnexplainer.epochs = 10;
        config
    }

    /// [`tiny_config`] inspected by a small PGExplainer.
    fn tiny_pg_config(seed: u64) -> PipelineConfig {
        let mut config = tiny_config(seed);
        config.explainer = ExplainerKind::PgExplainer;
        config.pgexplainer.epochs = 1;
        config.pgexplainer.training_instances = 4;
        config
    }

    /// Both stages through `store` under `salt`, as the engine runs them.
    fn prepare_cached_salted(config: PipelineConfig, store: &CacheStore, salt: &str) -> Result<Prepared> {
        let base = base_cached(&config, Some(store), salt)?;
        on_cached(&base, config, Some(store), salt)
    }

    fn prepare_cached(config: PipelineConfig, store: &CacheStore) -> Result<Prepared> {
        prepare_cached_salted(config, store, CODE_VERSION_SALT)
    }

    /// A fresh store under the system temp dir, cleaned up on drop.
    struct TempStore {
        store: CacheStore,
    }

    impl TempStore {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("geattack-persist-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self {
                store: CacheStore::open(dir).expect("temp cache opens"),
            }
        }

        fn hits_and_misses(&self) -> (u64, u64) {
            let counters = self.store.counters();
            (counters.hits, counters.misses)
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.store.dir());
        }
    }

    /// Golden keys: every on-disk cache entry written by an earlier build stays
    /// reachable only while these hex digests stay put. Change them together
    /// with [`CODE_VERSION_SALT`], never on their own. The values are the keys
    /// the engine has written for this config (family `cora`) since
    /// `prepare-v4`.
    #[test]
    fn cache_keys_match_golden_values() {
        assert_eq!(base_key(&tiny_config(7)), "8bd5313e1ef73e06fa2c4e096cf44306");
        let mut pg = tiny_config(7);
        pg.explainer = ExplainerKind::PgExplainer;
        assert_eq!(base_key(&pg), base_key(&tiny_config(7)), "one base per graph");
        assert_eq!(pg_stage_key(&pg).as_deref(), Some("a2b0c0aa79908e3ef92e086e58f7365a"));
        assert_eq!(pg_stage_key(&tiny_config(7)), None, "GNNExplainer has no stage entry");
    }

    /// Golden payload: the base entry of [`tiny_config`] hashes to the value
    /// the dense-feature build wrote. Encoding from CSR features therefore
    /// writes the same dense feature bytes (and training stays bit-identical),
    /// so `prepare-v4` entries written before the features moved to CSR still
    /// decode to the same experiment.
    #[test]
    fn base_payload_matches_golden_digest() {
        let payload = encode_base(&prepare_base(&tiny_config(7)).unwrap());
        assert_eq!(payload.len(), 122_100);
        let digest = geattack_cache::hash::hex128(geattack_cache::fnv1a128(&payload));
        assert_eq!(digest, "2b3a7b039fcd1cc3e1522241ddf00578");
    }

    #[test]
    fn cache_key_tracks_preparation_inputs_only() {
        let base = base_key(&tiny_config(7));
        assert_eq!(base.len(), 32);
        assert_eq!(base, base_key(&tiny_config(7)), "keys are deterministic");
        assert_ne!(base, base_key(&tiny_config(8)), "seed changes the key");

        let mut other = tiny_config(7);
        other.train.hidden += 1;
        assert_ne!(base, base_key(&other), "training config changes the key");

        let mut scheduling = tiny_config(7);
        scheduling.parallel = !scheduling.parallel;
        scheduling.explanation_size += 1;
        scheduling.gnnexplainer.epochs += 5;
        assert_eq!(
            base,
            base_key(&scheduling),
            "scheduling and attack-time knobs must not change the key"
        );

        let pg = tiny_pg_config(7);
        assert_eq!(base, base_key(&pg), "the inspector never changes the base key");
        let pg_stage = pg_stage_key(&pg).expect("PGExplainer has a stage entry");
        assert_ne!(base, pg_stage, "stage and base entries never collide");
        let mut pg2 = pg.clone();
        pg2.pgexplainer.epochs += 1;
        assert_eq!(base, base_key(&pg2));
        assert_ne!(
            Some(pg_stage.clone()),
            pg_stage_key(&pg2),
            "PGExplainer training config is part of the stage key"
        );
        let mut pg3 = pg.clone();
        pg3.train.epochs += 1;
        assert_ne!(
            Some(pg_stage),
            pg_stage_key(&pg3),
            "the stage key covers its base's inputs"
        );

        assert_ne!(
            base_key_salted(&tiny_config(7), "prepare-v3"),
            base_key_salted(&tiny_config(7), "prepare-v4"),
            "bumping the version salt invalidates every base key"
        );
        assert_ne!(
            pg_stage_key_salted(&pg, "prepare-v3"),
            pg_stage_key_salted(&pg, "prepare-v4"),
            "...and every stage key"
        );
    }

    #[test]
    fn encode_decode_round_trips_the_experiment_exactly() {
        let base = prepare_base(&tiny_config(11)).unwrap();
        let decoded = decode_base(&encode_base(&base)).expect("payload decodes");
        let prepared = prepare_on(&base, tiny_config(11));
        let restored = prepare_on(&decoded, tiny_config(11));
        assert_same_experiment(&restored, &prepared);

        // The decisive equivalence: attacking the decoded experiment produces
        // bit-identical outcomes to attacking the original.
        let fresh = run_attacker_kind(&prepared, AttackerKind::FgaT).unwrap();
        let cached = run_attacker_kind(&restored, AttackerKind::FgaT).unwrap();
        let a = summarize_run("FGA-T", &fresh);
        let b = summarize_run("FGA-T", &cached);
        assert_eq!(a.asr_t.to_bits(), b.asr_t.to_bits());
        assert_eq!(a.f1.to_bits(), b.f1.to_bits());
        assert_eq!(a.ndcg.to_bits(), b.ndcg.to_bits());
    }

    #[test]
    fn pg_explainer_state_round_trips() {
        let config = tiny_pg_config(13);
        let prepared = prepare(config.clone()).unwrap();
        let original = prepared.pg_explainer.as_ref().expect("trained");
        let base = prepare_base(&config).unwrap();
        let restored = decode_pg_stage(&encode_pg_stage(original), &config.pgexplainer, &base).expect("decodes");
        assert_eq!(restored.params().w2, original.params().w2);
        assert_eq!(restored.params().b1, original.params().b1);

        // A base stage trained on a decoded base (a base hit, a stage miss) is
        // the PGExplainer a fresh preparation trains, bit for bit.
        let decoded_base = decode_base(&encode_base(&base)).expect("decodes");
        assert_same_experiment(&prepare_on(&decoded_base, config.clone()), &prepared);

        // A base payload must not satisfy a stage lookup.
        assert!(decode_pg_stage(&encode_base(&base), &config.pgexplainer, &base).is_err());
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        let config = tiny_pg_config(17);
        let base = prepare_base(&config).unwrap();
        let payload = encode_base(&base);
        assert!(decode_base(&payload[..payload.len() / 2]).is_err());
        assert!(decode_base(&[]).is_err());
        let mut flipped = payload.clone();
        // Flip a label byte near the front (inside the label vector).
        flipped[30] ^= 0xff;
        assert!(decode_base(&flipped).is_err());

        let pg = prepare_on(&base, config.clone()).pg_explainer.expect("trained");
        let stage = encode_pg_stage(&pg);
        assert!(decode_pg_stage(&stage, &config.pgexplainer, &base).is_ok());
        assert!(decode_pg_stage(&stage[..stage.len() - 1], &config.pgexplainer, &base).is_err());
        assert!(decode_pg_stage(&[], &config.pgexplainer, &base).is_err());
        let mut longer = stage.clone();
        longer.push(0);
        assert!(
            decode_pg_stage(&longer, &config.pgexplainer, &base).is_err(),
            "trailing bytes are corruption"
        );
    }

    #[test]
    fn byte_flips_anywhere_never_panic_the_decoder() {
        // Corruption-recovery property of both codecs: flipping a byte at any
        // position — version, counts, edge entries, matrices — must yield
        // either a clean `Err` (a cache miss) or a structurally valid decode,
        // never a panic. Positions are strided to keep the sweep fast.
        let config = tiny_pg_config(37);
        let base = prepare_base(&config).unwrap();
        let payload = encode_base(&base);
        for pos in (0..payload.len()).step_by(97) {
            let mut flipped = payload.clone();
            flipped[pos] ^= 0xff;
            let result = std::panic::catch_unwind(|| decode_base(&flipped).map(|_| ()));
            assert!(result.is_ok(), "base decoder panicked on byte flip at {pos}");
        }
        let pg = prepare_on(&base, config.clone()).pg_explainer.expect("trained");
        let stage = encode_pg_stage(&pg);
        for pos in (0..stage.len()).step_by(7) {
            let mut flipped = stage.clone();
            flipped[pos] ^= 0xff;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                decode_pg_stage(&flipped, &config.pgexplainer, &base).map(|_| ())
            }));
            assert!(result.is_ok(), "stage decoder panicked on byte flip at {pos}");
        }
    }

    #[test]
    fn self_consistent_but_wrong_shapes_are_rejected() {
        // A transposed weight matrix survives get_matrix's rows*cols check
        // (same element count) — only the cross-matrix shape validation can
        // catch it, turning a would-be forward-pass panic into a cache miss.
        let config = tiny_pg_config(31);
        let base = prepare_base(&config).unwrap();
        let p = base.model.params();
        let transposed = Matrix::from_vec(p.w2.cols(), p.w2.rows(), p.w2.as_slice().to_vec());
        let bad_model = Gcn::from_params(GcnParams {
            w1: p.w1.clone(),
            b1: p.b1.clone(),
            w2: transposed,
            b2: p.b2.clone(),
        });
        let tampered = Base::from_parts(
            base.graph.as_ref().clone(),
            bad_model,
            base.split.as_ref().clone(),
            base.victims.clone(),
        );
        let err = decode_base(&encode_base(&tampered)).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("corrupt GCN parameters"), "{err}");

        // Same trap for the PGExplainer MLP output layer (h x 1 -> 1 x h).
        let pg = prepare_on(&base, config.clone()).pg_explainer.expect("trained");
        let mlp = pg.params();
        let bad_pg = PgExplainer::from_parts(
            config.pgexplainer.clone(),
            PgMlpParams {
                w_src: mlp.w_src.clone(),
                w_dst: mlp.w_dst.clone(),
                w_tgt: mlp.w_tgt.clone(),
                b1: mlp.b1.clone(),
                w2: Matrix::from_vec(mlp.w2.cols(), mlp.w2.rows(), mlp.w2.as_slice().to_vec()),
                b2: mlp.b2.clone(),
            },
        );
        let err = decode_pg_stage(&encode_pg_stage(&bad_pg), &config.pgexplainer, &base)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("corrupt PGExplainer parameters"), "{err}");
    }

    #[test]
    fn prepare_cached_hits_after_a_cold_miss() {
        let t = TempStore::new("hit");
        let cold = prepare_cached(tiny_config(19), &t.store).unwrap();
        assert_eq!(t.hits_and_misses(), (0, 1));
        assert_eq!(t.store.entry_count(), 1, "a GNNExplainer experiment is one base entry");

        let warm = prepare_cached(tiny_config(19), &t.store).unwrap();
        assert_eq!(t.hits_and_misses(), (1, 1));
        assert_same_experiment(&warm, &cold);

        // No store → plain prepare, no counters involved.
        let base = prepare_base_cached(&tiny_config(19), None).unwrap();
        let plain = prepare_on_cached(&base, tiny_config(19), None).unwrap();
        assert_same_experiment(&plain, &cold);
    }

    #[test]
    fn pg_cell_after_a_gnn_cell_is_one_base_hit_and_one_stage_miss() {
        let t = TempStore::new("staged");
        prepare_cached(tiny_config(21), &t.store).unwrap();
        assert_eq!(t.hits_and_misses(), (0, 1), "the GNNExplainer cell writes the base");

        let pg = prepare_cached(tiny_pg_config(21), &t.store).unwrap();
        assert_eq!(t.hits_and_misses(), (1, 2), "one base hit plus one stage miss");
        assert_eq!(t.store.entry_count(), 2, "base and stage are separate entries");
        assert_same_experiment(&pg, &prepare(tiny_pg_config(21)).unwrap());

        let warm = prepare_cached(tiny_pg_config(21), &t.store).unwrap();
        assert_eq!(t.hits_and_misses(), (3, 2), "a warm PGExplainer cell hits both stages");
        assert_same_experiment(&warm, &pg);
    }

    #[test]
    fn corrupt_stage_entry_evicts_only_itself() {
        let t = TempStore::new("stage-corrupt");
        let cold = prepare_cached(tiny_pg_config(27), &t.store).unwrap();
        let stage_key = pg_stage_key(&tiny_pg_config(27)).unwrap();
        let path = t.store.entry_path(&stage_key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..20]).unwrap();

        let recovered = prepare_cached(tiny_pg_config(27), &t.store).unwrap();
        let counters = t.store.counters();
        assert_eq!(counters.evictions, 1, "only the corrupt stage entry is evicted");
        assert_eq!((counters.hits, counters.misses), (1, 3), "base hit, stage retrained");
        assert_eq!(t.store.entry_count(), 2, "the base entry survives");
        assert!(t.store.entry_path(&base_key(&tiny_pg_config(27))).exists());
        assert_same_experiment(&recovered, &cold);
    }

    #[test]
    fn corrupted_entry_is_evicted_and_recomputed() {
        let t = TempStore::new("corrupt");
        let cold = prepare_cached(tiny_config(23), &t.store).unwrap();
        let key = base_key(&tiny_config(23));
        // Truncate the committed entry to garbage (keep the envelope valid so
        // the *payload* decoder is what trips).
        let path = t.store.entry_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..20]).unwrap();

        let recovered = prepare_cached(tiny_config(23), &t.store).unwrap();
        let counters = t.store.counters();
        assert_eq!(counters.evictions, 1, "corrupt entry evicted");
        assert_eq!(counters.misses, 2, "recomputed after eviction");
        assert_same_experiment(&recovered, &cold);
        // The recomputed entry was re-persisted and now hits.
        let warm = prepare_cached(tiny_config(23), &t.store).unwrap();
        assert_eq!(t.store.counters().hits, 1);
        assert_eq!(warm.split, cold.split);
    }

    #[test]
    fn version_salt_bump_invalidates_without_evicting() {
        let t = TempStore::new("salt");
        prepare_cached_salted(tiny_pg_config(29), &t.store, "prepare-v3").unwrap();
        prepare_cached_salted(tiny_pg_config(29), &t.store, "prepare-v4").unwrap();
        let counters = t.store.counters();
        assert_eq!(counters.hits, 0, "a new salt never hits old entries");
        assert_eq!(counters.misses, 4, "base and stage miss under each salt");
        assert_eq!(counters.evictions, 0, "old entries are orphaned, not destroyed");
        assert_eq!(t.store.entry_count(), 4, "both salts' entries coexist");
        // Back on the old salt, the original entries still hit.
        prepare_cached_salted(tiny_pg_config(29), &t.store, "prepare-v3").unwrap();
        assert_eq!(t.store.counters().hits, 2);
    }
}
