//! Persisting [`Prepared`] experiments in an on-disk cache.
//!
//! Preparation — dataset generation, GCN training, victim selection and (for
//! PGExplainer inspections) explainer training — dominates sweep wall-clock,
//! and it is a pure function of a subset of [`PipelineConfig`]. This module
//! memoizes it: [`cache_key`] fingerprints exactly the config fields that
//! preparation depends on (plus a code-version salt), [`encode_prepared`] /
//! [`decode_prepared`] serialize the prepared state through the exact-bits
//! binary codec of `geattack-cache`, and [`prepare_cached`] ties it together
//! with corrupted-entry recovery: an entry that fails to decode is evicted and
//! recomputed, never trusted and never fatal.
//!
//! Two invariants make warm runs byte-identical to cold ones:
//!
//! * the codec round-trips every `f64` bit pattern exactly, so a decoded
//!   experiment produces the same attack outcomes as the freshly-computed one;
//! * the key covers *all* inputs of [`prepare`] — graph source, generator,
//!   training, victim-selection and (when inspecting with PGExplainer) the
//!   explainer-training config — and *only* those, so scheduling knobs like
//!   `parallel` share entries.
//!
//! Bump [`CODE_VERSION_SALT`] whenever the semantics of [`prepare`] change:
//! old entries then simply stop matching any key and are never resurrected.

use geattack_cache::{CacheStore, Decoder, Encoder, KeyHasher};
use geattack_explain::{PgExplainer, PgMlpParams};
use geattack_gnn::{Gcn, GcnParams};
use geattack_graph::{DataSplit, Graph};
use geattack_tensor::Matrix;

use crate::error::{GeError, Result};
use crate::pipeline::{prepare, ExplainerKind, GraphSource, PipelineConfig, Prepared};
use crate::targets::Victim;

/// Version salt folded into every cache key. Bump on any change to the
/// preparation pipeline's semantics (generators, training, victim selection,
/// PGExplainer training): old entries become unreachable instead of stale.
pub const CODE_VERSION_SALT: &str = "prepare-v3";

/// Version of the encoded payload layout, checked before decoding.
/// v2: adjacency as a count-prefixed sorted `u < v` edge list (O(|E|)) instead
/// of the dense n²-bit pack.
const PAYLOAD_VERSION: u32 = 2;

/// Content-hash key of the experiment `config` prepares, under the compiled-in
/// [`CODE_VERSION_SALT`].
pub fn cache_key(config: &PipelineConfig) -> String {
    cache_key_salted(config, CODE_VERSION_SALT)
}

/// [`cache_key`] under an explicit salt (tests use this to prove that bumping
/// the salt invalidates existing entries).
pub fn cache_key_salted(config: &PipelineConfig, salt: &str) -> String {
    let mut h = KeyHasher::new();
    h.write_str("geattack-prepared").write_str(salt);
    match &config.source {
        GraphSource::Dataset(dataset) => {
            h.write_str("dataset").write_str(dataset.as_str());
        }
        GraphSource::Scenario(spec) => {
            h.write_str("scenario")
                .write_str(&geattack_scenarios::canonical(&spec.family))
                .write_opt_f64(spec.scale)
                .write_opt_u64(spec.seed);
        }
    }
    let g = &config.generator;
    h.write_f64(g.scale)
        .write_usize(g.min_features)
        .write_usize(g.words_per_node)
        .write_f64(g.topic_affinity)
        .write_u64(g.seed);
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
    h.write_str(config.explainer.name());
    if config.explainer == ExplainerKind::PgExplainer {
        // PGExplainer is trained during preparation, so its config shapes the
        // cached state. GNNExplainer runs per-victim at attack time and must
        // NOT be part of the key — tweaking it would needlessly cold-start.
        let p = &config.pgexplainer;
        h.write_usize(p.epochs)
            .write_f64(p.lr)
            .write_usize(p.hops)
            .write_usize(p.hidden)
            .write_f64(p.size_coeff)
            .write_f64(p.entropy_coeff)
            .write_usize(p.training_instances)
            .write_u64(p.seed);
    }
    h.finish()
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

/// Serializes a prepared experiment's *state* (not its config — the decoder is
/// handed the config that, by key construction, produced this state).
pub fn encode_prepared(prepared: &Prepared) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(PAYLOAD_VERSION);

    // Graph: labels, features and the adjacency as a count-prefixed sorted
    // `u < v` edge list straight off the CSR — O(|E|) in the sparse regime
    // where the old n²-bit pack was the payload's quadratic term.
    let graph = &prepared.graph;
    let n = graph.num_nodes();
    enc.put_usize(n);
    enc.put_usize(graph.num_classes());
    enc.put_usize_slice(graph.labels());
    put_matrix(&mut enc, graph.features());
    let edges = graph.edges();
    enc.put_usize(edges.len());
    for &(u, v) in &edges {
        enc.put_usize(u);
        enc.put_usize(v);
    }

    // Model: the four GCN parameter matrices (dims are embedded per matrix).
    for m in prepared.model.params().to_vec() {
        put_matrix(&mut enc, &m);
    }

    // Split and victims.
    enc.put_usize_slice(&prepared.split.train);
    enc.put_usize_slice(&prepared.split.val);
    enc.put_usize_slice(&prepared.split.test);
    enc.put_usize(prepared.victims.len());
    for v in &prepared.victims {
        enc.put_usize(v.node);
        enc.put_usize(v.true_label);
        enc.put_usize(v.target_label);
        enc.put_usize(v.degree);
    }

    // PGExplainer MLP parameters, when one was trained.
    match &prepared.pg_explainer {
        None => enc.put_bool(false),
        Some(pg) => {
            enc.put_bool(true);
            let p = pg.params();
            for m in [&p.w_src, &p.w_dst, &p.w_tgt, &p.b1, &p.w2, &p.b2] {
                put_matrix(&mut enc, m);
            }
        }
    }
    enc.finish()
}

/// Rebuilds a [`Prepared`] from an encoded payload and the config that
/// produced it. Every structural invariant is re-checked with `Err` (never a
/// panic), so arbitrary corruption degrades into a cache miss.
pub fn decode_prepared(payload: &[u8], config: PipelineConfig) -> Result<Prepared> {
    let mut dec = Decoder::new(payload);
    let version = dec.get_u32().map_err(GeError::Cache)?;
    if version != PAYLOAD_VERSION {
        return Err(GeError::Cache(format!(
            "payload version {version}, expected {PAYLOAD_VERSION}"
        )));
    }

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

    let pg_explainer = if dec.get_bool().map_err(GeError::Cache)? {
        let mut ms = Vec::with_capacity(6);
        for _ in 0..6 {
            ms.push(get_matrix(&mut dec)?);
        }
        let [w_src, w_dst, w_tgt, b1, w2, b2]: [Matrix; 6] = ms.try_into().expect("six matrices");
        // MLP shape contract: three embedding_dim x h blocks feeding a 1 x h
        // bias and an h x 1 output layer, where the embedding dimension is
        // the GCN's hidden width (the explainer scores hidden-layer
        // embeddings) and h comes from the explainer config.
        let h = config.pgexplainer.hidden;
        let embedding_dim = model.hidden();
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
        Some(PgExplainer::from_parts(
            config.pgexplainer.clone(),
            PgMlpParams {
                w_src,
                w_dst,
                w_tgt,
                b1,
                w2,
                b2,
            },
        ))
    } else {
        None
    };
    if (config.explainer == ExplainerKind::PgExplainer) != pg_explainer.is_some() {
        return Err(GeError::Cache(
            "cached explainer state does not match the requested inspector".to_string(),
        ));
    }
    dec.finish().map_err(GeError::Cache)?;

    Ok(Prepared::from_parts(graph, model, split, victims, pg_explainer, config))
}

/// [`prepare`] with optional on-disk memoization: on a hit the experiment is
/// decoded instead of retrained; on a miss (or after evicting a corrupt
/// entry) it is computed and persisted. Without a store this is exactly
/// [`prepare`].
pub fn prepare_cached(config: PipelineConfig, cache: Option<&CacheStore>) -> Result<Prepared> {
    prepare_cached_salted(config, cache, CODE_VERSION_SALT)
}

/// [`prepare_cached`] under an explicit code-version salt.
pub fn prepare_cached_salted(config: PipelineConfig, cache: Option<&CacheStore>, salt: &str) -> Result<Prepared> {
    let Some(store) = cache else {
        return prepare(config);
    };
    let key = cache_key_salted(&config, salt);
    if let Some(payload) = store.load(&key) {
        let decoded = {
            let _span = geattack_telemetry::span(geattack_telemetry::Level::Phase, "persist.decode");
            decode_prepared(&payload, config.clone())
        };
        match decoded {
            Ok(prepared) => {
                store.record_hit();
                store
                    .metrics()
                    .counter("persist.bytes_decoded")
                    .add(payload.len() as u64);
                return Ok(prepared);
            }
            Err(e) => {
                eprintln!("cache: evicting corrupt entry {key}: {e}");
                store.evict(&key);
            }
        }
    }
    store.record_miss();
    let prepared = prepare(config)?;
    let payload = {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Phase, "persist.encode");
        encode_prepared(&prepared)
    };
    store
        .metrics()
        .counter("persist.bytes_encoded")
        .add(payload.len() as u64);
    if let Err(e) = store.store(&key, &payload) {
        eprintln!("cache: warning: could not persist entry {key}: {e}");
    }
    Ok(prepared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::summarize_run;
    use crate::pipeline::{run_attacker_kind, AttackerKind};
    use geattack_graph::datasets::{DatasetName, GeneratorConfig};

    fn tiny_config(seed: u64) -> PipelineConfig {
        let mut config = PipelineConfig::quick(DatasetName::Cora, seed);
        config.generator = GeneratorConfig::at_scale(0.06, seed);
        config.set_victim_count(4);
        config.gnnexplainer.epochs = 10;
        config
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
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.store.dir());
        }
    }

    /// Golden keys: every on-disk cache entry written by an earlier build stays
    /// reachable only while these hex digests stay put. Change them together
    /// with [`CODE_VERSION_SALT`], never on their own.
    #[test]
    fn cache_keys_match_golden_values() {
        assert_eq!(cache_key(&tiny_config(7)), "a5ce6dc69df5b730707b9179b60c87e2");
        let mut pg = tiny_config(7);
        pg.explainer = ExplainerKind::PgExplainer;
        assert_eq!(cache_key(&pg), "7c33407bbffa3538e11ec7ee7141ad73");
    }

    #[test]
    fn cache_key_tracks_preparation_inputs_only() {
        let base = cache_key(&tiny_config(7));
        assert_eq!(base.len(), 32);
        assert_eq!(base, cache_key(&tiny_config(7)), "keys are deterministic");
        assert_ne!(base, cache_key(&tiny_config(8)), "seed changes the key");

        let mut other = tiny_config(7);
        other.train.hidden += 1;
        assert_ne!(base, cache_key(&other), "training config changes the key");

        let mut scheduling = tiny_config(7);
        scheduling.parallel = !scheduling.parallel;
        scheduling.detection_k += 1;
        scheduling.gnnexplainer.epochs += 5;
        assert_eq!(
            base,
            cache_key(&scheduling),
            "scheduling and attack-time knobs must not change the key"
        );

        let mut pg = tiny_config(7);
        pg.explainer = ExplainerKind::PgExplainer;
        let pg_base = cache_key(&pg);
        assert_ne!(base, pg_base, "the inspector kind changes the key");
        let mut pg2 = pg.clone();
        pg2.pgexplainer.epochs += 1;
        assert_ne!(
            pg_base,
            cache_key(&pg2),
            "PGExplainer training config is part of the key"
        );

        assert_ne!(
            cache_key_salted(&tiny_config(7), "prepare-v2"),
            cache_key_salted(&tiny_config(7), "prepare-v3"),
            "bumping the version salt invalidates every key"
        );
    }

    #[test]
    fn encode_decode_round_trips_the_experiment_exactly() {
        let prepared = prepare(tiny_config(11)).unwrap();
        let payload = encode_prepared(&prepared);
        let decoded = decode_prepared(&payload, tiny_config(11)).expect("payload decodes");

        assert_eq!(decoded.graph.edges(), prepared.graph.edges());
        assert_eq!(decoded.graph.features(), prepared.graph.features());
        assert_eq!(decoded.graph.labels(), prepared.graph.labels());
        assert_eq!(decoded.split, prepared.split);
        assert_eq!(decoded.victims.len(), prepared.victims.len());
        for (a, b) in decoded.victims.iter().zip(&prepared.victims) {
            assert_eq!(
                (a.node, a.true_label, a.target_label, a.degree),
                (b.node, b.true_label, b.target_label, b.degree)
            );
        }
        // The decisive equivalence: attacking the decoded experiment produces
        // bit-identical outcomes to attacking the original.
        let fresh = run_attacker_kind(&prepared, AttackerKind::FgaT).unwrap();
        let cached = run_attacker_kind(&decoded, AttackerKind::FgaT).unwrap();
        let a = summarize_run("FGA-T", &fresh);
        let b = summarize_run("FGA-T", &cached);
        assert_eq!(a.asr_t.to_bits(), b.asr_t.to_bits());
        assert_eq!(a.f1.to_bits(), b.f1.to_bits());
        assert_eq!(a.ndcg.to_bits(), b.ndcg.to_bits());
    }

    #[test]
    fn pg_explainer_state_round_trips() {
        let mut config = tiny_config(13);
        config.explainer = ExplainerKind::PgExplainer;
        config.pgexplainer.epochs = 1;
        config.pgexplainer.training_instances = 4;
        let prepared = prepare(config.clone()).unwrap();
        let decoded = decode_prepared(&encode_prepared(&prepared), config.clone()).expect("decodes");
        let original = prepared.pg_explainer.as_ref().expect("trained");
        let restored = decoded.pg_explainer.as_ref().expect("restored");
        assert_eq!(restored.params().w2, original.params().w2);
        assert_eq!(restored.params().b1, original.params().b1);

        // A payload without PGExplainer state must not satisfy a PG config.
        let gnn_payload = encode_prepared(&prepare(tiny_config(13)).unwrap());
        let err = decode_prepared(&gnn_payload, config).map(|_| ()).unwrap_err();
        assert!(
            err.to_string().contains("does not match the requested inspector"),
            "{err}"
        );
    }

    #[test]
    fn corrupt_payloads_error_instead_of_panicking() {
        let prepared = prepare(tiny_config(17)).unwrap();
        let payload = encode_prepared(&prepared);
        assert!(decode_prepared(&payload[..payload.len() / 2], tiny_config(17)).is_err());
        assert!(decode_prepared(&[], tiny_config(17)).is_err());
        let mut flipped = payload.clone();
        // Flip a label byte near the front (inside the label vector).
        flipped[30] ^= 0xff;
        assert!(decode_prepared(&flipped, tiny_config(17)).is_err());
    }

    #[test]
    fn byte_flips_anywhere_never_panic_the_decoder() {
        // Corruption-recovery property of the edge-list codec: flipping a byte
        // at any position — version, counts, edge entries, matrices — must
        // yield either a clean `Err` (a cache miss) or a structurally valid
        // decode, never a panic. Positions are strided to keep the sweep fast.
        let prepared = prepare(tiny_config(37)).unwrap();
        let payload = encode_prepared(&prepared);
        for pos in (0..payload.len()).step_by(97) {
            let mut flipped = payload.clone();
            flipped[pos] ^= 0xff;
            let result = std::panic::catch_unwind(|| decode_prepared(&flipped, tiny_config(37)).map(|_| ()));
            assert!(result.is_ok(), "decoder panicked on byte flip at {pos}");
        }
    }

    #[test]
    fn self_consistent_but_wrong_shapes_are_rejected() {
        // A transposed weight matrix survives get_matrix's rows*cols check
        // (same element count) — only the cross-matrix shape validation can
        // catch it, turning a would-be forward-pass panic into a cache miss.
        let prepared = prepare(tiny_config(31)).unwrap();
        let p = prepared.model.params();
        let transposed = Matrix::from_vec(p.w2.cols(), p.w2.rows(), p.w2.as_slice().to_vec());
        let bad_model = Gcn::from_params(GcnParams {
            w1: p.w1.clone(),
            b1: p.b1.clone(),
            w2: transposed,
            b2: p.b2.clone(),
        });
        let tampered = Prepared::from_parts(
            prepared.graph.as_ref().clone(),
            bad_model,
            prepared.split.clone(),
            prepared.victims.clone(),
            None,
            tiny_config(31),
        );
        let err = decode_prepared(&encode_prepared(&tampered), tiny_config(31))
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("corrupt GCN parameters"), "{err}");

        // Same trap for the PGExplainer MLP output layer (h x 1 -> 1 x h).
        let mut config = tiny_config(31);
        config.explainer = ExplainerKind::PgExplainer;
        config.pgexplainer.epochs = 1;
        config.pgexplainer.training_instances = 4;
        let prepared = prepare(config.clone()).unwrap();
        let pg = prepared.pg_explainer.clone().unwrap();
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
        let tampered = Prepared::from_parts(
            prepared.graph.as_ref().clone(),
            prepared.model.as_ref().clone(),
            prepared.split.clone(),
            prepared.victims.clone(),
            Some(bad_pg),
            config.clone(),
        );
        let err = decode_prepared(&encode_prepared(&tampered), config)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("corrupt PGExplainer parameters"), "{err}");
    }

    #[test]
    fn prepare_cached_hits_after_a_cold_miss() {
        let t = TempStore::new("hit");
        let cold = prepare_cached(tiny_config(19), Some(&t.store)).unwrap();
        let counters = t.store.counters();
        assert_eq!((counters.hits, counters.misses), (0, 1));
        assert_eq!(t.store.entry_count(), 1);

        let warm = prepare_cached(tiny_config(19), Some(&t.store)).unwrap();
        let counters = t.store.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
        assert_eq!(warm.graph.edges(), cold.graph.edges());
        assert_eq!(warm.victims.len(), cold.victims.len());

        // No store → plain prepare, no counters involved.
        let plain = prepare_cached(tiny_config(19), None).unwrap();
        assert_eq!(plain.victims.len(), cold.victims.len());
    }

    #[test]
    fn corrupted_entry_is_evicted_and_recomputed() {
        let t = TempStore::new("corrupt");
        let cold = prepare_cached(tiny_config(23), Some(&t.store)).unwrap();
        let key = cache_key(&tiny_config(23));
        // Truncate the committed entry to garbage (keep the envelope valid so
        // the *payload* decoder is what trips).
        let path = t.store.entry_path(&key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..20]).unwrap();

        let recovered = prepare_cached(tiny_config(23), Some(&t.store)).unwrap();
        let counters = t.store.counters();
        assert_eq!(counters.evictions, 1, "corrupt entry evicted");
        assert_eq!(counters.misses, 2, "recomputed after eviction");
        assert_eq!(recovered.graph.edges(), cold.graph.edges());
        // The recomputed entry was re-persisted and now hits.
        let warm = prepare_cached(tiny_config(23), Some(&t.store)).unwrap();
        assert_eq!(t.store.counters().hits, 1);
        assert_eq!(warm.split, cold.split);
    }

    #[test]
    fn version_salt_bump_invalidates_without_evicting() {
        let t = TempStore::new("salt");
        prepare_cached_salted(tiny_config(29), Some(&t.store), "prepare-v2").unwrap();
        prepare_cached_salted(tiny_config(29), Some(&t.store), "prepare-v3").unwrap();
        let counters = t.store.counters();
        assert_eq!(counters.hits, 0, "a new salt never hits old entries");
        assert_eq!(counters.misses, 2);
        assert_eq!(counters.evictions, 0, "old entries are orphaned, not destroyed");
        assert_eq!(t.store.entry_count(), 2, "both salted entries coexist");
        // Back on the old salt, the original entry still hits.
        prepare_cached_salted(tiny_config(29), Some(&t.store), "prepare-v2").unwrap();
        assert_eq!(t.store.counters().hits, 1);
    }
}
