//! End-to-end experiment pipeline: graph family → GCN → victims → attacks →
//! evaluation.
//!
//! This module glues the substrates together exactly the way the paper's
//! experimental protocol describes (Section 5.1): generate/load a graph, train a
//! GCN on a 10/10/80 split, select 40 victims from the correctly-classified test
//! nodes, obtain each victim's specific target label via an untargeted FGA
//! pre-pass, run every attacker in the evasion setting with budget `Δ = degree`,
//! and score both attack success and explainer-based detection.
//!
//! The graph is a family of the [`geattack_scenarios`] registry, named in
//! [`PipelineConfig::family`]. The paper's citation datasets (`cora`,
//! `citeseer`, `acm`) are registry families like the synthetic ones, so the
//! same pipeline runs on both.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use geattack_attack::{AttackContext, Fga, FgaT, FgaTE, FgaTEConfig, IgAttack, Nettack, RandomAttack, TargetedAttack};
use geattack_explain::{Explainer, GnnExplainer, GnnExplainerConfig, PgExplainer, PgExplainerConfig};
use geattack_gnn::{train, BatchedForward, Gcn, TrainConfig};
use geattack_graph::{stratified_split, DataSplit, FamilyConfig, Graph};
use geattack_scenarios::BudgetSpec;

use crate::error::{GeError, Result};
use crate::evaluation::{evaluate_attack, AttackOutcome};
use crate::geattack::{GeAttack, GeAttackConfig};
use crate::pg_geattack::{PgGeAttack, PgGeAttackConfig};
use crate::targets::{assign_target_labels, select_victims_from_probs, Victim, VictimSelectionConfig};
use crate::telemetry::PhaseAccumulator;

/// The attackers compared in Tables 1 and 2, in the paper's column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackerKind {
    /// Untargeted fast-gradient attack.
    Fga,
    /// Random attack toward target-label nodes.
    Rna,
    /// Targeted fast-gradient attack.
    FgaT,
    /// Nettack with the linearized surrogate and degree test.
    Nettack,
    /// Integrated-gradients attack.
    IgAttack,
    /// FGA-T avoiding nodes in the clean-graph explanation.
    FgaTE,
    /// The proposed joint attack.
    GeAttack,
}

impl AttackerKind {
    /// All attackers in the paper's column order.
    pub const ALL: [AttackerKind; 7] = [
        AttackerKind::Fga,
        AttackerKind::Rna,
        AttackerKind::FgaT,
        AttackerKind::Nettack,
        AttackerKind::IgAttack,
        AttackerKind::FgaTE,
        AttackerKind::GeAttack,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            AttackerKind::Fga => "FGA",
            AttackerKind::Rna => "RNA",
            AttackerKind::FgaT => "FGA-T",
            AttackerKind::Nettack => "Nettack",
            AttackerKind::IgAttack => "IG-Attack",
            AttackerKind::FgaTE => "FGA-T&E",
            AttackerKind::GeAttack => "GEAttack",
        }
    }

    /// The case-insensitive names this attacker answers to in specs and on the
    /// command line. These are the builtin registry's lookup keys.
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            AttackerKind::Fga => &["fga"],
            AttackerKind::Rna => &["rna", "random"],
            AttackerKind::FgaT => &["fga-t", "fgat"],
            AttackerKind::Nettack => &["nettack"],
            AttackerKind::IgAttack => &["ig-attack", "ig"],
            AttackerKind::FgaTE => &["fga-t&e", "fgate"],
            AttackerKind::GeAttack => &["geattack"],
        }
    }
}

/// Overrides of a builtin attacker's settings for one attacker-axis entry, set
/// by a parameterised spec name such as `geattack:lambda=20` (parsed by
/// [`crate::registry`]). `None` keeps the prepared configuration's value.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AttackerParams {
    /// GEAttack's (and PG-GEAttack's) trade-off `λ` (Figures 4 and 8).
    pub lambda: Option<f64>,
    /// GEAttack's inner explainer steps `T` (Figure 6); PG-GEAttack has none.
    pub inner_steps: Option<usize>,
}

/// Which explainer plays the inspector role.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExplainerKind {
    /// GNNExplainer (Tables 1, Figures 2-6, 8).
    GnnExplainer,
    /// PGExplainer (Table 2, Figure 7).
    PgExplainer,
}

impl ExplainerKind {
    /// Both builtin explainers, in the paper's presentation order.
    pub const ALL: [ExplainerKind; 2] = [ExplainerKind::GnnExplainer, ExplainerKind::PgExplainer];

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ExplainerKind::GnnExplainer => "GNNExplainer",
            ExplainerKind::PgExplainer => "PGExplainer",
        }
    }

    /// The case-insensitive names this explainer answers to in specs and on
    /// the command line. These are the builtin registry's lookup keys.
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            ExplainerKind::GnnExplainer => &["gnnexplainer", "gnn-explainer", "gnn"],
            ExplainerKind::PgExplainer => &["pgexplainer", "pg-explainer", "pg"],
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Registry name of the graph family (see
    /// [`geattack_scenarios::FAMILY_NAMES`]).
    pub family: String,
    /// Scale and seed the family generates its graph at.
    pub graph: FamilyConfig,
    /// GCN training settings.
    pub train: TrainConfig,
    /// Victim selection settings.
    pub victims: VictimSelectionConfig,
    /// Which explainer acts as the inspector.
    pub explainer: ExplainerKind,
    /// GNNExplainer settings: the inspector's, and so also the explainer
    /// FGA-T&E excludes with and the one GEAttack's inner loop mimics (its
    /// objective, `M_A^0` std and seed).
    pub gnnexplainer: GnnExplainerConfig,
    /// PGExplainer settings (only used when `explainer` is `PgExplainer`).
    pub pgexplainer: PgExplainerConfig,
    /// GEAttack settings.
    pub geattack: GeAttackConfig,
    /// GEAttack-PG settings.
    pub pg_geattack: PgGeAttackConfig,
    /// Explanation size `L` (20 in the paper).
    pub explanation_size: usize,
    /// Run victims in parallel across threads.
    pub parallel: bool,
}

impl PipelineConfig {
    /// A configuration sized for fast experimentation: reduced dataset scale,
    /// fewer victims, fewer explainer epochs. `seed` drives the dataset, the model
    /// initialization and victim selection, so different seeds give independent
    /// runs (the paper reports mean ± std over 5 runs).
    pub fn quick(family: impl Into<String>, seed: u64) -> Self {
        Self {
            family: family.into(),
            graph: FamilyConfig::new(0.12, seed),
            train: TrainConfig {
                seed,
                ..Default::default()
            },
            victims: VictimSelectionConfig {
                count: 20,
                top_margin: 5,
                bottom_margin: 5,
                seed,
            },
            explainer: ExplainerKind::GnnExplainer,
            gnnexplainer: GnnExplainerConfig {
                epochs: 40,
                seed,
                ..Default::default()
            },
            pgexplainer: PgExplainerConfig {
                epochs: 5,
                training_instances: 12,
                seed,
                ..Default::default()
            },
            geattack: GeAttackConfig::default(),
            pg_geattack: PgGeAttackConfig::default(),
            explanation_size: 20,
            parallel: true,
        }
    }

    /// Overrides the victim count, keeping the paper's 1/4 top-margin, 1/4
    /// bottom-margin, 1/2 random selection mix (the one place this rounding
    /// lives — the CLI and the sweep runner both go through it).
    pub fn set_victim_count(&mut self, count: usize) {
        self.victims.count = count;
        self.victims.top_margin = (count / 4).max(1);
        self.victims.bottom_margin = (count / 4).max(1);
    }
}

/// The explainer-independent stage of an experiment: the graph, its split,
/// the trained (frozen) GCN, the victims with their target labels and the
/// clean-graph forward pass. It reads only the graph family with its scale
/// and seed, the training and the victim-selection configs, so every cell
/// inspecting the same (graph, model) shares one `Base`, whatever its
/// explainer; [`prepare_on`] adds the explainer stage on top.
pub struct Base {
    /// The clean graph (shared, immutable).
    pub graph: Arc<Graph>,
    /// The trained (frozen) GCN under attack (shared, immutable).
    pub model: Arc<Gcn>,
    /// Train/val/test node split (shared, immutable).
    pub split: Arc<DataSplit>,
    /// Victims with assigned target labels.
    pub victims: Vec<Victim>,
    /// The clean-graph forward pass, computed at most once per `(graph, model)`
    /// and shared by every stage and experiment built on this base. Lazy so
    /// cache-hit loads that never query the clean graph pay nothing.
    clean_forward: Arc<OnceLock<Arc<BatchedForward>>>,
}

impl Base {
    /// Reassembles a base from persisted parts. Only the persistence layer
    /// should need this; everything else goes through [`prepare_base`].
    pub(crate) fn from_parts(graph: Graph, model: Gcn, split: DataSplit, victims: Vec<Victim>) -> Base {
        Base {
            graph: Arc::new(graph),
            model: Arc::new(model),
            split: Arc::new(split),
            victims,
            clean_forward: Arc::new(OnceLock::new()),
        }
    }

    /// The shared clean-graph forward pass (bit-identical to
    /// `model.predict_proba(graph)` / `model.node_embeddings(graph)`), computed
    /// on first use.
    pub fn clean_forward(&self) -> Arc<BatchedForward> {
        Arc::clone(
            self.clean_forward
                .get_or_init(|| Arc::new(BatchedForward::new(&self.model, &self.graph))),
        )
    }
}

/// The shared state of one experiment run: a [`Base`] (data, trained victim
/// model, split, victims with their target labels) plus, when PGExplainer is
/// the inspector, the trained PGExplainer.
///
/// The immutable parts — the graph, the trained model, the split and the
/// trained PGExplainer — live behind [`Arc`], so experiments on one base and
/// re-scopes to a different victim set ([`Prepared::with_victims`], used by
/// the degree-bucket figures and the sweep fan-out) share them instead of
/// copying them.
pub struct Prepared {
    /// The clean graph (shared, immutable).
    pub graph: Arc<Graph>,
    /// The trained (frozen) GCN under attack (shared, immutable).
    pub model: Arc<Gcn>,
    /// Train/val/test node split (shared, immutable).
    pub split: Arc<DataSplit>,
    /// Victims with assigned target labels.
    pub victims: Vec<Victim>,
    /// The trained PGExplainer, if the experiment uses one (shared, immutable).
    pub pg_explainer: Option<Arc<PgExplainer>>,
    config: PipelineConfig,
    /// The base's clean-graph forward pass, shared by every consumer of clean
    /// predictions or embeddings (FGA-T&E's exclusion explanation, degree
    /// sweeps, victim re-scoping).
    clean_forward: Arc<OnceLock<Arc<BatchedForward>>>,
}

impl Prepared {
    /// An experiment on `base` with the explainer stage's state (the trained
    /// PGExplainer, if any) and the configuration that produced both.
    pub(crate) fn on_base(base: &Base, pg_explainer: Option<PgExplainer>, config: PipelineConfig) -> Prepared {
        Prepared {
            graph: Arc::clone(&base.graph),
            model: Arc::clone(&base.model),
            split: Arc::clone(&base.split),
            victims: base.victims.clone(),
            pg_explainer: pg_explainer.map(Arc::new),
            config,
            clean_forward: Arc::clone(&base.clean_forward),
        }
    }

    /// The shared clean-graph forward pass (bit-identical to
    /// `model.predict_proba(graph)` / `model.node_embeddings(graph)`), computed
    /// on first use and then served from the shared cell — including across
    /// [`Prepared::with_victims`] re-scopes and experiments on the same
    /// [`Base`].
    pub fn clean_forward(&self) -> Arc<BatchedForward> {
        Arc::clone(
            self.clean_forward
                .get_or_init(|| Arc::new(BatchedForward::new(&self.model, &self.graph))),
        )
    }

    /// Read access to the configuration used to prepare this experiment.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Re-scopes the experiment to a different victim set (used by the degree
    /// buckets of Figures 2/3/7 and the parameter sweeps). The graph, model
    /// and explainer state are shared, not copied.
    pub fn with_victims(&self, victims: Vec<Victim>) -> Prepared {
        Prepared {
            graph: Arc::clone(&self.graph),
            model: Arc::clone(&self.model),
            split: Arc::clone(&self.split),
            victims,
            pg_explainer: self.pg_explainer.clone(),
            config: self.config.clone(),
            clean_forward: Arc::clone(&self.clean_forward),
        }
    }

    /// Builds the inspector explainer configured for this experiment. Errors
    /// when the configuration requests a PGExplainer inspection but no trained
    /// PGExplainer state is present (a hand-assembled or corrupted `Prepared`).
    pub fn inspector(&self) -> Result<Box<dyn Explainer + Sync>> {
        match self.config.explainer {
            ExplainerKind::GnnExplainer => Ok(Box::new(GnnExplainer::new(self.config.gnnexplainer.clone()))),
            ExplainerKind::PgExplainer => match &self.pg_explainer {
                Some(pg) => Ok(Box::new(Arc::clone(pg))),
                None => Err(GeError::Prepare(
                    "PGExplainer inspector requested but not trained".to_string(),
                )),
            },
        }
    }

    /// Builds an attacker instance for this experiment.
    pub fn attacker(&self, kind: AttackerKind) -> Box<dyn TargetedAttack + Sync> {
        self.tuned_attacker(kind, &AttackerParams::default())
    }

    /// [`Prepared::attacker`] with `params` overriding the configured GEAttack
    /// settings (the other attackers have none to override).
    pub fn tuned_attacker(&self, kind: AttackerKind, params: &AttackerParams) -> Box<dyn TargetedAttack + Sync> {
        match kind {
            AttackerKind::Fga => Box::new(Fga),
            AttackerKind::Rna => Box::new(RandomAttack::new(self.config.graph.seed)),
            AttackerKind::FgaT => Box::new(FgaT),
            AttackerKind::Nettack => Box::new(Nettack::default()),
            AttackerKind::IgAttack => Box::new(IgAttack::default()),
            AttackerKind::FgaTE => Box::new(
                FgaTE::new(FgaTEConfig {
                    explanation_size: self.config.explanation_size,
                    explainer: self.config.gnnexplainer.clone(),
                })
                // FGA-T&E explains every victim on the same clean graph, so all
                // victims share one forward pass.
                .with_clean_forward(self.clean_forward()),
            ),
            AttackerKind::GeAttack => match (&self.config.explainer, &self.pg_explainer) {
                (ExplainerKind::PgExplainer, Some(pg)) => {
                    let config = &self.config.pg_geattack;
                    Box::new(PgGeAttack::new(
                        pg.as_ref().clone(),
                        PgGeAttackConfig {
                            lambda: params.lambda.unwrap_or(config.lambda),
                            ..config.clone()
                        },
                    ))
                }
                _ => Box::new(self.geattack(params)),
            },
        }
    }

    /// GEAttack against this experiment's GNNExplainer inspector, with
    /// `params` overriding the configured `λ` and `T`.
    pub(crate) fn geattack(&self, params: &AttackerParams) -> GeAttack {
        let config = &self.config.geattack;
        GeAttack::new(
            GnnExplainer::new(self.config.gnnexplainer.clone()),
            GeAttackConfig {
                lambda: params.lambda.unwrap_or(config.lambda),
                inner_steps: params.inner_steps.unwrap_or(config.inner_steps),
                ..config.clone()
            },
        )
    }
}

/// The base stage of an experiment: generate the graph (the family's largest
/// connected component), split it, train the GCN, select victims and assign
/// their target labels. An unknown family is a [`GeError::GraphSource`], not
/// a panic.
pub fn prepare_base(config: &PipelineConfig) -> Result<Base> {
    let _span = geattack_telemetry::span(geattack_telemetry::Level::Phase, "prepare");
    let family = geattack_scenarios::resolve(&config.family)
        .ok_or_else(|| GeError::GraphSource(geattack_scenarios::unknown_family(&config.family)))?;
    let graph = family.load(&config.graph);
    use rand::SeedableRng as _;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(config.graph.seed);
    let split = stratified_split(graph.labels(), graph.num_classes(), 0.1, 0.1, &mut rng);
    let trained = train(&graph, &split, &config.train);
    let model = trained.model;

    // One clean-graph forward serves victim selection, the explainer stage
    // and (seeded into the base below) every later clean-graph query.
    let forward = BatchedForward::new(&model, &graph);
    let victims = select_victims_from_probs(forward.probs(), &graph, &split.test, &config.victims);
    let victims = assign_target_labels(&model, &graph, &victims);

    let base = Base::from_parts(graph, model, split, victims);
    let _ = base.clean_forward.set(Arc::new(forward));
    Ok(base)
}

/// Trains a PGExplainer on `base`'s clean graph and test nodes: the
/// PGExplainer inspection's explainer stage.
pub(crate) fn train_pg_explainer(base: &Base, config: &PgExplainerConfig) -> PgExplainer {
    let _span = geattack_telemetry::span(geattack_telemetry::Level::Phase, "prepare");
    PgExplainer::train_with_forward(
        &base.model,
        &base.graph,
        &base.split.test,
        config.clone(),
        &base.clean_forward(),
    )
}

/// The explainer stage of an experiment: trains PGExplainer on `base` when it
/// is the inspector (GNNExplainer trains nothing ahead of time). `base` must
/// come from [`prepare_base`] (or the cache) on a `config` with the same
/// graph, training and victim settings; the explainer settings are free.
pub fn prepare_on(base: &Base, config: PipelineConfig) -> Prepared {
    let pg_explainer =
        (config.explainer == ExplainerKind::PgExplainer).then(|| train_pg_explainer(base, &config.pgexplainer));
    Prepared::on_base(base, pg_explainer, config)
}

/// Prepares an experiment: both stages, [`prepare_base`] then [`prepare_on`].
/// Fails (instead of panicking) when the graph family is unknown.
pub fn prepare(config: PipelineConfig) -> Result<Prepared> {
    Ok(prepare_on(&prepare_base(&config)?, config))
}

/// Runs one attacker over all prepared victims under a per-victim budget
/// (`BudgetSpec::Degree` is the paper's protocol) and returns per-victim
/// outcomes, accumulating per-phase wall-clock into `phases` (the engine's
/// per-cell timing breakdown; timing is additive across victim threads).
///
/// With `config.parallel == true`, victims are distributed across threads with
/// rayon. Every attack draws its randomness from victim-local RNG state, so
/// the parallel outcomes are identical to the serial ones — the determinism
/// integration test pins this.
pub fn run_attacker(
    prepared: &Prepared,
    attacker: &(dyn TargetedAttack + Sync),
    inspector: &(dyn Explainer + Sync),
    budget: BudgetSpec,
    phases: &PhaseAccumulator,
) -> Vec<AttackOutcome> {
    let config = prepared.config();
    let evaluate = |victim: &Victim| {
        let ctx = AttackContext {
            model: &prepared.model,
            graph: &prepared.graph,
            target: victim.node,
            target_label: victim.target_label,
            budget: budget.budget_for(&prepared.graph, victim.node),
        };
        let attack_started = std::time::Instant::now();
        let perturbation = {
            let _span = geattack_telemetry::span_labeled(
                geattack_telemetry::Level::Detail,
                "attack.victim",
                victim.node.to_string(),
            );
            attacker.attack(&ctx)
        };
        phases.add_attack(attack_started.elapsed());
        evaluate_attack(
            &prepared.model,
            &prepared.graph,
            inspector,
            victim,
            &perturbation,
            config.explanation_size,
            phases,
        )
    };

    if config.parallel && prepared.victims.len() >= 2 {
        use rayon::prelude::*;
        return prepared.victims.par_iter().map(evaluate).collect();
    }

    prepared.victims.iter().map(evaluate).collect()
}

/// Runs one attacker kind end-to-end on an already-prepared experiment.
pub fn run_attacker_kind(prepared: &Prepared, kind: AttackerKind) -> Result<Vec<AttackOutcome>> {
    let attacker = prepared.attacker(kind);
    let inspector = prepared.inspector()?;
    Ok(run_attacker(
        prepared,
        attacker.as_ref(),
        inspector.as_ref(),
        BudgetSpec::Degree,
        &PhaseAccumulator::new(),
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::evaluation::summarize_run;

    /// Bit-level identity of two experiments: graph, split, victims, GCN
    /// parameters and trained PGExplainer parameters.
    pub(crate) fn assert_same_experiment(a: &Prepared, b: &Prepared) {
        let bits = |m: &geattack_tensor::Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.graph.edges(), b.graph.edges(), "graph edges");
        assert_eq!(
            bits(&a.graph.features().to_dense()),
            bits(&b.graph.features().to_dense()),
            "graph features"
        );
        assert_eq!(a.graph.labels(), b.graph.labels(), "graph labels");
        assert_eq!(a.split, b.split, "split");
        assert_eq!(a.victims, b.victims, "victims");
        for (x, y) in a.model.params().to_vec().iter().zip(&b.model.params().to_vec()) {
            assert_eq!(bits(x), bits(y), "GCN parameters");
        }
        match (&a.pg_explainer, &b.pg_explainer) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                let (x, y) = (x.params(), y.params());
                for (m, n) in [
                    (&x.w_src, &y.w_src),
                    (&x.w_dst, &y.w_dst),
                    (&x.w_tgt, &y.w_tgt),
                    (&x.b1, &y.b1),
                    (&x.w2, &y.w2),
                    (&x.b2, &y.b2),
                ] {
                    assert_eq!(bits(m), bits(n), "PGExplainer parameters");
                }
            }
            _ => panic!("one experiment has a trained PGExplainer, the other does not"),
        }
    }

    fn tiny_config(seed: u64) -> PipelineConfig {
        let mut config = PipelineConfig::quick("cora", seed);
        config.graph.scale = 0.06;
        config.victims.count = 6;
        config.victims.top_margin = 2;
        config.victims.bottom_margin = 2;
        config.gnnexplainer.epochs = 15;
        config.geattack.candidate_pool = 16;
        config
    }

    #[test]
    fn prepare_produces_victims_with_targets() {
        let prepared = prepare(tiny_config(91)).unwrap();
        assert!(!prepared.victims.is_empty());
        for v in &prepared.victims {
            assert_ne!(v.true_label, v.target_label);
            assert!(prepared.split.test.contains(&v.node));
        }
        assert!(prepared.pg_explainer.is_none());
    }

    #[test]
    fn staged_prepare_is_bit_identical_for_both_explainers() {
        // One base, built from a GNNExplainer config, serves both explainer
        // kinds exactly as a fresh two-stage preparation of each would.
        let mut gnn = tiny_config(96);
        gnn.victims.count = 3;
        let mut pg = gnn.clone();
        pg.explainer = ExplainerKind::PgExplainer;
        pg.pgexplainer.epochs = 1;
        pg.pgexplainer.training_instances = 4;
        let base = prepare_base(&gnn).unwrap();
        for config in [gnn, pg] {
            let fresh = prepare(config.clone()).unwrap();
            let shared = prepare_on(&base, config.clone());
            assert_eq!(
                fresh.pg_explainer.is_some(),
                config.explainer == ExplainerKind::PgExplainer
            );
            assert_same_experiment(&shared, &fresh);
            assert!(
                Arc::ptr_eq(&shared.graph, &base.graph) && Arc::ptr_eq(&shared.model, &base.model),
                "experiments share their base's graph and model"
            );
        }
    }

    #[test]
    fn fga_t_summary_has_high_asr_t() {
        let prepared = prepare(tiny_config(92)).unwrap();
        let outcomes = run_attacker_kind(&prepared, AttackerKind::FgaT).unwrap();
        assert_eq!(outcomes.len(), prepared.victims.len());
        let summary = summarize_run("FGA-T", &outcomes);
        assert!(summary.asr_t >= 0.5, "FGA-T ASR-T unexpectedly low: {}", summary.asr_t);
        assert!(summary.asr >= summary.asr_t);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let mut config = tiny_config(93);
        config.victims.count = 4;
        let prepared_serial = {
            let mut c = config.clone();
            c.parallel = false;
            prepare(c).unwrap()
        };
        let prepared_parallel = prepare(config).unwrap();
        let serial = run_attacker_kind(&prepared_serial, AttackerKind::FgaT).unwrap();
        let parallel = run_attacker_kind(&prepared_parallel, AttackerKind::FgaT).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.success_target, b.success_target);
            assert!((a.detection.f1 - b.detection.f1).abs() < 1e-12);
        }
    }

    #[test]
    fn scenario_source_pipeline_prepares_and_attacks() {
        let mut config = PipelineConfig::quick("BA_Shapes", 17);
        config.graph.scale = 0.08;
        config.victims.count = 4;
        config.victims.top_margin = 1;
        config.victims.bottom_margin = 1;
        config.gnnexplainer.epochs = 10;
        let prepared = prepare(config).unwrap();
        let comps = prepared.graph.csr().connected_components();
        assert!(comps.iter().all(|&c| c == comps[0]), "the family's LCC is loaded");
        assert!(!prepared.victims.is_empty(), "BA-Shapes must yield attackable victims");
        let outcomes = run_attacker_kind(&prepared, AttackerKind::FgaT).unwrap();
        assert_eq!(outcomes.len(), prepared.victims.len());
    }

    #[test]
    fn unknown_family_is_a_graph_source_error() {
        let err = prepare(PipelineConfig::quick("petersen", 0)).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "graph-source");
        assert!(err.to_string().contains("unknown graph family `petersen`"), "{err}");
    }

    #[test]
    fn budget_rules_bound_perturbation_sizes() {
        let prepared = prepare(tiny_config(95)).unwrap();
        let attacker = prepared.attacker(AttackerKind::FgaT);
        let inspector = prepared.inspector().unwrap();
        let phases = PhaseAccumulator::new();
        let fixed = run_attacker(
            &prepared,
            attacker.as_ref(),
            inspector.as_ref(),
            BudgetSpec::Fixed(1),
            &phases,
        );
        assert!(fixed.iter().all(|o| o.perturbation_size <= 1), "fixed budget of 1 edge");
        let degree = run_attacker(
            &prepared,
            attacker.as_ref(),
            inspector.as_ref(),
            BudgetSpec::Degree,
            &phases,
        );
        for (o, victim) in degree.iter().zip(&prepared.victims) {
            assert!(o.perturbation_size <= victim.degree.max(1));
        }
        // A bucket's victims all have its degree, so it grants `Δ = degree`.
        let node = prepared.victims[0].node;
        assert_eq!(
            BudgetSpec::DegreeBucket(7).budget_for(&prepared.graph, node),
            BudgetSpec::Degree.budget_for(&prepared.graph, node)
        );
        assert_eq!(BudgetSpec::Fixed(0).budget_for(&prepared.graph, 0), 1);
    }

    #[test]
    fn geattack_inner_loop_reads_the_inspectors_gnnexplainer_config() {
        use rand::SeedableRng as _;
        let base = prepare_base(&tiny_config(97)).unwrap();
        let penalty_gradient = |config: PipelineConfig| {
            let prepared = prepare_on(&base, config);
            let victim = prepared.victims[0];
            let shortlist: Vec<usize> = geattack_attack::candidate_endpoints(&prepared.graph, victim.node, &[])
                .into_iter()
                .take(8)
                .collect();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
            prepared.geattack(&AttackerParams::default()).penalty_gradient(
                &prepared.model,
                &prepared.graph,
                victim.node,
                &shortlist,
                victim.target_label,
                &mut rng,
            )
        };
        let default = penalty_gradient(tiny_config(97));
        assert!(default.iter().any(|g| g.abs() > 0.0), "the penalty has signal");
        let mut sized = tiny_config(97);
        sized.gnnexplainer.size_coeff *= 10.0;
        assert_ne!(default, penalty_gradient(sized), "size coefficient is the inspector's");
        let mut spread = tiny_config(97);
        spread.gnnexplainer.mask_init_std *= 3.0;
        assert_ne!(default, penalty_gradient(spread), "M_A^0 std is the inspector's");
    }

    #[test]
    fn pg_explainer_pipeline_builds() {
        let mut config = tiny_config(94);
        config.explainer = ExplainerKind::PgExplainer;
        config.victims.count = 3;
        config.pgexplainer.epochs = 1;
        config.pgexplainer.training_instances = 4;
        let prepared = prepare(config).unwrap();
        assert!(prepared.pg_explainer.is_some());
        // The registry's inspectors build through `Prepared::inspector`, and
        // only for the kind the state was prepared for.
        let explainers = crate::registry::builtin_explainers();
        assert!(explainers.resolve("pg").unwrap().inspector(&prepared).is_ok());
        let err = explainers
            .resolve("gnn")
            .unwrap()
            .inspector(&prepared)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("prepared for PGExplainer"), "{err}");
        let outcomes = run_attacker_kind(&prepared, AttackerKind::GeAttack).unwrap();
        assert_eq!(outcomes.len(), prepared.victims.len());
    }
}
