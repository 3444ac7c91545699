//! # geattack-core
//!
//! The paper's primary contribution — **GEAttack**, the joint attack on a graph
//! neural network and its explanations — together with the experiment pipeline
//! that reproduces the paper's evaluation protocol.
//!
//! * [`geattack`] — Algorithm 1: greedy edge insertion driven by the joint loss
//!   `L_GNN + λ·Σ M_A^T[i,j]·B[i,j]`, where the explainer mask `M_A^T` is obtained
//!   by differentiable inner gradient-descent steps (double backward).
//! * [`pg_geattack`] — the PGExplainer variant of the joint attack (Section 5.3).
//! * [`targets`] — victim selection and target-label assignment (Section 5.1).
//! * [`pipeline`] — graph family → GCN → victims (the shared [`pipeline::Base`])
//!   → explainer stage → attack → evaluation.
//! * [`evaluation`] — ASR / ASR-T and detection aggregation (mean ± std).
//! * [`report`] — markdown tables and figure series matching the paper's format.
//!
//! * [`engine`] — the registry-driven experiment [`engine::Engine`]: streaming
//!   sweep sessions, shard slicing, cost-ordered scheduling, shared caching.
//! * [`registry`] — open attacker/explainer registries (the paper's kinds are
//!   the builtin registrations).
//! * [`sweep`] — sweep grids, shard reports and strict merge reassembly.
//! * [`error`] — the [`error::GeError`] every user-input path returns instead
//!   of panicking.
//! * [`telemetry`] — engine-side timing types ([`telemetry::CellTiming`],
//!   [`telemetry::SweepTelemetry`]) surfaced on events and `.meta.json`
//!   sidecars; span/metric plumbing lives in the `geattack-telemetry` crate.
//!
//! ## Quickstart
//!
//! ```no_run
//! use geattack_core::pipeline::{prepare, run_attacker_kind, AttackerKind, PipelineConfig};
//! use geattack_core::evaluation::summarize_run;
//!
//! let prepared = prepare(PipelineConfig::quick("cora", 0)).unwrap();
//! let outcomes = run_attacker_kind(&prepared, AttackerKind::GeAttack).unwrap();
//! let summary = summarize_run("GEAttack", &outcomes);
//! println!("ASR-T = {:.1}%, F1@15 = {:.1}%", summary.asr_t * 100.0, summary.f1 * 100.0);
//! ```

pub mod engine;
pub mod error;
pub mod evaluation;
pub mod geattack;
#[cfg(test)]
mod masked_oracle;
pub mod persist;
pub mod pg_geattack;
pub mod pipeline;
pub mod registry;
pub mod report;
pub mod sweep;
pub mod targets;
pub mod telemetry;

pub use engine::{CancelToken, CellEvent, Engine, SweepHandle};
pub use error::{CellFailure, GeError};
pub use evaluation::{
    aggregate_runs, evaluate_attack, summarize_run, AggregatedSummary, AttackOutcome, MeanStd, RunSummary,
};
pub use geattack::{GeAttack, GeAttackConfig};
pub use persist::{base_key, pg_stage_key, prepare_base_cached, prepare_on_cached, CODE_VERSION_SALT};
pub use pg_geattack::{PgGeAttack, PgGeAttackConfig};
pub use pipeline::{
    prepare, prepare_base, prepare_on, run_attacker, run_attacker_kind, AttackerKind, Base, BudgetRule, ExplainerKind,
    PipelineConfig, Prepared,
};
pub use registry::{AttackerPlugin, AttackerRegistry, ExplainerPlugin, ExplainerRegistry};
pub use report::{format_percent, Figure, Series, TableBlock};
pub use sweep::{
    estimated_cost, merge_shards, PlannedCell, Shard, ShardReport, SweepAggregate, SweepCell, SweepReport, SweepRun,
};
pub use targets::{
    assign_target_labels, select_victims, select_victims_from_probs, victims_with_degree, Victim, VictimSelectionConfig,
};
pub use telemetry::{CellTiming, LatencySummary, PhaseAccumulator, SweepTelemetry};
