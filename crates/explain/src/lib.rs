//! # geattack-explain
//!
//! Post-hoc explanation methods for GCNs and the detection metrics used to measure
//! whether adversarial edges show up in explanations.
//!
//! * [`gnnexplainer`] — the per-node edge-mask optimization of Ying et al. (2019);
//! * [`pgexplainer`] — the shared, inductive edge-scoring MLP of Luo et al. (2020);
//! * [`metrics`] — Precision@K / Recall@K / F1@K / NDCG@K of adversarial edges
//!   within an explanation's ranking (Section A.2 of the GEAttack paper).

pub mod explainer;
pub mod gnnexplainer;
pub mod metrics;
pub mod pgexplainer;

pub use explainer::{Explainer, Explanation};
pub use gnnexplainer::{GnnExplainer, GnnExplainerConfig};
pub use metrics::{detection_scores, mean_scores, DetectionScores};
pub use pgexplainer::{PgExplainer, PgExplainerConfig, PgMlpParams};
