//! # geattack-gnn
//!
//! Graph convolutional network models, training and evaluation for the GEAttack
//! reproduction: the differentiable two-layer GCN that is attacked ([`gcn`]), the
//! masked GCN the explainers and joint attacks share ([`masked`]), its training
//! loop ([`train`](mod@train)), the shared full-graph forward ([`batched`]) and
//! evaluation helpers ([`eval`]).

pub mod batched;
pub mod eval;
pub mod gcn;
pub mod masked;
pub mod train;

pub use batched::BatchedForward;
pub use eval::{accuracy, NodePrediction};
pub use gcn::{Gcn, GcnParamVars, GcnParams};
pub use masked::EdgeSlots;
pub use train::{train, EpochStats, TrainConfig, TrainedGcn};
