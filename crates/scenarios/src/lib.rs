//! # geattack-scenarios
//!
//! The scenario subsystem: pluggable graph-family generators plus the
//! declarative sweep specifications that drive the `geattack-sweep` binary.
//!
//! The paper evaluates GEAttack on three citation graphs; this crate adds the
//! synthetic families the inspector study and the workload ladder use, all
//! behind the [`geattack_graph::GraphFamily`] trait:
//!
//! * [`families::BaShapes`] — preferential attachment with planted house motifs;
//! * [`families::PowerlawCluster`] — Holme–Kim preferential attachment with
//!   triad formation (hubs *and* clustering);
//! * [`families::TreeCycles`] — balanced binary trees with cycle motifs;
//! * the three citation datasets, adapted by `geattack-graph`.
//!
//! [`registry`] resolves family names to generators; [`spec`] defines the
//! serde-deserializable [`SweepSpec`] (a full
//! `{family x scale x seed x attacker x explainer x budget}` grid). Execution
//! lives in `geattack_core::engine`, which reuses one prepared experiment per
//! (family, scale, seed, explainer) cell across all attackers and budgets.

pub mod families;
pub mod registry;
pub mod spec;

pub use families::{BaShapes, PowerlawCluster, TreeCycles};
pub use registry::{canonical, is_known, resolve, unknown_family, FAMILY_NAMES};
pub use spec::{BudgetSpec, SweepSpec};
