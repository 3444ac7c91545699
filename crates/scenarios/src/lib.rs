//! # geattack-scenarios
//!
//! The scenario subsystem: pluggable graph-family generators plus the
//! declarative sweep specifications that drive the `geattack-sweep` binary.
//!
//! The paper evaluates GEAttack on three citation graphs; this crate widens the
//! evaluation surface to arbitrary graph families behind the
//! [`geattack_graph::GraphFamily`] trait:
//!
//! * [`families::BaShapes`] — preferential attachment with planted house motifs;
//! * [`families::PowerlawCluster`] — Holme–Kim preferential attachment with
//!   triad formation (hubs *and* clustering);
//! * [`families::StochasticBlockModel`] — block communities with tunable
//!   homophily (`sbm` and `sbm-het` presets);
//! * [`families::WattsStrogatz`] — small-world ring lattices;
//! * [`families::KRegular`] — hub-free random `k`-regular expanders;
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

pub use families::{BaShapes, KRegular, PowerlawCluster, StochasticBlockModel, TreeCycles, WattsStrogatz};
pub use registry::{canonical, is_known, resolve, unknown_family, FAMILY_NAMES};
pub use spec::{BudgetSpec, SweepSpec};
