//! # geattack-bench
//!
//! The clients of the `geattack_core` experiment engine: the `geattack-sweep`
//! runner, the `geattack-merge` shard combiner, the `geattack-render` table
//! and figure printer, the `geattack-serve` daemon and the `geattack-cache`
//! lifecycle tool. The paper's tables and figures are sweep specs under
//! `examples/paper/`, run by `geattack-sweep` and printed by `geattack-render`.
//! Shared pieces:
//!
//! * [`cli`] — the sweep runner's command-line parser and artifact writer;
//! * [`render`] — the paper's table and figure layouts of a sweep report;
//! * [`serve`] — the NDJSON sweep-serving protocol (concurrent daemon loop),
//!   with cancellation and graceful drain;
//! * [`client`] — the client side of that protocol (`geattack-serve submit`);
//! * [`pool`] — the daemon's bounded, cost-aware admission gate;
//! * [`loadtest`] — the FNV-1a report digest `perfbench` compares reports with.
//!
//! The sweep executor itself lives in `geattack_core::{engine, sweep}`; the
//! binaries here are thin clients of that engine.

pub mod cli;
pub mod client;
pub mod loadtest;
pub mod pool;
pub mod render;
pub mod serve;
