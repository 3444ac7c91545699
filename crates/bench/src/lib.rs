//! # geattack-bench
//!
//! The clients of the `geattack_core` experiment engine: the `geattack-sweep`
//! runner, the `geattack-merge` shard combiner, the `geattack-render` table
//! and figure printer, the `geattack-serve` daemon, the `geattack-cache`
//! lifecycle tool and the `geattack-loadtest` harness. The paper's tables and
//! figures are sweep specs under `examples/paper/`, run by `geattack-sweep`
//! and printed by `geattack-render`. Shared pieces:
//!
//! * [`cli`] — the sweep runner's command-line parser and artifact writer;
//! * [`render`] — the paper's table and figure layouts of a sweep report;
//! * [`serve`] — the NDJSON sweep-serving protocol (concurrent daemon loop +
//!   client), with cancellation and graceful drain;
//! * [`pool`] — the daemon's bounded, cost-aware admission gate;
//! * [`loadtest`] — the `geattack-loadtest` concurrency harness.
//!
//! The sweep executor itself lives in `geattack_core::{engine, sweep}`; the
//! binaries here are thin clients of that engine.

pub mod cli;
pub mod loadtest;
pub mod pool;
pub mod render;
pub mod serve;
