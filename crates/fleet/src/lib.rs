//! # geattack-fleet
//!
//! Fleet orchestration: one sweep, N `geattack-serve` workers, one
//! byte-identical report — the step from "parallel process" to "distributed
//! system".
//!
//! * [`client`] — the client side of the serve NDJSON protocol
//!   ([`ServeClient`], plus the [`connect_retry`]/[`control`]/[`submit`] free
//!   functions the bench crate re-exports), shared by the coordinator and
//!   `geattack-serve submit`.
//! * [`manifest`] — the worker list: repeated `--worker host:port` flags or a
//!   JSON fleet manifest ([`parse_manifest`]).
//! * [`coordinator`] — the [`Coordinator`]: deterministic `p % N` shard
//!   slicing, per-worker dispatch with connect/idle timeouts, live per-cell
//!   progress with an ETA, bounded retry + backoff with health probes,
//!   reassignment of failed or lost shards to surviving workers, and a strict
//!   in-process merge whose `results/sweep_<name>.json` is byte-identical to
//!   a single-machine `geattack-sweep` run. Exhausting a shard's attempts
//!   aborts with [`GeError::Fleet`] after preserving completed shard
//!   artifacts for manual `geattack-merge`.
//!
//! [`GeError::Fleet`]: geattack_core::GeError::Fleet

pub mod client;
pub mod coordinator;
pub mod manifest;

pub use client::{connect_retry, control, parse_shard_event, submit, ServeClient, ShardEvent, SubmitOutcome};
pub use coordinator::{Coordinator, FleetOptions, FleetRun, FleetStats, WorkerSummary};
pub use manifest::{parse_manifest, Worker};
