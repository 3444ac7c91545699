//! The one error type of the experiment engine.
//!
//! Every fallible operation on the user-input path — resolving names against a
//! registry, validating specs and shards, loading graph sources, preparing
//! experiments, caching, merging shard reports, running sweep sessions —
//! returns a [`GeError`] instead of panicking, so a long-lived host (the
//! `geattack-serve` daemon, a notebook, a test harness) can report the failure
//! and keep going. Internal invariants (index arithmetic, shapes produced by
//! our own code) stay as `debug_assert`s or documented panics; `GeError` is
//! reserved for inputs the caller controls.

use std::fmt;

/// `Result` defaulting to the engine's error type. The second parameter stays
/// overridable so modules that mix engine errors with derive-generated serde
/// code keep compiling against the prelude-shaped `Result<T, E>`.
pub type Result<T, E = GeError> = std::result::Result<T, E>;

/// One failed cell of a sweep session: the prepared-cell grid position plus
/// the structured error kind and the rendered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// Deterministic grid position of the prepared cell that failed.
    pub position: usize,
    /// Machine-readable classification ([`GeError::kind`] of the cell error).
    pub kind: &'static str,
    /// Rendered error message.
    pub error: String,
}

impl CellFailure {
    /// Captures a cell error's kind and rendered message.
    pub fn new(position: usize, error: &GeError) -> Self {
        CellFailure {
            position,
            kind: error.kind(),
            error: error.to_string(),
        }
    }
}

/// Everything that can go wrong on the engine's user-input path.
#[derive(Clone, Debug, PartialEq)]
pub enum GeError {
    /// A name failed to resolve against a registry (attacker, explainer or
    /// graph family); carries the known names for the error message.
    UnknownName {
        /// What kind of name was being resolved (`"attacker"`, ...).
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
        /// Registry contents at resolution time.
        known: Vec<String>,
    },
    /// A registration collided with an existing registry entry.
    Registry(String),
    /// A scenario or sweep spec failed validation.
    InvalidSpec(String),
    /// A graph source failed to generate or load.
    GraphSource(String),
    /// Experiment preparation failed.
    Prepare(String),
    /// The on-disk cache refused an operation (opening the store, I/O).
    /// Corrupt *entries* never surface here — they degrade into misses.
    Cache(String),
    /// Shard bookkeeping failed: parse, validation, or merge.
    Shard(String),
    /// One or more cells of a sweep session failed. The session itself ran to
    /// completion — every failure was also streamed as a `CellEvent::Failed`.
    CellsFailed(Vec<CellFailure>),
    /// A serve-protocol request could not be understood.
    Protocol(String),
    /// The session's cancellation token was set before this cell ran; the
    /// cell was skipped, not executed. Carries a human-readable reason
    /// (`"client disconnected"`, `"cancel requested"`, ...).
    Cancelled(String),
}

impl GeError {
    /// Convenience constructor for registry misses.
    pub fn unknown(kind: &'static str, name: impl Into<String>, known: Vec<String>) -> Self {
        GeError::UnknownName {
            kind,
            name: name.into(),
            known,
        }
    }

    /// Stable machine-readable classification of the error variant, used by
    /// the serve event stream and telemetry to classify failures without
    /// parsing display strings.
    pub fn kind(&self) -> &'static str {
        match self {
            GeError::UnknownName { .. } => "unknown-name",
            GeError::Registry(_) => "registry",
            GeError::InvalidSpec(_) => "invalid-spec",
            GeError::GraphSource(_) => "graph-source",
            GeError::Prepare(_) => "prepare",
            GeError::Cache(_) => "cache",
            GeError::Shard(_) => "shard",
            GeError::CellsFailed(_) => "cells-failed",
            GeError::Protocol(_) => "protocol",
            GeError::Cancelled(_) => "cancelled",
        }
    }
}

impl fmt::Display for GeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeError::UnknownName { kind, name, known } => {
                write!(f, "unknown {kind} `{name}` (known: {})", known.join(", "))
            }
            GeError::Registry(m) => write!(f, "registry error: {m}"),
            GeError::InvalidSpec(m) => write!(f, "invalid spec: {m}"),
            GeError::GraphSource(m) => write!(f, "cannot load graph source: {m}"),
            GeError::Prepare(m) => write!(f, "preparation failed: {m}"),
            GeError::Cache(m) => write!(f, "cache error: {m}"),
            GeError::Shard(m) => write!(f, "{m}"),
            GeError::CellsFailed(failures) => {
                write!(f, "{} cell(s) failed:", failures.len())?;
                for failure in failures {
                    write!(f, " [cell {}] {};", failure.position, failure.error)?;
                }
                Ok(())
            }
            GeError::Protocol(m) => write!(f, "protocol error: {m}"),
            GeError::Cancelled(m) => write!(f, "cancelled: {m}"),
        }
    }
}

impl std::error::Error for GeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_message_and_known_names() {
        let err = GeError::unknown("attacker", "metattack", vec!["FGA".into(), "RNA".into()]);
        let text = err.to_string();
        assert!(text.contains("unknown attacker `metattack`"), "{text}");
        assert!(text.contains("FGA, RNA"), "{text}");

        let err = GeError::CellsFailed(vec![CellFailure {
            position: 3,
            kind: "prepare",
            error: "boom".into(),
        }]);
        let text = err.to_string();
        assert!(
            text.contains("1 cell(s) failed") && text.contains("[cell 3] boom"),
            "{text}"
        );

        assert!(GeError::Shard("missing shard 1/2".into())
            .to_string()
            .contains("missing"));
    }

    #[test]
    fn kinds_classify_every_variant_and_cell_failures_capture_them() {
        assert_eq!(GeError::Prepare("x".into()).kind(), "prepare");
        assert_eq!(GeError::Cache("x".into()).kind(), "cache");
        assert_eq!(GeError::unknown("attacker", "zz", vec![]).kind(), "unknown-name");
        let failure = CellFailure::new(7, &GeError::GraphSource("nope".into()));
        assert_eq!(failure.position, 7);
        assert_eq!(failure.kind, "graph-source");
        assert!(failure.error.contains("nope"));
        assert_eq!(GeError::CellsFailed(vec![failure]).kind(), "cells-failed");
        let cancelled = GeError::Cancelled("client disconnected".into());
        assert_eq!(cancelled.kind(), "cancelled");
        assert!(cancelled.to_string().contains("cancelled: client disconnected"));
    }
}
