//! Engine-side timing types and the one renderer of run metadata.
//!
//! The engine measures phases directly with the monotonic clock — independent
//! of whether a `geattack-telemetry` recorder is installed — so
//! `CellEvent::Finished` always carries a [`CellTiming`] and
//! `SweepHandle::wait()` always aggregates a [`SweepTelemetry`]. None of it
//! feeds back into the computation, and none of it is written into the report
//! itself: timings surface in the event stream, the serve protocol and the
//! `results/sweep_<name>.meta.json` sidecar, keeping reports byte-identical
//! run to run.
//!
//! This module owns the JSON shape of that metadata: the `.meta.json`
//! sidecar and the serve daemon's `cell`/`done`/`stats` events all render
//! timings through [`ms`], [`CellTiming`]'s and [`SweepTelemetry`]'s
//! `Serialize` impls, [`latency_value`] and [`cache_value`], so a schema
//! change is made once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use geattack_cache::CacheCounters;
use geattack_telemetry::HistogramSnapshot;
use serde::{Serialize, Value};

/// A millisecond value rounded to microsecond granularity. Timings are
/// nondeterministic either way; rounding keeps the sidecars and events tidy.
pub fn ms(v: f64) -> Value {
    Value::Number((v * 1e3).round() / 1e3)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A latency distribution as the `{count,p50,p95,p99,max}` object (ms).
pub fn latency_value(snapshot: &HistogramSnapshot) -> Value {
    object(vec![
        ("count", Value::Number(snapshot.count as f64)),
        ("p50", ms(snapshot.p50)),
        ("p95", ms(snapshot.p95)),
        ("p99", ms(snapshot.p99)),
        ("max", ms(snapshot.max)),
    ])
}

/// Cache counters as the `{hits,misses,evictions}` object, `null` when no
/// cache was in use.
pub fn cache_value(counters: Option<CacheCounters>) -> Value {
    match counters {
        None => Value::Null,
        Some(c) => object(vec![
            ("hits", Value::Number(c.hits as f64)),
            ("misses", Value::Number(c.misses as f64)),
            ("evictions", Value::Number(c.evictions as f64)),
        ]),
    }
}

/// Wall-clock breakdown of one executed prepared cell, in milliseconds.
///
/// `prepare` is the (possibly cache-served) preparation; `attack` is the
/// attackers' perturbation search; `explain` is the inspector explaining each
/// attacked victim; `detect` covers applying the perturbation, re-predicting
/// and scoring adversarial-edge detection. The last three are summed across
/// victims, so with parallel victim loops their sum can exceed the cell's
/// `total` wall-clock — they measure where compute went, not elapsed time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellTiming {
    /// Preparation (dataset + GCN training, or a cache hit), ms.
    pub prepare_ms: f64,
    /// Attack-search time summed over victims and attackers, ms.
    pub attack_ms: f64,
    /// Explanation time summed over victims and attackers, ms.
    pub explain_ms: f64,
    /// Apply + re-predict + detection-scoring time summed over victims, ms.
    pub detect_ms: f64,
    /// Whole-cell wall-clock (prepare through last attack run), ms.
    pub total_ms: f64,
}

impl CellTiming {
    /// Accumulates another cell's timing into per-phase totals.
    pub fn accumulate(&mut self, other: &CellTiming) {
        self.prepare_ms += other.prepare_ms;
        self.attack_ms += other.attack_ms;
        self.explain_ms += other.explain_ms;
        self.detect_ms += other.detect_ms;
        self.total_ms += other.total_ms;
    }
}

/// Thread-safe nanosecond accumulators for the attack/explain/detect phases.
/// One lives per executing cell; victim threads add into it, the engine
/// converts the totals to a [`CellTiming`].
#[derive(Debug, Default)]
pub struct PhaseAccumulator {
    attack_ns: AtomicU64,
    explain_ns: AtomicU64,
    detect_ns: AtomicU64,
}

impl PhaseAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds attack-search time.
    pub fn add_attack(&self, elapsed: Duration) {
        self.attack_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds explanation time.
    pub fn add_explain(&self, elapsed: Duration) {
        self.explain_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds apply/re-predict/detection time.
    pub fn add_detect(&self, elapsed: Duration) {
        self.detect_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The accumulated `(attack, explain, detect)` milliseconds.
    pub fn totals_ms(&self) -> (f64, f64, f64) {
        let to_ms = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e6;
        (to_ms(&self.attack_ns), to_ms(&self.explain_ns), to_ms(&self.detect_ns))
    }
}

/// Aggregated timing of one sweep session, assembled by the engine's session
/// worker and carried on `SweepRun` into the `.meta.json` sidecar (and the
/// serve protocol's `done` event).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepTelemetry {
    /// Prepared cells this session owned. A session with a failed cell ends
    /// in `GeError::CellsFailed` instead of a `SweepRun`, so every recorded
    /// session finished all of them.
    pub planned_cells: usize,
    /// Per-phase totals summed over the cells (`total_ms` here is the
    /// sum of cell wall-clocks, not the session's elapsed time).
    pub phase_totals: CellTiming,
    /// Distribution of per-cell wall-clock latencies, ms.
    pub cell_latency: HistogramSnapshot,
}

/// `{prepare,attack,explain,detect,total}`, ms.
impl Serialize for CellTiming {
    fn serialize(&self) -> Value {
        object(vec![
            ("prepare", ms(self.prepare_ms)),
            ("attack", ms(self.attack_ms)),
            ("explain", ms(self.explain_ms)),
            ("detect", ms(self.detect_ms)),
            ("total", ms(self.total_ms)),
        ])
    }
}

/// `{planned_cells,phase_totals_ms,cell_latency_ms}`.
impl Serialize for SweepTelemetry {
    fn serialize(&self) -> Value {
        object(vec![
            ("planned_cells", Value::Number(self.planned_cells as f64)),
            ("phase_totals_ms", self.phase_totals.serialize()),
            ("cell_latency_ms", latency_value(&self.cell_latency)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_sums_phases_in_ms() {
        let acc = PhaseAccumulator::new();
        acc.add_attack(Duration::from_millis(2));
        acc.add_attack(Duration::from_millis(3));
        acc.add_explain(Duration::from_micros(1500));
        acc.add_detect(Duration::from_millis(1));
        let (attack, explain, detect) = acc.totals_ms();
        assert_eq!(attack, 5.0);
        assert_eq!(explain, 1.5);
        assert_eq!(detect, 1.0);
    }

    #[test]
    fn cell_timing_accumulates_per_phase() {
        let mut totals = CellTiming::default();
        totals.accumulate(&CellTiming {
            prepare_ms: 1.0,
            attack_ms: 2.0,
            explain_ms: 3.0,
            detect_ms: 4.0,
            total_ms: 10.0,
        });
        totals.accumulate(&CellTiming {
            prepare_ms: 0.5,
            attack_ms: 0.5,
            explain_ms: 0.5,
            detect_ms: 0.5,
            total_ms: 2.0,
        });
        assert_eq!(totals.prepare_ms, 1.5);
        assert_eq!(totals.total_ms, 12.0);
    }

    #[test]
    fn latency_summary_reads_histogram_percentiles() {
        let histogram = geattack_telemetry::Histogram::new();
        for _ in 0..10 {
            histogram.record(8.0);
        }
        let summary = latency_value(&histogram.snapshot());
        assert_eq!(summary.get_field("count"), Ok(&Value::Number(10.0)));
        assert_eq!(summary.get_field("max"), Ok(&Value::Number(8.0)));
        let p50 = summary.get_field("p50").and_then(Value::as_f64).unwrap();
        assert!(p50 > 0.0 && p50 <= 8.0);
    }
}
