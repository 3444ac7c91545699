//! # geattack-telemetry
//!
//! The observability core of the workspace: structured spans, pluggable
//! recorders and a metrics registry — with **zero dependencies**, so that even
//! leaf crates like `geattack-cache` and `geattack-tensor` can emit telemetry
//! without picking up serde or the rayon shim.
//!
//! * [`span`](mod@span) — [`SpanGuard`]s measure a region on the monotonic clock and
//!   report it, with its parent span and thread, to the installed recorder
//!   when the guard drops. Spans carry a [`Level`] (`Cell` > `Phase` >
//!   `Detail`); whether a span is live is a single relaxed atomic load, so an
//!   uninstrumented process pays one branch per call site and allocates
//!   nothing.
//! * [`recorder`] — the [`Recorder`] sink trait plus the two built-ins:
//!   [`RingRecorder`] (bounded in-memory buffer, for tests and the benchmark's
//!   traced run) and [`NdjsonRecorder`] (one JSON object per line to a file,
//!   for offline analysis; `geattack-sweep --telemetry PATH` installs one).
//! * [`metrics`] — named [`Counter`]s/[`Histogram`]s in an instantiable
//!   [`MetricsRegistry`]. Histograms use fixed latency buckets and export
//!   p50/p95/p99; registries are per-owner (the engine owns one, each
//!   `CacheStore` owns one) so per-store counters and per-request deltas stay
//!   exact instead of being smeared into process-wide globals.
//!
//! Recording is process-global and off by default: [`install`] a recorder to
//! start capturing, [`uninstall`] to stop. Reports stay byte-identical with
//! telemetry on or off because spans and metrics never feed back into the
//! computation — that invariant is pinned by the integration tests.

pub mod metrics;
pub mod recorder;
pub mod span;

pub use metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use recorder::{NdjsonRecorder, Recorder, RingRecorder};
pub use span::{span, span_labeled, Level, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, RwLock};

/// Maximum live level, `0` when no recorder is installed. Read relaxed on
/// every span construction — this is the fast path that keeps disabled
/// telemetry effectively free.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The installed recorder. Only consulted after the level check passes.
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Installs `recorder` as the process-wide span sink and enables spans up to
/// `recorder.level()`. Replaces any previously installed recorder.
pub fn install(recorder: Arc<dyn Recorder>) {
    let level = recorder.level().as_u8();
    *RECORDER.write().unwrap() = Some(recorder);
    LEVEL.store(level, Ordering::SeqCst);
}

/// Disables span recording and returns the previously installed recorder, if
/// any, so callers can flush or inspect it.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    LEVEL.store(0, Ordering::SeqCst);
    RECORDER.write().unwrap().take()
}

/// Whether spans at `level` are currently recorded.
#[inline]
pub fn enabled(level: Level) -> bool {
    level.as_u8() <= LEVEL.load(Ordering::Relaxed)
}

/// Flushes the installed recorder (NDJSON sinks buffer writes).
pub fn flush() {
    if let Some(recorder) = RECORDER.read().unwrap().as_ref() {
        recorder.flush();
    }
}

/// Hands a finished span to the installed recorder.
pub(crate) fn dispatch(record: &SpanRecord) {
    if let Some(recorder) = RECORDER.read().unwrap().as_ref() {
        recorder.record(record);
    }
}
