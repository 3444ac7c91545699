//! Span sinks: the [`Recorder`] trait and the two built-in recorders.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::span::{Level, SpanRecord};

/// A thread-safe sink for finished spans. Implementations must tolerate
/// concurrent `record` calls from rayon worker threads.
pub trait Recorder: Send + Sync {
    /// Finest level this recorder wants; spans below it are never created.
    fn level(&self) -> Level {
        Level::Detail
    }

    /// Accepts one finished span.
    fn record(&self, span: &SpanRecord);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// A bounded in-memory span buffer: keeps the most recent `capacity` spans and
/// counts the ones it had to drop. Tests use it to assert on instrumentation
/// coverage, and the benchmark's traced run sums its spans into per-layer
/// self times.
#[derive(Debug)]
pub struct RingRecorder {
    level: Level,
    capacity: usize,
    spans: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

impl RingRecorder {
    /// A ring capturing all levels, keeping the most recent `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self::with_level(capacity, Level::Detail)
    }

    /// A ring capturing spans up to `level` only.
    pub fn with_level(capacity: usize, level: Level) -> Self {
        RingRecorder {
            level,
            capacity: capacity.max(1),
            spans: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Copies out the buffered spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().iter().cloned().collect()
    }

    /// Removes and returns the buffered spans, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().drain(..).collect()
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Recorder for RingRecorder {
    fn level(&self) -> Level {
        self.level
    }

    fn record(&self, span: &SpanRecord) {
        let mut spans = self.spans.lock().unwrap();
        if spans.len() == self.capacity {
            spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(span.clone());
    }
}

/// Streams spans as NDJSON — one JSON object per line — to a file, for offline
/// trace analysis (`geattack-sweep --telemetry PATH`). Defaults to
/// [`Level::Phase`] so hot-loop `Detail` spans (per-epoch, per-spmm) don't
/// flood the trace; use [`NdjsonRecorder::with_level`] to widen it.
///
/// Line schema (all times microseconds; `start_us` is relative to the first
/// span in the process):
///
/// ```json
/// {"span":"prepare","label":"ba-shapes/s0","level":"phase","id":7,"parent":3,
///  "thread":1,"start_us":120,"elapsed_us":4520}
/// ```
pub struct NdjsonRecorder {
    level: Level,
    out: Mutex<BufWriter<File>>,
}

impl NdjsonRecorder {
    /// Creates (truncates) `path` and records `Cell` + `Phase` spans to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::with_level(path, Level::Phase)
    }

    /// Creates (truncates) `path`, recording spans up to `level`.
    pub fn with_level(path: impl AsRef<Path>, level: Level) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(NdjsonRecorder {
            level,
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Recorder for NdjsonRecorder {
    fn level(&self) -> Level {
        self.level
    }

    fn record(&self, span: &SpanRecord) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"span\":\"");
        push_escaped(&mut line, span.name);
        line.push_str("\",\"label\":\"");
        push_escaped(&mut line, &span.label);
        line.push_str("\",\"level\":\"");
        line.push_str(span.level.name());
        line.push_str("\",\"id\":");
        line.push_str(&span.id.to_string());
        line.push_str(",\"parent\":");
        line.push_str(&span.parent.to_string());
        line.push_str(",\"thread\":");
        line.push_str(&span.thread.to_string());
        line.push_str(",\"start_us\":");
        line.push_str(&span.start_us.to_string());
        line.push_str(",\"elapsed_us\":");
        line.push_str(&span.elapsed_us.to_string());
        line.push_str("}\n");
        let mut out = self.out.lock().unwrap();
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

impl Drop for NdjsonRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters) —
/// span names are static identifiers but labels are free-form.
fn push_escaped(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, parent: u64, name: &'static str, label: &str) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            label: label.to_string(),
            level: Level::Phase,
            thread: 1,
            start_us: 10,
            elapsed_us: 20,
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let ring = RingRecorder::new(2);
        ring.record(&record(1, 0, "a", ""));
        ring.record(&record(2, 0, "b", ""));
        ring.record(&record(3, 0, "c", ""));
        let spans: Vec<u64> = ring.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(spans, vec![2, 3]);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn ndjson_lines_are_valid_json_with_escaping() {
        let dir = std::env::temp_dir().join(format!("geattack-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.ndjson");
        let recorder = NdjsonRecorder::create(&path).unwrap();
        recorder.record(&record(1, 0, "cache.get", "quote\"back\\slash\nnewline"));
        recorder.flush();
        drop(recorder);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"span\":\"cache.get\",\"label\":\"quote\\\"back\\\\slash\\nnewline\",\"level\":\"phase\",\
             \"id\":1,\"parent\":0,\"thread\":1,\"start_us\":10,\"elapsed_us\":20}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ndjson_default_level_is_phase() {
        let dir = std::env::temp_dir().join(format!("geattack-telemetry-lvl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recorder = NdjsonRecorder::create(dir.join("t.ndjson")).unwrap();
        assert_eq!(recorder.level(), Level::Phase);
        std::fs::remove_dir_all(&dir).ok();
    }
}
