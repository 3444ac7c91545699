//! Atomic, content-addressed on-disk key-value store.
//!
//! One entry per file under the cache directory: `<key>.bin`, where `key` is
//! the 32-hex-char content hash the caller derived with [`crate::KeyHasher`].
//! Every entry starts with a magic number and a store-format version; payload
//! semantics (and payload versioning) belong to the caller. Writes go to a
//! unique temp file first and are `rename`d into place, so readers — including
//! concurrent shard processes sharing one cache directory — only ever observe
//! complete entries.
//!
//! The store never counts its own hits and misses: only the caller knows
//! whether a loaded payload actually *decoded* into something usable, so the
//! counting protocol is explicit — [`CacheStore::record_hit`] after a
//! successful decode, [`CacheStore::record_miss`] before recomputing, and
//! [`CacheStore::evict`] when an entry turns out to be corrupt. The counters
//! live on a per-store [`MetricsRegistry`] (`cache.hits` / `cache.misses` /
//! `cache.evictions` / `cache.bytes_read` / `cache.bytes_written`), so a
//! daemon sharing one store across requests can export exact per-store
//! numbers; [`CacheStore::counters`] snapshots them in the legacy
//! [`CacheCounters`] shape report metadata uses. Loads and stores open
//! `cache.get` / `cache.put` telemetry spans.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geattack_telemetry::{span, Counter, Level, MetricsRegistry};

/// Magic bytes opening every entry file.
const MAGIC: [u8; 4] = *b"GEAC";
/// On-disk envelope version (bump when the header layout changes).
const STORE_VERSION: u32 = 1;
/// Entry file extension.
const ENTRY_EXT: &str = "bin";

/// Snapshot of a store's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Entries that loaded and decoded successfully.
    pub hits: u64,
    /// Lookups that found no usable entry and fell back to computing.
    pub misses: u64,
    /// Entries removed because they were corrupt or unreadable.
    pub evictions: u64,
}

/// Result of one garbage-collection pass ([`CacheStore::gc_to_budget`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Committed entries examined.
    pub examined: usize,
    /// Entries removed (oldest mtime first).
    pub evicted: usize,
    /// Total committed bytes before the pass.
    pub bytes_before: u64,
    /// Total committed bytes after the pass.
    pub bytes_after: u64,
}

/// A directory of atomically-written cache entries, optionally kept under a
/// size budget by LRU-by-mtime eviction (mtime is the entry's last write —
/// loads do not refresh it, so "least recently used" degrades gracefully to
/// "least recently written").
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    budget_bytes: Option<u64>,
    metrics: MetricsRegistry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    tmp_counter: AtomicU64,
}

impl CacheStore {
    /// Opens (creating if needed) a cache directory with no size budget.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        Self::open_with_budget(dir, None)
    }

    /// Opens a cache directory that [`CacheStore::store`] keeps under
    /// `budget_bytes` by evicting the oldest-mtime entries after each write.
    pub fn open_with_budget(dir: impl Into<PathBuf>, budget_bytes: Option<u64>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        let metrics = MetricsRegistry::new();
        let hits = metrics.counter("cache.hits");
        let misses = metrics.counter("cache.misses");
        let evictions = metrics.counter("cache.evictions");
        let bytes_read = metrics.counter("cache.bytes_read");
        let bytes_written = metrics.counter("cache.bytes_written");
        Ok(Self {
            dir,
            budget_bytes,
            metrics,
            hits,
            misses,
            evictions,
            bytes_read,
            bytes_written,
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The store's own metrics registry (`cache.*` counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry lives in.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        debug_assert!(
            key.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
            "cache keys must be filesystem-safe, got {key:?}"
        );
        self.dir.join(format!("{key}.{ENTRY_EXT}"))
    }

    /// Loads an entry's payload. Returns `None` when the entry is absent; a
    /// present entry with a bad envelope (wrong magic or store version, or an
    /// unreadable file) is evicted and also reported as `None`. No hit/miss
    /// accounting happens here — see the module docs for the protocol.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let _span = span(Level::Phase, "cache.get");
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!("cache: evicting unreadable entry {}: {e}", path.display());
                self.evict(key);
                return None;
            }
        };
        let envelope_ok = bytes.len() >= 8
            && bytes[..4] == MAGIC
            && u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) == STORE_VERSION;
        if !envelope_ok {
            eprintln!("cache: evicting entry {} with a bad envelope", path.display());
            self.evict(key);
            return None;
        }
        self.bytes_read.add(bytes.len() as u64);
        Some(bytes[8..].to_vec())
    }

    /// Stores a payload under `key`, atomically: the entry is written to a
    /// process-unique temp file and renamed into place, so concurrent readers
    /// and writers never see a torn entry (last writer wins).
    pub fn store(&self, key: &str, payload: &[u8]) -> Result<(), String> {
        let _span = span(Level::Phase, "cache.put");
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{key}.tmp.{}.{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let mut bytes = Vec::with_capacity(8 + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&tmp, &bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot publish {}: {e}", path.display())
        })?;
        self.bytes_written.add(bytes.len() as u64);
        if let Some(budget) = self.budget_bytes {
            // Enforcement after publication: the just-written entry carries the
            // newest mtime, so it is evicted last — only a budget smaller than
            // a single entry removes what was just stored.
            self.gc_to_budget(budget);
        }
        Ok(())
    }

    /// Committed entries as `(mtime, file name, bytes)`, sorted oldest-first
    /// with ties broken by name so eviction order is deterministic even on
    /// filesystems with coarse mtime granularity.
    fn entries_by_age(&self) -> Vec<(std::time::SystemTime, String, u64)> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut entries: Vec<(std::time::SystemTime, String, u64)> = dir
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|ext| ext == ENTRY_EXT))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.file_name().to_string_lossy().into_owned(), meta.len()))
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        entries
    }

    /// Evicts the oldest-mtime entries until the committed bytes fit inside
    /// `budget_bytes` (LRU-by-mtime pruning). Counts each removal as an
    /// eviction. Usable directly (the `geattack-cache gc` subcommand) or
    /// implicitly through a budgeted store's writes.
    pub fn gc_to_budget(&self, budget_bytes: u64) -> GcStats {
        let entries = self.entries_by_age();
        let bytes_before: u64 = entries.iter().map(|&(_, _, len)| len).sum();
        let mut stats = GcStats {
            examined: entries.len(),
            evicted: 0,
            bytes_before,
            bytes_after: bytes_before,
        };
        for (_, name, len) in entries {
            if stats.bytes_after <= budget_bytes {
                break;
            }
            if std::fs::remove_file(self.dir.join(&name)).is_ok() {
                stats.bytes_after = stats.bytes_after.saturating_sub(len);
                stats.evicted += 1;
                self.evictions.inc();
            }
        }
        stats
    }

    /// Total committed bytes on disk (temp files excluded).
    pub fn total_bytes(&self) -> u64 {
        self.entries_by_age().iter().map(|&(_, _, len)| len).sum()
    }

    /// Committed entries as `(file name, encoded bytes on disk)`, sorted by
    /// name so listings are stable across filesystems and runs.
    pub fn entry_sizes(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> = self
            .entries_by_age()
            .into_iter()
            .map(|(_, name, len)| (name, len))
            .collect();
        entries.sort();
        entries
    }

    /// Removes an entry (corrupt or invalidated) and counts the eviction.
    pub fn evict(&self, key: &str) {
        let _ = std::fs::remove_file(self.entry_path(key));
        self.evictions.inc();
    }

    /// Records a successful cache hit.
    pub fn record_hit(&self) {
        self.hits.inc();
    }

    /// Records a miss (about to recompute).
    pub fn record_miss(&self) {
        self.misses.inc();
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of committed entries on disk (temp files excluded).
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == ENTRY_EXT))
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh store under the system temp dir, cleaned up on drop.
    struct TempStore {
        store: CacheStore,
    }

    impl TempStore {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("geattack-cache-store-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self {
                store: CacheStore::open(dir).expect("temp cache opens"),
            }
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.store.dir());
        }
    }

    #[test]
    fn round_trip_and_counter_protocol() {
        let t = TempStore::new("roundtrip");
        let store = &t.store;
        assert!(store.load("00ff").is_none());
        store.record_miss();
        store.store("00ff", b"payload").expect("store succeeds");
        assert_eq!(store.entry_count(), 1);
        let loaded = store.load("00ff").expect("entry exists");
        assert_eq!(loaded, b"payload");
        store.record_hit();
        assert_eq!(
            store.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn entry_sizes_report_encoded_bytes_per_entry() {
        let t = TempStore::new("sizes");
        t.store.store("bb", b"four").unwrap();
        t.store.store("aa", b"a longer payload").unwrap();
        let sizes = t.store.entry_sizes();
        assert_eq!(sizes.len(), 2);
        // Name-sorted, and each size is the on-disk envelope (header + payload).
        assert!(sizes[0].0.starts_with("aa"), "sorted by name: {sizes:?}");
        assert!(sizes[1].0.starts_with("bb"));
        assert!(sizes[0].1 > sizes[1].1, "larger payload encodes larger: {sizes:?}");
        assert_eq!(sizes.iter().map(|&(_, len)| len).sum::<u64>(), t.store.total_bytes());
    }

    #[test]
    fn overwrite_is_last_writer_wins() {
        let t = TempStore::new("overwrite");
        t.store.store("aa", b"one").unwrap();
        t.store.store("aa", b"two").unwrap();
        assert_eq!(t.store.load("aa").unwrap(), b"two");
        assert_eq!(t.store.entry_count(), 1);
    }

    #[test]
    fn bad_envelope_is_evicted_and_reported_absent() {
        let t = TempStore::new("envelope");
        let store = &t.store;
        // Wrong magic.
        std::fs::write(store.entry_path("bad1"), b"NOPE....payload").unwrap();
        assert!(store.load("bad1").is_none());
        assert!(!store.entry_path("bad1").exists(), "corrupt entry removed");
        // Too short to even carry a header.
        std::fs::write(store.entry_path("bad2"), b"GE").unwrap();
        assert!(store.load("bad2").is_none());
        // Wrong store version.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"GEAC");
        bytes.extend_from_slice(&999u32.to_le_bytes());
        bytes.extend_from_slice(b"payload");
        std::fs::write(store.entry_path("bad3"), bytes).unwrap();
        assert!(store.load("bad3").is_none());
        assert_eq!(store.counters().evictions, 3);
    }

    #[test]
    fn gc_to_budget_evicts_oldest_first() {
        let t = TempStore::new("gc");
        let store = &t.store;
        // Keys chosen so the name tie-break matches write order even when the
        // filesystem's mtime granularity makes all three mtimes equal.
        store.store("aa", &[1u8; 100]).unwrap();
        store.store("bb", &[2u8; 100]).unwrap();
        store.store("cc", &[3u8; 100]).unwrap();
        let per_entry = 108; // 100 payload + 8 envelope
        assert_eq!(store.total_bytes(), 3 * per_entry);

        // Budget for two entries: the oldest ("aa") goes.
        let stats = store.gc_to_budget(2 * per_entry);
        assert_eq!(stats.examined, 3);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.bytes_before, 3 * per_entry);
        assert_eq!(stats.bytes_after, 2 * per_entry);
        assert!(store.load("aa").is_none());
        assert!(store.load("bb").is_some());
        assert!(store.load("cc").is_some());
        assert_eq!(store.counters().evictions, 1);

        // A generous budget is a no-op.
        let stats = store.gc_to_budget(10_000);
        assert_eq!(stats.evicted, 0);
        assert_eq!(store.entry_count(), 2);
    }

    #[test]
    fn budgeted_store_enforces_on_every_write() {
        let dir = std::env::temp_dir().join(format!("geattack-cache-store-{}-budget", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Budget fits exactly two 108-byte entries.
        let store = CacheStore::open_with_budget(&dir, Some(216)).expect("opens");
        store.store("aa", &[0u8; 100]).unwrap();
        store.store("bb", &[0u8; 100]).unwrap();
        assert_eq!(store.entry_count(), 2, "within budget, nothing evicted");
        store.store("cc", &[0u8; 100]).unwrap();
        assert_eq!(store.entry_count(), 2, "third write evicts the oldest entry");
        assert!(store.load("aa").is_none(), "the oldest entry was pruned");
        assert!(store.load("cc").is_some(), "the just-written entry survives");
        assert_eq!(store.counters().evictions, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_are_backed_by_the_metrics_registry() {
        let t = TempStore::new("metrics");
        let store = &t.store;
        store.store("aa", b"payload").unwrap();
        store.load("aa");
        store.record_hit();
        store.record_miss();
        store.evict("aa");
        let metrics = store.metrics();
        assert_eq!(metrics.counter_value("cache.hits"), 1);
        assert_eq!(metrics.counter_value("cache.misses"), 1);
        assert_eq!(metrics.counter_value("cache.evictions"), 1);
        // 8-byte envelope both ways.
        assert_eq!(metrics.counter_value("cache.bytes_written"), 15);
        assert_eq!(metrics.counter_value("cache.bytes_read"), 15);
        // The legacy snapshot reads the same counters.
        assert_eq!(
            store.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                evictions: 1
            }
        );
    }

    #[test]
    fn empty_payloads_round_trip() {
        let t = TempStore::new("empty");
        t.store.store("ee", b"").unwrap();
        assert_eq!(t.store.load("ee").unwrap(), b"");
    }
}
