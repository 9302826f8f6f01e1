//! A versioned on-disk result cache, keyed by 64-bit structural
//! fingerprints.
//!
//! Sweeps already share work *within* one process (duplicate settings are
//! deduplicated, identical compiled images share a profiling run). A
//! [`DiskCache`] extends that sharing **across process invocations and
//! rigs**: each entry is one JSON file named by its fingerprint, so a
//! repeated or re-sharded sweep reuses every profiling run it has already
//! paid for instead of re-simulating it.
//!
//! ## Versioning
//!
//! Cache entries are versioned exactly like `portopt-serve` snapshots: a
//! self-describing `meta` header (magic, cache format version, payload
//! kind + payload version, and the entry's own key) is validated *before*
//! the payload is decoded (magic and format version through the shared
//! [`artifact`] envelope), and every rejection is a loud, specific
//! [`CacheError`] — a cache written by an older IR encoding is refused,
//! never silently reused. Callers are expected to treat a rejected entry
//! as a miss (recompute and overwrite), so a stale or corrupted cache
//! degrades throughput, not correctness.
//!
//! ## Concurrency
//!
//! A `DiskCache` is `Sync`: sweep workers read and write entries
//! concurrently. Writes are published with [`artifact::write_atomic`], so
//! a reader never observes a half-written entry and concurrent writers of
//! the same key simply race to publish identical bytes.
//!
//! ## Garbage collection
//!
//! On a shared filesystem entries accumulate without bound, so the cache
//! also does size accounting ([`DiskCache::total_bytes`],
//! [`DiskCache::entries`]) and bounded eviction ([`DiskCache::gc`]):
//! oldest-first by modification time (LRU, with write time as the recency
//! signal) until the directory fits the byte budget. Entries this handle
//! wrote **or served as hits** during the current run are never evicted —
//! a concurrent GC can only reclaim *other* runs' entries, so it can slow
//! a live sweep down but never yank its working set. A pass also sweeps
//! up stale `*.tmp` droppings left behind by killed writers.
//!
//! ```
//! use portopt_exec::cache::DiskCache;
//!
//! let dir = std::env::temp_dir().join(format!("portopt-cache-doc-{}", std::process::id()));
//! let cache = DiskCache::open(&dir, "doc-example", 1).unwrap();
//! assert_eq!(cache.get::<Vec<u64>>(0xfeed).unwrap(), None); // cold
//! cache.put(0xfeed, &vec![1u64, 2, 3]).unwrap();
//! assert_eq!(cache.get::<Vec<u64>>(0xfeed).unwrap(), Some(vec![1, 2, 3]));
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses, stats.rejected), (1, 1, 0));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::artifact::{self, ArtifactError, Format};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

/// The cache-entry envelope, as checked by [`artifact`]. Bump its version
/// on any change to the envelope layout (the `meta`/`payload` framing
/// itself).
pub const CACHE_FORMAT: Format = Format {
    magic: "portopt-cache-entry",
    version: 1,
    noun: "cache entry",
};

/// Self-describing header written before every payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct EntryMeta {
    /// Always `CACHE_FORMAT.magic`.
    magic: String,
    /// Envelope version (`CACHE_FORMAT.version` at write time).
    format_version: u32,
    /// What the payload is (caller-chosen namespace, e.g. `exec-profile`).
    kind: String,
    /// Caller-chosen payload encoding version; bump when the payload type
    /// (or anything its fingerprint key covers, like the IR encoding)
    /// changes shape.
    payload_version: u32,
    /// The entry's own key, hex-encoded — catches files copied or renamed
    /// to the wrong fingerprint.
    key: String,
}

/// Cumulative outcome counters for one [`DiskCache`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries found, validated and decoded.
    pub hits: u64,
    /// Keys with no entry on disk.
    pub misses: u64,
    /// Entries present but refused (corrupt, stale version, wrong kind…).
    pub rejected: u64,
}

/// Why a cache entry (or the cache directory) was refused.
#[derive(Debug)]
pub enum CacheError {
    /// The entry or directory could not be read or written, does not
    /// parse, or is not a cache entry at this format version.
    Artifact(ArtifactError),
    /// The entry holds a different payload kind than this cache serves.
    KindMismatch {
        /// Kind in the file.
        found: String,
        /// Kind this cache was opened with.
        expected: String,
    },
    /// The payload was encoded under a different payload version (for the
    /// profile cache: an older IR/profile encoding).
    PayloadVersionMismatch {
        /// Payload version in the file.
        found: u32,
        /// Payload version this cache was opened with.
        supported: u32,
    },
    /// The entry's recorded key does not match the file it was read from.
    KeyMismatch {
        /// Key recorded inside the entry.
        found: String,
        /// Key derived from the file name.
        expected: String,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Artifact(e) => e.fmt(f),
            CacheError::KindMismatch { found, expected } => {
                write!(f, "cache entry holds `{found}`, expected `{expected}`")
            }
            CacheError::PayloadVersionMismatch { found, supported } => write!(
                f,
                "cache entry payload version {found} is stale \
                 (this binary writes version {supported})"
            ),
            CacheError::KeyMismatch { found, expected } => write!(
                f,
                "cache entry records key {found} but was read as {expected} \
                 (file renamed or copied?)"
            ),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Artifact(e) => std::error::Error::source(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for CacheError {
    fn from(e: ArtifactError) -> Self {
        CacheError::Artifact(e)
    }
}

/// A directory of fingerprint-keyed, version-checked JSON entries.
///
/// See the [module docs](self) for the format and concurrency story.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    kind: String,
    payload_version: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    /// Keys this handle wrote or served as hits: the current run's working
    /// set, which [`DiskCache::gc`] must never evict.
    touched: Mutex<HashSet<u64>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory serving payloads of
    /// `kind` at `payload_version`.
    pub fn open(
        dir: impl AsRef<Path>,
        kind: impl Into<String>,
        payload_version: u32,
    ) -> Result<Self, CacheError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| CACHE_FORMAT.io(e))?;
        Ok(DiskCache {
            dir,
            kind: kind.into(),
            payload_version,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            touched: Mutex::new(HashSet::new()),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters accumulated by this handle (not persisted).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Looks up `key`. `Ok(None)` means "no entry" (a plain miss);
    /// `Err(_)` means an entry exists but was refused, with the specific
    /// reason — callers should log it, recompute, and overwrite via
    /// [`put`](DiskCache::put).
    pub fn get<T: Deserialize>(&self, key: u64) -> Result<Option<T>, CacheError> {
        match self.read_entry(key) {
            Ok(Some(v)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(key);
                Ok(Some(v))
            }
            Ok(None) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn read_entry<T: Deserialize>(&self, key: u64) -> Result<Option<T>, CacheError> {
        let bytes = match std::fs::read(self.entry_path(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CACHE_FORMAT.io(e).into()),
        };
        // Header first, payload second — a stale entry is rejected with
        // its precise mismatch before the (much larger) payload is decoded.
        let doc = CACHE_FORMAT.parse(&bytes)?;
        let meta = doc
            .field("meta")
            .and_then(EntryMeta::from_value)
            .map_err(|e| CACHE_FORMAT.corrupt(e))?;
        if meta.kind != self.kind {
            return Err(CacheError::KindMismatch {
                found: meta.kind,
                expected: self.kind.clone(),
            });
        }
        if meta.payload_version != self.payload_version {
            return Err(CacheError::PayloadVersionMismatch {
                found: meta.payload_version,
                supported: self.payload_version,
            });
        }
        let expected_key = format!("{key:016x}");
        if meta.key != expected_key {
            return Err(CacheError::KeyMismatch {
                found: meta.key,
                expected: expected_key,
            });
        }
        let payload = doc
            .field("payload")
            .and_then(T::from_value)
            .map_err(|e| CACHE_FORMAT.corrupt(e))?;
        Ok(Some(payload))
    }

    /// Writes (or overwrites) the entry for `key`. Publication is atomic:
    /// concurrent readers see either the old entry or the new one, never a
    /// partial file.
    pub fn put<T: Serialize>(&self, key: u64, payload: &T) -> Result<(), CacheError> {
        let meta = EntryMeta {
            magic: CACHE_FORMAT.magic.to_string(),
            format_version: CACHE_FORMAT.version,
            kind: self.kind.clone(),
            payload_version: self.payload_version,
            key: format!("{key:016x}"),
        };
        let doc = Value::Object(vec![
            ("meta".to_string(), meta.to_value()),
            ("payload".to_string(), payload.to_value()),
        ]);
        let bytes = serde_json::to_vec(&doc).map_err(|e| CACHE_FORMAT.corrupt(e))?;
        artifact::write_atomic(self.entry_path(key), &bytes).map_err(|e| CACHE_FORMAT.io(e))?;
        self.touch(key);
        Ok(())
    }

    fn touch(&self, key: u64) {
        self.touched.lock().expect("touched set").insert(key);
    }

    /// Whether `key` belongs to this handle's current-run working set
    /// (written or served as a hit through this handle), which
    /// [`gc`](DiskCache::gc) will never evict.
    pub fn is_protected(&self, key: u64) -> bool {
        self.touched.lock().expect("touched set").contains(&key)
    }

    /// Scans the cache directory and describes every entry file (name,
    /// size, modification time). Temp droppings and foreign files are not
    /// entries and are skipped; entries that vanish mid-scan (a concurrent
    /// GC) are skipped too.
    pub fn entries(&self) -> Result<Vec<CacheEntryInfo>, CacheError> {
        let mut out = Vec::new();
        for dirent in std::fs::read_dir(&self.dir).map_err(|e| CACHE_FORMAT.io(e))? {
            let dirent = dirent.map_err(|e| CACHE_FORMAT.io(e))?;
            let name = dirent.file_name();
            let Some(key) = entry_key_of(&name.to_string_lossy()) else {
                continue;
            };
            let Ok(meta) = dirent.metadata() else {
                continue; // raced with a concurrent eviction
            };
            out.push(CacheEntryInfo {
                key,
                bytes: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(out)
    }

    /// Total bytes of all entry files currently in the cache directory.
    pub fn total_bytes(&self) -> Result<u64, CacheError> {
        Ok(self.entries()?.iter().map(|e| e.bytes).sum())
    }

    /// One bounded-size eviction pass: deletes entries oldest-first (by
    /// modification time, key as the tie-break, so a pass is deterministic
    /// for a given directory state) until the remaining entries fit in
    /// `max_bytes` — except entries in this handle's current-run working
    /// set, which are *never* evicted even if the budget cannot be met
    /// without them ([`GcReport::met_budget`] reports which case you got).
    /// Stale `*.tmp` files from killed writers (older than
    /// [`TMP_MAX_AGE`]) are removed as a side effect.
    ///
    /// Concurrent-safe: an entry that disappears mid-pass (another rig's
    /// GC) just stops counting, and live writers re-publish atomically, so
    /// the worst outcome of an eviction race is a re-profiled entry.
    pub fn gc(&self, max_bytes: u64) -> Result<GcReport, CacheError> {
        let tmp_removed = self.sweep_stale_tmps();
        let mut entries = self.entries()?;
        entries.sort_by(|a, b| (a.modified, a.key).cmp(&(b.modified, b.key)));
        let before_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport {
            examined: entries.len(),
            before_bytes,
            evicted: 0,
            evicted_bytes: 0,
            kept: 0,
            kept_bytes: before_bytes,
            protected: 0,
            tmp_removed,
        };
        for entry in &entries {
            if report.kept_bytes <= max_bytes {
                report.kept += 1;
                continue;
            }
            if self.is_protected(entry.key) {
                report.protected += 1;
                report.kept += 1;
                continue;
            }
            match std::fs::remove_file(self.entry_path(entry.key)) {
                // NotFound means another process evicted it first —
                // either way the entry no longer occupies the budget.
                Ok(()) => {
                    report.evicted += 1;
                    report.evicted_bytes += entry.bytes;
                    report.kept_bytes -= entry.bytes;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.evicted += 1;
                    report.evicted_bytes += entry.bytes;
                    report.kept_bytes -= entry.bytes;
                }
                // Undeletable (permissions?): still occupying the budget.
                Err(_) => report.kept += 1,
            }
        }
        Ok(report)
    }

    /// Removes `*.tmp` files older than [`TMP_MAX_AGE`] — droppings of
    /// writers that were killed between write and rename. Fresh temp files
    /// are left alone: they may belong to a live writer about to publish.
    fn sweep_stale_tmps(&self) -> usize {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for dirent in dir.flatten() {
            let name = dirent.file_name();
            if !name.to_string_lossy().ends_with(".tmp") {
                continue;
            }
            let stale = dirent
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| SystemTime::now().duration_since(t).ok())
                .is_some_and(|age| age > TMP_MAX_AGE);
            if stale && std::fs::remove_file(dirent.path()).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

/// Age past which a `*.tmp` file is considered a dropping of a killed
/// writer and reclaimed by [`DiskCache::gc`]. Live writers publish within
/// milliseconds of creating their temp file.
pub const TMP_MAX_AGE: Duration = Duration::from_secs(600);

/// Parses an entry file name (`<16 hex digits>.json`) back to its key.
fn entry_key_of(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".json")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// One on-disk cache entry as seen by the GC scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntryInfo {
    /// The entry's fingerprint key (from its file name).
    pub key: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Last-modified time — the LRU recency signal.
    pub modified: SystemTime,
}

/// Outcome of one [`DiskCache::gc`] eviction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries present when the pass started.
    pub examined: usize,
    /// Their total size when the pass started.
    pub before_bytes: u64,
    /// Entries deleted.
    pub evicted: usize,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Entries left in the cache.
    pub kept: usize,
    /// Their total size — the directory's size after the pass.
    pub kept_bytes: u64,
    /// Entries kept *despite* the budget because they belong to the
    /// current run's working set.
    pub protected: usize,
    /// Stale `*.tmp` droppings removed.
    pub tmp_removed: usize,
}

impl GcReport {
    /// Whether the pass got the directory under `max_bytes`. `false` means
    /// the current run's protected working set alone exceeds the budget.
    pub fn met_budget(&self, max_bytes: u64) -> bool {
        self.kept_bytes <= max_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("portopt-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_hit_and_miss_counting() {
        let dir = scratch_dir("roundtrip");
        let cache = DiskCache::open(&dir, "test-payload", 3).unwrap();
        assert_eq!(cache.get::<Vec<u64>>(42).unwrap(), None);
        cache.put(42, &vec![9u64, 8, 7]).unwrap();
        assert_eq!(cache.get::<Vec<u64>>(42).unwrap(), Some(vec![9, 8, 7]));
        cache.put(42, &vec![1u64]).unwrap(); // overwrite
        assert_eq!(cache.get::<Vec<u64>>(42).unwrap(), Some(vec![1]));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.rejected), (2, 1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_rejected_with_corrupt_error() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        std::fs::write(cache.entry_path(7), b"{ not json").unwrap();
        match cache.get::<u32>(7) {
            Err(CacheError::Artifact(ArtifactError::Corrupt { .. })) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(cache.stats().rejected, 1);
        // A rejected entry is recoverable: overwrite and read back.
        cache.put(7, &5u32).unwrap();
        assert_eq!(cache.get::<u32>(7).unwrap(), Some(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_json_is_not_a_cache_entry() {
        let dir = scratch_dir("foreign");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        std::fs::write(
            cache.entry_path(9),
            br#"{"meta": {"magic": "something-else", "format_version": 1, "kind": "test-payload", "payload_version": 1, "key": "0000000000000009"}, "payload": 1}"#,
        )
        .unwrap();
        match cache.get::<u32>(9) {
            Err(CacheError::Artifact(ArtifactError::WrongMagic { found, .. })) => {
                assert_eq!(found, "something-else")
            }
            other => panic!("expected WrongMagic, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_versions_and_kinds_are_named() {
        let dir = scratch_dir("stale");
        let writer = DiskCache::open(&dir, "test-payload", 2).unwrap();
        writer.put(1, &11u32).unwrap();

        // Same dir opened expecting a newer payload encoding: stale entry.
        let newer = DiskCache::open(&dir, "test-payload", 3).unwrap();
        match newer.get::<u32>(1) {
            Err(CacheError::PayloadVersionMismatch {
                found: 2,
                supported: 3,
            }) => {}
            other => panic!("expected PayloadVersionMismatch, got {other:?}"),
        }

        // Same dir opened for a different payload kind entirely.
        let other_kind = DiskCache::open(&dir, "other-things", 2).unwrap();
        match other_kind.get::<u32>(1) {
            Err(CacheError::KindMismatch { found, expected }) => {
                assert_eq!(found, "test-payload");
                assert_eq!(expected, "other-things");
            }
            other => panic!("expected KindMismatch, got {other:?}"),
        }

        // An envelope from a future format version.
        std::fs::write(
            writer.entry_path(2),
            br#"{"meta": {"magic": "portopt-cache-entry", "format_version": 99, "kind": "test-payload", "payload_version": 2, "key": "0000000000000002"}, "payload": 1}"#,
        )
        .unwrap();
        match writer.get::<u32>(2) {
            Err(CacheError::Artifact(ArtifactError::Version {
                found: 99,
                supported,
                ..
            })) => assert_eq!(supported, CACHE_FORMAT.version),
            other => panic!("expected Version, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renamed_entry_is_caught_by_key_check() {
        let dir = scratch_dir("renamed");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        cache.put(0xAA, &1u32).unwrap();
        std::fs::copy(cache.entry_path(0xAA), cache.entry_path(0xBB)).unwrap();
        match cache.get::<u32>(0xBB) {
            Err(CacheError::KeyMismatch { found, expected }) => {
                assert_eq!(found, format!("{:016x}", 0xAA));
                assert_eq!(expected, format!("{:016x}", 0xBB));
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_writers_of_one_key_leave_one_valid_entry() {
        // Two threads hammering the SAME key with different payloads while
        // a reader polls it: atomic tmp+rename must guarantee the reader
        // never sees a torn entry (`Corrupt`), and the final state is
        // exactly one valid entry holding one of the written values.
        let dir = scratch_dir("same-key");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        const KEY: u64 = 0xD0D0;
        const ROUNDS: u64 = 200;
        std::thread::scope(|s| {
            for writer in 0..2u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        cache.put(KEY, &vec![writer, i]).unwrap();
                    }
                });
            }
            let cache = &cache;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    match cache.get::<Vec<u64>>(KEY) {
                        Ok(None) => {} // not yet published
                        Ok(Some(v)) => {
                            assert_eq!(v.len(), 2, "torn payload: {v:?}");
                            assert!(v[0] < 2 && v[1] < ROUNDS, "foreign payload: {v:?}");
                        }
                        Err(e) => panic!("reader saw a corrupt entry mid-race: {e}"),
                    }
                }
            });
        });
        let last = cache.get::<Vec<u64>>(KEY).unwrap().expect("entry exists");
        assert_eq!(last[1], ROUNDS - 1, "final entry is some writer's last put");
        // Exactly one entry file for the key, and no temp droppings.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec![format!("{KEY:016x}.json")], "{files:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn age_entry(cache: &DiskCache, key: u64, secs_ago: u64) {
        let f = std::fs::File::options()
            .write(true)
            .open(cache.entry_path(key))
            .unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(secs_ago))
            .unwrap();
    }

    #[test]
    fn gc_evicts_oldest_first_until_under_budget() {
        let dir = scratch_dir("gc-lru");
        let writer = DiskCache::open(&dir, "test-payload", 1).unwrap();
        // Five entries of identical size, aged 50s..10s (key 1 oldest).
        for k in 1..=5u64 {
            writer.put(k, &vec![k; 16]).unwrap();
            age_entry(&writer, k, 60 - k * 10);
        }
        let per_entry = writer.total_bytes().unwrap() / 5;
        // A fresh handle (nothing touched) GCs down to a 3-entry budget:
        // the two oldest go, the three newest stay.
        let gc = DiskCache::open(&dir, "test-payload", 1).unwrap();
        let report = gc.gc(3 * per_entry).unwrap();
        assert_eq!(report.examined, 5);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.evicted_bytes, 2 * per_entry);
        assert_eq!(report.kept, 3);
        assert_eq!(report.protected, 0);
        assert!(report.met_budget(3 * per_entry), "{report:?}");
        assert_eq!(gc.total_bytes().unwrap(), 3 * per_entry);
        for k in 1..=2u64 {
            assert_eq!(gc.get::<Vec<u64>>(k).unwrap(), None, "key {k} evicted");
        }
        for k in 3..=5u64 {
            assert!(gc.get::<Vec<u64>>(k).unwrap().is_some(), "key {k} kept");
        }
        // Idempotent: already under budget, nothing more to do.
        let again = gc.gc(3 * per_entry).unwrap();
        assert_eq!(again.evicted, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_never_evicts_the_current_runs_entries() {
        let dir = scratch_dir("gc-protect");
        // An earlier run left two old entries behind...
        let old_run = DiskCache::open(&dir, "test-payload", 1).unwrap();
        old_run.put(100, &vec![0u64; 16]).unwrap();
        old_run.put(101, &vec![0u64; 16]).unwrap();
        age_entry(&old_run, 100, 1000);
        age_entry(&old_run, 101, 900);
        // ...and the current run wrote one entry and hit another.
        let current = DiskCache::open(&dir, "test-payload", 1).unwrap();
        current.put(200, &vec![7u64; 16]).unwrap();
        assert!(current.get::<Vec<u64>>(101).unwrap().is_some());
        assert!(current.is_protected(200) && current.is_protected(101));
        assert!(!current.is_protected(100));
        // Budget of zero: everything MUST go except the protected pair,
        // even though the budget cannot be met without them.
        let report = current.gc(0).unwrap();
        assert_eq!(report.evicted, 1, "{report:?}"); // only the untouched 100
        assert_eq!(report.protected, 2, "{report:?}");
        assert!(!report.met_budget(0), "{report:?}");
        assert!(current.get::<Vec<u64>>(200).unwrap().is_some());
        assert!(current.get::<Vec<u64>>(101).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_sweeps_stale_tmp_droppings_but_not_fresh_ones() {
        let dir = scratch_dir("gc-tmp");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        cache.put(1, &1u32).unwrap();
        // A dropping from a writer killed between write and rename...
        let stale = dir.join(".00000000000000aa.999.0.tmp");
        std::fs::write(&stale, b"half-written").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&stale)
            .unwrap()
            .set_modified(SystemTime::now() - (TMP_MAX_AGE + Duration::from_secs(60)))
            .unwrap();
        // ...and a fresh temp file of a (hypothetical) live writer.
        let fresh = dir.join(".00000000000000bb.998.0.tmp");
        std::fs::write(&fresh, b"about to publish").unwrap();
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(report.tmp_removed, 1, "{report:?}");
        assert!(!stale.exists(), "stale dropping reclaimed");
        assert!(fresh.exists(), "live writer's temp file untouched");
        assert_eq!(report.evicted, 0, "no entries over budget");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_scan_ignores_foreign_files() {
        let dir = scratch_dir("gc-scan");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        cache.put(0xCAFE, &vec![1u8, 2, 3]).unwrap();
        std::fs::write(dir.join("README.txt"), b"not an entry").unwrap();
        std::fs::write(dir.join("deadbeef.json"), b"short hex name").unwrap();
        std::fs::write(dir.join(".0000000000000001.1.0.tmp"), b"tmp").unwrap();
        let entries = cache.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key, 0xCAFE);
        assert!(entries[0].bytes > 0);
        assert_eq!(cache.total_bytes().unwrap(), entries[0].bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_agree() {
        let dir = scratch_dir("concurrent");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for k in 0..32u64 {
                        cache.put(k, &vec![k, k * 2]).unwrap();
                    }
                });
            }
        });
        for k in 0..32u64 {
            assert_eq!(cache.get::<Vec<u64>>(k).unwrap(), Some(vec![k, k * 2]));
        }
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
