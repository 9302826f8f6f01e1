//! Every versioned artifact's reader, handed another artifact's bytes,
//! refuses it by the envelope: the found magic is named, it is never
//! called corrupt, and nothing panics. A header one format version ahead
//! is refused as a version mismatch by all three readers.

use portopt_bench::read::{read_trace, TRACE_FORMAT};
use portopt_exec::artifact::{ArtifactError, Format};
use portopt_exec::cache::{CacheError, DiskCache, CACHE_FORMAT};
use portopt_serve::snapshot::SNAPSHOT_FORMAT;
use portopt_serve::{Snapshot, SnapshotError};
use std::path::PathBuf;
use std::sync::OnceLock;

const KEY: u64 = 0xfeed;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("portopt-artifact-test-{}", std::process::id()))
        .join(tag.replace(' ', "-"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One real instance of each artifact, written by its own writer (the
/// snapshot is the serve crate's golden kNN file).
fn artifacts() -> &'static [(Format, Vec<u8>); 3] {
    static ALL: OnceLock<[(Format, Vec<u8>); 3]> = OnceLock::new();
    ALL.get_or_init(|| {
        let dir = scratch("writers");
        let cache = DiskCache::open(&dir, "test-payload", 1).unwrap();
        cache.put(KEY, &vec![1u64, 2, 3]).unwrap();
        let entry = std::fs::read(dir.join(format!("{KEY:016x}.json"))).unwrap();

        let trace_path = dir.join("out.trace");
        portopt_trace::init(portopt_trace::Level::Off, Some(&trace_path)).unwrap();
        portopt_trace::info!("test", "one record");
        portopt_trace::finish().unwrap();
        let trace = std::fs::read(&trace_path).unwrap();

        let snapshot = include_bytes!("../../serve/tests/golden/pre_pr10_knn.snap").to_vec();
        [
            (SNAPSHOT_FORMAT, snapshot),
            (CACHE_FORMAT, entry),
            (TRACE_FORMAT, trace),
        ]
    })
}

/// Runs `format`'s reader over `bytes`: its envelope error, or `None` if
/// it accepted them. Any other refusal panics.
fn read_with(format: Format, bytes: &[u8], tag: &str) -> Option<ArtifactError> {
    let dir = scratch(tag);
    std::fs::write(dir.join(format!("{KEY:016x}.json")), bytes).unwrap();
    let err = if format == SNAPSHOT_FORMAT {
        match Snapshot::from_bytes(bytes) {
            Err(SnapshotError::Artifact(e)) => Some(e),
            other => other.map(|_| None).unwrap(),
        }
    } else if format == CACHE_FORMAT {
        match DiskCache::open(&dir, "test-payload", 1)
            .unwrap()
            .get::<Vec<u64>>(KEY)
        {
            Err(CacheError::Artifact(e)) => Some(e),
            other => other.map(|_| None).unwrap(),
        }
    } else {
        read_trace(std::str::from_utf8(bytes).unwrap()).err()
    };
    let _ = std::fs::remove_dir_all(&dir);
    err
}

#[test]
fn every_reader_refuses_the_other_artifacts_by_magic() {
    for (reader, _) in artifacts() {
        for (written, bytes) in artifacts().iter().filter(|(f, _)| f != reader) {
            let tag = format!("{} reads {}", reader.noun, written.noun);
            match read_with(*reader, bytes, &tag) {
                Some(e @ ArtifactError::WrongMagic { .. }) => {
                    let shown =
                        format!("not a portopt {} (magic `{}`)", reader.noun, written.magic);
                    assert_eq!(e.to_string(), shown, "{tag}");
                }
                other => panic!("{tag}: expected WrongMagic, got {other:?}"),
            }
        }
    }
}

#[test]
fn every_reader_refuses_the_next_format_version() {
    for (format, bytes) in artifacts() {
        let current = format!("\"format_version\":{}", format.version);
        let next = format!("\"format_version\":{}", format.version + 1);
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(text.contains(&current), "{}", format.noun);
        let tag = format!("{} next version", format.noun);
        match read_with(*format, text.replacen(&current, &next, 1).as_bytes(), &tag) {
            Some(e @ ArtifactError::Version { found, .. }) => {
                assert_eq!(found, format.version + 1, "{tag}");
                let shown = format!(
                    "{} format version {found} is not supported (this binary reads version {})",
                    format.noun, format.version
                );
                assert_eq!(e.to_string(), shown, "{tag}");
            }
            other => panic!("{tag}: expected Version, got {other:?}"),
        }
    }
}
