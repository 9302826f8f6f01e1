//! The one envelope every versioned on-disk artifact goes through: the
//! model snapshot, the profile-cache entry and the trace file. Each opens
//! with a JSON header carrying `magic` and `format_version`, at the top
//! level of its first line (trace) or under `meta` (snapshot, cache
//! entry). A [`Format`] names one
//! artifact; [`Format::check`] is the one magic/version comparison,
//! [`ArtifactError`] the one envelope error, and [`write_atomic`] the one
//! temp-plus-`rename` publisher.

use serde::{Deserialize, Value};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// One versioned artifact's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// The header's `magic`; anything else is not this artifact.
    pub magic: &'static str,
    /// The one `format_version` this binary reads and writes.
    pub version: u32,
    /// What operators call the artifact in messages (`"snapshot"`).
    pub noun: &'static str,
}

/// Why an artifact could not be read or written, before any of its own
/// domain checks ran.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read or written.
    Io {
        /// The artifact's noun.
        noun: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The bytes do not parse as this artifact.
    Corrupt {
        /// The artifact's noun.
        noun: &'static str,
        /// What failed to parse.
        detail: String,
    },
    /// The header parses but names another artifact.
    WrongMagic {
        /// The artifact's noun.
        noun: &'static str,
        /// The magic actually found.
        found: String,
    },
    /// The header was written at an unsupported format version.
    Version {
        /// The artifact's noun.
        noun: &'static str,
        /// Version in the file.
        found: u32,
        /// Version this binary reads.
        supported: u32,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { noun, source } => write!(f, "{noun} i/o error: {source}"),
            ArtifactError::Corrupt { noun, detail } => write!(f, "corrupt {noun}: {detail}"),
            ArtifactError::WrongMagic { noun, found } => {
                write!(f, "not a portopt {noun} (magic `{found}`)")
            }
            ArtifactError::Version {
                noun,
                found,
                supported,
            } => write!(
                f,
                "{noun} format version {found} is not supported \
                 (this binary reads version {supported})"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl Format {
    /// Validates a header's `magic`, then its `format_version`. `header`
    /// may be the header object itself or a document holding it under
    /// `meta`, so any artifact's header is recognised by any reader: a
    /// foreign artifact is refused as [`ArtifactError::WrongMagic`].
    pub fn check(&self, header: &Value) -> Result<(), ArtifactError> {
        let header = header.field("meta").unwrap_or(header);
        let magic = header
            .field("magic")
            .and_then(String::from_value)
            .map_err(|e| self.corrupt(e))?;
        if magic != self.magic {
            return Err(ArtifactError::WrongMagic {
                noun: self.noun,
                found: magic,
            });
        }
        let found = header
            .field("format_version")
            .and_then(u32::from_value)
            .map_err(|e| self.corrupt(e))?;
        if found != self.version {
            return Err(ArtifactError::Version {
                noun: self.noun,
                found,
                supported: self.version,
            });
        }
        Ok(())
    }

    /// Parses a one-document artifact and checks its header. Bytes that
    /// are not one JSON document but whose first line is another
    /// artifact's header (a trace file) are refused by that
    /// header, not as corrupt.
    pub fn parse(&self, bytes: &[u8]) -> Result<Value, ArtifactError> {
        let text = std::str::from_utf8(bytes).map_err(|e| self.corrupt(e))?;
        match serde_json::parse(text) {
            Ok(doc) => self.check(&doc).map(|()| doc),
            Err(e) => {
                let first_line = text.split('\n').next().unwrap_or_default();
                match serde_json::parse(first_line).map(|h| self.check(&h)) {
                    Ok(Err(
                        e @ (ArtifactError::WrongMagic { .. } | ArtifactError::Version { .. }),
                    )) => Err(e),
                    _ => Err(self.corrupt(e)),
                }
            }
        }
    }

    /// An [`ArtifactError::Io`] for this artifact.
    pub fn io(&self, source: std::io::Error) -> ArtifactError {
        ArtifactError::Io {
            noun: self.noun,
            source,
        }
    }

    /// An [`ArtifactError::Corrupt`] for this artifact.
    pub fn corrupt(&self, detail: impl std::fmt::Display) -> ArtifactError {
        ArtifactError::Corrupt {
            noun: self.noun,
            detail: detail.to_string(),
        }
    }
}

/// Publishes `bytes` at `path` atomically: they are written to a uniquely
/// named `.<name>.<pid>.<seq>.tmp` sibling and renamed over `path`, so a
/// reader sees the old file or the new one, never a torn one, and a killed
/// writer leaves at most a `*.tmp` dropping (which `DiskCache::gc` sweeps).
/// Nothing is fsynced: this survives a process crash, not a power cut.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}
