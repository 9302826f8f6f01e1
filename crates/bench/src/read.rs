//! Reading side of the `portopt-trace` file format: the header-validated
//! record decoder the `trace` analysis bin and CI's well-formedness check
//! are built on. Lines parse with the workspace's `serde_json`, and the
//! header goes through the shared `portopt_exec::artifact` envelope check.
//!
//! The tolerance contract: the header is validated before anything else
//! is believed, complete records are decoded strictly, and a torn final
//! line (process killed mid-append) is reported via
//! [`TraceFile::torn_tail`] rather than failing the whole file.

use portopt_exec::artifact::{ArtifactError, Format};
use portopt_trace::{TRACE_FORMAT_VERSION, TRACE_MAGIC};
use serde::{Deserialize, Value};
use std::collections::HashMap;

/// The trace-file header envelope, as checked by `portopt_exec::artifact`.
pub const TRACE_FORMAT: Format = Format {
    magic: TRACE_MAGIC,
    version: TRACE_FORMAT_VERSION,
    noun: "trace file",
};

/// The validated first line of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Format version the file was written at.
    pub format_version: u32,
    /// Basename of the binary that produced the trace.
    pub bin: String,
    /// Wall-clock start, milliseconds since the unix epoch.
    pub start_unix_ms: u64,
}

/// One decoded trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A leveled structured event.
    Event {
        /// Microseconds since trace start.
        us: u64,
        /// Level name (`"info"`, …).
        level: String,
        /// Emitting subsystem.
        target: String,
        /// Formatted message.
        msg: String,
        /// Structured fields.
        fields: Vec<(String, Value)>,
    },
    /// A span opening.
    SpanOpen {
        /// Microseconds since trace start.
        us: u64,
        /// Process-unique span id.
        id: u64,
        /// Parent span id, if the span was nested.
        parent: Option<u64>,
        /// Emitting subsystem.
        target: String,
        /// Span name (the analysis "stage").
        name: String,
        /// Open fields (e.g. program, setting index).
        fields: Vec<(String, Value)>,
    },
    /// A span closing.
    SpanClose {
        /// Microseconds since trace start.
        us: u64,
        /// Id of the span being closed.
        id: u64,
        /// Monotonic duration of the span.
        dur_us: u64,
        /// Close fields (e.g. `hit = true`).
        fields: Vec<(String, Value)>,
    },
}

/// A fully decoded trace file.
#[derive(Debug)]
pub struct TraceFile {
    /// The validated header.
    pub header: Header,
    /// All complete records, in file order.
    pub records: Vec<TraceRecord>,
    /// True if the file ended mid-line (producer killed mid-append).
    pub torn_tail: bool,
}

fn fields_of(v: &Value) -> Vec<(String, Value)> {
    v.field("f")
        .ok()
        .and_then(Value::as_object)
        .map(<[_]>::to_vec)
        .unwrap_or_default()
}

fn req<T: Deserialize>(v: &Value, key: &str, line_no: usize) -> Result<T, ArtifactError> {
    v.field(key)
        .and_then(T::from_value)
        .map_err(|_| TRACE_FORMAT.corrupt(format!("line {line_no}: missing/invalid `{key}`")))
}

/// Parses and validates a whole trace file: header first (wrong magic or
/// a future format version are hard errors, as for every artifact),
/// then every complete line as a record. A final line without its
/// newline is tolerated and flagged as [`TraceFile::torn_tail`]; a
/// *complete* line that does not decode is a hard error — there is
/// nothing to salvage, the file is evidence.
pub fn read_trace(text: &str) -> Result<TraceFile, ArtifactError> {
    let mut lines = text.split_inclusive('\n');
    let header_line = lines
        .next()
        .ok_or_else(|| TRACE_FORMAT.corrupt("empty file"))?;
    let h = TRACE_FORMAT.parse(header_line.as_bytes())?;
    if !header_line.ends_with('\n') {
        return Err(TRACE_FORMAT.corrupt("torn header line (producer died at creation)"));
    }
    let header = Header {
        format_version: TRACE_FORMAT.version,
        bin: req(&h, "bin", 1).unwrap_or_else(|_| "unknown".into()),
        start_unix_ms: req(&h, "start_unix_ms", 1).unwrap_or(0),
    };

    let mut records = Vec::new();
    let mut torn_tail = false;
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        if !line.ends_with('\n') {
            torn_tail = true;
            break;
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let v = serde_json::parse(trimmed)
            .map_err(|e| TRACE_FORMAT.corrupt(format!("line {line_no}: {e}")))?;
        let t: String = req(&v, "t", line_no)?;
        let us = req(&v, "us", line_no)?;
        let rec = match t.as_str() {
            "e" => TraceRecord::Event {
                us,
                level: req(&v, "lvl", line_no)?,
                target: req(&v, "tgt", line_no)?,
                msg: req(&v, "msg", line_no)?,
                fields: fields_of(&v),
            },
            "so" => {
                let parent = req(&v, "parent", line_no)?;
                TraceRecord::SpanOpen {
                    us,
                    id: req(&v, "id", line_no)?,
                    parent: if parent == 0 { None } else { Some(parent) },
                    target: req(&v, "tgt", line_no)?,
                    name: req(&v, "name", line_no)?,
                    fields: fields_of(&v),
                }
            }
            "sc" => TraceRecord::SpanClose {
                us,
                id: req(&v, "id", line_no)?,
                dur_us: req(&v, "dur_us", line_no)?,
                fields: fields_of(&v),
            },
            other => {
                return Err(
                    TRACE_FORMAT.corrupt(format!("line {line_no}: unknown record type `{other}`"))
                )
            }
        };
        records.push(rec);
    }
    Ok(TraceFile {
        header,
        records,
        torn_tail,
    })
}

/// Cross-checks span opens against closes: every close must match an
/// earlier open, and no id may close twice. Returns the ids of spans
/// left open (normal for a torn or mid-flight trace) or an error
/// describing the first violation.
pub fn check_spans(records: &[TraceRecord]) -> Result<Vec<u64>, String> {
    let mut open: HashMap<u64, bool> = HashMap::new(); // id -> closed?
    for (i, r) in records.iter().enumerate() {
        match r {
            TraceRecord::SpanOpen { id, .. } => {
                if open.insert(*id, false).is_some() {
                    return Err(format!("record {i}: span id {id} opened twice"));
                }
            }
            TraceRecord::SpanClose { id, .. } => match open.get_mut(id) {
                None => return Err(format!("record {i}: close of never-opened span {id}")),
                Some(closed @ false) => *closed = true,
                Some(true) => return Err(format!("record {i}: span {id} closed twice")),
            },
            TraceRecord::Event { .. } => {}
        }
    }
    let mut dangling: Vec<u64> = open
        .into_iter()
        .filter(|(_, closed)| !closed)
        .map(|(id, _)| id)
        .collect();
    dangling.sort_unstable();
    Ok(dangling)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header_line() -> String {
        format!(
            "{{\"magic\":\"{TRACE_MAGIC}\",\"format_version\":{TRACE_FORMAT_VERSION},\
             \"bin\":\"test\",\"start_unix_ms\":12}}\n"
        )
    }

    #[test]
    fn header_validation_is_typed() {
        assert!(read_trace("").is_err());
        assert!(
            read_trace("{\"magic\":\"portopt-tr").is_err(),
            "torn header"
        );
        let wrong_magic = "{\"magic\":\"other\",\"format_version\":1}\n";
        let e = read_trace(wrong_magic).unwrap_err().to_string();
        assert!(e.contains("not a portopt trace"), "{e}");
        let future = format!(
            "{{\"magic\":\"{TRACE_MAGIC}\",\"format_version\":99,\"bin\":\"x\",\"start_unix_ms\":0}}\n"
        );
        let e = read_trace(&future).unwrap_err().to_string();
        assert!(e.contains("version 99"), "{e}");
    }

    #[test]
    fn records_decode_and_torn_tail_is_flagged() {
        let mut text = header_line();
        text.push_str(
            "{\"t\":\"e\",\"us\":5,\"lvl\":\"info\",\"tgt\":\"x\",\"msg\":\"m\",\"f\":{\"n\":3}}\n",
        );
        text.push_str(
            "{\"t\":\"so\",\"us\":6,\"id\":1,\"parent\":0,\"tgt\":\"x\",\"name\":\"work\"}\n",
        );
        text.push_str("{\"t\":\"sc\",\"us\":9,\"id\":1,\"dur_us\":3}\n");
        text.push_str("{\"t\":\"e\",\"us\":10,\"lvl\":\"in"); // torn
        let tf = read_trace(&text).unwrap();
        assert!(tf.torn_tail);
        assert_eq!(tf.records.len(), 3);
        assert_eq!(tf.header.bin, "test");
        match &tf.records[0] {
            TraceRecord::Event { fields, .. } => {
                assert_eq!(fields[0].0, "n");
                assert_eq!(u64::from_value(&fields[0].1).ok(), Some(3));
            }
            other => panic!("expected event, got {other:?}"),
        }
        match &tf.records[1] {
            TraceRecord::SpanOpen {
                parent: None, name, ..
            } => assert_eq!(name, "work"),
            other => panic!("expected root span open, got {other:?}"),
        }
        assert_eq!(check_spans(&tf.records).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn corrupt_complete_line_is_a_hard_error() {
        let mut text = header_line();
        text.push_str("{ not json\n");
        let e = read_trace(&text).unwrap_err().to_string();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn span_check_catches_violations() {
        let open = |id| TraceRecord::SpanOpen {
            us: 0,
            id,
            parent: None,
            target: "t".into(),
            name: "n".into(),
            fields: vec![],
        };
        let close = |id| TraceRecord::SpanClose {
            us: 1,
            id,
            dur_us: 1,
            fields: vec![],
        };
        assert_eq!(check_spans(&[open(1), close(1)]).unwrap(), vec![]);
        assert_eq!(check_spans(&[open(1), open(2), close(2)]).unwrap(), vec![1]);
        assert!(check_spans(&[close(7)]).is_err());
        assert!(check_spans(&[open(1), close(1), close(1)]).is_err());
        assert!(check_spans(&[open(1), open(1)]).is_err());
    }
}
