//! The trace writer's global sink, end to end through the reader. It
//! lives in its own test binary, so no other test's spans reach the
//! process-wide sink while it counts what it recorded.

use portopt_bench::read::{read_trace, TraceRecord};
use portopt_trace::{debug, finish, info, init, sink_on, span, Level, Span, TRACE_FORMAT_VERSION};

/// End-to-end through the real global sink: init → events + spans →
/// finish → parse back with the reader.
#[test]
fn global_sink_round_trip() {
    let dir = std::env::temp_dir().join(format!("portopt-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.trace");

    init(Level::Info, Some(&path)).unwrap();
    assert!(sink_on());
    // Final name must not exist until finish(): atomic publication.
    assert!(!path.exists());

    info!("test", { pairs = 3usize }, "hello {}", "world");
    debug!("test", "below the stderr filter but still sinked");
    {
        let g = span("test", "outer", &[("p", 1usize.into())]);
        assert!(g.id() > 0);
        let inner = span("test", "inner", &[]);
        inner.close_with(&[("hit", true.into())]);
    }
    let detached = Span::begin("test", "lease", &[("shard", 2usize.into())]);
    std::thread::spawn(move || detached.end()).join().unwrap();

    let published = finish().unwrap().expect("sink was open");
    assert_eq!(published, path);
    assert!(!sink_on());
    assert!(finish().unwrap().is_none(), "finish is idempotent");

    let text = std::fs::read_to_string(&path).unwrap();
    let tf = read_trace(&text).unwrap();
    assert_eq!(tf.header.format_version, TRACE_FORMAT_VERSION);

    let mut events = 0;
    let mut opens = std::collections::HashMap::new();
    let mut closes = 0;
    let mut inner_parent = None;
    for r in &tf.records {
        match r {
            TraceRecord::Event { msg, .. } => {
                events += 1;
                if msg.contains("hello") {
                    assert!(msg.contains("world"));
                }
            }
            TraceRecord::SpanOpen {
                id, parent, name, ..
            } => {
                opens.insert(*id, name.clone());
                if name == "inner" {
                    inner_parent = Some(*parent);
                }
            }
            TraceRecord::SpanClose { id, .. } => {
                closes += 1;
                assert!(opens.contains_key(id), "close matches an open");
            }
        }
    }
    assert!(events >= 2, "info and debug events both sinked");
    assert_eq!(opens.len(), 3);
    assert_eq!(closes, 3);
    // The RAII stack parented inner under outer.
    let outer_id = opens
        .iter()
        .find(|(_, n)| n.as_str() == "outer")
        .map(|(id, _)| *id)
        .unwrap();
    assert_eq!(inner_parent, Some(Some(outer_id)));

    let _ = std::fs::remove_dir_all(&dir);
}
