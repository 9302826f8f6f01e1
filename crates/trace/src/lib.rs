//! Workspace-wide tracing: leveled structured events plus timed spans,
//! with a stderr sink for humans and an optional JSON-lines file sink
//! for the offline `trace` analysis bin.
//!
//! This crate is deliberately **dependency-free** (std only): it sits
//! below every other workspace crate — `portopt-exec` reports each
//! batch's compute and idle time through it, `portopt-core` wraps every
//! (program, setting) pricing in a span, the bench bins route their
//! progress chatter through the leveled macros — so it must never pull
//! another crate (not even a shim) into the leaf position of the
//! dependency graph.
//! It hand-rolls the small JSON subset it needs to emit records; the
//! reader lives with its one consumer, the `trace` bin
//! (`portopt_bench::read`), which parses with the `serde_json` shim.
//!
//! ## Model
//!
//! Two primitives:
//!
//! - **Events** — one-shot leveled records with a formatted message and
//!   optional structured fields, emitted via the [`error!`], [`warn!`],
//!   [`info!`], [`debug!`] and [`trace!`] macros.
//! - **Spans** — timed regions with a process-unique id, an optional
//!   parent (same-thread nesting via a thread-local stack), a
//!   monotonic-clock duration, and open/close fields. [`span`] returns
//!   an RAII [`SpanGuard`] that closes on drop; [`Span::begin`] /
//!   [`Span::end`] is the detached form for lifecycles that cross
//!   threads (a coordinator lease is granted on one connection thread
//!   and expired on another).
//!
//! ## Sinks and filtering
//!
//! The **stderr sink** prints human one-liners and is filtered by the
//! global max level — set from `--log-level` (every bench bin) or the
//! `PORTOPT_LOG` environment variable, default `info`. Span closes
//! print to stderr at `debug`, span opens at `trace`.
//!
//! The **file sink** (`--trace-out PATH`) is an append-only JSON-lines
//! trace file that records *everything regardless of level* — a trace
//! file exists to answer "where did the time go", so it is never
//! level-thinned. It opens with a versioned header line, and like every
//! other published artifact in this workspace it is written to a
//! `PATH.tmp.<pid>` sibling and atomically renamed into place by
//! [`finish`]. A process that dies before [`finish`] leaves only the tmp
//! file — a trace is either complete or visibly absent, never torn under
//! its final name.
//!
//! When neither sink wants a record (level filtered out, no file sink)
//! an event costs two relaxed atomic loads and a span costs one
//! timestamp plus an id bump — cheap enough to leave enabled in
//! production builds, which `BENCH_sweep.json`'s `obs_trajectory`
//! gate holds to <5% on the fig1 smoke sweep.
//!
//! Timestamps in the trace file are microseconds since the first
//! [`init`] call (monotonic clock), so they order correctly across
//! threads but are **not** wall-clock times; the header carries
//! `start_unix_ms` for coarse correlation with the outside world.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The `magic` field of every trace-file header; anything else is not one.
pub const TRACE_MAGIC: &str = "portopt-trace";

/// Current trace-file format version. Bump on any change to the header
/// or record layout.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Event severity, ordered: a max level of [`Level::Info`] admits
/// `Error`, `Warn` and `Info`. [`Level::Off`] is only meaningful as a
/// filter (`--log-level off`); nothing is ever *emitted* at `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Silence the stderr sink entirely (filter-only pseudo-level).
    Off = 0,
    /// The operation failed; output may be missing or degraded.
    Error = 1,
    /// Something unexpected that the code recovered from.
    Warn = 2,
    /// Progress milestones a human running the bin wants by default.
    Info = 3,
    /// Per-unit-of-work detail: span durations, cache hits, batch sizes.
    Debug = 4,
    /// Firehose: queue depth samples, span opens, per-chunk accounting.
    Trace = 5,
}

impl Level {
    /// Parses a level name (case-insensitive): `off`, `error`, `warn`,
    /// `info`, `debug`, `trace`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The canonical lowercase name (`Off` renders as `"off"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// A structured field value. Built via `From` impls so call sites can
/// write `("pairs", n.into())` — or, through the macros, `pairs = n`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (also `usize`/`u32` via `From`).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Borrowed-then-owned string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

macro_rules! field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}
field_from!(u64 => U64 as u64, usize => U64 as u64, u32 => U64 as u64,
            u16 => U64 as u64, i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}
impl From<&String> for FieldValue {
    fn from(v: &String) -> FieldValue {
        FieldValue::Str(v.clone())
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Global tracer state.
// ---------------------------------------------------------------------------

/// Max level admitted to the stderr sink (`Level as u8`; default Info).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
/// Fast mirror of "is a file sink installed", so the macros' guard is a
/// relaxed load instead of a mutex acquire.
static SINK_ON: AtomicBool = AtomicBool::new(false);
/// Process-unique span ids; 0 is reserved for "no span / no parent".
static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Option<FileSink>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Open RAII spans on this thread, innermost last — the parent
    /// chain for new spans.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn elapsed_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Initializes the global tracer: sets the stderr max level and, if
/// `trace_out` is given, opens the JSON-lines file sink (writing its
/// header line immediately). Call [`finish`] before a clean exit to
/// publish the trace file under its final name.
///
/// Safe to call more than once: the level is updated each time, the
/// monotonic epoch is pinned by the first call, and a second file sink
/// replaces the first (which is abandoned as its tmp file).
pub fn init(level: Level, trace_out: Option<&Path>) -> std::io::Result<()> {
    epoch(); // pin the epoch before any record can need it
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
    if let Some(path) = trace_out {
        let sink = FileSink::create(path)?;
        *SINK.lock().expect("trace sink lock") = Some(sink);
        SINK_ON.store(true, Ordering::Release);
    }
    Ok(())
}

/// Resolves the effective level: an explicit `--log-level` value wins,
/// else the `PORTOPT_LOG` environment variable, else [`Level::Info`].
/// Unparseable values fall through to the next source.
pub fn level_from_env_or(flag: Option<&str>) -> Level {
    if let Some(l) = flag.and_then(Level::parse) {
        return l;
    }
    if let Ok(env) = std::env::var("PORTOPT_LOG") {
        if let Some(l) = Level::parse(&env) {
            return l;
        }
    }
    Level::Info
}

/// The current stderr max level.
pub fn max_level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Off,
    }
}

/// Whether an event at `level` would reach the stderr sink.
pub fn stderr_wants(level: Level) -> bool {
    level != Level::Off && (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Whether a file sink is installed (which records all levels).
pub fn sink_on() -> bool {
    SINK_ON.load(Ordering::Relaxed)
}

/// Macro guard: would an event at `level` reach *any* sink? When this
/// is false the macros skip argument formatting entirely, so a filtered
/// event costs two relaxed atomic loads.
pub fn wanted(level: Level) -> bool {
    stderr_wants(level) || sink_on()
}

/// Flushes and atomically publishes the trace file (tmp → final
/// rename), returning the final path if a sink was open. Idempotent;
/// call at the end of `main` — a process killed before this leaves only
/// the `.tmp.<pid>` sibling, never a torn file under the final name.
pub fn finish() -> std::io::Result<Option<PathBuf>> {
    let sink = SINK.lock().expect("trace sink lock").take();
    SINK_ON.store(false, Ordering::Release);
    match sink {
        Some(s) => s.publish().map(Some),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------------

/// Emits one event to every sink that wants it. Call through the level
/// macros, which guard with [`wanted`] first; calling this directly
/// bypasses no correctness, only the cheap skip.
pub fn emit_event(
    level: Level,
    target: &str,
    args: fmt::Arguments<'_>,
    fields: &[(&str, FieldValue)],
) {
    let us = elapsed_us();
    if stderr_wants(level) {
        let mut line = format!(
            "[{:>10.3}s {:<5} {}] {}",
            us as f64 / 1e6,
            level.as_str(),
            target,
            args
        );
        for (k, v) in fields {
            use fmt::Write as _;
            let _ = write!(line, " {k}={v}");
        }
        eprintln!("{line}");
    }
    if sink_on() {
        let mut rec = String::with_capacity(96);
        rec.push_str("{\"t\":\"e\",\"us\":");
        push_u64(&mut rec, us);
        rec.push_str(",\"lvl\":\"");
        rec.push_str(level.as_str());
        rec.push_str("\",\"tgt\":");
        push_json_str(&mut rec, target);
        rec.push_str(",\"msg\":");
        push_json_str(&mut rec, &args.to_string());
        push_fields(&mut rec, fields);
        rec.push('}');
        sink_write(&rec);
    }
}

/// A timed region. Detached form: [`Span::begin`] on one thread,
/// [`Span::end`]/[`Span::end_with`] wherever the lifecycle finishes —
/// nothing thread-local is held, so the span can be stored in shared
/// state (e.g. a coordinator lease table). Dropping a `Span` without
/// ending it closes it implicitly with no extra fields.
#[derive(Debug)]
pub struct Span {
    id: u64,
    target: &'static str,
    name: &'static str,
    start: Instant,
    closed: bool,
}

impl Span {
    /// Opens a detached span. The parent is taken from the calling
    /// thread's RAII stack (none if empty).
    pub fn begin(target: &'static str, name: &'static str, fields: &[(&str, FieldValue)]) -> Span {
        let id = SPAN_SEQ.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied()).unwrap_or(0);
        let us = elapsed_us();
        if sink_on() {
            let mut rec = String::with_capacity(96);
            rec.push_str("{\"t\":\"so\",\"us\":");
            push_u64(&mut rec, us);
            rec.push_str(",\"id\":");
            push_u64(&mut rec, id);
            rec.push_str(",\"parent\":");
            push_u64(&mut rec, parent);
            rec.push_str(",\"tgt\":");
            push_json_str(&mut rec, target);
            rec.push_str(",\"name\":");
            push_json_str(&mut rec, name);
            push_fields(&mut rec, fields);
            rec.push('}');
            sink_write(&rec);
        }
        if stderr_wants(Level::Trace) {
            emit_event(
                Level::Trace,
                target,
                format_args!("{name} begin"),
                &[("span", FieldValue::U64(id))],
            );
        }
        Span {
            id,
            target,
            name,
            start: Instant::now(),
            closed: false,
        }
    }

    /// This span's process-unique id (matches the trace-file records).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Microseconds since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Closes the span.
    pub fn end(mut self) {
        self.close(&[]);
    }

    /// Closes the span with result fields (e.g. `hit = true`).
    pub fn end_with(mut self, fields: &[(&str, FieldValue)]) {
        self.close(fields);
    }

    fn close(&mut self, fields: &[(&str, FieldValue)]) {
        if self.closed {
            return;
        }
        self.closed = true;
        let dur_us = self.start.elapsed().as_micros() as u64;
        if sink_on() {
            let mut rec = String::with_capacity(64);
            rec.push_str("{\"t\":\"sc\",\"us\":");
            push_u64(&mut rec, elapsed_us());
            rec.push_str(",\"id\":");
            push_u64(&mut rec, self.id);
            rec.push_str(",\"dur_us\":");
            push_u64(&mut rec, dur_us);
            push_fields(&mut rec, fields);
            rec.push('}');
            sink_write(&rec);
        }
        if stderr_wants(Level::Debug) {
            let mut extra = String::new();
            for (k, v) in fields {
                use fmt::Write as _;
                let _ = write!(extra, " {k}={v}");
            }
            emit_event(
                Level::Debug,
                self.target,
                format_args!("{} done in {}us{}", self.name, dur_us, extra),
                &[],
            );
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close(&[]);
    }
}

/// RAII wrapper around a [`Span`] that also maintains the thread-local
/// parent stack: spans opened on this thread while the guard lives
/// become its children. Closes on drop (including unwind).
#[derive(Debug)]
pub struct SpanGuard {
    span: Option<Span>,
}

/// Opens an RAII span: pushed onto this thread's parent stack, closed
/// (and popped) when the returned guard drops.
pub fn span(target: &'static str, name: &'static str, fields: &[(&str, FieldValue)]) -> SpanGuard {
    let sp = Span::begin(target, name, fields);
    SPAN_STACK.with(|s| s.borrow_mut().push(sp.id));
    SpanGuard { span: Some(sp) }
}

impl SpanGuard {
    /// The wrapped span's id.
    pub fn id(&self) -> u64 {
        self.span.as_ref().map_or(0, Span::id)
    }

    /// Microseconds since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.span.as_ref().map_or(0, Span::elapsed_us)
    }

    /// Closes the span now, attaching result fields.
    pub fn close_with(mut self, fields: &[(&str, FieldValue)]) {
        if let Some(mut sp) = self.span.take() {
            pop_stack(sp.id);
            sp.close(fields);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut sp) = self.span.take() {
            pop_stack(sp.id);
            sp.close(&[]);
        }
    }
}

fn pop_stack(id: u64) {
    SPAN_STACK.with(|s| {
        let mut st = s.borrow_mut();
        // Guards drop LIFO in well-nested code; `retain` covers the
        // pathological out-of-order drop without corrupting the stack.
        if st.last() == Some(&id) {
            st.pop();
        } else {
            st.retain(|&x| x != id);
        }
    });
}

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

/// Emits a leveled event. Prefer the per-level shorthands
/// ([`error!`](crate::error), [`warn!`](crate::warn), …); the forms are
/// `event!(level, target, "fmt", args…)` and
/// `event!(level, target, { key = value, … }, "fmt", args…)`.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $tgt:expr, { $($k:ident = $v:expr),* $(,)? }, $($arg:tt)+) => {{
        if $crate::wanted($lvl) {
            $crate::emit_event(
                $lvl,
                $tgt,
                ::core::format_args!($($arg)+),
                &[$((::core::stringify!($k), $crate::FieldValue::from($v))),*],
            );
        }
    }};
    ($lvl:expr, $tgt:expr, $($arg:tt)+) => {
        $crate::event!($lvl, $tgt, {}, $($arg)+)
    };
}

/// `error!(target, {fields…}?, "fmt", …)` — the operation failed.
#[macro_export]
macro_rules! error {
    ($tgt:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Error, $tgt, $($rest)+) };
}
/// `warn!(target, {fields…}?, "fmt", …)` — recovered but unexpected.
#[macro_export]
macro_rules! warn {
    ($tgt:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Warn, $tgt, $($rest)+) };
}
/// `info!(target, {fields…}?, "fmt", …)` — default-visible progress.
#[macro_export]
macro_rules! info {
    ($tgt:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Info, $tgt, $($rest)+) };
}
/// `debug!(target, {fields…}?, "fmt", …)` — per-unit-of-work detail.
#[macro_export]
macro_rules! debug {
    ($tgt:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Debug, $tgt, $($rest)+) };
}
/// `trace!(target, {fields…}?, "fmt", …)` — firehose detail.
#[macro_export]
macro_rules! trace {
    ($tgt:expr, $($rest:tt)+) => { $crate::event!($crate::Level::Trace, $tgt, $($rest)+) };
}

// ---------------------------------------------------------------------------
// File sink.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
    tmp: PathBuf,
    final_path: PathBuf,
}

impl FileSink {
    fn create(path: &Path) -> std::io::Result<FileSink> {
        let final_path = path.to_path_buf();
        let mut name = final_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        name.push_str(&format!(".tmp.{}", std::process::id()));
        let tmp = final_path.with_file_name(name);
        let file = std::fs::File::create(&tmp)?;
        let mut sink = FileSink {
            w: std::io::BufWriter::new(file),
            tmp,
            final_path,
        };
        let start_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let bin = std::env::args()
            .next()
            .map(|a| {
                Path::new(&a)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or(a)
            })
            .unwrap_or_else(|| "unknown".to_string());
        let mut header = String::with_capacity(96);
        header.push_str("{\"magic\":\"");
        header.push_str(TRACE_MAGIC);
        header.push_str("\",\"format_version\":");
        push_u64(&mut header, TRACE_FORMAT_VERSION as u64);
        header.push_str(",\"bin\":");
        push_json_str(&mut header, &bin);
        header.push_str(",\"start_unix_ms\":");
        push_u64(&mut header, start_unix_ms);
        header.push('}');
        sink.line(&header)?;
        sink.w.flush()?;
        Ok(sink)
    }

    fn line(&mut self, rec: &str) -> std::io::Result<()> {
        self.w.write_all(rec.as_bytes())?;
        self.w.write_all(b"\n")
    }

    fn publish(mut self) -> std::io::Result<PathBuf> {
        self.w.flush()?;
        self.w.get_ref().sync_all()?;
        drop(self.w);
        std::fs::rename(&self.tmp, &self.final_path)?;
        Ok(self.final_path)
    }
}

fn sink_write(rec: &str) {
    let mut guard = SINK.lock().expect("trace sink lock");
    if let Some(sink) = guard.as_mut() {
        if sink.line(rec).is_err() {
            // A sink that cannot append degrades observability, never
            // the traced computation: drop it and keep running.
            *guard = None;
            SINK_ON.store(false, Ordering::Release);
            drop(guard);
            eprintln!("trace sink write failed; tracing to file disabled");
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-rolled JSON emission.
// ---------------------------------------------------------------------------

fn push_u64(out: &mut String, v: u64) {
    use fmt::Write as _;
    let _ = write!(out, "{v}");
}

/// Appends `s` as a JSON string literal (quoted, escaped).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field_value(out: &mut String, v: &FieldValue) {
    use fmt::Write as _;
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(n) => {
            // JSON has no Infinity/NaN: write null.
            if n.is_finite() {
                let _ = write!(out, "{n}");
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Str(s) => push_json_str(out, s),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Appends `,"f":{…}` if there are any fields.
fn push_fields(out: &mut String, fields: &[(&str, FieldValue)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"f\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_field_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
        for l in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
    }

    #[test]
    fn level_resolution_precedence() {
        // Explicit flag wins over anything.
        assert_eq!(level_from_env_or(Some("debug")), Level::Debug);
        // Unparseable flag falls through to the default (the test
        // process has no meaningful PORTOPT_LOG).
        std::env::remove_var("PORTOPT_LOG");
        assert_eq!(level_from_env_or(Some("nonsense")), Level::Info);
        assert_eq!(level_from_env_or(None), Level::Info);
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn fields_render_as_json_object() {
        let mut s = String::new();
        push_fields(
            &mut s,
            &[
                ("n", FieldValue::U64(7)),
                ("ratio", FieldValue::F64(0.5)),
                ("inf", FieldValue::F64(f64::INFINITY)),
                ("who", FieldValue::Str("rig-1".into())),
                ("ok", FieldValue::Bool(true)),
            ],
        );
        assert_eq!(
            s,
            ",\"f\":{\"n\":7,\"ratio\":0.5,\"inf\":null,\"who\":\"rig-1\",\"ok\":true}"
        );
        let mut empty = String::new();
        push_fields(&mut empty, &[]);
        assert_eq!(empty, "");
    }

    #[test]
    fn field_value_from_impls() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-2i64), FieldValue::I64(-2));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from(1.5f64), FieldValue::F64(1.5));
    }

    #[test]
    fn span_ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..100)
                        .map(|_| Span::begin("t", "s", &[]).id())
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }
}
