//! Live serving metrics: lock-cheap counters a running server can be
//! asked about, replacing the shutdown-only stats report.
//!
//! [`ServeMetrics`] is a registry of atomic counters plus a fixed-bucket
//! latency histogram. The hot path (one batch drain) touches it with a
//! handful of relaxed atomic adds — no lock is taken per *request*, and
//! the only mutex (the per-snapshot-version table) is taken once per
//! *batch*. Readers never block writers: a stats snapshot is a point-in-
//! time read of the atomics, consistent enough for operations ("is the
//! queue backing up?", "what is p99 right now?") without being a
//! serialized transaction.
//!
//! Two read surfaces, both specified in `docs/SERVING.md`:
//!
//! * the `{"cmd": "stats"}` admin request — one JSON line, answered
//!   out-of-band like the reload acknowledgement
//!   ([`MetricsSnapshot::to_json_line`]);
//! * the optional `--metrics-port` plaintext endpoint — one
//!   `name value` pair per line, Prometheus-style
//!   ([`MetricsSnapshot::to_text`]), served by the concurrent front end.
//!
//! ```
//! use portopt_serve::metrics::ServeMetrics;
//!
//! let m = ServeMetrics::new();
//! m.record_request(0.25, None); // 0.25 ms, success
//! m.record_request(3.0, Some(())); // 3 ms, error reply
//! m.record_batch(2, 1); // one 2-request batch on snapshot version 1
//! let snap = m.snapshot(0);
//! assert_eq!(snap.requests_total, 2);
//! assert_eq!(snap.errors_total, 1);
//! assert!(snap.latency_p50_ms > 0.0);
//! assert!(snap.to_json_line().starts_with("{\"cmd\":\"stats\""));
//! ```

use portopt_ml::ModelKind;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Upper bounds (inclusive) of the latency histogram buckets, in
/// microseconds. The last bucket is open-ended. Spacing is roughly
/// ×2–×2.5 from 50 µs (a cached feature prediction) to 5 s (an `apply`
/// module request on a slow program): per-request latencies land with
/// better than ~2× resolution everywhere, which is what a quantile needs.
const LATENCY_BUCKETS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

/// A fixed-bucket histogram of per-request latencies. Recording is one
/// relaxed atomic add; quantiles are read by walking the 15 buckets.
/// Resolution is the bucket width (a reported p99 is the upper bound of
/// the bucket the 99th percentile falls in) — the right trade for a hot
/// path that must not allocate or lock.
#[derive(Debug, Default)]
struct LatencyHistogram {
    /// One count per bucket in [`LATENCY_BUCKETS_US`] plus the open-ended
    /// overflow bucket.
    counts: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    /// Total recorded, for means (µs; wraps after ~580k years of latency).
    sum_us: AtomicU64,
    n: AtomicU64,
}

impl LatencyHistogram {
    fn record(&self, latency_ms: f64) {
        let us = (latency_ms * 1e3).max(0.0) as u64;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.n.fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile (0 < q ≤ 1) in milliseconds: the upper bound of
    /// the bucket the quantile falls in (the overflow bucket reports the
    /// largest finite bound). 0 when nothing was recorded.
    fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.n.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                let bound = LATENCY_BUCKETS_US
                    .get(i)
                    .copied()
                    .unwrap_or(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1]);
                return bound as f64 / 1e3;
            }
        }
        LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1] as f64 / 1e3
    }

    fn mean_ms(&self) -> f64 {
        let n = self.n.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64 / 1e3
        }
    }
}

/// The live metrics registry of one
/// [`PredictionService`](crate::PredictionService). Shared (`Arc`)
/// between the batcher, the
/// reader threads, the admin `stats` command and the plaintext metrics
/// endpoint. All counters are service-lifetime totals.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Requests answered with a reply (success or error), i.e. drained
    /// through a batch.
    requests: AtomicU64,
    /// Of those, answered with an `error` reply.
    errors: AtomicU64,
    /// Requests refused at admission (`overloaded` reply; never queued).
    refused: AtomicU64,
    /// Requests thrown away unanswered (dead connection, pre- or
    /// post-compute).
    discarded: AtomicU64,
    /// Batches drained.
    batches: AtomicU64,
    /// Largest batch drained (batch occupancy high-water mark).
    max_batch: AtomicU64,
    /// Requests admitted to the queue but not yet answered or discarded:
    /// queued + currently draining. The quota/registry ledger must agree
    /// with this (see `stats_ledger_agrees_after_dead_conn_discard`).
    inflight: AtomicU64,
    /// TCP connections accepted / refused at `--max-conns`.
    connections: AtomicU64,
    rejected_connections: AtomicU64,
    latency: LatencyHistogram,
    /// `(snapshot_version, predictions)` pairs, appended on first sight of
    /// a version. A handful of entries, touched once per batch.
    per_version: Mutex<Vec<(u64, u64)>>,
    /// Successful predictions per model kind, indexed by
    /// [`ModelKind::index`]. Error replies never land here (and refusals
    /// never even reach `requests`), so across kinds these sum to
    /// `requests - errors`.
    predictions_by_kind: [AtomicU64; 3],
    started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A zeroed registry; the uptime clock starts now.
    pub fn new() -> Self {
        ServeMetrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            per_version: Mutex::new(Vec::new()),
            predictions_by_kind: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            started: Instant::now(),
        }
    }

    /// One request entered the queue.
    pub fn note_admitted(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// One admitted line turned out not to stay queued (admin command,
    /// shutdown sentinel): reverse its [`note_admitted`](Self::note_admitted).
    pub fn note_retracted(&self) {
        decrement_saturating(&self.inflight, 1);
    }

    /// One request was refused at admission (queue full or closed).
    pub fn note_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` admitted requests were thrown away unanswered.
    pub fn note_discarded(&self, n: u64) {
        self.discarded.fetch_add(n, Ordering::Relaxed);
        decrement_saturating(&self.inflight, n);
    }

    /// `n` replies were computed but could not be written (the connection
    /// died between drain and delivery). They already left the in-flight
    /// gauge via [`record_request`](Self::record_request), so this only
    /// counts the discard.
    pub fn note_undeliverable(&self, n: u64) {
        self.discarded.fetch_add(n, Ordering::Relaxed);
    }

    /// One answered request: its latency, and whether it was an error
    /// reply (`err.is_some()`).
    pub fn record_request(&self, latency_ms: f64, err: Option<()>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if err.is_some() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record(latency_ms);
        decrement_saturating(&self.inflight, 1);
    }

    /// One drained batch of `len` requests, answered by snapshot
    /// `version`.
    pub fn record_batch(&self, len: usize, version: u64) {
        if len == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(len as u64, Ordering::Relaxed);
        let mut g = self.per_version.lock().expect("metrics version table");
        match g.iter_mut().find(|(v, _)| *v == version) {
            Some((_, n)) => *n += len as u64,
            None => g.push((version, len as u64)),
        }
    }

    /// `n` successful predictions answered by a model of `kind` (one call
    /// per batch drain; error replies are excluded by the caller).
    pub fn record_predictions(&self, kind: ModelKind, n: u64) {
        self.predictions_by_kind[kind.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// One accepted / one refused TCP connection.
    pub fn note_connection(&self, accepted: bool) {
        if accepted {
            self.connections.fetch_add(1, Ordering::Relaxed);
        } else {
            self.rejected_connections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests admitted but not yet answered or discarded.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Total `overloaded` refusals so far.
    pub fn refused_total(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// A point-in-time read of every counter. `queue_depth` is the
    /// caller's current pending-queue length (the registry itself has no
    /// reference to the queue).
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        let mut versions: Vec<(u64, u64)> = self
            .per_version
            .lock()
            .expect("metrics version table")
            .clone();
        versions.sort_unstable();
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            queue_depth,
            inflight: self.inflight.load(Ordering::Relaxed),
            requests_total: self.requests.load(Ordering::Relaxed),
            errors_total: self.errors.load(Ordering::Relaxed),
            refused_total: self.refused.load(Ordering::Relaxed),
            discarded_total: self.discarded.load(Ordering::Relaxed),
            batches_total: self.batches.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            latency_p50_ms: self.latency.quantile_ms(0.50),
            latency_p99_ms: self.latency.quantile_ms(0.99),
            latency_mean_ms: self.latency.mean_ms(),
            connections_total: self.connections.load(Ordering::Relaxed),
            rejected_connections_total: self.rejected_connections.load(Ordering::Relaxed),
            predictions_by_version: versions,
            predictions_by_kind: [
                self.predictions_by_kind[0].load(Ordering::Relaxed),
                self.predictions_by_kind[1].load(Ordering::Relaxed),
                self.predictions_by_kind[2].load(Ordering::Relaxed),
            ],
        }
    }
}

/// `fetch_sub` that clamps at zero: a retraction racing a concurrent
/// snapshot read must never wrap the gauge to u64::MAX.
fn decrement_saturating(counter: &AtomicU64, n: u64) {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(n);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One consistent-enough read of a [`ServeMetrics`] registry, with its
/// two wire renderings.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the service started.
    pub uptime_secs: f64,
    /// Requests pending in the batch queue right now.
    pub queue_depth: usize,
    /// Admitted but not yet answered or discarded (queued + draining).
    pub inflight: u64,
    /// Requests answered (success + error replies).
    pub requests_total: u64,
    /// Requests answered with an error reply.
    pub errors_total: u64,
    /// Requests refused at admission with an `overloaded` reply.
    pub refused_total: u64,
    /// Requests discarded unanswered (dead connections).
    pub discarded_total: u64,
    /// Batches drained.
    pub batches_total: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Median per-request latency (bucket-resolution, ms).
    pub latency_p50_ms: f64,
    /// 99th-percentile per-request latency (bucket-resolution, ms).
    pub latency_p99_ms: f64,
    /// Mean per-request latency (exact, ms).
    pub latency_mean_ms: f64,
    /// TCP connections accepted over the service lifetime.
    pub connections_total: u64,
    /// TCP connections refused at `--max-conns`.
    pub rejected_connections_total: u64,
    /// Predictions answered per snapshot version, ascending by version.
    pub predictions_by_version: Vec<(u64, u64)>,
    /// Successful predictions per model kind, indexed by
    /// [`ModelKind::index`]. All kinds render, including zeroes, so a
    /// dashboard sees the full registry.
    pub predictions_by_kind: [u64; 3],
}

impl MetricsSnapshot {
    /// Every scalar field in rendering order, formatted once for both
    /// renderings, under the name both use (the JSON key; the plaintext
    /// metric after its `portopt_` prefix).
    fn scalars(&self) -> [(&'static str, String); 14] {
        [
            ("uptime_secs", format!("{:.3}", self.uptime_secs)),
            ("queue_depth", self.queue_depth.to_string()),
            ("inflight", self.inflight.to_string()),
            ("requests_total", self.requests_total.to_string()),
            ("errors_total", self.errors_total.to_string()),
            ("refused_total", self.refused_total.to_string()),
            ("discarded_total", self.discarded_total.to_string()),
            ("batches_total", self.batches_total.to_string()),
            ("max_batch", self.max_batch.to_string()),
            ("latency_p50_ms", format!("{:.3}", self.latency_p50_ms)),
            ("latency_p99_ms", format!("{:.3}", self.latency_p99_ms)),
            ("latency_mean_ms", format!("{:.4}", self.latency_mean_ms)),
            ("connections_total", self.connections_total.to_string()),
            (
                "rejected_connections_total",
                self.rejected_connections_total.to_string(),
            ),
        ]
    }

    /// The `{"cmd":"stats"}` admin reply: one JSON line. Field order is
    /// stable (documented in `docs/SERVING.md`); versions render as an
    /// object keyed by version number.
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{\"cmd\":\"stats\"");
        for (name, v) in self.scalars() {
            let _ = write!(s, ",\"{name}\":{v}");
        }
        s.push_str(",\"predictions_by_version\":{");
        for (i, (v, n)) in self.predictions_by_version.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{v}\":{n}");
        }
        s.push_str("},\"predictions_by_kind\":{");
        for k in ModelKind::ALL {
            let sep = if k.index() == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{k}\":{}", self.predictions_by_kind[k.index()]);
        }
        s.push_str("}}");
        s
    }

    /// The plaintext `--metrics-port` rendering: one `name value` pair
    /// per line, Prometheus exposition style (counters suffixed
    /// `_total`, per-version counts as labelled samples).
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(512);
        for (name, v) in self.scalars() {
            let _ = writeln!(s, "portopt_{name} {v}");
        }
        for (v, n) in &self.predictions_by_version {
            let _ = writeln!(
                s,
                "portopt_predictions_total{{snapshot_version=\"{v}\"}} {n}"
            );
        }
        for k in ModelKind::ALL {
            let n = self.predictions_by_kind[k.index()];
            let _ = writeln!(s, "portopt_predictions_kind_total{{kind=\"{k}\"}} {n}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_have_bucket_resolution() {
        let h = LatencyHistogram::default();
        // 98 fast requests in the 50 µs bucket, 2 slow ones at ~20 ms.
        for _ in 0..98 {
            h.record(0.04);
        }
        h.record(20.0);
        h.record(20.0);
        assert_eq!(h.quantile_ms(0.50), 0.05, "p50 = first bucket bound");
        assert_eq!(h.quantile_ms(0.99), 25.0, "p99 = 25 ms bucket bound");
        assert!((h.mean_ms() - (98.0 * 0.04 + 2.0 * 20.0) / 100.0).abs() < 0.01);
        // Empty histogram: quantiles are 0, not NaN.
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_ms(0.5), 0.0);
        assert_eq!(empty.mean_ms(), 0.0);
    }

    #[test]
    fn histogram_overflow_bucket_catches_pathological_latencies() {
        let h = LatencyHistogram::default();
        h.record(3600.0 * 1e3); // an hour, way past every bound
        assert_eq!(h.quantile_ms(1.0), 5000.0, "clamped to the last bound");
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        // A latency exactly on a documented bound lands in the bucket
        // whose bound it equals (`us <= bound` is inclusive) — for every
        // bound — and a value just past it falls to the next bucket (the
        // overflow bucket after the last finite bound). "Just past" is
        // +2 µs: the ms→µs conversion truncates, and the float round
        // trip can lose one µs, which must not drag the sample back
        // across the bound.
        for (i, &bound_us) in LATENCY_BUCKETS_US.iter().enumerate() {
            let h = LatencyHistogram::default();
            h.record(bound_us as f64 / 1e3);
            assert_eq!(
                h.counts[i].load(Ordering::Relaxed),
                1,
                "{bound_us}us must land in bucket {i}"
            );
            let h2 = LatencyHistogram::default();
            h2.record((bound_us + 2) as f64 / 1e3);
            assert_eq!(
                h2.counts[i].load(Ordering::Relaxed),
                0,
                "{}us must NOT land in bucket {i}",
                bound_us + 2
            );
            assert_eq!(
                h2.counts[i + 1].load(Ordering::Relaxed),
                1,
                "{}us must land in bucket {}",
                bound_us + 2,
                i + 1
            );
        }
        // Sub-microsecond precision truncates: 50.9 µs records as 50 µs
        // and stays in the first bucket.
        let h = LatencyHistogram::default();
        h.record(0.0509);
        assert_eq!(h.counts[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn histogram_out_of_range_saturates_to_overflow() {
        let h = LatencyHistogram::default();
        h.record(5_000.001); // one µs past the last finite bound
        h.record(f64::MAX); // absurd, must not wrap the µs conversion
        let overflow = LATENCY_BUCKETS_US.len();
        assert_eq!(h.counts[overflow].load(Ordering::Relaxed), 2);
        for (i, c) in h.counts.iter().enumerate().take(overflow) {
            assert_eq!(c.load(Ordering::Relaxed), 0, "finite bucket {i} empty");
        }
        // The overflow bucket reports the largest finite bound, never inf.
        assert_eq!(h.quantile_ms(0.5), 5000.0);
        // Negative latencies clamp to zero and land in the first bucket.
        let h2 = LatencyHistogram::default();
        h2.record(-1.0);
        assert_eq!(h2.counts[0].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn quantile_known_answers_pin_rank_arithmetic() {
        // 10 samples: 4 in the 50 µs bucket, 4 in the 250 µs bucket, 2 in
        // the 5 ms bucket. rank(q) = ceil(q·10) clamped to [1, 10], and
        // the report is the bound of the bucket holding that rank.
        let h = LatencyHistogram::default();
        for _ in 0..4 {
            h.record(0.01);
        }
        for _ in 0..4 {
            h.record(0.2);
        }
        for _ in 0..2 {
            h.record(4.0);
        }
        assert_eq!(h.quantile_ms(0.40), 0.05, "rank 4 = last of bucket 0");
        assert_eq!(h.quantile_ms(0.50), 0.25, "rank 5 = first of bucket 2");
        assert_eq!(h.quantile_ms(0.80), 0.25, "rank 8 = last of bucket 2");
        assert_eq!(h.quantile_ms(0.81), 5.0, "rank 9 = first of bucket 6");
        assert_eq!(h.quantile_ms(0.99), 5.0, "rank 10 = the slow tail");
        assert_eq!(h.quantile_ms(1.0), 5.0);
        // A vanishing q clamps to rank 1, not rank 0.
        assert_eq!(h.quantile_ms(1e-9), 0.05);
        // One sample: every quantile is that sample's bucket bound.
        let one = LatencyHistogram::default();
        one.record(0.3);
        assert_eq!(one.quantile_ms(0.5), 0.5);
        assert_eq!(one.quantile_ms(0.99), 0.5);
    }

    #[test]
    fn counters_add_up_and_inflight_never_wraps() {
        let m = ServeMetrics::new();
        m.note_admitted();
        m.note_admitted();
        m.note_admitted();
        assert_eq!(m.inflight(), 3);
        m.record_request(0.1, None);
        m.record_request(0.2, Some(()));
        m.note_discarded(1);
        assert_eq!(m.inflight(), 0);
        m.note_retracted(); // over-retraction clamps at zero, no wrap
        assert_eq!(m.inflight(), 0);
        m.note_refused();
        m.record_batch(2, 1);
        m.record_batch(3, 2);
        m.record_batch(1, 2);
        m.note_connection(true);
        m.note_connection(false);
        m.record_predictions(ModelKind::Knn, 1);
        m.record_predictions(ModelKind::Linear, 3);
        m.record_predictions(ModelKind::Linear, 2);
        let s = m.snapshot(5);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.requests_total, 2);
        assert_eq!(s.errors_total, 1);
        assert_eq!(s.refused_total, 1);
        assert_eq!(s.discarded_total, 1);
        assert_eq!(s.batches_total, 3);
        assert_eq!(s.max_batch, 3);
        assert_eq!(s.connections_total, 1);
        assert_eq!(s.rejected_connections_total, 1);
        assert_eq!(s.predictions_by_version, vec![(1, 2), (2, 4)]);
        assert_eq!(s.predictions_by_kind, [1, 5, 0]);
    }

    #[test]
    fn renderings_carry_every_counter() {
        let m = ServeMetrics::new();
        m.note_admitted();
        m.record_request(0.1, None);
        m.record_batch(1, 7);
        m.record_predictions(ModelKind::Clustered, 1);
        let s = m.snapshot(0);
        let json = s.to_json_line();
        assert!(json.starts_with("{\"cmd\":\"stats\""), "{json}");
        assert!(json.contains("\"requests_total\":1"), "{json}");
        assert!(
            json.contains("\"predictions_by_version\":{\"7\":1}"),
            "{json}"
        );
        assert!(json.contains("\"refused_total\":0"), "{json}");
        assert!(
            json.contains("\"predictions_by_kind\":{\"knn\":0,\"linear\":0,\"clustered\":1}"),
            "{json}"
        );
        // The JSON line is parseable by the vendored parser.
        let doc = serde_json::from_str::<serde::Value>(&json).expect("stats reply parses");
        assert!(doc.as_object().is_some());
        let text = s.to_text();
        assert!(text.contains("portopt_requests_total 1\n"), "{text}");
        assert!(
            text.contains("portopt_predictions_total{snapshot_version=\"7\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("portopt_predictions_kind_total{kind=\"clustered\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("portopt_predictions_kind_total{kind=\"knn\"} 0\n"),
            "every kind renders, including zeroes: {text}"
        );
    }

    #[test]
    fn renderings_are_byte_stable() {
        let mut s = MetricsSnapshot {
            uptime_secs: 12.3456,
            queue_depth: 3,
            inflight: 4,
            requests_total: 100,
            errors_total: 2,
            refused_total: 5,
            discarded_total: 1,
            batches_total: 9,
            max_batch: 32,
            latency_p50_ms: 0.25,
            latency_p99_ms: 25.0,
            latency_mean_ms: 1.23456,
            connections_total: 7,
            rejected_connections_total: 1,
            predictions_by_version: vec![(1, 40), (2, 58)],
            predictions_by_kind: [50, 30, 18],
        };
        assert_eq!(
            s.to_json_line(),
            "{\"cmd\":\"stats\",\"uptime_secs\":12.346,\"queue_depth\":3,\"inflight\":4,\
             \"requests_total\":100,\"errors_total\":2,\"refused_total\":5,\
             \"discarded_total\":1,\"batches_total\":9,\"max_batch\":32,\
             \"latency_p50_ms\":0.250,\"latency_p99_ms\":25.000,\"latency_mean_ms\":1.2346,\
             \"connections_total\":7,\"rejected_connections_total\":1,\
             \"predictions_by_version\":{\"1\":40,\"2\":58},\
             \"predictions_by_kind\":{\"knn\":50,\"linear\":30,\"clustered\":18}}"
        );
        assert_eq!(
            s.to_text(),
            "portopt_uptime_secs 12.346\n\
             portopt_queue_depth 3\n\
             portopt_inflight 4\n\
             portopt_requests_total 100\n\
             portopt_errors_total 2\n\
             portopt_refused_total 5\n\
             portopt_discarded_total 1\n\
             portopt_batches_total 9\n\
             portopt_max_batch 32\n\
             portopt_latency_p50_ms 0.250\n\
             portopt_latency_p99_ms 25.000\n\
             portopt_latency_mean_ms 1.2346\n\
             portopt_connections_total 7\n\
             portopt_rejected_connections_total 1\n\
             portopt_predictions_total{snapshot_version=\"1\"} 40\n\
             portopt_predictions_total{snapshot_version=\"2\"} 58\n\
             portopt_predictions_kind_total{kind=\"knn\"} 50\n\
             portopt_predictions_kind_total{kind=\"linear\"} 30\n\
             portopt_predictions_kind_total{kind=\"clustered\"} 18\n"
        );
        // No versions yet: an empty object, and no labelled samples.
        s.predictions_by_version.clear();
        assert!(s
            .to_json_line()
            .contains(",\"predictions_by_version\":{},\"predictions_by_kind\":{"));
        assert!(!s.to_text().contains("snapshot_version"));
    }

    #[test]
    fn batch_of_zero_is_not_a_batch() {
        let m = ServeMetrics::new();
        m.record_batch(0, 1);
        let s = m.snapshot(0);
        assert_eq!(s.batches_total, 0);
        assert!(s.predictions_by_version.is_empty());
    }
}
