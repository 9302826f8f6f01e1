//! The sweep coordinator: fleet-scale orchestration of the sharded
//! `(program, setting)` grid with crash-tolerant retries.
//!
//! One `coordinator` process owns the [`ShardSpec`](portopt_core::ShardSpec)
//! plan and leases shard indices to `sweep --worker` rigs over the same
//! JSON-lines wire idiom as the serving protocol (one self-describing JSON
//! document per `\n`-terminated line; see `docs/SWEEP.md`). A worker that
//! dies, stalls past its lease deadline, or refuses a shard does not sink
//! the sweep: the coordinator re-leases the shard to the next rig that
//! asks, with exponential backoff and a per-shard retry budget, and every
//! loss/retry/refusal is observable in [`CoordMetrics`] (the same atomic
//! counter style as `portopt_serve::metrics`).
//!
//! Because sharded sweeps are deterministic — any rig sweeping shard `i`
//! of `n` under the same flags produces byte-identical rows — duplicate
//! results from a stale lease are simply discarded (first accepted result
//! wins, counted in [`CoordMetrics::duplicates`]) and the merged dataset
//! equals the unsharded sweep byte for byte, exactly as if no worker had
//! ever crashed.
//!
//! The lease/retry state machine ([`Coordinator`]) is pure in `(event,
//! now)` and fully unit-tested without sockets; [`run_coordinator`] and
//! [`run_worker`] put TCP under it.

use portopt_core::{Dataset, MergeError};
use serde::{Deserialize, Serialize};
use std::io::{BufRead as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Default lease deadline: a worker silent for this long forfeits its
/// shard (generous — a smoke-scale shard sweeps in seconds, a paper-scale
/// one in minutes; size it to your scale with `--lease-timeout-ms`).
pub const DEFAULT_LEASE_TIMEOUT_MS: u64 = 600_000;

/// Default per-shard attempt budget (first attempt included).
pub const DEFAULT_RETRY_BUDGET: u32 = 3;

/// Default base of the exponential re-lease backoff.
pub const DEFAULT_BACKOFF_MS: u64 = 500;

/// Ceiling on the exponential backoff between re-leases of one shard.
pub const MAX_BACKOFF: Duration = Duration::from_secs(60);

/// Every message of the coordinator wire protocol, one JSON document per
/// line, externally tagged by variant name. Workers send `Hello`,
/// `Shard` and `Refuse`; the coordinator answers each with `Grant`,
/// `Wait`, `Finished` or `Abort`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireMsg {
    /// Worker → coordinator: I am idle, lease me a shard.
    Hello {
        /// Worker name (for lease bookkeeping and logs).
        worker: String,
    },
    /// Coordinator → worker: sweep shard `index` of `count`.
    Grant {
        /// Shard index to sweep.
        index: usize,
        /// Total shard count of the plan (the `ShardSpec` denominator).
        count: usize,
        /// Lease deadline in milliseconds: results after this may be
        /// discarded as duplicates of a retry.
        deadline_ms: u64,
    },
    /// Coordinator → worker: nothing leasable right now (everything is in
    /// flight or backing off) — ask again in `retry_ms`.
    Wait {
        /// Suggested delay before the next `Hello`.
        retry_ms: u64,
    },
    /// Coordinator → worker: the plan is complete, disconnect.
    Finished,
    /// Coordinator → worker: the sweep cannot complete (a shard exhausted
    /// its retry budget); disconnect and report.
    Abort {
        /// Human-readable failure description.
        reason: String,
    },
    /// Worker → coordinator: shard `index` swept successfully.
    Shard {
        /// Worker name.
        worker: String,
        /// The shard index this dataset covers.
        index: usize,
        /// The swept shard.
        dataset: Dataset,
    },
    /// Worker → coordinator: I cannot sweep shard `index` (bad local
    /// state — an unwritable cache dir, say); lease it elsewhere.
    Refuse {
        /// Worker name.
        worker: String,
        /// The refused shard index.
        index: usize,
        /// Why the worker refused.
        reason: String,
    },
}

/// Observable coordinator counters, in the atomic style of
/// `portopt_serve::metrics`: lock-free to bump, coherent enough to read
/// live while the fleet runs.
#[derive(Debug, Default)]
pub struct CoordMetrics {
    /// Leases granted (first attempts and retries).
    pub leases_granted: AtomicU64,
    /// Leases that passed their deadline and were revoked.
    pub leases_expired: AtomicU64,
    /// Re-leases of a shard whose earlier attempt was lost/expired/refused.
    pub retries: AtomicU64,
    /// Shards a worker explicitly refused.
    pub refusals: AtomicU64,
    /// Results discarded because the shard was already complete (a stale
    /// lease finishing after its retry).
    pub duplicates: AtomicU64,
    /// Worker connections lost while holding a lease.
    pub workers_lost: AtomicU64,
    /// Shards completed and accepted.
    pub shards_done: AtomicU64,
    /// Shards abandoned after exhausting the retry budget.
    pub shards_failed: AtomicU64,
}

impl CoordMetrics {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Every counter as `(summary-line name, metric name, value)`, in
    /// output order: the one table both renderers read.
    fn counters(&self) -> [(&'static str, &'static str, u64); 8] {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("granted", "leases_granted_total", g(&self.leases_granted)),
            ("expired", "leases_expired_total", g(&self.leases_expired)),
            ("retries", "retries_total", g(&self.retries)),
            ("refusals", "refusals_total", g(&self.refusals)),
            ("duplicates", "duplicates_total", g(&self.duplicates)),
            ("workers_lost", "workers_lost_total", g(&self.workers_lost)),
            ("shards_done", "shards_done", g(&self.shards_done)),
            ("shards_failed", "shards_failed", g(&self.shards_failed)),
        ]
    }

    /// One human-readable summary line (printed by the `coordinator` bin
    /// on every state change and at exit).
    pub fn render_line(&self) -> String {
        let mut s = String::from("coordinator:");
        for (name, _, v) in self.counters() {
            s.push_str(&format!(" {name}={v}"));
        }
        s
    }

    /// Plaintext metrics snapshot in the exact style of
    /// `portopt_serve::MetricsSnapshot::to_text` (`name value\n` per
    /// line), served live by the `coordinator` bin's `--metrics-port`
    /// endpoint while the plan runs.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(320);
        for (_, metric, v) in self.counters() {
            s.push_str(&format!("portopt_coord_{metric} {v}\n"));
        }
        s
    }
}

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct CoordConfig {
    /// Number of shards the program grid is split into.
    pub shard_count: usize,
    /// How long a lease lives before the shard becomes re-leasable.
    pub lease_timeout: Duration,
    /// Maximum sweep attempts per shard (first attempt included); a shard
    /// that fails this many times aborts the whole plan.
    pub retry_budget: u32,
    /// Base of the exponential backoff between attempts of one shard.
    pub backoff_base: Duration,
}

impl CoordConfig {
    /// Defaults for a plan of `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        CoordConfig {
            shard_count,
            lease_timeout: Duration::from_millis(DEFAULT_LEASE_TIMEOUT_MS),
            retry_budget: DEFAULT_RETRY_BUDGET,
            backoff_base: Duration::from_millis(DEFAULT_BACKOFF_MS),
        }
    }
}

/// One shard's place in the plan.
#[derive(Debug)]
enum Slot {
    /// Sweepable — immediately, or once the backoff expires.
    Pending { not_before: Option<Instant> },
    /// Leased to a worker until the deadline.
    Leased { worker: String, deadline: Instant },
    /// Result accepted.
    Done,
    /// Retry budget exhausted; the plan cannot complete.
    Failed,
}

/// What the coordinator tells a worker that asked for work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Sweep this shard.
    Grant {
        /// The leased shard index.
        index: usize,
    },
    /// Nothing leasable right now; ask again after `retry`.
    Wait {
        /// Suggested delay before asking again.
        retry: Duration,
    },
    /// Every shard is done.
    Finished,
    /// A shard exhausted its retry budget; the plan is dead.
    Abort {
        /// The failed shard.
        index: usize,
    },
}

/// The lease/retry state machine. Pure in `(event, now)`: every method
/// takes the current time explicitly, so tests can replay any schedule of
/// grants, crashes and expiries without sleeping.
#[derive(Debug)]
pub struct Coordinator {
    config: CoordConfig,
    slots: Vec<Slot>,
    attempts: Vec<u32>,
    results: Vec<Option<Dataset>>,
    metrics: Arc<CoordMetrics>,
    /// One detached trace span per in-flight lease (grant -> done /
    /// expired / refused / lost), indexed by shard. Lives outside `Slot`
    /// so closing a span never fights the state-machine matches.
    lease_spans: Vec<Option<portopt_trace::Span>>,
}

impl Coordinator {
    /// A fresh plan: every shard pending, nothing leased.
    pub fn new(config: CoordConfig) -> Self {
        let n = config.shard_count;
        Coordinator {
            config,
            slots: (0..n).map(|_| Slot::Pending { not_before: None }).collect(),
            attempts: vec![0; n],
            results: (0..n).map(|_| None).collect(),
            metrics: Arc::new(CoordMetrics::default()),
            lease_spans: (0..n).map(|_| None).collect(),
        }
    }

    /// The live counters (shared; clone the `Arc` to watch from another
    /// thread).
    pub fn metrics(&self) -> Arc<CoordMetrics> {
        self.metrics.clone()
    }

    /// The plan's shard count.
    pub fn shard_count(&self) -> usize {
        self.config.shard_count
    }

    fn backoff(&self, attempts: u32) -> Duration {
        let factor = 1u32 << attempts.saturating_sub(1).min(16);
        (self.config.backoff_base * factor).min(MAX_BACKOFF)
    }

    /// Closes shard `index`'s lease span (if one is open) with its
    /// terminal outcome: `done`, `expired`, `refused` or `lost`.
    fn close_lease_span(&mut self, index: usize, outcome: &str) {
        if let Some(sp) = self.lease_spans[index].take() {
            sp.end_with(&[
                ("shard", (index as u64).into()),
                ("outcome", outcome.into()),
            ]);
        }
    }

    /// Releases shard `index` for another attempt — or fails it (and the
    /// plan) when the retry budget is spent.
    fn release(&mut self, index: usize, now: Instant) {
        if self.attempts[index] >= self.config.retry_budget {
            self.slots[index] = Slot::Failed;
            CoordMetrics::bump(&self.metrics.shards_failed);
            portopt_trace::warn!(
                "bench.coordinator",
                { shard = index as u64, attempts = self.attempts[index] as u64 },
                "shard {index} failed: retry budget exhausted after {} attempts",
                self.attempts[index]
            );
        } else {
            let backoff = self.backoff(self.attempts[index]);
            portopt_trace::debug!(
                "bench.coordinator",
                { shard = index as u64, backoff_ms = backoff.as_millis() as u64 },
                "shard {index} re-leasable after {}ms backoff",
                backoff.as_millis()
            );
            self.slots[index] = Slot::Pending {
                not_before: Some(now + backoff),
            };
        }
    }

    /// Revokes every lease whose deadline has passed, making those shards
    /// re-leasable (after backoff). Called internally by [`Coordinator::lease`]
    /// and periodically by the serve loop, so a stalled rig cannot pin a
    /// shard forever.
    pub fn expire(&mut self, now: Instant) {
        for index in 0..self.slots.len() {
            if let Slot::Leased { deadline, .. } = &self.slots[index] {
                if *deadline <= now {
                    CoordMetrics::bump(&self.metrics.leases_expired);
                    self.close_lease_span(index, "expired");
                    self.release(index, now);
                }
            }
        }
    }

    /// A worker asked for work: lease it the lowest eligible pending
    /// shard, or tell it why there is none.
    pub fn lease(&mut self, worker: &str, now: Instant) -> Decision {
        self.expire(now);
        if let Some(index) = self.slots.iter().position(|s| matches!(s, Slot::Failed)) {
            return Decision::Abort { index };
        }
        if self.finished() {
            return Decision::Finished;
        }
        let eligible = self.slots.iter().position(|s| match s {
            Slot::Pending { not_before } => not_before.map_or(true, |t| t <= now),
            _ => false,
        });
        if let Some(index) = eligible {
            self.attempts[index] += 1;
            if self.attempts[index] > 1 {
                CoordMetrics::bump(&self.metrics.retries);
            }
            CoordMetrics::bump(&self.metrics.leases_granted);
            self.lease_spans[index] = Some(portopt_trace::Span::begin(
                "bench.coordinator",
                "lease",
                &[
                    ("shard", (index as u64).into()),
                    ("attempt", (self.attempts[index] as u64).into()),
                    ("worker", worker.into()),
                ],
            ));
            self.slots[index] = Slot::Leased {
                worker: worker.to_string(),
                deadline: now + self.config.lease_timeout,
            };
            return Decision::Grant { index };
        }
        // Everything is in flight or backing off: suggest a delay that
        // lands just past the nearest backoff/deadline event.
        let next_event = self
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Pending {
                    not_before: Some(t),
                } => Some(*t),
                Slot::Leased { deadline, .. } => Some(*deadline),
                _ => None,
            })
            .min();
        let retry = next_event
            .map(|t| t.saturating_duration_since(now) + Duration::from_millis(10))
            .unwrap_or(Duration::from_millis(200))
            .clamp(Duration::from_millis(50), Duration::from_secs(2));
        Decision::Wait { retry }
    }

    /// A worker returned shard `index`. Returns `true` if the result was
    /// accepted; a duplicate of an already-complete shard is discarded
    /// (counted, deterministic: the first accepted result wins — harmless
    /// either way, since shard sweeps are byte-identical across rigs).
    pub fn complete(&mut self, index: usize, dataset: Dataset) -> bool {
        if index >= self.slots.len() || matches!(self.slots[index], Slot::Done) {
            CoordMetrics::bump(&self.metrics.duplicates);
            return false;
        }
        self.close_lease_span(index, "done");
        self.slots[index] = Slot::Done;
        self.results[index] = Some(dataset);
        CoordMetrics::bump(&self.metrics.shards_done);
        true
    }

    /// A worker refused shard `index`: re-lease it elsewhere (after
    /// backoff), burning one attempt of its budget.
    pub fn refuse(&mut self, index: usize, now: Instant) {
        if index < self.slots.len() && !matches!(self.slots[index], Slot::Done | Slot::Failed) {
            CoordMetrics::bump(&self.metrics.refusals);
            self.close_lease_span(index, "refused");
            self.release(index, now);
        }
    }

    /// A worker's connection died. Any lease it held is revoked and its
    /// shards go back in the pool (after backoff).
    pub fn worker_lost(&mut self, worker: &str, now: Instant) {
        let mut lost_any = false;
        for index in 0..self.slots.len() {
            if matches!(&self.slots[index], Slot::Leased { worker: w, .. } if w == worker) {
                lost_any = true;
                self.close_lease_span(index, "lost");
                self.release(index, now);
            }
        }
        if lost_any {
            CoordMetrics::bump(&self.metrics.workers_lost);
        }
    }

    /// Every shard completed?
    pub fn finished(&self) -> bool {
        self.slots.iter().all(|s| matches!(s, Slot::Done))
    }

    /// The first shard that exhausted its retry budget, if any — a
    /// terminal state: the plan can never complete.
    pub fn failed_shard(&self) -> Option<usize> {
        self.slots.iter().position(|s| matches!(s, Slot::Failed))
    }

    /// Merges the completed shards in index order (byte-identical to the
    /// unsharded sweep). Call once [`Coordinator::finished`].
    pub fn merged(mut self) -> Result<Dataset, MergeError> {
        Dataset::merge(self.take_results())
    }

    /// Drains the accepted shard results in index order, leaving the
    /// bookkeeping (metrics, attempts) behind — how [`run_coordinator`]
    /// extracts the data while observers still hold the shared handle.
    pub fn take_results(&mut self) -> Vec<Dataset> {
        self.results.iter_mut().filter_map(Option::take).collect()
    }
}

/// Why [`run_coordinator`] gave up.
#[derive(Debug)]
pub enum CoordError {
    /// Socket setup or accept failed.
    Io(std::io::Error),
    /// A shard exhausted its retry budget.
    ShardFailed {
        /// The shard that could not be swept.
        index: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The completed shards would not merge (a worker swept under
    /// different flags — axes mismatch).
    Merge(MergeError),
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::Io(e) => write!(f, "coordinator i/o error: {e}"),
            CoordError::ShardFailed { index, attempts } => write!(
                f,
                "shard {index} failed {attempts} attempts (retry budget exhausted)"
            ),
            CoordError::Merge(e) => write!(f, "returned shards do not merge: {e}"),
        }
    }
}

impl std::error::Error for CoordError {}

impl From<std::io::Error> for CoordError {
    fn from(e: std::io::Error) -> Self {
        CoordError::Io(e)
    }
}

fn send_msg(stream: &mut TcpStream, msg: &WireMsg) -> std::io::Result<()> {
    let mut line = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn decision_msg(decision: &Decision, coord: &Coordinator) -> WireMsg {
    match decision {
        Decision::Grant { index } => WireMsg::Grant {
            index: *index,
            count: coord.config.shard_count,
            deadline_ms: coord.config.lease_timeout.as_millis() as u64,
        },
        Decision::Wait { retry } => WireMsg::Wait {
            retry_ms: retry.as_millis() as u64,
        },
        Decision::Finished => WireMsg::Finished,
        Decision::Abort { index } => WireMsg::Abort {
            reason: format!("shard {index} exhausted its retry budget"),
        },
    }
}

/// Serves the plan in `coord` on `listener` until every shard is merged
/// or one exhausts its retry budget. Returns the merged dataset — the
/// same bytes an unsharded sweep would produce, regardless of how many
/// workers died along the way.
pub fn run_coordinator(
    listener: TcpListener,
    coord: Arc<Mutex<Coordinator>>,
) -> Result<Dataset, CoordError> {
    listener.set_nonblocking(true)?;
    let done = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let coord = coord.clone();
                let done = done.clone();
                conns.push(std::thread::spawn(move || {
                    handle_worker_conn(stream, coord, done);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                done.store(true, Ordering::SeqCst);
                for h in conns {
                    let _ = h.join();
                }
                return Err(CoordError::Io(e));
            }
        }
        let mut c = coord.lock().expect("coordinator");
        c.expire(Instant::now());
        if c.finished() || c.failed_shard().is_some() {
            break;
        }
    }
    done.store(true, Ordering::SeqCst);
    for h in conns {
        let _ = h.join();
    }
    let mut c = coord.lock().expect("coordinator");
    if let Some(index) = c.failed_shard() {
        return Err(CoordError::ShardFailed {
            index,
            attempts: c.attempts[index],
        });
    }
    let shards = c.take_results();
    drop(c);
    Dataset::merge(shards).map_err(CoordError::Merge)
}

fn handle_worker_conn(stream: TcpStream, coord: Arc<Mutex<Coordinator>>, done: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    let mut worker_name = String::from("?");
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                // EOF: a worker that died mid-lease forfeits its shards.
                coord
                    .lock()
                    .expect("coordinator")
                    .worker_lost(&worker_name, Instant::now());
                return;
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if done.load(Ordering::SeqCst) {
                    // Plan over while this worker was sweeping or waiting:
                    // push the terminal message and hang up.
                    let _ = send_msg(&mut writer, &WireMsg::Finished);
                    return;
                }
                continue;
            }
            Err(_) => {
                coord
                    .lock()
                    .expect("coordinator")
                    .worker_lost(&worker_name, Instant::now());
                return;
            }
        }
        let msg = match serde_json::from_str::<WireMsg>(line.trim_end()) {
            Ok(m) => m,
            Err(e) => {
                portopt_trace::warn!("bench.coordinator", "unparseable worker line ignored: {e}");
                continue;
            }
        };
        let now = Instant::now();
        let mut c = coord.lock().expect("coordinator");
        let decision = match msg {
            WireMsg::Hello { worker } => {
                worker_name = worker;
                c.lease(&worker_name, now)
            }
            WireMsg::Shard {
                worker,
                index,
                dataset,
            } => {
                worker_name = worker;
                if !c.complete(index, dataset) {
                    portopt_trace::info!(
                        "bench.coordinator",
                        { shard = index as u64 },
                        "duplicate result for shard {index} from {worker_name} discarded"
                    );
                }
                c.lease(&worker_name, now)
            }
            WireMsg::Refuse {
                worker,
                index,
                reason,
            } => {
                worker_name = worker;
                portopt_trace::warn!(
                    "bench.coordinator",
                    { shard = index as u64 },
                    "{worker_name} refused shard {index}: {reason}"
                );
                c.refuse(index, now);
                c.lease(&worker_name, now)
            }
            // Coordinator-side messages from a confused peer: ignore.
            _ => continue,
        };
        let reply = decision_msg(&decision, &c);
        let terminal = matches!(decision, Decision::Finished | Decision::Abort { .. });
        drop(c);
        if send_msg(&mut writer, &reply).is_err() {
            coord
                .lock()
                .expect("coordinator")
                .worker_lost(&worker_name, Instant::now());
            return;
        }
        if terminal {
            return;
        }
    }
}

/// What a worker did before the coordinator released it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// Shards swept and returned.
    pub shards_swept: usize,
    /// Shards refused (the sweep closure returned `Err`).
    pub refused: usize,
}

/// Connects to a coordinator at `addr` and sweeps leases until told
/// [`WireMsg::Finished`]. `sweep(index, count)` runs one shard and
/// returns its dataset, or `Err(reason)` to refuse the lease (the
/// coordinator re-leases it elsewhere).
pub fn run_worker(
    addr: &str,
    name: &str,
    mut sweep: impl FnMut(usize, usize) -> Result<Dataset, String>,
) -> std::io::Result<WorkerOutcome> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = std::io::BufReader::new(stream);
    let mut outcome = WorkerOutcome {
        shards_swept: 0,
        refused: 0,
    };
    send_msg(
        &mut writer,
        &WireMsg::Hello {
            worker: name.to_string(),
        },
    )?;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "coordinator hung up mid-plan",
            ));
        }
        let msg = serde_json::from_str::<WireMsg>(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        match msg {
            WireMsg::Grant { index, count, .. } => match sweep(index, count) {
                Ok(dataset) => {
                    outcome.shards_swept += 1;
                    send_msg(
                        &mut writer,
                        &WireMsg::Shard {
                            worker: name.to_string(),
                            index,
                            dataset,
                        },
                    )?;
                }
                Err(reason) => {
                    // The refusal reason must be visible on the worker's
                    // own stderr (and in its trace), not only in the
                    // coordinator's log on another machine.
                    portopt_trace::warn!(
                        "bench.coordinator",
                        { shard = index as u64 },
                        "worker {name} refusing shard {index}/{count}: {reason}"
                    );
                    outcome.refused += 1;
                    send_msg(
                        &mut writer,
                        &WireMsg::Refuse {
                            worker: name.to_string(),
                            index,
                            reason,
                        },
                    )?;
                }
            },
            WireMsg::Wait { retry_ms } => {
                std::thread::sleep(Duration::from_millis(retry_ms.min(2_000)));
                send_msg(
                    &mut writer,
                    &WireMsg::Hello {
                        worker: name.to_string(),
                    },
                )?;
            }
            WireMsg::Finished => return Ok(outcome),
            WireMsg::Abort { reason } => {
                return Err(std::io::Error::new(std::io::ErrorKind::Other, reason));
            }
            // Worker-side messages echoed back: protocol confusion.
            other => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected coordinator message: {other:?}"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_core::{generate, GenOptions, ShardSpec, SweepScale};
    use portopt_ir::{FuncBuilder, Module, ModuleBuilder};

    fn tiny_program(name: &str, stride: i64) -> (String, Module) {
        let mut mb = ModuleBuilder::new(name);
        let mut b = FuncBuilder::new("main", 0);
        let acc = b.iconst(0);
        b.counted_loop(0, 60, 1, |b, i| {
            let s = b.mul(i, stride);
            let t = b.add(acc, s);
            b.assign(acc, t);
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        (name.to_string(), mb.finish())
    }

    fn tiny_opts() -> GenOptions {
        GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 4,
            },
            seed: 9,
            extended_space: false,
            threads: 1,
        }
    }

    fn fast_config(shards: usize) -> CoordConfig {
        CoordConfig {
            shard_count: shards,
            lease_timeout: Duration::from_secs(5),
            retry_budget: 3,
            backoff_base: Duration::from_millis(40),
        }
    }

    fn tiny_shard(index: usize, count: usize) -> Dataset {
        let programs = vec![
            tiny_program("p1", 1),
            tiny_program("p2", 7),
            tiny_program("p3", 3),
        ];
        let spec = ShardSpec::new(index, count).unwrap();
        generate(spec.slice(&programs), &tiny_opts())
    }

    #[test]
    fn wire_messages_roundtrip() {
        let msgs = vec![
            WireMsg::Hello {
                worker: "rig-a".into(),
            },
            WireMsg::Grant {
                index: 2,
                count: 5,
                deadline_ms: 60_000,
            },
            WireMsg::Wait { retry_ms: 350 },
            WireMsg::Finished,
            WireMsg::Abort {
                reason: "shard 1 exhausted its retry budget".into(),
            },
            WireMsg::Refuse {
                worker: "rig-b".into(),
                index: 1,
                reason: "cache dir unwritable".into(),
            },
        ];
        for msg in msgs {
            let line = serde_json::to_string(&msg).unwrap();
            let back = serde_json::from_str::<WireMsg>(&line).unwrap();
            assert_eq!(format!("{msg:?}"), format!("{back:?}"), "{line}");
        }
        // Shard carries a whole dataset.
        let ds = tiny_shard(0, 3);
        let line = serde_json::to_string(&WireMsg::Shard {
            worker: "rig-a".into(),
            index: 0,
            dataset: ds.clone(),
        })
        .unwrap();
        match serde_json::from_str::<WireMsg>(&line).unwrap() {
            WireMsg::Shard {
                worker,
                index,
                dataset,
            } => {
                assert_eq!(worker, "rig-a");
                assert_eq!(index, 0);
                assert_eq!(
                    serde_json::to_vec(&dataset).unwrap(),
                    serde_json::to_vec(&ds).unwrap()
                );
            }
            other => panic!("expected Shard, got {other:?}"),
        }
    }

    #[test]
    fn metrics_render_byte_for_byte() {
        let m = CoordMetrics::default();
        let counters = [
            &m.leases_granted,
            &m.leases_expired,
            &m.retries,
            &m.refusals,
            &m.duplicates,
            &m.workers_lost,
            &m.shards_done,
            &m.shards_failed,
        ];
        for (i, c) in counters.into_iter().enumerate() {
            c.store(i as u64 + 1, Ordering::Relaxed);
        }
        assert_eq!(
            m.render_line(),
            "coordinator: granted=1 expired=2 retries=3 refusals=4 \
             duplicates=5 workers_lost=6 shards_done=7 shards_failed=8"
        );
        assert_eq!(
            m.to_text(),
            "portopt_coord_leases_granted_total 1\n\
             portopt_coord_leases_expired_total 2\n\
             portopt_coord_retries_total 3\n\
             portopt_coord_refusals_total 4\n\
             portopt_coord_duplicates_total 5\n\
             portopt_coord_workers_lost_total 6\n\
             portopt_coord_shards_done 7\n\
             portopt_coord_shards_failed 8\n"
        );
    }

    #[test]
    fn leases_are_granted_in_index_order_and_complete() {
        let mut c = Coordinator::new(fast_config(2));
        let t0 = Instant::now();
        assert_eq!(c.lease("a", t0), Decision::Grant { index: 0 });
        assert_eq!(c.lease("b", t0), Decision::Grant { index: 1 });
        // Nothing left to lease while both are in flight.
        assert!(matches!(c.lease("c", t0), Decision::Wait { .. }));
        assert!(c.complete(0, tiny_shard(0, 2)));
        assert!(!c.finished());
        assert!(c.complete(1, tiny_shard(1, 2)));
        assert!(c.finished());
        assert_eq!(c.lease("a", t0), Decision::Finished);
        let m = c.metrics();
        assert_eq!(m.leases_granted.load(Ordering::Relaxed), 2);
        assert_eq!(m.shards_done.load(Ordering::Relaxed), 2);
        assert_eq!(m.retries.load(Ordering::Relaxed), 0);
        let merged = c.merged().unwrap();
        assert_eq!(merged.programs, vec!["p1", "p2", "p3"]);
    }

    #[test]
    fn expired_leases_are_retried_with_backoff() {
        let cfg = fast_config(1);
        let mut c = Coordinator::new(cfg);
        let t0 = Instant::now();
        assert_eq!(c.lease("slow", t0), Decision::Grant { index: 0 });
        // Before the deadline nothing is re-leasable.
        let mid = t0 + cfg.lease_timeout / 2;
        assert!(matches!(c.lease("fast", mid), Decision::Wait { .. }));
        // Past the deadline the lease expires, but the retry backs off
        // first...
        let late = t0 + cfg.lease_timeout + Duration::from_millis(1);
        assert!(matches!(c.lease("fast", late), Decision::Wait { .. }));
        assert_eq!(c.metrics().leases_expired.load(Ordering::Relaxed), 1);
        // ...and after the backoff the shard goes to the new worker.
        let after = late + cfg.backoff_base;
        assert_eq!(c.lease("fast", after), Decision::Grant { index: 0 });
        assert_eq!(c.metrics().retries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lost_workers_forfeit_their_leases() {
        let cfg = fast_config(2);
        let mut c = Coordinator::new(cfg);
        let t0 = Instant::now();
        assert_eq!(c.lease("doomed", t0), Decision::Grant { index: 0 });
        assert_eq!(c.lease("ok", t0), Decision::Grant { index: 1 });
        c.worker_lost("doomed", t0);
        assert_eq!(c.metrics().workers_lost.load(Ordering::Relaxed), 1);
        // The forfeited shard comes back after its backoff; the healthy
        // worker's lease is untouched.
        let after = t0 + cfg.backoff_base;
        assert_eq!(c.lease("ok2", after), Decision::Grant { index: 0 });
        // A name that holds no lease is a no-op, not a counter bump.
        c.worker_lost("stranger", t0);
        assert_eq!(c.metrics().workers_lost.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn refusals_burn_budget_and_eventually_abort() {
        let cfg = CoordConfig {
            retry_budget: 2,
            ..fast_config(1)
        };
        let mut c = Coordinator::new(cfg);
        let mut now = Instant::now();
        for attempt in 1..=2 {
            assert_eq!(c.lease("w", now), Decision::Grant { index: 0 }, "{attempt}");
            c.refuse(0, now);
            now += MAX_BACKOFF;
        }
        // Budget spent: the plan is dead and says so.
        assert_eq!(c.lease("w", now), Decision::Abort { index: 0 });
        assert_eq!(c.failed_shard(), Some(0));
        let m = c.metrics();
        assert_eq!(m.refusals.load(Ordering::Relaxed), 2);
        assert_eq!(m.shards_failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_results_are_discarded_deterministically() {
        let cfg = fast_config(1);
        let mut c = Coordinator::new(cfg);
        let t0 = Instant::now();
        assert_eq!(c.lease("a", t0), Decision::Grant { index: 0 });
        // Lease expires; after the backoff (counted from when the expiry
        // was noticed) the shard is re-granted to b; then BOTH finish.
        let expiry = t0 + cfg.lease_timeout + Duration::from_millis(1);
        c.expire(expiry);
        let late = expiry + cfg.backoff_base;
        assert_eq!(c.lease("b", late), Decision::Grant { index: 0 });
        assert!(c.complete(0, tiny_shard(0, 1)), "first result accepted");
        assert!(
            !c.complete(0, tiny_shard(0, 1)),
            "stale duplicate discarded"
        );
        assert_eq!(c.metrics().duplicates.load(Ordering::Relaxed), 1);
        assert!(c.finished());
    }

    /// The end-to-end contract over real TCP: a worker that takes a lease
    /// and dies is retried on a healthy rig, and the merged result is
    /// byte-identical to the unsharded sweep — crash invisible in the data,
    /// visible in the counters.
    #[test]
    fn coordinator_completes_despite_a_dead_worker() {
        let programs = vec![
            tiny_program("p1", 1),
            tiny_program("p2", 7),
            tiny_program("p3", 3),
        ];
        let whole = generate(&programs, &tiny_opts());

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coord = Arc::new(Mutex::new(Coordinator::new(CoordConfig {
            shard_count: 3,
            lease_timeout: Duration::from_secs(10),
            retry_budget: 3,
            backoff_base: Duration::from_millis(40),
        })));
        let metrics = coord.lock().unwrap().metrics();
        let server = {
            let coord = coord.clone();
            std::thread::spawn(move || run_coordinator(listener, coord))
        };

        // A doomed worker: takes a lease and drops the connection without
        // ever returning the shard.
        {
            let mut stream = TcpStream::connect(&addr).unwrap();
            send_msg(
                &mut stream,
                &WireMsg::Hello {
                    worker: "doomed".into(),
                },
            )
            .unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(
                matches!(
                    serde_json::from_str::<WireMsg>(line.trim_end()).unwrap(),
                    WireMsg::Grant {
                        index: 0,
                        count: 3,
                        ..
                    }
                ),
                "{line}"
            );
            // SIGKILL equivalent: the socket just vanishes.
            drop(reader);
            drop(stream);
        }

        // A healthy worker drains the whole plan, including the retried
        // shard 0.
        let outcome = run_worker(&addr, "healthy", |index, count| {
            let spec = ShardSpec::new(index, count).map_err(|e| e.to_string())?;
            Ok(generate(spec.slice(&programs), &tiny_opts()))
        })
        .unwrap();
        assert_eq!(outcome.shards_swept, 3);

        let merged = server.join().unwrap().unwrap();
        assert_eq!(
            serde_json::to_vec(&merged).unwrap(),
            serde_json::to_vec(&whole).unwrap(),
            "crash + retry must be invisible in the merged data"
        );
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(g(&metrics.workers_lost), 1, "{}", metrics.render_line());
        assert_eq!(g(&metrics.retries), 1, "{}", metrics.render_line());
        assert_eq!(g(&metrics.shards_done), 3, "{}", metrics.render_line());
        assert_eq!(g(&metrics.leases_granted), 4, "{}", metrics.render_line());
    }

    /// A worker whose sweep closure refuses (bad local state) does not
    /// sink the plan: the shard is re-leased and another rig finishes it.
    #[test]
    fn refused_shards_are_re_leased_over_tcp() {
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let whole = generate(&programs, &tiny_opts());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let coord = Arc::new(Mutex::new(Coordinator::new(CoordConfig {
            shard_count: 2,
            lease_timeout: Duration::from_secs(10),
            retry_budget: 3,
            backoff_base: Duration::from_millis(40),
        })));
        let metrics = coord.lock().unwrap().metrics();
        let server = {
            let coord = coord.clone();
            std::thread::spawn(move || run_coordinator(listener, coord))
        };
        // One worker refuses shard 0 once, then sweeps whatever it is
        // offered — exercising refusal, backoff and re-lease end to end.
        let mut refused_once = false;
        let outcome = run_worker(&addr, "flaky", |index, count| {
            if index == 0 && !refused_once {
                refused_once = true;
                return Err("cache dir unwritable".to_string());
            }
            let spec = ShardSpec::new(index, count).map_err(|e| e.to_string())?;
            Ok(generate(spec.slice(&programs), &tiny_opts()))
        })
        .unwrap();
        assert_eq!(outcome.refused, 1);
        assert_eq!(outcome.shards_swept, 2);
        let merged = server.join().unwrap().unwrap();
        assert_eq!(
            serde_json::to_vec(&merged).unwrap(),
            serde_json::to_vec(&whole).unwrap()
        );
        assert_eq!(metrics.refusals.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.retries.load(Ordering::Relaxed), 1);
    }
}
