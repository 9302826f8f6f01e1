//! Open-loop TCP load generator for the `serve` JSON-lines protocol.
//!
//! Requests go out on a fixed schedule whatever the server does, and each
//! latency is timed from the request's *due* time, so a stall is charged
//! to every request that should have been sent during it, not only to the
//! one in flight (no coordinated omission). One process, two threads: the
//! calling thread sends (and polls the optional second connection, which
//! carries rare, slow module requests), one receiver thread reads the
//! first connection. Every reply is checked against the expected result.

use portopt_serve::{ApplyStats, ServeResponse};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One scheduled request: its id is its index in the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Send {
    /// Due time, in nanoseconds after the run starts.
    pub due_ns: u64,
    /// Connection it is sent on (0 or 1).
    pub conn: u8,
    /// Index of the [`Item`] it sends.
    pub item: u32,
}

/// What a correct reply carries.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A feature request: the reply's `choices` array, rendered as its
    /// comma-separated elements.
    Choices(String),
    /// A module request: the choice vector and, for `apply`, the stats.
    Module {
        /// Predicted setting.
        choices: Vec<u8>,
        /// Cycle counts of an `apply` request.
        stats: Option<ApplyStats>,
    },
}

/// A request body plus its expected reply.
#[derive(Debug, Clone)]
pub struct Item {
    /// The request line after its `{"id":N,` prefix, without newline.
    pub body: String,
    /// What the reply must carry.
    pub expect: Expect,
}

/// Failed requests, by kind. Every kind counts against the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Replies with an `error` (including admission refusals).
    pub error: u64,
    /// Replies whose prediction differs from the expected one.
    pub wrong: u64,
    /// A second reply for an id already answered.
    pub duplicate: u64,
    /// Replies whose id was never sent on that connection, or has none.
    pub unknown_id: u64,
    /// Requests never answered.
    pub missing: u64,
}

impl Failures {
    /// All failures.
    pub fn total(&self) -> u64 {
        self.error + self.wrong + self.duplicate + self.unknown_id + self.missing
    }

    fn add(&mut self, o: &Failures) {
        self.error += o.error;
        self.wrong += o.wrong;
        self.duplicate += o.duplicate;
        self.unknown_id += o.unknown_id;
        self.missing += o.missing;
    }
}

/// The result of one open-loop run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latencies of correct replies in ms, per connection, sorted.
    pub latencies_ms: [Vec<f64>; 2],
    /// How late each request was written, in ms, sorted.
    pub lag_ms: Vec<f64>,
    /// Failed requests.
    pub failures: Failures,
    /// Requests sent.
    pub sent: u64,
    /// From the first due time until the last reply arrived.
    pub elapsed: Duration,
    /// The server's `{"cmd":"stats"}` line, scraped after the last reply.
    pub stats_line: Option<String>,
}

/// Checks the replies of one connection.
struct Tally<'a> {
    sched: &'a [Send],
    items: &'a [Item],
    conn: u8,
    start: Instant,
    seen: Vec<bool>,
    replies: u64,
    latencies_ms: Vec<f64>,
    failures: Failures,
    stats_line: Option<String>,
}

impl<'a> Tally<'a> {
    fn new(sched: &'a [Send], items: &'a [Item], conn: u8, start: Instant) -> Self {
        Tally {
            sched,
            items,
            conn,
            start,
            seen: vec![false; sched.len()],
            replies: 0,
            latencies_ms: Vec::new(),
            failures: Failures::default(),
            stats_line: None,
        }
    }

    /// Accounts for one reply line that arrived at `now`.
    fn observe(&mut self, line: &str, now: Instant) {
        if line.starts_with(r#"{"cmd":"stats""#) {
            self.stats_line = Some(line.to_string());
            return;
        }
        let Some(id) = reply_id(line).filter(|&id| {
            (id as usize) < self.sched.len() && self.sched[id as usize].conn == self.conn
        }) else {
            self.failures.unknown_id += 1;
            return;
        };
        let send = self.sched[id as usize];
        if std::mem::replace(&mut self.seen[id as usize], true) {
            self.failures.duplicate += 1;
            return;
        }
        self.replies += 1;
        match check(line, &self.items[send.item as usize].expect) {
            Ok(()) => {
                let due = self.start + Duration::from_nanos(send.due_ns);
                let ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                self.latencies_ms.push(ms);
            }
            Err(Bad::Error) => self.failures.error += 1,
            Err(Bad::Wrong) => self.failures.wrong += 1,
        }
    }

    /// Requests of this connection that were sent but never answered.
    fn missing(&self, sent: usize) -> u64 {
        self.sched[..sent]
            .iter()
            .zip(&self.seen)
            .filter(|(s, seen)| s.conn == self.conn && !**seen)
            .count() as u64
    }
}

enum Bad {
    Error,
    Wrong,
}

/// The id of a reply line, which the server writes first.
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix(r#"{"id":"#)?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn check(line: &str, expect: &Expect) -> Result<(), Bad> {
    match expect {
        Expect::Choices(want) => {
            if !line.contains(r#""error":null"#) {
                return Err(Bad::Error);
            }
            let got = line
                .split_once(r#""choices":["#)
                .and_then(|(_, rest)| rest.split_once(']'))
                .map(|(choices, _)| choices);
            if got == Some(want.as_str()) {
                Ok(())
            } else {
                Err(Bad::Wrong)
            }
        }
        Expect::Module { choices, stats } => {
            let reply: ServeResponse = serde_json::from_str(line).map_err(|_| Bad::Wrong)?;
            if reply.error.is_some() {
                Err(Bad::Error)
            } else if reply.choices != *choices || reply.stats != *stats {
                Err(Bad::Wrong)
            } else {
                Ok(())
            }
        }
    }
}

/// Writes all of `buf` to a non-blocking socket.
fn write_all_nonblocking(s: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match s.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads whatever a non-blocking socket holds and feeds complete lines to
/// `tally`.
fn poll_lines(s: &mut TcpStream, pending: &mut Vec<u8>, tally: &mut Tally) -> std::io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    let now = Instant::now();
    while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
        tally.observe(String::from_utf8_lossy(&pending[..pos]).trim(), now);
        pending.drain(..=pos);
    }
    Ok(())
}

/// Runs `sched` against the server at `addr`, then scrapes its stats on
/// connection 0. Replies still missing `grace` after the last send count
/// as failures.
pub fn run(
    addr: SocketAddr,
    sched: &[Send],
    items: &[Item],
    grace: Duration,
) -> std::io::Result<Outcome> {
    let two = sched.iter().any(|s| s.conn == 1);
    let mut c0 = TcpStream::connect(addr)?;
    c0.set_nodelay(true)?;
    let reader0 = c0.try_clone()?;
    reader0.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut c1 = if two {
        let c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        c.set_nonblocking(true)?;
        Some(c)
    } else {
        None
    };
    let expected0 = sched.iter().filter(|s| s.conn == 0).count() as u64;
    let expected1 = sched.len() as u64 - expected0;

    let start = Instant::now() + Duration::from_millis(5);
    let answered0 = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut tally1 = Tally::new(sched, items, 1, start);
    let mut pending1 = Vec::new();
    let mut lag_ms = Vec::with_capacity(sched.len());
    let mut sent = 0usize;

    let (tally0, send_result, elapsed) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut tally = Tally::new(sched, items, 0, start);
            let mut reader = BufReader::new(reader0);
            let mut line = String::new();
            while tally.stats_line.is_none() && !stop.load(Ordering::Acquire) {
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        tally.observe(line.trim(), Instant::now());
                        answered0.store(tally.replies, Ordering::Release);
                        line.clear();
                    }
                    // A read timeout keeps any partial line in `line`.
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
            }
            tally
        });

        let mut send = || -> std::io::Result<Duration> {
            let mut bufs = [Vec::<u8>::new(), Vec::new()];
            while sent < sched.len() {
                let due = start + Duration::from_nanos(sched[sent].due_ns);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                while sent < sched.len() && start + Duration::from_nanos(sched[sent].due_ns) <= now
                {
                    let s = sched[sent];
                    let due = start + Duration::from_nanos(s.due_ns);
                    lag_ms.push((now - due).as_secs_f64() * 1e3);
                    let buf = &mut bufs[s.conn as usize];
                    write!(buf, r#"{{"id":{sent},"#)?;
                    buf.extend_from_slice(items[s.item as usize].body.as_bytes());
                    buf.push(b'\n');
                    sent += 1;
                }
                if !bufs[0].is_empty() {
                    c0.write_all(&bufs[0])?;
                    bufs[0].clear();
                }
                if let Some(c1) = c1.as_mut() {
                    if !bufs[1].is_empty() {
                        write_all_nonblocking(c1, &bufs[1])?;
                        bufs[1].clear();
                    }
                    poll_lines(c1, &mut pending1, &mut tally1)?;
                }
            }
            let deadline = Instant::now() + grace;
            while Instant::now() < deadline
                && (answered0.load(Ordering::Acquire) < expected0 || tally1.replies < expected1)
            {
                if let Some(c1) = c1.as_mut() {
                    poll_lines(c1, &mut pending1, &mut tally1)?;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let elapsed = Instant::now().saturating_duration_since(start);
            c0.write_all(b"{\"cmd\":\"stats\"}\n")?;
            Ok(elapsed)
        };
        let send_result = send();
        let elapsed = send_result.as_ref().map(|e| *e).unwrap_or_default();
        // The receiver stops at the stats line; bound the wait for it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !receiver.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        let tally0 = receiver.join().expect("receiver thread panicked");
        (tally0, send_result, elapsed)
    });
    send_result?;

    let mut failures = tally0.failures;
    failures.add(&tally1.failures);
    failures.missing = tally0.missing(sent) + tally1.missing(sent);
    let mut latencies_ms = [tally0.latencies_ms, tally1.latencies_ms];
    for l in &mut latencies_ms {
        crate::stats::sort(l);
    }
    crate::stats::sort(&mut lag_ms);
    Ok(Outcome {
        latencies_ms,
        lag_ms,
        failures,
        sent: sent as u64,
        elapsed,
        stats_line: tally0.stats_line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn feature_items() -> Vec<Item> {
        vec![Item {
            body: r#""features":[1.0],"uarch":"xscale"}"#.to_string(),
            expect: Expect::Choices("1,2".to_string()),
        }]
    }

    fn reply(id: u64, choices: &str) -> String {
        format!(
            r#"{{"id":{id},"config":{{}},"choices":[{choices}],"latency_ms":0.01,"stats":null,"error":null,"snapshot_version":1}}"#
        )
    }

    /// A fake `serve`: answers each feature line with choices `1,2`,
    /// stalls `stall` once request `stall_at` arrives, and answers the
    /// stats command.
    fn fake_server(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                if line.contains("\"cmd\":\"stats\"") {
                    out.write_all(b"{\"cmd\":\"stats\",\"requests_total\":0}\n")
                        .unwrap();
                    return;
                }
                let id = reply_id(&line).unwrap();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                out.write_all(format!("{}\n", reply(id, "1,2")).as_bytes())
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        const STALL_MS: u64 = 50;
        let (addr, server) = fake_server(40, Duration::from_millis(STALL_MS));
        // One request every millisecond for 200 ms.
        let sched: Vec<Send> = (0..200)
            .map(|i| Send {
                due_ns: i * 1_000_000,
                conn: 0,
                item: 0,
            })
            .collect();
        let out = run(addr, &sched, &feature_items(), Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(out.failures, Failures::default());
        assert_eq!(out.sent, 200);
        assert!(out.stats_line.is_some());
        // Requests 40..90 were due during the stall: request i cannot be
        // answered before the stall ends at 40 + 50 ms, so its latency
        // from due time is at least (90 - i) ms; request 40 waits the
        // whole stall. Count them from the sorted latencies.
        let lat = &out.latencies_ms[0];
        for k in 1..=STALL_MS as usize {
            let at_least = (STALL_MS as usize + 1 - k) as f64 - 0.5;
            let n = lat.iter().filter(|&&l| l >= at_least).count();
            assert!(n >= k, "only {n} latencies ≥ {at_least} ms: {lat:?}");
        }
    }

    fn tally_of(lines: &[String], n: usize) -> Failures {
        let sched: Vec<Send> = (0..n)
            .map(|i| Send {
                due_ns: i as u64,
                conn: 0,
                item: 0,
            })
            .collect();
        let items = feature_items();
        let mut t = Tally::new(&sched, &items, 0, Instant::now());
        for l in lines {
            t.observe(l, Instant::now());
        }
        let mut f = t.failures;
        f.missing = t.missing(n);
        f
    }

    #[test]
    fn bad_replies_each_count_as_failures() {
        let ok = tally_of(&[reply(0, "1,2"), reply(1, "1,2")], 2);
        assert_eq!(ok, Failures::default());

        let missing = tally_of(&[reply(0, "1,2")], 2);
        assert_eq!(missing.missing, 1);
        assert_eq!(missing.total(), 1);

        let duplicate = tally_of(&[reply(0, "1,2"), reply(0, "1,2"), reply(1, "1,2")], 2);
        assert_eq!(duplicate.duplicate, 1);
        assert_eq!(duplicate.total(), 1);

        let wrong_id = tally_of(&[reply(0, "1,2"), reply(1, "1,2"), reply(7, "1,2")], 2);
        assert_eq!(wrong_id.unknown_id, 1);
        let no_id = tally_of(&[r#"{"error":"server at capacity"}"#.to_string()], 1);
        assert_eq!(no_id.unknown_id, 1);
        assert_eq!(no_id.missing, 1);

        let wrong_choices = tally_of(&[reply(0, "1,3"), reply(1, "1,2")], 2);
        assert_eq!(wrong_choices.wrong, 1);
        assert_eq!(wrong_choices.total(), 1);

        let refused = tally_of(
            &[
                r#"{"id":0,"error":"overloaded","retry_after_ms":10}"#.to_string(),
                reply(1, "1,2"),
            ],
            2,
        );
        assert_eq!(refused.error, 1);
        assert_eq!(refused.total(), 1);
    }
}
