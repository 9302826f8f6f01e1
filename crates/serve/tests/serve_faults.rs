//! Fault-injection tests for the concurrent serving layer, driven by the
//! deterministic chaos adapters in `portopt_serve::testkit`.
//!
//! Each test pins one wire-protocol guarantee from `docs/SERVING.md`
//! under one fault class — short writes, stalls past the server's read
//! timeout, mid-frame disconnects, garbage bytes — plus the admission
//! bounds this PR adds: the queue cap is a hard ceiling, overload
//! refusals carry `retry_after_ms`, and a closed (shutting-down) queue
//! refuses with a typed error. Fault schedules are seeded: a failure
//! reproduces exactly by rerunning the same test.

mod common;

use common::{fixture, request_line, shutdown, spawn_server};
use portopt_core::TrainOptions;
use portopt_ir::{BlockId, FuncBuilder, Inst, ModuleBuilder, Operand};
use portopt_serve::testkit::{garbage_line, ChaosConfig, ChaosRng, ChaosWriter};
use portopt_serve::{
    LineAction, ModelKind, PredictionService, RequestInput, ServeOptions, ServeRequest,
    ServeResponse, Snapshot, LOCAL_CONN,
};
use portopt_uarch::MicroArch;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn fast_opts() -> ServeOptions {
    ServeOptions {
        batch: 4,
        window: Duration::from_millis(2),
        ..Default::default()
    }
}

/// Reads `n` replies and asserts they are exactly client `client`'s
/// requests `0..n`, in order, answered without error.
fn assert_replies_in_order(reader: &mut impl BufRead, client: u64, n: u64) {
    for seq in 0..n {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r: ServeResponse = serde_json::from_str(line.trim())
            .unwrap_or_else(|e| panic!("client {client} reply {seq} unparseable ({e}): {line}"));
        assert!(
            r.error.is_none(),
            "client {client} seq {seq}: {:?}",
            r.error
        );
        assert_eq!(
            r.id,
            client * 100_000 + seq,
            "client {client} got a lost, duplicated or misrouted reply"
        );
    }
}

/// Fault class 1 — short writes: requests leave the client in 1–3-byte
/// dribbles, so the server's reader sees every frame fragmentation. No
/// reply may be lost, duplicated, misrouted or reordered.
#[test]
fn short_writes_never_split_frames() {
    let (ds, _) = fixture();
    let (addr, server) = spawn_server(|s| PredictionService::new(s, 2), fast_opts());
    const N: u64 = 12;
    for seed in 1..=3u64 {
        let stream = TcpStream::connect(addr).unwrap();
        let reader_half = stream.try_clone().unwrap();
        let mut w = ChaosWriter::new(stream, ChaosConfig::fragmenting(seed, 3));
        for seq in 0..N {
            w.write_all(format!("{}\n", request_line(&ds, seed, seq)).as_bytes())
                .unwrap();
        }
        assert_replies_in_order(&mut BufReader::new(reader_half), seed, N);
    }
    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.requests, 3 * N);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.discarded, 0);
}

/// Fault class 2 — stalls: the client pauses mid-frame for longer than
/// the server's 50 ms socket read timeout. The reader's timeout pass must
/// preserve the partial line and keep appending to it.
#[test]
fn stalls_past_the_read_timeout_preserve_partial_frames() {
    let (ds, _) = fixture();
    let (addr, server) = spawn_server(|s| PredictionService::new(s, 2), fast_opts());
    const N: u64 = 6;
    let stream = TcpStream::connect(addr).unwrap();
    let reader_half = stream.try_clone().unwrap();
    // ~1 in 4 fragments stalls 120 ms — several read-timeout passes land
    // mid-frame over 6 requests.
    let mut w = ChaosWriter::new(
        stream,
        ChaosConfig::stalling(11, 64, Duration::from_millis(120), 8),
    );
    for seq in 0..N {
        w.write_all(format!("{}\n", request_line(&ds, 1, seq)).as_bytes())
            .unwrap();
    }
    assert_replies_in_order(&mut BufReader::new(reader_half), 1, N);
    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.requests, N);
    assert_eq!(stats.errors, 0);
}

/// Fault class 3 — mid-frame disconnect: one client is cut after a byte
/// budget that lands inside a frame and drops its socket. Its complete
/// requests must not poison anyone else: a concurrent well-behaved
/// client gets every reply, correctly routed, and the server keeps
/// accepting afterwards.
#[test]
fn mid_frame_disconnect_discards_without_poisoning_others() {
    let (ds, _) = fixture();
    let (addr, server) = spawn_server(|s| PredictionService::new(s, 2), fast_opts());

    // The victim: two complete requests, then a cut mid-way through the
    // third frame. Dropping the adapter drops its socket clone; dropping
    // `reader_half` below closes the connection entirely.
    {
        let stream = TcpStream::connect(addr).unwrap();
        let _reader_half = stream.try_clone().unwrap();
        let l0 = format!("{}\n", request_line(&ds, 9, 0));
        let l1 = format!("{}\n", request_line(&ds, 9, 1));
        let l2 = format!("{}\n", request_line(&ds, 9, 2));
        let cut_after = (l0.len() + l1.len() + l2.len() / 2) as u64;
        let mut w = ChaosWriter::new(stream, ChaosConfig::cutting(5, 7, cut_after));
        let mut sent = Vec::new();
        sent.extend_from_slice(l0.as_bytes());
        sent.extend_from_slice(l1.as_bytes());
        sent.extend_from_slice(l2.as_bytes());
        let err = w.write_all(&sent).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert!(w.cut(), "the schedule must have cut mid-frame");
        // Socket drops here with a half-written frame on the wire.
    }

    // The survivor: full conversation, every reply intact and its own.
    const N: u64 = 10;
    let stream = TcpStream::connect(addr).unwrap();
    let reader_half = stream.try_clone().unwrap();
    let mut w = stream;
    for seq in 0..N {
        w.write_all(format!("{}\n", request_line(&ds, 2, seq)).as_bytes())
            .unwrap();
    }
    assert_replies_in_order(&mut BufReader::new(reader_half), 2, N);

    shutdown(addr);
    let stats = server.join().unwrap();
    // The survivor's requests all got through; the victim's truncated
    // frame either became an unanswerable error reply (discarded with the
    // dead connection) or was computed and undeliverable — it must never
    // surface in the survivor's stream (checked above by id).
    assert!(stats.requests >= N, "stats: {stats:?}");
    assert_eq!(stats.connections, 3, "victim + survivor + shutdown");
}

/// Fault class 4 — garbage bytes: seeded junk lines interleaved with real
/// requests on one connection. Each garbage line earns an in-order error
/// reply; framing never desyncs, and the real requests around it answer
/// normally.
#[test]
fn garbage_lines_get_in_order_error_replies() {
    let (ds, _) = fixture();
    let (addr, server) = spawn_server(|s| PredictionService::new(s, 2), fast_opts());
    let stream = TcpStream::connect(addr).unwrap();
    let reader_half = stream.try_clone().unwrap();
    let mut w = stream;
    let mut rng = ChaosRng::new(23);

    // real(0), junk, real(1), junk, real(2)
    const REAL: u64 = 3;
    for seq in 0..REAL {
        w.write_all(format!("{}\n", request_line(&ds, 4, seq)).as_bytes())
            .unwrap();
        if seq + 1 < REAL {
            w.write_all(&garbage_line(&mut rng, 48)).unwrap();
        }
    }

    let mut reader = BufReader::new(reader_half);
    let mut real_seen = 0u64;
    for slot in 0..(2 * REAL - 1) {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r: ServeResponse = serde_json::from_str(line.trim()).unwrap();
        if slot % 2 == 0 {
            assert!(
                r.error.is_none(),
                "slot {slot} should be real: {:?}",
                r.error
            );
            assert_eq!(r.id, 4 * 100_000 + real_seen, "real replies out of order");
            real_seen += 1;
        } else {
            assert!(
                r.error.is_some(),
                "slot {slot} should be the junk line's error reply"
            );
        }
    }

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.requests, 2 * REAL - 1);
    assert_eq!(stats.errors, REAL - 1, "one error reply per junk line");
}

/// Fault class 5 — non-finite features: JSON `null` decodes to NaN and
/// `1e999` overflows to +Infinity. Both used to reach the distance kernel
/// and panic the whole batch (`partial_cmp(..).expect("finite distances")`);
/// now they are rejected at admission with a typed per-request error reply
/// that echoes the client's id, and every surrounding request still
/// answers normally. A malformed module (a branch to a missing block),
/// which would otherwise reach the compiler and the profiler's indexing,
/// is rejected the same way.
#[test]
fn non_finite_features_are_rejected_per_request_not_per_batch() {
    let (ds, _) = fixture();
    let (addr, server) = spawn_server(|s| PredictionService::new(s, 2), fast_opts());
    let stream = TcpStream::connect(addr).unwrap();
    let reader_half = stream.try_clone().unwrap();
    reader_half
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut w = stream;

    // good(0), NaN, +Inf, bad module, good(1) — all on one connection, so
    // the bad requests share a batch with at least one healthy neighbour.
    let nan_line = r#"{"id":777001,"features":[0.5,null,0.25],"uarch":"xscale"}"#;
    let inf_line = r#"{"id":777002,"features":[1e999,0.5],"uarch":"xscale"}"#;
    let mut bad_module = ModuleBuilder::new("bad");
    let mut b = FuncBuilder::new("main", 0);
    b.ret(Operand::Imm(0));
    let main = bad_module.add(b.finish());
    bad_module.entry(main);
    let mut bad_module = bad_module.finish();
    bad_module.funcs[0].blocks[0].insts = vec![Inst::Br { target: BlockId(9) }];
    let module_line = serde_json::to_string(&ServeRequest {
        id: Some(777_003),
        input: RequestInput::Module(Box::new(bad_module)),
        uarch: MicroArch::xscale(),
        apply: false,
    })
    .unwrap();
    w.write_all(format!("{}\n", request_line(&ds, 7, 0)).as_bytes())
        .unwrap();
    w.write_all(format!("{nan_line}\n").as_bytes()).unwrap();
    w.write_all(format!("{inf_line}\n").as_bytes()).unwrap();
    w.write_all(format!("{module_line}\n").as_bytes()).unwrap();
    w.write_all(format!("{}\n", request_line(&ds, 7, 1)).as_bytes())
        .unwrap();

    let mut reader = BufReader::new(reader_half);
    let mut read_reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<ServeResponse>(line.trim())
            .unwrap_or_else(|e| panic!("unparseable reply ({e}): {line}"))
    };

    let ok0 = read_reply();
    assert!(ok0.error.is_none(), "healthy request poisoned: {ok0:?}");
    assert_eq!(ok0.id, 7 * 100_000);

    let nan = read_reply();
    assert_eq!(nan.id, 777_001, "error reply must echo the client's id");
    let msg = nan
        .error
        .as_deref()
        .unwrap_or_else(|| panic!("NaN accepted: {nan:?}"));
    assert!(msg.contains("features[1]"), "{msg}");
    assert!(msg.contains("not a finite number"), "{msg}");

    let inf = read_reply();
    assert_eq!(inf.id, 777_002);
    let msg = inf
        .error
        .as_deref()
        .unwrap_or_else(|| panic!("Inf accepted: {inf:?}"));
    assert!(msg.contains("features[0]"), "{msg}");

    let bad = read_reply();
    assert_eq!(bad.id, 777_003);
    let msg = bad
        .error
        .as_deref()
        .unwrap_or_else(|| panic!("malformed module accepted: {bad:?}"));
    assert!(msg.contains("module failed verification"), "{msg}");
    assert!(msg.contains("branch to missing"), "{msg}");

    // The batch — and the server — survived: the trailing request answers.
    let ok1 = read_reply();
    assert!(
        ok1.error.is_none(),
        "request after the bad ones lost: {ok1:?}"
    );
    assert_eq!(ok1.id, 7 * 100_000 + 1);

    shutdown(addr);
    let stats = server.join().unwrap();
    assert_eq!(stats.requests, 5);
    assert_eq!(stats.errors, 3, "one error reply per bad request");
    assert_eq!(stats.discarded, 0);
}

/// A module request whose `uarch` lies outside the Table 2 menus (here a
/// 12-byte instruction-cache block) used to reach the timing model and
/// panic the whole drain, so its healthy neighbours got no reply. It is
/// now refused at admission with an in-order error naming the field, its
/// value and the menu. A feature request never prices its `uarch`, so the
/// same configuration there is still answered.
#[test]
fn out_of_menu_uarch_is_rejected_per_request_not_per_batch() {
    let (ds, snap) = fixture();
    let service = PredictionService::new(snap, 1);
    let mut mb = ModuleBuilder::new("tiny");
    let mut b = FuncBuilder::new("main", 0);
    let acc = b.iconst(0);
    b.counted_loop(0, 50, 1, |b, i| {
        let t = b.add(acc, i);
        b.assign(acc, t);
    });
    b.ret(acc);
    let main = mb.add(b.finish());
    mb.entry(main);
    let module = mb.finish();
    let odd = MicroArch {
        il1_block: 12,
        ..MicroArch::xscale()
    };
    let module_line = |id, uarch| {
        serde_json::to_string(&ServeRequest {
            id: Some(id),
            input: RequestInput::Module(Box::new(module.clone())),
            uarch,
            apply: true,
        })
        .unwrap()
    };
    let features = request_line(&ds, 3, 0);
    let mut odd_features: ServeRequest = serde_json::from_str(&features).unwrap();
    odd_features.id = Some(5);
    odd_features.uarch = odd;
    let odd_features = serde_json::to_string(&odd_features).unwrap();
    let input = [
        features,
        module_line(1, odd),
        module_line(2, MicroArch::xscale()),
        odd_features,
    ]
    .join("\n");

    let mut out = Vec::new();
    let mut stats = portopt_serve::ServiceStats::default();
    service
        .run_lines(input.as_bytes(), &mut out, 8, &mut stats)
        .unwrap();
    let replies: Vec<ServeResponse> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(stats.batches, 1, "all four requests share one drain");
    assert_eq!(replies.len(), 4);

    assert_eq!(replies[0].id, 300_000);
    assert!(replies[0].error.is_none(), "{:?}", replies[0]);

    assert_eq!(replies[1].id, 1);
    let msg = replies[1].error.as_deref().expect("odd uarch accepted");
    assert!(msg.contains("uarch outside the design space"), "{msg}");
    assert!(msg.contains("il1_block"), "{msg}");
    assert!(msg.contains("12"), "{msg}");
    assert!(msg.contains("[8, 16, 32, 64]"), "{msg}");

    assert_eq!(replies[2].id, 2);
    assert!(replies[2].error.is_none(), "{:?}", replies[2]);
    assert!(replies[2].stats.is_some());

    assert_eq!(replies[3].id, 5);
    assert!(replies[3].error.is_none(), "{:?}", replies[3]);
    assert_eq!(replies[3].choices, replies[0].choices);
    assert_eq!(stats.errors, 1);
}

/// The queue cap is a hard ceiling: with `--queue-cap N`, the pending
/// count never exceeds N, every refusal carries the `overloaded` error
/// with a `retry_after_ms` hint, and draining reopens admission.
#[test]
fn queue_cap_is_a_hard_ceiling_and_refusals_carry_retry_hint() {
    let (ds, snap) = fixture();
    const CAP: usize = 4;
    let service = PredictionService::new(snap, 1).with_queue_cap(CAP);
    let mut refusals = Vec::new();
    for seq in 0..10u64 {
        match service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, seq)) {
            LineAction::Queued => {}
            LineAction::Refused { reply } => refusals.push(reply),
            other => panic!("unexpected action {other:?}"),
        }
        assert!(
            service.pending() <= CAP,
            "queue length {} exceeded the cap {CAP}",
            service.pending()
        );
    }
    assert_eq!(service.pending(), CAP);
    assert_eq!(refusals.len(), 10 - CAP);
    for reply in &refusals {
        assert!(reply.contains(r#""error":"overloaded""#), "{reply}");
        assert!(reply.contains(r#""retry_after_ms":"#), "{reply}");
        // The refusal echoes the client's id so it can be correlated.
        assert!(reply.contains(r#""id":1"#), "{reply}");
        // And it is machine-readable.
        assert!(
            serde_json::from_str::<serde::Value>(reply).is_ok(),
            "refusal must parse as JSON: {reply}"
        );
    }
    assert_eq!(service.metrics().refused_total(), (10 - CAP) as u64);

    // Draining reopens admission; nothing was permanently wedged.
    let mut stats = portopt_serve::ServiceStats::default();
    let replies = service.drain(&mut stats);
    assert_eq!(replies.len(), CAP);
    assert!(matches!(
        service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, 99)),
        LineAction::Queued
    ));
}

/// Satellite: submitting into a queue whose batcher is gone (the service
/// closed it for shutdown) yields the typed "shutting down" refusal, not
/// a hang and not a silent enqueue.
#[test]
fn closed_queue_refuses_with_shutting_down_error() {
    let (ds, snap) = fixture();
    let service = PredictionService::new(snap, 1);
    assert!(matches!(
        service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, 0)),
        LineAction::Queued
    ));
    service.close_queue();
    match service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, 1)) {
        LineAction::Refused { reply } => {
            assert!(reply.contains("shutting down"), "{reply}");
            assert!(
                !reply.contains("retry_after_ms"),
                "no point retrying: {reply}"
            );
        }
        other => panic!("expected refusal, got {other:?}"),
    }
    // What was pending before the close still drains.
    let mut stats = portopt_serve::ServiceStats::default();
    assert_eq!(service.drain(&mut stats).len(), 1);
}

/// Model-zoo fault: a hot reload that swaps the model *kind* mid-flight.
/// Requests queued under the old (kNN) snapshot are answered by whichever
/// snapshot the drain captures — but a single batch must never split
/// across snapshots, `snapshot_version` must be uniform within it, and
/// the per-kind prediction counters must attribute every answer to the
/// kind that actually computed it.
#[test]
fn reload_across_model_kinds_never_splits_a_batch() {
    let (ds, knn_snap) = fixture();
    let linear_snap = Snapshot::try_train(
        &ds,
        &TrainOptions {
            model: ModelKind::Linear,
            ..TrainOptions::default()
        },
    )
    .unwrap();
    let service = PredictionService::new(knn_snap, 1);
    let v1 = service.current_snapshot().version;

    // Batch 1: fully answered under kNN.
    const FIRST: u64 = 5;
    for seq in 0..FIRST {
        assert!(matches!(
            service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, seq)),
            LineAction::Queued
        ));
    }
    let mut stats = portopt_serve::ServiceStats::default();
    let replies = service.drain(&mut stats);
    assert_eq!(replies.len(), FIRST as usize);
    for r in &replies {
        assert!(r.error.is_none(), "{r:?}");
        assert_eq!(r.snapshot_version, v1);
    }
    let m = service.metrics().snapshot(service.pending());
    assert_eq!(m.predictions_by_kind, [FIRST, 0, 0]);

    // Batch 2: queued under kNN, the linear snapshot lands *before* the
    // drain. The drain captures one snapshot for the whole batch, so
    // every reply carries the new version and every prediction counts
    // against `linear` — no split attribution.
    const SECOND: u64 = 4;
    for seq in FIRST..FIRST + SECOND {
        assert!(matches!(
            service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, seq)),
            LineAction::Queued
        ));
    }
    let v2 = service.reload_handle().reload(linear_snap);
    assert!(v2 > v1);
    let replies = service.drain(&mut stats);
    assert_eq!(replies.len(), SECOND as usize);
    for r in &replies {
        assert!(r.error.is_none(), "{r:?}");
        assert_eq!(
            r.snapshot_version, v2,
            "a reload split a batch across snapshots"
        );
    }
    let m = service.metrics().snapshot(service.pending());
    assert_eq!(
        m.predictions_by_kind,
        [FIRST, SECOND, 0],
        "per-kind counters must follow the serving model across a reload"
    );
    assert_eq!(
        m.predictions_by_version,
        vec![(v1, FIRST), (v2, SECOND)],
        "per-version and per-kind accounting must agree"
    );
}

/// The `{"cmd":"stats"}` line keeps the model-zoo counter identity: the
/// per-kind prediction counts sum to `requests_total - errors_total`
/// (refusals never enter `requests_total`, so they do not appear on
/// either side) — pinned with all three counter classes non-zero.
#[test]
fn stats_line_per_kind_counters_sum_to_successes() {
    let (ds, snap) = fixture();
    const CAP: usize = 4;
    let service = PredictionService::new(snap, 1).with_queue_cap(CAP);

    // One garbage line (answered with an error reply), three healthy
    // requests, then two more against the full queue (refused).
    assert!(matches!(
        service.classify_and_submit(LOCAL_CONN, "{\"nonsense\":1}"),
        LineAction::Queued
    ));
    for seq in 0..(CAP as u64 - 1) {
        assert!(matches!(
            service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, seq)),
            LineAction::Queued
        ));
    }
    for seq in 10..12u64 {
        assert!(matches!(
            service.classify_and_submit(LOCAL_CONN, &request_line(&ds, 1, seq)),
            LineAction::Refused { .. }
        ));
    }
    let mut stats = portopt_serve::ServiceStats::default();
    assert_eq!(service.drain(&mut stats).len(), CAP);

    let line = match service.classify_and_submit(LOCAL_CONN, "{\"cmd\": \"stats\"}") {
        LineAction::Stats(line) => line,
        other => panic!("expected a stats line, got {other:?}"),
    };
    let v = serde_json::parse(&line).expect("stats line must be valid JSON");
    let count = |name: &str| match v.field(name) {
        Ok(serde::Value::U64(n)) => *n,
        Ok(serde::Value::I64(n)) => *n as u64,
        other => panic!("{name} missing or not a count: {other:?}"),
    };
    assert_eq!(count("requests_total"), CAP as u64);
    assert_eq!(count("errors_total"), 1, "the garbage line");
    assert_eq!(count("refused_total"), 2, "the over-cap submissions");
    let kinds = v
        .field("predictions_by_kind")
        .expect("stats line must render the kind table")
        .as_object()
        .expect("kind table is an object");
    // Every registered kind renders, even at zero.
    assert_eq!(kinds.len(), ModelKind::ALL.len());
    let kind_sum: u64 = kinds
        .iter()
        .map(|(_, n)| match n {
            serde::Value::U64(n) => *n,
            serde::Value::I64(n) => *n as u64,
            other => panic!("kind count not a number: {other:?}"),
        })
        .sum();
    assert_eq!(
        kind_sum,
        count("requests_total") - count("errors_total"),
        "per-kind counters must sum to successful answers: {line}"
    );
}

/// End-to-end backpressure over TCP: a server with a tiny queue cap and
/// per-connection quota, firehosed by more concurrent admission attempts
/// than the cap admits while the batcher is held back by a long window,
/// must (a) refuse some requests with `overloaded`, (b) answer every
/// accepted request exactly once, and (c) report the refusals in its
/// stats and metrics.
#[test]
fn firehose_against_tiny_cap_yields_refusals_not_losses() {
    let (ds, _) = fixture();
    let opts = ServeOptions {
        batch: 1000,
        // Long window: requests pool in the queue, so the cap actually
        // binds while the clients are flooding.
        window: Duration::from_millis(150),
        queue_cap: Some(4),
        per_conn_quota: Some(2),
        ..Default::default()
    };
    let (addr, server) = spawn_server(|s| PredictionService::new(s, 2), opts);

    const CLIENTS: u64 = 6;
    const PER_CLIENT: u64 = 8;
    let ds_ref = &ds;
    std::thread::scope(|s| {
        for client in 1..=CLIENTS {
            s.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let reader_half = stream.try_clone().unwrap();
                let mut w = stream;
                for seq in 0..PER_CLIENT {
                    w.write_all(format!("{}\n", request_line(ds_ref, client, seq)).as_bytes())
                        .unwrap();
                }
                // Half-close: the server still owes one reply line per
                // request — answered or refused — then retires us.
                let _ = w.shutdown(std::net::Shutdown::Write);
                drop(w);
                let mut answered = 0u64;
                let mut refused = 0u64;
                let mut reader = BufReader::new(reader_half);
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    if line.contains(r#""error":"overloaded""#) {
                        assert!(line.contains(r#""retry_after_ms":"#), "{line}");
                        refused += 1;
                    } else {
                        let r: ServeResponse = serde_json::from_str(line.trim()).unwrap();
                        assert_eq!(r.id / 100_000, client, "misrouted reply");
                        assert!(r.error.is_none());
                        answered += 1;
                    }
                }
                assert_eq!(
                    answered + refused,
                    PER_CLIENT,
                    "client {client}: every request gets exactly one reply line"
                );
                (answered, refused)
            });
        }
    });

    shutdown(addr);
    let stats = server.join().unwrap();
    assert!(
        stats.refused > 0,
        "6 clients × quota 2 = 12 concurrent admission attempts against cap 4 \
         must refuse something: {stats:?}"
    );
    assert_eq!(
        stats.requests + stats.refused,
        CLIENTS * PER_CLIENT,
        "answered + refused must cover the firehose exactly: {stats:?}"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.discarded, 0, "refusal is not loss");
}
