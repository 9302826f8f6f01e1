//! The serving workloads: the real `serve` bin over TCP, loaded open-loop
//! from one client process, every reply checked against the in-process
//! answer on the same snapshot file.

use crate::layers::{self, ModuleLayers};
use crate::loadgen::{self, Expect, Item, Send};
use crate::stats::{percentile, tail};
use crate::{Ctx, Report};
use portopt_core::{Dataset, GenOptions, SweepScale};
use portopt_mibench::{by_name, Workload};
use portopt_serve::{RequestInput, ServeRequest, Snapshot, LOCAL_CONN};
use portopt_uarch::{MicroArch, MicroArchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The fixture's training sweep: the smoke model's size (35 programs ×
/// 6 μarchs × 8 settings = 210 training points), always at seed 2009 so
/// it is swept once per checkout instead of once per run; the run seed
/// draws the traffic.
const FIXTURE_SEED: u64 = 2009;
const FIXTURE_SCALE: SweepScale = SweepScale {
    n_uarch: 6,
    n_opts: 8,
};

/// `serve_features`: a rate at which CPU per request, not the batching
/// window, sets latency on two cores.
const FEATURES_RPS: u64 = 20_000;
/// `serve_mixed`: feature traffic at a rate the batching window governs…
const MIXED_FEATURE_RPS: u64 = 1_000;
/// …plus module requests, each of which profiles a program online.
const MIXED_MODULE_RPS: f64 = 2.0;
/// Distinct feature vectors in a run's traffic.
const FEATURE_POOL: usize = 256;
/// Every tenth feature line reorders the `uarch` object's keys, which the
/// fast decoder refuses, so the tree decoder carries 10% of traffic.
const TREE_EVERY: usize = 10;
/// Module requests cycle through these programs, each once plain and once
/// with `apply`. A fixed set of mid-weight programs (30–65 ms `-O3`
/// profiles), so that the seed changes their data but not how much work
/// a module request is.
const MODULE_POOL: [&str; 8] = [
    "qsort",
    "rawcaudio",
    "ispell",
    "tiffdither",
    "lame",
    "dijkstra",
    "crc",
    "say",
];
/// The server's default batching window, for the head-of-line share.
const WINDOW_MS: f64 = 5.0;
/// Launches timed for `setup_s`.
const LAUNCHES: usize = 5;

/// The `serve` and `snapshot` bins of the checkout under test.
pub struct Bins {
    serve: PathBuf,
    snapshot: PathBuf,
}

impl Bins {
    /// Builds both bins from the repository with the same cargo that
    /// built the benchmark, into the same target directory.
    pub fn build(ctx: &Ctx) -> Result<Bins, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "-p", "portopt-bench"])
            .args(["--bin", "serve", "--bin", "snapshot", "--manifest-path"])
            .arg(ctx.root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&ctx.target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the serve bins failed: {status}"));
        }
        Ok(Bins::at(ctx))
    }

    /// Where [`Bins::build`] puts them.
    pub fn at(ctx: &Ctx) -> Bins {
        let release = ctx.target.join("release");
        Bins {
            serve: release.join("serve"),
            snapshot: release.join("snapshot"),
        }
    }
}

fn fixture_dataset_path(ctx: &Ctx) -> PathBuf {
    ctx.out.join(format!("fixture-ds-{FIXTURE_SEED}.json"))
}

fn fixture_snapshot_path(ctx: &Ctx) -> PathBuf {
    ctx.out.join("fixture.snap")
}

/// Sweeps the fixture dataset (once per target directory) and retrains
/// the fixture snapshot from it with the `snapshot` bin under test.
/// Returns the seconds spent, which are in no metric.
pub fn prepare_fixture(ctx: &Ctx, bins: &Bins) -> Result<f64, String> {
    let t = Instant::now();
    let ds_path = fixture_dataset_path(ctx);
    if !ds_path.exists() {
        let (programs, _) = portopt_experiments::suite_modules(FIXTURE_SEED);
        let ds = portopt_core::generate(
            &programs,
            &GenOptions {
                scale: FIXTURE_SCALE,
                seed: FIXTURE_SEED,
                extended_space: false,
                threads: 0,
            },
        );
        let bytes = serde_json::to_vec(&ds).map_err(|e| e.to_string())?;
        let tmp = ds_path.with_extension("json.tmp");
        std::fs::write(&tmp, bytes)
            .and_then(|()| std::fs::rename(&tmp, &ds_path))
            .map_err(|e| format!("cannot write {}: {e}", ds_path.display()))?;
    }
    let out = Command::new(&bins.snapshot)
        .arg("--shard")
        .arg(&ds_path)
        .arg("--out")
        .arg(fixture_snapshot_path(ctx))
        .args(["--log-level", "warn"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bins.snapshot.display()))?;
    if !out.success() {
        return Err(format!("the snapshot bin failed: {out}"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// CPU seconds (user + system) `/proc/<pid>/stat` reports for a process
/// and its threads, at the kernel's 100 ticks per second.
pub fn cpu_secs(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running `serve` process, killed on drop if it was not stopped.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Starts `serve` on a free port; returns it with the time from spawn
    /// to the first accepted connection.
    fn launch(bins: &Bins, snapshot: &Path, log: &Path) -> Result<(Server, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let t = Instant::now();
        let child = Command::new(&bins.serve)
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--port", &port.to_string(), "--log-level", "warn"])
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bins.serve.display()))?;
        let mut server = Server { child, addr };
        while TcpStream::connect(addr).is_err() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited before listening: {status}"));
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("serve did not listen within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, t.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to shut down and waits for it; kills it if it has
    /// not exited within the timeout.
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut s) = TcpStream::connect(self.addr) {
            let _ = s.write_all(b"{\"shutdown\": true}\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        Err("serve ignored the shutdown request; killed it".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A numeric field of the `{"cmd":"stats"}` line.
fn stat_field(line: &str, key: &str) -> Option<f64> {
    let rest = line.split_once(&format!("\"{key}\":"))?.1;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Feature requests drawn from the fixture's training vectors, each
/// component jittered by up to ±5% so most queries are unseen points.
/// Returns the loadgen items plus, per item, its vector and whether it
/// takes the tree decoder.
pub fn feature_items(ds: &Dataset, snap: &Snapshot, seed: u64) -> Vec<(Item, Vec<f64>, bool)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEA7_0000);
    (0..FEATURE_POOL)
        .map(|i| {
            let p = rng.gen_range(0..ds.n_programs());
            let u = rng.gen_range(0..ds.n_uarchs());
            let values: Vec<f64> = ds.features[p][u]
                .values
                .iter()
                .map(|v| v * (1.0 + 0.05 * (2.0 * rng.gen::<f64>() - 1.0)))
                .collect();
            let uarch = ds.uarchs[u];
            let tree = i % TREE_EVERY == TREE_EVERY - 1;
            let body = if tree {
                let m = &uarch;
                format!(
                    r#""features":{},"uarch":{{"width":{},"freq_mhz":{},"btb_assoc":{},"btb_entries":{},"dl1_block":{},"dl1_assoc":{},"dl1_size":{},"il1_block":{},"il1_assoc":{},"il1_size":{}}}}}"#,
                    serde_json::to_string(&values).expect("numbers serialize"),
                    m.width,
                    m.freq_mhz,
                    m.btb_assoc,
                    m.btb_entries,
                    m.dl1_block,
                    m.dl1_assoc,
                    m.dl1_size,
                    m.il1_block,
                    m.il1_assoc,
                    m.il1_size
                )
            } else {
                request_body(RequestInput::Features(values.clone()), uarch, false)
            };
            let (_, choices) = snap.compiler.predict_features_choices(&values);
            let expect = Expect::Choices(
                choices
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            (Item { body, expect }, values, tree)
        })
        .collect()
}

/// A request line without its id: `{"id":N,` plus this is the full line.
fn request_body(input: RequestInput, uarch: MicroArch, apply: bool) -> String {
    let req = ServeRequest {
        id: None,
        input,
        uarch,
        apply,
    };
    let line = serde_json::to_string(&req).expect("requests serialize");
    line[1..].to_string()
}

/// Module requests: each pool program, built with a data seed other than
/// the training seed, on a seeded μarch, once plain and once with
/// `apply`, in seeded order; expected replies priced in process.
fn module_items(snap: &Snapshot, seed: u64, t: &mut ModuleLayers) -> Result<Vec<Item>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x40D0_0000);
    let uarchs = MicroArchSpace::base().sample_n(MODULE_POOL.len(), &mut rng);
    let data = Workload {
        seed: seed ^ 0x9E37_79B9_7F4A_7C15,
    };
    let mut items = Vec::new();
    for (name, uarch) in MODULE_POOL.iter().zip(uarchs) {
        let module = by_name(name, data)
            .expect("pool names are suite programs")
            .module;
        for apply in [false, true] {
            let body = request_body(RequestInput::Module(Box::new(module.clone())), uarch, apply);
            // Price what the server will decode, not the builder's copy.
            let decoded: ServeRequest =
                serde_json::from_str(&format!("{{{body}")).map_err(|e| e.to_string())?;
            let RequestInput::Module(m) = &decoded.input else {
                return Err("module request decoded as features".into());
            };
            let expect = layers::price_module(snap, m, &decoded.uarch, apply, t)
                .map_err(|e| format!("{name}: {e}"))?;
            items.push(Item { body, expect });
        }
    }
    // Seeded order (Fisher–Yates), then round robin.
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    Ok(items)
}

/// Feature requests at `rps` for `seconds` on connection 0, plus module
/// requests at `module_rps` on connection 1 cycling through items
/// `first_module..`.
fn schedule(
    seconds: u64,
    rps: u64,
    module_rps: f64,
    first_module: usize,
    modules: usize,
) -> Vec<Send> {
    let mut sched: Vec<Send> = (0..rps * seconds)
        .map(|k| Send {
            due_ns: k * 1_000_000_000 / rps,
            conn: 0,
            item: (k % FEATURE_POOL as u64) as u32,
        })
        .collect();
    if modules > 0 {
        let n = (module_rps * seconds as f64) as u64;
        let gap = 1e9 / module_rps;
        sched.extend((0..n).map(|j| Send {
            due_ns: ((j as f64 + 0.5) * gap) as u64,
            conn: 1,
            item: (first_module + j as usize % modules) as u32,
        }));
        sched.sort_by_key(|s| s.due_ns);
    }
    sched
}

/// Runs `serve_features` (`mixed == false`) or `serve_mixed`.
pub fn run(ctx: &Ctx, mixed: bool, report: &mut Report) -> Result<(), String> {
    let bins = Bins::at(ctx);
    let snap_path = fixture_snapshot_path(ctx);
    let ds_bytes = std::fs::read(fixture_dataset_path(ctx)).map_err(|e| e.to_string())?;
    let ds: Dataset = serde_json::from_slice(&ds_bytes).map_err(|e| e.to_string())?;
    let snap = Snapshot::load(&snap_path).map_err(|e| e.to_string())?;

    // Feature items are drawn in a seeded order; the schedule cycles
    // through them.
    let features = feature_items(&ds, &snap, ctx.seed);
    let mut items: Vec<Item> = features.iter().map(|(item, _, _)| item.clone()).collect();
    let mut module_layers = ModuleLayers::default();
    let modules = if mixed || ctx.trace {
        module_items(&snap, ctx.seed, &mut module_layers)?
    } else {
        Vec::new()
    };
    let (rps, module_rps) = if mixed {
        (MIXED_FEATURE_RPS, MIXED_MODULE_RPS)
    } else {
        (FEATURES_RPS, 0.0)
    };
    let first_module = items.len();
    let sched = schedule(
        ctx.seconds,
        rps,
        module_rps,
        first_module,
        if mixed { modules.len() } else { 0 },
    );
    items.extend(modules);

    let log = ctx.out.join("serve.log");
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..LAUNCHES {
        let (s, setup) = Server::launch(&bins, &snap_path, &log)?;
        setups.push(setup);
        if i + 1 < LAUNCHES {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one launch");
    let pid = server.pid();

    let cpu0 = cpu_secs(&pid);
    let out = loadgen::run(server.addr, &sched, &items, Duration::from_secs(10))
        .map_err(|e| format!("load generator: {e}"))?;
    let cpu = cpu_secs(&pid) - cpu0;
    let rss = peak_rss_mb(&pid);
    server.stop()?;

    let lat = &out.latencies_ms[0];
    let answered = (out.latencies_ms[0].len() + out.latencies_ms[1].len()) as f64;
    let secs = out.elapsed.as_secs_f64();
    report.attempted = out.sent;
    report.failed = out.failures.total();
    if report.failed > 0 {
        report.problem(format!("failed requests: {:?}", out.failures));
    }
    let (p50, p99) = match (percentile(lat, 0.5), percentile(lat, 0.99)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(format!("too few feature replies ({}) for p99", lat.len())),
    };
    let cpu_us = cpu * 1e6 / answered.max(1.0);
    report.e2e("setup_s", crate::stats::median(&setups), "s");
    report.e2e("peak_rss_mb", rss, "MB");
    report.e2e("ops_per_s", answered / secs, "1/s");
    report.e2e("cpu_us_per_op", cpu_us, "us");
    report.e2e("lat_p50_ms", p50, "ms");
    report.e2e("lat_p99_ms", p99, "ms");
    report.extra("lat.samples", lat.len() as f64, "count");

    let stats = out.stats_line.clone().unwrap_or_default();
    let field = |k: &str| stat_field(&stats, k);
    let (Some(requests), Some(batches), Some(max_batch), Some(service_ms)) = (
        field("requests_total"),
        field("batches_total"),
        field("max_batch"),
        field("latency_mean_ms"),
    ) else {
        return Err(format!("unreadable stats line: {stats:?}"));
    };
    let mean_batch = requests / batches.max(1.0);
    report.extra("serve.batch.mean_size", mean_batch, "count");
    report.extra("serve.batch.max", max_batch, "count");
    report.extra("serve.batches_per_s", batches / secs, "1/s");
    report.extra("serve.service_mean_ms", service_ms, "ms");
    report.extra("serve.wait_ms", p50 - service_ms, "ms");
    let hol = lat.iter().filter(|&&l| l > 2.0 * WINDOW_MS).count() as f64;
    report.extra("serve.hol_share", hol / lat.len() as f64, "fraction");
    if let Some(lag) = percentile(&out.lag_ms, 0.99) {
        report.extra("loadgen.lag_p99_ms", lag, "ms");
    }
    if mixed {
        let mods = &out.latencies_ms[1];
        report.extra("module_lat.samples", mods.len() as f64, "count");
        if let Some(p50) = percentile(mods, 0.5) {
            report.extra("module_lat_p50_ms", p50, "ms");
        }
        if let Some((q, v)) = tail(mods) {
            report.extra(&format!("module_lat_p{}_ms", (q * 100.0).round()), v, "ms");
        }
    }

    if ctx.trace {
        let lines: Vec<(String, Vec<f64>, bool)> = features
            .iter()
            .enumerate()
            .map(|(i, (item, v, tree))| (format!("{{\"id\":{i},{}", item.body), v.clone(), *tree))
            .collect();
        let sl = layers::serve_layers(&snap, &lines, mean_batch.round() as usize);
        let load_ms = layers::snapshot_load_ms(&snap_path)?;
        layer_metrics(report, &module_layers, &sl, load_ms, sl.parallel_efficiency);
        report.layer(
            "cpu_utilization",
            cpu / (secs * ctx.threads as f64),
            "fraction",
        );
        if !mixed {
            let decode = 0.9 * sl.decode_fast_ns + 0.1 * sl.decode_tree_ns;
            let in_process = (decode + sl.predict_ns + sl.fanout_ns + sl.encode_ns) / 1e3;
            report.extra("serve.transport.cpu_us_per_req", cpu_us - in_process, "us");
        }
        if mixed {
            report.extra(
                "ml.predict_counters_us",
                module_layers.predict.mean(1e3),
                "us",
            );
            let module_lines: Vec<String> = items[first_module..]
                .iter()
                .map(|m| format!("{{\"id\":0,{}", m.body))
                .collect();
            report.extra(
                "serve.decode.module_ms",
                decode_module_ms(&snap, &module_lines),
                "ms",
            );
        }
    }
    Ok(())
}

/// The per-layer figures every workload reports: the module path's
/// layers, the feature path's, snapshot loading and the executor's
/// parallel efficiency on the workload's own work.
pub fn layer_metrics(
    report: &mut Report,
    m: &ModuleLayers,
    sl: &layers::ServeLayers,
    load_ms: f64,
    parallel_efficiency: f64,
) {
    report.layer("passes.compile_ms", m.compile.mean(1e6), "ms");
    report.layer("sim.profile_ms", m.profile.mean(1e6), "ms");
    report.layer(
        "sim.profile_ns_per_inst",
        m.profile.ns as f64 / m.dyn_insts.max(1) as f64,
        "ns",
    );
    report.layer("sim.evaluate_us", m.evaluate.mean(1e3), "us");
    report.layer("ml.predict_ns", sl.predict_ns, "ns");
    report.layer("serve.decode_fast_ns", sl.decode_fast_ns, "ns");
    report.layer("serve.decode_tree_ns", sl.decode_tree_ns, "ns");
    report.layer("serve.drain_ns_per_req", sl.drain_ns, "ns");
    report.layer("exec.fanout_ns_per_req", sl.fanout_ns, "ns");
    report.layer("serve.encode_ns", sl.encode_ns, "ns");
    report.layer("serve.snapshot_load_ms", load_ms, "ms");
    report.layer("exec.parallel_efficiency", parallel_efficiency, "fraction");
}

/// Mean time for the server's line classifier to decode one module
/// request, in ms. Each request is discarded before it could be priced.
fn decode_module_ms(snap: &Snapshot, lines: &[String]) -> f64 {
    let service = portopt_serve::PredictionService::new(snap.clone(), 1);
    let mut busy = layers::Busy::default();
    for _ in 0..3 {
        for line in lines {
            busy.time(|| service.classify_and_submit(LOCAL_CONN, line));
            service.discard_dead(|_| true);
        }
    }
    busy.mean(1e6)
}
