//! End-to-end benchmark of the two paths an operator of this system runs:
//! the cold training sweep, and client-side TCP serving of the real
//! `serve` bin. See `benchmark/README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sweep_cold|serve_features|serve_mixed|all \
//!     [--seed 2009] [--seconds 30] [--trace 0|1]
//! ```
//!
//! Prints one `workload metric value unit` line per figure, then, as the
//! last line, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Each workload runs in a child process of its own, so
//! set-up time and peak memory belong to that workload alone; the full
//! record is also written to `<target>/benchmark/<workload>-<seed>-trace<t>.json`.

mod layers;
mod loadgen;
mod serve;
mod stats;
mod sweep;

use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["sweep_cold", "serve_features", "serve_mixed"];

/// The end-to-end metrics every workload reports (`--trace 0`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
];

/// The per-layer metrics every workload reports (`--trace 1`).
const PER_LAYER: [(&str, &str); 13] = [
    ("passes.compile_ms", "ms"),
    ("sim.profile_ms", "ms"),
    ("sim.profile_ns_per_inst", "ns"),
    ("sim.evaluate_us", "us"),
    ("ml.predict_ns", "ns"),
    ("serve.decode_fast_ns", "ns"),
    ("serve.decode_tree_ns", "ns"),
    ("serve.drain_ns_per_req", "ns"),
    ("exec.fanout_ns_per_req", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.snapshot_load_ms", "ms"),
    ("exec.parallel_efficiency", "fraction"),
    ("cpu_utilization", "fraction"),
];

/// A child that runs longer is killed: the whole command, preparation
/// included, must end within three minutes.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Where the run happens and what it measures.
pub struct Ctx {
    /// The repository checkout.
    pub root: PathBuf,
    /// Cargo's target directory (`CARGO_TARGET_DIR`, else `benchmark/target`).
    pub target: PathBuf,
    /// Caches, logs and per-run records: `<target>/benchmark`.
    pub out: PathBuf,
    /// Draws every input of the run.
    pub seed: u64,
    /// Measured length of the run.
    pub seconds: u64,
    /// Take the per-layer figures too.
    pub trace: bool,
    /// Cores available, which the sweep and the server both use.
    pub threads: usize,
}

/// One named figure.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (sweep pairs, or requests sent).
    pub attempted: u64,
    /// Operations whose output was wrong, refused or missing.
    pub failed: u64,
    problems: Vec<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    extras: Vec<Metric>,
}

impl Report {
    /// An end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// A supporting figure: printed and recorded, in no metric set.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Marks the run incorrect.
    pub fn problem(&mut self, why: String) {
        eprintln!("benchmark: {why}");
        self.problems.push(why);
    }
}

const USAGE: &str = "usage: benchmark --workload sweep_cold|serve_features|serve_mixed|all \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one workload in this process (the parent's child).
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 2009,
        seconds: 30,
        trace: false,
        child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workloads = match WORKLOADS.iter().find(|&&n| n == w) {
                    Some(&n) => vec![n],
                    None if w == "all" => WORKLOADS.to_vec(),
                    None => return Err(format!("unknown workload {w}")),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes a number")?,
            "--seconds" => {
                args.seconds = match value()?.parse() {
                    Ok(s @ 1..=120) => s,
                    _ => return Err("--seconds takes 1 to 120".into()),
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

impl Ctx {
    fn new(args: &Args) -> Result<Ctx, String> {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = manifest
            .parent()
            .expect("the benchmark sits in the repository")
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(t) => std::env::current_dir().map_err(|e| e.to_string())?.join(t),
            None => manifest.join("target"),
        };
        let out = target.join("benchmark");
        std::fs::create_dir_all(&out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        Ok(Ctx {
            root,
            target,
            out,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            threads: portopt_exec::available_threads(),
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let ctx = Ctx::new(&args)?;
        if args.child {
            run_child(&ctx, args.workloads[0])
        } else {
            args.workloads
                .iter()
                .try_for_each(|w| run_parent(&ctx, w, &argv))
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Prepares what a workload needs outside its measurement, then runs it
/// in a fresh child process whose output becomes this command's.
fn run_parent(ctx: &Ctx, workload: &str, argv: &[String]) -> Result<(), String> {
    if workload != "sweep_cold" {
        let bins = serve::Bins::build(ctx)?;
        let fixture_s = serve::prepare_fixture(ctx, &bins)?;
        println!("{workload} fixture_s {fixture_s:.3} s");
    }
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    // A process group of its own, so a timeout also takes down any
    // `serve` the child started.
    cmd.args(argv)
        .args(["--child", "--workload", workload])
        .process_group(0);
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let deadline = Instant::now() + CHILD_TIMEOUT;
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) if status.success() => return Ok(()),
            Some(status) => return Err(format!("{workload} failed: {status}")),
            None if Instant::now() > deadline => {
                let _ = Command::new("kill")
                    .args(["-KILL", "--", &format!("-{}", child.id())])
                    .status();
                let _ = child.wait();
                return Err(format!("{workload} ran past {CHILD_TIMEOUT:?}; killed it"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Runs one workload in this process and prints its figures.
fn run_child(ctx: &Ctx, workload: &str) -> Result<(), String> {
    let mut report = Report::default();
    match workload {
        "sweep_cold" => sweep::run(ctx, &mut report)?,
        "serve_features" => serve::run(ctx, false, &mut report)?,
        _ => serve::run(ctx, true, &mut report)?,
    }
    let nonfinite: Vec<String> = (report.e2e.iter().chain(&report.layers))
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in nonfinite {
        report.problem(format!("{name} is not a number"));
    }
    let (declared, reported) = if ctx.trace {
        (&PER_LAYER[..], &report.layers)
    } else {
        (&END_TO_END[..], &report.e2e)
    };
    let names: Vec<(&str, &str)> = reported.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    let mut want = declared.to_vec();
    want.sort_unstable();
    if sorted != want {
        return Err(format!(
            "{workload} reported {names:?}, not the declared metrics"
        ));
    }
    for m in report
        .e2e
        .iter()
        .chain(&report.layers)
        .chain(&report.extras)
    {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let metrics = |set: &[Metric]| {
        let body: Vec<String> = set
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{}":{{"value":{v},"unit":"{}"}}"#, m.name, m.unit)
            })
            .collect();
        format!("{{{}}}", body.join(","))
    };
    let line = format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{}}}"#,
        report.attempted.max(1),
        report.failed,
        metrics(reported)
    );
    let record = format!(
        r#"{{"workload":"{workload}","seed":{},"seconds":{},"trace":{},"correct":{correct},"attempted":{},"failed":{},"problems":{},"end_to_end":{},"per_layer":{},"extras":{}}}"#,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        report.attempted,
        report.failed,
        serde_json::to_string(&report.problems).expect("strings serialize"),
        metrics(&report.e2e),
        metrics(&report.layers),
        metrics(&report.extras),
    );
    let path = ctx.out.join(format!(
        "{workload}-{}-trace{}.json",
        ctx.seed,
        u8::from(ctx.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{line}");
    Ok(())
}
