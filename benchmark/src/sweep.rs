//! The offline path: a cold programs × settings × μarchs sweep, in
//! process through `portopt_core`, with no profile cache and no journal.

use crate::layers::{self, ModuleLayers, PROFILE_LIMITS};
use crate::serve::{cpu_secs, feature_items, layer_metrics, peak_rss_mb};
use crate::{Ctx, Report};
use portopt_core::{generate_with_uarchs, Dataset, GenOptions, SweepScale, TrainOptions};
use portopt_exec::Executor;
use portopt_ir::interp::run_module_with;
use portopt_ir::{Module, StableHasher};
use portopt_passes::compile;
use portopt_serve::{Snapshot, DEFAULT_BATCH};
use portopt_sim::{profile, PreparedEval};
use portopt_uarch::{FeatureVec, MicroArch, MicroArchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N_UARCH: usize = 6;
/// The setting sample decides how much work a pair is (unrolling and
/// inlining change the profiled instruction count), so a run seed that
/// redrew it would move throughput by about ±10% between seeds. Settings
/// therefore come from this fixed seed; the run seed draws the μarchs and
/// the programs' input data.
const SETTINGS_SEED: u64 = 2009;
/// Cells re-priced through compile → profile → evaluate on every run.
const RECHECK_CELLS: usize = 32;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 25;

/// Settings swept in a run of `seconds`: about 0.6 per second keeps the
/// sweep near that length on two cores.
pub fn n_settings(seconds: u64) -> usize {
    ((seconds * 3 + 2) / 5).max(1) as usize
}

/// `(seed, settings, digest)`: the `StableHasher` digest of the dataset
/// JSON, pinned when the benchmark was calibrated, for the default seed
/// and the holdout seed at the default length. A run at a pinned seed and
/// size must reproduce it byte for byte.
const PINNED: &[(u64, usize, u64)] = &[
    (2009, 18, 0xbf38_d20d_b8ec_5795),
    (4242, 18, 0xf48a_6a4d_a643_7710),
];

/// The digest [`PINNED`] records.
fn digest(ds: &Dataset) -> u64 {
    let mut h = StableHasher::new();
    h.write(&serde_json::to_vec(ds).expect("datasets serialize"));
    h.finish()
}

/// Per-task tallies of the replay.
#[derive(Default)]
struct Task {
    layers: ModuleLayers,
    total_ns: u64,
    /// Binaries that failed to run (priced as unusable).
    failed: u64,
    /// Profiles whose result disagrees with the reference interpreter.
    wrong: u64,
    /// Rows taken from an identical image's profile.
    shared: bool,
}

/// Profiles one compiled image and prices it on every μarch, timing each
/// layer; `INFINITY` everywhere when the binary fails to run, as the
/// sweep records it. Checks the profile's result against the reference
/// interpreter's when `reference` is given.
fn price(
    img: &portopt_passes::CodeImage,
    module: &Module,
    uarchs: &[MicroArch],
    reference: Option<(i64, u64)>,
    task: &mut Task,
) -> (Vec<f64>, Vec<FeatureVec>) {
    let t = &mut task.layers;
    match t.profile.time(|| profile(img, module, &[], PROFILE_LIMITS)) {
        Ok(prof) => {
            t.dyn_insts += prof.dyn_insts;
            if reference.is_some_and(|r| r != (prof.ret, prof.mem_hash)) {
                task.wrong += 1;
            }
            let tm = Instant::now();
            let pe = PreparedEval::new(img, &prof);
            let priced: Vec<_> = uarchs.iter().map(|u| pe.evaluate(u)).collect();
            t.evaluate.ns += tm.elapsed().as_nanos() as u64;
            t.evaluate.calls += uarchs.len() as u64;
            let features = priced
                .iter()
                .zip(uarchs)
                .map(|(r, u)| FeatureVec::new(&r.counters, u))
                .collect();
            (priced.iter().map(|r| r.cycles).collect(), features)
        }
        Err(_) => {
            task.failed += 1;
            (vec![f64::INFINITY; uarchs.len()], Vec::new())
        }
    }
}

fn same_bits(a: &[f64], b: impl IntoIterator<Item = f64>) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `sweep_cold`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut axes = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (programs, _) = portopt_experiments::suite_modules(ctx.seed);
        let uarchs = MicroArchSpace::base().sample_n(N_UARCH, &mut StdRng::seed_from_u64(ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
        axes = Some((programs, uarchs));
    }
    let (programs, uarchs) = axes.expect("at least one set-up");
    let settings = n_settings(ctx.seconds);
    let opts = GenOptions {
        scale: SweepScale {
            n_uarch: N_UARCH,
            n_opts: settings,
        },
        seed: SETTINGS_SEED,
        extended_space: false,
        threads: ctx.threads,
    };

    let cpu0 = cpu_secs("self");
    let t = Instant::now();
    let (ds, _) = generate_with_uarchs(&programs, &uarchs, &opts);
    let wall = t.elapsed().as_secs_f64();
    let cpu = cpu_secs("self") - cpu0;
    let pairs = (programs.len() * settings) as f64;
    report.e2e("setup_s", crate::stats::median(&setups), "s");
    report.e2e("peak_rss_mb", peak_rss_mb("self"), "MB");
    report.e2e("ops_per_s", pairs / wall, "1/s");
    report.e2e("cpu_us_per_op", cpu * 1e6 / pairs, "us");
    // One batch job per run: both percentiles are the job's wall time.
    report.e2e("lat_p50_ms", wall * 1e3, "ms");
    report.e2e("lat_p99_ms", wall * 1e3, "ms");
    report.extra("sweep.settings", settings as f64, "count");
    report.attempted = pairs as u64;

    let d = digest(&ds);
    println!("sweep_cold dataset_digest {d:016x}");
    if let Some(&(_, _, pinned)) = PINNED
        .iter()
        .find(|(s, n, _)| *s == ctx.seed && *n == settings)
    {
        if pinned != d {
            report.problem(format!("dataset digest {d:016x}, pinned {pinned:016x}"));
        }
    }
    let exec = Executor::new(ctx.threads);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x05EC_4EC4);
    let cells: Vec<(usize, usize)> = (0..RECHECK_CELLS)
        .map(|_| {
            (
                rng.gen_range(0..ds.n_programs()),
                rng.gen_range(0..settings),
            )
        })
        .collect();
    let mismatched = exec
        .map_indexed(cells.len(), |i| {
            let (p, c) = cells[i];
            let img = compile(&programs[p].1, &ds.configs[c]);
            let (row, _) = price(&img, &programs[p].1, &ds.uarchs, None, &mut Task::default());
            !same_bits(&row, ds.cycles[p].iter().map(|r| r[c]))
        })
        .into_iter()
        .filter(|&bad| bad)
        .count() as u64;
    report.failed += mismatched;
    if mismatched > 0 {
        report.problem(format!(
            "{mismatched} of {RECHECK_CELLS} re-priced cells differ"
        ));
    }

    if ctx.trace {
        let (m, efficiency) = replay(ctx, &programs, &ds, wall, report);
        report.layer(
            "cpu_utilization",
            cpu / (wall * ctx.threads as f64),
            "fraction",
        );
        let snap = Snapshot::train(&ds, &TrainOptions::default());
        let path = ctx.out.join("sweep-probe.snap");
        snap.save(&path).map_err(|e| e.to_string())?;
        let lines: Vec<(String, Vec<f64>, bool)> = feature_items(&ds, &snap, ctx.seed)
            .into_iter()
            .enumerate()
            .map(|(i, (item, v, tree))| (format!("{{\"id\":{i},{}", item.body), v, tree))
            .collect();
        let sl = layers::serve_layers(&snap, &lines, DEFAULT_BATCH);
        let load_ms = layers::snapshot_load_ms(&path)?;
        layer_metrics(report, &m, &sl, load_ms, efficiency);
    }
    Ok(())
}

/// Replays the sweep's grid on an executor — the same `-O3` baselines,
/// then every (program, distinct setting) pair, sharing a profile between
/// settings that compile to an identical image as the sweep does — with
/// every public call timed, and asserts each cell bit-equal to the
/// untraced dataset and each profile's result equal to the reference
/// interpreter's on the source program.
///
/// Returns the summed layer tallies and the executor's parallel
/// efficiency.
fn replay(
    ctx: &Ctx,
    programs: &[(String, Module)],
    ds: &Dataset,
    untraced_wall: f64,
    report: &mut Report,
) -> (ModuleLayers, f64) {
    let exec = Executor::new(ctx.threads);
    let np = programs.len();
    let reference: Vec<Option<(i64, u64)>> = exec.map_indexed(np, |p| {
        run_module_with(&programs[p].1, &[], PROFILE_LIMITS)
            .ok()
            .map(|r| (r.ret, r.mem_hash))
    });

    let mut uniques: Vec<usize> = Vec::new();
    let mut to_unique = Vec::new();
    for (c, cfg) in ds.configs.iter().enumerate() {
        let key = cfg.to_choices();
        match uniques
            .iter()
            .position(|&u| ds.configs[u].to_choices() == key)
        {
            Some(t) => to_unique.push(t),
            None => {
                to_unique.push(uniques.len());
                uniques.push(c);
            }
        }
    }
    let nu = uniques.len();
    let caches: Vec<Mutex<HashMap<u64, Arc<Vec<f64>>>>> =
        (0..np).map(|_| Mutex::default()).collect();

    let start = Instant::now();
    let baselines = exec.map_indexed(np, |p| {
        let t = Instant::now();
        let mut task = Task::default();
        let module = &programs[p].1;
        let o3 = portopt_passes::OptConfig::o3();
        let img = task.layers.compile.time(|| compile(module, &o3));
        let out = price(&img, module, &ds.uarchs, reference[p], &mut task);
        task.total_ns = t.elapsed().as_nanos() as u64;
        (task, out)
    });
    let grid = exec.map_indexed(np * nu, |i| {
        let (p, u) = (i / nu, i % nu);
        let t = Instant::now();
        let mut task = Task::default();
        let module = &programs[p].1;
        let cfg = &ds.configs[uniques[u]];
        let img = task.layers.compile.time(|| compile(module, cfg));
        let hit = caches[p]
            .lock()
            .expect("replay cache")
            .get(&img.fingerprint())
            .cloned();
        let row = match hit {
            Some(row) => {
                task.shared = true;
                row
            }
            None => {
                let (row, _) = price(&img, module, &ds.uarchs, reference[p], &mut task);
                let row = Arc::new(row);
                caches[p]
                    .lock()
                    .expect("replay cache")
                    .entry(img.fingerprint())
                    .or_insert(row)
                    .clone()
            }
        };
        task.total_ns = t.elapsed().as_nanos() as u64;
        (task, row)
    });
    let wall = start.elapsed().as_secs_f64();

    let mut mismatched = 0u64;
    for (p, (_, (o3, feats))) in baselines.iter().enumerate() {
        let same_features = feats.len() == ds.features[p].len()
            && feats
                .iter()
                .zip(&ds.features[p])
                .all(|(a, b)| same_bits(&a.values, b.values.iter().copied()));
        if !same_bits(o3, ds.o3_cycles[p].iter().copied()) || !same_features {
            mismatched += 1;
        }
    }
    for p in 0..np {
        for (c, &t) in to_unique.iter().enumerate() {
            let row = &grid[p * nu + t].1;
            if !same_bits(row, ds.cycles[p].iter().map(|r| r[c])) {
                mismatched += 1;
            }
        }
    }

    let mut total = ModuleLayers::default();
    let (mut busy_ns, mut failed, mut wrong, mut shared) = (0u64, 0u64, 0u64, 0u64);
    for task in baselines
        .iter()
        .map(|(t, _)| t)
        .chain(grid.iter().map(|(t, _)| t))
    {
        total.compile.add(task.layers.compile);
        total.profile.add(task.layers.profile);
        total.evaluate.add(task.layers.evaluate);
        total.dyn_insts += task.layers.dyn_insts;
        busy_ns += task.total_ns;
        failed += task.failed;
        wrong += task.wrong;
        shared += u64::from(task.shared);
    }
    report.failed += mismatched + wrong;
    if mismatched > 0 {
        report.problem(format!(
            "{mismatched} replayed rows differ from the sweep's dataset"
        ));
    }
    if wrong > 0 {
        report.problem(format!(
            "{wrong} profiles disagree with the reference interpreter"
        ));
    }
    let threads = exec.threads() as f64;
    let busy = busy_ns as f64 / 1e9;
    let idle = threads * wall - busy;
    let layer_busy = total.compile.secs() + total.profile.secs() + total.evaluate.secs();
    report.extra("passes.compile.calls", total.compile.calls as f64, "count");
    report.extra("passes.compile.busy_s", total.compile.secs(), "s");
    report.extra("sim.profile.calls", total.profile.calls as f64, "count");
    report.extra("sim.profile.busy_s", total.profile.secs(), "s");
    report.extra("sim.profile.failed", failed as f64, "count");
    report.extra("sim.profile.dyn_insts", total.dyn_insts as f64, "count");
    report.extra("sim.evaluate.calls", total.evaluate.calls as f64, "count");
    report.extra("sim.evaluate.busy_s", total.evaluate.secs(), "s");
    report.extra(
        "core.dataset.fp_share_ratio",
        shared as f64 / (np * nu) as f64,
        "fraction",
    );
    report.extra("exec.idle_s", idle, "s");
    report.extra(
        "trace.replay_overhead_pct",
        (wall / untraced_wall - 1.0) * 100.0,
        "%",
    );
    report.extra(
        "trace.accounted_pct",
        (layer_busy + idle) / (threads * wall) * 100.0,
        "%",
    );
    (total, busy / (threads * wall))
}
