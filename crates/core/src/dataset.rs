//! Training-data generation (§3.2): evaluate N optimisation settings on
//! M program/microarchitecture pairs and record execution times, plus the
//! `-O3` performance counters that form each pair's feature vector.
//!
//! The expensive part — compiling and *functionally profiling* each
//! (program, setting) binary — is microarchitecture-independent, so it is
//! done once and the resulting profile is priced on every configuration
//! with the fast timing model. That turns the paper's 7-million-simulation
//! sweep into `programs × settings` profiler runs plus 7 million
//! microsecond-scale model evaluations.

use portopt_exec::cache::{CacheError, DiskCache};
use portopt_exec::Executor;
use portopt_ir::interp::ExecLimits;
use portopt_ir::Module;
use portopt_passes::{compile, OptConfig};
use portopt_sim::{profile, ExecProfile, PreparedEval};
use portopt_uarch::{FeatureVec, MicroArch, MicroArchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Scale of a sweep (paper scale: 35 programs × 200 μarchs × 1000 settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepScale {
    /// Number of microarchitecture configurations to sample.
    pub n_uarch: usize,
    /// Number of optimisation settings to sample.
    pub n_opts: usize,
}

impl SweepScale {
    /// The paper's full scale (very slow on a laptop; hours).
    pub fn paper() -> Self {
        SweepScale {
            n_uarch: 200,
            n_opts: 1000,
        }
    }

    /// A laptop-friendly default preserving the experiment's shape.
    pub fn default_scale() -> Self {
        SweepScale {
            n_uarch: 24,
            n_opts: 160,
        }
    }

    /// A CI-friendly smoke scale.
    pub fn smoke() -> Self {
        SweepScale {
            n_uarch: 6,
            n_opts: 40,
        }
    }
}

/// The sweep result: everything the model and every figure needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Program names, index = program id.
    pub programs: Vec<String>,
    /// Sampled microarchitectures, index = configuration id.
    pub uarchs: Vec<MicroArch>,
    /// Sampled optimisation settings (shared across programs).
    pub configs: Vec<OptConfig>,
    /// `cycles[p][u][c]`: execution cycles of program `p` compiled with
    /// setting `c` on configuration `u`.
    pub cycles: Vec<Vec<Vec<f64>>>,
    /// `o3_cycles[p][u]`: the `-O3` baseline.
    pub o3_cycles: Vec<Vec<f64>>,
    /// `features[p][u]`: the 19-feature vector from the single `-O3` run.
    pub features: Vec<Vec<FeatureVec>>,
}

impl Dataset {
    /// Speedup of setting `c` over `-O3` for pair `(p, u)`.
    pub fn speedup(&self, p: usize, u: usize, c: usize) -> f64 {
        self.o3_cycles[p][u] / self.cycles[p][u][c]
    }

    /// Best speedup over `-O3` for pair `(p, u)` across all settings
    /// (the paper's "Best": iterative search over the sampled settings).
    pub fn best_speedup(&self, p: usize, u: usize) -> f64 {
        let best = self.cycles[p][u]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        self.o3_cycles[p][u] / best
    }

    /// Indices of the top `frac` (by speedup) settings for `(p, u)` — the
    /// "good set" Ỹ of §3.3.1 (paper: top 5 %).
    pub fn good_set(&self, p: usize, u: usize, frac: f64) -> Vec<usize> {
        let n = self.configs.len();
        let keep = ((n as f64 * frac).ceil() as usize).clamp(1, n);
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            self.cycles[p][u][a]
                .partial_cmp(&self.cycles[p][u][b])
                .expect("finite cycles")
        });
        idx.truncate(keep);
        idx
    }

    /// Number of programs.
    pub fn n_programs(&self) -> usize {
        self.programs.len()
    }

    /// Number of microarchitectures.
    pub fn n_uarchs(&self) -> usize {
        self.uarchs.len()
    }

    /// Merges per-rig shards of one logical sweep into a single dataset by
    /// concatenating their program axes. Every shard must have been swept
    /// over the *same* microarchitecture and setting samples (same
    /// `GenOptions` seed and scale on every rig) — mismatched axes or a
    /// program appearing in two shards are rejected, since silently mixing
    /// them would corrupt the good-sets the model trains on.
    ///
    /// With the contiguous splits of [`crate::shard::ShardSpec`], merging
    /// shards in index order reproduces the unsharded sweep byte for byte.
    ///
    /// ```
    /// use portopt_core::{generate, Dataset, GenOptions, MergeError, SweepScale};
    /// use portopt_ir::{FuncBuilder, Module, ModuleBuilder};
    ///
    /// fn toy(name: &str, start: i64) -> (String, Module) {
    ///     let mut mb = ModuleBuilder::new(name);
    ///     let mut b = FuncBuilder::new("main", 0);
    ///     let acc = b.iconst(start);
    ///     b.counted_loop(0, 16, 1, |b, i| {
    ///         let t = b.add(acc, i);
    ///         b.assign(acc, t);
    ///     });
    ///     b.ret(acc);
    ///     let id = mb.add(b.finish());
    ///     mb.entry(id);
    ///     (name.to_string(), mb.finish())
    /// }
    ///
    /// // Two rigs sweep disjoint programs under identical options...
    /// let opts = GenOptions {
    ///     scale: SweepScale { n_uarch: 2, n_opts: 3 },
    ///     threads: 1,
    ///     ..GenOptions::default()
    /// };
    /// let rig0 = generate(&[toy("a", 1)], &opts);
    /// let rig1 = generate(&[toy("b", 2)], &opts);
    /// // ...and their shards concatenate into one training dataset.
    /// let merged = Dataset::merge(vec![rig0, rig1]).unwrap();
    /// assert_eq!(merged.programs, vec!["a", "b"]);
    ///
    /// // A shard swept under a different seed is refused, not mixed in.
    /// let foreign = generate(&[toy("c", 3)], &GenOptions { seed: 1, ..opts });
    /// assert!(matches!(
    ///     Dataset::merge(vec![merged, foreign]),
    ///     Err(MergeError::UarchMismatch { shard: 1 })
    /// ));
    /// ```
    pub fn merge(shards: Vec<Dataset>) -> Result<Dataset, MergeError> {
        for (i, shard) in shards.iter().enumerate() {
            if let Some(detail) = shard.shape_defect() {
                return Err(MergeError::MalformedShard { shard: i, detail });
            }
        }
        let mut iter = shards.into_iter();
        let mut merged = iter.next().ok_or(MergeError::NoShards)?;
        for (i, shard) in iter.enumerate() {
            let shard_idx = i + 1;
            if shard.uarchs != merged.uarchs {
                return Err(MergeError::UarchMismatch { shard: shard_idx });
            }
            if shard.configs != merged.configs {
                return Err(MergeError::ConfigMismatch { shard: shard_idx });
            }
            if let Some(dup) = shard.programs.iter().find(|p| merged.programs.contains(p)) {
                return Err(MergeError::DuplicateProgram {
                    shard: shard_idx,
                    name: dup.clone(),
                });
            }
            merged.programs.extend(shard.programs);
            merged.cycles.extend(shard.cycles);
            merged.o3_cycles.extend(shard.o3_cycles);
            merged.features.extend(shard.features);
        }
        Ok(merged)
    }

    /// Describes the first internal-shape inconsistency of this dataset,
    /// or `None` if every per-program table matches the axis lengths.
    /// Generated datasets are always consistent; deserialized shard files
    /// are not guaranteed to be, and an inconsistent one must be rejected
    /// at [`Dataset::merge`] time (with the offending shard named) rather
    /// than panic deep inside training.
    fn shape_defect(&self) -> Option<String> {
        let (np, nu, nc) = (self.programs.len(), self.uarchs.len(), self.configs.len());
        for (name, len) in [
            ("cycles", self.cycles.len()),
            ("o3_cycles", self.o3_cycles.len()),
            ("features", self.features.len()),
        ] {
            if len != np {
                return Some(format!("{name} has {len} rows for {np} programs"));
            }
        }
        for p in 0..np {
            if self.cycles[p].len() != nu {
                return Some(format!(
                    "cycles[{p}] has {} rows for {nu} uarchs",
                    self.cycles[p].len()
                ));
            }
            if let Some(c) = self.cycles[p].iter().find(|c| c.len() != nc) {
                return Some(format!(
                    "cycles[{p}] row has {} settings, axis has {nc}",
                    c.len()
                ));
            }
            if self.o3_cycles[p].len() != nu {
                return Some(format!(
                    "o3_cycles[{p}] has {} entries for {nu} uarchs",
                    self.o3_cycles[p].len()
                ));
            }
            if self.features[p].len() != nu {
                return Some(format!(
                    "features[{p}] has {} entries for {nu} uarchs",
                    self.features[p].len()
                ));
            }
            if let Some(f) = self.features[p]
                .iter()
                .find(|f| f.values.len() != portopt_uarch::N_FEATURES)
            {
                return Some(format!(
                    "features[{p}] vector has {} values, expected {}",
                    f.values.len(),
                    portopt_uarch::N_FEATURES
                ));
            }
        }
        None
    }
}

/// Why [`Dataset::merge`] refused to combine a set of shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shards were given.
    NoShards,
    /// A shard sampled different microarchitectures than the first shard.
    UarchMismatch {
        /// Index of the offending shard in the input order.
        shard: usize,
    },
    /// A shard sampled different optimisation settings than the first shard.
    ConfigMismatch {
        /// Index of the offending shard in the input order.
        shard: usize,
    },
    /// Two shards both swept the same program.
    DuplicateProgram {
        /// Index of the offending shard in the input order.
        shard: usize,
        /// The program present in both shards.
        name: String,
    },
    /// A shard's internal tables disagree with its own axis lengths (a
    /// hand-edited or truncated shard file).
    MalformedShard {
        /// Index of the offending shard in the input order.
        shard: usize,
        /// The first inconsistency found.
        detail: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shards to merge"),
            MergeError::UarchMismatch { shard } => write!(
                f,
                "shard {shard} sampled different microarchitectures than shard 0 \
                 (all rigs must sweep with the same seed and scale)"
            ),
            MergeError::ConfigMismatch { shard } => write!(
                f,
                "shard {shard} sampled different optimisation settings than shard 0 \
                 (all rigs must sweep with the same seed and scale)"
            ),
            MergeError::DuplicateProgram { shard, name } => {
                write!(f, "shard {shard} re-sweeps program `{name}`")
            }
            MergeError::MalformedShard { shard, detail } => {
                write!(f, "shard {shard} is internally inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Options for dataset generation.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Sweep scale.
    pub scale: SweepScale,
    /// Master seed (μarch sample, setting sample).
    pub seed: u64,
    /// Use the extended (§7) space with frequency/width.
    pub extended_space: bool,
    /// Worker threads for the sweep (`0` = all available cores). The
    /// dataset is byte-identical for every thread count — see
    /// [`portopt_exec`]'s determinism contract.
    pub threads: usize,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            scale: SweepScale::default_scale(),
            seed: 2009,
            extended_space: false,
            threads: 0,
        }
    }
}

/// Machine-readable throughput record of one generation sweep, for the
/// `BENCH_*.json` perf trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Programs swept.
    pub programs: usize,
    /// Microarchitectures priced per setting.
    pub uarchs: usize,
    /// Sampled optimisation settings per program.
    pub settings: usize,
    /// Distinct settings after dedup (duplicates reuse compile artifacts).
    pub unique_settings: usize,
    /// `(program, setting)` grid tasks dispatched to the executor.
    pub grid_tasks: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep (baselines included).
    pub wall_secs: f64,
    /// `programs × settings / wall_secs`: the headline throughput.
    pub settings_per_sec: f64,
}

/// Interpreter limits of every profiling run — the training sweep's and
/// the serving path's alike, so a client module is profiled exactly as
/// the training programs were. Part of the profile cache key.
pub const PROFILE_LIMITS: ExecLimits = ExecLimits {
    fuel: 100_000_000,
    max_depth: 2048,
};

/// Payload kind of the sweep's on-disk profile cache (the namespace tag
/// every entry carries and [`DiskCache::get`] validates).
pub const PROFILE_CACHE_KIND: &str = "exec-profile";

/// Version of the profile-cache payload encoding. Bump whenever
/// [`ExecProfile`]'s serialized shape changes **or** the cache key stops
/// covering something it used to (an IR or layout encoding change, a new
/// profiling input outside the image + globals + limits the key hashes):
/// a cache written under the old meaning is then rejected loudly instead
/// of silently pricing from the wrong profile.
pub const PROFILE_CACHE_PAYLOAD_VERSION: u32 = 1;

/// One persisted profiling outcome, keyed on disk by a structural hash of
/// everything the profile depends on: the compiled image
/// ([`portopt_passes::CodeImage::fingerprint`]'s coverage), the module's
/// global initialiser data, and the profiling limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedProfile {
    /// The functional profile, or `None` when the binary failed to run
    /// (fuel blow-up from a pathological setting). Failures are cached
    /// too — re-discovering one costs a full interpreter budget.
    pub profile: Option<ExecProfile>,
}

/// Opens (creating if needed) an on-disk profile cache for sweeps —
/// a [`DiskCache`] bound to this crate's payload kind and version.
pub fn open_profile_cache(dir: impl AsRef<std::path::Path>) -> Result<DiskCache, CacheError> {
    DiskCache::open(dir, PROFILE_CACHE_KIND, PROFILE_CACHE_PAYLOAD_VERSION)
}

/// Evaluates one program: compiles and profiles each setting once, prices
/// it on every configuration. Returns `(cycles[u][c], o3_cycles[u],
/// features[u])`.
type ProgramSweep = (Vec<Vec<f64>>, Vec<f64>, Vec<FeatureVec>);

/// Per-program cache of evaluation rows, keyed by compiled-image
/// fingerprint: distinct settings that lower a program to the same machine
/// code share one profiling run (the expensive step). Each fingerprint owns
/// a once-cell, so a worker meeting a binary that another worker is still
/// pricing waits for that row instead of profiling the binary again.
type ProfileCache = Mutex<HashMap<u64, Arc<OnceLock<Arc<Vec<f64>>>>>>;

/// The persistent cache key for one profiling run: everything the
/// profile is a function of. The image fingerprint alone is *not* enough
/// for a cache that outlives the process — `profile` also seeds memory
/// from the module's global initializers (which the image only records as
/// `(base, bytes)`) and stops at [`PROFILE_LIMITS`], so both are folded
/// into the key. A suite-data edit or a limits bump then misses cleanly
/// instead of silently serving a profile of the old inputs.
fn profile_disk_key(img: &portopt_passes::CodeImage, module: &Module) -> u64 {
    use std::hash::{Hash as _, Hasher as _};
    let mut h = portopt_ir::StableHasher::new();
    img.hash(&mut h);
    // Name, size and the initialiser words of every global (derived
    // structural Hash, like the image itself).
    module.globals.hash(&mut h);
    (PROFILE_LIMITS.fuel, PROFILE_LIMITS.max_depth).hash(&mut h);
    h.finish()
}

/// Collects the functional profile of one compiled image — the expensive,
/// microarchitecture-independent step — consulting the on-disk cache
/// first when one is given. `None` means the binary failed to run.
///
/// A cache entry that exists but is refused (corrupt, written by a stale
/// payload encoding, wrong kind) is **not** fatal: the sweep logs the
/// specific rejection, re-profiles, and overwrites the entry, so a bad
/// cache costs throughput, never correctness.
fn profile_for(
    img: &portopt_passes::CodeImage,
    module: &Module,
    disk: Option<&DiskCache>,
) -> Option<ExecProfile> {
    let keyed = disk.map(|d| (d, profile_disk_key(img, module)));
    if let Some((d, fp)) = keyed {
        match d.get::<CachedProfile>(fp) {
            Ok(Some(entry)) => {
                portopt_trace::debug!(
                    "core.dataset",
                    { fp = format!("{fp:016x}") },
                    "disk profile cache hit"
                );
                return entry.profile;
            }
            Ok(None) => {}
            Err(e) => portopt_trace::warn!(
                "core.dataset",
                "profile cache entry {fp:016x} rejected: {e}; re-profiling"
            ),
        }
    }
    let sp = portopt_trace::span("core.dataset", "profile", &[]);
    let prof = profile(img, module, &[], PROFILE_LIMITS).ok();
    sp.close_with(&[("ok", prof.is_some().into())]);
    if let Some((d, fp)) = keyed {
        if let Err(e) = d.put(
            fp,
            &CachedProfile {
                profile: prof.clone(),
            },
        ) {
            portopt_trace::warn!(
                "core.dataset",
                "profile cache write for {fp:016x} failed: {e}"
            );
        }
    }
    prof
}

/// Profiles one compiled image and prices it on every configuration —
/// the per-task kernel shared by dataset generation and the LOO pricing
/// loop in `portopt-experiments`. A binary that fails to run (fuel
/// blow-up from a pathological unroll, say) is priced as unusable
/// (`INFINITY` everywhere).
pub fn price_image(
    img: &portopt_passes::CodeImage,
    module: &Module,
    uarchs: &[MicroArch],
) -> Vec<f64> {
    price_image_with(img, module, uarchs, None)
}

/// [`price_image`] with an optional on-disk profile cache.
fn price_image_with(
    img: &portopt_passes::CodeImage,
    module: &Module,
    uarchs: &[MicroArch],
    disk: Option<&DiskCache>,
) -> Vec<f64> {
    match profile_for(img, module, disk) {
        Some(prof) => {
            let pe = PreparedEval::new(img, &prof);
            uarchs
                .iter()
                .enumerate()
                .map(|(u, ua)| {
                    let t0 = std::time::Instant::now();
                    let cycles = pe.evaluate(ua).cycles;
                    portopt_trace::trace!(
                        "core.dataset",
                        { u = u, eval_us = t0.elapsed().as_micros() as u64 },
                        "uarch evaluated"
                    );
                    cycles
                })
                .collect()
        }
        None => vec![f64::INFINITY; uarchs.len()],
    }
}

/// Compiles one setting, profiles it (or reuses a cached profile of an
/// identical binary — in-memory within this sweep, on disk across sweeps)
/// and prices it on every configuration. Pure in `(module, cfg, uarchs)`
/// — both caches only short-circuit recomputation, which is what keeps
/// the sweep deterministic under any scheduling. The returned flag says
/// whether the row came from the in-memory fingerprint cache (this call
/// did not price it: another setting, or the `-O3` baseline, lowered to
/// an identical binary) — pricing-span attribution.
fn eval_setting(
    module: &Module,
    uarchs: &[MicroArch],
    cfg: &OptConfig,
    cache: &ProfileCache,
    disk: Option<&DiskCache>,
) -> (Arc<Vec<f64>>, bool) {
    let img = compile(module, cfg);
    let cell = cache
        .lock()
        .expect("profile cache")
        .entry(img.fingerprint())
        .or_default()
        .clone();
    let mut shared = true;
    let row = cell.get_or_init(|| {
        shared = false;
        Arc::new(price_image_with(&img, module, uarchs, disk))
    });
    (row.clone(), shared)
}

/// `-O3` baseline for one program: the `-O3` image's fingerprint, and
/// cycles + counter features per configuration. The `-O3` profiling run
/// goes through the same on-disk cache as the setting sweep.
fn o3_baseline(
    module: &Module,
    uarchs: &[MicroArch],
    disk: Option<&DiskCache>,
) -> (u64, Vec<f64>, Vec<FeatureVec>) {
    let img3 = compile(module, &OptConfig::o3());
    let prof3 = profile_for(&img3, module, disk)
        .expect("O3 binary must run (checked by the mibench tests)");
    let pe = PreparedEval::new(&img3, &prof3);
    let mut o3_cycles = Vec::with_capacity(uarchs.len());
    let mut features = Vec::with_capacity(uarchs.len());
    for u in uarchs {
        let t = pe.evaluate(u);
        o3_cycles.push(t.cycles);
        features.push(FeatureVec::new(&t.counters, u));
    }
    (img3.fingerprint(), o3_cycles, features)
}

/// A program's in-memory profile cache, seeded with its `-O3` row under
/// the `-O3` image's fingerprint: the row [`eval_setting`] would price for
/// a setting that lowers to the same binary, so that setting is neither
/// profiled nor priced again.
fn seeded_cache(o3_fingerprint: u64, o3_cycles: &[f64]) -> ProfileCache {
    let row = Arc::new(OnceLock::from(Arc::new(o3_cycles.to_vec())));
    Mutex::new(HashMap::from([(o3_fingerprint, row)]))
}

/// Deduplicates sampled settings: returns `(unique-task → config index,
/// config index → unique task)`. Random 39-dimension samples rarely
/// collide, but figure sweeps and searches revisit settings freely, and a
/// duplicate costs a whole compile+profile run.
fn dedup_configs(configs: &[OptConfig]) -> (Vec<usize>, Vec<usize>) {
    let mut first: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut uniques: Vec<usize> = Vec::new();
    let mut to_unique: Vec<usize> = Vec::with_capacity(configs.len());
    for (c, cfg) in configs.iter().enumerate() {
        let key = cfg.to_choices();
        match first.get(&key) {
            Some(&u) => to_unique.push(u),
            None => {
                first.insert(key, uniques.len());
                to_unique.push(uniques.len());
                uniques.push(c);
            }
        }
    }
    (uniques, to_unique)
}

/// Sweeps one program over the settings on the given executor: the unit of
/// work behind [`generate`], exposed for benchmarking (`cargo bench`).
pub fn sweep_program(
    module: &Module,
    uarchs: &[MicroArch],
    configs: &[OptConfig],
    exec: &Executor,
) -> ProgramSweep {
    let (o3_fp, o3_cycles, features) = o3_baseline(module, uarchs, None);
    let (uniques, to_unique) = dedup_configs(configs);
    let cache = seeded_cache(o3_fp, &o3_cycles);
    let rows = exec.map_indexed(uniques.len(), |t| {
        eval_setting(module, uarchs, &configs[uniques[t]], &cache, None).0
    });
    let mut cycles: Vec<Vec<f64>> = vec![vec![0.0; configs.len()]; uarchs.len()];
    for (c, &t) in to_unique.iter().enumerate() {
        for (u, cy) in rows[t].iter().enumerate() {
            cycles[u][c] = *cy;
        }
    }
    (cycles, o3_cycles, features)
}

/// Samples the setting list for a seed — the one sampling recipe shared by
/// every generation entry point (and the sweep benchmarks), so figure
/// sweeps and tracked throughput numbers see the same settings as
/// [`generate`].
pub fn sample_configs(n_opts: usize, seed: u64) -> Vec<OptConfig> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    (0..n_opts).map(|_| OptConfig::sample(&mut rng)).collect()
}

/// The flattened-grid sweep shared by [`generate`] and
/// [`generate_with_uarchs`]: one executor pass over every
/// `(program, unique setting)` task, so stragglers in one program overlap
/// with work from the next.
fn sweep_grid(
    programs: &[(String, Module)],
    uarchs: Vec<MicroArch>,
    configs: Vec<OptConfig>,
    threads: usize,
    disk: Option<&DiskCache>,
) -> (Dataset, SweepReport) {
    let start = std::time::Instant::now();
    let exec = Executor::new(threads);
    let np = programs.len();
    let sweep_span = portopt_trace::span(
        "core.dataset",
        "sweep_grid",
        &[
            ("programs", np.into()),
            ("settings", configs.len().into()),
            ("uarchs", uarchs.len().into()),
            ("threads", exec.threads().into()),
        ],
    );

    // `-O3` baselines, parallel over programs.
    let baselines = exec.map_indexed(np, |p| {
        let _sp = portopt_trace::span(
            "core.dataset",
            "baseline",
            &[("program", programs[p].0.as_str().into()), ("p", p.into())],
        );
        o3_baseline(&programs[p].1, &uarchs, disk)
    });

    // The flattened (program, unique-setting) grid in one executor pass.
    let (uniques, to_unique) = dedup_configs(&configs);
    let nu = uniques.len();
    let caches: Vec<ProfileCache> = baselines
        .iter()
        .map(|(fp, o3, _)| seeded_cache(*fp, o3))
        .collect();
    let rows = exec.map_indexed(np * nu, |i| {
        let (p, t) = (i / nu, i % nu);
        // The per-(program, setting) pricing span: the unit the `trace`
        // bin's top-N-slowest-pairs report ranks. `source` attributes the
        // row: in-memory fingerprint share, or a real compile+profile+price
        // run.
        let sp = portopt_trace::span(
            "core.dataset",
            "price_pair",
            &[
                ("program", programs[p].0.as_str().into()),
                ("p", p.into()),
                ("t", t.into()),
            ],
        );
        let (row, shared) = eval_setting(
            &programs[p].1,
            &uarchs,
            &configs[uniques[t]],
            &caches[p],
            disk,
        );
        sp.close_with(&[(
            "source",
            if shared { "fp_share" } else { "computed" }.into(),
        )]);
        row
    });

    let mut ds = Dataset {
        programs: programs.iter().map(|(n, _)| n.clone()).collect(),
        uarchs,
        configs,
        cycles: Vec::new(),
        o3_cycles: Vec::new(),
        features: Vec::new(),
    };
    for (p, (_, o3, feats)) in baselines.into_iter().enumerate() {
        let mut cycles: Vec<Vec<f64>> = vec![vec![0.0; ds.configs.len()]; ds.uarchs.len()];
        for (c, &t) in to_unique.iter().enumerate() {
            for (u, cy) in rows[p * nu + t].iter().enumerate() {
                cycles[u][c] = *cy;
            }
        }
        ds.cycles.push(cycles);
        ds.o3_cycles.push(o3);
        ds.features.push(feats);
    }

    sweep_span.close_with(&[("grid_tasks", (np * nu).into())]);
    let wall_secs = start.elapsed().as_secs_f64();
    let swept = ds.programs.len() * ds.configs.len();
    let report = SweepReport {
        programs: ds.programs.len(),
        uarchs: ds.uarchs.len(),
        settings: ds.configs.len(),
        unique_settings: nu,
        grid_tasks: np * nu,
        threads: exec.threads(),
        wall_secs,
        settings_per_sec: if wall_secs > 0.0 {
            swept as f64 / wall_secs
        } else {
            0.0
        },
    };
    (ds, report)
}

/// Generates a full dataset for the given programs.
pub fn generate(programs: &[(String, Module)], opts: &GenOptions) -> Dataset {
    generate_with_report(programs, opts).0
}

/// [`generate`] plus the sweep's [`SweepReport`].
pub fn generate_with_report(
    programs: &[(String, Module)],
    opts: &GenOptions,
) -> (Dataset, SweepReport) {
    generate_with_cache(programs, opts, None)
}

/// [`generate_with_report`] with an optional on-disk profile cache
/// (opened via [`open_profile_cache`]): every compile's profiling run is
/// first looked up by the image's structural fingerprint and persisted on
/// miss, so repeated sweeps — including each rig of a sharded sweep
/// re-run after a crash or a scale change that shares settings — reuse
/// profiling runs *across process invocations*, not just within one.
///
/// This is also how a killed sweep resumes: each entry is written as its
/// profile completes, so a rerun recompiles every setting but profiles
/// only the images whose entries are missing.
///
/// The cache never changes the result: a sweep with a warm, cold,
/// partial or partially-corrupted cache produces a byte-identical dataset
/// to one with no cache at all (rejected entries are logged, recomputed
/// and overwritten). `cargo test -p portopt-core` asserts this.
pub fn generate_with_cache(
    programs: &[(String, Module)],
    opts: &GenOptions,
    disk: Option<&DiskCache>,
) -> (Dataset, SweepReport) {
    let (uarchs, configs) = sample_axes(opts);
    sweep_grid(programs, uarchs, configs, opts.threads, disk)
}

/// Samples both sweep axes for the given options — the single sampling
/// recipe [`generate`] and the plan fingerprint agree on.
fn sample_axes(opts: &GenOptions) -> (Vec<MicroArch>, Vec<OptConfig>) {
    let space = if opts.extended_space {
        MicroArchSpace::extended()
    } else {
        MicroArchSpace::base()
    };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let uarchs = space.sample_n(opts.scale.n_uarch, &mut rng);
    let configs = sample_configs(opts.scale.n_opts, opts.seed);
    (uarchs, configs)
}

/// Structural fingerprint of one sweep plan: the program list (names and
/// full module structure), both sampled axes, and the profiling limits —
/// everything a dataset row is a function of. Two invocations share a
/// fingerprint exactly when they produce the same dataset, so the figure
/// bins name their dataset caches by it.
pub fn plan_fingerprint(programs: &[(String, Module)], opts: &GenOptions) -> u64 {
    use std::hash::{Hash as _, Hasher as _};
    let mut h = portopt_ir::StableHasher::new();
    programs.len().hash(&mut h);
    for (name, module) in programs {
        name.hash(&mut h);
        module.hash(&mut h);
    }
    // The sampled axes are covered via their canonical encodings (the
    // same ones shard merging compares), so the fingerprint tracks the
    // actual samples, not just the seed that produced them.
    let (uarchs, configs) = sample_axes(opts);
    serde_json::to_vec(&uarchs)
        .expect("uarchs serialize")
        .hash(&mut h);
    for cfg in &configs {
        cfg.to_choices().hash(&mut h);
    }
    (PROFILE_LIMITS.fuel, PROFILE_LIMITS.max_depth).hash(&mut h);
    h.finish()
}

/// Generates a dataset priced on the given (named) microarchitectures
/// instead of sampling `opts.scale.n_uarch` from the design space. The
/// setting sample is identical to [`generate`]'s for the same seed, so
/// figure sweeps that pin their configurations (Figure 1's three named
/// machines, say) see the same settings without pricing everything twice.
pub fn generate_with_uarchs(
    programs: &[(String, Module)],
    uarchs: &[MicroArch],
    opts: &GenOptions,
) -> (Dataset, SweepReport) {
    let configs = sample_configs(opts.scale.n_opts, opts.seed);
    sweep_grid(programs, uarchs.to_vec(), configs, opts.threads, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_ir::{FuncBuilder, ModuleBuilder};

    fn tiny_program(name: &str, stride: i64) -> (String, Module) {
        let mut mb = ModuleBuilder::new(name);
        let (_, base) = mb.global("buf", 512);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, 400, 1, |b, i| {
            let off0 = b.mul(i, stride);
            let off = b.and(off0, 511);
            let sh = b.shl(off, 2);
            let a = b.add(p, sh);
            let v = b.load(a, 0);
            let w = b.add(v, i);
            b.store(w, a, 0);
            let t = b.add(acc, w);
            b.assign(acc, t);
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        (name.to_string(), mb.finish())
    }

    fn tiny_dataset() -> Dataset {
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        generate(
            &programs,
            &GenOptions {
                scale: SweepScale {
                    n_uarch: 4,
                    n_opts: 12,
                },
                seed: 5,
                extended_space: false,
                threads: 2,
            },
        )
    }

    #[test]
    fn dataset_shape() {
        let ds = tiny_dataset();
        assert_eq!(ds.n_programs(), 2);
        assert_eq!(ds.n_uarchs(), 4);
        assert_eq!(ds.configs.len(), 12);
        assert_eq!(ds.cycles[0].len(), 4);
        assert_eq!(ds.cycles[0][0].len(), 12);
        assert_eq!(ds.features[1].len(), 4);
        assert_eq!(ds.features[0][0].values.len(), portopt_uarch::N_FEATURES);
    }

    #[test]
    fn cycles_are_positive_and_best_is_best() {
        let ds = tiny_dataset();
        for p in 0..2 {
            for u in 0..4 {
                assert!(ds.o3_cycles[p][u] > 0.0);
                let best = ds.best_speedup(p, u);
                for c in 0..12 {
                    assert!(ds.cycles[p][u][c] > 0.0);
                    assert!(ds.speedup(p, u, c) <= best + 1e-12);
                }
            }
        }
    }

    #[test]
    fn good_set_contains_the_best() {
        let ds = tiny_dataset();
        let gs = ds.good_set(0, 0, 0.25);
        assert_eq!(gs.len(), 3); // ceil(12 * 0.25)
                                 // The first element is the single best setting.
        let best_c = (0..12)
            .min_by(|&a, &b| ds.cycles[0][0][a].partial_cmp(&ds.cycles[0][0][b]).unwrap())
            .unwrap();
        assert_eq!(gs[0], best_c);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_dataset();
        let b = tiny_dataset();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.o3_cycles, b.o3_cycles);
        assert_eq!(a.uarchs, b.uarchs);
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let gen_at = |threads: usize| {
            generate(
                &programs,
                &GenOptions {
                    scale: SweepScale {
                        n_uarch: 3,
                        n_opts: 10,
                    },
                    seed: 41,
                    extended_space: false,
                    threads,
                },
            )
        };
        let reference = gen_at(1);
        for threads in [2, 8] {
            let ds = gen_at(threads);
            assert_eq!(ds.cycles, reference.cycles, "threads = {threads}");
            assert_eq!(ds.o3_cycles, reference.o3_cycles, "threads = {threads}");
            let f = |d: &Dataset| -> Vec<Vec<f64>> {
                d.features
                    .iter()
                    .flatten()
                    .map(|v| v.values.clone())
                    .collect()
            };
            assert_eq!(f(&ds), f(&reference), "threads = {threads}");
        }
    }

    #[test]
    fn duplicate_settings_share_results() {
        // A config list with explicit duplicates: the sweep must price the
        // duplicates identically to their first occurrence (and the dedup
        // means they cost nothing extra).
        let (_, module) = tiny_program("p", 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut configs = vec![
            OptConfig::o3(),
            OptConfig::sample(&mut rng),
            OptConfig::o0(),
        ];
        configs.push(configs[1]); // duplicate of the sampled setting
        configs.push(OptConfig::o3()); // duplicate of index 0
        let space = portopt_uarch::MicroArchSpace::base();
        let mut urng = rand::rngs::StdRng::seed_from_u64(5);
        let uarchs = space.sample_n(2, &mut urng);
        let (cycles, o3, _) =
            sweep_program(&module, &uarchs, &configs, &portopt_exec::Executor::new(2));
        for u in 0..uarchs.len() {
            assert_eq!(cycles[u][1], cycles[u][3], "duplicate sampled setting");
            assert_eq!(cycles[u][0], cycles[u][4], "duplicate O3 setting");
            assert!(o3[u] > 0.0);
        }
    }

    #[test]
    fn report_counts_match() {
        let programs = vec![tiny_program("p1", 1)];
        let (ds, report) = generate_with_report(
            &programs,
            &GenOptions {
                scale: SweepScale {
                    n_uarch: 2,
                    n_opts: 8,
                },
                seed: 11,
                extended_space: false,
                threads: 1,
            },
        );
        assert_eq!(report.programs, 1);
        assert_eq!(report.uarchs, 2);
        assert_eq!(report.settings, 8);
        assert!(report.unique_settings <= 8 && report.unique_settings >= 1);
        assert_eq!(report.grid_tasks, report.unique_settings);
        assert!(report.wall_secs > 0.0);
        assert!(report.settings_per_sec > 0.0);
        assert_eq!(ds.configs.len(), 8);
    }

    #[test]
    fn merge_concatenates_matching_shards() {
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 3,
                n_opts: 8,
            },
            seed: 77,
            extended_space: false,
            threads: 2,
        };
        let a = generate(&[tiny_program("p1", 1)], &opts);
        let b = generate(&[tiny_program("p2", 7), tiny_program("p3", 3)], &opts);
        let whole = generate(
            &[
                tiny_program("p1", 1),
                tiny_program("p2", 7),
                tiny_program("p3", 3),
            ],
            &opts,
        );
        let merged = Dataset::merge(vec![a, b]).expect("axes match");
        assert_eq!(merged.programs, vec!["p1", "p2", "p3"]);
        assert_eq!(merged.cycles, whole.cycles);
        assert_eq!(merged.o3_cycles, whole.o3_cycles);
        assert_eq!(merged.uarchs, whole.uarchs);
        assert_eq!(merged.configs, whole.configs);
    }

    #[test]
    fn merge_rejects_mismatched_axes_and_duplicates() {
        let opts = |seed| GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 6,
            },
            seed,
            extended_space: false,
            threads: 1,
        };
        let base = generate(&[tiny_program("p1", 1)], &opts(1));
        let other_seed = generate(&[tiny_program("p2", 7)], &opts(2));
        assert!(matches!(
            Dataset::merge(vec![base.clone(), other_seed]),
            Err(MergeError::UarchMismatch { shard: 1 })
        ));
        // Same uarch sample, different settings: swap in a fresh config list.
        let mut bad_cfgs = generate(&[tiny_program("p2", 7)], &opts(1));
        bad_cfgs.configs[0] = OptConfig::o0();
        assert!(matches!(
            Dataset::merge(vec![base.clone(), bad_cfgs]),
            Err(MergeError::ConfigMismatch { shard: 1 })
        ));
        let dup = generate(&[tiny_program("p1", 1)], &opts(1));
        match Dataset::merge(vec![base.clone(), dup]) {
            Err(MergeError::DuplicateProgram { shard: 1, name }) => assert_eq!(name, "p1"),
            other => panic!("expected duplicate-program error, got {other:?}"),
        }
        assert!(matches!(
            Dataset::merge(Vec::new()),
            Err(MergeError::NoShards)
        ));
        // A single shard merges to itself.
        let solo = Dataset::merge(vec![base.clone()]).unwrap();
        assert_eq!(solo.cycles, base.cycles);
    }

    #[test]
    fn merge_rejects_internally_inconsistent_shards() {
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 6,
            },
            seed: 1,
            extended_space: false,
            threads: 1,
        };
        let base = generate(&[tiny_program("p1", 1)], &opts);
        // A truncated per-uarch cycles table (as a hand-edited or cut-off
        // shard file could produce) must be rejected with the defect named,
        // not panic later inside training.
        let mut truncated = generate(&[tiny_program("p2", 7)], &opts);
        truncated.cycles[0].pop();
        match Dataset::merge(vec![base.clone(), truncated]) {
            Err(MergeError::MalformedShard { shard: 1, detail }) => {
                assert!(detail.contains("cycles"), "{detail}")
            }
            other => panic!("expected MalformedShard, got {other:?}"),
        }
        // A feature vector of the wrong width is equally fatal.
        let mut bad_feats = generate(&[tiny_program("p3", 3)], &opts);
        bad_feats.features[0][0].values.pop();
        assert!(matches!(
            Dataset::merge(vec![base, bad_feats]),
            Err(MergeError::MalformedShard { shard: 1, .. })
        ));
    }

    fn cache_scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "portopt-profile-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_disk_cache_reproduces_the_cold_sweep_exactly() {
        let dir = cache_scratch_dir("warm");
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 3,
                n_opts: 10,
            },
            seed: 99,
            extended_space: false,
            threads: 2,
        };
        let baseline = generate(&programs, &opts);

        let cold_cache = open_profile_cache(&dir).unwrap();
        let (cold, _) = generate_with_cache(&programs, &opts, Some(&cold_cache));
        let cold_stats = cold_cache.stats();
        assert_eq!(cold_stats.hits, 0, "first run must be all misses");
        assert!(cold_stats.misses > 0);

        let warm_cache = open_profile_cache(&dir).unwrap();
        let (warm, _) = generate_with_cache(&programs, &opts, Some(&warm_cache));
        let warm_stats = warm_cache.stats();
        assert!(warm_stats.hits > 0, "second run must hit: {warm_stats:?}");
        assert_eq!(warm_stats.misses, 0, "{warm_stats:?}");
        assert_eq!(warm_stats.rejected, 0, "{warm_stats:?}");

        // The cache must never change the result: no-cache, cold and warm
        // sweeps serialize byte-identically.
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        assert_eq!(bytes(&cold), bytes(&baseline));
        assert_eq!(bytes(&warm), bytes(&baseline));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_equal_binaries_are_profiled_once() {
        // Eight workers meet the same binary at the same instant: one of
        // them profiles it (one disk-cache lookup), the rest wait for its
        // row instead of profiling it again.
        let dir = cache_scratch_dir("concurrent");
        let module = portopt_mibench::by_name("crc", portopt_mibench::Workload::default())
            .unwrap()
            .module;
        let uarchs = [portopt_uarch::MicroArch::xscale()];
        let cfg = OptConfig::o3();
        let cache: ProfileCache = Mutex::new(HashMap::new());
        let disk = open_profile_cache(&dir).unwrap();
        let barrier = std::sync::Barrier::new(8);
        let rows: Vec<(Arc<Vec<f64>>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        eval_setting(&module, &uarchs, &cfg, &cache, Some(&disk))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = disk.stats();
        assert_eq!(stats.hits + stats.misses, 1, "{stats:?}");
        assert!(rows.iter().all(|(row, _)| row == &rows[0].0));
        assert_eq!(rows.iter().filter(|(_, shared)| !shared).count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn o3_setting_in_the_grid_reuses_the_baseline_profile() {
        // A grid setting that lowers to the `-O3` image takes the row the
        // baseline already priced: a cold cache sees one lookup, a miss,
        // per distinct image, and no second lookup of the `-O3` one.
        let dir = cache_scratch_dir("o3-seed");
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let uarchs = MicroArchSpace::base().sample_n(3, &mut StdRng::seed_from_u64(3));
        let mut configs = sample_configs(6, 21);
        configs.insert(2, OptConfig::o3());
        let disk = open_profile_cache(&dir).unwrap();
        let (ds, _) = sweep_grid(&programs, uarchs.clone(), configs.clone(), 2, Some(&disk));
        let distinct: usize = programs
            .iter()
            .map(|(_, m)| {
                let mut fps: Vec<u64> = configs
                    .iter()
                    .map(|c| compile(m, c).fingerprint())
                    .collect();
                fps.sort_unstable();
                fps.dedup();
                fps.len()
            })
            .sum();
        let s = disk.stats();
        assert_eq!(s.hits, 0, "{s:?}");
        assert_eq!(s.misses as usize, distinct, "{s:?}");
        assert_eq!(cache_entries(&dir).len(), distinct);

        // Every cell is the price of its setting's image on its own, and
        // the dataset is the one a sweep without a disk cache makes.
        for (p, (_, m)) in programs.iter().enumerate() {
            for (c, cfg) in configs.iter().enumerate() {
                let row = price_image(&compile(m, cfg), m, &uarchs);
                for (u, cycles) in row.iter().enumerate() {
                    assert_eq!(ds.cycles[p][u][c].to_bits(), cycles.to_bits());
                }
            }
        }
        let (no_disk, _) = sweep_grid(&programs, uarchs, configs, 2, None);
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        assert_eq!(bytes(&ds), bytes(&no_disk));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_and_stale_cache_entries_fall_back_to_reprofiling() {
        let dir = cache_scratch_dir("corrupt");
        let programs = vec![tiny_program("p1", 3)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 8,
            },
            seed: 123,
            extended_space: false,
            threads: 1,
        };
        let cold_cache = open_profile_cache(&dir).unwrap();
        let (cold, _) = generate_with_cache(&programs, &opts, Some(&cold_cache));

        // Vandalise every entry: truncated JSON in one, a stale payload
        // version in the rest (as an old-IR-encoding cache would hold).
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        assert!(entries.len() > 1, "expected several cache entries");
        std::fs::write(&entries[0], b"{ truncated").unwrap();
        for path in &entries[1..] {
            let stale = std::fs::read_to_string(path)
                .unwrap()
                .replace("\"payload_version\":1", "\"payload_version\":0");
            std::fs::write(path, stale).unwrap();
        }

        // The sweep must reject every entry (named errors on stderr),
        // re-profile, produce identical output, and repair the cache.
        let vandalised = open_profile_cache(&dir).unwrap();
        let (redone, _) = generate_with_cache(&programs, &opts, Some(&vandalised));
        let stats = vandalised.stats();
        assert_eq!(stats.hits, 0, "{stats:?}");
        assert_eq!(stats.rejected as usize, entries.len(), "{stats:?}");
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        assert_eq!(bytes(&redone), bytes(&cold));

        // Overwritten entries serve the next run normally.
        let repaired = open_profile_cache(&dir).unwrap();
        let (again, _) = generate_with_cache(&programs, &opts, Some(&repaired));
        assert_eq!(repaired.stats().rejected, 0);
        assert!(repaired.stats().hits > 0);
        assert_eq!(bytes(&again), bytes(&cold));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn changed_global_data_misses_the_disk_cache() {
        // Two modules with identical code (identical image fingerprints)
        // but different global initialiser data: profiles differ, so the
        // second sweep must MISS the first's entries, not reuse them.
        let dir = cache_scratch_dir("globals");
        let variant = |init: i64| -> (String, Module) {
            let mut mb = ModuleBuilder::new("p");
            let (_, base) = mb.global_init("buf", 64, vec![init; 64]);
            let mut b = FuncBuilder::new("main", 0);
            let p = b.iconst(base as i64);
            let acc = b.iconst(0);
            b.counted_loop(0, 40, 1, |b, i| {
                let off = b.and(i, 63);
                let sh = b.shl(off, 2);
                let a = b.add(p, sh);
                let v = b.load(a, 0);
                let t = b.add(acc, v);
                b.assign(acc, t);
            });
            b.ret(acc);
            let id = mb.add(b.finish());
            mb.entry(id);
            ("p".to_string(), mb.finish())
        };
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 6,
            },
            seed: 31,
            extended_space: false,
            threads: 1,
        };
        let cold = open_profile_cache(&dir).unwrap();
        generate_with_cache(&[variant(1)], &opts, Some(&cold));
        let other_data = open_profile_cache(&dir).unwrap();
        generate_with_cache(&[variant(2)], &opts, Some(&other_data));
        let s = other_data.stats();
        assert_eq!(
            s.hits, 0,
            "stale profiles served across a data change: {s:?}"
        );
        assert!(s.misses > 0);
        // Same data again: now everything hits.
        let warm = open_profile_cache(&dir).unwrap();
        generate_with_cache(&[variant(2)], &opts, Some(&warm));
        assert!(warm.stats().hits > 0);
        assert_eq!(warm.stats().misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_sweep_merges_byte_identically_to_unsharded() {
        use crate::shard::ShardSpec;
        let programs = vec![
            tiny_program("p1", 1),
            tiny_program("p2", 7),
            tiny_program("p3", 3),
            tiny_program("p4", 5),
            tiny_program("p5", 2),
        ];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 6,
            },
            seed: 7,
            extended_space: false,
            threads: 2,
        };
        let whole = generate(&programs, &opts);
        let shards: Vec<Dataset> = (0..3)
            .map(|i| {
                let spec = ShardSpec::new(i, 3).unwrap();
                generate(spec.slice(&programs), &opts)
            })
            .collect();
        let merged = Dataset::merge(shards).unwrap();
        assert_eq!(
            serde_json::to_vec(&merged).unwrap(),
            serde_json::to_vec(&whole).unwrap(),
            "contiguous shards must merge back to the unsharded sweep"
        );
    }

    #[test]
    fn partial_cache_resumes_only_the_missing_work() {
        let dir = cache_scratch_dir("partial");
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 8,
            },
            seed: 45,
            extended_space: false,
            threads: 2,
        };
        let baseline = generate(&programs, &opts);
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        let cold = open_profile_cache(&dir).unwrap();
        generate_with_cache(&programs, &opts, Some(&cold));
        assert_eq!(cold.stats().hits, 0, "{:?}", cold.stats());

        // Simulate a kill partway through: every other entry never landed.
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        assert!(entries.len() > 2, "expected several cache entries");
        let deleted = entries.iter().step_by(2).count();
        for path in entries.iter().step_by(2) {
            std::fs::remove_file(path).unwrap();
        }

        let resumed = open_profile_cache(&dir).unwrap();
        let (warm, _) = generate_with_cache(&programs, &opts, Some(&resumed));
        let s = resumed.stats();
        assert_eq!(s.misses as usize, deleted, "{s:?}");
        assert_eq!(s.hits as usize, entries.len() - deleted, "{s:?}");
        assert_eq!(s.rejected, 0, "{s:?}");
        assert_eq!(bytes(&warm), bytes(&baseline));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cache entry files of `dir`, sorted by name.
    fn cache_entries(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        entries.sort();
        entries
    }

    #[test]
    fn checkpointed_sweep_resumes_byte_identically() {
        // The profile cache is the sweep's checkpoint. A sweep killed early
        // (only a third of its entries landed) and resumed with another
        // thread count still matches the uninterrupted sweep, and once the
        // resume has finished the store is complete.
        let dir = cache_scratch_dir("resume");
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 3,
                n_opts: 10,
            },
            seed: 44,
            extended_space: false,
            threads: 1,
        };
        let baseline = generate(&programs, &opts);
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        let cold = open_profile_cache(&dir).unwrap();
        let (first, _) = generate_with_cache(&programs, &opts, Some(&cold));
        assert_eq!(bytes(&first), bytes(&baseline));
        let entries = cache_entries(&dir);
        assert_eq!(entries.len() as u64, cold.stats().misses);
        let lookups = cold.stats().hits + cold.stats().misses;
        let kept = entries.len() / 3;
        assert!(kept > 0, "expected several cache entries");
        for path in &entries[kept..] {
            std::fs::remove_file(path).unwrap();
        }

        let resumed = open_profile_cache(&dir).unwrap();
        let threads = GenOptions { threads: 4, ..opts };
        let (warm, _) = generate_with_cache(&programs, &threads, Some(&resumed));
        let s = resumed.stats();
        assert_eq!(s.misses as usize, entries.len() - kept, "{s:?}");
        assert_eq!(s.hits + s.misses, lookups, "{s:?}");
        assert_eq!(bytes(&warm), bytes(&baseline));

        // A second restart re-profiles nothing.
        let whole = open_profile_cache(&dir).unwrap();
        let (again, _) = generate_with_cache(&programs, &opts, Some(&whole));
        assert_eq!(whole.stats().misses, 0, "{:?}", whole.stats());
        assert_eq!(whole.stats().hits, lookups);
        assert_eq!(bytes(&again), bytes(&baseline));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_journal_resumes_only_the_missing_work() {
        // A writer killed between write and rename leaves a `*.tmp`
        // dropping instead of an entry. The resume treats each dropping as
        // missing work: it re-profiles exactly those images, rejects
        // nothing, and matches the uninterrupted sweep.
        let dir = cache_scratch_dir("droppings");
        let programs = vec![tiny_program("p1", 1), tiny_program("p2", 7)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 8,
            },
            seed: 45,
            extended_space: false,
            threads: 1,
        };
        let baseline = generate(&programs, &opts);
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        let cold = open_profile_cache(&dir).unwrap();
        generate_with_cache(&programs, &opts, Some(&cold));
        let lookups = cold.stats().hits + cold.stats().misses;
        let entries = cache_entries(&dir);
        let torn = entries.len() / 2;
        assert!(torn > 0, "expected several cache entries");
        for (i, path) in entries[..torn].iter().enumerate() {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            std::fs::rename(
                path,
                dir.join(format!(".{stem}.{}.{i}.tmp", std::process::id())),
            )
            .unwrap();
        }

        let resumed = open_profile_cache(&dir).unwrap();
        let (warm, _) = generate_with_cache(&programs, &opts, Some(&resumed));
        let s = resumed.stats();
        assert_eq!(s.misses as usize, torn, "{s:?}");
        assert_eq!(s.hits + s.misses, lookups, "{s:?}");
        assert_eq!(s.rejected, 0, "{s:?}");
        assert_eq!(bytes(&warm), bytes(&baseline));
        assert_eq!(cache_entries(&dir), entries, "every entry published again");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_of_a_different_plan_is_refused() {
        // A store written by one sweep plan never lends rows to another:
        // a changed seed, scale or program list gets a different plan
        // fingerprint, and sweeping it over the old store still matches a
        // storeless sweep. The thread count is not part of the plan.
        let dir = cache_scratch_dir("plan");
        let programs = vec![tiny_program("p1", 1)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 6,
            },
            seed: 46,
            extended_space: false,
            threads: 1,
        };
        let bytes = |ds: &Dataset| serde_json::to_vec(ds).unwrap();
        generate_with_cache(&programs, &opts, Some(&open_profile_cache(&dir).unwrap()));
        let fp = plan_fingerprint(&programs, &opts);
        let other_programs = vec![tiny_program("p2", 7)];
        let other_seed = GenOptions { seed: 47, ..opts };
        let other_scale = GenOptions {
            scale: SweepScale {
                n_uarch: 3,
                n_opts: 6,
            },
            ..opts
        };
        for (progs, plan) in [
            (&programs, other_seed),
            (&programs, other_scale),
            (&other_programs, opts),
        ] {
            assert_ne!(plan_fingerprint(progs, &plan), fp);
            let store = open_profile_cache(&dir).unwrap();
            let (ds, _) = generate_with_cache(progs, &plan, Some(&store));
            assert_eq!(store.stats().rejected, 0, "{:?}", store.stats());
            assert_eq!(bytes(&ds), bytes(&generate(progs, &plan)));
        }
        let threads = GenOptions { threads: 8, ..opts };
        assert_eq!(plan_fingerprint(&programs, &threads), fp);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn named_uarch_generation_matches_setting_sample() {
        let programs = vec![tiny_program("p1", 2)];
        let opts = GenOptions {
            scale: SweepScale {
                n_uarch: 2,
                n_opts: 6,
            },
            seed: 23,
            extended_space: false,
            threads: 1,
        };
        let sampled = generate(&programs, &opts);
        let named = [portopt_uarch::MicroArch::xscale()];
        let (ds, _) = generate_with_uarchs(&programs, &named, &opts);
        assert_eq!(ds.configs, sampled.configs, "same seed, same settings");
        assert_eq!(ds.uarchs, named.to_vec());
        assert_eq!(ds.cycles[0].len(), 1);
        assert_eq!(ds.cycles[0][0].len(), 6);
    }
}
