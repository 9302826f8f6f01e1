//! # portopt-bench
//!
//! Regeneration harness: one binary per table/figure of the paper
//! (`cargo run -p portopt-bench --release --bin fig6 -- --scale default`)
//! plus Criterion micro-benchmarks (`cargo bench`).

#![warn(missing_docs)]

pub mod coordinator;
pub mod read;

use portopt_core::{plan_fingerprint, Dataset, GenOptions, ModelKind, SweepReport, SweepScale};
use portopt_exec::artifact::write_atomic;
use portopt_experiments::loo::{run_loo, LooResult};
use portopt_experiments::{dataset_cached, suite_modules};
use portopt_ir::Module;

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct BinArgs {
    /// Sweep scale.
    pub scale: SweepScale,
    /// Scale name (cache key).
    pub scale_name: String,
    /// Use the §7 extended microarchitecture space.
    pub extended: bool,
    /// Disable the dataset cache.
    pub no_cache: bool,
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// `snapshot` bin: where to write the model artifact (default under
    /// `target/`).
    pub out: Option<String>,
    /// `serve` bin: the model artifact to load.
    pub snapshot: Option<String>,
    /// `snapshot` bin: dataset shard files to merge instead of sweeping.
    pub shards: Vec<String>,
    /// `serve` bin: serve stdin/stdout instead of a TCP socket.
    pub stdio: bool,
    /// `serve` bin: TCP port for socket mode.
    pub port: u16,
    /// `serve` bin: requests per executor batch.
    pub batch: usize,
    /// `serve` bin: cross-connection batching window in milliseconds
    /// (also the answer-latency bound for a lone request).
    pub batch_window_ms: u64,
    /// `serve` bin: maximum simultaneous TCP connections.
    pub max_conns: usize,
    /// `serve` bin: bound on pending requests across all connections;
    /// over the bound, requests are refused with an `overloaded` reply.
    pub queue_cap: Option<usize>,
    /// `serve` bin: bound on one connection's outstanding requests;
    /// at the bound its socket stops being read (TCP backpressure).
    pub per_conn_quota: Option<u64>,
    /// `serve` bin: serve a plaintext metrics snapshot on this localhost
    /// port.
    pub metrics_port: Option<u16>,
    /// `serve` bin: poll the snapshot file and hot-reload it on change.
    pub watch_snapshot: bool,
    /// `sweep` bin: this rig's shard index (`0..shard_count`).
    pub shard_index: usize,
    /// `sweep` bin: total number of shards the program grid is split into.
    pub shard_count: usize,
    /// `sweep` bin: directory of the on-disk profile cache
    /// (`--profile-cache`); `None` means the default from
    /// [`BinArgs::profile_cache_dir`].
    pub profile_cache: Option<String>,
    /// `snapshot` bin: also write the (merged) training dataset here.
    pub dataset_out: Option<String>,
    /// `sweep` bin: take leases from the coordinator at this `host:port`
    /// instead of sweeping `--shard-index`.
    pub worker: Option<String>,
    /// `coordinator` bin: maximum attempts per shard before the plan
    /// aborts.
    pub retry_budget: u32,
    /// `coordinator` bin: lease deadline in milliseconds.
    pub lease_timeout_ms: u64,
    /// `sweep` bin: evict the profile cache down to this many bytes after
    /// the sweep (current-run entries are never evicted).
    pub cache_max_bytes: Option<u64>,
    /// Stderr log level (`--log-level`, else `PORTOPT_LOG`, else `info`).
    pub log_level: portopt_trace::Level,
    /// Write a JSON-lines trace file here (`--trace-out`).
    pub trace_out: Option<String>,
    /// `snapshot` bin: which model kind to train (`--model`, default kNN).
    pub model: ModelKind,
    /// `serve` bin: refuse to start unless the snapshot holds this model
    /// kind (`--expect-model`).
    pub expect_model: Option<ModelKind>,
    /// `ab` bin: the second snapshot of the A/B pair (`--snapshot-b`).
    pub snapshot_b: Option<String>,
}

impl BinArgs {
    /// Parses `--scale smoke|default|paper|quick`, `--extended`,
    /// `--no-cache`, `--threads N` from `std::env::args`, plus the
    /// `snapshot`/`serve` flags `--out PATH`, `--snapshot PATH`,
    /// `--shard PATH` (repeatable), `--dataset-out PATH`, `--stdio`,
    /// `--port N`, `--batch N`, `--batch-window-ms N`, `--max-conns N`,
    /// `--queue-cap N`, `--per-conn-quota N`, `--metrics-port N`,
    /// `--watch-snapshot`, the model-zoo flags `--model knn|linear|clustered`
    /// (what `snapshot` trains), `--expect-model KIND` (what `serve`
    /// demands of its artifact) and `--snapshot-b PATH` (the `ab` bin's
    /// second model), the `sweep` flags `--shard-index N`,
    /// `--shard-count N`, `--profile-cache DIR`, `--worker HOST:PORT`,
    /// `--cache-max-bytes N`, the `coordinator` flags `--retry-budget N`,
    /// `--lease-timeout-ms N`, and the
    /// observability flags `--log-level off|error|warn|info|debug|trace`
    /// (default `info`, or the `PORTOPT_LOG` environment variable) and
    /// `--trace-out PATH` (write a JSON-lines trace file; published
    /// atomically when the bin exits cleanly).
    ///
    /// Parsing also **initializes the global tracer**, so every bin that
    /// calls `BinArgs::parse()` gets leveled stderr logging and optional
    /// file tracing with no further wiring. Bins should call
    /// [`BinArgs::finish_trace`] before exiting to publish the trace file.
    pub fn parse() -> Self {
        let mut scale_name = "quick".to_string();
        let mut extended = false;
        let mut no_cache = false;
        let mut threads = 0usize;
        let mut out = None;
        let mut snapshot = None;
        let mut shards = Vec::new();
        let mut stdio = false;
        let mut port = 7209u16;
        let mut batch = 32usize;
        let mut batch_window_ms = portopt_serve::DEFAULT_WINDOW_MS;
        let mut max_conns = portopt_serve::DEFAULT_MAX_CONNS;
        let mut queue_cap = None;
        let mut per_conn_quota = None;
        let mut metrics_port = None;
        let mut watch_snapshot = false;
        let mut shard_index = 0usize;
        let mut shard_count = 1usize;
        let mut profile_cache = None;
        let mut dataset_out = None;
        let mut worker = None;
        let mut retry_budget = coordinator::DEFAULT_RETRY_BUDGET;
        let mut lease_timeout_ms = coordinator::DEFAULT_LEASE_TIMEOUT_MS;
        let mut cache_max_bytes = None;
        let mut model = ModelKind::Knn;
        let mut expect_model = None;
        let mut snapshot_b = None;
        let args: Vec<String> = std::env::args().collect();
        // The tracer comes up before the main flag loop, so the loop's own
        // warnings already respect the requested level and land in the
        // trace file.
        let (log_level, trace_out) = Self::init_trace(&args);
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale_name = args.get(i).cloned().unwrap_or_default();
                }
                "--extended" => extended = true,
                "--no-cache" => no_cache = true,
                "--threads" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        threads = n;
                        i += 1;
                    }
                    // Don't consume the next token: it may be another flag.
                    None => portopt_trace::warn!(
                        "bench",
                        "--threads expects a number (0 = auto); using auto"
                    ),
                },
                // Path flags don't consume a following flag token: `serve
                // --snapshot --stdio` should complain about the missing
                // path, not try to open a file named `--stdio`.
                "--out" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        out = Some(p.clone());
                        i += 1;
                    }
                    None => portopt_trace::warn!(
                        "bench",
                        "--out expects a file path; using the default"
                    ),
                },
                "--snapshot" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        snapshot = Some(p.clone());
                        i += 1;
                    }
                    None => portopt_trace::warn!("bench", "--snapshot expects a file path"),
                },
                "--shard" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        shards.push(p.clone());
                        i += 1;
                    }
                    None => portopt_trace::warn!("bench", "--shard expects a dataset file path"),
                },
                // Shard flags are fatal on a bad value, unlike the
                // warn-and-default flags above: silently falling back to
                // `0 of 1` would make a typo'd rig sweep the wrong slice
                // of the grid (hours of compute labeled as another rig's).
                "--shard-index" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        shard_index = n;
                        i += 1;
                    }
                    None => {
                        eprintln!("--shard-index expects a number, got {:?}", args.get(i + 1));
                        std::process::exit(2);
                    }
                },
                "--shard-count" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        shard_count = n;
                        i += 1;
                    }
                    None => {
                        eprintln!("--shard-count expects a number, got {:?}", args.get(i + 1));
                        std::process::exit(2);
                    }
                },
                "--profile-cache" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        profile_cache = Some(p.clone());
                        i += 1;
                    }
                    None => {
                        portopt_trace::warn!("bench", "--profile-cache expects a directory path")
                    }
                },
                "--dataset-out" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        dataset_out = Some(p.clone());
                        i += 1;
                    }
                    None => portopt_trace::warn!("bench", "--dataset-out expects a file path"),
                },
                "--stdio" => stdio = true,
                "--port" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        port = n;
                        i += 1;
                    }
                    None => {
                        portopt_trace::warn!("bench", "--port expects a port number; using {port}")
                    }
                },
                "--batch" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => {
                        batch = n;
                        i += 1;
                    }
                    _ => portopt_trace::warn!(
                        "bench",
                        "--batch expects a positive number; using {batch}"
                    ),
                },
                "--batch-window-ms" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        batch_window_ms = n;
                        i += 1;
                    }
                    None => {
                        portopt_trace::warn!(
                            "bench",
                            "--batch-window-ms expects a number; using {batch_window_ms}"
                        )
                    }
                },
                "--max-conns" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0 => {
                        max_conns = n;
                        i += 1;
                    }
                    _ => portopt_trace::warn!(
                        "bench",
                        "--max-conns expects a positive number; using {max_conns}"
                    ),
                },
                "--queue-cap" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0usize => {
                        queue_cap = Some(n);
                        i += 1;
                    }
                    _ => portopt_trace::warn!(
                        "bench",
                        "--queue-cap expects a positive number; queue stays unbounded"
                    ),
                },
                "--per-conn-quota" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0u64 => {
                        per_conn_quota = Some(n);
                        i += 1;
                    }
                    _ => portopt_trace::warn!(
                        "bench",
                        "--per-conn-quota expects a positive number; connections stay unbounded"
                    ),
                },
                "--metrics-port" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        metrics_port = Some(n);
                        i += 1;
                    }
                    None => portopt_trace::warn!(
                        "bench",
                        "--metrics-port expects a port number; endpoint disabled"
                    ),
                },
                // Model-kind flags are fatal on an unknown tag: training
                // (or expecting) the wrong model because of a typo wastes
                // a sweep, or silently serves the wrong predictor.
                "--model" => match args.get(i + 1).map(|s| ModelKind::parse(s)) {
                    Some(Some(k)) => {
                        model = k;
                        i += 1;
                    }
                    _ => {
                        eprintln!(
                            "--model expects knn|linear|clustered, got {:?}",
                            args.get(i + 1)
                        );
                        std::process::exit(2);
                    }
                },
                "--expect-model" => match args.get(i + 1).map(|s| ModelKind::parse(s)) {
                    Some(Some(k)) => {
                        expect_model = Some(k);
                        i += 1;
                    }
                    _ => {
                        eprintln!(
                            "--expect-model expects knn|linear|clustered, got {:?}",
                            args.get(i + 1)
                        );
                        std::process::exit(2);
                    }
                },
                "--snapshot-b" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        snapshot_b = Some(p.clone());
                        i += 1;
                    }
                    None => portopt_trace::warn!("bench", "--snapshot-b expects a file path"),
                },
                "--watch-snapshot" => watch_snapshot = true,
                "--worker" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(a) => {
                        worker = Some(a.clone());
                        i += 1;
                    }
                    None => {
                        eprintln!("--worker expects a coordinator host:port");
                        std::process::exit(2);
                    }
                },
                "--retry-budget" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0u32 => {
                        retry_budget = n;
                        i += 1;
                    }
                    _ => {
                        portopt_trace::warn!(
                            "bench",
                            "--retry-budget expects a positive number; using {retry_budget}"
                        )
                    }
                },
                "--lease-timeout-ms" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) if n > 0u64 => {
                        lease_timeout_ms = n;
                        i += 1;
                    }
                    _ => portopt_trace::warn!(
                        "bench",
                        "--lease-timeout-ms expects a positive number; using {lease_timeout_ms}"
                    ),
                },
                "--cache-max-bytes" => match args.get(i + 1).and_then(|s| s.parse().ok()) {
                    Some(n) => {
                        cache_max_bytes = Some(n);
                        i += 1;
                    }
                    None => {
                        // Fatal like the shard flags: a typo'd budget must
                        // not silently skip the eviction the operator
                        // counted on (or, worse, evict to a default).
                        eprintln!(
                            "--cache-max-bytes expects a byte count, got {:?}",
                            args.get(i + 1)
                        );
                        std::process::exit(2);
                    }
                },
                // Already consumed by `init_trace` before this loop; just
                // step over the value token here.
                "--log-level" | "--trace-out" => i += 1,
                other => portopt_trace::warn!("bench", "ignoring unknown argument {other}"),
            }
            i += 1;
        }
        let scale = match scale_name.as_str() {
            "paper" => SweepScale::paper(),
            "default" => SweepScale::default_scale(),
            "smoke" => SweepScale::smoke(),
            // `quick`: the scale used for the recorded EXPERIMENTS.md run.
            "quick" => SweepScale {
                n_uarch: 10,
                n_opts: 60,
            },
            // Fatal like the shard flags: a typo must not run (and cache)
            // a sweep nobody asked for.
            other => {
                eprintln!("--scale expects smoke|quick|default|paper, got {other:?}");
                std::process::exit(2);
            }
        };
        BinArgs {
            scale,
            scale_name,
            extended,
            no_cache,
            threads,
            out,
            snapshot,
            shards,
            stdio,
            port,
            batch,
            batch_window_ms,
            max_conns,
            queue_cap,
            per_conn_quota,
            metrics_port,
            watch_snapshot,
            shard_index,
            shard_count,
            profile_cache,
            dataset_out,
            worker,
            retry_budget,
            lease_timeout_ms,
            cache_max_bytes,
            log_level,
            trace_out,
            model,
            expect_model,
            snapshot_b,
        }
    }

    /// Pre-scans `args` for `--log-level` and `--trace-out` and brings up
    /// the global tracer (stderr filter + optional file sink). Runs before
    /// the main flag loop so everything that loop logs is already leveled.
    /// Bad values are fatal (exit 2): an operator asking for `warn` who
    /// silently got the default chatter — or a trace file that never
    /// materializes — would only find out hours into a sweep.
    fn init_trace(args: &[String]) -> (portopt_trace::Level, Option<String>) {
        let mut log_level_flag: Option<String> = None;
        let mut trace_out: Option<String> = None;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--log-level" => match args.get(i + 1) {
                    Some(l) if portopt_trace::Level::parse(l).is_some() => {
                        log_level_flag = Some(l.clone());
                        i += 1;
                    }
                    other => {
                        eprintln!(
                            "--log-level expects off|error|warn|info|debug|trace, got {other:?}"
                        );
                        std::process::exit(2);
                    }
                },
                "--trace-out" => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(p) => {
                        trace_out = Some(p.clone());
                        i += 1;
                    }
                    None => {
                        eprintln!("--trace-out expects a file path");
                        std::process::exit(2);
                    }
                },
                _ => {}
            }
            i += 1;
        }
        let log_level = portopt_trace::level_from_env_or(log_level_flag.as_deref());
        if let Some(path) = &trace_out {
            if let Err(e) = Self::ensure_writable(path) {
                eprintln!("--trace-out: {e}");
                std::process::exit(2);
            }
        }
        if let Err(e) =
            portopt_trace::init(log_level, trace_out.as_deref().map(std::path::Path::new))
        {
            eprintln!(
                "cannot open --trace-out {}: {e}",
                trace_out.as_deref().unwrap_or_default()
            );
            std::process::exit(2);
        }
        (log_level, trace_out)
    }

    /// Publishes the `--trace-out` file (atomic temp → rename), if one was
    /// requested. Call once at the end of a bin's happy path; a crash
    /// before this point leaves only a `.tmp.<pid>` file, never a torn
    /// trace presented as complete.
    pub fn finish_trace() {
        match portopt_trace::finish() {
            Ok(Some(path)) => {
                portopt_trace::info!("bench", "trace written to {}", path.display())
            }
            Ok(None) => {}
            Err(e) => portopt_trace::warn!("bench", "could not publish trace file: {e}"),
        }
    }

    /// Verifies that `path` can be created and written *now*, creating
    /// missing parent directories — called by the `sweep`, `snapshot` and
    /// `coordinator` bins before any pricing starts, so a typo'd output
    /// path costs seconds, not a sweep.
    pub fn ensure_writable(path: &str) -> Result<(), String> {
        let p = std::path::Path::new(path);
        if p.is_dir() {
            return Err(format!("{path} is a directory, not a writable file"));
        }
        if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create directory {}: {e}", dir.display()))?;
        }
        // Probe with a sibling temp file (same directory as the temp file
        // `artifact::write_atomic` renames from), so the check exercises
        // the exact permission the final publication needs.
        let probe = format!("{path}.probe.{}", std::process::id());
        std::fs::write(&probe, b"").map_err(|e| format!("{path} is not writable: {e}"))?;
        let _ = std::fs::remove_file(&probe);
        Ok(())
    }

    /// Writes a dataset as JSON and reports the artifact, exiting with
    /// status 2 on failure — the shared output path of the `sweep` bin
    /// (shard files) and `snapshot --dataset-out` (the merged dataset).
    /// Publication is atomic (`portopt_exec::artifact::write_atomic`): a
    /// crash mid-write can never leave a truncated shard for
    /// `snapshot --shard`.
    pub fn write_dataset(path: &str, ds: &Dataset) {
        let bytes = serde_json::to_vec(ds).unwrap_or_else(|e| {
            portopt_trace::error!("bench", "cannot serialize dataset: {e}");
            std::process::exit(2);
        });
        if let Err(e) = write_atomic(path, &bytes) {
            portopt_trace::error!("bench", "cannot write dataset {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "wrote {path}: {} programs, {} bytes",
            ds.n_programs(),
            bytes.len()
        );
    }

    /// Default shard-dataset path for the `sweep` bin's `--out`.
    pub fn shard_path(&self) -> String {
        self.out.clone().unwrap_or_else(|| {
            format!(
                "target/portopt-shard-{}{}-{}of{}.json",
                self.scale_name,
                if self.extended { "-ext" } else { "" },
                self.shard_index,
                self.shard_count,
            )
        })
    }

    /// The `sweep` bin's profile cache directory: `--profile-cache` if
    /// given, else one `target/portopt-worker.pcache` shared by every lease
    /// in worker mode, else `<shard path>.pcache` next to the shard file.
    /// A rerun of the same command reads the same directory, which is how
    /// a killed sweep resumes.
    pub fn profile_cache_dir(&self) -> String {
        match (&self.profile_cache, &self.worker) {
            (Some(dir), _) => dir.clone(),
            (None, Some(_)) => "target/portopt-worker.pcache".to_string(),
            (None, None) => format!("{}.pcache", self.shard_path()),
        }
    }

    /// Default model-artifact path for this scale (the `snapshot` bin's
    /// `--out` default and the natural `serve --snapshot` argument). The
    /// kNN path is unsuffixed — unchanged from before the model zoo — and
    /// the other kinds get a `-{kind}` suffix so training two kinds at the
    /// same scale never clobbers.
    pub fn snapshot_path(&self) -> String {
        self.out.clone().unwrap_or_else(|| {
            format!(
                "target/portopt-model-{}{}{}.snap",
                self.scale_name,
                if self.extended { "-ext" } else { "" },
                match self.model {
                    ModelKind::Knn => "".to_string(),
                    other => format!("-{other}"),
                }
            )
        })
    }

    /// Generation options for this run.
    pub fn gen_options(&self) -> GenOptions {
        GenOptions {
            scale: self.scale,
            seed: 2009,
            extended_space: self.extended,
            threads: self.threads,
        }
    }

    /// Where this run's throughput report lands.
    fn report_path(&self) -> String {
        format!(
            "target/BENCH_sweep-{}{}.json",
            self.scale_name,
            if self.extended { "-ext" } else { "" }
        )
    }

    /// Writes the machine-readable sweep throughput report (settings/sec,
    /// wall time) next to the dataset cache and echoes it to stderr, so
    /// every figure run leaves a perf data point behind.
    pub fn write_report(&self, report: &SweepReport) {
        portopt_trace::info!(
            "bench",
            {
                wall_secs = report.wall_secs,
                settings_per_sec = report.settings_per_sec,
                threads = report.threads as u64,
                unique_settings = report.unique_settings as u64
            },
            "sweep: {} programs x {} settings x {} uarchs in {:.2}s \
             ({:.1} settings/sec, {} threads, {} unique settings)",
            report.programs,
            report.settings,
            report.uarchs,
            report.wall_secs,
            report.settings_per_sec,
            report.threads,
            report.unique_settings,
        );
        if let Ok(bytes) = serde_json::to_vec(report) {
            let path = self.report_path();
            if let Err(e) = write_atomic(&path, &bytes) {
                portopt_trace::warn!("bench", "could not write {path}: {e}");
            }
        }
    }

    /// Loads or generates the dataset (cached under `target/`). A fresh
    /// generation also records its throughput report.
    pub fn dataset(&self) -> Dataset {
        let (suite, _) = suite_modules(2009);
        let cache = sweep_cache_path("ds", &self.scale_name, &suite, &self.gen_options());
        let path = std::path::PathBuf::from(cache);
        dataset_cached(
            &self.gen_options(),
            if self.no_cache { None } else { Some(&path) },
            |report| self.write_report(report),
        )
    }

    /// Dataset plus the leave-one-out evaluation (also cached).
    pub fn dataset_and_loo(&self) -> (Dataset, LooResult, Vec<Module>) {
        let ds = self.dataset();
        let (suite, modules) = suite_modules(2009);
        let cache = sweep_cache_path("loo", &self.scale_name, &suite, &self.gen_options());
        if !self.no_cache {
            if let Ok(bytes) = std::fs::read(&cache) {
                if let Ok(loo) = serde_json::from_slice::<LooResult>(&bytes) {
                    if loo.model_speedup.len() == ds.n_programs() {
                        return (ds, loo, modules);
                    }
                }
            }
        }
        let loo = run_loo(&ds, &modules, self.threads);
        if !self.no_cache {
            if let Ok(bytes) = serde_json::to_vec(&loo) {
                let _ = write_atomic(&cache, &bytes);
            }
        }
        (ds, loo, modules)
    }
}

/// Where the figure bins cache `what` (`ds` for the dataset, `loo` for
/// the leave-one-out result) of one sweep plan:
/// `target/portopt-<what>-<scale>[-ext]-<fingerprint>.json`. The scale
/// name is for humans; the fingerprint ([`plan_fingerprint`] as 16 hex
/// digits) keeps a cache left by another suite, seed, space or profiling
/// limits from being mistaken for this plan's.
fn sweep_cache_path(
    what: &str,
    scale_name: &str,
    suite: &[(String, Module)],
    opts: &GenOptions,
) -> String {
    format!(
        "target/portopt-{what}-{scale_name}{}-{:016x}.json",
        if opts.extended_space { "-ext" } else { "" },
        plan_fingerprint(suite, opts)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_ir::{FuncBuilder, ModuleBuilder};

    fn module(ret: i64) -> Module {
        let mut mb = ModuleBuilder::new("m");
        let mut b = FuncBuilder::new("main", 0);
        let v = b.iconst(ret);
        b.ret(v);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn cache_names_follow_the_sweep_plan() {
        let suite = vec![("a".to_string(), module(1)), ("b".to_string(), module(2))];
        let opts = GenOptions {
            scale: SweepScale::smoke(),
            seed: 2009,
            extended_space: false,
            threads: 1,
        };
        let name = |suite: &[(String, Module)], opts: &GenOptions| {
            sweep_cache_path("ds", "smoke", suite, opts)
        };
        let base = name(&suite, &opts);
        assert!(base.starts_with("target/portopt-ds-smoke-"), "{base}");
        assert_eq!(base.len(), "target/portopt-ds-smoke-.json".len() + 16);
        // Equal plans share a name, whatever the thread count.
        let threads = GenOptions { threads: 8, ..opts };
        assert_eq!(name(&suite, &threads), base);
        let reseeded = GenOptions { seed: 7, ..opts };
        assert_ne!(name(&suite, &reseeded), base);
        let rescaled = GenOptions {
            scale: SweepScale {
                n_uarch: 3,
                ..SweepScale::smoke()
            },
            ..opts
        };
        assert_ne!(name(&suite, &rescaled), base);
        let extended = GenOptions {
            extended_space: true,
            ..opts
        };
        let ext = name(&suite, &extended);
        assert!(ext.starts_with("target/portopt-ds-smoke-ext-"), "{ext}");
        assert_ne!(ext.replace("-ext", ""), base);
        let mut edited = suite.clone();
        edited[1].1 = module(3);
        assert_ne!(name(&edited, &opts), base);
        assert_ne!(sweep_cache_path("loo", "smoke", &suite, &opts), base);
    }
}
