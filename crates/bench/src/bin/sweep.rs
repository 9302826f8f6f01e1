//! The multi-rig sweep driver: sweeps this rig's shard of the
//! `(program, setting)` training grid and writes a `Dataset` shard file
//! that `snapshot --shard` merges for training.
//!
//! ```text
//! # rig 0 and rig 1 each sweep half the programs, sharing nothing but
//! # the seed; --profile-cache makes both rigs share one profile cache
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --shard-index 0 --shard-count 2 \
//!     --profile-cache target/pcache --out rig0.json
//! cargo run --release -p portopt-bench --bin sweep -- \
//!     --scale smoke --shard-index 1 --shard-count 2 \
//!     --profile-cache target/pcache --out rig1.json
//!
//! # then merge-train on any one machine
//! cargo run --release -p portopt-bench --bin snapshot -- \
//!     --shard rig0.json --shard rig1.json --out model.snap
//! ```
//!
//! Without shard flags (`--shard-count 1`, the default) this is a plain
//! whole-suite sweep to an explicit dataset file. Sharding is contiguous
//! and deterministic ([`portopt_core::shard::ShardSpec`]), so merging the
//! shards in index order is byte-identical to the unsharded sweep — CI
//! asserts exactly that.
//!
//! **Crash safety**: every sweep persists each profiling run to a profile
//! cache as it completes — `--profile-cache DIR`, else `<out>.pcache/`
//! next to the shard file (`target/portopt-worker.pcache/` in worker
//! mode). A rerun of the same command recompiles every setting but
//! profiles only what the cache lacks, and its output is byte-identical
//! to an uninterrupted sweep (see `docs/SWEEP.md`). The cache stays after
//! the shard file is published, so a repeated command runs warm.
//!
//! **Fleet mode**: `--worker HOST:PORT` takes shard leases from a
//! `coordinator` bin instead of sweeping a fixed `--shard-index`, so a
//! pool of rigs drains the plan and a dead rig's shard is retried
//! elsewhere.
//!
//! **Disk pressure**: `--cache-max-bytes N` evicts the profile cache
//! LRU-by-mtime down to `N` bytes after the sweep, never touching entries
//! this run wrote or read (offline alternative: the `cache` bin).

use portopt_bench::{coordinator, BinArgs};
use portopt_core::{generate_with_cache, open_profile_cache, Dataset, ShardSpec, SweepReport};
use portopt_exec::DiskCache;
use portopt_experiments::suite_modules;
use portopt_ir::Module;

/// Opens this run's profile cache before any work, exiting 2 if it
/// cannot: a sweep that could not resume must not start.
fn open_cache(args: &BinArgs) -> DiskCache {
    let dir = args.profile_cache_dir();
    open_profile_cache(&dir).unwrap_or_else(|e| {
        portopt_trace::error!("bench.sweep", "cannot open profile cache {dir}: {e}");
        std::process::exit(2);
    })
}

fn print_cache_stats(cache: &DiskCache) {
    let s = cache.stats();
    println!(
        "profile cache: {} hits, {} misses, {} rejected ({})",
        s.hits,
        s.misses,
        s.rejected,
        cache.dir().display(),
    );
}

/// Evicts the profile cache down to `max_bytes` (entries touched by this
/// run are protected) and reports what happened.
fn gc_cache(cache: &DiskCache, max_bytes: u64) {
    match cache.gc(max_bytes) {
        Ok(r) => {
            println!(
                "cache gc: evicted {} entries ({} bytes), kept {} ({} bytes, \
                 {} protected), budget {max_bytes} bytes {}",
                r.evicted,
                r.evicted_bytes,
                r.kept,
                r.kept_bytes,
                r.protected,
                if r.met_budget(max_bytes) {
                    "met"
                } else {
                    "NOT met (current-run entries exceed it)"
                },
            );
        }
        Err(e) => portopt_trace::warn!("bench.sweep", "cache gc failed: {e}"),
    }
}

/// Sweeps one shard against the profile cache.
fn sweep_shard(
    args: &BinArgs,
    spec: &ShardSpec,
    pairs: &[(String, Module)],
    cache: &DiskCache,
) -> (Dataset, SweepReport) {
    let mine = spec.slice(pairs);
    let sp = portopt_trace::span(
        "bench.sweep",
        "sweep_shard",
        &[
            ("shard_index", (spec.index() as u64).into()),
            ("shard_count", (spec.count() as u64).into()),
            ("programs", (mine.len() as u64).into()),
        ],
    );
    let (ds, report) = generate_with_cache(mine, &args.gen_options(), Some(cache));
    sp.close_with(&[("wall_secs", report.wall_secs.into())]);
    (ds, report)
}

/// Fleet mode: drain shard leases from the coordinator until the plan is
/// finished. Every lease shares one profile cache, so a worker killed
/// mid-lease and restarted profiles only what its last run did not.
fn run_as_worker(args: &BinArgs, addr: &str) -> ! {
    let cache = open_cache(args);
    let (pairs, _) = suite_modules(2009);
    let name = format!(
        "worker-{}-{}",
        std::process::id(),
        std::env::var("HOSTNAME").unwrap_or_else(|_| "rig".into())
    );
    println!("sweep worker {name}: taking leases from {addr}");
    let outcome = coordinator::run_worker(addr, &name, |index, count| {
        let spec = ShardSpec::new(index, count).map_err(|e| e.to_string())?;
        println!("worker {name}: sweeping shard {index}/{count}");
        let (ds, report) = sweep_shard(args, &spec, &pairs, &cache);
        portopt_trace::info!(
            "bench.sweep",
            { wall_secs = report.wall_secs },
            "worker {name}: shard {index}/{count} done in {:.2}s",
            report.wall_secs
        );
        Ok(ds)
    });
    print_cache_stats(&cache);
    if let Some(max) = args.cache_max_bytes {
        gc_cache(&cache, max);
    }
    match outcome {
        Ok(o) => {
            println!(
                "worker {name}: plan finished ({} shards swept, {} refused)",
                o.shards_swept, o.refused
            );
            BinArgs::finish_trace();
            std::process::exit(0);
        }
        Err(e) => {
            portopt_trace::error!("bench.sweep", "worker {name}: {e}");
            BinArgs::finish_trace();
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = BinArgs::parse();
    if let Some(addr) = args.worker.clone() {
        run_as_worker(&args, &addr);
    }

    let spec = ShardSpec::new(args.shard_index, args.shard_count).unwrap_or_else(|e| {
        portopt_trace::error!("bench.sweep", "bad shard spec: {e}");
        std::process::exit(2);
    });
    // Fail fast: a bad --out or cache directory must cost seconds, not a
    // full sweep.
    let out = args.shard_path();
    if let Err(e) = BinArgs::ensure_writable(&out) {
        portopt_trace::error!("bench.sweep", "refusing to sweep: {e}");
        std::process::exit(2);
    }
    let cache = open_cache(&args);

    let (pairs, _) = suite_modules(2009);
    let range = spec.range(pairs.len());
    println!(
        "sweep shard {}/{}: programs [{}..{}) of {} ({} uarchs x {} settings, scale {})",
        spec.index(),
        spec.count(),
        range.start,
        range.end,
        pairs.len(),
        args.scale.n_uarch,
        args.scale.n_opts,
        args.scale_name,
    );

    let (ds, report) = sweep_shard(&args, &spec, &pairs, &cache);
    args.write_report(&report);
    print_cache_stats(&cache);
    BinArgs::write_dataset(&out, &ds);
    if let Some(max) = args.cache_max_bytes {
        gc_cache(&cache, max);
    }
    BinArgs::finish_trace();
}
