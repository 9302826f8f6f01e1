//! Trains a `PortableCompiler` and writes a versioned model snapshot —
//! the offline half of the serving path. Serving then never regenerates
//! the dataset: `serve --snapshot <file>` answers predictions from this
//! artifact alone.
//!
//! ```text
//! # train at smoke scale (cached dataset) and write target/portopt-model-smoke.snap
//! cargo run --release -p portopt-bench --bin snapshot -- --scale smoke
//!
//! # train another model kind from the zoo on the same dataset
//! cargo run --release -p portopt-bench --bin snapshot -- --scale smoke --model linear
//!
//! # train from pre-swept dataset shards (e.g. one per rig) instead
//! cargo run --release -p portopt-bench --bin snapshot -- \
//!     --shard rig0.json --shard rig1.json --out model.snap
//! ```

use portopt_bench::BinArgs;
use portopt_core::{Dataset, TrainOptions};
use portopt_serve::Snapshot;

fn load_shard(path: &str) -> Dataset {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        portopt_trace::error!("bench.snapshot", "cannot read shard {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_slice(&bytes).unwrap_or_else(|e| {
        portopt_trace::error!("bench.snapshot", "shard {path} is not a dataset: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = BinArgs::parse();
    // Fail fast: a bad output path must cost seconds, not a regeneration
    // sweep plus a training run.
    for path in std::iter::once(args.snapshot_path()).chain(args.dataset_out.iter().cloned()) {
        if let Err(e) = BinArgs::ensure_writable(&path) {
            portopt_trace::error!("bench.snapshot", "refusing to train: {e}");
            std::process::exit(2);
        }
    }
    let ds = if args.shards.is_empty() {
        args.dataset()
    } else {
        let shards: Vec<Dataset> = args.shards.iter().map(|p| load_shard(p)).collect();
        Dataset::merge(shards).unwrap_or_else(|e| {
            portopt_trace::error!("bench.snapshot", "cannot merge shards: {e}");
            std::process::exit(2);
        })
    };
    // `--dataset-out`: persist the exact (merged) dataset this snapshot
    // trains on — the artifact the sharded-sweep CI job diffs against an
    // unsharded sweep's output.
    if let Some(path) = &args.dataset_out {
        BinArgs::write_dataset(path, &ds);
    }
    let train_span = portopt_trace::span(
        "bench.snapshot",
        "train",
        &[("programs", (ds.n_programs() as u64).into())],
    );
    let opts = TrainOptions {
        model: args.model,
        ..TrainOptions::default()
    };
    let snap = Snapshot::try_train(&ds, &opts).unwrap_or_else(|e| {
        portopt_trace::error!("bench.snapshot", "cannot train on this dataset: {e}");
        std::process::exit(2);
    });
    train_span.close_with(&[("pairs", (snap.compiler.model().len() as u64).into())]);
    let path = args.snapshot_path();
    if let Err(e) = snap.save(&path) {
        portopt_trace::error!("bench.snapshot", "cannot write snapshot {path}: {e}");
        std::process::exit(2);
    }
    let m = &snap.meta;
    println!(
        "wrote {path}: format v{}, {} model, {} training pairs ({} programs x {} uarchs, \
         {} settings each), {} features, {}-dim pass space, k={}, beta={}",
        m.format_version,
        m.model_kind,
        snap.compiler.model().len(),
        m.programs,
        m.uarchs,
        m.settings,
        m.feature_dim,
        m.pass_space.len(),
        m.k,
        m.beta,
    );
    BinArgs::finish_trace();
}
