//! Per-layer timings taken from outside the program: each crate's public
//! entry point is called on the run's own inputs and timed around the
//! call, so no program code carries benchmark instrumentation.

use crate::loadgen::Expect;
use portopt_ir::interp::ExecLimits;
use portopt_ir::Module;
use portopt_passes::{compile, OptConfig};
use portopt_serve::{ApplyStats, PredictionService, ServiceStats, Snapshot, LOCAL_CONN};
use portopt_sim::{evaluate, profile};
use portopt_uarch::MicroArch;
use std::hint::black_box;
use std::time::Instant;

/// The profiling budget of both the sweep and the service.
pub const PROFILE_LIMITS: ExecLimits = ExecLimits {
    fuel: 100_000_000,
    max_depth: 2048,
};

/// Busy time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    /// Calls timed.
    pub calls: u64,
    /// Summed duration of those calls, in ns.
    pub ns: u64,
}

impl Busy {
    /// Runs `f`, adding its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Mean duration per call in `unit_ns` units.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64 / unit_ns
    }

    /// Summed duration in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Adds another tally.
    pub fn add(&mut self, o: Busy) {
        self.calls += o.calls;
        self.ns += o.ns;
    }
}

/// The module (deployment) path's layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModuleLayers {
    /// `portopt_passes::compile`.
    pub compile: Busy,
    /// `portopt_sim::profile`.
    pub profile: Busy,
    /// Dynamic instructions profiled.
    pub dyn_insts: u64,
    /// `portopt_sim::evaluate`, one call per priced cell.
    pub evaluate: Busy,
    /// `PortableCompiler::predict_from_counters`.
    pub predict: Busy,
}

/// What `serve` answers to a module request — the same public calls its
/// request kernel makes, in the same order — with each call timed.
pub fn price_module(
    snapshot: &Snapshot,
    module: &Module,
    uarch: &MicroArch,
    apply: bool,
    t: &mut ModuleLayers,
) -> Result<Expect, String> {
    let mut run = |cfg: &OptConfig| {
        let img = t.compile.time(|| compile(module, cfg));
        let prof = t
            .profile
            .time(|| profile(&img, module, &[], PROFILE_LIMITS))
            .map_err(|e| format!("profiling failed: {e:?}"))?;
        t.dyn_insts += prof.dyn_insts;
        Ok::<_, String>(t.evaluate.time(|| evaluate(&img, &prof, uarch)))
    };
    let o3 = run(&OptConfig::o3())?;
    let cfg = t
        .predict
        .time(|| snapshot.compiler.predict_from_counters(&o3.counters, uarch));
    let stats = if apply {
        let predicted = run(&cfg)?;
        Some(ApplyStats {
            o3_cycles: o3.cycles,
            predicted_cycles: predicted.cycles,
            speedup: o3.cycles / predicted.cycles,
        })
    } else {
        None
    };
    Ok(Expect::Module {
        choices: cfg.to_choices(),
        stats,
    })
}

/// The feature-request hot path's layers, per request.
#[derive(Debug, Clone, Copy)]
pub struct ServeLayers {
    /// `classify_and_submit` on canonical lines (the fast decoder), ns.
    pub decode_fast_ns: f64,
    /// `classify_and_submit` on key-reordered lines (the tree decoder), ns.
    pub decode_tree_ns: f64,
    /// `predict_features_choices`, ns.
    pub predict_ns: f64,
    /// `drain` at the given batch size, wall ns per request.
    pub drain_ns: f64,
    /// Executor thread time per request not spent predicting:
    /// threads × drain − predict, ns.
    pub fanout_ns: f64,
    /// `serde_json::to_string(&ServeResponse)`, ns.
    pub encode_ns: f64,
    /// Predict time over the executor's thread time in `drain`.
    pub parallel_efficiency: f64,
}

/// Times the in-process feature path on `lines` (full request lines, each
/// with its feature vector and whether it takes the tree decoder),
/// draining every `batch` lines as the server's batcher would.
pub fn serve_layers(
    snapshot: &Snapshot,
    lines: &[(String, Vec<f64>, bool)],
    batch: usize,
) -> ServeLayers {
    const ROUNDS: usize = 4;
    let service = PredictionService::new(snapshot.clone(), 0);
    let threads = portopt_exec::available_threads() as f64;
    let [mut fast, mut tree, mut drain, mut encode, mut predict] = [Busy::default(); 5];
    let mut stats = ServiceStats::default();
    for _ in 0..ROUNDS {
        for chunk in lines.chunks(batch.max(1)) {
            for (line, _, is_tree) in chunk {
                let b: &mut Busy = if *is_tree { &mut tree } else { &mut fast };
                b.time(|| black_box(service.classify_and_submit(LOCAL_CONN, line)));
            }
            let replies = drain.time(|| service.drain(&mut stats));
            // Count requests, not drains: the figure is per request.
            drain.calls += (replies.len() as u64).saturating_sub(1);
            for r in &replies {
                let _ = encode.time(|| black_box(serde_json::to_string(r)));
            }
        }
        for (_, values, _) in lines {
            predict.time(|| black_box(snapshot.compiler.predict_features_choices(values)));
        }
    }
    let (predict_ns, drain_ns) = (predict.mean(1.0), drain.mean(1.0));
    ServeLayers {
        decode_fast_ns: fast.mean(1.0),
        decode_tree_ns: tree.mean(1.0),
        predict_ns,
        drain_ns,
        fanout_ns: threads * drain_ns - predict_ns,
        encode_ns: encode.mean(1.0),
        parallel_efficiency: predict_ns / (threads * drain_ns),
    }
}

/// Median time of five `Snapshot::load` calls on `path`, in ms.
pub fn snapshot_load_ms(path: &std::path::Path) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        Snapshot::load(path).map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&ms))
}
