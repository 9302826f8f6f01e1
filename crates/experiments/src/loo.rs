//! The leave-one-out cross-validation harness of §5.1.1.
//!
//! For every (program, microarchitecture) pair, a model is assembled from
//! all *other* programs on all *other* microarchitectures (normaliser
//! included — no statistic of the test pair leaks into training), the best
//! setting is predicted from the pair's `-O3` counters, and the program is
//! recompiled with the prediction and priced on the test configuration.

use portopt_core::Dataset;
use portopt_exec::Executor;
use portopt_ir::Module;
use portopt_ml::{IidDistribution, DEFAULT_BETA, DEFAULT_K};
use portopt_passes::{compile, OptConfig, OptSpace};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Leave-one-out evaluation output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LooResult {
    /// `model_speedup[p][u]`: speedup over `-O3` of the predicted setting.
    pub model_speedup: Vec<Vec<f64>>,
    /// `best_speedup[p][u]`: the iterative-search upper bound.
    pub best_speedup: Vec<Vec<f64>>,
    /// `predicted[p][u]`: the predicted setting.
    pub predicted: Vec<Vec<OptConfig>>,
}

impl LooResult {
    /// Mean model speedup across the whole space.
    pub fn mean_model(&self) -> f64 {
        crate::stats::mean(
            &self
                .model_speedup
                .iter()
                .flatten()
                .copied()
                .collect::<Vec<_>>(),
        )
    }

    /// Mean best speedup across the whole space.
    pub fn mean_best(&self) -> f64 {
        crate::stats::mean(
            &self
                .best_speedup
                .iter()
                .flatten()
                .copied()
                .collect::<Vec<_>>(),
        )
    }

    /// Fraction of the available improvement captured by the model — the
    /// paper's "67 % of the maximum speedup" headline.
    pub fn fraction_of_best(&self) -> f64 {
        let m = self.mean_model() - 1.0;
        let b = self.mean_best() - 1.0;
        if b <= 0.0 {
            1.0
        } else {
            (m / b).clamp(-1.0, 1.5)
        }
    }

    /// Pearson correlation between model and best speedups over the joint
    /// space (paper: 0.93).
    pub fn correlation(&self) -> f64 {
        let xs: Vec<f64> = self.model_speedup.iter().flatten().copied().collect();
        let ys: Vec<f64> = self.best_speedup.iter().flatten().copied().collect();
        crate::stats::correlation(&xs, &ys)
    }
}

/// Running sums for the leakage-free per-fold normaliser.
struct FoldNormalizer {
    sum: Vec<f64>,
    sumsq: Vec<f64>,
    count: f64,
}

impl FoldNormalizer {
    fn over(ds: &Dataset) -> Self {
        let d = ds.features[0][0].values.len();
        let mut s = FoldNormalizer {
            sum: vec![0.0; d],
            sumsq: vec![0.0; d],
            count: 0.0,
        };
        for row in &ds.features {
            for f in row {
                for (i, v) in f.values.iter().enumerate() {
                    s.sum[i] += v;
                    s.sumsq[i] += v * v;
                }
                s.count += 1.0;
            }
        }
        s
    }

    /// Mean/std excluding program `p` and configuration `u`.
    fn excluding(&self, ds: &Dataset, p: usize, u: usize) -> (Vec<f64>, Vec<f64>) {
        let d = self.sum.len();
        let mut sum = self.sum.clone();
        let mut sumsq = self.sumsq.clone();
        let mut count = self.count;
        let mut remove = |f: &portopt_uarch::FeatureVec| {
            for (i, v) in f.values.iter().enumerate() {
                sum[i] -= v;
                sumsq[i] -= v * v;
            }
            count -= 1.0;
        };
        for uu in 0..ds.n_uarchs() {
            remove(&ds.features[p][uu]);
        }
        for pp in 0..ds.n_programs() {
            if pp != p {
                remove(&ds.features[pp][u]);
            }
        }
        let mean: Vec<f64> = sum.iter().map(|s| s / count).collect();
        let std: Vec<f64> = (0..d)
            .map(|i| {
                let v = (sumsq[i] / count - mean[i] * mean[i]).max(0.0).sqrt();
                if v < 1e-12 {
                    1.0
                } else {
                    v
                }
            })
            .collect();
        (mean, std)
    }
}

/// Runs the full leave-one-out evaluation.
///
/// `modules` must parallel `ds.programs`. `threads` parallelises the
/// compile+profile work for predicted settings (`0` = all available
/// cores).
pub fn run_loo(ds: &Dataset, modules: &[Module], threads: usize) -> LooResult {
    let np = ds.n_programs();
    let nu = ds.n_uarchs();
    assert_eq!(modules.len(), np, "modules must match dataset programs");
    let dims: Vec<usize> = OptSpace::dims().iter().map(|d| d.cardinality).collect();

    // Pre-fit the per-pair good-set distributions once.
    let dists: Vec<Vec<IidDistribution>> = (0..np)
        .map(|p| {
            (0..nu)
                .map(|u| {
                    let good: Vec<Vec<u8>> = ds
                        .good_set(p, u, portopt_core::GOOD_FRACTION)
                        .into_iter()
                        .map(|c| ds.configs[c].to_choices())
                        .collect();
                    IidDistribution::fit(&dims, &good)
                })
                .collect()
        })
        .collect();

    let norm = FoldNormalizer::over(ds);

    // Predict per test pair with an inline KNN (k nearest over the fold's
    // training points, softmax-weighted mixture, mode decode) — equivalent
    // to portopt_ml::KnnModel but without rebuilding the model 7 000 times.
    let mut predicted: Vec<Vec<OptConfig>> = vec![Vec::with_capacity(nu); np];
    for p in 0..np {
        for u in 0..nu {
            let (mean, std) = norm.excluding(ds, p, u);
            let z = |f: &portopt_uarch::FeatureVec| -> Vec<f64> {
                f.values
                    .iter()
                    .zip(&mean)
                    .zip(&std)
                    .map(|((v, m), s)| (v - m) / s)
                    .collect()
            };
            let xq = z(&ds.features[p][u]);
            let mut near: Vec<(f64, usize, usize)> = Vec::with_capacity((np - 1) * (nu - 1));
            for pp in 0..np {
                if pp == p {
                    continue;
                }
                for uu in 0..nu {
                    if uu == u {
                        continue;
                    }
                    let xt = z(&ds.features[pp][uu]);
                    let d2: f64 = xt.iter().zip(&xq).map(|(a, b)| (a - b) * (a - b)).sum();
                    near.push((d2.sqrt(), pp, uu));
                }
            }
            near.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let k = DEFAULT_K.min(near.len());
            let dmin = near[0].0;
            let parts: Vec<(f64, &IidDistribution)> = near[..k]
                .iter()
                .map(|&(d, pp, uu)| ((-DEFAULT_BETA * (d - dmin)).exp(), &dists[pp][uu]))
                .collect();
            let mode = IidDistribution::mix(&parts).mode();
            predicted[p].push(OptConfig::from_choices(&mode));
        }
    }

    // Price each predicted setting on the executor:
    // compile+profile once per distinct (program, setting), evaluate per
    // configuration with the per-profile tables prepared once
    // (`portopt_core::dataset::price_image`, the same kernel dataset
    // generation uses).
    let model_speedup: Vec<Vec<f64>> = Executor::new(threads).map_indexed(np, |p| {
        let module = &modules[p];
        // Two-level cache, as in dataset generation: by setting (a
        // prediction repeated across configurations is compiled once) and
        // by compiled-image fingerprint (distinct predictions that lower
        // to the same binary share one profiling run).
        let mut by_cfg: HashMap<Vec<u8>, Arc<Vec<f64>>> = HashMap::new();
        let mut by_img: HashMap<u64, Arc<Vec<f64>>> = HashMap::new();
        let mut row = vec![0.0; nu];
        for u in 0..nu {
            let cfg = predicted[p][u];
            let key = cfg.to_choices();
            let per_uarch = match by_cfg.get(&key) {
                Some(hit) => hit.clone(),
                None => {
                    let img = compile(module, &cfg);
                    let fp = img.fingerprint();
                    let per_uarch = match by_img.get(&fp) {
                        Some(hit) => hit.clone(),
                        None => {
                            let shared = Arc::new(portopt_core::dataset::price_image(
                                &img, module, &ds.uarchs,
                            ));
                            by_img.insert(fp, shared.clone());
                            shared
                        }
                    };
                    by_cfg.insert(key, per_uarch.clone());
                    per_uarch
                }
            };
            row[u] = ds.o3_cycles[p][u] / per_uarch[u];
        }
        row
    });

    let best_speedup: Vec<Vec<f64>> = (0..np)
        .map(|p| (0..nu).map(|u| ds.best_speedup(p, u)).collect())
        .collect();

    LooResult {
        model_speedup,
        best_speedup,
        predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_core::{generate, GenOptions, SweepScale};
    use portopt_mibench::{suite, Workload};

    #[test]
    fn loo_smoke_on_suite_subset() {
        // 6 programs, tiny scale: the whole pipeline must run and produce
        // sane speedups.
        let progs: Vec<_> = suite(Workload::default()).into_iter().take(6).collect();
        let pairs: Vec<(String, Module)> = progs
            .iter()
            .map(|p| (p.name.to_string(), p.module.clone()))
            .collect();
        let ds = generate(
            &pairs,
            &GenOptions {
                scale: SweepScale {
                    n_uarch: 4,
                    n_opts: 24,
                },
                seed: 3,
                extended_space: false,
                threads: 2,
            },
        );
        let modules: Vec<Module> = pairs.iter().map(|(_, m)| m.clone()).collect();
        let r = run_loo(&ds, &modules, 2);
        let mm = r.mean_model();
        let mb = r.mean_best();
        assert!(mb >= 1.0, "best must beat or match O3: {mb}");
        assert!(mm > 0.5 && mm < mb + 0.3, "model mean {mm} vs best {mb}");
        // The matrix shape.
        assert_eq!(r.model_speedup.len(), 6);
        assert_eq!(r.model_speedup[0].len(), 4);
        // Correlation is a well-defined number.
        let c = r.correlation();
        assert!((-1.0..=1.0).contains(&c));
    }
}
