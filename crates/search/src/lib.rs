//! # portopt-search
//!
//! Iterative-compilation search strategies over the Figure 3 optimisation
//! space. The paper's "Best" upper bound is [`random_search`] with 1000
//! uniform-random evaluations (§4.3); [`genetic_search`],
//! [`hill_climb`] and [`combined_elimination`] reproduce the related-work
//! baselines (refs.\[24\], \[2\] and Pan & Eigenmann \[30\] of the paper).
//!
//! All searches work against an opaque cost function (lower is better —
//! cycles, in the experiments) so they are reusable for any objective, and
//! record their full [`Trace`] so convergence plots (the paper's "≈50
//! iterations to match the model" claim, §5.3) fall out for free.

#![warn(missing_docs)]

use portopt_passes::{OptConfig, OptSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One evaluated point.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The evaluated configuration.
    pub config: OptConfig,
    /// Its cost (lower is better).
    pub cost: f64,
}

/// A full search trajectory.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every evaluation, in order.
    pub samples: Vec<Sample>,
}

impl Trace {
    /// The best sample found.
    ///
    /// # Panics
    /// Panics if the trace is empty.
    pub fn best(&self) -> &Sample {
        self.samples
            .iter()
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .expect("empty trace")
    }

    /// Best cost after each evaluation (the convergence curve).
    pub fn convergence(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.samples
            .iter()
            .map(|s| {
                best = best.min(s.cost);
                best
            })
            .collect()
    }

    /// Number of evaluations needed to reach a cost of at most `target`,
    /// if ever.
    pub fn evals_to_reach(&self, target: f64) -> Option<usize> {
        self.convergence()
            .iter()
            .position(|&c| c <= target)
            .map(|i| i + 1)
    }
}

/// Uniform-random iterative search: the paper's 1000-evaluation "Best".
pub fn random_search(evals: usize, seed: u64, mut cost: impl FnMut(&OptConfig) -> f64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::default();
    for _ in 0..evals {
        let config = OptConfig::sample(&mut rng);
        let c = cost(&config);
        trace.samples.push(Sample { config, cost: c });
    }
    trace
}

/// Mutates one configuration: each dimension re-rolls with probability
/// `rate`.
fn mutate(cfg: &OptConfig, rate: f64, rng: &mut StdRng) -> OptConfig {
    let mut choices = cfg.to_choices();
    for (c, d) in choices.iter_mut().zip(OptSpace::dims()) {
        if rng.gen_bool(rate) {
            *c = rng.gen_range(0..d.cardinality) as u8;
        }
    }
    OptConfig::from_choices(&choices)
}

/// Uniform crossover of two configurations.
fn crossover(a: &OptConfig, b: &OptConfig, rng: &mut StdRng) -> OptConfig {
    let (ca, cb) = (a.to_choices(), b.to_choices());
    let mixed: Vec<u8> = ca
        .iter()
        .zip(&cb)
        .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
        .collect();
    OptConfig::from_choices(&mixed)
}

/// Genetic-algorithm search (Cooper/Kulkarni-style): tournament selection,
/// uniform crossover, per-gene mutation. `evals` bounds total cost-function
/// calls.
pub fn genetic_search(evals: usize, seed: u64, mut cost: impl FnMut(&OptConfig) -> f64) -> Trace {
    const POP: usize = 20;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::default();
    let eval = |cfg: OptConfig, trace: &mut Trace, cost: &mut dyn FnMut(&OptConfig) -> f64| {
        let c = cost(&cfg);
        trace.samples.push(Sample {
            config: cfg,
            cost: c,
        });
        c
    };

    let mut pop: Vec<(OptConfig, f64)> = Vec::with_capacity(POP);
    for _ in 0..POP.min(evals) {
        let cfg = OptConfig::sample(&mut rng);
        let c = eval(cfg, &mut trace, &mut cost);
        pop.push((cfg, c));
    }
    while trace.samples.len() < evals {
        // Tournament of 3.
        let pick = |rng: &mut StdRng, pop: &[(OptConfig, f64)]| -> OptConfig {
            let mut best: Option<(OptConfig, f64)> = None;
            for _ in 0..3 {
                let c = pop[rng.gen_range(0..pop.len())];
                if best.is_none() || c.1 < best.expect("set").1 {
                    best = Some(c);
                }
            }
            best.expect("non-empty tournament").0
        };
        let pa = pick(&mut rng, &pop);
        let pb = pick(&mut rng, &pop);
        let child = mutate(&crossover(&pa, &pb, &mut rng), 0.05, &mut rng);
        let c = eval(child, &mut trace, &mut cost);
        // Replace the worst member.
        let worst = pop
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty population");
        if c < pop[worst].1 {
            pop[worst] = (child, c);
        }
    }
    trace
}

/// Random-restart hill climbing (Almagor et al. style): first-improvement
/// over single-dimension moves.
pub fn hill_climb(evals: usize, seed: u64, mut cost: impl FnMut(&OptConfig) -> f64) -> Trace {
    let dims = OptSpace::dims();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Trace::default();

    while trace.samples.len() < evals {
        // Restart.
        let mut cur = OptConfig::sample(&mut rng);
        let mut cur_cost = cost(&cur);
        trace.samples.push(Sample {
            config: cur,
            cost: cur_cost,
        });
        let mut improved = true;
        while improved && trace.samples.len() < evals {
            improved = false;
            // Visit dimensions in random order.
            let mut order: Vec<usize> = (0..dims.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            'dims: for &d in &order {
                let cur_choices = cur.to_choices();
                for v in 0..dims[d].cardinality as u8 {
                    if v == cur_choices[d] {
                        continue;
                    }
                    let mut cand = cur_choices.clone();
                    cand[d] = v;
                    let cand_cfg = OptConfig::from_choices(&cand);
                    let c = cost(&cand_cfg);
                    trace.samples.push(Sample {
                        config: cand_cfg,
                        cost: c,
                    });
                    if c < cur_cost {
                        cur = cand_cfg;
                        cur_cost = c;
                        improved = true;
                        break 'dims;
                    }
                    if trace.samples.len() >= evals {
                        return trace;
                    }
                }
            }
        }
    }
    trace
}

/// Combined elimination (Pan & Eigenmann, CGO 2006): start from everything
/// on, repeatedly measure each flag's relative improvement when turned off,
/// and greedily disable the ones with negative effect.
pub fn combined_elimination(seed: u64, mut cost: impl FnMut(&OptConfig) -> f64) -> Trace {
    let _ = seed; // deterministic; kept for signature uniformity
    let dims = OptSpace::dims();
    let mut trace = Trace::default();
    let eval = |cfg: OptConfig, trace: &mut Trace, cost: &mut dyn FnMut(&OptConfig) -> f64| {
        let c = cost(&cfg);
        trace.samples.push(Sample {
            config: cfg,
            cost: c,
        });
        c
    };

    // Baseline: everything enabled at defaults (O3-ish point in the space).
    let mut base = OptConfig::o3();
    // Also enable the flags O3 leaves off so elimination has the full set.
    base.unroll_loops = true;
    let mut base_cost = eval(base, &mut trace, &mut cost);

    loop {
        // Measure RIP (relative improvement percentage) of flipping each
        // boolean dimension to 0.
        let base_choices = base.to_choices();
        let mut gains: Vec<(usize, f64)> = Vec::new();
        for (d, dim) in dims.iter().enumerate() {
            if dim.cardinality != 2 || base_choices[d] == 0 {
                continue;
            }
            let mut cand = base_choices.clone();
            cand[d] = 0;
            let c = eval(OptConfig::from_choices(&cand), &mut trace, &mut cost);
            if c < base_cost {
                gains.push((d, base_cost - c));
            }
        }
        if gains.is_empty() {
            return trace;
        }
        // Disable the single most harmful flag and iterate.
        gains.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let (d, _) = gains[0];
        let mut next = base.to_choices();
        next[d] = 0;
        base = OptConfig::from_choices(&next);
        base_cost = eval(base, &mut trace, &mut cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic separable cost: each enabled flag from a "good set"
    /// subtracts, each from a "bad set" adds.
    fn synthetic_cost(cfg: &OptConfig) -> f64 {
        let c = cfg.to_choices();
        let mut cost = 1000.0;
        for (i, &v) in c.iter().enumerate() {
            let v = v as f64;
            if i % 3 == 0 {
                cost -= 5.0 * v; // helpful dimensions
            } else if i % 3 == 1 {
                cost += 3.0 * v; // harmful dimensions
            }
        }
        cost
    }

    #[test]
    fn random_search_improves_with_budget() {
        let t10 = random_search(10, 1, synthetic_cost);
        let t500 = random_search(500, 1, synthetic_cost);
        assert!(t500.best().cost <= t10.best().cost);
        assert_eq!(t500.samples.len(), 500);
    }

    #[test]
    fn convergence_is_monotone() {
        let t = random_search(200, 2, synthetic_cost);
        let conv = t.convergence();
        for w in conv.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(*conv.last().unwrap(), t.best().cost);
    }

    #[test]
    fn evals_to_reach_finds_threshold() {
        let t = random_search(300, 3, synthetic_cost);
        let best = t.best().cost;
        let n = t.evals_to_reach(best).unwrap();
        assert!(n <= 300);
        assert!(t.evals_to_reach(best - 1.0).is_none());
    }

    #[test]
    fn genetic_beats_random_on_separable_cost() {
        let tr = random_search(300, 4, synthetic_cost);
        let tg = genetic_search(300, 4, synthetic_cost);
        // GA should do at least as well on this easy landscape.
        assert!(tg.best().cost <= tr.best().cost + 10.0);
        assert_eq!(tg.samples.len(), 300);
    }

    #[test]
    fn hill_climb_reaches_local_optimum_fast() {
        let t = hill_climb(600, 5, synthetic_cost);
        // The separable optimum: all helpful max, all harmful zero.
        let best = t.best();
        let c = best.config.to_choices();
        let dims = OptSpace::dims();
        let mut optimal = true;
        for (i, d) in dims.iter().enumerate() {
            if i % 3 == 0 && (c[i] as usize) != d.cardinality - 1 {
                optimal = false;
            }
            if i % 3 == 1 && c[i] != 0 {
                optimal = false;
            }
        }
        assert!(optimal, "hill climbing missed the separable optimum");
    }

    #[test]
    fn combined_elimination_disables_harmful_flags() {
        let t = combined_elimination(0, synthetic_cost);
        let best = t.best();
        let c = best.config.to_choices();
        let dims = OptSpace::dims();
        for (i, d) in dims.iter().enumerate() {
            if d.cardinality == 2 && i % 3 == 1 {
                assert_eq!(c[i], 0, "harmful flag {i} left on");
            }
        }
        // CE uses far fewer evaluations than exhaustive search.
        assert!(t.samples.len() < 2000);
    }

    #[test]
    fn searches_are_deterministic_per_seed() {
        let a = random_search(50, 9, synthetic_cost);
        let b = random_search(50, 9, synthetic_cost);
        assert_eq!(a.samples, b.samples);
        let g1 = genetic_search(100, 9, synthetic_cost);
        let g2 = genetic_search(100, 9, synthetic_cost);
        assert_eq!(g1.samples, g2.samples);
    }
}
