//! The compiler optimisation space of the paper (Figure 3).
//!
//! 39 dimensions: 30 on/off pass flags plus 9 integer parameters, matching
//! the gcc 4.2 flags listed in Figures 3, 8 and 9 of Dubach et al. Each
//! dimension is independently selectable, exactly as in the paper's
//! uniform-random sampling of the space.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Menu of values for each integer parameter. Index 0 is the most
/// conservative setting; the gcc 4.2 default is marked in each doc line.
pub mod menus {
    /// `--param max-unrolled-insns` (gcc default 200).
    pub const MAX_UNROLLED_INSNS: [u32; 4] = [50, 100, 200, 400];
    /// `--param max-unroll-times` (gcc default 8).
    pub const MAX_UNROLL_TIMES: [u32; 4] = [2, 4, 8, 16];
    /// `--param inline-call-cost` (gcc default 16).
    pub const INLINE_CALL_COST: [u32; 4] = [12, 16, 24, 32];
    /// `--param inline-unit-growth` (gcc default 50, in percent).
    pub const INLINE_UNIT_GROWTH: [u32; 4] = [25, 50, 100, 200];
    /// `--param large-unit-insns` (gcc default 10000).
    pub const LARGE_UNIT_INSNS: [u32; 3] = [5000, 10000, 20000];
    /// `--param large-function-growth` (gcc default 100, in percent).
    pub const LARGE_FUNCTION_GROWTH: [u32; 4] = [50, 100, 200, 400];
    /// `--param large-function-insns` (gcc default 2700).
    pub const LARGE_FUNCTION_INSNS: [u32; 3] = [1350, 2700, 5400];
    /// `--param max-inline-insns-auto` (gcc default 90).
    pub const MAX_INLINE_INSNS_AUTO: [u32; 5] = [30, 60, 90, 180, 450];
    /// `--param max-gcse-passes` (gcc 4.2 default 1).
    pub const MAX_GCSE_PASSES: [u32; 4] = [1, 2, 3, 4];
}

/// One point in the optimisation space: every flag and parameter of Figure 3.
///
/// Boolean fields mirror gcc's positive flag sense: `gcse_lm: false`
/// corresponds to `-fno-gcse-lm`, `sched_spec: false` to `-fno-sched-spec`,
/// and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are the gcc flag names; documented above
pub struct OptConfig {
    // --- jump/branch level -------------------------------------------------
    pub thread_jumps: bool,
    pub crossjumping: bool,
    pub optimize_sibling_calls: bool,
    // --- CSE family ---------------------------------------------------------
    pub cse_follow_jumps: bool,
    pub cse_skip_blocks: bool,
    pub expensive_optimizations: bool,
    pub strength_reduce: bool,
    pub rerun_cse_after_loop: bool,
    pub rerun_loop_opt: bool,
    // --- register level ------------------------------------------------------
    pub caller_saves: bool,
    pub peephole2: bool,
    pub regmove: bool,
    // --- layout --------------------------------------------------------------
    pub reorder_blocks: bool,
    pub align_functions: bool,
    pub align_jumps: bool,
    pub align_loops: bool,
    pub align_labels: bool,
    // --- tree level ----------------------------------------------------------
    pub tree_vrp: bool,
    pub tree_pre: bool,
    // --- loop level ----------------------------------------------------------
    pub unswitch_loops: bool,
    // --- GCSE family ---------------------------------------------------------
    pub gcse: bool,
    pub gcse_lm: bool,
    pub gcse_sm: bool,
    pub gcse_las: bool,
    pub gcse_after_reload: bool,
    /// Index into [`menus::MAX_GCSE_PASSES`].
    pub max_gcse_passes: u8,
    // --- scheduling ----------------------------------------------------------
    pub schedule_insns: bool,
    pub sched_interblock: bool,
    pub sched_spec: bool,
    // --- inlining ------------------------------------------------------------
    pub inline_functions: bool,
    /// Index into [`menus::MAX_INLINE_INSNS_AUTO`].
    pub max_inline_insns_auto: u8,
    /// Index into [`menus::LARGE_FUNCTION_INSNS`].
    pub large_function_insns: u8,
    /// Index into [`menus::LARGE_FUNCTION_GROWTH`].
    pub large_function_growth: u8,
    /// Index into [`menus::LARGE_UNIT_INSNS`].
    pub large_unit_insns: u8,
    /// Index into [`menus::INLINE_UNIT_GROWTH`].
    pub inline_unit_growth: u8,
    /// Index into [`menus::INLINE_CALL_COST`].
    pub inline_call_cost: u8,
    // --- unrolling -----------------------------------------------------------
    pub unroll_loops: bool,
    /// Index into [`menus::MAX_UNROLL_TIMES`].
    pub max_unroll_times: u8,
    /// Index into [`menus::MAX_UNROLLED_INSNS`].
    pub max_unrolled_insns: u8,
}

impl OptConfig {
    /// `-O0`: everything off, conservative parameters.
    pub fn o0() -> Self {
        OptConfig {
            thread_jumps: false,
            crossjumping: false,
            optimize_sibling_calls: false,
            cse_follow_jumps: false,
            cse_skip_blocks: false,
            expensive_optimizations: false,
            strength_reduce: false,
            rerun_cse_after_loop: false,
            rerun_loop_opt: false,
            caller_saves: false,
            peephole2: false,
            regmove: false,
            reorder_blocks: false,
            align_functions: false,
            align_jumps: false,
            align_loops: false,
            align_labels: false,
            tree_vrp: false,
            tree_pre: false,
            unswitch_loops: false,
            gcse: false,
            gcse_lm: false,
            gcse_sm: false,
            gcse_las: false,
            gcse_after_reload: false,
            max_gcse_passes: 0,
            schedule_insns: false,
            sched_interblock: false,
            sched_spec: false,
            inline_functions: false,
            max_inline_insns_auto: 2,
            large_function_insns: 1,
            large_function_growth: 1,
            large_unit_insns: 1,
            inline_unit_growth: 1,
            inline_call_cost: 1,
            unroll_loops: false,
            max_unroll_times: 2,
            max_unrolled_insns: 2,
        }
    }

    /// `-O1`: cheap scalar cleanups.
    pub fn o1() -> Self {
        OptConfig {
            thread_jumps: true,
            crossjumping: true,
            ..Self::o0()
        }
    }

    /// `-O2`: the full pass set except unrolling and aggressive inlining.
    pub fn o2() -> Self {
        OptConfig {
            optimize_sibling_calls: true,
            cse_follow_jumps: true,
            cse_skip_blocks: true,
            expensive_optimizations: true,
            strength_reduce: true,
            rerun_cse_after_loop: true,
            rerun_loop_opt: true,
            caller_saves: true,
            peephole2: true,
            regmove: true,
            reorder_blocks: true,
            align_functions: true,
            align_jumps: true,
            align_loops: true,
            align_labels: true,
            tree_vrp: true,
            tree_pre: true,
            gcse: true,
            gcse_lm: true,
            schedule_insns: true,
            sched_interblock: true,
            sched_spec: true,
            ..Self::o1()
        }
    }

    /// `-O3`: the paper's baseline — `-O2` plus function inlining,
    /// loop unswitching and the gcse extensions.
    ///
    /// Faithful to gcc: `-O3` does *not* enable `-funroll-loops`, which is
    /// precisely why per-program flag selection can beat it.
    pub fn o3() -> Self {
        OptConfig {
            inline_functions: true,
            unswitch_loops: true,
            gcse_sm: true,
            gcse_las: true,
            gcse_after_reload: true,
            ..Self::o2()
        }
    }

    /// Draws a uniform-random point from the full space (paper §4.3).
    pub fn sample(rng: &mut impl Rng) -> Self {
        let dims = OptSpace::dims();
        let choices: Vec<u8> = dims
            .iter()
            .map(|d| rng.gen_range(0..d.cardinality) as u8)
            .collect();
        Self::from_choices(&choices)
    }

    /// Encodes the configuration as one choice index per dimension, in
    /// [`OptSpace::dims`] order. This is the representation the IID
    /// multinomial model in `portopt-ml` is fitted over.
    pub fn to_choices(&self) -> Vec<u8> {
        vec![
            self.thread_jumps as u8,
            self.crossjumping as u8,
            self.optimize_sibling_calls as u8,
            self.cse_follow_jumps as u8,
            self.cse_skip_blocks as u8,
            self.expensive_optimizations as u8,
            self.strength_reduce as u8,
            self.rerun_cse_after_loop as u8,
            self.rerun_loop_opt as u8,
            self.caller_saves as u8,
            self.peephole2 as u8,
            self.regmove as u8,
            self.reorder_blocks as u8,
            self.align_functions as u8,
            self.align_jumps as u8,
            self.align_loops as u8,
            self.align_labels as u8,
            self.tree_vrp as u8,
            self.tree_pre as u8,
            self.unswitch_loops as u8,
            self.gcse as u8,
            self.gcse_lm as u8,
            self.gcse_sm as u8,
            self.gcse_las as u8,
            self.gcse_after_reload as u8,
            self.max_gcse_passes,
            self.schedule_insns as u8,
            self.sched_interblock as u8,
            self.sched_spec as u8,
            self.inline_functions as u8,
            self.max_inline_insns_auto,
            self.large_function_insns,
            self.large_function_growth,
            self.large_unit_insns,
            self.inline_unit_growth,
            self.inline_call_cost,
            self.unroll_loops as u8,
            self.max_unroll_times,
            self.max_unrolled_insns,
        ]
    }

    /// Decodes a choice vector produced by [`OptConfig::to_choices`].
    ///
    /// # Panics
    /// Panics if `choices` has the wrong length or an out-of-range index.
    pub fn from_choices(choices: &[u8]) -> Self {
        assert_eq!(choices.len(), DIMS.len(), "choice vector length");
        for (c, d) in choices.iter().zip(&DIMS) {
            assert!(
                (*c as usize) < d.cardinality,
                "choice {c} out of range for {}",
                d.name
            );
        }
        let b = |i: usize| choices[i] != 0;
        OptConfig {
            thread_jumps: b(0),
            crossjumping: b(1),
            optimize_sibling_calls: b(2),
            cse_follow_jumps: b(3),
            cse_skip_blocks: b(4),
            expensive_optimizations: b(5),
            strength_reduce: b(6),
            rerun_cse_after_loop: b(7),
            rerun_loop_opt: b(8),
            caller_saves: b(9),
            peephole2: b(10),
            regmove: b(11),
            reorder_blocks: b(12),
            align_functions: b(13),
            align_jumps: b(14),
            align_loops: b(15),
            align_labels: b(16),
            tree_vrp: b(17),
            tree_pre: b(18),
            unswitch_loops: b(19),
            gcse: b(20),
            gcse_lm: b(21),
            gcse_sm: b(22),
            gcse_las: b(23),
            gcse_after_reload: b(24),
            max_gcse_passes: choices[25],
            schedule_insns: b(26),
            sched_interblock: b(27),
            sched_spec: b(28),
            inline_functions: b(29),
            max_inline_insns_auto: choices[30],
            large_function_insns: choices[31],
            large_function_growth: choices[32],
            large_unit_insns: choices[33],
            inline_unit_growth: choices[34],
            inline_call_cost: choices[35],
            unroll_loops: b(36),
            max_unroll_times: choices[37],
            max_unrolled_insns: choices[38],
        }
    }

    // --- parameter accessors (resolved through the menus) -------------------

    /// Resolved `max-unrolled-insns` value.
    pub fn max_unrolled_insns_value(&self) -> u32 {
        menus::MAX_UNROLLED_INSNS[self.max_unrolled_insns as usize]
    }
    /// Resolved `max-unroll-times` value.
    pub fn max_unroll_times_value(&self) -> u32 {
        menus::MAX_UNROLL_TIMES[self.max_unroll_times as usize]
    }
    /// Resolved `inline-call-cost` value.
    pub fn inline_call_cost_value(&self) -> u32 {
        menus::INLINE_CALL_COST[self.inline_call_cost as usize]
    }
    /// Resolved `inline-unit-growth` value (percent).
    pub fn inline_unit_growth_value(&self) -> u32 {
        menus::INLINE_UNIT_GROWTH[self.inline_unit_growth as usize]
    }
    /// Resolved `large-unit-insns` value.
    pub fn large_unit_insns_value(&self) -> u32 {
        menus::LARGE_UNIT_INSNS[self.large_unit_insns as usize]
    }
    /// Resolved `large-function-growth` value (percent).
    pub fn large_function_growth_value(&self) -> u32 {
        menus::LARGE_FUNCTION_GROWTH[self.large_function_growth as usize]
    }
    /// Resolved `large-function-insns` value.
    pub fn large_function_insns_value(&self) -> u32 {
        menus::LARGE_FUNCTION_INSNS[self.large_function_insns as usize]
    }
    /// Resolved `max-inline-insns-auto` value.
    pub fn max_inline_insns_auto_value(&self) -> u32 {
        menus::MAX_INLINE_INSNS_AUTO[self.max_inline_insns_auto as usize]
    }
    /// Resolved `max-gcse-passes` value.
    pub fn max_gcse_passes_value(&self) -> u32 {
        menus::MAX_GCSE_PASSES[self.max_gcse_passes as usize]
    }
}

impl Default for OptConfig {
    /// The paper's baseline: `-O3`.
    fn default() -> Self {
        Self::o3()
    }
}

/// A dimension of the optimisation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptDim {
    /// gcc-style name, as printed in the paper's figures.
    pub name: &'static str,
    /// Number of selectable values (2 for on/off flags).
    pub cardinality: usize,
}

/// An on/off flag dimension.
const fn flag(name: &'static str) -> OptDim {
    OptDim {
        name,
        cardinality: 2,
    }
}

/// An integer parameter dimension choosing from `menu`.
const fn param(name: &'static str, menu: &[u32]) -> OptDim {
    OptDim {
        name,
        cardinality: menu.len(),
    }
}

/// The one table of the space, behind [`OptSpace::dims`] and the
/// validation in [`OptConfig::from_choices`].
const DIMS: [OptDim; 39] = [
    flag("fthread_jumps"),
    flag("fcrossjumping"),
    flag("foptimize_sibling_calls"),
    flag("fcse_follow_jumps"),
    flag("fcse_skip_blocks"),
    flag("fexpensive_optimizations"),
    flag("fstrength_reduce"),
    flag("fre_run_cse_after_loop"),
    flag("frerun_loop_opt"),
    flag("fcaller_saves"),
    flag("fpeephole2"),
    flag("fregmove"),
    flag("freorder_blocks"),
    flag("falign_functions"),
    flag("falign_jumps"),
    flag("falign_loops"),
    flag("falign_labels"),
    flag("ftree_vrp"),
    flag("ftree_pre"),
    flag("funswitch_loops"),
    flag("fgcse"),
    flag("fno_gcse_lm"),
    flag("fgcse_sm"),
    flag("fgcse_las"),
    flag("fgcse_after_reload"),
    param("param_max_gcse_passes", &menus::MAX_GCSE_PASSES),
    flag("fschedule_insns"),
    flag("fno_sched_interblock"),
    flag("fno_sched_spec"),
    flag("finline_functions"),
    param("param_max_inline_insns_auto", &menus::MAX_INLINE_INSNS_AUTO),
    param("param_large_function_insns", &menus::LARGE_FUNCTION_INSNS),
    param("param_large_function_growth", &menus::LARGE_FUNCTION_GROWTH),
    param("param_large_unit_insns", &menus::LARGE_UNIT_INSNS),
    param("param_inline_unit_growth", &menus::INLINE_UNIT_GROWTH),
    param("param_inline_call_cost", &menus::INLINE_CALL_COST),
    flag("funroll_loops"),
    param("param_max_unroll_times", &menus::MAX_UNROLL_TIMES),
    param("param_max_unrolled_insns", &menus::MAX_UNROLLED_INSNS),
];

/// Static description of the whole space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptSpace;

impl OptSpace {
    /// The 39 dimensions in canonical ([`OptConfig::to_choices`]) order,
    /// named exactly as in Figure 8 of the paper.
    pub fn dims() -> &'static [OptDim] {
        &DIMS
    }

    /// Number of dimensions (39).
    pub fn n_dims() -> usize {
        Self::dims().len()
    }

    /// `(flag-only combinations, total combinations)` — the counts the paper
    /// quotes as "642 million" and "1.69e17" for its gcc space.
    pub fn combination_counts() -> (f64, f64) {
        let mut flags = 1.0f64;
        let mut total = 1.0f64;
        for d in &DIMS {
            total *= d.cardinality as f64;
            if d.cardinality == 2 {
                flags *= 2.0;
            }
        }
        (flags, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn choices_round_trip_for_presets() {
        for cfg in [
            OptConfig::o0(),
            OptConfig::o1(),
            OptConfig::o2(),
            OptConfig::o3(),
        ] {
            let c = cfg.to_choices();
            assert_eq!(OptConfig::from_choices(&c), cfg);
            assert_eq!(c.len(), OptSpace::n_dims());
        }
    }

    #[test]
    fn choices_round_trip_for_random_samples() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let cfg = OptConfig::sample(&mut rng);
            assert_eq!(OptConfig::from_choices(&cfg.to_choices()), cfg);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a: Vec<OptConfig> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| OptConfig::sample(&mut rng)).collect()
        };
        let b: Vec<OptConfig> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| OptConfig::sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn o3_is_superset_of_o2_flags() {
        let o2 = OptConfig::o2().to_choices();
        let o3 = OptConfig::o3().to_choices();
        let dims = OptSpace::dims();
        for ((a, b), d) in o2.iter().zip(&o3).zip(dims) {
            if d.cardinality == 2 {
                assert!(b >= a, "{} regressed from O2 to O3", d.name);
            }
        }
    }

    #[test]
    fn space_sizes_match_paper_magnitudes() {
        let (flags, total) = OptSpace::combination_counts();
        // 30 on/off flags -> ~1.07e9 (paper: 642e6 for its 29.26-bit space).
        assert!(flags >= 5e8 && flags <= 2e9, "flags = {flags}");
        // Full space ~1e14..1e18 (paper: 1.69e17).
        assert!(total >= 1e13 && total <= 1e19, "total = {total}");
    }

    #[test]
    fn dim_names_are_unique() {
        let dims = OptSpace::dims();
        let mut names: Vec<_> = dims.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), dims.len());
    }

    #[test]
    fn parameter_accessors_resolve_menus() {
        let cfg = OptConfig::o3();
        assert_eq!(cfg.max_unroll_times_value(), 8);
        assert_eq!(cfg.max_unrolled_insns_value(), 200);
        assert_eq!(cfg.max_inline_insns_auto_value(), 90);
        assert_eq!(cfg.max_gcse_passes_value(), 1);
        assert_eq!(cfg.inline_call_cost_value(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_choices_rejects_bad_index() {
        let mut c = OptConfig::o3().to_choices();
        c[25] = 200;
        let _ = OptConfig::from_choices(&c);
    }
}
