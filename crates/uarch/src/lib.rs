//! # portopt-uarch
//!
//! The microarchitecture side of `portopt` (Dubach et al., MICRO 2009):
//! the Table 2 design space around the Intel XScale, a Cacti-style SRAM
//! timing model, probabilistic set-associative cache and BTB models driven
//! by reuse-distance histograms, and the Table 1 performance counters that
//! form the machine-learning feature vector.
//!
//! ```
//! use portopt_uarch::{MicroArch, MicroArchSpace, latencies};
//! use rand::SeedableRng;
//!
//! let space = MicroArchSpace::base();
//! assert_eq!(space.total_configs(), 288_000);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let cfg = space.sample(&mut rng);
//! let lat = latencies(&cfg);
//! assert!(lat.dl1_load_use >= 3);
//! ```

#![warn(missing_docs)]

pub mod btb;
pub mod cache;
pub mod cacti;
pub mod counters;
pub mod space;

pub use btb::{
    estimate as estimate_branches, estimate_from_totals as estimate_branches_from_totals,
    BranchModel, BranchStats, BranchTotals,
};
pub use cache::{miss_probability, ReuseHistogram};
pub use cacti::{access_cycles, access_ns, latencies, Latencies, MEM_NS};
pub use counters::{FeatureVec, PerfCounters, N_FEATURES};
pub use space::{
    MicroArch, MicroArchSpace, ASSOCS, BLOCKS, BTB_ASSOCS, BTB_ENTRIES, FREQS, SIZES, WIDTHS,
};
