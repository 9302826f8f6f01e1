//! # portopt-sim
//!
//! The simulation substrate of `portopt` (Dubach et al., MICRO 2009): a
//! profiling functional simulator, a fast first-order timing model, and a
//! detailed cycle-level reference simulator (the stand-in for the paper's
//! Xtrem XScale simulator).
//!
//! The intended flow is two-phase, mirroring how the paper amortises its
//! 7-million-simulation sweep:
//!
//! 1. [`profile()`] runs a compiled binary **once**, producing a
//!    microarchitecture-independent [`ExecProfile`];
//! 2. [`evaluate`] prices that profile on any [`MicroArch`](portopt_uarch::MicroArch) in microseconds.
//!
//! ```
//! use portopt_ir::{FuncBuilder, ModuleBuilder};
//! use portopt_passes::{compile, OptConfig};
//! use portopt_sim::{evaluate, profile};
//! use portopt_uarch::MicroArch;
//!
//! let mut mb = ModuleBuilder::new("demo");
//! let mut b = FuncBuilder::new("main", 0);
//! let acc = b.iconst(0);
//! b.counted_loop(0, 1000, 1, |b, i| {
//!     let t = b.add(acc, i);
//!     b.assign(acc, t);
//! });
//! b.ret(acc);
//! let id = mb.add(b.finish());
//! mb.entry(id);
//! let module = mb.finish();
//!
//! let image = compile(&module, &OptConfig::o3());
//! let prof = profile(&image, &module, &[], Default::default()).unwrap();
//! let t = evaluate(&image, &prof, &MicroArch::xscale());
//! assert!(t.cycles > 0.0);
//! assert!(t.counters.ipc > 0.0);
//! ```

#![warn(missing_docs)]

pub mod detailed;
pub mod flatsd;
pub mod profile;
pub mod profiler;
pub mod timing;
mod walk;

pub use detailed::{simulate, DetailedResult};
pub use flatsd::FlatStackDistance;
pub use profile::{block_size_index, ExecProfile, OpCounts, BLOCK_SIZES};
pub use profiler::profile;
pub use timing::{evaluate, PreparedEval, TimingBreakdown, TimingResult};
