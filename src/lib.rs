//! # portopt
//!
//! A complete Rust reproduction of **"Portable Compiler Optimisation Across
//! Embedded Programs and Microarchitectures using Machine Learning"**
//! (Dubach, Jones, Bonilla, Fursin, O'Boyle — MICRO 2009): an optimising
//! compiler whose best-passes selection is *learned*, so it adapts to any
//! new program on any new microarchitecture from one `-O3` profiling run.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`portopt_trace`] | leveled events + timed spans, stderr/JSON-lines sinks |
//! | [`portopt_exec`] | deterministic shared-cursor executor behind every sweep |
//! | [`portopt_ir`] | IR, builder DSL, analyses, reference interpreter |
//! | [`portopt_passes`] | the Figure 3 pass space, register allocation, layout |
//! | [`portopt_uarch`] | Table 2 design space, Cacti/cache/BTB models, counters |
//! | [`portopt_sim`] | profiling simulator, fast timing model, detailed simulator |
//! | [`portopt_mibench`] | the 35-program MiBench-like suite |
//! | [`portopt_ml`] | IID distributions, KNN predictor, mutual information |
//! | [`portopt_search`] | iterative-compilation baselines |
//! | [`portopt_core`] | dataset generation + the [`portopt_core::PortableCompiler`] |
//! | [`portopt_serve`] | model snapshots + the batched JSON-lines prediction service |
//! | [`portopt_experiments`] | leave-one-out harness + figure generators |
//!
//! See `examples/quickstart.rs` for the 60-second tour and
//! `examples/portable_compiler.rs` for the paper's Figure 2 flow.

#![warn(missing_docs)]

pub use portopt_core;
pub use portopt_exec;
pub use portopt_experiments;
pub use portopt_ir;
pub use portopt_mibench;
pub use portopt_ml;
pub use portopt_passes;
pub use portopt_search;
pub use portopt_serve;
pub use portopt_sim;
pub use portopt_trace;
pub use portopt_uarch;

/// The common imports for examples and downstream users.
pub mod prelude {
    pub use portopt_ir::{FuncBuilder, Inst, Module, ModuleBuilder, Pred};
    pub use portopt_passes::{compile, CodeImage, OptConfig, OptSpace};
    pub use portopt_sim::{evaluate, profile, simulate};
    pub use portopt_uarch::{MicroArch, MicroArchSpace, PerfCounters};
}
