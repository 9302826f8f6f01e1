//! # portopt-core
//!
//! The primary contribution of Dubach et al. (MICRO 2009): a **portable
//! optimising compiler** that, given a microarchitecture description and
//! the performance counters from a single `-O3` run of a program, predicts
//! the compiler optimisation passes that maximise its performance — for
//! programs *and* microarchitectures never seen in training.
//!
//! * [`dataset`] — training-data generation (§3.2): the
//!   programs × settings × microarchitectures sweep, optionally backed by
//!   an on-disk profile cache (`portopt_exec::cache`) so repeated sweeps
//!   reuse profiling runs across process invocations, and a sweep killed
//!   mid-shard resumes by profiling only what is missing, still producing
//!   a byte-identical dataset.
//! * [`shard`] — deterministic multi-rig sweep planning: contiguous
//!   program slices whose per-rig datasets recombine, byte-identically,
//!   with [`Dataset::merge`].
//! * [`compiler`] — model building (§3.3) and deployment (§3.4):
//!   [`PortableCompiler`] wraps good-set extraction, per-pair IID
//!   distribution fitting, and a predictor from the `portopt_ml` zoo
//!   (the paper's kNN by default, chosen by [`TrainOptions::model`]),
//!   decoded at its mode.
//!
//! The leave-one-out evaluation harness and every figure of the paper live
//! in `portopt-experiments`.

#![warn(missing_docs)]

pub mod compiler;
pub mod dataset;
pub mod shard;

pub use compiler::{OptimiseError, PortableCompiler, GOOD_FRACTION};
pub use dataset::{
    generate, generate_with_cache, generate_with_report, generate_with_uarchs, open_profile_cache,
    plan_fingerprint, sweep_program, CachedProfile, Dataset, GenOptions, MergeError, SweepReport,
    SweepScale, PROFILE_CACHE_KIND, PROFILE_CACHE_PAYLOAD_VERSION, PROFILE_LIMITS,
};
pub use portopt_ml::{Model, ModelKind, TrainOptions};
pub use shard::{ShardError, ShardSpec};
