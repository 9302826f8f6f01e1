//! # portopt-ml
//!
//! The machine-learning model of Dubach et al. (MICRO 2009, §3.3): per
//! program/microarchitecture-pair factorised multinomial distributions over
//! good optimisation settings ([`IidDistribution`], eq. 4–5), a
//! K-nearest-neighbour predictive distribution over features
//! ([`KnnModel`], eq. 6) decoded at its mode (eq. 1), and the
//! mutual-information analysis behind the paper's Hinton diagrams
//! ([`mi`], Figures 8–9).
//!
//! The crate is deliberately generic: settings are plain choice vectors
//! (`Vec<u8>`) over per-dimension cardinalities, and features are plain
//! `Vec<f64>` — the mapping to compiler flags and hardware counters lives
//! in `portopt-core`.
//!
//! ```
//! use portopt_ml::{IidDistribution, KnnModel};
//!
//! let dims = vec![2, 2];
//! // Two training pairs with opposite preferred settings.
//! let ga = IidDistribution::fit(&dims, &vec![vec![0, 0]; 5]);
//! let gb = IidDistribution::fit(&dims, &vec![vec![1, 1]; 5]);
//! let model = KnnModel::train(
//!     vec![vec![0.0, 0.0], vec![1.0, 1.0]],
//!     vec![ga, gb],
//!     1,
//!     1.0,
//! );
//! assert_eq!(model.predict_mode(&[0.1, 0.0]), vec![0, 0]);
//! assert_eq!(model.predict_mode(&[0.9, 1.0]), vec![1, 1]);
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod dist;
pub mod knn;
pub mod linear;
pub mod mi;
pub mod model;

pub use cluster::{ClusteredKnnModel, DEFAULT_K_CLUSTERS};
pub use dist::IidDistribution;
pub use knn::{FeatureMatrix, KnnModel, Normalizer, TrainError, DEFAULT_BETA, DEFAULT_K};
pub use linear::{ridge_weights_oracle, LinearModel, DEFAULT_RIDGE_LAMBDA};
pub use mi::{bin_equal_frequency, entropy, mutual_information, normalized_mutual_information};
pub use model::{Model, ModelKind, TrainOptions};
