//! The K-nearest-neighbour predictive distribution of §3.3.2.
//!
//! `q(y|x*)` is the softmax-weighted convex combination (eq. 6, β = 1,
//! K = 7) of the per-training-pair distributions whose feature vectors are
//! nearest to the new program/microarchitecture's features under Euclidean
//! distance on z-score-normalised features.
//!
//! ## Two prediction paths, one contract
//!
//! The serving hot path runs on a [`FeatureMatrix`] — a cache-linear,
//! blocked structure-of-arrays copy of the normalised training features
//! built at train/deserialize time — with top-k chosen by partial
//! selection instead of a full sort. The original per-point
//! `Vec<Vec<f64>>` scan is retained as the **reference oracle**
//! ([`KnnModel::predict_oracle`] / [`KnnModel::predict_mode_oracle`]);
//! the two paths are bit-identical on finite inputs, which the
//! differential proptests in `tests/proptest_ml.rs` pin down to the last
//! ulp (same floating-point association, same duplicate-distance
//! tie-break).

use crate::dist::IidDistribution;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Per-feature z-score normalisation fitted on the training set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Normalizer {
    /// Fits mean/std per feature. Zero-variance features get std 1 (they
    /// then contribute nothing to distances).
    pub fn fit(features: &[Vec<f64>]) -> Self {
        assert!(!features.is_empty(), "no training features");
        let n = features.len() as f64;
        let d = features[0].len();
        let mut mean = vec![0.0; d];
        for f in features {
            for (m, v) in mean.iter_mut().zip(f) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for f in features {
            for ((v, x), m) in var.iter_mut().zip(f).zip(&mean) {
                *v += (x - m) * (x - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Normalizer { mean, std }
    }

    /// Dimensionality of the feature vectors this normalizer was fitted on.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Normalises one feature vector.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }
}

/// Lanes per block of the [`FeatureMatrix`] layout: one cache line of
/// `f64`s, and a width LLVM auto-vectorises cleanly on both SSE2 and
/// NEON targets.
const BLOCK: usize = 8;

/// A cache-linear, blocked structure-of-arrays copy of the normalised
/// training features: the distance kernel of the serving hot path.
///
/// Points are grouped into blocks of `BLOCK` (8) lanes; within a block the
/// layout is dimension-major, so lane `i` of `data` chunk
/// `[b*dim*BLOCK + d*BLOCK ..]` holds feature `d` of point `b*BLOCK + i`.
/// One query then streams the whole training set front to back — every
/// cache line loaded is fully consumed, and the per-lane accumulators
/// vectorise — instead of chasing one heap-allocated row per point.
///
/// The matrix is **derived state**: it is rebuilt from the row-major
/// `points` at train and deserialize time and never serialized, so the
/// snapshot format is unchanged and old snapshots load as-is.
/// `PartialEq` compares it like any other field, which is how the
/// round-trip tests prove the rebuild happened.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatrix {
    n: usize,
    dim: usize,
    /// `n.div_ceil(BLOCK) * dim * BLOCK` values; padding lanes are 0.0.
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// Builds the blocked layout from row-major feature vectors (already
    /// normalised). All rows must share one length.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let rows: Vec<&[f64]> = rows.into_iter().collect();
        let n = rows.len();
        let dim = rows.first().map_or(0, |r| r.len());
        let n_blocks = n.div_ceil(BLOCK);
        let mut data = vec![0.0; n_blocks * dim * BLOCK];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), dim, "ragged feature rows");
            let base = (i / BLOCK) * dim * BLOCK + (i % BLOCK);
            for (d, &v) in row.iter().enumerate() {
                data[base + d * BLOCK] = v;
            }
        }
        FeatureMatrix { n, dim, data }
    }

    /// Number of training points.
    pub fn n_points(&self) -> usize {
        self.n
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Writes the Euclidean distance from `query` (already normalised) to
    /// every training point into `out`, in point order.
    ///
    /// Bit-identical to the naive per-row scan: each lane's squared
    /// distance accumulates the per-dimension terms in ascending dimension
    /// order from 0.0 — the same floating-point association as
    /// `row.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum()` —
    /// and is then `sqrt`ed.
    pub fn distances_into(&self, query: &[f64], out: &mut Vec<f64>) {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        out.clear();
        out.reserve(self.n);
        if self.dim == 0 {
            // Every distance is sqrt(empty sum) = 0.0, like the naive scan.
            out.resize(self.n, 0.0);
            return;
        }
        let stride = self.dim * BLOCK;
        for (b, block) in self.data.chunks_exact(stride).enumerate() {
            let mut acc = [0.0f64; BLOCK];
            for (d, &q) in query.iter().enumerate() {
                let lanes = &block[d * BLOCK..d * BLOCK + BLOCK];
                for (a, &v) in acc.iter_mut().zip(lanes) {
                    let diff = v - q;
                    *a += diff * diff;
                }
            }
            let live = BLOCK.min(self.n - b * BLOCK);
            out.extend(acc[..live].iter().map(|d2| d2.sqrt()));
        }
    }

    /// The distances with their point indices — the mutable working set
    /// the partial top-k selection runs on.
    fn distance_pairs(&self, query: &[f64]) -> Vec<(f64, usize)> {
        let mut dists = Vec::new();
        self.distances_into(query, &mut dists);
        dists.into_iter().enumerate().map(|(i, d)| (d, i)).collect()
    }
}

/// Why [`KnnModel::try_train`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// No training pairs at all.
    Empty,
    /// `features` and `dists` differ in length.
    LengthMismatch {
        /// Number of feature vectors supplied.
        features: usize,
        /// Number of distributions supplied.
        dists: usize,
    },
    /// A feature row has a different length than row 0.
    RaggedFeatures {
        /// Index of the offending row.
        index: usize,
        /// Its length.
        len: usize,
        /// The length of row 0, which every row must match.
        expected: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Empty => write!(f, "empty training set"),
            TrainError::LengthMismatch { features, dists } => write!(
                f,
                "features/distributions mismatch: {features} feature vectors \
                 vs {dists} distributions"
            ),
            TrainError::RaggedFeatures {
                index,
                len,
                expected,
            } => write!(
                f,
                "ragged features: row {index} has {len} values, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

/// The trained model `M : x → q(y|x)`.
///
/// `PartialEq` compares the full trained state — normalizer, training
/// points, hyper-parameters *and* the derived [`FeatureMatrix`] — it is
/// what snapshot round-trip tests assert on, so a deserialized model
/// only equals the original if the matrix was correctly rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnModel {
    normalizer: Normalizer,
    /// Normalised features and fitted distribution per training pair —
    /// the row-major source of truth the oracle path scans and the
    /// [`FeatureMatrix`] is derived from.
    points: Vec<(Vec<f64>, IidDistribution)>,
    /// Number of neighbours (paper: 7).
    pub k: usize,
    /// Softmax inverse temperature (paper: 1.0).
    pub beta: f64,
    /// Blocked SoA copy of the point features (derived, never serialized).
    matrix: FeatureMatrix,
}

// Hand-written (not derived) so `matrix` stays out of the wire format:
// the encoding is byte-identical to what the derive produced before the
// matrix existed — an object of {normalizer, points, k, beta} in
// declaration order — so the snapshot format version is unchanged and old
// snapshots load as-is. (The derive shim has no `#[serde(skip)]`.)
impl Serialize for KnnModel {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("normalizer".to_string(), self.normalizer.to_value()),
            ("points".to_string(), self.points.to_value()),
            ("k".to_string(), self.k.to_value()),
            ("beta".to_string(), self.beta.to_value()),
        ])
    }
}

impl Deserialize for KnnModel {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let normalizer = Normalizer::from_value(v.field("normalizer")?)?;
        let points: Vec<(Vec<f64>, IidDistribution)> = Deserialize::from_value(v.field("points")?)?;
        let k = usize::from_value(v.field("k")?)?;
        let beta = f64::from_value(v.field("beta")?)?;
        let matrix = FeatureMatrix::from_rows(points.iter().map(|(f, _)| f.as_slice()));
        Ok(KnnModel {
            normalizer,
            points,
            k,
            beta,
            matrix,
        })
    }
}

/// The paper's K.
pub const DEFAULT_K: usize = 7;
/// The paper's β.
pub const DEFAULT_BETA: f64 = 1.0;

impl KnnModel {
    /// Trains the model from per-pair features and fitted distributions.
    ///
    /// # Panics
    /// Panics on the inputs [`try_train`](Self::try_train) rejects.
    pub fn train(
        features: Vec<Vec<f64>>,
        dists: Vec<IidDistribution>,
        k: usize,
        beta: f64,
    ) -> Self {
        match Self::try_train(features, dists, k, beta) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Trains the model, rejecting malformed input with a typed error
    /// instead of panicking: empty training sets, a features/distributions
    /// length mismatch, and ragged feature rows.
    pub fn try_train(
        features: Vec<Vec<f64>>,
        dists: Vec<IidDistribution>,
        k: usize,
        beta: f64,
    ) -> Result<Self, TrainError> {
        if features.len() != dists.len() {
            return Err(TrainError::LengthMismatch {
                features: features.len(),
                dists: dists.len(),
            });
        }
        if features.is_empty() {
            return Err(TrainError::Empty);
        }
        let expected = features[0].len();
        for (index, f) in features.iter().enumerate() {
            if f.len() != expected {
                return Err(TrainError::RaggedFeatures {
                    index,
                    len: f.len(),
                    expected,
                });
            }
        }
        let normalizer = Normalizer::fit(&features);
        let points: Vec<(Vec<f64>, IidDistribution)> = features
            .into_iter()
            .map(|f| normalizer.apply(&f))
            .zip(dists)
            .collect();
        let matrix = FeatureMatrix::from_rows(points.iter().map(|(f, _)| f.as_slice()));
        Ok(KnnModel {
            normalizer,
            points,
            k,
            beta,
            matrix,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Dimensionality of the feature vectors this model was trained on
    /// (19 for the paper's counter + descriptor features).
    pub fn feature_dim(&self) -> usize {
        self.normalizer.dim()
    }

    /// Returns `true` when the model holds no training points (never true
    /// for a model built by [`KnnModel::train`]).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The derived SoA distance kernel (for benches and differential
    /// tests).
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.matrix
    }

    /// Per-dimension cardinalities of the optimisation space the model
    /// predicts over (read off the first training distribution; a trained
    /// model is never empty).
    pub fn dims(&self) -> Vec<usize> {
        self.points[0].1.dims()
    }

    /// Softmax weights over the selected nearest neighbours — the shared
    /// back half of both prediction paths. `nearest` must be ascending by
    /// `(distance, index)`.
    fn weight_neighbours(&self, nearest: &[(f64, usize)]) -> Vec<(f64, &IidDistribution)> {
        let dmin = nearest[0].0;
        nearest
            .iter()
            .map(|&(d, i)| ((-self.beta * (d - dmin)).exp(), &self.points[i].1))
            .collect()
    }

    /// The hot path: blocked SoA distances, then top-k by partial
    /// selection — `O(n + k log k)` instead of the oracle's
    /// `O(n log n)` full sort.
    ///
    /// Bit-identical to [`softmax_neighbours_naive`]
    /// (Self::softmax_neighbours_naive) on finite inputs: distances share
    /// the oracle's floating-point association (see
    /// [`FeatureMatrix::distances_into`]), and selecting then sorting the
    /// k-prefix under the lexicographic `(distance, index)` order is
    /// exactly the first k entries of the oracle's stable
    /// distance-only sort. Comparison is `total_cmp` — equivalent to the
    /// oracle's `partial_cmp` on this domain (distances are `+0.0` or
    /// positive), but NaN-safe: a non-finite query yields a deterministic
    /// (garbage) neighbour order here where the oracle panics, so callers
    /// that let untrusted floats in (serving) reject them at admission.
    fn softmax_neighbours(&self, x: &[f64]) -> Vec<(f64, &IidDistribution)> {
        let xn = self.normalizer.apply(x);
        let mut pairs = self.matrix.distance_pairs(&xn);
        let k = self.k.min(pairs.len());
        let by_dist_then_idx =
            |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if k > 0 && k < pairs.len() {
            pairs.select_nth_unstable_by(k - 1, by_dist_then_idx);
        }
        let nearest = &mut pairs[..k];
        nearest.sort_unstable_by(by_dist_then_idx);
        self.weight_neighbours(nearest)
    }

    /// The retained naive path: per-point row scan plus a full stable
    /// sort on distance. This is the reference oracle the differential
    /// proptests compare the [`FeatureMatrix`] kernel against.
    fn softmax_neighbours_naive(&self, x: &[f64]) -> Vec<(f64, &IidDistribution)> {
        let xn = self.normalizer.apply(x);
        // K nearest by Euclidean distance.
        let mut dist_idx: Vec<(f64, usize)> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, (f, _))| {
                let d2: f64 = f.iter().zip(&xn).map(|(a, b)| (a - b) * (a - b)).sum();
                (d2.sqrt(), i)
            })
            .collect();
        dist_idx.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        let k = self.k.min(dist_idx.len());
        self.weight_neighbours(&dist_idx[..k])
    }

    /// The predictive distribution `q(y|x*)` (eq. 6).
    pub fn predict(&self, x: &[f64]) -> IidDistribution {
        IidDistribution::mix(&self.softmax_neighbours(x))
    }

    /// [`predict`](Self::predict) through the naive reference path —
    /// bit-identical on finite inputs, kept as the differential oracle.
    pub fn predict_oracle(&self, x: &[f64]) -> IidDistribution {
        IidDistribution::mix(&self.softmax_neighbours_naive(x))
    }

    /// The predicted-best setting `y* = argmax_y q(y|x*)` (eq. 1).
    ///
    /// Equivalent to `self.predict(x).mode()` but fused: the mixture is
    /// never materialized (that costs ~40 small allocations per call —
    /// most of the serving hot path). Bit-identical to the unfused form:
    /// each cell accumulates `(w/Σw)·θ` over the neighbours in the same
    /// order `IidDistribution::mix` does, and ties resolve like
    /// `Iterator::max_by` (the last maximum wins) as in
    /// `IidDistribution::mode` — `fused_mode_matches_mix_then_mode`
    /// asserts the equivalence.
    pub fn predict_mode(&self, x: &[f64]) -> Vec<u8> {
        Self::mixture_mode(&self.softmax_neighbours(x))
    }

    /// [`predict_mode`](Self::predict_mode) through the naive reference
    /// path — bit-identical on finite inputs, kept as the differential
    /// oracle.
    pub fn predict_mode_oracle(&self, x: &[f64]) -> Vec<u8> {
        Self::mixture_mode(&self.softmax_neighbours_naive(x))
    }

    /// The fused mixture-argmax shared by both paths (so the differential
    /// tests isolate exactly the distance/selection kernel). Delegates to
    /// [`IidDistribution::mix_mode`], which accumulates over the flat
    /// probability buffers in one sequential pass per neighbour.
    fn mixture_mode(parts: &[(f64, &IidDistribution)]) -> Vec<u8> {
        IidDistribution::mix_mode(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_model(k: usize) -> KnnModel {
        // Cluster A near (0,0) prefers setting [0,0]; cluster B near (10,10)
        // prefers [1,3].
        let dims = vec![2usize, 4usize];
        let mut features = Vec::new();
        let mut dists = Vec::new();
        for i in 0..8 {
            let e = i as f64 * 0.1;
            features.push(vec![e, -e]);
            dists.push(IidDistribution::fit(&dims, &vec![vec![0, 0]; 4]));
            features.push(vec![10.0 + e, 10.0 - e]);
            dists.push(IidDistribution::fit(&dims, &vec![vec![1, 3]; 4]));
        }
        KnnModel::train(features, dists, k, 1.0)
    }

    #[test]
    fn fused_mode_matches_mix_then_mode() {
        // The fused predict_mode must be bit-identical to materializing
        // the mixture and taking its mode — across k values (including
        // k > points, exercised clamping), tied distances and probe
        // points on and off the training manifold.
        for k in [1, 2, 7, 64] {
            let m = two_cluster_model(k);
            for probe in [
                vec![0.0, 0.0],
                vec![10.0, 10.0],
                vec![5.0, 5.0], // equidistant: tie-heavy weights
                vec![-3.0, 17.0],
                vec![0.35, -0.35], // exactly on a training point
            ] {
                assert_eq!(
                    m.predict_mode(&probe),
                    m.predict(&probe).mode(),
                    "k={k} probe={probe:?}"
                );
            }
        }
    }

    #[test]
    fn soa_path_matches_oracle_on_fixed_probes() {
        // The exhaustive randomized comparison lives in the differential
        // proptests; this is the deterministic smoke version.
        for k in [1, 3, 7, 64] {
            let m = two_cluster_model(k);
            for probe in [
                vec![0.0, 0.0],
                vec![5.0, 5.0],
                vec![10.0, 10.0],
                vec![-3.0, 17.0],
            ] {
                assert_eq!(m.predict(&probe), m.predict_oracle(&probe), "k={k}");
                assert_eq!(
                    m.predict_mode(&probe),
                    m.predict_mode_oracle(&probe),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn feature_matrix_layout_roundtrips_distances() {
        // Row counts straddling the block width, including an exact
        // multiple and a single row.
        for n in [1usize, 7, 8, 9, 16, 17] {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..3).map(|d| (i * 3 + d) as f64 * 0.25 - 1.0).collect())
                .collect();
            let m = FeatureMatrix::from_rows(rows.iter().map(|r| r.as_slice()));
            assert_eq!(m.n_points(), n);
            assert_eq!(m.dim(), 3);
            let query = [0.5, -2.0, 3.25];
            let mut got = Vec::new();
            m.distances_into(&query, &mut got);
            let want: Vec<f64> = rows
                .iter()
                .map(|r| {
                    r.iter()
                        .zip(&query)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn try_train_reports_typed_errors() {
        let dims = vec![2usize];
        let d = IidDistribution::fit(&dims, &[vec![0]]);
        let err =
            KnnModel::try_train(vec![vec![0.0]], vec![d.clone(), d.clone()], 1, 1.0).unwrap_err();
        assert_eq!(
            err,
            TrainError::LengthMismatch {
                features: 1,
                dists: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "features/distributions mismatch: 1 feature vectors vs 2 distributions"
        );

        let err = KnnModel::try_train(Vec::new(), Vec::new(), 1, 1.0).unwrap_err();
        assert_eq!(err, TrainError::Empty);
        assert_eq!(err.to_string(), "empty training set");

        let err = KnnModel::try_train(vec![vec![0.0, 1.0], vec![2.0]], vec![d.clone(), d], 1, 1.0)
            .unwrap_err();
        assert_eq!(
            err,
            TrainError::RaggedFeatures {
                index: 1,
                len: 1,
                expected: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "ragged features: row 1 has 1 values, expected 2"
        );
    }

    #[test]
    #[should_panic(expected = "features/distributions mismatch")]
    fn train_panics_on_length_mismatch() {
        let d = IidDistribution::fit(&[2], &[vec![0]]);
        let _ = KnnModel::train(vec![vec![0.0]], vec![d.clone(), d], 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn train_panics_on_empty_input() {
        let _ = KnnModel::train(Vec::new(), Vec::new(), 1, 1.0);
    }

    #[test]
    fn predicts_cluster_preference() {
        let m = two_cluster_model(DEFAULT_K);
        assert_eq!(m.predict_mode(&[0.2, 0.0]), vec![0, 0]);
        assert_eq!(m.predict_mode(&[9.8, 10.1]), vec![1, 3]);
    }

    #[test]
    fn normalization_makes_scales_comparable() {
        // One feature ranges 0..1, the other 0..1e6; without normalisation
        // the small feature would be ignored.
        let dims = vec![2usize];
        let features = vec![
            vec![0.0, 500_000.0],
            vec![0.1, 500_000.0],
            vec![1.0, 500_000.0],
            vec![0.9, 500_000.0],
        ];
        let dists = vec![
            IidDistribution::fit(&dims, &vec![vec![0]; 3]),
            IidDistribution::fit(&dims, &vec![vec![0]; 3]),
            IidDistribution::fit(&dims, &vec![vec![1]; 3]),
            IidDistribution::fit(&dims, &vec![vec![1]; 3]),
        ];
        let m = KnnModel::train(features, dists, 2, 1.0);
        assert_eq!(m.predict_mode(&[0.05, 500_000.0]), vec![0]);
        assert_eq!(m.predict_mode(&[0.95, 500_000.0]), vec![1]);
    }

    #[test]
    fn k_larger_than_training_set_is_clamped() {
        let m = two_cluster_model(100);
        // Should not panic; blends everything.
        let _ = m.predict(&[5.0, 5.0]);
        assert_eq!(m.len(), 16);
        assert!(!m.is_empty());
    }

    #[test]
    fn closer_neighbours_dominate_the_mixture() {
        let dims = vec![2usize];
        let features = vec![vec![0.0], vec![3.0]];
        let dists = vec![
            IidDistribution::fit(&dims, &vec![vec![0]; 5]),
            IidDistribution::fit(&dims, &vec![vec![1]; 5]),
        ];
        let m = KnnModel::train(features, dists, 2, 1.0);
        let q = m.predict(&[0.1]);
        assert!(q.prob(0, 0) > q.prob(0, 1));
        let q2 = m.predict(&[2.9]);
        assert!(q2.prob(0, 1) > q2.prob(0, 0));
    }

    #[test]
    fn normalizer_zscores() {
        let n = Normalizer::fit(&[vec![0.0, 10.0], vec![2.0, 10.0]]);
        let z = n.apply(&[1.0, 10.0]);
        assert!((z[0] - 0.0).abs() < 1e-12);
        assert_eq!(z[1], 0.0, "zero-variance feature maps to 0");
    }
}
