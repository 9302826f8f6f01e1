//! The model zoo: one closed enum over every trained predictor.
//!
//! [`Model`] is what the snapshot format and the prediction service
//! program against — predict a factorised distribution or its mode from
//! a feature vector, report the feature dimensionality and pass-space
//! shape, and hand back a serde payload. It has one variant per family:
//!
//! | kind        | type                  | idea                                 |
//! |-------------|-----------------------|--------------------------------------|
//! | `knn`       | [`KnnModel`]          | the paper's kNN-over-softmax (§3.3)  |
//! | `linear`    | [`LinearModel`]       | per-pass ridge regression to scores  |
//! | `clustered` | [`ClusteredKnnModel`] | k-means + one kNN per cluster        |
//!
//! [`ModelKind`] names the variants: the snapshot payload tag
//! ([`ModelKind::as_str`]), the kind [`TrainOptions::model`] asks
//! [`Model::train`] for, the kind [`Model::decode`] reads, and the index
//! of per-kind metrics counters ([`ModelKind::index`]). Adding a model
//! kind means adding a variant to both enums; the compiler then points at
//! every `match` that must learn it, and the cross-model conformance
//! suite picks it up from [`ModelKind::ALL`].

use crate::cluster::{ClusteredKnnModel, DEFAULT_K_CLUSTERS};
use crate::dist::IidDistribution;
use crate::knn::{KnnModel, TrainError, DEFAULT_BETA, DEFAULT_K};
use crate::linear::{LinearModel, DEFAULT_RIDGE_LAMBDA};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Which predictor family a trained model belongs to — the snapshot
/// payload tag, CLI `--model` value and metrics label, all spelled the
/// same way ([`as_str`](Self::as_str)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The paper's kNN-over-softmax predictor ([`KnnModel`]).
    Knn = 0,
    /// Per-pass ridge regression to class scores ([`LinearModel`]).
    Linear = 1,
    /// k-means over normalised features with one kNN per cluster
    /// ([`ClusteredKnnModel`]).
    Clustered = 2,
}

impl ModelKind {
    /// Every registered kind, in tag order — what generic harnesses (the
    /// conformance suite, the metrics renderings) iterate over.
    pub const ALL: [ModelKind; 3] = [ModelKind::Knn, ModelKind::Linear, ModelKind::Clustered];

    /// The canonical tag: what snapshots store, `--model` accepts and
    /// metrics label with.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Knn => "knn",
            ModelKind::Linear => "linear",
            ModelKind::Clustered => "clustered",
        }
    }

    /// Parses a tag; `None` for anything [`as_str`](Self::as_str) never
    /// produces.
    pub fn parse(s: &str) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Dense index into [`ALL`](Self::ALL) (for fixed-size per-kind
    /// counter arrays): the explicit discriminant.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ModelKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for ModelKind {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = String::from_value(v)?;
        ModelKind::parse(&s).ok_or_else(|| {
            serde::Error::new(format!(
                "unknown model kind `{s}` (known: knn, linear, clustered)"
            ))
        })
    }
}

/// Training options for every kind in the zoo: which kind to train and
/// its hyper-parameters. Each trainer reads the fields it understands;
/// the default is the paper's kNN model (§3.3).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Which model kind [`Model::train`] fits.
    pub model: ModelKind,
    /// Neighbour count for the kNN-family kinds (paper: 7).
    pub k: usize,
    /// Softmax inverse temperature for the kNN-family kinds (paper: 1).
    pub beta: f64,
    /// Ridge penalty λ for the linear kind.
    pub ridge_lambda: f64,
    /// Cluster count for the clustered kind.
    pub k_clusters: usize,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            model: ModelKind::Knn,
            k: DEFAULT_K,
            beta: DEFAULT_BETA,
            ridge_lambda: DEFAULT_RIDGE_LAMBDA,
            k_clusters: DEFAULT_K_CLUSTERS,
        }
    }
}

/// A trained predictor from the zoo, behind the snapshot and serving
/// contract.
///
/// Every variant promises:
/// * **determinism** — `predict`/`predict_mode` are pure functions of the
///   trained state and the query, bit-identical across calls and across a
///   save/load round trip of [`payload`](Self::payload);
/// * **mode-consistency** — `predict_mode(x) == predict(x).mode()`
///   bit-identically (the conformance suite pins it for every kind);
/// * **honest metadata** — `feature_dim` is the exact query length
///   `predict` expects and `dims` the exact pass-space shape it answers
///   over.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    /// The paper's kNN-over-softmax predictor.
    Knn(KnnModel),
    /// Per-pass ridge regression to class scores.
    Linear(LinearModel),
    /// k-means over normalised features with one kNN per cluster.
    Clustered(ClusteredKnnModel),
}

/// Applies one expression to whichever concrete model `$model` holds.
macro_rules! each {
    ($model:expr, $m:ident => $e:expr) => {
        match $model {
            Model::Knn($m) => $e,
            Model::Linear($m) => $e,
            Model::Clustered($m) => $e,
        }
    };
}

impl Model {
    /// Trains a model of kind `opts.model` from per-pair features and
    /// fitted distributions — the one dispatch point every trainer goes
    /// through.
    pub fn train(
        features: Vec<Vec<f64>>,
        dists: Vec<IidDistribution>,
        opts: &TrainOptions,
    ) -> Result<Model, TrainError> {
        Ok(match opts.model {
            ModelKind::Knn => Model::Knn(KnnModel::try_train(features, dists, opts.k, opts.beta)?),
            ModelKind::Linear => {
                Model::Linear(LinearModel::try_train(features, dists, opts.ridge_lambda)?)
            }
            ModelKind::Clustered => Model::Clustered(ClusteredKnnModel::try_train(
                features,
                dists,
                opts.k,
                opts.beta,
                opts.k_clusters,
            )?),
        })
    }

    /// Decodes a model payload of the given kind — the inverse of
    /// [`payload`](Self::payload), and the one dispatch point every
    /// snapshot loader goes through.
    pub fn decode(kind: ModelKind, v: &Value) -> Result<Model, serde::Error> {
        Ok(match kind {
            ModelKind::Knn => Model::Knn(KnnModel::from_value(v)?),
            ModelKind::Linear => Model::Linear(LinearModel::from_value(v)?),
            ModelKind::Clustered => Model::Clustered(ClusteredKnnModel::from_value(v)?),
        })
    }

    /// Which registry entry this model is (drives snapshot tagging,
    /// payload decoding and per-kind metrics).
    pub fn kind(&self) -> ModelKind {
        match self {
            Model::Knn(_) => ModelKind::Knn,
            Model::Linear(_) => ModelKind::Linear,
            Model::Clustered(_) => ModelKind::Clustered,
        }
    }

    /// Dimensionality of the feature vectors the model was trained on.
    pub fn feature_dim(&self) -> usize {
        each!(self, m => m.feature_dim())
    }

    /// Number of training points behind the model.
    pub fn len(&self) -> usize {
        each!(self, m => m.len())
    }

    /// Whether the model holds no training points (never true for a
    /// trained model).
    pub fn is_empty(&self) -> bool {
        each!(self, m => m.is_empty())
    }

    /// Per-dimension cardinalities of the optimisation space the model
    /// predicts over.
    pub fn dims(&self) -> Vec<usize> {
        each!(self, m => m.dims())
    }

    /// The predictive distribution `q(y|x)`.
    pub fn predict(&self, x: &[f64]) -> IidDistribution {
        each!(self, m => m.predict(x))
    }

    /// The predicted-best setting `argmax_y q(y|x)`.
    pub fn predict_mode(&self, x: &[f64]) -> Vec<u8> {
        each!(self, m => m.predict_mode(x))
    }

    /// The serde payload a snapshot stores under its kind tag;
    /// [`decode`](Self::decode) with [`kind`](Self::kind) inverts it
    /// exactly.
    pub fn payload(&self) -> Value {
        each!(self, m => m.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_round_trip() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
            assert_eq!(ModelKind::ALL[kind.index()], kind);
            let back = ModelKind::from_value(&kind.to_value()).unwrap();
            assert_eq!(back, kind);
        }
        assert_eq!(ModelKind::parse("gradient-boosted"), None);
        assert!(ModelKind::from_value(&Value::Str("nope".into()))
            .unwrap_err()
            .to_string()
            .contains("unknown model kind `nope`"));
    }

    #[test]
    fn dispatch_trains_every_kind_and_payloads_invert() {
        let dims = vec![2usize, 3usize];
        let mut features = Vec::new();
        let mut dists = Vec::new();
        for i in 0..10 {
            let e = i as f64;
            features.push(vec![e, -e, e * 0.5]);
            let pick = if i < 5 { vec![0, 0] } else { vec![1, 2] };
            dists.push(IidDistribution::fit(&dims, &vec![pick; 4]));
        }
        for kind in ModelKind::ALL {
            let opts = TrainOptions {
                model: kind,
                k: 3,
                k_clusters: 2,
                ..TrainOptions::default()
            };
            let m = Model::train(features.clone(), dists.clone(), &opts).unwrap();
            assert_eq!(m.kind(), kind);
            assert_eq!(m.feature_dim(), 3);
            assert_eq!(m.dims(), dims);
            assert_eq!(m.len(), 10);
            assert!(!m.is_empty());
            let back = Model::decode(kind, &m.payload()).unwrap();
            assert_eq!(back.kind(), kind);
            assert_eq!(back.payload(), m.payload(), "{kind}: payload round trip");
            let probe = vec![2.5, -2.5, 1.25];
            assert_eq!(back.predict(&probe), m.predict(&probe), "{kind}");
            assert_eq!(m.predict_mode(&probe), m.predict(&probe).mode(), "{kind}");
        }
    }

    #[test]
    fn clone_preserves_behaviour() {
        let dims = vec![2usize];
        let features = vec![vec![0.0], vec![1.0]];
        let dists = vec![
            IidDistribution::fit(&dims, &[vec![0]]),
            IidDistribution::fit(&dims, &[vec![1]]),
        ];
        let m = Model::train(features, dists, &TrainOptions::default()).unwrap();
        let c = m.clone();
        assert_eq!(c.kind(), ModelKind::Knn);
        assert_eq!(c.predict_mode(&[0.1]), m.predict_mode(&[0.1]));
        assert!(matches!(c, Model::Knn(_)));
    }
}
