//! Cross-model conformance suite: every [`ModelKind`] must honour the
//! [`Model`] contract the snapshot format and the prediction service
//! program against. The harness iterates [`ModelKind::ALL`], so a new
//! model kind needs no line here — only its variants and `match` arms in
//! `portopt_ml::model`.
//!
//! Contract pinned per kind:
//! * **save/load bit-identity** — `payload()` → JSON → `Model::decode`
//!   re-serialises byte-identically and predicts identically;
//! * **honest `feature_dim`** — exactly the trained query length, and
//!   queries of that length are answered over exactly `dims()`;
//! * **deterministic retrain** — training twice on the same data yields
//!   byte-identical payloads;
//! * **mode-consistency** — `predict_mode(x) == predict(x).mode()`
//!   bit-identically.

use portopt_ml::{IidDistribution, Model, ModelKind, TrainOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pass-space shape shared by every conformance fixture.
const DIMS: [usize; 4] = [2, 3, 4, 2];

/// Deterministic synthetic training set: `n` feature vectors of length
/// `dim` with matching fitted distributions, all from one seed.
fn training_set(seed: u64, dim: usize, n: usize) -> (Vec<Vec<f64>>, Vec<IidDistribution>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut feats = Vec::with_capacity(n);
    let mut dists = Vec::with_capacity(n);
    for _ in 0..n {
        feats.push((0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect());
        let good: Vec<Vec<u8>> = (0..6)
            .map(|_| DIMS.iter().map(|&c| rng.gen_range(0..c) as u8).collect())
            .collect();
        dists.push(IidDistribution::fit(&DIMS, &good));
    }
    (feats, dists)
}

/// Deterministic probe queries of the given length.
fn probes(seed: u64, dim: usize, n: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-12.0..12.0)).collect())
        .collect()
}

/// Options small enough that every kind exercises its interesting path
/// (k < n for kNN, several clusters for k-means).
fn options(model: ModelKind) -> TrainOptions {
    TrainOptions {
        model,
        k: 5,
        k_clusters: 3,
        ..TrainOptions::default()
    }
}

fn train(kind: ModelKind, seed: u64, dim: usize, n: usize) -> Model {
    let (feats, dists) = training_set(seed, dim, n);
    Model::train(feats, dists, &options(kind))
        .unwrap_or_else(|e| panic!("{kind}: training failed: {e}"))
}

#[test]
fn save_load_predict_bit_identity() {
    for kind in ModelKind::ALL {
        let model = train(kind, 0xC0DE, 5, 24);
        let payload = model.payload();
        let json = serde_json::to_string(&payload).unwrap();
        let parsed = serde_json::parse(&json).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let back = Model::decode(kind, &parsed).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(back.kind(), kind);
        assert_eq!(
            serde_json::to_string(&back.payload()).unwrap(),
            json,
            "{kind}: re-serialisation not byte-identical"
        );
        for q in probes(0xBEEF ^ kind.index() as u64, 5, 8) {
            assert_eq!(
                back.predict(&q),
                model.predict(&q),
                "{kind}: predict diverged"
            );
            assert_eq!(
                back.predict_mode(&q),
                model.predict_mode(&q),
                "{kind}: predict_mode diverged"
            );
        }
    }
}

#[test]
fn feature_dim_is_honest() {
    for kind in ModelKind::ALL {
        for dim in [1usize, 3, 7] {
            let model = train(kind, 7 + dim as u64, dim, 16);
            assert_eq!(model.feature_dim(), dim, "{kind}");
            assert_eq!(model.dims(), DIMS.to_vec(), "{kind}");
            assert_eq!(model.len(), 16, "{kind}");
            assert!(!model.is_empty(), "{kind}");
            // A query of exactly feature_dim answers over exactly dims().
            let q = vec![0.25; model.feature_dim()];
            let mode = model.predict_mode(&q);
            assert_eq!(mode.len(), DIMS.len(), "{kind}");
            for (d, &card) in DIMS.iter().enumerate() {
                assert!((mode[d] as usize) < card, "{kind}: out-of-range choice");
            }
        }
    }
}

#[test]
fn retrain_is_deterministic() {
    for kind in ModelKind::ALL {
        let a = train(kind, 42, 4, 20);
        let b = train(kind, 42, 4, 20);
        assert_eq!(
            serde_json::to_string(&a.payload()).unwrap(),
            serde_json::to_string(&b.payload()).unwrap(),
            "{kind}: retraining on identical data is not byte-identical"
        );
    }
}

#[test]
fn predict_mode_matches_distribution_mode() {
    for kind in ModelKind::ALL {
        let model = train(kind, 0xF00D, 6, 30);
        for q in probes(0xD15C ^ kind.index() as u64, 6, 16) {
            assert_eq!(
                model.predict_mode(&q),
                model.predict(&q).mode(),
                "{kind}: predict_mode disagrees with predict().mode()"
            );
        }
    }
}

#[test]
fn clone_is_transparent() {
    for kind in ModelKind::ALL {
        let model = train(kind, 0xABBA, 3, 12);
        let clone = model.clone();
        assert_eq!(clone.kind(), kind);
        assert_eq!(
            serde_json::to_string(&clone.payload()).unwrap(),
            serde_json::to_string(&model.payload()).unwrap(),
            "{kind}"
        );
    }
}
