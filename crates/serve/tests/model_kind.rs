//! Negative-path coverage for the snapshot `model_kind` tag: every
//! wrong-kind shape must fail *typed* (naming both kinds, or the unknown
//! tag) before the payload is touched — never as a generic `Corrupt` —
//! and a pre-PR-10 snapshot with no tag at all must keep loading as kNN.
//! The backward-compat pin is a checked-in golden file under
//! `tests/golden/`; regenerate it with the `#[ignore]`d writer below if
//! the *intended* wire format ever changes.

mod common;

use common::fixture;
use portopt_core::TrainOptions;
use portopt_serve::{ModelKind, Snapshot, SnapshotError};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/pre_pr10_knn.snap"
);

fn linear_snapshot() -> Snapshot {
    let (ds, _) = fixture();
    Snapshot::try_train(
        &ds,
        &TrainOptions {
            model: ModelKind::Linear,
            ..TrainOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn wrong_expected_kind_fails_typed_in_both_directions() {
    let (_, knn_snap) = fixture();
    let knn_bytes = knn_snap.to_bytes().unwrap();
    let linear_bytes = linear_snapshot().to_bytes().unwrap();

    // kNN artifact where linear was pinned.
    match Snapshot::from_bytes_expecting(&knn_bytes, ModelKind::Linear) {
        Err(SnapshotError::ModelKindMismatch { found, expected }) => {
            assert_eq!(found, ModelKind::Knn);
            assert_eq!(expected, ModelKind::Linear);
        }
        other => panic!("expected ModelKindMismatch, got {other:?}"),
    }
    // Linear artifact where kNN was pinned.
    match Snapshot::from_bytes_expecting(&linear_bytes, ModelKind::Knn) {
        Err(SnapshotError::ModelKindMismatch { found, expected }) => {
            assert_eq!(found, ModelKind::Linear);
            assert_eq!(expected, ModelKind::Knn);
        }
        other => panic!("expected ModelKindMismatch, got {other:?}"),
    }
    // The message names both kinds — it is the operator's whole diagnosis.
    let msg = Snapshot::from_bytes_expecting(&linear_bytes, ModelKind::Clustered)
        .unwrap_err()
        .to_string();
    assert!(msg.contains("linear"), "missing found kind: {msg}");
    assert!(msg.contains("clustered"), "missing expected kind: {msg}");

    // Matching pins still load.
    Snapshot::from_bytes_expecting(&knn_bytes, ModelKind::Knn).unwrap();
    Snapshot::from_bytes_expecting(&linear_bytes, ModelKind::Linear).unwrap();
}

#[test]
fn unknown_kind_tag_is_typed_not_corrupt() {
    let json = String::from_utf8(linear_snapshot().to_bytes().unwrap()).unwrap();
    // A tag from a newer binary this one has never heard of.
    let future = json.replace("\"model_kind\":\"linear\"", "\"model_kind\":\"boosted\"");
    match Snapshot::from_bytes(future.as_bytes()) {
        Err(SnapshotError::UnknownModelKind { found }) => assert_eq!(found, "boosted"),
        other => panic!("expected UnknownModelKind, got {other:?}"),
    }
    let msg = Snapshot::from_bytes(future.as_bytes())
        .unwrap_err()
        .to_string();
    assert!(msg.contains("boosted"), "missing tag: {msg}");
    assert!(
        msg.contains("knn/linear/clustered"),
        "missing known kinds: {msg}"
    );
}

#[test]
fn header_payload_disagreement_is_a_mismatch() {
    let json = String::from_utf8(linear_snapshot().to_bytes().unwrap()).unwrap();
    // `meta` serialises before `compiler`, so replacing the first tag
    // occurrence forges a header that claims kNN over a linear payload.
    let forged = json.replacen("\"model_kind\":\"linear\"", "\"model_kind\":\"knn\"", 1);
    assert!(
        forged.contains("\"model_kind\":\"linear\""),
        "payload tag must survive"
    );
    match Snapshot::from_bytes(forged.as_bytes()) {
        Err(SnapshotError::ModelKindMismatch { found, expected }) => {
            assert_eq!(found, ModelKind::Linear);
            assert_eq!(expected, ModelKind::Knn);
        }
        other => panic!("expected ModelKindMismatch, got {other:?}"),
    }
}

#[test]
fn golden_pre_pr10_snapshot_loads_as_knn() {
    let bytes = std::fs::read(GOLDEN)
        .expect("golden missing: run `cargo test -p portopt-serve regenerate_golden -- --ignored`");
    // No kind tag anywhere in the legacy artifact.
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(
        !text.contains("model_kind"),
        "golden is not a pre-PR-10 artifact"
    );
    let snap = Snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.meta.model_kind, ModelKind::Knn);
    assert!(
        snap.compiler.knn().is_some(),
        "legacy payload must decode as kNN"
    );
    // The absent tag also satisfies an explicit kNN pin, and re-saving the
    // legacy artifact is byte-identical — the wire format did not move.
    Snapshot::from_bytes_expecting(&bytes, ModelKind::Knn).unwrap();
    assert_eq!(snap.to_bytes().unwrap(), bytes, "kNN wire format changed");
    match Snapshot::from_bytes_expecting(&bytes, ModelKind::Linear) {
        Err(SnapshotError::ModelKindMismatch { found, expected }) => {
            assert_eq!(found, ModelKind::Knn);
            assert_eq!(expected, ModelKind::Linear);
        }
        other => panic!("expected ModelKindMismatch, got {other:?}"),
    }
}

/// Writes the golden file from the shared fixture. The artifact is only
/// *valid* as a golden because kNN snapshots carry no kind tag — the
/// check above asserts that, so regenerating after a deliberate format
/// bump keeps the suite honest.
#[test]
#[ignore = "writes tests/golden/pre_pr10_knn.snap; run once after an intended format change"]
fn regenerate_golden() {
    let (_, snap) = fixture();
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    snap.save(GOLDEN).unwrap();
}
