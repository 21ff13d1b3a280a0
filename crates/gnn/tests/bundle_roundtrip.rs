//! Persistence guarantees of the model registry: a saved bundle loads back
//! to the identical model, corruption is a typed error (never a panic, never
//! a silently different model), and batched prediction is invariant to batch
//! composition — the property the serving tier's micro-batcher relies on
//! when it coalesces unrelated requests into one forward pass.

use paragraph_core::{build, to_relational, RelationalGraph};
use pg_dataset::{collect_platform, DataPoint, DatasetScale, PipelineConfig, PlatformDataset};
use pg_gnn::registry::{load_bundle, BundleError};
use pg_gnn::{evaluate, prepare, TrainConfig, TrainedModel};
use pg_perfsim::Platform;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const PLATFORM: Platform = Platform::SummitV100;

fn tiny_dataset() -> &'static PlatformDataset {
    static DS: OnceLock<PlatformDataset> = OnceLock::new();
    DS.get_or_init(|| {
        collect_platform(
            PLATFORM,
            &PipelineConfig {
                scale: DatasetScale::Fast,
                seed: 3,
                noise_sigma: 0.02,
            },
        )
    })
}

fn trained() -> &'static TrainedModel {
    static MODEL: OnceLock<TrainedModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        TrainedModel::fit(tiny_dataset(), &TrainConfig::fast())
            .unwrap()
            .0
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "pg-bundle-roundtrip-{tag}-{}.bundle.json",
        std::process::id()
    ))
}

#[test]
fn round_trip_preserves_validation_predictions_exactly() {
    let ds = tiny_dataset();
    let config = TrainConfig::fast();
    let bundle = trained();
    let path = temp_path("roundtrip");
    let fingerprint = bundle.save(&path, PLATFORM).unwrap();
    let loaded = TrainedModel::load(&path).unwrap();
    assert_eq!(loaded.trained_on, PLATFORM);
    assert_eq!(loaded.fingerprint, fingerprint);
    // The weights survive the JSON round trip bit-exactly (f32 -> f64 JSON
    // -> f32 is lossless), so the models compare equal...
    assert_eq!(loaded.model, *bundle);
    // ...and every validation-split prediction is bit-identical, through
    // the same batch entry point a serving process uses, fed graphs built
    // from each point's source.
    let prepared = prepare(ds, config.representation, config.seed);
    let records = evaluate(&bundle.model, &prepared, &prepared.val_idx);
    assert!(!records.is_empty());
    let graphs: Vec<_> = prepared
        .val_idx
        .iter()
        .map(|&idx| graph_of(bundle, &ds.points[idx]))
        .collect();
    let items: Vec<(&RelationalGraph, u64, u64)> =
        graphs.iter().map(|(g, t, th)| (g, *t, *th)).collect();
    let original = bundle.predict_relational_batch(&items);
    let reloaded = loaded.model.predict_relational_batch(&items);
    assert_eq!(original.len(), records.len());
    for ((record, original), reloaded) in records.iter().zip(original).zip(reloaded) {
        assert_eq!(
            original.to_bits(),
            reloaded.to_bits(),
            "prediction diverged after reload (original {original}, reloaded {reloaded}, \
             training-path {})",
            record.predicted_ms
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A point's relational graph as the bundle expects it, with its launch.
fn graph_of(bundle: &TrainedModel, point: &DataPoint) -> (RelationalGraph, u64, u64) {
    let ast = pg_frontend::parse(&point.source).unwrap();
    let config = bundle.builder_config(point.teams, point.threads);
    (
        to_relational(&build(&ast, &config)),
        point.teams,
        point.threads,
    )
}

#[test]
fn format_version_and_fingerprint_mismatches_are_typed() {
    let bundle = trained();
    let path = temp_path("typed-errors");
    bundle.save(&path, PLATFORM).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();

    // Unsupported format version.
    let bumped = text.replacen("\"format_version\":1", "\"format_version\":999", 1);
    assert_ne!(bumped, text);
    std::fs::write(&path, bumped).unwrap();
    assert!(matches!(
        load_bundle(&path),
        Err(BundleError::FormatVersion {
            found: 999,
            expected: 1
        })
    ));

    // Tampered payload: the stored fingerprint no longer matches the
    // recomputed one.
    let tampered = text.replacen(
        "\"platform\":\"SummitV100\"",
        "\"platform\":\"CoronaMi50\"",
        1,
    );
    assert_ne!(tampered, text);
    std::fs::write(&path, tampered).unwrap();
    assert!(matches!(
        load_bundle(&path),
        Err(BundleError::FingerprintMismatch { .. })
    ));

    // Not JSON at all.
    std::fs::write(&path, "definitely not a bundle").unwrap();
    assert!(matches!(
        load_bundle(&path),
        Err(BundleError::Malformed { .. })
    ));
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: flipping any single byte of a bundle artifact never panics
    /// and never yields a *different* model. Either the load fails with a
    /// typed error (structural bytes break the JSON parser; payload and
    /// platform bytes are covered by the fingerprint; version and
    /// fingerprint bytes by their own checks), or — when the flip lands on
    /// a float digit below f64 precision, so the value parses back
    /// identically — the loaded model is bit-for-bit the original (the
    /// fingerprint covers the canonical re-serialization, which such a flip
    /// does not change).
    #[test]
    fn any_single_byte_corruption_errors_or_loads_the_identical_model(
        position_seed in 0u64..1_000_000,
        replacement in 0u8..=255,
    ) {
        let bundle = trained();
        let path = temp_path(&format!("corrupt-{position_seed}-{replacement}"));
        let fingerprint = bundle.save(&path, PLATFORM).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let position = (position_seed as usize) % bytes.len();
        prop_assume!(bytes[position] != replacement);
        bytes[position] = replacement;
        std::fs::write(&path, &bytes).unwrap();
        let result = load_bundle(&path);
        let _ = std::fs::remove_file(&path);
        if let Ok(loaded) = result {
            prop_assert_eq!(
                &loaded.model,
                bundle,
                "corrupting byte {} to 0x{:02x} loaded a different model",
                position,
                replacement
            );
            prop_assert_eq!(loaded.fingerprint, fingerprint);
        }
    }
}

#[test]
fn batched_prediction_is_invariant_to_batch_composition() {
    let ds = tiny_dataset();
    let bundle = trained();
    let items: Vec<_> = ds
        .points
        .iter()
        .take(12)
        .map(|p| graph_of(bundle, p))
        .collect();
    let refs: Vec<(&RelationalGraph, u64, u64)> =
        items.iter().map(|(g, t, th)| (g, *t, *th)).collect();

    let full = bundle.predict_relational_batch(&refs);
    // Any prefix batched alone must predict bit-identically to the same
    // graphs inside the larger disjoint union: predictions depend only on
    // the candidate itself, not on what it was coalesced with.
    for split in [1, 3, refs.len() / 2, refs.len() - 1] {
        let prefix = bundle.predict_relational_batch(&refs[..split]);
        for (i, (alone, joined)) in prefix.iter().zip(&full).enumerate() {
            assert_eq!(
                alone.to_bits(),
                joined.to_bits(),
                "candidate {i} predicted {alone} alone but {joined} in a batch of {}",
                refs.len()
            );
        }
    }
    // And every candidate alone in a batch of one, not only the first,
    // agrees with the full batch to float precision.
    for (i, item) in refs.iter().enumerate() {
        let single = bundle.predict_relational_batch(std::slice::from_ref(item))[0];
        assert!(
            (single - full[i]).abs() <= 1e-5 * single.abs().max(1.0),
            "candidate {i}: batch of one {single} vs batched {}",
            full[i]
        );
    }
}
