//! # pg-bench
//!
//! Shared infrastructure for the experiment harness. Each `table*`/`fig*`
//! `[[bench]]` target of this crate regenerates one table or figure of the
//! paper; the heavy work (dataset generation, model training) is funnelled
//! through the cached runners in this library so that, for example, the
//! training run behind Table III is reused by Figures 4, 5 and 6 instead of
//! being repeated. Timing lives in `pgbench`; the `gnn_training` and
//! `serve_throughput` benches record only what it does not measure yet.
//!
//! Scale control:
//! * `PARAGRAPH_FAST=1` — small datasets, few epochs (smoke runs / CI),
//! * default — laptop-scale datasets (about a thousand points per platform),
//! * `PARAGRAPH_FULL_DATASET=1` — approach the paper's dataset size.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use paragraph_core::Representation;
use pg_compoff::{CompoffConfig, CompoffPrediction};
use pg_dataset::{
    generate_platform, DatasetScale, GenerationOutcome, PipelineConfig, PlatformDataset, ShardStore,
};
use pg_gnn::{ModelConfig, PredictionRecord, TrainConfig, TrainingHistory};
use pg_perfsim::Platform;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::PathBuf;

/// Seed shared by every experiment so splits and models are comparable.
pub const EXPERIMENT_SEED: u64 = 42;

/// Scale selected through the environment.
pub fn bench_scale() -> DatasetScale {
    DatasetScale::from_env()
}

/// Training configuration matched to a dataset scale.
pub fn train_config(scale: DatasetScale, representation: Representation) -> TrainConfig {
    let (epochs, hidden) = match scale {
        DatasetScale::Fast => (8, 12),
        DatasetScale::Default => (24, 20),
        DatasetScale::Full => (60, 32),
    };
    TrainConfig {
        epochs,
        batch_size: 16,
        learning_rate: 2.5e-3,
        seed: EXPERIMENT_SEED,
        representation,
        model: ModelConfig {
            hidden_dim: hidden,
            ..ModelConfig::default()
        },
    }
}

/// COMPOFF configuration matched to a dataset scale.
pub fn compoff_config(scale: DatasetScale) -> CompoffConfig {
    let epochs = match scale {
        DatasetScale::Fast => 20,
        DatasetScale::Default => 60,
        DatasetScale::Full => 120,
    };
    CompoffConfig {
        epochs,
        seed: EXPERIMENT_SEED,
        ..CompoffConfig::default()
    }
}

/// Serializable summary of one ParaGraph training run (what the figures need).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParaGraphRun {
    /// Platform the model was trained for.
    pub platform_name: String,
    /// Representation used (ablation study).
    pub representation: String,
    /// Per-epoch validation metrics.
    pub history: TrainingHistory,
    /// Final validation predictions.
    pub validation: Vec<PredictionRecord>,
    /// Final validation RMSE in ms.
    pub rmse_ms: f32,
    /// Final normalised RMSE.
    pub norm_rmse: f32,
    /// Validation runtime range (ms).
    pub runtime_range_ms: f32,
    /// Number of data points in the dataset.
    pub dataset_size: usize,
}

/// Serializable summary of one COMPOFF training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompoffRun {
    /// Platform the model was trained for.
    pub platform_name: String,
    /// Final validation predictions.
    pub validation: Vec<CompoffPrediction>,
    /// Final validation RMSE in ms.
    pub rmse_ms: f32,
    /// Final normalised RMSE.
    pub norm_rmse: f32,
}

fn cache_dir() -> PathBuf {
    // crates/bench/../../target/paragraph-cache
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("target").join("paragraph-cache"))
        .unwrap_or_else(|| PathBuf::from("target/paragraph-cache"))
}

fn cache_key(parts: &[&str]) -> PathBuf {
    cache_dir().join(format!(
        "{}.json",
        parts.join("_").replace([' ', '(', ')', '/'], "-")
    ))
}

fn load_cached<T: for<'de> Deserialize<'de>>(path: &PathBuf) -> Option<T> {
    let text = fs::read_to_string(path).ok()?;
    serde_json::from_str(&text).ok()
}

fn store_cached<T: Serialize>(path: &PathBuf, value: &T) {
    if let Some(dir) = path.parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Ok(text) = serde_json::to_string(value) {
        let _ = fs::write(path, text);
    }
}

fn scale_tag(scale: DatasetScale) -> &'static str {
    match scale {
        DatasetScale::Fast => "fast",
        DatasetScale::Default => "default",
        DatasetScale::Full => "full",
    }
}

/// Generate (or re-generate) the dataset of one platform at the given scale.
pub fn dataset(platform: Platform, scale: DatasetScale) -> PlatformDataset {
    dataset_outcome(platform, scale).dataset
}

/// Sharded generation of one platform's dataset against the workspace shard
/// store (`target/paragraph-cache/shards`), printing the run summary so
/// every experiment reports how much was resumed vs. recomputed.
pub fn dataset_outcome(platform: Platform, scale: DatasetScale) -> GenerationOutcome {
    let config = PipelineConfig {
        scale,
        seed: EXPERIMENT_SEED,
        noise_sigma: 0.04,
    };
    let outcome = generate_platform(platform, &config, &ShardStore::default_location());
    println!("  [shard store] {}", outcome.summary);
    outcome
}

/// Train (or load from cache) the ParaGraph model for one platform and
/// representation.
pub fn paragraph_run(
    platform: Platform,
    representation: Representation,
    scale: DatasetScale,
) -> ParaGraphRun {
    let config = train_config(scale, representation);
    let key = cache_key(&[
        "paragraph",
        platform.name(),
        representation.name(),
        scale_tag(scale),
        &format!("e{}h{}", config.epochs, config.model.hidden_dim),
    ]);
    if let Some(cached) = load_cached::<ParaGraphRun>(&key) {
        return cached;
    }
    let ds = dataset(platform, scale);
    let outcome =
        pg_gnn::train(&ds, &config).expect("bench training configs always have at least one epoch");
    let run = ParaGraphRun {
        platform_name: platform.name().to_string(),
        representation: representation.name().to_string(),
        history: outcome.history,
        validation: outcome.validation,
        rmse_ms: outcome.rmse_ms,
        norm_rmse: outcome.norm_rmse,
        runtime_range_ms: outcome.runtime_range_ms,
        dataset_size: ds.len(),
    };
    store_cached(&key, &run);
    run
}

/// Train (or load from cache) the COMPOFF baseline for one platform.
pub fn compoff_run(platform: Platform, scale: DatasetScale) -> CompoffRun {
    let config = compoff_config(scale);
    let key = cache_key(&[
        "compoff",
        platform.name(),
        scale_tag(scale),
        &format!("e{}", config.epochs),
    ]);
    if let Some(cached) = load_cached::<CompoffRun>(&key) {
        return cached;
    }
    let ds = dataset(platform, scale);
    let outcome = pg_compoff::train(&ds, &config);
    let run = CompoffRun {
        platform_name: platform.name().to_string(),
        validation: outcome.validation,
        rmse_ms: outcome.rmse_ms,
        norm_rmse: outcome.norm_rmse,
    };
    store_cached(&key, &run);
    run
}

/// Format a value in scientific notation the way the paper reports
/// normalised RMSE (e.g. `6 x 10^-3`).
pub fn scientific(value: f32) -> String {
    if value <= 0.0 {
        return "0".to_string();
    }
    let exponent = value.abs().log10().floor() as i32;
    let mantissa = value / 10f32.powi(exponent);
    format!("{mantissa:.1} x 10^{exponent}")
}

/// Print a standard experiment header.
pub fn print_header(title: &str, scale: DatasetScale) {
    println!();
    println!("==========================================================================");
    println!("  {title}");
    println!(
        "  scale: {:?} (set PARAGRAPH_FAST=1 or PARAGRAPH_FULL_DATASET=1 to change)",
        scale
    );
    println!("==========================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scientific_formatting() {
        assert_eq!(scientific(0.006), "6.0 x 10^-3");
        assert_eq!(scientific(0.01), "1.0 x 10^-2");
        assert_eq!(scientific(0.0), "0");
    }

    #[test]
    fn cache_round_trip() {
        let path = cache_dir().join("unit-test-cache.json");
        let run = CompoffRun {
            platform_name: "test".into(),
            validation: vec![],
            rmse_ms: 1.0,
            norm_rmse: 0.1,
        };
        store_cached(&path, &run);
        let loaded: CompoffRun = load_cached(&path).unwrap();
        assert_eq!(loaded.platform_name, "test");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn train_configs_scale_with_dataset_scale() {
        let fast = train_config(DatasetScale::Fast, Representation::ParaGraph);
        let full = train_config(DatasetScale::Full, Representation::ParaGraph);
        assert!(fast.epochs < full.epochs);
        assert!(fast.model.hidden_dim < full.model.hidden_dim);
    }
}
