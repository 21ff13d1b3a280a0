//! Training loop for the ParaGraph model: dataset preparation (graph
//! construction, feature/target scaling, one-time tensor conversion),
//! mini-batch Adam training over batched disjoint-union graphs on a single
//! reused tape, and validation-set evaluation after every epoch (the
//! training curves of Figures 5 and 7).
//!
//! One tape forward/backward serves a whole mini-batch: the batch-mean MSE
//! loss makes the batched gradients equal (to float precision) to the mean
//! of per-sample gradients, which is exactly what the previous per-sample
//! path averaged by hand. [`crate::reference`] keeps that path alive as the
//! baseline for the golden-equivalence tests and the `gnn_training`
//! benchmark; it builds its own relational graphs, so a prepared dataset
//! holds one graph per sample.

use crate::batch::{BatchedGraph, PreparedGraph, FORWARD_CHUNK};
use crate::model::{ModelConfig, ParaGraphModel};
use paragraph_core::Representation;
use pg_dataset::PlatformDataset;
use pg_tensor::{metrics, Adam, AdamConfig, Matrix, MinMaxScaler, Tape, TargetTransform};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Seed for parameter initialisation, shuffling and the train/val split.
    pub seed: u64,
    /// Which graph representation to train on (ablation study).
    pub representation: Representation,
    /// Model hyper-parameters.
    pub model: ModelConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 16,
            learning_rate: 2e-3,
            seed: 42,
            representation: Representation::ParaGraph,
            model: ModelConfig::default(),
        }
    }
}

impl TrainConfig {
    /// A reduced configuration for unit tests / CI.
    pub fn fast() -> Self {
        Self {
            epochs: 6,
            batch_size: 8,
            model: ModelConfig::tiny(),
            ..Self::default()
        }
    }
}

/// Typed failure of the training entry points.
///
/// Training used to clamp a zero epoch count to one pass silently
/// (`epochs.max(1)`), and downstream consumers of
/// [`TrainingHistory::epochs`] (`first()`/`last()` on the curve) would
/// panic if the clamp were removed without validation. A zero epoch count
/// is a real misconfiguration — e.g. a `PARAGRAPH_FAST` harness computing
/// `epochs` by integer division — so it is now rejected up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainError {
    /// `TrainConfig::epochs` was zero; the training loop would produce an
    /// untrained model and an empty history.
    ZeroEpochs,
    /// The training split contains no samples, so there is nothing to fit
    /// scalers or gradients on.
    EmptyTrainingSplit,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::ZeroEpochs => {
                write!(f, "training requires at least one epoch (epochs was 0)")
            }
            TrainError::EmptyTrainingSplit => {
                write!(f, "training split is empty; nothing to fit")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// Metadata of one sample kept alongside the tensors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleMeta {
    /// Data-point id within the platform dataset.
    pub id: usize,
    /// Application name.
    pub application: String,
    /// Variant name.
    pub variant: String,
    /// Ground-truth runtime in milliseconds.
    pub runtime_ms: f32,
}

/// The dataset converted to model inputs: per sample, its graph, scaled
/// side features and encoded target, each vector aligned with `meta`.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// Tensor-ready form of each sample's graph (flattened features, CSR
    /// patterns, attention priors in CSR order). Converted once here so
    /// neither training epochs nor evaluation passes rebuild them.
    pub graphs: Vec<PreparedGraph>,
    /// Scaled `(teams, threads)` side features of each sample.
    pub sides: Vec<[f32; 2]>,
    /// Encoded (scaled) runtime target of each sample.
    pub targets: Vec<f32>,
    /// Per-sample metadata.
    pub meta: Vec<SampleMeta>,
    /// Target transform fitted on the training split.
    pub target_transform: TargetTransform,
    /// Side-feature scaler fitted on the training split.
    pub side_scaler: MinMaxScaler,
    /// Indices of the training split.
    pub train_idx: Vec<usize>,
    /// Indices of the validation split.
    pub val_idx: Vec<usize>,
}

/// Validation metrics of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch number (1-based).
    pub epoch: usize,
    /// Mean training MSE (in target/encoded space).
    pub train_loss: f32,
    /// Validation RMSE in milliseconds.
    pub val_rmse_ms: f32,
    /// Validation RMSE normalised by the runtime range.
    pub val_norm_rmse: f32,
}

/// Training history across epochs (Figures 5 and 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainingHistory {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
}

/// One validation-set prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionRecord {
    /// Data-point id.
    pub id: usize,
    /// Application name.
    pub application: String,
    /// Variant name.
    pub variant: String,
    /// Ground-truth runtime (ms).
    pub actual_ms: f32,
    /// Predicted runtime (ms).
    pub predicted_ms: f32,
}

/// Result of training one model on one platform dataset.
#[derive(Debug, Clone)]
pub struct TrainedOutcome {
    /// The trained model.
    pub model: ParaGraphModel,
    /// Per-epoch validation metrics.
    pub history: TrainingHistory,
    /// Final validation-set predictions.
    pub validation: Vec<PredictionRecord>,
    /// Final validation RMSE in milliseconds (Table III).
    pub rmse_ms: f32,
    /// Final normalised RMSE (Table III).
    pub norm_rmse: f32,
    /// Runtime range (max - min) of the validation labels in milliseconds.
    pub runtime_range_ms: f32,
}

/// Convert a platform dataset into model-ready samples.
pub fn prepare(
    dataset: &PlatformDataset,
    representation: Representation,
    seed: u64,
) -> PreparedDataset {
    let (train_idx, val_idx) = dataset.split(seed);

    // Fit scalers on the *training* split only.
    let train_runtimes: Vec<f32> = train_idx
        .iter()
        .map(|&i| dataset.points[i].runtime_ms as f32)
        .collect();
    let target_transform = TargetTransform::fit_log1p(&train_runtimes);
    let train_side: Vec<Vec<f32>> = train_idx
        .iter()
        .map(|&i| {
            vec![
                dataset.points[i].teams as f32,
                dataset.points[i].threads as f32,
            ]
        })
        .collect();
    let side_scaler = if train_side.is_empty() {
        MinMaxScaler::fit(&[vec![0.0, 0.0], vec![1.0, 1.0]])
    } else {
        MinMaxScaler::fit(&train_side)
    };

    // Build and convert every graph in one parallel pass; each relational
    // graph is dropped as soon as its tensor form exists.
    let graphs: Vec<PreparedGraph> = dataset
        .points
        .par_iter()
        .map(|point| PreparedGraph::from_relational(&point.build_relational(representation)))
        .collect();
    let sides: Vec<[f32; 2]> = dataset
        .points
        .iter()
        .map(|point| {
            let side = side_scaler.transform(&[point.teams as f32, point.threads as f32]);
            [side[0], side[1]]
        })
        .collect();
    let targets: Vec<f32> = dataset
        .points
        .iter()
        .map(|point| target_transform.encode(point.runtime_ms as f32))
        .collect();

    let meta: Vec<SampleMeta> = dataset
        .points
        .iter()
        .map(|p| SampleMeta {
            id: p.id,
            application: p.application.clone(),
            variant: p.variant.name().to_string(),
            runtime_ms: p.runtime_ms as f32,
        })
        .collect();

    PreparedDataset {
        graphs,
        sides,
        targets,
        meta,
        target_transform,
        side_scaler,
        train_idx,
        val_idx,
    }
}

/// Assemble the disjoint-union batch of a set of sample indices.
fn batch_of(prepared: &PreparedDataset, indices: &[usize]) -> BatchedGraph {
    let items: Vec<(&PreparedGraph, [f32; 2])> = indices
        .iter()
        .map(|&i| (&prepared.graphs[i], prepared.sides[i]))
        .collect();
    BatchedGraph::build(&items)
}

/// Evaluate a model on a set of samples, returning per-sample predictions in
/// milliseconds. Batched: chunks of `FORWARD_CHUNK` (64) graphs go through
/// one forward pass each on a single reused tape.
pub fn evaluate(
    model: &ParaGraphModel,
    prepared: &PreparedDataset,
    indices: &[usize],
) -> Vec<PredictionRecord> {
    let mut tape = Tape::new();
    let mut records = Vec::with_capacity(indices.len());
    for chunk in indices.chunks(FORWARD_CHUNK) {
        let batch = batch_of(prepared, chunk);
        let encoded = model.predict_batched(&mut tape, &batch);
        for (&i, encoded) in chunk.iter().zip(encoded) {
            let predicted_ms = prepared.target_transform.decode(encoded).max(0.0);
            let meta = &prepared.meta[i];
            records.push(PredictionRecord {
                id: meta.id,
                application: meta.application.clone(),
                variant: meta.variant.clone(),
                actual_ms: meta.runtime_ms,
                predicted_ms,
            });
        }
    }
    records
}

/// RMSE (ms) and normalised RMSE of a set of prediction records.
pub fn summarize(records: &[PredictionRecord]) -> (f32, f32, f32) {
    let predicted: Vec<f32> = records.iter().map(|r| r.predicted_ms).collect();
    let actual: Vec<f32> = records.iter().map(|r| r.actual_ms).collect();
    let rmse = metrics::rmse(&predicted, &actual);
    let range = metrics::value_range(&actual);
    let norm = if range > 0.0 { rmse / range } else { 0.0 };
    (rmse, norm, range)
}

/// Train the ParaGraph model on one platform dataset.
pub fn train(
    dataset: &PlatformDataset,
    config: &TrainConfig,
) -> Result<TrainedOutcome, TrainError> {
    let prepared = prepare(dataset, config.representation, config.seed);
    train_prepared(&prepared, config)
}

/// Train on an already-prepared dataset (lets the ablation study reuse the
/// expensive graph construction across representations when they share it).
///
/// Each mini-batch is a disjoint-union [`BatchedGraph`] driven through one
/// forward/backward on a single tape that is `reset()` (not rebuilt)
/// between steps, and the optimiser reads gradients by reference
/// ([`pg_tensor::Tape::grad_ref`]) instead of cloning them.
pub fn train_prepared(
    prepared: &PreparedDataset,
    config: &TrainConfig,
) -> Result<TrainedOutcome, TrainError> {
    if config.epochs == 0 {
        return Err(TrainError::ZeroEpochs);
    }
    if prepared.train_idx.is_empty() {
        return Err(TrainError::EmptyTrainingSplit);
    }
    let mut model = ParaGraphModel::new(config.model, config.seed);
    let mut adam = Adam::new(AdamConfig {
        learning_rate: config.learning_rate,
        ..AdamConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7261_696e);
    let mut history = TrainingHistory::default();
    let mut tape = Tape::new();
    let mut last_validation: Option<Vec<PredictionRecord>> = None;
    // Parameters that receive no gradient (e.g. the attention vector of a
    // relation absent from a batch) still take an Adam step with a zero
    // gradient, exactly as the per-sample path always did (its `Tape::grad`
    // materialised zeros). Cache the zero matrices per parameter key.
    let mut zeros: Vec<Matrix> = Vec::new();

    let mut train_order = prepared.train_idx.clone();
    for epoch in 1..=config.epochs {
        train_order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;

        for batch_indices in train_order.chunks(config.batch_size.max(1)) {
            tape.reset();
            let batch = batch_of(prepared, batch_indices);
            let targets: Vec<f32> = batch_indices.iter().map(|&i| prepared.targets[i]).collect();
            let (_, loss, param_vars) = model.forward_batched(&mut tape, &batch, Some(&targets));
            let loss = loss.expect("targets were supplied");
            let backward_timer = pg_obs::obs().timer(pg_obs::Stage::GnnBackward);
            tape.backward(loss);
            backward_timer.finish();
            // The batch-mean MSE equals the mean of per-sample losses.
            epoch_loss += f64::from(tape.value(loss).get(0, 0));
            batches += 1;

            adam.begin_step();
            for (key, (param, var)) in model
                .parameters_mut()
                .into_iter()
                .zip(param_vars.iter())
                .enumerate()
            {
                if let Some(grad) = tape.grad_ref(*var) {
                    adam.step(key, param, grad);
                } else {
                    if zeros.len() <= key {
                        zeros.resize_with(key + 1, || Matrix::zeros(0, 0));
                    }
                    if zeros[key].shape() != param.shape() {
                        zeros[key].reset_to_zeros(param.rows(), param.cols());
                    }
                    adam.step(key, param, &zeros[key]);
                }
            }
        }

        // Validation after every epoch (Figures 5 and 7 plot this curve).
        let val_records = evaluate(&model, prepared, &prepared.val_idx);
        let (rmse_ms, norm_rmse, _) = summarize(&val_records);
        history.epochs.push(EpochStats {
            epoch,
            train_loss: (epoch_loss / batches.max(1) as f64) as f32,
            val_rmse_ms: rmse_ms,
            val_norm_rmse: norm_rmse,
        });
        last_validation = Some(val_records);
    }

    // The final validation pass is exactly the last epoch's (same model,
    // same split, deterministic forward), so reuse it instead of paying a
    // second evaluation sweep per training run.
    let validation =
        last_validation.unwrap_or_else(|| evaluate(&model, prepared, &prepared.val_idx));
    let (rmse_ms, norm_rmse, runtime_range_ms) = summarize(&validation);
    Ok(TrainedOutcome {
        model,
        history,
        validation,
        rmse_ms,
        norm_rmse,
        runtime_range_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_dataset::{collect_platform, DatasetScale, PipelineConfig};
    use pg_perfsim::Platform;

    fn tiny_dataset() -> PlatformDataset {
        collect_platform(
            Platform::SummitV100,
            &PipelineConfig {
                scale: DatasetScale::Fast,
                seed: 3,
                noise_sigma: 0.02,
            },
        )
    }

    #[test]
    fn prepare_builds_one_sample_per_point() {
        let ds = tiny_dataset();
        let prepared = prepare(&ds, Representation::ParaGraph, 1);
        assert_eq!(prepared.graphs.len(), ds.len());
        assert_eq!(prepared.sides.len(), ds.len());
        assert_eq!(prepared.targets.len(), ds.len());
        assert_eq!(prepared.meta.len(), ds.len());
        assert_eq!(prepared.train_idx.len() + prepared.val_idx.len(), ds.len());
        // Encoded targets are within [0, 1] (training split) or close to it.
        assert!(prepared.targets.iter().all(|&t| (-0.2..=1.2).contains(&t)));
        // Side features are scaled.
        assert!(prepared.sides.iter().all(|s| (0.0..=1.0).contains(&s[0])));
    }

    #[test]
    fn training_reduces_validation_error() {
        let ds = tiny_dataset();
        let config = TrainConfig {
            epochs: 8,
            ..TrainConfig::fast()
        };
        let outcome = train(&ds, &config).unwrap();
        assert_eq!(outcome.history.epochs.len(), 8);
        let first = outcome.history.epochs.first().unwrap().val_norm_rmse;
        let last = outcome.history.epochs.last().unwrap().val_norm_rmse;
        assert!(
            last < first,
            "validation error must improve during training: {first} -> {last}"
        );
        assert!(
            outcome.norm_rmse < 0.5,
            "normalised RMSE {} is unreasonably high",
            outcome.norm_rmse
        );
        assert_eq!(outcome.validation.len(), ds.split(config.seed).1.len());
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let ds = tiny_dataset();
        let config = TrainConfig {
            epochs: 2,
            ..TrainConfig::fast()
        };
        let a = train(&ds, &config).unwrap();
        let b = train(&ds, &config).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.rmse_ms, b.rmse_ms);
    }

    #[test]
    fn zero_epochs_is_a_typed_error_not_a_panic() {
        let ds = tiny_dataset();
        let config = TrainConfig {
            epochs: 0,
            ..TrainConfig::fast()
        };
        assert_eq!(train(&ds, &config).unwrap_err(), TrainError::ZeroEpochs);
        // The prepared-dataset entry point rejects it the same way.
        let prepared = prepare(&ds, config.representation, config.seed);
        assert_eq!(
            train_prepared(&prepared, &config).unwrap_err(),
            TrainError::ZeroEpochs
        );
    }

    #[test]
    fn empty_training_split_is_a_typed_error() {
        let ds = tiny_dataset();
        let mut prepared = prepare(&ds, Representation::ParaGraph, 1);
        prepared.train_idx.clear();
        assert_eq!(
            train_prepared(&prepared, &TrainConfig::fast()).unwrap_err(),
            TrainError::EmptyTrainingSplit
        );
    }

    #[test]
    fn summarize_matches_metrics() {
        let records = vec![
            PredictionRecord {
                id: 0,
                application: "MM".into(),
                variant: "gpu".into(),
                actual_ms: 10.0,
                predicted_ms: 12.0,
            },
            PredictionRecord {
                id: 1,
                application: "MM".into(),
                variant: "gpu".into(),
                actual_ms: 110.0,
                predicted_ms: 100.0,
            },
        ];
        let (rmse, norm, range) = summarize(&records);
        assert!((range - 100.0).abs() < 1e-6);
        let expected_rmse = ((4.0 + 100.0) / 2.0f32).sqrt();
        assert!((rmse - expected_rmse).abs() < 1e-4);
        assert!((norm - expected_rmse / 100.0).abs() < 1e-6);
    }
}
