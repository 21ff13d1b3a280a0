//! The deployable form of a trained ParaGraph model.
//!
//! [`train`](crate::train()) returns the model and its metrics, but the
//! fitted scalers live in the [`PreparedDataset`](crate::PreparedDataset)
//! and are easy to lose track of — and a model is useless for serving
//! without them. [`TrainedModel`] bundles everything a prediction needs
//! (model weights, the graph representation it was trained on, the fitted
//! target transform and side-feature scaler) behind one batched entry
//! point, [`TrainedModel::predict_relational_batch`], which prices a whole
//! candidate set of relational graphs. The `pg-engine` GNN backend consumes
//! exactly this bundle.

use crate::batch::{BatchedGraph, PreparedGraph, FORWARD_CHUNK};
use crate::model::ParaGraphModel;
use crate::train::{prepare, train_prepared, TrainConfig, TrainError, TrainedOutcome};
use paragraph_core::{BuilderConfig, RelationalGraph, Representation};
use pg_dataset::PlatformDataset;
use pg_tensor::{MinMaxScaler, Tape, TargetTransform};
use serde::{Deserialize, Serialize};

/// A trained ParaGraph model together with the fitted scalers and the
/// representation it expects — everything needed to serve predictions.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct TrainedModel {
    /// The trained network.
    pub model: ParaGraphModel,
    /// Graph representation the model was trained on.
    pub representation: Representation,
    /// Target transform fitted on the training split (decodes predictions
    /// back to milliseconds).
    pub target_transform: TargetTransform,
    /// Side-feature scaler fitted on the training split (scales the raw
    /// `(teams, threads)` launch configuration).
    pub side_scaler: MinMaxScaler,
}

impl TrainedModel {
    /// Train on a platform dataset and return the bundle plus the training
    /// metrics ([`TrainedOutcome`]).
    pub fn fit(
        dataset: &PlatformDataset,
        config: &TrainConfig,
    ) -> Result<(TrainedModel, TrainedOutcome), TrainError> {
        let prepared = prepare(dataset, config.representation, config.seed);
        let outcome = train_prepared(&prepared, config)?;
        let bundle = TrainedModel {
            model: outcome.model.clone(),
            representation: config.representation,
            target_transform: prepared.target_transform,
            side_scaler: prepared.side_scaler,
        };
        Ok((bundle, outcome))
    }

    /// The builder configuration a caller must use to construct graphs this
    /// model can consume for a given launch configuration.
    pub fn builder_config(&self, teams: u64, threads: u64) -> BuilderConfig {
        BuilderConfig::for_representation(self.representation).with_launch(teams, threads)
    }

    /// Predict the runtimes (ms) of a whole candidate set, each item a
    /// relational graph built with [`TrainedModel::builder_config`] and its
    /// raw launch configuration `(graph, teams, threads)`. Batched forward
    /// passes: each graph's CSR patterns are built once, the graphs are
    /// joined block-diagonally into disjoint unions of up to
    /// `FORWARD_CHUNK` (64) members, and each chunk is driven through one
    /// forward pass, so parameters are registered once per chunk instead of
    /// once per candidate. Results are ordered like the input, and a
    /// candidate's prediction does not depend on what it is batched with.
    ///
    /// The tape is fresh per call and dropped with it. A serving process
    /// calls this from many threads; a tape kept per thread would grow every
    /// slot to the largest matrix any call ever wrote there and keep it.
    pub fn predict_relational_batch(&self, items: &[(&RelationalGraph, u64, u64)]) -> Vec<f32> {
        let mut tape = Tape::new();
        let mut out = Vec::with_capacity(items.len());
        for chunk in items.chunks(FORWARD_CHUNK) {
            let prepared: Vec<PreparedGraph> = chunk
                .iter()
                .map(|(graph, _, _)| PreparedGraph::from_relational(graph))
                .collect();
            let batch_items: Vec<(&PreparedGraph, [f32; 2])> = prepared
                .iter()
                .zip(chunk)
                .map(|(graph, &(_, teams, threads))| {
                    let side = self.side_scaler.transform(&[teams as f32, threads as f32]);
                    (graph, [side[0], side[1]])
                })
                .collect();
            let batch = BatchedGraph::build(&batch_items);
            out.extend(
                self.model
                    .predict_batched(&mut tape, &batch)
                    .into_iter()
                    .map(|encoded| self.target_transform.decode(encoded).max(0.0)),
            );
        }
        out
    }

    /// Persist this bundle at `path` with a content fingerprint (atomic
    /// rename write), returning the fingerprint. `trained_on` is the
    /// platform whose dataset fitted the model; it is stored in the
    /// artifact so [`TrainedModel::load`] can reconstruct a
    /// [`GnnBackend`](crate::GnnBackend) that refuses foreign platforms.
    pub fn save(
        &self,
        path: &std::path::Path,
        trained_on: pg_perfsim::Platform,
    ) -> Result<String, crate::registry::BundleError> {
        crate::registry::save_bundle(self, trained_on, path)
    }

    /// Load and verify a bundle persisted by [`TrainedModel::save`].
    pub fn load(
        path: &std::path::Path,
    ) -> Result<crate::registry::LoadedBundle, crate::registry::BundleError> {
        crate::registry::load_bundle(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::evaluate;
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
    fn bundle_predictions_match_the_training_pipeline() {
        let ds = tiny_dataset();
        let config = TrainConfig::fast();
        let (bundle, _) = TrainedModel::fit(&ds, &config).unwrap();

        // Re-derive the prepared dataset the training run used and check the
        // bundle, fed graphs built from each point's source, reproduces
        // evaluate()'s predictions.
        let prepared = prepare(&ds, config.representation, config.seed);
        let records = evaluate(&bundle.model, &prepared, &prepared.val_idx);
        let graphs: Vec<(RelationalGraph, u64, u64)> = prepared
            .val_idx
            .iter()
            .take(10)
            .map(|&idx| {
                let point = &ds.points[idx];
                let ast = pg_frontend::parse(&point.source).unwrap();
                let config = bundle.builder_config(point.teams, point.threads);
                let graph = paragraph_core::to_relational(&paragraph_core::build(&ast, &config));
                (graph, point.teams, point.threads)
            })
            .collect();
        let items: Vec<(&RelationalGraph, u64, u64)> =
            graphs.iter().map(|(g, t, th)| (g, *t, *th)).collect();
        let from_source = bundle.predict_relational_batch(&items);
        assert_eq!(from_source.len(), 10);
        for (record, from_source) in records.iter().zip(from_source) {
            assert!(
                (from_source - record.predicted_ms).abs()
                    <= 1e-4 * record.predicted_ms.abs().max(1.0),
                "bundle prediction {from_source} diverged from training-path prediction {}",
                record.predicted_ms
            );
        }
    }
}
