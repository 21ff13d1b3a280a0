//! The trained RGAT bundle as a `pg-engine` backend.
//!
//! Lives here (not in `pg-engine`) so the engine facade stays below every
//! model crate in the dependency graph: `pg-gnn` trains on `pg-dataset`,
//! and `pg-dataset` routes its measurement through `pg-engine` — a
//! `pg-engine → pg-gnn` edge would close that cycle.

use crate::bundle::TrainedModel;
use paragraph_core::RelationalGraph;
use pg_advisor::KernelInstance;
use pg_engine::{EngineError, PredictionContext, RuntimePredictor};
use pg_perfsim::Platform;
use std::sync::Arc;

/// A trained ParaGraph RGAT model as a backend.
pub struct GnnBackend {
    bundle: TrainedModel,
    trained_on: Platform,
}

impl GnnBackend {
    /// Serve predictions from a trained bundle. `trained_on` is the
    /// platform whose dataset fitted the model; predictions are refused
    /// (with [`EngineError::BackendUnavailable`]) when the engine serves a
    /// different platform, since a per-platform regressor extrapolates
    /// silently wrong numbers elsewhere.
    pub fn new(bundle: TrainedModel, trained_on: Platform) -> Self {
        Self { bundle, trained_on }
    }

    /// The bundle this backend serves.
    pub fn bundle(&self) -> &TrainedModel {
        &self.bundle
    }

    /// Platform whose dataset trained the bundle.
    pub fn trained_on(&self) -> Platform {
        self.trained_on
    }
}

impl RuntimePredictor for GnnBackend {
    fn name(&self) -> &str {
        "gnn"
    }

    /// The whole candidate set becomes one (chunked) disjoint-union forward
    /// pass instead of one tape per candidate. Graph construction goes
    /// through the engine's memoized frontend in batch order, so the
    /// launches of one body share its parse; candidates whose source fails
    /// the frontend report their own error while the rest of the batch
    /// proceeds.
    fn predict_batch(
        &self,
        ctx: &PredictionContext<'_>,
        instances: &[KernelInstance],
    ) -> Vec<Result<f64, EngineError>> {
        if ctx.platform() != self.trained_on {
            let err = EngineError::BackendUnavailable(format!(
                "GNN model was trained on {} but the engine serves {}",
                self.trained_on.name(),
                ctx.platform().name()
            ));
            return instances.iter().map(|_| Err(err.clone())).collect();
        }
        // Resolve graphs through the frontend cache, keeping per-candidate
        // errors in place.
        let mut results: Vec<Result<f64, EngineError>> = Vec::with_capacity(instances.len());
        let mut ok_indices: Vec<usize> = Vec::with_capacity(instances.len());
        let mut graphs: Vec<Arc<RelationalGraph>> = Vec::with_capacity(instances.len());
        for (idx, instance) in instances.iter().enumerate() {
            match ctx.relational_graph(instance, self.bundle.representation) {
                Ok(graph) => {
                    ok_indices.push(idx);
                    graphs.push(graph);
                    results.push(Ok(0.0)); // placeholder, filled below
                }
                Err(error) => results.push(Err(error)),
            }
        }
        let items: Vec<(&RelationalGraph, u64, u64)> = ok_indices
            .iter()
            .zip(graphs.iter())
            .map(|(&idx, graph)| {
                let launch = instances[idx].launch;
                (graph.as_ref(), launch.teams, launch.threads)
            })
            .collect();
        for (&idx, prediction) in ok_indices
            .iter()
            .zip(self.bundle.predict_relational_batch(&items))
        {
            results[idx] = Ok(f64::from(prediction));
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, ParaGraphModel};
    use paragraph_core::Representation;
    use pg_engine::{CacheCounters, Engine, LaunchBudget, ParseOptions};
    use pg_frontend::FrontendErrorKind;
    use pg_kernels::{find_kernel, KernelTemplate};
    use pg_obs::TraceHandle;
    use pg_tensor::{MinMaxScaler, TargetTransform};
    use std::collections::HashSet;

    /// An untrained bundle: the batch contract holds for any weights.
    fn bundle() -> TrainedModel {
        TrainedModel {
            model: ParaGraphModel::new(ModelConfig::default(), 7),
            representation: Representation::ParaGraph,
            target_transform: TargetTransform::fit_log1p(&[0.01, 50.0]),
            side_scaler: MinMaxScaler::fit(&[vec![1.0, 1.0], vec![1280.0, 1024.0]]),
        }
    }

    fn engine(platform: Platform, options: ParseOptions) -> Engine {
        Engine::builder()
            .platform(platform)
            .parse_options(options)
            .backend(GnnBackend::new(bundle(), platform))
            .build()
    }

    /// The platform-default candidates of a template, as `advise` ranks them.
    fn candidates(platform: Platform, kernel: KernelTemplate) -> Vec<KernelInstance> {
        Engine::builder()
            .platform(platform)
            .build()
            .template_space(
                kernel,
                None,
                &LaunchBudget::PlatformDefault,
                &TraceHandle::disabled(),
            )
            .unwrap()
            .instances()
    }

    /// Asserts that one batch equals a batch of one per instance, bit for
    /// bit and error for error, each side on a fresh engine under
    /// `options`. Returns the batch's results and its cache activity.
    fn batch_matching_singletons(
        platform: Platform,
        options: ParseOptions,
        instances: &[KernelInstance],
    ) -> (Vec<Result<f64, EngineError>>, CacheCounters) {
        let bits = |results: &[Result<f64, EngineError>]| -> Vec<Result<u64, EngineError>> {
            results
                .iter()
                .map(|r| r.clone().map(f64::to_bits))
                .collect()
        };
        let (batch, counters) = engine(platform, options).predict_instances_counted(instances);
        let single = engine(platform, options);
        let singletons: Vec<_> = instances
            .iter()
            .flat_map(|instance| single.predict_instances(std::slice::from_ref(instance)))
            .collect();
        assert_eq!(bits(&batch), bits(&singletons));
        (batch, counters)
    }

    #[test]
    fn batch_equals_singleton_batches_on_every_catalogue_candidate_set() {
        for platform in [Platform::SummitV100, Platform::SummitPower9] {
            for kernel in pg_kernels::all_kernels() {
                let instances = candidates(platform, kernel);
                let bodies: HashSet<_> = instances.iter().map(KernelInstance::body_key).collect();
                assert!(bodies.len() < instances.len());
                let (results, cache) =
                    batch_matching_singletons(platform, ParseOptions::default(), &instances);
                assert!(results.iter().all(Result::is_ok));
                // One graph miss per instance, one AST miss per body; every
                // other launch of a body hits its AST.
                let (n, b) = (instances.len() as u64, bodies.len() as u64);
                assert_eq!(
                    cache,
                    CacheCounters {
                        hits: n - b,
                        misses: n + b
                    }
                );
            }
        }
    }

    #[test]
    fn an_unparseable_source_fails_in_place_and_the_rest_are_priced() {
        let platform = Platform::SummitV100;
        let mut batch = candidates(platform, find_kernel("MV/matvec").unwrap());
        let mut bad = batch[0].clone();
        bad.source = "this is not C".to_string();
        batch.insert(1, bad);
        let (results, _) = batch_matching_singletons(platform, ParseOptions::default(), &batch);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.is_err(), i == 1, "{i}: {result:?}");
        }
    }

    #[test]
    fn the_byte_cap_admits_each_member_of_a_body_on_its_own_length() {
        // One body across V100's default grid: the launch digits make its
        // members 0 to 4 bytes longer than the shortest, and the body
        // shorter than all of them.
        let platform = Platform::SummitV100;
        let mut body: Vec<KernelInstance> = candidates(platform, find_kernel("MM/matmul").unwrap())
            .into_iter()
            .filter(|i| i.variant == pg_advisor::Variant::Gpu)
            .collect();
        body.sort_by_key(|i| i.source.len());
        let cap = body[0].source.len();
        assert!(body.last().unwrap().source.len() > cap);
        let options = ParseOptions::default().with_max_source_bytes(cap);
        // Shortest first, then longest first: whichever member comes first,
        // each is admitted or refused on its own length.
        for _ in 0..2 {
            let (results, _) = batch_matching_singletons(platform, options, &body);
            for (instance, result) in body.iter().zip(&results) {
                match result {
                    Ok(_) => assert!(instance.source.len() <= cap),
                    Err(EngineError::Frontend(e)) => assert_eq!(
                        e.kind,
                        FrontendErrorKind::SourceTooLarge {
                            actual: instance.source.len(),
                            limit: cap
                        }
                    ),
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
            body.reverse();
        }
    }
}
