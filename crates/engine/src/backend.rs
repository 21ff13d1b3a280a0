//! The pluggable prediction backends behind one trait.
//!
//! [`RuntimePredictor`] is the seam between the engine's request path and
//! the runtime-prediction strategies the repository implements. The engine
//! crate itself ships only [`SimulatorBackend`] (the analytical accelerator
//! model, bit-identical to [`pg_perfsim::measure`]); the learned backends
//! register from above, so the facade sits below every model crate:
//!
//! * `pg_gnn::GnnBackend` — a trained RGAT `TrainedModel` bundle, the
//!   paper's model;
//! * `pg_compoff::CompoffBackend` — the COMPOFF MLP baseline.
//!
//! Backends receive a [`PredictionContext`] giving them the engine's
//! platform and its memoized frontend, so every backend benefits from the
//! AST/graph caches. A backend prices a whole batch in one `predict_batch`
//! call and fans it out itself: the simulator across launch-free bodies,
//! the GNN through disjoint-union forward passes, COMPOFF across
//! candidates.

use crate::cache::{FrontendCache, RequestCounters};
use crate::error::EngineError;
use pg_advisor::{BodyKey, KernelInstance};
use pg_perfsim::{analyze_ast, KernelCost, NoiseModel, Platform};
use rayon::prelude::*;
use std::collections::HashMap;

/// Read-only request-path services the engine lends to a backend for the
/// duration of one prediction call.
pub struct PredictionContext<'a> {
    cache: &'a FrontendCache,
    platform: Platform,
    counters: &'a RequestCounters,
}

impl<'a> PredictionContext<'a> {
    pub(crate) fn new(
        cache: &'a FrontendCache,
        platform: Platform,
        counters: &'a RequestCounters,
    ) -> Self {
        Self {
            cache,
            platform,
            counters,
        }
    }

    /// The platform the engine serves.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Memoized access to the parsed AST of a source.
    pub fn ast(&self, source: &str) -> Result<std::sync::Arc<pg_frontend::Ast>, EngineError> {
        self.cache.ast_recorded(source, Some(self.counters))
    }

    /// Memoized access to the relational graph of an instance under a
    /// representation, built from the AST of its launch-free body (see
    /// [`FrontendCache::relational_graph`]).
    pub fn relational_graph(
        &self,
        instance: &KernelInstance,
        representation: paragraph_core::Representation,
    ) -> Result<std::sync::Arc<paragraph_core::RelationalGraph>, EngineError> {
        self.cache
            .relational_graph_recorded(instance, representation, Some(self.counters))
    }
}

/// A runtime-prediction strategy the engine can drive.
pub trait RuntimePredictor: Send + Sync {
    /// Short name for provenance in reports (e.g. `"simulator"`).
    fn name(&self) -> &str;

    /// Predict the runtimes (ms) of a batch of instances. The engine hands
    /// a backend whole candidate sets, so it can amortize per-batch work:
    /// `pg_gnn::GnnBackend` joins the set into disjoint-union mini-batches
    /// and serves them with one tape forward pass per chunk. Implementations
    /// must return one result per instance, in instance order, and report
    /// per-instance failures in place rather than failing the whole batch;
    /// an instance's result must not depend on what else is in the batch.
    fn predict_batch(
        &self,
        ctx: &PredictionContext<'_>,
        instances: &[KernelInstance],
    ) -> Vec<Result<f64, EngineError>>;
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// The analytical accelerator simulator as a backend.
///
/// Produces exactly the numbers [`pg_perfsim::measure`] produces (same cost
/// analysis, same execution model, same deterministic noise stream), while
/// routing the parse through the engine's AST cache. A batch parses each
/// launch-free body once (see [`SimulatorBackend::predict_batch`]).
#[derive(Debug, Clone)]
pub struct SimulatorBackend {
    noise: NoiseModel,
}

impl SimulatorBackend {
    /// Simulator with deterministic measurement noise.
    pub fn new(noise: NoiseModel) -> Self {
        Self { noise }
    }

    /// Simulator without measurement noise (the ranking-friendly default).
    pub fn noise_free() -> Self {
        Self::new(NoiseModel::disabled())
    }

    /// Parse `instance` through the AST memo and analyse its cost.
    fn cost(
        ctx: &PredictionContext<'_>,
        instance: &KernelInstance,
    ) -> Result<KernelCost, EngineError> {
        let ast = ctx.ast(&instance.source)?;
        Ok(analyze_ast(
            &ast,
            instance.bytes_to_device as f64,
            instance.bytes_from_device as f64,
        ))
    }

    /// Label `instance` from its body's cost: the execution model at the
    /// instance's own launch, then the instance's own noise draw. Every
    /// result of `predict_batch` ends here.
    fn label(&self, cost: &KernelCost, instance: &KernelInstance, platform: Platform) -> f64 {
        let ideal_ms = pg_perfsim::predict(cost, instance.launch, platform).total_ms();
        if self.noise.sigma <= 0.0 {
            // The key string only seeds the noise stream; skip building it
            // on the (default) noise-free hot path.
            return ideal_ms;
        }
        let key = format!("{}@{}", instance.describe(), platform.name());
        self.noise.apply(ideal_ms, &key)
    }
}

impl Default for SimulatorBackend {
    fn default() -> Self {
        Self::noise_free()
    }
}

/// The group an instance joins in a simulator batch: its launch-free body,
/// and whether its own source fits the parse budget's byte cap. Members of
/// a body differ only in launch digits, so the byte cap is the one parse
/// limit that can split them.
fn batch_group(instance: &KernelInstance, max_source_bytes: usize) -> (BodyKey<'_>, bool) {
    (
        instance.body_key(),
        instance.source.len() <= max_source_bytes,
    )
}

impl RuntimePredictor for SimulatorBackend {
    fn name(&self) -> &str {
        "simulator"
    }

    /// Parse each launch-free body once per batch.
    ///
    /// Mirrors [`pg_perfsim::measure`] step for step, with the parse
    /// memoized. The cost analysis never reads the launch clause, so the
    /// instances of one (kernel, variant, sizes) body across a launch sweep
    /// share one cost. Instances are grouped by [`KernelInstance::body_key`]
    /// — content, never a name — and by whether they fit the byte cap. One
    /// representative per group, the first in batch order, is parsed and
    /// analysed through the AST memo, groups fanned out over the pool; every
    /// instance is then labelled at its own launch with its own noise draw.
    /// A group that fails to parse hands its error to members spelled like
    /// the representative; any other member is parsed and labelled on its
    /// own, so every result equals the same instance's batch of one bit for
    /// bit. Scratch memory is O(groups).
    fn predict_batch(
        &self,
        ctx: &PredictionContext<'_>,
        instances: &[KernelInstance],
    ) -> Vec<Result<f64, EngineError>> {
        let max_source_bytes = ctx.cache.parse_options().max_source_bytes;
        let mut groups = HashMap::new();
        let mut representatives: Vec<&KernelInstance> = Vec::new();
        for instance in instances {
            groups
                .entry(batch_group(instance, max_source_bytes))
                .or_insert_with(|| {
                    representatives.push(instance);
                    representatives.len() - 1
                });
        }
        let costs: Vec<Result<KernelCost, EngineError>> = representatives
            .par_iter()
            .map(|representative| Self::cost(ctx, representative))
            .collect();
        instances
            .par_iter()
            .map(|instance| {
                let group = groups[&batch_group(instance, max_source_bytes)];
                match &costs[group] {
                    Ok(cost) => Ok(self.label(cost, instance, ctx.platform())),
                    Err(error) if instance.source == representatives[group].source => {
                        Err(error.clone())
                    }
                    Err(_) => Self::cost(ctx, instance)
                        .map(|cost| self.label(&cost, instance, ctx.platform())),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, LaunchBudget};
    use pg_frontend::{FrontendErrorKind, ParseOptions};
    use pg_kernels::{find_kernel, KernelTemplate};
    use pg_obs::TraceHandle;
    use std::collections::HashSet;

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
    /// bit and error for error, each side on a fresh cache under
    /// `options`. Returns the batch's results and its cache activity.
    fn batch_matching_singletons(
        backend: &SimulatorBackend,
        platform: Platform,
        options: ParseOptions,
        instances: &[KernelInstance],
    ) -> (Vec<Result<f64, EngineError>>, crate::CacheCounters) {
        let bits = |results: &[Result<f64, EngineError>]| -> Vec<Result<u64, EngineError>> {
            results
                .iter()
                .map(|r| r.clone().map(f64::to_bits))
                .collect()
        };
        let counters = RequestCounters::default();
        let cache = FrontendCache::with_parse_options(64, options);
        let batch = backend.predict_batch(
            &PredictionContext::new(&cache, platform, &counters),
            instances,
        );
        let single_cache = FrontendCache::with_parse_options(64, options);
        let single_counters = RequestCounters::default();
        let ctx = PredictionContext::new(&single_cache, platform, &single_counters);
        let singletons: Vec<_> = instances
            .iter()
            .flat_map(|i| backend.predict_batch(&ctx, std::slice::from_ref(i)))
            .collect();
        assert_eq!(bits(&batch), bits(&singletons));
        (batch, counters.snapshot())
    }

    #[test]
    fn batch_equals_singleton_batches_on_every_catalogue_candidate_set() {
        let noisy = SimulatorBackend::new(NoiseModel {
            sigma: 0.04,
            seed: 42,
        });
        for platform in Platform::ALL {
            for kernel in pg_kernels::all_kernels() {
                let instances = candidates(platform, kernel);
                let bodies: HashSet<_> = instances.iter().map(KernelInstance::body_key).collect();
                assert!(bodies.len() < instances.len());
                for backend in [&SimulatorBackend::noise_free(), &noisy] {
                    let (results, cache) = batch_matching_singletons(
                        backend,
                        platform,
                        ParseOptions::default(),
                        &instances,
                    );
                    assert!(results.iter().all(Result::is_ok));
                    // One lookup per body, not per instance.
                    assert_eq!(cache.misses as usize, bodies.len());
                    assert_eq!(cache.hits, 0);
                }
            }
        }
    }

    #[test]
    fn a_template_and_its_second_k_loop_mutant_are_priced_from_their_own_bodies() {
        let catalogue = find_kernel("MM/matmul").unwrap();
        let k_loop = "for (int k = 0; k < {{N}}; k++) {\n                \
                      sum += a[i * {{N}} + k] * b[k * {{N}} + j];\n            }";
        let mut mutant = catalogue;
        mutant.source = Box::leak(
            catalogue
                .source
                .replace(k_loop, &format!("{k_loop}\n            {k_loop}"))
                .into_boxed_str(),
        );
        assert_eq!(mutant.source.matches("for (int k").count(), 2);

        let platform = Platform::SummitV100;
        let mut batch = candidates(platform, catalogue);
        let n = batch.len();
        batch.extend(candidates(platform, mutant));
        assert_eq!(batch.len(), 2 * n);
        let (results, _) = batch_matching_singletons(
            &SimulatorBackend::noise_free(),
            platform,
            ParseOptions::default(),
            &batch,
        );
        for i in 0..n {
            // Same name, variant, sizes and launch; only the body differs.
            assert_eq!(batch[i].describe(), batch[n + i].describe());
            assert!(results[n + i].as_ref().unwrap() > results[i].as_ref().unwrap());
        }
    }

    #[test]
    fn an_unparseable_source_fails_in_place_and_the_rest_are_priced() {
        let platform = Platform::SummitV100;
        let mut batch = candidates(platform, find_kernel("MV/matvec").unwrap());
        let mut bad = batch[0].clone();
        bad.source = "this is not C".to_string();
        batch.insert(1, bad);
        let (results, _) = batch_matching_singletons(
            &SimulatorBackend::noise_free(),
            platform,
            ParseOptions::default(),
            &batch,
        );
        for (i, result) in results.iter().enumerate() {
            assert_eq!(result.is_err(), i == 1, "{i}: {result:?}");
        }
    }

    #[test]
    fn the_byte_cap_admits_each_member_of_a_body_on_its_own_length() {
        // One body across V100's default grid: the launch digits make its
        // members 0 to 4 bytes longer than the shortest.
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
            let (results, _) = batch_matching_singletons(
                &SimulatorBackend::noise_free(),
                platform,
                options,
                &body,
            );
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
