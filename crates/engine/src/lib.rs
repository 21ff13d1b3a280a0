//! # pg-engine
//!
//! The unified serving facade of the ParaGraph reproduction: one
//! trait-based prediction API over the analytical simulator, the trained
//! RGAT model and the COMPOFF baseline. The facade sits *below* the model
//! crates: `pg-engine` ships the trait and the simulator backend, while
//! `pg_gnn::GnnBackend` and `pg_compoff::CompoffBackend` implement
//! [`RuntimePredictor`] from above. That keeps the dependency graph acyclic
//! so the dataset pipeline (`pg-dataset`, which the model crates train on)
//! can itself route measurement through an [`Engine`].
//!
//! The paper's end-to-end workflow — parse a kernel, build its weighted
//! ParaGraph, enumerate OpenMP variants, predict runtimes, pick the winner —
//! previously had no single entry point. [`Engine`] owns that whole request
//! path:
//!
//! ```text
//! AdviseRequest ──► resolve kernel ──► enumerate (variant × launch)
//!        │                                      │
//!        │                         predict_batch (rayon fan-out)
//!        │                                      │
//!        │               RuntimePredictor backend (simulator | gnn | compoff)
//!        │                                      │
//!        │               FrontendCache (LRU: source key → AST / graph)
//!        ▼                                      ▼
//!   AdviseReport ◄── rank fastest-first + provenance + timing + cache stats
//! ```
//!
//! ```
//! use pg_engine::{AdviseRequest, Engine};
//! use pg_perfsim::Platform;
//!
//! let engine = Engine::builder().platform(Platform::SummitV100).build();
//! let report = engine.advise(&AdviseRequest::catalog("MM/matmul")).unwrap();
//! assert_eq!(report.backend, "simulator");
//! assert!(report.best().unwrap().predicted_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod error;
pub mod report;
pub mod request;

pub use backend::{PredictionContext, RuntimePredictor, SimulatorBackend};
pub use cache::{CacheCounters, FrontendCache, LruCache, RequestCounters};
pub use error::EngineError;
// Re-exported so downstream tiers (pg-serve) can inspect typed frontend
// rejections and configure parse budgets without a direct pg-frontend
// dependency.
pub use pg_frontend::{FrontendError, FrontendErrorKind, ParseOptions};
pub use report::{
    AdviseReport, CacheActivity, PredictionFailure, StageBreakdown, Timing, VariantPrediction,
};
pub use request::{AdviseRequest, KernelSpec, LaunchBudget};

use pg_advisor::{
    instantiate, KernelInstance, LaunchConfig, ParallelismBudget, PrunedVariant, Variant,
};
use pg_analyze::{AnalysisReport, Diagnostic, LegalityVerdict};
use pg_obs::{obs, Obs, Stage, TraceHandle};
use pg_perfsim::Platform;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of each frontend-cache layer.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// What candidate enumeration hands the predictor: admitted instances, the
/// unique diagnostics collected while gating them, the variants the
/// legality analysis pruned, and how long the gate itself took.
struct GatedCandidates {
    instances: Vec<KernelInstance>,
    diagnostics: Vec<Diagnostic>,
    race_pruned: Vec<PrunedVariant>,
    /// Wall time spent in the legality gate (0 when untraced or gate off).
    analyze_us: u64,
}

/// The serving facade: a platform, a prediction backend, and a memoized
/// frontend, behind one `advise` call.
///
/// The frontend cache is held behind an `Arc` so several engines (one per
/// platform, say, or one per shard worker) can share a single memo: the
/// sharded dataset pipeline in `pg-dataset` builds one cache and hands it to
/// every per-platform engine, so a kernel source parsed for one platform is
/// a cache hit for every other.
pub struct Engine {
    platform: Platform,
    backend: Box<dyn RuntimePredictor>,
    cache: Arc<FrontendCache>,
    analysis_gate: bool,
    /// Memoized legality analysis keyed by (kernel name, source): analysing
    /// a variant costs far more than a warm advise, so repeated requests
    /// must not re-run it. Kept separate from [`FrontendCache`] so analysis
    /// lookups never perturb the frontend hit/miss accounting.
    analysis_memo: Mutex<LruCache<String, Arc<AnalysisReport>>>,
}

/// Builder for [`Engine`] (`Engine::builder()`).
pub struct EngineBuilder {
    platform: Platform,
    backend: Option<Box<dyn RuntimePredictor>>,
    cache_capacity: usize,
    shared_cache: Option<Arc<FrontendCache>>,
    analysis_gate: bool,
    parse_options: pg_frontend::ParseOptions,
}

impl EngineBuilder {
    /// Target platform (default: Summit's V100 GPU).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Prediction backend (default: the noise-free analytical simulator).
    pub fn backend(mut self, backend: impl RuntimePredictor + 'static) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Entries per frontend-cache layer (default
    /// [`DEFAULT_CACHE_CAPACITY`]). Ignored when a
    /// [`shared_cache`](EngineBuilder::shared_cache) is supplied.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Share an existing frontend cache instead of building a private one —
    /// engines sharing a cache share parsed ASTs and built graphs, so the
    /// same kernel source is parsed once per process, not once per engine.
    pub fn shared_cache(mut self, cache: Arc<FrontendCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Enable or disable the static legality gate (default: enabled).
    /// Disabling reproduces the ungated engine exactly: no analysis runs,
    /// reports carry no diagnostics, and nothing is pruned.
    pub fn analysis_gate(mut self, enabled: bool) -> Self {
        self.analysis_gate = enabled;
        self
    }

    /// Per-request parse budget for raw (uncatalogued) sources (default:
    /// [`pg_frontend::ParseOptions::default`]). Ignored when a
    /// [`shared_cache`](EngineBuilder::shared_cache) is supplied — the
    /// shared cache's own budget wins, since cached ASTs must all have
    /// been admitted under one policy.
    pub fn parse_options(mut self, options: pg_frontend::ParseOptions) -> Self {
        self.parse_options = options;
        self
    }

    /// Assemble the engine.
    pub fn build(self) -> Engine {
        Engine {
            platform: self.platform,
            backend: self
                .backend
                .unwrap_or_else(|| Box::new(SimulatorBackend::noise_free())),
            cache: self.shared_cache.unwrap_or_else(|| {
                Arc::new(FrontendCache::with_parse_options(
                    self.cache_capacity,
                    self.parse_options,
                ))
            }),
            analysis_gate: self.analysis_gate,
            analysis_memo: Mutex::new(LruCache::new(self.cache_capacity)),
        }
    }
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            platform: Platform::SummitV100,
            backend: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            shared_cache: None,
            analysis_gate: true,
            parse_options: pg_frontend::ParseOptions::default(),
        }
    }

    /// The platform this engine serves.
    pub fn platform(&self) -> Platform {
        self.platform
    }

    /// Name of the active backend.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// Cumulative frontend-cache counters over the engine's lifetime.
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache.counters()
    }

    /// Launch configurations for a request's budget on this platform.
    fn launches(&self, budget: &LaunchBudget, gpu: bool) -> Vec<LaunchConfig> {
        let sweep_for = |budget: &ParallelismBudget| {
            if gpu {
                budget.gpu_launches()
            } else {
                budget.cpu_launches()
            }
        };
        match budget {
            LaunchBudget::Fixed(launch) => vec![*launch],
            LaunchBudget::Sweep(budget) => sweep_for(budget),
            LaunchBudget::PlatformDefault => sweep_for(&self.platform.default_budget()),
        }
    }

    /// Legality analysis of one instance's source, memoized by
    /// (kernel full name, source). Catalogue kernels are assessed under
    /// their documented tolerances via
    /// [`pg_advisor::assess_instance`]; the memo makes the warm advise
    /// path as cheap as before the gate existed.
    fn analysis_of(&self, instance: &KernelInstance) -> Arc<AnalysisReport> {
        let key = format!(
            "{}/{}\u{0}{}",
            instance.application, instance.kernel, instance.source
        );
        if let Some(report) = self
            .analysis_memo
            .lock()
            .expect("analysis memo poisoned")
            .get_by(key.as_str())
        {
            return report;
        }
        let report = Arc::new(pg_advisor::assess_instance(instance));
        self.analysis_memo
            .lock()
            .expect("analysis memo poisoned")
            .insert(key, Arc::clone(&report));
        report
    }

    /// Append `src` diagnostics not already present in `dst` (launch-grid
    /// probes of one kernel repeat the same findings).
    fn merge_diagnostics(dst: &mut Vec<Diagnostic>, src: &[Diagnostic]) {
        for diag in src {
            if !dst.contains(diag) {
                dst.push(diag.clone());
            }
        }
    }

    /// [`Engine::analysis_of`] wrapped in an `analyze` stage span when
    /// observability is on; with it off this is the bare memoized call.
    fn analysis_traced(
        &self,
        o: &Obs,
        trace: &TraceHandle,
        instance: &KernelInstance,
        analyze_us: &mut u64,
    ) -> Arc<AnalysisReport> {
        if !o.enabled() {
            return self.analysis_of(instance);
        }
        let started = Instant::now();
        // Trace-only: the `analyze` histogram is fed by pg-analyze's own
        // instrumented entry point, so a memoized warm probe records no
        // phantom analysis sample.
        let span = o.trace_span(trace, Stage::Analyze, trace.root());
        let report = self.analysis_of(instance);
        span.finish();
        *analyze_us += started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        report
    }

    /// Enumerate the candidate instances of a request, gated by the static
    /// legality analysis when enabled: catalogue variants with a `Race`
    /// verdict are pruned before prediction, raw-source requests are
    /// diagnosed but never pruned (there is no alternative variant to fall
    /// back on — the caller sees the diagnostics and decides).
    fn candidates(
        &self,
        request: &AdviseRequest,
        counters: &RequestCounters,
        trace: &TraceHandle,
    ) -> Result<GatedCandidates, EngineError> {
        let o = obs();
        let mut analyze_us = 0u64;
        let launches = self.launches(&request.budget, self.platform.is_gpu());
        if launches.is_empty() {
            return Err(EngineError::EmptyBudget);
        }
        match &request.kernel {
            KernelSpec::Catalog(name) => {
                let kernel = pg_kernels::find_kernel(name)
                    .ok_or_else(|| EngineError::UnknownKernel(name.clone()))?;
                let sizes = request
                    .sizes
                    .clone()
                    .unwrap_or_else(|| kernel.default_sizes());
                let variants: Vec<Variant> = Variant::applicable_variants(&kernel)
                    .into_iter()
                    .filter(|v| v.is_gpu() == self.platform.is_gpu())
                    .collect();
                if variants.is_empty() {
                    return Err(EngineError::NoApplicableVariants {
                        kernel: name.clone(),
                        platform: self.platform,
                    });
                }
                let mut out = Vec::with_capacity(variants.len() * launches.len());
                let mut diagnostics: Vec<Diagnostic> = Vec::new();
                let mut race_pruned: Vec<PrunedVariant> = Vec::new();
                for variant in variants {
                    // Legality never depends on the launch clauses
                    // (num_teams / thread_limit / schedule), so one probe
                    // at the first grid point gates the variant's whole
                    // launch sweep — the golden suite pins this
                    // launch-invariance.
                    if self.analysis_gate {
                        let probe = instantiate(&kernel, variant, &sizes, launches[0]);
                        let report = self.analysis_traced(o, trace, &probe, &mut analyze_us);
                        Self::merge_diagnostics(&mut diagnostics, &report.diagnostics);
                        if let LegalityVerdict::Race(reason) = &report.verdict {
                            race_pruned.push(PrunedVariant {
                                variant: variant.name().to_string(),
                                reason: reason.clone(),
                            });
                            continue;
                        }
                        out.push(probe);
                        for &launch in &launches[1..] {
                            out.push(instantiate(&kernel, variant, &sizes, launch));
                        }
                    } else {
                        for &launch in &launches {
                            out.push(instantiate(&kernel, variant, &sizes, launch));
                        }
                    }
                }
                if out.is_empty() {
                    return Err(EngineError::AllVariantsRace {
                        kernel: name.clone(),
                        reason: race_pruned
                            .first()
                            .map(|p| p.reason.clone())
                            .unwrap_or_default(),
                    });
                }
                Ok(GatedCandidates {
                    instances: out,
                    diagnostics,
                    race_pruned,
                    analyze_us,
                })
            }
            KernelSpec::Source { name, source } => {
                // Validate the source once up front so a typo fails the
                // request instead of every candidate.
                self.cache.ast_recorded(source, Some(counters))?;
                let (app, kernel_name) = match name.split_once('/') {
                    Some((app, k)) => (app.to_string(), k.to_string()),
                    None => (name.clone(), name.clone()),
                };
                let instances: Vec<KernelInstance> = launches
                    .into_iter()
                    .map(|launch| KernelInstance {
                        application: app.clone(),
                        kernel: kernel_name.clone(),
                        variant: if self.platform.is_gpu() {
                            Variant::Gpu
                        } else {
                            Variant::Cpu
                        },
                        sizes: Default::default(),
                        launch,
                        source: source.clone(),
                        bytes_to_device: 0,
                        bytes_from_device: 0,
                    })
                    .collect();
                if !self.analysis_gate {
                    return Ok(GatedCandidates {
                        instances,
                        diagnostics: Vec::new(),
                        race_pruned: Vec::new(),
                        analyze_us,
                    });
                }
                // Every candidate shares the one raw source, so a single
                // assessment covers the whole launch sweep. Raw sources
                // are diagnosed but never pruned — there is no alternative
                // variant to fall back on.
                let mut diagnostics = Vec::new();
                Self::merge_diagnostics(
                    &mut diagnostics,
                    &self
                        .analysis_traced(o, trace, &instances[0], &mut analyze_us)
                        .diagnostics,
                );
                Ok(GatedCandidates {
                    instances,
                    diagnostics,
                    race_pruned: Vec::new(),
                    analyze_us,
                })
            }
        }
    }

    /// Predict already-enumerated kernel instances through the engine's
    /// backend and frontend cache, preserving order.
    ///
    /// This is the lower-level sibling of [`Engine::advise`] for callers
    /// that bring their own candidates — custom kernel templates not in
    /// the catalogue, hand-built sweeps, or instances produced by the
    /// `pg-dataset` pipeline.
    pub fn predict_instances(&self, instances: &[KernelInstance]) -> Vec<Result<f64, EngineError>> {
        self.predict_instances_counted(instances).0
    }

    /// [`Engine::predict_instances`] plus the frontend-cache activity the
    /// batch caused (hits/misses scoped to this call, not engine-lifetime
    /// totals). The sharded dataset pipeline uses this to report cache
    /// effectiveness per generation run.
    pub fn predict_instances_counted(
        &self,
        instances: &[KernelInstance],
    ) -> (Vec<Result<f64, EngineError>>, CacheCounters) {
        let counters = RequestCounters::default();
        let ctx = PredictionContext::new(&self.cache, self.platform, &counters);
        let results = self.backend.predict_batch(&ctx, instances);
        (results, counters.snapshot())
    }

    /// Run the full request path: resolve → enumerate → batched prediction →
    /// ranked report.
    pub fn advise(&self, request: &AdviseRequest) -> Result<AdviseReport, EngineError> {
        self.advise_many(std::slice::from_ref(request))
            .pop()
            .expect("advise_many returns one result per request")
    }

    /// [`Engine::advise`] over several requests at once, coalescing every
    /// request's candidates into **one** backend `predict_batch` call.
    ///
    /// This is the micro-batching primitive the serving tier (`pg-serve`)
    /// is built on: backends that amortize per-batch work — the GNN
    /// backend's disjoint-union forward pass above all — see one large
    /// candidate set instead of many small ones, so concurrent requests
    /// share tape setup and the batched matmul kernels. Results come back
    /// in request order, one per request; a request that fails enumeration
    /// (unknown kernel, empty budget) reports its own error without
    /// failing the rest of the batch.
    ///
    /// Rankings are bit-identical to per-request [`Engine::advise`] calls:
    /// prediction of one candidate never depends on what else is in the
    /// batch. Two accounting fields are batch-scoped, though:
    /// [`Timing::predict_ms`] is the whole batch's prediction wall time,
    /// and the prediction-phase share of [`CacheActivity`] is accounted to
    /// the batch and reported identically on every member report
    /// (enumeration-phase activity stays per-request).
    pub fn advise_many(
        &self,
        requests: &[AdviseRequest],
    ) -> Vec<Result<AdviseReport, EngineError>> {
        self.advise_many_traced(requests, &[])
    }

    /// [`Engine::advise_many`] with per-request trace handles (`pg_obs`):
    /// candidate enumeration, the legality gate, and the batched backend
    /// prediction each record stage spans against the matching handle, and
    /// traced reports carry a [`StageBreakdown`]. Missing or inactive
    /// handles (including the empty slice `advise_many` passes) make this
    /// identical to the untraced path.
    pub fn advise_many_traced(
        &self,
        requests: &[AdviseRequest],
        traces: &[TraceHandle],
    ) -> Vec<Result<AdviseReport, EngineError>> {
        struct Pending {
            request_idx: usize,
            started: Instant,
            enumerate_ms: f64,
            enumerate_us: u64,
            analyze_us: u64,
            enum_cache: CacheCounters,
            is_catalog: bool,
            range: std::ops::Range<usize>,
            diagnostics: Vec<Diagnostic>,
            race_pruned: Vec<PrunedVariant>,
        }

        let o = obs();
        let disabled = TraceHandle::disabled();
        let trace_of = |idx: usize| traces.get(idx).unwrap_or(&disabled);

        let mut results: Vec<Option<Result<AdviseReport, EngineError>>> =
            requests.iter().map(|_| None).collect();
        let mut pending: Vec<Pending> = Vec::with_capacity(requests.len());
        let mut candidates: Vec<KernelInstance> = Vec::new();
        for (request_idx, request) in requests.iter().enumerate() {
            let started = Instant::now();
            let counters = RequestCounters::default();
            let trace = trace_of(request_idx);
            let enum_span = o.span(trace, Stage::Enumerate, trace.root());
            let gated = self.candidates(request, &counters, trace);
            enum_span.finish();
            match gated {
                Ok(gated) => {
                    let start = candidates.len();
                    let mut enumerated = gated.instances;
                    candidates.append(&mut enumerated);
                    let elapsed = started.elapsed();
                    pending.push(Pending {
                        request_idx,
                        started,
                        enumerate_ms: elapsed.as_secs_f64() * 1e3,
                        enumerate_us: elapsed.as_micros().min(u128::from(u64::MAX)) as u64,
                        analyze_us: gated.analyze_us,
                        enum_cache: counters.snapshot(),
                        is_catalog: matches!(request.kernel, KernelSpec::Catalog(_)),
                        range: start..candidates.len(),
                        diagnostics: gated.diagnostics,
                        race_pruned: gated.race_pruned,
                    });
                }
                Err(error) => results[request_idx] = Some(Err(error)),
            }
        }

        // One backend call over the whole batch. Cache activity during
        // prediction is shared accounting: the backend resolves graphs for
        // every request through one context — and so is predict timing:
        // every traced member gets a predict span over the same interval.
        let predict_spans: Vec<pg_obs::Span<'_>> = pending
            .iter()
            .map(|entry| {
                let trace = trace_of(entry.request_idx);
                o.span(trace, Stage::Predict, trace.root())
            })
            .collect();
        let predict_started = Instant::now();
        let batch_counters = RequestCounters::default();
        let ctx = PredictionContext::new(&self.cache, self.platform, &batch_counters);
        let predictions = self.backend.predict_batch(&ctx, &candidates);
        let predict_elapsed = predict_started.elapsed();
        let predict_ms = predict_elapsed.as_secs_f64() * 1e3;
        let predict_us = predict_elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        for span in predict_spans {
            span.finish();
        }
        let predict_cache = batch_counters.snapshot();

        for entry in pending {
            let request = &requests[entry.request_idx];
            let mut rankings = Vec::new();
            let mut failures = Vec::new();
            let mut first_error: Option<EngineError> = None;
            for (instance, prediction) in candidates[entry.range.clone()]
                .iter()
                .zip(&predictions[entry.range.clone()])
            {
                let variant = entry.is_catalog.then_some(instance.variant);
                match prediction {
                    Ok(predicted_ms) => rankings.push(VariantPrediction {
                        variant,
                        launch: instance.launch,
                        predicted_ms: *predicted_ms,
                    }),
                    Err(error) => {
                        if first_error.is_none() {
                            first_error = Some(error.clone());
                        }
                        failures.push(PredictionFailure {
                            variant,
                            launch: instance.launch,
                            error: error.to_string(),
                        });
                    }
                }
            }
            results[entry.request_idx] = Some(if rankings.is_empty() {
                Err(EngineError::AllPredictionsFailed {
                    kernel: request.kernel.name().to_string(),
                    first: Box::new(first_error.unwrap_or(EngineError::EmptyBudget)),
                })
            } else {
                rankings.sort_by(|a, b| {
                    a.predicted_ms
                        .partial_cmp(&b.predicted_ms)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                Ok(AdviseReport {
                    kernel: request.kernel.name().to_string(),
                    platform: self.platform,
                    backend: self.backend.name().to_string(),
                    rankings,
                    failures,
                    timing: Timing {
                        enumerate_ms: entry.enumerate_ms,
                        predict_ms,
                        total_ms: entry.started.elapsed().as_secs_f64() * 1e3,
                    },
                    cache: CacheActivity {
                        hits: entry.enum_cache.hits + predict_cache.hits,
                        misses: entry.enum_cache.misses + predict_cache.misses,
                    },
                    diagnostics: entry.diagnostics,
                    race_pruned: entry.race_pruned,
                    stages: trace_of(entry.request_idx)
                        .active()
                        .then_some(StageBreakdown {
                            enumerate_us: entry.enumerate_us,
                            analyze_us: entry.analyze_us,
                            predict_us,
                        }),
                })
            });
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every request produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kernel_is_an_error() {
        let engine = Engine::builder().build();
        let err = engine
            .advise(&AdviseRequest::catalog("Nope/nothing"))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownKernel(_)));
    }

    #[test]
    fn catalog_advise_ranks_all_variant_launch_pairs() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let launch = LaunchConfig {
            teams: 80,
            threads: 128,
        };
        let report = engine
            .advise(&AdviseRequest::catalog("MM/matmul").with_launch(launch))
            .unwrap();
        // Four GPU variants for a collapsible kernel, one launch each.
        assert_eq!(report.rankings.len(), 4);
        assert!(report.failures.is_empty());
        assert!(report
            .rankings
            .windows(2)
            .all(|w| w[0].predicted_ms <= w[1].predicted_ms));
        assert!(report.rankings.iter().all(|r| r.launch == launch));
        assert_eq!(report.backend, "simulator");
        assert_eq!(report.platform, Platform::SummitV100);
    }

    #[test]
    fn platform_default_budget_sweeps_launches() {
        let engine = Engine::builder().platform(Platform::CoronaEpyc7401).build();
        let report = engine.advise(&AdviseRequest::catalog("MV/matvec")).unwrap();
        // matvec has one CPU variant; the EPYC default budget sweeps threads.
        assert!(report.rankings.len() > 1);
        assert!(report.rankings.iter().all(|r| r.launch.teams == 1));
    }

    #[test]
    fn raw_source_requests_rank_launches() {
        let engine = Engine::builder().platform(Platform::SummitPower9).build();
        let request = AdviseRequest::source(
            "mine/saxpy",
            "void saxpy(float *x, float *y) {\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < 65536; i++) { y[i] = y[i] + 2.0 * x[i]; }\n}",
        );
        let report = engine.advise(&request).unwrap();
        assert!(!report.rankings.is_empty());
        assert!(report.rankings.iter().all(|r| r.variant.is_none()));
        assert_eq!(report.kernel, "mine/saxpy");
    }

    #[test]
    fn invalid_raw_source_fails_fast() {
        let engine = Engine::builder().build();
        let err = engine
            .advise(&AdviseRequest::source("bad", "definitely not C"))
            .unwrap_err();
        assert!(matches!(err, EngineError::Frontend(_)));
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let request = AdviseRequest::catalog("MM/matmul").with_launch(LaunchConfig {
            teams: 80,
            threads: 128,
        });
        let cold = engine.advise(&request).unwrap();
        assert!(cold.cache.misses > 0);
        let warm = engine.advise(&request).unwrap();
        assert_eq!(warm.cache.misses, 0);
        assert!(warm.cache.hits >= cold.cache.misses);
        assert_eq!(cold.rankings, warm.rankings);
    }

    #[test]
    fn advise_many_matches_per_request_advise() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let requests = vec![
            AdviseRequest::catalog("MM/matmul"),
            AdviseRequest::catalog("MV/matvec"),
            AdviseRequest::catalog("MM/matmul").with_launch(LaunchConfig {
                teams: 80,
                threads: 128,
            }),
        ];
        let coalesced = engine.advise_many(&requests);
        assert_eq!(coalesced.len(), requests.len());
        for (request, batched) in requests.iter().zip(&coalesced) {
            let direct = engine.advise(request).unwrap();
            let batched = batched.as_ref().unwrap();
            assert_eq!(direct.rankings, batched.rankings);
            assert_eq!(direct.failures, batched.failures);
            assert_eq!(direct.kernel, batched.kernel);
            assert_eq!(direct.backend, batched.backend);
        }
    }

    #[test]
    fn advise_many_isolates_per_request_failures() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let requests = vec![
            AdviseRequest::catalog("Nope/nothing"),
            AdviseRequest::catalog("MM/matmul"),
        ];
        let results = engine.advise_many(&requests);
        assert!(matches!(results[0], Err(EngineError::UnknownKernel(_))));
        assert!(results[1].is_ok());
    }

    #[test]
    fn racy_raw_source_is_diagnosed_but_still_ranked() {
        let engine = Engine::builder().platform(Platform::SummitPower9).build();
        let request = AdviseRequest::source(
            "mine/scan",
            "void scan(float *a) {\n\
             #pragma omp parallel for\n\
             for (int i = 1; i < 65536; i++) { a[i] = a[i - 1]; }\n}",
        );
        let report = engine.advise(&request).unwrap();
        // Raw sources are never pruned — the caller gets predictions plus
        // the race diagnostics and decides.
        assert!(!report.rankings.is_empty());
        assert!(report.race_pruned.is_empty());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == "loop-carried-dependence"));
    }

    #[test]
    fn clean_catalogue_rankings_are_identical_with_gate_on_and_off() {
        let request = AdviseRequest::catalog("MM/matmul").with_launch(LaunchConfig {
            teams: 80,
            threads: 128,
        });
        let gated = Engine::builder()
            .platform(Platform::SummitV100)
            .build()
            .advise(&request)
            .unwrap();
        let ungated = Engine::builder()
            .platform(Platform::SummitV100)
            .analysis_gate(false)
            .build()
            .advise(&request)
            .unwrap();
        // Nothing in the shipped catalogue is pruned, so the gate must not
        // perturb rankings at all.
        assert_eq!(gated.rankings, ungated.rankings);
        assert!(gated.race_pruned.is_empty());
        assert!(ungated.diagnostics.is_empty());
    }

    #[test]
    fn cpu_platform_filters_to_cpu_variants() {
        let engine = Engine::builder().platform(Platform::SummitPower9).build();
        let report = engine
            .advise(
                &AdviseRequest::catalog("MM/matmul").with_launch(LaunchConfig {
                    teams: 1,
                    threads: 16,
                }),
            )
            .unwrap();
        assert!(report.rankings.iter().all(|r| !r.variant.unwrap().is_gpu()));
    }
}
