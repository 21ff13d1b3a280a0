//! # paragraph
//!
//! Umbrella crate of the ParaGraph reproduction. It re-exports the public API
//! of the workspace crates so downstream users can depend on a single crate:
//!
//! * [`engine`] — the unified serving facade: one trait-based prediction API
//!   (`Engine` / `RuntimePredictor`) over the simulator, GNN and COMPOFF
//!   backends, with a memoized frontend,
//! * [`frontend`] — C-subset + OpenMP parser producing Clang-style ASTs,
//! * [`core`] — the ParaGraph weighted graph representation itself,
//! * [`kernels`] — the Table I benchmark applications as source templates,
//! * [`advisor`] — kernel variant generation (cpu / gpu / collapse / mem),
//! * [`analyze`] — static loop-dependence / data-race analysis that gates
//!   every variant the advisor proposes (diagnostics + legality verdicts),
//! * [`perfsim`] — the analytical accelerator simulator used as the runtime
//!   "measurement" step,
//! * [`dataset`] — the end-to-end labelled-dataset pipeline,
//! * [`gnn`] — the RGAT runtime-prediction model and training loop,
//! * [`compoff`] — the COMPOFF baseline cost model,
//! * [`tensor`] — the dense matrix / autodiff / optimiser substrate,
//! * [`tune`] — budgeted search over the variant × launch space with the
//!   engine as cost model (exhaustive / beam / hillclimb),
//! * [`serve`] — the HTTP tier exposing `/advise` and `/tune`.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/engine_advise.rs` for the engine API, and `DESIGN.md` for the
//! full system inventory and the request-path diagram.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The unified prediction engine (`Engine`, `RuntimePredictor`, backends).
pub use pg_engine as engine;

/// The ParaGraph representation (the paper's primary contribution).
pub use paragraph_core as core;

/// Compiler frontend: lexer, parser, AST, symbol resolution, loop analysis.
pub use pg_frontend as frontend;

/// Benchmark kernel catalogue (Table I).
pub use pg_kernels as kernels;

/// OpenMP Advisor substitute: variant generation and its legality gate.
pub use pg_advisor as advisor;

/// Static loop-dependence and data-race analysis gating proposed variants.
pub use pg_analyze as analyze;

/// Accelerator performance simulator (Summit/Corona substitute).
pub use pg_perfsim as perfsim;

/// Dataset pipeline: variants → graphs → simulated runtimes.
pub use pg_dataset as dataset;

/// RGAT runtime-prediction model, training loop, metrics.
pub use pg_gnn as gnn;

/// COMPOFF baseline cost model.
pub use pg_compoff as compoff;

/// Observability core: request tracing, stage-latency histograms,
/// structured logging (`/debug/traces`, `paragraph_stage_duration_seconds`).
pub use pg_obs as obs;

/// HTTP serving tier: micro-batching, admission control, model hot-loading.
pub use pg_serve as serve;

/// Budgeted variant-space search over the engine (exhaustive / beam /
/// hillclimb strategies, deterministic seeds, batched frontier evaluation).
pub use pg_tune as tune;

/// Dense matrices, reverse-mode autodiff, Adam, scalers, metrics.
pub use pg_tensor as tensor;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every applicable variant of `kernel` on `platform` at its default
    /// sizes, ranked fastest-first by a noise-free simulator engine.
    fn rank_variants(
        kernel: &kernels::KernelTemplate,
        platform: perfsim::Platform,
        launch: advisor::LaunchConfig,
    ) -> Vec<(advisor::Variant, f64)> {
        let engine = engine::Engine::builder()
            .platform(platform)
            .backend(engine::SimulatorBackend::noise_free())
            .build();
        let sizes = kernel.default_sizes();
        let instances: Vec<_> = advisor::Variant::applicable_variants(kernel)
            .into_iter()
            .filter(|v| v.is_gpu() == platform.is_gpu())
            .map(|variant| advisor::instantiate(kernel, variant, &sizes, launch))
            .collect();
        let mut ranked: Vec<(advisor::Variant, f64)> = engine
            .predict_instances(&instances)
            .into_iter()
            .zip(&instances)
            .map(|(prediction, instance)| (instance.variant, prediction.unwrap()))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    }

    #[test]
    fn rank_variants_produces_sorted_gpu_candidates() {
        let mm = kernels::find_kernel("MM/matmul").unwrap();
        let ranked = rank_variants(
            &mm,
            perfsim::Platform::SummitV100,
            advisor::LaunchConfig {
                teams: 80,
                threads: 128,
            },
        );
        assert_eq!(
            ranked.len(),
            4,
            "four GPU variants for a collapsible kernel"
        );
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(ranked.iter().all(|(v, _)| v.is_gpu()));
    }

    #[test]
    fn rank_variants_cpu_platform_uses_cpu_variants() {
        let mv = kernels::find_kernel("MV/matvec").unwrap();
        let ranked = rank_variants(
            &mv,
            perfsim::Platform::CoronaEpyc7401,
            advisor::LaunchConfig {
                teams: 1,
                threads: 16,
            },
        );
        assert_eq!(
            ranked.len(),
            1,
            "matvec is not collapsible: only the plain cpu variant"
        );
        assert!(!ranked[0].0.is_gpu());
    }
}
