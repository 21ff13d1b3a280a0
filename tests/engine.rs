//! Integration tests of the unified prediction engine: all three backends
//! serve the same request shape, the noise-free simulator backend reproduces
//! direct `perfsim::measure` runtimes bit for bit, and repeated requests hit
//! the frontend cache.

use paragraph::advisor::{instantiate, LaunchConfig, Variant};
use paragraph::compoff;
use paragraph::compoff::CompoffBackend;
use paragraph::dataset::{collect_platform, DatasetScale, PipelineConfig};
use paragraph::engine::{AdviseRequest, Engine, SimulatorBackend};
use paragraph::gnn::GnnBackend;
use paragraph::gnn::{TrainConfig, TrainedModel};
use paragraph::kernels::{find_kernel, KernelTemplate};
use paragraph::perfsim::{measure, NoiseModel, Platform};

const PLATFORM: Platform = Platform::SummitV100;
const LAUNCH: LaunchConfig = LaunchConfig {
    teams: 80,
    threads: 128,
};

/// Every applicable variant of `kernel` on `platform` at its default sizes,
/// instantiated from the template argument itself (never re-resolved from
/// the catalogue) and ranked fastest-first through
/// `Engine::predict_instances` on a noise-free simulator engine.
fn simulator_ranking(
    kernel: &KernelTemplate,
    platform: Platform,
    launch: LaunchConfig,
) -> Vec<(Variant, f64)> {
    let engine = Engine::builder()
        .platform(platform)
        .backend(SimulatorBackend::noise_free())
        .build();
    let sizes = kernel.default_sizes();
    let instances: Vec<_> = Variant::applicable_variants(kernel)
        .into_iter()
        .filter(|v| v.is_gpu() == platform.is_gpu())
        .map(|variant| instantiate(kernel, variant, &sizes, launch))
        .collect();
    let mut ranked: Vec<(Variant, f64)> = engine
        .predict_instances(&instances)
        .into_iter()
        .zip(&instances)
        .map(|(prediction, instance)| (instance.variant, prediction.unwrap()))
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked
}

fn fast_dataset() -> paragraph::dataset::PlatformDataset {
    collect_platform(
        PLATFORM,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 17,
            noise_sigma: 0.03,
        },
    )
}

/// All three backends rank the same kernel through the same request shape
/// without panicking, and produce positive, finite, sorted predictions.
#[test]
fn all_three_backends_rank_the_same_kernel() {
    let dataset = fast_dataset();
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let compoff_model = compoff::train_model(&dataset, &compoff::CompoffConfig::fast());

    let engines = [
        Engine::builder()
            .platform(PLATFORM)
            .backend(SimulatorBackend::noise_free())
            .build(),
        Engine::builder()
            .platform(PLATFORM)
            .backend(GnnBackend::new(bundle, PLATFORM))
            .build(),
        Engine::builder()
            .platform(PLATFORM)
            .backend(CompoffBackend::new(compoff_model))
            .build(),
    ];

    let request = AdviseRequest::catalog("MM/matmul").with_launch(LAUNCH);
    let mut backends_seen = Vec::new();
    for engine in &engines {
        let report = engine.advise(&request).unwrap();
        backends_seen.push(report.backend.clone());
        assert_eq!(
            report.rankings.len(),
            4,
            "{}: four GPU variants expected",
            report.backend
        );
        assert!(
            report.failures.is_empty(),
            "{}: no failures expected",
            report.backend
        );
        assert!(
            report
                .rankings
                .iter()
                .all(|r| r.predicted_ms.is_finite() && r.predicted_ms >= 0.0),
            "{}: predictions must be finite and non-negative",
            report.backend
        );
        assert!(
            report
                .rankings
                .windows(2)
                .all(|w| w[0].predicted_ms <= w[1].predicted_ms),
            "{}: rankings must be sorted fastest-first",
            report.backend
        );
        assert!(report.rankings.iter().all(|r| r.variant.unwrap().is_gpu()));
    }
    assert_eq!(backends_seen, vec!["simulator", "gnn", "compoff"]);
}

/// The noise-free simulator backend reproduces the pre-engine ranking
/// exactly — same variants, same order, same floating-point runtimes as
/// measuring each instance with `perfsim::measure` — on GPU and CPU
/// platforms alike.
#[test]
fn simulator_backend_matches_legacy_ranking_exactly() {
    let cpu_launch = LaunchConfig {
        teams: 1,
        threads: 16,
    };
    for (kernel_name, platform, launch) in [
        ("MM/matmul", PLATFORM, LAUNCH),
        ("MV/matvec", PLATFORM, LAUNCH),
        ("Laplace/copy", PLATFORM, LAUNCH),
        ("MV/matvec", Platform::CoronaEpyc7401, cpu_launch),
    ] {
        let kernel = find_kernel(kernel_name).unwrap();
        let sizes = kernel.default_sizes();

        // The pre-engine implementation, reproduced inline (this is the
        // byte-for-byte behaviour contract).
        let noise = NoiseModel::disabled();
        let mut legacy: Vec<(Variant, f64)> = Variant::applicable_variants(&kernel)
            .into_iter()
            .filter(|v| v.is_gpu() == platform.is_gpu())
            .filter_map(|variant| {
                let instance = instantiate(&kernel, variant, &sizes, launch);
                measure(&instance, platform, &noise)
                    .ok()
                    .map(|m| (variant, m.runtime_ms))
            })
            .collect();
        legacy.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        let ranked = simulator_ranking(&kernel, platform, launch);
        assert_eq!(
            legacy, ranked,
            "{kernel_name}: the engine must reproduce the legacy ranking bit-for-bit"
        );
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(ranked.iter().all(|(v, _)| v.is_gpu() == platform.is_gpu()));
    }
}

/// A second identical request is served from the graph/AST cache: no
/// frontend misses, only hits, and identical rankings.
#[test]
fn second_identical_request_hits_the_graph_cache() {
    let engine = Engine::builder()
        .platform(PLATFORM)
        .cache_capacity(64)
        .build();
    let request = AdviseRequest::catalog("MM/matmul").with_launch(LAUNCH);

    let cold = engine.advise(&request).unwrap();
    assert!(
        cold.cache.misses > 0,
        "cold request must populate the cache"
    );

    let warm = engine.advise(&request).unwrap();
    assert_eq!(
        warm.cache.misses, 0,
        "warm request must not re-run the frontend"
    );
    assert!(
        warm.cache.hits > 0,
        "warm request must be served from the cache"
    );
    assert_eq!(
        cold.rankings, warm.rankings,
        "caching must not change results"
    );

    // The engine-lifetime counters add up across both requests.
    let counters = engine.cache_counters();
    assert_eq!(counters.hits, cold.cache.hits + warm.cache.hits);
    assert_eq!(counters.misses, cold.cache.misses);
}

/// The GNN backend also benefits from the graph cache, and its warm-path
/// predictions are identical to the cold path.
#[test]
fn gnn_backend_uses_the_cache_and_stays_deterministic() {
    let dataset = fast_dataset();
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let engine = Engine::builder()
        .platform(PLATFORM)
        .backend(GnnBackend::new(bundle, PLATFORM))
        .build();
    let request = AdviseRequest::catalog("MV/matvec").with_launch(LAUNCH);

    let cold = engine.advise(&request).unwrap();
    let warm = engine.advise(&request).unwrap();
    assert!(cold.cache.misses > 0);
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(cold.rankings, warm.rankings);
}

/// Backends refuse platforms they cannot speak for: a GNN bundle trained on
/// one platform rejects requests for another, and COMPOFF (GPU-only, as in
/// the paper) rejects CPU platforms — instead of extrapolating silently
/// wrong numbers.
#[test]
fn mismatched_backend_platform_is_refused() {
    let dataset = fast_dataset();
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let gnn_on_cpu = Engine::builder()
        .platform(Platform::SummitPower9)
        .backend(GnnBackend::new(bundle, PLATFORM)) // trained on the V100
        .build();
    let request = AdviseRequest::catalog("MM/matmul").with_launch(LaunchConfig {
        teams: 1,
        threads: 16,
    });
    let err = gnn_on_cpu.advise(&request).unwrap_err();
    assert!(
        err.to_string().contains("trained on"),
        "expected a BackendUnavailable failure, got: {err}"
    );

    let compoff_model = compoff::train_model(&dataset, &compoff::CompoffConfig::fast());
    let compoff_on_cpu = Engine::builder()
        .platform(Platform::CoronaEpyc7401)
        .backend(CompoffBackend::new(compoff_model))
        .build();
    let err = compoff_on_cpu.advise(&request).unwrap_err();
    assert!(
        err.to_string().contains("GPU offloading only"),
        "expected a BackendUnavailable failure, got: {err}"
    );
}

/// The engine ranks templates that are not in the catalogue — candidates are
/// instantiated from the template itself, never re-resolved by name — with
/// the runtimes of measuring them directly.
#[test]
fn simulator_backend_ranks_custom_templates() {
    let base = find_kernel("MV/matvec").unwrap();
    let custom = KernelTemplate {
        application: "Custom",
        kernel: "not_in_catalog",
        ..base
    };
    let ranked = simulator_ranking(&custom, PLATFORM, LAUNCH);
    assert!(
        !ranked.is_empty(),
        "a custom template must rank through the engine, not vanish"
    );
    // And the numbers match measuring the custom template directly.
    let noise = NoiseModel::disabled();
    for (variant, predicted_ms) in &ranked {
        let instance = instantiate(&custom, *variant, &custom.default_sizes(), LAUNCH);
        let measured = measure(&instance, PLATFORM, &noise).unwrap();
        assert_eq!(*predicted_ms, measured.runtime_ms);
    }
}
