//! The data-collection pipeline of Figure 3: variant generation → runtime
//! measurement (simulated) → labelled data points, per platform.
//!
//! Since the sharded rewrite, generation is partitioned into deterministic
//! per-kernel [shards](crate::shard), measured in order through a shared
//! [`pg_engine::Engine`] whose simulator backend parses each launch-free
//! body once per shard and fans the bodies out across threads, and persisted
//! in the [`ShardStore`] so interrupted or
//! repeated runs resume instead of recompute. The merge is a stable sort
//! over a total per-point key plus the seeded subsample applied at plan
//! time, so the output is bit-identical to the pre-shard pipeline (kept as
//! [`collect_platform_unsharded`] and test-enforced) regardless of shard
//! completion order.

use crate::datapoint::DataPoint;
use crate::shard::{Shard, ShardPlan};
use crate::stats::PlatformStats;
use crate::store::ShardStore;
use pg_advisor::{generate_instances, GeneratorConfig, KernelInstance};
use pg_engine::{CacheCounters, Engine, SimulatorBackend};
use pg_kernels::all_kernels;
use pg_perfsim::{measure, NoiseModel, Platform};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How large a dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DatasetScale {
    /// Very small: for unit tests and CI smoke runs.
    Fast,
    /// Medium: the default for `cargo bench` on a laptop-class machine.
    #[default]
    Default,
    /// Approaches the paper's ~26 000-point scale: 29 250 GPU instances
    /// and 5 265 CPU instances per platform (hours of training on a
    /// laptop; use on a larger machine). The counts come from densifying
    /// the `Default` sweep 2× along sizes and launch axes (geometric
    /// midpoints); see `DatasetScale::generator_config`.
    Full,
}

impl DatasetScale {
    /// Read the scale from the `PARAGRAPH_FAST` / `PARAGRAPH_FULL_DATASET`
    /// environment variables, falling back to the default.
    pub fn from_env() -> Self {
        Self::from_vars(
            std::env::var("PARAGRAPH_FAST").ok().as_deref(),
            std::env::var("PARAGRAPH_FULL_DATASET").ok().as_deref(),
        )
    }

    /// Resolve the scale from the raw values of the two environment
    /// variables (`PARAGRAPH_FAST`, `PARAGRAPH_FULL_DATASET`). Pure —
    /// testable without mutating process state, which would race with
    /// parallel tests reading the same variables.
    pub fn from_vars(fast: Option<&str>, full: Option<&str>) -> Self {
        if fast.is_some_and(|v| v != "0") {
            DatasetScale::Fast
        } else if full.is_some_and(|v| v != "0") {
            DatasetScale::Full
        } else {
            DatasetScale::Default
        }
    }

    /// The generator configuration of each scale.
    ///
    /// `Full` used to silently reuse `GeneratorConfig::default()` — the
    /// same sweep as `Default` scale, whose GPU platforms top out at 3 960
    /// instances — while claiming to approach the paper's Table II counts.
    /// It now densifies the size sweeps and the launch axes 2× each
    /// (geometric midpoints; see [`GeneratorConfig::size_densify`]),
    /// producing **29 250 GPU** and **5 265 CPU** instances per platform
    /// against the paper's ~26 000 GPU / ~13 000–17 700 CPU — the GPU
    /// datasets (the ones every model in the paper trains on) land at
    /// paper scale, the CPU datasets at roughly a third (two CPU variants
    /// vs four GPU variants, and a single socket's worth of thread
    /// sweeps, bound the CPU combinatorics).
    fn generator_config(self) -> GeneratorConfig {
        match self {
            DatasetScale::Fast => GeneratorConfig {
                size_stride: 4,
                launch_stride: 3,
                ..GeneratorConfig::default()
            },
            DatasetScale::Default => GeneratorConfig::default(),
            DatasetScale::Full => GeneratorConfig {
                size_densify: 2,
                launch_densify: 2,
                ..GeneratorConfig::default()
            },
        }
    }

    /// Maximum number of points kept per platform (deterministic subsample).
    pub(crate) fn max_points(self) -> usize {
        match self {
            DatasetScale::Fast => 220,
            DatasetScale::Default => 1100,
            DatasetScale::Full => usize::MAX,
        }
    }
}

/// Configuration of a dataset-generation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Dataset scale.
    pub scale: DatasetScale,
    /// Seed for measurement noise and subsampling.
    pub seed: u64,
    /// Noise level (log-normal sigma) of the simulated measurements.
    pub noise_sigma: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            scale: DatasetScale::Default,
            seed: 42,
            noise_sigma: 0.04,
        }
    }
}

/// The labelled dataset collected on one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformDataset {
    /// Platform the runtimes were collected on.
    pub platform: Platform,
    /// All labelled data points.
    pub points: Vec<DataPoint>,
}

impl PlatformDataset {
    /// Number of data points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Runtime labels in milliseconds.
    pub fn runtimes(&self) -> Vec<f32> {
        self.points.iter().map(|p| p.runtime_ms as f32).collect()
    }

    /// Table II statistics for this platform.
    pub fn stats(&self) -> PlatformStats {
        PlatformStats::from_dataset(self)
    }

    /// Deterministic train/validation split with the paper's 9:1 ratio.
    /// Returns `(train_indices, validation_indices)`.
    pub fn split(&self, seed: u64) -> (Vec<usize>, Vec<usize>) {
        self.split_with_ratio(seed, 0.9)
    }

    /// Deterministic split with an arbitrary train fraction.
    pub fn split_with_ratio(&self, seed: u64, train_fraction: f64) -> (Vec<usize>, Vec<usize>) {
        let mut indices: Vec<usize> = (0..self.points.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let train_len = ((self.points.len() as f64) * train_fraction).round() as usize;
        let train_len = train_len.min(self.points.len());
        let train = indices[..train_len].to_vec();
        let val = indices[train_len..].to_vec();
        (train, val)
    }
}

/// Generate the kernel instances that run on a given platform: CPU platforms
/// execute the `cpu*` variants, GPU platforms the `gpu*` variants.
pub fn instances_for(platform: Platform, scale: DatasetScale) -> Vec<KernelInstance> {
    let kernels = all_kernels();
    let budget = platform.default_budget();
    let config = GeneratorConfig {
        include_cpu: !platform.is_gpu(),
        include_gpu: platform.is_gpu(),
        ..scale.generator_config()
    };
    generate_instances(&kernels, &budget, &config)
}

/// What one sharded generation run did: shard-store effectiveness, frontend
/// cache activity and wall time — the "run summary" of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationSummary {
    /// Platform generated for.
    pub platform: Platform,
    /// Shards the run was partitioned into.
    pub shards_total: usize,
    /// Shards served from the store (resumed, not recomputed).
    pub shard_hits: usize,
    /// Shards that had to be measured this run.
    pub shard_misses: usize,
    /// Instances actually measured (in missed shards only).
    pub instances_measured: usize,
    /// Labelled points in the merged dataset.
    pub points: usize,
    /// Frontend-cache activity of the measured shards.
    pub cache: CacheCounters,
    /// Wall-clock time of the run in milliseconds.
    pub wall_ms: f64,
}

impl std::fmt::Display for GenerationSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} points from {} shards ({} store hits, {} measured: {} instances; \
             frontend cache {} hits / {} misses) in {:.0} ms",
            self.platform.name(),
            self.points,
            self.shards_total,
            self.shard_hits,
            self.shard_misses,
            self.instances_measured,
            self.cache.hits,
            self.cache.misses,
            self.wall_ms
        )
    }
}

/// A merged dataset plus the summary of the run that produced it.
#[derive(Debug, Clone)]
pub struct GenerationOutcome {
    /// The merged per-platform dataset.
    pub dataset: PlatformDataset,
    /// What the run did (shard hits, cache activity, wall time).
    pub summary: GenerationSummary,
}

/// Merge completed shards' points into the final dataset: stable sort over
/// a total per-point key, then dense id assignment. Because the key is
/// unique per point (instance descriptions are unique) the result is
/// independent of shard completion order and of how points were batched.
pub fn merge_shard_points(platform: Platform, mut points: Vec<DataPoint>) -> PlatformDataset {
    // HashMap iteration order is not deterministic, so the size component
    // of the key is built from sorted pairs. The key allocates (name
    // strings + size pairs), so it is computed once per point via
    // `sort_by_cached_key` instead of twice per comparison.
    points.sort_by_cached_key(|p| {
        let mut pairs: Vec<(String, i64)> = p.sizes.iter().map(|(k, v)| (k.clone(), *v)).collect();
        pairs.sort();
        (p.full_name(), p.variant.name(), p.teams, p.threads, pairs)
    });
    for (i, p) in points.iter_mut().enumerate() {
        p.id = i;
    }
    PlatformDataset { platform, points }
}

/// The engine a generation run measures through: the run's platform, the
/// noisy simulator backend (bit-identical to [`pg_perfsim::measure`]) and a
/// small frontend cache shared across the run's shards.
fn measurement_engine(platform: Platform, config: &PipelineConfig) -> Engine {
    Engine::builder()
        .platform(platform)
        .backend(SimulatorBackend::new(NoiseModel {
            sigma: config.noise_sigma,
            seed: config.seed,
        }))
        .cache_capacity(GENERATION_CACHE_CAPACITY)
        .build()
}

/// Capacity of the per-run frontend cache. The simulator backend looks up
/// one representative source per launch-free body, and no body spans two
/// shards, so a run never hits within itself: a `Full` V100 run makes 1,170
/// lookups, all misses. Every cached AST stays live until the run ends, so
/// the cache is kept small: at 512 entries it held 14 MB of that run's
/// 73 MB peak heap. Nor is LRU churn free, since eviction scans the whole
/// cache: parsing and analysing all 29,250 of the run's instance sources
/// through a 512-entry cache took 1,558–1,780 ms, against 1,119–1,205 ms
/// without it (rayon shim over 2 vCPUs).
const GENERATION_CACHE_CAPACITY: usize = 64;

/// Sharded generation for one platform: plan deterministic per-kernel
/// shards, serve completed ones from `store`, measure the rest through a
/// shared engine, persist them, and merge.
///
/// The merged dataset is bit-identical to [`collect_platform_unsharded`]
/// for the same configuration, regardless of which shards were resumed.
///
/// Stored shards load in parallel. Missing shards are measured one after
/// another, and each shard's instances go to the engine as one batch, which
/// fans its bodies out across the pool: shard sizes are very uneven, so a
/// fan-out across shards would leave one thread with most of the work. The
/// frontend cache is looked up once per launch-free body, with the body's
/// first instance as the key, so [`GenerationSummary::cache`] counts bodies,
/// not instances.
pub fn generate_platform(
    platform: Platform,
    config: &PipelineConfig,
    store: &ShardStore,
) -> GenerationOutcome {
    let started = Instant::now();
    let plan = ShardPlan::plan(platform, config);
    let shards_total = plan.shards.len();
    let engine = measurement_engine(platform, config);

    // Only labels hit the disk; points materialize from the in-memory plan.
    let resumed: Vec<Option<Vec<DataPoint>>> = plan
        .shards
        .par_iter()
        .map(|shard: &Shard| store.load(shard).map(|labels| shard.points(&labels)))
        .collect();
    let mut shard_hits = 0;
    let mut instances_measured = 0;
    let mut cache_totals = CacheCounters::default();
    let mut points = Vec::with_capacity(plan.instance_count());
    for (shard, resumed) in plan.shards.iter().zip(resumed) {
        if let Some(shard_points) = resumed {
            shard_hits += 1;
            points.extend(shard_points);
            continue;
        }
        let (labels, cache_delta) = shard.measure(&engine);
        store.save(shard, &labels);
        instances_measured += shard.instances.len();
        cache_totals.hits += cache_delta.hits;
        cache_totals.misses += cache_delta.misses;
        points.extend(shard.points(&labels));
    }
    let dataset = merge_shard_points(platform, points);
    let summary = GenerationSummary {
        platform,
        shards_total,
        shard_hits,
        shard_misses: shards_total - shard_hits,
        instances_measured,
        points: dataset.len(),
        cache: cache_totals,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    GenerationOutcome { dataset, summary }
}

/// Run the full pipeline for one platform: generate variants, "measure" each
/// one on the simulator, and return the labelled dataset.
///
/// This is the sharded, store-backed path ([`generate_platform`] against
/// the workspace-default [`ShardStore`]); a second run over the same
/// configuration resumes from the store instead of recomputing.
pub fn collect_platform(platform: Platform, config: &PipelineConfig) -> PlatformDataset {
    generate_platform(platform, config, &ShardStore::default_location()).dataset
}

/// The pre-shard reference pipeline: one flat rayon sweep over every
/// selected instance, measured directly on [`pg_perfsim::measure`] with no
/// engine, no store and no partitioning.
///
/// Kept (not deprecated) as the bit-identity oracle: `tests/pipeline.rs`
/// asserts the sharded path reproduces this output exactly, which is what
/// makes the shard store safe to trust.
pub fn collect_platform_unsharded(platform: Platform, config: &PipelineConfig) -> PlatformDataset {
    let mut instances = instances_for(platform, config.scale);

    // Deterministic subsample to the configured scale.
    let max_points = config.scale.max_points();
    if instances.len() > max_points {
        let mut rng = StdRng::seed_from_u64(config.seed ^ platform as u64);
        instances.shuffle(&mut rng);
        instances.truncate(max_points);
    }

    let noise = NoiseModel {
        sigma: config.noise_sigma,
        seed: config.seed,
    };

    let points: Vec<DataPoint> = instances
        .par_iter()
        .filter_map(|inst| {
            let measurement = measure(inst, platform, &noise).ok()?;
            Some(DataPoint {
                id: 0,
                application: inst.application.clone(),
                kernel: inst.kernel.clone(),
                variant: inst.variant,
                platform,
                sizes: inst.sizes.clone(),
                teams: inst.launch.teams,
                threads: inst.launch.threads,
                runtime_ms: measurement.runtime_ms,
                source: inst.source.clone(),
            })
        })
        .collect();

    merge_shard_points(platform, points)
}

/// Sharded generation for all four platforms, one [`generate_platform`]
/// run each, in [`Platform::ALL`] order.
pub fn generate_all(config: &PipelineConfig, store: &ShardStore) -> Vec<GenerationOutcome> {
    Platform::ALL
        .iter()
        .map(|&p| generate_platform(p, config, store))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_advisor::Variant;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 7,
            noise_sigma: 0.03,
        }
    }

    #[test]
    fn cpu_platform_only_gets_cpu_variants() {
        let ds = collect_platform(Platform::SummitPower9, &fast_config());
        assert!(!ds.is_empty());
        assert!(ds.points.iter().all(|p| !p.variant.is_gpu()));
        assert!(ds.points.iter().all(|p| p.teams == 1));
    }

    #[test]
    fn gpu_platform_only_gets_gpu_variants() {
        let ds = collect_platform(Platform::CoronaMi50, &fast_config());
        assert!(!ds.is_empty());
        assert!(ds.points.iter().all(|p| p.variant.is_gpu()));
        // All four GPU variants appear.
        for v in [
            Variant::Gpu,
            Variant::GpuCollapse,
            Variant::GpuMem,
            Variant::GpuCollapseMem,
        ] {
            assert!(
                ds.points.iter().any(|p| p.variant == v),
                "variant {} missing from the GPU dataset",
                v.name()
            );
        }
    }

    #[test]
    fn runtimes_are_positive_and_varied() {
        let ds = collect_platform(Platform::SummitV100, &fast_config());
        assert!(ds.points.iter().all(|p| p.runtime_ms > 0.0));
        let stats = ds.stats();
        assert!(
            stats.max_runtime_ms > 10.0 * stats.min_runtime_ms,
            "runtime range too narrow"
        );
    }

    #[test]
    fn collection_is_deterministic() {
        let a = collect_platform(Platform::SummitPower9, &fast_config());
        let b = collect_platform(Platform::SummitPower9, &fast_config());
        assert_eq!(a, b);
    }

    #[test]
    fn split_is_nine_to_one_and_disjoint() {
        let ds = collect_platform(Platform::SummitPower9, &fast_config());
        let (train, val) = ds.split(123);
        assert_eq!(train.len() + val.len(), ds.len());
        let expected_train = (ds.len() as f64 * 0.9).round() as usize;
        assert_eq!(train.len(), expected_train);
        let mut all: Vec<usize> = train.iter().chain(val.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            ds.len(),
            "split indices must be disjoint and exhaustive"
        );
        // Deterministic.
        let (train2, _) = ds.split(123);
        assert_eq!(train, train2);
        // Different seeds differ.
        let (train3, _) = ds.split(124);
        assert_ne!(train, train3);
    }

    #[test]
    fn every_application_is_represented() {
        let ds = collect_platform(Platform::SummitV100, &fast_config());
        let apps: std::collections::HashSet<&str> =
            ds.points.iter().map(|p| p.application.as_str()).collect();
        assert!(apps.len() >= 8, "expected most applications, got {apps:?}");
    }

    #[test]
    fn gpu_dataset_is_larger_than_cpu_dataset_at_full_stride() {
        // The paper's Table II shows roughly 2x more GPU points than CPU
        // points (four GPU variants vs two CPU variants).
        let cpu = instances_for(Platform::SummitPower9, DatasetScale::Default).len();
        let gpu = instances_for(Platform::SummitV100, DatasetScale::Default).len();
        assert!(
            gpu > cpu,
            "GPU instance count {gpu} must exceed CPU count {cpu}"
        );
    }

    #[test]
    fn generation_parses_each_distinct_body_of_its_plan_once() {
        let config = PipelineConfig::default();
        for platform in [Platform::SummitV100, Platform::SummitPower9] {
            let plan = ShardPlan::plan(platform, &config);
            let bodies: std::collections::HashSet<_> = plan
                .shards
                .iter()
                .flat_map(|shard| shard.instances.iter().map(KernelInstance::body_key))
                .collect();
            let outcome = generate_platform(platform, &config, &ShardStore::disabled());
            assert_eq!(outcome.summary.instances_measured, plan.instance_count());
            assert!(bodies.len() < plan.instance_count());
            assert_eq!(outcome.summary.cache.misses as usize, bodies.len());
        }
    }

    #[test]
    fn scale_from_vars_resolution() {
        // Pure resolution — no process-global env mutation, which would race
        // with parallel tests that read the same variables.
        assert_eq!(DatasetScale::from_vars(None, None), DatasetScale::Default);
        assert_eq!(DatasetScale::from_vars(Some("1"), None), DatasetScale::Fast);
        assert_eq!(DatasetScale::from_vars(None, Some("1")), DatasetScale::Full);
        // Fast wins when both are set; "0" disables a flag.
        assert_eq!(
            DatasetScale::from_vars(Some("1"), Some("1")),
            DatasetScale::Fast
        );
        assert_eq!(
            DatasetScale::from_vars(Some("0"), None),
            DatasetScale::Default
        );
        assert_eq!(
            DatasetScale::from_vars(Some("0"), Some("1")),
            DatasetScale::Full
        );
    }
}
