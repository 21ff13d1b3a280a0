//! Shard planning and execution for the partitioned dataset pipeline.
//!
//! A *shard* is the unit of generation work and of resumability: all
//! selected instances of one kernel on one platform at one `(scale, seed,
//! noise)` configuration. Shards are planned deterministically — the
//! instance sweep and the seeded subsample are computed exactly as the
//! unsharded pipeline computed them, then grouped by kernel — so the union
//! of all shards is always the same instance set regardless of how many
//! shards already sit in the store, and the merged dataset is bit-identical
//! to an unsharded sweep no matter in which order (or across how many
//! interrupted runs) the shards complete.
//!
//! Each shard carries a content fingerprint covering everything that
//! determines its points: the key fields, the noise configuration, the
//! full identity (description + source) of every instance in the shard,
//! and a behavioural probe of the label function itself (see
//! `model_signature`). The [`ShardStore`](crate::store::ShardStore)
//! addresses artifacts by this fingerprint, so a change to the generator,
//! the kernel catalogue, the sweep configuration or the simulator's cost
//! model can never resurrect stale points.

use crate::datapoint::DataPoint;
use crate::pipeline::{instances_for, DatasetScale, PipelineConfig};
use pg_advisor::KernelInstance;
use pg_engine::{CacheCounters, Engine, EngineError};
use pg_perfsim::Platform;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Bump when the artifact *schema* changes (field layout, label encoding):
/// stale artifacts under `target/paragraph-cache` are then ignored instead
/// of silently reused. Label-function changes (cost model, noise, parser)
/// need no bump — the behavioural probe folded into every fingerprint
/// (see `model_signature`) invalidates old artifacts automatically.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Identity of one generation shard: platform × kernel × scale × seed
/// (plus the noise sigma, which is part of the label function).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardKey {
    /// Platform the shard's runtimes are "measured" on.
    pub platform: Platform,
    /// Fully qualified kernel name (`application/kernel`).
    pub kernel: String,
    /// Dataset scale the run was planned at.
    pub scale: DatasetScale,
    /// Global pipeline seed (subsampling and measurement noise).
    pub seed: u64,
    /// Bit pattern of the noise sigma (hashable/comparable exactly).
    pub noise_sigma_bits: u64,
}

impl ShardKey {
    /// Filesystem-safe slug naming this shard's artifact.
    pub fn slug(&self) -> String {
        format!(
            "{}-{}-{:?}-s{}",
            self.platform.name().replace([' ', '(', ')', '/'], "-"),
            self.kernel.replace([' ', '(', ')', '/'], "-"),
            self.scale,
            self.seed
        )
        .to_lowercase()
    }
}

/// One unit of generation work: a key plus the concrete instances to
/// measure, in deterministic plan order.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The shard's identity.
    pub key: ShardKey,
    /// Instances of this shard, in plan order.
    pub instances: Vec<KernelInstance>,
}

/// 64-bit FNV-1a, used for shard fingerprints: stable across processes and
/// Rust versions (unlike `DefaultHasher`, whose algorithm is unspecified),
/// which matters because fingerprints address on-disk artifacts.
fn fnv1a(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A behavioural signature of the whole label function, folded into every
/// shard fingerprint: the bit patterns of two canonical probe measurements
/// (one CPU, one GPU-with-transfers, both noisy). Any change to the
/// frontend, the cost analysis, the execution model, the accelerator specs
/// or the noise stream changes a probe label, so artifacts persisted under
/// `target/paragraph-cache` by an older code revision degrade to cache
/// misses automatically instead of being served stale — no manual
/// [`SHARD_FORMAT_VERSION`] bump needed for label-affecting changes.
/// Computed once per process (two measurements, microseconds).
fn model_signature() -> u64 {
    use std::sync::OnceLock;
    static SIGNATURE: OnceLock<u64> = OnceLock::new();
    *SIGNATURE.get_or_init(|| {
        let mm = pg_kernels::find_kernel("MM/matmul").expect("catalogue always has MM/matmul");
        let probe_noise = pg_perfsim::NoiseModel {
            sigma: 0.05,
            seed: 0x7061_7261_6772_6170, // fixed probe seed, independent of runs
        };
        let probes = [
            (
                Platform::SummitPower9,
                pg_advisor::Variant::Cpu,
                pg_advisor::LaunchConfig {
                    teams: 1,
                    threads: 16,
                },
            ),
            (
                Platform::SummitV100,
                pg_advisor::Variant::GpuCollapseMem,
                pg_advisor::LaunchConfig {
                    teams: 80,
                    threads: 128,
                },
            ),
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (platform, variant, launch) in probes {
            let instance = pg_advisor::instantiate(&mm, variant, &mm.default_sizes(), launch);
            let measurement = pg_perfsim::measure(&instance, platform, &probe_noise)
                .expect("canonical probe instance always measures");
            fnv1a(&mut h, &measurement.runtime_ms.to_bits().to_le_bytes());
        }
        h
    })
}

impl Shard {
    /// Content hash over the shard's identity, every instance in it, and
    /// the behavioural `model_signature` of the label function.
    pub fn content_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv1a(&mut h, &SHARD_FORMAT_VERSION.to_le_bytes());
        fnv1a(&mut h, &model_signature().to_le_bytes());
        fnv1a(&mut h, self.key.platform.name().as_bytes());
        fnv1a(&mut h, self.key.kernel.as_bytes());
        fnv1a(&mut h, format!("{:?}", self.key.scale).as_bytes());
        fnv1a(&mut h, &self.key.seed.to_le_bytes());
        fnv1a(&mut h, &self.key.noise_sigma_bits.to_le_bytes());
        for instance in &self.instances {
            fnv1a(&mut h, instance.describe().as_bytes());
            fnv1a(&mut h, instance.source.as_bytes());
        }
        h
    }

    /// Canonical fingerprint string stored inside (and compared against)
    /// the shard's artifact, so a hash collision degrades to a cache miss
    /// instead of serving another shard's points.
    pub fn fingerprint(&self) -> String {
        format!(
            "v{}|{}|{}|{:?}|seed={}|sigma_bits={:016x}|n={}|model={:016x}|content={:016x}",
            SHARD_FORMAT_VERSION,
            self.key.platform.name(),
            self.key.kernel,
            self.key.scale,
            self.key.seed,
            self.key.noise_sigma_bits,
            self.instances.len(),
            model_signature(),
            self.content_hash()
        )
    }

    /// Measure every instance of this shard through an engine (which must
    /// serve this shard's platform and carry the run's noisy simulator
    /// backend), returning one [`ShardLabel`] per *successful* measurement
    /// (instances whose measurement fails are skipped, exactly as in the
    /// unsharded pipeline) plus the frontend-cache activity the shard
    /// caused. Labels — not full points — are what the store persists: the
    /// plan already holds every instance, so an artifact only needs to
    /// carry `(index, runtime)` pairs, keeping warm loads far cheaper than
    /// re-measuring.
    pub fn measure(&self, engine: &Engine) -> (Vec<ShardLabel>, CacheCounters) {
        assert_eq!(
            engine.platform(),
            self.key.platform,
            "shard for {} executed on an engine serving {}",
            self.key.platform.name(),
            engine.platform().name()
        );
        let (predictions, cache) = engine.predict_instances_counted(&self.instances);
        let labels = predictions
            .into_iter()
            .enumerate()
            .filter_map(|(index, prediction): (_, Result<f64, EngineError>)| {
                Some(ShardLabel {
                    index,
                    runtime_ms: prediction.ok()?,
                })
            })
            .collect();
        (labels, cache)
    }

    /// Materialize labelled data points from this shard's instances and a
    /// set of labels (freshly measured or resumed from the store). Labels
    /// with out-of-range indices are skipped — the store's fingerprint
    /// check makes them impossible in practice, but a corrupt artifact must
    /// not panic the pipeline.
    ///
    /// Point ids are left at 0; ids are assigned by the deterministic merge
    /// ([`merge_shard_points`](crate::pipeline::merge_shard_points)), never
    /// per shard, so they are independent of shard completion order.
    pub fn points(&self, labels: &[ShardLabel]) -> Vec<DataPoint> {
        labels
            .iter()
            .filter_map(|label| {
                let inst = self.instances.get(label.index)?;
                Some(DataPoint {
                    id: 0,
                    application: inst.application.clone(),
                    kernel: inst.kernel.clone(),
                    variant: inst.variant,
                    platform: self.key.platform,
                    sizes: inst.sizes.clone(),
                    teams: inst.launch.teams,
                    threads: inst.launch.threads,
                    runtime_ms: label.runtime_ms,
                    source: inst.source.clone(),
                })
            })
            .collect()
    }
}

/// One successful measurement within a shard: the instance's index in plan
/// order plus its runtime label. This is the unit the
/// [`ShardStore`](crate::store::ShardStore) persists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardLabel {
    /// Index into [`Shard::instances`].
    pub index: usize,
    /// Measured (simulated) runtime in milliseconds.
    pub runtime_ms: f64,
}

/// The deterministic work partition of one platform's generation run.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Platform the plan generates for.
    pub platform: Platform,
    /// Shards in deterministic order (sorted by kernel name).
    pub shards: Vec<Shard>,
}

impl ShardPlan {
    /// Plan the shards of one platform run. The instance sweep and the
    /// seeded subsample are computed exactly as the unsharded pipeline
    /// computes them (same RNG, same truncation), then the selected
    /// instances are grouped by kernel — so the union over shards is the
    /// same instance set the unsharded pipeline would measure.
    pub fn plan(platform: Platform, config: &PipelineConfig) -> ShardPlan {
        let mut instances = instances_for(platform, config.scale);

        // Deterministic subsample to the configured scale (identical to the
        // pre-shard pipeline: shuffle under the platform-mixed seed, then
        // truncate).
        let max_points = config.scale.max_points();
        if instances.len() > max_points {
            let mut rng = StdRng::seed_from_u64(config.seed ^ platform as u64);
            instances.shuffle(&mut rng);
            instances.truncate(max_points);
        }

        // Group by kernel, preserving selection order within each shard.
        // BTreeMap so shard order is deterministic (sorted by kernel name)
        // rather than first-appearance order of a shuffled list.
        let mut by_kernel: std::collections::BTreeMap<String, Vec<KernelInstance>> =
            std::collections::BTreeMap::new();
        for instance in instances {
            by_kernel
                .entry(instance.full_name())
                .or_default()
                .push(instance);
        }
        let shards = by_kernel
            .into_iter()
            .map(|(kernel, instances)| Shard {
                key: ShardKey {
                    platform,
                    kernel,
                    scale: config.scale,
                    seed: config.seed,
                    noise_sigma_bits: config.noise_sigma.to_bits(),
                },
                instances,
            })
            .collect();
        ShardPlan { platform, shards }
    }

    /// Total instances across all shards.
    pub fn instance_count(&self) -> usize {
        self.shards.iter().map(|s| s.instances.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 7,
            noise_sigma: 0.03,
        }
    }

    #[test]
    fn plan_is_deterministic_and_partitions_by_kernel() {
        let a = ShardPlan::plan(Platform::SummitV100, &fast_config());
        let b = ShardPlan::plan(Platform::SummitV100, &fast_config());
        assert!(
            a.shards.len() > 5,
            "expected many shards, got {}",
            a.shards.len()
        );
        assert_eq!(a.shards.len(), b.shards.len());
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.instances, y.instances);
            assert_eq!(x.content_hash(), y.content_hash());
        }
        // Every shard holds exactly one kernel, and shards are sorted.
        for shard in &a.shards {
            assert!(shard
                .instances
                .iter()
                .all(|i| i.full_name() == shard.key.kernel));
        }
        let kernels: Vec<&str> = a.shards.iter().map(|s| s.key.kernel.as_str()).collect();
        let mut sorted = kernels.clone();
        sorted.sort_unstable();
        assert_eq!(kernels, sorted);
    }

    #[test]
    fn fingerprint_tracks_configuration() {
        let base = ShardPlan::plan(Platform::SummitV100, &fast_config());
        let other_seed = ShardPlan::plan(
            Platform::SummitV100,
            &PipelineConfig {
                seed: 8,
                ..fast_config()
            },
        );
        let other_sigma = ShardPlan::plan(
            Platform::SummitV100,
            &PipelineConfig {
                noise_sigma: 0.04,
                ..fast_config()
            },
        );
        assert_ne!(
            base.shards[0].fingerprint(),
            other_seed.shards[0].fingerprint()
        );
        assert_ne!(
            base.shards[0].fingerprint(),
            other_sigma.shards[0].fingerprint()
        );
        // Tampering with an instance changes the content hash.
        let mut tampered = base.shards[0].clone();
        tampered.instances[0].source.push(' ');
        assert_ne!(tampered.content_hash(), base.shards[0].content_hash());
    }

    #[test]
    fn plan_union_matches_the_unsharded_selection() {
        let config = fast_config();
        let plan = ShardPlan::plan(Platform::CoronaMi50, &config);
        // Reconstruct the unsharded selection.
        let mut instances = instances_for(Platform::CoronaMi50, config.scale);
        let max_points = 220; // DatasetScale::Fast::max_points()
        let mut rng = StdRng::seed_from_u64(config.seed ^ Platform::CoronaMi50 as u64);
        instances.shuffle(&mut rng);
        instances.truncate(max_points);
        assert_eq!(plan.instance_count(), instances.len());
        let mut expected: Vec<String> = instances.iter().map(|i| i.describe()).collect();
        let mut planned: Vec<String> = plan
            .shards
            .iter()
            .flat_map(|s| s.instances.iter().map(|i| i.describe()))
            .collect();
        expected.sort_unstable();
        planned.sort_unstable();
        assert_eq!(expected, planned);
    }
}
