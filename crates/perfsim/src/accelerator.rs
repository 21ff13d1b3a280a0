//! Accelerator specifications for the four platforms of the paper's
//! evaluation: Summit's IBM POWER9 CPUs and NVIDIA V100 GPUs, and Corona's
//! AMD EPYC 7401 CPUs and AMD MI50 GPUs.
//!
//! The numbers are public architectural figures (core counts, bandwidths,
//! peak throughput) de-rated to the sustained levels OpenMP codes typically
//! reach; they parameterise the analytical execution model in
//! [`crate::model`]. Absolute runtimes therefore differ from the paper's
//! measurements, but the relative behaviour (CPU vs GPU, transfer overheads,
//! collapse benefits, dispersion per platform) is preserved.

use serde::{Deserialize, Serialize};

/// The four accelerators of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Summit: IBM POWER9, 22 cores per socket (CPU).
    SummitPower9,
    /// Summit: NVIDIA V100 (GPU).
    SummitV100,
    /// Corona: AMD EPYC 7401, 24 cores (CPU).
    CoronaEpyc7401,
    /// Corona: AMD MI50 (GPU).
    CoronaMi50,
}

impl Platform {
    /// All four platforms, in the order used by the paper's tables.
    pub const ALL: [Platform; 4] = [
        Platform::SummitPower9,
        Platform::SummitV100,
        Platform::CoronaEpyc7401,
        Platform::CoronaMi50,
    ];

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            Platform::SummitPower9 => "IBM POWER9 (CPU)",
            Platform::SummitV100 => "NVIDIA V100 (GPU)",
            Platform::CoronaEpyc7401 => "AMD EPYC7401 (CPU)",
            Platform::CoronaMi50 => "AMD MI50 (GPU)",
        }
    }

    /// Short filesystem/CLI-safe identifier (`summit-v100`), the inverse of
    /// [`Platform::from_slug`]. Model-bundle artifacts and the serving
    /// tier's `--platform` flag use these instead of the display names,
    /// which contain spaces and parentheses.
    pub fn slug(self) -> &'static str {
        match self {
            Platform::SummitPower9 => "summit-power9",
            Platform::SummitV100 => "summit-v100",
            Platform::CoronaEpyc7401 => "corona-epyc7401",
            Platform::CoronaMi50 => "corona-mi50",
        }
    }

    /// Parse a [`Platform::slug`] back to the platform.
    pub fn from_slug(slug: &str) -> Option<Platform> {
        Platform::ALL.into_iter().find(|p| p.slug() == slug)
    }

    /// Cluster the accelerator belongs to.
    pub fn cluster(self) -> &'static str {
        match self {
            Platform::SummitPower9 | Platform::SummitV100 => "Summit",
            Platform::CoronaEpyc7401 | Platform::CoronaMi50 => "Corona",
        }
    }

    /// True for the two GPUs.
    pub fn is_gpu(self) -> bool {
        matches!(self, Platform::SummitV100 | Platform::CoronaMi50)
    }

    /// The hardware specification of this platform.
    pub fn spec(self) -> AcceleratorSpec {
        match self {
            Platform::SummitPower9 => AcceleratorSpec::Cpu(CpuSpec {
                cores: 22,
                smt_threads: 4,
                flops_per_core: 6.0e9,
                mem_bandwidth: 135.0e9,
                cache_mb: 110.0,
                fork_join_overhead_us: 12.0,
                per_thread_overhead_us: 0.8,
            }),
            Platform::CoronaEpyc7401 => AcceleratorSpec::Cpu(CpuSpec {
                cores: 24,
                smt_threads: 2,
                flops_per_core: 9.0e9,
                mem_bandwidth: 150.0e9,
                cache_mb: 64.0,
                fork_join_overhead_us: 8.0,
                per_thread_overhead_us: 0.5,
            }),
            Platform::SummitV100 => AcceleratorSpec::Gpu(GpuSpec {
                sms: 80,
                max_threads_per_sm: 2048,
                peak_flops: 3.2e12,
                mem_bandwidth: 830.0e9,
                interconnect_bandwidth: 45.0e9, // NVLink2 host link
                interconnect_latency_us: 12.0,
                launch_latency_us: 18.0,
            }),
            Platform::CoronaMi50 => AcceleratorSpec::Gpu(GpuSpec {
                sms: 60,
                max_threads_per_sm: 2560,
                peak_flops: 2.8e12,
                mem_bandwidth: 900.0e9,
                interconnect_bandwidth: 14.0e9, // PCIe gen3 x16
                interconnect_latency_us: 20.0,
                launch_latency_us: 25.0,
            }),
        }
    }

    /// Number of hardware cores (CPUs) or compute units (GPUs).
    pub fn parallel_units(self) -> u64 {
        match self.spec() {
            AcceleratorSpec::Cpu(c) => c.cores,
            AcceleratorSpec::Gpu(g) => g.sms,
        }
    }

    /// The launch-sweep budget this platform's hardware implies: a
    /// teams × threads grid from the SM count for GPUs, a thread sweep from
    /// the core count for CPUs.
    ///
    /// This is the single source of the "platform default" grid: the
    /// engine resolves `LaunchBudget::PlatformDefault` through it when it
    /// builds the candidate space that advise and the tuner share, and the
    /// dataset pipeline generates each platform's instances over it.
    pub fn default_budget(self) -> pg_advisor::ParallelismBudget {
        let units = self.parallel_units();
        if self.is_gpu() {
            pg_advisor::ParallelismBudget::for_gpu(units)
        } else {
            pg_advisor::ParallelismBudget::for_cpu_cores(units)
        }
    }
}

/// Specification of a CPU socket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Physical cores.
    pub cores: u64,
    /// Hardware threads per core (SMT).
    pub smt_threads: u64,
    /// Sustained floating-point throughput per core (flop/s).
    pub flops_per_core: f64,
    /// Sustained memory bandwidth of the socket (bytes/s).
    pub mem_bandwidth: f64,
    /// Last-level cache size in MiB (controls the cache-resident discount).
    pub cache_mb: f64,
    /// Cost of an OpenMP fork/join region (microseconds).
    pub fork_join_overhead_us: f64,
    /// Additional per-thread management overhead (microseconds).
    pub per_thread_overhead_us: f64,
}

/// Specification of a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Streaming multiprocessors / compute units.
    pub sms: u64,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u64,
    /// Sustained floating-point throughput (flop/s) for offloaded OpenMP.
    pub peak_flops: f64,
    /// Device memory bandwidth (bytes/s).
    pub mem_bandwidth: f64,
    /// Host↔device interconnect bandwidth (bytes/s).
    pub interconnect_bandwidth: f64,
    /// Interconnect latency per transfer (microseconds).
    pub interconnect_latency_us: f64,
    /// Kernel launch latency (microseconds).
    pub launch_latency_us: f64,
}

/// A platform's hardware description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AcceleratorSpec {
    /// A multicore CPU socket.
    Cpu(CpuSpec),
    /// A discrete GPU.
    Gpu(GpuSpec),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_platforms_with_paper_names() {
        assert_eq!(Platform::ALL.len(), 4);
        assert_eq!(Platform::SummitPower9.name(), "IBM POWER9 (CPU)");
        assert_eq!(Platform::SummitV100.name(), "NVIDIA V100 (GPU)");
        assert_eq!(Platform::CoronaEpyc7401.name(), "AMD EPYC7401 (CPU)");
        assert_eq!(Platform::CoronaMi50.name(), "AMD MI50 (GPU)");
    }

    #[test]
    fn cluster_membership() {
        assert_eq!(Platform::SummitPower9.cluster(), "Summit");
        assert_eq!(Platform::SummitV100.cluster(), "Summit");
        assert_eq!(Platform::CoronaEpyc7401.cluster(), "Corona");
        assert_eq!(Platform::CoronaMi50.cluster(), "Corona");
    }

    #[test]
    fn core_counts_match_the_paper() {
        // "IBM POWER9 with 22 cores and AMD EPYC 7401 with 24 cores"
        match Platform::SummitPower9.spec() {
            AcceleratorSpec::Cpu(c) => assert_eq!(c.cores, 22),
            _ => panic!("POWER9 must be a CPU"),
        }
        match Platform::CoronaEpyc7401.spec() {
            AcceleratorSpec::Cpu(c) => assert_eq!(c.cores, 24),
            _ => panic!("EPYC must be a CPU"),
        }
    }

    #[test]
    fn gpus_are_classified_as_gpus() {
        assert!(Platform::SummitV100.is_gpu());
        assert!(Platform::CoronaMi50.is_gpu());
        assert!(!Platform::SummitPower9.is_gpu());
        assert!(!Platform::CoronaEpyc7401.is_gpu());
        assert!(matches!(
            Platform::SummitV100.spec(),
            AcceleratorSpec::Gpu(_)
        ));
    }

    #[test]
    fn gpus_have_far_higher_peak_throughput_than_cpus() {
        let v100 = match Platform::SummitV100.spec() {
            AcceleratorSpec::Gpu(g) => g,
            _ => unreachable!(),
        };
        let p9 = match Platform::SummitPower9.spec() {
            AcceleratorSpec::Cpu(c) => c,
            _ => unreachable!(),
        };
        assert!(v100.peak_flops > 10.0 * p9.flops_per_core * p9.cores as f64);
        assert!(v100.mem_bandwidth > p9.mem_bandwidth);
    }

    #[test]
    fn parallel_units() {
        assert_eq!(Platform::SummitPower9.parallel_units(), 22);
        assert_eq!(Platform::SummitV100.parallel_units(), 80);
        assert_eq!(Platform::CoronaMi50.parallel_units(), 60);
    }
}
