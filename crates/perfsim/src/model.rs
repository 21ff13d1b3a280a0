//! Roofline-style analytical execution model.
//!
//! Given a [`KernelCost`], a launch configuration and
//! an accelerator specification, the model predicts the kernel's runtime as
//! the maximum of its compute time and its memory time, plus parallel
//! runtime overheads (fork/join or kernel launch) and — for the `_mem`
//! variants — host↔device transfer time. This is the "Runtime Measurement
//! Module" of Figure 3, replaced by a simulator because the Summit and Corona
//! clusters are not available.

use crate::accelerator::{AcceleratorSpec, CpuSpec, GpuSpec, Platform};
use crate::cost::KernelCost;
use pg_advisor::LaunchConfig;
use serde::{Deserialize, Serialize};

/// Breakdown of a simulated runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct RuntimeBreakdown {
    /// Time limited by arithmetic throughput (ms).
    pub compute_ms: f64,
    /// Time limited by memory bandwidth (ms).
    pub memory_ms: f64,
    /// Host↔device transfer time (ms).
    pub transfer_ms: f64,
    /// Parallel-runtime overhead: fork/join or kernel launch (ms).
    pub overhead_ms: f64,
    /// Serial remainder not covered by the parallel loop (ms).
    pub serial_ms: f64,
}

impl RuntimeBreakdown {
    /// Total runtime in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.compute_ms.max(self.memory_ms) + self.transfer_ms + self.overhead_ms + self.serial_ms
    }
}

/// Fraction of memory traffic that actually reaches DRAM on a CPU once the
/// working set fits (partially) in cache.
fn cpu_cache_discount(bytes_accessed: f64, cache_mb: f64) -> f64 {
    let cache_bytes = cache_mb * 1024.0 * 1024.0;
    if bytes_accessed <= cache_bytes {
        // Mostly cache-resident: only a small fraction goes to DRAM.
        0.15
    } else {
        // Streaming working sets still benefit from some reuse.
        0.55
    }
}

/// Predict the runtime of a kernel on a CPU socket.
pub fn predict_cpu(cost: &KernelCost, launch: LaunchConfig, spec: &CpuSpec) -> RuntimeBreakdown {
    let threads = launch.threads.max(1) as f64;
    let cores = spec.cores as f64;
    let hw_contexts = cores * spec.smt_threads as f64;

    // Effective parallel speedup: limited by requested threads, available
    // hardware contexts (SMT threads give only a modest boost beyond the
    // physical cores) and the amount of parallel work.
    let physical = threads.min(cores);
    let smt_extra = ((threads.min(hw_contexts) - physical).max(0.0)) * 0.25;
    let speedup = (physical + smt_extra)
        .min(cost.parallel_iterations.max(1.0))
        .max(1.0);

    // Load imbalance: a loop whose iteration count is not a multiple of the
    // thread count leaves some threads idle in the last chunk.
    let chunks = (cost.parallel_iterations / threads).ceil().max(1.0);
    let imbalance = (chunks * threads) / cost.parallel_iterations.max(1.0);
    let effective_speedup = (speedup / imbalance.max(1.0)).max(1.0);

    let compute_s =
        cost.work.flops.max(cost.work.int_ops * 0.5) / (spec.flops_per_core * effective_speedup);

    // Memory bandwidth saturates well before all cores are in use.
    let bw_fraction = 0.35 + 0.65 * (physical / cores).min(1.0);
    let dram_bytes = cost.bytes_accessed * cpu_cache_discount(cost.bytes_accessed, spec.cache_mb);
    let memory_s = dram_bytes / (spec.mem_bandwidth * bw_fraction);

    // Fork/join plus per-thread management overhead.
    let overhead_s = (spec.fork_join_overhead_us + spec.per_thread_overhead_us * threads) * 1e-6;

    // Loop bookkeeping that does not parallelise (compares + increments of
    // the sequential fraction).
    let serial_s = cost.work.compares / (spec.flops_per_core * effective_speedup) * 0.5;

    RuntimeBreakdown {
        compute_ms: compute_s * 1e3,
        memory_ms: memory_s * 1e3,
        transfer_ms: 0.0,
        overhead_ms: overhead_s * 1e3,
        serial_ms: serial_s * 1e3,
    }
}

/// Predict the runtime of a kernel offloaded to a GPU.
pub fn predict_gpu(cost: &KernelCost, launch: LaunchConfig, spec: &GpuSpec) -> RuntimeBreakdown {
    let requested_threads = (launch.teams.max(1) * launch.threads.max(1)) as f64;
    let hw_threads = (spec.sms * spec.max_threads_per_sm) as f64;

    // The kernel can use at most one thread per distributed iteration.
    let usable_threads = requested_threads
        .min(cost.parallel_iterations.max(1.0))
        .min(hw_threads)
        .max(1.0);

    // Throughput utilisation: the GPU needs tens of thousands of threads to
    // reach peak; occupancy is the fraction of hardware contexts filled.
    let occupancy = (usable_threads / hw_threads).min(1.0);
    // Even a single resident thread per SM extracts a base fraction of peak.
    let compute_utilisation = (0.02 + 0.98 * occupancy.powf(0.75)).min(1.0);
    let memory_utilisation = (0.05 + 0.95 * occupancy.powf(0.5)).min(1.0);

    let compute_s =
        cost.work.flops.max(cost.work.int_ops * 0.25) / (spec.peak_flops * compute_utilisation);

    // GPU caches are small relative to the working sets: streaming kernels
    // send most accesses to DRAM, while deep loop nests (matmul-like kernels)
    // get significant reuse out of the L2 and shared memory.
    let reuse_fraction = if cost.loop_depth >= 3 { 0.3 } else { 0.7 };
    let dram_bytes = cost.bytes_accessed * reuse_fraction;
    let memory_s = dram_bytes / (spec.mem_bandwidth * memory_utilisation);

    let overhead_s = spec.launch_latency_us * 1e-6;

    // Host↔device transfers (only non-zero for the `_mem` variants): one
    // latency charge per direction plus bandwidth-limited payload time.
    let mut transfer_s = 0.0;
    if cost.bytes_to_device > 0.0 {
        transfer_s += spec.interconnect_latency_us * 1e-6
            + cost.bytes_to_device / spec.interconnect_bandwidth;
    }
    if cost.bytes_from_device > 0.0 {
        transfer_s += spec.interconnect_latency_us * 1e-6
            + cost.bytes_from_device / spec.interconnect_bandwidth;
    }

    RuntimeBreakdown {
        compute_ms: compute_s * 1e3,
        memory_ms: memory_s * 1e3,
        transfer_ms: transfer_s * 1e3,
        overhead_ms: overhead_s * 1e3,
        serial_ms: 0.0,
    }
}

/// Predict the runtime of a kernel on any platform. CPU variants run on the
/// CPU spec, GPU variants on the GPU spec; mismatched combinations (a CPU
/// variant "measured" on a GPU platform) are rejected by the caller in
/// `pg-dataset`, but if they reach this function the kernel simply runs on
/// the hardware it was asked to run on.
pub fn predict(cost: &KernelCost, launch: LaunchConfig, platform: Platform) -> RuntimeBreakdown {
    match platform.spec() {
        AcceleratorSpec::Cpu(spec) => predict_cpu(cost, launch, &spec),
        AcceleratorSpec::Gpu(spec) => predict_gpu(cost, launch, &spec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::analyze_instance;
    use pg_advisor::{instantiate, Variant};
    use pg_kernels::find_kernel;
    use std::collections::HashMap;

    fn mm_cost(variant: Variant, n: i64, launch: LaunchConfig) -> (KernelCost, LaunchConfig) {
        let mm = find_kernel("MM/matmul").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), n);
        let inst = instantiate(&mm, variant, &sizes, launch);
        (analyze_instance(&inst).unwrap(), launch)
    }

    #[test]
    fn more_cpu_threads_reduce_runtime() {
        let launch1 = LaunchConfig {
            teams: 1,
            threads: 1,
        };
        let launch16 = LaunchConfig {
            teams: 1,
            threads: 16,
        };
        let (cost, _) = mm_cost(Variant::Cpu, 512, launch1);
        let spec = match Platform::SummitPower9.spec() {
            AcceleratorSpec::Cpu(c) => c,
            _ => unreachable!(),
        };
        let t1 = predict_cpu(&cost, launch1, &spec).total_ms();
        let t16 = predict_cpu(&cost, launch16, &spec).total_ms();
        assert!(
            t16 < t1 / 4.0,
            "16 threads ({t16} ms) must be much faster than 1 ({t1} ms)"
        );
    }

    #[test]
    fn gpu_beats_cpu_on_large_matmul() {
        let gpu_launch = LaunchConfig {
            teams: 160,
            threads: 256,
        };
        let cpu_launch = LaunchConfig {
            teams: 1,
            threads: 22,
        };
        let (cost_gpu, _) = mm_cost(Variant::GpuCollapse, 1024, gpu_launch);
        let (cost_cpu, _) = mm_cost(Variant::Cpu, 1024, cpu_launch);
        let t_gpu = predict(&cost_gpu, gpu_launch, Platform::SummitV100).total_ms();
        let t_cpu = predict(&cost_cpu, cpu_launch, Platform::SummitPower9).total_ms();
        assert!(
            t_gpu < t_cpu / 3.0,
            "V100 ({t_gpu} ms) must clearly beat POWER9 ({t_cpu} ms) on a 1024^3 matmul"
        );
    }

    #[test]
    fn transfer_overhead_hurts_small_kernels_more() {
        let launch = LaunchConfig {
            teams: 80,
            threads: 128,
        };
        let (small_no_mem, _) = mm_cost(Variant::Gpu, 128, launch);
        let (small_mem, _) = mm_cost(Variant::GpuMem, 128, launch);
        let (large_no_mem, _) = mm_cost(Variant::Gpu, 1024, launch);
        let (large_mem, _) = mm_cost(Variant::GpuMem, 1024, launch);
        let t_small_no = predict(&small_no_mem, launch, Platform::CoronaMi50).total_ms();
        let t_small_mem = predict(&small_mem, launch, Platform::CoronaMi50).total_ms();
        let t_large_no = predict(&large_no_mem, launch, Platform::CoronaMi50).total_ms();
        let t_large_mem = predict(&large_mem, launch, Platform::CoronaMi50).total_ms();
        let small_penalty = t_small_mem / t_small_no;
        let large_penalty = t_large_mem / t_large_no;
        assert!(
            small_penalty > large_penalty,
            "relative transfer penalty must shrink with kernel size"
        );
        assert!(t_small_mem > t_small_no, "transfers must add time");
    }

    #[test]
    fn collapse_helps_when_the_outer_loop_is_small() {
        // Correlation with M=32: only 32 outer iterations — far too few for a
        // GPU — but 32*32=1024 collapsed iterations.
        let corr = find_kernel("Correlation/correlation").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), 4096i64);
        sizes.insert("M".to_string(), 32i64);
        let launch = LaunchConfig {
            teams: 80,
            threads: 128,
        };
        let flat = instantiate(&corr, Variant::Gpu, &sizes, launch);
        let collapsed = instantiate(&corr, Variant::GpuCollapse, &sizes, launch);
        let t_flat = predict(
            &analyze_instance(&flat).unwrap(),
            launch,
            Platform::SummitV100,
        )
        .total_ms();
        let t_collapsed = predict(
            &analyze_instance(&collapsed).unwrap(),
            launch,
            Platform::SummitV100,
        )
        .total_ms();
        assert!(
            t_collapsed < t_flat,
            "collapse ({t_collapsed} ms) must beat the flat variant ({t_flat} ms) for a narrow outer loop"
        );
    }

    #[test]
    fn kernel_launch_latency_floors_gpu_runtimes() {
        // A tiny kernel cannot run faster than the launch latency.
        let pf = find_kernel("ParticleFilter/init_weights").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("P".to_string(), 16384i64);
        let launch = LaunchConfig {
            teams: 40,
            threads: 64,
        };
        let inst = instantiate(&pf, Variant::Gpu, &sizes, launch);
        let t = predict(
            &analyze_instance(&inst).unwrap(),
            launch,
            Platform::SummitV100,
        );
        assert!(
            t.total_ms() >= 0.018,
            "runtime {t:?} must include launch latency"
        );
    }

    #[test]
    fn runtime_grows_with_problem_size_on_every_platform() {
        for platform in Platform::ALL {
            let launch = if platform.is_gpu() {
                LaunchConfig {
                    teams: 80,
                    threads: 128,
                }
            } else {
                LaunchConfig {
                    teams: 1,
                    threads: 16,
                }
            };
            let variant = if platform.is_gpu() {
                Variant::Gpu
            } else {
                Variant::Cpu
            };
            let (small, _) = mm_cost(variant, 128, launch);
            let (large, _) = mm_cost(variant, 768, launch);
            let t_small = predict(&small, launch, platform).total_ms();
            let t_large = predict(&large, launch, platform).total_ms();
            assert!(
                t_large > 2.0 * t_small,
                "{}: runtime must grow with N (got {t_small} -> {t_large})",
                platform.name()
            );
        }
    }

    #[test]
    fn breakdown_total_is_consistent() {
        let b = RuntimeBreakdown {
            compute_ms: 2.0,
            memory_ms: 5.0,
            transfer_ms: 1.0,
            overhead_ms: 0.5,
            serial_ms: 0.25,
        };
        assert!((b.total_ms() - (5.0 + 1.0 + 0.5 + 0.25)).abs() < 1e-12);
    }
}
