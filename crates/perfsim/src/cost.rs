//! Static cost analysis of a kernel instance: the bridge between the
//! frontend's work estimate and the execution model.

use pg_advisor::KernelInstance;
use pg_frontend::analysis::{self, ConstEnv, WorkEstimate};
use pg_frontend::{parse, Ast, FrontendError};
use serde::{Deserialize, Serialize};

/// Everything the execution model needs to know about one kernel instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Loop-aware dynamic work estimate for one full kernel execution.
    pub work: WorkEstimate,
    /// Iterations of the distributed (parallelised) loop space: the outer
    /// loop's trip count, multiplied by the second loop's trip count when the
    /// directive collapses the nest.
    pub parallel_iterations: f64,
    /// Total loop iterations executed by the kernel.
    pub total_iterations: f64,
    /// Bytes read+written by the kernel (before cache discounts).
    pub bytes_accessed: f64,
    /// Bytes moved host→device before the kernel (only `_mem` variants).
    pub bytes_to_device: f64,
    /// Bytes moved device→host after the kernel (only `_mem` variants).
    pub bytes_from_device: f64,
    /// Arithmetic intensity (flops per byte accessed).
    pub arithmetic_intensity: f64,
    /// Depth of the deepest loop nest.
    pub loop_depth: usize,
}

/// Analyse an instance's source and produce its cost description.
///
/// The problem sizes are already substituted as literals in the instance
/// source, so trip counts are statically computable.
pub fn analyze_instance(instance: &KernelInstance) -> Result<KernelCost, FrontendError> {
    let ast = parse(&instance.source)?;
    Ok(analyze_ast(
        &ast,
        instance.bytes_to_device as f64,
        instance.bytes_from_device as f64,
    ))
}

/// Analyse an already-parsed kernel AST.
pub fn analyze_ast(ast: &Ast, bytes_to_device: f64, bytes_from_device: f64) -> KernelCost {
    let env = ConstEnv::new();
    let work = analysis::estimate_work(ast, ast.root(), &env);

    // The distributed iteration space: trip count of the loop the OpenMP
    // directive is attached to, times the next level when collapsed.
    let parallel_iterations = analysis::distributed_iterations(ast, &env);

    // Each load/store touches one 4-byte float (the kernels use float data).
    let bytes_accessed = (work.loads + work.stores) * 4.0;
    let arithmetic_intensity = if bytes_accessed > 0.0 {
        work.flops / bytes_accessed
    } else {
        work.flops.max(1.0)
    };

    KernelCost {
        work,
        parallel_iterations,
        total_iterations: work.iterations,
        bytes_accessed,
        bytes_to_device,
        bytes_from_device,
        arithmetic_intensity,
        loop_depth: work.max_loop_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_advisor::{instantiate, LaunchConfig, Variant};
    use pg_kernels::find_kernel;
    use std::collections::HashMap;

    fn mm_instance(variant: Variant, n: i64) -> KernelInstance {
        let mm = find_kernel("MM/matmul").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), n);
        instantiate(
            &mm,
            variant,
            &sizes,
            LaunchConfig {
                teams: 80,
                threads: 128,
            },
        )
    }

    #[test]
    fn matmul_cost_is_cubic_in_n() {
        let small = analyze_instance(&mm_instance(Variant::Gpu, 128)).unwrap();
        let large = analyze_instance(&mm_instance(Variant::Gpu, 256)).unwrap();
        let ratio = large.work.flops / small.work.flops;
        assert!(
            (6.0..10.0).contains(&ratio),
            "doubling N must increase flops ~8x, got {ratio}"
        );
        assert_eq!(small.loop_depth, 3);
    }

    #[test]
    fn collapse_multiplies_the_distributed_space() {
        let flat = analyze_instance(&mm_instance(Variant::Gpu, 256)).unwrap();
        let collapsed = analyze_instance(&mm_instance(Variant::GpuCollapse, 256)).unwrap();
        assert_eq!(flat.parallel_iterations, 256.0);
        assert_eq!(collapsed.parallel_iterations, 256.0 * 256.0);
        // Total work is unchanged by collapsing.
        let rel = (flat.work.flops - collapsed.work.flops).abs() / flat.work.flops;
        assert!(rel < 0.05);
    }

    #[test]
    fn mem_variants_carry_transfer_bytes() {
        let gpu = analyze_instance(&mm_instance(Variant::Gpu, 128)).unwrap();
        let mem = analyze_instance(&mm_instance(Variant::GpuMem, 128)).unwrap();
        assert_eq!(gpu.bytes_to_device, 0.0);
        assert_eq!(mem.bytes_to_device, 2.0 * 128.0 * 128.0 * 4.0);
        assert_eq!(mem.bytes_from_device, 128.0 * 128.0 * 4.0);
    }

    #[test]
    fn arithmetic_intensity_distinguishes_kernels() {
        // Matmul has much higher arithmetic intensity than a plain copy.
        let mm = analyze_instance(&mm_instance(Variant::Gpu, 256)).unwrap();
        let copy_kernel = find_kernel("Laplace/copy").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("T".to_string(), 65536i64);
        let copy = instantiate(
            &copy_kernel,
            Variant::Gpu,
            &sizes,
            LaunchConfig {
                teams: 80,
                threads: 128,
            },
        );
        let copy_cost = analyze_instance(&copy).unwrap();
        assert!(mm.arithmetic_intensity > 3.0 * copy_cost.arithmetic_intensity);
    }

    /// The cost analysis never reads an instance's launch clause, which is
    /// what lets the simulator backend parse one launch of a body and price
    /// the body's whole launch sweep from that cost.
    #[test]
    fn cost_is_invariant_to_the_launch_clause() {
        use crate::Platform;
        for platform in Platform::ALL {
            let budget = platform.default_budget();
            let launches = if platform.is_gpu() {
                budget.gpu_launches()
            } else {
                budget.cpu_launches()
            };
            let (first, last) = (launches[0], launches[launches.len() - 1]);
            assert_ne!(first, last);
            for kernel in pg_kernels::all_kernels() {
                let sizes = kernel.default_sizes();
                for variant in Variant::applicable_variants(&kernel) {
                    if variant.is_gpu() != platform.is_gpu() {
                        continue;
                    }
                    let cost_at = |launch| {
                        analyze_instance(&instantiate(&kernel, variant, &sizes, launch)).unwrap()
                    };
                    assert_eq!(
                        cost_at(first),
                        cost_at(last),
                        "{} [{}] on {}",
                        kernel.full_name(),
                        variant.name(),
                        platform.name()
                    );
                }
            }
        }
    }

    #[test]
    fn serial_source_still_analyzes() {
        let ast =
            parse("void f(float *a) { for (int i = 0; i < 100; i++) { a[i] = 1.0; } }").unwrap();
        let cost = analyze_ast(&ast, 0.0, 0.0);
        assert_eq!(cost.parallel_iterations, 100.0);
        assert!(cost.bytes_accessed > 0.0);
    }

    #[test]
    fn kernel_without_loops_degenerates_gracefully() {
        let ast = parse("void f(float *a) { a[0] = 1.0; }").unwrap();
        let cost = analyze_ast(&ast, 0.0, 0.0);
        assert_eq!(cost.parallel_iterations, 1.0);
        assert_eq!(cost.loop_depth, 0);
    }
}
