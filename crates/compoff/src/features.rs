//! COMPOFF-style hand-engineered kernel features.
//!
//! COMPOFF (Mishra et al., IPDPSW'22) predicts the cost of OpenMP offloading
//! from manually counted kernel characteristics — numbers of operations,
//! loop structure, transferred data — fed into a multi-layer perceptron.
//! This module extracts the equivalent feature vector from a kernel's source
//! using the `pg-frontend` analyses.

use pg_frontend::analysis::{self, ConstEnv};
use pg_frontend::{parse, Ast, FrontendError};
use serde::{Deserialize, Serialize};

/// Number of features in the COMPOFF vector.
pub const COMPOFF_FEATURE_DIM: usize = 12;

/// The hand-engineered feature vector of one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompoffFeatures {
    /// Floating-point operations per kernel execution.
    pub flops: f64,
    /// Integer/address operations per kernel execution.
    pub int_ops: f64,
    /// Array loads per kernel execution.
    pub loads: f64,
    /// Array stores per kernel execution.
    pub stores: f64,
    /// Intrinsic / function calls.
    pub calls: f64,
    /// Total loop iterations.
    pub iterations: f64,
    /// Iterations of the distributed (parallel) loop space.
    pub parallel_iterations: f64,
    /// Maximum loop nest depth.
    pub loop_depth: f64,
    /// Bytes transferred host→device.
    pub bytes_to_device: f64,
    /// Bytes transferred device→host.
    pub bytes_from_device: f64,
    /// Number of teams in the launch configuration.
    pub teams: f64,
    /// Number of threads in the launch configuration.
    pub threads: f64,
}

impl CompoffFeatures {
    /// The raw feature vector (before scaling), log-compressed where the
    /// quantity spans many orders of magnitude.
    pub fn to_vector(&self) -> Vec<f32> {
        let log = |v: f64| ((1.0 + v.max(0.0)).ln()) as f32;
        vec![
            log(self.flops),
            log(self.int_ops),
            log(self.loads),
            log(self.stores),
            log(self.calls),
            log(self.iterations),
            log(self.parallel_iterations),
            self.loop_depth as f32,
            log(self.bytes_to_device),
            log(self.bytes_from_device),
            log(self.teams),
            log(self.threads),
        ]
    }
}

/// Extract COMPOFF features from a kernel source plus its launch
/// configuration.
pub fn extract(source: &str, teams: u64, threads: u64) -> Result<CompoffFeatures, FrontendError> {
    let ast = parse(source)?;
    Ok(extract_from_ast(&ast, teams, threads))
}

/// Extract COMPOFF features from an already-parsed kernel.
pub fn extract_from_ast(ast: &Ast, teams: u64, threads: u64) -> CompoffFeatures {
    let env = ConstEnv::new();
    let work = analysis::estimate_work(ast, ast.root(), &env);
    let (bytes_to, bytes_from) = transfer_bytes(ast);
    let parallel_iterations = analysis::distributed_iterations(ast, &env);
    CompoffFeatures {
        flops: work.flops,
        int_ops: work.int_ops,
        loads: work.loads,
        stores: work.stores,
        calls: work.calls,
        iterations: work.iterations,
        parallel_iterations,
        loop_depth: work.max_loop_depth as f64,
        bytes_to_device: bytes_to,
        bytes_from_device: bytes_from,
        teams: teams as f64,
        threads: threads as f64,
    }
}

/// Sum the data-transfer bytes declared by the `map` clauses of the kernel's
/// OpenMP directive. Array sections are of the form `name[0:extent]` with a
/// literal extent (problem sizes are substituted before parsing); each
/// element is a 4-byte float.
fn transfer_bytes(ast: &Ast) -> (f64, f64) {
    let mut to_device = 0.0;
    let mut from_device = 0.0;
    for (_, node) in ast.iter() {
        let Some(omp) = &node.data.omp else { continue };
        for (direction, item) in omp.map_items() {
            let elements = parse_section_extent(item).unwrap_or(0.0);
            let bytes = elements * 4.0;
            match direction {
                pg_frontend::MapDirection::To => to_device += bytes,
                pg_frontend::MapDirection::From => from_device += bytes,
                pg_frontend::MapDirection::ToFrom => {
                    to_device += bytes;
                    from_device += bytes;
                }
                pg_frontend::MapDirection::Alloc => {}
            }
        }
    }
    (to_device, from_device)
}

/// Parse the element count out of an array section `name[lo:extent]`.
fn parse_section_extent(item: &str) -> Option<f64> {
    let open = item.find('[')?;
    let close = item.rfind(']')?;
    let section = &item[open + 1..close];
    let extent = section.split(':').nth(1)?.trim();
    extent.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GPU_MEM_KERNEL: &str = r#"
        void k(float *a, float *b, float *c) {
            #pragma omp target teams distribute parallel for collapse(2) num_teams(80) thread_limit(128) map(to: a[0:16384], b[0:16384]) map(from: c[0:16384])
            for (int i = 0; i < 128; i++) {
                for (int j = 0; j < 128; j++) {
                    float sum = 0.0;
                    for (int k2 = 0; k2 < 128; k2++) {
                        sum += a[i * 128 + k2] * b[k2 * 128 + j];
                    }
                    c[i * 128 + j] = sum;
                }
            }
        }
    "#;

    #[test]
    fn feature_vector_has_fixed_dimension() {
        let f = extract(GPU_MEM_KERNEL, 80, 128).unwrap();
        assert_eq!(f.to_vector().len(), COMPOFF_FEATURE_DIM);
        assert!(f.to_vector().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn features_capture_work_and_transfers() {
        let f = extract(GPU_MEM_KERNEL, 80, 128).unwrap();
        assert!(
            f.flops > 1e6,
            "matmul 128^3 must have millions of flops, got {}",
            f.flops
        );
        assert_eq!(f.loop_depth, 3.0);
        assert_eq!(f.bytes_to_device, 2.0 * 16384.0 * 4.0);
        assert_eq!(f.bytes_from_device, 16384.0 * 4.0);
        assert_eq!(f.parallel_iterations, 128.0 * 128.0);
        assert_eq!(f.teams, 80.0);
        assert_eq!(f.threads, 128.0);
    }

    #[test]
    fn kernel_without_map_clauses_has_zero_transfer() {
        let src = r#"
            void k(float *a) {
                #pragma omp target teams distribute parallel for
                for (int i = 0; i < 1024; i++) { a[i] = 0.0; }
            }
        "#;
        let f = extract(src, 40, 64).unwrap();
        assert_eq!(f.bytes_to_device, 0.0);
        assert_eq!(f.bytes_from_device, 0.0);
        assert_eq!(f.parallel_iterations, 1024.0);
    }

    #[test]
    fn section_extent_parsing() {
        assert_eq!(parse_section_extent("a[0:1024]"), Some(1024.0));
        assert_eq!(parse_section_extent("data[0:65536]"), Some(65536.0));
        assert_eq!(parse_section_extent("scalar"), None);
    }

    #[test]
    fn larger_kernels_have_larger_features() {
        let small = extract(
            "void k(float *a) {\n#pragma omp target teams distribute parallel for\nfor (int i = 0; i < 64; i++) { a[i] = a[i] * 2.0; } }",
            40,
            64,
        )
        .unwrap();
        let large = extract(
            "void k(float *a) {\n#pragma omp target teams distribute parallel for\nfor (int i = 0; i < 65536; i++) { a[i] = a[i] * 2.0; } }",
            40,
            64,
        )
        .unwrap();
        assert!(large.flops > small.flops);
        assert!(large.to_vector()[0] > small.to_vector()[0]);
    }

    #[test]
    fn invalid_source_is_an_error() {
        assert!(extract("definitely not C", 1, 1).is_err());
    }
}
