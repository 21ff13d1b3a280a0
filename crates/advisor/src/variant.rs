//! The six kernel transformations of the paper (Section IV-A1):
//! `cpu`, `cpu_collapse`, `gpu`, `gpu_collapse`, `gpu_mem`, `gpu_collapse_mem`.

use crate::launch::LaunchConfig;
use pg_kernels::{KernelTemplate, TransferDirection};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One of the six code-transformation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// CPU parallel kernel using `omp parallel for`.
    Cpu,
    /// CPU parallel kernel with `collapse(2)` on a nested collapsible loop.
    CpuCollapse,
    /// GPU kernel using the combined
    /// `omp target teams distribute parallel for` directive, data assumed
    /// resident on the GPU.
    Gpu,
    /// GPU kernel with `collapse(2)`, data assumed resident on the GPU.
    GpuCollapse,
    /// Same as [`Variant::Gpu`] but with explicit host↔device data transfer.
    GpuMem,
    /// Same as [`Variant::GpuCollapse`] but with explicit data transfer.
    GpuCollapseMem,
}

impl Variant {
    /// All six variants in the paper's order.
    pub const ALL: [Variant; 6] = [
        Variant::Cpu,
        Variant::CpuCollapse,
        Variant::Gpu,
        Variant::GpuCollapse,
        Variant::GpuMem,
        Variant::GpuCollapseMem,
    ];

    /// Paper's name for the variant.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Cpu => "cpu",
            Variant::CpuCollapse => "cpu_collapse",
            Variant::Gpu => "gpu",
            Variant::GpuCollapse => "gpu_collapse",
            Variant::GpuMem => "gpu_mem",
            Variant::GpuCollapseMem => "gpu_collapse_mem",
        }
    }

    /// Parse a variant from its paper name.
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL.iter().copied().find(|v| v.name() == name)
    }

    /// True for variants that offload to the GPU.
    pub fn is_gpu(self) -> bool {
        !matches!(self, Variant::Cpu | Variant::CpuCollapse)
    }

    /// True for variants that collapse the loop nest.
    pub fn collapses(self) -> bool {
        matches!(
            self,
            Variant::CpuCollapse | Variant::GpuCollapse | Variant::GpuCollapseMem
        )
    }

    /// True for variants that include explicit host↔device data transfer.
    pub fn has_data_transfer(self) -> bool {
        matches!(self, Variant::GpuMem | Variant::GpuCollapseMem)
    }

    /// Whether this variant can legally be generated for a kernel: collapse
    /// variants require a collapsible loop nest.
    pub fn applicable_to(self, kernel: &KernelTemplate) -> bool {
        !self.collapses() || kernel.collapsible
    }

    /// Variants applicable to a kernel.
    pub fn applicable_variants(kernel: &KernelTemplate) -> Vec<Variant> {
        Variant::ALL
            .iter()
            .copied()
            .filter(|v| v.applicable_to(kernel))
            .collect()
    }

    /// The launch clause of this variant's pragma:
    /// `num_teams(T) thread_limit(t)` on the GPU, `num_threads(t)` on the
    /// CPU. This is the one place a launch is spelled, so
    /// [`KernelInstance::body_key`](crate::KernelInstance::body_key) finds
    /// exactly the text [`Variant::pragma`] wrote.
    pub fn launch_clause(self, launch: LaunchConfig) -> String {
        if self.is_gpu() {
            format!(
                "num_teams({}) thread_limit({})",
                launch.teams, launch.threads
            )
        } else {
            format!("num_threads({})", launch.threads)
        }
    }

    /// Build the OpenMP pragma line for this variant of `kernel` at the given
    /// problem sizes and launch configuration.
    pub fn pragma(
        self,
        kernel: &KernelTemplate,
        sizes: &HashMap<String, i64>,
        teams: u64,
        threads: u64,
    ) -> String {
        let mut clauses: Vec<String> = Vec::new();
        if self.collapses() {
            clauses.push("collapse(2)".to_string());
        }
        clauses.push(self.launch_clause(LaunchConfig { teams, threads }));
        if !self.is_gpu() {
            clauses.push("schedule(static)".to_string());
        }
        if self.has_data_transfer() {
            clauses.extend(map_clauses(kernel, sizes));
        }
        let head = if self.is_gpu() {
            "#pragma omp target teams distribute parallel for"
        } else {
            "#pragma omp parallel for"
        };
        format!("{head} {}", clauses.join(" "))
    }
}

/// Build the `map` clauses describing the kernel's data transfers.
pub fn map_clauses(kernel: &KernelTemplate, sizes: &HashMap<String, i64>) -> Vec<String> {
    let mut to_items = Vec::new();
    let mut from_items = Vec::new();
    let mut tofrom_items = Vec::new();
    for array in kernel.arrays {
        let section = format!("{}[0:{}]", array.name, array.extent.spelling(sizes));
        match array.direction {
            TransferDirection::ToDevice => to_items.push(section),
            TransferDirection::FromDevice => from_items.push(section),
            TransferDirection::Both => tofrom_items.push(section),
        }
    }
    let mut clauses = Vec::new();
    if !to_items.is_empty() {
        clauses.push(format!("map(to: {})", to_items.join(", ")));
    }
    if !from_items.is_empty() {
        clauses.push(format!("map(from: {})", from_items.join(", ")));
    }
    if !tofrom_items.is_empty() {
        clauses.push(format!("map(tofrom: {})", tofrom_items.join(", ")));
    }
    clauses
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_kernels::find_kernel;

    #[test]
    fn six_variants_with_paper_names() {
        assert_eq!(Variant::ALL.len(), 6);
        let names: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec![
                "cpu",
                "cpu_collapse",
                "gpu",
                "gpu_collapse",
                "gpu_mem",
                "gpu_collapse_mem"
            ]
        );
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Some(v));
        }
        assert_eq!(Variant::from_name("fpga"), None);
    }

    #[test]
    fn variant_classification() {
        assert!(!Variant::Cpu.is_gpu());
        assert!(Variant::GpuMem.is_gpu());
        assert!(Variant::CpuCollapse.collapses());
        assert!(!Variant::Gpu.collapses());
        assert!(Variant::GpuCollapseMem.has_data_transfer());
        assert!(!Variant::Gpu.has_data_transfer());
    }

    #[test]
    fn collapse_variants_require_collapsible_kernels() {
        let mm = find_kernel("MM/matmul").unwrap(); // collapsible
        let mv = find_kernel("MV/matvec").unwrap(); // not collapsible
        assert_eq!(Variant::applicable_variants(&mm).len(), 6);
        let mv_variants = Variant::applicable_variants(&mv);
        assert_eq!(mv_variants.len(), 3);
        assert!(mv_variants.iter().all(|v| !v.collapses()));
    }

    #[test]
    fn cpu_pragma_contains_threads_and_schedule() {
        let mm = find_kernel("MM/matmul").unwrap();
        let sizes = mm.default_sizes();
        let p = Variant::Cpu.pragma(&mm, &sizes, 1, 16);
        assert!(p.starts_with("#pragma omp parallel for"));
        assert!(p.contains("num_threads(16)"));
        assert!(p.contains("schedule(static)"));
        assert!(!p.contains("map("));
        assert!(!p.contains("collapse"));
    }

    #[test]
    fn gpu_mem_pragma_contains_map_clauses() {
        let mm = find_kernel("MM/matmul").unwrap();
        let mut sizes = HashMap::new();
        sizes.insert("N".to_string(), 256i64);
        let p = Variant::GpuCollapseMem.pragma(&mm, &sizes, 120, 128);
        assert!(p.starts_with("#pragma omp target teams distribute parallel for"));
        assert!(p.contains("collapse(2)"));
        assert!(p.contains("num_teams(120)"));
        assert!(p.contains("thread_limit(128)"));
        assert!(p.contains("map(to: a[0:65536], b[0:65536])"));
        assert!(p.contains("map(from: c[0:65536])"));
    }

    #[test]
    fn gpu_variant_without_mem_has_no_map() {
        let mm = find_kernel("MM/matmul").unwrap();
        let sizes = mm.default_sizes();
        let p = Variant::Gpu.pragma(&mm, &sizes, 80, 128);
        assert!(!p.contains("map("));
    }

    #[test]
    fn generated_pragmas_parse_via_frontend() {
        let mm = find_kernel("MM/matmul").unwrap();
        let sizes = mm.default_sizes();
        for variant in Variant::applicable_variants(&mm) {
            let pragma = variant.pragma(&mm, &sizes, 64, 128);
            let src = mm.instantiate(&sizes, &pragma);
            let ast =
                pg_frontend::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", variant.name()));
            let directives = ast
                .preorder()
                .into_iter()
                .filter(|&id| ast.kind(id).is_omp_directive())
                .count();
            assert_eq!(directives, 1);
        }
    }

    #[test]
    fn tofrom_arrays_produce_tofrom_clause() {
        let gs = find_kernel("Gauss Seidel/sweep").unwrap();
        let sizes = gs.default_sizes();
        let clauses = map_clauses(&gs, &sizes);
        assert!(clauses.iter().any(|c| c.starts_with("map(tofrom:")));
    }
}
