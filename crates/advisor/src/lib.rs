//! # pg-advisor
//!
//! Substitute for the OpenMP Advisor's Kernel Analysis and Code
//! Transformation modules: it generates the six kernel variants of the paper
//! (`cpu`, `cpu_collapse`, `gpu`, `gpu_collapse`, `gpu_mem`,
//! `gpu_collapse_mem`) as source from templates, sweeps problem sizes and
//! launch configurations to build the dataset, and assesses each variant's
//! legality with `pg-analyze`.
//!
//! ```
//! use pg_advisor::{Variant, LaunchConfig, instantiate};
//! use pg_kernels::find_kernel;
//!
//! let mm = find_kernel("MM/matmul").unwrap();
//! let inst = instantiate(&mm, Variant::GpuMem, &mm.default_sizes(),
//!                        LaunchConfig { teams: 80, threads: 128 });
//! assert!(inst.source.contains("map(to:"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;
pub mod generator;
pub mod launch;
pub mod variant;

pub use gate::{assess_instance, PrunedVariant};
pub use generator::{
    generate_for_kernel, generate_instances, instantiate, BodyKey, GeneratorConfig, KernelInstance,
};
pub use launch::{LaunchConfig, ParallelismBudget};
pub use variant::{map_clauses, Variant};
