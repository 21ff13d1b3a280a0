//! The candidate space of one request: the variants the legality gate
//! admitted, times the launch grid of the request's budget.
//!
//! [`Engine::template_space`](crate::Engine::template_space) builds a space
//! with one legality probe per variant and no instances: a space costs
//! O(variants + axis lengths) however large its grid. Instances are created
//! only when scored — `advise` materialises the whole space with
//! [`CandidateSpace::instances`], while `pg-tune` instantiates the grid
//! points its budget affords with [`CandidateSpace::instance`].

use pg_advisor::{instantiate, KernelInstance, LaunchConfig, PrunedVariant, Variant};
use pg_analyze::Diagnostic;
use pg_kernels::KernelTemplate;
use std::collections::HashMap;

/// What a space instantiates its candidates from.
#[derive(Debug, Clone)]
pub(crate) enum Origin {
    /// A kernel template at fixed problem sizes: every variant renders its
    /// own pragma.
    Template {
        kernel: KernelTemplate,
        sizes: HashMap<String, i64>,
    },
    /// A raw source, ranked as-is across the launch grid under its display
    /// name (`app/kernel`, or one name for both).
    Source { name: String, source: String },
}

impl Origin {
    /// Display name of the kernel, as errors and reports carry it.
    pub(crate) fn name(&self) -> String {
        match self {
            Origin::Template { kernel, .. } => kernel.full_name(),
            Origin::Source { name, .. } => name.clone(),
        }
    }

    /// The candidate of `variant` at `launch`.
    pub(crate) fn instance(&self, variant: Variant, launch: LaunchConfig) -> KernelInstance {
        match self {
            Origin::Template { kernel, sizes } => instantiate(kernel, variant, sizes, launch),
            Origin::Source { name, source } => {
                let (application, kernel) = name.split_once('/').unwrap_or((name, name));
                KernelInstance {
                    application: application.to_string(),
                    kernel: kernel.to_string(),
                    variant,
                    sizes: HashMap::new(),
                    launch,
                    source: source.clone(),
                    bytes_to_device: 0,
                    bytes_from_device: 0,
                }
            }
        }
    }
}

/// The `(variant × launch)` candidates of one request, enumerated and gated
/// once.
///
/// A candidate is addressed by its variant's position in
/// [`CandidateSpace::variants`] and the flat index of its launch in the
/// grid, teams-major as [`pg_advisor::ParallelismBudget::gpu_launches`]
/// orders it. Both axes and the variant list are never empty.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    pub(crate) origin: Origin,
    pub(crate) variants: Vec<Variant>,
    pub(crate) teams_axis: Vec<u64>,
    pub(crate) threads_axis: Vec<u64>,
    pub(crate) diagnostics: Vec<Diagnostic>,
    pub(crate) race_pruned: Vec<PrunedVariant>,
    /// Wall time of the legality probes (0 when unobserved).
    pub(crate) analyze_us: u64,
}

impl CandidateSpace {
    /// Display name of the kernel.
    pub fn kernel(&self) -> String {
        self.origin.name()
    }

    /// The admitted variants, in enumeration order. A raw source has one:
    /// the platform's plain `Gpu` or `Cpu` variant.
    pub fn variants(&self) -> &[Variant] {
        &self.variants
    }

    /// Team-count axis of the launch grid (`[1]` on CPU platforms).
    pub fn teams_axis(&self) -> &[u64] {
        &self.teams_axis
    }

    /// Thread-count axis of the launch grid.
    pub fn threads_axis(&self) -> &[u64] {
        &self.threads_axis
    }

    /// Variants the legality gate removed as provable races.
    pub fn race_pruned(&self) -> &[PrunedVariant] {
        &self.race_pruned
    }

    /// Number of launch configurations in the grid.
    pub fn launch_points(&self) -> usize {
        self.teams_axis.len() * self.threads_axis.len()
    }

    /// Number of candidates: admitted variants × launch points.
    pub fn candidates(&self) -> u64 {
        self.variants.len() as u64 * self.launch_points() as u64
    }

    /// The launch configuration at a flat grid index.
    pub fn launch(&self, flat: usize) -> LaunchConfig {
        let width = self.threads_axis.len();
        LaunchConfig {
            teams: self.teams_axis[flat / width],
            threads: self.threads_axis[flat % width],
        }
    }

    /// The candidate of the `variant_idx`-th admitted variant at flat launch
    /// index `flat`.
    pub fn instance(&self, variant_idx: usize, flat: usize) -> KernelInstance {
        self.origin
            .instance(self.variants[variant_idx], self.launch(flat))
    }

    /// Every candidate, variant-major then launch-major: the order
    /// `Engine::advise` ranks and breaks ties in.
    pub fn instances(&self) -> Vec<KernelInstance> {
        (0..self.variants.len())
            .flat_map(|v| (0..self.launch_points()).map(move |flat| self.instance(v, flat)))
            .collect()
    }
}
