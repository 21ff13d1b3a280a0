//! Legality assessment of generated variants.
//!
//! Every variant the generator proposes can be assessed against the static
//! analysis in [`pg_analyze`] before it is ranked or served. The engine
//! prunes catalogue variants whose verdict is
//! [`LegalityVerdict::Race`](pg_analyze::LegalityVerdict::Race) (recording
//! each as a [`PrunedVariant`]); variants that would be safe with extra
//! data-sharing clauses pass through unchanged, and the suggested clauses
//! are reported as diagnostics, never applied.
//!
//! Catalogue kernels are assessed under the documented per-kernel tolerances
//! ([`pg_analyze::catalogue_tolerances`]); arbitrary user sources get the
//! full conservative treatment.

use crate::generator::KernelInstance;
use pg_analyze::{analyze_source_tolerant, catalogue_tolerances, AnalysisReport};
use serde::{Deserialize, Serialize};

/// A variant pruned by the gate, with the diagnostic that killed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrunedVariant {
    /// Label of the pruned variant (e.g. `gpu_collapse`).
    pub variant: String,
    /// The race reason from the analysis verdict.
    pub reason: String,
}

/// Analyse one instance's source under the catalogue tolerances for its
/// kernel. Instances of unknown (non-catalogue) kernels are analysed with no
/// tolerances.
pub fn assess_instance(instance: &KernelInstance) -> AnalysisReport {
    let full_name = format!("{}/{}", instance.application, instance.kernel);
    analyze_source_tolerant(&instance.source, catalogue_tolerances(&full_name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::instantiate;
    use crate::launch::LaunchConfig;
    use crate::variant::Variant;
    use pg_analyze::LegalityVerdict;
    use pg_kernels::find_kernel;

    #[test]
    fn seeded_race_is_assessed_as_a_race() {
        let mm = find_kernel("MM/matmul").unwrap();
        let mut instance = instantiate(
            &mm,
            Variant::Gpu,
            &mm.default_sizes(),
            LaunchConfig {
                teams: 80,
                threads: 128,
            },
        );
        // Mutate the final store to also read the next parallel row: a
        // classic distance-1 loop-carried race on `i`.
        let n = instance.sizes["N"];
        instance.source = instance
            .source
            .replace("= sum;", &format!("= sum + c[(i + 1) * {n} + j];"));
        match assess_instance(&instance).verdict {
            LegalityVerdict::Race(reason) => {
                assert!(reason.contains("loop-carried-dependence"), "{reason}")
            }
            other => panic!("mutant must race, got {other:?}: {}", instance.source),
        }
    }
}
