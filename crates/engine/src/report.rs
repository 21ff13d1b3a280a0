//! What the engine answers: ranked variant predictions with provenance,
//! wall-time accounting and cache activity.

use crate::cache::CacheCounters;
use pg_advisor::{LaunchConfig, PrunedVariant, Variant};
use pg_analyze::Diagnostic;
use pg_perfsim::Platform;
use serde::{Deserialize, Serialize};

/// One ranked candidate: a (variant, launch) pair and its predicted runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantPrediction {
    /// The transformation variant; `None` for raw-source requests, which
    /// have no catalogue template to enumerate variants from.
    pub variant: Option<Variant>,
    /// Launch configuration of this candidate.
    pub launch: LaunchConfig,
    /// Predicted runtime in milliseconds.
    pub predicted_ms: f64,
}

impl VariantPrediction {
    /// Human-readable candidate label, e.g. `gpu_collapse @ 80x128`.
    pub fn label(&self) -> String {
        let variant = self.variant.map_or("source", |v| v.name());
        format!(
            "{} @ {}x{}",
            variant, self.launch.teams, self.launch.threads
        )
    }
}

/// A candidate whose prediction failed (kept for diagnosis; the report is
/// still produced as long as at least one candidate succeeded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictionFailure {
    /// The failed candidate's variant.
    pub variant: Option<Variant>,
    /// The failed candidate's launch configuration.
    pub launch: LaunchConfig,
    /// Rendered error.
    pub error: String,
}

/// Wall-time accounting of one request, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Timing {
    /// Candidate enumeration (catalogue lookup, source instantiation).
    pub enumerate_ms: f64,
    /// Batched backend prediction.
    pub predict_ms: f64,
    /// Whole request, end to end.
    pub total_ms: f64,
}

/// Per-stage latency attribution of one request, in microseconds. Only
/// present when the request was traced (see `pg_obs`): callers that want
/// the breakdown opt in by serving through a traced path, and untraced
/// requests pay nothing for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StageBreakdown {
    /// Candidate enumeration, including the legality gate.
    pub enumerate_us: u64,
    /// Static legality analysis alone (a subset of `enumerate_us`; zero on
    /// memoized warm probes).
    pub analyze_us: u64,
    /// Batched backend prediction. Batch-scoped like
    /// [`Timing::predict_ms`]: every member of a coalesced batch reports
    /// the same value.
    pub predict_us: u64,
}

/// The engine's answer to one [`AdviseRequest`](crate::AdviseRequest).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdviseReport {
    /// Kernel the request named.
    pub kernel: String,
    /// Platform the engine serves.
    pub platform: Platform,
    /// Name of the backend that produced the predictions (provenance).
    pub backend: String,
    /// Candidates ranked fastest-first.
    pub rankings: Vec<VariantPrediction>,
    /// Candidates whose prediction failed.
    pub failures: Vec<PredictionFailure>,
    /// Wall-time accounting.
    pub timing: Timing,
    /// Frontend-cache activity attributable to this request: its own
    /// enumeration's lookups plus its batch's prediction-phase lookups.
    pub cache: CacheCounters,
    /// Unique static-analysis diagnostics across the request's candidates.
    pub diagnostics: Vec<Diagnostic>,
    /// Variants the legality gate pruned as provable data races before
    /// prediction (always empty for raw-source requests, which are
    /// diagnosed but never pruned).
    pub race_pruned: Vec<PrunedVariant>,
    /// Per-stage latency attribution; `None` unless the request ran
    /// through a traced path (`Engine::advise_many_traced`).
    pub stages: Option<StageBreakdown>,
}

impl AdviseReport {
    /// The predicted-fastest candidate.
    pub fn best(&self) -> Option<&VariantPrediction> {
        self.rankings.first()
    }

    /// Number of candidates the engine evaluated (succeeded + failed).
    pub fn candidates(&self) -> usize {
        self.rankings.len() + self.failures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_best() {
        let report = AdviseReport {
            kernel: "MM/matmul".into(),
            platform: Platform::SummitV100,
            backend: "simulator".into(),
            rankings: vec![
                VariantPrediction {
                    variant: Some(Variant::GpuCollapse),
                    launch: LaunchConfig {
                        teams: 80,
                        threads: 128,
                    },
                    predicted_ms: 1.5,
                },
                VariantPrediction {
                    variant: None,
                    launch: LaunchConfig {
                        teams: 1,
                        threads: 16,
                    },
                    predicted_ms: 3.0,
                },
            ],
            failures: vec![],
            timing: Timing::default(),
            cache: CacheCounters::default(),
            diagnostics: vec![],
            race_pruned: vec![],
            stages: None,
        };
        assert_eq!(report.best().unwrap().predicted_ms, 1.5);
        assert_eq!(report.best().unwrap().label(), "gpu_collapse @ 80x128");
        assert_eq!(report.rankings[1].label(), "source @ 1x16");
        assert_eq!(report.candidates(), 2);
    }
}
