//! The tuning wire types: what callers ask ([`TuneRequest`]) and what the
//! tuner answers ([`TuneReport`]). Both serialize with the same serde shim
//! the advise path uses, so `POST /tune` on `pg-serve` speaks these types
//! directly.

use pg_engine::{LaunchBudget, VariantPrediction};
use pg_perfsim::Platform;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Evaluation budget of one tuning run.
///
/// `max_evaluations` counts **candidate predictions** (one per
/// `variant × launch` pair the engine scores); `max_generations` counts
/// frontier batches (each generation is one `Engine::predict_instances`
/// call and therefore one backend `predict_batch`). A strategy stops —
/// mid-search if necessary — the moment either bound would be exceeded;
/// the evaluator truncates frontiers so neither bound can ever be
/// overshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Budget {
    /// Most candidate predictions the run may spend.
    pub max_evaluations: u64,
    /// Most frontier batches (backend calls) the run may spend.
    pub max_generations: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            max_evaluations: 4096,
            max_generations: 256,
        }
    }
}

impl Budget {
    /// A budget bounded only by evaluations.
    pub fn evaluations(max_evaluations: u64) -> Self {
        Self {
            max_evaluations,
            ..Self::default()
        }
    }
}

/// Which search strategy to run, with its knobs. Every strategy is
/// deterministic: `Exhaustive` and `Beam` by construction, `Hillclimb` via
/// the explicit seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategySpec {
    /// Score every candidate in one batch — bit-identical to
    /// `Engine::advise` over the same request, kept as the golden baseline.
    Exhaustive,
    /// Width-`width` beam over the launch grid with batched frontier
    /// evaluation (each generation is one backend `predict_batch`).
    Beam {
        /// Beam width: how many of the best evaluated points expand each
        /// generation (0 is treated as 1).
        width: u64,
        /// Stop after this many generations without improving the best
        /// candidate; 0 disables the early stop (the beam runs until the
        /// frontier has no unevaluated neighbours or a budget bound hits).
        patience: u64,
    },
    /// Greedy neighbourhood descent over the launch grid from random
    /// starting points, deterministic for a given `seed`.
    Hillclimb {
        /// RNG seed for start-point selection.
        seed: u64,
        /// Additional random restarts after the first descent.
        restarts: u64,
    },
}

impl StrategySpec {
    /// The strategy's short name (matches `TuneReport::strategy`).
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Exhaustive => "exhaustive",
            StrategySpec::Beam { .. } => "beam",
            StrategySpec::Hillclimb { .. } => "hillclimb",
        }
    }

    /// A beam with the default width (4) and patience (2).
    pub fn beam() -> Self {
        StrategySpec::Beam {
            width: 4,
            patience: 2,
        }
    }

    /// A hillclimb with two restarts.
    pub fn hillclimb(seed: u64) -> Self {
        StrategySpec::Hillclimb { seed, restarts: 2 }
    }
}

/// One tuning request: a catalogue kernel, optional problem sizes, a launch
/// budget spanning the grid, a strategy, and the evaluation budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneRequest {
    /// Fully qualified catalogue kernel name (`"MM/matmul"`).
    pub kernel: String,
    /// Problem sizes; `None` uses the kernel's defaults (like advise).
    pub sizes: Option<HashMap<String, i64>>,
    /// Launch configurations spanning the search grid.
    pub budget: LaunchBudget,
    /// Which strategy explores the space.
    pub strategy: StrategySpec,
    /// Evaluation/generation bounds.
    pub limits: Budget,
}

impl TuneRequest {
    /// Tune a catalogue kernel with the platform-default launch grid, the
    /// default beam strategy and the default budget.
    pub fn catalog(kernel: impl Into<String>) -> Self {
        Self {
            kernel: kernel.into(),
            sizes: None,
            budget: LaunchBudget::PlatformDefault,
            strategy: StrategySpec::beam(),
            limits: Budget::default(),
        }
    }

    /// Set explicit problem sizes.
    pub fn with_sizes(mut self, sizes: HashMap<String, i64>) -> Self {
        self.sizes = Some(sizes);
        self
    }

    /// Span the grid from an explicit parallelism budget.
    pub fn with_budget(mut self, budget: pg_advisor::ParallelismBudget) -> Self {
        self.budget = LaunchBudget::Sweep(budget);
        self
    }

    /// Pick the strategy.
    pub fn with_strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Bound the run.
    pub fn with_limits(mut self, limits: Budget) -> Self {
        self.limits = limits;
        self
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// The strategy decided the frontier had converged (no improving or
    /// unevaluated moves left under its policy).
    Converged,
    /// Every candidate of the space was evaluated.
    SpaceExhausted,
    /// `Budget::max_evaluations` would have been exceeded.
    BudgetExhausted,
    /// `Budget::max_generations` would have been exceeded.
    GenerationLimit,
}

/// Best-so-far after one generation (one frontier batch).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// 1-based generation index.
    pub generation: u64,
    /// Cumulative candidate predictions spent after this generation.
    pub evaluations: u64,
    /// Best predicted runtime seen so far, milliseconds.
    pub best_ms: f64,
    /// Wall time this generation's frontier batch took, milliseconds
    /// (per-generation latency attribution; also recorded into the
    /// `tune_generation` stage histogram).
    pub gen_ms: f64,
}

/// Search identity ignores `gen_ms`: two runs of the same deterministic
/// search are "the same trajectory" even though their wall clocks differ
/// (the serve round-trip suite compares served vs direct trajectories).
impl PartialEq for TrajectoryPoint {
    fn eq(&self, other: &Self) -> bool {
        self.generation == other.generation
            && self.evaluations == other.evaluations
            && self.best_ms == other.best_ms
    }
}

/// How much of the space the run covered and how much it pruned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SpaceAccounting {
    /// Applicable variants on the platform.
    pub variants: u64,
    /// Launch-grid points.
    pub launch_points: u64,
    /// Total candidates (`variants × launch_points`).
    pub candidates: u64,
    /// Successful candidate predictions (what the evaluation budget
    /// counts).
    pub evaluated: u64,
    /// Candidate predictions the backend failed per-candidate (they spend
    /// generations, not evaluation budget).
    pub failed: u64,
    /// Candidates never attempted (`candidates − evaluated − failed`).
    pub pruned: u64,
    /// Variants the static legality gate removed before the search started
    /// (these never enter `candidates` at all — no budget is spent on a
    /// provable race). Always 0 for the shipped catalogue.
    pub race_pruned: u64,
}

/// The tuner's answer: the winning candidate plus full search accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneReport {
    /// Kernel the request named.
    pub kernel: String,
    /// Platform of the engine that served as cost model.
    pub platform: Platform,
    /// Backend that produced the predictions (provenance).
    pub backend: String,
    /// Strategy that ran (`"exhaustive"`, `"beam"`, `"hillclimb"`).
    pub strategy: String,
    /// The best candidate found (variant, launch, predicted runtime).
    pub best: VariantPrediction,
    /// Why the search stopped.
    pub stop: StopReason,
    /// Frontier batches executed (= backend `predict_batch` calls).
    pub generations: u64,
    /// Coverage and pruning accounting.
    pub space: SpaceAccounting,
    /// Best-so-far after every generation (monotonically non-worsening).
    pub trajectory: Vec<TrajectoryPoint>,
    /// Whole run, end to end, milliseconds.
    pub wall_ms: f64,
}

impl TuneReport {
    /// Fraction of the candidate space actually evaluated, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.space.candidates == 0 {
            0.0
        } else {
            self.space.evaluated as f64 / self.space.candidates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_and_requests_serialize() {
        let request = TuneRequest::catalog("MM/matmul")
            .with_strategy(StrategySpec::Hillclimb {
                seed: 7,
                restarts: 1,
            })
            .with_limits(Budget::evaluations(64));
        assert_eq!(request.kernel, "MM/matmul");
        assert_eq!(request.strategy.name(), "hillclimb");
        assert_eq!(request.limits.max_evaluations, 64);
        let json = serde_json::to_string(&request).unwrap();
        let back: TuneRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(request, back);
    }

    #[test]
    fn reports_roundtrip_through_json() {
        let report = TuneReport {
            kernel: "MM/matmul".into(),
            platform: Platform::SummitV100,
            backend: "simulator".into(),
            strategy: "beam".into(),
            best: VariantPrediction {
                variant: Some(pg_advisor::Variant::GpuCollapse),
                launch: pg_advisor::LaunchConfig {
                    teams: 80,
                    threads: 128,
                },
                predicted_ms: 1.25,
            },
            stop: StopReason::Converged,
            generations: 3,
            space: SpaceAccounting {
                variants: 4,
                launch_points: 9,
                candidates: 36,
                evaluated: 20,
                failed: 0,
                pruned: 16,
                race_pruned: 0,
            },
            trajectory: vec![TrajectoryPoint {
                generation: 1,
                evaluations: 20,
                best_ms: 1.25,
                gen_ms: 0.75,
            }],
            wall_ms: 2.5,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: TuneReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!((back.coverage() - 20.0 / 36.0).abs() < 1e-12);
    }
}
