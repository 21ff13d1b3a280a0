//! # pg-tune
//!
//! Budgeted variant-space search over the ParaGraph engine — the first
//! subsystem where the engine is a *subroutine* rather than the endpoint.
//!
//! `Engine::advise` ranks a fixed candidate list by exhaustively scoring
//! `applicable_variants × launch grid`. That stops scaling the moment the
//! space is densified (Full-scale sweeps already reach tens of thousands of
//! instances), and it answers the wrong question for steering: a developer
//! wants the best `(variant, launch, clause)` configuration, not a total
//! order over everything. `pg-tune` reframes advise as **constrained search
//! over a cost model** (GRAPHOPT's framing): the engine — simulator, GNN or
//! COMPOFF backend alike — prices candidates, and a pluggable
//! [`SearchStrategy`] decides which frontier to price next.
//!
//! ```text
//! TuneRequest ──► Engine::template_space (enumerate + gate, once per run)
//!      │                    │ CandidateSpace (variants × teams-axis × threads-axis)
//!      │                    ▼
//!      │          SearchSpace (grid points, neighbours, seeds)
//!      │                    │ frontiers (grid points)
//!      │                    ▼
//!      │          Evaluator (budget gate + memo + trajectory)
//!      │                    │ instances of the frontier only;
//!      │                    │ one Engine::predict_instances per generation
//!      │                    ▼
//!      │          backend predict_batch (simulator | gnn | compoff)
//!      ▼
//! TuneReport ◄── best candidate + trajectory + pruned-space accounting
//! ```
//!
//! Three strategies ship: [`strategy::Exhaustive`] (bit-identical to
//! `Engine::advise`, the golden baseline), [`strategy::Beam`] (width-k with
//! batched frontier evaluation — each generation is one backend
//! `predict_batch`), and [`strategy::Hillclimb`] (seeded neighbourhood
//! descent, deterministic via an explicit `u64` seed). All of them run
//! under a hard [`Budget`] enforced by the [`Evaluator`], never the
//! strategy's own discipline.
//!
//! ```
//! use pg_engine::Engine;
//! use pg_perfsim::Platform;
//! use pg_tune::{TuneEngine, TuneRequest};
//!
//! let engine = Engine::builder().platform(Platform::SummitV100).build();
//! let report = engine.tune(&TuneRequest::catalog("MM/matmul")).unwrap();
//! assert!(report.best.predicted_ms > 0.0);
//! assert!(report.space.evaluated <= report.space.candidates);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod evaluator;
pub mod report;
pub mod space;
pub mod strategy;

pub use error::TuneError;
pub use evaluator::{Evaluation, Evaluator, PointScore};
pub use report::{
    Budget, SpaceAccounting, StopReason, StrategySpec, TrajectoryPoint, TuneReport, TuneRequest,
};
pub use space::{GridPoint, SearchSpace};
pub use strategy::{Beam, Exhaustive, Hillclimb, SearchStrategy};

use pg_engine::{Engine, VariantPrediction};
use std::time::Instant;

/// The tuning facade over [`Engine`]: import this trait and every engine
/// gains `engine.tune(&request)`.
///
/// (An inherent `Engine::tune` would force `pg-engine` to depend on this
/// crate and close a cycle; the extension trait keeps the dependency graph
/// pointing downward, exactly like the backend traits do.)
pub trait TuneEngine {
    /// Run a budgeted search and return the report.
    fn tune(&self, request: &TuneRequest) -> Result<TuneReport, TuneError> {
        self.tune_traced(request).map(|(report, _)| report)
    }

    /// [`TuneEngine::tune`] plus the full evaluation trace (every candidate
    /// the run priced, in evaluation order). The trace is what the
    /// budget-safety test suite audits: the reported best must appear in
    /// it, and its length must respect the budget.
    fn tune_traced(
        &self,
        request: &TuneRequest,
    ) -> Result<(TuneReport, Vec<Evaluation>), TuneError>;
}

impl TuneEngine for Engine {
    fn tune_traced(
        &self,
        request: &TuneRequest,
    ) -> Result<(TuneReport, Vec<Evaluation>), TuneError> {
        let started = Instant::now();
        let space = {
            let _enumerate = pg_obs::obs().timer(pg_obs::Stage::Enumerate);
            SearchSpace::build(
                self,
                &request.kernel,
                request.sizes.clone(),
                &request.budget,
            )?
        };
        let mut eval = Evaluator::new(self, &space, request.limits);
        let strategy = request.strategy.build();
        let stop = strategy.search(&space, &mut eval)?;
        let best = *eval.best().ok_or(TuneError::NothingEvaluated {
            point_cost: eval.point_cost(),
            max_evaluations: request.limits.max_evaluations,
            max_generations: request.limits.max_generations,
        })?;
        let evaluated = eval.evaluations();
        let report = TuneReport {
            kernel: request.kernel.clone(),
            platform: self.platform(),
            backend: self.backend_name().to_string(),
            strategy: strategy.name().to_string(),
            best: VariantPrediction {
                variant: Some(best.variant),
                launch: best.launch,
                predicted_ms: best.predicted_ms,
            },
            stop,
            generations: eval.generations(),
            space: SpaceAccounting {
                variants: space.variants().len() as u64,
                launch_points: space.launch_points() as u64,
                candidates: space.candidates(),
                evaluated,
                failed: eval.failed(),
                pruned: space
                    .candidates()
                    .saturating_sub(evaluated)
                    .saturating_sub(eval.failed()),
                race_pruned: space.race_pruned().len() as u64,
            },
            trajectory: eval.trajectory().to_vec(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
        let trace = eval.trace().to_vec();
        Ok((report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_perfsim::Platform;

    #[test]
    fn tune_reports_the_advise_winner_for_exhaustive_search() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let request = TuneRequest::catalog("MM/matmul").with_strategy(StrategySpec::Exhaustive);
        let report = engine.tune(&request).unwrap();
        let advise = engine
            .advise(&pg_engine::AdviseRequest::catalog("MM/matmul"))
            .unwrap();
        assert_eq!(&report.best, advise.best().unwrap());
        assert_eq!(report.stop, StopReason::SpaceExhausted);
        assert_eq!(report.space.evaluated, report.space.candidates);
        assert_eq!(report.space.pruned, 0);
        assert_eq!(report.backend, "simulator");
        assert_eq!(report.strategy, "exhaustive");
    }

    #[test]
    fn tune_errors_on_unknown_kernels_and_starved_budgets() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        assert!(matches!(
            engine.tune(&TuneRequest::catalog("Nope/none")),
            Err(TuneError::Engine(pg_engine::EngineError::UnknownKernel(_)))
        ));
        let starved = TuneRequest::catalog("MM/matmul").with_limits(Budget {
            max_evaluations: 1, // below the 4-variant cost of a single point
            max_generations: 8,
        });
        assert!(matches!(
            engine.tune(&starved),
            Err(TuneError::NothingEvaluated { point_cost: 4, .. })
        ));
    }

    #[test]
    fn generation_starved_budgets_blame_the_right_bound() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let starved = TuneRequest::catalog("MM/matmul").with_limits(Budget {
            max_evaluations: 4096,
            max_generations: 0,
        });
        let error = engine.tune(&starved).unwrap_err();
        assert!(matches!(
            error,
            TuneError::NothingEvaluated {
                max_generations: 0,
                ..
            }
        ));
        let message = error.to_string();
        assert!(message.contains("generation budget"), "{message}");
        assert!(!message.contains("4096 evaluations"), "{message}");
    }

    #[test]
    fn trajectory_is_monotone_and_best_is_traced() {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let request = TuneRequest::catalog("Transpose/transpose")
            .with_strategy(StrategySpec::hillclimb(11))
            .with_limits(Budget::evaluations(64));
        let (report, trace) = engine.tune_traced(&request).unwrap();
        assert!(report
            .trajectory
            .windows(2)
            .all(|w| w[1].best_ms <= w[0].best_ms));
        assert!(trace.iter().any(|e| {
            Some(e.variant) == report.best.variant
                && e.launch == report.best.launch
                && e.predicted_ms == report.best.predicted_ms
        }));
        assert!(report.space.evaluated <= 64);
    }
}
