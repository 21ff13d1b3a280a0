//! The budgeted evaluator: the one gateway between a search strategy and
//! the engine.
//!
//! Strategies never call the engine directly — they hand frontiers of grid
//! points to [`Evaluator::evaluate`], which:
//!
//! * deduplicates against everything already evaluated (memoized points
//!   never re-spend budget),
//! * truncates the frontier so neither [`Budget`] bound can
//!   be exceeded,
//! * scores the whole frontier with **one** [`Engine::advise_many`] call
//!   (one coalesced backend `predict_batch` per generation),
//! * records per-candidate evaluations, the best-so-far trajectory, and the
//!   global best under exactly the tie-break `Engine::advise`'s stable sort
//!   uses (predicted time, then variant enumeration order, then launch
//!   enumeration order).
//!
//! That centralisation is what makes the budget-safety properties
//! (`evaluations ≤ max_evaluations`, monotone trajectory, no phantom
//! optimum) hold for *every* strategy, including externally supplied ones.

use crate::error::TuneError;
use crate::report::{Budget, StopReason, TrajectoryPoint};
use crate::space::{GridPoint, SearchSpace};
use pg_advisor::{LaunchConfig, Variant};
use pg_engine::{AdviseRequest, Engine};
use std::collections::HashMap;

/// One scored candidate: a `(variant, launch)` pair and its prediction,
/// plus the enumeration indices that make tie-breaking deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The transformation variant.
    pub variant: Variant,
    /// Position of the variant in [`SearchSpace::variants`].
    pub variant_idx: usize,
    /// The launch configuration.
    pub launch: LaunchConfig,
    /// Flat launch-grid index ([`SearchSpace::flat_index`]).
    pub flat_launch: usize,
    /// Predicted runtime, milliseconds.
    pub predicted_ms: f64,
}

impl Evaluation {
    /// Strict "is a better optimum than" under the advise tie-break:
    /// smaller predicted time wins; ties fall back to variant enumeration
    /// order, then launch enumeration order — exactly what
    /// `Engine::advise`'s stable fastest-first sort yields.
    pub fn beats(&self, other: &Evaluation) -> bool {
        match self.predicted_ms.partial_cmp(&other.predicted_ms) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => (self.variant_idx, self.flat_launch) < (other.variant_idx, other.flat_launch),
        }
    }
}

/// The best candidate at one evaluated grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointScore {
    /// The grid point.
    pub point: GridPoint,
    /// Best candidate over all variants at this launch.
    pub best: Evaluation,
}

/// Budget-enforcing, memoizing frontier evaluator over one engine.
pub struct Evaluator<'a> {
    engine: &'a Engine,
    space: &'a SearchSpace,
    budget: Budget,
    scores: HashMap<GridPoint, PointScore>,
    trace: Vec<Evaluation>,
    trajectory: Vec<TrajectoryPoint>,
    best: Option<Evaluation>,
    evaluations: u64,
    failed: u64,
    generations: u64,
    hit_evaluation_limit: bool,
    hit_generation_limit: bool,
}

impl<'a> Evaluator<'a> {
    /// A fresh evaluator over `engine` for `space` under `budget`.
    pub fn new(engine: &'a Engine, space: &'a SearchSpace, budget: Budget) -> Self {
        Self {
            engine,
            space,
            budget,
            scores: HashMap::new(),
            trace: Vec::new(),
            trajectory: Vec::new(),
            best: None,
            evaluations: 0,
            failed: 0,
            generations: 0,
            hit_evaluation_limit: false,
            hit_generation_limit: false,
        }
    }

    /// The space under search.
    pub fn space(&self) -> &SearchSpace {
        self.space
    }

    /// Evaluations one launch point costs: one prediction per applicable
    /// variant (an advise request at a fixed launch ranks them all).
    pub fn point_cost(&self) -> u64 {
        self.space.variants.len() as u64
    }

    /// Successful candidate predictions so far — one per trace entry (the
    /// evaluation budget counts these; see [`Evaluator::failed`] for the
    /// per-candidate failures a partially-failing backend can report).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Candidate predictions the backend failed per-candidate (the engine
    /// keeps the report and records them as failures). They produce no
    /// trace entry and spend no evaluation budget, but their generations
    /// still count, so `max_generations` bounds a failing backend's work.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Frontier batches executed so far.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// Evaluations still affordable.
    pub fn remaining_evaluations(&self) -> u64 {
        self.budget.max_evaluations.saturating_sub(self.evaluations)
    }

    /// Whether at least one more launch point can be evaluated within both
    /// budget bounds.
    pub fn can_evaluate(&self) -> bool {
        self.generations < self.budget.max_generations
            && self.remaining_evaluations() >= self.point_cost()
    }

    /// Whether every launch point of the space has been evaluated.
    pub fn fully_covered(&self) -> bool {
        self.scores.len() == self.space.launch_points()
    }

    /// Whether a point has already been evaluated.
    pub fn is_evaluated(&self, point: GridPoint) -> bool {
        self.scores.contains_key(&point)
    }

    /// The memoized score of a point, if it has been evaluated.
    pub fn score_of(&self, point: GridPoint) -> Option<&PointScore> {
        self.scores.get(&point)
    }

    /// Global best so far (guaranteed to have been evaluated).
    pub fn best(&self) -> Option<&Evaluation> {
        self.best.as_ref()
    }

    /// Best-so-far trajectory, one entry per generation.
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.trajectory
    }

    /// Every candidate evaluation, in evaluation order.
    pub fn trace(&self) -> &[Evaluation] {
        &self.trace
    }

    /// Which budget bound stopped (or would next stop) the run.
    pub fn limit_reason(&self) -> StopReason {
        if self.hit_evaluation_limit || self.remaining_evaluations() < self.point_cost() {
            StopReason::BudgetExhausted
        } else if self.hit_generation_limit || self.generations >= self.budget.max_generations {
            StopReason::GenerationLimit
        } else {
            StopReason::Converged
        }
    }

    /// The `count` best evaluated points, ranked by their best candidate
    /// under the advise tie-break (deterministic).
    pub fn ranked_points(&self, count: usize) -> Vec<PointScore> {
        let mut ranked: Vec<PointScore> = self.scores.values().copied().collect();
        ranked.sort_by(|a, b| {
            if a.best.beats(&b.best) {
                std::cmp::Ordering::Less
            } else if b.best.beats(&a.best) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        ranked.truncate(count);
        ranked
    }

    /// Evaluate a frontier of grid points: dedup against the memo, truncate
    /// to what the budget affords, and score the remainder with one
    /// `Engine::advise_many` call (one backend `predict_batch`).
    ///
    /// Returns the scores of the **newly evaluated** points, in input
    /// order; already-evaluated points are silently skipped (read them with
    /// [`Evaluator::score_of`]). An empty return with a non-empty fresh
    /// frontier means a budget bound hit — [`Evaluator::limit_reason`]
    /// says which.
    pub fn evaluate(&mut self, points: &[GridPoint]) -> Result<Vec<PointScore>, TuneError> {
        let mut fresh: Vec<GridPoint> = Vec::with_capacity(points.len());
        for &p in points {
            if !self.scores.contains_key(&p) && !fresh.contains(&p) {
                fresh.push(p);
            }
        }
        if fresh.is_empty() {
            return Ok(Vec::new());
        }
        if self.generations >= self.budget.max_generations {
            self.hit_generation_limit = true;
            return Ok(Vec::new());
        }
        let affordable = (self.remaining_evaluations() / self.point_cost().max(1)) as usize;
        if affordable == 0 {
            self.hit_evaluation_limit = true;
            return Ok(Vec::new());
        }
        if fresh.len() > affordable {
            fresh.truncate(affordable);
            self.hit_evaluation_limit = true;
        }

        let gen_started = std::time::Instant::now();
        let requests: Vec<AdviseRequest> = fresh
            .iter()
            .map(|&p| {
                let mut request = AdviseRequest::catalog(self.space.kernel.full_name())
                    .with_launch(self.space.launch(p));
                request.sizes = self.space.sizes.clone();
                request
            })
            .collect();
        let results = self.engine.advise_many(&requests);
        self.generations += 1;

        let mut out = Vec::with_capacity(fresh.len());
        for (&point, result) in fresh.iter().zip(results) {
            let report = result.map_err(TuneError::Engine)?;
            self.evaluations += report.rankings.len() as u64;
            self.failed += report.failures.len() as u64;
            let flat_launch = self.space.flat_index(point);
            let mut point_best: Option<Evaluation> = None;
            for prediction in &report.rankings {
                let variant = prediction
                    .variant
                    .expect("catalogue advise always reports a variant");
                let variant_idx = self
                    .space
                    .variants
                    .iter()
                    .position(|&v| v == variant)
                    .expect("advise enumerates exactly the space's variants");
                let evaluation = Evaluation {
                    variant,
                    variant_idx,
                    launch: prediction.launch,
                    flat_launch,
                    predicted_ms: prediction.predicted_ms,
                };
                if self.best.is_none_or(|best| evaluation.beats(&best)) {
                    self.best = Some(evaluation);
                }
                if point_best.is_none_or(|best| evaluation.beats(&best)) {
                    point_best = Some(evaluation);
                }
                self.trace.push(evaluation);
            }
            // advise_many turns an all-failures request into
            // Err(AllPredictionsFailed) — propagated above — so an Ok
            // report always carries at least one ranking.
            let best = point_best.expect("an Ok advise report carries at least one ranking");
            let score = PointScore { point, best };
            self.scores.insert(point, score);
            out.push(score);
        }
        let best = self
            .best
            .as_ref()
            .expect("a scored generation produces a best");
        let gen_elapsed = gen_started.elapsed();
        pg_obs::obs().record_stage(pg_obs::Stage::TuneGeneration, gen_elapsed);
        self.trajectory.push(TrajectoryPoint {
            generation: self.generations,
            evaluations: self.evaluations,
            best_ms: best.predicted_ms,
            gen_ms: gen_elapsed.as_secs_f64() * 1e3,
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_engine::LaunchBudget;
    use pg_perfsim::Platform;

    fn fixture() -> (Engine, SearchSpace) {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let space = SearchSpace::build(
            Platform::SummitV100,
            "MM/matmul",
            None,
            &LaunchBudget::PlatformDefault,
        )
        .unwrap();
        (engine, space)
    }

    #[test]
    fn evaluation_is_memoized_and_budget_counted() {
        let (engine, space) = fixture();
        let mut eval = Evaluator::new(&engine, &space, Budget::default());
        let seeds = space.seed_points();
        let scored = eval.evaluate(&seeds).unwrap();
        assert_eq!(scored.len(), seeds.len());
        assert_eq!(eval.generations(), 1);
        assert_eq!(eval.evaluations(), seeds.len() as u64 * eval.point_cost());
        // Re-submitting the same frontier spends nothing.
        let again = eval.evaluate(&seeds).unwrap();
        assert!(again.is_empty());
        assert_eq!(eval.generations(), 1);
        assert_eq!(eval.evaluations(), seeds.len() as u64 * eval.point_cost());
        assert!(eval.best().is_some());
        assert_eq!(eval.trajectory().len(), 1);
    }

    #[test]
    fn frontiers_are_truncated_to_the_evaluation_budget() {
        let (engine, space) = fixture();
        let budget = Budget {
            // Room for exactly two points (4 variants each).
            max_evaluations: 2 * space.variants.len() as u64 + 1,
            max_generations: 10,
        };
        let mut eval = Evaluator::new(&engine, &space, budget);
        let scored = eval.evaluate(&space.all_points()).unwrap();
        assert_eq!(scored.len(), 2);
        assert!(eval.evaluations() <= budget.max_evaluations);
        assert_eq!(eval.limit_reason(), StopReason::BudgetExhausted);
        // Nothing further is affordable.
        assert!(!eval.can_evaluate());
        assert!(eval.evaluate(&space.all_points()).unwrap().is_empty());
    }

    #[test]
    fn generation_limit_stops_further_batches() {
        let (engine, space) = fixture();
        let budget = Budget {
            max_evaluations: 10_000,
            max_generations: 1,
        };
        let mut eval = Evaluator::new(&engine, &space, budget);
        let first = space.all_points()[0];
        let second = space.all_points()[1];
        assert_eq!(eval.evaluate(&[first]).unwrap().len(), 1);
        assert!(eval.evaluate(&[second]).unwrap().is_empty());
        assert_eq!(eval.limit_reason(), StopReason::GenerationLimit);
    }

    #[test]
    fn best_matches_direct_advise_on_full_coverage() {
        let (engine, space) = fixture();
        let mut eval = Evaluator::new(&engine, &space, Budget::default());
        eval.evaluate(&space.all_points()).unwrap();
        assert!(eval.fully_covered());
        let best = *eval.best().unwrap();
        let direct = engine.advise(&AdviseRequest::catalog("MM/matmul")).unwrap();
        let advise_best = direct.best().unwrap();
        assert_eq!(Some(best.variant), advise_best.variant);
        assert_eq!(best.launch, advise_best.launch);
        assert_eq!(best.predicted_ms, advise_best.predicted_ms);
    }
}
