//! The pluggable search strategies.
//!
//! A [`SearchStrategy`] never touches the engine: it proposes frontiers of
//! grid points and the [`Evaluator`] scores them, enforces the budget, and
//! keeps the records. The contract a strategy must honour:
//!
//! * **Evaluate only through the evaluator.** That is what guarantees the
//!   budget bounds, the monotone trajectory, and that the reported best was
//!   actually evaluated, no matter how the strategy is written.
//! * **Be deterministic.** Same space, same engine, same knobs (and, for
//!   randomized strategies, same seed) must produce the same report. Use
//!   no ambient randomness — take an explicit `u64` seed like
//!   [`Hillclimb`] does.
//! * **Stop when the evaluator says so.** An empty return from
//!   [`Evaluator::evaluate`] for a non-empty fresh frontier means a budget
//!   bound hit; return [`Evaluator::limit_reason`] and exit.

use crate::error::TuneError;
use crate::evaluator::{Evaluator, PointScore};
use crate::report::{StopReason, StrategySpec};
use crate::space::{GridPoint, SearchSpace};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One search policy over a [`SearchSpace`].
pub trait SearchStrategy {
    /// Short stable name, recorded in the report (`"beam"`, ...).
    fn name(&self) -> &'static str;

    /// Explore the space through `eval` until converged or out of budget.
    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<StopReason, TuneError>;
}

impl StrategySpec {
    /// Instantiate the strategy this spec describes.
    pub fn build(&self) -> Box<dyn SearchStrategy> {
        match *self {
            StrategySpec::Exhaustive => Box::new(Exhaustive),
            StrategySpec::Beam { width, patience } => Box::new(Beam {
                width: (width.max(1)) as usize,
                patience,
            }),
            StrategySpec::Hillclimb { seed, restarts } => Box::new(Hillclimb { seed, restarts }),
        }
    }
}

/// Score every candidate in one generation — one backend `predict_batch`
/// over the whole grid, exactly like `Engine::advise` over the same
/// request. The golden baseline the other strategies are measured against.
pub struct Exhaustive;

impl SearchStrategy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<StopReason, TuneError> {
        // Materialize only what the budget can afford: a wire-supplied
        // sweep can span a grid with billions of points, and the evaluator
        // would truncate the batch anyway — building the full point list
        // first would be an allocation amplification a client controls.
        let affordable = (eval.remaining_evaluations() / eval.point_cost().max(1)) as usize;
        let points: Vec<GridPoint> = (0..space.launch_points().min(affordable))
            .map(|flat| space.point_from_flat(flat))
            .collect();
        eval.evaluate(&points)?;
        Ok(if eval.fully_covered() {
            StopReason::SpaceExhausted
        } else {
            eval.limit_reason()
        })
    }
}

/// Width-`k` beam over the launch grid.
///
/// Generation 1 scores the deterministic seed frontier (grid centre +
/// corners); every further generation expands the unevaluated
/// 4-neighbourhood of the `width` best evaluated points and scores it as
/// one batch. With `width ≥` the number of grid points the beam degenerates
/// into breadth-first coverage of the whole (connected) grid, which is why
/// a wide beam is bit-identical to exhaustive search.
pub struct Beam {
    /// How many of the best evaluated points expand each generation.
    pub width: usize,
    /// Generations without improvement before stopping; 0 = never stop on
    /// staleness.
    pub patience: u64,
}

impl SearchStrategy for Beam {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<StopReason, TuneError> {
        let seeded = eval.evaluate(&space.seed_points())?;
        if seeded.is_empty() {
            return Ok(eval.limit_reason());
        }
        let mut stale = 0u64;
        loop {
            if eval.fully_covered() {
                return Ok(StopReason::SpaceExhausted);
            }
            if !eval.can_evaluate() {
                return Ok(eval.limit_reason());
            }
            let frontier = eval.ranked_points(self.width);
            let mut expansion: Vec<GridPoint> = Vec::new();
            for scored in &frontier {
                for neighbor in space.neighbors(scored.point) {
                    if !eval.is_evaluated(neighbor) && !expansion.contains(&neighbor) {
                        expansion.push(neighbor);
                    }
                }
            }
            if expansion.is_empty() {
                // The beam's whole neighbourhood is known: converged (with
                // width ≥ grid size this can only happen on full coverage,
                // which the check above already returned).
                return Ok(StopReason::Converged);
            }
            let best_before = eval.best().map(|b| b.predicted_ms);
            let scored = eval.evaluate(&expansion)?;
            if scored.is_empty() {
                return Ok(eval.limit_reason());
            }
            let improved = match (best_before, eval.best()) {
                (Some(before), Some(after)) => after.predicted_ms < before,
                (None, Some(_)) => true,
                _ => false,
            };
            if improved {
                stale = 0;
            } else {
                stale += 1;
                if self.patience > 0 && stale >= self.patience {
                    return Ok(StopReason::Converged);
                }
            }
        }
    }
}

/// Greedy neighbourhood descent from seeded random start points.
///
/// Each descent evaluates the current point's unevaluated neighbours as one
/// batch and moves to the best neighbour while it strictly improves; a
/// local optimum triggers the next restart from a fresh random point. All
/// randomness flows from the explicit `seed` through the deterministic
/// `StdRng`, so a tuning run is reproducible bit-for-bit.
pub struct Hillclimb {
    /// Seed of the start-point RNG.
    pub seed: u64,
    /// Random restarts after the first descent.
    pub restarts: u64,
}

impl SearchStrategy for Hillclimb {
    fn name(&self) -> &'static str {
        "hillclimb"
    }

    fn search(
        &self,
        space: &SearchSpace,
        eval: &mut Evaluator<'_>,
    ) -> Result<StopReason, TuneError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total = space.launch_points();
        for _restart in 0..=self.restarts {
            if eval.fully_covered() {
                return Ok(StopReason::SpaceExhausted);
            }
            if !eval.can_evaluate() {
                return Ok(eval.limit_reason());
            }
            // Random unevaluated start, found by linear probing from a
            // uniform draw (deterministic given the seed and history).
            let mut flat = (rng.gen_range(0..total as u64)) as usize;
            while eval.is_evaluated(space.point_from_flat(flat)) {
                flat = (flat + 1) % total;
            }
            let start = space.point_from_flat(flat);
            let seeded = eval.evaluate(&[start])?;
            let Some(mut current) = seeded.into_iter().next() else {
                return Ok(eval.limit_reason());
            };
            loop {
                let fresh: Vec<GridPoint> = space
                    .neighbors(current.point)
                    .into_iter()
                    .filter(|&n| !eval.is_evaluated(n))
                    .collect();
                if !fresh.is_empty() {
                    if !eval.can_evaluate() {
                        return Ok(eval.limit_reason());
                    }
                    if eval.evaluate(&fresh)?.is_empty() {
                        return Ok(eval.limit_reason());
                    }
                }
                // Best neighbour over the *whole* (now fully scored)
                // neighbourhood, memoized values included.
                let best_neighbor: Option<PointScore> = space
                    .neighbors(current.point)
                    .into_iter()
                    .filter_map(|n| eval.score_of(n).copied())
                    .reduce(|a, b| if b.best.beats(&a.best) { b } else { a });
                match best_neighbor {
                    Some(neighbor) if neighbor.best.beats(&current.best) => current = neighbor,
                    _ => break, // local optimum -> restart
                }
            }
        }
        Ok(StopReason::Converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Budget;
    use pg_engine::{Engine, LaunchBudget};
    use pg_perfsim::Platform;

    fn fixture() -> (Engine, SearchSpace) {
        let engine = Engine::builder().platform(Platform::SummitV100).build();
        let space =
            SearchSpace::build(&engine, "MM/matmul", None, &LaunchBudget::PlatformDefault).unwrap();
        (engine, space)
    }

    #[test]
    fn exhaustive_covers_the_space() {
        let (engine, space) = fixture();
        let mut eval = Evaluator::new(&engine, &space, Budget::default());
        let stop = Exhaustive.search(&space, &mut eval).unwrap();
        assert_eq!(stop, StopReason::SpaceExhausted);
        assert!(eval.fully_covered());
        assert_eq!(eval.generations(), 1);
        assert_eq!(eval.evaluations(), space.candidates());
    }

    #[test]
    fn wide_beam_degenerates_into_full_coverage() {
        let (engine, space) = fixture();
        let mut eval = Evaluator::new(&engine, &space, Budget::default());
        let beam = Beam {
            width: space.launch_points(),
            patience: 0,
        };
        let stop = beam.search(&space, &mut eval).unwrap();
        assert_eq!(stop, StopReason::SpaceExhausted);
        assert!(eval.fully_covered());
    }

    #[test]
    fn hillclimb_is_deterministic_per_seed() {
        let (engine, space) = fixture();
        let climb = |seed: u64| {
            let mut eval = Evaluator::new(&engine, &space, Budget::evaluations(48));
            Hillclimb { seed, restarts: 1 }
                .search(&space, &mut eval)
                .unwrap();
            (eval.trace().to_vec(), *eval.best().unwrap())
        };
        let (trace_a, best_a) = climb(7);
        let (trace_b, best_b) = climb(7);
        assert_eq!(trace_a, trace_b);
        assert_eq!(best_a, best_b);
        // A different seed explores a (usually) different trace but stays
        // within budget either way.
        let (trace_c, _) = climb(8);
        assert!(trace_c.len() as u64 <= 48);
    }

    #[test]
    fn strategy_specs_build_their_strategies() {
        assert_eq!(StrategySpec::Exhaustive.build().name(), "exhaustive");
        assert_eq!(StrategySpec::beam().build().name(), "beam");
        assert_eq!(StrategySpec::hillclimb(1).build().name(), "hillclimb");
    }
}
