//! Budget-safety properties over random spaces, budgets and seeds: no
//! strategy — whatever its policy — may overshoot the evaluation or
//! generation budget, worsen its own best-so-far trajectory, or report an
//! optimum it never actually evaluated (a "phantom optimum"). These hold by
//! construction because every strategy evaluates through the shared
//! [`pg_tune::Evaluator`]; this suite is the regression net that keeps that
//! centralisation honest.

use pg_advisor::{ParallelismBudget, Variant};
use pg_engine::Engine;
use pg_perfsim::Platform;
use pg_tune::{Budget, StrategySpec, TuneEngine, TuneError, TuneRequest};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A random sorted, deduplicated launch axis of `len` draws.
fn random_axis(rng: &mut StdRng, len: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut axis: Vec<u64> = (0..len).map(|_| rng.gen_range(lo..=hi)).collect();
    axis.sort_unstable();
    axis.dedup();
    axis
}

/// Random space: a catalogue kernel on one of the two platform families
/// with randomly drawn sweep axes.
fn random_request(
    kernel_idx: usize,
    gpu: bool,
    axis_seed: u64,
    teams_len: usize,
    threads_len: usize,
) -> (Platform, TuneRequest) {
    let kernels = pg_kernels::all_kernels();
    let kernel = &kernels[kernel_idx % kernels.len()];
    let platform = if gpu {
        Platform::SummitV100
    } else {
        Platform::SummitPower9
    };
    let mut rng = StdRng::seed_from_u64(axis_seed);
    let budget = ParallelismBudget {
        cpu_threads: random_axis(&mut rng, threads_len, 1, 48),
        gpu_teams: random_axis(&mut rng, teams_len, 1, 320),
        gpu_threads: random_axis(&mut rng, threads_len, 32, 1024),
    };
    (
        platform,
        TuneRequest::catalog(kernel.full_name()).with_budget(budget),
    )
}

/// Evaluations one launch point costs in this space (one prediction per
/// applicable platform variant).
fn point_cost(request: &TuneRequest, platform: Platform) -> u64 {
    let kernel = pg_kernels::find_kernel(&request.kernel).unwrap();
    Variant::applicable_variants(&kernel)
        .into_iter()
        .filter(|v| v.is_gpu() == platform.is_gpu())
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_strategy_overshoots_its_budget_or_fakes_an_optimum(
        kernel_idx in 0usize..17,
        gpu in 0u8..2,
        axis_seed in 0u64..1_000_000,
        teams_len in 1usize..5,
        threads_len in 1usize..6,
        max_evaluations in 1u64..160,
        max_generations in 1u64..12,
        strategy_pick in 0u8..3,
        seed in 0u64..10_000,
        width in 1u64..6,
        patience in 0u64..3,
        restarts in 0u64..3,
    ) {
        let (platform, request) = random_request(
            kernel_idx, gpu == 1, axis_seed, teams_len, threads_len,
        );
        let strategy = match strategy_pick {
            0 => StrategySpec::Exhaustive,
            1 => StrategySpec::Beam { width, patience },
            _ => StrategySpec::Hillclimb { seed, restarts },
        };
        let request = request
            .with_strategy(strategy)
            .with_limits(Budget { max_evaluations, max_generations });
        let engine = Engine::builder().platform(platform).build();
        let cost = point_cost(&request, platform);

        match engine.tune_traced(&request) {
            Err(TuneError::NothingEvaluated {
                point_cost,
                max_evaluations: reported,
                max_generations: reported_generations,
            }) => {
                // Legal only when the budget cannot afford a single point
                // (the generation draw below is always >= 1, so the
                // evaluation bound is the only possible culprit here).
                prop_assert_eq!(point_cost, cost);
                prop_assert_eq!(reported, max_evaluations);
                prop_assert_eq!(reported_generations, max_generations);
                prop_assert!(max_evaluations < cost,
                    "NothingEvaluated despite budget {} >= point cost {}",
                    max_evaluations, cost);
            }
            Err(error) => prop_assert!(false, "unexpected tune error: {error}"),
            Ok((report, trace)) => {
                // 1. The budget is a hard ceiling.
                prop_assert!(report.space.evaluated <= max_evaluations,
                    "{} evaluations exceed the budget of {}",
                    report.space.evaluated, max_evaluations);
                prop_assert!(report.generations <= max_generations);
                prop_assert_eq!(trace.len() as u64, report.space.evaluated);
                prop_assert_eq!(report.space.failed, 0); // the simulator never fails
                prop_assert_eq!(
                    report.space.evaluated + report.space.failed + report.space.pruned,
                    report.space.candidates
                );

                // 2. The trajectory is monotonically non-worsening and its
                //    accounting matches the report.
                prop_assert!(!report.trajectory.is_empty());
                for window in report.trajectory.windows(2) {
                    prop_assert!(window[1].best_ms <= window[0].best_ms,
                        "trajectory worsened: {} -> {}",
                        window[0].best_ms, window[1].best_ms);
                    prop_assert!(window[1].generation > window[0].generation);
                    prop_assert!(window[1].evaluations >= window[0].evaluations);
                }
                let last = report.trajectory.last().unwrap();
                prop_assert_eq!(last.evaluations, report.space.evaluated);
                prop_assert_eq!(last.best_ms.to_bits(),
                    report.best.predicted_ms.to_bits());

                // 3. No phantom optimum: the reported best appears in the
                //    evaluation trace, bit for bit.
                prop_assert!(trace.iter().any(|e|
                    Some(e.variant) == report.best.variant
                        && e.launch == report.best.launch
                        && e.predicted_ms.to_bits() == report.best.predicted_ms.to_bits()),
                    "best {:?} was never evaluated", report.best);

                // 4. And it really is the minimum of what was evaluated.
                prop_assert!(trace.iter().all(|e|
                    e.predicted_ms >= report.best.predicted_ms),
                    "an evaluated candidate beats the reported best");
            }
        }
    }
}

/// The space is built lazily: a client-sized grid of 50,000 × 50,000
/// launches (4 × 2.5e9 = 1e10 candidates) costs each strategy only the
/// instances its 64-evaluation budget affords, never the grid.
#[test]
fn a_ten_billion_candidate_grid_is_never_materialised() {
    let axis: Vec<u64> = (1..=50_000).collect();
    let budget = ParallelismBudget {
        cpu_threads: vec![],
        gpu_teams: axis.clone(),
        gpu_threads: axis,
    };
    let engine = Engine::builder().platform(Platform::SummitV100).build();
    for strategy in [
        StrategySpec::Exhaustive,
        StrategySpec::beam(),
        StrategySpec::hillclimb(3),
    ] {
        let request = TuneRequest::catalog("MM/matmul")
            .with_budget(budget.clone())
            .with_strategy(strategy)
            .with_limits(Budget::evaluations(64));
        let report = engine.tune(&request).unwrap();
        assert_eq!(report.space.candidates, 10_000_000_000);
        assert!(
            report.space.evaluated <= 64,
            "{}: {} evaluations",
            strategy.name(),
            report.space.evaluated
        );
    }
}
