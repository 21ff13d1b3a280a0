//! Golden-search equivalence: the search subsystem must never *silently*
//! disagree with the engine it searches over.
//!
//! * `Exhaustive` and a beam wide enough to cover the grid return the same
//!   best candidate **bit-for-bit** as `Engine::advise`, on every catalogue
//!   kernel × both platform families.
//! * `Hillclimb` with the same seed reproduces its whole evaluation trace
//!   run to run.
//! * `Beam` with the default densified grid reaches the exhaustive optimum
//!   on every catalogue kernel × platform with at most half the exhaustive
//!   evaluation count. pgbench's `tune_dense` workload times both searches
//!   over the same densified grid.

use pg_advisor::ParallelismBudget;
use pg_engine::{AdviseRequest, Engine};
use pg_perfsim::Platform;
use pg_tune::{Budget, StopReason, StrategySpec, TuneEngine, TuneReport, TuneRequest};

/// One GPU and one CPU platform — the two launch-grid shapes (2D and 1D).
const PLATFORMS: [Platform; 2] = [Platform::SummitV100, Platform::SummitPower9];

fn engine(platform: Platform) -> Engine {
    Engine::builder().platform(platform).build()
}

/// The densified launch grid the efficiency criterion is asserted on: the
/// platform's default budget with every axis gap subdivided (what
/// `DatasetScale::Full` does to sweeps). Exhaustive search pays the full
/// grid; beam search must not.
fn dense_budget(platform: Platform) -> ParallelismBudget {
    platform.default_budget().densified(4)
}

#[test]
fn exhaustive_matches_advise_bit_for_bit_on_every_kernel_and_platform() {
    for platform in PLATFORMS {
        let engine = engine(platform);
        for kernel in pg_kernels::all_kernels() {
            let name = kernel.full_name();
            let advise = engine.advise(&AdviseRequest::catalog(&name)).unwrap();
            let advise_best = advise.best().unwrap();
            let report = engine
                .tune(&TuneRequest::catalog(&name).with_strategy(StrategySpec::Exhaustive))
                .unwrap();
            assert_eq!(
                &report.best,
                advise_best,
                "{name} on {}: exhaustive best diverged from advise",
                platform.name()
            );
            assert_eq!(report.stop, StopReason::SpaceExhausted);
            assert_eq!(
                report.space.evaluated as usize,
                advise.candidates(),
                "{name}: exhaustive search must spend exactly the advise sweep"
            );
            assert_eq!(report.space.pruned, 0);
            // One grid-wide generation = one backend batch, like advise.
            assert_eq!(report.generations, 1);
        }
    }
}

#[test]
fn wide_beam_matches_advise_bit_for_bit_on_every_kernel_and_platform() {
    for platform in PLATFORMS {
        let engine = engine(platform);
        for kernel in pg_kernels::all_kernels() {
            let name = kernel.full_name();
            let advise_best = engine
                .advise(&AdviseRequest::catalog(&name))
                .unwrap()
                .best()
                .cloned()
                .unwrap();
            let grid_points = engine
                .tune(&TuneRequest::catalog(&name).with_strategy(StrategySpec::Exhaustive))
                .unwrap()
                .space
                .launch_points;
            // Width >= the whole grid, no staleness stop: the beam
            // degenerates into breadth-first full coverage.
            let report = engine
                .tune(
                    &TuneRequest::catalog(&name).with_strategy(StrategySpec::Beam {
                        width: grid_points,
                        patience: 0,
                    }),
                )
                .unwrap();
            assert_eq!(
                &report.best,
                &advise_best,
                "{name} on {}: wide beam diverged from advise",
                platform.name()
            );
            assert_eq!(report.stop, StopReason::SpaceExhausted);
            assert_eq!(report.space.evaluated, report.space.candidates);
        }
    }
}

#[test]
fn hillclimb_is_run_to_run_deterministic_per_seed() {
    for platform in PLATFORMS {
        let engine = engine(platform);
        for name in ["MM/matmul", "Correlation/correlation", "MV/matvec"] {
            let request = TuneRequest::catalog(name)
                .with_budget(dense_budget(platform))
                .with_strategy(StrategySpec::Hillclimb {
                    seed: 0xfeed,
                    restarts: 2,
                })
                .with_limits(Budget::evaluations(96));
            let (report_a, trace_a) = engine.tune_traced(&request).unwrap();
            let (report_b, trace_b) = engine.tune_traced(&request).unwrap();
            assert_eq!(trace_a, trace_b, "{name}: hillclimb trace must be stable");
            // Wall time differs between runs; everything else must not.
            assert_eq!(report_a.best, report_b.best);
            assert_eq!(report_a.trajectory, report_b.trajectory);
            assert_eq!(report_a.space, report_b.space);
            assert_eq!(report_a.stop, report_b.stop);
        }
    }
}

/// The acceptance criterion: on the densified grid, the default beam finds
/// the exhaustive optimum everywhere for at most half the evaluations.
#[test]
fn beam_reaches_the_exhaustive_optimum_with_at_most_half_the_evaluations() {
    for platform in PLATFORMS {
        let engine = engine(platform);
        for kernel in pg_kernels::all_kernels() {
            let name = kernel.full_name();
            let budget = dense_budget(platform);
            let exhaustive: TuneReport = engine
                .tune(
                    &TuneRequest::catalog(&name)
                        .with_budget(budget.clone())
                        .with_strategy(StrategySpec::Exhaustive),
                )
                .unwrap();
            // The tight beam: greedy expansion of the single best point,
            // stopping after one stale generation. The simulator's
            // landscapes are unimodal along each launch axis (the probe
            // behind this choice: runtimes fall monotonically to the
            // core/occupancy knee, then rise gently with per-thread
            // overhead), which is exactly the regime a narrow beam prunes
            // hardest in.
            let beam: TuneReport = engine
                .tune(
                    &TuneRequest::catalog(&name)
                        .with_budget(budget)
                        .with_strategy(StrategySpec::Beam {
                            width: 1,
                            patience: 1,
                        }),
                )
                .unwrap();
            // "Reaches the optimum" = attains the exhaustively optimal
            // predicted runtime, bit-for-bit. The launch itself may be a
            // different member of a tie plateau (the GPU model saturates),
            // which full-coverage runs — the golden tests above — resolve
            // identically, but a pruned search legitimately may not.
            assert_eq!(
                beam.best.predicted_ms.to_bits(),
                exhaustive.best.predicted_ms.to_bits(),
                "{name} on {}: beam missed the optimum (beam {:?} vs exhaustive {:?})",
                platform.name(),
                beam.best,
                exhaustive.best
            );
            assert!(
                2 * beam.space.evaluated <= exhaustive.space.evaluated,
                "{name} on {}: beam spent {} of {} exhaustive evaluations (> 50%)",
                platform.name(),
                beam.space.evaluated,
                exhaustive.space.evaluated
            );
        }
    }
}

/// A template outside the catalogue is tuned over its own instances, not
/// over the catalogue kernel that shares its name: a matmul whose inner
/// product runs its k-loop twice tunes, exhaustively, to exactly the
/// minimum of its own predictions.
#[test]
fn exhaustive_search_over_a_non_catalogue_template_scores_its_own_instances() {
    use pg_engine::LaunchBudget;
    use pg_obs::TraceHandle;
    use pg_tune::{Evaluator, Exhaustive, SearchSpace, SearchStrategy};

    let catalogue = pg_kernels::find_kernel("MM/matmul").unwrap();
    let k_loop = "for (int k = 0; k < {{N}}; k++) {\n                \
                  sum += a[i * {{N}} + k] * b[k * {{N}} + j];\n            }";
    let mut mutant = catalogue;
    mutant.source = Box::leak(
        catalogue
            .source
            .replace(k_loop, &format!("{k_loop}\n            {k_loop}"))
            .into_boxed_str(),
    );
    assert_eq!(mutant.source.matches("for (int k").count(), 2);

    let engine = engine(Platform::SummitV100);
    let candidates = engine
        .template_space(
            mutant,
            None,
            &LaunchBudget::PlatformDefault,
            &TraceHandle::disabled(),
        )
        .unwrap();
    let own_best = engine
        .predict_instances(&candidates.instances())
        .into_iter()
        .map(|prediction| prediction.unwrap())
        .fold(f64::INFINITY, f64::min);
    let space = SearchSpace::from(candidates);
    let mut eval = Evaluator::new(&engine, &space, Budget::default());
    let stop = Exhaustive.search(&space, &mut eval).unwrap();
    assert_eq!(stop, StopReason::SpaceExhausted);
    let best = eval.best().unwrap().predicted_ms;
    assert_eq!(best.to_bits(), own_best.to_bits(), "{best} vs {own_best}");

    let catalogue_best = engine
        .advise(&AdviseRequest::catalog("MM/matmul"))
        .unwrap()
        .best()
        .unwrap()
        .predicted_ms;
    assert!(
        best > catalogue_best,
        "the mutant's {best} ms must not be the catalogue's {catalogue_best} ms"
    );
}
