//! The search space: the engine's candidate space, addressed as a launch
//! grid.
//!
//! A [`SearchSpace`] is the [`CandidateSpace`] that
//! [`Engine::template_space`] enumerates and gates for `Engine::advise` —
//! the same admitted variants, the same launch axes, the same order — so
//! exhaustively evaluating the space is *bit-identical* to `Engine::advise`
//! over the same request. Strategies move over the launch grid (the
//! "levels of parallelism" axes of the paper); every visited grid point
//! scores **all** admitted variants at that launch, so the variant and
//! clause dimensions (collapse, map, schedule — carried by the variant's
//! pragma) are ranked for free with each move.

use pg_advisor::LaunchConfig;
use pg_engine::{CandidateSpace, Engine, EngineError, LaunchBudget};
use pg_obs::TraceHandle;
use std::collections::HashMap;
use std::ops::Deref;

/// One point of the launch grid, addressed by its index on each axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridPoint {
    /// Index into [`CandidateSpace::teams_axis`].
    pub teams_idx: usize,
    /// Index into [`CandidateSpace::threads_axis`].
    pub threads_idx: usize,
}

/// The space a tuning run searches: the engine's candidate space, with the
/// grid geometry strategies move over. It dereferences to the
/// [`CandidateSpace`] (variants, axes, legality findings, instances).
#[derive(Debug, Clone)]
pub struct SearchSpace {
    candidates: CandidateSpace,
}

impl From<CandidateSpace> for SearchSpace {
    fn from(candidates: CandidateSpace) -> Self {
        SearchSpace { candidates }
    }
}

impl Deref for SearchSpace {
    type Target = CandidateSpace;

    fn deref(&self) -> &CandidateSpace {
        &self.candidates
    }
}

impl SearchSpace {
    /// The space of a catalogue kernel under a launch budget, as `engine`
    /// enumerates and gates it for `advise`. Templates outside the
    /// catalogue enter through [`Engine::template_space`] and
    /// [`SearchSpace::from`].
    pub fn build(
        engine: &Engine,
        kernel_name: &str,
        sizes: Option<HashMap<String, i64>>,
        budget: &LaunchBudget,
    ) -> Result<SearchSpace, EngineError> {
        let kernel = pg_kernels::find_kernel(kernel_name)
            .ok_or_else(|| EngineError::UnknownKernel(kernel_name.to_string()))?;
        engine
            .template_space(kernel, sizes, budget, &TraceHandle::disabled())
            .map(SearchSpace::from)
    }

    /// The launch configuration at a grid point.
    pub fn launch(&self, point: GridPoint) -> LaunchConfig {
        self.candidates.launch(self.flat_index(point))
    }

    /// Flat index of a grid point in advise enumeration order (teams-major,
    /// matching [`pg_advisor::ParallelismBudget::gpu_launches`] /
    /// [`pg_advisor::ParallelismBudget::cpu_launches`]).
    pub fn flat_index(&self, point: GridPoint) -> usize {
        point.teams_idx * self.threads_axis().len() + point.threads_idx
    }

    /// Grid point of a flat index (inverse of [`SearchSpace::flat_index`]).
    pub fn point_from_flat(&self, flat: usize) -> GridPoint {
        let width = self.threads_axis().len();
        GridPoint {
            teams_idx: flat / width,
            threads_idx: flat % width,
        }
    }

    /// Every grid point, in advise enumeration (teams-major) order.
    pub fn all_points(&self) -> Vec<GridPoint> {
        (0..self.launch_points())
            .map(|flat| self.point_from_flat(flat))
            .collect()
    }

    /// The 4-neighbourhood of a point: one step along each axis, in a fixed
    /// deterministic order (teams−1, teams+1, threads−1, threads+1).
    pub fn neighbors(&self, point: GridPoint) -> Vec<GridPoint> {
        let mut out = Vec::with_capacity(4);
        if point.teams_idx > 0 {
            out.push(GridPoint {
                teams_idx: point.teams_idx - 1,
                ..point
            });
        }
        if point.teams_idx + 1 < self.teams_axis().len() {
            out.push(GridPoint {
                teams_idx: point.teams_idx + 1,
                ..point
            });
        }
        if point.threads_idx > 0 {
            out.push(GridPoint {
                threads_idx: point.threads_idx - 1,
                ..point
            });
        }
        if point.threads_idx + 1 < self.threads_axis().len() {
            out.push(GridPoint {
                threads_idx: point.threads_idx + 1,
                ..point
            });
        }
        out
    }

    /// Deterministic seed frontier for local strategies: the centre of the
    /// grid plus its four corners (deduplicated, order-stable). Extremes
    /// catch monotone landscapes ("more parallelism is always better"), the
    /// centre catches interior optima.
    pub fn seed_points(&self) -> Vec<GridPoint> {
        let (tmax, hmax) = (self.teams_axis().len() - 1, self.threads_axis().len() - 1);
        let candidates = [
            GridPoint {
                teams_idx: tmax / 2,
                threads_idx: hmax / 2,
            },
            GridPoint {
                teams_idx: 0,
                threads_idx: 0,
            },
            GridPoint {
                teams_idx: 0,
                threads_idx: hmax,
            },
            GridPoint {
                teams_idx: tmax,
                threads_idx: 0,
            },
            GridPoint {
                teams_idx: tmax,
                threads_idx: hmax,
            },
        ];
        let mut out: Vec<GridPoint> = Vec::with_capacity(candidates.len());
        for p in candidates {
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_advisor::ParallelismBudget;
    use pg_perfsim::Platform;

    fn build(
        platform: Platform,
        kernel: &str,
        budget: &LaunchBudget,
    ) -> Result<SearchSpace, EngineError> {
        let engine = Engine::builder().platform(platform).build();
        SearchSpace::build(&engine, kernel, None, budget)
    }

    fn space() -> SearchSpace {
        build(
            Platform::SummitV100,
            "MM/matmul",
            &LaunchBudget::PlatformDefault,
        )
        .unwrap()
    }

    #[test]
    fn grid_matches_the_platform_default_budget() {
        let s = space();
        // V100: 80 SMs -> teams {40, 80, 160}, threads {64, 128, 256}.
        assert_eq!(s.teams_axis(), [40, 80, 160]);
        assert_eq!(s.threads_axis(), [64, 128, 256]);
        assert_eq!(s.launch_points(), 9);
        assert_eq!(s.candidates(), 4 * 9); // four GPU variants on matmul
        assert!(s.variants().iter().all(|v| v.is_gpu()));
    }

    #[test]
    fn flat_order_matches_gpu_launch_enumeration() {
        let s = space();
        let budget = ParallelismBudget::for_gpu(Platform::SummitV100.parallel_units());
        let launches = budget.gpu_launches();
        for (flat, expected) in launches.iter().enumerate() {
            let point = s.point_from_flat(flat);
            assert_eq!(s.launch(point), *expected);
            assert_eq!(s.flat_index(point), flat);
        }
    }

    #[test]
    fn cpu_spaces_have_one_team() {
        let s = build(
            Platform::SummitPower9,
            "MM/matmul",
            &LaunchBudget::PlatformDefault,
        )
        .unwrap();
        assert_eq!(s.teams_axis(), [1]);
        assert!(s.variants().iter().all(|v| !v.is_gpu()));
        // 1D grid: neighbours only along the threads axis.
        let p = GridPoint {
            teams_idx: 0,
            threads_idx: 1,
        };
        assert!(s
            .neighbors(p)
            .iter()
            .all(|n| n.teams_idx == 0 && n.threads_idx != 1));
    }

    #[test]
    fn neighbors_stay_in_bounds_and_seeds_dedup() {
        let s = space();
        for p in s.all_points() {
            for n in s.neighbors(p) {
                assert!(n.teams_idx < s.teams_axis().len());
                assert!(n.threads_idx < s.threads_axis().len());
                let manhattan =
                    n.teams_idx.abs_diff(p.teams_idx) + n.threads_idx.abs_diff(p.threads_idx);
                assert_eq!(manhattan, 1);
            }
        }
        let seeds = s.seed_points();
        let mut dedup = seeds.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
        // A 1×1 grid still has exactly one seed.
        let tiny = build(
            Platform::SummitV100,
            "MM/matmul",
            &LaunchBudget::Fixed(LaunchConfig {
                teams: 80,
                threads: 128,
            }),
        )
        .unwrap();
        assert_eq!(tiny.seed_points().len(), 1);
        assert!(tiny.neighbors(tiny.seed_points()[0]).is_empty());
    }

    #[test]
    fn catalogue_spaces_are_never_race_pruned() {
        assert!(space().race_pruned().is_empty());
    }

    #[test]
    fn racy_template_variants_are_pruned_from_the_space() {
        // A mutant of the catalogue matmul whose store reads the next
        // parallel row: every variant of it is a provable race, so the
        // space cannot be built at all.
        let mut mutant = pg_kernels::find_kernel("MM/matmul").unwrap();
        mutant.source = Box::leak(
            mutant
                .source
                .replace("= sum;", "= sum + c[(i + 1) * {{N}} + j];")
                .into_boxed_str(),
        );
        let err = Engine::builder()
            .platform(Platform::SummitV100)
            .build()
            .template_space(
                mutant,
                None,
                &LaunchBudget::PlatformDefault,
                &TraceHandle::disabled(),
            )
            .unwrap_err();
        match err {
            EngineError::AllVariantsRace { kernel, reason } => {
                assert_eq!(kernel, "MM/matmul");
                assert!(reason.contains("loop-carried-dependence"), "{reason}");
            }
            other => panic!("expected AllVariantsRace, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kernels_and_empty_budgets_error() {
        assert!(matches!(
            build(
                Platform::SummitV100,
                "Nope/none",
                &LaunchBudget::PlatformDefault
            ),
            Err(EngineError::UnknownKernel(_))
        ));
        let empty = ParallelismBudget {
            cpu_threads: vec![],
            gpu_teams: vec![],
            gpu_threads: vec![],
        };
        assert!(matches!(
            build(
                Platform::SummitV100,
                "MM/matmul",
                &LaunchBudget::Sweep(empty)
            ),
            Err(EngineError::EmptyBudget)
        ));
    }
}
