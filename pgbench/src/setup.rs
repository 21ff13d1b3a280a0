//! What every workload sets up: a trained model, the engines around it, and
//! the ground truth its picks are scored against.
//!
//! The model's dataset and training seeds are constants, not `--seed`: the
//! seed varies the traffic a run sends, while the system under test stays
//! the same model, so quality metrics compare like with like across runs.

use pg_dataset::{
    generate_platform, DatasetScale, GenerationOutcome, GenerationSummary, PipelineConfig,
    ShardStore,
};
use pg_engine::{AdviseRequest, Engine, EngineError, SimulatorBackend, VariantPrediction};
use pg_gnn::{GnnBackend, TrainConfig, TrainedModel};
use pg_perfsim::Platform;
use std::time::Instant;

/// The platform every workload serves.
pub const PLATFORM: Platform = Platform::SummitV100;

/// Seed of the datasets the served models are trained on.
const DATASET_SEED: u64 = 3;

/// Measurement noise of the generated datasets (log-normal sigma).
pub const NOISE_SIGMA: f64 = 0.02;

/// How many times a run repeats its set-up to report the median. The first
/// set-up of a process runs slower than the rest (page faults, a CPU that
/// was idle); the median of five leaves it out.
pub const SETUP_REPS: usize = 5;

/// A trained model and what producing it measured.
pub struct Fitted {
    /// The deployable model.
    pub model: TrainedModel,
    /// The dataset-generation run the model was trained on.
    pub generation: GenerationSummary,
    /// Normalised validation RMSE of the final epoch.
    pub val_norm_rmse: f64,
}

/// `platform`'s dataset at `scale` with noise seeded by `seed`, generated
/// without a shard store so a run never depends on what earlier runs left
/// on disk.
pub fn dataset(platform: Platform, scale: DatasetScale, seed: u64) -> GenerationOutcome {
    let config = PipelineConfig {
        scale,
        seed,
        noise_sigma: NOISE_SIGMA,
    };
    generate_platform(platform, &config, &ShardStore::disabled())
}

/// The dataset served models are trained on, at `scale`.
pub fn training_set(scale: DatasetScale) -> GenerationOutcome {
    dataset(PLATFORM, scale, DATASET_SEED)
}

/// Generate the training set at `scale` and fit `config` on it.
pub fn fit(scale: DatasetScale, config: &TrainConfig) -> Fitted {
    let generated = training_set(scale);
    let (model, outcome) = TrainedModel::fit(&generated.dataset, config)
        .expect("the benchmark's training config is valid");
    Fitted {
        model,
        generation: generated.summary,
        val_norm_rmse: f64::from(outcome.norm_rmse),
    }
}

/// An engine serving `model` on [`PLATFORM`].
pub fn gnn_engine(model: &TrainedModel) -> Engine {
    Engine::builder()
        .platform(PLATFORM)
        .backend(GnnBackend::new(model.clone(), PLATFORM))
        .build()
}

/// The noise-free simulator on [`PLATFORM`]: ground truth for regret.
pub fn truth_engine() -> Engine {
    Engine::builder()
        .platform(PLATFORM)
        .backend(SimulatorBackend::noise_free())
        .build()
}

/// Every catalogue kernel's full name, in catalogue order.
pub fn kernel_names() -> Vec<String> {
    pg_kernels::all_kernels()
        .iter()
        .map(|kernel| kernel.full_name())
        .collect()
}

/// Run `setup` `reps` times (at least once) and return the last result with
/// the median wall time in seconds. Each earlier result goes to `discard`,
/// untimed, before the next set-up starts, so no set-up runs beside the
/// state of another.
pub fn timed<T>(reps: usize, mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut time = || {
        let started = Instant::now();
        let value = setup();
        times.push(started.elapsed().as_secs_f64());
        value
    };
    for _ in 1..reps {
        discard(time());
    }
    let last = time();
    let median = crate::measure::median(&times).expect("at least one set-up ran");
    (last, median)
}

/// How good a set of picks is against the simulator's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean over picks of truth(picked) / truth(best candidate).
    pub regret: f64,
    /// Share of picks whose true runtime equals the best candidate's.
    pub top1_hit_rate: f64,
}

/// Score each `(request, pick)` against the truth engine's ranking of the
/// same request's candidates.
pub fn quality(
    truth: &Engine,
    picks: &[(AdviseRequest, VariantPrediction)],
) -> Result<Quality, String> {
    let mut regret = 0.0;
    let mut hits = 0usize;
    for (request, pick) in picks {
        let report = truth
            .advise(request)
            .map_err(|e: EngineError| format!("truth for {}: {e}", request.kernel.name()))?;
        let best = report
            .best()
            .ok_or("truth ranked no candidate")?
            .predicted_ms;
        let picked = report
            .rankings
            .iter()
            .find(|c| c.variant == pick.variant && c.launch == pick.launch)
            .ok_or_else(|| format!("pick for {} is not a candidate", request.kernel.name()))?
            .predicted_ms;
        regret += picked / best;
        hits += usize::from(picked == best);
    }
    let n = picks.len().max(1) as f64;
    Ok(Quality {
        regret: regret / n,
        top1_hit_rate: hits as f64 / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn timed_discards_each_result_before_the_next_set_up() {
        let live = Cell::new(0);
        let (last, median) = timed(
            4,
            || {
                assert_eq!(live.get(), 0, "a set-up ran beside an earlier result");
                live.set(live.get() + 1);
                live.get()
            },
            |_| live.set(live.get() - 1),
        );
        assert_eq!(last, 1);
        assert!(median >= 0.0);
        assert_eq!(
            timed(0, || 7, |_| unreachable!()).0,
            7,
            "at least one set-up"
        );
    }
}
