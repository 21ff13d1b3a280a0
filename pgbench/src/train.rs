//! `train`: dataset generation at volume, then model training.
//!
//! The only workload with backward passes and optimizer writes, and the only
//! one that runs the perfsim and the dataset pipeline at volume. The set-up
//! generates the Default-scale V100 training set and prepares it for the
//! model (`pg_gnn::prepare`). The first [`DATAGEN_SHARE`] of the run
//! regenerates the Full-scale V100 and POWER9 datasets (noise seeded by
//! `--seed`); the rest trains on the prepared set, [`FIT_EPOCHS`] epochs per
//! fit.
//!
//! A run's latency is the wall time of its unit of work: one generation rep
//! plus one fit. Every rep of either phase repeats identical work, so each
//! takes its fastest rep: on a shared host noise only ever adds time, and
//! the fastest of several repetitions is the estimate least moved by short
//! bursts of it. Fits are kept short so that a run holds several.

use crate::layers::{self, Session};
use crate::measure::{self, with_thread_sampler};
use crate::setup::{self, SETUP_REPS};
use crate::{Args, Run};
use pg_dataset::{DatasetScale, GenerationSummary, PlatformDataset};
use pg_engine::AdviseRequest;
use pg_engine::CacheCounters;
use pg_gnn::{ModelConfig, ParaGraphModel, TrainConfig, TrainedModel};
use pg_perfsim::Platform;
use std::sync::Arc;
use std::time::Instant;

/// Share of the run spent generating datasets: about three generation reps
/// and five fits in a 20 s run.
const DATAGEN_SHARE: f64 = 0.45;

/// The platforms whose Full-scale datasets a generation rep produces.
const DATAGEN_PLATFORMS: [Platform; 2] = [Platform::SummitV100, Platform::SummitPower9];

/// Epochs per fit: about 1.8 s a fit on a 2-vCPU host.
const FIT_EPOCHS: usize = 3;

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: FIT_EPOCHS,
        batch_size: 16,
        model: ModelConfig {
            hidden_dim: 20,
            ..ModelConfig::default()
        },
        ..TrainConfig::default()
    }
}

/// FNV-1a over every point's identity and label: equal digests mean equal
/// datasets for the purpose of the determinism check.
fn digest(dataset: &PlatformDataset) -> u64 {
    dataset.points.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        [p.id as u64, p.runtime_ms.to_bits(), p.teams, p.threads]
            .into_iter()
            .fold(h, |h, word| (h ^ word).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

/// Repeat `body` until another repetition would end after `budget_s`
/// seconds from now (at least once); returns each repetition's seconds.
fn repeat_within(budget_s: f64, mut body: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut times: Vec<f64> = Vec::new();
    while times.is_empty()
        || started.elapsed().as_secs_f64() + times.last().copied().unwrap_or(0.0) <= budget_s
    {
        let rep = Instant::now();
        body();
        times.push(rep.elapsed().as_secs_f64());
    }
    times
}

/// Run `train`.
pub fn run(args: &Args) -> Result<Run, String> {
    let config = train_config();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (prepared, setup_s) = setup::timed(
        reps,
        || {
            let generated = setup::training_set(DatasetScale::Default);
            pg_gnn::prepare(&generated.dataset, config.representation, config.seed)
        },
        drop,
    );
    let expected_points = DATAGEN_PLATFORMS
        .map(|platform| pg_dataset::instances_for(platform, DatasetScale::Full).len());

    // Every generation of a platform's dataset and every fit counts as one
    // operation, failed when its output is wrong.
    let mut attempted = 0u64;
    let mut mismatches = 0u64;
    let mut first_digests: [Option<u64>; 2] = [None; 2];
    let mut cache = CacheCounters::default();
    let mut v100_generation: Option<GenerationSummary> = None;
    let mut fitted: Option<(ParaGraphModel, f64)> = None;
    measure::reset_peak_heap();
    let (times, threads_max) = with_thread_sampler(args.trace, || {
        let datagen = repeat_within(args.seconds * DATAGEN_SHARE, || {
            for (i, &platform) in DATAGEN_PLATFORMS.iter().enumerate() {
                let outcome = setup::dataset(platform, DatasetScale::Full, args.seed);
                let digest = digest(&outcome.dataset);
                let first = *first_digests[i].get_or_insert(digest);
                attempted += 1;
                mismatches +=
                    u64::from(outcome.dataset.len() != expected_points[i] || digest != first);
                cache.hits += outcome.summary.cache.hits;
                cache.misses += outcome.summary.cache.misses;
                if platform == setup::PLATFORM {
                    v100_generation.get_or_insert(outcome.summary);
                }
            }
        });
        let remaining = args.seconds - datagen.iter().sum::<f64>();
        let fits = repeat_within(remaining, || {
            attempted += 1;
            match pg_gnn::train_prepared(&prepared, &config) {
                Ok(outcome) => {
                    let rmse = f64::from(outcome.norm_rmse);
                    let same = fitted
                        .as_ref()
                        .is_none_or(|(first, _)| *first == outcome.model);
                    mismatches += u64::from(!same || !rmse.is_finite());
                    fitted.get_or_insert((outcome.model, rmse));
                }
                Err(error) => {
                    eprintln!("pgbench: fit: {error}");
                    mismatches += 1;
                }
            }
        });
        (datagen, fits)
    });
    let (datagen, fits) = times;
    let peak_heap_mb = measure::peak_heap_mb();
    let (network, val_norm_rmse) = fitted.ok_or("no fit succeeded")?;
    let model = TrainedModel {
        model: network,
        representation: config.representation,
        target_transform: prepared.target_transform.clone(),
        side_scaler: prepared.side_scaler.clone(),
    };

    let requests: Vec<AdviseRequest> = setup::kernel_names()
        .into_iter()
        .map(AdviseRequest::catalog)
        .collect();
    let engine = Arc::new(setup::gnn_engine(&model));
    let picks = requests
        .iter()
        .map(|request| {
            let report = engine.advise(request).map_err(|e| e.to_string())?;
            let best = report.best().cloned().ok_or("advise ranked no candidate")?;
            Ok((request.clone(), best))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let quality = setup::quality(&setup::truth_engine(), &picks)?;

    let fastest = |reps: &[f64]| reps.iter().copied().fold(f64::INFINITY, f64::min);
    let latency_ms = (fastest(&datagen) + fastest(&fits)) * 1e3;
    let mut run = Run {
        attempted,
        failed: mismatches,
        mismatches,
        values: vec![
            ("setup_s", setup_s),
            ("latency_ms", latency_ms),
            ("regret", quality.regret),
            ("peak_heap_mb", peak_heap_mb),
        ],
    };
    if args.trace {
        run.values.extend([
            ("obs.traced_latency_ms", latency_ms),
            ("engine.cache_hit_ratio", layers::hit_ratio(cache)),
            ("proc.threads_max", threads_max as f64),
            ("gnn.top1_hit_rate", quality.top1_hit_rate),
        ]);
        let session = Session {
            model: &model,
            engine: &engine,
            server: None,
            requests: &requests,
            generation: v100_generation
                .as_ref()
                .ok_or("no V100 dataset was generated")?,
            val_norm_rmse,
        };
        layers::collect(session, args, &mut run)?;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_within_runs_at_least_once_and_stops_before_overrunning() {
        let mut calls = 0;
        let times = repeat_within(0.0, || calls += 1);
        assert_eq!((calls, times.len()), (1, 1));
        let times = repeat_within(0.05, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert!((1..=2).contains(&times.len()), "{times:?}");
    }
}
