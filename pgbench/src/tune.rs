//! `tune_dense`: in-process tuning passes over the densified launch grid.
//!
//! One calling thread, no server: each pass tunes every catalogue kernel in
//! a seeded order, exhaustive search first and the default beam second,
//! over `default_budget().densified(4)`. The largest predict batches of any
//! workload (up to 324 candidates) and a frontend cache that churns make
//! GNN forward and the rayon fan-out the dominant layers.
//!
//! Every pass repeats identical work, so a kernel's latency is its fastest
//! pass (both searches together): on a shared host, noise only ever adds
//! time, and the fastest of many repetitions is the estimate least moved by
//! short bursts of it.

use crate::layers::{self, Session};
use crate::measure::{self, median, report_tail, with_thread_sampler, Summary};
use crate::rng::Rng;
use crate::setup::{self, PLATFORM, SETUP_REPS};
use crate::{Args, Run};
use pg_advisor::ParallelismBudget;
use pg_dataset::DatasetScale;
use pg_engine::{AdviseRequest, Engine, VariantPrediction};
use pg_gnn::TrainConfig;
use pg_tune::{StrategySpec, TuneEngine, TuneRequest};
use std::sync::Arc;
use std::time::Instant;

fn dense_budget() -> ParallelismBudget {
    PLATFORM.default_budget().densified(4)
}

/// What the passes measured.
#[derive(Default)]
struct Passes {
    /// Every kernel tuning's latency, in run order.
    latencies_ms: Vec<f64>,
    /// Each kernel's fastest tuning.
    best_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// The beam's pick per kernel, from the first pass.
    beam_picks: Vec<Option<VariantPrediction>>,
}

/// Tune every kernel per pass until another pass would overrun `seconds`
/// (at least one pass). Exhaustive search must return `expected`, the
/// engine's advise winner on the same grid; the beam must never beat it and
/// must repeat its first-pass pick.
fn passes(
    engine: &Engine,
    kernels: &[String],
    expected: &[VariantPrediction],
    seed: u64,
    seconds: f64,
) -> Passes {
    let mut out = Passes {
        best_ms: vec![f64::INFINITY; kernels.len()],
        beam_picks: vec![None; kernels.len()],
        ..Passes::default()
    };
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    let mut rng = Rng::new(seed, 0);
    let started = Instant::now();
    let mut last_pass_s = 0.0;
    while out.latencies_ms.is_empty() || started.elapsed().as_secs_f64() + last_pass_s <= seconds {
        let pass_started = Instant::now();
        rng.shuffle(&mut order);
        for &k in &order {
            let request = TuneRequest::catalog(kernels[k].clone()).with_budget(dense_budget());
            let kernel_started = Instant::now();
            let exhaustive = engine.tune(&request.clone().with_strategy(StrategySpec::Exhaustive));
            let beam = engine.tune(&request.with_strategy(StrategySpec::beam()));
            let ms = kernel_started.elapsed().as_secs_f64() * 1e3;
            out.latencies_ms.push(ms);
            out.best_ms[k] = out.best_ms[k].min(ms);
            out.attempted += 2;
            let (exhaustive, beam) = match (exhaustive, beam) {
                (Ok(exhaustive), Ok(beam)) => (exhaustive, beam),
                (exhaustive, beam) => {
                    for error in [exhaustive.err(), beam.err()].into_iter().flatten() {
                        eprintln!("pgbench: tune {}: {error}", kernels[k]);
                        out.failed += 1;
                    }
                    continue;
                }
            };
            // At most one failure per search, so `failed <= attempted`.
            let first_pick = out.beam_picks[k].get_or_insert(beam.best.clone());
            let beam_wrong =
                beam.best.predicted_ms < exhaustive.best.predicted_ms || beam.best != *first_pick;
            let wrong = u64::from(exhaustive.best != expected[k]) + u64::from(beam_wrong);
            out.mismatches += wrong;
            out.failed += wrong;
        }
        last_pass_s = pass_started.elapsed().as_secs_f64();
    }
    out
}

/// Run `tune_dense`.
pub fn run(args: &Args) -> Result<Run, String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((fitted, engine), setup_s) = setup::timed(
        reps,
        || {
            let fitted = setup::fit(DatasetScale::Fast, &TrainConfig::fast());
            let engine = Arc::new(setup::gnn_engine(&fitted.model));
            (fitted, engine)
        },
        drop,
    );
    let kernels = setup::kernel_names();
    let requests: Vec<AdviseRequest> = kernels
        .iter()
        .map(|k| AdviseRequest::catalog(k.clone()).with_budget(dense_budget()))
        .collect();
    let direct = setup::gnn_engine(&fitted.model);
    let expected = requests
        .iter()
        .map(|request| {
            let report = direct.advise(request).map_err(|e| e.to_string())?;
            report
                .best()
                .cloned()
                .ok_or_else(|| "advise ranked no candidate".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;

    let cache_before = engine.cache_counters();
    measure::reset_peak_heap();
    let (passes, threads_max) = with_thread_sampler(args.trace, || {
        passes(&engine, &kernels, &expected, args.seed, args.seconds)
    });
    let cache = engine.cache_counters().since(cache_before);
    let peak_heap_mb = measure::peak_heap_mb();

    let picks = requests
        .iter()
        .cloned()
        .zip(passes.beam_picks.iter().cloned())
        .map(|(request, pick)| pick.map(|pick| (request, pick)))
        .collect::<Option<Vec<_>>>()
        .ok_or("a kernel never finished tuning")?;
    let quality = setup::quality(&setup::truth_engine(), &picks)?;
    report_tail(
        "kernel tuning latency",
        &Summary::of(&passes.latencies_ms).ok_or("no kernel was tuned")?,
    );
    let latency_ms = median(&passes.best_ms).ok_or("no kernel was tuned")?;

    let mut run = Run {
        attempted: passes.attempted,
        failed: passes.failed,
        mismatches: passes.mismatches,
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
            model: &fitted.model,
            engine: &engine,
            server: None,
            requests: &requests,
            generation: &fitted.generation,
            val_norm_rmse: fitted.val_norm_rmse,
        };
        layers::collect(session, args, &mut run)?;
    }
    Ok(run)
}
