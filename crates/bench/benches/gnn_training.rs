//! Machine-readable perf baseline for the batched GNN execution path.
//!
//! Measures, on the Fast-scale SummitV100 dataset with the default model
//! configuration:
//!
//! * **training epoch wall-time** — the pre-batching per-sample loop
//!   (`train_prepared_per_sample`: one tape per sample, rayon fan-out,
//!   hand-averaged gradients) vs the batched loop (`train_prepared`: one
//!   disjoint-union forward/backward per mini-batch on a reused tape);
//! * **per-sample forward+backward** — `loss_and_gradients` per sample vs
//!   one batched pass over the same samples, normalised per sample;
//! * **engine GNN-backend sweep advise** — a launch-sweep `advise` through a
//!   per-instance backend (one legacy forward pass per candidate, one after
//!   another) vs the batched `GnnBackend::predict_batch`;
//! * **graph-size sweep** — one batched forward+backward of the sparse
//!   message-passing path at 1×/4×/16× disjoint-union scale, so its scaling
//!   with graph size is measured rather than asserted.
//!
//! Each comparison is timed as interleaved medians of several runs and
//! written to `BENCH_gnn.json` (schema 3) at the repository root so future
//! changes have a trajectory to compare against.
//! Set `PARAGRAPH_BENCH_SMOKE=1` for the CI smoke run: fewer repetitions and
//! a reduced epoch body, same code paths, no JSON rewrite.

use pg_dataset::{collect_platform, DatasetScale, PipelineConfig};
use pg_engine::{AdviseRequest, Engine, EngineError, PredictionContext, RuntimePredictor};
use pg_gnn::reference::{self, GraphSample};
use pg_gnn::{
    prepare, train_prepared, BatchedGraph, GnnBackend, ModelConfig, ParaGraphModel,
    PreparedDataset, PreparedGraph, TrainConfig, TrainedModel,
};
use pg_perfsim::Platform;
use pg_tensor::Tape;
use serde::Serialize;
use std::time::Instant;

const PLATFORM: Platform = Platform::SummitV100;

fn smoke() -> bool {
    std::env::var("PARAGRAPH_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 1,
        batch_size: 16,
        model: ModelConfig::default(),
        ..TrainConfig::default()
    }
}

/// The prepared Fast-scale training set and the reference path's samples
/// of it.
fn prepared_dataset() -> (PreparedDataset, Vec<GraphSample>) {
    let ds = collect_platform(
        PLATFORM,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 3,
            noise_sigma: 0.02,
        },
    );
    let representation = train_config().representation;
    let prepared = prepare(&ds, representation, train_config().seed);
    let samples = reference::samples(&ds, &prepared, representation);
    (prepared, samples)
}

/// The pre-batching engine path as a backend: per-instance prediction
/// through the legacy (fresh-tape, cloned-parameter) forward pass, one
/// candidate after another. This is the sweep baseline.
struct PerInstanceLegacyGnn(TrainedModel);

impl RuntimePredictor for PerInstanceLegacyGnn {
    fn name(&self) -> &str {
        "gnn-per-instance-legacy"
    }

    fn predict_batch(
        &self,
        ctx: &PredictionContext<'_>,
        instances: &[pg_advisor::KernelInstance],
    ) -> Vec<Result<f64, EngineError>> {
        let bundle = &self.0;
        instances
            .iter()
            .map(|instance| {
                let graph = ctx.relational_graph(instance, bundle.representation)?;
                let side = bundle
                    .side_scaler
                    .transform(&[instance.launch.teams as f32, instance.launch.threads as f32]);
                let encoded = reference::predict_graph(&bundle.model, &graph, [side[0], side[1]]);
                Ok(f64::from(bundle.target_transform.decode(encoded).max(0.0)))
            })
            .collect()
    }
}

fn sweep_request() -> AdviseRequest {
    AdviseRequest::source(
        "bench/saxpy",
        "void saxpy(float *x, float *y) {\n\
         #pragma omp target teams distribute parallel for\n\
         for (int i = 0; i < 65536; i++) { y[i] = y[i] + 2.0 * x[i]; }\n}",
    )
}

/// Median wall-clock seconds of `reps` runs each of `baseline` and
/// `batched`, interleaved (B-A-A-B per round) so slow drift of the host —
/// noisy neighbours, thermal throttling — biases neither side.
fn interleaved_medians(
    reps: usize,
    mut baseline: impl FnMut(),
    mut batched: impl FnMut(),
) -> (f64, f64) {
    let mut base_samples = Vec::with_capacity(reps);
    let mut batch_samples = Vec::with_capacity(reps);
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    for round in 0..reps.max(1) {
        if round % 2 == 0 {
            base_samples.push(time(&mut baseline));
            batch_samples.push(time(&mut batched));
        } else {
            batch_samples.push(time(&mut batched));
            base_samples.push(time(&mut baseline));
        }
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    (median(&mut base_samples), median(&mut batch_samples))
}

#[derive(Serialize)]
struct Comparison {
    baseline_ms: f64,
    batched_ms: f64,
    speedup: f64,
}

impl Comparison {
    fn of(baseline_secs: f64, batched_secs: f64) -> Self {
        Self {
            baseline_ms: baseline_secs * 1e3,
            batched_ms: batched_secs * 1e3,
            speedup: baseline_secs / batched_secs.max(1e-12),
        }
    }
}

/// Median wall-clock seconds of `reps` runs of one closure.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One graph-size sweep point: the training batch replicated `scale`× into
/// a disjoint union, timed as one forward+backward.
#[derive(Serialize)]
struct SweepEntry {
    scale: usize,
    graphs: usize,
    nodes: usize,
    edges: usize,
    forward_backward_ms: f64,
}

#[derive(Serialize)]
struct BenchReport {
    schema: u32,
    platform: String,
    dataset_scale: String,
    samples: usize,
    train_samples: usize,
    batch_size: usize,
    /// One training epoch (gradient steps + validation pass), milliseconds.
    training_epoch: Comparison,
    /// Forward+backward per sample (batch of `batch_size`), milliseconds.
    forward_backward_per_sample: Comparison,
    /// One launch-sweep advise through the GNN backend, milliseconds.
    sweep_advise: Comparison,
    sweep_candidates: usize,
    /// Fwd+bwd of the sparse path across union scales.
    size_sweep: Vec<SweepEntry>,
}

fn trained_bundle() -> TrainedModel {
    let ds = collect_platform(
        PLATFORM,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 3,
            noise_sigma: 0.02,
        },
    );
    let (bundle, _) = TrainedModel::fit(
        &ds,
        &TrainConfig {
            epochs: 2,
            ..TrainConfig::fast()
        },
    )
    .unwrap();
    bundle
}

/// Median-of-N timing of the three comparisons and the size sweep, recorded
/// to `BENCH_gnn.json` so the speedups are machine-readable across changes.
fn main() {
    let reps = if smoke() { 1 } else { 5 };
    let (prepared, samples) = prepared_dataset();
    let config = train_config();

    let (epoch_per_sample, epoch_batched) = interleaved_medians(
        reps,
        || {
            reference::train_prepared(&samples, &prepared, &config).unwrap();
        },
        || {
            train_prepared(&prepared, &config).unwrap();
        },
    );

    let model = ParaGraphModel::new(config.model, config.seed);
    let indices: Vec<usize> = prepared
        .train_idx
        .iter()
        .copied()
        .take(config.batch_size)
        .collect();
    let fb_reps = if smoke() { 3 } else { 20 };
    let items: Vec<(&PreparedGraph, [f32; 2])> = indices
        .iter()
        .map(|&i| (&prepared.graphs[i], prepared.sides[i]))
        .collect();
    let targets: Vec<f32> = indices.iter().map(|&i| prepared.targets[i]).collect();
    let batch = BatchedGraph::build(&items);
    let mut tape = Tape::new();
    let (fb_per_sample, fb_batched) = interleaved_medians(
        fb_reps,
        || {
            for &i in &indices {
                std::hint::black_box(reference::loss_and_gradients(&model, &samples[i]));
            }
        },
        || {
            tape.reset();
            let (_, loss, _) = model.forward_batched(&mut tape, &batch, Some(&targets));
            tape.backward(loss.unwrap());
        },
    );

    let bundle = trained_bundle();
    let request = sweep_request();
    let per_instance = Engine::builder()
        .platform(PLATFORM)
        .backend(PerInstanceLegacyGnn(bundle.clone()))
        .build();
    let candidates = per_instance.advise(&request).unwrap().rankings.len();
    let sweep_reps = if smoke() { 3 } else { 30 };
    let batched_engine = Engine::builder()
        .platform(PLATFORM)
        .backend(GnnBackend::new(bundle, PLATFORM))
        .build();
    batched_engine.advise(&request).unwrap();
    let (sweep_per_instance, sweep_batched) = interleaved_medians(
        sweep_reps,
        || {
            per_instance.advise(&request).unwrap();
        },
        || {
            batched_engine.advise(&request).unwrap();
        },
    );

    // Graph-size sweep: replicate the training batch into 1x/4x/16x disjoint
    // unions and time one fwd+bwd each.
    let mut size_sweep = Vec::new();
    for scale in [1usize, 4, 16] {
        let mut sweep_items: Vec<(&PreparedGraph, [f32; 2])> =
            Vec::with_capacity(items.len() * scale);
        let mut sweep_targets: Vec<f32> = Vec::with_capacity(targets.len() * scale);
        for _ in 0..scale {
            sweep_items.extend(items.iter().copied());
            sweep_targets.extend(targets.iter().copied());
        }
        let sweep_batch = BatchedGraph::build(&sweep_items);
        let edges: usize = sweep_batch.relations.iter().map(|r| r.len()).sum();
        let sweep_fb_reps = if smoke() { 1 } else { (fb_reps / scale).max(3) };
        let mut sweep_tape = Tape::new();
        let mut pass = || {
            sweep_tape.reset();
            let (_, loss, _) =
                model.forward_batched(&mut sweep_tape, &sweep_batch, Some(&sweep_targets));
            sweep_tape.backward(loss.unwrap());
        };
        // Warm the arena: with few reps at the big scales, a cold first
        // pass is dominated by allocation, not the kernels under test.
        pass();
        size_sweep.push(SweepEntry {
            scale,
            graphs: sweep_batch.batch_size(),
            nodes: sweep_batch.total_nodes(),
            edges,
            forward_backward_ms: median_secs(sweep_fb_reps, pass) * 1e3,
        });
    }

    let per_sample_count = indices.len().max(1) as f64;
    let report = BenchReport {
        schema: 3,
        platform: PLATFORM.name().to_string(),
        dataset_scale: "Fast".to_string(),
        samples: samples.len(),
        train_samples: prepared.train_idx.len(),
        batch_size: config.batch_size,
        training_epoch: Comparison::of(epoch_per_sample, epoch_batched),
        forward_backward_per_sample: Comparison::of(
            fb_per_sample / per_sample_count,
            fb_batched / per_sample_count,
        ),
        sweep_advise: Comparison::of(sweep_per_instance, sweep_batched),
        sweep_candidates: candidates,
        size_sweep,
    };
    println!(
        "gnn perf: epoch {:.1}ms -> {:.1}ms ({:.2}x), fwd+bwd/sample {:.3}ms -> {:.3}ms ({:.2}x), sweep {:.2}ms -> {:.2}ms ({:.2}x)",
        report.training_epoch.baseline_ms,
        report.training_epoch.batched_ms,
        report.training_epoch.speedup,
        report.forward_backward_per_sample.baseline_ms,
        report.forward_backward_per_sample.batched_ms,
        report.forward_backward_per_sample.speedup,
        report.sweep_advise.baseline_ms,
        report.sweep_advise.batched_ms,
        report.sweep_advise.speedup,
    );
    for entry in &report.size_sweep {
        println!(
            "gnn size sweep x{} ({} graphs, {} nodes, {} edges): fwd+bwd {:.2}ms",
            entry.scale, entry.graphs, entry.nodes, entry.edges, entry.forward_backward_ms,
        );
    }
    if smoke() {
        // The CI smoke run proves the harness executes end to end but its
        // timings are noise; keep the committed baseline intact.
        return;
    }
    let json = serde_json::to_string(&report).expect("bench report serialises");
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gnn.json"),
        json,
    )
    .expect("write BENCH_gnn.json at the repository root");
}
