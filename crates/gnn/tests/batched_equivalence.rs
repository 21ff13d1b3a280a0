//! Golden-equivalence tests for the batched execution path: the disjoint
//! union encoding, the reused tape and the blocked matmul kernel are only
//! admissible if the numbers they produce match the per-sample path. Every
//! comparison here runs on a fixed seed; 1e-5 is the pinned tolerance from
//! the execution-path contract (rows of batched matrices are computed by
//! the same kernels as per-sample rows, so the only drift is float
//! re-association across samples in the loss and gradient reductions).

use paragraph_core::Representation;
use pg_dataset::{collect_platform, DatasetScale, PipelineConfig, PlatformDataset};
use pg_gnn::reference::{self, GraphSample};
use pg_gnn::{
    evaluate, prepare, train_prepared, BatchedGraph, GnnBackend, ModelConfig, ParaGraphModel,
    PreparedDataset, PreparedGraph, TrainConfig, TrainedModel,
};
use pg_perfsim::Platform;
use pg_tensor::{Matrix, Tape};

const TOLERANCE: f32 = 1e-5;

fn tiny_dataset() -> PlatformDataset {
    collect_platform(
        Platform::SummitV100,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 3,
            noise_sigma: 0.02,
        },
    )
}

/// The dataset prepared in `representation` with `seed`, and the reference
/// path's samples of it.
fn prepared_with_samples(
    ds: &PlatformDataset,
    representation: Representation,
    seed: u64,
) -> (PreparedDataset, Vec<GraphSample>) {
    let prepared = prepare(ds, representation, seed);
    let samples = reference::samples(ds, &prepared, representation);
    (prepared, samples)
}

#[test]
fn batched_predictions_match_per_sample_within_tolerance() {
    let ds = tiny_dataset();
    let (prepared, samples) = prepared_with_samples(&ds, Representation::ParaGraph, 7);
    let model = ParaGraphModel::new(ModelConfig::tiny(), 7);

    // Per-sample legacy reference: one fresh tape per sample, concat-based
    // attention — the pre-batching execution path.
    let reference: Vec<f32> = samples
        .iter()
        .map(|s| reference::predict_graph(&model, &s.graph, s.side))
        .collect();

    // Batched: every sample in chunked disjoint unions on one reused tape.
    let mut tape = Tape::new();
    let mut batched = Vec::with_capacity(prepared.graphs.len());
    for chunk in prepared.graphs.chunks(17) {
        let offset = batched.len();
        let items: Vec<(&PreparedGraph, [f32; 2])> = chunk
            .iter()
            .enumerate()
            .map(|(i, graph)| (graph, prepared.sides[offset + i]))
            .collect();
        let batch = BatchedGraph::build(&items);
        batched.extend(model.predict_batched(&mut tape, &batch));
    }

    assert_eq!(reference.len(), batched.len());
    for (i, (r, b)) in reference.iter().zip(batched.iter()).enumerate() {
        assert!(
            (r - b).abs() <= TOLERANCE,
            "sample {i}: per-sample {r} vs batched {b}"
        );
    }
}

#[test]
fn batched_gradients_match_mean_of_per_sample_gradients() {
    let ds = tiny_dataset();
    let (prepared, samples) = prepared_with_samples(&ds, Representation::ParaGraph, 11);
    let model = ParaGraphModel::new(ModelConfig::tiny(), 11);
    let batch_indices: Vec<usize> = prepared.train_idx.iter().copied().take(12).collect();
    assert!(batch_indices.len() >= 4, "need a real batch to compare");

    // Per-sample reference: average the per-sample gradients by hand, the
    // way the pre-batching training loop did.
    let mut mean_loss = 0.0f32;
    let mut mean_grads: Vec<Matrix> = model
        .parameters()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();
    for &i in &batch_indices {
        let (loss, grads) = reference::loss_and_gradients(&model, &samples[i]);
        mean_loss += loss;
        for (acc, g) in mean_grads.iter_mut().zip(grads.iter()) {
            acc.add_assign(g);
        }
    }
    let scale = 1.0 / batch_indices.len() as f32;
    mean_loss *= scale;
    for g in &mut mean_grads {
        *g = g.scale(scale);
    }

    // Batched: one forward/backward over the disjoint union.
    let items: Vec<(&PreparedGraph, [f32; 2])> = batch_indices
        .iter()
        .map(|&i| (&prepared.graphs[i], prepared.sides[i]))
        .collect();
    let targets: Vec<f32> = batch_indices.iter().map(|&i| prepared.targets[i]).collect();
    let batch = BatchedGraph::build(&items);
    let mut tape = Tape::new();
    let (_, loss, param_vars) = model.forward_batched(&mut tape, &batch, Some(&targets));
    let loss = loss.unwrap();
    tape.backward(loss);

    assert!(
        (tape.value(loss).get(0, 0) - mean_loss).abs() <= TOLERANCE,
        "batch-mean loss {} vs mean of per-sample losses {mean_loss}",
        tape.value(loss).get(0, 0)
    );
    for (key, (reference, var)) in mean_grads.iter().zip(param_vars.iter()).enumerate() {
        let batched = tape.grad(*var);
        let diff = reference.max_abs_diff(&batched);
        assert!(
            diff <= TOLERANCE,
            "gradient {key} diverged by {diff} (per-sample mean vs batched)"
        );
    }
}

#[test]
fn batched_and_per_sample_evaluation_agree() {
    let ds = tiny_dataset();
    let (prepared, samples) = prepared_with_samples(&ds, Representation::ParaGraph, 5);
    let model = ParaGraphModel::new(ModelConfig::tiny(), 5);
    let batched = evaluate(&model, &prepared, &prepared.val_idx);
    let reference = reference::evaluate(&model, &samples, &prepared, &prepared.val_idx);
    assert_eq!(batched.len(), reference.len());
    for (b, r) in batched.iter().zip(reference.iter()) {
        assert_eq!(b.id, r.id);
        let scale = r.predicted_ms.abs().max(1.0);
        assert!(
            (b.predicted_ms - r.predicted_ms).abs() <= TOLERANCE * scale,
            "id {}: batched {} vs per-sample {}",
            b.id,
            b.predicted_ms,
            r.predicted_ms
        );
    }
}

#[test]
fn trained_bundles_score_identically_on_the_validation_split() {
    // Training through the batched path must produce a model that scores the
    // validation split like one trained through the per-sample path. Both
    // run the same seed, shuffle order and update rule; only float
    // re-association in the gradient reductions differs, so the tolerance is
    // wider than the single-step pin but still tight in relative terms.
    let ds = tiny_dataset();
    let config = TrainConfig {
        epochs: 4,
        ..TrainConfig::fast()
    };
    let (prepared, samples) = prepared_with_samples(&ds, config.representation, config.seed);
    let batched = train_prepared(&prepared, &config).unwrap();
    let reference = reference::train_prepared(&samples, &prepared, &config).unwrap();

    assert_eq!(batched.validation.len(), reference.validation.len());
    for (b, r) in batched.validation.iter().zip(reference.validation.iter()) {
        assert_eq!(b.id, r.id);
        let scale = r.predicted_ms.abs().max(1.0);
        assert!(
            (b.predicted_ms - r.predicted_ms).abs() <= 1e-2 * scale,
            "id {}: batched-trained {} vs per-sample-trained {}",
            b.id,
            b.predicted_ms,
            r.predicted_ms
        );
    }
    let rel = (batched.rmse_ms - reference.rmse_ms).abs() / reference.rmse_ms.max(1e-6);
    assert!(
        rel <= 1e-2,
        "validation RMSE diverged: batched {} vs per-sample {}",
        batched.rmse_ms,
        reference.rmse_ms
    );
}

#[test]
fn engine_gnn_backend_batch_matches_per_instance_predictions() {
    use pg_engine::{AdviseRequest, Engine};

    let ds = tiny_dataset();
    let config = TrainConfig::fast();
    let (bundle, _) = TrainedModel::fit(&ds, &config).unwrap();

    let source = "void saxpy(float *x, float *y) {\n\
                  #pragma omp target teams distribute parallel for\n\
                  for (int i = 0; i < 65536; i++) { y[i] = y[i] + 2.0 * x[i]; }\n}";

    // Batched: the engine's advise path goes through predict_batch.
    let engine = Engine::builder()
        .platform(Platform::SummitV100)
        .backend(GnnBackend::new(bundle.clone(), Platform::SummitV100))
        .build();
    let report = engine
        .advise(&AdviseRequest::source("mine/saxpy", source))
        .unwrap();
    assert!(report.failures.is_empty());
    assert!(report.rankings.len() > 1, "sweep should produce candidates");

    // Per-instance reference: each candidate's graph, built from the full
    // source, priced alone in a batch of one.
    for ranked in &report.rankings {
        let graph = paragraph_core::to_relational(&paragraph_core::build(
            &pg_frontend::parse(source).unwrap(),
            &bundle.builder_config(ranked.launch.teams, ranked.launch.threads),
        ));
        let reference = bundle.predict_relational_batch(&[(
            &graph,
            ranked.launch.teams,
            ranked.launch.threads,
        )])[0];
        let scale = reference.abs().max(1.0);
        assert!(
            (ranked.predicted_ms as f32 - reference).abs() <= TOLERANCE * scale,
            "launch {:?}: batched {} vs per-instance {}",
            ranked.launch,
            ranked.predicted_ms,
            reference
        );
    }
}

#[test]
fn batch_with_failing_candidate_reports_in_place() {
    use pg_advisor::{KernelInstance, LaunchConfig, Variant};
    use pg_engine::Engine;

    let ds = tiny_dataset();
    let (bundle, _) = TrainedModel::fit(&ds, &TrainConfig::fast()).unwrap();
    let engine = Engine::builder()
        .platform(Platform::SummitV100)
        .backend(GnnBackend::new(bundle, Platform::SummitV100))
        .build();

    let instance = |source: &str| KernelInstance {
        application: "T".into(),
        kernel: "t".into(),
        variant: Variant::Gpu,
        sizes: Default::default(),
        launch: LaunchConfig {
            teams: 80,
            threads: 128,
        },
        source: source.to_string(),
        bytes_to_device: 0,
        bytes_from_device: 0,
    };
    let good = "void f(float *a) { for (int i = 0; i < 64; i++) { a[i] = 2.0 * a[i]; } }";
    let results =
        engine.predict_instances(&[instance(good), instance("not C at all"), instance(good)]);
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
    // The two identical good candidates must agree exactly.
    assert_eq!(results[0].as_ref().unwrap(), results[2].as_ref().unwrap());
}
