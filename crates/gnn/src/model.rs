//! The ParaGraph runtime-prediction model (Section IV-B of the paper):
//! three RGAT convolution layers to embed the graph, a fully connected
//! embedding of the two launch-configuration side features (number of teams
//! and threads), and a fully connected head that maps the concatenation of
//! both embeddings to the predicted runtime.

use crate::batch::BatchedGraph;
use crate::rgat::RgatLayer;
use paragraph_core::NODE_FEATURE_DIM;
use pg_tensor::{init, Matrix, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hyper-parameters of the ParaGraph model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Node-feature input dimension.
    pub input_dim: usize,
    /// Hidden dimension of the RGAT layers.
    pub hidden_dim: usize,
    /// Number of RGAT convolution layers (the paper uses three).
    pub num_layers: usize,
    /// Number of edge types (relations).
    pub num_relations: usize,
    /// Dimension of the side-feature (teams, threads) embedding.
    pub side_dim: usize,
    /// Dimension of the fully connected head.
    pub head_dim: usize,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            input_dim: NODE_FEATURE_DIM,
            hidden_dim: 24,
            num_layers: 3,
            num_relations: paragraph_core::EdgeType::COUNT,
            side_dim: 8,
            head_dim: 32,
        }
    }
}

impl ModelConfig {
    /// A smaller configuration for fast tests.
    pub fn tiny() -> Self {
        Self {
            hidden_dim: 8,
            num_layers: 2,
            side_dim: 4,
            head_dim: 8,
            ..Self::default()
        }
    }
}

/// A fully connected layer (weights + bias).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct DenseLayer {
    /// Weight matrix (`in x out`).
    pub w: Matrix,
    /// Bias (`1 x out`).
    pub b: Matrix,
}

impl DenseLayer {
    fn new(rng: &mut StdRng, input: usize, output: usize) -> Self {
        Self {
            w: init::xavier_uniform(rng, input, output),
            b: Matrix::zeros(1, output),
        }
    }
}

/// The full ParaGraph runtime-prediction model.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ParaGraphModel {
    /// Hyper-parameters.
    pub config: ModelConfig,
    /// Graph convolution layers.
    pub rgat: Vec<RgatLayer>,
    /// Side-feature (teams, threads) embedding layer.
    pub side: DenseLayer,
    /// First fully connected head layer.
    pub head1: DenseLayer,
    /// Output layer producing the scalar runtime prediction.
    pub head2: DenseLayer,
}

impl ParaGraphModel {
    /// Create a model with freshly initialised parameters.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rgat = Vec::with_capacity(config.num_layers);
        for layer in 0..config.num_layers {
            let input = if layer == 0 {
                config.input_dim
            } else {
                config.hidden_dim
            };
            rgat.push(RgatLayer::new(
                &mut rng,
                config.num_relations,
                input,
                config.hidden_dim,
            ));
        }
        let side = DenseLayer::new(&mut rng, 2, config.side_dim);
        let head1 = DenseLayer::new(
            &mut rng,
            config.hidden_dim + config.side_dim,
            config.head_dim,
        );
        let head2 = DenseLayer::new(&mut rng, config.head_dim, 1);
        Self {
            config,
            rgat,
            side,
            head1,
            head2,
        }
    }

    /// Borrow every trainable matrix in a stable order.
    pub fn parameters(&self) -> Vec<&Matrix> {
        let mut out = Vec::new();
        for layer in &self.rgat {
            out.extend(layer.parameters());
        }
        out.push(&self.side.w);
        out.push(&self.side.b);
        out.push(&self.head1.w);
        out.push(&self.head1.b);
        out.push(&self.head2.w);
        out.push(&self.head2.b);
        out
    }

    /// Mutably borrow every trainable matrix, in the same order as
    /// [`ParaGraphModel::parameters`].
    pub fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::new();
        for layer in &mut self.rgat {
            out.extend(layer.parameters_mut());
        }
        out.push(&mut self.side.w);
        out.push(&mut self.side.b);
        out.push(&mut self.head1.w);
        out.push(&mut self.head1.b);
        out.push(&mut self.head2.w);
        out.push(&mut self.head2.b);
        out
    }

    /// Total number of scalar parameters (for reporting).
    pub fn parameter_scalar_count(&self) -> usize {
        self.parameters().iter().map(|m| m.len()).sum()
    }

    /// Register every trainable matrix as a tape leaf (copying into the
    /// tape's retained slot buffers), in the order of
    /// [`ParaGraphModel::parameters`]. One call serves a whole batch — the
    /// old execution path re-cloned all parameters once per sample.
    fn register_parameters(&self, tape: &mut Tape) -> Vec<Var> {
        self.parameters()
            .into_iter()
            .map(|p| tape.leaf_copy(p))
            .collect()
    }

    /// Run a forward pass over a batched (disjoint-union) graph, producing a
    /// `B x 1` prediction column, the batch-mean MSE loss when `targets` is
    /// given, and the parameter leaves (aligned with
    /// [`ParaGraphModel::parameters`]) for gradient readout.
    ///
    /// Every per-node and per-edge computation is row-identical to a
    /// per-sample pass over each member graph, so batched predictions match
    /// the per-sample path to float precision; the batch-mean loss equals
    /// the mean of per-sample losses, and its gradients equal the mean of
    /// per-sample gradients.
    pub fn forward_batched(
        &self,
        tape: &mut Tape,
        batch: &BatchedGraph,
        targets: Option<&[f32]>,
    ) -> (Var, Option<Var>, Vec<Var>) {
        let param_vars = self.register_parameters(tape);
        let n = batch.total_nodes();

        // Input features are constants: no-grad leaf, so backward prunes the
        // whole d(features) branch of the first layer.
        let mut h = tape.leaf_copy_no_grad(&batch.features);

        // RGAT stack over the disjoint union. Each layer's forward pass is
        // timed into the `gnn_forward` stage histogram; with observability
        // disabled the timer is one atomic load and no clock read.
        let mut offset = 0;
        for layer in &self.rgat {
            let timer = pg_obs::obs().timer(pg_obs::Stage::GnnForward);
            let count = layer.parameter_count();
            let layer_params = &param_vars[offset..offset + count];
            h = layer.forward(tape, h, layer_params, &batch.relations, n);
            offset += count;
            timer.finish();
        }

        // Readout: per-graph mean over that graph's node rows.
        let graph_embedding = tape.segment_mean_rows_shared(h, Arc::clone(&batch.offsets));

        // Side features (teams, threads), one row per graph.
        let side_w = param_vars[offset];
        let side_b = param_vars[offset + 1];
        let head1_w = param_vars[offset + 2];
        let head1_b = param_vars[offset + 3];
        let head2_w = param_vars[offset + 4];
        let head2_b = param_vars[offset + 5];

        let side_input = tape.leaf_copy_no_grad(&batch.sides);
        let side_proj = tape.matmul(side_input, side_w);
        let side_proj = tape.add_row_broadcast(side_proj, side_b);
        let side_embedding = tape.relu(side_proj);

        // Concatenate and run the head.
        let z = tape.concat_cols(graph_embedding, side_embedding);
        let h1 = tape.matmul(z, head1_w);
        let h1 = tape.add_row_broadcast(h1, head1_b);
        let h1 = tape.relu(h1);
        let out = tape.matmul(h1, head2_w);
        let prediction = tape.add_row_broadcast(out, head2_b);

        let loss = targets.map(|t| {
            assert_eq!(t.len(), batch.batch_size(), "one target per graph");
            tape.mse_loss(prediction, t)
        });
        (prediction, loss, param_vars)
    }

    /// Predict the encoded runtimes of a whole batch on a caller-owned tape
    /// (the tape is reset first, so one tape amortises across calls).
    pub fn predict_batched(&self, tape: &mut Tape, batch: &BatchedGraph) -> Vec<f32> {
        tape.reset();
        let (prediction, _, _) = self.forward_batched(tape, batch, None);
        tape.value(prediction).col(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PreparedGraph;
    use paragraph_core::{build_default, to_relational};
    use pg_frontend::parse;

    /// One training sample: a prepared graph, its scaled side features and
    /// its encoded target.
    struct Sample {
        graph: PreparedGraph,
        side: [f32; 2],
        target: f32,
    }

    fn sample_from_source(src: &str, side: [f32; 2], target: f32) -> Sample {
        let ast = parse(src).unwrap();
        let graph = PreparedGraph::from_relational(&to_relational(&build_default(&ast)));
        Sample {
            graph,
            side,
            target,
        }
    }

    fn small_sample(target: f32) -> Sample {
        sample_from_source(
            "void f(float *a) { for (int i = 0; i < 64; i++) { a[i] = a[i] * 2.0 + 1.0; } }",
            [0.3, 0.7],
            target,
        )
    }

    /// The encoded prediction of a batch of one.
    fn predict_one(model: &ParaGraphModel, sample: &Sample) -> f32 {
        let batch = BatchedGraph::single(&sample.graph, sample.side);
        model.predict_batched(&mut Tape::new(), &batch)[0]
    }

    /// The loss and parameter gradients of a batch of one, aligned with
    /// [`ParaGraphModel::parameters`].
    fn loss_and_gradients_one(model: &ParaGraphModel, sample: &Sample) -> (f32, Vec<Matrix>) {
        let batch = BatchedGraph::single(&sample.graph, sample.side);
        let mut tape = Tape::new();
        let (_, loss, param_vars) =
            model.forward_batched(&mut tape, &batch, Some(&[sample.target]));
        let loss = loss.expect("targets were supplied");
        tape.backward(loss);
        let grads = param_vars.iter().map(|&v| tape.grad(v)).collect();
        (tape.value(loss).get(0, 0), grads)
    }

    #[test]
    fn model_has_expected_parameter_structure() {
        let model = ParaGraphModel::new(ModelConfig::default(), 1);
        // 3 RGAT layers * (8 W + 8 a + W_self + bias) + side(2) + head1(2) + head2(2).
        assert_eq!(model.parameters().len(), 3 * 18 + 6);
        assert!(model.parameter_scalar_count() > 1000);
        let shapes: Vec<_> = model.parameters().iter().map(|m| m.shape()).collect();
        let mut model2 = model.clone();
        let shapes_mut: Vec<_> = model2.parameters_mut().iter().map(|m| m.shape()).collect();
        assert_eq!(shapes, shapes_mut);
    }

    #[test]
    fn prediction_is_finite_and_deterministic() {
        let model = ParaGraphModel::new(ModelConfig::tiny(), 7);
        let sample = small_sample(0.4);
        let a = predict_one(&model, &sample);
        let b = predict_one(&model, &sample);
        assert!(a.is_finite());
        assert_eq!(a, b);
    }

    #[test]
    fn gradients_have_parameter_shapes_and_are_nonzero() {
        let model = ParaGraphModel::new(ModelConfig::tiny(), 3);
        let sample = small_sample(0.9);
        let (loss, grads) = loss_and_gradients_one(&model, &sample);
        assert!(loss.is_finite() && loss >= 0.0);
        assert_eq!(grads.len(), model.parameters().len());
        for (g, p) in grads.iter().zip(model.parameters()) {
            assert_eq!(g.shape(), p.shape());
        }
        let total_grad_norm: f32 = grads.iter().map(|g| g.frobenius_norm()).sum();
        assert!(
            total_grad_norm > 0.0,
            "at least some gradients must be non-zero"
        );
    }

    #[test]
    fn different_graphs_produce_different_predictions() {
        let model = ParaGraphModel::new(ModelConfig::tiny(), 5);
        let a = small_sample(0.1);
        let b = sample_from_source(
            "void g(float *a, float *b) { for (int i = 0; i < 2048; i++) { for (int j = 0; j < 2048; j++) { a[i * 2048 + j] = b[j * 2048 + i]; } } }",
            [0.3, 0.7],
            0.1,
        );
        assert_ne!(predict_one(&model, &a), predict_one(&model, &b));
    }

    #[test]
    fn side_features_influence_the_prediction() {
        let model = ParaGraphModel::new(ModelConfig::tiny(), 5);
        let mut few_threads = small_sample(0.5);
        few_threads.side = [0.0, 0.05];
        let mut many_threads = small_sample(0.5);
        many_threads.side = [1.0, 1.0];
        assert_ne!(
            predict_one(&model, &few_threads),
            predict_one(&model, &many_threads)
        );
    }

    #[test]
    fn single_sample_overfits_with_repeated_steps() {
        use pg_tensor::{Adam, AdamConfig};
        let mut model = ParaGraphModel::new(ModelConfig::tiny(), 11);
        let sample = small_sample(0.75);
        let mut adam = Adam::new(AdamConfig {
            learning_rate: 5e-3,
            ..AdamConfig::default()
        });
        let mut last_loss = f32::INFINITY;
        for _ in 0..150 {
            let (loss, grads) = loss_and_gradients_one(&model, &sample);
            last_loss = loss;
            adam.begin_step();
            for (key, (param, grad)) in model
                .parameters_mut()
                .into_iter()
                .zip(grads.iter())
                .enumerate()
            {
                adam.step(key, param, grad);
            }
        }
        assert!(
            last_loss < 1e-3,
            "model failed to overfit a single sample, final loss {last_loss}"
        );
    }
}
