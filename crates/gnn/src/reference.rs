//! The pre-batching execution path, preserved verbatim: one fresh tape per
//! sample, parameters re-cloned onto the tape for every forward pass, edge
//! lists re-cloned out of the [`RelationalGraph`] on every call, concat-based
//! attention logits, a clone-heavy backward walk, the pre-blocking `ikj`
//! matmul kernel, and rayon fan-out over mini-batches with hand-averaged
//! gradients. The private `legacy` sub-module vendors the original tape
//! implementation so this baseline keeps paying the original costs even as
//! `pg_tensor::Tape` evolves.
//!
//! It exists for two reasons:
//!
//! * **golden equivalence** — the batched pipeline
//!   ([`crate::train::train_prepared`], [`ParaGraphModel::forward_batched`])
//!   is pinned against these functions to 1e-5 by
//!   `tests/batched_equivalence.rs`;
//! * **benchmark baseline** — `crates/bench/benches/gnn_training.rs` measures
//!   the batched path's speedup over this one and records it in
//!   `BENCH_gnn.json`.
//!
//! A [`PreparedDataset`] holds only the tensor form of each graph, so this
//! path builds its own samples ([`samples`]): each point's relational graph
//! rebuilt from the dataset, with the prepared set's side features and
//! target. Nothing in the serving or training path calls into this module.

use crate::model::ParaGraphModel;
use crate::rgat::{RgatLayer, ATTENTION_LEAKY_SLOPE};
use crate::train::{
    summarize, EpochStats, PredictionRecord, PreparedDataset, TrainConfig, TrainError,
    TrainedOutcome, TrainingHistory,
};
use legacy::{Tape, Var};
use paragraph_core::{RelationalGraph, Representation};
use pg_dataset::PlatformDataset;
use pg_tensor::{Adam, AdamConfig, Matrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// One sample as the reference path reads it: a relational graph, the
/// scaled side features and the encoded target.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSample {
    /// GNN-ready graph.
    pub graph: RelationalGraph,
    /// Scaled (teams, threads) side features.
    pub side: [f32; 2],
    /// Encoded (scaled) runtime target.
    pub target: f32,
}

/// The reference samples of `prepared`, which [`crate::prepare`] made from
/// `dataset` in `representation`: each point's relational graph, built
/// again, with the prepared set's side features and target. Aligned with
/// the prepared set's samples.
pub fn samples(
    dataset: &PlatformDataset,
    prepared: &PreparedDataset,
    representation: Representation,
) -> Vec<GraphSample> {
    assert_eq!(dataset.len(), prepared.meta.len(), "one point per sample");
    let graphs: Vec<RelationalGraph> = dataset
        .points
        .par_iter()
        .map(|point| point.build_relational(representation))
        .collect();
    graphs
        .into_iter()
        .zip(&prepared.sides)
        .zip(&prepared.targets)
        .map(|((graph, &side), &target)| GraphSample {
            graph,
            side,
            target,
        })
        .collect()
}

mod legacy {
    //! The original reverse-mode tape, vendored from the pre-batching
    //! `pg_tensor::autograd`: per-op `Vec` index clones, `Option<Matrix>`
    //! gradients materialised by cloning, a backward walk that clones every
    //! value, op and upstream gradient it touches, hash-map segment
    //! reductions, and the plain row-parallel `ikj` matmul kernel.

    use pg_tensor::Matrix;
    use rayon::prelude::*;
    use std::collections::HashMap;

    const PAR_MATMUL_THRESHOLD: usize = 64 * 64 * 64;

    /// The pre-blocking matmul: accumulating `ikj` over full rows.
    fn matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        assert_eq!(lhs.cols(), rhs.rows(), "legacy matmul shape mismatch");
        let m = lhs.rows();
        let k = lhs.cols();
        let n = rhs.cols();
        let mut out = Matrix::zeros(m, n);

        let work = m * k * n;
        let rhs_data = rhs.as_slice();
        let compute_row = |row_a: &[f32], row_out: &mut [f32]| {
            for (kk, &a) in row_a.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs_data[kk * n..(kk + 1) * n];
                for (o, &b) in row_out.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        };

        if work >= PAR_MATMUL_THRESHOLD {
            out.as_mut_slice()
                .par_chunks_mut(n)
                .zip(lhs.as_slice().par_chunks(k))
                .for_each(|(row_out, row_a)| compute_row(row_a, row_out));
        } else {
            for (row_out, row_a) in out
                .as_mut_slice()
                .chunks_mut(n)
                .zip(lhs.as_slice().chunks(k))
            {
                compute_row(row_a, row_out);
            }
        }
        out
    }

    /// Handle to a value on a [`Tape`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Var(usize);

    #[derive(Debug, Clone)]
    enum Op {
        Leaf,
        MatMul(usize, usize),
        Add(usize, usize),
        AddRowBroadcast(usize, usize),
        Relu(usize),
        LeakyRelu(usize, f32),
        ConcatCols(usize, usize),
        GatherRows(usize, Vec<usize>),
        ScatterAddRows(usize, Vec<usize>, usize),
        SegmentSoftmax { logits: usize, segments: Vec<usize> },
        MulColBroadcast(usize, usize),
        MeanRows(usize),
        MseLoss { pred: usize, target: Vec<f32> },
    }

    #[derive(Debug, Clone)]
    struct Node {
        value: Matrix,
        grad: Option<Matrix>,
        op: Op,
    }

    /// The original per-sample tape (the op set trimmed to what the model's
    /// forward pass records).
    #[derive(Debug, Default, Clone)]
    pub struct Tape {
        nodes: Vec<Node>,
    }

    impl Tape {
        pub fn new() -> Self {
            Self { nodes: Vec::new() }
        }

        fn push(&mut self, value: Matrix, op: Op) -> Var {
            self.nodes.push(Node {
                value,
                grad: None,
                op,
            });
            Var(self.nodes.len() - 1)
        }

        pub fn leaf(&mut self, value: Matrix) -> Var {
            self.push(value, Op::Leaf)
        }

        pub fn value(&self, v: Var) -> &Matrix {
            &self.nodes[v.0].value
        }

        pub fn grad(&self, v: Var) -> Matrix {
            let node = &self.nodes[v.0];
            node.grad
                .clone()
                .unwrap_or_else(|| Matrix::zeros(node.value.rows(), node.value.cols()))
        }

        pub fn matmul(&mut self, a: Var, b: Var) -> Var {
            let value = matmul(&self.nodes[a.0].value, &self.nodes[b.0].value);
            self.push(value, Op::MatMul(a.0, b.0))
        }

        pub fn add(&mut self, a: Var, b: Var) -> Var {
            let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
            self.push(value, Op::Add(a.0, b.0))
        }

        pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
            let value = self.nodes[a.0]
                .value
                .add_row_broadcast(&self.nodes[bias.0].value);
            self.push(value, Op::AddRowBroadcast(a.0, bias.0))
        }

        pub fn relu(&mut self, a: Var) -> Var {
            let value = self.nodes[a.0].value.map(|v| v.max(0.0));
            self.push(value, Op::Relu(a.0))
        }

        pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
            let value = self.nodes[a.0]
                .value
                .map(|v| if v > 0.0 { v } else { slope * v });
            self.push(value, Op::LeakyRelu(a.0, slope))
        }

        pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
            let value = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
            self.push(value, Op::ConcatCols(a.0, b.0))
        }

        pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
            let value = self.nodes[a.0].value.gather_rows(indices);
            self.push(value, Op::GatherRows(a.0, indices.to_vec()))
        }

        pub fn scatter_add_rows(&mut self, a: Var, indices: &[usize], out_rows: usize) -> Var {
            let value = self.nodes[a.0].value.scatter_add_rows(indices, out_rows);
            self.push(value, Op::ScatterAddRows(a.0, indices.to_vec(), out_rows))
        }

        pub fn segment_softmax(&mut self, logits: Var, segments: &[usize], priors: &[f32]) -> Var {
            let l = &self.nodes[logits.0].value;
            let value = segment_softmax_forward(l, segments, priors);
            self.push(
                value,
                Op::SegmentSoftmax {
                    logits: logits.0,
                    segments: segments.to_vec(),
                },
            )
        }

        pub fn mul_col_broadcast(&mut self, a: Var, s: Var) -> Var {
            let value = self.nodes[a.0]
                .value
                .mul_col_broadcast(&self.nodes[s.0].value);
            self.push(value, Op::MulColBroadcast(a.0, s.0))
        }

        pub fn mean_rows(&mut self, a: Var) -> Var {
            let value = self.nodes[a.0].value.mean_rows();
            self.push(value, Op::MeanRows(a.0))
        }

        pub fn mse_loss(&mut self, pred: Var, target: &[f32]) -> Var {
            let p = &self.nodes[pred.0].value;
            let mse = p
                .as_slice()
                .iter()
                .zip(target.iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / target.len().max(1) as f32;
            let value = Matrix::from_vec(1, 1, vec![mse]);
            self.push(
                value,
                Op::MseLoss {
                    pred: pred.0,
                    target: target.to_vec(),
                },
            )
        }

        fn accumulate(&mut self, idx: usize, delta: &Matrix) {
            let node = &mut self.nodes[idx];
            match &mut node.grad {
                Some(g) => g.add_assign(delta),
                None => node.grad = Some(delta.clone()),
            }
        }

        pub fn backward(&mut self, output: Var) {
            for node in &mut self.nodes {
                node.grad = None;
            }
            self.nodes[output.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));

            for i in (0..=output.0).rev() {
                let Some(grad_out) = self.nodes[i].grad.clone() else {
                    continue;
                };
                let op = self.nodes[i].op.clone();
                match op {
                    Op::Leaf => {}
                    Op::MatMul(a, b) => {
                        let a_val = self.nodes[a].value.clone();
                        let b_val = self.nodes[b].value.clone();
                        let da = matmul(&grad_out, &b_val.transpose());
                        let db = matmul(&a_val.transpose(), &grad_out);
                        self.accumulate(a, &da);
                        self.accumulate(b, &db);
                    }
                    Op::Add(a, b) => {
                        self.accumulate(a, &grad_out);
                        self.accumulate(b, &grad_out);
                    }
                    Op::AddRowBroadcast(a, bias) => {
                        self.accumulate(a, &grad_out);
                        let db = grad_out.sum_rows();
                        self.accumulate(bias, &db);
                    }
                    Op::Relu(a) => {
                        let mask = self.nodes[a].value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                        self.accumulate(a, &grad_out.hadamard(&mask));
                    }
                    Op::LeakyRelu(a, slope) => {
                        let mask = self.nodes[a]
                            .value
                            .map(|v| if v > 0.0 { 1.0 } else { slope });
                        self.accumulate(a, &grad_out.hadamard(&mask));
                    }
                    Op::ConcatCols(a, b) => {
                        let a_cols = self.nodes[a].value.cols();
                        let rows = grad_out.rows();
                        let mut da = Matrix::zeros(rows, a_cols);
                        let mut db = Matrix::zeros(rows, grad_out.cols() - a_cols);
                        for r in 0..rows {
                            da.row_mut(r).copy_from_slice(&grad_out.row(r)[..a_cols]);
                            db.row_mut(r).copy_from_slice(&grad_out.row(r)[a_cols..]);
                        }
                        self.accumulate(a, &da);
                        self.accumulate(b, &db);
                    }
                    Op::GatherRows(a, indices) => {
                        let rows = self.nodes[a].value.rows();
                        let da = grad_out.scatter_add_rows(&indices, rows);
                        self.accumulate(a, &da);
                    }
                    Op::ScatterAddRows(a, indices, _out_rows) => {
                        let da = grad_out.gather_rows(&indices);
                        self.accumulate(a, &da);
                    }
                    Op::SegmentSoftmax { logits, segments } => {
                        let alpha = self.nodes[i].value.clone();
                        let e = alpha.rows();
                        let mut seg_dot: HashMap<usize, f32> = HashMap::new();
                        for (k, &seg) in segments.iter().enumerate().take(e) {
                            *seg_dot.entry(seg).or_insert(0.0) +=
                                grad_out.get(k, 0) * alpha.get(k, 0);
                        }
                        let mut dl = Matrix::zeros(e, 1);
                        for k in 0..e {
                            let dot = seg_dot[&segments[k]];
                            dl.set(k, 0, alpha.get(k, 0) * (grad_out.get(k, 0) - dot));
                        }
                        self.accumulate(logits, &dl);
                    }
                    Op::MulColBroadcast(a, s) => {
                        let a_val = self.nodes[a].value.clone();
                        let s_val = self.nodes[s].value.clone();
                        let da = grad_out.mul_col_broadcast(&s_val);
                        let mut ds = Matrix::zeros(s_val.rows(), 1);
                        for r in 0..a_val.rows() {
                            let dot: f32 = grad_out
                                .row(r)
                                .iter()
                                .zip(a_val.row(r).iter())
                                .map(|(&g, &av)| g * av)
                                .sum();
                            ds.set(r, 0, dot);
                        }
                        self.accumulate(a, &da);
                        self.accumulate(s, &ds);
                    }
                    Op::MeanRows(a) => {
                        let rows = self.nodes[a].value.rows().max(1);
                        let scale = 1.0 / rows as f32;
                        let mut da =
                            Matrix::zeros(self.nodes[a].value.rows(), self.nodes[a].value.cols());
                        for r in 0..da.rows() {
                            for c in 0..da.cols() {
                                da.set(r, c, grad_out.get(0, c) * scale);
                            }
                        }
                        self.accumulate(a, &da);
                    }
                    Op::MseLoss { pred, target } => {
                        let g = grad_out.get(0, 0);
                        let p = self.nodes[pred].value.clone();
                        let n = target.len().max(1) as f32;
                        let mut dp = Matrix::zeros(p.rows(), p.cols());
                        for (idx, (&pv, &tv)) in p.as_slice().iter().zip(target.iter()).enumerate()
                        {
                            dp.as_mut_slice()[idx] = g * 2.0 * (pv - tv) / n;
                        }
                        self.accumulate(pred, &dp);
                    }
                }
            }
        }
    }

    /// The original hash-map segment softmax forward.
    fn segment_softmax_forward(logits: &Matrix, segments: &[usize], priors: &[f32]) -> Matrix {
        let e = logits.rows();
        let mut out = Matrix::zeros(e, 1);
        if e == 0 {
            return out;
        }
        let mut seg_max: HashMap<usize, f32> = HashMap::new();
        for (i, &seg) in segments.iter().enumerate().take(e) {
            let entry = seg_max.entry(seg).or_insert(f32::NEG_INFINITY);
            *entry = entry.max(logits.get(i, 0));
        }
        let mut seg_sum: HashMap<usize, f32> = HashMap::new();
        let mut numerators = vec![0.0f32; e];
        for i in 0..e {
            let m = seg_max[&segments[i]];
            let w = priors[i].max(1e-12);
            let num = w * (logits.get(i, 0) - m).exp();
            numerators[i] = num;
            *seg_sum.entry(segments[i]).or_insert(0.0) += num;
        }
        for i in 0..e {
            let denom = seg_sum[&segments[i]].max(1e-20);
            out.set(i, 0, numerators[i] / denom);
        }
        out
    }
}

/// Legacy per-relation RGAT convolution: gather both endpoints, project each
/// through `W`, concatenate, and run the joint attention vector over the
/// `E x 2H` concatenation.
fn layer_forward(
    layer: &RgatLayer,
    tape: &mut Tape,
    h: Var,
    params: &[Var],
    relations: &[(Vec<usize>, Vec<usize>, Vec<f32>)],
    node_count: usize,
) -> Var {
    let r = layer.num_relations();
    let w_rel = &params[0..r];
    let a_rel = &params[r..2 * r];
    let w_self = params[2 * r];
    let bias = params[2 * r + 1];

    let mut agg = tape.matmul(h, w_self);
    for (rel_idx, (src, dst, priors)) in relations.iter().enumerate() {
        if src.is_empty() {
            continue;
        }
        let hs = tape.gather_rows(h, src);
        let hd = tape.gather_rows(h, dst);
        let ms = tape.matmul(hs, w_rel[rel_idx]);
        let md = tape.matmul(hd, w_rel[rel_idx]);
        let cat = tape.concat_cols(ms, md);
        let raw_logits = tape.matmul(cat, a_rel[rel_idx]);
        let logits = tape.leaky_relu(raw_logits, ATTENTION_LEAKY_SLOPE);
        let alpha = tape.segment_softmax(logits, dst, priors);
        let prior_col = tape.leaf(Matrix::col_vector(priors));
        let messages = tape.mul_col_broadcast(ms, alpha);
        let messages = tape.mul_col_broadcast(messages, prior_col);
        let rel_agg = tape.scatter_add_rows(messages, dst, node_count);
        agg = tape.add(agg, rel_agg);
    }
    let with_bias = tape.add_row_broadcast(agg, bias);
    tape.relu(with_bias)
}

/// Legacy whole-model forward: parameters cloned to leaves, features
/// flattened and edge lists cloned out of the graph on every call.
fn forward_parts(
    model: &ParaGraphModel,
    tape: &mut Tape,
    graph: &RelationalGraph,
    side: [f32; 2],
    target: Option<f32>,
) -> (Var, Option<Var>, Vec<Var>) {
    let param_vars: Vec<Var> = model
        .parameters()
        .iter()
        .map(|p| tape.leaf((*p).clone()))
        .collect();

    let n = graph.node_count.max(1);
    let feat_dim = model.config.input_dim;
    let mut feature_data = Vec::with_capacity(n * feat_dim);
    for row in &graph.features {
        feature_data.extend_from_slice(row);
    }
    let features = Matrix::from_vec(graph.features.len(), feat_dim, feature_data);
    let mut h = tape.leaf(features);

    let relations: Vec<(Vec<usize>, Vec<usize>, Vec<f32>)> = graph
        .relations
        .iter()
        .enumerate()
        .map(|(idx, rel)| {
            (
                rel.src.clone(),
                rel.dst.clone(),
                graph.attention_priors(idx),
            )
        })
        .collect();

    let mut offset = 0;
    for layer in &model.rgat {
        let count = layer.parameter_count();
        let layer_params = &param_vars[offset..offset + count];
        h = layer_forward(layer, tape, h, layer_params, &relations, n);
        offset += count;
    }

    let graph_embedding = tape.mean_rows(h);

    let side_w = param_vars[offset];
    let side_b = param_vars[offset + 1];
    let head1_w = param_vars[offset + 2];
    let head1_b = param_vars[offset + 3];
    let head2_w = param_vars[offset + 4];
    let head2_b = param_vars[offset + 5];

    let side_input = tape.leaf(Matrix::row_vector(&side));
    let side_proj = tape.matmul(side_input, side_w);
    let side_proj = tape.add_row_broadcast(side_proj, side_b);
    let side_embedding = tape.relu(side_proj);

    let z = tape.concat_cols(graph_embedding, side_embedding);
    let h1 = tape.matmul(z, head1_w);
    let h1 = tape.add_row_broadcast(h1, head1_b);
    let h1 = tape.relu(h1);
    let out = tape.matmul(h1, head2_w);
    let prediction = tape.add_row_broadcast(out, head2_b);

    let loss = target.map(|t| tape.mse_loss(prediction, &[t]));
    (prediction, loss, param_vars)
}

/// Legacy inference over a borrowed graph (fresh tape per call).
pub fn predict_graph(model: &ParaGraphModel, graph: &RelationalGraph, side: [f32; 2]) -> f32 {
    let mut tape = Tape::new();
    let (prediction, _, _) = forward_parts(model, &mut tape, graph, side, None);
    tape.value(prediction).get(0, 0)
}

/// Legacy loss and parameter gradients for one sample (fresh tape, cloned
/// gradient readout).
pub fn loss_and_gradients(model: &ParaGraphModel, sample: &GraphSample) -> (f32, Vec<Matrix>) {
    let mut tape = Tape::new();
    let (_, loss, param_vars) = forward_parts(
        model,
        &mut tape,
        &sample.graph,
        sample.side,
        Some(sample.target),
    );
    let loss = loss.expect("loss requested");
    tape.backward(loss);
    let grads = param_vars.iter().map(|&v| tape.grad(v)).collect();
    (tape.value(loss).get(0, 0), grads)
}

/// Legacy evaluation: one tape per sample, rayon fan-out. `samples` are
/// the reference samples of `prepared` ([`samples`]).
pub fn evaluate(
    model: &ParaGraphModel,
    samples: &[GraphSample],
    prepared: &PreparedDataset,
    indices: &[usize],
) -> Vec<PredictionRecord> {
    indices
        .par_iter()
        .map(|&i| {
            let sample = &samples[i];
            let encoded = predict_graph(model, &sample.graph, sample.side);
            let predicted_ms = prepared.target_transform.decode(encoded).max(0.0);
            let meta = &prepared.meta[i];
            PredictionRecord {
                id: meta.id,
                application: meta.application.clone(),
                variant: meta.variant.clone(),
                actual_ms: meta.runtime_ms,
                predicted_ms,
            }
        })
        .collect()
}

/// The legacy training loop: rayon-parallel per-sample gradients,
/// hand-averaged, one fresh tape per sample per step. `samples` are the
/// reference samples of `prepared` ([`samples`]).
pub fn train_prepared(
    samples: &[GraphSample],
    prepared: &PreparedDataset,
    config: &TrainConfig,
) -> Result<TrainedOutcome, TrainError> {
    if config.epochs == 0 {
        return Err(TrainError::ZeroEpochs);
    }
    if prepared.train_idx.is_empty() {
        return Err(TrainError::EmptyTrainingSplit);
    }
    let mut model = ParaGraphModel::new(config.model, config.seed);
    let mut adam = Adam::new(AdamConfig {
        learning_rate: config.learning_rate,
        ..AdamConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7261_696e);
    let mut history = TrainingHistory::default();

    let mut train_order = prepared.train_idx.clone();
    for epoch in 1..=config.epochs {
        train_order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;

        for batch in train_order.chunks(config.batch_size.max(1)) {
            let results: Vec<(f32, Vec<Matrix>)> = batch
                .par_iter()
                .map(|&i| loss_and_gradients(&model, &samples[i]))
                .collect();

            let batch_len = results.len().max(1) as f32;
            let mut mean_grads: Vec<Matrix> = results[0].1.clone();
            let mut batch_loss = results[0].0;
            for (loss, grads) in results.iter().skip(1) {
                batch_loss += *loss;
                for (acc, g) in mean_grads.iter_mut().zip(grads.iter()) {
                    acc.add_assign(g);
                }
            }
            for g in &mut mean_grads {
                *g = g.scale(1.0 / batch_len);
            }
            epoch_loss += (batch_loss / batch_len) as f64;
            batches += 1;

            adam.begin_step();
            for (key, (param, grad)) in model
                .parameters_mut()
                .into_iter()
                .zip(mean_grads.iter())
                .enumerate()
            {
                adam.step(key, param, grad);
            }
        }

        let val_records = evaluate(&model, samples, prepared, &prepared.val_idx);
        let (rmse_ms, norm_rmse, _) = summarize(&val_records);
        history.epochs.push(EpochStats {
            epoch,
            train_loss: (epoch_loss / batches.max(1) as f64) as f32,
            val_rmse_ms: rmse_ms,
            val_norm_rmse: norm_rmse,
        });
    }

    let validation = evaluate(&model, samples, prepared, &prepared.val_idx);
    let (rmse_ms, norm_rmse, runtime_range_ms) = summarize(&validation);
    Ok(TrainedOutcome {
        model,
        history,
        validation,
        rmse_ms,
        norm_rmse,
        runtime_range_ms,
    })
}
