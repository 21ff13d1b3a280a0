//! Relational Graph Attention (RGAT) convolution layer.
//!
//! The paper adapts RGAT (Busbridge et al., 2019): attention logits are
//! computed **per edge type**, normalised over the incoming edges of each
//! destination node within that edge type, and the per-relation aggregations
//! are summed together with a self-connection. ParaGraph's edge weights enter
//! as multiplicative attention priors on the `Child` relation.

use crate::batch::PreparedRelation;
use pg_tensor::{init, Matrix, Tape, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Negative slope of the LeakyReLU applied to attention logits (GAT default).
pub const ATTENTION_LEAKY_SLOPE: f32 = 0.2;

/// One RGAT convolution layer.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RgatLayer {
    /// Per-relation projection matrices (`F_in x F_out`).
    pub w_rel: Vec<Matrix>,
    /// Per-relation attention vectors (`2*F_out x 1`).
    pub a_rel: Vec<Matrix>,
    /// Self-connection projection (`F_in x F_out`).
    pub w_self: Matrix,
    /// Bias (`1 x F_out`).
    pub bias: Matrix,
    /// Input feature dimension.
    pub input_dim: usize,
    /// Output feature dimension.
    pub output_dim: usize,
}

impl RgatLayer {
    /// Create a layer with Xavier-initialised projections.
    pub fn new(
        rng: &mut StdRng,
        num_relations: usize,
        input_dim: usize,
        output_dim: usize,
    ) -> Self {
        let w_rel = (0..num_relations)
            .map(|_| init::xavier_uniform(rng, input_dim, output_dim))
            .collect();
        let a_rel = (0..num_relations)
            .map(|_| init::small_uniform(rng, 2 * output_dim, 1, 0.1))
            .collect();
        Self {
            w_rel,
            a_rel,
            w_self: init::xavier_uniform(rng, input_dim, output_dim),
            bias: Matrix::zeros(1, output_dim),
            input_dim,
            output_dim,
        }
    }

    /// Number of relations the layer models.
    pub fn num_relations(&self) -> usize {
        self.w_rel.len()
    }

    /// Total number of trainable matrices in this layer.
    pub fn parameter_count(&self) -> usize {
        2 * self.w_rel.len() + 2
    }

    /// Borrow every trainable matrix, in a stable order.
    pub fn parameters(&self) -> Vec<&Matrix> {
        let mut out: Vec<&Matrix> = Vec::with_capacity(self.parameter_count());
        out.extend(self.w_rel.iter());
        out.extend(self.a_rel.iter());
        out.push(&self.w_self);
        out.push(&self.bias);
        out
    }

    /// Mutably borrow every trainable matrix, in the same order as
    /// [`RgatLayer::parameters`].
    pub fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = Vec::with_capacity(2 * self.w_rel.len() + 2);
        out.extend(self.w_rel.iter_mut());
        out.extend(self.a_rel.iter_mut());
        out.push(&mut self.w_self);
        out.push(&mut self.bias);
        out
    }

    /// Forward pass on the tape.
    ///
    /// * `h` — node features (`N x F_in`) already on the tape,
    /// * `params` — the layer's parameters as tape leaves, in the order of
    ///   [`RgatLayer::parameters`],
    /// * `relations` — prepared per-relation edge lists (single graph or a
    ///   disjoint-union batch; the layer does not care — shifted indices and
    ///   per-destination softmax segments batch transparently).
    ///
    /// The interned `Arc` patterns and index slices are recorded on the tape
    /// by refcount, so a forward pass copies no edge list.
    ///
    /// # Kernel structure
    ///
    /// The attention logit `leakyrelu(a^T [W h_src | W h_dst])` decomposes
    /// into `leakyrelu(h_src (W a_src) + h_dst (W a_dst))`, so the layer
    /// precontracts `p = W a_src` and `q = W a_dst` (`F_in x 1` each) and
    /// never materialises the `E x 2H` concatenation (the standard GAT
    /// factorisation). Every relation then runs the same sparse chain over
    /// its CSR pattern:
    ///
    /// 1. SDDMM logits `h_src · p + h_dst · q`, computed only for stored
    ///    entries, reading source rows through the pattern's source list;
    /// 2. leaky ReLU, softmax over contiguous CSR row extents, then the
    ///    prior scale;
    /// 3. project only the relation's distinct sources,
    ///    `gather(h, sources) W` — nodes that send no message on this
    ///    relation are never projected for it;
    /// 4. aggregate as the sparse × dense product `agg += A(scale) · proj`.
    ///    Backward pulls through the pattern's transpose view instead of
    ///    scattering.
    ///
    /// Returns the new node representations (`N x F_out`).
    pub fn forward(
        &self,
        tape: &mut Tape,
        h: Var,
        params: &[Var],
        relations: &[PreparedRelation],
        node_count: usize,
    ) -> Var {
        assert_eq!(
            params.len(),
            self.parameter_count(),
            "parameter count mismatch"
        );
        assert_eq!(
            relations.len(),
            self.num_relations(),
            "relation count mismatch"
        );
        let r = self.num_relations();
        let w_rel = &params[0..r];
        let a_rel = &params[r..2 * r];
        let w_self = params[2 * r];
        let bias = params[2 * r + 1];
        let out_dim = self.output_dim;

        // Self connection: H * W_self.
        let mut agg = tape.matmul(h, w_self);

        for (rel_idx, rel) in relations.iter().enumerate() {
            if rel.is_empty() {
                continue;
            }
            let adj = rel.adj();
            debug_assert_eq!(adj.rows(), node_count, "CSR/node-count mismatch");
            let w = w_rel[rel_idx];
            let a_src = tape.slice_rows(a_rel[rel_idx], 0, out_dim);
            let a_dst = tape.slice_rows(a_rel[rel_idx], out_dim, 2 * out_dim);
            let p = tape.matmul(w, a_src);
            let q = tape.matmul(w, a_dst);
            let raw_logits = tape.sddmm_edge_logits(h, p, q, adj);
            let logits = tape.leaky_relu(raw_logits, ATTENTION_LEAKY_SLOPE);
            let alpha = tape.csr_segment_softmax(logits, adj, rel.priors_csr().as_slice());
            // The edge priors (log-compressed ParaGraph weights) scale the
            // messages *in addition* to steering the attention — Child
            // edges form a tree, so with one incoming edge per destination
            // the softmax alone would normalise the weight information
            // away entirely.
            let prior_col = tape.leaf_copy_no_grad(rel.priors_csr());
            let scale = tape.hadamard(alpha, prior_col);
            let senders = tape.gather_rows_shared(h, Arc::clone(adj.sources()));
            let proj = tape.matmul(senders, w);
            agg = tape.spmm_csr(proj, scale, Some(agg), adj);
        }

        let with_bias = tape.add_row_broadcast(agg, bias);
        tape.relu(with_bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rel(
        src: Vec<usize>,
        dst: Vec<usize>,
        priors: Vec<f32>,
        node_count: usize,
    ) -> PreparedRelation {
        PreparedRelation::new(&src, &dst, &priors, node_count)
    }

    fn simple_relations() -> Vec<PreparedRelation> {
        vec![
            // Relation 0: a small tree 0->1, 0->2, 1->3 with weights.
            rel(vec![0, 0, 1], vec![1, 2, 3], vec![1.0, 2.0, 4.0], 4),
            // Relation 1: a chain 1->2->3.
            rel(vec![1, 2], vec![2, 3], vec![1.0, 1.0], 4),
            // Relation 2: empty.
            rel(vec![], vec![], vec![], 4),
        ]
    }

    #[test]
    fn forward_produces_expected_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = RgatLayer::new(&mut rng, 3, 6, 4);
        assert_eq!(layer.parameter_count(), 8);
        let mut tape = Tape::new();
        let h = tape.leaf(Matrix::from_fn(4, 6, |r, c| (r + c) as f32 * 0.1));
        let params: Vec<Var> = layer
            .parameters()
            .iter()
            .map(|p| tape.leaf((*p).clone()))
            .collect();
        let out = layer.forward(&mut tape, h, &params, &simple_relations(), 4);
        assert_eq!(tape.value(out).shape(), (4, 4));
        assert!(!tape.value(out).has_non_finite());
    }

    #[test]
    fn output_is_nonnegative_due_to_relu() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = RgatLayer::new(&mut rng, 3, 5, 3);
        let mut tape = Tape::new();
        let h = tape.leaf(Matrix::from_fn(4, 5, |r, c| ((r * 3 + c) as f32).sin()));
        let params: Vec<Var> = layer
            .parameters()
            .iter()
            .map(|p| tape.leaf((*p).clone()))
            .collect();
        let out = layer.forward(&mut tape, h, &params, &simple_relations(), 4);
        assert!(tape.value(out).min() >= 0.0);
    }

    #[test]
    fn edge_priors_change_the_output() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = RgatLayer::new(&mut rng, 1, 4, 4);
        let h0 = Matrix::from_fn(3, 4, |r, c| (r as f32 - c as f32) * 0.3);
        // Node 2 receives messages from nodes 0 and 1; the prior decides who
        // dominates.
        let run = |priors: Vec<f32>| -> Matrix {
            let mut tape = Tape::new();
            let h = tape.leaf(h0.clone());
            let params: Vec<Var> = layer
                .parameters()
                .iter()
                .map(|p| tape.leaf((*p).clone()))
                .collect();
            let rels = vec![rel(vec![0, 1], vec![2, 2], priors, 3)];
            let out = layer.forward(&mut tape, h, &params, &rels, 3);
            tape.value(out).clone()
        };
        let balanced = run(vec![1.0, 1.0]);
        let skewed = run(vec![100.0, 1.0]);
        assert!(
            !balanced.approx_eq(&skewed, 1e-6),
            "priors must influence attention"
        );
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let mut rng = StdRng::seed_from_u64(11);
        let layer = RgatLayer::new(&mut rng, 2, 4, 3);
        let mut tape = Tape::new();
        let h = tape.leaf(Matrix::from_fn(4, 4, |r, c| {
            (r * 4 + c) as f32 * 0.05 + 0.1
        }));
        let params: Vec<Var> = layer
            .parameters()
            .iter()
            .map(|p| tape.leaf((*p).clone()))
            .collect();
        // Destinations are shared within each relation so the attention
        // softmax has more than one competitor and its parameters receive a
        // gradient (a single-edge segment has a constant alpha of 1).
        let rels = vec![
            rel(vec![0, 1, 2], vec![3, 3, 3], vec![1.0, 2.0, 3.0], 4),
            rel(vec![3, 2, 1], vec![0, 0, 0], vec![1.0, 1.0, 1.0], 4),
        ];
        let out = layer.forward(&mut tape, h, &params, &rels, 4);
        let pooled = tape.mean_rows(out);
        let loss = tape.mse_loss(pooled, &[0.5; 3]);
        tape.backward(loss);
        // Projection matrices and the self/bias parameters must all receive
        // gradient; attention vectors receive gradient as a group (an
        // individual relation can be blocked by a dead ReLU).
        let r = layer.num_relations();
        for (i, &p) in params.iter().enumerate().take(r) {
            assert!(
                tape.grad(p).frobenius_norm() > 0.0,
                "W_rel[{i}] received no gradient"
            );
        }
        let attention_grad: f32 = params[r..2 * r]
            .iter()
            .map(|&p| tape.grad(p).frobenius_norm())
            .sum();
        assert!(
            attention_grad > 0.0,
            "attention vectors received no gradient"
        );
        assert!(
            tape.grad(params[2 * r]).frobenius_norm() > 0.0,
            "W_self received no gradient"
        );
        // Node features must also receive gradient.
        assert!(tape.grad(h).frobenius_norm() > 0.0);
    }

    #[test]
    fn parameters_and_parameters_mut_agree_in_order() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut layer = RgatLayer::new(&mut rng, 3, 4, 4);
        let shapes: Vec<(usize, usize)> = layer.parameters().iter().map(|m| m.shape()).collect();
        let shapes_mut: Vec<(usize, usize)> =
            layer.parameters_mut().iter().map(|m| m.shape()).collect();
        assert_eq!(shapes, shapes_mut);
        assert_eq!(shapes.len(), layer.parameter_count());
    }
}
