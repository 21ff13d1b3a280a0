//! Graph mini-batching: the disjoint-union encoding that lets one tape
//! forward/backward serve a whole mini-batch (training) or a whole candidate
//! set (engine serving) instead of one tape per sample.
//!
//! A batch of relational graphs is a single larger graph: node feature rows
//! are stacked, per-relation edge lists are concatenated with their `src` /
//! `dst` indices shifted by each graph's node offset, and the per-graph
//! boundaries are kept as a `B+1` offset vector. Because the union is
//! disjoint, every per-node computation (projection, attention softmax over
//! incoming edges, scatter aggregation) is unchanged — rows of the batched
//! matrices are computed exactly as they would be in a per-sample pass, so
//! batched predictions match the per-sample path to float precision. Only
//! the readout needs a batched op: `segment_mean_rows` pools each graph's
//! row range into its own embedding row.
//!
//! [`PreparedGraph`] is the once-per-sample conversion of a
//! [`RelationalGraph`]: the feature matrix is flattened, edge index lists
//! are interned as `Arc<[usize]>`, each relation's CSR pattern (with its
//! source list) is built, and the attention priors are materialised as a
//! column matrix in CSR order. Recording any of it on the autograd tape is
//! a refcount bump, not a copy. Training converts every sample once in
//! `prepare`; the old path re-cloned every edge list on every forward pass
//! of every epoch.

use paragraph_core::RelationalGraph;
use pg_tensor::{Matrix, SparseMatrix};
use std::sync::Arc;

/// One relation's edges, ready for the tape: the edge list in its original
/// order (what batching concatenates), plus its CSR pattern over the
/// graph's node set (rows = destinations, columns compressed to the
/// relation's distinct sources) with the attention priors permuted into CSR
/// order. The RGAT layer records only the CSR half. Built once per prepared
/// graph / batch via [`PreparedRelation::new`].
#[derive(Debug, Clone)]
pub struct PreparedRelation {
    /// Source node per edge.
    pub src: Arc<[usize]>,
    /// Destination node per edge.
    pub dst: Arc<[usize]>,
    /// Attention priors per edge (`E x 1`).
    pub priors: Matrix,
    /// CSR pattern of the same edges (kept consistent with `src`/`dst` by
    /// construction, hence not public); `Arc` so recording it on a tape op
    /// is a refcount bump.
    adj: Arc<SparseMatrix>,
    /// Attention priors in CSR order (`E x 1`).
    priors_csr: Matrix,
}

impl PreparedRelation {
    /// Intern a relation's edge list and build its CSR pattern over a
    /// `node_count`-node graph. `priors` is the `E x 1` prior column in
    /// edge-list order; its CSR permutation is materialised here so the
    /// hot path never chases the permutation.
    pub fn new(src: Arc<[usize]>, dst: Arc<[usize]>, priors: Matrix, node_count: usize) -> Self {
        let adj = Arc::new(SparseMatrix::from_edges(node_count, node_count, &src, &dst));
        let priors_csr = Matrix::col_vector(&adj.permute_to_csr(priors.as_slice()));
        Self {
            src,
            dst,
            priors,
            adj,
            priors_csr,
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// True when the relation has no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// The CSR pattern of this relation's edges; its
    /// [`SparseMatrix::sources`] are the nodes that send a message.
    pub fn adj(&self) -> &Arc<SparseMatrix> {
        &self.adj
    }

    /// Attention priors in CSR order (`E x 1`).
    pub fn priors_csr(&self) -> &Matrix {
        &self.priors_csr
    }
}

/// A [`RelationalGraph`] converted once into the model's tensor-ready form.
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    /// `node_count x NODE_FEATURE_DIM` feature matrix.
    pub features: Matrix,
    /// One prepared edge list per relation.
    pub relations: Vec<PreparedRelation>,
    /// Number of nodes.
    pub node_count: usize,
}

impl PreparedGraph {
    /// Convert a relational graph: flatten features, intern edge lists and
    /// materialise attention priors. Do this once per sample, not per
    /// forward pass.
    pub fn from_relational(graph: &RelationalGraph) -> Self {
        debug_assert_eq!(
            graph.features.len(),
            graph.node_count,
            "one feature row per node"
        );
        let feat_dim = graph
            .features
            .first()
            .map_or(paragraph_core::NODE_FEATURE_DIM, Vec::len);
        let mut data = Vec::with_capacity(graph.features.len() * feat_dim);
        for row in &graph.features {
            data.extend_from_slice(row);
        }
        let features = Matrix::from_vec(graph.features.len(), feat_dim, data);
        let relations = graph
            .relations
            .iter()
            .enumerate()
            .map(|(idx, rel)| {
                PreparedRelation::new(
                    Arc::from(rel.src.as_slice()),
                    Arc::from(rel.dst.as_slice()),
                    Matrix::col_vector(&graph.attention_priors(idx)),
                    graph.node_count,
                )
            })
            .collect();
        Self {
            features,
            relations,
            node_count: graph.node_count,
        }
    }

    /// Number of relations (edge types).
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }
}

/// The disjoint union of a mini-batch of prepared graphs plus their side
/// features — everything one batched forward pass needs.
#[derive(Debug, Clone)]
pub struct BatchedGraph {
    /// Stacked node features (`total_nodes x F`).
    pub features: Matrix,
    /// Concatenated, offset-shifted edge lists per relation.
    pub relations: Vec<PreparedRelation>,
    /// `B + 1` node offsets: graph `g` owns rows `offsets[g]..offsets[g+1]`.
    pub offsets: Arc<[usize]>,
    /// Scaled `(teams, threads)` side features (`B x 2`).
    pub sides: Matrix,
}

impl BatchedGraph {
    /// Batch a set of prepared graphs with their scaled side features.
    ///
    /// # Panics
    /// Panics when `items` is empty or the graphs disagree on the number of
    /// relations or the feature dimension.
    pub fn build(items: &[(&PreparedGraph, [f32; 2])]) -> Self {
        assert!(!items.is_empty(), "cannot batch zero graphs");
        if let [(graph, side)] = items {
            return Self::single(graph, *side);
        }
        let num_relations = items[0].0.num_relations();
        let feat_dim = items[0].0.features.cols();
        let mut offsets = Vec::with_capacity(items.len() + 1);
        offsets.push(0usize);
        let mut total_nodes = 0usize;
        for (graph, _) in items {
            assert_eq!(
                graph.num_relations(),
                num_relations,
                "all graphs in a batch must share the relation vocabulary"
            );
            assert_eq!(
                graph.features.cols(),
                feat_dim,
                "all graphs in a batch must share the feature dimension"
            );
            total_nodes += graph.node_count;
            offsets.push(total_nodes);
        }

        let mut feature_data = Vec::with_capacity(total_nodes * feat_dim);
        let mut sides = Vec::with_capacity(items.len() * 2);
        for (graph, side) in items {
            feature_data.extend_from_slice(graph.features.as_slice());
            sides.extend_from_slice(side);
        }
        let features = Matrix::from_vec(total_nodes, feat_dim, feature_data);

        let relations = (0..num_relations)
            .map(|rel_idx| {
                let total_edges: usize = items
                    .iter()
                    .map(|(graph, _)| graph.relations[rel_idx].len())
                    .sum();
                let mut src = Vec::with_capacity(total_edges);
                let mut dst = Vec::with_capacity(total_edges);
                let mut priors = Vec::with_capacity(total_edges);
                for ((graph, _), &offset) in items.iter().zip(offsets.iter()) {
                    let rel = &graph.relations[rel_idx];
                    src.extend(rel.src.iter().map(|&s| s + offset));
                    dst.extend(rel.dst.iter().map(|&d| d + offset));
                    priors.extend_from_slice(rel.priors.as_slice());
                }
                PreparedRelation::new(
                    Arc::from(src),
                    Arc::from(dst),
                    Matrix::col_vector(&priors),
                    total_nodes,
                )
            })
            .collect();

        Self {
            features,
            relations,
            offsets: Arc::from(offsets),
            sides: Matrix::from_vec(items.len(), 2, sides),
        }
    }

    /// Batch of one: shares the prepared graph's interned edge lists instead
    /// of re-shifting them (offset zero), so single-sample serving pays one
    /// feature copy and nothing else.
    pub fn single(graph: &PreparedGraph, side: [f32; 2]) -> Self {
        Self {
            features: graph.features.clone(),
            relations: graph.relations.clone(),
            offsets: Arc::from(vec![0, graph.node_count]),
            sides: Matrix::from_vec(1, 2, side.to_vec()),
        }
    }

    /// Number of graphs in the batch.
    pub fn batch_size(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total node count of the disjoint union.
    pub fn total_nodes(&self) -> usize {
        *self.offsets.last().expect("offsets are never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_core::{build_default, to_relational};
    use pg_frontend::parse;

    fn graph(src: &str) -> PreparedGraph {
        let ast = parse(src).unwrap();
        PreparedGraph::from_relational(&to_relational(&build_default(&ast)))
    }

    fn two_graphs() -> (PreparedGraph, PreparedGraph) {
        (
            graph("void f(float *a) { for (int i = 0; i < 16; i++) { a[i] = 2.0; } }"),
            graph(
                "void g(float *a, float *b) { for (int i = 0; i < 64; i++) { if (i < 4) { a[i] = b[i]; } } }",
            ),
        )
    }

    #[test]
    fn prepared_graph_matches_relational_shape() {
        let g = graph("void f(float *a) { a[0] = 1.0; }");
        assert_eq!(g.features.rows(), g.node_count);
        assert_eq!(g.num_relations(), paragraph_core::EdgeType::COUNT);
        for rel in &g.relations {
            assert_eq!(rel.src.len(), rel.dst.len());
            assert_eq!(rel.priors.rows(), rel.len());
        }
    }

    #[test]
    fn disjoint_union_shifts_edges_and_tracks_offsets() {
        let (a, b) = two_graphs();
        let batch = BatchedGraph::build(&[(&a, [0.1, 0.2]), (&b, [0.3, 0.4])]);
        assert_eq!(batch.batch_size(), 2);
        assert_eq!(batch.total_nodes(), a.node_count + b.node_count);
        assert_eq!(
            batch.offsets.as_ref(),
            &[0, a.node_count, batch.total_nodes()]
        );
        assert_eq!(batch.features.rows(), batch.total_nodes());
        assert_eq!(batch.sides.shape(), (2, 2));
        assert_eq!(batch.sides.row(1), &[0.3, 0.4]);

        for (rel_idx, rel) in batch.relations.iter().enumerate() {
            let (ra, rb) = (&a.relations[rel_idx], &b.relations[rel_idx]);
            assert_eq!(rel.len(), ra.len() + rb.len());
            // First graph's edges are unshifted, second graph's shifted.
            assert_eq!(&rel.src[..ra.len()], ra.src.as_ref());
            for (got, want) in rel.src[ra.len()..].iter().zip(rb.src.iter()) {
                assert_eq!(*got, want + a.node_count);
            }
            // Every edge stays inside its graph's node range.
            for (&s, &d) in rel.src.iter().zip(rel.dst.iter()) {
                let seg_s = (s >= a.node_count) as usize;
                let seg_d = (d >= a.node_count) as usize;
                assert_eq!(seg_s, seg_d, "edge crosses graph boundary");
            }
            // Priors concatenate unchanged.
            assert_eq!(&rel.priors.as_slice()[..ra.len()], ra.priors.as_slice());
        }
    }

    #[test]
    fn batch_of_one_shares_interned_indices() {
        let (a, _) = two_graphs();
        let batch = BatchedGraph::build(&[(&a, [0.5, 0.5])]);
        assert_eq!(batch.batch_size(), 1);
        // The single-graph path must not copy the index slices.
        assert!(Arc::ptr_eq(&batch.relations[0].src, &a.relations[0].src));
        assert_eq!(batch.total_nodes(), a.node_count);
    }

    #[test]
    #[should_panic(expected = "zero graphs")]
    fn empty_batch_panics() {
        let _ = BatchedGraph::build(&[]);
    }

    #[test]
    fn prepared_relations_carry_consistent_csr() {
        let (a, b) = two_graphs();
        let batch = BatchedGraph::build(&[(&a, [0.1, 0.2]), (&b, [0.3, 0.4])]);
        for rel in &batch.relations {
            let adj = rel.adj();
            assert_eq!(adj.nnz(), rel.len());
            assert_eq!(adj.rows(), batch.total_nodes());
            assert_eq!(adj.cols(), batch.total_nodes());
            assert_eq!(rel.priors_csr().shape(), (rel.len(), 1));
            // Every CSR position maps back to its original edge, priors
            // permuted alongside.
            for (pos, (s, d)) in adj.to_edge_list().into_iter().enumerate() {
                let e = adj.perm()[pos];
                assert_eq!((s, d), (rel.src[e], rel.dst[e]));
                assert_eq!(rel.priors_csr().get(pos, 0), rel.priors.get(e, 0));
            }
            // The source list is the relation's distinct senders, ascending.
            let mut senders = rel.src.to_vec();
            senders.sort_unstable();
            senders.dedup();
            assert_eq!(adj.sources().as_ref(), senders.as_slice());
        }
    }
}
