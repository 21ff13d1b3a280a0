//! Graph mini-batching: the disjoint-union encoding that lets one tape
//! forward/backward serve a whole mini-batch (training) or a whole candidate
//! set (engine serving) instead of one tape per sample.
//!
//! A batch of relational graphs is a single larger graph: node feature rows
//! are stacked, each relation's CSR pattern is the block-diagonal
//! concatenation of its members' patterns ([`SparseMatrix::block_diagonal`]:
//! O(nnz) copying with node offsets added, no sort), and the per-graph
//! boundaries are kept as a `B+1` offset vector. Because the union is
//! disjoint, every per-node computation (projection, attention softmax over
//! incoming edges, scatter aggregation) is unchanged — rows of the batched
//! matrices are computed exactly as they would be in a per-sample pass, so
//! batched predictions match the per-sample path to float precision. Only
//! the readout needs a batched op: `segment_mean_rows` pools each graph's
//! row range into its own embedding row.
//!
//! [`PreparedGraph`] is the once-per-sample conversion of a
//! [`RelationalGraph`]: the feature matrix is flattened, each relation's CSR
//! pattern (with its source list) is built, and the attention priors are
//! materialised as a column matrix in CSR order. That is the one CSR build
//! a graph gets; recording any of it on the autograd tape is a refcount
//! bump, not a copy. Training converts every sample once in `prepare`.

use paragraph_core::RelationalGraph;
use pg_tensor::{Matrix, SparseMatrix};
use std::sync::Arc;

/// Graphs per batched forward pass outside training (evaluation and
/// serving): bounds the disjoint union's peak memory while keeping the
/// batched matrices large enough for the parallel matmul kernels.
pub(crate) const FORWARD_CHUNK: usize = 64;

/// One relation's edges, ready for the tape: the CSR pattern over the
/// graph's node set (rows = destinations, columns compressed to the
/// relation's distinct sources) and the attention priors in CSR order.
/// Built once per prepared graph via [`PreparedRelation::new`]; a batch
/// concatenates its members' relations without rebuilding them.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedRelation {
    /// CSR pattern of the edges; `Arc` so recording it on a tape op is a
    /// refcount bump.
    adj: Arc<SparseMatrix>,
    /// Attention priors in CSR order (`E x 1`).
    priors_csr: Matrix,
}

impl PreparedRelation {
    /// Build a relation's CSR pattern over a `node_count`-node graph from
    /// its edge list (`src[e] -> dst[e]`). `priors` holds one attention
    /// prior per edge in edge-list order; its CSR permutation is
    /// materialised here so the hot path never chases the permutation.
    ///
    /// # Panics
    /// Panics when the three lists differ in length or an index is out of
    /// bounds for `node_count`.
    pub fn new(src: &[usize], dst: &[usize], priors: &[f32], node_count: usize) -> Self {
        let adj = SparseMatrix::from_edges(node_count, node_count, src, dst);
        let priors_csr = Matrix::from_vec(adj.nnz(), 1, adj.permute_to_csr(priors));
        Self {
            adj: Arc::new(adj),
            priors_csr,
        }
    }

    /// The disjoint union of `parts`, each over its own node range in
    /// order: block-diagonal patterns and the CSR-ordered priors
    /// concatenated unchanged.
    fn block_diagonal(parts: &[&PreparedRelation]) -> Self {
        let patterns: Vec<&SparseMatrix> = parts.iter().map(|p| p.adj.as_ref()).collect();
        let adj = SparseMatrix::block_diagonal(&patterns);
        let mut priors = Vec::with_capacity(adj.nnz());
        for part in parts {
            priors.extend_from_slice(part.priors_csr.as_slice());
        }
        Self {
            priors_csr: Matrix::from_vec(adj.nnz(), 1, priors),
            adj: Arc::new(adj),
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.adj.nnz()
    }

    /// True when the relation has no edges.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
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
    /// One prepared relation per edge type.
    pub relations: Vec<PreparedRelation>,
    /// Number of nodes.
    pub node_count: usize,
}

impl PreparedGraph {
    /// Convert a relational graph: flatten features, build each relation's
    /// CSR pattern and materialise its attention priors. Do this once per
    /// sample, not per forward pass.
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
                    &rel.src,
                    &rel.dst,
                    &graph.attention_priors(idx),
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
    /// Block-diagonal relations over the union's nodes.
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
                let parts: Vec<&PreparedRelation> = items
                    .iter()
                    .map(|(graph, _)| &graph.relations[rel_idx])
                    .collect();
                PreparedRelation::block_diagonal(&parts)
            })
            .collect();

        Self {
            features,
            relations,
            offsets: Arc::from(offsets),
            sides: Matrix::from_vec(items.len(), 2, sides),
        }
    }

    /// Batch of one: shares the prepared graph's CSR patterns instead of
    /// copying them (offset zero), so single-sample serving pays one
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

    fn relational(src: &str) -> RelationalGraph {
        to_relational(&build_default(&parse(src).unwrap()))
    }

    fn three_graphs() -> Vec<RelationalGraph> {
        vec![
            relational("void f(float *a) { for (int i = 0; i < 16; i++) { a[i] = 2.0; } }"),
            relational("void h(float *a) { a[0] = 1.0; }"),
            relational(
                "void g(float *a, float *b) { for (int i = 0; i < 64; i++) { if (i < 4) { a[i] = b[i]; } } }",
            ),
        ]
    }

    #[test]
    fn prepared_graph_matches_relational_shape() {
        let graph = relational("void f(float *a) { a[0] = 1.0; }");
        let g = PreparedGraph::from_relational(&graph);
        assert_eq!(g.features.rows(), g.node_count);
        assert_eq!(g.num_relations(), paragraph_core::EdgeType::COUNT);
        for (idx, (rel, edges)) in g.relations.iter().zip(&graph.relations).enumerate() {
            assert_eq!(rel.len(), edges.src.len());
            assert_eq!(rel.adj().rows(), g.node_count);
            assert_eq!(rel.priors_csr().shape(), (rel.len(), 1));
            // Every CSR position maps back to its edge, priors permuted
            // alongside.
            let priors = graph.attention_priors(idx);
            for (pos, (s, d)) in rel.adj().to_edge_list().into_iter().enumerate() {
                let e = rel.adj().perm()[pos];
                assert_eq!((s, d), (edges.src[e], edges.dst[e]));
                assert_eq!(rel.priors_csr().get(pos, 0), priors[e]);
            }
        }
    }

    #[test]
    fn batch_equals_a_build_over_the_concatenated_shifted_edge_lists() {
        let graphs = three_graphs();
        let prepared: Vec<PreparedGraph> =
            graphs.iter().map(PreparedGraph::from_relational).collect();
        let items: Vec<(&PreparedGraph, [f32; 2])> = prepared
            .iter()
            .enumerate()
            .map(|(i, g)| (g, [i as f32, 0.5]))
            .collect();
        let batch = BatchedGraph::build(&items);
        assert_eq!(batch.batch_size(), 3);
        let sizes: Vec<usize> = graphs.iter().map(|g| g.node_count).collect();
        assert_eq!(
            batch.offsets.as_ref(),
            &[0, sizes[0], sizes[0] + sizes[1], batch.total_nodes()]
        );
        assert_eq!(batch.features.rows(), batch.total_nodes());
        assert_eq!(batch.sides.row(2), &[2.0, 0.5]);

        for (rel_idx, rel) in batch.relations.iter().enumerate() {
            let (mut src, mut dst, mut priors) = (Vec::new(), Vec::new(), Vec::new());
            for (graph, &offset) in graphs.iter().zip(batch.offsets.iter()) {
                let edges = &graph.relations[rel_idx];
                src.extend(edges.src.iter().map(|&s| s + offset));
                dst.extend(edges.dst.iter().map(|&d| d + offset));
                priors.extend(graph.attention_priors(rel_idx));
            }
            let want = PreparedRelation::new(&src, &dst, &priors, batch.total_nodes());
            assert_eq!(rel, &want, "relation {rel_idx}");
        }
    }

    #[test]
    fn batch_of_one_shares_the_prepared_patterns() {
        let a = PreparedGraph::from_relational(&three_graphs()[0]);
        let batch = BatchedGraph::build(&[(&a, [0.5, 0.5])]);
        assert_eq!(batch.batch_size(), 1);
        // The single-graph path must not copy the patterns.
        assert!(Arc::ptr_eq(batch.relations[0].adj(), a.relations[0].adj()));
        assert_eq!(batch.total_nodes(), a.node_count);
    }

    #[test]
    #[should_panic(expected = "zero graphs")]
    fn empty_batch_panics() {
        let _ = BatchedGraph::build(&[]);
    }
}
