//! Reverse-mode automatic differentiation on a reusable tape.
//!
//! The ParaGraph model builds a fresh computation graph for every program
//! graph (node counts and edge lists differ per sample), so the natural
//! structure is a *tape*: forward operations append nodes, and
//! [`Tape::backward`] walks the tape in reverse accumulating gradients.
//!
//! The op vocabulary is intentionally small — exactly the operations needed
//! by the RGAT layers, the readout and the MLP heads — and every backward
//! rule is validated against finite differences in the test-suite.
//!
//! # Allocation discipline
//!
//! The tape is an arena: [`Tape::reset`] rewinds the logical length to zero
//! but keeps every node slot, so the value and gradient buffers recorded in
//! one iteration are reused by the next. Training loops and batched serving
//! hold one tape and `reset()` it between steps; when shapes are stable
//! across iterations (the common case for a fixed batch composition) a
//! forward + backward pass performs no heap allocation beyond index-scale
//! scratch. New ops must follow the same rules:
//!
//! * forward values are written through [`Matrix`] `*_into` kernels into the
//!   slot buffer handed to the closure, never returned by value;
//! * backward rules accumulate into the parent's retained gradient buffer
//!   (`ensure_grad` + `*_acc_into` / in-place loops), never via
//!   `Matrix::clone`;
//! * index slices (gather/scatter maps, segment ids) are stored as
//!   `Arc<[usize]>` so recording them on the tape is a refcount bump, not a
//!   copy — use the `*_shared` entry points from prepared data structures.

use crate::matrix::{dot, Matrix};
use crate::sparse::SparseMatrix;
use std::sync::Arc;

/// Handle to a value on a [`Tape`].
///
/// Handles are indices into the tape arena: [`Tape::reset`] invalidates all
/// outstanding handles (debug builds assert on stale use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Index of the underlying tape node (mostly useful for debugging).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Operation recorded on the tape. Parent handles are stored by index;
/// index slices are shared (`Arc`) so recording never copies them.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf value (input or parameter); has no parents.
    Leaf,
    /// `C = A * B` matrix product.
    MatMul(usize, usize),
    /// `C = A + B` (same shapes).
    Add(usize, usize),
    /// `C = A - B` (same shapes).
    Sub(usize, usize),
    /// `C = A ⊙ B` elementwise.
    Hadamard(usize, usize),
    /// `C = A + bias` where `bias` is `1 x cols`, broadcast over rows.
    AddRowBroadcast(usize, usize),
    /// `C = alpha * A`.
    Scale(usize, f32),
    /// Rectified linear unit.
    Relu(usize),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(usize, f32),
    /// Hyperbolic tangent.
    Tanh(usize),
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// `[A | B]` column concatenation.
    ConcatCols(usize, usize),
    /// Contiguous row slice `A[start..start+rows]`.
    SliceRows(usize, usize),
    /// Select rows of A by index (rows may repeat).
    GatherRows(usize, Arc<[usize]>),
    /// `out[idx[i]] += A[i]` into a matrix with `out_rows` rows.
    ScatterAddRows(usize, Arc<[usize]>, usize),
    /// Per-segment softmax over an `E x 1` logit column with constant
    /// multiplicative priors: `alpha_i = w_i e^{l_i} / sum_seg w_j e^{l_j}`.
    /// The priors are constants, so only the logit handle and the segment
    /// map are needed for the backward pass. `seg_count` bounds the segment
    /// ids so scratch can be a flat vector instead of a hash map.
    SegmentSoftmax {
        logits: usize,
        segments: Arc<[usize]>,
        seg_count: usize,
    },
    /// Multiply row `i` of A by scalar `s[i]` (`s` is `rows x 1`).
    MulColBroadcast(usize, usize),
    /// Column-wise mean producing a `1 x cols` row vector.
    MeanRows(usize),
    /// Per-segment column-wise mean: rows `offsets[g]..offsets[g+1]` of A
    /// average into output row `g` (the batched-readout sibling of
    /// `MeanRows` for a disjoint union of graphs).
    SegmentMeanRows { a: usize, offsets: Arc<[usize]> },
    /// Sum of all elements producing a `1 x 1` value.
    SumAll(usize),
    /// Mean squared error against a constant target, producing `1 x 1`.
    MseLoss { pred: usize, target: Arc<[f32]> },
    /// Sparse × dense product `out = base + A(s) · a` against a shared CSR
    /// pattern, with `s` the `nnz x 1` value column in CSR order, `a` one
    /// row per listed source of the pattern (and `base = 0` when absent).
    /// Iteration is per destination row, and the backward pass pulls
    /// through the pattern's transpose view instead of scattering.
    SpmmCsr {
        a: usize,
        s: usize,
        base: Option<usize>,
        adj: Arc<SparseMatrix>,
    },
    /// Fused SDDMM-style attention logits over a CSR pattern:
    /// `out[pos] = x[src(pos)] · p + x[row(pos)] · q`, an `nnz x 1` column
    /// in CSR order, where `src(pos) = sources[col_idx[pos]]`. Sampled
    /// dense-dense matmul: only the entries the pattern stores are
    /// computed, so no `E x F` gather is materialised.
    SddmmEdgeLogits {
        x: usize,
        p: usize,
        q: usize,
        adj: Arc<SparseMatrix>,
    },
    /// Segment softmax over contiguous CSR row extents with constant
    /// multiplicative priors (the CSR sibling of `SegmentSoftmax`: segments
    /// are the pattern's non-empty row extents, so backward needs no
    /// segment-id scratch).
    CsrSegmentSoftmax {
        logits: usize,
        adj: Arc<SparseMatrix>,
    },
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    /// Retained gradient buffer; meaningful only when `has_grad` is true.
    grad: Matrix,
    has_grad: bool,
    /// False when no gradient consumer can be reached through this node
    /// (constant leaves like input features or attention priors, and
    /// anything computed only from them). Backward skips dead branches
    /// entirely — including the large `G * B^T` products that would only
    /// feed an input leaf.
    requires_grad: bool,
    op: Op,
}

/// Parent indices of an op (at most three).
fn op_parents(op: &Op) -> [Option<usize>; 3] {
    match op {
        Op::Leaf => [None, None, None],
        Op::MatMul(a, b)
        | Op::Add(a, b)
        | Op::Sub(a, b)
        | Op::Hadamard(a, b)
        | Op::AddRowBroadcast(a, b)
        | Op::ConcatCols(a, b)
        | Op::MulColBroadcast(a, b) => [Some(*a), Some(*b), None],
        Op::Scale(a, _)
        | Op::Relu(a)
        | Op::LeakyRelu(a, _)
        | Op::Tanh(a)
        | Op::Sigmoid(a)
        | Op::SliceRows(a, _)
        | Op::GatherRows(a, _)
        | Op::ScatterAddRows(a, _, _)
        | Op::MeanRows(a)
        | Op::SumAll(a) => [Some(*a), None, None],
        Op::SegmentSoftmax { logits, .. } => [Some(*logits), None, None],
        Op::SegmentMeanRows { a, .. } => [Some(*a), None, None],
        Op::MseLoss { pred, .. } => [Some(*pred), None, None],
        Op::SpmmCsr { a, s, base, .. } => [Some(*a), Some(*s), *base],
        Op::SddmmEdgeLogits { x, p, q, .. } => [Some(*x), Some(*p), Some(*q)],
        Op::CsrSegmentSoftmax { logits, .. } => [Some(*logits), None, None],
    }
}

/// Reverse-mode autodiff tape with arena-style buffer reuse (see the module
/// docs for the reuse contract).
#[derive(Debug, Default, Clone)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Logical length: nodes `0..live` belong to the current iteration,
    /// slots past it are retained buffers from earlier iterations.
    live: usize,
    /// Reusable index-scale scratch (segment reductions in backward).
    scratch: Vec<f32>,
}

/// Zero the gradient buffer of a node (shape-matched to its value) unless it
/// already received gradient this pass.
fn ensure_grad(node: &mut Node) {
    if !node.has_grad {
        let (rows, cols) = node.value.shape();
        node.grad.reset_to_zeros(rows, cols);
        node.has_grad = true;
    }
}

/// Mutably borrow two distinct nodes of the slice.
fn two_mut(nodes: &mut [Node], a: usize, b: usize) -> (&mut Node, &mut Node) {
    debug_assert_ne!(a, b);
    if a < b {
        let (lo, hi) = nodes.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Accumulate `delta` into the gradient of `nodes[idx]`. The first
/// contribution is a plain copy — most tape nodes have exactly one consumer,
/// so skipping the zero-fill-then-add round trip halves gradient traffic.
fn acc_grad(nodes: &mut [Node], idx: usize, delta: &Matrix) {
    let node = &mut nodes[idx];
    if !node.requires_grad {
        return;
    }
    if node.has_grad {
        node.grad.add_assign(delta);
    } else {
        node.grad.copy_from(delta);
        node.has_grad = true;
    }
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently recorded.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Rewind the tape for the next iteration, retaining every node slot and
    /// its value/gradient buffers for reuse.
    ///
    /// All outstanding [`Var`] handles are invalidated (they index the arena
    /// and would alias the next iteration's nodes); values and gradients read
    /// through old handles after a reset are meaningless. Shapes are *not*
    /// retained — the next iteration reshapes each slot as it records.
    pub fn reset(&mut self) {
        self.live = 0;
    }

    /// Record one op: reuse (or create) the slot at `live`, let `compute`
    /// write the forward value into it with read access to all earlier
    /// nodes, and stamp the op.
    fn push_with(&mut self, op: Op, compute: impl FnOnce(&[Node], &mut Matrix)) -> Var {
        if self.live == self.nodes.len() {
            self.nodes.push(Node {
                value: Matrix::zeros(0, 0),
                grad: Matrix::zeros(0, 0),
                has_grad: false,
                requires_grad: true,
                op: Op::Leaf,
            });
        }
        let (prev, rest) = self.nodes.split_at_mut(self.live);
        let node = &mut rest[0];
        compute(prev, &mut node.value);
        debug_assert!(
            !node.value.has_non_finite(),
            "non-finite value produced by {op:?}"
        );
        node.requires_grad = match op_parents(&op) {
            [None, None, None] => true, // leaves are trainable unless opted out
            parents => parents.into_iter().flatten().any(|p| prev[p].requires_grad),
        };
        node.op = op;
        node.has_grad = false;
        let var = Var(self.live);
        self.live += 1;
        var
    }

    /// Record a leaf (input or parameter) value, taking ownership.
    ///
    /// Prefer [`Tape::leaf_copy`] in loops: it copies into the slot's
    /// retained buffer instead of replacing it, so a reset tape re-leafs
    /// without allocating.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push_with(Op::Leaf, move |_, out| *out = value)
    }

    /// Record a leaf by copying into the slot's retained buffer.
    pub fn leaf_copy(&mut self, value: &Matrix) -> Var {
        self.push_with(Op::Leaf, |_, out| out.copy_from(value))
    }

    /// Record a constant leaf that needs no gradient (input features,
    /// attention priors, targets). Backward prunes every computation whose
    /// only consumers are such constants — e.g. the input-feature branch of
    /// the first layer's projection backward.
    pub fn leaf_copy_no_grad(&mut self, value: &Matrix) -> Var {
        let v = self.leaf_copy(value);
        self.nodes[v.0].requires_grad = false;
        v
    }

    /// Borrow the forward value of a tape node.
    pub fn value(&self, v: Var) -> &Matrix {
        debug_assert!(v.0 < self.live, "stale Var used after Tape::reset");
        &self.nodes[v.0].value
    }

    /// Gradient of a tape node after [`Tape::backward`], cloned.
    ///
    /// Returns a zero matrix of the right shape if the node did not receive
    /// any gradient. Hot paths should prefer [`Tape::grad_ref`], which
    /// neither clones nor materialises zeros.
    pub fn grad(&self, v: Var) -> Matrix {
        debug_assert!(v.0 < self.live, "stale Var used after Tape::reset");
        let node = &self.nodes[v.0];
        if node.has_grad {
            node.grad.clone()
        } else {
            Matrix::zeros(node.value.rows(), node.value.cols())
        }
    }

    /// Borrow the gradient of a tape node after [`Tape::backward`], or
    /// `None` if the node received no gradient (equivalent to an all-zero
    /// gradient of the value's shape).
    pub fn grad_ref(&self, v: Var) -> Option<&Matrix> {
        debug_assert!(v.0 < self.live, "stale Var used after Tape::reset");
        let node = &self.nodes[v.0];
        node.has_grad.then_some(&node.grad)
    }

    // -- forward ops --------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.push_with(Op::MatMul(a.0, b.0), |prev, out| {
            prev[a.0].value.matmul_into(&prev[b.0].value, out)
        })
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.push_with(Op::Add(a.0, b.0), |prev, out| {
            out.zip_from(&prev[a.0].value, &prev[b.0].value, |x, y| x + y)
        })
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.push_with(Op::Sub(a.0, b.0), |prev, out| {
            out.zip_from(&prev[a.0].value, &prev[b.0].value, |x, y| x - y)
        })
    }

    /// Elementwise product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        self.push_with(Op::Hadamard(a.0, b.0), |prev, out| {
            out.zip_from(&prev[a.0].value, &prev[b.0].value, |x, y| x * y)
        })
    }

    /// Add a `1 x cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        self.push_with(Op::AddRowBroadcast(a.0, bias.0), |prev, out| {
            out.copy_from(&prev[a.0].value);
            out.add_row_broadcast_assign(&prev[bias.0].value);
        })
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        self.push_with(Op::Scale(a.0, alpha), |prev, out| {
            out.map_from(&prev[a.0].value, |v| v * alpha)
        })
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        self.push_with(Op::Relu(a.0), |prev, out| {
            out.map_from(&prev[a.0].value, |v| v.max(0.0))
        })
    }

    /// Leaky ReLU activation.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.push_with(Op::LeakyRelu(a.0, slope), |prev, out| {
            out.map_from(&prev[a.0].value, |v| if v > 0.0 { v } else { slope * v })
        })
    }

    /// Tanh activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.push_with(Op::Tanh(a.0), |prev, out| {
            out.map_from(&prev[a.0].value, f32::tanh)
        })
    }

    /// Sigmoid activation.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.push_with(Op::Sigmoid(a.0), |prev, out| {
            out.map_from(&prev[a.0].value, |v| 1.0 / (1.0 + (-v).exp()))
        })
    }

    /// Column concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        self.push_with(Op::ConcatCols(a.0, b.0), |prev, out| {
            let (va, vb) = (&prev[a.0].value, &prev[b.0].value);
            assert_eq!(
                va.rows(),
                vb.rows(),
                "concat_cols requires equal row counts"
            );
            let (ca, cb) = (va.cols(), vb.cols());
            out.resize_for_overwrite(va.rows(), ca + cb);
            for r in 0..va.rows() {
                out.row_mut(r)[..ca].copy_from_slice(va.row(r));
                out.row_mut(r)[ca..].copy_from_slice(vb.row(r));
            }
        })
    }

    /// Contiguous row slice `a[start..end]` (used e.g. to split a stacked
    /// attention vector into its source/destination halves without changing
    /// the parameter layout).
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        assert!(start <= end, "slice_rows range is reversed");
        self.push_with(Op::SliceRows(a.0, start), |prev, out| {
            let va = &prev[a.0].value;
            assert!(end <= va.rows(), "slice_rows range out of bounds");
            let cols = va.cols();
            out.resize_for_overwrite(end - start, cols);
            out.as_mut_slice()
                .copy_from_slice(&va.as_slice()[start * cols..end * cols]);
        })
    }

    /// Gather rows of `a` by index.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        self.gather_rows_shared(a, Arc::from(indices))
    }

    /// [`Tape::gather_rows`] with a shared index slice: recording it on the
    /// tape is a refcount bump, not a copy.
    pub fn gather_rows_shared(&mut self, a: Var, indices: Arc<[usize]>) -> Var {
        self.push_with(Op::GatherRows(a.0, Arc::clone(&indices)), |prev, out| {
            prev[a.0].value.gather_rows_into(&indices, out)
        })
    }

    /// Scatter-add rows of `a` into an `out_rows x cols` matrix.
    pub fn scatter_add_rows(&mut self, a: Var, indices: &[usize], out_rows: usize) -> Var {
        self.push_with(
            Op::ScatterAddRows(a.0, Arc::from(indices), out_rows),
            |prev, out| {
                let va = &prev[a.0].value;
                out.reset_to_zeros(out_rows, va.cols());
                va.scatter_add_rows_acc_into(indices, out);
            },
        )
    }

    /// Segment softmax with constant multiplicative priors.
    ///
    /// `logits` must be an `E x 1` column; `segments[i]` identifies the
    /// softmax group of edge `i` (in ParaGraph: its destination node);
    /// `priors[i] > 0` is a constant prior weight (in ParaGraph: the scaled
    /// edge weight). The result is an `E x 1` column of attention
    /// coefficients that sum to one within each segment.
    pub fn segment_softmax(&mut self, logits: Var, segments: &[usize], priors: &[f32]) -> Var {
        let seg_count = segments.iter().copied().max().map_or(0, |m| m + 1);
        let op = Op::SegmentSoftmax {
            logits: logits.0,
            segments: Arc::from(segments),
            seg_count,
        };
        self.push_with(op, |prev, out| {
            let l = &prev[logits.0].value;
            assert_eq!(l.cols(), 1, "segment_softmax expects an E x 1 logit column");
            assert_eq!(
                l.rows(),
                segments.len(),
                "one segment id per logit required"
            );
            assert_eq!(l.rows(), priors.len(), "one prior per logit required");
            segment_softmax_into(l, segments, priors, seg_count, out);
        })
    }

    /// Multiply each row of `a` by the corresponding entry of the column
    /// vector `s`.
    pub fn mul_col_broadcast(&mut self, a: Var, s: Var) -> Var {
        self.push_with(Op::MulColBroadcast(a.0, s.0), |prev, out| {
            out.copy_from(&prev[a.0].value);
            out.mul_col_broadcast_assign(&prev[s.0].value);
        })
    }

    /// Column-wise mean over rows (graph readout).
    pub fn mean_rows(&mut self, a: Var) -> Var {
        self.push_with(Op::MeanRows(a.0), |prev, out| {
            let va = &prev[a.0].value;
            out.reset_to_zeros(1, va.cols());
            if va.rows() == 0 {
                return;
            }
            for r in 0..va.rows() {
                for (o, &v) in out.row_mut(0).iter_mut().zip(va.row(r)) {
                    *o += v;
                }
            }
            let scale = 1.0 / va.rows() as f32;
            out.map_inplace(|v| v * scale);
        })
    }

    /// Per-segment column-wise mean: rows `offsets[g]..offsets[g+1]` of `a`
    /// average into output row `g`. `offsets` must be non-decreasing with
    /// `offsets[0] == 0` and `offsets.last() == a.rows()`; empty segments
    /// produce zero rows. The batched-graph readout: one call pools a whole
    /// disjoint union of graphs.
    pub fn segment_mean_rows(&mut self, a: Var, offsets: &[usize]) -> Var {
        self.segment_mean_rows_shared(a, Arc::from(offsets))
    }

    /// [`Tape::segment_mean_rows`] with a shared offset slice.
    pub fn segment_mean_rows_shared(&mut self, a: Var, offsets: Arc<[usize]>) -> Var {
        let op = Op::SegmentMeanRows {
            a: a.0,
            offsets: Arc::clone(&offsets),
        };
        self.push_with(op, |prev, out| {
            let va = &prev[a.0].value;
            assert!(!offsets.is_empty(), "offsets need at least one boundary");
            assert_eq!(offsets[0], 0, "offsets must start at 0");
            assert_eq!(
                *offsets.last().unwrap(),
                va.rows(),
                "offsets must end at the row count"
            );
            let groups = offsets.len() - 1;
            out.reset_to_zeros(groups, va.cols());
            for g in 0..groups {
                let (lo, hi) = (offsets[g], offsets[g + 1]);
                assert!(lo <= hi, "offsets must be non-decreasing");
                if lo == hi {
                    continue;
                }
                for r in lo..hi {
                    for (o, &v) in out.row_mut(g).iter_mut().zip(va.row(r)) {
                        *o += v;
                    }
                }
                let scale = 1.0 / (hi - lo) as f32;
                for o in out.row_mut(g) {
                    *o *= scale;
                }
            }
        })
    }

    /// Sparse × dense aggregation `out = base + A(s) · a` against a shared
    /// CSR pattern (`base = 0` when absent): destination row `d` accumulates
    /// `s[pos] * a[col_idx(pos)]` over its row extent. `a` holds one row per
    /// listed source of the pattern ([`SparseMatrix::sources`]; gather them
    /// from a node matrix with [`Tape::gather_rows_shared`]), and `s` must
    /// be the pattern's `nnz x 1` value column *in CSR order* (permute
    /// per-edge data once with [`SparseMatrix::permute_to_csr`]).
    ///
    /// The CSR build is stable by destination, so each output row adds the
    /// same contributions in the same order as the gather → column-scale →
    /// scatter-add chain, and agrees with it bit for bit. Backward pulls
    /// `dA/da = Aᵀ·g` through the transpose view — sequential per-source
    /// accumulation instead of a scatter.
    pub fn spmm_csr(&mut self, a: Var, s: Var, base: Option<Var>, adj: &Arc<SparseMatrix>) -> Var {
        assert_ne!(a.0, s.0, "messages and scales must be distinct nodes");
        if let Some(base) = base {
            assert_ne!(base.0, a.0, "base must be distinct from the messages");
            assert_ne!(base.0, s.0, "base must be distinct from the scales");
        }
        let op = Op::SpmmCsr {
            a: a.0,
            s: s.0,
            base: base.map(|b| b.0),
            adj: Arc::clone(adj),
        };
        let adj = Arc::clone(adj);
        self.push_with(op, move |prev, out| {
            let vb = base.map(|b| &prev[b.0].value);
            adj.spmm_into(&prev[s.0].value, &prev[a.0].value, vb, out);
        })
    }

    /// Fused SDDMM-style per-edge attention logits over a CSR pattern:
    /// `out[pos] = x[src(pos)] · p + x[row(pos)] · q`, an `nnz x 1` column in
    /// CSR order. `x` holds one row per node; source rows are read through
    /// the pattern's source list, `src(pos) = sources[col_idx[pos]]`. `p`
    /// and `q` are `F x 1` contraction vectors (in ParaGraph: `W·a_src` and
    /// `W·a_dst` precontracted once per relation). Only the stored entries
    /// are computed — no `E x F` gathered intermediate, and the
    /// per-destination term `x[d] · q` is hoisted out of each row extent.
    pub fn sddmm_edge_logits(&mut self, x: Var, p: Var, q: Var, adj: &Arc<SparseMatrix>) -> Var {
        assert_ne!(x.0, p.0, "features and contraction vectors must differ");
        assert_ne!(x.0, q.0, "features and contraction vectors must differ");
        assert_ne!(p.0, q.0, "the two contraction vectors must be distinct");
        let op = Op::SddmmEdgeLogits {
            x: x.0,
            p: p.0,
            q: q.0,
            adj: Arc::clone(adj),
        };
        let adj = Arc::clone(adj);
        self.push_with(op, move |prev, out| {
            let vx = &prev[x.0].value;
            let vp = &prev[p.0].value;
            let vq = &prev[q.0].value;
            assert_eq!(vx.rows(), adj.cols(), "one feature row per source");
            assert_eq!(vx.rows(), adj.rows(), "one feature row per destination");
            assert_eq!(vp.shape(), (vx.cols(), 1), "p must be an F x 1 column");
            assert_eq!(vq.shape(), (vx.cols(), 1), "q must be an F x 1 column");
            let (row_ptr, col_idx, sources) = (adj.row_ptr(), adj.col_idx(), adj.sources());
            out.resize_for_overwrite(adj.nnz(), 1);
            for &d in adj.nonempty_rows().iter() {
                let (lo, hi) = (row_ptr[d], row_ptr[d + 1]);
                let dst_term = dot(vx.row(d), vq.as_slice());
                for pos in lo..hi {
                    let v = dot(vx.row(sources[col_idx[pos]]), vp.as_slice()) + dst_term;
                    out.set(pos, 0, v);
                }
            }
        })
    }

    /// [`Tape::segment_softmax`] re-expressed over the row extents of a CSR
    /// pattern: segment `d` is the contiguous positions
    /// `row_ptr[d]..row_ptr[d+1]`, `logits` is the pattern's `nnz x 1`
    /// column and `priors` the constant prior column, both in CSR order.
    /// Contiguous segments need no per-segment scratch in either direction.
    pub fn csr_segment_softmax(
        &mut self,
        logits: Var,
        adj: &Arc<SparseMatrix>,
        priors: &[f32],
    ) -> Var {
        let op = Op::CsrSegmentSoftmax {
            logits: logits.0,
            adj: Arc::clone(adj),
        };
        let adj = Arc::clone(adj);
        self.push_with(op, move |prev, out| {
            let l = &prev[logits.0].value;
            assert_eq!(l.cols(), 1, "csr_segment_softmax expects an E x 1 column");
            assert_eq!(l.rows(), adj.nnz(), "one logit per stored entry required");
            assert_eq!(l.rows(), priors.len(), "one prior per logit required");
            let row_ptr = adj.row_ptr();
            out.resize_for_overwrite(l.rows(), 1);
            for &d in adj.nonempty_rows().iter() {
                let (lo, hi) = (row_ptr[d], row_ptr[d + 1]);
                // Per-row max subtraction, as in `segment_softmax_into`.
                let mut m = f32::NEG_INFINITY;
                for pos in lo..hi {
                    m = m.max(l.get(pos, 0));
                }
                let mut sum = 0.0f32;
                for (pos, &w) in priors.iter().enumerate().take(hi).skip(lo) {
                    let num = w.max(1e-12) * (l.get(pos, 0) - m).exp();
                    out.set(pos, 0, num);
                    sum += num;
                }
                let inv = 1.0 / sum.max(1e-20);
                for pos in lo..hi {
                    out.set(pos, 0, out.get(pos, 0) * inv);
                }
            }
        })
    }

    /// Sum of all elements.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.push_with(Op::SumAll(a.0), |prev, out| {
            out.reset_to_zeros(1, 1);
            out.set(0, 0, prev[a.0].value.sum());
        })
    }

    /// Mean-squared-error loss against a constant target.
    pub fn mse_loss(&mut self, pred: Var, target: &[f32]) -> Var {
        let op = Op::MseLoss {
            pred: pred.0,
            target: Arc::from(target),
        };
        self.push_with(op, |prev, out| {
            let p = &prev[pred.0].value;
            assert_eq!(p.len(), target.len(), "prediction/target length mismatch");
            let mse = p
                .as_slice()
                .iter()
                .zip(target.iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                / target.len().max(1) as f32;
            out.reset_to_zeros(1, 1);
            out.set(0, 0, mse);
        })
    }

    // -- backward -----------------------------------------------------------

    /// Run reverse-mode accumulation from `output`, which must be a `1 x 1`
    /// scalar node (typically a loss).
    ///
    /// Gradients accumulate into each node's retained buffer; read them with
    /// [`Tape::grad_ref`] (borrowing) or [`Tape::grad`] (cloning). The walk
    /// is clone-free: ops, values and gradients are accessed through
    /// split borrows of the arena, never copied.
    pub fn backward(&mut self, output: Var) {
        assert!(output.0 < self.live, "stale Var used after Tape::reset");
        assert_eq!(
            self.nodes[output.0].value.shape(),
            (1, 1),
            "backward must start from a scalar node"
        );
        let Tape {
            nodes,
            live,
            scratch,
        } = self;
        // Reset any previous gradients.
        for node in &mut nodes[..*live] {
            node.has_grad = false;
        }
        {
            let node = &mut nodes[output.0];
            node.grad.reset_to_zeros(1, 1);
            node.grad.set(0, 0, 1.0);
            node.has_grad = true;
        }

        for i in (0..=output.0).rev() {
            let (parents, rest) = nodes.split_at_mut(i);
            let node = &rest[0];
            if !node.has_grad {
                continue;
            }
            let g = &node.grad;
            match &node.op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if !parents[a].requires_grad && !parents[b].requires_grad {
                        // Dead branch: both factors are constants.
                    } else if a == b {
                        let Node {
                            value,
                            grad,
                            has_grad,
                            ..
                        } = &mut parents[a];
                        if !*has_grad {
                            grad.reset_to_zeros(value.rows(), value.cols());
                            *has_grad = true;
                        }
                        g.matmul_nt_acc_into(value, grad);
                        value.matmul_tn_acc_into(g, grad);
                    } else {
                        let (na, nb) = two_mut(parents, a, b);
                        if na.requires_grad {
                            if na.has_grad {
                                g.matmul_nt_acc_into(&nb.value, &mut na.grad);
                            } else {
                                g.matmul_nt_into(&nb.value, &mut na.grad);
                                na.has_grad = true;
                            }
                        }
                        if nb.requires_grad {
                            ensure_grad(nb);
                            na.value.matmul_tn_acc_into(g, &mut nb.grad);
                        }
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    acc_grad(parents, a, g);
                    acc_grad(parents, b, g);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    acc_grad(parents, a, g);
                    let nb = &mut parents[b];
                    if !nb.requires_grad {
                    } else if nb.has_grad {
                        nb.grad.axpy(-1.0, g);
                    } else {
                        nb.grad.map_from(g, |v| -v);
                        nb.has_grad = true;
                    }
                }
                Op::Hadamard(a, b) => {
                    let (a, b) = (*a, *b);
                    if a == b {
                        let Node {
                            value,
                            grad,
                            has_grad,
                            ..
                        } = &mut parents[a];
                        if !*has_grad {
                            grad.reset_to_zeros(value.rows(), value.cols());
                            *has_grad = true;
                        }
                        for ((d, &gv), &vv) in grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(value.as_slice())
                        {
                            *d += 2.0 * gv * vv;
                        }
                    } else {
                        let (na, nb) = two_mut(parents, a, b);
                        if na.requires_grad {
                            ensure_grad(na);
                            for ((d, &gv), &vv) in na
                                .grad
                                .as_mut_slice()
                                .iter_mut()
                                .zip(g.as_slice())
                                .zip(nb.value.as_slice())
                            {
                                *d += gv * vv;
                            }
                        }
                        if nb.requires_grad {
                            ensure_grad(nb);
                            for ((d, &gv), &vv) in nb
                                .grad
                                .as_mut_slice()
                                .iter_mut()
                                .zip(g.as_slice())
                                .zip(na.value.as_slice())
                            {
                                *d += gv * vv;
                            }
                        }
                    }
                }
                Op::AddRowBroadcast(a, bias) => {
                    let (a, bias) = (*a, *bias);
                    acc_grad(parents, a, g);
                    let nb = &mut parents[bias];
                    if nb.requires_grad {
                        ensure_grad(nb);
                        for r in 0..g.rows() {
                            for (o, &x) in nb.grad.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += x;
                            }
                        }
                    }
                }
                Op::Scale(a, alpha) => {
                    let (a, alpha) = (*a, *alpha);
                    let na = &mut parents[a];
                    if !na.requires_grad {
                        // constant input
                    } else if na.has_grad {
                        na.grad.axpy(alpha, g);
                    } else {
                        na.grad.map_from(g, |v| v * alpha);
                        na.has_grad = true;
                    }
                }
                Op::Relu(a) => {
                    let na = &mut parents[*a];
                    let Node {
                        value,
                        grad,
                        has_grad,
                        requires_grad,
                        ..
                    } = na;
                    if !*requires_grad {
                        // constant input
                    } else if *has_grad {
                        for ((d, &gv), &vv) in grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(value.as_slice())
                        {
                            if vv > 0.0 {
                                *d += gv;
                            }
                        }
                    } else {
                        grad.zip_from(g, value, |gv, vv| if vv > 0.0 { gv } else { 0.0 });
                        *has_grad = true;
                    }
                }
                Op::LeakyRelu(a, slope) => {
                    let slope = *slope;
                    let na = &mut parents[*a];
                    let Node {
                        value,
                        grad,
                        has_grad,
                        requires_grad,
                        ..
                    } = na;
                    if !*requires_grad {
                        // constant input
                    } else if *has_grad {
                        for ((d, &gv), &vv) in grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(value.as_slice())
                        {
                            *d += gv * if vv > 0.0 { 1.0 } else { slope };
                        }
                    } else {
                        grad.zip_from(g, value, |gv, vv| gv * if vv > 0.0 { 1.0 } else { slope });
                        *has_grad = true;
                    }
                }
                Op::Tanh(a) => {
                    // Derivative from the op's own output y: 1 - y^2.
                    let y = &node.value;
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        // constant input
                    } else if na.has_grad {
                        for ((d, &gv), &yv) in na
                            .grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(y.as_slice())
                        {
                            *d += gv * (1.0 - yv * yv);
                        }
                    } else {
                        na.grad.zip_from(g, y, |gv, yv| gv * (1.0 - yv * yv));
                        na.has_grad = true;
                    }
                }
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        // constant input
                    } else if na.has_grad {
                        for ((d, &gv), &yv) in na
                            .grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(y.as_slice())
                        {
                            *d += gv * yv * (1.0 - yv);
                        }
                    } else {
                        na.grad.zip_from(g, y, |gv, yv| gv * yv * (1.0 - yv));
                        na.has_grad = true;
                    }
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let a_cols = parents[a].value.cols();
                    {
                        let na = &mut parents[a];
                        if na.requires_grad {
                            ensure_grad(na);
                            for r in 0..g.rows() {
                                for (d, &x) in
                                    na.grad.row_mut(r).iter_mut().zip(&g.row(r)[..a_cols])
                                {
                                    *d += x;
                                }
                            }
                        }
                    }
                    {
                        let nb = &mut parents[b];
                        if nb.requires_grad {
                            ensure_grad(nb);
                            for r in 0..g.rows() {
                                for (d, &x) in
                                    nb.grad.row_mut(r).iter_mut().zip(&g.row(r)[a_cols..])
                                {
                                    *d += x;
                                }
                            }
                        }
                    }
                }
                Op::SliceRows(a, start) => {
                    let (a, start) = (*a, *start);
                    let na = &mut parents[a];
                    if !na.requires_grad {
                        continue;
                    }
                    ensure_grad(na);
                    let cols = na.grad.cols();
                    let dst =
                        &mut na.grad.as_mut_slice()[start * cols..start * cols + g.rows() * cols];
                    for (d, &x) in dst.iter_mut().zip(g.as_slice()) {
                        *d += x;
                    }
                }
                Op::GatherRows(a, indices) => {
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        continue;
                    }
                    ensure_grad(na);
                    g.scatter_add_rows_acc_into(indices, &mut na.grad);
                }
                Op::ScatterAddRows(a, indices, _out_rows) => {
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        // constant input
                    } else if na.has_grad {
                        g.gather_rows_acc_into(indices, &mut na.grad);
                    } else {
                        g.gather_rows_into(indices, &mut na.grad);
                        na.has_grad = true;
                    }
                }
                Op::SegmentSoftmax {
                    logits,
                    segments,
                    seg_count,
                } => {
                    // alpha_i = w_i e^{l_i} / sum_j w_j e^{l_j}  (within segment)
                    // d alpha_i / d l_k = alpha_i (delta_ik - alpha_k)
                    // => dL/dl = alpha ⊙ (g - sum_seg(g ⊙ alpha))
                    if !parents[*logits].requires_grad {
                        continue;
                    }
                    let alpha = &node.value;
                    let e = alpha.rows();
                    scratch.clear();
                    scratch.resize(*seg_count, 0.0);
                    for (k, &seg) in segments.iter().enumerate().take(e) {
                        scratch[seg] += g.get(k, 0) * alpha.get(k, 0);
                    }
                    let nl = &mut parents[*logits];
                    ensure_grad(nl);
                    for k in 0..e {
                        let dot = scratch[segments[k]];
                        let delta = alpha.get(k, 0) * (g.get(k, 0) - dot);
                        nl.grad.set(k, 0, nl.grad.get(k, 0) + delta);
                    }
                }
                Op::MulColBroadcast(a, s) => {
                    let (a, s) = (*a, *s);
                    if a == s {
                        // Only possible for a 1x1 value: y = v*v.
                        let Node {
                            value,
                            grad,
                            has_grad,
                            ..
                        } = &mut parents[a];
                        if !*has_grad {
                            grad.reset_to_zeros(value.rows(), value.cols());
                            *has_grad = true;
                        }
                        for ((d, &gv), &vv) in grad
                            .as_mut_slice()
                            .iter_mut()
                            .zip(g.as_slice())
                            .zip(value.as_slice())
                        {
                            *d += 2.0 * gv * vv;
                        }
                    } else {
                        let (na, ns) = two_mut(parents, a, s);
                        let want_ds = ns.requires_grad;
                        if want_ds {
                            ensure_grad(ns);
                        }
                        let Node {
                            value: a_val,
                            grad: a_grad,
                            has_grad: a_has,
                            requires_grad: a_req,
                            ..
                        } = na;
                        let Node {
                            value: s_val,
                            grad: s_grad,
                            ..
                        } = ns;
                        let want_da = *a_req;
                        let first = want_da && !*a_has;
                        if first {
                            a_grad.resize_for_overwrite(a_val.rows(), a_val.cols());
                            *a_has = true;
                        }
                        for r in 0..a_val.rows() {
                            let scale = s_val.get(r, 0);
                            let mut dot = 0.0f32;
                            if first {
                                for ((d, &gv), &av) in
                                    a_grad.row_mut(r).iter_mut().zip(g.row(r)).zip(a_val.row(r))
                                {
                                    *d = gv * scale;
                                    dot += gv * av;
                                }
                            } else if want_da {
                                for ((d, &gv), &av) in
                                    a_grad.row_mut(r).iter_mut().zip(g.row(r)).zip(a_val.row(r))
                                {
                                    *d += gv * scale;
                                    dot += gv * av;
                                }
                            } else if want_ds {
                                for (&gv, &av) in g.row(r).iter().zip(a_val.row(r)) {
                                    dot += gv * av;
                                }
                            }
                            if want_ds {
                                s_grad.set(r, 0, s_grad.get(r, 0) + dot);
                            }
                        }
                    }
                }
                Op::MeanRows(a) => {
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        continue;
                    }
                    ensure_grad(na);
                    let rows = na.value.rows();
                    let scale = 1.0 / rows.max(1) as f32;
                    for r in 0..rows {
                        for (d, &x) in na.grad.row_mut(r).iter_mut().zip(g.row(0)) {
                            *d += x * scale;
                        }
                    }
                }
                Op::SegmentMeanRows { a, offsets } => {
                    // Contiguous offsets cover every input row exactly once,
                    // so the first contribution can overwrite.
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        continue;
                    }
                    let first = !na.has_grad;
                    if first {
                        let (rows, cols) = na.value.shape();
                        na.grad.resize_for_overwrite(rows, cols);
                        na.has_grad = true;
                    }
                    for gi in 0..offsets.len() - 1 {
                        let (lo, hi) = (offsets[gi], offsets[gi + 1]);
                        if lo == hi {
                            continue;
                        }
                        let scale = 1.0 / (hi - lo) as f32;
                        for r in lo..hi {
                            if first {
                                for (d, &x) in na.grad.row_mut(r).iter_mut().zip(g.row(gi)) {
                                    *d = x * scale;
                                }
                            } else {
                                for (d, &x) in na.grad.row_mut(r).iter_mut().zip(g.row(gi)) {
                                    *d += x * scale;
                                }
                            }
                        }
                    }
                }
                Op::SumAll(a) => {
                    let gv = g.get(0, 0);
                    let na = &mut parents[*a];
                    if !na.requires_grad {
                        continue;
                    }
                    ensure_grad(na);
                    for d in na.grad.as_mut_slice() {
                        *d += gv;
                    }
                }
                Op::SpmmCsr { a, s, base, adj } => {
                    // out[d] = base[d] + Σ_pos s[pos] * a[col(pos)]
                    // (col(pos) indexes the listed sources, one row of `a`
                    // each); d base = g;  d a = Aᵀ(s) · g  (pulled via the
                    // transpose view — per-source, deterministic);
                    // d s[pos] = g[row(pos)] · a[col(pos)].
                    if let Some(b) = base {
                        acc_grad(parents, *b, g);
                    }
                    let (a, s) = (*a, *s);
                    let (na, ns) = two_mut(parents, a, s);
                    let want_ds = ns.requires_grad;
                    if want_ds {
                        ensure_grad(ns);
                    }
                    if na.requires_grad {
                        ensure_grad(na);
                        adj.spmm_transpose_acc_into(&ns.value, g, &mut na.grad);
                    }
                    if want_ds {
                        let (row_ptr, col_idx) = (adj.row_ptr(), adj.col_idx());
                        for &d in adj.nonempty_rows().iter() {
                            let gr = g.row(d);
                            for pos in row_ptr[d]..row_ptr[d + 1] {
                                let dv = dot(gr, na.value.row(col_idx[pos]));
                                ns.grad.set(pos, 0, ns.grad.get(pos, 0) + dv);
                            }
                        }
                    }
                }
                Op::SddmmEdgeLogits { x, p, q, adj } => {
                    // out[pos] = x[src(pos)] · p + x[row(pos)] · q
                    // d x[src(pos)] += g[pos] pᵀ;  d x[row(pos)] += g[pos] qᵀ;
                    // d p += Σ g[pos] x[src(pos)]ᵀ;  d q += Σ g[pos] x[row(pos)]ᵀ.
                    let (x, p, q) = (*x, *p, *q);
                    let (row_ptr, col_idx, sources) = (adj.row_ptr(), adj.col_idx(), adj.sources());
                    if parents[x].requires_grad {
                        // Stage p and q in scratch so x's gradient can be
                        // mutated without aliasing its sibling parents.
                        let f = parents[x].value.cols();
                        scratch.clear();
                        scratch.extend_from_slice(parents[p].value.as_slice());
                        scratch.extend_from_slice(parents[q].value.as_slice());
                        let (pv, qv) = scratch.split_at(f);
                        let nx = &mut parents[x];
                        ensure_grad(nx);
                        for &d in adj.nonempty_rows().iter() {
                            for pos in row_ptr[d]..row_ptr[d + 1] {
                                let gv = g.get(pos, 0);
                                let src_row = nx.grad.row_mut(sources[col_idx[pos]]);
                                for (o, &vv) in src_row.iter_mut().zip(pv) {
                                    *o += gv * vv;
                                }
                                for (o, &vv) in nx.grad.row_mut(d).iter_mut().zip(qv) {
                                    *o += gv * vv;
                                }
                            }
                        }
                    }
                    if parents[p].requires_grad {
                        let (np, nx) = two_mut(parents, p, x);
                        ensure_grad(np);
                        for (pos, &c) in col_idx.iter().enumerate() {
                            let gv = g.get(pos, 0);
                            for (fi, &xv) in nx.value.row(sources[c]).iter().enumerate() {
                                np.grad.set(fi, 0, np.grad.get(fi, 0) + gv * xv);
                            }
                        }
                    }
                    if parents[q].requires_grad {
                        let (nq, nx) = two_mut(parents, q, x);
                        ensure_grad(nq);
                        for &d in adj.nonempty_rows().iter() {
                            let (lo, hi) = (row_ptr[d], row_ptr[d + 1]);
                            // Row d's q-term is shared by its whole extent.
                            let gsum: f32 = (lo..hi).map(|pos| g.get(pos, 0)).sum();
                            for (fi, &xv) in nx.value.row(d).iter().enumerate() {
                                nq.grad.set(fi, 0, nq.grad.get(fi, 0) + gsum * xv);
                            }
                        }
                    }
                }
                Op::CsrSegmentSoftmax { logits, adj } => {
                    // Same rule as SegmentSoftmax — dL/dl = alpha ⊙ (g -
                    // sum_seg(g ⊙ alpha)) — but segments are contiguous row
                    // extents, so the per-segment dot needs no scratch.
                    if !parents[*logits].requires_grad {
                        continue;
                    }
                    let alpha = &node.value;
                    let nl = &mut parents[*logits];
                    ensure_grad(nl);
                    let row_ptr = adj.row_ptr();
                    for &d in adj.nonempty_rows().iter() {
                        let (lo, hi) = (row_ptr[d], row_ptr[d + 1]);
                        let mut dv = 0.0f32;
                        for pos in lo..hi {
                            dv += g.get(pos, 0) * alpha.get(pos, 0);
                        }
                        for pos in lo..hi {
                            let delta = alpha.get(pos, 0) * (g.get(pos, 0) - dv);
                            nl.grad.set(pos, 0, nl.grad.get(pos, 0) + delta);
                        }
                    }
                }
                Op::MseLoss { pred, target } => {
                    let gv = g.get(0, 0);
                    let n = target.len().max(1) as f32;
                    let np = &mut parents[*pred];
                    if !np.requires_grad {
                        continue;
                    }
                    ensure_grad(np);
                    let Node { value, grad, .. } = np;
                    for ((d, &pv), &tv) in grad
                        .as_mut_slice()
                        .iter_mut()
                        .zip(value.as_slice())
                        .zip(target.iter())
                    {
                        *d += gv * 2.0 * (pv - tv) / n;
                    }
                }
            }
        }
    }
}

/// Forward computation of the segment softmax with priors, written into a
/// reused output buffer. Per-segment max subtraction keeps huge logits (from
/// high trip-count priors or an exploding training step) from overflowing
/// `exp` into `inf`/`NaN`.
fn segment_softmax_into(
    logits: &Matrix,
    segments: &[usize],
    priors: &[f32],
    seg_count: usize,
    out: &mut Matrix,
) {
    let e = logits.rows();
    out.resize_for_overwrite(e, 1);
    if e == 0 {
        return;
    }
    // Per-segment max for numerical stability.
    let mut seg_max = vec![f32::NEG_INFINITY; seg_count];
    for (i, &seg) in segments.iter().enumerate().take(e) {
        seg_max[seg] = seg_max[seg].max(logits.get(i, 0));
    }
    let mut seg_sum = vec![0.0f32; seg_count];
    for i in 0..e {
        let m = seg_max[segments[i]];
        let w = priors[i].max(1e-12);
        let num = w * (logits.get(i, 0) - m).exp();
        out.set(i, 0, num);
        seg_sum[segments[i]] += num;
    }
    for i in 0..e {
        let denom = seg_sum[segments[i]].max(1e-20);
        out.set(i, 0, out.get(i, 0) / denom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically estimate d(loss)/d(x[i][j]) by central differences and
    /// compare against the analytic gradient from the tape.
    fn check_gradient<F>(x: &Matrix, analytic: &Matrix, mut loss_fn: F, tol: f32)
    where
        F: FnMut(&Matrix) -> f32,
    {
        let eps = 1e-3_f32;
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                let numeric = (loss_fn(&plus) - loss_fn(&minus)) / (2.0 * eps);
                let got = analytic.get(r, c);
                assert!(
                    (numeric - got).abs() < tol,
                    "gradient mismatch at ({r},{c}): numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    fn input(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Simple deterministic pseudo-random fill without pulling rand here.
        Matrix::from_fn(rows, cols, |r, c| {
            let v = (seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((r * 31 + c * 7) as u64 * 2654435761))
                % 1000;
            (v as f32 / 500.0) - 1.0
        })
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let a0 = input(3, 4, 1);
        let b0 = input(4, 2, 2);
        let loss = |a: &Matrix, b: &Matrix| -> f32 {
            let mut t = Tape::new();
            let va = t.leaf(a.clone());
            let vb = t.leaf(b.clone());
            let c = t.matmul(va, vb);
            let s = t.sum_all(c);
            t.value(s).get(0, 0)
        };
        let mut t = Tape::new();
        let va = t.leaf(a0.clone());
        let vb = t.leaf(b0.clone());
        let c = t.matmul(va, vb);
        let s = t.sum_all(c);
        t.backward(s);
        check_gradient(&a0, &t.grad(va), |a| loss(a, &b0), 1e-2);
        check_gradient(&b0, &t.grad(vb), |b| loss(&a0, b), 1e-2);
    }

    #[test]
    fn squared_matmul_gradients_match_finite_differences() {
        // C = A * A exercises the aliased-parent backward path.
        let a0 = input(3, 3, 17);
        let run = |a: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let va = t.leaf(a.clone());
            let c = t.matmul(va, va);
            let s = t.sum_all(c);
            t.backward(s);
            (t.value(s).get(0, 0), t.grad(va))
        };
        let (_, g) = run(&a0);
        check_gradient(&a0, &g, |a| run(a).0, 2e-2);
    }

    #[test]
    fn activation_gradients_match_finite_differences() {
        let x0 = input(2, 3, 5);
        for act in ["relu", "leaky", "tanh", "sigmoid"] {
            let run = |x: &Matrix| -> (f32, Matrix) {
                let mut t = Tape::new();
                let vx = t.leaf(x.clone());
                let y = match act {
                    "relu" => t.relu(vx),
                    "leaky" => t.leaky_relu(vx, 0.2),
                    "tanh" => t.tanh(vx),
                    _ => t.sigmoid(vx),
                };
                let s = t.sum_all(y);
                t.backward(s);
                (t.value(s).get(0, 0), t.grad(vx))
            };
            let (_, g) = run(&x0);
            check_gradient(&x0, &g, |x| run(x).0, 2e-2);
        }
    }

    #[test]
    fn broadcast_and_concat_gradients() {
        let a0 = input(3, 2, 7);
        let bias0 = input(1, 2, 8);
        let b0 = input(3, 3, 9);
        let run = |a: &Matrix, bias: &Matrix, b: &Matrix| -> (f32, Matrix, Matrix, Matrix) {
            let mut t = Tape::new();
            let va = t.leaf(a.clone());
            let vbias = t.leaf(bias.clone());
            let vb = t.leaf(b.clone());
            let ab = t.add_row_broadcast(va, vbias);
            let cat = t.concat_cols(ab, vb);
            let act = t.tanh(cat);
            let s = t.sum_all(act);
            t.backward(s);
            (t.value(s).get(0, 0), t.grad(va), t.grad(vbias), t.grad(vb))
        };
        let (_, ga, gbias, gb) = run(&a0, &bias0, &b0);
        check_gradient(&a0, &ga, |a| run(a, &bias0, &b0).0, 2e-2);
        check_gradient(&bias0, &gbias, |bias| run(&a0, bias, &b0).0, 2e-2);
        check_gradient(&b0, &gb, |b| run(&a0, &bias0, b).0, 2e-2);
    }

    #[test]
    fn gather_scatter_gradients() {
        let x0 = input(4, 3, 11);
        let indices = vec![0usize, 2, 2, 3, 1];
        let dst = vec![1usize, 0, 1, 1, 0];
        let run = |x: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let vx = t.leaf(x.clone());
            let g = t.gather_rows(vx, &indices);
            let sc = t.scatter_add_rows(g, &dst, 2);
            let act = t.sigmoid(sc);
            let s = t.sum_all(act);
            t.backward(s);
            (t.value(s).get(0, 0), t.grad(vx))
        };
        let (_, grad) = run(&x0);
        check_gradient(&x0, &grad, |x| run(x).0, 2e-2);
    }

    #[test]
    fn segment_softmax_is_normalised_per_segment() {
        let logits = Matrix::col_vector(&[0.3, -0.2, 1.5, 0.0, 0.7]);
        let segments = vec![0usize, 0, 1, 1, 1];
        let priors = vec![1.0, 2.0, 1.0, 0.5, 1.0];
        let mut t = Tape::new();
        let vl = t.leaf(logits);
        let alpha = t.segment_softmax(vl, &segments, &priors);
        let a = t.value(alpha);
        let seg0: f32 = a.get(0, 0) + a.get(1, 0);
        let seg1: f32 = a.get(2, 0) + a.get(3, 0) + a.get(4, 0);
        assert!((seg0 - 1.0).abs() < 1e-5);
        assert!((seg1 - 1.0).abs() < 1e-5);
        assert!(a.as_slice().iter().all(|&v| v > 0.0));
        // Larger prior should increase the share for equal logits.
        assert!(a.get(1, 0) > 0.0);
    }

    #[test]
    fn segment_softmax_survives_extreme_logits() {
        // exp(l) overflows f32 for l > ~88; the per-segment max subtraction
        // must keep huge attention logits (high trip-count priors feeding an
        // exploding step) finite and normalised.
        let logits = Matrix::col_vector(&[4000.0, 3999.0, -4000.0, 0.0, 1e4]);
        let segments = vec![0usize, 0, 0, 1, 1];
        let priors = vec![5.0, 1.0, 2.0, 1.0, 3.0];
        let mut t = Tape::new();
        let vl = t.leaf(logits);
        let alpha = t.segment_softmax(vl, &segments, &priors);
        let mix = t.leaf(Matrix::col_vector(&[0.3, -0.4, 1.0, 0.2, -0.9]));
        let weighted = t.hadamard(alpha, mix);
        let s = t.sum_all(weighted);
        t.backward(s);
        let a = t.value(alpha);
        assert!(!a.has_non_finite());
        let seg0: f32 = a.get(0, 0) + a.get(1, 0) + a.get(2, 0);
        let seg1: f32 = a.get(3, 0) + a.get(4, 0);
        assert!((seg0 - 1.0).abs() < 1e-5, "segment 0 sums to {seg0}");
        assert!((seg1 - 1.0).abs() < 1e-5, "segment 1 sums to {seg1}");
        assert!(!t.grad(vl).has_non_finite());
    }

    #[test]
    fn segment_softmax_gradients_match_finite_differences() {
        let logits0 = Matrix::col_vector(&[0.2, -0.4, 0.9, 0.1]);
        let segments = vec![0usize, 0, 1, 1];
        let priors = vec![1.0, 3.0, 0.5, 1.0];
        // Weight the alphas so the loss is not constant (softmax sums to 1).
        let mix = Matrix::col_vector(&[0.7, -1.3, 2.0, 0.4]);
        let run = |l: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let vl = t.leaf(l.clone());
            let vmix = t.leaf(mix.clone());
            let alpha = t.segment_softmax(vl, &segments, &priors);
            let weighted = t.hadamard(alpha, vmix);
            let s = t.sum_all(weighted);
            t.backward(s);
            (t.value(s).get(0, 0), t.grad(vl))
        };
        let (_, g) = run(&logits0);
        check_gradient(&logits0, &g, |l| run(l).0, 2e-2);
    }

    #[test]
    fn mul_col_broadcast_gradients() {
        let a0 = input(4, 3, 21);
        let s0 = input(4, 1, 22);
        let run = |a: &Matrix, s: &Matrix| -> (f32, Matrix, Matrix) {
            let mut t = Tape::new();
            let va = t.leaf(a.clone());
            let vs = t.leaf(s.clone());
            let prod = t.mul_col_broadcast(va, vs);
            let act = t.tanh(prod);
            let l = t.sum_all(act);
            t.backward(l);
            (t.value(l).get(0, 0), t.grad(va), t.grad(vs))
        };
        let (_, ga, gs) = run(&a0, &s0);
        check_gradient(&a0, &ga, |a| run(a, &s0).0, 2e-2);
        check_gradient(&s0, &gs, |s| run(&a0, s).0, 2e-2);
    }

    #[test]
    fn mean_rows_and_mse_gradients() {
        let x0 = input(5, 3, 31);
        let target = vec![0.3f32, -0.2, 0.8];
        let run = |x: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let vx = t.leaf(x.clone());
            let pooled = t.mean_rows(vx);
            let loss = t.mse_loss(pooled, &target);
            t.backward(loss);
            (t.value(loss).get(0, 0), t.grad(vx))
        };
        let (_, g) = run(&x0);
        check_gradient(&x0, &g, |x| run(x).0, 2e-2);
    }

    #[test]
    fn slice_rows_gradients_match_finite_differences() {
        let x0 = input(6, 3, 61);
        let run = |x: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let vx = t.leaf(x.clone());
            let top = t.slice_rows(vx, 0, 2);
            let mid = t.slice_rows(vx, 2, 5);
            let act = t.tanh(mid);
            let pooled_top = t.mean_rows(top);
            let pooled_mid = t.mean_rows(act);
            let both = t.concat_cols(pooled_top, pooled_mid);
            let loss = t.mse_loss(both, &[0.1, -0.2, 0.4, 0.0, 0.3, 0.5]);
            t.backward(loss);
            (t.value(loss).get(0, 0), t.grad(vx))
        };
        let (_, g) = run(&x0);
        check_gradient(&x0, &g, |x| run(x).0, 2e-2);
        // Rows outside every slice receive no gradient.
        assert!(g.row(5).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn segment_mean_rows_matches_mean_rows_for_one_segment() {
        let x = input(6, 4, 33);
        let mut t = Tape::new();
        let vx = t.leaf(x.clone());
        let whole = t.mean_rows(vx);
        let seg = t.segment_mean_rows(vx, &[0, 6]);
        assert!(t.value(seg).approx_eq(t.value(whole), 0.0));
    }

    #[test]
    fn segment_mean_rows_gradients_match_finite_differences() {
        let x0 = input(7, 3, 35);
        let offsets = vec![0usize, 3, 3, 7]; // includes an empty segment
        let target = vec![0.1f32, -0.5, 0.4, 0.0, 0.2, -0.1, 0.9, 0.3, 0.6];
        let run = |x: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let vx = t.leaf(x.clone());
            let pooled = t.segment_mean_rows(vx, &offsets);
            let loss = t.mse_loss(pooled, &target);
            t.backward(loss);
            (t.value(loss).get(0, 0), t.grad(vx))
        };
        let (_, g) = run(&x0);
        check_gradient(&x0, &g, |x| run(x).0, 2e-2);
    }

    #[test]
    fn spmm_csr_matches_gather_scale_scatter_chain_bit_for_bit_and_gradients() {
        let a0 = input(5, 3, 81);
        let s_edge = input(6, 1, 82);
        let base0 = input(5, 3, 83);
        // Node 3 sends nothing: the pattern lists sources 0, 1, 2 and 4.
        let src = vec![0usize, 1, 2, 2, 4, 0];
        let dst = vec![1usize, 0, 1, 3, 2, 3];
        let adj = Arc::new(SparseMatrix::from_edges(5, 5, &src, &dst));
        assert_eq!(adj.sources().as_ref(), &[0, 1, 2, 4]);
        let s_csr = Matrix::col_vector(&adj.permute_to_csr(s_edge.as_slice()));

        // Stable-by-destination CSR order means the product over the
        // gathered source rows adds each output row's contributions in the
        // edge-list chain's order — the results must agree bit for bit, not
        // just within tolerance.
        let mut t = Tape::new();
        let va = t.leaf(a0.clone());
        let vs_edge = t.leaf(s_edge.clone());
        let gathered = t.gather_rows(va, &src);
        let scaled = t.mul_col_broadcast(gathered, vs_edge);
        let chain = t.scatter_add_rows(scaled, &dst, 5);
        let va_src = t.gather_rows_shared(va, Arc::clone(adj.sources()));
        let vs_csr = t.leaf(s_csr.clone());
        let fused = t.spmm_csr(va_src, vs_csr, None, &adj);
        assert!(t.value(fused).approx_eq(t.value(chain), 0.0));

        // Gradients for all three operands match finite differences.
        let run = |a: &Matrix, s: &Matrix, b: &Matrix| -> (f32, Matrix, Matrix, Matrix) {
            let mut t = Tape::new();
            let va = t.leaf(a.clone());
            let vs = t.leaf(s.clone());
            let vb = t.leaf(b.clone());
            let out = t.spmm_csr(va, vs, Some(vb), &adj);
            let act = t.tanh(out);
            let l = t.sum_all(act);
            t.backward(l);
            (t.value(l).get(0, 0), t.grad(va), t.grad(vs), t.grad(vb))
        };
        let a_src0 = a0.gather_rows(adj.sources());
        let (_, ga, gs, gb) = run(&a_src0, &s_csr, &base0);
        check_gradient(&a_src0, &ga, |a| run(a, &s_csr, &base0).0, 2e-2);
        check_gradient(&s_csr, &gs, |s| run(&a_src0, s, &base0).0, 2e-2);
        check_gradient(&base0, &gb, |b| run(&a_src0, &s_csr, b).0, 2e-2);
    }

    #[test]
    fn sddmm_edge_logits_matches_gather_chain_and_gradients() {
        let x0 = input(5, 4, 91);
        let p0 = input(4, 1, 92).scale(0.6);
        let q0 = input(4, 1, 93).scale(0.6);
        // Nodes 0 and 2 send nothing, so list index and node id differ for
        // every source and the source rows are only reachable through the
        // pattern's source list.
        let src = vec![1usize, 3, 4, 3, 4, 1];
        let dst = vec![2usize, 2, 0, 4, 1, 2];
        let adj = Arc::new(SparseMatrix::from_edges(5, 5, &src, &dst));
        assert_eq!(adj.sources().as_ref(), &[1, 3, 4]);

        // Fused logits equal the unfused project-then-gather chain on the
        // same edges (in CSR order).
        let csr_edges = adj.to_edge_list();
        let csr_src: Vec<usize> = csr_edges.iter().map(|&(s, _)| s).collect();
        let csr_dst: Vec<usize> = csr_edges.iter().map(|&(_, d)| d).collect();
        let mut t = Tape::new();
        let vx = t.leaf(x0.clone());
        let vp = t.leaf(p0.clone());
        let vq = t.leaf(q0.clone());
        let fused = t.sddmm_edge_logits(vx, vp, vq, &adj);
        let node_src = t.matmul(vx, vp);
        let node_dst = t.matmul(vx, vq);
        let e_src = t.gather_rows(node_src, &csr_src);
        let e_dst = t.gather_rows(node_dst, &csr_dst);
        let unfused = t.add(e_src, e_dst);
        assert!(
            t.value(fused).approx_eq(t.value(unfused), 1e-6),
            "fused sddmm diverged from the gather chain by {}",
            t.value(fused).max_abs_diff(t.value(unfused))
        );

        let run = |x: &Matrix, p: &Matrix, q: &Matrix| -> (f32, Matrix, Matrix, Matrix) {
            let mut t = Tape::new();
            let vx = t.leaf(x.clone());
            let vp = t.leaf(p.clone());
            let vq = t.leaf(q.clone());
            let out = t.sddmm_edge_logits(vx, vp, vq, &adj);
            let act = t.tanh(out);
            let l = t.sum_all(act);
            t.backward(l);
            (t.value(l).get(0, 0), t.grad(vx), t.grad(vp), t.grad(vq))
        };
        let (_, gx, gp, gq) = run(&x0, &p0, &q0);
        check_gradient(&x0, &gx, |x| run(x, &p0, &q0).0, 2e-2);
        check_gradient(&p0, &gp, |p| run(&x0, p, &q0).0, 2e-2);
        check_gradient(&q0, &gq, |q| run(&x0, &p0, q).0, 2e-2);
    }

    #[test]
    fn csr_segment_softmax_matches_segment_softmax_and_gradients() {
        let src = vec![0usize, 1, 2, 3, 4, 0, 1];
        let dst = vec![1usize, 1, 0, 4, 1, 4, 0];
        let adj = Arc::new(SparseMatrix::from_edges(5, 5, &src, &dst));
        let priors_edge = vec![1.0f32, 2.0, 0.5, 1.5, 4.0, 1.0, 0.25];
        let priors_csr = adj.permute_to_csr(&priors_edge);
        let logits0 = input(7, 1, 94);
        let logits_csr = Matrix::col_vector(&adj.permute_to_csr(logits0.as_slice()));

        // CSR-extent softmax equals the segment-id softmax on the same
        // groups (segment id = destination, in CSR order).
        let csr_dst: Vec<usize> = adj.to_edge_list().iter().map(|&(_, d)| d).collect();
        let mut t = Tape::new();
        let vl = t.leaf(logits_csr.clone());
        let by_extent = t.csr_segment_softmax(vl, &adj, &priors_csr);
        let by_segment = t.segment_softmax(vl, &csr_dst, &priors_csr);
        assert!(t.value(by_extent).approx_eq(t.value(by_segment), 1e-7));

        let run = |l: &Matrix| -> (f32, Matrix) {
            let mut t = Tape::new();
            let vl = t.leaf(l.clone());
            let alpha = t.csr_segment_softmax(vl, &adj, &priors_csr);
            let act = t.tanh(alpha);
            let s = t.sum_all(act);
            let loss = t.mse_loss(s, &[0.3]);
            t.backward(loss);
            (t.value(loss).get(0, 0), t.grad(vl))
        };
        let (_, gl) = run(&logits_csr);
        check_gradient(&logits_csr, &gl, |l| run(l).0, 2e-2);
    }

    #[test]
    fn spmm_csr_zero_in_edge_rows_are_zero_after_reset() {
        // Iteration 1 fills every output row with large values; after a
        // reset, iteration 2 reuses the same slot buffers for a graph where
        // node 2 has no incoming edges. Its aggregation row must be zero
        // (or exactly the base), never iteration 1's stale contents. The
        // messages are one row per listed source (nodes 0..=2 here).
        let mut t = Tape::new();
        let x = Matrix::filled(4, 3, 100.0);
        let ones = Matrix::filled(4, 1, 1.0);

        let dense = Arc::new(SparseMatrix::from_edges(4, 4, &[0, 1, 2, 3], &[1, 2, 3, 0]));
        let va = t.leaf_copy(&x);
        let vs = t.leaf_copy(&ones);
        let out = t.spmm_csr(va, vs, None, &dense);
        assert!(t.value(out).row(2).iter().all(|&v| v == 100.0));

        t.reset();
        // Node 2 is isolated now (zero in-edges); nodes 0, 1, 3 still get one.
        let sparse = Arc::new(SparseMatrix::from_edges(4, 4, &[1, 2, 0], &[0, 1, 3]));
        let small = Matrix::filled(3, 3, 0.5);
        let scale3 = Matrix::filled(3, 1, 1.0);
        let va = t.leaf_copy(&small);
        let vs = t.leaf_copy(&scale3);
        let out = t.spmm_csr(va, vs, None, &sparse);
        assert_eq!(t.value(out).row(2), &[0.0, 0.0, 0.0]);
        assert_eq!(t.value(out).row(0), &[0.5, 0.5, 0.5]);

        // Same for a base-carrying aggregate: the isolated row is exactly
        // the base row, not base plus garbage.
        t.reset();
        let base = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        let va = t.leaf_copy(&small);
        let vs = t.leaf_copy(&scale3);
        let vb = t.leaf_copy(&base);
        let out = t.spmm_csr(va, vs, Some(vb), &sparse);
        assert_eq!(t.value(out).row(2), base.row(2));
    }

    #[test]
    fn composite_model_like_graph_gradients() {
        // A miniature RGAT-style pass: gather, project, attention, scatter,
        // readout, MLP, MSE — exercising every op end to end.
        let h0 = input(5, 4, 41);
        let w0 = input(4, 3, 42).scale(0.5);
        let attn0 = input(6, 1, 43).scale(0.3);
        let src = vec![0usize, 1, 2, 3, 4, 0];
        let dst = vec![1usize, 2, 2, 4, 0, 3];
        let priors = vec![1.0f32, 2.0, 0.5, 1.0, 4.0, 1.0];
        let target = vec![0.25f32];

        let run = |h: &Matrix, w: &Matrix, attn: &Matrix| -> (f32, Matrix, Matrix, Matrix) {
            let mut t = Tape::new();
            let vh = t.leaf(h.clone());
            let vw = t.leaf(w.clone());
            let vattn = t.leaf(attn.clone());
            let hs = t.gather_rows(vh, &src);
            let hd = t.gather_rows(vh, &dst);
            let ms = t.matmul(hs, vw);
            let md = t.matmul(hd, vw);
            let cat = t.concat_cols(ms, md);
            let logits_raw = t.matmul(cat, vattn);
            let logits = t.leaky_relu(logits_raw, 0.2);
            let alpha = t.segment_softmax(logits, &dst, &priors);
            let msg = t.mul_col_broadcast(ms, alpha);
            let agg = t.scatter_add_rows(msg, &dst, 5);
            let act = t.relu(agg);
            let pooled = t.mean_rows(act);
            let s = t.sum_all(pooled);
            let loss = t.mse_loss(s, &target);
            t.backward(loss);
            (
                t.value(loss).get(0, 0),
                t.grad(vh),
                t.grad(vw),
                t.grad(vattn),
            )
        };
        let (_, gh, gw, gattn) = run(&h0, &w0, &attn0);
        check_gradient(&h0, &gh, |h| run(h, &w0, &attn0).0, 3e-2);
        check_gradient(&w0, &gw, |w| run(&h0, w, &attn0).0, 3e-2);
        check_gradient(&attn0, &gattn, |a| run(&h0, &w0, a).0, 3e-2);
    }

    #[test]
    fn reset_reuses_slots_and_reproduces_results() {
        // The same computation re-recorded on a reset tape must give the same
        // values and gradients, with the node count identical (slots reused).
        let a0 = input(8, 6, 51);
        let b0 = input(6, 3, 52);
        let target = vec![0.4f32, -0.1, 0.3];
        let mut t = Tape::new();
        let run = |t: &mut Tape, a: &Matrix, b: &Matrix| -> (f32, Matrix, Matrix) {
            t.reset();
            let va = t.leaf_copy(a);
            let vb = t.leaf_copy(b);
            let c = t.matmul(va, vb);
            let act = t.tanh(c);
            let pooled = t.mean_rows(act);
            let loss = t.mse_loss(pooled, &target);
            t.backward(loss);
            (t.value(loss).get(0, 0), t.grad(va), t.grad(vb))
        };
        let (l1, ga1, gb1) = run(&mut t, &a0, &b0);
        let len1 = t.len();
        let (l2, ga2, gb2) = run(&mut t, &a0, &b0);
        assert_eq!(l1, l2);
        assert!(ga1.approx_eq(&ga2, 0.0));
        assert!(gb1.approx_eq(&gb2, 0.0));
        assert_eq!(t.len(), len1);

        // A differently shaped program on the same (reset) tape still works.
        let c0 = input(2, 5, 53);
        t.reset();
        let vc = t.leaf_copy(&c0);
        let s = t.sum_all(vc);
        t.backward(s);
        assert_eq!(t.grad(vc).shape(), c0.shape());
        assert_eq!(t.grad(vc).sum(), c0.len() as f32);
    }

    #[test]
    fn grad_ref_borrows_without_cloning() {
        let mut t = Tape::new();
        let used = t.leaf(Matrix::filled(1, 1, 2.0));
        let unused = t.leaf(Matrix::filled(3, 3, 1.0));
        let s = t.sum_all(used);
        t.backward(s);
        assert!(t.grad_ref(unused).is_none());
        assert_eq!(t.grad_ref(used).unwrap().get(0, 0), 1.0);
        // Before backward nothing has a gradient.
        let mut t2 = Tape::new();
        let v = t2.leaf(Matrix::zeros(2, 2));
        assert!(t2.grad_ref(v).is_none());
    }

    #[test]
    #[should_panic(expected = "scalar node")]
    fn backward_from_non_scalar_panics() {
        let mut t = Tape::new();
        let v = t.leaf(Matrix::zeros(2, 2));
        t.backward(v);
    }

    #[test]
    fn grad_of_unused_leaf_is_zero() {
        let mut t = Tape::new();
        let used = t.leaf(Matrix::filled(1, 1, 2.0));
        let unused = t.leaf(Matrix::filled(3, 3, 1.0));
        let s = t.sum_all(used);
        t.backward(s);
        assert_eq!(t.grad(unused).sum(), 0.0);
        assert_eq!(t.grad(used).get(0, 0), 1.0);
    }
}

#[cfg(test)]
mod segment_softmax_properties {
    //! Property test for the numerical stability of the segment softmax:
    //! `exp` overflows `f32` past ~88, and ParaGraph's high trip-count
    //! priors can push raw attention logits far beyond that during an
    //! unlucky training step. Whatever the segment layout, the max-subtracted
    //! forward and its backward must stay finite and normalised.

    use super::*;
    use proptest::prelude::*;

    /// Deterministic splitmix-style stream so the property draws arbitrary
    /// segment maps and magnitudes from plain integer strategies (the
    /// proptest shim has no collection strategies).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_segments_stay_finite_and_normalised(
            seed in 0u64..1_000_000,
            edges in 1u32..48,
            exponent in 0u32..5,
        ) {
            let e = edges as usize;
            let mut next = stream(seed);
            // Logit magnitudes up to 1e4 — far past the exp overflow point.
            let magnitude = 10f32.powi(exponent as i32);
            let seg_count = (next() as usize % e) + 1;
            let segments: Vec<usize> = (0..e).map(|_| next() as usize % seg_count).collect();
            let logits: Vec<f32> = (0..e)
                .map(|_| ((next() % 2001) as f32 / 1000.0 - 1.0) * magnitude)
                .collect();
            let priors: Vec<f32> = (0..e)
                .map(|_| (next() % 1000) as f32 / 100.0 + 0.01)
                .collect();
            let mix: Vec<f32> = (0..e)
                .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
                .collect();

            let mut t = Tape::new();
            let vl = t.leaf(Matrix::col_vector(&logits));
            let alpha = t.segment_softmax(vl, &segments, &priors);
            let vmix = t.leaf(Matrix::col_vector(&mix));
            let weighted = t.hadamard(alpha, vmix);
            let s = t.sum_all(weighted);
            t.backward(s);

            let a = t.value(alpha);
            prop_assert!(!a.has_non_finite(), "softmax produced inf/NaN");
            prop_assert!(a.as_slice().iter().all(|&v| (0.0..=1.0 + 1e-5).contains(&v)));
            let mut sums = vec![0.0f32; seg_count];
            for (i, &seg) in segments.iter().enumerate() {
                sums[seg] += a.get(i, 0);
            }
            for (seg, &sum) in sums.iter().enumerate() {
                // Segments with no edges keep a zero sum.
                let populated = segments.contains(&seg);
                if populated {
                    prop_assert!(
                        (sum - 1.0).abs() < 1e-4,
                        "segment {seg} sums to {sum}"
                    );
                }
            }
            prop_assert!(!t.grad(vl).has_non_finite(), "backward produced inf/NaN");
        }
    }
}
