//! Sparse adjacency in CSR form for graph message passing.
//!
//! GraphBLAST's observation, adopted here: GNN message passing *is* sparse
//! linear algebra. A relation's edge list `(src[e], dst[e])` is the pattern
//! of a sparse matrix `A` with `A[dst[e], src[e]] = s[e]` (the per-edge
//! attention coefficient), and one propagation step is the sparse × dense
//! product `A · X` — every destination row accumulates its incoming
//! messages. [`SparseMatrix`] encodes that pattern once (compressed sparse
//! rows over destinations, columns compressed to the distinct sources, plus
//! the transpose view over sources for the backward pass) and the autograd
//! tape runs [`Tape::spmm_csr`], [`Tape::sddmm_edge_logits`] and
//! [`Tape::csr_segment_softmax`] against it.
//!
//! # Encoding contract
//!
//! * Rows index **destinations**, columns index **sources**; the matrix is
//!   `rows x cols` with one stored entry per edge (duplicates allowed — two
//!   parallel edges stay two entries).
//! * Columns are **source-compressed**: [`SparseMatrix::sources`] lists the
//!   distinct sources in ascending order, and [`SparseMatrix::col_idx`]
//!   holds each entry's index into that list, so entry `pos` sits in column
//!   `sources[col_idx[pos]]`. The dense operand of
//!   [`SparseMatrix::spmm_into`] has one row per listed source — the product
//!   is `A[:, sources] · X[sources]` — so a message-passing layer projects
//!   only the nodes that send a message, not every node of the graph.
//! * Rows stay uncompressed: every destination owns a (possibly empty) row
//!   extent, and SpMM writes every output row. The ascending list of rows
//!   that hold an entry lets the kernels skip empty rows without testing
//!   each one: on a sparse relation most rows are empty, and a per-row
//!   emptiness branch is mispredicted often enough to cost more than the
//!   edges themselves.
//! * Construction is a stable counting sort by destination: within one
//!   destination row, entries keep the original edge-list order. Per-row
//!   accumulation in [`SparseMatrix::spmm_into`] therefore adds
//!   contributions in exactly the order an edge-list gather → scale →
//!   scatter-add chain adds them, and agrees with it bit for bit.
//! * [`SparseMatrix::perm`] maps each CSR position back to its original
//!   edge index; per-edge payloads (attention priors) are permuted once at
//!   build time with [`SparseMatrix::permute_to_csr`], after which every
//!   per-edge column on the tape lives in CSR order and softmax segments
//!   are contiguous row extents — no segment-id indirection on the hot path.
//! * The transpose view (`t_*` arrays: a CSC walk of the same entries,
//!   grouped by listed source) is built eagerly. Backward of `A · X` with
//!   respect to `X` is `Aᵀ · G`, and the transpose view makes that another
//!   sequential per-row pull instead of a scatter.
//!
//! [`Tape::spmm_csr`]: crate::Tape::spmm_csr
//! [`Tape::sddmm_edge_logits`]: crate::Tape::sddmm_edge_logits
//! [`Tape::csr_segment_softmax`]: crate::Tape::csr_segment_softmax

use crate::matrix::Matrix;
use rayon::prelude::*;
use std::sync::Arc;

/// Minimum `nnz * feature_dim` before [`SparseMatrix::spmm_into`]
/// parallelises over destination rows; below it the rayon dispatch overhead
/// dominates the row work.
const SPMM_PAR_THRESHOLD: usize = 1 << 16;

/// A sparse matrix pattern in compressed-sparse-row form with
/// source-compressed columns, plus a transpose (CSC) view for backward
/// passes. The pattern is immutable and shared: recording it on an autograd
/// tape is an `Arc` refcount bump.
///
/// Values are *not* stored here — message passing recomputes the per-edge
/// coefficients every forward pass, so ops take the value column (in CSR
/// order) as a separate operand.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` extents: row `d` owns CSR positions `row_ptr[d]..row_ptr[d+1]`.
    row_ptr: Arc<[usize]>,
    /// Rows with a non-empty extent, ascending.
    nonempty_rows: Arc<[usize]>,
    /// Index into `sources` per CSR position.
    col_idx: Arc<[usize]>,
    /// Distinct source (column) indices, ascending.
    sources: Arc<[usize]>,
    /// Original edge index per CSR position.
    perm: Arc<[usize]>,
    /// `sources.len() + 1` extents of the transpose view.
    t_row_ptr: Arc<[usize]>,
    /// Destination (row) index per transpose position.
    t_dst: Arc<[usize]>,
    /// CSR position per transpose position (to look up the edge value).
    t_pos: Arc<[usize]>,
}

impl SparseMatrix {
    /// Build the CSR pattern of an edge list: entry `e` sits at
    /// `(row, col) = (dst[e], src[e])`. Stable by destination — entries of
    /// one row keep their original relative order. Columns are compressed
    /// to the distinct sources (see [`SparseMatrix::sources`]).
    ///
    /// # Panics
    /// Panics when `src` and `dst` differ in length or an index is out of
    /// bounds for the declared shape.
    pub fn from_edges(rows: usize, cols: usize, src: &[usize], dst: &[usize]) -> Self {
        assert_eq!(src.len(), dst.len(), "one source per destination required");
        let nnz = src.len();
        for (&s, &d) in src.iter().zip(dst) {
            assert!(s < cols, "source index {s} out of bounds ({cols} cols)");
            assert!(
                d < rows,
                "destination index {d} out of bounds ({rows} rows)"
            );
        }

        // Source compression: list the distinct sources in ascending order
        // and give each its index in that list. Senders are first marked
        // with 0 (non-senders keep `usize::MAX`); the ascending scan then
        // overwrites each mark with the sender's index, never revisiting it.
        let mut column = vec![usize::MAX; cols];
        for &s in src {
            column[s] = 0;
        }
        let mut sources = Vec::with_capacity(nnz.min(cols));
        for (s, c) in column.iter_mut().enumerate() {
            if *c == 0 {
                *c = sources.len();
                sources.push(s);
            }
        }

        // Stable counting sort by destination.
        let mut row_ptr = vec![0usize; rows + 1];
        for &d in dst {
            row_ptr[d + 1] += 1;
        }
        let mut nonempty_rows = Vec::with_capacity(nnz.min(rows));
        for d in 0..rows {
            if row_ptr[d + 1] > 0 {
                nonempty_rows.push(d);
            }
            row_ptr[d + 1] += row_ptr[d];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; nnz];
        let mut perm = vec![0usize; nnz];
        for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
            let pos = next[d];
            next[d] += 1;
            col_idx[pos] = column[s];
            perm[pos] = e;
        }

        // Transpose view: walk CSR in order so each source's entries are
        // grouped, ascending by destination (stable again).
        let mut t_row_ptr = vec![0usize; sources.len() + 1];
        for &c in &col_idx {
            t_row_ptr[c + 1] += 1;
        }
        for c in 0..sources.len() {
            t_row_ptr[c + 1] += t_row_ptr[c];
        }
        let mut t_next = t_row_ptr.clone();
        let mut t_dst = vec![0usize; nnz];
        let mut t_pos = vec![0usize; nnz];
        for &d in &nonempty_rows {
            let extent = row_ptr[d]..row_ptr[d + 1];
            for (pos, &c) in col_idx[extent.clone()].iter().enumerate() {
                let pos = pos + extent.start;
                let tp = t_next[c];
                t_next[c] += 1;
                t_dst[tp] = d;
                t_pos[tp] = pos;
            }
        }

        Self {
            rows,
            cols,
            row_ptr: Arc::from(row_ptr),
            nonempty_rows: Arc::from(nonempty_rows),
            col_idx: Arc::from(col_idx),
            sources: Arc::from(sources),
            perm: Arc::from(perm),
            t_row_ptr: Arc::from(t_row_ptr),
            t_dst: Arc::from(t_dst),
            t_pos: Arc::from(t_pos),
        }
    }

    /// Number of rows (destinations).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (sources), including those that store no entry.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (edges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.col_idx.is_empty()
    }

    /// Row extents: row `d` owns positions `row_ptr()[d]..row_ptr()[d+1]`.
    #[inline]
    pub fn row_ptr(&self) -> &Arc<[usize]> {
        &self.row_ptr
    }

    /// Rows with at least one entry, ascending. Kernels walk these instead
    /// of every row.
    #[inline]
    pub(crate) fn nonempty_rows(&self) -> &Arc<[usize]> {
        &self.nonempty_rows
    }

    /// Index into [`SparseMatrix::sources`] per CSR position.
    #[inline]
    pub fn col_idx(&self) -> &Arc<[usize]> {
        &self.col_idx
    }

    /// The distinct sources, ascending: entry `pos` lies in column
    /// `sources()[col_idx()[pos]]`. Gathering these rows of a node matrix
    /// gives the dense operand of [`SparseMatrix::spmm_into`].
    #[inline]
    pub fn sources(&self) -> &Arc<[usize]> {
        &self.sources
    }

    /// Original edge index per CSR position.
    #[inline]
    pub fn perm(&self) -> &Arc<[usize]> {
        &self.perm
    }

    /// Recover the `(src, dst)` edge list in CSR order. Composed with
    /// [`SparseMatrix::perm`] this is a permutation of the input edge list —
    /// the round-trip identity the property tests pin.
    pub fn to_edge_list(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.nnz());
        for &d in self.nonempty_rows.iter() {
            for pos in self.row_ptr[d]..self.row_ptr[d + 1] {
                out.push((self.sources[self.col_idx[pos]], d));
            }
        }
        out
    }

    /// Permute a per-edge payload (one entry per original edge) into CSR
    /// order: `out[pos] = per_edge[perm[pos]]`. Done once at build time so
    /// the hot ops never chase the permutation.
    pub fn permute_to_csr<T: Copy>(&self, per_edge: &[T]) -> Vec<T> {
        assert_eq!(per_edge.len(), self.nnz(), "one payload per edge required");
        self.perm.iter().map(|&e| per_edge[e]).collect()
    }

    /// Sparse × dense product `out = base + A(scale) · x`, where `A(scale)`
    /// is this pattern carrying `scale` (an `nnz x 1` column in CSR order)
    /// as its values and `x` holds one row per listed source (row `c` is
    /// source `sources()[c]`): `out[d] = base[d] + Σ_pos scale[pos] *
    /// x[col_idx[pos]]` over row `d`'s extent. With `base == None` the
    /// product starts from zeros.
    ///
    /// Every output row is fully written — rows with an empty extent become
    /// an exact copy of `base` (or zeros), never stale buffer contents, so
    /// isolated nodes are safe on a reused arena slot. Per-row accumulation
    /// is in CSR-position order; large products parallelise over rows
    /// (deterministic: each row is owned by exactly one task).
    pub fn spmm_into(&self, scale: &Matrix, x: &Matrix, base: Option<&Matrix>, out: &mut Matrix) {
        assert_eq!(
            scale.shape(),
            (self.nnz(), 1),
            "one scale per stored entry required"
        );
        assert_eq!(
            x.rows(),
            self.sources.len(),
            "dense operand must have one row per listed source"
        );
        let f = x.cols();
        if let Some(base) = base {
            assert_eq!(base.shape(), (self.rows, f), "base shape mismatch");
        }
        // One bulk copy (or fill) writes every row; the row tasks then only
        // touch rows that have entries.
        match base {
            Some(base) => out.copy_from(base),
            None => out.reset_to_zeros(self.rows, f),
        }
        let row_task = |d: usize, out_row: &mut [f32]| {
            for pos in self.row_ptr[d]..self.row_ptr[d + 1] {
                let s = scale.get(pos, 0);
                for (o, &v) in out_row.iter_mut().zip(x.row(self.col_idx[pos])) {
                    *o += s * v;
                }
            }
        };
        if f > 0 && self.nnz() * f >= SPMM_PAR_THRESHOLD {
            out.as_mut_slice()
                .par_chunks_mut(f)
                .enumerate()
                .for_each(|(d, out_row)| row_task(d, out_row));
        } else {
            for &d in self.nonempty_rows.iter() {
                row_task(d, out.row_mut(d));
            }
        }
    }

    /// Transpose product accumulated in place: `acc += A(scale)ᵀ · g`, i.e.
    /// `acc[c] += Σ scale[pos] * g[dst]` over listed source `c`'s transpose
    /// extent (`acc` has one row per listed source). The backward kernel of
    /// [`SparseMatrix::spmm_into`] with respect to the dense operand — the
    /// CSC view turns the would-be scatter into a sequential per-source pull.
    pub fn spmm_transpose_acc_into(&self, scale: &Matrix, g: &Matrix, acc: &mut Matrix) {
        assert_eq!(
            scale.shape(),
            (self.nnz(), 1),
            "one scale per stored entry required"
        );
        assert_eq!(
            g.rows(),
            self.rows,
            "gradient must have one row per destination"
        );
        let f = g.cols();
        assert_eq!(
            acc.shape(),
            (self.sources.len(), f),
            "accumulator shape mismatch"
        );
        let row_task = |c: usize, acc_row: &mut [f32]| {
            for tp in self.t_row_ptr[c]..self.t_row_ptr[c + 1] {
                let v = scale.get(self.t_pos[tp], 0);
                for (o, &gv) in acc_row.iter_mut().zip(g.row(self.t_dst[tp])) {
                    *o += v * gv;
                }
            }
        };
        if f > 0 && self.nnz() * f >= SPMM_PAR_THRESHOLD {
            acc.as_mut_slice()
                .par_chunks_mut(f)
                .enumerate()
                .for_each(|(c, acc_row)| row_task(c, acc_row));
        } else {
            for c in 0..self.sources.len() {
                row_task(c, acc.row_mut(c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_of(adj: &SparseMatrix, scale: &Matrix) -> Matrix {
        let mut dense = Matrix::zeros(adj.rows(), adj.cols());
        for (pos, (s, d)) in adj.to_edge_list().into_iter().enumerate() {
            dense.set(d, s, dense.get(d, s) + scale.get(pos, 0));
        }
        dense
    }

    #[test]
    fn csr_round_trips_the_edge_list_as_a_permutation() {
        let src = vec![3usize, 0, 2, 2, 1, 3];
        let dst = vec![1usize, 2, 0, 2, 2, 1];
        let adj = SparseMatrix::from_edges(4, 4, &src, &dst);
        assert_eq!(adj.nnz(), 6);
        // perm recovers every original edge exactly once.
        let mut seen = vec![false; src.len()];
        for (pos, (s, d)) in adj.to_edge_list().into_iter().enumerate() {
            let e = adj.perm()[pos];
            assert!(!seen[e], "edge {e} appeared twice");
            seen[e] = true;
            assert_eq!((s, d), (src[e], dst[e]));
        }
        assert!(seen.into_iter().all(|v| v), "an edge was dropped");
        // Stability: within a destination row, original order is kept.
        for d in 0..adj.rows() {
            let extent = &adj.perm()[adj.row_ptr()[d]..adj.row_ptr()[d + 1]];
            assert!(extent.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn transpose_view_visits_every_entry_once() {
        let src = vec![0usize, 1, 1, 3, 0];
        let dst = vec![2usize, 0, 2, 1, 1];
        let adj = SparseMatrix::from_edges(4, 4, &src, &dst);
        assert_eq!(adj.sources().as_ref(), &[0, 1, 3]);
        let mut seen = vec![false; adj.nnz()];
        for c in 0..adj.sources().len() {
            for tp in adj.t_row_ptr[c]..adj.t_row_ptr[c + 1] {
                let pos = adj.t_pos[tp];
                assert!(!seen[pos]);
                seen[pos] = true;
                assert_eq!(adj.col_idx()[pos], c, "transpose grouped a wrong source");
                // t_dst names the CSR row owning the position.
                let d = adj.t_dst[tp];
                assert!((adj.row_ptr()[d]..adj.row_ptr()[d + 1]).contains(&pos));
            }
        }
        assert!(seen.into_iter().all(|v| v));
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        // Node 3 sends nothing, so the dense operand is the gathered rows of
        // nodes 0..=2 only.
        let src = vec![0usize, 1, 2, 0, 1, 0, 2];
        let dst = vec![1usize, 1, 0, 3, 2, 3, 2];
        let adj = SparseMatrix::from_edges(4, 4, &src, &dst);
        let scale = Matrix::from_fn(adj.nnz(), 1, |r, _| (r as f32 + 1.0) * 0.25);
        let x = Matrix::from_fn(4, 5, |r, c| ((r * 5 + c) as f32).sin());
        let xs = x.gather_rows(adj.sources());
        let mut got = Matrix::zeros(0, 0);
        adj.spmm_into(&scale, &xs, None, &mut got);
        let want = dense_of(&adj, &scale).matmul(&x);
        assert!(got.approx_eq(&want, 1e-6), "{}", got.max_abs_diff(&want));

        // With a base: out = base + A x.
        let base = Matrix::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.1);
        adj.spmm_into(&scale, &xs, Some(&base), &mut got);
        let want = base.add(&dense_of(&adj, &scale).matmul(&x));
        assert!(got.approx_eq(&want, 1e-6));
    }

    #[test]
    fn spmm_transpose_matches_dense_transpose_matmul() {
        let src = vec![0usize, 2, 0, 2];
        let dst = vec![1usize, 0, 2, 2];
        let adj = SparseMatrix::from_edges(3, 3, &src, &dst);
        let scale = Matrix::col_vector(&[0.5, -1.0, 2.0, 0.25]);
        let g = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.1);
        // One accumulator row per listed source (node 1 sends nothing).
        let mut acc = Matrix::zeros(2, 4);
        adj.spmm_transpose_acc_into(&scale, &g, &mut acc);
        let want = dense_of(&adj, &scale)
            .transpose()
            .matmul(&g)
            .gather_rows(adj.sources());
        assert!(acc.approx_eq(&want, 1e-6), "{}", acc.max_abs_diff(&want));
    }

    #[test]
    fn isolated_rows_are_written_not_skipped() {
        // Rows 0 and 3 have no incoming entries; spmm must write them (zero
        // or base), never leave buffer garbage.
        let adj = SparseMatrix::from_edges(4, 4, &[1, 2], &[1, 2]);
        let scale = Matrix::col_vector(&[1.0, 1.0]);
        let x = Matrix::filled(2, 3, 2.0);
        let mut out = Matrix::filled(4, 3, 99.0); // poisoned buffer
        adj.spmm_into(&scale, &x, None, &mut out);
        assert_eq!(out.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(out.row(3), &[0.0, 0.0, 0.0]);
        assert_eq!(out.row(1), &[2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        let _ = SparseMatrix::from_edges(2, 2, &[0], &[5]);
    }

    #[test]
    fn empty_pattern_is_fine() {
        let adj = SparseMatrix::from_edges(3, 3, &[], &[]);
        assert!(adj.is_empty());
        assert!(adj.sources().is_empty());
        let mut out = Matrix::filled(3, 2, 7.0);
        adj.spmm_into(&Matrix::zeros(0, 1), &Matrix::zeros(0, 2), None, &mut out);
        assert_eq!(out.as_slice(), &[0.0; 6]);
    }
}

#[cfg(test)]
mod csr_properties {
    //! Property tests pinning the CSR contract: building from a random edge
    //! list and reading back is a permutation-stable identity, the source
    //! and non-empty row lists are exactly the distinct sources and
    //! destinations in ascending order, and `spmm` against the gathered
    //! source rows equals a dense reference matmul.

    use super::*;
    use proptest::prelude::*;

    /// Deterministic splitmix-style stream (the proptest shim has no
    /// collection strategies, so draws come from a seeded integer stream).
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
        fn random_edge_lists_round_trip_and_spmm_matches_dense(
            seed in 0u64..1_000_000,
            senders in 1u32..16,
            idle in 1u32..9,
            edges in 1u32..96,
            feat in 1u32..9,
        ) {
            // Sources are drawn from the first `senders` nodes only, so the
            // `idle` nodes after them are never sources; destinations span
            // every node. Each case also checks the empty relation.
            let n = (senders + idle) as usize;
            let f = feat as usize;
            let mut next = stream(seed);
            for e in [0, edges as usize] {
                let src: Vec<usize> =
                    (0..e).map(|_| next() as usize % senders as usize).collect();
                let dst: Vec<usize> = (0..e).map(|_| next() as usize % n).collect();
                let adj = SparseMatrix::from_edges(n, n, &src, &dst);

                // Round trip: the CSR edge list is a permutation of the
                // input, stable within each destination row.
                prop_assert_eq!(adj.nnz(), e);
                let mut seen = vec![false; e];
                for (pos, (s, d)) in adj.to_edge_list().into_iter().enumerate() {
                    let orig = adj.perm()[pos];
                    prop_assert!(!seen[orig], "edge visited twice");
                    seen[orig] = true;
                    prop_assert_eq!((s, d), (src[orig], dst[orig]));
                    // The column index recovers the edge's source through
                    // the source list.
                    prop_assert_eq!(adj.sources()[adj.col_idx()[pos]], src[orig]);
                }
                prop_assert!(seen.into_iter().all(|v| v), "edge dropped");
                for d in 0..n {
                    let extent = &adj.perm()[adj.row_ptr()[d]..adj.row_ptr()[d + 1]];
                    prop_assert!(
                        extent.windows(2).all(|w| w[0] < w[1]),
                        "row order not stable"
                    );
                }

                // The non-empty row list is exactly the set of destinations,
                // ascending.
                let mut receivers = dst.clone();
                receivers.sort_unstable();
                receivers.dedup();
                prop_assert_eq!(adj.nonempty_rows().as_ref(), receivers.as_slice());

                // The source list is ascending, distinct, and exactly the
                // set of nodes that send an edge.
                let sources = adj.sources();
                prop_assert!(
                    sources.windows(2).all(|w| w[0] < w[1]),
                    "source list not ascending and distinct"
                );
                let mut sends = vec![false; n];
                for &s in &src {
                    sends[s] = true;
                }
                let want_sources: Vec<usize> = (0..n).filter(|&s| sends[s]).collect();
                prop_assert_eq!(sources.as_ref(), want_sources.as_slice());
                prop_assert!(sources.iter().all(|&s| s < senders as usize));

                // spmm over the gathered source rows == dense reference
                // matmul of the weighted adjacency over every node.
                let scale_vals: Vec<f32> = (0..e)
                    .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
                    .collect();
                let scale = Matrix::col_vector(&scale_vals);
                let x = Matrix::from_fn(n, f, |r, c| {
                    (((r * 31 + c * 17) % 23) as f32 - 11.0) / 7.0
                });
                let mut dense = Matrix::zeros(n, n);
                for (pos, (s, d)) in adj.to_edge_list().into_iter().enumerate() {
                    dense.set(d, s, dense.get(d, s) + scale.get(pos, 0));
                }
                let mut got = Matrix::filled(n, f, f32::NAN); // poisoned
                adj.spmm_into(&scale, &x.gather_rows(sources), None, &mut got);
                let want = dense.matmul(&x);
                // 1e-6 relative to the result's magnitude: the dense kernel
                // and the CSR walk sum the same terms in a different
                // association.
                let tol = 1e-6 * want.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
                prop_assert!(
                    got.approx_eq(&want, tol),
                    "spmm diverged from dense matmul by {}",
                    got.max_abs_diff(&want)
                );
            }
        }
    }
}
