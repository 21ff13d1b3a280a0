//! Dense row-major `f32` matrix used throughout the ParaGraph models.
//!
//! The matrix type is deliberately small and predictable: a shape plus a flat
//! `Vec<f32>`. All hot operations (matrix multiplication in particular) are
//! written so that the inner loops are over contiguous slices, and the larger
//! products are parallelised over output rows with rayon.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Row-major dense matrix of `f32` values.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Minimum number of multiply-accumulate operations before `matmul`
/// parallelises over output rows. Below this threshold the rayon dispatch
/// overhead dominates.
const PAR_MATMUL_THRESHOLD: usize = 64 * 64 * 64;

/// Below this many multiply-accumulates the simple accumulating `ikj` kernel
/// wins: packing `B` transposed costs `k * n` extra reads/writes that tiny
/// products never amortise.
const PACK_MATMUL_THRESHOLD: usize = 24 * 24 * 24;

/// Narrow-output cutoff: products with fewer than this many output columns
/// (the attention-score `* x 1` products, notably) use the packed
/// transposed-`B` dot kernel, everything wider uses the register-tiled `ikj`
/// kernel.
const MATMUL_NARROW_N: usize = 8;

/// One register tile of the blocked `ikj` kernel: accumulate `T` output
/// columns of one row entirely in a fixed-size array (which LLVM keeps in
/// SIMD registers), sweeping `A`'s row once. Zero entries of `A` skip their
/// whole `B` row — layer-one GNN inputs are mostly one-hot, so this skip is
/// worth more than any amount of SIMD.
#[inline]
fn matmul_row_tile<const T: usize>(row_a: &[f32], b: &[f32], n: usize, j0: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; T];
    for (kk, &a) in row_a.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = &b[kk * n + j0..kk * n + j0 + T];
        for l in 0..T {
            acc[l] += a * b_row[l];
        }
    }
    out[j0..j0 + T].copy_from_slice(&acc);
}

/// [`matmul_row_tile`] that accumulates on top of the existing output tile
/// (`out += A * B` row kernels).
#[inline]
fn matmul_row_tile_acc<const T: usize>(
    row_a: &[f32],
    b: &[f32],
    n: usize,
    j0: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; T];
    acc.copy_from_slice(&out[j0..j0 + T]);
    for (kk, &a) in row_a.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        let b_row = &b[kk * n + j0..kk * n + j0 + T];
        for l in 0..T {
            acc[l] += a * b_row[l];
        }
    }
    out[j0..j0 + T].copy_from_slice(&acc);
}

/// Accumulating variant of [`matmul_row_tiled`]: `row_out += row_a * B`.
#[inline]
fn matmul_row_tiled_acc(row_a: &[f32], b: &[f32], n: usize, row_out: &mut [f32]) {
    let mut j0 = 0;
    while n - j0 >= 16 {
        matmul_row_tile_acc::<16>(row_a, b, n, j0, row_out);
        j0 += 16;
    }
    if n - j0 >= 8 {
        matmul_row_tile_acc::<8>(row_a, b, n, j0, row_out);
        j0 += 8;
    }
    if n - j0 >= 4 {
        matmul_row_tile_acc::<4>(row_a, b, n, j0, row_out);
        j0 += 4;
    }
    if n - j0 >= 2 {
        matmul_row_tile_acc::<2>(row_a, b, n, j0, row_out);
        j0 += 2;
    }
    if j0 < n {
        matmul_row_tile_acc::<1>(row_a, b, n, j0, row_out);
    }
}

/// Compute one output row of `A * B` with the register-tiled `ikj` kernel:
/// column tiles of 16/8/4 keep the accumulators in registers, the innermost
/// loops are fixed-width (autovectorizer-friendly), and the per-element
/// summation order over `k` is ascending — identical to the naive kernel, so
/// tiling never changes a result bit.
#[inline]
fn matmul_row_tiled(row_a: &[f32], b: &[f32], n: usize, row_out: &mut [f32]) {
    let mut j0 = 0;
    while n - j0 >= 16 {
        matmul_row_tile::<16>(row_a, b, n, j0, row_out);
        j0 += 16;
    }
    if n - j0 >= 8 {
        matmul_row_tile::<8>(row_a, b, n, j0, row_out);
        j0 += 8;
    }
    if n - j0 >= 4 {
        matmul_row_tile::<4>(row_a, b, n, j0, row_out);
        j0 += 4;
    }
    if n - j0 >= 2 {
        matmul_row_tile::<2>(row_a, b, n, j0, row_out);
        j0 += 2;
    }
    if j0 < n {
        matmul_row_tile::<1>(row_a, b, n, j0, row_out);
    }
}

/// Eight-wide partial-sum dot product over two contiguous slices. The fixed
/// accumulator array is the pattern LLVM's autovectorizer turns into packed
/// SIMD madds without any unsafe or intrinsics.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() - a.len() % 8;
    let mut acc = [0.0f32; 8];
    for (ca, cb) in a[..main].chunks_exact(8).zip(b[..main].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        sum += x * y;
    }
    sum
}

impl Matrix {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with the given value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Create a matrix taking ownership of a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Create a 1 x n row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Create an n x 1 column vector from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow one row as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copy one column out of the matrix.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Small products run an accumulating `ikj` kernel; larger ones pack
    /// `other` transposed once and compute cache-blocked dot products
    /// (see [`Matrix::matmul_into`]). Parallelised over output rows when the
    /// problem is large enough to amortise the rayon dispatch.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self * other`, written into `out` (reshaped in place,
    /// reusing its buffer — the allocation-free sibling of
    /// [`Matrix::matmul`] for arena-style callers like the autograd tape).
    ///
    /// Kernel selection:
    ///
    /// * tiny products run the plain accumulating `ikj` loop;
    /// * narrow outputs (`n < MATMUL_NARROW_N`, e.g. attention-score
    ///   `* x 1` products) pack `other` transposed once so the inner loop is
    ///   a dot product over two contiguous slices;
    /// * everything else runs the cache-blocked, register-tiled `ikj` kernel
    ///   (`matmul_row_tiled`): fixed-width column tiles accumulate in
    ///   registers, zero rows of `A` are skipped (one-hot GNN features), and
    ///   per-element summation order matches the naive kernel bit for bit.
    ///
    /// All paths are plain safe Rust and parallelise over output rows once
    /// the product is large enough to amortise the rayon dispatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let m = self.rows;
        let k = self.cols;
        let n = other.cols;

        let work = m * k * n;
        if work < PACK_MATMUL_THRESHOLD {
            // ikj loop order keeps the innermost loop contiguous in both
            // `other` and the output row. Accumulating kernel: needs zeros.
            out.reset_to_zeros(m, n);
            for (row_out, row_a) in out.data.chunks_mut(n).zip(self.data.chunks(k)) {
                for (kk, &a) in row_a.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b_row = &other.data[kk * n..(kk + 1) * n];
                    for (o, &b) in row_out.iter_mut().zip(b_row.iter()) {
                        *o += a * b;
                    }
                }
            }
            return;
        }

        // Both remaining kernels overwrite every output element.
        out.resize_for_overwrite(m, n);
        if n < MATMUL_NARROW_N {
            let bt = other.transpose();
            let compute_row = |row_a: &[f32], row_out: &mut [f32]| {
                for (o, j) in row_out.iter_mut().zip(0..n) {
                    *o = dot(row_a, &bt.data[j * k..(j + 1) * k]);
                }
            };
            if work >= PAR_MATMUL_THRESHOLD {
                out.data
                    .par_chunks_mut(n)
                    .zip(self.data.par_chunks(k))
                    .for_each(|(row_out, row_a)| compute_row(row_a, row_out));
            } else {
                for (row_out, row_a) in out.data.chunks_mut(n).zip(self.data.chunks(k)) {
                    compute_row(row_a, row_out);
                }
            }
            return;
        }

        let b = &other.data;
        if work >= PAR_MATMUL_THRESHOLD {
            out.data
                .par_chunks_mut(n)
                .zip(self.data.par_chunks(k))
                .for_each(|(row_out, row_a)| matmul_row_tiled(row_a, b, n, row_out));
        } else {
            for (row_out, row_a) in out.data.chunks_mut(n).zip(self.data.chunks(k)) {
                matmul_row_tiled(row_a, b, n, row_out);
            }
        }
    }

    /// `out += self * other^T`: `other` is `p x j` with the same inner
    /// dimension `j` as `self` (`m x j`). This is the backward-pass kernel
    /// for `dL/dA = G * B^T`; in every model matmul `B` is a small parameter
    /// matrix, so the kernel pays one tiny transpose of `other` and then
    /// reuses the register-tiled zero-skipping row kernel — ReLU-masked
    /// gradient rows skip most of their work.
    pub fn matmul_nt_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_nt output shape mismatch"
        );
        let j = self.cols;
        let p = other.rows;
        let work = self.rows * j * p;
        if p < MATMUL_NARROW_N || work < PACK_MATMUL_THRESHOLD {
            // Narrow or tiny: dot products over the already-contiguous rows.
            let compute_row = |row_a: &[f32], row_out: &mut [f32]| {
                for (o, idx) in row_out.iter_mut().zip(0..p) {
                    *o += dot(row_a, &other.data[idx * j..(idx + 1) * j]);
                }
            };
            if work >= PAR_MATMUL_THRESHOLD {
                out.data
                    .par_chunks_mut(p)
                    .zip(self.data.par_chunks(j))
                    .for_each(|(row_out, row_a)| compute_row(row_a, row_out));
            } else {
                for (row_out, row_a) in out.data.chunks_mut(p).zip(self.data.chunks(j)) {
                    compute_row(row_a, row_out);
                }
            }
            return;
        }
        let bt = other.transpose();
        let b = &bt.data;
        if work >= PAR_MATMUL_THRESHOLD {
            out.data
                .par_chunks_mut(p)
                .zip(self.data.par_chunks(j))
                .for_each(|(row_out, row_a)| matmul_row_tiled_acc(row_a, b, p, row_out));
        } else {
            for (row_out, row_a) in out.data.chunks_mut(p).zip(self.data.chunks(j)) {
                matmul_row_tiled_acc(row_a, b, p, row_out);
            }
        }
    }

    /// `out = self * other^T` — the overwrite sibling of
    /// [`Matrix::matmul_nt_acc_into`], used when a gradient buffer receives
    /// its first (and usually only) contribution: skipping the zero-fill and
    /// read-back halves the memory traffic on the largest backward matrices.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let j = self.cols;
        let p = other.rows;
        out.resize_for_overwrite(self.rows, p);
        let work = self.rows * j * p;
        if p < MATMUL_NARROW_N || work < PACK_MATMUL_THRESHOLD {
            let compute_row = |row_a: &[f32], row_out: &mut [f32]| {
                for (o, idx) in row_out.iter_mut().zip(0..p) {
                    *o = dot(row_a, &other.data[idx * j..(idx + 1) * j]);
                }
            };
            if work >= PAR_MATMUL_THRESHOLD {
                out.data
                    .par_chunks_mut(p)
                    .zip(self.data.par_chunks(j))
                    .for_each(|(row_out, row_a)| compute_row(row_a, row_out));
            } else {
                for (row_out, row_a) in out.data.chunks_mut(p).zip(self.data.chunks(j)) {
                    compute_row(row_a, row_out);
                }
            }
            return;
        }
        let bt = other.transpose();
        let b = &bt.data;
        if work >= PAR_MATMUL_THRESHOLD {
            out.data
                .par_chunks_mut(p)
                .zip(self.data.par_chunks(j))
                .for_each(|(row_out, row_a)| matmul_row_tiled(row_a, b, p, row_out));
        } else {
            for (row_out, row_a) in out.data.chunks_mut(p).zip(self.data.chunks(j)) {
                matmul_row_tiled(row_a, b, p, row_out);
            }
        }
    }

    /// `out += self^T * other` without materialising the transpose: `self` is
    /// `m x k`, `other` is `m x n`, `out` is `k x n`. This is the
    /// backward-pass kernel for `dL/dB = A^T * G`. Large products are
    /// parallelised by row chunks with per-chunk partial sums reduced in
    /// chunk order, so the result stays deterministic.
    pub fn matmul_tn_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "matmul_tn output shape mismatch"
        );
        let m = self.rows;
        let k = self.cols;
        let n = other.cols;
        let accumulate = |rows: std::ops::Range<usize>, out: &mut Matrix| {
            for i in rows {
                let a_row = &self.data[i * k..(i + 1) * k];
                let g_row = &other.data[i * n..(i + 1) * n];
                for (kk, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let out_row = &mut out.data[kk * n..(kk + 1) * n];
                    for (o, &g) in out_row.iter_mut().zip(g_row.iter()) {
                        *o += a * g;
                    }
                }
            }
        };
        let work = m * k * n;
        if work < PAR_MATMUL_THRESHOLD || m < 2 {
            accumulate(0..m, out);
            return;
        }
        let chunk_rows = m.div_ceil(16).max(8);
        let ranges: Vec<std::ops::Range<usize>> = (0..m)
            .step_by(chunk_rows)
            .map(|lo| lo..(lo + chunk_rows).min(m))
            .collect();
        let partials: Vec<Matrix> = ranges
            .par_iter()
            .map(|range| {
                let mut partial = Matrix::zeros(k, n);
                accumulate(range.clone(), &mut partial);
                partial
            })
            .collect();
        for partial in &partials {
            out.add_assign(partial);
        }
    }

    /// Elementwise sum of two equally shaped matrices.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference of two equally shaped matrices.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise combination of two equally shaped matrices.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "elementwise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place elementwise addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place scaled addition: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiply all elements by a scalar, returning a new matrix.
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Apply a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply a function to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Become `f` applied elementwise to `src`, reusing this buffer.
    pub fn map_from(&mut self, src: &Matrix, f: impl Fn(f32) -> f32) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|&v| f(v)));
    }

    /// Become `f` applied elementwise to the pair `(a, b)`, reusing this
    /// buffer.
    pub fn zip_from(&mut self, a: &Matrix, b: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(
            a.shape(),
            b.shape(),
            "elementwise op shape mismatch: {:?} vs {:?}",
            a.shape(),
            b.shape()
        );
        self.rows = a.rows;
        self.cols = a.cols;
        self.data.clear();
        self.data
            .extend(a.data.iter().zip(b.data.iter()).map(|(&x, &y)| f(x, y)));
    }

    /// In-place row-broadcast addition: `self[r] += bias` for every row.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width must match matrix width");
        for r in 0..self.rows {
            let row = self.row_mut(r);
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
    }

    /// In-place column-broadcast scaling: `self[r] *= scales[r]`.
    pub fn mul_col_broadcast_assign(&mut self, scales: &Matrix) {
        assert_eq!(scales.cols, 1, "scales must be a column vector");
        assert_eq!(
            scales.rows, self.rows,
            "scales height must match matrix height"
        );
        for r in 0..self.rows {
            let s = scales.data[r];
            for v in self.row_mut(r) {
                *v *= s;
            }
        }
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshape to `rows x cols` with every element zero, reusing the existing
    /// buffer allocation whenever its capacity suffices. The arena primitive
    /// behind tape reuse: repeated iterations with stable shapes allocate
    /// nothing.
    pub fn reset_to_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape to `rows x cols` for a kernel that will overwrite **every**
    /// element: existing contents are kept as garbage when the length already
    /// matches (the steady state of a reused tape slot), so no memset pass
    /// runs. Only pair this with full-overwrite kernels — accumulating
    /// kernels need [`Matrix::reset_to_zeros`].
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.len() != rows * cols {
            self.data.clear();
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Become a copy of `src`, reusing the existing buffer allocation
    /// whenever its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Add a 1 x cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width must match matrix width");
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            for (o, &b) in row.iter_mut().zip(bias.data.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Multiply each row `i` by the scalar `scales[i]` (an n x 1 column vector).
    pub fn mul_col_broadcast(&self, scales: &Matrix) -> Matrix {
        assert_eq!(scales.cols, 1, "scales must be a column vector");
        assert_eq!(
            scales.rows, self.rows,
            "scales height must match matrix height"
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            let s = scales.data[r];
            for v in out.row_mut(r) {
                *v *= s;
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum, producing a 1 x cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// Column-wise mean, producing a 1 x cols row vector.
    pub fn mean_rows(&self) -> Matrix {
        if self.rows == 0 {
            return Matrix::zeros(1, self.cols);
        }
        self.sum_rows().scale(1.0 / self.rows as f32)
    }

    /// Maximum element (negative infinity for an empty matrix).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty matrix).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "concat_cols requires equal row counts"
        );
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertical concatenation of `self` on top of `other`.
    pub fn concat_rows(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "concat_rows requires equal column counts"
        );
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Gather the given rows into a new matrix (rows may repeat).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather_rows index {idx} out of bounds ({} rows)",
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Scatter-add rows of `self` into a new `out_rows x cols` matrix:
    /// `out[indices[i]] += self[i]`.
    pub fn scatter_add_rows(&self, indices: &[usize], out_rows: usize) -> Matrix {
        let mut out = Matrix::zeros(out_rows, self.cols);
        self.scatter_add_rows_acc_into(indices, &mut out);
        out
    }

    /// Scatter-add rows of `self` into an existing matrix:
    /// `out[indices[i]] += self[i]`. The accumulate-in-place sibling of
    /// [`Matrix::scatter_add_rows`] used by the gradient arena.
    pub fn scatter_add_rows_acc_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(indices.len(), self.rows, "one index per row required");
        assert_eq!(out.cols, self.cols, "scatter column width mismatch");
        let out_rows = out.rows;
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < out_rows,
                "scatter index {idx} out of bounds ({out_rows} rows)"
            );
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            let dst = out.row_mut(idx);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// Gather rows of `self` into `out` (reshaped in place, every row
    /// overwritten): `out[i] = self[indices[i]]`.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize_for_overwrite(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather_rows index {idx} out of bounds ({} rows)",
                self.rows
            );
            let start = i * self.cols;
            out.data[start..start + self.cols].copy_from_slice(self.row(idx));
        }
    }

    /// Gather-add rows of `self`: `out[i] += self[indices[i]]`. The
    /// accumulate-in-place backward kernel of scatter-add.
    pub fn gather_rows_acc_into(&self, indices: &[usize], out: &mut Matrix) {
        assert_eq!(out.rows, indices.len(), "one output row per index");
        assert_eq!(out.cols, self.cols, "gather column width mismatch");
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather_rows index {idx} out of bounds ({} rows)",
                self.rows
            );
            let src = self.row(idx);
            let dst = out.row_mut(i);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    /// Maximum absolute elementwise difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Approximate equality within an absolute tolerance.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_lays_out_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_matmul_is_identity_op() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let i = Matrix::identity(3);
        assert!(a.matmul(&i).approx_eq(&a, 1e-6));
        assert!(i.matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_matches_manual_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_large_parallel_path_matches_serial() {
        // Force the parallel path and compare against an independently
        // computed small-blocked result.
        let n = 70;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 13) % 17) as f32 / 16.0);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 3 + c * 5) % 23) as f32 / 22.0);
        let c = a.matmul(&b);
        // naive reference
        let mut reference = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a.get(i, k) * b.get(k, j);
                }
                reference.set(i, j, acc);
            }
        }
        assert!(c.approx_eq(&reference, 1e-3));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        let t = a.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.get(4, 2), a.get(2, 4));
        assert!(t.transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn broadcast_ops() {
        let a = Matrix::from_fn(2, 3, |_, c| c as f32);
        let bias = Matrix::row_vector(&[10.0, 20.0, 30.0]);
        let with_bias = a.add_row_broadcast(&bias);
        assert_eq!(with_bias.row(0), &[10.0, 21.0, 32.0]);
        assert_eq!(with_bias.row(1), &[10.0, 21.0, 32.0]);

        let scales = Matrix::col_vector(&[2.0, 3.0]);
        let scaled = a.mul_col_broadcast(&scales);
        assert_eq!(scaled.row(0), &[0.0, 2.0, 4.0]);
        assert_eq!(scaled.row(1), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.mean_rows().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn concat_and_gather_and_scatter() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![9.0, 8.0]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.row(0), &[1.0, 2.0, 9.0]);

        let stacked = a.concat_rows(&a);
        assert_eq!(stacked.shape(), (4, 2));

        let g = a.gather_rows(&[1, 1, 0]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[3.0, 4.0]);
        assert_eq!(g.row(2), &[1.0, 2.0]);

        let s = g.scatter_add_rows(&[0, 0, 1], 2);
        assert_eq!(s.row(0), &[6.0, 8.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn axpy_and_fill_zero() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        a.fill_zero();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(2, 2);
        assert!(!a.has_non_finite());
        a.set(1, 1, f32::NAN);
        assert!(a.has_non_finite());
    }

    fn pseudo(rows: usize, cols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + seed * 101) % 19) as f32 - 9.0) / 7.0
        })
    }

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_matches_naive_on_awkward_shapes() {
        // Shapes straddling the pack threshold, tile boundaries and remainder
        // lanes of the 8-wide dot kernel.
        for &(m, k, n) in &[
            (1usize, 40usize, 24usize),
            (23, 13, 7),
            (100, 37, 29),
            (130, 48, 65),
            (3, 200, 200),
        ] {
            let a = pseudo(m, k, 1);
            let b = pseudo(k, n, 2);
            let got = a.matmul(&b);
            let want = naive_matmul(&a, &b);
            assert!(
                got.approx_eq(&want, 1e-3),
                "matmul mismatch for {m}x{k} * {k}x{n}: max diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn matmul_into_reuses_and_reshapes_the_output() {
        let a = pseudo(5, 6, 3);
        let b = pseudo(6, 4, 4);
        let mut out = Matrix::filled(9, 9, 7.0); // wrong shape, stale values
        a.matmul_into(&b, &mut out);
        assert!(out.approx_eq(&naive_matmul(&a, &b), 1e-4));
    }

    #[test]
    fn matmul_nt_acc_matches_explicit_transpose() {
        let g = pseudo(50, 20, 5);
        let b = pseudo(30, 20, 6);
        let mut out = pseudo(50, 30, 7);
        let want = out.add(&g.matmul(&b.transpose()));
        g.matmul_nt_acc_into(&b, &mut out);
        assert!(out.approx_eq(&want, 1e-3), "{}", out.max_abs_diff(&want));
    }

    #[test]
    fn matmul_tn_acc_matches_explicit_transpose() {
        // Large enough to take the chunked-partials parallel path.
        let a = pseudo(600, 24, 8);
        let g = pseudo(600, 32, 9);
        let mut out = pseudo(24, 32, 10);
        let want = out.add(&a.transpose().matmul(&g));
        a.matmul_tn_acc_into(&g, &mut out);
        assert!(out.approx_eq(&want, 2e-3), "{}", out.max_abs_diff(&want));
    }

    #[test]
    fn acc_into_gather_scatter_match_allocating_forms() {
        let x = pseudo(4, 3, 11);
        let indices = [0usize, 2, 2, 3, 1];
        let mut gathered = Matrix::zeros(5, 3);
        x.gather_rows_acc_into(&indices, &mut gathered);
        assert!(gathered.approx_eq(&x.gather_rows(&indices), 0.0));

        let mut scattered = Matrix::zeros(4, 3);
        gathered.scatter_add_rows_acc_into(&indices, &mut scattered);
        assert!(scattered.approx_eq(&gathered.scatter_add_rows(&indices, 4), 0.0));
    }

    #[test]
    fn reset_and_copy_reuse_the_allocation() {
        let mut m = Matrix::filled(8, 8, 3.0);
        m.reset_to_zeros(4, 5);
        assert_eq!(m.shape(), (4, 5));
        assert_eq!(m.sum(), 0.0);

        let src = pseudo(3, 7, 12);
        m.copy_from(&src);
        assert!(m.approx_eq(&src, 0.0));
    }
}
