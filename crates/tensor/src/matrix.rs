//! Dense, row-major `f64` matrices.
//!
//! This is the value type carried by every autodiff tape node. It is deliberately
//! simple: a contiguous `Vec<f64>` with explicit `rows`/`cols`, plus the handful of
//! kernels the rest of the workspace needs (element-wise arithmetic, `matmul`,
//! broadcasting along rows/columns, reductions and row gathering/scattering).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64` values.
///
/// Vectors are represented as `n x 1` (column) or `1 x n` (row) matrices.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:+.4}", self[(i, j)])?;
                if j + 1 < max_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_cols {
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

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a matrix where every element equals `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a column vector (`n x 1`) from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Builds a row vector (`1 x n`) from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
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

    /// Returns `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// View of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies `values` into row `i`.
    pub fn set_row(&mut self, i: usize, values: &[f64]) {
        assert_eq!(values.len(), self.cols);
        self.row_mut(i).copy_from_slice(values);
    }

    /// Returns the scalar value of a `1x1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1x1`.
    pub fn scalar(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "scalar() requires a 1x1 matrix");
        self.data[0]
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = Self::zeros(self.rows, self.cols);
        self.map_into(f, &mut out);
        out
    }

    /// [`Matrix::map`] into a same-shape buffer (every element overwritten).
    pub(crate) fn map_into(&self, f: impl Fn(f64) -> f64, out: &mut Self) {
        assert_eq!(self.shape(), out.shape(), "map_into shape mismatch");
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shape matrices element-wise with `f`.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        let mut out = Self::zeros(self.rows, self.cols);
        self.zip_map_into(other, f, &mut out);
        out
    }

    /// [`Matrix::zip_map`] into a same-shape buffer (every element overwritten).
    pub(crate) fn zip_map_into(&self, other: &Self, f: impl Fn(f64, f64) -> f64, out: &mut Self) {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_map_into shape mismatch");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Self) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Self {
        self.map(|x| x * s)
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a `cols x rows` buffer (every element overwritten).
    pub(crate) fn transpose_into(&self, out: &mut Self) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into shape mismatch");
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Matrix product `self * other` using an i-k-j loop order so the inner loop
    /// streams over contiguous rows of both operands, register-blocked through
    /// `kernels::mul_row_panels`. Zero `a_ik` entries are skipped (the
    /// same stream a [`crate::SparseMatrix`] of `self` would store), which keeps
    /// the dense product bit-identical to the sparse `spmm` — the zero-skip is
    /// also load-bearing for exactness: `acc + 0.0` flips a `-0.0` accumulator.
    pub fn matmul(&self, other: &Self) -> Self {
        let mut out = Self::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a `self.rows x other.cols` buffer. Every element
    /// is overwritten (the kernel's first sweep is write-only), so the zero-skip
    /// pattern of `self` may differ from the one that last filled `out`.
    pub(crate) fn matmul_into(&self, other: &Self, out: &mut Self) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_into shape mismatch");
        let n = other.cols;
        let bs = other.as_slice();
        for i in 0..self.rows {
            let entries = self.row(i).iter().copied().enumerate().filter(|&(_, a_ik)| a_ik != 0.0);
            crate::kernels::mul_row_panels(entries, bs, n, &mut out.data[i * n..(i + 1) * n]);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column vector (`rows x 1`) of per-row sums.
    pub fn row_sums(&self) -> Self {
        let mut out = Self::zeros(self.rows, 1);
        self.row_sums_into(&mut out);
        out
    }

    /// [`Matrix::row_sums`] into a `rows x 1` buffer (every element overwritten).
    pub(crate) fn row_sums_into(&self, out: &mut Self) {
        assert_eq!(out.shape(), (self.rows, 1), "row_sums_into shape mismatch");
        for i in 0..self.rows {
            out.data[i] = self.row(i).iter().sum();
        }
    }

    /// Per-column sums into a `1 x cols` buffer (zeroed, then accumulated row
    /// by row).
    pub(crate) fn col_sums_into(&self, out: &mut Self) {
        assert_eq!(out.shape(), (1, self.cols), "col_sums_into shape mismatch");
        out.data.fill(0.0);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j] += self[(i, j)];
            }
        }
    }

    /// Per-row maxima into a `rows x 1` buffer (every element overwritten).
    pub(crate) fn row_max_into(&self, out: &mut Self) {
        assert_eq!(out.shape(), (self.rows, 1), "row_max_into shape mismatch");
        for i in 0..self.rows {
            out.data[i] = self.row(i).iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        }
    }

    /// Index of the maximum element in row `i`.
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Largest element of the whole matrix.
    pub fn max(&self) -> f64 {
        self.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element of the whole matrix.
    pub fn min(&self) -> f64 {
        self.data.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Selects the given rows into a new `indices.len() x cols` matrix.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into an `indices.len() x cols` buffer (every
    /// element overwritten).
    pub(crate) fn gather_rows_into(&self, indices: &[usize], out: &mut Self) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "gather_rows_into shape mismatch"
        );
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < self.rows, "gather_rows index {i} out of bounds ({})", self.rows);
            out.row_mut(k).copy_from_slice(self.row(i));
        }
    }

    /// Scatters the rows of `self` (a `indices.len() x cols` matrix) into the
    /// `total_rows x cols` buffer `out` at positions `indices`: `out` is zeroed,
    /// then rows are accumulated in index order, so duplicates add up.
    pub(crate) fn scatter_rows_into(&self, indices: &[usize], out: &mut Self) {
        assert_eq!(self.rows, indices.len(), "scatter_rows index count mismatch");
        assert_eq!(out.cols, self.cols, "scatter_rows_into shape mismatch");
        let total_rows = out.rows;
        out.data.fill(0.0);
        for (k, &i) in indices.iter().enumerate() {
            assert!(i < total_rows, "scatter_rows index {i} out of bounds ({total_rows})");
            let src = self.row(k);
            let dst = out.row_mut(i);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// Broadcasts a column vector (`rows x 1`) across the columns of the
    /// `rows x cols` buffer `out` (every element overwritten).
    pub(crate) fn broadcast_col_into(&self, out: &mut Self) {
        assert_eq!(self.cols, 1, "broadcast_col requires an n x 1 matrix");
        assert_eq!(out.rows, self.rows, "broadcast_col_into shape mismatch");
        for i in 0..self.rows {
            out.row_mut(i).fill(self.data[i]);
        }
    }

    /// Broadcasts a row vector (`1 x cols`) across the rows of the
    /// `rows x cols` buffer `out` (every element overwritten).
    pub(crate) fn broadcast_row_into(&self, out: &mut Self) {
        assert_eq!(self.rows, 1, "broadcast_row requires a 1 x n matrix");
        assert_eq!(out.cols, self.cols, "broadcast_row_into shape mismatch");
        for i in 0..out.rows {
            out.row_mut(i).copy_from_slice(&self.data);
        }
    }

    /// Returns `true` when every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_eye_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(3, 2).sum(), 6.0);
        let i = Matrix::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let i = Matrix::eye(4);
        assert!(a.matmul(&i).approx_eq(&a, 1e-12));
        assert!(i.matmul(&a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64) - (j as f64) * 0.5);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn row_and_col_sums() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(m.row_sums().approx_eq(&Matrix::col_vector(&[6.0, 15.0]), 1e-12));
        let mut col_sums = Matrix::full(1, 3, f64::NAN);
        m.col_sums_into(&mut col_sums);
        assert!(col_sums.approx_eq(&Matrix::row_vector(&[5.0, 7.0, 9.0]), 1e-12));
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let m = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let g = m.gather_rows(&[4, 0, 2]);
        assert_eq!(g.row(0), m.row(4));
        assert_eq!(g.row(1), m.row(0));
        let mut s = Matrix::full(5, 3, f64::NAN);
        g.scatter_rows_into(&[4, 0, 2], &mut s);
        assert_eq!(s.row(4), m.row(4));
        assert_eq!(s.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn scatter_accumulates_duplicates() {
        let g = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut s = Matrix::full(3, 2, f64::NAN);
        g.scatter_rows_into(&[1, 1], &mut s);
        assert_eq!(s.row(1), &[4.0, 6.0]);
    }

    #[test]
    fn broadcast_shapes_and_values() {
        let c = Matrix::col_vector(&[1.0, 2.0]);
        let mut b = Matrix::zeros(2, 3);
        c.broadcast_col_into(&mut b);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(1, 2)], 2.0);
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let mut b = Matrix::zeros(2, 3);
        r.broadcast_row_into(&mut b);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(1, 0)], 1.0);
    }

    #[test]
    fn argmax_and_max() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.3, 0.5, 0.2, 0.7]);
        assert_eq!(m.argmax_row(0), 1);
        assert_eq!(m.argmax_row(1), 2);
        assert_eq!(m.max(), 0.9);
        assert_eq!(m.min(), 0.1);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![2.0, 0.5, -1.0]);
        assert!(a.hadamard(&b).approx_eq(&Matrix::row_vector(&[2.0, 1.0, -3.0]), 1e-12));
        assert!(a.scale(2.0).approx_eq(&Matrix::row_vector(&[2.0, 4.0, 6.0]), 1e-12));
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m[(0, 1)] = f64::NAN;
        assert!(m.has_non_finite());
    }
}
