//! Weighted compressed-sparse-row matrices and their kernels.
//!
//! [`SparseMatrix`] is the sparse counterpart of [`Matrix`]: a CSR structure with
//! `f64` values, built for the workspace's sparse hot shapes — a (normalized)
//! graph adjacency multiplying dense embedding blocks, and a graph's CSR
//! features multiplying a weight matrix. Two kernels carry the whole sparse
//! compute core:
//!
//! * [`SparseMatrix::spmm`] — CSR · dense, register-blocked (see [`crate::kernels`]).
//!   Per output row the stored entries are accumulated in ascending column order,
//!   which is the **exact** floating-point operation sequence of [`Matrix::matmul`]
//!   (an i-k-j loop that skips zero `a_ik`; the builders filter explicit zeros so
//!   the stored stream *is* the non-zero stream). Sparse and dense forward passes
//!   are therefore bit-for-bit identical, which is what lets the dense path remain
//!   a byte-exact oracle for the sparse one — and the unblocked
//!   [`SparseMatrix::spmm_reference`] scalar kernel stays around as the oracle the
//!   blocked kernel is pinned against.
//! * [`SparseMatrix::sddmm`] — sampled dense-dense matmul: for `C = A · B`, the
//!   gradient `∂L/∂A[i,j] = ⟨∂L/∂C[i,·], B[j,·]⟩` evaluated **only at requested
//!   positions** instead of all `n²` entries. The attack loops only ever consume
//!   adjacency gradients at the stored entries plus the candidate endpoints of one
//!   target node, so this turns the backward cost from `O(n²·f)` into
//!   `O((nnz + |positions|)·f)`.

use crate::matrix::Matrix;

/// A sparse `rows x cols` matrix in compressed-sparse-row form.
///
/// Within each row, column indices are strictly ascending. Explicit zeros are
/// **filtered at construction** (both builders drop `0.0` entries), so the hot
/// kernels never branch on `v == 0.0`: every stored value is non-zero, and the
/// stored stream is exactly the stream the zero-skipping dense `matmul` would
/// consume. A zero handed to a builder still round-trips through
/// [`SparseMatrix::to_dense`] unchanged — the position is simply not stored.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from per-row `(column, value)` entry lists. Entries
    /// within a row must have strictly ascending column indices. Entries with
    /// value `0.0` are validated but not stored.
    ///
    /// # Panics
    /// Panics on out-of-range or non-ascending columns.
    pub fn from_rows(rows: usize, cols: usize, row_entries: &[Vec<(usize, f64)>]) -> Self {
        assert_eq!(row_entries.len(), rows, "one entry list per row");
        let nnz = row_entries.iter().map(Vec::len).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        indptr.push(0);
        for entries in row_entries {
            let mut last: Option<usize> = None;
            for &(j, v) in entries {
                assert!(j < cols, "column {j} out of range for {cols} columns");
                assert!(last.is_none_or(|l| j > l), "columns must be strictly ascending");
                last = Some(j);
                if v == 0.0 {
                    continue;
                }
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds a CSR matrix holding every non-zero entry of a dense matrix.
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    indices.push(j);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Materializes the dense form (tests and small subproblems only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for e in self.indptr[i]..self.indptr[i + 1] {
                out[(i, self.indices[e])] = self.values[e];
            }
        }
        out
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

    /// Number of stored entries (all non-zero: the builders filter zeros).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices of row `i`, ascending.
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, aligned with [`SparseMatrix::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// The stored value at `(i, j)`, or `0.0` when the position is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        match self.row_indices(i).binary_search(&j) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => 0.0,
        }
    }

    /// Whether position `(i, j)` is stored.
    pub fn is_stored(&self, i: usize, j: usize) -> bool {
        self.row_indices(i).binary_search(&j).is_ok()
    }

    /// Every stored position as `(row, col)`, in row-major order.
    pub fn stored_positions(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.rows {
            for &j in self.row_indices(i) {
                out.push((i, j));
            }
        }
        out
    }

    /// The transpose, as CSR (counting sort over columns; deterministic).
    pub fn transpose(&self) -> SparseMatrix {
        let mut counts = vec![0usize; self.cols];
        for &j in &self.indices {
            counts[j] += 1;
        }
        let mut indptr = Vec::with_capacity(self.cols + 1);
        indptr.push(0);
        for c in &counts {
            indptr.push(indptr.last().unwrap() + c);
        }
        let mut cursor = indptr[..self.cols].to_vec();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for i in 0..self.rows {
            for e in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[e];
                let slot = cursor[j];
                cursor[j] += 1;
                indices[slot] = i;
                values[slot] = self.values[e];
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Sparse-times-dense product `self · b`, register-blocked.
    ///
    /// Accumulation order per output element is ascending stored column — exactly
    /// the operation sequence of the zero-skipping dense [`Matrix::matmul`] and of
    /// the scalar [`SparseMatrix::spmm_reference`], so the result is bit-identical
    /// to both (the blocking only regroups *which output columns* an entry's
    /// multiply-adds land in, never the per-element add order).
    pub fn spmm(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut out);
        out
    }

    /// [`SparseMatrix::spmm`] into a caller-provided output buffer.
    ///
    /// Every element of `out` is overwritten and its prior contents are ignored
    /// — the blocked kernel's first sweep is write-only, so no zeroed (or even
    /// initialized-to-anything-specific) buffer is required. Hot loops that
    /// compute many products of the same shape can reuse one allocation and
    /// skip the page-faulting cost of a fresh zeroed matrix per call.
    pub fn spmm_into(&self, b: &Matrix, out: &mut Matrix) {
        // Unlabeled detail span: the guard is inert (one relaxed atomic load)
        // unless a recorder at Detail level is installed, keeping the kernel's
        // hot path free of allocations.
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "spmm");
        assert_eq!(
            self.cols,
            b.rows(),
            "spmm: inner dimensions differ ({} vs {})",
            self.cols,
            b.rows()
        );
        let n = b.cols();
        assert_eq!(
            out.shape(),
            (self.rows, n),
            "spmm_into: output shape {:?} does not match result shape ({}, {})",
            out.shape(),
            self.rows,
            n
        );
        for i in 0..self.rows {
            crate::kernels::mul_row_panels(self.row_entries(i), b.as_slice(), n, out.row_mut(i));
        }
    }

    /// The rows `rows` of `self · b` (`rows.len() x b.cols()`), in the given
    /// order: output row `r` is row `rows[r]` of the full product, bit for bit
    /// (same kernel, same per-row accumulation order). Indices may repeat and
    /// need not be sorted. This is how a subgraph's `X·W₁` is computed without
    /// gathering its `k x f` feature block first.
    pub fn spmm_rows(&self, rows: &[usize], b: &Matrix) -> Matrix {
        let _span = geattack_telemetry::span(geattack_telemetry::Level::Detail, "spmm");
        assert_eq!(
            self.cols,
            b.rows(),
            "spmm: inner dimensions differ ({} vs {})",
            self.cols,
            b.rows()
        );
        let n = b.cols();
        let mut out = Matrix::zeros(rows.len(), n);
        for (r, &i) in rows.iter().enumerate() {
            assert!(i < self.rows, "spmm_rows: row {i} out of range for {} rows", self.rows);
            crate::kernels::mul_row_panels(self.row_entries(i), b.as_slice(), n, out.row_mut(r));
        }
        out
    }

    /// Row `i`'s stored `(column, value)` pairs in ascending column order — the
    /// accumulation order of every product kernel.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_indices(i)
            .iter()
            .copied()
            .zip(self.row_values(i).iter().copied())
    }

    /// The original unblocked scalar spmm loop, kept as the oracle the blocked
    /// [`SparseMatrix::spmm`] is pinned against (bit-for-bit, see the equivalence
    /// suites). Benchmarked as the `scalar` baseline of the `spmm_kernels` group.
    pub fn spmm_reference(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.spmm_reference_into(b, &mut out);
        out
    }

    /// [`SparseMatrix::spmm_reference`] into a caller-provided output buffer.
    ///
    /// The scalar loop accumulates in place, so unlike the blocked
    /// [`SparseMatrix::spmm_into`] it must first zero-fill `out` — the pass the
    /// allocating form gets implicitly (and lazily) from the zeroed allocation.
    pub fn spmm_reference_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            b.rows(),
            "spmm: inner dimensions differ ({} vs {})",
            self.cols,
            b.rows()
        );
        let n = b.cols();
        assert_eq!(
            out.shape(),
            (self.rows, n),
            "spmm_reference_into: output shape {:?} does not match result shape ({}, {})",
            out.shape(),
            self.rows,
            n
        );
        out.as_mut_slice().fill(0.0);
        for i in 0..self.rows {
            let out_row = out.row_mut(i);
            for e in self.indptr[i]..self.indptr[i + 1] {
                let v = self.values[e];
                if v == 0.0 {
                    continue;
                }
                let b_row = b.row(self.indices[e]);
                for j in 0..n {
                    out_row[j] += v * b_row[j];
                }
            }
        }
    }

    /// Sampled dense-dense matmul: for each requested position `(i, j)` returns
    /// `⟨g[i,·], b[j,·]⟩` — the gradient `∂L/∂A[i,j]` of `C = A · B` given
    /// `g = ∂L/∂C`, evaluated only where asked.
    ///
    /// Bounds are validated in one pre-pass so the per-position loop is
    /// assert-free; consecutive positions sharing a row reuse one `g.row(i)`
    /// load (stored positions arrive row-major, so runs are long); and the dot
    /// itself is the unrolled **in-order** [`crate::kernels::dot_in_order`], so
    /// every returned value is bit-identical to the naive
    /// `zip(g.row(i), b.row(j)).map(|..| x*y).sum()`.
    pub fn sddmm(positions: &[(usize, usize)], g: &Matrix, b: &Matrix) -> Vec<f64> {
        assert_eq!(g.cols(), b.cols(), "sddmm: g and b must share their inner dimension");
        for &(i, j) in positions {
            assert!(i < g.rows() && j < b.rows(), "sddmm position ({i},{j}) out of range");
        }
        let mut out = Vec::with_capacity(positions.len());
        let mut p = 0;
        while p < positions.len() {
            let i = positions[p].0;
            let g_row = g.row(i);
            while p < positions.len() && positions[p].0 == i {
                out.push(crate::kernels::dot_in_order(g_row, b.row(positions[p].1)));
                p += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> SparseMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 0 3 0 ]
        SparseMatrix::from_rows(3, 3, &[vec![(0, 1.0), (2, 2.0)], vec![], vec![(1, 3.0)]])
    }

    #[test]
    fn roundtrip_dense() {
        let s = example();
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.get(0, 2), 2.0);
        assert_eq!(s.get(1, 1), 0.0);
        assert!(s.is_stored(2, 1));
        assert!(!s.is_stored(0, 1));
        let d = s.to_dense();
        assert_eq!(SparseMatrix::from_dense(&d), s);
        assert_eq!(s.stored_positions(), vec![(0, 0), (0, 2), (2, 1)]);
    }

    #[test]
    fn spmm_matches_dense_matmul_bitwise() {
        let s = example();
        let b = Matrix::from_fn(3, 2, |i, j| 0.31 * (i as f64 + 1.0) - 0.77 * (j as f64));
        let sparse = s.spmm(&b);
        let dense = s.to_dense().matmul(&b);
        assert_eq!(sparse.as_slice(), dense.as_slice(), "spmm must be bit-identical");
    }

    #[test]
    fn explicit_zeros_are_filtered_but_roundtrip_unchanged() {
        let s = SparseMatrix::from_rows(2, 2, &[vec![(0, 0.0), (1, 2.0)], vec![(0, 1.0)]]);
        // The zero entry is dropped at construction, not stored…
        assert_eq!(s.nnz(), 2);
        assert!(!s.is_stored(0, 0));
        assert_eq!(s.get(0, 0), 0.0);
        // …and the dense round-trip is exactly what storing the zero would give.
        let with_zero = Matrix::from_fn(2, 2, |i, j| [[0.0, 2.0], [1.0, 0.0]][i][j]);
        assert!(s.to_dense().approx_eq(&with_zero, 0.0));
        let b = Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64 + 0.5);
        assert_eq!(s.spmm(&b).as_slice(), s.to_dense().matmul(&b).as_slice());
    }

    #[test]
    fn blocked_spmm_matches_reference_bitwise_across_widths() {
        // Widths 1..=19 cover the 8-panel, the 4-panel, and every scalar
        // remainder, plus rows with zero entries.
        let s = SparseMatrix::from_rows(
            4,
            5,
            &[
                vec![(0, 0.31), (3, -1.7), (4, 0.02)],
                vec![],
                vec![(1, 2.5)],
                vec![(0, -0.875), (1, 1.0e-3), (2, 7.25), (3, 0.5), (4, -3.0)],
            ],
        );
        for n in 0..=19 {
            let b = Matrix::from_fn(5, n, |i, j| ((i * 19 + j) as f64).sin() - 0.4);
            let blocked = s.spmm(&b);
            let reference = s.spmm_reference(&b);
            assert_eq!(blocked.as_slice(), reference.as_slice(), "width {n}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let s = example();
        let t = s.transpose();
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 2), 3.0);
        assert_eq!(t.transpose(), s);
        assert!(t.to_dense().approx_eq(&s.to_dense().transpose(), 0.0));
    }

    #[test]
    fn sddmm_matches_dense_gradient() {
        let b = Matrix::from_fn(3, 4, |i, j| (i as f64) * 0.3 - (j as f64) * 0.2 + 0.1);
        let g = Matrix::from_fn(3, 4, |i, j| (i as f64 + 1.0) * 0.5 + (j as f64) * 0.25);
        // Dense gradient of C = A·B w.r.t. A is g · Bᵀ.
        let dense_grad = g.matmul(&b.transpose());
        let positions = vec![(0, 0), (0, 1), (2, 2), (1, 0)];
        let sampled = SparseMatrix::sddmm(&positions, &g, &b);
        for (&(i, j), &v) in positions.iter().zip(&sampled) {
            assert!((v - dense_grad[(i, j)]).abs() < 1e-12, "mismatch at ({i},{j})");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_rows_rejected() {
        let _ = SparseMatrix::from_rows(1, 3, &[vec![(2, 1.0), (0, 1.0)]]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn spmm_shape_mismatch_panics() {
        let s = example();
        let _ = s.spmm(&Matrix::zeros(2, 2));
    }
}
