//! Row-major dense `f32` matrix.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense, row-major `f32` matrix.
///
/// The matrix is the unit of weight storage throughout the workspace: DNN
/// weight matrices, im2col-lowered convolution filters, activation inputs and
/// GEMM outputs are all `Matrix` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of the (row, col) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (handy in tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows are not allowed");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// A matrix with entries drawn i.i.d. from `U(-scale, scale)`, seeded.
    pub fn random_uniform(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_fn(rows, cols, |_, _| rng.gen_range(-scale..scale))
    }

    /// A matrix with entries drawn i.i.d. from `N(0, std^2)`, seeded.
    pub fn random_normal(rows: usize, cols: usize, std: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = NormalApprox { std };
        Self::from_fn(rows, cols, |_, _| dist.sample(&mut rng))
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

    /// Immutable access to the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access with bounds checking in debug builds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets a single element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a freshly allocated vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Extracts the sub-matrix of rows `[r0, r1)` and columns `[c0, c1)`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        Matrix::from_fn(r1 - r0, c1 - c0, |r, c| self.get(r0 + r, c0 + c))
    }

    /// Selects a subset of columns (in the given order) into a new matrix.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, cols.len(), |r, i| self.get(r, cols[i]))
    }

    /// Selects a subset of rows (in the given order) into a new matrix.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        Matrix::from_fn(rows.len(), self.cols, |i, c| self.get(rows[i], c))
    }

    /// Number of exactly-zero elements.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&v| v == 0.0).count()
    }

    /// Number of non-zero elements.
    pub fn count_nonzeros(&self) -> usize {
        self.len() - self.count_zeros()
    }

    /// Fraction of elements that are exactly zero (the sparsity the paper
    /// reports).
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.count_zeros() as f64 / self.len() as f64
    }

    /// Sum of the absolute values of all elements.
    pub fn abs_sum(&self) -> f64 {
        self.data.iter().map(|v| v.abs() as f64).sum()
    }

    /// Element-wise in-place scaling.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Element-wise addition: `self + other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Zeroes every element whose corresponding mask entry is `false`.
    ///
    /// The mask must have the same shape as the matrix, in row-major order.
    pub fn apply_mask(&self, keep: &[bool]) -> Matrix {
        assert_eq!(keep.len(), self.len(), "mask length mismatch");
        let data = self.data.iter().zip(keep).map(|(&v, &k)| if k { v } else { 0.0 }).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// True when every element of the two matrices agrees within `tol`
    /// (see [`crate::approx_eq`]).
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(&a, &b)| crate::approx_eq(a, b, tol))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

/// A small Box-Muller based normal sampler so we avoid depending on
/// `rand_distr` from this low-level crate.
struct NormalApprox {
    std: f32,
}

impl Distribution<f32> for NormalApprox {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        z * self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert_eq!(m.count_zeros(), 12);
        assert_eq!(m.sparsity(), 1.0);
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_and_indexing() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_wrong_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::random_uniform(5, 7, 1.0, 42);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t.transpose(), m);
        assert_eq!(m.get(2, 3), t.get(3, 2));
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let cols = m.select_cols(&[2, 0]);
        assert_eq!(cols.shape(), (3, 2));
        assert_eq!(cols[(0, 0)], 2.0);
        assert_eq!(cols[(0, 1)], 0.0);
        let rows = m.select_rows(&[1]);
        assert_eq!(rows.shape(), (1, 3));
        assert_eq!(rows.row(0), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn sparsity_counts() {
        let m = Matrix::from_vec(2, 2, vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(m.count_zeros(), 2);
        assert_eq!(m.count_nonzeros(), 2);
        assert!((m.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mask_zeroes_elements() {
        let m = Matrix::filled(2, 2, 3.0);
        let masked = m.apply_mask(&[true, false, false, true]);
        assert_eq!(masked.as_slice(), &[3.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.abs_sum() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn random_matrices_are_deterministic() {
        let a = Matrix::random_uniform(4, 4, 1.0, 7);
        let b = Matrix::random_uniform(4, 4, 1.0, 7);
        let c = Matrix::random_uniform(4, 4, 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_normal_has_reasonable_spread() {
        let m = Matrix::random_normal(100, 100, 1.0, 3);
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 =
            m.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.0005);
        assert!(a.approx_eq(&b, 1e-3));
        b.set(0, 0, 2.0);
        assert!(!a.approx_eq(&b, 1e-3));
    }
}
