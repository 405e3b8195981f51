//! Compressed sparse column (CSC) format.
//!
//! The TEW hybrid pattern stores its element-wise overlay per tile in CSC
//! (paper Fig. 4 ③-④), because the overlay is applied column-by-column on
//! top of a column-pruned tile.

use tw_tensor::Matrix;

/// A CSC matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// `col_ptr[c]..col_ptr[c+1]` indexes the entries of column `c`.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry.
    row_idx: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f32>,
}

impl CscMatrix {
    /// Builds a CSC matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for c in 0..cols {
            for r in 0..rows {
                let v = dense.get(r, c);
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Self { rows, cols, col_ptr, row_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointers.
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The entries of one column as parallel `(row, value)` slices.
    pub fn col_entries(&self, c: usize) -> (&[usize], &[f32]) {
        let start = self.col_ptr[c];
        let end = self.col_ptr[c + 1];
        (&self.row_idx[start..end], &self.values[start..end])
    }

    /// Iterator over `(row, col, value)` triples in column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.cols).flat_map(move |c| {
            let start = self.col_ptr[c];
            let end = self.col_ptr[c + 1];
            (start..end).map(move |i| (self.row_idx[i], c, self.values[i]))
        })
    }

    /// Converts back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact matrix and CSC layout shown in the paper's Fig. 4.
    fn paper_example() -> Matrix {
        Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[4.0, 0.0, 2.0, 0.0],
            &[0.0, 8.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 6.0],
        ])
    }

    #[test]
    fn matches_fig4_csc_layout() {
        let csc = CscMatrix::from_dense(&paper_example());
        // Fig. 4: Value = [4,1,8,2,6], Row ID = [1,0,2,1,3], Col Ptr = [0,1,3,4,5].
        assert_eq!(csc.values(), &[4.0, 1.0, 8.0, 2.0, 6.0]);
        assert_eq!(csc.row_idx(), &[1, 0, 2, 1, 3]);
        assert_eq!(csc.col_ptr(), &[0, 1, 3, 4, 5]);
    }

    #[test]
    fn round_trip() {
        let dense = paper_example();
        assert_eq!(CscMatrix::from_dense(&dense).to_dense(), dense);
    }

    #[test]
    fn col_entries_access() {
        let csc = CscMatrix::from_dense(&paper_example());
        let (rows, vals) = csc.col_entries(1);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 8.0]);
    }

    #[test]
    fn empty_column_handled() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let csc = CscMatrix::from_dense(&dense);
        assert_eq!(csc.col_ptr(), &[0, 1, 1, 2]);
        let (rows, _) = csc.col_entries(1);
        assert!(rows.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::csr::CsrMatrix;
    use proptest::prelude::*;

    fn arb_sparse_dense() -> impl Strategy<Value = Matrix> {
        (1usize..16, 1usize..16, any::<u64>(), 0.0f64..1.0).prop_map(|(r, c, seed, density)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Matrix::from_fn(r, c, |_, _| {
                if rng.gen_bool(density) {
                    rng.gen_range(-1.0..1.0f32)
                } else {
                    0.0
                }
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CSC and CSR represent the same matrix.
        #[test]
        fn csc_csr_agree(dense in arb_sparse_dense()) {
            let csc = CscMatrix::from_dense(&dense);
            let csr = CsrMatrix::from_dense(&dense);
            prop_assert_eq!(csc.nnz(), csr.nnz());
            prop_assert_eq!(csc.to_dense(), csr.to_dense());
        }

        /// CSC of the transpose has the CSR structure of the original.
        #[test]
        fn csc_of_transpose_is_csr(dense in arb_sparse_dense()) {
            let csc_t = CscMatrix::from_dense(&dense.transpose());
            let csr = CsrMatrix::from_dense(&dense);
            prop_assert_eq!(csc_t.col_ptr(), csr.row_ptr());
            prop_assert_eq!(csc_t.row_idx(), csr.col_idx());
        }
    }
}
