//! Compressed sparse row (CSR) format.

use tw_tensor::Matrix;

/// A CSR matrix: the format cuSparse uses for unstructured (EW/VW) sparse
/// weight matrices in the paper's baselines.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the entries of row `r`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry.
    col_idx: Vec<usize>,
    /// Value of each stored entry.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointers.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let start = self.row_ptr[r];
            let end = self.row_ptr[r + 1];
            (start..end).map(move |i| (r, self.col_idx[i], self.values[i]))
        })
    }

    /// The entries of one row as parallel `(col, value)` slices.
    pub fn row_entries(&self, r: usize) -> (&[usize], &[f32]) {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Converts back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// Memory footprint in bytes, assuming the given element size for values
    /// and 4-byte indices (what cuSparse would allocate); used by the GPU
    /// cost model.
    pub fn storage_bytes(&self, elem_size: usize) -> usize {
        self.values.len() * elem_size + self.col_idx.len() * 4 + self.row_ptr.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[4.0, 0.0, 2.0, 0.0],
            &[0.0, 8.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 6.0],
        ])
    }

    #[test]
    fn from_dense_round_trip() {
        let dense = sample_dense();
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn structure_matches_paper_example() {
        // The CSC example in Fig. 4 of the paper uses this matrix; its CSR
        // form has row pointers [0,1,3,4,5].
        let csr = CsrMatrix::from_dense(&sample_dense());
        assert_eq!(csr.row_ptr(), &[0, 1, 3, 4, 5]);
        assert_eq!(csr.col_idx(), &[1, 0, 2, 1, 3]);
        assert_eq!(csr.values(), &[1.0, 4.0, 2.0, 8.0, 6.0]);
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_dense(&Matrix::zeros(3, 3));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.to_dense(), Matrix::zeros(3, 3));
    }

    #[test]
    fn iter_yields_row_major_order() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let triples: Vec<_> = csr.iter().collect();
        assert_eq!(triples[0], (0, 1, 1.0));
        assert_eq!(triples[1], (1, 0, 4.0));
        assert_eq!(triples.len(), 5);
        assert!(triples.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn row_entries_access() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let (cols, vals) = csr.row_entries(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 2.0]);
        let (cols, _) = csr.row_entries(0);
        assert_eq!(cols, &[1]);
    }

    #[test]
    fn storage_bytes_accounts_indices() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        // 5 values * 4B + 5 col idx * 4B + 5 row ptr * 4B
        assert_eq!(csr.storage_bytes(4), 5 * 4 + 5 * 4 + 5 * 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_sparse_dense() -> impl Strategy<Value = Matrix> {
        (1usize..20, 1usize..20, any::<u64>(), 0.0f64..1.0).prop_map(|(r, c, seed, density)| {
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

        /// Dense -> CSR -> dense is the identity.
        #[test]
        fn round_trip(dense in arb_sparse_dense()) {
            let csr = CsrMatrix::from_dense(&dense);
            prop_assert_eq!(csr.to_dense(), dense);
        }

        /// nnz + zeros == total element count.
        #[test]
        fn nnz_consistent(dense in arb_sparse_dense()) {
            let csr = CsrMatrix::from_dense(&dense);
            prop_assert_eq!(csr.nnz() + dense.count_zeros(), dense.len());
        }
    }
}
