//! Sparse matrix multiplication kernels.
//!
//! The baselines in the paper execute their sparse weight matrices with
//! library SpMM kernels (cuSparse for CSR, BlockSparse for BSR).  These CPU
//! kernels are the functional equivalents; the GPU cost of running them is
//! modelled separately by `tw-gpu-sim`.
//!
//! Orientation convention: the DNN GEMM is `C (MxN) = A (MxK) x B (KxN)` with
//! `A` the dense activation and `B` the (sparse) weight matrix, matching the
//! paper's Fig. 4.

use crate::bsr::BsrMatrix;
use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use tw_tensor::{gemm_strided, GemmShape, Matrix, Strided};

/// Dense x CSR: `C = A * B` where `B` is CSR.
pub fn dense_csr_matmul(a: &Matrix, b: &CsrMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &aip) in a_row.iter().enumerate() {
            if aip == 0.0 {
                continue;
            }
            let (cols, vals) = b.row_entries(p);
            for (&j, &v) in cols.iter().zip(vals) {
                c_row[j] += aip * v;
            }
        }
    }
    c
}

/// Dense x CSC: `C = A * B` where `B` is CSC.
///
/// This is the kernel used for the TEW element-wise overlay, which the paper
/// stores in CSC per tile and executes separately from the dense TW part
/// (exploiting linearity of matrix multiplication).
pub fn dense_csc_matmul(a: &Matrix, b: &CscMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let m = a.rows();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for j in 0..n {
        let (rows, vals) = b.col_entries(j);
        for i in 0..m {
            let mut acc = 0.0;
            for (&p, &v) in rows.iter().zip(vals) {
                acc += a.get(i, p) * v;
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Dense x BSR: `C = A * B` where `B` is block-sparse; each surviving block
/// contributes one small dense GEMM, mirroring the BlockSparse execution.
/// Every block runs through the shared microkernel, with `A`'s block
/// columns and `C`'s block columns read in place at their row strides.
pub fn dense_bsr_matmul(a: &Matrix, b: &BsrMatrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let bs = b.block_size();
    let mut c = Matrix::zeros(m, n);
    if m == 0 {
        return c;
    }
    for (br, bc, payload) in b.iter_blocks() {
        let (k0, n0) = (br * bs, bc * bs);
        // Edge blocks are zero-padded to `bs x bs`; only their in-bounds
        // corner takes part.
        let shape = GemmShape::new(m, bs.min(n - n0), bs.min(k - k0));
        let a_cols = Strided { data: &a.as_slice()[k0..], stride: k };
        let block = Strided { data: payload, stride: bs };
        gemm_strided(shape, a_cols, block, &mut c.as_mut_slice()[n0..], n);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_tensor::{gemm, DEFAULT_TOL};

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(-1.0..1.0f32)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dense_csr_matches_dense_gemm() {
        let a = Matrix::random_uniform(9, 14, 1.0, 1);
        let b_dense = random_sparse(14, 11, 0.3, 2);
        let b = CsrMatrix::from_dense(&b_dense);
        let reference = gemm(&a, &b_dense);
        assert!(dense_csr_matmul(&a, &b).approx_eq(&reference, DEFAULT_TOL));
    }

    #[test]
    fn dense_csc_matches_dense_gemm() {
        let a = Matrix::random_uniform(7, 10, 1.0, 3);
        let b_dense = random_sparse(10, 8, 0.25, 4);
        let b = CscMatrix::from_dense(&b_dense);
        assert!(dense_csc_matmul(&a, &b).approx_eq(&gemm(&a, &b_dense), DEFAULT_TOL));
    }

    #[test]
    fn dense_bsr_matches_dense_gemm() {
        let a = Matrix::random_uniform(8, 12, 1.0, 7);
        let b_dense = random_sparse(12, 10, 0.35, 8);
        for bs in [1, 2, 3, 4] {
            let b = BsrMatrix::from_dense(&b_dense, bs);
            assert!(
                dense_bsr_matmul(&a, &b).approx_eq(&gemm(&a, &b_dense), DEFAULT_TOL),
                "block size {bs}"
            );
        }
    }

    #[test]
    fn empty_sparse_matrix_gives_zero_output() {
        let a = Matrix::random_uniform(4, 5, 1.0, 11);
        let b = CsrMatrix::from_dense(&Matrix::zeros(5, 3));
        let c = dense_csr_matmul(&a, &b);
        assert_eq!(c.count_zeros(), 12);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(4, 5);
        let b = CsrMatrix::from_dense(&Matrix::zeros(6, 3));
        let _ = dense_csr_matmul(&a, &b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tw_tensor::{gemm, DEFAULT_TOL};

    #[derive(Debug, Clone)]
    struct Case {
        a: Matrix,
        b: Matrix,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (1usize..14, 1usize..14, 1usize..14, any::<u64>(), 0.05f64..0.95).prop_map(
            |(m, k, n, seed, density)| {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-1.0..1.0));
                let b = Matrix::from_fn(k, n, |_, _| {
                    if rng.gen_bool(density) {
                        rng.gen_range(-1.0..1.0)
                    } else {
                        0.0
                    }
                });
                Case { a, b }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every sparse kernel agrees with the dense reference regardless of
        /// shape and sparsity.
        #[test]
        fn all_formats_agree_with_dense(case in arb_case(), bs in 1usize..6) {
            let reference = gemm(&case.a, &case.b);
            let csr = CsrMatrix::from_dense(&case.b);
            let csc = CscMatrix::from_dense(&case.b);
            let bsr = BsrMatrix::from_dense(&case.b, bs);
            prop_assert!(dense_csr_matmul(&case.a, &csr).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(dense_csc_matmul(&case.a, &csc).approx_eq(&reference, DEFAULT_TOL));
            prop_assert!(dense_bsr_matmul(&case.a, &bsr).approx_eq(&reference, DEFAULT_TOL));
        }

        /// BSR through the shared microkernel matches the naive triple loop
        /// for every MR row remainder, block sizes up to the serving 32,
        /// `k`/`n` that leave partial edge blocks, zero activation rows and
        /// zero weight rows inside stored blocks.
        #[test]
        fn bsr_matches_naive_reference(
            m in 1usize..=12, k in 1usize..=70, n in 1usize..=70,
            bs_pick in 0usize..6, seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let bs = [1, 3, 5, 8, 13, 32][bs_pick];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Matrix::from_fn(m, k, |i, _| {
                if i % 4 == 2 { 0.0 } else { rng.gen_range(-1.0..1.0) }
            });
            let b = Matrix::from_fn(k, n, |p, _| {
                if p % 3 == 1 || rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-1.0..1.0) }
            });
            let naive = Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a.get(i, p) * b.get(p, j)).sum());
            let bsr = BsrMatrix::from_dense(&b, bs);
            prop_assert!(dense_bsr_matmul(&a, &bsr).approx_eq(&naive, DEFAULT_TOL));
        }
    }
}
