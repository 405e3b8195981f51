//! Dense GEMM and the one register-blocked microkernel every GEMM-shaped
//! kernel family runs.
//!
//! The paper's entire premise is that commodity accelerators execute *tiled
//! dense GEMM*: a tile-wise-pruned layer runs as one small dense GEMM per
//! tile, a block-sparse layer as one per stored block.  This module is that
//! shared inner kernel on the CPU:
//!
//! * [`gemm_strided`] — `C += A · B` over row-major operands read in place
//!   at a stride ([`Strided`]).  It walks `C` in `MR x NR` register blocks
//!   (the packed-panel microkernel idiom of Goto & van de Geijn, TOMS 2008,
//!   without the packing): each block's accumulators live in locals across
//!   a band of the reduction, partial rows and columns take an edge path,
//!   and a reduction step whose `A` coefficients are all zero is skipped.
//!   It runs serially on the calling thread; a serving worker pool owns the
//!   cores.
//! * [`gemm`] — `C = A · B` on whole matrices, i.e. [`gemm_strided`] over
//!   column panels of `B`.
//!
//! The block-sparse (`tw_sparse::spmm::dense_bsr_matmul`) and tile-wise
//! (`tilewise::TileWiseMatrix::matmul`) kernels call [`gemm_strided`] once
//! per stored block or tile.

use crate::matrix::Matrix;

/// Rows of `C` one microkernel call keeps in registers.
const MR: usize = 4;

/// Columns of `C` one microkernel call accumulates: four 4-lane vectors per
/// row at the default x86-64 target.  Of 4x8, 4x16, 4x32, 2x16, 3x16, 6x8
/// and 8x8 blocks, 4x16 ran the 512x1024 host-open layers fastest overall
/// on a 2-core x86-64 host: as fast as 4x32 on block-sparse batches of 8,
/// with less padding waste on tile-wise tiles narrower than 32 columns.
const NR: usize = 16;

/// Rows of `B` one pass over its column panels covers.  A wide `B` read in
/// place has its rows a page or more apart; walking all panels of a short
/// band of rows before moving down keeps those rows' cache lines hot and
/// their accesses sequential within each page (dense 512x1024 at batch 8
/// on a 2-core x86-64 host: 564 -> 375 us against no banding; KC from 16
/// to 256 measured, 32-128 best).
const KC: usize = 64;

/// Shape of a GEMM `C(MxN) = A(MxK) * B(KxN)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of `A` and `C`.
    pub m: usize,
    /// Columns of `B` and `C`.
    pub n: usize,
    /// Columns of `A` / rows of `B` (the reduction dimension).
    pub k: usize,
}

impl GemmShape {
    /// Convenience constructor.
    pub const fn new(m: usize, n: usize, k: usize) -> Self {
        Self { m, n, k }
    }

    /// Number of floating point operations (multiply + add counted
    /// separately), the quantity the paper's FLOPS-efficiency counter uses.
    pub const fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Bytes moved assuming each operand is read/written exactly once.
    pub const fn min_bytes(&self, elem_size: usize) -> u64 {
        ((self.m * self.k + self.k * self.n + self.m * self.n) * elem_size) as u64
    }
}

/// A row-major operand read in place: element `(i, j)` is
/// `data[i * stride + j]`.  A window of a larger matrix is an offset slice
/// plus the parent's row length, so no kernel copies its weights.
#[derive(Clone, Copy, Debug)]
pub struct Strided<'a> {
    /// The operand's elements, starting at element `(0, 0)`.
    pub data: &'a [f32],
    /// Distance between consecutive rows, in elements.
    pub stride: usize,
}

impl<'a> Strided<'a> {
    /// The whole of `m`.
    pub fn of(m: &'a Matrix) -> Self {
        Self { data: m.as_slice(), stride: m.cols() }
    }
}

/// `C += A · B` for `A (m x k)`, `B (k x n)` and `C (m x n)`, all row-major;
/// `C`'s rows are `ldc` elements apart.
///
/// # Panics
/// Panics if an operand's slice is too short for its shape and stride.
pub fn gemm_strided(shape: GemmShape, a: Strided<'_>, b: Strided<'_>, c: &mut [f32], ldc: usize) {
    let GemmShape { m, n, k } = shape;
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(a.stride >= k && b.stride >= n && ldc >= n, "a row stride is shorter than its row");
    assert!(a.data.len() >= (m - 1) * a.stride + k, "A is too short for its shape");
    assert!(b.data.len() >= (k - 1) * b.stride + n, "B is too short for its shape");
    assert!(c.len() >= (m - 1) * ldc + n, "C is too short for its shape");
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        for j0 in (0..n).step_by(NR) {
            let b_panel = Strided { data: &b.data[p0 * b.stride + j0..], stride: b.stride };
            let nr = NR.min(n - j0);
            let mut i0 = 0;
            while i0 < m {
                let a_panel = Strided { data: &a.data[i0 * a.stride + p0..], stride: a.stride };
                let c_panel = &mut c[i0 * ldc + j0..];
                i0 += match m - i0 {
                    1 => microkernel::<1>(kc, a_panel, b_panel, c_panel, ldc, nr),
                    2 => microkernel::<2>(kc, a_panel, b_panel, c_panel, ldc, nr),
                    3 => microkernel::<3>(kc, a_panel, b_panel, c_panel, ldc, nr),
                    _ => microkernel::<MR>(kc, a_panel, b_panel, c_panel, ldc, nr),
                };
            }
        }
    }
}

/// `C[R x nr] += A[R x k] · B[k x nr]` with the `R x NR` accumulators in
/// locals; returns `R`.  The edge path for `nr < NR` columns zero-pads each
/// `B` row it loads, so both paths share one multiply loop.
#[inline(always)]
fn microkernel<const R: usize>(
    k: usize,
    a: Strided<'_>,
    b: Strided<'_>,
    c: &mut [f32],
    ldc: usize,
    nr: usize,
) -> usize {
    let a_rows: [&[f32]; R] = std::array::from_fn(|i| &a.data[i * a.stride..][..k]);
    let b_rows = b.data.chunks(b.stride);
    let acc = if nr == NR {
        accumulate(k, &a_rows, b_rows, |row| row[..NR].try_into().expect("NR wide"))
    } else {
        accumulate(k, &a_rows, b_rows, |row| {
            let mut padded = [0.0; NR];
            padded[..nr].copy_from_slice(&row[..nr]);
            padded
        })
    };
    for (i, acc_row) in acc.iter().enumerate() {
        for (c_ij, &v) in c[i * ldc..][..nr].iter_mut().zip(acc_row) {
            *c_ij += v;
        }
    }
    R
}

/// The register-resident reduction: `acc[i] += A[i, p] * B[p, ..]` over
/// the first `k` rows `p` of `B`, skipping any `p` whose `R` coefficients
/// are all zero; `load` turns a row of `B` into `NR` lanes.
#[inline(always)]
fn accumulate<'b, const R: usize>(
    k: usize,
    a_rows: &[&[f32]; R],
    b_rows: impl Iterator<Item = &'b [f32]>,
    load: impl Fn(&[f32]) -> [f32; NR],
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for (p, b_row) in (0..k).zip(b_rows) {
        let coef: [f32; R] = std::array::from_fn(|i| a_rows[i][p]);
        if coef.iter().all(|&x| x == 0.0) {
            continue;
        }
        let row = load(b_row);
        for (acc_row, &x) in acc.iter_mut().zip(&coef) {
            for (acc_ij, &y) in acc_row.iter_mut().zip(&row) {
                *acc_ij += x * y;
            }
        }
    }
    acc
}

/// `C = A · B`.
///
/// # Panics
/// Panics if the inner dimensions do not agree.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
    let mut c = Matrix::zeros(shape.m, shape.n);
    gemm_strided(shape, Strided::of(a), Strided::of(b), c.as_mut_slice(), shape.n);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_TOL;

    fn small_a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])
    }

    fn small_b() -> Matrix {
        Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[10.0, 11.0, 12.0]])
    }

    #[test]
    fn gemm_known_result() {
        let c = gemm(&small_a(), &small_b());
        let expected =
            Matrix::from_rows(&[&[27.0, 30.0, 33.0], &[61.0, 68.0, 75.0], &[95.0, 106.0, 117.0]]);
        assert!(c.approx_eq(&expected, DEFAULT_TOL));
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = Matrix::random_uniform(6, 6, 1.0, 1);
        let c = gemm(&a, &Matrix::identity(6));
        assert!(c.approx_eq(&a, DEFAULT_TOL));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_shape_mismatch_panics() {
        let _ = gemm(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn gemm_of_empty_shapes_is_zero_sized() {
        assert_eq!(gemm(&Matrix::zeros(0, 4), &Matrix::zeros(4, 3)).shape(), (0, 3));
        assert_eq!(gemm(&Matrix::zeros(2, 0), &Matrix::zeros(0, 3)), Matrix::zeros(2, 3));
    }

    #[test]
    fn strided_windows_accumulate_in_place() {
        // C[1..3, 2..5] += A[0..2, 1..4] · B[2..5, 0..3], each operand a
        // window of a larger matrix read at its parent's stride.
        let a = Matrix::random_uniform(3, 6, 1.0, 2);
        let b = Matrix::random_uniform(7, 5, 1.0, 3);
        let mut c = Matrix::filled(4, 9, 1.0);
        let (ldc, lda, ldb) = (c.cols(), a.cols(), b.cols());
        gemm_strided(
            GemmShape::new(2, 3, 3),
            Strided { data: &a.as_slice()[1..], stride: lda },
            Strided { data: &b.as_slice()[2 * ldb..], stride: ldb },
            &mut c.as_mut_slice()[ldc + 2..],
            ldc,
        );
        let window = gemm(&a.submatrix(0, 2, 1, 4), &b.submatrix(2, 5, 0, 3));
        for i in 0..4 {
            for j in 0..9 {
                let inside = (1..3).contains(&i) && (2..5).contains(&j);
                let expected = if inside { 1.0 + window.get(i - 1, j - 2) } else { 1.0 };
                assert!((c.get(i, j) - expected).abs() < DEFAULT_TOL, "({i}, {j})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "B is too short")]
    fn strided_rejects_short_operands() {
        let mut c = vec![0.0; 4];
        gemm_strided(
            GemmShape::new(2, 2, 3),
            Strided { data: &[0.0; 6], stride: 3 },
            Strided { data: &[0.0; 5], stride: 2 },
            &mut c,
            2,
        );
    }

    #[test]
    fn shape_flops_and_bytes() {
        let s = GemmShape::new(128, 768, 768);
        assert_eq!(s.flops(), 2 * 128 * 768 * 768);
        assert_eq!(s.min_bytes(2), ((128 * 768 + 768 * 768 + 128 * 768) * 2) as u64);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::DEFAULT_TOL;
    use proptest::prelude::*;

    /// The textbook triple loop `C = A · B`, the reference every kernel is
    /// pinned against.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|p| a.get(i, p) * b.get(p, j)).sum()
        })
    }

    /// A random matrix with roughly `zeros` of its entries zeroed (whole
    /// rows now and then), like post-ReLU activations or pruned weights.
    fn with_zeros(rows: usize, cols: usize, zeros: f64, seed: u64) -> Matrix {
        let noise = Matrix::random_uniform(rows, cols, 1.0, seed ^ 0x5eed);
        let values = Matrix::random_uniform(rows, cols, 1.0, seed);
        Matrix::from_fn(rows, cols, |i, j| {
            let zero_row = i % 5 == 3;
            if zero_row || f64::from(noise.get(i, j).abs()) < zeros {
                0.0
            } else {
                values.get(i, j)
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `gemm` through the microkernel matches the naive reference for
        /// every MR row remainder (m in 1..=12), column counts that are not
        /// NR multiples, reductions that end inside a KC band, and operands
        /// with zero entries and zero rows.
        #[test]
        fn microkernel_matches_naive(
            m in 1usize..=12, n in 1usize..=40, k in 1usize..=150,
            zeros in 0.0f64..0.8, seed in any::<u64>(),
        ) {
            let a = with_zeros(m, k, zeros, seed);
            let b = with_zeros(k, n, zeros, seed.wrapping_add(1));
            prop_assert!(gemm(&a, &b).approx_eq(&naive(&a, &b), DEFAULT_TOL));
        }

        /// (A * B)^T == B^T * A^T
        #[test]
        fn gemm_transpose_identity(
            m in 1usize..16, k in 1usize..16, n in 1usize..16, seed in any::<u64>(),
        ) {
            let a = Matrix::random_uniform(m, k, 1.0, seed);
            let b = Matrix::random_uniform(k, n, 1.0, seed.wrapping_add(1));
            let left = gemm(&a, &b).transpose();
            let right = gemm(&b.transpose(), &a.transpose());
            prop_assert!(left.approx_eq(&right, DEFAULT_TOL));
        }

        /// GEMM is linear in A: (A1 + A2) * B == A1*B + A2*B.
        #[test]
        fn gemm_is_linear(m in 1usize..12, n in 1usize..12, k in 1usize..12, seed in any::<u64>()) {
            let a1 = Matrix::random_uniform(m, k, 1.0, seed);
            let a2 = Matrix::random_uniform(m, k, 1.0, seed.wrapping_add(7));
            let b = Matrix::random_uniform(k, n, 1.0, seed.wrapping_add(13));
            let left = gemm(&a1.add(&a2), &b);
            let right = gemm(&a1, &b).add(&gemm(&a2, &b));
            prop_assert!(left.approx_eq(&right, 5e-3));
        }
    }
}
