//! The executable tile-wise sparse matrix.
//!
//! After pruning, each weight tile keeps only its surviving rows and columns
//! as a small dense payload (the offline pre-processing of Fig. 7: "We
//! remove the pruned rows and columns in the weight matrix tile, which can
//! be done offline before the model inference starts"), plus the two mask
//! vectors the masked GEMM kernel consumes at run time.

use tw_gpu_sim::TwTileShape;
use tw_pruning::{TileWiseMask, TwTile};
use tw_tensor::{gemm_strided, GemmShape, Matrix, Strided};

/// One pre-processed weight tile: compacted payload plus the surviving row
/// and column indices the kernel gathers and scatters with.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactTile {
    /// Original row indices of the tile's surviving rows: the activation
    /// columns the kernel gathers, built once at load.
    row_indices: Vec<usize>,
    /// Original column indices of the tile's surviving columns.
    col_indices: Vec<usize>,
    /// Dense payload of shape `kept_rows x kept_cols` (surviving rows and
    /// columns only, in original relative order).
    payload: Matrix,
}

impl CompactTile {
    /// Number of surviving rows.
    pub fn kept_rows(&self) -> usize {
        self.payload.rows()
    }

    /// Number of surviving columns.
    pub fn kept_cols(&self) -> usize {
        self.payload.cols()
    }
}

/// A weight matrix pruned with the tile-wise pattern, stored in its
/// executable (pre-compacted) form.
#[derive(Clone, Debug, PartialEq)]
pub struct TileWiseMatrix {
    k: usize,
    n: usize,
    granularity: usize,
    tiles: Vec<CompactTile>,
}

impl TileWiseMatrix {
    /// Builds the executable representation from the original dense weights
    /// and a tile-wise pruning decision.
    ///
    /// # Panics
    /// Panics if the mask's dimensions do not match the weight matrix.
    pub fn from_mask(weights: &Matrix, mask: &TileWiseMask) -> Self {
        assert_eq!(weights.shape(), (mask.k(), mask.n()), "weights shape must match the mask");
        let tiles = mask
            .tiles()
            .iter()
            .map(|tile: &TwTile| {
                let row_indices = tile.kept_row_indices();
                let payload = weights.select_rows(&row_indices).select_cols(&tile.col_indices);
                CompactTile { row_indices, col_indices: tile.col_indices.clone(), payload }
            })
            .collect();
        Self { k: mask.k(), n: mask.n(), granularity: mask.granularity(), tiles }
    }

    /// Original K dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Original N dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tiling granularity G.
    pub fn granularity(&self) -> usize {
        self.granularity
    }

    /// The pre-processed tiles.
    pub fn tiles(&self) -> &[CompactTile] {
        &self.tiles
    }

    /// Number of surviving weight elements.
    pub fn kept_elements(&self) -> usize {
        self.tiles.iter().map(|t| t.payload.len()).sum()
    }

    /// Number of stored weights that are non-zero: [`Self::kept_elements`]
    /// less the kept positions whose weight is exactly zero (e.g. zeroed by
    /// an earlier pruning stage than the one that produced the mask).
    pub fn count_nonzeros(&self) -> usize {
        self.tiles.iter().map(|t| t.payload.count_nonzeros()).sum()
    }

    /// Achieved element sparsity.
    pub fn sparsity(&self) -> f64 {
        let total = self.k * self.n;
        if total == 0 {
            return 0.0;
        }
        1.0 - self.kept_elements() as f64 / total as f64
    }

    /// Storage footprint in bytes: compacted payloads plus int32 masks (a
    /// K-long row mask and the kept column indices per tile).
    pub fn storage_bytes(&self, elem_size: usize) -> usize {
        self.tiles
            .iter()
            .map(|t| t.payload.len() * elem_size + 4 * (self.k + t.col_indices.len()))
            .sum()
    }

    /// Tile shapes for the GPU cost model.
    pub fn tile_shapes(&self) -> Vec<TwTileShape> {
        self.tiles
            .iter()
            .map(|t| TwTileShape { kept_rows: t.kept_rows(), kept_cols: t.kept_cols() })
            .collect()
    }

    /// Reconstructs the (zero-filled) dense weight matrix — the masked dense
    /// matrix the pruned model is mathematically equivalent to.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.k, self.n);
        for tile in &self.tiles {
            for (pr, &r) in tile.row_indices.iter().enumerate() {
                for (pc, &c) in tile.col_indices.iter().enumerate() {
                    out.set(r, c, tile.payload.get(pr, pc));
                }
            }
        }
        out
    }

    /// Multiplies a dense activation matrix by this sparse weight matrix:
    /// `C (m x n) = A (m x k) * W_tw (k x n)`.
    ///
    /// This is the functional equivalent of the batched masked GEMM of
    /// Fig. 7: each tile contributes a small dense GEMM over its surviving
    /// rows/columns, run by the shared microkernel and scattered into the
    /// output at the tile's original column positions.  One scratch buffer
    /// per call holds a tile's gathered activation columns and its output
    /// block.
    pub fn matmul(&self, a: &Matrix) -> Matrix {
        assert_eq!(a.cols(), self.k, "activation K must match the weight matrix");
        let m = a.rows();
        let mut out = Matrix::zeros(m, self.n);
        let mut scratch = Vec::new();
        for tile in &self.tiles {
            let (kept_rows, kept_cols) = (tile.kept_rows(), tile.kept_cols());
            if m == 0 || kept_rows == 0 || kept_cols == 0 {
                continue;
            }
            let len = m * (kept_rows + kept_cols);
            if scratch.len() < len {
                scratch.resize(len, 0.0);
            }
            let (a_tile, c_tile) = scratch[..len].split_at_mut(m * kept_rows);
            // Gather the surviving activation columns (this is the step the
            // transposed layout keeps coalesced on the GPU).
            for (dst, src) in a_tile.chunks_exact_mut(kept_rows).zip(a.as_slice().chunks(self.k)) {
                for (d, &r) in dst.iter_mut().zip(&tile.row_indices) {
                    *d = src[r];
                }
            }
            c_tile.fill(0.0);
            let shape = GemmShape::new(m, kept_cols, kept_rows);
            let a_tile = Strided { data: a_tile, stride: kept_rows };
            gemm_strided(shape, a_tile, Strided::of(&tile.payload), c_tile, kept_cols);
            let rows = out.as_mut_slice().chunks_mut(self.n).zip(c_tile.chunks_exact(kept_cols));
            for (out_row, c_row) in rows {
                for (&j, &v) in tile.col_indices.iter().zip(c_row) {
                    out_row[j] += v;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_pruning::{tw, ImportanceScores, SparsityTarget, TileWiseConfig};
    use tw_tensor::{gemm, DEFAULT_TOL};

    fn pruned_pair(seed: u64, sparsity: f64, g: usize) -> (Matrix, TileWiseMask) {
        let weights = Matrix::random_normal(96, 160, 1.0, seed);
        let scores = ImportanceScores::magnitude(&weights);
        let mask =
            tw::prune(&scores, &TileWiseConfig::with_granularity(g), SparsityTarget::new(sparsity));
        (weights, mask)
    }

    #[test]
    fn dense_reconstruction_matches_masked_weights() {
        let (weights, mask) = pruned_pair(1, 0.6, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        let expected = mask.to_pattern_mask().apply(&weights);
        assert_eq!(twm.to_dense(), expected);
        assert!((twm.sparsity() - mask.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn matmul_equals_masked_dense_gemm() {
        for (seed, sparsity, g) in [(2, 0.3, 16), (3, 0.75, 32), (4, 0.9, 64), (5, 0.5, 160)] {
            let (weights, mask) = pruned_pair(seed, sparsity, g);
            let twm = TileWiseMatrix::from_mask(&weights, &mask);
            let a = Matrix::random_uniform(24, 96, 1.0, seed + 100);
            let reference = gemm(&a, &mask.to_pattern_mask().apply(&weights));
            let result = twm.matmul(&a);
            assert!(
                result.approx_eq(&reference, DEFAULT_TOL),
                "mismatch at sparsity {sparsity} G={g}"
            );
        }
    }

    #[test]
    fn tile_shapes_match_mask() {
        let (weights, mask) = pruned_pair(6, 0.7, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        let shapes = twm.tile_shapes();
        assert_eq!(shapes.len(), mask.tiles().len());
        for (shape, tile) in shapes.iter().zip(mask.tiles()) {
            assert_eq!(shape.kept_rows, tile.kept_rows());
            assert_eq!(shape.kept_cols, tile.kept_cols());
        }
    }

    #[test]
    fn storage_shrinks_with_sparsity() {
        let (weights, low) = pruned_pair(7, 0.25, 32);
        let (_, high) = pruned_pair(7, 0.85, 32);
        let twm_low = TileWiseMatrix::from_mask(&weights, &low);
        let twm_high = TileWiseMatrix::from_mask(&weights, &high);
        assert!(twm_high.storage_bytes(2) < twm_low.storage_bytes(2));
        // Compacted storage (plus masks) is far below the dense footprint at
        // high sparsity.
        assert!(twm_high.storage_bytes(2) < 96 * 160 * 2);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn shape_mismatch_panics() {
        let (_, mask) = pruned_pair(9, 0.5, 32);
        let wrong = Matrix::zeros(10, 10);
        let _ = TileWiseMatrix::from_mask(&wrong, &mask);
    }

    #[test]
    #[should_panic(expected = "activation K must match")]
    fn matmul_rejects_bad_activation_shape() {
        let (weights, mask) = pruned_pair(10, 0.5, 32);
        let twm = TileWiseMatrix::from_mask(&weights, &mask);
        let _ = twm.matmul(&Matrix::zeros(4, 7));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tw_pruning::{tw, ImportanceScores, SparsityTarget, TileWiseConfig};
    use tw_tensor::DEFAULT_TOL;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The executable TW matrix always matches the naive triple loop over
        /// the masked dense weights, for every MR row remainder (m in
        /// 1..=12), tiles narrower than NR (small G), shapes that leave a
        /// partial last tile, and zero activation rows.
        #[test]
        fn matmul_always_matches_naive_masked_dense(
            k in 8usize..48, n in 8usize..48, m in 1usize..=12,
            g in 1usize..32, sparsity in 0.05f64..0.9, seed in any::<u64>(),
        ) {
            let weights = Matrix::random_uniform(k, n, 1.0, seed);
            let scores = ImportanceScores::magnitude(&weights);
            let mask = tw::prune(
                &scores,
                &TileWiseConfig::with_granularity(g),
                SparsityTarget::new(sparsity),
            );
            let twm = TileWiseMatrix::from_mask(&weights, &mask);
            let noise = Matrix::random_uniform(m, k, 1.0, seed.wrapping_add(1));
            let a = Matrix::from_fn(m, k, |i, p| if i % 3 == 1 { 0.0 } else { noise.get(i, p) });
            let w = mask.to_pattern_mask().apply(&weights);
            let naive = Matrix::from_fn(m, n, |i, j| (0..k).map(|p| a.get(i, p) * w.get(p, j)).sum());
            prop_assert!(twm.matmul(&a).approx_eq(&naive, DEFAULT_TOL));
        }
    }
}
