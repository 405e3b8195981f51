//! Sparsity-distribution analytics.
//!
//! These helpers compute the quantities behind the paper's characterisation
//! figures:
//!
//! * Fig. 5 — per-matrix sparsity of a globally EW-pruned model.
//! * Fig. 6 — zero ratios of candidate pruning units (BW blocks of 8x8 /
//!   32x32, TW row-vectors of G elements), whose distribution the figure
//!   plots.
//! * Fig. 13 — spatial heatmaps of the pruned weight layout.

use crate::pattern::PatternMask;

/// Per-matrix sparsity of a set of masks (Fig. 5's y-axis, one value per
/// weight-matrix index).
pub fn per_matrix_sparsity(masks: &[PatternMask]) -> Vec<f64> {
    masks.iter().map(|m| m.sparsity()).collect()
}

/// Overall sparsity of a set of masks: pruned elements over all elements,
/// 0 for an empty set.  This is what a global sparsity target is met by.
pub fn overall_sparsity(masks: &[PatternMask]) -> f64 {
    let total: usize = masks.iter().map(|m| m.keep().len()).sum();
    let pruned: usize = masks.iter().map(|m| m.pruned_count()).sum();
    pruned as f64 / total.max(1) as f64
}

/// The pruning-unit shapes Fig. 6 compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitShape {
    /// A square block of `size x size` elements (the BW unit).
    Block {
        /// Block edge length.
        size: usize,
    },
    /// A row vector of `g` elements within a tile (the TW row-pruning unit).
    RowVector {
        /// Tile width G.
        g: usize,
    },
}

/// Computes the zero-ratio of every unit of the given shape under an
/// existing (typically EW) mask, returning the ratios unsorted.
pub fn unit_zero_ratios(mask: &PatternMask, shape: UnitShape) -> Vec<f64> {
    let (rows, cols) = mask.shape();
    let mut ratios = Vec::new();
    match shape {
        UnitShape::Block { size } => {
            assert!(size > 0, "block size must be positive");
            for r0 in (0..rows).step_by(size) {
                for c0 in (0..cols).step_by(size) {
                    let r1 = (r0 + size).min(rows);
                    let c1 = (c0 + size).min(cols);
                    let total = (r1 - r0) * (c1 - c0);
                    let zeros = (r0..r1)
                        .flat_map(|r| (c0..c1).map(move |c| (r, c)))
                        .filter(|&(r, c)| !mask.keeps(r, c))
                        .count();
                    ratios.push(zeros as f64 / total as f64);
                }
            }
        }
        UnitShape::RowVector { g } => {
            assert!(g > 0, "vector length must be positive");
            for r in 0..rows {
                for c0 in (0..cols).step_by(g) {
                    let c1 = (c0 + g).min(cols);
                    let total = c1 - c0;
                    let zeros = (c0..c1).filter(|&c| !mask.keeps(r, c)).count();
                    ratios.push(zeros as f64 / total as f64);
                }
            }
        }
    }
    ratios
}

/// A down-sampled heatmap of a mask's sparsity: the matrix is divided into a
/// `grid x grid` lattice of cells and each cell reports its local sparsity
/// (Fig. 13).
pub fn sparsity_heatmap(mask: &PatternMask, grid: usize) -> Vec<Vec<f64>> {
    assert!(grid > 0, "grid must be positive");
    let (rows, cols) = mask.shape();
    let cell_r = rows.div_ceil(grid).max(1);
    let cell_c = cols.div_ceil(grid).max(1);
    let mut heat = Vec::new();
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + cell_r).min(rows);
        let mut row = Vec::new();
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + cell_c).min(cols);
            let total = (r1 - r0) * (c1 - c0);
            let zeros = (r0..r1)
                .flat_map(|r| (c0..c1).map(move |c| (r, c)))
                .filter(|&(r, c)| !mask.keeps(r, c))
                .count();
            row.push(zeros as f64 / total.max(1) as f64);
            c0 = c1;
        }
        heat.push(row);
        r0 = r1;
    }
    heat
}

/// Standard deviation of per-matrix sparsity — a scalar summary of how
/// uneven the global pruning allocation is (higher means more uneven, which
/// is what EW/TW exhibit and VW cannot).
pub fn sparsity_unevenness(masks: &[PatternMask]) -> f64 {
    let s = per_matrix_sparsity(masks);
    if s.is_empty() {
        return 0.0;
    }
    let mean = s.iter().sum::<f64>() / s.len() as f64;
    (s.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / s.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ew;
    use crate::importance::ImportanceScores;
    use crate::pattern::SparsityTarget;
    use tw_tensor::Matrix;

    fn ew_mask_75(seed: u64) -> PatternMask {
        let scores = ImportanceScores::magnitude(&Matrix::random_normal(128, 128, 1.0, seed));
        ew::prune(&scores, SparsityTarget::new(0.75))
    }

    #[test]
    fn per_matrix_sparsity_reports_each() {
        let masks = vec![ew_mask_75(1), PatternMask::keep_all(8, 8)];
        let s = per_matrix_sparsity(&masks);
        assert!((s[0] - 0.75).abs() < 1e-9);
        assert_eq!(s[1], 0.0);
    }

    #[test]
    fn overall_sparsity_weighs_masks_by_size() {
        let masks = vec![ew_mask_75(1), PatternMask::keep_all(8, 8)];
        let pruned = masks[0].pruned_count();
        assert_eq!(overall_sparsity(&masks), pruned as f64 / (128 * 128 + 8 * 8) as f64);
        assert_eq!(overall_sparsity(&[]), 0.0);
    }

    #[test]
    fn unit_ratios_average_to_overall_sparsity_when_units_tile_exactly() {
        let mask = ew_mask_75(3);
        let ratios = unit_zero_ratios(&mask, UnitShape::Block { size: 8 });
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((mean - mask.sparsity()).abs() < 1e-9);
    }

    #[test]
    fn heatmap_dimensions_and_range() {
        let mask = ew_mask_75(4);
        let heat = sparsity_heatmap(&mask, 16);
        assert_eq!(heat.len(), 16);
        assert!(heat.iter().all(|row| row.len() == 16));
        for row in &heat {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        // Average cell sparsity equals overall sparsity (cells tile exactly).
        let mean: f64 = heat.iter().flatten().sum::<f64>() / (heat.len() * heat[0].len()) as f64;
        assert!((mean - mask.sparsity()).abs() < 1e-9);
    }

    #[test]
    fn unevenness_zero_for_identical_masks() {
        let masks = vec![ew_mask_75(5), ew_mask_75(5)];
        assert!(sparsity_unevenness(&masks) < 1e-12);
        assert_eq!(sparsity_unevenness(&[]), 0.0);
    }

    #[test]
    fn unevenness_positive_for_global_pruning_of_uneven_layers() {
        let weak = ImportanceScores::from_matrix(Matrix::filled(32, 32, 0.1));
        let strong = ImportanceScores::from_matrix(Matrix::filled(32, 32, 10.0));
        let masks = ew::prune_global(&[weak, strong], SparsityTarget::new(0.5));
        assert!(sparsity_unevenness(&masks) > 0.4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_panics() {
        let mask = PatternMask::keep_all(4, 4);
        let _ = unit_zero_ratios(&mask, UnitShape::Block { size: 0 });
    }
}
