//! Sparsity-pattern taxonomy and the common mask type every pruner produces.

use tw_tensor::Matrix;

/// The sparsity patterns studied in the paper (Fig. 2 and Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PruningPattern {
    /// No pruning: the dense baseline.
    Dense,
    /// Element-wise (EW): unstructured pruning of individual elements.
    ElementWise,
    /// Vector-wise (VW): each column is split into vectors of `vector_size`
    /// elements and the same fraction is pruned inside every vector
    /// (Zhu et al., vector size 16 in the paper's evaluation).
    VectorWise {
        /// Number of elements per vector along the K dimension.
        vector_size: usize,
    },
    /// Block-wise (BW): square `block_size x block_size` blocks are the
    /// pruning unit (Narang et al., 32x32 in the paper's evaluation).
    BlockWise {
        /// Block edge length.
        block_size: usize,
    },
    /// Tile-wise (TW): the paper's contribution — column then row pruning
    /// within output tiles of width `granularity` (G), globally ranked.
    TileWise {
        /// Tile width G.
        granularity: usize,
    },
    /// Hybrid tile-element-wise (TEW): TW pruned to `target + delta`, then
    /// `delta` of the most important pruned elements are restored as an
    /// element-wise overlay.
    TileElementWise {
        /// Tile width G.
        granularity: usize,
        /// Fraction of elements restored as the EW overlay (e.g. 0.05).
        delta: f64,
    },
}

impl PruningPattern {
    /// A short stable name used in reports and CSV output
    /// (`dense`, `ew`, `vw16`, `bw32`, `tw128`, `tew128-5%`).
    pub fn label(&self) -> String {
        match self {
            PruningPattern::Dense => "dense".to_string(),
            PruningPattern::ElementWise => "ew".to_string(),
            PruningPattern::VectorWise { vector_size } => format!("vw{vector_size}"),
            PruningPattern::BlockWise { block_size } => format!("bw{block_size}"),
            PruningPattern::TileWise { granularity } => format!("tw{granularity}"),
            PruningPattern::TileElementWise { granularity, delta } => {
                format!("tew{granularity}-{:.1}%", delta * 100.0)
            }
        }
    }
}

/// A sparsity target in `[0, 1)`: the fraction of weights to remove.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct SparsityTarget(f64);

impl SparsityTarget {
    /// Creates a target, validating the range.
    ///
    /// # Panics
    /// Panics if `value` is not in `[0, 1)`.
    pub fn new(value: f64) -> Self {
        assert!((0.0..1.0).contains(&value), "sparsity target must be in [0, 1), got {value}");
        Self(value)
    }

    /// The fraction of weights to remove.
    pub fn fraction(&self) -> f64 {
        self.0
    }

    /// Number of elements to prune out of `total`.
    pub fn count_of(&self, total: usize) -> usize {
        (self.0 * total as f64).round() as usize
    }
}

/// The result of applying a pruning pattern to one weight matrix: an
/// element-level keep mask plus the achieved sparsity.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternMask {
    rows: usize,
    cols: usize,
    /// Row-major keep mask: `true` means the weight survives.
    keep: Vec<bool>,
}

impl PatternMask {
    /// Builds a mask from a row-major keep vector.
    ///
    /// # Panics
    /// Panics if the vector length does not match `rows * cols`.
    pub fn new(rows: usize, cols: usize, keep: Vec<bool>) -> Self {
        assert_eq!(keep.len(), rows * cols, "keep mask length mismatch");
        Self { rows, cols, keep }
    }

    /// A mask that keeps every element (the dense "pattern").
    pub fn keep_all(rows: usize, cols: usize) -> Self {
        Self { rows, cols, keep: vec![true; rows * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The row-major keep vector.
    pub fn keep(&self) -> &[bool] {
        &self.keep
    }

    /// Whether element `(r, c)` survives.
    #[inline]
    pub fn keeps(&self, r: usize, c: usize) -> bool {
        self.keep[r * self.cols + c]
    }

    /// Marks element `(r, c)` as pruned.
    pub fn prune(&mut self, r: usize, c: usize) {
        self.keep[r * self.cols + c] = false;
    }

    /// Marks element `(r, c)` as kept (used by the TEW restore step).
    pub fn restore(&mut self, r: usize, c: usize) {
        self.keep[r * self.cols + c] = true;
    }

    /// Number of surviving elements.
    pub fn kept_count(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }

    /// Number of pruned elements.
    pub fn pruned_count(&self) -> usize {
        self.keep.len() - self.kept_count()
    }

    /// Achieved sparsity (fraction of pruned elements).
    pub fn sparsity(&self) -> f64 {
        if self.keep.is_empty() {
            return 0.0;
        }
        self.pruned_count() as f64 / self.keep.len() as f64
    }

    /// Applies the mask to a weight matrix, zeroing pruned elements.
    pub fn apply(&self, weights: &Matrix) -> Matrix {
        assert_eq!(weights.shape(), self.shape(), "mask/weights shape mismatch");
        weights.apply_mask(&self.keep)
    }

    /// Per-column sparsity (used by the Fig. 13 heatmaps).
    pub fn col_sparsity(&self) -> Vec<f64> {
        (0..self.cols)
            .map(|c| {
                let pruned = (0..self.rows).filter(|&r| !self.keeps(r, c)).count();
                pruned as f64 / self.rows.max(1) as f64
            })
            .collect()
    }

    /// Union with another mask: an element survives if either mask keeps it.
    pub fn or(&self, other: &PatternMask) -> PatternMask {
        assert_eq!(self.shape(), other.shape(), "mask shape mismatch");
        let keep = self.keep.iter().zip(&other.keep).map(|(&a, &b)| a || b).collect();
        PatternMask { rows: self.rows, cols: self.cols, keep }
    }
}

#[cfg(test)]
impl PatternMask {
    /// Fraction of total importance this mask keeps: the quality measure the
    /// pruner tests rank patterns by.
    pub(crate) fn retained_importance(&self, scores: &crate::ImportanceScores) -> f64 {
        scores.retained(&self.keep) / scores.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PruningPattern::Dense.label(), "dense");
        assert_eq!(PruningPattern::ElementWise.label(), "ew");
        assert_eq!(PruningPattern::VectorWise { vector_size: 16 }.label(), "vw16");
        assert_eq!(PruningPattern::BlockWise { block_size: 32 }.label(), "bw32");
        assert_eq!(PruningPattern::TileWise { granularity: 128 }.label(), "tw128");
        assert_eq!(
            PruningPattern::TileElementWise { granularity: 128, delta: 0.05 }.label(),
            "tew128-5.0%"
        );
    }

    #[test]
    fn sparsity_target_validation() {
        let t = SparsityTarget::new(0.75);
        assert_eq!(t.fraction(), 0.75);
        assert_eq!(t.count_of(100), 75);
        assert_eq!(SparsityTarget::new(0.0).count_of(10), 0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn sparsity_target_rejects_one() {
        let _ = SparsityTarget::new(1.0);
    }

    #[test]
    fn mask_counting_and_apply() {
        let mut m = PatternMask::keep_all(2, 3);
        assert_eq!(m.sparsity(), 0.0);
        m.prune(0, 1);
        m.prune(1, 2);
        assert_eq!(m.kept_count(), 4);
        assert!((m.sparsity() - 2.0 / 6.0).abs() < 1e-12);
        let w = Matrix::filled(2, 3, 2.0);
        let pruned = m.apply(&w);
        assert_eq!(pruned.count_zeros(), 2);
        assert_eq!(pruned.get(0, 1), 0.0);
        assert_eq!(pruned.get(0, 0), 2.0);
        m.restore(0, 1);
        assert!(m.keeps(0, 1));
    }

    #[test]
    fn col_sparsity_per_column() {
        let mut m = PatternMask::keep_all(4, 2);
        m.prune(0, 0);
        m.prune(1, 0);
        assert_eq!(m.col_sparsity(), vec![0.5, 0.0]);
    }

    #[test]
    fn or_keeps_either() {
        let mut a = PatternMask::keep_all(1, 3);
        let mut b = PatternMask::keep_all(1, 3);
        a.prune(0, 0);
        b.prune(0, 2);
        let either = a.or(&b);
        assert_eq!(either.keep(), &[true, true, true]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn new_rejects_wrong_length() {
        let _ = PatternMask::new(2, 2, vec![true; 3]);
    }
}
