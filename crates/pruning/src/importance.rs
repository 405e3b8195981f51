//! Importance scores for pruning.
//!
//! The paper evaluates each weight's importance either by its magnitude
//! (Han et al.) or — the method actually used — by the first-order Taylor
//! approximation of the loss change incurred by removing it (Molchanov et
//! al.), Eq. (1)-(3):
//!
//! ```text
//! ΔL(w) ≈ | ∂L/∂w · w |
//! ```
//!
//! Both reduce to an element-wise score matrix; everything downstream
//! (thresholding, tile aggregation, global ranking) only consumes the
//! scores.

use tw_tensor::Matrix;

/// Which importance estimator to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ImportanceMethod {
    /// `|w|` — magnitude pruning (Han et al. 2015).
    Magnitude,
    /// `|w * grad|` — first-order Taylor score (Molchanov et al. 2019),
    /// the method the paper uses for BERT/NMT/VGG.
    #[default]
    Taylor,
}

/// An element-wise importance score matrix, same shape as the weight matrix
/// it was derived from.  Scores are non-negative.
#[derive(Clone, Debug, PartialEq)]
pub struct ImportanceScores {
    scores: Matrix,
}

impl ImportanceScores {
    /// Magnitude scores: `|w|`.
    pub fn magnitude(weights: &Matrix) -> Self {
        let scores =
            Matrix::from_fn(weights.rows(), weights.cols(), |r, c| weights.get(r, c).abs());
        Self { scores }
    }

    /// First-order Taylor scores: `|w * grad|` (Eq. 3).
    ///
    /// # Panics
    /// Panics if weights and gradients have different shapes.
    pub fn taylor(weights: &Matrix, grads: &Matrix) -> Self {
        assert_eq!(weights.shape(), grads.shape(), "weights/grads shape mismatch");
        let scores = Matrix::from_fn(weights.rows(), weights.cols(), |r, c| {
            (weights.get(r, c) * grads.get(r, c)).abs()
        });
        Self { scores }
    }

    /// Wraps an arbitrary non-negative score matrix (used by tests and by
    /// synthetic workload generators that sample scores directly).
    pub fn from_matrix(scores: Matrix) -> Self {
        assert!(scores.as_slice().iter().all(|&v| v >= 0.0), "scores must be non-negative");
        Self { scores }
    }

    /// Shape of the underlying score matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.scores.shape()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.scores.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.scores.cols()
    }

    /// Score of a single element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.scores.get(r, c)
    }

    /// All scores as a flat row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        self.scores.as_slice()
    }

    /// Sum of all scores (the denominator of retained-importance metrics).
    pub fn total(&self) -> f64 {
        self.scores.as_slice().iter().map(|&v| v as f64).sum()
    }

    /// Sum of scores in column `c`.
    pub fn col_sum(&self, c: usize) -> f64 {
        (0..self.rows()).map(|r| self.get(r, c) as f64).sum()
    }

    /// Sum of scores in row `r` restricted to the given columns (the score of
    /// a `(1, G)` row tile in Algorithm 1's row-pruning phase).
    pub fn row_sum_over_cols(&self, r: usize, cols: &[usize]) -> f64 {
        cols.iter().map(|&c| self.get(r, c) as f64).sum()
    }

    /// Sum of scores inside a `block_size x block_size` block whose top-left
    /// corner is `(r0, c0)` (clipped to the matrix bounds).
    pub fn block_sum(&self, r0: usize, c0: usize, block_size: usize) -> f64 {
        let r1 = (r0 + block_size).min(self.rows());
        let c1 = (c0 + block_size).min(self.cols());
        let mut acc = 0.0;
        for r in r0..r1 {
            for c in c0..c1 {
                acc += self.get(r, c) as f64;
            }
        }
        acc
    }

    /// Sum of scores of elements selected by a row-major keep mask; used to
    /// measure how much importance a pruning pattern retains.
    pub fn retained(&self, keep: &[bool]) -> f64 {
        assert_eq!(keep.len(), self.scores.len(), "mask length mismatch");
        self.scores.as_slice().iter().zip(keep).filter(|(_, &k)| k).map(|(&v, _)| v as f64).sum()
    }
}

/// Selects the indices of the `count` smallest values (ties broken by index
/// order).  This is the primitive the pruning passes use so that the number
/// of pruned units is exact rather than threshold-dependent.
pub fn smallest_k_indices(values: &[f64], count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a].partial_cmp(&values[b]).expect("scores must not be NaN").then(a.cmp(&b))
    });
    idx.truncate(count.min(values.len()));
    idx
}

/// Selects the indices of the `count` largest values (ties broken by index
/// order).
pub fn largest_k_indices(values: &[f64], count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b].partial_cmp(&values[a]).expect("scores must not be NaN").then(a.cmp(&b))
    });
    idx.truncate(count.min(values.len()));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_scores_are_abs() {
        let w = Matrix::from_rows(&[&[1.0, -2.0], &[0.0, -0.5]]);
        let s = ImportanceScores::magnitude(&w);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 0.0, 0.5]);
    }

    #[test]
    fn taylor_scores_are_abs_product() {
        let w = Matrix::from_rows(&[&[1.0, -2.0]]);
        let g = Matrix::from_rows(&[&[0.5, 0.25]]);
        let s = ImportanceScores::taylor(&w, &g);
        assert_eq!(s.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn taylor_rejects_shape_mismatch() {
        let _ = ImportanceScores::taylor(&Matrix::zeros(2, 2), &Matrix::zeros(2, 3));
    }

    #[test]
    fn aggregations() {
        let s =
            ImportanceScores::from_matrix(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        assert_eq!(s.total(), 21.0);
        assert_eq!(s.col_sum(1), 7.0);
        assert_eq!(s.row_sum_over_cols(1, &[0, 2]), 10.0);
        assert_eq!(s.block_sum(0, 0, 2), 12.0);
        assert_eq!(s.block_sum(0, 2, 2), 9.0); // clipped block
    }

    #[test]
    fn retained_sums_kept_scores() {
        let s = ImportanceScores::from_matrix(Matrix::from_rows(&[&[1.0, 3.0]]));
        assert_eq!(s.retained(&[true, false]), 1.0);
    }

    #[test]
    fn smallest_and_largest_k() {
        let v = vec![5.0, 1.0, 3.0, 1.0];
        assert_eq!(smallest_k_indices(&v, 2), vec![1, 3]);
        assert_eq!(largest_k_indices(&v, 1), vec![0]);
        assert_eq!(smallest_k_indices(&v, 10).len(), 4);
        assert!(smallest_k_indices(&v, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_matrix_rejects_negative_scores() {
        let _ = ImportanceScores::from_matrix(Matrix::from_rows(&[&[-1.0]]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// smallest_k and largest_k partition correctly: every selected
        /// "small" value is <= every selected "large" value when k's sum to n.
        #[test]
        fn smallest_largest_partition(values in prop::collection::vec(0.0f64..100.0, 1..40), split in 0usize..40) {
            let k = split.min(values.len());
            let small = smallest_k_indices(&values, k);
            let large = largest_k_indices(&values, values.len() - k);
            prop_assert_eq!(small.len() + large.len(), values.len());
            let max_small = small.iter().map(|&i| values[i]).fold(f64::NEG_INFINITY, f64::max);
            let min_large = large.iter().map(|&i| values[i]).fold(f64::INFINITY, f64::min);
            if !small.is_empty() && !large.is_empty() {
                prop_assert!(max_small <= min_large + 1e-12);
            }
        }
    }
}
