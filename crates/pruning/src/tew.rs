//! Hybrid tile-element-wise (TEW) pruning.
//!
//! "In order to prune α percent of weights, the TEW first prunes α+δ percent
//! of weights with only TW, and then restores δ percent of the weight
//! elements with the highest importance scores." (Sec. IV-A)
//!
//! The restored elements form an element-wise overlay that the paper stores
//! in CSC per tile and executes on the CUDA cores, separately from the dense
//! TW part (Fig. 4 ④).  Here the overlay is priced by the GPU cost model,
//! not executed on the host.

use crate::apriori::AprioriHints;
use crate::importance::{largest_k_indices, ImportanceScores};
use crate::pattern::{PatternMask, SparsityTarget};
use crate::tw::{self, TileWiseConfig, TileWiseMask};

/// The TEW pruning decision for one weight matrix: the structured TW part
/// plus the sparse element-wise overlay of restored weights.
#[derive(Clone, Debug, PartialEq)]
pub struct TewMask {
    /// The tile-wise part, pruned to `target + delta`.
    tw: TileWiseMask,
    /// Keep mask of the restored overlay elements only (disjoint from the TW
    /// survivors).
    overlay: PatternMask,
}

impl TewMask {
    /// The structured tile-wise component.
    pub fn tw(&self) -> &TileWiseMask {
        &self.tw
    }

    /// The overlay keep mask (restored elements only).
    pub fn overlay(&self) -> &PatternMask {
        &self.overlay
    }

    /// Number of restored overlay elements.
    pub fn overlay_count(&self) -> usize {
        self.overlay.kept_count()
    }

    /// The combined keep mask: TW survivors plus overlay.
    pub fn combined_mask(&self) -> PatternMask {
        self.tw.to_pattern_mask().or(&self.overlay)
    }

    /// Achieved overall sparsity of the combined mask.
    pub fn sparsity(&self) -> f64 {
        self.combined_mask().sparsity()
    }
}

/// Prunes a single matrix with the TEW pattern.
pub fn prune(
    scores: &ImportanceScores,
    cfg: &TileWiseConfig,
    target: SparsityTarget,
    delta: f64,
) -> TewMask {
    prune_global(std::slice::from_ref(scores), cfg, target, delta, None)
        .pop()
        .expect("one mask per matrix")
}

/// Prunes a set of matrices with the TEW pattern under global ranking.
///
/// The TW phase targets `target + delta`; the overlay then restores the
/// `delta` fraction of elements (counted over all matrices) with the highest
/// importance among the TW-pruned positions.
pub fn prune_global(
    scores: &[ImportanceScores],
    cfg: &TileWiseConfig,
    target: SparsityTarget,
    delta: f64,
    hints: Option<&[AprioriHints]>,
) -> Vec<TewMask> {
    assert!(delta >= 0.0, "delta must be non-negative");
    let bumped = (target.fraction() + delta).min(0.9999);
    let tw_masks = tw::prune_global(scores, cfg, SparsityTarget::new(bumped), hints);

    // Gather all pruned positions across matrices with their scores.
    let total_elements: usize = scores.iter().map(|s| s.rows() * s.cols()).sum();
    let restore_count = (delta * total_elements as f64).round() as usize;

    let mut candidate_scores: Vec<f64> = Vec::new();
    let mut candidate_pos: Vec<(usize, usize, usize)> = Vec::new(); // (matrix, row, col)
    for (mi, (s, m)) in scores.iter().zip(&tw_masks).enumerate() {
        let flat = m.to_pattern_mask();
        for r in 0..s.rows() {
            for c in 0..s.cols() {
                if !flat.keeps(r, c) {
                    candidate_scores.push(s.get(r, c) as f64);
                    candidate_pos.push((mi, r, c));
                }
            }
        }
    }
    let restored = largest_k_indices(&candidate_scores, restore_count);

    let mut overlays: Vec<PatternMask> = scores
        .iter()
        .map(|s| PatternMask::new(s.rows(), s.cols(), vec![false; s.rows() * s.cols()]))
        .collect();
    for idx in restored {
        let (mi, r, c) = candidate_pos[idx];
        overlays[mi].restore(r, c);
    }

    tw_masks.into_iter().zip(overlays).map(|(tw, overlay)| TewMask { tw, overlay }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_tensor::Matrix;

    fn scores(seed: u64) -> ImportanceScores {
        ImportanceScores::magnitude(&Matrix::random_normal(96, 96, 1.0, seed))
    }

    #[test]
    fn overlay_is_disjoint_from_tw_survivors() {
        let s = scores(1);
        let mask = prune(&s, &TileWiseConfig::with_granularity(32), SparsityTarget::new(0.7), 0.05);
        let tw_flat = mask.tw().to_pattern_mask();
        for r in 0..96 {
            for c in 0..96 {
                if mask.overlay().keeps(r, c) {
                    assert!(!tw_flat.keeps(r, c), "overlay overlaps TW survivor at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn achieves_target_sparsity() {
        let s = scores(2);
        for delta in [0.01, 0.05, 0.10] {
            let mask =
                prune(&s, &TileWiseConfig::with_granularity(32), SparsityTarget::new(0.75), delta);
            assert!(
                (mask.sparsity() - 0.75).abs() < 0.03,
                "delta {delta}: achieved {}",
                mask.sparsity()
            );
        }
    }

    #[test]
    fn overlay_size_matches_delta() {
        let s = scores(3);
        let delta = 0.05;
        let mask =
            prune(&s, &TileWiseConfig::with_granularity(32), SparsityTarget::new(0.7), delta);
        let expected = (delta * (96.0 * 96.0)).round() as usize;
        assert_eq!(mask.overlay_count(), expected);
    }

    #[test]
    fn tew_retains_more_importance_than_tw() {
        // Adding back the most important pruned elements can only help.
        let s = scores(4);
        let cfg = TileWiseConfig::with_granularity(32);
        let target = SparsityTarget::new(0.8);
        let tw_only = tw::prune(&s, &cfg, target).to_pattern_mask().retained_importance(&s);
        let tew = prune(&s, &cfg, target, 0.05);
        let tew_ret = tew.combined_mask().retained_importance(&s);
        assert!(
            tew_ret > tw_only,
            "TEW ({tew_ret}) should retain more importance than TW ({tw_only})"
        );
    }

    #[test]
    fn larger_delta_retains_more_importance() {
        let s = scores(5);
        let cfg = TileWiseConfig::with_granularity(64);
        let target = SparsityTarget::new(0.8);
        let r1 = prune(&s, &cfg, target, 0.01).combined_mask().retained_importance(&s);
        let r5 = prune(&s, &cfg, target, 0.05).combined_mask().retained_importance(&s);
        let r15 = prune(&s, &cfg, target, 0.15).combined_mask().retained_importance(&s);
        assert!(r5 >= r1 - 1e-6);
        assert!(r15 >= r5 - 1e-6);
    }

    #[test]
    fn zero_delta_is_pure_tw() {
        let s = scores(6);
        let cfg = TileWiseConfig::with_granularity(32);
        let mask = prune(&s, &cfg, SparsityTarget::new(0.6), 0.0);
        assert_eq!(mask.overlay_count(), 0);
        assert_eq!(
            mask.combined_mask(),
            tw::prune(&s, &cfg, SparsityTarget::new(0.6)).to_pattern_mask()
        );
    }

    #[test]
    fn global_tew_restores_where_it_matters_most() {
        // Matrix 0 has much higher scores in its pruned region, so it should
        // receive most of the overlay budget.
        let strong = ImportanceScores::from_matrix(Matrix::from_fn(48, 48, |r, c| {
            1.0 + ((r + c) % 7) as f32
        }));
        let weak = ImportanceScores::from_matrix(Matrix::from_fn(48, 48, |r, c| {
            0.001 * (1.0 + ((r + c) % 7) as f32)
        }));
        let masks = prune_global(
            &[strong, weak],
            &TileWiseConfig::with_granularity(16),
            SparsityTarget::new(0.7),
            0.05,
            None,
        );
        assert!(masks[0].overlay_count() >= masks[1].overlay_count());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delta_panics() {
        let s = scores(7);
        let _ = prune(&s, &TileWiseConfig::default(), SparsityTarget::new(0.5), -0.1);
    }
}
