//! High-level pruning pipeline.
//!
//! [`TileWisePruner`] is the user-facing entry point: give it a model's
//! layer set and a configuration, and it runs the multi-stage pruning of
//! Algorithm 1 with the tile-wise pattern (with apriori tuning and a
//! fine-tuning hook) and hands back executable [`TileWiseMatrix`] weights
//! plus the per-stage reports.  The hybrid TEW pattern is evaluated through
//! `tw_pruning::tew` and the cost model, not served.

use crate::tile_matrix::TileWiseMatrix;
use tw_pruning::{
    AprioriConfig, ImportanceMethod, LayerSet, MultiStageConfig, MultiStagePruner, PatternMask,
    PruneStageReport, PruningPattern, SparsityTarget,
};

/// Configuration of the end-to-end pruning pipeline.
#[derive(Clone, Debug)]
pub struct TileWisePrunerConfig {
    /// Tiling granularity G.
    pub granularity: usize,
    /// Final sparsity target.
    pub target_sparsity: f64,
    /// Number of prune/fine-tune stages.
    pub stages: usize,
    /// Importance estimator.
    pub importance: ImportanceMethod,
    /// Apriori tuning configuration (Algorithm 2); `None` disables it.
    pub apriori: Option<AprioriConfig>,
    /// Fraction by which surviving weights are boosted per stage to model
    /// fine-tuning recovery (0 disables the hook).
    pub fine_tune_recovery: f32,
}

impl TileWisePrunerConfig {
    /// The paper's reference configuration: G = 128, 75% sparsity,
    /// 4 stages, Taylor importance, apriori tuning on.
    pub fn paper_default() -> Self {
        Self {
            granularity: 128,
            target_sparsity: 0.75,
            stages: 4,
            importance: ImportanceMethod::Taylor,
            apriori: Some(AprioriConfig::default()),
            fine_tune_recovery: 0.05,
        }
    }
}

impl Default for TileWisePrunerConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The result of pruning one model.
#[derive(Clone, Debug)]
pub struct PrunedModel {
    /// Executable TW weights, one per layer.
    pub tile_matrices: Vec<TileWiseMatrix>,
    /// Final flat keep masks.
    pub masks: Vec<PatternMask>,
    /// Per-stage pruning reports.
    pub stages: Vec<PruneStageReport>,
    /// Overall achieved sparsity: the share of weights that are zero.
    pub achieved_sparsity: f64,
}

impl PrunedModel {
    /// Total non-zero parameters across all layers.  With several stages
    /// this can be below the final masks' kept count: a weight an earlier
    /// stage zeroed stays zero even where the final mask keeps it.
    pub fn kept_parameters(&self) -> usize {
        self.tile_matrices.iter().map(TileWiseMatrix::count_nonzeros).sum()
    }
}

/// The high-level pruner.
pub struct TileWisePruner {
    config: TileWisePrunerConfig,
}

impl TileWisePruner {
    /// Creates a pruner with the given configuration.
    pub fn new(config: TileWisePrunerConfig) -> Self {
        assert!(config.granularity > 0, "granularity must be positive");
        assert!((0.0..1.0).contains(&config.target_sparsity), "target sparsity must be in [0, 1)");
        Self { config }
    }

    /// Prunes a model in place (its weights end up masked) and returns the
    /// executable sparse representation.
    pub fn prune(&self, layers: &mut LayerSet) -> PrunedModel {
        let ms_config = MultiStageConfig {
            target: SparsityTarget::new(self.config.target_sparsity),
            stages: self.config.stages,
            pattern: PruningPattern::TileWise { granularity: self.config.granularity },
            importance: self.config.importance,
            apriori: self.config.apriori,
        };
        let pruner = MultiStagePruner::new(ms_config);
        let recovery = self.config.fine_tune_recovery;
        let outcome = if recovery > 0.0 {
            pruner.run(layers, tw_models::SyntheticModel::fine_tune_hook(recovery))
        } else {
            pruner.run(layers, |_, _, _| {})
        };

        let tw_masks = outcome.tw_masks.expect("TW pruning always yields structured masks");
        // Built from the pruned, fine-tuned weights, so the executables serve
        // exactly the model left in `layers`.
        let tile_matrices: Vec<TileWiseMatrix> = layers
            .weights()
            .iter()
            .zip(&tw_masks)
            .map(|(w, m)| TileWiseMatrix::from_mask(w, m))
            .collect();
        let mut pruned = PrunedModel {
            tile_matrices,
            masks: outcome.masks,
            stages: outcome.stages,
            achieved_sparsity: 0.0,
        };
        let total: usize = pruned.tile_matrices.iter().map(|t| t.k() * t.n()).sum();
        pruned.achieved_sparsity = (total - pruned.kept_parameters()) as f64 / total.max(1) as f64;
        pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_tensor::Matrix;

    fn small_layers(seed: u64) -> LayerSet {
        LayerSet::with_grads(
            vec!["a".into(), "b".into()],
            vec![
                Matrix::random_normal(64, 96, 1.0, seed),
                Matrix::random_normal(96, 64, 1.0, seed + 1),
            ],
            vec![
                Matrix::random_normal(64, 96, 0.1, seed + 2),
                Matrix::random_normal(96, 64, 0.1, seed + 3),
            ],
        )
    }

    #[test]
    fn tw_pipeline_reaches_target_and_builds_executables() {
        let mut layers = small_layers(1);
        let pruner = TileWisePruner::new(TileWisePrunerConfig {
            granularity: 32,
            target_sparsity: 0.7,
            stages: 3,
            importance: ImportanceMethod::Taylor,
            apriori: Some(AprioriConfig::default()),
            fine_tune_recovery: 0.05,
        });
        let pruned = pruner.prune(&mut layers);
        assert!((pruned.achieved_sparsity - 0.7).abs() < 0.05);
        assert_eq!(pruned.tile_matrices.len(), 2);
        assert_eq!(pruned.stages.len(), 3);
        assert!(pruned.kept_parameters() > 0);
        // The executable matrices carry the same sparsity as the masks.
        for (tm, mask) in pruned.tile_matrices.iter().zip(&pruned.masks) {
            assert!((tm.sparsity() - mask.sparsity()).abs() < 1e-9);
        }
    }

    #[test]
    fn executable_weights_match_pruned_layer_weights() {
        // After pruning, the layer set's weights are masked; the executable
        // representation must reconstruct exactly those masked weights, and
        // the reported counts must be those weights' non-zeros.  The second
        // case runs three stages, where the final masks keep positions an
        // earlier stage already zeroed (3,674 kept positions, 3,596
        // non-zeros).
        let cases = [
            (3, 16, 0.6, 1, ImportanceMethod::Magnitude, None, 0.0),
            (1, 32, 0.7, 3, ImportanceMethod::Taylor, Some(AprioriConfig::default()), 0.0),
        ];
        for (seed, granularity, target_sparsity, stages, importance, apriori, recovery) in cases {
            let mut layers = small_layers(seed);
            let pruner = TileWisePruner::new(TileWisePrunerConfig {
                granularity,
                target_sparsity,
                stages,
                importance,
                apriori,
                fine_tune_recovery: recovery,
            });
            let pruned = pruner.prune(&mut layers);
            for (tm, w) in pruned.tile_matrices.iter().zip(layers.weights()) {
                assert_eq!(&tm.to_dense(), w);
            }
            let nonzeros: usize = layers.weights().iter().map(|w| w.count_nonzeros()).sum();
            let total: usize = layers.weights().iter().map(|w| w.len()).sum();
            assert_eq!(pruned.kept_parameters(), nonzeros, "{stages} stage(s)");
            assert_eq!(pruned.achieved_sparsity, (total - nonzeros) as f64 / total as f64);
        }
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_rejected() {
        let _ = TileWisePruner::new(TileWisePrunerConfig {
            granularity: 0,
            ..TileWisePrunerConfig::paper_default()
        });
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = TileWisePrunerConfig::default();
        assert_eq!(cfg.granularity, 128);
        assert!((cfg.target_sparsity - 0.75).abs() < 1e-12);
        assert_eq!(cfg.stages, 4);
        assert!(cfg.apriori.is_some());
    }
}
