//! Multi-stage pruning driver (Algorithm 1).
//!
//! "We adopt the multi-stage pruning algorithm that gradually prunes the
//! pre-trained dense model to reach a target sparsity.  Each stage consists
//! of a pruning and fine-tuning step."  The driver here owns that loop:
//! at every stage it recomputes importance scores, applies the selected
//! sparsity pattern globally across all layers, zeroes the pruned weights and
//! invokes a caller-supplied fine-tuning hook before moving to the next
//! (larger) sparsity target.

use crate::analysis::overall_sparsity;
use crate::apriori::{self, AprioriConfig};
use crate::bw;
use crate::ew;
use crate::importance::{ImportanceMethod, ImportanceScores};
use crate::pattern::{PatternMask, PruningPattern, SparsityTarget};
use crate::tew;
use crate::tw::{self, TileWiseConfig, TileWiseMask};
use crate::vw;
use tw_tensor::Matrix;

/// A named collection of weight matrices (and optional gradients) that is
/// pruned as one unit with a global sparsity budget — e.g. the 72 weight
/// matrices of BERT-base.
#[derive(Clone, Debug)]
pub struct LayerSet {
    names: Vec<String>,
    weights: Vec<Matrix>,
    grads: Option<Vec<Matrix>>,
}

impl LayerSet {
    /// Builds a layer set from names and weights (magnitude importance only).
    pub fn new(names: Vec<String>, weights: Vec<Matrix>) -> Self {
        assert_eq!(names.len(), weights.len(), "one name per weight matrix");
        Self { names, weights, grads: None }
    }

    /// Builds a layer set with gradients, enabling Taylor importance.
    pub fn with_grads(names: Vec<String>, weights: Vec<Matrix>, grads: Vec<Matrix>) -> Self {
        assert_eq!(names.len(), weights.len(), "one name per weight matrix");
        assert_eq!(weights.len(), grads.len(), "one gradient per weight matrix");
        for (w, g) in weights.iter().zip(&grads) {
            assert_eq!(w.shape(), g.shape(), "weight/grad shape mismatch");
        }
        Self { names, weights, grads: Some(grads) }
    }

    /// Layer names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the set holds no layers.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight matrices.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Mutable access to the weight matrices (fine-tuning hooks use this).
    pub fn weights_mut(&mut self) -> &mut [Matrix] {
        &mut self.weights
    }

    /// Total number of weight elements across all layers.
    pub fn total_elements(&self) -> usize {
        self.weights.iter().map(|w| w.len()).sum()
    }

    /// Overall sparsity of the current weights.
    pub fn sparsity(&self) -> f64 {
        let zeros: usize = self.weights.iter().map(|w| w.count_zeros()).sum();
        zeros as f64 / self.total_elements().max(1) as f64
    }

    /// Computes importance scores for every layer with the given method.
    pub fn importance(&self, method: ImportanceMethod) -> Vec<ImportanceScores> {
        match method {
            ImportanceMethod::Magnitude => {
                self.weights.iter().map(ImportanceScores::magnitude).collect()
            }
            ImportanceMethod::Taylor => {
                let grads = self
                    .grads
                    .as_ref()
                    .expect("Taylor importance requires gradients in the LayerSet");
                self.weights
                    .iter()
                    .zip(grads)
                    .map(|(w, g)| ImportanceScores::taylor(w, g))
                    .collect()
            }
        }
    }

    /// Applies masks to the weights, zeroing pruned elements in place.
    pub fn apply_masks(&mut self, masks: &[PatternMask]) {
        assert_eq!(masks.len(), self.weights.len(), "one mask per layer");
        for (w, m) in self.weights.iter_mut().zip(masks) {
            *w = m.apply(w);
        }
    }
}

/// Configuration of the multi-stage pruning run.
#[derive(Clone, Debug)]
pub struct MultiStageConfig {
    /// Final sparsity target `S`.
    pub target: SparsityTarget,
    /// Number of prune/fine-tune stages (Algorithm 1's outer loop).
    pub stages: usize,
    /// The sparsity pattern to enforce.
    pub pattern: PruningPattern,
    /// Importance estimator.
    pub importance: ImportanceMethod,
    /// Apriori tuning (TW/TEW only); `None` disables Algorithm 2.
    pub apriori: Option<AprioriConfig>,
}

impl MultiStageConfig {
    /// The paper's default: 4 stages, Taylor importance, apriori tuning on.
    pub fn paper_default(pattern: PruningPattern, target: f64) -> Self {
        Self {
            target: SparsityTarget::new(target),
            stages: 4,
            pattern,
            importance: ImportanceMethod::Taylor,
            apriori: Some(AprioriConfig::default()),
        }
    }
}

/// Per-stage record emitted by the pruner.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneStageReport {
    /// Stage index (0-based).
    pub stage: usize,
    /// Sparsity targeted at this stage.
    pub target_sparsity: f64,
    /// Sparsity actually achieved over all layers.
    pub achieved_sparsity: f64,
    /// Fraction of total importance retained by the stage's masks.
    pub retained_importance: f64,
}

/// The final result of a multi-stage pruning run.
#[derive(Clone, Debug)]
pub struct PruneOutcome {
    /// Final element-level keep masks, one per layer.
    pub masks: Vec<PatternMask>,
    /// Structured tile-wise masks when the pattern is TW (or the TW part of
    /// TEW); used by the execution planner.
    pub tw_masks: Option<Vec<TileWiseMask>>,
    /// One report per stage, in order.
    pub stages: Vec<PruneStageReport>,
}

impl PruneOutcome {
    /// Overall achieved sparsity of the final masks.
    pub fn final_sparsity(&self) -> f64 {
        overall_sparsity(&self.masks)
    }
}

/// The multi-stage pruning driver.
pub struct MultiStagePruner {
    config: MultiStageConfig,
}

impl MultiStagePruner {
    /// Creates a pruner with the given configuration.
    pub fn new(config: MultiStageConfig) -> Self {
        assert!(config.stages > 0, "at least one stage is required");
        Self { config }
    }

    /// Sparsity target of stage `i` (0-based): a linear ramp from
    /// `target/stages` up to `target` (the `GraduallyIncrease` step).
    pub fn stage_target(&self, stage: usize) -> f64 {
        let s = self.config.target.fraction();
        s * (stage + 1) as f64 / self.config.stages as f64
    }

    /// Runs the full prune/fine-tune loop.
    ///
    /// `fine_tune` is invoked after every stage with the layer set (whose
    /// weights have already been masked) and the masks of that stage; it may
    /// adjust weights and gradients to model accuracy recovery.  Pass a
    /// no-op closure when fine-tuning is not modelled.
    pub fn run<F>(&self, layers: &mut LayerSet, mut fine_tune: F) -> PruneOutcome
    where
        F: FnMut(&mut LayerSet, &[PatternMask], usize),
    {
        let mut stage_reports = Vec::with_capacity(self.config.stages);
        let mut final_masks: Vec<PatternMask> = Vec::new();
        let mut final_tw: Option<Vec<TileWiseMask>> = None;

        for stage in 0..self.config.stages {
            let stage_sparsity = self.stage_target(stage);
            let target = SparsityTarget::new(stage_sparsity.min(0.9999));
            let scores = layers.importance(self.config.importance);

            let (masks, tw_masks) = self.prune_once(&scores, target);

            // Zero the pruned weights before fine-tuning, as Algorithm 1 does.
            layers.apply_masks(&masks);
            fine_tune(layers, &masks, stage);

            let achieved = overall_sparsity(&masks);
            let retained = {
                let total: f64 = scores.iter().map(|s| s.total()).sum();
                let kept: f64 = scores.iter().zip(&masks).map(|(s, m)| s.retained(m.keep())).sum();
                if total == 0.0 {
                    1.0
                } else {
                    kept / total
                }
            };
            stage_reports.push(PruneStageReport {
                stage,
                target_sparsity: stage_sparsity,
                achieved_sparsity: achieved,
                retained_importance: retained,
            });

            final_masks = masks;
            final_tw = tw_masks;
        }

        PruneOutcome { masks: final_masks, tw_masks: final_tw, stages: stage_reports }
    }

    /// One pruning pass at a fixed sparsity target.
    fn prune_once(
        &self,
        scores: &[ImportanceScores],
        target: SparsityTarget,
    ) -> (Vec<PatternMask>, Option<Vec<TileWiseMask>>) {
        match self.config.pattern {
            PruningPattern::Dense => {
                (scores.iter().map(|s| PatternMask::keep_all(s.rows(), s.cols())).collect(), None)
            }
            PruningPattern::ElementWise => (ew::prune_global(scores, target), None),
            PruningPattern::VectorWise { vector_size } => {
                (vw::prune_all(scores, vector_size, target), None)
            }
            PruningPattern::BlockWise { block_size } => {
                (bw::prune_global(scores, block_size, target), None)
            }
            PruningPattern::TileWise { granularity } => {
                let cfg = TileWiseConfig::with_granularity(granularity);
                let hints =
                    self.config.apriori.as_ref().map(|a| apriori::derive_hints(scores, target, a));
                let tw_masks = tw::prune_global(scores, &cfg, target, hints.as_deref());
                let masks = tw_masks.iter().map(|m| m.to_pattern_mask()).collect();
                (masks, Some(tw_masks))
            }
            PruningPattern::TileElementWise { granularity, delta } => {
                let cfg = TileWiseConfig::with_granularity(granularity);
                let hints =
                    self.config.apriori.as_ref().map(|a| apriori::derive_hints(scores, target, a));
                let tew_masks = tew::prune_global(scores, &cfg, target, delta, hints.as_deref());
                let masks = tew_masks.iter().map(|m| m.combined_mask()).collect();
                let tw_masks = tew_masks.iter().map(|m| m.tw().clone()).collect();
                (masks, Some(tw_masks))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_set(seed: u64) -> LayerSet {
        let names = vec!["fc1".to_string(), "fc2".to_string(), "attn".to_string()];
        let weights = vec![
            Matrix::random_normal(64, 96, 1.0, seed),
            Matrix::random_normal(96, 64, 0.5, seed + 1),
            Matrix::random_normal(64, 64, 2.0, seed + 2),
        ];
        let grads = vec![
            Matrix::random_normal(64, 96, 0.1, seed + 3),
            Matrix::random_normal(96, 64, 0.1, seed + 4),
            Matrix::random_normal(64, 64, 0.1, seed + 5),
        ];
        LayerSet::with_grads(names, weights, grads)
    }

    #[test]
    fn layer_set_accounting() {
        let ls = layer_set(1);
        assert_eq!(ls.len(), 3);
        assert_eq!(ls.total_elements(), 64 * 96 + 96 * 64 + 64 * 64);
        assert!(ls.sparsity() < 0.01);
        assert_eq!(ls.importance(ImportanceMethod::Taylor).len(), 3);
        assert_eq!(ls.importance(ImportanceMethod::Magnitude).len(), 3);
    }

    #[test]
    #[should_panic(expected = "requires gradients")]
    fn taylor_without_grads_panics() {
        let ls = LayerSet::new(vec!["w".into()], vec![Matrix::zeros(4, 4)]);
        let _ = ls.importance(ImportanceMethod::Taylor);
    }

    #[test]
    fn stage_targets_ramp_linearly() {
        let pruner = MultiStagePruner::new(MultiStageConfig::paper_default(
            PruningPattern::TileWise { granularity: 32 },
            0.8,
        ));
        assert!((pruner.stage_target(0) - 0.2).abs() < 1e-12);
        assert!((pruner.stage_target(3) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn multi_stage_reaches_target_for_every_pattern() {
        let patterns = [
            PruningPattern::ElementWise,
            PruningPattern::VectorWise { vector_size: 16 },
            PruningPattern::BlockWise { block_size: 16 },
            PruningPattern::TileWise { granularity: 32 },
            PruningPattern::TileElementWise { granularity: 32, delta: 0.02 },
        ];
        for pattern in patterns {
            let mut ls = layer_set(10);
            let pruner = MultiStagePruner::new(MultiStageConfig {
                target: SparsityTarget::new(0.75),
                stages: 3,
                pattern,
                importance: ImportanceMethod::Taylor,
                apriori: None,
            });
            let outcome = pruner.run(&mut ls, |_, _, _| {});
            assert!(
                (outcome.final_sparsity() - 0.75).abs() < 0.05,
                "{}: achieved {}",
                pattern.label(),
                outcome.final_sparsity()
            );
            assert_eq!(outcome.stages.len(), 3);
            // The layer weights carry at least the final mask's sparsity
            // (elements pruned in earlier stages stay zero even if a later
            // mask would have kept them).
            assert!(ls.sparsity() >= outcome.final_sparsity() - 1e-9);
        }
    }

    #[test]
    fn stage_sparsity_is_monotone() {
        let mut ls = layer_set(20);
        let pruner = MultiStagePruner::new(MultiStageConfig::paper_default(
            PruningPattern::TileWise { granularity: 16 },
            0.8,
        ));
        let outcome = pruner.run(&mut ls, |_, _, _| {});
        for w in outcome.stages.windows(2) {
            assert!(w[1].achieved_sparsity >= w[0].achieved_sparsity - 1e-9);
        }
        // Retained importance is a fraction of each stage's own score total.
        for s in &outcome.stages {
            assert!(s.retained_importance > 0.0 && s.retained_importance <= 1.0);
        }
    }

    #[test]
    fn tw_pattern_exposes_structured_masks() {
        let mut ls = layer_set(30);
        let pruner = MultiStagePruner::new(MultiStageConfig::paper_default(
            PruningPattern::TileWise { granularity: 32 },
            0.6,
        ));
        let outcome = pruner.run(&mut ls, |_, _, _| {});
        let tw = outcome.tw_masks.expect("TW masks present");
        assert_eq!(tw.len(), 3);
        for (structured, flat) in tw.iter().zip(&outcome.masks) {
            assert_eq!(&structured.to_pattern_mask(), flat);
        }
    }

    #[test]
    fn tew_pattern_exposes_overlay() {
        let mut ls = layer_set(40);
        let pruner = MultiStagePruner::new(MultiStageConfig::paper_default(
            PruningPattern::TileElementWise { granularity: 32, delta: 0.03 },
            0.7,
        ));
        let outcome = pruner.run(&mut ls, |_, _, _| {});
        let tw = outcome.tw_masks.expect("TEW keeps its structured TW part");
        // The overlay: flat masks keep elements the structured masks prune.
        let overlay_total: usize = tw
            .iter()
            .zip(&outcome.masks)
            .map(|(structured, flat)| {
                let structured = structured.to_pattern_mask();
                assert_eq!(structured.or(flat), *flat, "flat masks contain the TW survivors");
                flat.kept_count() - structured.kept_count()
            })
            .sum();
        assert!(overlay_total > 0);
    }

    #[test]
    fn fine_tune_hook_is_called_each_stage() {
        let mut ls = layer_set(50);
        let pruner = MultiStagePruner::new(MultiStageConfig {
            target: SparsityTarget::new(0.5),
            stages: 4,
            pattern: PruningPattern::ElementWise,
            importance: ImportanceMethod::Magnitude,
            apriori: None,
        });
        let mut calls = Vec::new();
        let _ = pruner.run(&mut ls, |_, masks, stage| {
            calls.push((stage, masks.len()));
        });
        assert_eq!(calls, vec![(0, 3), (1, 3), (2, 3), (3, 3)]);
    }

    #[test]
    fn dense_pattern_prunes_nothing() {
        let mut ls = layer_set(60);
        let pruner = MultiStagePruner::new(MultiStageConfig {
            target: SparsityTarget::new(0.9),
            stages: 2,
            pattern: PruningPattern::Dense,
            importance: ImportanceMethod::Magnitude,
            apriori: None,
        });
        let outcome = pruner.run(&mut ls, |_, _, _| {});
        assert_eq!(outcome.final_sparsity(), 0.0);
        assert!(ls.sparsity() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let _ = MultiStagePruner::new(MultiStageConfig {
            target: SparsityTarget::new(0.5),
            stages: 0,
            pattern: PruningPattern::ElementWise,
            importance: ImportanceMethod::Magnitude,
            apriori: None,
        });
    }
}
