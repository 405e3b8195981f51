//! Importance-retention accuracy proxy.
//!
//! We cannot fine-tune BERT/VGG/NMT on their real datasets in this
//! environment, so the accuracy of a pruned model is *modelled* from the
//! fraction of total importance its mask removes.  The model is anchored to
//! the paper's published numbers:
//!
//! * the dense accuracy of each task, and
//! * the accuracy drop of EW pruning at 75% sparsity (the best pattern at
//!   the paper's reference sparsity).
//!
//! Everything else — the ordering of patterns, the effect of the TW
//! granularity G, the benefit of the TEW overlay and of apriori tuning —
//! follows from the measured lost importance of each mask, not from
//! hard-coded curves.  The trainable MLP micro-task (`crate::mlp`) provides
//! an end-to-end sanity check that this proxy ranks patterns the same way
//! real fine-tuned training does.

use crate::workload::ModelKind;
use tw_pruning::{ew, ImportanceScores, PatternMask, SparsityTarget};

/// The evaluation tasks of the paper (Fig. 12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// BERT sentence-pair entailment on MNLI (accuracy).
    Mnli,
    /// BERT question answering on SQuAD (F1).
    Squad,
    /// VGG-16 image classification on ImageNet (accuracy).
    ImageNet,
    /// NMT translation on IWSLT En-Vi (BLEU).
    IwsltBleu,
}

impl TaskKind {
    /// The task the paper pairs with each model for its headline numbers.
    pub fn primary_for(kind: ModelKind) -> TaskKind {
        match kind {
            ModelKind::BertBase => TaskKind::Mnli,
            ModelKind::Vgg16 => TaskKind::ImageNet,
            ModelKind::Nmt => TaskKind::IwsltBleu,
            ModelKind::Mlp => TaskKind::Mnli, // the proxy is unused for the MLP
        }
    }

    /// Metric value of the unpruned dense model (from the paper's figures).
    pub fn dense_metric(&self) -> f64 {
        match self {
            TaskKind::Mnli => 0.843,
            TaskKind::Squad => 0.881,
            TaskKind::ImageNet => 0.906,
            TaskKind::IwsltBleu => 28.6,
        }
    }

    /// Metric drop of EW pruning at 75% sparsity — the calibration anchor.
    pub fn ew75_drop(&self) -> f64 {
        match self {
            TaskKind::Mnli => 0.010,
            TaskKind::Squad => 0.015,
            TaskKind::ImageNet => 0.006,
            TaskKind::IwsltBleu => 1.2,
        }
    }

    /// Convexity of the drop as lost importance grows.  NMT is the most
    /// sensitive model in the paper ("this model prefers irregular
    /// sparsities"), so its drop grows fastest.
    pub fn drop_exponent(&self) -> f64 {
        match self {
            TaskKind::Mnli => 1.6,
            TaskKind::Squad => 1.6,
            TaskKind::ImageNet => 1.8,
            TaskKind::IwsltBleu => 1.3,
        }
    }

    /// Lower bound of the metric (chance level / unusable model).
    pub fn metric_floor(&self) -> f64 {
        match self {
            TaskKind::Mnli => 0.33,
            TaskKind::Squad => 0.10,
            TaskKind::ImageNet => 0.10,
            TaskKind::IwsltBleu => 0.0,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Mnli => "MNLI",
            TaskKind::Squad => "SQuAD",
            TaskKind::ImageNet => "ImageNet",
            TaskKind::IwsltBleu => "IWSLT BLEU",
        }
    }
}

/// The calibrated accuracy proxy for one task and one (synthetic) model.
#[derive(Clone, Debug)]
pub struct AccuracyModel {
    task: TaskKind,
    /// Multiplier mapping (lost importance)^exponent to metric drop.
    scale: f64,
}

impl AccuracyModel {
    /// Calibrates the proxy: the EW mask at 75% sparsity on the given scores
    /// must land exactly on the paper's reported EW drop for this task.
    pub fn calibrate(task: TaskKind, scores: &[ImportanceScores]) -> Self {
        let anchor_masks = ew::prune_global(scores, SparsityTarget::new(0.75));
        let lost = lost_importance(scores, &anchor_masks);
        let exponent = task.drop_exponent();
        let scale = if lost > 1e-9 { task.ew75_drop() / lost.powf(exponent) } else { 0.0 };
        Self { task, scale }
    }

    /// Metric of a pruned model given its masks (one per weight matrix).
    pub fn metric_for_masks(&self, scores: &[ImportanceScores], masks: &[PatternMask]) -> f64 {
        self.metric_for_lost_importance(lost_importance(scores, masks))
    }

    /// Metric of a pruned model given the overall fraction of importance its
    /// masks removed.
    pub fn metric_for_lost_importance(&self, lost: f64) -> f64 {
        let drop = self.scale * lost.max(0.0).powf(self.task.drop_exponent());
        (self.task.dense_metric() - drop).max(self.task.metric_floor())
    }
}

/// Overall fraction of importance removed by a set of masks, weighted by
/// each matrix's total importance.
pub fn lost_importance(scores: &[ImportanceScores], masks: &[PatternMask]) -> f64 {
    assert_eq!(scores.len(), masks.len(), "one mask per score matrix");
    let total: f64 = scores.iter().map(|s| s.total()).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let kept: f64 = scores.iter().zip(masks).map(|(s, m)| s.retained(m.keep())).sum();
    (1.0 - kept / total).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticModel, SyntheticModelConfig};
    use crate::workload::Workload;
    use tw_pruning::{bw, tw, ImportanceMethod, TileWiseConfig};

    fn bert_scores() -> Vec<ImportanceScores> {
        let m = SyntheticModel::generate(
            Workload::bert_base(8, 128),
            SyntheticModelConfig::default_with_seed(11),
        );
        m.layers().importance(ImportanceMethod::Taylor)
    }

    #[test]
    fn calibration_reproduces_the_anchor() {
        let scores = bert_scores();
        let model = AccuracyModel::calibrate(TaskKind::Mnli, &scores);
        let ew_masks = ew::prune_global(&scores, SparsityTarget::new(0.75));
        let metric = model.metric_for_masks(&scores, &ew_masks);
        let expected = TaskKind::Mnli.dense_metric() - TaskKind::Mnli.ew75_drop();
        assert!((metric - expected).abs() < 1e-9, "metric {metric} expected {expected}");
    }

    #[test]
    fn dense_model_has_dense_metric() {
        let scores = bert_scores();
        let model = AccuracyModel::calibrate(TaskKind::Mnli, &scores);
        let dense_masks: Vec<PatternMask> =
            scores.iter().map(|s| PatternMask::keep_all(s.rows(), s.cols())).collect();
        assert!((model.metric_for_masks(&scores, &dense_masks) - 0.843).abs() < 1e-9);
    }

    #[test]
    fn metric_decreases_with_sparsity() {
        let scores = bert_scores();
        let model = AccuracyModel::calibrate(TaskKind::Mnli, &scores);
        let mut last = f64::INFINITY;
        for target in [0.25, 0.5, 0.75, 0.9] {
            let masks = ew::prune_global(&scores, SparsityTarget::new(target));
            let metric = model.metric_for_masks(&scores, &masks);
            assert!(metric <= last + 1e-12, "metric should not increase with sparsity");
            last = metric;
        }
    }

    #[test]
    fn pattern_ordering_matches_paper() {
        // At the same sparsity: EW >= TW >= BW in accuracy (the paper's
        // irregularity relationship), using the paper's configurations
        // (TW G=128 and BW 32x32, scaled by the synthetic model's divisor of
        // 8 to G=16 and 4x4... we keep BW at 32 which is the paper's block
        // size relative to the full matrix scaled down).
        let scores = bert_scores();
        let model = AccuracyModel::calibrate(TaskKind::Mnli, &scores);
        let target = SparsityTarget::new(0.75);
        let ew_metric = model.metric_for_masks(&scores, &ew::prune_global(&scores, target));
        let tw_masks: Vec<PatternMask> =
            tw::prune_global(&scores, &TileWiseConfig::with_granularity(16), target, None)
                .iter()
                .map(|m| m.to_pattern_mask())
                .collect();
        let tw_metric = model.metric_for_masks(&scores, &tw_masks);
        let bw_metric = model.metric_for_masks(&scores, &bw::prune_global(&scores, 32, target));
        assert!(ew_metric >= tw_metric, "EW {ew_metric} >= TW {tw_metric}");
        assert!(tw_metric >= bw_metric, "TW {tw_metric} >= BW {bw_metric}");
        // And the drops are in a plausible range at 75% sparsity (a few
        // percent, not tens of percent).
        assert!(0.843 - tw_metric < 0.08, "TW drop too large: {}", 0.843 - tw_metric);
    }

    #[test]
    fn tw_granularity_trades_accuracy() {
        // Larger G constrains the pattern more, so accuracy can only drop.
        let scores = bert_scores();
        let model = AccuracyModel::calibrate(TaskKind::Mnli, &scores);
        let target = SparsityTarget::new(0.75);
        let metric_for_g = |g: usize| {
            let masks: Vec<PatternMask> =
                tw::prune_global(&scores, &TileWiseConfig::with_granularity(g), target, None)
                    .iter()
                    .map(|m| m.to_pattern_mask())
                    .collect();
            model.metric_for_masks(&scores, &masks)
        };
        let g2 = metric_for_g(2);
        let g16 = metric_for_g(16);
        assert!(g2 + 0.01 >= g16, "G=2 ({g2}) should be at least as accurate as G=16 ({g16})");
    }

    #[test]
    fn metric_never_goes_below_floor() {
        let scores = bert_scores();
        let model = AccuracyModel::calibrate(TaskKind::Mnli, &scores);
        assert!(model.metric_for_lost_importance(1.0) >= TaskKind::Mnli.metric_floor() - 1e-12);
    }

    #[test]
    fn tasks_have_distinct_anchors() {
        for task in [TaskKind::Mnli, TaskKind::Squad, TaskKind::ImageNet, TaskKind::IwsltBleu] {
            assert!(task.dense_metric() > task.metric_floor());
            assert!(task.ew75_drop() > 0.0);
            assert!(task.drop_exponent() >= 1.0);
            assert!(!task.name().is_empty());
        }
        assert_eq!(TaskKind::primary_for(ModelKind::BertBase), TaskKind::Mnli);
        assert_eq!(TaskKind::primary_for(ModelKind::Nmt), TaskKind::IwsltBleu);
    }

    #[test]
    fn lost_importance_bounds() {
        let scores = bert_scores();
        let keep_all: Vec<PatternMask> =
            scores.iter().map(|s| PatternMask::keep_all(s.rows(), s.cols())).collect();
        assert_eq!(lost_importance(&scores, &keep_all), 0.0);
        let drop_all: Vec<PatternMask> = scores
            .iter()
            .map(|s| PatternMask::new(s.rows(), s.cols(), vec![false; s.rows() * s.cols()]))
            .collect();
        assert!((lost_importance(&scores, &drop_all) - 1.0).abs() < 1e-12);
    }
}
