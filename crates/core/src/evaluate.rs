//! End-to-end evaluation of (model, pattern, sparsity) points.
//!
//! [`ModelEvaluation`] owns one synthetic model instance, its calibrated
//! accuracy proxy and an execution planner; [`ModelEvaluation::evaluate`]
//! prunes the model with a pattern, measures the retained-importance metric
//! and prices the resulting forward pass on the GPU cost model.  Every
//! figure of the paper's evaluation section is produced by sweeping this
//! function.

use crate::planner::{ExecutionConfig, ExecutionPlanner, WeightExecution};
use tw_gpu_sim::{RunCounters, TwTileShape};
use tw_models::{
    AccuracyModel, ModelKind, SyntheticModel, SyntheticModelConfig, TaskKind, Workload,
};
use tw_pruning::analysis::overall_sparsity;
use tw_pruning::{
    bw, ew, tew, tw, ImportanceMethod, ImportanceScores, PatternMask, PruningPattern,
    SparsityTarget, TileWiseConfig,
};

/// The outcome of evaluating one (pattern, sparsity, execution) point.
#[derive(Clone, Debug)]
pub struct SparseModelReport {
    /// The model evaluated.
    pub model: ModelKind,
    /// The task whose metric is reported.
    pub task: TaskKind,
    /// The sparsity pattern.
    pub pattern: PruningPattern,
    /// Requested sparsity.
    pub target_sparsity: f64,
    /// Achieved overall sparsity.
    pub achieved_sparsity: f64,
    /// Task metric of the pruned model (accuracy / F1 / BLEU).
    pub metric: f64,
    /// Metric drop relative to the dense model.
    pub metric_drop: f64,
    /// Time spent in GEMM-like kernels (seconds).
    pub gemm_time_s: f64,
    /// End-to-end forward-pass time (seconds).
    pub total_time_s: f64,
    /// GEMM time of the dense baseline on the same execution unit.
    pub dense_gemm_time_s: f64,
    /// End-to-end time of the dense baseline.
    pub dense_total_time_s: f64,
    /// Full kernel-level counters of the sparse run.
    pub counters: RunCounters,
}

impl SparseModelReport {
    /// GEMM-only speedup over the dense baseline (>1 means faster).
    pub fn gemm_speedup(&self) -> f64 {
        if self.gemm_time_s <= 0.0 {
            return 0.0;
        }
        self.dense_gemm_time_s / self.gemm_time_s
    }

    /// End-to-end speedup over the dense baseline.
    pub fn end_to_end_speedup(&self) -> f64 {
        if self.total_time_s <= 0.0 {
            return 0.0;
        }
        self.dense_total_time_s / self.total_time_s
    }
}

/// Evaluation harness for one model.
pub struct ModelEvaluation {
    kind: ModelKind,
    task: TaskKind,
    workload: Workload,
    synthetic: SyntheticModel,
    scores: Vec<ImportanceScores>,
    accuracy: AccuracyModel,
    planner: ExecutionPlanner,
}

impl ModelEvaluation {
    /// Builds the harness for a model with the default synthetic-model
    /// configuration (dimension divisor 8).
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        Self::with_divisor(kind, seed, 8)
    }

    /// Builds the harness with an explicit dimension divisor (larger values
    /// are faster but coarser; tests use 16).
    pub fn with_divisor(kind: ModelKind, seed: u64, dim_divisor: usize) -> Self {
        let workload = Workload::paper_config(kind);
        let mut cfg = SyntheticModelConfig::default_with_seed(seed);
        cfg.dim_divisor = dim_divisor;
        let synthetic = SyntheticModel::generate(workload.clone(), cfg);
        let scores = synthetic.layers().importance(ImportanceMethod::Taylor);
        let task = TaskKind::primary_for(kind);
        let accuracy = AccuracyModel::calibrate(task, &scores);
        Self {
            kind,
            task,
            workload,
            synthetic,
            scores,
            accuracy,
            planner: ExecutionPlanner::v100(),
        }
    }

    /// The task whose metric is reported.
    pub fn task(&self) -> TaskKind {
        self.task
    }

    /// The execution planner.
    pub fn planner(&self) -> &ExecutionPlanner {
        &self.planner
    }

    /// The dense baseline run under a given execution configuration.
    pub fn dense_run(&self, cfg: &ExecutionConfig) -> RunCounters {
        self.planner.plan_dense(&self.workload, cfg)
    }

    /// Dense-model metric (no pruning).
    pub fn dense_metric(&self) -> f64 {
        self.task.dense_metric()
    }

    /// Evaluates one (pattern, sparsity) point under the given execution
    /// configuration.
    pub fn evaluate(
        &self,
        pattern: PruningPattern,
        sparsity: f64,
        cfg: &ExecutionConfig,
    ) -> SparseModelReport {
        let (masks, execs) = self.prune_and_map(pattern, sparsity);

        let achieved = overall_sparsity(&masks);
        let metric = self.accuracy.metric_for_masks(&self.scores, &masks);

        let run = self.planner.plan_model(&self.workload, &execs, cfg);
        let dense = self.dense_run(cfg);

        SparseModelReport {
            model: self.kind,
            task: self.task,
            pattern,
            target_sparsity: sparsity,
            achieved_sparsity: achieved,
            metric,
            metric_drop: self.task.dense_metric() - metric,
            gemm_time_s: ExecutionPlanner::gemm_time(&run),
            total_time_s: run.total_time(),
            dense_gemm_time_s: ExecutionPlanner::gemm_time(&dense),
            dense_total_time_s: dense.total_time(),
            counters: run,
        }
    }

    /// Prunes the synthetic (scaled) model with the pattern and maps the
    /// result onto full-size execution forms.
    fn prune_and_map(
        &self,
        pattern: PruningPattern,
        sparsity: f64,
    ) -> (Vec<PatternMask>, Vec<WeightExecution>) {
        let target = SparsityTarget::new(sparsity.clamp(0.0, 0.9999));
        match pattern {
            PruningPattern::Dense => {
                let masks: Vec<PatternMask> =
                    self.scores.iter().map(|s| PatternMask::keep_all(s.rows(), s.cols())).collect();
                let execs = vec![WeightExecution::Dense; self.workload.prunable.len()];
                (masks, execs)
            }
            PruningPattern::ElementWise => {
                let masks = ew::prune_global(&self.scores, target);
                let execs =
                    masks.iter().map(|m| WeightExecution::Csr { sparsity: m.sparsity() }).collect();
                (masks, execs)
            }
            PruningPattern::VectorWise { vector_size } => {
                // VW's vector and BW's block sizes are kept at their nominal
                // values on the scaled matrices: relative to the matrix they
                // become *more* constrained, which is the conservative
                // direction for the baselines the paper compares against.
                let masks = tw_pruning::vw::prune_all(&self.scores, vector_size, target);
                let execs =
                    masks.iter().map(|m| WeightExecution::Csr { sparsity: m.sparsity() }).collect();
                (masks, execs)
            }
            PruningPattern::BlockWise { block_size } => {
                let masks = bw::prune_global(&self.scores, block_size, target);
                let execs = masks
                    .iter()
                    .map(|m| WeightExecution::Bsr { block_size, block_sparsity: m.sparsity() })
                    .collect();
                (masks, execs)
            }
            PruningPattern::TileWise { granularity } => {
                let scaled_g = scale_unit(granularity, self.divisor());
                let tw_masks = tw::prune_global(
                    &self.scores,
                    &TileWiseConfig::with_granularity(scaled_g),
                    target,
                    None,
                );
                let masks: Vec<PatternMask> =
                    tw_masks.iter().map(|m| m.to_pattern_mask()).collect();
                let execs = tw_masks
                    .iter()
                    .enumerate()
                    .map(|(i, m)| WeightExecution::TileWise { tiles: self.scale_tiles(i, m) })
                    .collect();
                (masks, execs)
            }
            PruningPattern::TileElementWise { granularity, delta } => {
                let scaled_g = scale_unit(granularity, self.divisor());
                let tew_masks = tew::prune_global(
                    &self.scores,
                    &TileWiseConfig::with_granularity(scaled_g),
                    target,
                    delta,
                    None,
                );
                let masks: Vec<PatternMask> = tew_masks.iter().map(|m| m.combined_mask()).collect();
                let execs = tew_masks
                    .iter()
                    .enumerate()
                    .map(|(i, m)| {
                        let full_elems = self.workload.prunable[i].k * self.workload.prunable[i].n;
                        let scaled_elems = {
                            let (r, c) = self.synthetic.scaled_shape(i);
                            r * c
                        };
                        let scale = full_elems as f64 / scaled_elems.max(1) as f64;
                        WeightExecution::Tew {
                            tiles: self.scale_tiles(i, m.tw()),
                            overlay_nnz: (m.overlay_count() as f64 * scale) as u64,
                        }
                    })
                    .collect();
                (masks, execs)
            }
        }
    }

    /// The (uniform) dimension divisor of the synthetic model.
    fn divisor(&self) -> usize {
        self.synthetic.config().dim_divisor
    }

    /// Maps a scaled tile-wise mask onto full-size tile shapes: each tile's
    /// surviving row/column counts are scaled by the ratio between the full
    /// and the scaled matrix dimensions.
    fn scale_tiles(&self, i: usize, mask: &tw_pruning::TileWiseMask) -> Vec<TwTileShape> {
        let row_scale = self.synthetic.row_scale(i);
        let col_scale = self.synthetic.col_scale(i);
        let full_k = self.workload.prunable[i].k;
        mask.tiles()
            .iter()
            .filter(|t| t.kept_cols() > 0)
            .map(|t| TwTileShape {
                kept_rows: ((t.kept_rows() as f64 * row_scale).round() as usize).clamp(1, full_k),
                kept_cols: ((t.kept_cols() as f64 * col_scale).round() as usize).max(1),
            })
            .collect()
    }
}

fn scale_unit(unit: usize, divisor: usize) -> usize {
    (unit / divisor.max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_gpu_sim::CoreKind;

    fn harness() -> ModelEvaluation {
        // Divisor 16 keeps the 72-matrix BERT sweep fast in unit tests.
        ModelEvaluation::with_divisor(ModelKind::BertBase, 3, 16)
    }

    #[test]
    fn dense_pattern_reports_dense_metrics() {
        let h = harness();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let report = h.evaluate(PruningPattern::Dense, 0.0, &cfg);
        assert_eq!(report.achieved_sparsity, 0.0);
        assert!((report.metric - h.dense_metric()).abs() < 1e-9);
        assert!((report.gemm_speedup() - 1.0).abs() < 1e-9);
        assert!((report.end_to_end_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tw_at_75_is_faster_and_nearly_as_accurate() {
        let h = harness();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let report = h.evaluate(PruningPattern::TileWise { granularity: 128 }, 0.75, &cfg);
        assert!((report.achieved_sparsity - 0.75).abs() < 0.05);
        assert!(report.gemm_speedup() > 1.5, "GEMM speedup {}", report.gemm_speedup());
        assert!(report.end_to_end_speedup() > 1.2, "e2e speedup {}", report.end_to_end_speedup());
        assert!(report.metric_drop < 0.06, "metric drop {}", report.metric_drop);
    }

    #[test]
    fn ew_is_accurate_but_slow() {
        let h = harness();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let ew = h.evaluate(PruningPattern::ElementWise, 0.75, &cfg);
        let tw = h.evaluate(PruningPattern::TileWise { granularity: 128 }, 0.75, &cfg);
        assert!(ew.metric >= tw.metric - 1e-9, "EW must be at least as accurate as TW");
        assert!(
            ew.gemm_speedup() < 1.0,
            "EW on cuSparse must be slower than the dense tensor-core baseline"
        );
        assert!(tw.gemm_speedup() > ew.gemm_speedup());
    }

    #[test]
    fn bw_is_both_slower_and_less_accurate_than_tw() {
        let h = harness();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let bw = h.evaluate(PruningPattern::BlockWise { block_size: 32 }, 0.75, &cfg);
        let tw = h.evaluate(PruningPattern::TileWise { granularity: 128 }, 0.75, &cfg);
        assert!(tw.metric >= bw.metric - 1e-9);
        assert!(tw.gemm_speedup() > bw.gemm_speedup());
        assert!(bw.gemm_speedup() < 1.0, "BW at 75% must not beat dense tensor cores");
    }

    #[test]
    fn tew_recovers_accuracy_but_pays_latency_on_tensor_cores() {
        let h = harness();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let tw = h.evaluate(PruningPattern::TileWise { granularity: 128 }, 0.75, &cfg);
        let tew = h.evaluate(
            PruningPattern::TileElementWise { granularity: 128, delta: 0.05 },
            0.75,
            &cfg,
        );
        assert!(tew.metric >= tw.metric, "TEW must be at least as accurate as TW");
        assert!(
            tew.total_time_s > tw.total_time_s,
            "the CUDA-core overlay must cost time on the tensor-core path"
        );
    }

    #[test]
    fn cuda_core_speedups_exceed_tensor_core_speedups() {
        // Fig. 14: TW's relative speedup is larger on CUDA cores (2.86x avg)
        // than on tensor cores (1.95x avg) because the dense baseline is
        // weaker there.
        let h = harness();
        let t = h.evaluate(
            PruningPattern::TileWise { granularity: 128 },
            0.75,
            &ExecutionConfig::optimized(CoreKind::TensorCore),
        );
        let c = h.evaluate(
            PruningPattern::TileWise { granularity: 128 },
            0.75,
            &ExecutionConfig::optimized(CoreKind::CudaCore),
        );
        assert!(
            c.gemm_speedup() > t.gemm_speedup() * 0.9,
            "CUDA-core speedup {} should be at least comparable to tensor-core speedup {}",
            c.gemm_speedup(),
            t.gemm_speedup()
        );
    }

    #[test]
    fn speedup_grows_with_sparsity() {
        let h = harness();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let mut last = 0.0;
        for s in [0.5, 0.75, 0.9, 0.99] {
            let r = h.evaluate(PruningPattern::TileWise { granularity: 128 }, s, &cfg);
            assert!(
                r.gemm_speedup() > last,
                "speedup should grow with sparsity: {} at {s}",
                r.gemm_speedup()
            );
            last = r.gemm_speedup();
        }
        assert!(last > 4.0, "speedup at 99% should be large, got {last}");
    }

    #[test]
    fn vgg_and_nmt_harnesses_work() {
        for kind in [ModelKind::Vgg16, ModelKind::Nmt] {
            let h = ModelEvaluation::with_divisor(kind, 5, 16);
            let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
            let r = h.evaluate(PruningPattern::TileWise { granularity: 128 }, 0.75, &cfg);
            assert!(r.achieved_sparsity > 0.6, "{kind:?} achieved {}", r.achieved_sparsity);
            assert!(r.gemm_speedup() > 1.0, "{kind:?} speedup {}", r.gemm_speedup());
            assert!(r.metric > 0.0);
        }
    }
}
