//! Figure reproduction drivers.
//!
//! One generator per figure of the paper's evaluation section.  Each
//! function returns plain data rows; the `tw-bench` binaries print them as
//! CSV (see README's "Figure reproduction" section), and
//! `tests/figure_reproduction.rs` checks each figure's shape against the
//! paper's claims.

use crate::evaluate::{ModelEvaluation, SparseModelReport};
use crate::planner::{ExecutionConfig, ExecutionPlanner, TransposeStrategy};
use tw_gpu_sim::CoreKind;
use tw_models::{ModelKind, SyntheticModel, SyntheticModelConfig, Workload};
use tw_pruning::{analysis, ew, ImportanceMethod, PruningPattern, SparsityTarget};

/// Default synthetic-model seed used by every figure so results are
/// reproducible run to run.
pub const FIGURE_SEED: u64 = 2020;

/// Default dimension divisor for figure generation (full fidelity would use
/// 1; 8 keeps a full figure sweep in seconds).
pub const FIGURE_DIVISOR: usize = 8;

/// One bar of Fig. 3: a (model, configuration) pair with its sparsity and
/// execution time.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Model name.
    pub model: &'static str,
    /// Configuration label (`dense-T`, `dense-C`, `ew`, `vw16`, `bw32`).
    pub config: String,
    /// Weight sparsity of the configuration (0 for dense).
    pub sparsity: f64,
    /// GEMM execution time in milliseconds.
    pub time_ms: f64,
}

/// Fig. 3: sparsity and execution time of dense and baseline sparse models
/// (VGG and BERT).  EW/VW run through cuSparse on CUDA cores, BW through
/// BlockSparse on tensor cores; none of them should beat their dense
/// baseline.
pub fn fig03_baseline_patterns() -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for (kind, label) in [(ModelKind::Vgg16, "VGG"), (ModelKind::BertBase, "BERT")] {
        let h = ModelEvaluation::with_divisor(kind, FIGURE_SEED, FIGURE_DIVISOR);
        let tensor = ExecutionConfig::optimized(CoreKind::TensorCore);
        let cuda = ExecutionConfig::optimized(CoreKind::CudaCore);
        let dense_t = h.dense_run(&tensor);
        let dense_c = h.dense_run(&cuda);
        rows.push(Fig3Row {
            model: label,
            config: "dense-T".into(),
            sparsity: 0.0,
            time_ms: ExecutionPlanner::gemm_time(&dense_t) * 1e3,
        });
        rows.push(Fig3Row {
            model: label,
            config: "dense-C".into(),
            sparsity: 0.0,
            time_ms: ExecutionPlanner::gemm_time(&dense_c) * 1e3,
        });
        // Iso-accuracy sparsities (within ~1% of dense): EW can go sparser
        // than the structured patterns.
        let points = [
            (PruningPattern::ElementWise, 0.80, &cuda),
            (PruningPattern::VectorWise { vector_size: 16 }, 0.70, &cuda),
            (PruningPattern::BlockWise { block_size: 32 }, 0.55, &tensor),
        ];
        for (pattern, sparsity, cfg) in points {
            let r = h.evaluate(pattern, sparsity, cfg);
            rows.push(Fig3Row {
                model: label,
                config: pattern.label(),
                sparsity: r.achieved_sparsity,
                time_ms: r.gemm_time_s * 1e3,
            });
        }
    }
    rows
}

/// Fig. 5: per-weight-matrix sparsity of BERT after global EW pruning at
/// 75%.  Returns one sparsity value per weight-matrix index (72 values).
pub fn fig05_per_layer_sparsity() -> Vec<f64> {
    let model = SyntheticModel::generate(
        Workload::bert_base(8, 128),
        SyntheticModelConfig::default_with_seed(FIGURE_SEED),
    );
    let scores = model.layers().importance(ImportanceMethod::Taylor);
    let masks = ew::prune_global(&scores, SparsityTarget::new(0.75));
    analysis::per_matrix_sparsity(&masks)
}

/// One CDF series of Fig. 6.
#[derive(Clone, Debug)]
pub struct Fig6Series {
    /// Series label (`bw8x8`, `bw32x32`, `tw-g64`).
    pub label: &'static str,
    /// CDF points (zero-ratio, cumulative probability).
    pub points: Vec<(f64, f64)>,
}

/// Fig. 6: cumulative distribution of the zero-element ratio inside BW
/// blocks (8x8, 32x32) and TW row vectors (G = 64), measured on a 75%
/// EW-pruned BERT.  (Unit sizes are scaled by the synthetic model's
/// dimension divisor so they correspond to the paper's units on the full
/// matrices.)
pub fn fig06_zero_cdf() -> Vec<Fig6Series> {
    let model = SyntheticModel::generate(
        Workload::bert_base(8, 128),
        SyntheticModelConfig::default_with_seed(FIGURE_SEED),
    );
    let scores = model.layers().importance(ImportanceMethod::Taylor);
    let masks = ew::prune_global(&scores, SparsityTarget::new(0.75));
    let d = FIGURE_DIVISOR;
    let shapes = [
        ("bw8x8", analysis::UnitShape::Block { size: (8 / d).max(1) }),
        ("bw32x32", analysis::UnitShape::Block { size: (32 / d).max(2) }),
        ("tw-g64", analysis::UnitShape::RowVector { g: (64 / d).max(2) }),
    ];
    shapes
        .into_iter()
        .map(|(label, shape)| {
            // Aggregate the CDF over all 72 matrices.
            let mut ratios = Vec::new();
            for mask in &masks {
                ratios.extend(analysis::unit_zero_ratios(mask, shape));
            }
            let n = ratios.len().max(1) as f64;
            let points = (0..=20)
                .map(|i| {
                    let x = i as f64 / 20.0;
                    let c = ratios.iter().filter(|&&r| r <= x + 1e-12).count() as f64 / n;
                    (x, c)
                })
                .collect();
            Fig6Series { label, points }
        })
        .collect()
}

/// One point of the Fig. 9 / Fig. 12 / Fig. 14 sweeps.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Pattern label.
    pub pattern: String,
    /// Target sparsity.
    pub sparsity: f64,
    /// Task metric.
    pub metric: f64,
    /// GEMM latency normalised to the dense baseline (1.0 = dense; lower is
    /// faster).
    pub normalized_latency: f64,
    /// GEMM speedup over dense (1 / normalised latency).
    pub gemm_speedup: f64,
}

fn sweep_point(r: &SparseModelReport) -> SweepPoint {
    SweepPoint {
        pattern: r.pattern.label(),
        sparsity: r.target_sparsity,
        metric: r.metric,
        normalized_latency: if r.dense_gemm_time_s > 0.0 {
            r.gemm_time_s / r.dense_gemm_time_s
        } else {
            0.0
        },
        gemm_speedup: r.gemm_speedup(),
    }
}

/// Fig. 9: the TW design space on BERT/MNLI — accuracy (9a) and tensor-core
/// latency (9b) versus sparsity for EW, TW with G in {8, 32, 64, 128} and BW
/// with blocks {8, 32, 64}.
pub fn fig09_design_space(sparsities: &[f64]) -> Vec<SweepPoint> {
    let h = ModelEvaluation::with_divisor(ModelKind::BertBase, FIGURE_SEED, FIGURE_DIVISOR);
    let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
    let mut patterns = vec![PruningPattern::ElementWise];
    for g in [8, 32, 64, 128] {
        patterns.push(PruningPattern::TileWise { granularity: g });
    }
    for b in [8, 32, 64] {
        patterns.push(PruningPattern::BlockWise { block_size: b });
    }
    let mut rows = Vec::new();
    for &s in sparsities {
        for &p in &patterns {
            rows.push(sweep_point(&h.evaluate(p, s, &cfg)));
        }
    }
    rows
}

/// One row of Fig. 10: a TEW configuration at 75% sparsity.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// Configuration label (`dense`, `tw128`, `tew128-1.0%`, ...).
    pub config: String,
    /// Task metric.
    pub metric: f64,
    /// GEMM latency on tensor cores normalised to dense CUDA cores.
    pub tensor_latency_norm: f64,
    /// GEMM latency on CUDA cores normalised to dense CUDA cores.
    pub cuda_latency_norm: f64,
}

/// Fig. 10: accuracy and latency of TEW at 75% sparsity for δ in
/// {1%, 2.5%, 5%, 10%, 15%}, on both tensor and CUDA cores, all normalised
/// to the dense model on CUDA cores.
pub fn fig10_tew_delta() -> Vec<Fig10Row> {
    let h = ModelEvaluation::with_divisor(ModelKind::BertBase, FIGURE_SEED, FIGURE_DIVISOR);
    let tensor = ExecutionConfig::optimized(CoreKind::TensorCore);
    let cuda = ExecutionConfig::optimized(CoreKind::CudaCore);
    let dense_cuda_gemm = ExecutionPlanner::gemm_time(&h.dense_run(&cuda));
    let dense_tensor_gemm = ExecutionPlanner::gemm_time(&h.dense_run(&tensor));

    let mut rows = vec![Fig10Row {
        config: "dense".into(),
        metric: h.dense_metric(),
        tensor_latency_norm: dense_tensor_gemm / dense_cuda_gemm,
        cuda_latency_norm: 1.0,
    }];
    let mut configs = vec![PruningPattern::TileWise { granularity: 128 }];
    for delta in [0.01, 0.025, 0.05, 0.10, 0.15] {
        configs.push(PruningPattern::TileElementWise { granularity: 128, delta });
    }
    for p in configs {
        let rt = h.evaluate(p, 0.75, &tensor);
        let rc = h.evaluate(p, 0.75, &cuda);
        rows.push(Fig10Row {
            config: p.label(),
            metric: rt.metric,
            tensor_latency_norm: rt.gemm_time_s / dense_cuda_gemm,
            cuda_latency_norm: rc.gemm_time_s / dense_cuda_gemm,
        });
    }
    rows
}

/// One row of Fig. 11: scalability of TW speedup with sparsity, plus the
/// performance counters.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// TW sparsity (percent of weights pruned).
    pub sparsity: f64,
    /// GEMM latency speedup over the dense tensor-core baseline.
    pub speedup: f64,
    /// Global memory load transactions, normalised to the dense baseline.
    pub load_transactions_norm: f64,
    /// Global memory store transactions, normalised to the dense baseline.
    pub store_transactions_norm: f64,
    /// FLOPS efficiency (achieved / tensor-core peak).
    pub flops_efficiency: f64,
}

/// Fig. 11: TW-128 speedup and counters on BERT from 0% to 99% sparsity.
pub fn fig11_scalability(sparsities: &[f64]) -> Vec<Fig11Row> {
    let h = ModelEvaluation::with_divisor(ModelKind::BertBase, FIGURE_SEED, FIGURE_DIVISOR);
    let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
    let dense = h.dense_run(&cfg);
    let dense_totals = dense.totals();
    sparsities
        .iter()
        .map(|&s| {
            let r = h.evaluate(PruningPattern::TileWise { granularity: 128 }, s, &cfg);
            let totals = r.counters.totals();
            Fig11Row {
                sparsity: s,
                speedup: r.gemm_speedup(),
                load_transactions_norm: totals.load_transactions as f64
                    / dense_totals.load_transactions.max(1) as f64,
                store_transactions_norm: totals.store_transactions as f64
                    / dense_totals.store_transactions.max(1) as f64,
                flops_efficiency: r.counters.flops_efficiency(h.planner().cost_model().device()),
            }
        })
        .collect()
}

/// Fig. 12: accuracy of every pattern on every model/task across sparsity
/// levels.  Returns (model, task, points).
pub fn fig12_accuracy_all_models(sparsities: &[f64]) -> Vec<(String, String, Vec<SweepPoint>)> {
    let mut out = Vec::new();
    for kind in [ModelKind::BertBase, ModelKind::Vgg16, ModelKind::Nmt] {
        let h = ModelEvaluation::with_divisor(kind, FIGURE_SEED, FIGURE_DIVISOR);
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let patterns = [
            PruningPattern::ElementWise,
            PruningPattern::TileWise { granularity: 128 },
            PruningPattern::TileElementWise { granularity: 128, delta: 0.05 },
            PruningPattern::VectorWise { vector_size: 16 },
            PruningPattern::BlockWise { block_size: 32 },
        ];
        let mut points = Vec::new();
        for &s in sparsities {
            for &p in &patterns {
                points.push(sweep_point(&h.evaluate(p, s, &cfg)));
            }
        }
        out.push((kind.name().to_string(), h.task().name().to_string(), points));
    }
    out
}

/// Fig. 13: down-sampled sparsity heatmaps of BERT layer-0's query weight
/// matrix under EW, VW, BW and TW at 75% sparsity.  Returns (pattern label,
/// grid) pairs; each grid cell is the local sparsity in `[0, 1]`.
pub fn fig13_heatmaps(grid: usize) -> Vec<(String, Vec<Vec<f64>>)> {
    let model = SyntheticModel::generate(
        Workload::bert_base(8, 128),
        SyntheticModelConfig::default_with_seed(FIGURE_SEED),
    );
    let scores = model.layers().importance(ImportanceMethod::Taylor);
    let target = SparsityTarget::new(0.75);
    let d = FIGURE_DIVISOR;

    let ew_masks = ew::prune_global(&scores, target);
    let vw_masks = tw_pruning::vw::prune_all(&scores, (16 / d).max(2), target);
    let bw_masks = tw_pruning::bw::prune_global(&scores, (32 / d).max(2), target);
    let tw_masks = tw_pruning::tw::prune_global(
        &scores,
        &tw_pruning::TileWiseConfig::with_granularity((128 / d).max(2)),
        target,
        None,
    );

    // Layer 0's query projection is weight matrix index 0.
    vec![
        ("ew".to_string(), analysis::sparsity_heatmap(&ew_masks[0], grid)),
        ("vw16".to_string(), analysis::sparsity_heatmap(&vw_masks[0], grid)),
        ("bw32".to_string(), analysis::sparsity_heatmap(&bw_masks[0], grid)),
        ("tw128".to_string(), analysis::sparsity_heatmap(&tw_masks[0].to_pattern_mask(), grid)),
    ]
}

/// One point of the Fig. 14 Pareto plot.
#[derive(Clone, Debug)]
pub struct Fig14Row {
    /// Model name.
    pub model: String,
    /// Which execution unit the speedup is measured on.
    pub core: &'static str,
    /// Pattern label.
    pub pattern: String,
    /// Target sparsity of this point.
    pub sparsity: f64,
    /// Task metric.
    pub metric: f64,
    /// GEMM latency speedup over the dense baseline on the same unit.
    pub speedup: f64,
}

/// Fig. 14: the latency-accuracy trade-off of TW versus BW on tensor cores
/// and versus EW/VW on CUDA cores, for BERT, VGG and NMT.
pub fn fig14_pareto(sparsities: &[f64]) -> Vec<Fig14Row> {
    let mut rows = Vec::new();
    for kind in [ModelKind::BertBase, ModelKind::Vgg16, ModelKind::Nmt] {
        let h = ModelEvaluation::with_divisor(kind, FIGURE_SEED, FIGURE_DIVISOR);
        let tensor = ExecutionConfig::optimized(CoreKind::TensorCore);
        let cuda = ExecutionConfig::optimized(CoreKind::CudaCore);
        for &s in sparsities {
            for (pattern, cfg, core) in [
                (PruningPattern::TileWise { granularity: 128 }, &tensor, "tensor"),
                (PruningPattern::BlockWise { block_size: 32 }, &tensor, "tensor"),
                (PruningPattern::TileWise { granularity: 128 }, &cuda, "cuda"),
                (PruningPattern::ElementWise, &cuda, "cuda"),
                (PruningPattern::VectorWise { vector_size: 16 }, &cuda, "cuda"),
            ] {
                let r = h.evaluate(pattern, s, cfg);
                rows.push(Fig14Row {
                    model: kind.name().to_string(),
                    core,
                    pattern: pattern.label(),
                    sparsity: s,
                    metric: r.metric,
                    speedup: r.gemm_speedup(),
                });
            }
        }
    }
    rows
}

/// One bar of Fig. 15: the end-to-end latency breakdown of one optimisation
/// configuration.
#[derive(Clone, Debug)]
pub struct Fig15Row {
    /// Model name.
    pub model: String,
    /// Configuration label.
    pub config: &'static str,
    /// Time in GEMM kernels (ms).
    pub gemm_ms: f64,
    /// Time in transpose kernels (ms).
    pub transpose_ms: f64,
    /// Time in all other kernels (ms).
    pub others_ms: f64,
}

/// Fig. 15: end-to-end latency breakdown of the 75%-sparsity TW model under
/// (dense baseline, no transpose, transpose only, transpose + fusion) for
/// BERT and NMT.
pub fn fig15_breakdown() -> Vec<Fig15Row> {
    let mut rows = Vec::new();
    for kind in [ModelKind::BertBase, ModelKind::Nmt] {
        let h = ModelEvaluation::with_divisor(kind, FIGURE_SEED, FIGURE_DIVISOR);
        let pattern = PruningPattern::TileWise { granularity: 128 };
        let dense_cfg = ExecutionConfig {
            fuse_non_gemm: true,
            ..ExecutionConfig::optimized(CoreKind::TensorCore)
        };
        let dense = h.dense_run(&dense_cfg);

        let configs: [(&'static str, ExecutionConfig); 3] = [
            (
                "w/o transpose",
                ExecutionConfig {
                    transpose: TransposeStrategy::None,
                    fuse_non_gemm: false,
                    ..ExecutionConfig::optimized(CoreKind::TensorCore)
                },
            ),
            (
                "transpose only",
                ExecutionConfig {
                    transpose: TransposeStrategy::PerGemm,
                    fuse_non_gemm: false,
                    ..ExecutionConfig::optimized(CoreKind::TensorCore)
                },
            ),
            ("transpose & fusion", ExecutionConfig::optimized(CoreKind::TensorCore)),
        ];

        rows.push(Fig15Row {
            model: kind.name().to_string(),
            config: "dense",
            gemm_ms: ExecutionPlanner::gemm_time(&dense) * 1e3,
            transpose_ms: ExecutionPlanner::transpose_time(&dense) * 1e3,
            others_ms: ExecutionPlanner::other_time(&dense) * 1e3,
        });
        for (label, cfg) in configs {
            let r = h.evaluate(pattern, 0.75, &cfg);
            rows.push(Fig15Row {
                model: kind.name().to_string(),
                config: label,
                gemm_ms: ExecutionPlanner::gemm_time(&r.counters) * 1e3,
                transpose_ms: ExecutionPlanner::transpose_time(&r.counters) * 1e3,
                others_ms: ExecutionPlanner::other_time(&r.counters) * 1e3,
            });
        }
    }
    rows
}

/// The headline comparison: GEMM speedup of every pattern at the
/// iso-accuracy sparsity the paper uses (BERT < 3% drop, VGG < 1% drop,
/// NMT < 1 BLEU drop), averaged over the three models.
#[derive(Clone, Debug)]
pub struct HeadlineRow {
    /// Pattern label.
    pub pattern: String,
    /// Average GEMM speedup on tensor cores.
    pub tensor_speedup: f64,
    /// Average GEMM speedup on CUDA cores.
    pub cuda_speedup: f64,
}

/// Reproduces the headline claim: "TW achieves an average speedup of 1.95x
/// [on tensor cores] ... 2.86x [on CUDA cores] while other patterns cause an
/// actual slowdown".
pub fn headline_speedups() -> Vec<HeadlineRow> {
    let patterns = [
        PruningPattern::TileWise { granularity: 128 },
        PruningPattern::BlockWise { block_size: 32 },
        PruningPattern::ElementWise,
        PruningPattern::VectorWise { vector_size: 16 },
    ];
    // Iso-accuracy sparsities per (model, pattern): EW can be pruned harder
    // than the structured patterns at the same accuracy budget.
    let sparsity_for = |pattern: &PruningPattern, kind: ModelKind| -> f64 {
        let base: f64 = match kind {
            ModelKind::Nmt => 0.65,
            _ => 0.75,
        };
        match pattern {
            PruningPattern::ElementWise => (base + 0.10).min(0.9),
            PruningPattern::VectorWise { .. } => base,
            PruningPattern::BlockWise { .. } => (base - 0.10).max(0.3),
            _ => base,
        }
    };

    let mut rows = Vec::new();
    for pattern in patterns {
        let mut tensor_speedups = Vec::new();
        let mut cuda_speedups = Vec::new();
        for kind in [ModelKind::BertBase, ModelKind::Vgg16, ModelKind::Nmt] {
            let h = ModelEvaluation::with_divisor(kind, FIGURE_SEED, FIGURE_DIVISOR);
            let s = sparsity_for(&pattern, kind);
            let rt = h.evaluate(pattern, s, &ExecutionConfig::optimized(CoreKind::TensorCore));
            let rc = h.evaluate(pattern, s, &ExecutionConfig::optimized(CoreKind::CudaCore));
            tensor_speedups.push(rt.gemm_speedup());
            cuda_speedups.push(rc.gemm_speedup());
        }
        rows.push(HeadlineRow {
            pattern: pattern.label(),
            tensor_speedup: mean(&tensor_speedups),
            cuda_speedup: mean(&cuda_speedups),
        });
    }
    rows
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig05_has_72_uneven_values() {
        let per = fig05_per_layer_sparsity();
        assert_eq!(per.len(), 72);
        let min = per.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = per.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.15, "per-layer sparsity should be uneven: {min}..{max}");
        let mean = per.iter().sum::<f64>() / 72.0;
        assert!((mean - 0.75).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn fig06_tw_row_vector_dominates_large_blocks() {
        let series = fig06_zero_cdf();
        assert_eq!(series.len(), 3);
        let get = |label: &str| {
            series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"))
        };
        // Fraction of units that are fully zero = 1 - CDF just below 1.0.
        let fully_zero = |s: &Fig6Series| 1.0 - s.points[19].1;
        let tw = fully_zero(get("tw-g64"));
        let bw32 = fully_zero(get("bw32x32"));
        assert!(
            tw >= bw32,
            "TW row vectors ({tw}) should capture at least as many fully-zero units as 32x32 blocks ({bw32})"
        );
        // Every series is a valid CDF ending at 1.
        for s in &series {
            assert!((s.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig13_heatmaps_have_requested_grid_and_target_mean() {
        let maps = fig13_heatmaps(8);
        assert_eq!(maps.len(), 4);
        for (label, grid) in &maps {
            assert_eq!(grid.len(), 8, "{label}");
            let mean: f64 =
                grid.iter().flatten().sum::<f64>() / (grid.len() * grid[0].len()) as f64;
            // VW enforces exactly 75% everywhere; the global patterns vary
            // per matrix, so allow a wide band around the global target.
            assert!((0.3..=1.0).contains(&mean), "{label}: mean cell sparsity {mean}");
        }
    }
}
