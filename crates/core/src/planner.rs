//! GPU execution planner (Sec. VI).
//!
//! Given a model workload and the execution form of every prunable weight
//! matrix (dense, CSR, BSR, tile-wise or TEW), the planner emits the kernel
//! sequence of one forward pass — GEMMs, transposes and (optionally fused)
//! non-GEMM chains — and prices it with the `tw-gpu-sim` cost model.  All
//! latency figures of the paper (Figs. 3, 9b, 10b, 11, 14, 15) are produced
//! through this planner.

use tw_gpu_sim::{CostModel, KernelProfile, RunCounters, TwTileShape};
pub use tw_gpu_sim::{ExecutionConfig, TransposeStrategy};
use tw_models::Workload;
use tw_tensor::GemmShape;

/// How one prunable weight GEMM is executed.
#[derive(Clone, Debug, PartialEq)]
pub enum WeightExecution {
    /// Unpruned dense GEMM (cuBLAS baseline).
    Dense,
    /// cuSparse CSR SpMM (EW / VW baselines) at the given element sparsity.
    Csr {
        /// Element sparsity of this weight matrix.
        sparsity: f64,
    },
    /// BlockSparse BSR GEMM (BW baseline).
    Bsr {
        /// Block edge length.
        block_size: usize,
        /// Fraction of blocks pruned.
        block_sparsity: f64,
    },
    /// The paper's tile-wise masked/batched GEMM.
    TileWise {
        /// Surviving shape of each tile.
        tiles: Vec<TwTileShape>,
    },
    /// TEW: tile-wise plus an element-wise overlay executed on CUDA cores.
    Tew {
        /// Surviving shape of each tile.
        tiles: Vec<TwTileShape>,
        /// Non-zeros in the element-wise overlay.
        overlay_nnz: u64,
    },
}

/// The execution planner.
#[derive(Clone, Debug)]
pub struct ExecutionPlanner {
    cost: CostModel,
}

impl ExecutionPlanner {
    /// A planner backed by the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Self { cost }
    }

    /// A planner for the default V100 model.
    pub fn v100() -> Self {
        Self::new(CostModel::v100())
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Plans a forward pass in which every prunable weight stays dense.
    pub fn plan_dense(&self, workload: &Workload, cfg: &ExecutionConfig) -> RunCounters {
        let execs = vec![WeightExecution::Dense; workload.prunable.len()];
        self.plan_model(workload, &execs, cfg)
    }

    /// Plans a forward pass with the given execution form per prunable
    /// weight matrix.
    ///
    /// # Panics
    /// Panics if `weight_exec.len()` differs from the number of prunable
    /// GEMMs in the workload.
    pub fn plan_model(
        &self,
        workload: &Workload,
        weight_exec: &[WeightExecution],
        cfg: &ExecutionConfig,
    ) -> RunCounters {
        assert_eq!(
            weight_exec.len(),
            workload.prunable.len(),
            "one WeightExecution per prunable GEMM"
        );
        let mut run = RunCounters::new();
        let prec = cfg.precision();

        let uses_tw = weight_exec
            .iter()
            .any(|e| matches!(e, WeightExecution::TileWise { .. } | WeightExecution::Tew { .. }));

        // Boundary transposes: one at the model entry and one at the exit.
        if uses_tw && cfg.transpose == TransposeStrategy::Boundary {
            if let Some(first) = workload.prunable.first() {
                run.push(self.cost.transpose(first.m, first.k, prec));
            }
            if let Some(last) = workload.prunable.last() {
                run.push(self.cost.transpose(last.m, last.n, prec));
            }
        }

        for (gemm, exec) in workload.prunable.iter().zip(weight_exec) {
            let shape = GemmShape::new(gemm.m, gemm.n, gemm.k);
            let needs_layout =
                matches!(exec, WeightExecution::TileWise { .. } | WeightExecution::Tew { .. });
            if needs_layout && cfg.transpose == TransposeStrategy::PerGemm {
                run.push(self.cost.transpose(gemm.m, gemm.k, prec));
            }
            match exec {
                WeightExecution::Dense => {
                    run.push(self.cost.dense_gemm(shape, cfg.core, prec));
                }
                WeightExecution::Csr { sparsity } => {
                    run.push(self.cost.csr_spmm(shape, *sparsity));
                }
                WeightExecution::Bsr { block_size, block_sparsity } => {
                    run.push(self.cost.bsr_gemm(shape, *block_size, *block_sparsity));
                }
                WeightExecution::TileWise { tiles } => {
                    run.push(self.cost.tw_gemm(gemm.m, gemm.k, gemm.n, tiles, cfg));
                }
                WeightExecution::Tew { tiles, overlay_nnz } => {
                    run.push(self.cost.tw_gemm(gemm.m, gemm.k, gemm.n, tiles, cfg));
                    run.push(self.cost.csc_overlay_spmm(gemm.m, *overlay_nnz));
                }
            }
            if needs_layout && cfg.transpose == TransposeStrategy::PerGemm {
                run.push(self.cost.transpose(gemm.m, gemm.n, prec));
            }
        }

        // Activation-activation GEMMs (attention scores/contexts) are always
        // dense on the selected unit.
        for fixed in &workload.fixed_gemms {
            let shape = GemmShape::new(fixed.m, fixed.n, fixed.k);
            run.push(self.cost.dense_gemm(shape, cfg.core, prec));
        }

        // Non-GEMM chains.
        for aux in &workload.aux_ops {
            run.push(self.cost.elementwise_chain(
                &aux.name,
                aux.chain_len,
                aux.elements,
                prec,
                cfg.fuse_non_gemm,
            ));
        }
        run
    }

    /// Prices one isolated weight GEMM of shape `(m, k) x (k, n)` executed
    /// with `exec` — the quantity the per-layer [`crate::AutoPlanner`]
    /// compares across kernel families.  Boundary transposes are charged to
    /// tile-wise layers exactly as [`Self::plan_model`] would charge them,
    /// so the comparison stays conservative about TW's layout overhead.
    pub fn plan_layer(
        &self,
        m: usize,
        k: usize,
        n: usize,
        exec: &WeightExecution,
        cfg: &ExecutionConfig,
    ) -> RunCounters {
        let workload = Workload {
            kind: tw_models::ModelKind::Mlp,
            name: format!("layer ({m}x{k}x{n})"),
            prunable: vec![tw_models::PrunableGemm { name: "layer".to_string(), m, k, n }],
            fixed_gemms: Vec::new(),
            aux_ops: Vec::new(),
        };
        self.plan_model(&workload, std::slice::from_ref(exec), cfg)
    }

    /// Total time spent in GEMM-like kernels (dense GEMM, SpMM, BSR, TW) of
    /// a planned run — the "GEMM" bar of Fig. 15.
    pub fn gemm_time(run: &RunCounters) -> f64 {
        run.kernels().iter().filter(|k| is_gemm_kernel(k)).map(|k| k.time_s).sum()
    }

    /// Total time spent in transpose kernels.
    pub fn transpose_time(run: &RunCounters) -> f64 {
        run.time_matching("transpose")
    }

    /// Total time spent in everything else (the "Others" bar of Fig. 15).
    pub fn other_time(run: &RunCounters) -> f64 {
        run.total_time() - Self::gemm_time(run) - Self::transpose_time(run)
    }
}

fn is_gemm_kernel(k: &KernelProfile) -> bool {
    k.name.contains("gemm") || k.name.contains("spmm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_gpu_sim::cost::uniform_tiles;
    use tw_gpu_sim::CoreKind;
    use tw_models::Workload;

    fn bert() -> Workload {
        Workload::bert_base(8, 128)
    }

    fn tw_execs(workload: &Workload, sparsity: f64, g: usize) -> Vec<WeightExecution> {
        workload
            .prunable
            .iter()
            .map(|p| WeightExecution::TileWise { tiles: uniform_tiles(p.k, p.n, g, sparsity) })
            .collect()
    }

    #[test]
    fn dense_plan_covers_all_ops() {
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let run = planner.plan_dense(&w, &ExecutionConfig::optimized(CoreKind::TensorCore));
        // 72 prunable GEMMs + 24 attention GEMMs + 48 aux chains.
        assert_eq!(run.kernel_count(), 72 + 24 + 48);
        assert!(run.total_time() > 0.0);
    }

    #[test]
    fn non_gemm_share_of_dense_bert_is_plausible() {
        // The paper: ~39% non-GEMM time unfused, ~29% with fusion.
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let unfused = planner.plan_dense(
            &w,
            &ExecutionConfig {
                fuse_non_gemm: false,
                ..ExecutionConfig::optimized(CoreKind::TensorCore)
            },
        );
        let fused = planner.plan_dense(&w, &ExecutionConfig::optimized(CoreKind::TensorCore));
        let share_unfused = ExecutionPlanner::other_time(&unfused) / unfused.total_time();
        let share_fused = ExecutionPlanner::other_time(&fused) / fused.total_time();
        assert!((0.2..=0.55).contains(&share_unfused), "unfused non-GEMM share {share_unfused}");
        assert!(share_fused < share_unfused, "fusion must reduce the non-GEMM share");
    }

    #[test]
    fn tw_plan_is_faster_than_dense_at_75_percent() {
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let dense = planner.plan_dense(&w, &cfg);
        let tw = planner.plan_model(&w, &tw_execs(&w, 0.75, 128), &cfg);
        let gemm_speedup = ExecutionPlanner::gemm_time(&dense) / ExecutionPlanner::gemm_time(&tw);
        let e2e_speedup = dense.total_time() / tw.total_time();
        assert!(gemm_speedup > 1.5, "GEMM speedup {gemm_speedup}");
        assert!(e2e_speedup > 1.2, "end-to-end speedup {e2e_speedup}");
        assert!(
            e2e_speedup < gemm_speedup,
            "Amdahl: end-to-end speedup must trail the GEMM-only speedup"
        );
    }

    #[test]
    fn csr_and_bsr_plans_are_slower_than_dense() {
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let dense_t = planner.plan_dense(&w, &cfg);
        let csr: Vec<WeightExecution> =
            w.prunable.iter().map(|_| WeightExecution::Csr { sparsity: 0.75 }).collect();
        let bsr: Vec<WeightExecution> = w
            .prunable
            .iter()
            .map(|_| WeightExecution::Bsr { block_size: 32, block_sparsity: 0.75 })
            .collect();
        let cfg_cuda = ExecutionConfig::optimized(CoreKind::CudaCore);
        let dense_c = planner.plan_dense(&w, &cfg_cuda);
        let csr_run = planner.plan_model(&w, &csr, &cfg_cuda);
        let bsr_run = planner.plan_model(&w, &bsr, &cfg);
        assert!(
            ExecutionPlanner::gemm_time(&csr_run) > ExecutionPlanner::gemm_time(&dense_c),
            "cuSparse EW should lose to dense on CUDA cores"
        );
        assert!(
            ExecutionPlanner::gemm_time(&bsr_run) > ExecutionPlanner::gemm_time(&dense_t),
            "BlockSparse BW should lose to dense on tensor cores"
        );
    }

    #[test]
    fn transpose_strategies_order_correctly() {
        // Fig. 15: w/o transpose is the slowest GEMM; per-GEMM transpose
        // adds ~10% overhead kernels; boundary transpose + fusion is best.
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let execs = tw_execs(&w, 0.75, 128);
        let base = ExecutionConfig::optimized(CoreKind::TensorCore);
        let none = planner.plan_model(
            &w,
            &execs,
            &ExecutionConfig { transpose: TransposeStrategy::None, ..base },
        );
        let per_gemm = planner.plan_model(
            &w,
            &execs,
            &ExecutionConfig { transpose: TransposeStrategy::PerGemm, ..base },
        );
        let boundary = planner.plan_model(&w, &execs, &base);
        assert!(
            ExecutionPlanner::gemm_time(&none) > ExecutionPlanner::gemm_time(&boundary),
            "uncoalesced GEMM must be slower"
        );
        assert!(
            ExecutionPlanner::transpose_time(&per_gemm)
                > ExecutionPlanner::transpose_time(&boundary),
            "per-GEMM transposes must cost more than boundary transposes"
        );
        assert!(boundary.total_time() < per_gemm.total_time());
        assert!(boundary.total_time() < none.total_time());
        // Boundary adds exactly two transpose kernels.
        let transposes = boundary.kernels().iter().filter(|k| k.name.contains("transpose")).count();
        assert_eq!(transposes, 2);
    }

    #[test]
    fn tew_plan_adds_overlay_kernels() {
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let cfg = ExecutionConfig::optimized(CoreKind::TensorCore);
        let execs: Vec<WeightExecution> = w
            .prunable
            .iter()
            .map(|p| WeightExecution::Tew {
                tiles: uniform_tiles(p.k, p.n, 128, 0.80),
                overlay_nnz: (0.05 * (p.k * p.n) as f64) as u64,
            })
            .collect();
        let tew_run = planner.plan_model(&w, &execs, &cfg);
        let overlays = tew_run.kernels().iter().filter(|k| k.name.contains("overlay")).count();
        assert_eq!(overlays, 72);
        // The overlay erases most of the tensor-core advantage (Fig. 10b).
        let tw_run = planner.plan_model(&w, &tw_execs(&w, 0.80, 128), &cfg);
        assert!(tew_run.total_time() > tw_run.total_time());
    }

    #[test]
    #[should_panic(expected = "one WeightExecution per prunable GEMM")]
    fn wrong_exec_count_panics() {
        let w = bert();
        let planner = ExecutionPlanner::v100();
        let _ = planner.plan_model(
            &w,
            &[WeightExecution::Dense],
            &ExecutionConfig::optimized(CoreKind::TensorCore),
        );
    }
}
