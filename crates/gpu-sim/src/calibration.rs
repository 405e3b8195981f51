//! Calibration constants of the cost model.
//!
//! Each constant captures one empirical efficiency ratio of the real
//! software stack on the V100.  They are collected in one struct so that
//! ablation benches can perturb them and so their provenance is documented
//! in a single place.

/// Efficiency/overhead constants used by [`crate::CostModel`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Fraction of tensor-core peak a well-tuned library dense GEMM
    /// (cuBLAS/cuDNN) achieves on large DNN shapes.
    pub dense_tensor_efficiency: f64,
    /// Fraction of CUDA-core peak a library dense GEMM achieves.
    pub dense_cuda_efficiency: f64,
    /// Efficiency of the CUTLASS-based masked/batched TW GEMM kernel
    /// relative to the library dense GEMM on the same unit.  The paper
    /// measures ~35% slowdown at zero sparsity ("the extra load traffic
    /// leads to about 35% performance loss"), i.e. a ratio of ~0.74.
    pub masked_gemm_efficiency_ratio: f64,
    /// Effective fraction of CUDA-core dense-GEMM efficiency that cuSparse
    /// CSR SpMM achieves, accounting for its irregular gather/scatter.
    /// Chosen so that unstructured sparse models only win beyond ~95%
    /// sparsity, as reported by prior work cited in Sec. II-B.
    pub csr_spmm_efficiency_ratio: f64,
    /// Effective fraction of tensor-core dense-GEMM efficiency that the
    /// BlockSparse BSR kernel achieves (per surviving block), reproducing
    /// the ~3x slowdown vs dense at ~50% block sparsity in Fig. 3.
    pub bsr_gemm_efficiency_ratio: f64,
    /// Multiplier on memory transactions when accesses are uncoalesced
    /// (the "w/o transpose" configuration of Fig. 15).
    pub uncoalesced_factor: f64,
    /// Multiplier on load transactions caused by the int32 row/column masks
    /// of the TW kernel ("twice of global memory request owing to the
    /// masking overhead").
    pub mask_load_factor: f64,
    /// Fraction of the per-kernel launch overhead that batching amortises
    /// away (one launch for the whole batch instead of one per tile).
    pub batching_launch_saving: f64,
    /// Strength of the load-imbalance penalty: the compute time of a batched
    /// TW GEMM is inflated by `1 + strength * (max_tile/mean_tile - 1)` when
    /// streams are disabled; streams recover most of it.
    pub imbalance_penalty_strength: f64,
    /// Residual imbalance penalty strength when stream concurrency is on.
    pub imbalance_penalty_with_streams: f64,
    /// Throughput efficiency of simple element-wise kernels (add-bias,
    /// activation) relative to DRAM bandwidth.
    pub elementwise_bandwidth_efficiency: f64,
}

impl Calibration {
    /// Default calibration targeting the paper's V100 + CUDA 10.1 stack.
    pub fn v100_defaults() -> Self {
        Self {
            dense_tensor_efficiency: 0.55,
            dense_cuda_efficiency: 0.75,
            masked_gemm_efficiency_ratio: 0.74,
            csr_spmm_efficiency_ratio: 0.10,
            bsr_gemm_efficiency_ratio: 0.10,
            uncoalesced_factor: 4.0,
            mask_load_factor: 2.0,
            batching_launch_saving: 0.95,
            imbalance_penalty_strength: 0.6,
            imbalance_penalty_with_streams: 0.12,
            elementwise_bandwidth_efficiency: 0.7,
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::v100_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Calibration::default();
        assert!(c.dense_tensor_efficiency > 0.0 && c.dense_tensor_efficiency <= 1.0);
        assert!(c.dense_cuda_efficiency > 0.0 && c.dense_cuda_efficiency <= 1.0);
        assert!(c.masked_gemm_efficiency_ratio > 0.0 && c.masked_gemm_efficiency_ratio <= 1.0);
        assert!(c.csr_spmm_efficiency_ratio < c.masked_gemm_efficiency_ratio);
        assert!(c.bsr_gemm_efficiency_ratio < c.masked_gemm_efficiency_ratio);
        assert!(c.uncoalesced_factor >= 1.0);
        assert!(c.mask_load_factor >= 1.0);
        assert!((0.0..=1.0).contains(&c.batching_launch_saving));
        assert!(c.imbalance_penalty_with_streams < c.imbalance_penalty_strength);
    }
}
