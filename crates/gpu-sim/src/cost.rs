//! The kernel cost model.
//!
//! Each method prices one kernel type and returns a [`KernelProfile`]
//! containing both the estimated latency and the performance counters the
//! paper reports (Fig. 11).  The latency of a kernel is
//!
//! ```text
//! time = max(compute_time, memory_time) + launch_overhead
//! ```
//!
//! with compute throughput derated by library efficiency, occupancy
//! (tile/wave quantisation) and — for the tile-wise kernel — masking and
//! load-imbalance penalties.

use crate::calibration::Calibration;
use crate::counters::{KernelCounters, KernelProfile};
use crate::device::{CoreKind, GpuDevice, Precision};
use crate::occupancy::{gemm_occupancy_efficiency, imbalance_ratio};
use crate::stream::StreamSim;
use tw_tensor::GemmShape;

/// The shape of one surviving weight tile of a TW-pruned matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TwTileShape {
    /// Rows of the tile that survived row pruning (reduced K).
    pub kept_rows: usize,
    /// Columns of the tile that survived column pruning (reduced N, <= G).
    pub kept_cols: usize,
}

/// Where transpose kernels are inserted to keep the TW kernel's accesses
/// coalesced (Fig. 7 ② and the Fig. 15 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransposeStrategy {
    /// No layout change: the TW kernel pays the uncoalesced-access penalty.
    None,
    /// Transpose activations around every pruned GEMM (the unoptimised
    /// "Transpose Only" configuration).
    PerGemm,
    /// Transpose only at the model boundary; intermediate non-GEMM kernels
    /// are rewritten to consume the transposed layout (the paper's final
    /// configuration: "we only need to transpose matrix A in the first layer
    /// and transpose matrix C after the last layer").
    Boundary,
}

/// How one forward pass is executed — the optimisations of Sec. VI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionConfig {
    /// Execution unit for the GEMMs.
    pub core: CoreKind,
    /// Fuse consecutive non-GEMM kernels (Sec. VI "Kernel Fusion").
    pub fuse_non_gemm: bool,
    /// Transpose placement for the TW layout optimisation; any placement
    /// but [`TransposeStrategy::None`] keeps pruned-row skipping coalesced.
    pub transpose: TransposeStrategy,
    /// Batch all tile GEMMs into one kernel (Fig. 7 ③).
    pub tw_batching: bool,
    /// Spread residual work across concurrent streams (Fig. 7 ④).
    pub tw_streams: bool,
}

impl ExecutionConfig {
    /// The fully optimised configuration on the chosen unit (what the
    /// headline numbers use).
    pub fn optimized(core: CoreKind) -> Self {
        Self {
            core,
            fuse_non_gemm: true,
            transpose: TransposeStrategy::Boundary,
            tw_batching: true,
            tw_streams: true,
        }
    }

    /// The naive configuration: no transpose, no fusion, no batching, no
    /// streams.
    pub fn naive(core: CoreKind) -> Self {
        Self {
            core,
            fuse_non_gemm: false,
            transpose: TransposeStrategy::None,
            tw_batching: false,
            tw_streams: false,
        }
    }

    /// The operand precision of the chosen unit (FP16 on tensor cores,
    /// FP32 on CUDA cores).
    pub fn precision(&self) -> Precision {
        match self.core {
            CoreKind::TensorCore => Precision::Fp16,
            CoreKind::CudaCore => Precision::Fp32,
        }
    }
}

/// The analytical cost model for one GPU device.
#[derive(Clone, Debug)]
pub struct CostModel {
    device: GpuDevice,
    cal: Calibration,
}

impl CostModel {
    /// Creates a cost model for the given device and calibration constants.
    pub fn new(device: GpuDevice, cal: Calibration) -> Self {
        Self { device, cal }
    }

    /// The default model: a V100 with the paper-derived calibration.
    pub fn v100() -> Self {
        Self::new(GpuDevice::v100(), Calibration::v100_defaults())
    }

    /// The device being modelled.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Output tile dimensions the GEMM kernels use on each unit (CUTLASS
    /// thread-block tiles).
    fn gemm_tile_dims(&self, core: CoreKind) -> (usize, usize) {
        match core {
            CoreKind::TensorCore => (128, 128),
            CoreKind::CudaCore => (64, 64),
        }
    }

    fn dense_efficiency(&self, core: CoreKind) -> f64 {
        match core {
            CoreKind::TensorCore => self.cal.dense_tensor_efficiency,
            CoreKind::CudaCore => self.cal.dense_cuda_efficiency,
        }
    }

    fn peak(&self, core: CoreKind) -> f64 {
        self.device.peak_flops(core)
    }

    fn mem_time(&self, bytes: f64) -> f64 {
        bytes / self.device.memory_bandwidth
    }

    /// Prices a dense GEMM `C(MxN) = A(MxK) * B(KxN)` (the cuBLAS/cuDNN
    /// baseline).
    pub fn dense_gemm(&self, shape: GemmShape, core: CoreKind, prec: Precision) -> KernelProfile {
        let (tile_m, tile_n) = self.gemm_tile_dims(core);
        let occ = gemm_occupancy_efficiency(shape.m, shape.n, tile_m, tile_n, self.device.num_sms);
        let eff = self.dense_efficiency(core) * occ.max(0.05);
        let flops = shape.flops();
        let compute = flops as f64 / (self.peak(core) * eff);

        let esize = prec.bytes() as u64;
        let load_bytes = ((shape.m * shape.k + shape.k * shape.n) as u64) * esize;
        let store_bytes = (shape.m * shape.n) as u64 * esize;
        let memory = self.mem_time((load_bytes + store_bytes) as f64);

        let time = compute.max(memory) + self.device.kernel_launch_overhead;
        KernelProfile {
            name: "dense_gemm".to_string(),
            core,
            counters: KernelCounters {
                flops,
                load_bytes,
                store_bytes,
                load_transactions: self.device.coalesced_transactions(load_bytes),
                store_transactions: self.device.coalesced_transactions(store_bytes),
            },
            time_s: time,
        }
    }

    /// Prices a cuSparse-style CSR SpMM on the CUDA cores: `A (dense MxK)`
    /// times a CSR weight matrix of the given element sparsity.
    pub fn csr_spmm(&self, shape: GemmShape, sparsity: f64) -> KernelProfile {
        let sparsity = sparsity.clamp(0.0, 1.0);
        let core = CoreKind::CudaCore;
        let useful_flops = (shape.flops() as f64 * (1.0 - sparsity)).round() as u64;
        let eff = self.dense_efficiency(core) * self.cal.csr_spmm_efficiency_ratio;
        let compute = useful_flops as f64 / (self.peak(core) * eff);

        let esize = Precision::Fp32.bytes() as u64;
        let nnz = ((shape.k * shape.n) as f64 * (1.0 - sparsity)) as u64;
        // A is re-streamed with poor locality; values carry a 4-byte column
        // index each; the output is scatter-accumulated.
        let load_bytes = (shape.m * shape.k) as u64 * esize + nnz * (esize + 4);
        let store_bytes = (shape.m * shape.n) as u64 * esize;
        let uncoalesced = self.cal.uncoalesced_factor;
        let memory = self.mem_time(load_bytes as f64 * uncoalesced + store_bytes as f64);

        let time = compute.max(memory) + self.device.kernel_launch_overhead;
        KernelProfile {
            name: "csr_spmm".to_string(),
            core,
            counters: KernelCounters {
                flops: useful_flops,
                load_bytes,
                store_bytes,
                load_transactions: (self.device.coalesced_transactions(load_bytes) as f64
                    * uncoalesced) as u64,
                store_transactions: self.device.coalesced_transactions(store_bytes),
            },
            time_s: time,
        }
    }

    /// Prices a BlockSparse-style BSR GEMM on the tensor cores with square
    /// blocks of `block_size` and the given *block-level* sparsity.
    pub fn bsr_gemm(
        &self,
        shape: GemmShape,
        block_size: usize,
        block_sparsity: f64,
    ) -> KernelProfile {
        assert!(block_size > 0, "block size must be positive");
        let block_sparsity = block_sparsity.clamp(0.0, 1.0);
        let core = CoreKind::TensorCore;
        let useful_flops = (shape.flops() as f64 * (1.0 - block_sparsity)).round() as u64;
        // Small blocks under-utilise the tensor-core pipelines; the paper
        // notes 32x32 is the minimum for reasonable performance.
        let block_eff = (block_size as f64 / 64.0).min(1.0).sqrt();
        let eff = self.dense_efficiency(core) * self.cal.bsr_gemm_efficiency_ratio * block_eff;
        let compute = useful_flops as f64 / (self.peak(core) * eff.max(1e-3));

        let esize = Precision::Fp16.bytes() as u64;
        let kept_weight_bytes =
            ((shape.k * shape.n) as f64 * (1.0 - block_sparsity)) as u64 * esize;
        let load_bytes = (shape.m * shape.k) as u64 * esize + kept_weight_bytes;
        let store_bytes = (shape.m * shape.n) as u64 * esize;
        let memory = self.mem_time((load_bytes + store_bytes) as f64);

        let time = compute.max(memory) + self.device.kernel_launch_overhead;
        KernelProfile {
            name: format!("bsr_gemm_{block_size}"),
            core,
            counters: KernelCounters {
                flops: useful_flops,
                load_bytes,
                store_bytes,
                load_transactions: self.device.coalesced_transactions(load_bytes),
                store_transactions: self.device.coalesced_transactions(store_bytes),
            },
            time_s: time,
        }
    }

    /// Prices the tile-wise masked/batched GEMM of Sec. VI.
    ///
    /// * `m` — rows of the activation matrix `A`.
    /// * `k`, `n` — the *original* weight dimensions (before pruning).
    /// * `tiles` — surviving shape of every weight tile.
    /// * `cfg` — which of the Sec. VI optimisations are enabled.
    pub fn tw_gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        tiles: &[TwTileShape],
        cfg: &ExecutionConfig,
    ) -> KernelProfile {
        let core = cfg.core;
        let coalesced = cfg.transpose != TransposeStrategy::None;
        let esize = cfg.precision().bytes() as u64;
        let (tile_m, tile_n_max) = self.gemm_tile_dims(core);

        let flops: u64 = tiles.iter().map(|t| 2 * (m * t.kept_rows * t.kept_cols) as u64).sum();
        let total_kept_cols: usize = tiles.iter().map(|t| t.kept_cols).sum();
        let num_tiles = tiles.len().max(1);

        // Memory traffic.  Activation columns matching pruned B rows are
        // skipped; re-reads of A across tiles in a batch hit in cache, so A
        // is charged once at the average surviving-K width.  Weights are
        // pre-compacted offline; outputs cover only surviving columns; the
        // int32 masks add a small amount of traffic but double the *request*
        // count (the paper's measured masking overhead).
        let avg_kept_rows: u64 =
            tiles.iter().map(|t| t.kept_rows as u64).sum::<u64>() / num_tiles as u64;
        let a_bytes: u64 = m as u64 * avg_kept_rows * esize;
        let b_bytes: u64 = tiles.iter().map(|t| (t.kept_rows * t.kept_cols) as u64 * esize).sum();
        let c_bytes = (m * total_kept_cols) as u64 * esize;
        let mask_bytes = tiles.len() as u64 * 4 * (k + n.div_ceil(num_tiles)) as u64;

        let layout_factor = if coalesced { 1.0 } else { self.cal.uncoalesced_factor };
        let load_bytes = a_bytes + b_bytes + mask_bytes;
        let store_bytes = c_bytes;
        let load_transactions = (self.device.coalesced_transactions(load_bytes) as f64
            * self.cal.mask_load_factor
            * layout_factor) as u64;
        let store_transactions =
            (self.device.coalesced_transactions(store_bytes) as f64 * layout_factor) as u64;
        let memory = self.mem_time(
            (load_transactions + store_transactions) as f64
                * self.device.memory_transaction_bytes as f64,
        );

        // Compute time.  Uncoalesced accesses also stall the math pipelines,
        // not just the memory system, so the layout penalty derates compute
        // efficiency as well.
        let layout_compute_derate = if coalesced { 1.0 } else { 0.5 };
        let base_eff = self.dense_efficiency(core)
            * self.cal.masked_gemm_efficiency_ratio
            * layout_compute_derate;
        let work_per_tile: Vec<u64> =
            tiles.iter().map(|t| (m * t.kept_rows * t.kept_cols) as u64).collect();

        // Thread-block grid of one tile: the kernel picks a narrower output
        // tile when the surviving column count is small (as CUTLASS does).
        let tile_n_for = |kept_cols: usize| -> usize {
            let rounded = kept_cols.max(1).div_ceil(32) * 32;
            rounded.min(tile_n_max)
        };
        let blocks_for = |t: &TwTileShape| -> usize {
            m.div_ceil(tile_m) * t.kept_cols.max(1).div_ceil(tile_n_for(t.kept_cols))
        };

        let (compute, launch) = if cfg.tw_batching {
            // One batched kernel over all tiles: thread blocks from every
            // tile fill the SMs together; imbalance between tiles inflates
            // the time because the batch finishes with its largest tile.
            let total_blocks: usize = tiles.iter().map(blocks_for).sum();
            let covered: f64 = tiles
                .iter()
                .map(|t| (blocks_for(t) * tile_m * tile_n_for(t.kept_cols)) as f64)
                .sum();
            let useful: f64 = tiles.iter().map(|t| (m * t.kept_cols) as f64).sum();
            let tile_quant = if covered > 0.0 { useful / covered } else { 1.0 };
            let wave =
                crate::occupancy::wave_quantization_efficiency(total_blocks, self.device.num_sms);
            let eff = (base_eff * (tile_quant * wave).max(0.05)).max(1e-3);
            let imbalance = imbalance_ratio(&work_per_tile);
            let strength = if cfg.tw_streams {
                self.cal.imbalance_penalty_with_streams
            } else {
                self.cal.imbalance_penalty_strength
            };
            let penalty = 1.0 + strength * (imbalance - 1.0);
            let compute = flops as f64 / (self.peak(core) * eff) * penalty;
            // Batching launches one kernel; a small residue of per-tile setup
            // remains.
            let residual = (1.0 - self.cal.batching_launch_saving) * tiles.len() as f64;
            let launch = self.device.kernel_launch_overhead * (1.0 + residual);
            (compute, launch)
        } else {
            // One kernel per tile.  Each small GEMM under-utilises the GPU;
            // streams overlap them.
            let per_tile_times: Vec<f64> = tiles
                .iter()
                .map(|t| {
                    let occ = gemm_occupancy_efficiency(
                        m,
                        t.kept_cols.max(1),
                        tile_m,
                        tile_n_for(t.kept_cols),
                        self.device.num_sms,
                    );
                    let eff = (base_eff * occ.max(0.02)).max(1e-3);
                    2.0 * (m * t.kept_rows * t.kept_cols) as f64 / (self.peak(core) * eff)
                        + self.device.kernel_launch_overhead
                })
                .collect();
            let streams = if cfg.tw_streams { self.device.max_concurrent_streams } else { 1 };
            let makespan = StreamSim::new(streams).schedule(&per_tile_times).makespan();
            (makespan, 0.0)
        };

        let time = compute.max(memory) + launch;
        KernelProfile {
            name: if cfg.tw_batching {
                "tw_batched_gemm".to_string()
            } else {
                "tw_tile_gemm".to_string()
            },
            core,
            counters: KernelCounters {
                flops,
                load_bytes,
                store_bytes,
                load_transactions,
                store_transactions,
            },
            time_s: time,
        }
    }

    /// Prices the CSC element-wise overlay multiplication of the TEW pattern
    /// (executed on the CUDA cores because it is irregular).
    pub fn csc_overlay_spmm(&self, m: usize, overlay_nnz: u64) -> KernelProfile {
        let core = CoreKind::CudaCore;
        let flops = 2 * m as u64 * overlay_nnz;
        // The overlay is far sparser than a typical CSR weight matrix (a few
        // percent density), so its gather efficiency is even lower than the
        // cuSparse baseline's.
        let eff = self.dense_efficiency(core) * self.cal.csr_spmm_efficiency_ratio * 0.4;
        let compute = flops as f64 / (self.peak(core) * eff.max(1e-4));
        let esize = Precision::Fp32.bytes() as u64;
        let load_bytes = overlay_nnz * (esize + 4) + (m as u64) * esize * overlay_nnz.min(1);
        let store_bytes = 0;
        let memory = self.mem_time(load_bytes as f64 * self.cal.uncoalesced_factor);
        let time = compute.max(memory) + self.device.kernel_launch_overhead;
        KernelProfile {
            name: "tew_overlay_spmm".to_string(),
            core,
            counters: KernelCounters {
                flops,
                load_bytes,
                store_bytes,
                load_transactions: (self.device.coalesced_transactions(load_bytes) as f64
                    * self.cal.uncoalesced_factor) as u64,
                store_transactions: 0,
            },
            time_s: time,
        }
    }

    /// Prices an out-of-place matrix transpose (the layout change of
    /// Fig. 7 ②, needed at model entry/exit when the transpose optimisation
    /// is on, or around every GEMM when it is applied naively).
    pub fn transpose(&self, rows: usize, cols: usize, prec: Precision) -> KernelProfile {
        let bytes = (rows * cols) as u64 * prec.bytes() as u64;
        let time = self.mem_time(2.0 * bytes as f64 / self.cal.elementwise_bandwidth_efficiency)
            + self.device.kernel_launch_overhead;
        KernelProfile {
            name: "transpose".to_string(),
            core: CoreKind::CudaCore,
            counters: KernelCounters {
                flops: 0,
                load_bytes: bytes,
                store_bytes: bytes,
                load_transactions: self.device.coalesced_transactions(bytes),
                store_transactions: self.device.coalesced_transactions(bytes),
            },
            time_s: time,
        }
    }

    /// Prices a chain of element-wise / normalisation kernels over a tensor
    /// of `elements` values (add-bias, GELU, LayerNorm, softmax, residual
    /// adds — the "others" of Fig. 15).
    ///
    /// When `fused` is true, consecutive ops share one launch and one
    /// round-trip to DRAM; otherwise each op pays both.
    pub fn elementwise_chain(
        &self,
        name: &str,
        num_ops: usize,
        elements: usize,
        prec: Precision,
        fused: bool,
    ) -> KernelProfile {
        assert!(num_ops > 0, "need at least one op in the chain");
        let esize = prec.bytes() as u64;
        let bytes_per_pass = 2 * elements as u64 * esize; // read + write
        let (passes, launches) = if fused { (1u64, 1usize) } else { (num_ops as u64, num_ops) };
        let load_bytes = passes * elements as u64 * esize;
        let store_bytes = passes * elements as u64 * esize;
        let time = self
            .mem_time((passes * bytes_per_pass) as f64 / self.cal.elementwise_bandwidth_efficiency)
            + launches as f64 * self.device.kernel_launch_overhead;
        KernelProfile {
            name: if fused { format!("{name}_fused") } else { name.to_string() },
            core: CoreKind::CudaCore,
            counters: KernelCounters {
                flops: (num_ops * elements) as u64,
                load_bytes,
                store_bytes,
                load_transactions: self.device.coalesced_transactions(load_bytes),
                store_transactions: self.device.coalesced_transactions(store_bytes),
            },
            time_s: time,
        }
    }
}

/// Convenience: builds uniform tile shapes for a TW matrix pruned to the
/// given overall sparsity with equal column/row reduction (used by sweeps
/// that do not carry real masks).
pub fn uniform_tiles(k: usize, n: usize, g: usize, sparsity: f64) -> Vec<TwTileShape> {
    assert!(g > 0, "granularity must be positive");
    let keep = (1.0 - sparsity).max(0.0);
    // Split the keep ratio evenly between rows and columns, mirroring the
    // pruner's default budget split.
    let keep_side = keep.sqrt();
    let num_tiles = n.div_ceil(g).max(1);
    let mut tiles = Vec::with_capacity(num_tiles);
    for t in 0..num_tiles {
        let cols_here = if (t + 1) * g <= n { g } else { n - t * g };
        tiles.push(TwTileShape {
            kept_rows: ((k as f64) * keep_side).round().max(1.0) as usize,
            kept_cols: ((cols_here as f64) * keep_side).round().max(1.0) as usize,
        });
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert_gemm() -> GemmShape {
        // A representative BERT-base GEMM: batch*seq = 1024 tokens, 768x768
        // weight.
        GemmShape::new(1024, 768, 768)
    }

    fn tensor() -> ExecutionConfig {
        ExecutionConfig::optimized(CoreKind::TensorCore)
    }

    #[test]
    fn tensor_core_dense_is_much_faster_than_cuda_core() {
        let model = CostModel::v100();
        let shape = bert_gemm();
        let t = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let c = model.dense_gemm(shape, CoreKind::CudaCore, Precision::Fp32).time_s;
        let ratio = c / t;
        assert!(ratio > 3.0 && ratio < 12.0, "tensor/CUDA dense ratio {ratio}");
    }

    #[test]
    fn dense_gemm_counters_match_shape() {
        let model = CostModel::v100();
        let shape = GemmShape::new(128, 256, 512);
        let p = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16);
        assert_eq!(p.counters.flops, shape.flops());
        assert_eq!(p.counters.load_bytes, ((128 * 512 + 512 * 256) * 2) as u64);
        assert_eq!(p.counters.store_bytes, (128 * 256 * 2) as u64);
        assert!(p.time_s > 0.0);
    }

    #[test]
    fn csr_spmm_slower_than_dense_cuda_at_moderate_sparsity() {
        // Fig. 3: EW/VW via cuSparse lose to the dense model on CUDA cores
        // at the sparsities pruning actually reaches (50-80%).
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::CudaCore, Precision::Fp32).time_s;
        for s in [0.5, 0.6, 0.75, 0.8] {
            let sparse = model.csr_spmm(shape, s).time_s;
            assert!(sparse > dense, "sparsity {s}: csr {sparse} should exceed dense {dense}");
        }
    }

    #[test]
    fn csr_spmm_wins_only_at_extreme_sparsity() {
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::CudaCore, Precision::Fp32).time_s;
        let sparse_97 = model.csr_spmm(shape, 0.97).time_s;
        assert!(sparse_97 < dense, "97% sparsity should beat dense CUDA");
    }

    #[test]
    fn bsr_gemm_slower_than_dense_tensor_at_moderate_sparsity() {
        // Fig. 3: BW is ~3x slower than the dense model on tensor cores.
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let bw = model.bsr_gemm(shape, 32, 0.5).time_s;
        let ratio = bw / dense;
        assert!(ratio > 1.5 && ratio < 6.0, "BW/dense ratio {ratio}");
    }

    #[test]
    fn bsr_gemm_needs_very_high_sparsity_to_win() {
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        assert!(model.bsr_gemm(shape, 64, 0.75).time_s > dense);
        assert!(model.bsr_gemm(shape, 64, 0.97).time_s < dense);
    }

    #[test]
    fn smaller_blocks_are_slower() {
        let model = CostModel::v100();
        let shape = bert_gemm();
        let b8 = model.bsr_gemm(shape, 8, 0.5).time_s;
        let b32 = model.bsr_gemm(shape, 32, 0.5).time_s;
        let b64 = model.bsr_gemm(shape, 64, 0.5).time_s;
        assert!(b8 > b32);
        assert!(b32 >= b64);
    }

    #[test]
    fn tw_zero_sparsity_overhead_is_about_35_percent() {
        // "our TW implementation with zero sparsity ... leads to about 35%
        // performance loss" (Sec. VII-B).
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let tiles = uniform_tiles(768, 768, 128, 0.0);
        let tw = model.tw_gemm(1024, 768, 768, &tiles, &tensor()).time_s;
        let overhead = tw / dense - 1.0;
        assert!(
            (0.2..=0.5).contains(&overhead),
            "overhead at zero sparsity should be ~35%, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn tw_crossover_near_40_percent_sparsity() {
        // Fig. 9b: "With only 40% sparsity, TW with G = 128 starts to
        // outperform the dense model latency."
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let at = |s: f64| {
            let tiles = uniform_tiles(768, 768, 128, s);
            model.tw_gemm(1024, 768, 768, &tiles, &tensor()).time_s
        };
        assert!(at(0.25) > dense, "25% sparsity should still be slower than dense");
        assert!(at(0.55) < dense, "55% sparsity should be faster than dense");
    }

    #[test]
    fn tw_speedup_at_75_percent_is_about_2x() {
        // Fig. 9b / Sec. VII-D: TW-128 achieves ~2.26x GEMM speedup at 75%.
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let tiles = uniform_tiles(768, 768, 128, 0.75);
        let tw = model.tw_gemm(1024, 768, 768, &tiles, &tensor()).time_s;
        let speedup = dense / tw;
        assert!(
            (1.7..=3.0).contains(&speedup),
            "speedup at 75% should be ~2.26x, got {speedup:.2}x"
        );
    }

    #[test]
    fn tw_speedup_keeps_scaling_to_99_percent() {
        // Fig. 11: 11.6x at 99% sparsity.
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let tiles = uniform_tiles(768, 768, 128, 0.99);
        let tw = model.tw_gemm(1024, 768, 768, &tiles, &tensor()).time_s;
        let speedup = dense / tw;
        assert!(speedup > 6.0, "speedup at 99% should be large, got {speedup:.2}x");
    }

    #[test]
    fn transpose_optimisation_matters() {
        // Fig. 15: "Without performing the matrix transpose optimization,
        // the GEMM computation cannot benefit from the high sparsity."
        let model = CostModel::v100();
        let tiles = uniform_tiles(768, 768, 128, 0.75);
        let with = model.tw_gemm(1024, 768, 768, &tiles, &tensor()).time_s;
        let without = model
            .tw_gemm(
                1024,
                768,
                768,
                &tiles,
                &ExecutionConfig { transpose: TransposeStrategy::None, ..tensor() },
            )
            .time_s;
        assert!(without > with * 1.5, "uncoalesced accesses should hurt: {without} vs {with}");
    }

    #[test]
    fn batching_and_streams_beat_naive_execution() {
        let model = CostModel::v100();
        let tiles = uniform_tiles(768, 768, 128, 0.75);
        let optimized = model.tw_gemm(1024, 768, 768, &tiles, &tensor()).time_s;
        let naive = model
            .tw_gemm(1024, 768, 768, &tiles, &ExecutionConfig::naive(CoreKind::TensorCore))
            .time_s;
        let streams_only = model
            .tw_gemm(
                1024,
                768,
                768,
                &tiles,
                &ExecutionConfig { tw_batching: false, tw_streams: true, ..tensor() },
            )
            .time_s;
        let serial_tiles = model
            .tw_gemm(
                1024,
                768,
                768,
                &tiles,
                &ExecutionConfig { tw_batching: false, tw_streams: false, ..tensor() },
            )
            .time_s;
        assert!(naive > optimized, "naive {naive} should be slower than optimized {optimized}");
        assert!(
            streams_only < serial_tiles,
            "stream concurrency should beat serial per-tile execution"
        );
        assert!(streams_only <= naive, "streams should not hurt the naive execution");
    }

    #[test]
    fn tw_mask_overhead_doubles_load_transactions() {
        // Fig. 11's counter analysis: TW at zero sparsity issues ~2x the
        // load transactions of the dense GEMM.
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16);
        let tiles = uniform_tiles(768, 768, 128, 0.0);
        let tw = model.tw_gemm(1024, 768, 768, &tiles, &tensor());
        let ratio = tw.counters.load_transactions as f64 / dense.counters.load_transactions as f64;
        assert!((1.8..=2.4).contains(&ratio), "load transaction ratio {ratio}");
    }

    #[test]
    fn tew_overlay_on_cuda_cores_is_expensive_relative_to_tensor_dense() {
        // Fig. 10b: at delta = 1% the overlay alone erases the tensor-core
        // speedup, because it runs on the 8x slower CUDA cores.
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense_t = model.dense_gemm(shape, CoreKind::TensorCore, Precision::Fp16).time_s;
        let overlay_nnz = (0.01 * 768.0 * 768.0) as u64;
        let overlay = model.csc_overlay_spmm(1024, overlay_nnz).time_s;
        assert!(
            overlay > 0.3 * dense_t,
            "1% overlay ({overlay}) should be a large fraction of dense tensor time ({dense_t})"
        );
        // But relative to the CUDA-core dense model it is small.
        let dense_c = model.dense_gemm(shape, CoreKind::CudaCore, Precision::Fp32).time_s;
        assert!(overlay < 0.3 * dense_c);
    }

    #[test]
    fn imbalanced_tiles_cost_more_without_streams() {
        let model = CostModel::v100();
        let balanced: Vec<TwTileShape> =
            (0..6).map(|_| TwTileShape { kept_rows: 384, kept_cols: 128 }).collect();
        let mut imbalanced = balanced.clone();
        imbalanced[0].kept_rows = 768;
        imbalanced[1].kept_rows = 96;
        imbalanced[2].kept_rows = 96;
        let no_streams = ExecutionConfig { tw_streams: false, ..tensor() };
        let t_bal = model.tw_gemm(1024, 768, 768, &balanced, &no_streams).time_s;
        let t_imb = model.tw_gemm(1024, 768, 768, &imbalanced, &no_streams).time_s;
        let t_imb_streams = model.tw_gemm(1024, 768, 768, &imbalanced, &tensor()).time_s;
        assert!(t_imb > t_bal, "imbalance should cost time");
        assert!(t_imb_streams < t_imb, "streams should recover some imbalance loss");
    }

    #[test]
    fn elementwise_fusion_saves_time_and_launches() {
        let model = CostModel::v100();
        let unfused =
            model.elementwise_chain("bias_layernorm", 3, 1024 * 768, Precision::Fp16, false);
        let fused = model.elementwise_chain("bias_layernorm", 3, 1024 * 768, Precision::Fp16, true);
        assert!(fused.time_s < unfused.time_s * 0.6);
        assert!(fused.name.contains("fused"));
    }

    #[test]
    fn transpose_cost_scales_with_size() {
        let model = CostModel::v100();
        let small = model.transpose(128, 768, Precision::Fp16).time_s;
        let large = model.transpose(1024, 768, Precision::Fp16).time_s;
        assert!(large > small);
    }

    #[test]
    fn uniform_tiles_cover_matrix() {
        let tiles = uniform_tiles(768, 768, 128, 0.75);
        assert_eq!(tiles.len(), 6);
        for t in &tiles {
            assert!(t.kept_rows <= 768 && t.kept_rows >= 1);
            assert!(t.kept_cols <= 128 && t.kept_cols >= 1);
        }
        let kept: usize = tiles.iter().map(|t| t.kept_rows * t.kept_cols).sum();
        let achieved = 1.0 - kept as f64 / (768.0 * 768.0);
        assert!((achieved - 0.75).abs() < 0.03);
    }

    #[test]
    fn cuda_core_tw_also_speeds_up() {
        // Fig. 14 right column: TW gives ~2.86x average speedup on CUDA
        // cores.
        let model = CostModel::v100();
        let shape = bert_gemm();
        let dense = model.dense_gemm(shape, CoreKind::CudaCore, Precision::Fp32).time_s;
        let tiles = uniform_tiles(768, 768, 128, 0.75);
        let tw = model
            .tw_gemm(1024, 768, 768, &tiles, &ExecutionConfig::optimized(CoreKind::CudaCore))
            .time_s;
        let speedup = dense / tw;
        assert!(speedup > 1.8, "CUDA-core TW speedup {speedup:.2}x");
    }
}
