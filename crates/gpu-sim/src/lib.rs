//! Analytical execution model of a V100-class GPU.
//!
//! The paper's latency results come from running dense, sparse (cuSparse),
//! block-sparse (BlockSparse) and tile-wise (CUTLASS-based) GEMM kernels on
//! an NVIDIA V100.  This crate replaces that hardware with an analytical
//! cost model that charges each kernel for the quantities that actually
//! determine its runtime on the real machine:
//!
//! * floating-point work on the right execution unit (CUDA cores at
//!   15.7 TFLOPS vs tensor cores at 125 TFLOPS),
//! * DRAM traffic, split into coalesced and uncoalesced transactions,
//! * tile/wave quantisation across the 80 SMs,
//! * kernel-launch overhead, stream concurrency and batching,
//! * the masking overhead of the tile-wise kernel (int32 masks double the
//!   load-request count, Sec. VII-B),
//! * load imbalance between tiles with different pruned ratios.
//!
//! The model is calibrated against the anchor points the paper reports
//! (crossover at ~40% sparsity, 2.26x GEMM speedup at 75%, 11.6x at 99%,
//! ~35% overhead at 0% sparsity) and unit tests pin those behaviours.
//! Absolute times are *estimates*; relative comparisons are the product.

pub mod calibration;
pub mod cost;
pub mod counters;
pub mod device;
pub mod occupancy;
pub mod stream;
pub mod transfer;

pub use calibration::Calibration;
pub use cost::{CostModel, ExecutionConfig, TransposeStrategy, TwTileShape};
pub use counters::{KernelCounters, KernelProfile, RunCounters};
pub use device::{CoreKind, DeviceParseError, GpuDevice, Precision};
pub use occupancy::{tile_quantization_efficiency, wave_quantization_efficiency};
pub use stream::{StreamSchedule, StreamSim};
pub use transfer::TransferCost;
