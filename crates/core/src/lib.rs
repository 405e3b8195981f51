//! Tile-wise sparsity: the paper's contribution as a reusable library.
//!
//! This crate ties the substrates together into the system a user of the
//! paper's artifact would actually adopt:
//!
//! * [`TileWiseMatrix`] — the executable representation of a TW pruned
//!   weight matrix: pre-compacted dense tiles plus row and column masks,
//!   with a functionally exact `matmul` (checked against dense GEMM) and the
//!   tile statistics the execution planner consumes.
//! * [`TileWisePruner`] — the high-level pruning pipeline: multi-stage
//!   global tile-wise pruning (Algorithm 1) with apriori tuning
//!   (Algorithm 2) over a whole model's layer set, producing executable
//!   sparse matrices.  The hybrid TEW pattern is evaluated by [`evaluate`]
//!   and priced by the cost model, not served.
//! * [`planner`] — the GPU execution planner implementing Sec. VI: masked
//!   batched GEMM on tensor cores, transpose placement for memory
//!   coalescing, stream concurrency and kernel fusion, priced by the
//!   `tw-gpu-sim` cost model.
//! * [`evaluate`] — end-to-end evaluation of a (model, pattern, sparsity)
//!   point: accuracy via the importance-retention proxy and latency via the
//!   planner; this is what every figure reproduction drives.
//! * [`figures`] — one generator per figure of the paper's evaluation
//!   section, returning plain data that the `tw-bench` binaries print.
//! * [`backend`] — the open kernel-backend layer: the [`KernelBackend`]
//!   trait (batched forward, cost-model pricing, resident bytes), the four
//!   built-in families (dense / tile-wise / CSR / BSR), the
//!   [`KernelRegistry`] new families plug into, and the [`AutoPlanner`]
//!   that binds per layer the family the host times fastest and prices the
//!   simulated device as the family the cost model prices cheapest.
//! * [`session`] — [`InferenceSession`], the executable forward pass the
//!   `tw-serve` runtime drives: batched CPU inference over the pruned
//!   weights with a (possibly heterogeneous) kernel backend per layer,
//!   plus GPU-simulated batch pricing through the planner.

pub mod backend;
pub mod evaluate;
pub mod figures;
pub mod planner;
pub mod pruner;
pub mod session;
pub mod tile_matrix;

pub use backend::{AutoPlanner, Backend, BackendParseError, KernelBackend, KernelRegistry};
pub use evaluate::{ModelEvaluation, SparseModelReport};
pub use planner::{ExecutionConfig, ExecutionPlanner, TransposeStrategy};
pub use pruner::{PrunedModel, TileWisePruner, TileWisePrunerConfig};
pub use session::{DwellModel, InferenceSession};
pub use tile_matrix::TileWiseMatrix;

/// Convenience re-export: the pattern taxonomy used across the API surface.
pub use tw_pruning::PruningPattern as PatternChoice;
