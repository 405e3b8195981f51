//! Umbrella crate for the Tile-Wise Sparsity (SC'20) reproduction.
//!
//! Re-exports every workspace crate under one roof so examples, integration
//! tests, and downstream users can depend on a single package:
//!
//! ```
//! use tile_wise_repro::prelude::*;
//!
//! let weight = Matrix::random_uniform(64, 64, 1.0, 42);
//! let scores = ImportanceScores::magnitude(&weight);
//! assert_eq!(scores.shape(), weight.shape());
//! ```

pub use tilewise;
pub use tw_cluster as cluster;
pub use tw_gpu_sim as gpu_sim;
pub use tw_memory as memory;
pub use tw_models as models;
pub use tw_pruning as pruning;
pub use tw_serve as serve;
pub use tw_sparse as sparse;
pub use tw_tensor as tensor;

/// Shared setup for the serving-flavoured examples (`serving`,
/// `traffic_scenarios`, `cluster`): build the auto-planned synthetic pruned
/// chain they all serve (each layer runs the family the host times fastest
/// and is priced as the family the cost model prices cheapest) and print
/// the one banner they all printed by hand before.
pub mod demo {
    use std::sync::Arc;
    use tilewise::{Backend, InferenceSession};

    /// The demo defaults every serving example shares: 75% tile-wise
    /// sparsity at granularity 32, seed 42, auto-planned kernels.
    pub const SPARSITY: f64 = 0.75;
    /// Tile granularity of the demo chain.
    pub const GRANULARITY: usize = 32;
    /// Pruning seed of the demo chain.
    pub const SEED: u64 = 42;

    /// Builds the demo model's pruned tiles for `dims` (see
    /// [`InferenceSession::synthetic_tiles`]).
    pub fn tiles(dims: &[usize]) -> Vec<tilewise::TileWiseMatrix> {
        InferenceSession::synthetic_tiles(dims, SPARSITY, GRANULARITY, SEED)
    }

    /// Builds the auto-planned demo session over `dims` and prints the
    /// standard banner (layer count, plan with any differing modelled
    /// family, dims, sparsity).
    pub fn announced_session(dims: &[usize]) -> Arc<InferenceSession> {
        let session = Arc::new(InferenceSession::new(tiles(dims), Backend::Auto));
        println!(
            "serving a {}-layer chain, input dim {}, output dim {}, {:.1}% sparse, auto-planned kernels [{}]",
            session.num_layers(),
            session.input_dim(),
            session.output_dim(),
            session.sparsity() * 100.0,
            session.plan_summary(),
        );
        session
    }
}

/// Commonly used types from across the workspace.
pub mod prelude {
    pub use tilewise::{
        AutoPlanner, Backend, ExecutionConfig, InferenceSession, KernelBackend, KernelRegistry,
        ModelEvaluation, PatternChoice, SparseModelReport, TileWiseMatrix, TileWisePruner,
    };
    pub use tw_cluster::{
        AutoscalerConfig, BalancerKind, Cluster, ClusterConfig, ClusterReport, Replica, ReplicaSpec,
    };
    pub use tw_gpu_sim::{CoreKind, GpuDevice, KernelCounters, TransferCost};
    pub use tw_memory::{
        EvictionPolicy, MemoryPool, ModelRegistry, PolicyKind, TileCache, TileKey, WeightTile,
    };
    pub use tw_models::{
        closed_loop, Arrival, ArrivalProcess, ModelKind, RequestGenerator, TrafficClass,
        TrafficSpec, Workload,
    };
    pub use tw_pruning::{ImportanceScores, PruningPattern, SparsityTarget};
    pub use tw_serve::{
        drive, Admission, AdmissionConfig, ClassPolicy, GpuDwell, MemoryConfig, ServeConfig,
        ServeReport, Server, ShedReason,
    };
    pub use tw_sparse::CsrMatrix;
    pub use tw_tensor::{gemm, Matrix};
}
