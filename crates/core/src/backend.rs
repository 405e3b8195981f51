//! Open, trait-based kernel backends plus the per-layer auto-planner.
//!
//! The paper's central observation is that *how* a pruned weight matrix is
//! executed (dense, tile-wise, CSR, block-sparse) decides whether sparsity
//! becomes a latency win.  This module makes that choice an open extension
//! point instead of a closed enum:
//!
//! * [`KernelBackend`] — the trait one executable layer implements: batched
//!   forward pass, a [`WeightExecution`] so the GPU cost model can price it,
//!   and its resident memory footprint.
//! * [`DenseKernel`] / [`TileWiseKernel`] / [`CsrKernel`] / [`BsrKernel`] —
//!   the four built-in kernel families (cuBLAS, the paper's TW kernel,
//!   cuSparse, BlockSparse).
//! * [`KernelRegistry`] — name → constructor table; registering a new family
//!   makes it servable end-to-end with no changes to the session, the
//!   serving runtime or the benchmarks.
//! * [`AutoPlanner`] — prices every registered family per layer on the
//!   `tw-gpu-sim` cost model and picks the cheapest, so one session can mix
//!   kernel families across layers.
//! * [`Backend`] — the user-facing selection (`FromStr`/`Display`), i.e.
//!   what a `--backend dense|tw|csr|bsr|auto` flag parses into.
//!
//! # Adding a new kernel family
//!
//! Implement [`KernelBackend`], register a constructor, and name it in a
//! session plan:
//!
//! ```
//! use tilewise::planner::WeightExecution;
//! use tilewise::{AutoPlanner, InferenceSession, KernelBackend, KernelRegistry};
//! use tw_tensor::{gemm, Matrix};
//!
//! /// A custom kernel family: plain dense GEMM under a new name.
//! #[derive(Debug)]
//! struct MyKernel {
//!     weights: Matrix,
//! }
//!
//! impl KernelBackend for MyKernel {
//!     fn name(&self) -> &'static str {
//!         "my-kernel"
//!     }
//!     fn forward_batch(&self, inputs: &Matrix) -> Matrix {
//!         gemm(inputs, &self.weights)
//!     }
//!     fn execution(&self) -> WeightExecution {
//!         WeightExecution::Dense
//!     }
//!     fn resident_bytes(&self) -> usize {
//!         self.weights.len() * 4
//!     }
//! }
//!
//! let mut registry = KernelRegistry::standard();
//! registry.register("my-kernel", |tile| Box::new(MyKernel { weights: tile.to_dense() }));
//!
//! let tiles = InferenceSession::synthetic_tiles(&[24, 32, 16], 0.5, 8, 7);
//! let session = InferenceSession::with_named_plan(
//!     tiles,
//!     &["my-kernel", "tile-wise"],
//!     &registry,
//!     &AutoPlanner::default(),
//! );
//! assert_eq!(session.layer_backends(), vec!["my-kernel", "tile-wise"]);
//! ```

use crate::planner::{ExecutionConfig, ExecutionPlanner, WeightExecution};
use crate::tile_matrix::TileWiseMatrix;
use std::fmt;
use std::str::FromStr;
use tw_gpu_sim::CoreKind;
use tw_sparse::{spmm, BsrMatrix, CsrMatrix};
use tw_tensor::{gemm, Matrix};

/// Which kernel family serves a layer — the *selection*, not the executable
/// form (that is a [`KernelBackend`]).  `Auto` delegates the choice to the
/// [`AutoPlanner`] per layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Masked dense GEMM (the unpruned/cuBLAS baseline semantics).
    Dense,
    /// The paper's compacted tile-wise kernels.
    TileWise,
    /// cuSparse-style CSR SpMM baseline.
    Csr,
    /// BlockSparse-style BSR SpMM baseline.
    Bsr,
    /// Pick the cost-model-cheapest registered family per layer.
    Auto,
}

impl Backend {
    /// The concrete kernel families (everything except `Auto`), in registry
    /// order.
    pub const FAMILIES: [Backend; 4] =
        [Backend::Dense, Backend::TileWise, Backend::Csr, Backend::Bsr];

    /// Every selectable value, including `Auto` — what a CLI sweep iterates.
    pub const ALL: [Backend; 5] =
        [Backend::Dense, Backend::TileWise, Backend::Csr, Backend::Bsr, Backend::Auto];

    /// The canonical kernel family name; doubles as the registry key.
    pub fn as_str(&self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::TileWise => "tile-wise",
            Backend::Csr => "csr",
            Backend::Bsr => "bsr",
            Backend::Auto => "auto",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing a backend name; the message lists the accepted values
/// so a CLI can print it verbatim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendParseError {
    input: String,
}

impl fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend {:?} (expected one of: dense, tw, tile-wise, csr, bsr, auto)",
            self.input
        )
    }
}

impl std::error::Error for BackendParseError {}

impl FromStr for Backend {
    type Err = BackendParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Ok(Backend::Dense),
            "tw" | "tile-wise" | "tilewise" => Ok(Backend::TileWise),
            "csr" => Ok(Backend::Csr),
            "bsr" | "block-sparse" | "blocksparse" => Ok(Backend::Bsr),
            "auto" => Ok(Backend::Auto),
            _ => Err(BackendParseError { input: s.to_string() }),
        }
    }
}

/// One executable layer of an inference session: a kernel family bound to
/// one weight matrix.
///
/// Implementations are built from the layer's [`TileWiseMatrix`] (the
/// post-pruning source of truth) by a constructor in the [`KernelRegistry`];
/// all families must be functionally equivalent to the masked dense weights
/// within kernel tolerance — the property `tests/backend_plans.rs` pins.
pub trait KernelBackend: Send + Sync + fmt::Debug {
    /// The kernel family name (the same string [`Backend`] parses from, for
    /// built-in families).
    fn name(&self) -> &'static str;

    /// Batched layer forward pass: `C (batch x n) = A (batch x k) * W`.
    fn forward_batch(&self, inputs: &Matrix) -> Matrix;

    /// How the GPU execution planner prices this layer.
    fn execution(&self) -> WeightExecution;

    /// Bytes this executable form keeps resident per serving replica.
    fn resident_bytes(&self) -> usize;
}

/// Masked dense GEMM over the reconstructed (zero-filled) weights.
#[derive(Clone, Debug)]
pub struct DenseKernel {
    weights: Matrix,
}

impl DenseKernel {
    /// Materializes the masked dense weights.
    pub fn from_tile(tile: &TileWiseMatrix) -> Self {
        Self { weights: tile.to_dense() }
    }
}

impl KernelBackend for DenseKernel {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward_batch(&self, inputs: &Matrix) -> Matrix {
        gemm(inputs, &self.weights)
    }

    fn execution(&self) -> WeightExecution {
        WeightExecution::Dense
    }

    fn resident_bytes(&self) -> usize {
        self.weights.len() * 4
    }
}

/// The paper's compacted tile-wise kernel, executed straight from the
/// [`TileWiseMatrix`] representation.
#[derive(Clone, Debug)]
pub struct TileWiseKernel {
    tile: TileWiseMatrix,
}

impl TileWiseKernel {
    /// Adopts the compacted tile-wise representation as-is.
    pub fn from_tile(tile: &TileWiseMatrix) -> Self {
        Self { tile: tile.clone() }
    }
}

impl KernelBackend for TileWiseKernel {
    fn name(&self) -> &'static str {
        "tile-wise"
    }

    fn forward_batch(&self, inputs: &Matrix) -> Matrix {
        self.tile.matmul(inputs)
    }

    fn execution(&self) -> WeightExecution {
        WeightExecution::TileWise { tiles: self.tile.tile_shapes() }
    }

    fn resident_bytes(&self) -> usize {
        self.tile.storage_bytes(4)
    }
}

/// cuSparse-style CSR SpMM over a CSR copy of the masked weights.
#[derive(Clone, Debug)]
pub struct CsrKernel {
    csr: CsrMatrix,
    sparsity: f64,
}

impl CsrKernel {
    /// Converts the masked weights to CSR.
    pub fn from_tile(tile: &TileWiseMatrix) -> Self {
        Self { csr: CsrMatrix::from_dense(&tile.to_dense()), sparsity: tile.sparsity() }
    }
}

impl KernelBackend for CsrKernel {
    fn name(&self) -> &'static str {
        "csr"
    }

    fn forward_batch(&self, inputs: &Matrix) -> Matrix {
        spmm::dense_csr_matmul(inputs, &self.csr)
    }

    fn execution(&self) -> WeightExecution {
        WeightExecution::Csr { sparsity: self.sparsity }
    }

    fn resident_bytes(&self) -> usize {
        self.csr.storage_bytes(4)
    }
}

/// BlockSparse-style BSR SpMM over a block-sparse copy of the masked
/// weights: each stored block runs through the shared GEMM microkernel,
/// serially on the calling worker's thread.
#[derive(Clone, Debug)]
pub struct BsrKernel {
    bsr: BsrMatrix,
}

impl BsrKernel {
    /// Largest block edge the serving backend uses; the paper notes 32x32 is
    /// the smallest block with reasonable tensor-core utilisation, so bigger
    /// blocks buy nothing while pruning fewer of them.
    pub const MAX_BLOCK: usize = 32;

    /// Converts the masked weights to BSR, with the block edge following the
    /// pruning granularity (capped at [`Self::MAX_BLOCK`]).
    pub fn from_tile(tile: &TileWiseMatrix) -> Self {
        Self::with_block_size(tile, tile.granularity().clamp(1, Self::MAX_BLOCK))
    }

    /// Converts the masked weights to BSR with an explicit block edge.
    ///
    /// # Panics
    /// Panics if `block_size` is zero (delegated from [`BsrMatrix`]).
    pub fn with_block_size(tile: &TileWiseMatrix, block_size: usize) -> Self {
        Self { bsr: BsrMatrix::from_dense(&tile.to_dense(), block_size) }
    }
}

impl KernelBackend for BsrKernel {
    fn name(&self) -> &'static str {
        "bsr"
    }

    fn forward_batch(&self, inputs: &Matrix) -> Matrix {
        spmm::dense_bsr_matmul(inputs, &self.bsr)
    }

    fn execution(&self) -> WeightExecution {
        WeightExecution::Bsr {
            block_size: self.bsr.block_size(),
            block_sparsity: self.bsr.block_sparsity(),
        }
    }

    fn resident_bytes(&self) -> usize {
        self.bsr.storage_bytes(4)
    }
}

/// Constructor for one kernel family: builds the executable form of a layer
/// from its pruned tile-wise weights.  A shared closure (not a bare `fn`)
/// so builders can capture configuration — a block size, a calibration
/// table, an external device handle.
pub type KernelBuilder =
    std::sync::Arc<dyn Fn(&TileWiseMatrix) -> Box<dyn KernelBackend> + Send + Sync>;

/// Name → constructor table of the kernel families a session can serve
/// with.  [`KernelRegistry::standard`] holds the four built-ins; registering
/// another name makes a fifth family selectable everywhere (sessions, the
/// serving runtime, the auto-planner, the benchmarks) without touching any
/// of them.
#[derive(Clone)]
pub struct KernelRegistry {
    entries: Vec<(&'static str, KernelBuilder)>,
}

impl KernelRegistry {
    /// A registry with no families (useful for restricting the auto-planner
    /// to a subset).
    pub fn empty() -> Self {
        Self { entries: Vec::new() }
    }

    /// The four built-in families: dense, tile-wise, csr, bsr.
    pub fn standard() -> Self {
        let mut registry = Self::empty();
        registry.register("dense", |tile| Box::new(DenseKernel::from_tile(tile)));
        registry.register("tile-wise", |tile| Box::new(TileWiseKernel::from_tile(tile)));
        registry.register("csr", |tile| Box::new(CsrKernel::from_tile(tile)));
        registry.register("bsr", |tile| Box::new(BsrKernel::from_tile(tile)));
        registry
    }

    /// Registers (or replaces) a kernel family under `name`.  The builder
    /// may be a capturing closure (e.g. parameterizing a block size).
    pub fn register(
        &mut self,
        name: &'static str,
        build: impl Fn(&TileWiseMatrix) -> Box<dyn KernelBackend> + Send + Sync + 'static,
    ) {
        let build: KernelBuilder = std::sync::Arc::new(build);
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = build;
        } else {
            self.entries.push((name, build));
        }
    }

    /// Registered family names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no family is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the executable form of one layer with the named family, or
    /// `None` if the name is not registered.
    pub fn build(&self, name: &str, tile: &TileWiseMatrix) -> Option<Box<dyn KernelBackend>> {
        self.entries.iter().find(|(n, _)| *n == name).map(|(_, build)| build(tile))
    }

    /// Iterates `(name, constructor)` pairs — what the auto-planner prices.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &KernelBuilder)> + '_ {
        self.entries.iter().map(|(n, b)| (*n, b))
    }
}

impl fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelRegistry").field("families", &self.names()).finish()
    }
}

/// Per-layer cost-model planning: price every registered kernel family on
/// the `tw-gpu-sim` cost model and pick the cheapest.
///
/// The planner is greedy per layer, which is exact here: the cost model
/// prices layers independently, so the per-layer argmin is the whole-model
/// argmin (up to boundary transposes, which [`ExecutionPlanner::plan_layer`]
/// charges to every tile-wise layer, making the choice *conservative*
/// about TW rather than optimistic).
#[derive(Clone, Debug)]
pub struct AutoPlanner {
    planner: ExecutionPlanner,
    config: ExecutionConfig,
    design_batch: usize,
}

impl AutoPlanner {
    /// Batch size the default planner optimizes for — matches the serving
    /// runtime's default `max_batch_size`.
    pub const DEFAULT_DESIGN_BATCH: usize = 8;

    /// A planner over the given cost model and execution configuration,
    /// optimizing for batches of `design_batch` requests.
    ///
    /// # Panics
    /// Panics if `design_batch` is zero.
    pub fn new(planner: ExecutionPlanner, config: ExecutionConfig, design_batch: usize) -> Self {
        assert!(design_batch > 0, "design batch size must be positive");
        Self { planner, config, design_batch }
    }

    /// The default V100 planner optimizing for the given batch size.
    pub fn v100(design_batch: usize) -> Self {
        Self::new(
            ExecutionPlanner::v100(),
            ExecutionConfig::optimized(CoreKind::TensorCore),
            design_batch,
        )
    }

    /// The batch size layer costs are evaluated at.
    pub fn design_batch(&self) -> usize {
        self.design_batch
    }

    /// Modelled seconds for one layer of shape `k x n` executed as `exec` at
    /// the design batch size.
    pub fn price(&self, k: usize, n: usize, exec: &WeightExecution) -> f64 {
        self.planner.plan_layer(self.design_batch, k, n, exec, &self.config).total_time()
    }

    /// Builds every registered family for `tile`, prices each, and returns
    /// the cheapest kernel.
    ///
    /// Candidates are fully materialized before pricing because a family's
    /// [`WeightExecution`] comes from its built kernel — the only way an
    /// *open* registry can price families it knows nothing about.  The cost
    /// is paid once per layer at session construction, never on the serving
    /// path; callers planning very large models repeatedly should cache
    /// sessions rather than re-plan.
    ///
    /// # Panics
    /// Panics if the registry is empty.
    pub fn choose(
        &self,
        registry: &KernelRegistry,
        tile: &TileWiseMatrix,
    ) -> Box<dyn KernelBackend> {
        assert!(!registry.is_empty(), "auto-planning needs at least one registered backend");
        let mut best: Option<(f64, Box<dyn KernelBackend>)> = None;
        for (_, build) in registry.iter() {
            let kernel = build(tile);
            let cost = self.price(tile.k(), tile.n(), &kernel.execution());
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, kernel));
            }
        }
        best.expect("non-empty registry").1
    }
}

impl Default for AutoPlanner {
    fn default() -> Self {
        Self::v100(Self::DEFAULT_DESIGN_BATCH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::InferenceSession;
    use tw_tensor::DEFAULT_TOL;

    fn tile(dims: [usize; 2], sparsity: f64, g: usize, seed: u64) -> TileWiseMatrix {
        InferenceSession::synthetic_tiles(&[dims[0], dims[1]], sparsity, g, seed).remove(0)
    }

    #[test]
    fn display_and_fromstr_round_trip() {
        for backend in Backend::ALL {
            assert_eq!(backend.to_string().parse::<Backend>().unwrap(), backend);
        }
        assert_eq!("tw".parse::<Backend>().unwrap(), Backend::TileWise);
        assert_eq!(" BSR ".parse::<Backend>().unwrap(), Backend::Bsr);
    }

    #[test]
    fn parse_error_names_the_options() {
        let err = "cuda".parse::<Backend>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"cuda\""), "{msg}");
        for option in ["dense", "tw", "csr", "bsr", "auto"] {
            assert!(msg.contains(option), "missing {option} in {msg}");
        }
    }

    #[test]
    fn standard_registry_builds_all_families() {
        let registry = KernelRegistry::standard();
        assert_eq!(registry.names(), vec!["dense", "tile-wise", "csr", "bsr"]);
        let t = tile([48, 64], 0.6, 16, 3);
        let reference = DenseKernel::from_tile(&t);
        let inputs = Matrix::random_uniform(5, 48, 1.0, 9);
        let expected = reference.forward_batch(&inputs);
        for backend in Backend::FAMILIES {
            let kernel = registry.build(backend.as_str(), &t).expect("registered");
            assert_eq!(kernel.name(), backend.as_str());
            assert!(
                kernel.forward_batch(&inputs).approx_eq(&expected, DEFAULT_TOL),
                "{backend} disagrees with dense"
            );
            assert!(kernel.resident_bytes() > 0);
        }
        assert!(registry.build("auto", &t).is_none(), "auto is a selection, not a family");
    }

    #[test]
    fn compact_forms_use_less_memory_than_dense_at_high_sparsity() {
        let t = tile([128, 128], 0.9, 32, 11);
        let dense = DenseKernel::from_tile(&t).resident_bytes();
        assert!(TileWiseKernel::from_tile(&t).resident_bytes() < dense);
        assert!(CsrKernel::from_tile(&t).resident_bytes() < dense);
    }

    #[test]
    fn register_replaces_and_extends() {
        let mut registry = KernelRegistry::standard();
        registry.register("dense", |tile| Box::new(TileWiseKernel::from_tile(tile)));
        assert_eq!(registry.len(), 4, "replacement must not duplicate");
        registry.register("extra", |tile| Box::new(DenseKernel::from_tile(tile)));
        assert_eq!(registry.len(), 5);
        let t = tile([16, 24], 0.5, 8, 5);
        assert_eq!(registry.build("dense", &t).unwrap().name(), "tile-wise");
        assert_eq!(registry.build("extra", &t).unwrap().name(), "dense");
    }

    #[test]
    fn builders_can_capture_configuration() {
        // The registry takes closures, so a family variant can carry runtime
        // parameters — here a caller-chosen BSR block size.
        let block_size = 2usize;
        let mut registry = KernelRegistry::empty();
        registry.register("bsr-custom", move |tile| {
            Box::new(BsrKernel::with_block_size(tile, block_size))
        });
        let t = tile([16, 24], 0.5, 8, 6);
        let kernel = registry.build("bsr-custom", &t).unwrap();
        match kernel.execution() {
            WeightExecution::Bsr { block_size: bs, .. } => assert_eq!(bs, 2),
            other => panic!("expected a BSR execution, got {other:?}"),
        }
    }

    #[test]
    fn auto_planner_never_picks_worse_than_dense() {
        let registry = KernelRegistry::standard();
        let auto = AutoPlanner::default();
        for (dims, sparsity, g, seed) in [
            ([192usize, 192usize], 0.75, 32, 1),
            ([96, 160], 0.5, 16, 2),
            ([256, 128], 0.9, 64, 3),
            ([64, 64], 0.1, 8, 4),
        ] {
            let t = tile(dims, sparsity, g, seed);
            let kernel = auto.choose(&registry, &t);
            let chosen = auto.price(t.k(), t.n(), &kernel.execution());
            let dense = auto.price(t.k(), t.n(), &WeightExecution::Dense);
            assert!(
                chosen <= dense + 1e-12,
                "auto chose {} at {:.3e}s, pricier than dense {:.3e}s ({dims:?} s={sparsity})",
                kernel.name(),
                chosen,
                dense,
            );
        }
    }

    #[test]
    fn auto_planner_prefers_tile_wise_at_paper_scale() {
        // Fig. 9b's regime: a BERT-sized 768x768 weight at 75% TW sparsity
        // with G = 128 and a large token batch.  TW beats dense here while
        // CSR and BSR lose badly, so auto must land on tile-wise.  (At tiny
        // shapes the same model rightly flips to CSR/dense: launch overhead
        // and the TW boundary transposes dominate small GEMMs.)
        let t = tile([768, 768], 0.75, 128, 21);
        let kernel = AutoPlanner::v100(256).choose(&KernelRegistry::standard(), &t);
        assert_eq!(kernel.name(), "tile-wise");
    }

    #[test]
    fn auto_planner_respects_restricted_registries() {
        let mut registry = KernelRegistry::empty();
        registry.register("csr", |tile| Box::new(CsrKernel::from_tile(tile)));
        let t = tile([64, 64], 0.5, 16, 8);
        let kernel = AutoPlanner::default().choose(&registry, &t);
        assert_eq!(kernel.name(), "csr");
    }

    #[test]
    #[should_panic(expected = "at least one registered backend")]
    fn auto_planning_on_empty_registry_panics() {
        let t = tile([16, 16], 0.5, 8, 1);
        let _ = AutoPlanner::default().choose(&KernelRegistry::empty(), &t);
    }

    #[test]
    #[should_panic(expected = "design batch size must be positive")]
    fn zero_design_batch_rejected() {
        let _ = AutoPlanner::v100(0);
    }
}
