//! Inference sessions: the executable forward pass a serving runtime drives.
//!
//! An [`InferenceSession`] packages a chain of pruned weight matrices into a
//! ready-to-serve model: it validates that the layer shapes compose, binds
//! every layer to a [`KernelBackend`] built from the [`KernelRegistry`]
//! (heterogeneous per-layer plans are first-class: layer 0 can run
//! tile-wise while layer 1 runs CSR and layer 2 dense), runs real batched
//! CPU inference, and prices the same batch on the `tw-gpu-sim` cost model
//! so a serving tier can overlap simulated device time with CPU execution.
//!
//! Backend selection is either explicit (a [`Backend`] per layer) or
//! delegated to the [`AutoPlanner`], which binds per layer the registered
//! family the host runs fastest and prices the simulated device as the
//! family the cost model prices cheapest.
//!
//! All backends are functionally equivalent: batching requests as rows of
//! one activation matrix commutes with the per-layer `matmul + ReLU`
//! pipeline, so a batched sparse forward pass reproduces per-request dense
//! results within kernel tolerance — the property `tests/` pins down.

use crate::backend::{AutoPlanner, Backend, KernelBackend, KernelRegistry, ModelledFamily};
use crate::planner::{ExecutionConfig, ExecutionPlanner, WeightExecution};
use crate::pruner::PrunedModel;
use crate::tile_matrix::TileWiseMatrix;
use tw_gpu_sim::{Calibration, CoreKind, CostModel, GpuDevice, RunCounters, StreamSim};
use tw_models::{ModelKind, PrunableGemm, Workload};
use tw_tensor::Matrix;

/// One layer: the kernel executing it, the family the device model prices
/// it as, and the shape/sparsity metadata the planner and the admission
/// checks need.  The pruned tile itself is *not* retained: after
/// construction the kernel's executable form is the only resident copy of
/// the weights (a session is long-lived and shared by every serving
/// worker, so holding the source tile alongside e.g. a dense copy would
/// double model memory for nothing).
#[derive(Debug)]
struct SessionLayer {
    k: usize,
    n: usize,
    kept_elements: usize,
    kernel: Box<dyn KernelBackend>,
    modelled: ModelledFamily,
}

/// An executable pruned model plus the planner that prices its batches.
#[derive(Debug)]
pub struct InferenceSession {
    layers: Vec<SessionLayer>,
    planner: ExecutionPlanner,
    exec_config: ExecutionConfig,
}

impl InferenceSession {
    /// Builds a session executing every layer with the same backend
    /// selection (`Backend::Auto` still plans each layer individually).
    ///
    /// # Panics
    /// Panics if the chain is empty or consecutive layer shapes do not
    /// compose (`layer[i].n() != layer[i + 1].k()`).
    pub fn new(tile_matrices: Vec<TileWiseMatrix>, backend: Backend) -> Self {
        let plan = vec![backend; tile_matrices.len()];
        Self::with_plan(tile_matrices, &plan)
    }

    /// Builds a session with an explicit per-layer backend plan; `Auto`
    /// entries are resolved by the default [`AutoPlanner`] over the
    /// standard registry.
    ///
    /// # Panics
    /// Panics on an empty or non-composing chain, or if `plan.len()`
    /// differs from the number of layers.
    pub fn with_plan(tile_matrices: Vec<TileWiseMatrix>, plan: &[Backend]) -> Self {
        Self::with_plan_in(
            tile_matrices,
            plan,
            &KernelRegistry::standard(),
            &AutoPlanner::default(),
        )
    }

    /// [`Self::with_plan`] against a caller-supplied registry and
    /// auto-planner — the hook for custom kernel families and custom cost
    /// models.
    pub fn with_plan_in(
        tile_matrices: Vec<TileWiseMatrix>,
        plan: &[Backend],
        registry: &KernelRegistry,
        auto: &AutoPlanner,
    ) -> Self {
        let names: Vec<&str> = plan.iter().map(Backend::as_str).collect();
        Self::with_named_plan(tile_matrices, &names, registry, auto)
    }

    /// The most general constructor: one registered kernel-family name per
    /// layer (`"auto"` delegates that layer to the auto-planner).  Names
    /// outside [`Backend`]'s vocabulary work as long as they are registered,
    /// which is how downstream kernel families plug in.
    ///
    /// # Panics
    /// Panics on an empty or non-composing chain, a plan length mismatch,
    /// or an unregistered family name.
    pub fn with_named_plan(
        tile_matrices: Vec<TileWiseMatrix>,
        plan: &[&str],
        registry: &KernelRegistry,
        auto: &AutoPlanner,
    ) -> Self {
        assert!(!tile_matrices.is_empty(), "a session needs at least one layer");
        assert_eq!(plan.len(), tile_matrices.len(), "one backend selection per layer");
        for (i, pair) in tile_matrices.windows(2).enumerate() {
            assert_eq!(
                pair[0].n(),
                pair[1].k(),
                "layer {} output dim must feed layer {} input dim",
                i,
                i + 1
            );
        }
        let layers = tile_matrices
            .into_iter()
            .zip(plan)
            .map(|(tile, &name)| {
                let (kernel, modelled) = if name == Backend::Auto.as_str() {
                    let choice = auto.choose(registry, &tile);
                    (choice.kernel, choice.modelled)
                } else {
                    let kernel = registry.build(name, &tile).unwrap_or_else(|| {
                        panic!(
                            "backend {name:?} is not registered (available: {})",
                            registry.names().join(", ")
                        )
                    });
                    let modelled = ModelledFamily::of(kernel.as_ref());
                    (kernel, modelled)
                };
                SessionLayer {
                    k: tile.k(),
                    n: tile.n(),
                    kept_elements: tile.kept_elements(),
                    kernel,
                    modelled,
                }
            })
            .collect();
        Self {
            layers,
            planner: ExecutionPlanner::v100(),
            exec_config: ExecutionConfig::optimized(CoreKind::TensorCore),
        }
    }

    /// Re-prices the session on `device` (V100 calibration constants):
    /// every subsequent [`Self::plan_batch`] / [`Self::dwell_model`] call
    /// uses that device's cost model, which is how heterogeneous serving
    /// replicas simulate different accelerator generations behind one
    /// router.  Devices without tensor cores fall back to CUDA-core
    /// execution.  Kernel *plans* already resolved (including `Auto`
    /// selections made at construction) are unchanged — only the pricing
    /// moves.
    pub fn with_device(mut self, device: GpuDevice) -> Self {
        if !device.has_tensor_cores() {
            self.exec_config = ExecutionConfig::optimized(CoreKind::CudaCore);
        }
        self.planner = ExecutionPlanner::new(CostModel::new(device, Calibration::v100_defaults()));
        self
    }

    /// The device the session's batches are priced on.
    pub fn device(&self) -> &GpuDevice {
        self.planner.cost_model().device()
    }

    /// Builds a session from a [`PrunedModel`] produced by the high-level
    /// pruning pipeline.
    pub fn from_pruned(pruned: &PrunedModel, backend: Backend) -> Self {
        Self::new(pruned.tile_matrices.clone(), backend)
    }

    /// Freshly pruned random square-ish layers — the synthetic chain the
    /// serving benchmarks, examples and tests drive.  `dims` lists the
    /// activation dimensions, so `dims = [64, 96, 32]` builds two weight
    /// matrices (64x96 and 96x32).
    pub fn synthetic_tiles(
        dims: &[usize],
        sparsity: f64,
        granularity: usize,
        seed: u64,
    ) -> Vec<TileWiseMatrix> {
        assert!(dims.len() >= 2, "need at least input and output dims");
        use tw_pruning::{tw, ImportanceScores, SparsityTarget, TileWiseConfig};
        dims.windows(2)
            .enumerate()
            .map(|(i, pair)| {
                let weights = Matrix::random_normal(pair[0], pair[1], 1.0, seed + i as u64);
                let scores = ImportanceScores::magnitude(&weights);
                let mask = tw::prune(
                    &scores,
                    &TileWiseConfig::with_granularity(granularity),
                    SparsityTarget::new(sparsity),
                );
                TileWiseMatrix::from_mask(&weights, &mask)
            })
            .collect()
    }

    /// A self-contained session over [`Self::synthetic_tiles`].
    pub fn synthetic_chain(
        dims: &[usize],
        sparsity: f64,
        granularity: usize,
        seed: u64,
        backend: Backend,
    ) -> Self {
        Self::new(Self::synthetic_tiles(dims, sparsity, granularity, seed), backend)
    }

    /// The kernel family every layer runs on the host, in layer order.
    /// `Auto` layers name the family the auto-planner timed fastest.
    pub fn layer_backends(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.kernel.name()).collect()
    }

    /// The family the device model prices every layer as, in layer order.
    /// Equal to [`Self::layer_backends`] except where an `Auto` layer's
    /// cost-model pick differs from the kernel the host runs.
    pub fn modelled_backends(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.modelled.name).collect()
    }

    /// Compact `a,b,c` rendering of the plan for reports; a layer whose
    /// modelled family differs from its host kernel reads
    /// `tile-wise (model: bsr)`.
    pub fn plan_summary(&self) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|l| match (l.kernel.name(), l.modelled.name) {
                (host, model) if host == model => host.to_string(),
                (host, model) => format!("{host} (model: {model})"),
            })
            .collect();
        layers.join(",")
    }

    /// Bytes of the modelled families' weight forms — what a simulated
    /// device keeps resident per serving replica.
    pub fn resident_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.modelled.resident_bytes).sum()
    }

    /// Per-layer breakdown of [`Self::resident_bytes`], in layer order —
    /// the footprint source a memory manager (`tw-memory`) derives its
    /// paging tiles from.
    pub fn layer_resident_bytes(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.modelled.resident_bytes).collect()
    }

    /// Number of weight layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Expected per-request input length.
    pub fn input_dim(&self) -> usize {
        self.layers[0].k
    }

    /// Per-request output length.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].n
    }

    /// Overall element sparsity across the chain.
    pub fn sparsity(&self) -> f64 {
        let total: usize = self.layers.iter().map(|l| l.k * l.n).sum();
        let kept: usize = self.layers.iter().map(|l| l.kept_elements).sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - kept as f64 / total as f64
    }

    /// One batched forward pass: each row of `inputs` is a request, each row
    /// of the result is its output.  Hidden layers apply ReLU; the final
    /// layer is linear.
    ///
    /// # Panics
    /// Panics if `inputs.cols() != self.input_dim()`.
    pub fn forward_batch(&self, inputs: &Matrix) -> Matrix {
        assert_eq!(
            inputs.cols(),
            self.input_dim(),
            "request payload length must match the model input dim"
        );
        let (first, rest) = self.layers.split_first().expect("a session has at least one layer");
        let mut x = first.kernel.forward_batch(inputs);
        for layer in rest {
            relu_in_place(&mut x);
            x = layer.kernel.forward_batch(&x);
        }
        x
    }

    /// Convenience single-request forward pass.
    pub fn forward_one(&self, input: &[f32]) -> Vec<f32> {
        let x = Matrix::from_rows(&[input]);
        self.forward_batch(&x).into_vec()
    }

    /// The GEMM workload one batch of `batch_size` requests induces, in the
    /// shape the execution planner prices.
    pub fn workload_for_batch(&self, batch_size: usize) -> Workload {
        let prunable = self
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| PrunableGemm {
                name: format!("serve.layer{i}"),
                m: batch_size,
                k: layer.k,
                n: layer.n,
            })
            .collect();
        Workload {
            kind: ModelKind::Mlp,
            name: format!("serving chain (batch {batch_size})"),
            prunable,
            fixed_gemms: Vec::new(),
            aux_ops: Vec::new(),
        }
    }

    /// Prices one batch on the GPU cost model, with each layer executed as
    /// its modelled family.
    pub fn plan_batch(&self, batch_size: usize) -> RunCounters {
        let workload = self.workload_for_batch(batch_size);
        let execs: Vec<WeightExecution> =
            self.layers.iter().map(|layer| layer.modelled.execution.clone()).collect();
        self.planner.plan_model(&workload, &execs, &self.exec_config)
    }

    /// Simulated device seconds for one batch of `batch_size` requests — the
    /// number a serving worker dwells on to model GPU occupancy.
    pub fn simulated_batch_seconds(&self, batch_size: usize) -> f64 {
        if batch_size == 0 {
            return 0.0;
        }
        self.plan_batch(batch_size).total_time()
    }

    /// A memoized per-batch-size dwell table for batch sizes `1..=max_batch`
    /// — the prediction hook the serving layer's admission controller and
    /// deadline-aware batcher consult on every request, where re-running the
    /// planner would be far too slow for the hot path.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn dwell_model(&self, max_batch: usize) -> DwellModel {
        assert!(max_batch > 0, "dwell model needs at least batch size 1");
        DwellModel { seconds: (1..=max_batch).map(|b| self.simulated_batch_seconds(b)).collect() }
    }

    /// The modelled win of dynamic batching itself: device time of
    /// `batch_size` *independent* single-request forward passes overlapped
    /// across `streams` CUDA streams, divided by the device time of the same
    /// requests fused into one batched kernel sequence.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero (delegated from the stream scheduler)
    /// or `streams` is zero.
    pub fn batching_speedup(&self, batch_size: usize, streams: usize) -> f64 {
        let single = self.plan_batch(1).total_time();
        let unbatched = StreamSim::new(streams).schedule_uniform(single, batch_size).makespan();
        unbatched / self.simulated_batch_seconds(batch_size)
    }
}

/// A precomputed table of simulated device seconds per batch size, built by
/// [`InferenceSession::dwell_model`].  This is the cost-model hook the
/// serving layer schedules against: predicting how long a batch will occupy
/// the device answers both "can this request still meet its deadline?"
/// (admission control) and "how long dare the batcher keep waiting?"
/// (deadline-aware batch close) without touching the planner at runtime.
#[derive(Clone, Debug)]
pub struct DwellModel {
    /// `seconds[i]` prices a batch of `i + 1` requests.
    seconds: Vec<f64>,
}

impl DwellModel {
    /// A table from explicit per-batch-size prices — `seconds[i]` prices a
    /// batch of `i + 1` requests.  [`InferenceSession::dwell_model`] is the
    /// cost-model-backed constructor; this one exists so schedulers and
    /// tests can probe the prediction math against hand-picked tables.
    ///
    /// # Panics
    /// Panics if `seconds` is empty or contains a negative or non-finite
    /// price.
    pub fn from_seconds(seconds: Vec<f64>) -> Self {
        assert!(!seconds.is_empty(), "dwell model needs at least batch size 1");
        assert!(
            seconds.iter().all(|s| s.is_finite() && *s >= 0.0),
            "dwell prices must be finite and non-negative"
        );
        Self { seconds }
    }

    /// Largest batch size the table covers.
    pub fn max_batch(&self) -> usize {
        self.seconds.len()
    }

    /// Predicted device seconds to clear a backlog of `queued` requests
    /// batched at `max_batch` across `workers` — the probe a load balancer
    /// or autoscaler prices a replica's queue with.  Mirrors the admission
    /// controller's wait prediction: only *full* batches ahead count (a
    /// request arriving behind a partial batch joins it), and those batches
    /// spread round-robin over the pool.
    ///
    /// # Panics
    /// Panics if `max_batch` or `workers` is zero.
    pub fn backlog_seconds(&self, queued: usize, max_batch: usize, workers: usize) -> f64 {
        assert!(max_batch > 0, "backlog prediction needs a positive batch size");
        assert!(workers > 0, "backlog prediction needs at least one worker");
        let full_batches = queued / max_batch;
        let rounds = full_batches.div_ceil(workers);
        rounds as f64 * self.seconds_for(max_batch)
    }

    /// Simulated device seconds for a batch of `batch_size` requests.
    /// A `batch_size` of zero costs nothing; sizes beyond the table are
    /// extrapolated linearly from the largest entry's per-request cost
    /// (batching only amortizes, so this never underestimates).
    pub fn seconds_for(&self, batch_size: usize) -> f64 {
        if batch_size == 0 {
            return 0.0;
        }
        if batch_size <= self.seconds.len() {
            return self.seconds[batch_size - 1];
        }
        let max = self.seconds.len();
        self.seconds[max - 1] * batch_size as f64 / max as f64
    }
}

fn relu_in_place(x: &mut Matrix) {
    for v in x.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_tensor::DEFAULT_TOL;

    fn session(backend: Backend) -> InferenceSession {
        InferenceSession::synthetic_chain(&[48, 64, 32], 0.6, 16, 42, backend)
    }

    fn plan_session(plan: &[Backend]) -> InferenceSession {
        let tiles = InferenceSession::synthetic_tiles(&[48, 64, 32], 0.6, 16, 42);
        InferenceSession::with_plan(tiles, plan)
    }

    #[test]
    fn dims_and_sparsity_are_consistent() {
        let s = session(Backend::TileWise);
        assert_eq!(s.num_layers(), 2);
        assert_eq!(s.input_dim(), 48);
        assert_eq!(s.output_dim(), 32);
        assert!((s.sparsity() - 0.6).abs() < 0.05, "sparsity {}", s.sparsity());
        assert_eq!(s.layer_backends(), vec!["tile-wise", "tile-wise"]);
        assert_eq!(s.modelled_backends(), s.layer_backends());
        assert_eq!(s.plan_summary(), "tile-wise,tile-wise");
        assert!(s.resident_bytes() > 0);
    }

    #[test]
    fn resident_bytes_are_pinned_at_the_benchmark_shapes() {
        // The benchmark's `weights_mb` figures: the 512-1024-512 host model
        // (auto models it as [bsr,bsr], whatever kernel the host runs) and
        // the fleet's three 192-192-96 models (pruning seeds 42, 1042,
        // 2042), all at 75% sparsity with G = 32.  Kernel rewrites must not
        // change any family's footprint.
        let host = InferenceSession::synthetic_tiles(&[512, 1024, 512], 0.75, 32, 42);
        let auto = InferenceSession::with_plan(host.clone(), &[Backend::Auto; 2]);
        assert_eq!(auto.modelled_backends(), vec!["bsr", "bsr"]);
        assert_eq!(auto.resident_bytes(), 4_198_600);
        // The device side of an auto session is exactly the fixed BSR plan.
        let bsr = InferenceSession::with_plan(host.clone(), &[Backend::Bsr; 2]);
        let bits = |s: &InferenceSession| -> Vec<u64> {
            s.dwell_model(8).seconds.iter().map(|t| t.to_bits()).collect()
        };
        assert_eq!(bits(&auto), bits(&bsr));
        assert_eq!(auto.layer_resident_bytes(), bsr.layer_resident_bytes());
        let fleet: Vec<Vec<TileWiseMatrix>> = (0..3)
            .map(|i| InferenceSession::synthetic_tiles(&[192, 192, 96], 0.75, 32, 42 + 1000 * i))
            .collect();
        for (backend, host_bytes, fleet_bytes) in [
            (Backend::Dense, 4_194_304, 663_552),
            (Backend::TileWise, 1_134_336, 181_584),
            (Backend::Csr, 2_103_304, 335_832),
            (Backend::Bsr, 4_198_600, 664_368),
        ] {
            let bytes = |tiles: &[TileWiseMatrix]| {
                InferenceSession::with_plan(tiles.to_vec(), &[backend; 2]).resident_bytes()
            };
            assert_eq!(bytes(&host), host_bytes, "{backend} on the host model");
            let fleet_total: usize = fleet.iter().map(|tiles| bytes(tiles)).sum();
            assert_eq!(fleet_total, fleet_bytes, "{backend} on the fleet models");
        }
    }

    #[test]
    fn backends_agree_on_batched_inference() {
        let dense = session(Backend::Dense);
        let inputs = Matrix::random_uniform(9, 48, 1.0, 7);
        let reference = dense.forward_batch(&inputs);
        for backend in [Backend::TileWise, Backend::Csr, Backend::Bsr, Backend::Auto] {
            let s = session(backend);
            assert!(
                s.forward_batch(&inputs).approx_eq(&reference, DEFAULT_TOL),
                "{backend} disagrees with dense"
            );
        }
    }

    #[test]
    fn heterogeneous_plans_match_dense_reference() {
        let dense = session(Backend::Dense);
        let inputs = Matrix::random_uniform(6, 48, 1.0, 13);
        let reference = dense.forward_batch(&inputs);
        let mixed = plan_session(&[Backend::Csr, Backend::Bsr]);
        assert_eq!(mixed.layer_backends(), vec!["csr", "bsr"]);
        assert!(mixed.forward_batch(&inputs).approx_eq(&reference, DEFAULT_TOL));
        let with_auto = plan_session(&[Backend::Auto, Backend::Dense]);
        assert_eq!(with_auto.layer_backends()[1], "dense");
        assert_ne!(with_auto.layer_backends()[0], "auto", "auto must resolve to a family");
        assert!(with_auto.forward_batch(&inputs).approx_eq(&reference, DEFAULT_TOL));
    }

    #[test]
    fn auto_sessions_report_resolved_families() {
        let s = session(Backend::Auto);
        for name in s.layer_backends().into_iter().chain(s.modelled_backends()) {
            assert_ne!(name, "auto");
        }
        // The auto plan prices each batch no worse than the all-dense plan.
        let dense = session(Backend::Dense);
        let auto_t = s.simulated_batch_seconds(8);
        let dense_t = dense.simulated_batch_seconds(8);
        assert!(auto_t <= dense_t * 1.05, "auto {auto_t} vs dense {dense_t}");
    }

    #[test]
    fn batched_rows_match_single_requests() {
        let s = session(Backend::TileWise);
        let inputs = Matrix::random_uniform(5, 48, 1.0, 9);
        let batched = s.forward_batch(&inputs);
        for r in 0..inputs.rows() {
            let single = s.forward_one(inputs.row(r));
            let batched_row = batched.row(r);
            for (a, b) in single.iter().zip(batched_row) {
                assert!(tw_tensor::approx_eq(*a, *b, DEFAULT_TOL), "row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn from_pruned_wires_the_pipeline_output() {
        use crate::pruner::{TileWisePruner, TileWisePrunerConfig};
        use tw_pruning::LayerSet;
        let mut layers = LayerSet::new(
            vec!["a".into(), "b".into()],
            vec![Matrix::random_normal(32, 48, 1.0, 1), Matrix::random_normal(48, 16, 1.0, 2)],
        );
        let pruner = TileWisePruner::new(TileWisePrunerConfig {
            granularity: 16,
            target_sparsity: 0.5,
            stages: 1,
            importance: tw_pruning::ImportanceMethod::Magnitude,
            apriori: None,
            fine_tune_recovery: 0.0,
        });
        let pruned = pruner.prune(&mut layers);
        let session = InferenceSession::from_pruned(&pruned, Backend::TileWise);
        assert_eq!(session.input_dim(), 32);
        assert_eq!(session.output_dim(), 16);
        let out = session.forward_one(&[0.5; 32]);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn plan_batch_prices_every_layer() {
        let s = session(Backend::TileWise);
        let run = s.plan_batch(8);
        // Boundary transposes + one TW GEMM per layer.
        assert!(run.kernel_count() >= s.num_layers());
        assert!(run.total_time() > 0.0);
    }

    #[test]
    fn plan_batch_prices_heterogeneous_kernels() {
        let s = plan_session(&[Backend::Bsr, Backend::Csr]);
        let run = s.plan_batch(8);
        let names: Vec<&str> = run.kernels().iter().map(|k| k.name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("bsr")), "missing bsr kernel in {names:?}");
        assert!(names.iter().any(|n| n.contains("csr")), "missing csr kernel in {names:?}");
    }

    #[test]
    fn batching_beats_streamed_singles() {
        // Fusing 16 requests into one batched kernel sequence must beat 16
        // independent single-request passes, even when the singles overlap
        // across the V100's streams — kernel-launch overhead and wave
        // quantization dominate tiny GEMMs.
        let s = session(Backend::TileWise);
        let speedup = s.batching_speedup(16, 4);
        assert!(speedup > 1.0, "batching speedup {speedup}");
    }

    #[test]
    fn simulated_time_grows_with_batch_size() {
        let s = session(Backend::TileWise);
        let t1 = s.simulated_batch_seconds(1);
        let t64 = s.simulated_batch_seconds(64);
        assert!(t64 > t1, "batch 64 ({t64}) should cost more than batch 1 ({t1})");
        assert_eq!(s.simulated_batch_seconds(0), 0.0);
        // Batching amortizes: 64 requests in one batch beat 64 singles.
        assert!(t64 < 64.0 * t1);
    }

    #[test]
    fn dwell_model_memoizes_the_planner() {
        let s = session(Backend::TileWise);
        let model = s.dwell_model(8);
        assert_eq!(model.max_batch(), 8);
        for b in 1..=8 {
            assert_eq!(model.seconds_for(b), s.simulated_batch_seconds(b), "batch {b}");
        }
        assert_eq!(model.seconds_for(0), 0.0);
        // Extrapolation beyond the table never undercuts the real price —
        // batching amortizes, so per-request cost at 16 <= per-request at 8.
        assert!(model.seconds_for(16) >= s.simulated_batch_seconds(16));
        // And it stays monotone in batch size.
        assert!(model.seconds_for(16) >= model.seconds_for(8));
    }

    #[test]
    #[should_panic(expected = "at least batch size 1")]
    fn zero_dwell_table_rejected() {
        let _ = session(Backend::Dense).dwell_model(0);
    }

    #[test]
    fn with_device_reprices_without_replanning() {
        let tiles = InferenceSession::synthetic_tiles(&[48, 64, 32], 0.6, 16, 42);
        let v100 = InferenceSession::with_plan(tiles.clone(), &[Backend::TileWise; 2]);
        let a100 = InferenceSession::with_plan(tiles.clone(), &[Backend::TileWise; 2])
            .with_device(GpuDevice::a100_like());
        let midrange = InferenceSession::with_plan(tiles, &[Backend::TileWise; 2])
            .with_device(GpuDevice::cuda_only_midrange());
        assert_eq!(v100.device().name, "Tesla V100");
        assert_eq!(a100.device().name, "A100-like");
        // The kernel plan is untouched; only the pricing moves.
        assert_eq!(a100.layer_backends(), v100.layer_backends());
        // A faster device prices the same batch cheaper, a slower one
        // costlier.
        let batch = 8;
        assert!(a100.simulated_batch_seconds(batch) < v100.simulated_batch_seconds(batch));
        assert!(midrange.simulated_batch_seconds(batch) > v100.simulated_batch_seconds(batch));
        // Functional output is identical — the device is a pricing concern.
        let inputs = Matrix::random_uniform(4, 48, 1.0, 3);
        assert!(a100
            .forward_batch(&inputs)
            .approx_eq(&v100.forward_batch(&inputs), tw_tensor::DEFAULT_TOL));
    }

    #[test]
    fn backlog_probe_mirrors_admission_math() {
        let model = DwellModel::from_seconds(vec![1.0, 1.5, 2.0, 2.5]);
        assert_eq!(model.max_batch(), 4);
        // No full batch ahead => no wait.
        assert_eq!(model.backlog_seconds(3, 4, 2), 0.0);
        // One full batch over two workers is one round.
        assert_eq!(model.backlog_seconds(4, 4, 2), 2.5);
        // Three full batches over two workers are two rounds.
        assert_eq!(model.backlog_seconds(12, 4, 2), 5.0);
        // More workers clear the same backlog in fewer rounds.
        assert!(model.backlog_seconds(16, 4, 4) < model.backlog_seconds(16, 4, 1));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_dwell_price_rejected() {
        let _ = DwellModel::from_seconds(vec![0.5, -1.0]);
    }

    #[test]
    #[should_panic(expected = "must feed")]
    fn mismatched_chain_rejected() {
        let a = InferenceSession::synthetic_tiles(&[16, 24], 0.5, 8, 1);
        let b = InferenceSession::synthetic_tiles(&[32, 16], 0.5, 8, 2);
        let _ = InferenceSession::new(vec![a[0].clone(), b[0].clone()], Backend::Dense);
    }

    #[test]
    #[should_panic(expected = "one backend selection per layer")]
    fn plan_length_mismatch_rejected() {
        let tiles = InferenceSession::synthetic_tiles(&[16, 24, 8], 0.5, 8, 3);
        let _ = InferenceSession::with_plan(tiles, &[Backend::Dense]);
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn unregistered_backend_rejected() {
        let tiles = InferenceSession::synthetic_tiles(&[16, 24], 0.5, 8, 4);
        let _ = InferenceSession::with_named_plan(
            tiles,
            &["warp-speed"],
            &KernelRegistry::standard(),
            &AutoPlanner::default(),
        );
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_input_dim_rejected() {
        let s = session(Backend::Dense);
        let _ = s.forward_batch(&Matrix::zeros(2, 5));
    }
}
