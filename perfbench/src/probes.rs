//! Layer probes outside the serve path, run on the workload's own model:
//! per-layer kernel, session-forward, batch-stacking and tile-cache call
//! times at batch 1 and 8 (measured), and the work each kernel call does
//! (computed from shapes and resident bytes).

use crate::report::Metrics;
use crate::stats::median;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilewise::planner::WeightExecution;
use tilewise::{InferenceSession, KernelRegistry, TileWiseMatrix};
use tw_gpu_sim::{GpuDevice, TransferCost};
use tw_memory::{MemoryPool, ModelRegistry, PolicyKind, TileCache};
use tw_tensor::{stack_rows, Matrix};

/// The batch size the serving workloads fill and the per-layer work is
/// computed at.
const FULL_BATCH: usize = 8;
/// Calls are timed in groups lasting at least this long, so timer overhead
/// stays negligible for sub-microsecond calls.
const GROUP_FLOOR: Duration = Duration::from_micros(200);
const MIN_GROUPS: usize = 11;
const MAX_GROUPS: usize = 101;
const PROBE_BUDGET: Duration = Duration::from_millis(100);

/// Median per-call time of `call` in microseconds, after one warm-up call.
pub fn median_call_us(mut call: impl FnMut()) -> f64 {
    call();
    let once = {
        let start = Instant::now();
        call();
        start.elapsed()
    };
    let per_group = (GROUP_FLOOR.as_nanos() / once.as_nanos().max(1)).clamp(1, 100_000) as u32;
    let started = Instant::now();
    let mut groups = Vec::new();
    while groups.len() < MIN_GROUPS
        || (groups.len() < MAX_GROUPS && started.elapsed() < PROBE_BUDGET)
    {
        let start = Instant::now();
        for _ in 0..per_group {
            call();
        }
        groups.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(per_group));
    }
    median(&groups)
}

/// Kernel, session and stacking probes.  `plan` is the session's resolved
/// family per layer; each layer's kernel is rebuilt from the standard
/// registry so the probe times exactly the family serving binds.
pub fn kernels(
    tiles: &[TileWiseMatrix],
    plan: &[&str],
    session: &InferenceSession,
    m: &mut Metrics,
) {
    let registry = KernelRegistry::standard();
    for (layer, (tile, family)) in tiles.iter().zip(plan).enumerate() {
        let kernel = registry.build(family, tile).expect("resolved family is registered");
        for rows in [FULL_BATCH, 1] {
            let x = Matrix::random_uniform(rows, tile.k(), 1.0, layer as u64 + 1);
            let us = median_call_us(|| {
                black_box(kernel.forward_batch(black_box(&x)));
            });
            m.put(format!("kernel.l{layer}.b{rows}_us"), us, "us");
        }
        let dense = (tile.k() * tile.n()) as f64;
        let weights = match kernel.execution() {
            WeightExecution::Dense => dense,
            WeightExecution::Csr { sparsity } => dense * (1.0 - sparsity),
            WeightExecution::Bsr { block_sparsity, .. } => dense * (1.0 - block_sparsity),
            WeightExecution::TileWise { .. } | WeightExecution::Tew { .. } => {
                tile.kept_elements() as f64
            }
        };
        let rows = FULL_BATCH as f64;
        m.put(format!("kernel.l{layer}.flop"), 2.0 * rows * weights, "flop");
        let activations = 4 * FULL_BATCH * (tile.k() + tile.n());
        m.put(
            format!("kernel.l{layer}.bytes"),
            (kernel.resident_bytes() + activations) as f64,
            "B",
        );
    }
    for rows in [FULL_BATCH, 1] {
        let x = Matrix::random_uniform(rows, session.input_dim(), 1.0, 99);
        let us = median_call_us(|| {
            black_box(session.forward_batch(black_box(&x)));
        });
        m.put(format!("session.forward_b{rows}_us"), us, "us");
    }
    let payloads = Matrix::random_uniform(FULL_BATCH, session.input_dim(), 1.0, 98);
    let rows: Vec<&[f32]> = (0..FULL_BATCH).map(|r| payloads.row(r)).collect();
    let us = median_call_us(|| {
        black_box(stack_rows(black_box(&rows)));
    });
    m.put("tensor.stack_rows_b8_us", us, "us");
}

/// `TileCache::acquire` + `release` of one model's tiles, warm (both probe
/// models fit, every tile hits) and thrashing (room for one model, two
/// alternate, so every acquire evicts and pages).
pub fn tile_cache(session: &Arc<InferenceSession>, m: &mut Metrics) {
    let mut registry = ModelRegistry::new();
    let a = registry.register("probe-a", 1, Arc::clone(session));
    let b = registry.register("probe-b", 1, Arc::clone(session));
    let footprint = registry.get(a).footprint();
    let (a, b) = (registry.get(a).tiles().to_vec(), registry.get(b).tiles().to_vec());
    let cache = |capacity: u64| {
        TileCache::new(
            MemoryPool::new(capacity),
            TransferCost::of(&GpuDevice::v100()),
            PolicyKind::Lru.build(),
        )
    };
    let mut warm = cache(2 * footprint);
    let us = median_call_us(|| {
        black_box(warm.acquire(&a));
        warm.release(&a);
    });
    m.put("memory.acquire_us.warm", us, "us");
    let mut thrash = cache(footprint);
    let mut flip = false;
    let us = median_call_us(|| {
        let tiles = if flip { &b } else { &a };
        flip = !flip;
        black_box(thrash.acquire(tiles));
        thrash.release(tiles);
    });
    m.put("memory.acquire_us.thrash", us, "us");
}

/// Times `calls` calls of `submit`, in seconds each.
pub fn time_calls(calls: usize, mut submit: impl FnMut(usize)) -> Vec<f64> {
    (0..calls)
        .map(|i| {
            let start = Instant::now();
            submit(i);
            start.elapsed().as_secs_f64()
        })
        .collect()
}
