//! The worker pool: threads that turn batches into responses.
//!
//! Each worker loops on the shared [`SloBatcher`], resolves the (model-pure)
//! batch's [`ModelRuntime`], fuses the payloads into one activation matrix
//! (via `tw_tensor::batch`), runs the session's batched forward pass on the
//! CPU — each layer through whatever [`tilewise::KernelBackend`] its plan
//! bound — then, when configured, dwells for the batch's simulated device
//! time, exactly as a real worker blocks on an accelerator.
//!
//! With memory management active the dwell gains a **cold-miss component**:
//! before executing, the worker acquires the model's weight tiles from the
//! shared [`TileCache`], and any tiles not resident are paged in over the
//! device's PCIe profile — the returned transfer seconds are added to the
//! batch's dwell and the batch is marked *cold*.  Tiles stay pinned until
//! the batch completes, so a concurrent batch of another model can never
//! evict weights mid-execution.
//!
//! Completion stamps each response with its request's class, model, the
//! batch's cold/warm outcome and — for SLO classes — whether it beat its
//! deadline, feeding the per-class goodput and per-model cold-start
//! accounting in [`crate::ServeReport`].

use crate::batcher::SloBatcher;
use crate::config::ServeConfig;
use crate::request::InferenceResponse;
use crate::stats::WorkerStats;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tilewise::{DwellModel, InferenceSession};
use tw_memory::{TileCache, WeightTile};
use tw_tensor::batch::stack_rows;

/// One servable model as the workers see it: the executable session, its
/// memoized dwell table, and the weight tiles the cache pages for it.
#[derive(Clone, Debug)]
pub struct ModelRuntime {
    /// Model name from the registry.
    pub name: String,
    /// The executable forward pass.
    pub session: Arc<InferenceSession>,
    /// Cost-model dwell table at the server's max batch size.
    pub dwell: DwellModel,
    /// The model's pageable weight tiles (empty when memory management is
    /// off — nothing to acquire).
    pub tiles: Vec<WeightTile>,
}

/// Handle over the pool's threads; joined at shutdown.
pub struct WorkerPool {
    handles: Vec<JoinHandle<WorkerStats>>,
}

impl WorkerPool {
    /// Spawns `config.workers` threads draining `batcher` into `responses`,
    /// resolving each batch's model in `models` (indexed by
    /// [`crate::request::ModelId`]) and paging weights through `memory`
    /// when present.
    ///
    /// Worker threads exit when the batcher's queue is closed and drained;
    /// they stop sending silently if the response receiver is dropped early.
    pub fn spawn(
        models: Arc<Vec<ModelRuntime>>,
        memory: Option<Arc<Mutex<TileCache>>>,
        batcher: Arc<SloBatcher>,
        config: &ServeConfig,
        responses: Sender<InferenceResponse>,
    ) -> Self {
        let handles = (0..config.workers)
            .map(|worker| {
                let models = Arc::clone(&models);
                let memory = memory.clone();
                let batcher = Arc::clone(&batcher);
                let responses = responses.clone();
                let dwell = config.gpu_dwell;
                std::thread::Builder::new()
                    .name(format!("tw-serve-worker-{worker}"))
                    .spawn(move || {
                        run_worker(worker, &models, memory.as_deref(), &batcher, dwell, &responses)
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { handles }
    }

    /// Waits for every worker to finish and returns their counters.
    pub fn join(self) -> Vec<WorkerStats> {
        self.handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    }
}

fn run_worker(
    worker: usize,
    models: &[ModelRuntime],
    memory: Option<&Mutex<TileCache>>,
    batcher: &SloBatcher,
    dwell: Option<crate::config::GpuDwell>,
    responses: &Sender<InferenceResponse>,
) -> WorkerStats {
    let mut stats = WorkerStats { worker, ..WorkerStats::default() };

    while let Some(batch) = batcher.next_batch() {
        let model_id = batch[0].model;
        debug_assert!(batch.iter().all(|r| r.model == model_id), "batches are model-pure");
        let runtime = &models[model_id];

        // Cold-miss phase: make the model's tiles resident and pinned.
        // The cache lock covers only the residency bookkeeping — the
        // (simulated) transfer itself is served as dwell below, so
        // concurrent workers do not serialize on each other's copies.
        let acquisition =
            memory.map(|cache| cache.lock().expect("tile cache poisoned").acquire(&runtime.tiles));

        let cpu_start = Instant::now();
        let rows: Vec<&[f32]> = batch.iter().map(|r| r.payload.as_slice()).collect();
        let inputs = stack_rows(&rows);
        let outputs = runtime.session.forward_batch(&inputs);
        stats.cpu_busy += cpu_start.elapsed();

        // The simulated device time depends only on batch size; the shared
        // table keeps the planner out of the hot loop.  Cold batches add
        // their PCIe transfer time on top — that is the cold-start cost.
        let kernel_s = runtime.dwell.seconds_for(batch.len());
        let transfer_s = acquisition.map_or(0.0, |a| a.transfer_seconds);
        let cold = acquisition.is_some_and(|a| a.is_cold());
        stats.sim_gpu_s += kernel_s;
        stats.transfer_sim_s += transfer_s;
        if let Some(a) = acquisition {
            stats.bytes_paged += a.bytes_transferred;
        }
        if cold {
            stats.cold_batches += 1;
        }
        if let Some(dwell) = dwell {
            let wait = (kernel_s + transfer_s) * dwell.time_scale;
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
        }
        if let Some(cache) = memory {
            cache.lock().expect("tile cache poisoned").release(&runtime.tiles);
        }

        stats.batches += 1;
        stats.requests += batch.len();
        let batch_size = batch.len();
        let completed_at = Instant::now();
        for (i, request) in batch.into_iter().enumerate() {
            let response = InferenceResponse {
                id: request.id,
                output: outputs.row(i).to_vec(),
                latency: completed_at.saturating_duration_since(request.submitted_at),
                batch_size,
                worker,
                class: request.class,
                model: model_id,
                cold,
                deadline_met: request.deadline.map(|d| completed_at <= d),
            };
            if responses.send(response).is_err() {
                // Receiver dropped: the server is being torn down early;
                // keep draining so submitters are not wedged on a full queue.
                break;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::PriorityQueue;
    use crate::request::InferenceRequest;
    use std::collections::HashMap;
    use std::sync::mpsc;
    use tilewise::Backend;
    use tw_gpu_sim::TransferCost;
    use tw_memory::{MemoryPool, ModelRegistry, PolicyKind};

    fn tiny_session() -> Arc<InferenceSession> {
        Arc::new(InferenceSession::synthetic_chain(&[24, 32, 16], 0.5, 8, 3, Backend::TileWise))
    }

    fn runtime(session: Arc<InferenceSession>, tiles: Vec<WeightTile>) -> ModelRuntime {
        let dwell = session.dwell_model(4);
        ModelRuntime { name: "default".into(), session, dwell, tiles }
    }

    fn spawn_pool(
        workers: usize,
        capacity: usize,
    ) -> (Arc<SloBatcher>, WorkerPool, mpsc::Receiver<InferenceResponse>) {
        let session = tiny_session();
        let queue = Arc::new(PriorityQueue::new(2, capacity));
        let batcher = Arc::new(SloBatcher::new(queue, 4, Duration::from_millis(2), Duration::ZERO));
        let (tx, rx) = mpsc::channel();
        let config = ServeConfig {
            workers,
            max_batch_size: 4,
            queue_capacity: capacity,
            ..ServeConfig::default()
        };
        let models = Arc::new(vec![runtime(session, Vec::new())]);
        let pool = WorkerPool::spawn(models, None, Arc::clone(&batcher), &config, tx);
        (batcher, pool, rx)
    }

    #[test]
    fn workers_complete_all_requests_and_exit_on_close() {
        let (batcher, pool, rx) = spawn_pool(2, 64);
        for id in 0..20 {
            batcher.queue().push(0, InferenceRequest::new(id, vec![0.1; 24])).unwrap();
        }
        batcher.queue().close();
        let stats = pool.join();
        let responses: Vec<InferenceResponse> = rx.try_iter().collect();
        assert_eq!(responses.len(), 20);
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        assert!(responses.iter().all(|r| r.output.len() == 16));
        assert!(responses.iter().all(|r| r.batch_size >= 1 && r.batch_size <= 4));
        assert!(responses.iter().all(|r| r.class == 0 && r.deadline_met.is_none()));
        assert!(responses.iter().all(|r| r.model == 0 && !r.cold), "no paging configured");
        assert_eq!(stats.iter().map(|s| s.requests).sum::<usize>(), 20);
        assert_eq!(
            stats.iter().map(|s| s.batches).sum::<usize>(),
            responses.iter().map(|r| 1.0 / r.batch_size as f64).sum::<f64>().round() as usize,
        );
        assert!(stats.iter().all(|s| s.sim_gpu_s >= 0.0));
        assert!(stats.iter().all(|s| s.bytes_paged == 0 && s.cold_batches == 0));
    }

    #[test]
    fn responses_match_direct_session_output() {
        let session = tiny_session();
        let (batcher, pool, rx) = spawn_pool(1, 16);
        let payload: Vec<f32> = (0..24).map(|i| (i as f32) * 0.05 - 0.5).collect();
        batcher.queue().push(0, InferenceRequest::new(1, payload.clone())).unwrap();
        batcher.queue().close();
        pool.join();
        let response = rx.try_iter().next().expect("one response");
        let expected = session.forward_one(&payload);
        assert_eq!(response.output.len(), expected.len());
        for (a, b) in response.output.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn responses_report_deadline_outcomes() {
        let (batcher, pool, rx) = spawn_pool(1, 16);
        // A generous SLO that completes in time, and one that already
        // expired at submission.
        let roomy = InferenceRequest::classed(1, vec![0.1; 24], 0, Some(Duration::from_secs(60)));
        let expired = InferenceRequest::classed(2, vec![0.1; 24], 1, Some(Duration::ZERO));
        batcher.queue().push(0, roomy).unwrap();
        batcher.queue().push(1, expired).unwrap();
        batcher.queue().close();
        pool.join();
        let responses: Vec<InferenceResponse> = rx.try_iter().collect();
        assert_eq!(responses.len(), 2);
        let by_id: HashMap<u64, &InferenceResponse> = responses.iter().map(|r| (r.id, r)).collect();
        assert_eq!(by_id[&1].deadline_met, Some(true));
        assert_eq!(by_id[&1].class, 0);
        assert_eq!(by_id[&2].deadline_met, Some(false));
        assert_eq!(by_id[&2].class, 1);
    }

    #[test]
    fn cold_batches_page_then_warm_batches_hit() {
        // Two models behind one pool with a cache big enough for both: the
        // first batch of each model is cold, the rest are warm hits.
        let sessions = [tiny_session(), tiny_session()];
        let mut registry = ModelRegistry::with_page_bytes(1024);
        let m0 = registry.register("m0", 1, Arc::clone(&sessions[0]));
        let m1 = registry.register("m1", 1, Arc::clone(&sessions[1]));
        let models = Arc::new(vec![
            runtime(Arc::clone(&sessions[0]), registry.get(m0).tiles().to_vec()),
            runtime(Arc::clone(&sessions[1]), registry.get(m1).tiles().to_vec()),
        ]);
        let cache = Arc::new(Mutex::new(TileCache::new(
            MemoryPool::new(registry.total_footprint()),
            TransferCost::new(1.0e9, 1.0e-6),
            PolicyKind::Lru.build(),
        )));
        let queue = Arc::new(PriorityQueue::new(1, 64));
        let batcher = Arc::new(SloBatcher::new(queue, 4, Duration::from_millis(2), Duration::ZERO));
        let (tx, rx) = mpsc::channel();
        let config =
            ServeConfig { workers: 1, max_batch_size: 4, queue_capacity: 64, ..Default::default() };
        let pool =
            WorkerPool::spawn(models, Some(Arc::clone(&cache)), Arc::clone(&batcher), &config, tx);
        for round in 0..4u64 {
            for (id_offset, model) in [(0, m0), (100, m1)] {
                batcher
                    .queue()
                    .push(
                        0,
                        InferenceRequest::for_model(
                            round + id_offset,
                            model,
                            vec![0.1; 24],
                            0,
                            None,
                        ),
                    )
                    .unwrap();
            }
        }
        batcher.queue().close();
        let stats = pool.join();
        let responses: Vec<InferenceResponse> = rx.try_iter().collect();
        assert_eq!(responses.len(), 8);
        let cold: Vec<&InferenceResponse> = responses.iter().filter(|r| r.cold).collect();
        assert!(!cold.is_empty(), "first touch of each model must be cold");
        assert!(cold.len() < responses.len(), "later batches must be warm");
        let total_paged: u64 = stats.iter().map(|s| s.bytes_paged).sum();
        assert_eq!(total_paged, registry.total_footprint(), "each model paged in exactly once");
        let cache = cache.lock().unwrap();
        assert_eq!(cache.stats().evictions, 0, "both models fit");
        assert!(stats.iter().map(|s| s.transfer_sim_s).sum::<f64>() > 0.0);
    }

    #[test]
    fn pool_with_closed_empty_queue_exits_immediately() {
        let (batcher, pool, _rx) = spawn_pool(3, 8);
        batcher.queue().close();
        let stats = pool.join();
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.batches == 0));
    }
}
