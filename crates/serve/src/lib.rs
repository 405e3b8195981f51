//! `tw-serve` — a batched sparse-inference serving runtime with SLO-aware
//! admission control.
//!
//! The rest of the workspace reproduces the paper's *offline* story: prune a
//! model tile-wise, compact the weights, plan the kernels, price them on the
//! GPU cost model.  This crate adds the *online* layer a production system
//! needs — accepting a stream of inference requests (closed-loop or
//! open-loop, uniform or heavy-tailed) and turning it into batched sparse
//! kernel executions with bounded latency:
//!
//! ```text
//!  submit_to / submit_model +------------------+
//!  ---> AdmissionController |    SloBatcher    |   worker 0 ── forward_batch (TW/CSR/dense)
//!  ---> PriorityQueue       | size / wait / SLO| → worker 1 ──   + simulated GPU dwell
//!  ---> (shed or backpress.)|   early close    |   worker N ── responses → ServeReport
//! ```
//!
//! * [`admission::AdmissionController`] — SLO-aware load shedding: refuses
//!   requests when queue depth, cost-model-predicted wait, or a hopeless
//!   class deadline says admitting them would only burn capacity.  Every
//!   shed is recorded; ids are never silently dropped.
//! * [`queue::PriorityQueue`] — the admission path: multi-producer,
//!   multi-consumer, bounded, closable, with one FIFO lane per request
//!   class served in strict priority order (interactive jumps batch).
//! * [`batcher::SloBatcher`] — groups requests into batches of at most
//!   `max_batch_size`, waiting at most `max_batch_wait` after the batch
//!   head arrives — and stops waiting *early* when a member's deadline
//!   leaves no slack for the predicted batch execution time.  Requests
//!   already queued still join past the deadline (work-conserving).
//! * [`pool::WorkerPool`] — N threads, each executing whole batches on a
//!   shared [`tilewise::InferenceSession`] whose layers each run their own
//!   [`tilewise::KernelBackend`], then dwelling for the batch's simulated
//!   device time so pool-level overlap behaves like a real
//!   accelerator-backed tier.
//! * [`stats::ServeReport`] — overall and per-class latency percentiles,
//!   throughput, *goodput* (completions within SLO), shed rates, batch-size
//!   and per-worker counters, plus the per-layer backend plan.
//!
//! The [`Server`] ties these together, and [`drive`] replays a `tw-models`
//! [`Arrival`] schedule into it: a [`tw_models::closed_loop`] schedule
//! submits a fixed payload list under blocking backpressure
//! (peak-throughput benchmarks), a [`tw_models::TrafficSpec`] schedule
//! arrives on its own clock (traffic scenarios: steady, bursty,
//! heavy-tailed, mixed-priority).
//!
//! Everything is deterministic except scheduling: responses carry request
//! ids, and the batched sparse outputs equal per-request dense inference
//! within kernel tolerance (pinned by `tests/serving_end_to_end.rs`).

pub mod admission;
pub mod batcher;
pub mod config;
pub mod pool;
pub mod queue;
pub mod request;
pub mod stats;

pub use admission::AdmissionController;
pub use batcher::SloBatcher;
pub use config::{AdmissionConfig, ClassPolicy, GpuDwell, MemoryConfig, ServeConfig};
pub use pool::{ModelRuntime, WorkerPool};
pub use queue::{Pop, PriorityQueue, PushError};
pub use request::{ClassId, InferenceRequest, InferenceResponse, ModelId, ShedReason, ShedRecord};
pub use stats::{
    summarize, ClassStats, LatencySummary, ModelStats, RunObservation, ServeReport, WorkerStats,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use tilewise::{DwellModel, InferenceSession};
use tw_gpu_sim::TransferCost;
use tw_memory::{MemoryPool, ModelPagingStats, ModelRegistry, TileCache};
use tw_models::Arrival;

/// Outcome of one [`Server::submit_to`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The request was queued and will be served; the id will appear in a
    /// response.
    Admitted(u64),
    /// The request was refused; the id appears in the report's shed log.
    Shed(ShedRecord),
}

impl Admission {
    /// The id assigned to the submission, admitted or not.
    pub fn id(&self) -> u64 {
        match self {
            Admission::Admitted(id) => *id,
            Admission::Shed(record) => record.id,
        }
    }
}

/// A running serving instance: submit requests, then shut down for a report.
pub struct Server {
    /// The hosted models, indexed by [`ModelId`] (registry order).
    models: Arc<Vec<ModelRuntime>>,
    /// The VRAM residency manager; `None` models eternally-resident
    /// weights (the single-model legacy behavior).
    memory: Option<Arc<Mutex<TileCache>>>,
    queue: Arc<PriorityQueue<InferenceRequest>>,
    pool: WorkerPool,
    admission: AdmissionController,
    classes: Vec<ClassPolicy>,
    responses: Mutex<Receiver<InferenceResponse>>,
    // Observations of responses already handed out via `drain_responses`,
    // so the final report still covers the whole run.
    drained: Mutex<Vec<RunObservation>>,
    // Every shed submission, in shed order: sheds are recorded outcomes.
    shed: Mutex<Vec<ShedRecord>>,
    // Kept so the response channel outlives the workers; dropped in
    // `shutdown` so the final drain terminates.
    _response_tx: Sender<InferenceResponse>,
    next_id: AtomicU64,
    admitted: AtomicU64,
    started: Instant,
}

impl Server {
    /// Starts the queue, batcher and worker pool for a single `session`
    /// hosted as model 0 (named `default`).  With
    /// [`ServeConfig::memory`] set, even a single model is served through
    /// the tile cache — its first batches page weights in.
    ///
    /// # Panics
    /// Panics if `config` is invalid (see [`ServeConfig::validate`]).
    pub fn start(session: Arc<InferenceSession>, config: ServeConfig) -> Self {
        let page_bytes = config.memory.map_or(ModelRegistry::DEFAULT_PAGE_BYTES, |m| m.page_bytes);
        let mut registry = ModelRegistry::with_page_bytes(page_bytes);
        registry.register("default", 1, session);
        Self::start_registry(registry, config)
    }

    /// Starts a multi-model server hosting every model in `registry`.
    /// Requests carry a [`ModelId`] (see [`Server::submit_model`]); batches
    /// are model-pure; and with [`ServeConfig::memory`] set the models
    /// share one VRAM budget, paging weight tiles on demand with the
    /// transfer time charged to the batch that missed.
    ///
    /// All hosted models are priced on model 0's device profile (one
    /// server simulates one accelerator).
    ///
    /// # Panics
    /// Panics if `config` is invalid or the registry is empty.
    pub fn start_registry(registry: ModelRegistry, config: ServeConfig) -> Self {
        config.validate();
        assert!(!registry.is_empty(), "a server needs at least one registered model");
        let memory_active = config.memory.is_some();
        let models: Vec<ModelRuntime> = registry
            .iter()
            .map(|(_, entry)| ModelRuntime {
                name: format!("{}@v{}", entry.name(), entry.version()),
                session: Arc::clone(entry.session()),
                dwell: entry.session().dwell_model(config.max_batch_size),
                tiles: if memory_active { entry.tiles().to_vec() } else { Vec::new() },
            })
            .collect();
        let memory = config.memory.map(|mem| {
            let device = models[0].session.device();
            let vram = mem.vram_bytes.unwrap_or(device.vram_bytes);
            Arc::new(Mutex::new(TileCache::new(
                MemoryPool::new(vram),
                TransferCost::of(device),
                mem.policy.build(),
            )))
        });
        let models = Arc::new(models);
        let queue = Arc::new(PriorityQueue::new(config.classes.len(), config.queue_capacity));
        // One cost-model pricing pass up front; admission control and the
        // batcher's SLO early-close both schedule against this table.  With
        // several hosted models the admission table is the per-batch-size
        // *worst case* across them — conservative for every model.
        let dwell_model = worst_case_dwell(&models, config.max_batch_size);
        let admission = AdmissionController::new(&config, &dwell_model);
        let batcher = Arc::new(SloBatcher::new(
            Arc::clone(&queue),
            config.max_batch_size,
            config.max_batch_wait,
            admission.predicted_execution(),
        ));
        let (tx, rx) = mpsc::channel();
        let pool =
            WorkerPool::spawn(Arc::clone(&models), memory.clone(), batcher, &config, tx.clone());
        Self {
            models,
            memory,
            queue,
            pool,
            admission,
            classes: config.classes,
            responses: Mutex::new(rx),
            drained: Mutex::new(Vec::new()),
            shed: Mutex::new(Vec::new()),
            _response_tx: tx,
            next_id: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The served model (model 0 — the only one on a single-model server).
    pub fn session(&self) -> &Arc<InferenceSession> {
        &self.models[0].session
    }

    /// Fraction of `model`'s weight bytes currently resident in VRAM — the
    /// *warmth* probe residency-aware cluster routing ranks replicas by.
    /// `1.0` when memory management is off (everything is always resident).
    ///
    /// # Panics
    /// Panics if `model` is out of range.
    pub fn model_warm_fraction(&self, model: ModelId) -> f64 {
        let tiles = &self.models[model].tiles;
        match &self.memory {
            Some(cache) => cache.lock().expect("tile cache poisoned").resident_fraction(tiles),
            None => 1.0,
        }
    }

    /// The configured request classes, in priority order.
    pub fn classes(&self) -> &[ClassPolicy] {
        &self.classes
    }

    /// Submits one request of `class` against the default model (0).  See
    /// [`Server::submit_model`].
    ///
    /// # Panics
    /// Panics if `class` is out of range or the payload length does not
    /// match model 0's input dim.
    pub fn submit_to(&self, class: ClassId, payload: Vec<f32>) -> Result<Admission, ServerClosed> {
        self.submit_model(0, class, payload)
    }

    /// Submits one request of `class` against `model`.  With admission
    /// control inactive this blocks while the queue is full
    /// (backpressure); with it active the call never blocks — the request
    /// is either queued or *shed*, and every shed is recorded in the final
    /// report's shed log.  `Err` only once shutdown has begun.
    ///
    /// # Panics
    /// Panics if `class` or `model` is out of range, or the payload length
    /// does not match that model's input dim — malformed requests are
    /// rejected at admission instead of inside a worker.
    pub fn submit_model(
        &self,
        model: ModelId,
        class: ClassId,
        payload: Vec<f32>,
    ) -> Result<Admission, ServerClosed> {
        assert!(class < self.classes.len(), "class {class} out of range");
        assert!(model < self.models.len(), "model {model} out of range");
        assert_eq!(
            payload.len(),
            self.models[model].session.input_dim(),
            "request payload length must match the model input dim"
        );
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let policy = &self.classes[class];
        if self.admission.is_active() {
            let (total_depth, depth_ahead) = self.queue.depths(class);
            if let Some(reason) = self.admission.decide(total_depth, depth_ahead, policy) {
                return Ok(Admission::Shed(self.record_shed(id, class, reason)));
            }
            let request = InferenceRequest::for_model(id, model, payload, class, policy.deadline);
            return match self.queue.try_push(class, request) {
                Ok(()) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    Ok(Admission::Admitted(id))
                }
                // Raced other producers past the depth check: the queue
                // itself is the last line of defense; shed, don't block.
                Err(PushError::Full(_)) => {
                    Ok(Admission::Shed(self.record_shed(id, class, ShedReason::QueueFull)))
                }
                Err(PushError::Closed(_)) => Err(ServerClosed),
            };
        }
        let request = InferenceRequest::for_model(id, model, payload, class, policy.deadline);
        match self.queue.push(class, request) {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Admission::Admitted(id))
            }
            Err(_) => Err(ServerClosed),
        }
    }

    fn record_shed(&self, id: u64, class: ClassId, reason: ShedReason) -> ShedRecord {
        let record = ShedRecord { id, class, reason };
        self.shed.lock().expect("shed log poisoned").push(record);
        record
    }

    /// Number of requests shed so far.
    pub fn shed_so_far(&self) -> usize {
        self.shed.lock().expect("shed log poisoned").len()
    }

    /// Current total queue depth (the admission controller's input).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The whole routing snapshot — `(total depth, depth ahead of a new
    /// `class` arrival, predicted wait for that backlog)` — with the queue
    /// lock taken once.  The depth ahead counts the backlog in lanes of the
    /// same or higher priority, which under strict priority is what the
    /// arrival would actually wait behind; the wait is priced by the
    /// session's [`tilewise::DwellModel`] and this server's batch size,
    /// worker count and dwell scale (zero without a dwell).  A cluster
    /// router polls every replica per submission with this probe.
    ///
    /// # Panics
    /// Panics if `class` is out of range.
    pub fn routing_probe(&self, class: ClassId) -> (usize, usize, std::time::Duration) {
        let (total, ahead) = self.queue.depths(class);
        (total, ahead, self.admission.predicted_wait(ahead))
    }

    /// Non-blocking drain of responses completed so far.  Drained responses
    /// remain accounted for in the final [`ServeReport`].
    pub fn drain_responses(&self) -> Vec<InferenceResponse> {
        let drained: Vec<InferenceResponse> =
            self.responses.lock().expect("response receiver poisoned").try_iter().collect();
        self.drained
            .lock()
            .expect("observation log poisoned")
            .extend(drained.iter().map(RunObservation::of));
        drained
    }

    /// Stops admission, drains in-flight work deterministically, and
    /// returns the whole run's report plus the responses not previously
    /// handed out by [`Server::drain_responses`].
    ///
    /// # Ordering guarantee
    ///
    /// Shutdown is a strict four-step sequence, so the report is complete
    /// and reproducible regardless of scheduling:
    ///
    /// 1. The queue is **closed**: concurrent and later submissions fail
    ///    with [`ServerClosed`] (no new ids enter the system).
    /// 2. The worker pool is **joined**: workers keep popping until the
    ///    closed queue is drained, so every admitted request's response has
    ///    been sent before any worker exits.
    /// 3. The response channel is **drained**: the server's own sender is
    ///    dropped after the join, so iteration observes every in-flight
    ///    response, then terminates — it cannot race a straggling worker.
    /// 4. The **report** is computed over drained + final observations and
    ///    the shed log.  Every admitted id has exactly one response
    ///    (asserted), and `completed + shed` equals the number of
    ///    submissions the server accepted an id for.
    pub fn shutdown(self) -> (ServeReport, Vec<InferenceResponse>) {
        // Step 1: stop admission; queued items remain poppable.
        self.queue.close();
        // Step 2: workers drain the queue and exit; all sends happen-before
        // this join returns.
        let worker_stats = self.pool.join();
        // Step 3: hang up our own sender so the drain terminates.
        drop(self._response_tx);
        let receiver = self.responses.into_inner().expect("response receiver poisoned");
        let responses: Vec<InferenceResponse> = receiver.iter().collect();
        // Step 4: the report covers the whole run.
        let mut observations = self.drained.into_inner().expect("observation log poisoned");
        observations.extend(responses.iter().map(RunObservation::of));
        let shed = self.shed.into_inner().expect("shed log poisoned");
        let admitted = self.admitted.load(Ordering::Relaxed) as usize;
        assert_eq!(
            observations.len(),
            admitted,
            "every admitted request must complete exactly once"
        );
        // Per-model cold-start rows, whenever paging or multi-tenancy is in
        // play (single-model no-memory reports keep the legacy shape).
        let models: Vec<(String, ModelPagingStats)> =
            if self.memory.is_some() || self.models.len() > 1 {
                let paging = self
                    .memory
                    .as_ref()
                    .map(|cache| cache.lock().expect("tile cache poisoned").model_stats().clone())
                    .unwrap_or_default();
                self.models
                    .iter()
                    .enumerate()
                    .map(|(id, m)| (m.name.clone(), paging.get(&id).cloned().unwrap_or_default()))
                    .collect()
            } else {
                Vec::new()
            };
        let session = &self.models[0].session;
        let names = |plan: Vec<&str>| plan.into_iter().map(String::from).collect();
        let report = ServeReport::from_observations(
            &observations,
            &shed,
            &self.classes,
            &models,
            self.started.elapsed(),
            worker_stats,
        )
        .with_backend_plan(names(session.layer_backends()), names(session.modelled_backends()));
        (report, responses)
    }
}

/// The admission/batcher dwell table of a multi-model server: the
/// per-batch-size worst case across every hosted model, so wait prediction
/// and SLO early-close stay conservative for all of them.
fn worst_case_dwell(models: &[ModelRuntime], max_batch: usize) -> DwellModel {
    DwellModel::from_seconds(
        (1..=max_batch)
            .map(|b| models.iter().map(|m| m.dwell.seconds_for(b)).fold(0.0, f64::max))
            .collect(),
    )
}

/// Error returned by [`Server::submit_model`] once shutdown has begun.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerClosed;

impl std::fmt::Display for ServerClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server is shutting down; request rejected")
    }
}

impl std::error::Error for ServerClosed {}

/// The serving harness: replays `schedule` into an already-started
/// `server` on the schedule's own clock ([`tw_models::pace`]), sending
/// arrival `i` to model `models[i % models.len()]`, then shuts down and
/// reports.  Whether the server hosts one model ([`Server::start`]) or
/// several ([`Server::start_registry`]) is the caller's choice.
///
/// A [`tw_models::closed_loop`] schedule (everything due at once) against
/// a server without admission control measures peak throughput: each
/// submission blocks while the queue is full.  An open-loop schedule keeps
/// its arrival clock exactly when admission control is active (submission
/// then never blocks, requests are shed instead); with admission inactive,
/// arrivals behind a full queue slip later than their offsets — so size
/// `queue_capacity` for the offered load, or activate admission, when the
/// clock must be honored under overload.
///
/// # Panics
/// Panics on an empty `models` list, or arrivals whose class, model or
/// payload does not fit the server (see [`Server::submit_model`]).
pub fn drive(
    server: Server,
    schedule: &[Arrival],
    models: &[ModelId],
) -> (ServeReport, Vec<InferenceResponse>) {
    assert!(!models.is_empty(), "model assignment cannot be empty");
    tw_models::pace(schedule, |i, arrival| {
        server
            .submit_model(models[i % models.len()], arrival.class, arrival.payload.clone())
            .expect("submit before shutdown");
    });
    server.shutdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tilewise::Backend;
    use tw_models::{closed_loop, RequestGenerator, TrafficSpec};

    fn session(backend: Backend) -> Arc<InferenceSession> {
        Arc::new(InferenceSession::synthetic_chain(&[24, 32, 12], 0.5, 8, 17, backend))
    }

    fn quick_config(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_batch_size: 8,
            max_batch_wait: Duration::from_millis(1),
            queue_capacity: 64,
            gpu_dwell: None,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn closed_loop_serves_every_request_exactly_once() {
        // 100 requests through a 64-slot queue without admission control:
        // submission blocks on the full queue instead of shedding.
        let mut generator = RequestGenerator::new(24, 1.0, 5);
        let schedule = closed_loop(generator.payloads(100));
        let server = Server::start(session(Backend::TileWise), quick_config(2));
        let (report, responses) = drive(server, &schedule, &[0]);
        assert_eq!(report.completed, 100);
        assert_eq!(report.shed, 0);
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<u64>>());
        assert_eq!(report.latency.count, 100);
        assert!(report.latency.p50_s <= report.latency.p95_s);
        assert!(report.latency.p95_s <= report.latency.p99_s);
        assert!(report.latency.p99_s <= report.latency.max_s);
        assert!(report.throughput_rps() > 0.0);
        assert_eq!(report.goodput_rps(), report.throughput_rps());
        assert!(report.mean_batch_size() >= 1.0);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.backend_plan, vec!["tile-wise", "tile-wise"]);
        // Default config: one best-effort class holding every completion.
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].completed, 100);
        assert_eq!(report.classes[0].good, 100);
    }

    #[test]
    fn drive_cycles_the_model_assignment() {
        let mut registry = ModelRegistry::new();
        registry.register("a", 1, session(Backend::TileWise));
        registry.register("b", 1, session(Backend::Dense));
        let mut generator = RequestGenerator::new(24, 1.0, 8);
        let schedule = closed_loop(generator.payloads(30));
        let server = Server::start_registry(registry, quick_config(1));
        let (report, responses) = drive(server, &schedule, &[0, 0, 1]);
        let served = |model| responses.iter().filter(|r| r.model == model).count();
        assert_eq!((served(0), served(1)), (20, 10));
        // Request ids follow submission order, so the assignment is exact.
        assert!(responses.iter().all(|r| r.model == usize::from(r.id % 3 == 2)));
        let rows: Vec<(&str, usize)> =
            report.models.iter().map(|m| (m.name.as_str(), m.completed)).collect();
        assert_eq!(rows, [("a@v1", 20), ("b@v1", 10)]);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let server = Server::start(session(Backend::Dense), quick_config(1));
        assert_eq!(server.submit_to(0, vec![0.0; 24]), Ok(Admission::Admitted(0)));
        let queue = Arc::clone(&server.queue);
        let (report, _) = server.shutdown();
        assert_eq!(report.completed, 1);
        let late = InferenceRequest::new(1, vec![0.0; 24]);
        assert!(matches!(queue.try_push(0, late), Err(PushError::Closed(_))));
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn malformed_payload_rejected_at_admission() {
        let server = Server::start(session(Backend::Dense), quick_config(1));
        let _ = server.submit_to(0, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_class_rejected_at_admission() {
        let server = Server::start(session(Backend::Dense), quick_config(1));
        let _ = server.submit_to(3, vec![0.0; 24]);
    }

    #[test]
    fn drain_responses_streams_results() {
        let server = Server::start(session(Backend::TileWise), quick_config(1));
        for _ in 0..10 {
            server.submit_to(0, vec![0.25; 24]).unwrap();
        }
        // Poll until the pipeline has pushed everything through.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut drained = Vec::new();
        while drained.len() < 10 && Instant::now() < deadline {
            drained.extend(server.drain_responses());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(drained.len(), 10, "pipeline stalled");
        let (report, late) = server.shutdown();
        // Responses already streamed out stay accounted for in the report.
        assert!(late.is_empty(), "everything was already drained");
        assert_eq!(report.completed, 10);
        assert_eq!(report.latency.count, 10);
    }

    #[test]
    fn routing_probes_track_backlog_and_price_it() {
        // A huge dwell with one worker: submissions pile up behind the
        // first batch, so the probes must see the backlog grow — and the
        // interactive lane must report less depth ahead than the batch lane.
        let config = ServeConfig {
            workers: 1,
            max_batch_size: 4,
            max_batch_wait: Duration::from_millis(1),
            queue_capacity: 256,
            gpu_dwell: Some(GpuDwell { time_scale: 5e4 }),
            classes: vec![
                ClassPolicy::with_deadline("interactive", Duration::from_secs(30)),
                ClassPolicy::best_effort("batch"),
            ],
            ..ServeConfig::default()
        };
        let server = Server::start(session(Backend::TileWise), config);
        for _ in 0..40 {
            server.submit_to(1, vec![0.1; 24]).unwrap();
        }
        let (total, batch_ahead, batch_wait) = server.routing_probe(1);
        let (_, interactive_ahead, interactive_wait) = server.routing_probe(0);
        assert!(total >= 30, "backlog should be visible, saw {total}");
        assert!(interactive_ahead < batch_ahead, "interactive lane jumps the batch wall");
        // The cost-aware probe prices the backlog: a batch-lane arrival
        // waits behind full batches, an interactive arrival behind none.
        assert!(batch_wait > Duration::ZERO);
        assert_eq!(interactive_wait, Duration::ZERO);
        let (report, _) = server.shutdown();
        assert_eq!((report.completed, report.shed), (40, 0));
        assert_eq!((report.classes[0].completed, report.classes[1].completed), (0, 40));
    }

    #[test]
    fn gpu_dwell_overlaps_across_workers() {
        // With a dwell that dominates CPU time, quadrupling the workers must
        // cut wall time noticeably — the core serving-tier property.
        let mut generator = RequestGenerator::new(24, 1.0, 9);
        let schedule = closed_loop(generator.payloads(64));
        let dwell_cfg = |workers| ServeConfig {
            workers,
            max_batch_size: 4,
            max_batch_wait: Duration::from_millis(1),
            queue_capacity: 64,
            // Huge scale so the modelled microsecond batches dwell ~ms.
            gpu_dwell: Some(GpuDwell { time_scale: 2e3 }),
            ..ServeConfig::default()
        };
        let run = |workers| {
            drive(Server::start(session(Backend::TileWise), dwell_cfg(workers)), &schedule, &[0]).0
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.completed, 64);
        assert_eq!(four.completed, 64);
        assert!(
            four.wall.as_secs_f64() < one.wall.as_secs_f64() * 0.7,
            "4 workers {:?} should beat 1 worker {:?} by >30%",
            four.wall,
            one.wall
        );
    }

    #[test]
    fn overloaded_open_loop_sheds_but_never_loses_ids() {
        // A tiny shed threshold under a fast schedule: many submissions
        // must shed, and completed + shed must cover every issued id.
        let spec = TrafficSpec::steady(4000.0, Duration::from_millis(30), 200, 24, 3);
        let config = ServeConfig {
            workers: 1,
            max_batch_size: 4,
            max_batch_wait: Duration::from_millis(1),
            queue_capacity: 64,
            gpu_dwell: Some(GpuDwell { time_scale: 5e3 }),
            admission: AdmissionConfig { max_queue_depth: Some(8), ..Default::default() },
            ..ServeConfig::default()
        }
        .with_traffic_classes(&spec.classes);
        let server = Server::start(session(Backend::TileWise), config);
        let (report, responses) = drive(server, &spec.schedule(), &[0]);
        assert_eq!(report.completed + report.shed, 200, "no submission may vanish");
        assert!(report.shed > 0, "overload must shed under a depth bound of 8");
        assert!(report.completed > 0, "admitted requests must still be served");
        assert_eq!(responses.len(), report.completed);
        assert!(report.shed_rate() > 0.0);
        let by_class: usize = report.classes.iter().map(|c| c.submitted()).sum();
        assert_eq!(by_class, 200, "per-class breakdown covers the whole run");
    }
}
