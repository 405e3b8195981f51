//! The `host-open` workload: one `tw-serve` server on one worker running
//! the 512-1024-512 model (75% tile-wise sparsity, granularity 32, plan
//! `auto`) with no simulated device dwell, so host kernels do the work.
//!
//! A pass has two phases on fresh servers of the same configuration:
//!
//! * open loop — Poisson arrivals at 150 req/s, 30% interactive (50 ms
//!   SLO) and 70% batch.  Batches hold 1–2 rows, so per-call overhead,
//!   intra-batch parallelism and the batcher's fill wait set the latency
//!   metrics.
//! * saturating — the client keeps two full batches queued, so every batch
//!   is full and kernel speed at batch 8 sets `throughput_rps` and
//!   `goodput_rps`.
//!
//! Every response is checked against a dense-plan session built from the
//! same tiles.

use crate::probes::{self, time_calls};
use crate::report::{Metrics, Summary};
use crate::stats::{due_latency, median, tail_percentile, Ledger, SegmentRates};
use crate::trace::{traced_registry, Span, SpanLog};
use crate::{phases, sleep_until, Outcome, ShedCounts, LAG_BOUND, POLL, SEGMENTS, SETUP_REPS};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilewise::{AutoPlanner, Backend, InferenceSession, KernelRegistry, TileWiseMatrix};
use tw_cluster::{BalancerKind, Cluster, ClusterConfig, ReplicaSpec};
use tw_models::{Arrival, RequestGenerator, TrafficSpec};
use tw_serve::{Admission, InferenceResponse, ServeConfig, ServeReport, Server};
use tw_tensor::{approx_eq, stack_payloads, Matrix, DEFAULT_TOL};

const DIMS: [usize; 3] = [512, 1024, 512];
const SPARSITY: f64 = 0.75;
const GRANULARITY: usize = 32;
const MODEL_SEED: u64 = 42;
/// One worker: with two, each BSR call's scoped kernel threads
/// oversubscribe a 2-core host and throughput swings ±20% between runs.
const WORKERS: usize = 1;
const MAX_BATCH: usize = 8;
const BATCH_WAIT: Duration = Duration::from_millis(2);
/// Requests the saturating client keeps queued.
const BACKLOG: usize = 2 * MAX_BATCH;
const OPEN_RATE: f64 = 150.0;
const SLO: Duration = Duration::from_millis(50);
/// Distinct checked payloads; request `i` carries payload `i % POOL`.
const POOL: usize = 256;
/// Submissions the routing probe times.
const ROUTE_PROBE_CALLS: usize = 256;

/// The open-loop traffic for `seconds`.  Payloads come from the checked
/// pool, so the schedule's own are one value long.
fn traffic(seconds: f64, seed: u64) -> TrafficSpec {
    let arrivals = (OPEN_RATE * seconds).ceil() as usize;
    TrafficSpec::steady(OPEN_RATE, SLO, arrivals, 1, seed)
}

fn config(traffic: &TrafficSpec) -> ServeConfig {
    ServeConfig {
        max_batch_size: MAX_BATCH,
        max_batch_wait: BATCH_WAIT,
        workers: WORKERS,
        // Room for every arrival, so open-loop submission never blocks.
        queue_capacity: traffic.requests.max(BACKLOG),
        gpu_dwell: None,
        ..ServeConfig::default()
    }
    .with_traffic_classes(&traffic.classes)
}

fn bind(tiles: Vec<TileWiseMatrix>, registry: &KernelRegistry) -> Arc<InferenceSession> {
    let plan = vec![Backend::Auto; tiles.len()];
    Arc::new(InferenceSession::with_plan_in(tiles, &plan, registry, &AutoPlanner::v100(MAX_BATCH)))
}

/// One submission as the client saw it; times are offsets from the phase
/// start.
struct Sent {
    due: Duration,
    sent: Duration,
    slot: usize,
    class: usize,
}

/// Client-side record of one phase.
#[derive(Default)]
struct Pass {
    sent: HashMap<u64, Sent>,
    ledger: Ledger,
    sheds: ShedCounts,
    lag_s: Vec<f64>,
    submit_s: Vec<f64>,
    latency_s: Vec<f64>,
    interactive_latency_s: Vec<f64>,
    interactive_sent: usize,
    good: usize,
    interactive_good: usize,
    /// `(id, worker, batch size)` of every response, in channel order.
    order: Vec<(u64, usize, usize)>,
}

impl Pass {
    /// Records one submission.  `due` and `sent` are offsets from the phase
    /// start; the submit call returned at `returned`.
    fn record(&mut self, admission: Admission, class: usize, slot: usize, times: [Duration; 3]) {
        let [due, sent, returned] = times;
        self.lag_s.push(sent.saturating_sub(due).as_secs_f64());
        self.submit_s.push((returned - sent).as_secs_f64());
        self.sheds.count(&admission);
        self.ledger.sent(matches!(admission, Admission::Shed(_)));
        if class == 0 {
            self.interactive_sent += 1;
        }
        self.sent.insert(admission.id(), Sent { due, sent, slot, class });
    }

    fn absorb(
        &mut self,
        responses: Vec<InferenceResponse>,
        reference: &Matrix,
        slos: &[Option<Duration>],
    ) {
        for response in responses {
            self.order.push((response.id, response.worker, response.batch_size));
            let Some(sent) = self.sent.get(&response.id) else {
                self.ledger.completed(response.id, false);
                continue;
            };
            let expected = reference.row(sent.slot);
            let correct = response.output.len() == expected.len()
                && response
                    .output
                    .iter()
                    .zip(expected)
                    .all(|(&a, &b)| approx_eq(a, b, DEFAULT_TOL));
            self.ledger.completed(response.id, correct);
            let latency = due_latency(sent.due, sent.sent, response.latency).as_secs_f64();
            self.latency_s.push(latency);
            let met = slos[sent.class].is_none_or(|slo| latency <= slo.as_secs_f64());
            if sent.class == 0 {
                self.interactive_latency_s.push(latency);
            }
            if correct && met {
                self.good += 1;
                if sent.class == 0 {
                    self.interactive_good += 1;
                }
            }
        }
    }
}

/// Everything the open-loop phase produced.
struct OpenResult {
    pass: Pass,
    report: ServeReport,
    started: Instant,
    window: Duration,
}

/// The checked payload pool and its dense-plan reference outputs.
struct Checked {
    pool: Vec<Vec<f32>>,
    reference: Matrix,
}

fn slos(server: &Server) -> Vec<Option<Duration>> {
    server.classes().iter().map(|c| c.deadline).collect()
}

/// Open-loop phase: replays `schedule` into `server`, checking every
/// response, then shuts it down.
fn serve_open(server: Server, schedule: &[Arrival], checked: &Checked) -> OpenResult {
    let slos = slos(&server);
    let mut pass = Pass::default();
    let started = Instant::now();
    for (i, arrival) in schedule.iter().enumerate() {
        pass.absorb(server.drain_responses(), &checked.reference, &slos);
        sleep_until(started + arrival.at);
        let slot = i % POOL;
        let payload = checked.pool[slot].clone();
        let sent = started.elapsed();
        let admission =
            server.submit_to(arrival.class, payload).expect("open-loop submit before shutdown");
        let returned = started.elapsed();
        pass.record(admission, arrival.class, slot, [arrival.at, sent, returned]);
    }
    let (report, rest) = server.shutdown();
    let window = started.elapsed();
    pass.absorb(rest, &checked.reference, &slos);
    OpenResult { pass, report, started, window }
}

/// Saturating phase: keeps [`BACKLOG`] requests queued for `window`, with
/// the classes of `schedule` in turn, checking every response.  Returns the
/// client's record and the service rate of each of `segments` segments.
fn saturate(
    server: Server,
    schedule: &[Arrival],
    window: Duration,
    segments: usize,
    checked: &Checked,
) -> (Pass, Vec<f64>) {
    let slos = slos(&server);
    let mut pass = Pass::default();
    let mut rates = SegmentRates::new(window, segments);
    let started = Instant::now();
    let mut i: usize = 0;
    while rates.tick(i.saturating_sub(server.queue_depth())) {
        if server.queue_depth() >= BACKLOG {
            pass.absorb(server.drain_responses(), &checked.reference, &slos);
            std::thread::sleep(POLL);
            continue;
        }
        let class = schedule[i % schedule.len()].class;
        let slot = i % POOL;
        let payload = checked.pool[slot].clone();
        let sent = started.elapsed();
        let admission =
            server.submit_to(class, payload).expect("saturating submit before shutdown");
        let returned = started.elapsed();
        // A saturating request is due when it is sent.
        pass.record(admission, class, slot, [sent, sent, returned]);
        i += 1;
    }
    let (_, rest) = server.shutdown();
    pass.absorb(rest, &checked.reference, &slos);
    (pass, rates.rates())
}

/// Rounds of an untraced pass.  Each round sets up a server, runs an
/// open-loop chunk on it and a saturating segment on a fresh server of the
/// same session, so `setup_s` is still the median of [`SETUP_REPS`]
/// set-ups.  The rounds spread each metric's samples over the whole run: a
/// shared host's speed changes within seconds, and consecutive samples
/// share it.
const ROUNDS: usize = SETUP_REPS;

/// One timed set-up: prune, bind and plan, start the server (which builds
/// its dwell table and spawns its workers).
struct SetUp {
    tiles: Vec<TileWiseMatrix>,
    session: Arc<InferenceSession>,
    server: Server,
    total_s: f64,
    prune_s: f64,
    bind_s: f64,
}

fn set_up(registry: &KernelRegistry, config: &ServeConfig) -> SetUp {
    let start = Instant::now();
    let tiles = InferenceSession::synthetic_tiles(&DIMS, SPARSITY, GRANULARITY, MODEL_SEED);
    let pruned = start.elapsed();
    let kept = tiles.clone();
    let start = Instant::now();
    let session = bind(tiles, registry);
    let bound = start.elapsed();
    let server = Server::start(Arc::clone(&session), config.clone());
    SetUp {
        tiles: kept,
        session,
        server,
        total_s: (pruned + start.elapsed()).as_secs_f64(),
        prune_s: pruned.as_secs_f64(),
        bind_s: bound.as_secs_f64(),
    }
}

/// The arrivals of `schedule` due in round `k` of `rounds` equal rounds of
/// `open_for`, timed from the round's start.
fn chunk(schedule: &[Arrival], k: usize, rounds: usize, open_for: Duration) -> Vec<Arrival> {
    let len = open_for / rounds as u32;
    let from = len * k as u32;
    schedule
        .iter()
        .filter(|a| a.at >= from && a.at < from + len)
        .map(|a| Arrival { at: a.at - from, ..a.clone() })
        .collect()
}

/// Client-side figures pooled over a pass's rounds.
#[derive(Default)]
struct Totals {
    latency_s: Vec<f64>,
    interactive_latency_s: Vec<f64>,
    lag_s: Vec<f64>,
    interactive_sent: usize,
    interactive_good: usize,
    /// Saturating service rate of every segment of every round.
    rates: Vec<f64>,
    saturated_good: usize,
    saturated_completed: usize,
    ledgers: Vec<Ledger>,
}

impl Totals {
    fn add(&mut self, open: &Pass, saturated: Pass, rates: Vec<f64>) {
        self.latency_s.extend(&open.latency_s);
        self.interactive_latency_s.extend(&open.interactive_latency_s);
        self.lag_s.extend(&open.lag_s);
        self.interactive_sent += open.interactive_sent;
        self.interactive_good += open.interactive_good;
        self.rates.extend(rates);
        self.saturated_good += saturated.good;
        self.saturated_completed += saturated.ledger.completed_count();
        self.ledgers.push(open.ledger.clone());
        self.ledgers.push(saturated.ledger);
    }

    fn summary(&self) -> Summary {
        Summary {
            capacity_rps: median(&self.rates),
            good_share: self.saturated_good as f64 / self.saturated_completed.max(1) as f64,
            interactive_sent: self.interactive_sent,
            interactive_good: self.interactive_good,
            p50_s: median(&self.latency_s),
            p99_s: tail_percentile(&self.latency_s, 0.99),
            interactive_p99_s: tail_percentile(&self.interactive_latency_s, 0.99),
            lag_p99_s: tail_percentile(&self.lag_s, 0.99),
        }
    }
}

/// What every pass of a run shares.
struct Workload {
    config: ServeConfig,
    schedule: Vec<Arrival>,
    checked: Checked,
    open_for: Duration,
    saturate_for: Duration,
}

impl Workload {
    /// Runs a pass of `rounds` rounds.  Round `k` runs the `k`-th open-loop
    /// chunk on the server `server_for` returns, then a saturating phase on
    /// a fresh server of the same session.  With one round the saturating
    /// phase is cut into [`SEGMENTS`] segments; with more, each round's is
    /// one segment.  Returns the pooled figures and the last round's
    /// open-loop phase.
    fn pass(
        &self,
        rounds: usize,
        mut server_for: impl FnMut() -> (Server, Arc<InferenceSession>),
    ) -> (Totals, OpenResult) {
        let segments = if rounds == 1 { SEGMENTS } else { 1 };
        let mut totals = Totals::default();
        let mut last = None;
        for k in 0..rounds {
            let (server, session) = server_for();
            let open =
                serve_open(server, &chunk(&self.schedule, k, rounds, self.open_for), &self.checked);
            let fresh = Server::start(session, self.config.clone());
            let saturate_for = self.saturate_for / rounds as u32;
            let (saturated, rates) =
                saturate(fresh, &self.schedule, saturate_for, segments, &self.checked);
            totals.add(&open.pass, saturated, rates);
            last = Some(open);
        }
        (totals, last.expect("at least one round"))
    }
}

/// Runs `host-open`.  Untraced: one pass of [`ROUNDS`] rounds over
/// `seconds`.  Traced: set-up (repeated), then an untraced and a traced
/// pass of one round and half the time each, over the same arrivals, then
/// the layer probes.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (open_for, saturate_for) = phases(if trace { seconds / 2.0 } else { seconds });
    let traffic = traffic(open_for.as_secs_f64(), seed);
    let checked = {
        let pool = RequestGenerator::new(DIMS[0], 1.0, seed).payloads(POOL);
        let tiles = InferenceSession::synthetic_tiles(&DIMS, SPARSITY, GRANULARITY, MODEL_SEED);
        let dense = InferenceSession::with_plan(tiles, &[Backend::Dense; 2]);
        let reference = dense.forward_batch(&stack_payloads(&pool));
        Checked { pool, reference }
    };
    let workload = Workload {
        config: config(&traffic),
        schedule: traffic.schedule(),
        checked,
        open_for,
        saturate_for,
    };
    let registry = KernelRegistry::standard();
    let mut m = Metrics::default();
    let (ledgers, lag_p99_s) = if !trace {
        let (mut setup_s, mut weights) = (Vec::new(), 0);
        let (totals, _) = workload.pass(ROUNDS, || {
            let set = set_up(&registry, &workload.config);
            setup_s.push(set.total_s);
            weights = set.session.resident_bytes();
            (set.server, set.session)
        });
        let summary = totals.summary();
        summary.end_to_end(median(&setup_s), weights, &mut m);
        (totals.ledgers, summary.lag_p99_s)
    } else {
        let (mut prune_s, mut bind_s) = (Vec::new(), Vec::new());
        let mut last: Option<SetUp> = None;
        for _ in 0..SETUP_REPS {
            if let Some(previous) = last.take() {
                previous.server.shutdown();
            }
            let set = set_up(&registry, &workload.config);
            prune_s.push(set.prune_s);
            bind_s.push(set.bind_s);
            last = Some(set);
        }
        let SetUp { tiles, session, server, .. } = last.expect("at least one set-up");
        let plan = session.layer_backends();
        eprintln!(
            "# plan [{}], {} resident weight bytes",
            plan.join(","),
            session.resident_bytes()
        );
        let mut first = Some(server);
        let (untraced, _) =
            workload.pass(1, || (first.take().expect("one round"), Arc::clone(&session)));

        let log = Arc::new(SpanLog::default());
        let traced_session = bind(tiles.clone(), &traced_registry(&DIMS, &log));
        assert_eq!(traced_session.layer_backends(), plan, "tracing must not change the plan");
        let (traced, open) = workload.pass(1, || {
            (
                Server::start(Arc::clone(&traced_session), workload.config.clone()),
                Arc::clone(&traced_session),
            )
        });
        // The layer metrics describe the open-loop phase.
        let open_end = open.started + open.window;
        let spans: Vec<Span> = log.take().into_iter().filter(|s| s.start < open_end).collect();

        m.put("setup.prune_s", median(&prune_s), "s");
        m.put("setup.bind_s", median(&bind_s), "s");
        let dwell_s: Vec<f64> = time_calls(SETUP_REPS, |_| {
            std::hint::black_box(session.dwell_model(MAX_BATCH));
        });
        m.put("setup.dwell_table_s", median(&dwell_s), "s");
        probes::kernels(&tiles, &plan, &session, &mut m);
        probes::tile_cache(&session, &mut m);
        layer_metrics(&open, &spans, &mut m);
        route_probe(&tiles, &workload.checked.pool, &mut m);
        let (untraced_summary, traced_summary) = (untraced.summary(), traced.summary());
        m.put("gen.lag_ms.p99", traced_summary.lag_p99_s * 1e3, "ms");
        traced_summary.overhead_against(&untraced_summary, &mut m);
        let lag = untraced_summary.lag_p99_s.max(traced_summary.lag_p99_s);
        (untraced.ledgers.into_iter().chain(traced.ledgers).collect(), lag)
    };

    let attempted: usize = ledgers.iter().map(Ledger::attempted).sum();
    let failed: usize = ledgers.iter().map(Ledger::failed).sum();
    if trace {
        m.put("check.failed_frac", failed as f64 / attempted as f64, "frac");
    }
    let lag_ok = lag_p99_s <= LAG_BOUND.as_secs_f64();
    if !lag_ok {
        eprintln!(
            "# invalid run: generator p99 lag {:.2} ms exceeds {LAG_BOUND:?}",
            lag_p99_s * 1e3
        );
    }
    Outcome { correct: failed == 0 && lag_ok, attempted, failed, metrics: m }
}

/// Serve-layer, kernel-span and modelled-device metrics of the traced
/// open-loop phase.
fn layer_metrics(traced: &OpenResult, spans: &[Span], m: &mut Metrics) {
    let report = &traced.report;
    let pass = &traced.pass;
    let window_s = traced.window.as_secs_f64();
    let kernel_s: f64 = spans.iter().map(|s| (s.end - s.start).as_secs_f64()).sum();
    m.put("kernel.busy_frac", kernel_s / (WORKERS as f64 * window_s), "frac");
    let waits = queue_waits(&pass.order, spans, &pass.sent, traced.started);
    m.put_tail("serve.queue_wait_ms", &waits, 1e3, "ms");
    m.put("serve.batch_mean", report.mean_batch_size(), "count");
    m.put_tail("serve.submit_us", &pass.submit_s, 1e6, "us");
    let cpu_busy_s: f64 = report.workers.iter().map(|w| w.cpu_busy.as_secs_f64()).sum();
    m.put("serve.cpu_busy_frac", cpu_busy_s / (WORKERS as f64 * report.wall.as_secs_f64()), "frac");
    pass.sheds.put(m);
    crate::device_metrics(
        report.sim_gpu_s,
        report.transfer_sim_s,
        report.batches,
        report.completed,
        m,
    );
    crate::memory_metrics(&report.models, report.completed, m);
}

/// Queue wait of each request: from its send to the start of its batch's
/// first kernel call.  A worker runs its batches one after another and
/// sends a batch's responses before taking the next, so its responses, in
/// channel order and grouped by batch size, line up with its layer-0 spans
/// in start order.
fn queue_waits(
    order: &[(u64, usize, usize)],
    spans: &[Span],
    sent: &HashMap<u64, Sent>,
    started: Instant,
) -> Vec<f64> {
    let mut starts: HashMap<usize, Vec<(Instant, usize)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.layer == 0) {
        starts.entry(span.worker).or_default().push((span.start, span.rows));
    }
    for list in starts.values_mut() {
        list.sort_unstable();
    }
    // Per worker: (index of the current batch's span, rows left in it).
    let mut cursor: HashMap<usize, (usize, usize)> = HashMap::new();
    let mut waits = Vec::with_capacity(order.len());
    let mut unmatched = 0;
    for &(id, worker, batch_size) in order {
        let (batch, left) = cursor.entry(worker).or_insert((0, 0));
        if *left == 0 {
            *batch += 1;
            *left = batch_size;
        }
        *left -= 1;
        let start = starts.get(&worker).and_then(|list| list.get(*batch - 1));
        match (start, sent.get(&id)) {
            (Some(&(start, rows)), Some(s)) if rows == batch_size => {
                waits.push(start.saturating_duration_since(started + s.sent).as_secs_f64());
            }
            _ => unmatched += 1,
        }
    }
    if unmatched > 0 {
        eprintln!("# queue wait: {unmatched} response(s) matched no kernel span");
    }
    waits
}

/// `Cluster::submit_model` on a probe fleet of the workload's model: two
/// single-worker tile-wise replicas behind the residency balancer.
fn route_probe(tiles: &[TileWiseMatrix], pool: &[Vec<f32>], m: &mut Metrics) {
    let specs =
        (0..2).map(|i| ReplicaSpec::v100(format!("r{i}"), 1, Backend::TileWise, 0.0)).collect();
    let config = ClusterConfig {
        queue_capacity: ROUTE_PROBE_CALLS,
        balancer: BalancerKind::ResidencyAware,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(tiles.to_vec(), specs, config);
    let route_s = time_calls(ROUTE_PROBE_CALLS, |i| {
        cluster.submit_to(0, pool[i % pool.len()].clone()).expect("probe submit before shutdown");
    });
    let report = cluster.shutdown();
    crate::cluster_metrics(&report, &route_s, m);
}
