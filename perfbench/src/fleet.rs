//! The `fleet-paging` workload: a `tw-cluster` fleet of two single-worker
//! replicas behind the residency balancer, each hosting three 192-192-96
//! models (fixed plan `tile-wise`) in 0.07 MiB of VRAM — about 1.2 models —
//! so weight tiles page over the modelled PCIe link.  Requests of the 30%
//! interactive (50 ms SLO) / 70% batch mix are assigned to models in blocks
//! of 32, with hopeless-deadline shedding on; a full dense batch dwells
//! 4 ms.
//!
//! A pass has two phases on fresh fleets of the same configuration: an
//! open loop of bursty arrivals (mean 150 req/s; every 200 ms a 50 ms burst
//! at 3.7x the mean, then a lull at 0.1x), which sets the latency metrics, and a saturating phase that keeps
//! two full batches per replica queued, which sets throughput and goodput.
//!
//! Admission, priority lanes and batching (`tw-serve`), paging
//! (`tw-memory`) and routing (`tw-cluster`) do the work here; host kernels
//! sit nearly idle.  The plan is fixed so that a change to what `auto`
//! picks cannot move this workload.
//!
//! `ClusterReport` carries no outputs and no per-request latencies, so the
//! run checks id conservation (completed + shed == sent) and reports
//! latency from the send, with the generator's lag beside it.  Its
//! percentiles are nearest-rank without the benchmark's tail cap.

use crate::probes::{self, time_calls};
use crate::report::{Metrics, Summary};
use crate::stats::{median, tail_percentile, Ledger, SegmentRates};
use crate::{phases, sleep_until, Outcome, ShedCounts, LAG_BOUND, POLL, SEGMENTS, SETUP_REPS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tilewise::{Backend, InferenceSession, TileWiseMatrix};
use tw_cluster::{BalancerKind, Cluster, ClusterConfig, ClusterReport, ReplicaSpec};
use tw_memory::ModelRegistry;
use tw_models::{Arrival, RequestGenerator, TrafficSpec};
use tw_serve::{Admission, AdmissionConfig, MemoryConfig, ServeConfig, Server};

const DIMS: [usize; 3] = [192, 192, 96];
const SPARSITY: f64 = 0.75;
const GRANULARITY: usize = 32;
const MODEL_SEED: u64 = 42;
const MODELS: usize = 3;
const REPLICAS: usize = 2;
const MAX_BATCH: usize = 8;
const BATCH_WAIT: Duration = Duration::from_millis(2);
/// Requests the saturating client keeps queued across the fleet.
const BACKLOG: usize = 2 * REPLICAS * MAX_BATCH;
/// Mean offered rate of the open loop.  The fleet completes about 380 req/s
/// at most; at a mean of 500 (or 300) req/s its bursts build a backlog that
/// drains over seconds, p99 lands between 1.8 and 2.8 s depending on the
/// seed, and at 500 hopeless-deadline sheds start.
const RATE: f64 = 150.0;
/// Every `PERIOD` of the open loop starts with a burst of `BURST` at
/// `BURST_FACTOR` times the mean rate; the rest is a lull at `LULL_FACTOR`
/// times it, so the mean rate is `RATE`.
const PERIOD: Duration = Duration::from_millis(200);
const BURST: Duration = Duration::from_millis(50);
const BURST_FACTOR: f64 = 3.7;
const LULL_FACTOR: f64 = 0.1;
const SLO: Duration = Duration::from_millis(50);
/// 0.07 MiB per replica.
const VRAM_BYTES: u64 = 73_400;
const DWELL_PER_DENSE_BATCH: Duration = Duration::from_millis(4);
/// Consecutive requests the saturating phase sends to the same model.  The
/// open loop sends each burst period's arrivals (about 30) to one model.
const BLOCK: usize = 32;
const POOL: usize = 256;
/// Submissions the serve-layer submit probe times.
const SUBMIT_PROBE_CALLS: usize = 256;

fn tiles() -> Vec<(String, Vec<TileWiseMatrix>)> {
    (0..MODELS)
        .map(|i| {
            let seed = MODEL_SEED + 1000 * i as u64;
            (format!("m{i}"), InferenceSession::synthetic_tiles(&DIMS, SPARSITY, GRANULARITY, seed))
        })
        .collect()
}

/// One replica's sessions, bound as `Replica::start` binds them.
fn bind_sessions(models: &[(String, Vec<TileWiseMatrix>)]) -> Vec<Arc<InferenceSession>> {
    models
        .iter()
        .map(|(_, tiles)| {
            Arc::new(InferenceSession::with_plan(tiles.clone(), &[Backend::TileWise; 2]))
        })
        .collect()
}

/// Moves an arrival of a Poisson schedule at the mean rate to its time in
/// the bursty open loop.  The time change maps a homogeneous Poisson
/// process onto one whose rate follows the fixed burst pattern, so arrivals
/// stay random and the mean rate is kept.  Every burst has the same length:
/// with `ArrivalProcess::BurstyOnOff`'s exponential bursts, a few long
/// bursts per run decided p99.
fn burst_time(at: Duration) -> Duration {
    let (period, burst) = (PERIOD.as_secs_f64(), BURST.as_secs_f64());
    let t = at.as_secs_f64();
    let cycle = (t / period).floor();
    // Mean-rate time into this period, and the share of it a burst takes.
    let into = t - cycle * period;
    let in_burst = burst * BURST_FACTOR;
    let offset =
        if into < in_burst { into / BURST_FACTOR } else { burst + (into - in_burst) / LULL_FACTOR };
    Duration::from_secs_f64(cycle * period + offset)
}

/// The open loop's arrivals.  Payloads come from the pool, so the
/// schedule's own are one value long.
fn schedule(traffic: &TrafficSpec) -> Vec<Arrival> {
    let mut arrivals = traffic.schedule();
    for arrival in &mut arrivals {
        arrival.at = burst_time(arrival.at);
    }
    arrivals
}

fn admission() -> AdmissionConfig {
    AdmissionConfig { shed_hopeless: true, ..AdmissionConfig::default() }
}

/// Set-up: prune the three models, price the dwell scale, start the fleet
/// (each replica binds its kernels and builds its dwell tables).  Returns
/// the cluster, the set-up time and the pruning time.
fn start(traffic: &TrafficSpec, seed: u64) -> (Cluster, Duration, Duration) {
    let start = Instant::now();
    let models = tiles();
    let pruned = start.elapsed();
    let dense = InferenceSession::with_plan(models[0].1.clone(), &[Backend::Dense; 2]);
    let time_scale = DWELL_PER_DENSE_BATCH.as_secs_f64() / dense.simulated_batch_seconds(MAX_BATCH);
    let specs = (0..REPLICAS)
        .map(|i| ReplicaSpec::v100(format!("r{i}"), 1, Backend::TileWise, time_scale))
        .collect();
    let config = ClusterConfig {
        max_batch_size: MAX_BATCH,
        max_batch_wait: BATCH_WAIT,
        // Open-loop submission must never block.
        queue_capacity: traffic.requests.max(BACKLOG),
        admission: admission(),
        balancer: BalancerKind::ResidencyAware,
        balancer_seed: seed,
        memory: Some(MemoryConfig { vram_bytes: Some(VRAM_BYTES), ..MemoryConfig::default() }),
        ..ClusterConfig::default()
    }
    .with_traffic_classes(&traffic.classes);
    let cluster = Cluster::start_models(models, specs, config);
    (cluster, start.elapsed(), pruned)
}

/// Client-side record of the open-loop phase.
struct Pass {
    ledger: Ledger,
    sheds: ShedCounts,
    lag_s: Vec<f64>,
    route_s: Vec<f64>,
    /// Fleet queue depth ahead of each arrival (traced passes only).
    depth: Vec<usize>,
    interactive_sent: usize,
    report: ClusterReport,
    window: Duration,
}

/// Open-loop phase: replays `schedule` into `cluster`, then shuts it down.
fn serve_open(mut cluster: Cluster, schedule: &[Arrival], pool: &[Vec<f32>], traced: bool) -> Pass {
    let mut ledger = Ledger::default();
    let mut sheds = ShedCounts::default();
    let (mut lag_s, mut route_s, mut depth) = (Vec::new(), Vec::new(), Vec::new());
    let mut interactive_sent = 0;
    let started = Instant::now();
    for (i, arrival) in schedule.iter().enumerate() {
        sleep_until(started + arrival.at);
        let sent = started.elapsed();
        // One model per burst period, so every model switch meets a burst
        // at the same phase.  With blocks counted in arrivals, switches
        // drifted against the bursts and how many met one depended on the
        // seed.
        let model = (arrival.at.as_nanos() / PERIOD.as_nanos()) as usize % MODELS;
        let (_, admission) = cluster
            .submit_model(model, arrival.class, pool[i % POOL].clone())
            .expect("open-loop submit before shutdown");
        let returned = started.elapsed();
        if traced {
            // Sampled after the submit so the send is not delayed; the
            // arrival itself is not ahead of itself.
            depth.push(cluster.queue_depth().saturating_sub(1));
        }
        lag_s.push(sent.saturating_sub(arrival.at).as_secs_f64());
        route_s.push((returned - sent).as_secs_f64());
        sheds.count(&admission);
        ledger.sent(matches!(admission, Admission::Shed(_)));
        if arrival.class == 0 {
            interactive_sent += 1;
        }
    }
    let report = cluster.shutdown();
    let window = started.elapsed();
    ledger.completed_uncounted(report.completed);
    Pass { ledger, sheds, lag_s, route_s, depth, interactive_sent, report, window }
}

/// Saturating phase: keeps [`BACKLOG`] requests queued across the fleet for
/// `window`, with the classes of `schedule` in turn and the open loop's
/// model blocks.  Returns the failure ledger, the fleet's report and the
/// median segment service rate.
fn saturate(
    mut cluster: Cluster,
    schedule: &[Arrival],
    pool: &[Vec<f32>],
    window: Duration,
) -> (Ledger, ClusterReport, f64) {
    let mut ledger = Ledger::default();
    let mut rates = SegmentRates::new(window, SEGMENTS);
    let mut i: usize = 0;
    while rates.tick(i.saturating_sub(cluster.queue_depth())) {
        if cluster.queue_depth() >= BACKLOG {
            std::thread::sleep(POLL);
            continue;
        }
        let model = (i / BLOCK) % MODELS;
        let class = schedule[i % schedule.len()].class;
        let (_, admission) = cluster
            .submit_model(model, class, pool[i % POOL].clone())
            .expect("saturating submit before shutdown");
        ledger.sent(matches!(admission, Admission::Shed(_)));
        i += 1;
    }
    let report = cluster.shutdown();
    ledger.completed_uncounted(report.completed);
    (ledger, report, median(&rates.rates()))
}

/// Both phases of one pass on fresh fleets.
struct PassResult {
    open: Pass,
    saturated: Ledger,
    summary: Summary,
}

/// Runs the open-loop phase on `first`, then the saturating phase on a
/// fresh fleet.
fn run_pass(
    first: Cluster,
    traffic: &TrafficSpec,
    seed: u64,
    pool: &[Vec<f32>],
    saturate_for: Duration,
    traced: bool,
) -> PassResult {
    let schedule = schedule(traffic);
    let open = serve_open(first, &schedule, pool, traced);
    let (cluster, _, _) = start(traffic, seed);
    let (saturated, report, capacity_rps) = saturate(cluster, &schedule, pool, saturate_for);
    let good: usize = report.classes.iter().map(|c| c.good).sum();
    let interactive = &open.report.classes[0];
    let summary = Summary {
        capacity_rps,
        good_share: good as f64 / report.completed.max(1) as f64,
        interactive_sent: open.interactive_sent,
        interactive_good: interactive.good,
        p50_s: open.report.latency.p50_s,
        p99_s: open.report.latency.p99_s,
        interactive_p99_s: interactive.latency.p99_s,
        lag_p99_s: tail_percentile(&open.lag_s, 0.99),
    };
    PassResult { open, saturated, summary }
}

/// Runs `fleet-paging`.  Untraced: set-up (repeated), then one pass of
/// `seconds`.  Traced: an untraced and a traced pass of half the time each
/// over the same arrivals, then the layer probes.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (open_for, saturate_for) = phases(if trace { seconds / 2.0 } else { seconds });
    let arrivals = (RATE * open_for.as_secs_f64()).ceil() as usize;
    let traffic = TrafficSpec::steady(RATE, SLO, arrivals, 1, seed);
    let (mut setup_s, mut prune_s) = (Vec::new(), Vec::new());
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous);
        }
        let (started, setup, pruned) = start(&traffic, seed);
        setup_s.push(setup.as_secs_f64());
        prune_s.push(pruned.as_secs_f64());
        cluster = Some(started);
    }
    let cluster = cluster.expect("at least one set-up");
    let models = tiles();
    let sessions = bind_sessions(&models);
    let weights: usize = sessions.iter().map(|s| s.resident_bytes()).sum();
    let pool = RequestGenerator::new(DIMS[0], 1.0, seed).payloads(POOL);

    let untraced = run_pass(cluster, &traffic, seed, &pool, saturate_for, false);
    let mut ledgers = vec![untraced.open.ledger.clone(), untraced.saturated.clone()];
    let mut lag_p99_s = untraced.summary.lag_p99_s;
    let mut m = Metrics::default();
    if !trace {
        untraced.summary.end_to_end(median(&setup_s), weights, &mut m);
    } else {
        let (cluster, _, _) = start(&traffic, seed);
        let traced = run_pass(cluster, &traffic, seed, &pool, saturate_for, true);
        lag_p99_s = lag_p99_s.max(traced.summary.lag_p99_s);
        ledgers.push(traced.open.ledger.clone());
        ledgers.push(traced.saturated.clone());

        m.put("setup.prune_s", median(&prune_s), "s");
        let bind_s = time_calls(SETUP_REPS, |_| {
            std::hint::black_box(bind_sessions(&models));
        });
        m.put("setup.bind_s", median(&bind_s), "s");
        let dwell_s = time_calls(SETUP_REPS, |_| {
            for session in &sessions {
                std::hint::black_box(session.dwell_model(MAX_BATCH));
            }
        });
        m.put("setup.dwell_table_s", median(&dwell_s), "s");
        probes::kernels(&models[0].1, &sessions[0].layer_backends(), &sessions[0], &mut m);
        probes::tile_cache(&sessions[0], &mut m);
        layer_metrics(&traced.open, &mut m);
        submit_probe(&traffic, &sessions, &pool, &mut m);
        m.put("gen.lag_ms.p99", traced.summary.lag_p99_s * 1e3, "ms");
        traced.summary.overhead_against(&untraced.summary, &mut m);
    }

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

/// Serve-layer, modelled-device, paging and routing metrics of the traced
/// open-loop phase.  Kernels cannot be wrapped inside replicas (a
/// `ReplicaSpec` takes a `Backend`), so kernel time is computed from the
/// kernel probes already in `m` at the mean batch size, and queue wait by
/// Little's law from the depth each arrival found.
fn layer_metrics(traced: &Pass, m: &mut Metrics) {
    let report = &traced.report;
    let window_s = traced.window.as_secs_f64();
    let workers: usize = report.replicas.iter().map(|r| r.report.workers.len()).sum();
    let rows = report.mean_batch_size();
    let batch_kernel_us: f64 = (0..DIMS.len() - 1)
        .map(|layer| {
            let probe =
                |b: usize| m.get(&format!("kernel.l{layer}.b{b}_us")).expect("kernel probe ran");
            let (b1, b8) = (probe(1), probe(MAX_BATCH));
            b1 + (b8 - b1) * (rows - 1.0).max(0.0) / (MAX_BATCH - 1) as f64
        })
        .sum();
    let kernel_s = report.batches() as f64 * batch_kernel_us * 1e-6;
    m.put("kernel.busy_frac", kernel_s / (workers as f64 * window_s), "frac");
    let completion_rate = report.completed as f64 / window_s;
    let waits: Vec<f64> = traced.depth.iter().map(|&d| d as f64 / completion_rate).collect();
    m.put_tail("serve.queue_wait_ms", &waits, 1e3, "ms");
    m.put("serve.batch_mean", rows, "count");
    let busy_s: f64 = report
        .replicas
        .iter()
        .flat_map(|r| r.report.workers.iter())
        .map(|w| w.cpu_busy.as_secs_f64())
        .sum();
    m.put("serve.cpu_busy_frac", busy_s / (workers as f64 * window_s), "frac");
    traced.sheds.put(m);
    crate::device_metrics(
        report.sim_gpu_s(),
        report.transfer_sim_s(),
        report.batches(),
        report.completed,
        m,
    );
    crate::memory_metrics(&report.models, report.completed, m);
    crate::cluster_metrics(report, &traced.route_s, m);
}

/// `Server::submit_model` on a probe server hosting the fleet's models:
/// one worker, no dwell, the fleet's classes and admission policy.
fn submit_probe(
    traffic: &TrafficSpec,
    sessions: &[Arc<InferenceSession>],
    pool: &[Vec<f32>],
    m: &mut Metrics,
) {
    let mut registry = ModelRegistry::new();
    for (i, session) in sessions.iter().enumerate() {
        registry.register(format!("m{i}"), 1, Arc::clone(session));
    }
    let config = ServeConfig {
        max_batch_size: MAX_BATCH,
        max_batch_wait: BATCH_WAIT,
        workers: 1,
        queue_capacity: SUBMIT_PROBE_CALLS,
        admission: admission(),
        ..ServeConfig::default()
    }
    .with_traffic_classes(&traffic.classes);
    let server = Server::start_registry(registry, config);
    let submit_s = time_calls(SUBMIT_PROBE_CALLS, |i| {
        let model = (i / BLOCK) % MODELS;
        server.submit_model(model, 0, pool[i % pool.len()].clone()).expect("probe submit");
    });
    server.shutdown();
    m.put_tail("serve.submit_us", &submit_s, 1e6, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_keep_the_mean_rate_and_a_fixed_shape() {
        let s = Duration::from_secs_f64;
        let close = |a: Duration, b: f64| (a.as_secs_f64() - b).abs() < 1e-9;
        // A period's worth of mean-rate time maps onto exactly one period.
        assert!(close(burst_time(s(0.0)), 0.0));
        assert!(close(burst_time(s(0.2)), 0.2));
        assert!(close(burst_time(s(1.0)), 1.0));
        // 92.5% of a period's arrivals (0.185 of 0.2) land in its first 50 ms.
        assert!(close(burst_time(s(0.185)), 0.05));
        assert!(close(burst_time(s(0.0925)), 0.025));
        // The lull spreads the remaining 7.5% over 150 ms.
        assert!(close(burst_time(s(0.1925)), 0.125));
        let warped: Vec<Duration> = (0..1000).map(|i| burst_time(s(i as f64 * 1e-3))).collect();
        assert!(warped.windows(2).all(|w| w[0] <= w[1]), "order is kept");
    }
}
