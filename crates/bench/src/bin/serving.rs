//! The serving benchmark: drive `tw-serve` under a chosen traffic scenario
//! and report throughput, goodput and latency percentiles per worker-pool
//! size and kernel backend — overall and per request class.
//!
//! Scenarios (`--scenario`):
//!
//! * `closed` (default) — the legacy closed loop: submit every request
//!   back-to-back under blocking backpressure; measures peak throughput.
//!   This is the scenario the CI perf-regression gate pins, because its
//!   numbers are dwell-dominated and stable across hosts.
//! * `steady` — open-loop Poisson arrivals at `--rate`, 30% interactive
//!   (SLO `--slo-ms`) / 70% batch.
//! * `bursty` — open-loop ON/OFF bursts (3.7x `--rate` inside bursts; the
//!   phase weights preserve the nominal mean rate), same interactive/batch
//!   mix.
//! * `heavy-tail` — open-loop Pareto (alpha 1.5) inter-arrivals: request
//!   trains separated by rare huge gaps.
//! * `mixed-priority` — the SLO showcase: steady arrivals with the
//!   interactive/batch mix *and* admission control shedding requests whose
//!   deadline is already hopeless (plus any `--shed-depth`/
//!   `--wait-budget-ms` bounds given).
//!
//! For every selected backend (`--backend` takes a comma list of
//! `dense|tw|csr|bsr|auto`; `--sweep-backends` selects all five) and worker
//! count the benchmark builds a pruned model, binds kernels, replays the
//! scenario and prints one CSV row per run plus one per class.  Workers
//! execute real batched sparse CPU kernels, then dwell for the batch's
//! simulated V100 time (scaled so a full dense batch costs `--dwell-ms`).
//!
//! With `--json PATH` the same numbers are written as a machine-readable
//! artifact — the input of the `compare` binary's CI regression gate:
//!
//! ```text
//! cargo run --release -p tw-bench --bin serving -- \
//!     --scenario bursty --rate 600 --requests 2000 --backend auto \
//!     --workers 1,2,4 --json BENCH_serving.json
//! ```

use std::fmt::Display;
use std::sync::Arc;
use std::time::Duration;
use tilewise::{AutoPlanner, Backend, InferenceSession, KernelRegistry, TileWiseMatrix};
use tw_bench::{csv_header, csv_row, fmt, json, report};
use tw_cluster::{AutoscalerConfig, BalancerKind, Cluster, ClusterConfig, ReplicaSpec};
use tw_gpu_sim::GpuDevice;
use tw_memory::{ModelRegistry, PolicyKind};
use tw_models::{closed_loop, Arrival, RequestGenerator, TrafficSpec};
use tw_serve::{drive, AdmissionConfig, GpuDwell, MemoryConfig, ServeConfig, Server};

const USAGE: &str = "usage: serving [--requests N] [--batch N] [--wait-ms MS] \
[--workers A,B,..] [--dims D0,D1,..] [--sparsity F] [--granularity N] \
[--backend dense|tw|csr|bsr|auto[,..]] [--sweep-backends] [--dwell-ms MS] \
[--scenario closed|steady|bursty|heavy-tail|mixed-priority] [--rate RPS] \
[--slo-ms MS] [--shed-depth N] [--wait-budget-ms MS] [--shed-hopeless] \
[--replicas N] [--balancer rr|jsq|p2c|least-wait|residency[,..]] [--heterogeneous] \
[--device v100|a100|midrange[,..]] [--autoscale] \
[--models N] [--vram-mb MB] [--mem-policy lru|cost-aware] \
[--seed N] [--json PATH]

With --replicas >= 2 the benchmark serves the (open-loop) scenario through a
tw-cluster fleet instead of a single server, once per --balancer policy.
Homogeneous fleets take the first --workers/--backend/--device entry for
every replica; --heterogeneous cycles all three lists across replicas.

With --models >= 2 the benchmark hosts N independently-pruned models behind
one server (or fleet), assigning requests round-robin across them; --vram-mb
caps device memory so weight tiles page over PCIe (tw-memory), making
cold-start vs warm latency visible per model.  Gate records key such runs as
backend \"mmN-<backend>\".";

/// Reports a usage error on stderr and exits non-zero — the benchmark is a
/// CLI, so malformed flags should produce a readable message, not a panic
/// backtrace.
fn fail(msg: impl Display) -> ! {
    eprintln!("serving: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Closed,
    Steady,
    Bursty,
    HeavyTail,
    MixedPriority,
}

impl Scenario {
    fn as_str(self) -> &'static str {
        match self {
            Scenario::Closed => "closed",
            Scenario::Steady => "steady",
            Scenario::Bursty => "bursty",
            Scenario::HeavyTail => "heavy-tail",
            Scenario::MixedPriority => "mixed-priority",
        }
    }

    fn parse(value: &str) -> Self {
        match value {
            "closed" => Scenario::Closed,
            "steady" => Scenario::Steady,
            "bursty" => Scenario::Bursty,
            "heavy-tail" => Scenario::HeavyTail,
            "mixed-priority" => Scenario::MixedPriority,
            other => fail(format!(
                "unknown scenario {other:?} (expected closed|steady|bursty|heavy-tail|mixed-priority)"
            )),
        }
    }
}

struct Options {
    requests: usize,
    max_batch: usize,
    wait_ms: f64,
    workers: Vec<usize>,
    dims: Vec<usize>,
    sparsity: f64,
    granularity: usize,
    backends: Vec<Backend>,
    dwell_ms: f64,
    scenario: Scenario,
    rate: f64,
    slo_ms: f64,
    shed_depth: Option<usize>,
    wait_budget_ms: Option<f64>,
    shed_hopeless: bool,
    replicas: usize,
    balancers: Vec<BalancerKind>,
    heterogeneous: bool,
    devices: Vec<GpuDevice>,
    autoscale: bool,
    models: usize,
    vram_mb: Option<f64>,
    mem_policy: Option<PolicyKind>,
    seed: u64,
    json_path: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            requests: 2000,
            max_batch: 8,
            wait_ms: 2.0,
            workers: vec![1, 2, 4],
            dims: vec![192, 192, 96],
            sparsity: 0.75,
            granularity: 32,
            backends: vec![Backend::TileWise],
            dwell_ms: 4.0,
            scenario: Scenario::Closed,
            rate: 400.0,
            slo_ms: 50.0,
            shed_depth: None,
            wait_budget_ms: None,
            shed_hopeless: false,
            replicas: 1,
            balancers: vec![BalancerKind::JoinShortestQueue],
            heterogeneous: false,
            devices: vec![GpuDevice::v100()],
            autoscale: false,
            models: 1,
            vram_mb: None,
            mem_policy: None,
            seed: 42,
            json_path: None,
        }
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str, expects: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(format!("{flag} expects {expects}, got {value:?}")))
}

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str, expects: &str) -> Vec<T> {
    let items: Vec<T> = value
        .split(',')
        .filter(|part| !part.trim().is_empty())
        .map(|part| parse(flag, part.trim(), expects))
        .collect();
    if items.is_empty() {
        fail(format!("{flag} expects a non-empty comma-separated list"));
    }
    items
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value =
            |name: &str| args.next().unwrap_or_else(|| fail(format!("missing value for {name}")));
        match flag.as_str() {
            "--requests" => opts.requests = parse("--requests", &value("--requests"), "an integer"),
            "--batch" => opts.max_batch = parse("--batch", &value("--batch"), "an integer"),
            "--wait-ms" => opts.wait_ms = parse("--wait-ms", &value("--wait-ms"), "a number"),
            "--workers" => {
                opts.workers = parse_list("--workers", &value("--workers"), "an integer");
            }
            "--dims" => opts.dims = parse_list("--dims", &value("--dims"), "an integer"),
            "--sparsity" => opts.sparsity = parse("--sparsity", &value("--sparsity"), "a number"),
            "--granularity" => {
                opts.granularity = parse("--granularity", &value("--granularity"), "an integer");
            }
            "--backend" => {
                opts.backends = value("--backend")
                    .split(',')
                    .filter(|part| !part.trim().is_empty())
                    .map(|part| part.parse::<Backend>().unwrap_or_else(|e| fail(e)))
                    .collect();
                if opts.backends.is_empty() {
                    fail("--backend expects a non-empty comma-separated list");
                }
            }
            "--sweep-backends" => opts.backends = Backend::ALL.to_vec(),
            "--dwell-ms" => opts.dwell_ms = parse("--dwell-ms", &value("--dwell-ms"), "a number"),
            "--scenario" => opts.scenario = Scenario::parse(&value("--scenario")),
            "--rate" => opts.rate = parse("--rate", &value("--rate"), "a number"),
            "--slo-ms" => opts.slo_ms = parse("--slo-ms", &value("--slo-ms"), "a number"),
            "--shed-depth" => {
                opts.shed_depth = Some(parse("--shed-depth", &value("--shed-depth"), "an integer"));
            }
            "--wait-budget-ms" => {
                opts.wait_budget_ms =
                    Some(parse("--wait-budget-ms", &value("--wait-budget-ms"), "a number"));
            }
            "--shed-hopeless" => opts.shed_hopeless = true,
            "--replicas" => opts.replicas = parse("--replicas", &value("--replicas"), "an integer"),
            "--balancer" => {
                opts.balancers = value("--balancer")
                    .split(',')
                    .filter(|part| !part.trim().is_empty())
                    .map(|part| part.parse::<BalancerKind>().unwrap_or_else(|e| fail(e)))
                    .collect();
                if opts.balancers.is_empty() {
                    fail("--balancer expects a non-empty comma-separated list");
                }
            }
            "--heterogeneous" => opts.heterogeneous = true,
            "--device" => {
                opts.devices = value("--device")
                    .split(',')
                    .filter(|part| !part.trim().is_empty())
                    .map(|part| part.parse::<GpuDevice>().unwrap_or_else(|e| fail(e)))
                    .collect();
                if opts.devices.is_empty() {
                    fail("--device expects a non-empty comma-separated list");
                }
            }
            "--autoscale" => opts.autoscale = true,
            "--models" => opts.models = parse("--models", &value("--models"), "an integer"),
            "--vram-mb" => {
                opts.vram_mb = Some(parse("--vram-mb", &value("--vram-mb"), "a number"));
            }
            "--mem-policy" => {
                opts.mem_policy = Some(value("--mem-policy").parse().unwrap_or_else(|e| fail(e)));
            }
            "--seed" => opts.seed = parse("--seed", &value("--seed"), "an integer"),
            "--json" => opts.json_path = Some(value("--json")),
            other => fail(format!("unknown flag {other:?}")),
        }
    }
    if opts.requests == 0 {
        fail("--requests must be at least 1");
    }
    if opts.max_batch == 0 {
        fail("--batch must be at least 1");
    }
    if opts.workers.contains(&0) {
        fail("--workers entries must be at least 1");
    }
    if !opts.wait_ms.is_finite() || opts.wait_ms < 0.0 {
        fail("--wait-ms must be a non-negative number");
    }
    if !opts.dwell_ms.is_finite() || opts.dwell_ms < 0.0 {
        fail("--dwell-ms must be a non-negative number");
    }
    if !opts.rate.is_finite() || opts.rate <= 0.0 {
        fail("--rate must be a positive number");
    }
    if !opts.slo_ms.is_finite() || opts.slo_ms <= 0.0 {
        fail("--slo-ms must be a positive number");
    }
    if opts.shed_depth == Some(0) {
        fail("--shed-depth must be at least 1");
    }
    if let Some(budget) = opts.wait_budget_ms {
        if !budget.is_finite() || budget < 0.0 {
            fail("--wait-budget-ms must be a non-negative number");
        }
    }
    if !(0.0..=1.0).contains(&opts.sparsity) {
        fail("--sparsity must be in [0, 1]");
    }
    if opts.granularity == 0 {
        fail("--granularity must be at least 1");
    }
    if opts.dims.len() < 2 {
        fail("--dims needs at least an input and an output dimension");
    }
    if opts.dims.contains(&0) {
        fail("--dims entries must be at least 1");
    }
    if opts.replicas == 0 {
        fail("--replicas must be at least 1");
    }
    if opts.replicas > 1 && opts.scenario == Scenario::Closed {
        fail("--replicas needs an open-loop scenario (steady|bursty|heavy-tail|mixed-priority)");
    }
    if (opts.heterogeneous || opts.autoscale) && opts.replicas < 2 {
        fail("--heterogeneous/--autoscale only apply with --replicas >= 2");
    }
    if opts.models == 0 {
        fail("--models must be at least 1");
    }
    if let Some(mb) = opts.vram_mb {
        if !mb.is_finite() || mb <= 0.0 {
            fail("--vram-mb must be a positive number");
        }
    }
    if opts.mem_policy.is_some() && opts.vram_mb.is_none() {
        fail("--mem-policy only applies with --vram-mb (no paging without a VRAM cap)");
    }
    opts
}

/// The traffic spec an open-loop scenario replays (`None` = closed loop).
fn traffic_spec(opts: &Options, input_dim: usize) -> Option<TrafficSpec> {
    let slo = Duration::from_secs_f64(opts.slo_ms * 1e-3);
    match opts.scenario {
        Scenario::Closed => None,
        Scenario::Steady => {
            Some(TrafficSpec::steady(opts.rate, slo, opts.requests, input_dim, opts.seed))
        }
        Scenario::Bursty => {
            Some(TrafficSpec::bursty(opts.rate, slo, opts.requests, input_dim, opts.seed))
        }
        Scenario::HeavyTail => {
            Some(TrafficSpec::heavy_tail(opts.rate, slo, opts.requests, input_dim, opts.seed))
        }
        Scenario::MixedPriority => {
            Some(TrafficSpec::mixed_priority(opts.rate, slo, opts.requests, input_dim, opts.seed))
        }
    }
}

fn admission_config(opts: &Options) -> AdmissionConfig {
    AdmissionConfig {
        max_queue_depth: opts.shed_depth,
        max_predicted_wait: opts.wait_budget_ms.map(|ms| Duration::from_secs_f64(ms * 1e-3)),
        // The mixed-priority scenario demonstrates SLO-aware shedding even
        // without explicit flags.
        shed_hopeless: opts.shed_hopeless || opts.scenario == Scenario::MixedPriority,
    }
}

/// VRAM residency management: active exactly when `--vram-mb` caps device
/// memory.
fn memory_config(opts: &Options) -> Option<MemoryConfig> {
    opts.vram_mb.map(|mb| MemoryConfig {
        vram_bytes: Some((mb * (1u64 << 20) as f64) as u64),
        policy: opts.mem_policy.unwrap_or(PolicyKind::Lru),
        ..MemoryConfig::default()
    })
}

/// The gate key's backend string: multi-model runs are keyed apart
/// (`mm2-auto`) so they get their own baseline entries.
fn backend_label(opts: &Options, backend: Backend) -> String {
    if opts.models > 1 {
        format!("mm{}-{}", opts.models, backend)
    } else {
        backend.to_string()
    }
}

/// Which model each request targets, cycled by submission index: *blocks*
/// of `4 x max_batch` per model rather than per-request alternation, so
/// model-pure batches still fill and each block's later batches can run
/// warm — per-request alternation would degenerate every batch to a
/// singleton and hide the cold/warm split the run exists to measure.
fn model_assignment(opts: &Options) -> Vec<usize> {
    let block = opts.max_batch * 4;
    (0..opts.models).flat_map(|m| vec![m; block]).collect()
}

/// The replica fleet a cluster run serves: homogeneous fleets take the
/// first `--workers`/`--backend`/`--device` entry everywhere, heterogeneous
/// ones cycle all three lists so the fleet mixes worker counts, kernel
/// plans and device generations.
fn replica_specs(opts: &Options, time_scale: f64) -> Vec<ReplicaSpec> {
    (0..opts.replicas)
        .map(|i| {
            let pick = |j: usize, len: usize| if opts.heterogeneous { j % len } else { 0 };
            ReplicaSpec {
                name: format!("r{i}"),
                workers: opts.workers[pick(i, opts.workers.len())],
                backend: opts.backends[pick(i, opts.backends.len())],
                device: opts.devices[pick(i, opts.devices.len())].clone(),
                time_scale,
            }
        })
        .collect()
}

/// Serves the scenario through a `tw-cluster` fleet, once per balancer
/// policy, printing one CSV row per run and returning the JSON run records.
fn run_cluster(
    opts: &Options,
    model_tiles: &[(String, Vec<TileWiseMatrix>)],
    time_scale: f64,
) -> Vec<String> {
    let spec = traffic_spec(opts, model_tiles[0].1[0].k())
        .unwrap_or_else(|| fail("--replicas needs an open-loop scenario"));
    let schedule = spec.schedule();
    let specs = replica_specs(opts, time_scale);
    // Requests cycle across the hosted models in batch-sized blocks.
    let assignment = model_assignment(opts);
    eprintln!(
        "# cluster: {} replica(s) [{}], {} model(s)",
        specs.len(),
        specs
            .iter()
            .map(|s| format!("{}:{}x{} on {}", s.name, s.workers, s.backend, s.device))
            .collect::<Vec<_>>()
            .join(", "),
        opts.models,
    );

    let mut records = Vec::new();
    for &balancer in &opts.balancers {
        // The gate key: multi-model cluster runs are keyed apart, exactly
        // like single-server ones (a paging fleet must never share a
        // baseline entry with a single-model fleet).
        let label = if opts.models > 1 {
            format!("mm{}-cluster-{balancer}", opts.models)
        } else {
            format!("cluster-{balancer}")
        };
        let mut config = ClusterConfig {
            max_batch_size: opts.max_batch,
            max_batch_wait: Duration::from_secs_f64(opts.wait_ms * 1e-3),
            // Open-loop submission must never block: hold the whole run (or
            // rely on the shed depth once admission is active).
            queue_capacity: opts.requests.max(opts.max_batch * 4),
            admission: admission_config(opts),
            balancer,
            balancer_seed: opts.seed,
            memory: memory_config(opts),
            ..ClusterConfig::default()
        }
        .with_traffic_classes(&spec.classes);
        if opts.autoscale {
            config.autoscaler = Some(AutoscalerConfig {
                min_replicas: opts.replicas,
                max_replicas: opts.replicas * 2,
                scale_up_depth: opts.max_batch * 4,
                scale_down_depth: opts.max_batch / 2,
                sustain: 2,
                poll_every: 25,
                template: specs[0].clone(),
            });
        }
        let mut cluster = Cluster::start_models(model_tiles.to_vec(), specs.clone(), config);
        cluster.replay(&schedule, &assignment);
        let report = cluster.shutdown();
        assert_eq!(
            report.completed + report.shed,
            opts.requests,
            "cluster lost requests under {balancer}"
        );

        let plans: Vec<String> =
            report.replicas.iter().map(|r| r.report.backend_plan.join("+")).collect();
        csv_row(&[
            opts.scenario.as_str().to_string(),
            label.clone(),
            plans.join("|"),
            report.replicas.iter().map(|r| r.report.workers.len()).sum::<usize>().to_string(),
            report.completed.to_string(),
            report.shed.to_string(),
            fmt(report.throughput_rps()),
            fmt(report.goodput_rps()),
            fmt(report.latency.p50_s * 1e3),
            fmt(report.latency.p95_s * 1e3),
            fmt(report.latency.p99_s * 1e3),
            fmt(report.mean_batch_size()),
            fmt(report.sim_gpu_s()),
        ]);
        eprintln!("# {}", report.summary());
        for line in report.replica_summary() {
            eprintln!("#   {line}");
        }
        for class in &report.classes {
            eprintln!("#   {}", class.summary_line());
        }
        for model in &report.models {
            eprintln!("#   {}", model.summary_line());
        }
        for event in &report.scale_events {
            eprintln!("#   scale: {event}");
        }
        records.push(report::cluster_run(opts.scenario.as_str(), &label, &report));
    }
    records
}

fn main() {
    let opts = parse_args();

    eprintln!(
        "# serving {} requests | scenario {} | {} model(s) {:?} @ {:.0}% target sparsity | backends [{}] | batch<={} wait {}ms | dwell {}ms/batch{}",
        opts.requests,
        opts.scenario.as_str(),
        opts.models,
        opts.dims,
        opts.sparsity * 100.0,
        opts.backends.iter().map(Backend::as_str).collect::<Vec<_>>().join(","),
        opts.max_batch,
        opts.wait_ms,
        opts.dwell_ms,
        match opts.vram_mb {
            Some(mb) => format!(
                " | VRAM {mb} MiB ({} eviction)",
                opts.mem_policy.unwrap_or(PolicyKind::Lru)
            ),
            None => String::new(),
        },
    );

    csv_header(&[
        "scenario",
        "backend",
        "plan",
        "workers",
        "requests",
        "shed",
        "throughput_rps",
        "goodput_rps",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "mean_batch",
        "sim_gpu_s",
    ]);

    // One pruned tile set per hosted model, shared by every backend run
    // (the tiles are the deterministic source of truth; only the kernel
    // binding differs), and one auto-planner priced at the batch size
    // actually benchmarked.  Model seeds are spread out so the hosted
    // models are genuinely different weights of the same architecture.
    let model_tiles: Vec<(String, Vec<TileWiseMatrix>)> = (0..opts.models)
        .map(|i| {
            let seed = opts.seed + 1000 * i as u64;
            let tiles = InferenceSession::synthetic_tiles(
                &opts.dims,
                opts.sparsity,
                opts.granularity,
                seed,
            );
            (format!("m{i}"), tiles)
        })
        .collect();
    let tiles = model_tiles[0].1.clone();
    let num_layers = tiles.len();
    let registry = KernelRegistry::standard();
    let auto = AutoPlanner::v100(opts.max_batch);

    // Scale simulated V100 time so one full *dense* batch dwells `dwell_ms`
    // of wall clock; 0 disables the dwell entirely (pure CPU benchmark).
    // The scale is shared across backends so their modelled device-time
    // differences — the quantity a backend sweep compares — survive into
    // the measured throughput and latency.
    let gpu_dwell = if opts.dwell_ms > 0.0 {
        let reference = InferenceSession::with_plan_in(
            tiles.clone(),
            &vec![Backend::Dense; num_layers],
            &registry,
            &auto,
        );
        let dense_batch_s = reference.simulated_batch_seconds(opts.max_batch);
        Some(GpuDwell { time_scale: opts.dwell_ms * 1e-3 / dense_batch_s })
    } else {
        None
    };

    let records: Vec<String> = if opts.replicas > 1 {
        run_cluster(&opts, &model_tiles, gpu_dwell.map_or(0.0, |d| d.time_scale))
    } else {
        run_single_server(&opts, &model_tiles, &registry, &auto, gpu_dwell)
    };

    if let Some(path) = &opts.json_path {
        let doc = json::object(&[
            ("benchmark", json::string("serving")),
            ("scenario", json::string(opts.scenario.as_str())),
            ("requests", opts.requests.to_string()),
            ("rate_rps", json::number(opts.rate)),
            ("slo_ms", json::number(opts.slo_ms)),
            ("dims", json::array(opts.dims.iter().map(|d| d.to_string()))),
            ("target_sparsity", json::number(opts.sparsity)),
            ("granularity", opts.granularity.to_string()),
            ("max_batch", opts.max_batch.to_string()),
            ("wait_ms", json::number(opts.wait_ms)),
            ("dwell_ms", json::number(opts.dwell_ms)),
            ("seed", opts.seed.to_string()),
            ("runs", json::array(records.iter().cloned())),
        ]);
        std::fs::write(path, doc + "\n")
            .unwrap_or_else(|e| fail(format!("cannot write {path:?}: {e}")));
        eprintln!("# wrote {} run record(s) to {path}", records.len());
    }
}

/// The single-server path: one run per (backend, worker count), as before
/// the cluster layer existed — now hosting `--models` registered models
/// behind each server, with optional VRAM paging.  Returns the JSON run
/// records.
fn run_single_server(
    opts: &Options,
    model_tiles: &[(String, Vec<TileWiseMatrix>)],
    registry: &KernelRegistry,
    auto: &AutoPlanner,
    gpu_dwell: Option<GpuDwell>,
) -> Vec<String> {
    let num_layers = model_tiles[0].1.len();
    let memory = memory_config(opts);
    let mut records: Vec<String> = Vec::new();
    for &backend in &opts.backends {
        let sessions: Vec<Arc<InferenceSession>> = model_tiles
            .iter()
            .map(|(_, tiles)| {
                Arc::new(InferenceSession::with_plan_in(
                    tiles.to_vec(),
                    &vec![backend; num_layers],
                    registry,
                    auto,
                ))
            })
            .collect();
        let session = Arc::clone(&sessions[0]);
        eprintln!(
            "# backend {}: plan [{}] | {:.1}% achieved sparsity | {} resident weight bytes x {} model(s) | batching win {:.2}x over 4 streams",
            backend,
            session.plan_summary(),
            session.sparsity() * 100.0,
            session.resident_bytes(),
            sessions.len(),
            session.batching_speedup(opts.max_batch, 4),
        );
        // Hosted models behind one server, ids in `model_tiles` order.
        let build_registry = || {
            let mut model_registry = ModelRegistry::new();
            for ((name, _), session) in model_tiles.iter().zip(&sessions) {
                model_registry.register(name.clone(), 1, Arc::clone(session));
            }
            model_registry
        };

        let spec = traffic_spec(opts, session.input_dim());
        // One schedule per backend: every worker count replays the exact
        // same arrival sequence.
        let schedule = spec.as_ref().map(|s| s.schedule());
        let mut generator = RequestGenerator::new(session.input_dim(), 1.0, opts.seed);
        let mut throughputs: Vec<(usize, f64)> = Vec::new();
        let label = backend_label(opts, backend);
        for &workers in &opts.workers {
            let mut config = ServeConfig {
                max_batch_size: opts.max_batch,
                max_batch_wait: Duration::from_secs_f64(opts.wait_ms * 1e-3),
                workers,
                queue_capacity: (opts.max_batch * workers * 4).max(64),
                gpu_dwell,
                memory,
                ..ServeConfig::default()
            };
            let closed;
            let arrivals: &[Arrival] = match &spec {
                Some(spec) => {
                    config = config
                        .with_traffic_classes(&spec.classes)
                        .with_admission(admission_config(opts));
                    if let Some(depth) = opts.shed_depth {
                        config.queue_capacity = config.queue_capacity.max(depth);
                    }
                    schedule.as_deref().expect("schedule exists with a spec")
                }
                None => {
                    closed = closed_loop(generator.payloads(opts.requests));
                    &closed
                }
            };
            let server = Server::start_registry(build_registry(), config);
            let (report, _) = drive(server, arrivals, &model_assignment(opts));
            assert_eq!(
                report.completed + report.shed,
                opts.requests,
                "lost requests at {workers} workers ({backend})"
            );
            csv_row(&[
                opts.scenario.as_str().to_string(),
                label.clone(),
                // '+'-joined so the plan stays one CSV field.
                session.layer_backends().join("+"),
                workers.to_string(),
                report.completed.to_string(),
                report.shed.to_string(),
                fmt(report.throughput_rps()),
                fmt(report.goodput_rps()),
                fmt(report.latency.p50_s * 1e3),
                fmt(report.latency.p95_s * 1e3),
                fmt(report.latency.p99_s * 1e3),
                fmt(report.mean_batch_size()),
                fmt(report.sim_gpu_s),
            ]);
            for class in &report.classes {
                eprintln!("#   [{workers} workers] {}", class.summary_line());
            }
            for model in &report.models {
                eprintln!("#   [{workers} workers] {}", model.summary_line());
            }
            throughputs.push((workers, report.throughput_rps()));
            records.push(report::serve_run(opts.scenario.as_str(), &label, workers, &report));
        }

        // Scaling verdict over the sorted worker counts actually measured
        // (meaningful for the closed loop; open-loop throughput tracks the
        // offered rate once the pool keeps up).
        let mut sorted = throughputs.clone();
        sorted.sort_by_key(|&(w, _)| w);
        let monotonic = sorted.windows(2).all(|pair| pair[1].1 > pair[0].1);
        let span = sorted.last().copied().zip(sorted.first().copied());
        if let Some(((w_hi, t_hi), (w_lo, t_lo))) = span {
            eprintln!(
                "# scaling ({}): {:.1} req/s @ {} worker(s) -> {:.1} req/s @ {} worker(s) ({:.2}x), monotonic: {}",
                backend,
                t_lo,
                w_lo,
                t_hi,
                w_hi,
                t_hi / t_lo,
                if monotonic { "yes" } else { "NO" },
            );
        }
    }
    records
}
