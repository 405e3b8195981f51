//! `perfbench` — the repository benchmark.  It drives the tile-wise serving
//! stack (`tilewise` → `tw-serve` → `tw-memory` → `tw-cluster`) through the
//! crates' public APIs from one process, checks every output it can see,
//! and prints one JSON result line last on standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload host-open --seed 1 --seconds 34 --trace 0
//! ```
//!
//! Workloads: `host-open` (see `host.rs`) and `fleet-paging` (see
//! `fleet.rs`).  Each pass has an open-loop phase, which sets the latency
//! metrics, and a saturating phase, which sets throughput and goodput.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics in a separate run.
//! `README.md` lists every metric with its source and the end-to-end metric
//! it should move.

mod fleet;
mod host;
mod probes;
mod report;
mod stats;
mod trace;

use report::{result_line, Metrics};
use std::process::exit;
use std::time::{Duration, Instant};
use tw_cluster::ClusterReport;
use tw_serve::{Admission, ModelStats, ShedReason};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Share of a pass spent in the open-loop phase; the saturating phase
/// takes the rest.
const OPEN_SHARE: f64 = 0.75;

/// Segments of a saturating phase; throughput is their median rate.
pub const SEGMENTS: usize = 5;

/// How long a saturating client sleeps while its backlog is full.
pub const POLL: Duration = Duration::from_micros(200);

/// An open-loop run is invalid when its generator sends the p99 request
/// later than this after it was due.
pub const LAG_BOUND: Duration = Duration::from_millis(20);

const USAGE: &str = "usage: perfbench --workload host-open|fleet-paging \
--seed N --seconds S --trace 0|1";

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// Sheds by reason, counted from the admissions the client saw.
#[derive(Clone, Debug, Default)]
pub struct ShedCounts {
    queue_full: usize,
    wait_budget: usize,
    deadline: usize,
}

impl ShedCounts {
    pub fn count(&mut self, admission: &Admission) {
        if let Admission::Shed(record) = admission {
            match record.reason {
                ShedReason::QueueFull => self.queue_full += 1,
                ShedReason::WaitBudget => self.wait_budget += 1,
                ShedReason::Deadline => self.deadline += 1,
            }
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put("serve.shed.queue_full", self.queue_full as f64, "count");
        m.put("serve.shed.wait_budget", self.wait_budget as f64, "count");
        m.put("serve.shed.deadline", self.deadline as f64, "count");
    }
}

/// A pass of `seconds` split into its open-loop and saturating phases.
pub fn phases(seconds: f64) -> (Duration, Duration) {
    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    (open, Duration::from_secs_f64(seconds) - open)
}

pub fn sleep_until(target: Instant) {
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Modelled device metrics from the simulated seconds the workers priced.
pub fn device_metrics(
    sim_gpu_s: f64,
    transfer_sim_s: f64,
    batches: usize,
    completed: usize,
    m: &mut Metrics,
) {
    let device_s = sim_gpu_s + transfer_sim_s;
    m.put("serve.dwell_ms_per_batch", device_s / batches.max(1) as f64 * 1e3, "ms");
    m.put("gpu_sim.device_us_per_req", sim_gpu_s / completed.max(1) as f64 * 1e6, "us");
    let pcie_share = if device_s > 0.0 { transfer_sim_s / device_s } else { 0.0 };
    m.put("gpu_sim.pcie_share", pcie_share, "frac");
}

/// Paging metrics summed over the per-model rows (zero without paging).
pub fn memory_metrics(models: &[ModelStats], completed: usize, m: &mut Metrics) {
    let hits: u64 = models.iter().map(|s| s.tile_hits).sum();
    let lookups = hits + models.iter().map(|s| s.tile_misses).sum::<u64>();
    let hit_rate = if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 };
    m.put("memory.tile_hit_rate", hit_rate, "frac");
    let paged: u64 = models.iter().map(|s| s.bytes_paged).sum();
    m.put("memory.bytes_paged_mb", paged as f64 / 1e6, "MB");
    let cold: usize = models.iter().map(|s| s.cold).sum();
    m.put("memory.cold_frac", cold as f64 / completed.max(1) as f64, "frac");
}

/// Routing metrics of a cluster run and the `Cluster::submit_model` call
/// times (seconds) it took.
pub fn cluster_metrics(report: &ClusterReport, route_s: &[f64], m: &mut Metrics) {
    m.put("cluster.balance_skew", report.balance_skew(), "ratio");
    m.put_tail("cluster.route_us", route_s, 1e6, "us");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench: {message}\n{USAGE}");
    exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| fail(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse().unwrap_or_else(|_| fail("--seed expects an integer")));
            }
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| fail("--seconds expects a number"));
                if !(s.is_finite() && s > 0.0) {
                    fail("--seconds must be positive");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace expects 0 or 1"),
                });
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| fail("--workload is required")),
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

fn main() {
    let args = parse_args();
    let outcome = match args.workload.as_str() {
        "host-open" => host::run(args.seed, args.seconds, args.trace),
        "fleet-paging" => fleet::run(args.seed, args.seconds, args.trace),
        other => fail(&format!("unknown workload {other:?}")),
    };
    eprint!("{}", outcome.metrics.table());
    println!(
        "{}",
        result_line(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if !outcome.correct {
        eprintln!("perfbench: {} of {} request(s) failed", outcome.failed, outcome.attempted);
        exit(1);
    }
}
