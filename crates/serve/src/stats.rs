//! Latency, throughput, goodput and shed accounting — overall and per class.

use crate::config::ClassPolicy;
use crate::request::{InferenceResponse, ShedRecord};
use std::time::Duration;
use tw_memory::ModelPagingStats;

/// Order statistics over a set of request latencies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub count: usize,
    /// Mean latency in seconds.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Worst observed latency.
    pub max_s: f64,
}

impl LatencySummary {
    /// Summarizes latency samples (seconds).  Returns an all-zero summary
    /// for an empty input.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self { count: 0, mean_s: 0.0, p50_s: 0.0, p95_s: 0.0, p99_s: 0.0, max_s: 0.0 };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies must not be NaN"));
        let count = samples.len();
        let mean_s = samples.iter().sum::<f64>() / count as f64;
        Self {
            count,
            mean_s,
            p50_s: percentile(&samples, 0.50),
            p95_s: percentile(&samples, 0.95),
            p99_s: percentile(&samples, 0.99),
            max_s: samples[count - 1],
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
///
/// # Panics
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-worker execution counters, merged into the final report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Batches this worker executed.
    pub batches: usize,
    /// Requests this worker completed.
    pub requests: usize,
    /// Wall time spent in CPU kernel execution.
    pub cpu_busy: Duration,
    /// Simulated device seconds this worker's batches were priced at
    /// (kernel time only; paging time is [`WorkerStats::transfer_sim_s`]).
    pub sim_gpu_s: f64,
    /// Simulated PCIe seconds this worker's cold batches paid paging
    /// weight tiles in.
    pub transfer_sim_s: f64,
    /// Bytes this worker's batches paged host→device.
    pub bytes_paged: u64,
    /// Batches that had to page at least one tile in.
    pub cold_batches: usize,
}

/// One completed request's contribution to the report: its class, latency,
/// and whether it beat its deadline.  The server keeps these (not whole
/// responses) for results already streamed out mid-run, so the final report
/// still covers the entire run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunObservation {
    /// Class of the completed request.
    pub class: usize,
    /// Model that served the request.
    pub model: usize,
    /// Whether the request's batch had to page weight tiles in.
    pub cold: bool,
    /// Submission-to-completion latency in seconds.
    pub latency_s: f64,
    /// Deadline outcome (`None` for classes without an SLO).
    pub deadline_met: Option<bool>,
}

impl RunObservation {
    /// The observation a response contributes.
    pub fn of(response: &InferenceResponse) -> Self {
        Self {
            class: response.class,
            model: response.model,
            cold: response.cold,
            latency_s: response.latency.as_secs_f64(),
            deadline_met: response.deadline_met,
        }
    }
}

/// Per-class outcome breakdown.
#[derive(Clone, Debug)]
pub struct ClassStats {
    /// Class id (index into the server's class list = priority).
    pub class: usize,
    /// Class name from the [`ClassPolicy`].
    pub name: String,
    /// Requests of this class completed.
    pub completed: usize,
    /// Requests of this class refused by admission control.
    pub shed: usize,
    /// Completions that count toward goodput: within the class SLO, or any
    /// completion for a class without one.
    pub good: usize,
    /// Latency order statistics over this class's completions.
    pub latency: LatencySummary,
}

impl ClassStats {
    /// Requests of this class that entered the server (completed + shed).
    pub fn submitted(&self) -> usize {
        self.completed + self.shed
    }

    /// Fraction of this class's submissions that were shed.
    pub fn shed_rate(&self) -> f64 {
        fraction(self.shed, self.submitted())
    }

    /// Fraction of completions that beat the SLO (1.0 for best-effort
    /// classes).
    pub fn hit_rate(&self) -> f64 {
        fraction(self.good, self.completed)
    }

    /// The one-line view of this class — completions, sheds, SLO hit rate
    /// and latency percentiles — shared by the single-server and cluster
    /// report printers.
    pub fn summary_line(&self) -> String {
        format!(
            "class {} ({}): {} completed, {} shed ({:.1}%), hit rate {:.1}% | p50 {:.2}ms p99 {:.2}ms",
            self.class,
            self.name,
            self.completed,
            self.shed,
            self.shed_rate() * 100.0,
            self.hit_rate() * 100.0,
            self.latency.p50_s * 1e3,
            self.latency.p99_s * 1e3,
        )
    }
}

/// Per-model outcome breakdown: the cold-start story.  A request is *cold*
/// when its batch had to page weight tiles in over PCIe; the split
/// latency summaries make cold-start vs warm latency directly visible, and
/// the tile counters quantify the paging traffic behind it.
#[derive(Clone, Debug)]
pub struct ModelStats {
    /// Model id (index into the server's registry).
    pub model: usize,
    /// Model name (`name@version` style naming is up to the registrant).
    pub name: String,
    /// Requests this model completed.
    pub completed: usize,
    /// Completions whose batch paged tiles in.
    pub cold: usize,
    /// Latency order statistics over warm completions.
    pub warm_latency: LatencySummary,
    /// Latency order statistics over cold completions.
    pub cold_latency: LatencySummary,
    /// Weight-tile cache hits for this model.
    pub tile_hits: u64,
    /// Weight-tile cache misses for this model.
    pub tile_misses: u64,
    /// Bytes paged host→device for this model.
    pub bytes_paged: u64,
    /// Simulated PCIe seconds charged to this model's batches.
    pub transfer_sim_s: f64,
}

impl ModelStats {
    /// Fraction of tile lookups that hit (1.0 when the model was never
    /// paged, i.e. memory management off or no traffic).
    pub fn tile_hit_rate(&self) -> f64 {
        let total = self.tile_hits + self.tile_misses;
        if total == 0 {
            return 1.0;
        }
        self.tile_hits as f64 / total as f64
    }

    /// Fraction of completions that rode a cold batch.
    pub fn cold_rate(&self) -> f64 {
        fraction(self.cold, self.completed)
    }

    /// The one-line cold-start view of this model — shared by the
    /// single-server and cluster report printers so the two cannot drift.
    pub fn summary_line(&self) -> String {
        format!(
            "model {} ({}): {} completed ({} cold, {:.1}%) | tile hit {:.1}% | paged {:.2} MiB | warm p99 {:.2}ms vs cold p99 {:.2}ms",
            self.model,
            self.name,
            self.completed,
            self.cold,
            self.cold_rate() * 100.0,
            self.tile_hit_rate() * 100.0,
            self.bytes_paged as f64 / (1 << 20) as f64,
            self.warm_latency.p99_s * 1e3,
            self.cold_latency.p99_s * 1e3,
        )
    }
}

/// The outcome of one serving run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests completed.
    pub completed: usize,
    /// Requests refused by admission control (every shed is recorded; none
    /// are silently dropped).
    pub shed: usize,
    /// Wall-clock span from server start to shutdown.
    pub wall: Duration,
    /// Latency order statistics over all completions.
    pub latency: LatencySummary,
    /// Per-class breakdowns, in class (= priority) order.  Empty for
    /// reports built from bare latency samples.
    pub classes: Vec<ClassStats>,
    /// Total batches executed across workers.
    pub batches: usize,
    /// Per-worker counters.
    pub workers: Vec<WorkerStats>,
    /// Total simulated device seconds across all batches.
    pub sim_gpu_s: f64,
    /// Total simulated PCIe seconds spent paging weight tiles (zero when
    /// memory management is off).
    pub transfer_sim_s: f64,
    /// Total bytes paged host→device across all batches.
    pub bytes_paged: u64,
    /// Per-model breakdowns, in registry order.  Empty for single-model
    /// reports without memory management (the legacy shape).
    pub models: Vec<ModelStats>,
    /// Kernel family each served layer runs on the host, in layer order
    /// (empty when the report was built without a session, e.g. in unit
    /// tests).
    pub backend_plan: Vec<String>,
    /// Family the device model prices each served layer as, in layer order
    /// (differs from `backend_plan` where an auto-planned layer's host and
    /// cost-model picks differ).
    pub modelled_plan: Vec<String>,
}

/// The statistics a server and a fleet both report, built from the same
/// inputs so the two cannot drift: latency order statistics over every
/// completion, one row per class (sheds taken from `class_shed`, indexed
/// like `classes`), and one cold/warm row per entry of `models` — the
/// model's name and paging counters, in [`RunObservation::model`] order.
/// Pass no models for the legacy single-model shape without model rows.
///
/// # Panics
/// Panics if `class_shed` and `classes` differ in length.
pub fn summarize(
    observations: &[RunObservation],
    classes: &[ClassPolicy],
    class_shed: &[usize],
    models: &[(String, ModelPagingStats)],
) -> (LatencySummary, Vec<ClassStats>, Vec<ModelStats>) {
    assert_eq!(class_shed.len(), classes.len(), "one shed count per class");
    let latencies = |keep: &dyn Fn(&RunObservation) -> bool| -> Vec<f64> {
        observations.iter().filter(|o| keep(o)).map(|o| o.latency_s).collect()
    };
    let class_rows = classes
        .iter()
        .zip(class_shed)
        .enumerate()
        .map(|(id, (policy, &shed))| {
            let samples = latencies(&|o| o.class == id);
            ClassStats {
                class: id,
                name: policy.name.clone(),
                completed: samples.len(),
                shed,
                good: observations
                    .iter()
                    .filter(|o| o.class == id && o.deadline_met != Some(false))
                    .count(),
                latency: LatencySummary::from_samples(samples),
            }
        })
        .collect();
    let model_rows = models
        .iter()
        .enumerate()
        .map(|(id, (name, paged))| {
            let warm = latencies(&|o| o.model == id && !o.cold);
            let cold = latencies(&|o| o.model == id && o.cold);
            ModelStats {
                model: id,
                name: name.clone(),
                completed: warm.len() + cold.len(),
                cold: cold.len(),
                warm_latency: LatencySummary::from_samples(warm),
                cold_latency: LatencySummary::from_samples(cold),
                tile_hits: paged.hits,
                tile_misses: paged.misses,
                bytes_paged: paged.bytes_transferred,
                transfer_sim_s: paged.transfer_seconds,
            }
        })
        .collect();
    (LatencySummary::from_samples(latencies(&|_| true)), class_rows, model_rows)
}

impl ServeReport {
    /// Builds a class-blind report from raw latency samples (seconds) and
    /// worker counters.
    pub fn from_latencies(
        latencies_s: Vec<f64>,
        wall: Duration,
        workers: Vec<WorkerStats>,
    ) -> Self {
        let batches = workers.iter().map(|w| w.batches).sum();
        let sim_gpu_s = workers.iter().map(|w| w.sim_gpu_s).sum();
        let transfer_sim_s = workers.iter().map(|w| w.transfer_sim_s).sum();
        let bytes_paged = workers.iter().map(|w| w.bytes_paged).sum();
        Self {
            completed: latencies_s.len(),
            shed: 0,
            wall,
            latency: LatencySummary::from_samples(latencies_s),
            classes: Vec::new(),
            batches,
            workers,
            sim_gpu_s,
            transfer_sim_s,
            bytes_paged,
            models: Vec::new(),
            backend_plan: Vec::new(),
            modelled_plan: Vec::new(),
        }
    }

    /// Builds the full report the server emits: one observation per
    /// completion (streamed-out or final), the shed log, the class
    /// policies, and the hosted models' names and paging counters (see
    /// [`summarize`]).
    pub fn from_observations(
        observations: &[RunObservation],
        shed: &[ShedRecord],
        classes: &[ClassPolicy],
        models: &[(String, ModelPagingStats)],
        wall: Duration,
        workers: Vec<WorkerStats>,
    ) -> Self {
        let class_shed: Vec<usize> =
            (0..classes.len()).map(|id| shed.iter().filter(|s| s.class == id).count()).collect();
        let (latency, classes, models) = summarize(observations, classes, &class_shed, models);
        Self {
            completed: observations.len(),
            shed: shed.len(),
            latency,
            classes,
            models,
            ..Self::from_latencies(Vec::new(), wall, workers)
        }
    }

    /// Attaches the served model's per-layer plans to the report: the
    /// families the host runs and the families the device model prices.
    pub fn with_backend_plan(
        mut self,
        backend_plan: Vec<String>,
        modelled_plan: Vec<String>,
    ) -> Self {
        self.backend_plan = backend_plan;
        self.modelled_plan = modelled_plan;
        self
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        per_second(self.completed, self.wall)
    }

    /// *Useful* completions per wall-clock second: completions within their
    /// class SLO (best-effort completions all count).  Equals throughput
    /// for class-blind reports.
    pub fn goodput_rps(&self) -> f64 {
        if self.classes.is_empty() {
            return self.throughput_rps();
        }
        per_second(self.classes.iter().map(|c| c.good).sum(), self.wall)
    }

    /// Fraction of submissions (completed + shed) refused by admission.
    pub fn shed_rate(&self) -> f64 {
        fraction(self.shed, self.completed + self.shed)
    }

    /// Mean number of requests fused per batch.
    pub fn mean_batch_size(&self) -> f64 {
        fraction(self.completed, self.batches)
    }

    /// One human-readable summary line per run.
    pub fn summary(&self) -> String {
        let plan = if self.backend_plan.is_empty() {
            String::new()
        } else {
            format!(" | plan [{}]", self.backend_plan.join(","))
        };
        let shed = if self.shed > 0 {
            format!(" | shed {} ({:.1}%)", self.shed, self.shed_rate() * 100.0)
        } else {
            String::new()
        };
        let paged = if self.bytes_paged > 0 {
            format!(
                " | paged {:.1} MiB ({:.3}s PCIe)",
                self.bytes_paged as f64 / (1 << 20) as f64,
                self.transfer_sim_s,
            )
        } else {
            String::new()
        };
        format!(
            "{} requests in {:.3}s | {:.1} req/s ({:.1} good) | batch x̄ {:.2} | latency p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms | sim-GPU {:.3}s{paged}{shed}{plan}",
            self.completed,
            self.wall.as_secs_f64(),
            self.throughput_rps(),
            self.goodput_rps(),
            self.mean_batch_size(),
            self.latency.p50_s * 1e3,
            self.latency.p95_s * 1e3,
            self.latency.p99_s * 1e3,
            self.sim_gpu_s,
        )
    }
}

/// `part / whole`, or zero when `whole` is zero.
pub fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `count` events per second of `wall` (zero for an empty span).
pub fn per_second(count: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs <= 0.0 {
        return 0.0;
    }
    count as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ShedReason;

    #[test]
    fn percentiles_on_known_distribution() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn summary_from_samples() {
        let s = LatencySummary::from_samples(vec![0.4, 0.1, 0.2, 0.3]);
        assert_eq!(s.count, 4);
        assert!((s.mean_s - 0.25).abs() < 1e-12);
        assert_eq!(s.p50_s, 0.2);
        assert_eq!(s.max_s, 0.4);
    }

    #[test]
    fn empty_samples_are_all_zero() {
        let s = LatencySummary::from_samples(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_s, 0.0);
    }

    #[test]
    fn report_aggregates_workers() {
        let latencies: Vec<f64> = (0..10).map(|i| (10 + i) as f64 * 1e-3).collect();
        let workers = vec![
            WorkerStats {
                worker: 0,
                batches: 1,
                requests: 5,
                sim_gpu_s: 0.5,
                ..Default::default()
            },
            WorkerStats {
                worker: 1,
                batches: 1,
                requests: 5,
                sim_gpu_s: 0.25,
                transfer_sim_s: 0.1,
                bytes_paged: 2048,
                cold_batches: 1,
                ..Default::default()
            },
        ];
        let report = ServeReport::from_latencies(latencies, Duration::from_secs(2), workers)
            .with_backend_plan(
                vec!["tile-wise".into(), "csr".into()],
                vec!["tile-wise".into(), "csr".into()],
            );
        assert_eq!(report.completed, 10);
        assert!(report.summary().contains("plan [tile-wise,csr]"));
        assert_eq!(report.batches, 2);
        assert!((report.throughput_rps() - 5.0).abs() < 1e-12);
        // Class-blind report: goodput falls back to throughput.
        assert_eq!(report.goodput_rps(), report.throughput_rps());
        assert!((report.mean_batch_size() - 5.0).abs() < 1e-12);
        assert!((report.sim_gpu_s - 0.75).abs() < 1e-12);
        assert!((report.transfer_sim_s - 0.1).abs() < 1e-12);
        assert_eq!(report.bytes_paged, 2048);
        assert!(report.summary().contains("req/s"));
        assert!(report.summary().contains("paged"), "paging shows up: {}", report.summary());
    }

    #[test]
    fn per_class_breakdown_splits_goodput_and_sheds() {
        let classes = vec![
            ClassPolicy::with_deadline("interactive", Duration::from_millis(50)),
            ClassPolicy::best_effort("batch"),
        ];
        let observations = vec![
            RunObservation {
                class: 0,
                model: 0,
                cold: false,
                latency_s: 0.010,
                deadline_met: Some(true),
            },
            RunObservation {
                class: 0,
                model: 0,
                cold: false,
                latency_s: 0.080,
                deadline_met: Some(false),
            },
            RunObservation {
                class: 1,
                model: 0,
                cold: false,
                latency_s: 0.200,
                deadline_met: None,
            },
            RunObservation {
                class: 1,
                model: 0,
                cold: false,
                latency_s: 0.400,
                deadline_met: None,
            },
        ];
        let shed = vec![
            ShedRecord { id: 10, class: 0, reason: ShedReason::Deadline },
            ShedRecord { id: 11, class: 1, reason: ShedReason::QueueFull },
            ShedRecord { id: 12, class: 1, reason: ShedReason::QueueFull },
        ];
        let report = ServeReport::from_observations(
            &observations,
            &shed,
            &classes,
            &[],
            Duration::from_secs(1),
            Vec::new(),
        );
        assert_eq!(report.completed, 4);
        assert_eq!(report.shed, 3);
        assert!((report.shed_rate() - 3.0 / 7.0).abs() < 1e-12);
        // Goodput: 1 interactive hit + 2 best-effort completions.
        assert!((report.goodput_rps() - 3.0).abs() < 1e-12);
        assert!((report.throughput_rps() - 4.0).abs() < 1e-12);

        let interactive = &report.classes[0];
        assert_eq!(interactive.name, "interactive");
        assert_eq!(interactive.completed, 2);
        assert_eq!(interactive.shed, 1);
        assert_eq!(interactive.good, 1);
        assert!((interactive.hit_rate() - 0.5).abs() < 1e-12);
        assert!((interactive.shed_rate() - 1.0 / 3.0).abs() < 1e-12);

        let batch = &report.classes[1];
        assert_eq!(batch.completed, 2);
        assert_eq!(batch.shed, 2);
        assert_eq!(batch.good, 2, "best-effort completions all count as good");
        assert!(batch.latency.p99_s >= interactive.latency.p99_s);

        let line = interactive.summary_line();
        assert!(
            line.contains("(interactive): 2 completed, 1 shed (33.3%), hit rate 50.0%"),
            "{line}"
        );
        assert!(report.summary().contains("shed 3"));
    }

    #[test]
    fn model_stats_rates_and_summary_lines() {
        let stats = ModelStats {
            model: 0,
            name: "bert".into(),
            completed: 10,
            cold: 4,
            warm_latency: LatencySummary::from_samples(vec![0.002; 6]),
            cold_latency: LatencySummary::from_samples(vec![0.009; 4]),
            tile_hits: 90,
            tile_misses: 10,
            bytes_paged: 3 << 20,
            transfer_sim_s: 0.25,
        };
        assert!((stats.tile_hit_rate() - 0.9).abs() < 1e-12);
        assert!((stats.cold_rate() - 0.4).abs() < 1e-12);
        let line = stats.summary_line();
        assert!(line.contains("bert"), "{line}");
        assert!(line.contains("4 cold"), "{line}");
        assert!(line.contains("tile hit 90.0%"), "{line}");
        // A model never paged reports a perfect hit rate, not a 0/0 NaN.
        let untouched = ModelStats {
            model: 1,
            name: "idle".into(),
            completed: 0,
            cold: 0,
            warm_latency: LatencySummary::from_samples(Vec::new()),
            cold_latency: LatencySummary::from_samples(Vec::new()),
            tile_hits: 0,
            tile_misses: 0,
            bytes_paged: 0,
            transfer_sim_s: 0.0,
        };
        assert_eq!(untouched.tile_hit_rate(), 1.0);
        assert_eq!(untouched.cold_rate(), 0.0);
    }
}
