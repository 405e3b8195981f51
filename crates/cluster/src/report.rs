//! Aggregated outcome of one cluster run: global and per-class percentiles
//! over every replica's completions, shed accounting, goodput and balance
//! skew, plus each replica's own `ServeReport`.

use crate::replica::RetiredReplica;
use std::time::Duration;
use tw_memory::ModelPagingStats;
use tw_serve::stats::{fraction, per_second};
use tw_serve::{
    summarize, ClassPolicy, ClassStats, LatencySummary, ModelStats, RunObservation, ServeReport,
};

/// One replica's slice of the cluster report.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// Replica name from its spec.
    pub name: String,
    /// Device slug the replica priced batches on (`v100`, `a100`, ...).
    pub device: String,
    /// Submissions the balancer routed here (admitted + shed).
    pub routed: usize,
    /// The replica's own serving report (one `workers` row per worker
    /// thread, and the resolved `backend_plan`).
    pub report: ServeReport,
}

/// The outcome of one multi-replica serving run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Routing policy that produced this run.
    pub balancer: String,
    /// Submissions the cluster issued an id for (sum of replica `routed`).
    pub issued: usize,
    /// Requests completed across all replicas.
    pub completed: usize,
    /// Requests shed across all replicas.
    pub shed: usize,
    /// Wall-clock span from cluster start to shutdown.
    pub wall: Duration,
    /// Global latency order statistics over every replica's completions.
    pub latency: LatencySummary,
    /// Per-class breakdowns aggregated across replicas, in priority order.
    pub classes: Vec<ClassStats>,
    /// Per-model cold-start breakdowns aggregated across replicas, in model
    /// id order: fleet-wide tile hit rates, bytes paged and true cold/warm
    /// latency order statistics.  Empty when no replica paged (single
    /// model, no memory management).
    pub models: Vec<ModelStats>,
    /// Per-replica reports, in start order (drained replicas included).
    pub replicas: Vec<ReplicaReport>,
    /// Autoscaler decisions, in decision order (empty without autoscaling).
    pub scale_events: Vec<String>,
}

impl ClusterReport {
    /// Aggregates retired replicas into the cluster-wide view.  The
    /// latency, class and model rows come from [`tw_serve::summarize`] over
    /// the union of all replicas' observations, so the cluster percentiles
    /// are true order statistics, not averages of per-replica percentiles;
    /// shed counts and paging counters are summed over the replicas' own
    /// rows.
    pub fn aggregate(
        balancer: String,
        classes: &[ClassPolicy],
        retired: Vec<RetiredReplica>,
        scale_events: Vec<String>,
        wall: Duration,
    ) -> Self {
        let observations: Vec<RunObservation> =
            retired.iter().flat_map(|r| r.observations.iter().copied()).collect();
        let class_shed: Vec<usize> = (0..classes.len())
            .map(|id| retired.iter().filter_map(|r| r.report.classes.get(id)).map(|c| c.shed).sum())
            .collect();
        let num_models = retired.iter().map(|r| r.report.models.len()).max().unwrap_or(0);
        let models: Vec<(String, ModelPagingStats)> = (0..num_models)
            .map(|id| {
                let rows: Vec<&ModelStats> =
                    retired.iter().filter_map(|r| r.report.models.get(id)).collect();
                let paged = ModelPagingStats {
                    hits: rows.iter().map(|m| m.tile_hits).sum(),
                    misses: rows.iter().map(|m| m.tile_misses).sum(),
                    bytes_transferred: rows.iter().map(|m| m.bytes_paged).sum(),
                    transfer_seconds: rows.iter().map(|m| m.transfer_sim_s).sum(),
                };
                (rows[0].name.clone(), paged)
            })
            .collect();
        let (latency, class_stats, model_stats) =
            summarize(&observations, classes, &class_shed, &models);
        let replicas: Vec<ReplicaReport> = retired
            .into_iter()
            .map(|r| ReplicaReport {
                name: r.spec.name,
                device: r.spec.device.to_string(),
                routed: r.routed,
                report: r.report,
            })
            .collect();
        Self {
            balancer,
            issued: replicas.iter().map(|r| r.routed).sum(),
            completed: replicas.iter().map(|r| r.report.completed).sum(),
            shed: replicas.iter().map(|r| r.report.shed).sum(),
            wall,
            latency,
            classes: class_stats,
            models: model_stats,
            replicas,
            scale_events,
        }
    }

    /// Completed requests per wall-clock second, fleet-wide.
    pub fn throughput_rps(&self) -> f64 {
        per_second(self.completed, self.wall)
    }

    /// Completions within their class SLO per second (best-effort
    /// completions all count), fleet-wide.
    pub fn goodput_rps(&self) -> f64 {
        if self.classes.is_empty() {
            return self.throughput_rps();
        }
        per_second(self.classes.iter().map(|c| c.good).sum(), self.wall)
    }

    /// Fraction of issued submissions shed.
    pub fn shed_rate(&self) -> f64 {
        fraction(self.shed, self.issued)
    }

    /// Total simulated device seconds across the fleet.
    pub fn sim_gpu_s(&self) -> f64 {
        self.replicas.iter().map(|r| r.report.sim_gpu_s).sum()
    }

    /// Total bytes paged host→device across the fleet.
    pub fn bytes_paged(&self) -> u64 {
        self.replicas.iter().map(|r| r.report.bytes_paged).sum()
    }

    /// Total simulated PCIe seconds across the fleet.
    pub fn transfer_sim_s(&self) -> f64 {
        self.replicas.iter().map(|r| r.report.transfer_sim_s).sum()
    }

    /// Total batches executed across the fleet.
    pub fn batches(&self) -> usize {
        self.replicas.iter().map(|r| r.report.batches).sum()
    }

    /// Mean requests fused per batch, fleet-wide.
    pub fn mean_batch_size(&self) -> f64 {
        fraction(self.completed, self.batches())
    }

    /// Routing imbalance: the busiest replica's routed count over the
    /// per-replica mean.  `1.0` is perfectly balanced (what round-robin
    /// produces on a fixed fleet); informed policies on heterogeneous
    /// fleets *should* skew toward the fast replicas.
    pub fn balance_skew(&self) -> f64 {
        if self.issued == 0 || self.replicas.is_empty() {
            return 1.0;
        }
        let mean = self.issued as f64 / self.replicas.len() as f64;
        let max = self.replicas.iter().map(|r| r.routed).max().unwrap_or(0);
        max as f64 / mean
    }

    /// One human-readable summary line for the whole run.
    pub fn summary(&self) -> String {
        let shed = if self.shed > 0 {
            format!(" | shed {} ({:.1}%)", self.shed, self.shed_rate() * 100.0)
        } else {
            String::new()
        };
        let scaled = if self.scale_events.is_empty() {
            String::new()
        } else {
            format!(" | {} scale event(s)", self.scale_events.len())
        };
        format!(
            "[{}] {} replicas, {} issued in {:.3}s | {:.1} req/s ({:.1} good) | p50 {:.2}ms p99 {:.2}ms | skew {:.2}{shed}{scaled}",
            self.balancer,
            self.replicas.len(),
            self.issued,
            self.wall.as_secs_f64(),
            self.throughput_rps(),
            self.goodput_rps(),
            self.latency.p50_s * 1e3,
            self.latency.p99_s * 1e3,
            self.balance_skew(),
        )
    }

    /// One line per replica: where traffic went and how each copy fared.
    pub fn replica_summary(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|r| {
                format!(
                    "replica {} ({}, {} worker(s), plan [{}]): routed {}, completed {}, shed {}, p99 {:.2}ms",
                    r.name,
                    r.device,
                    r.report.workers.len(),
                    r.report.backend_plan.join(","),
                    r.routed,
                    r.report.completed,
                    r.report.shed,
                    r.report.latency.p99_s * 1e3,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::ReplicaSpec;
    use tilewise::Backend;
    use tw_serve::InferenceResponse;

    /// One retired replica: completions as `(class, model, cold, latency
    /// ms, deadline met)`, shed counts per class, and `(hits, misses,
    /// bytes, transfer s)` paging counters per model.
    fn retired(
        outcomes: &[(usize, usize, bool, u64, Option<bool>)],
        class_shed: [usize; 2],
        paging: [(u64, u64, u64, f64); 2],
    ) -> RetiredReplica {
        let responses: Vec<InferenceResponse> = outcomes
            .iter()
            .map(|&(class, model, cold, ms, deadline_met)| InferenceResponse {
                id: 0,
                output: Vec::new(),
                latency: Duration::from_millis(ms),
                batch_size: 1,
                worker: 0,
                class,
                model,
                cold,
                deadline_met,
            })
            .collect();
        let empty = LatencySummary::from_samples(Vec::new());
        let classes = (0..2)
            .map(|class| {
                let shed = class_shed[class];
                ClassStats {
                    class,
                    name: String::new(),
                    completed: 0,
                    shed,
                    good: 0,
                    latency: empty,
                }
            })
            .collect();
        let models = (0..2)
            .map(|model| ModelStats {
                model,
                name: ["a@v1", "b@v1"][model].into(),
                completed: 0,
                cold: 0,
                warm_latency: empty,
                cold_latency: empty,
                tile_hits: paging[model].0,
                tile_misses: paging[model].1,
                bytes_paged: paging[model].2,
                transfer_sim_s: paging[model].3,
            })
            .collect();
        let shed = class_shed.iter().sum();
        let report = ServeReport {
            shed,
            classes,
            models,
            ..ServeReport::from_latencies(vec![0.0; outcomes.len()], Duration::ZERO, Vec::new())
        };
        let spec = ReplicaSpec::v100("r", 1, Backend::TileWise, 0.0);
        RetiredReplica::new(spec, outcomes.len() + shed, report, &responses)
    }

    /// `count` exactly, `mean_ms` within 1e-12 relative, and the p50, p95,
    /// p99 and max latencies exactly (in ms).
    fn assert_latency(s: &LatencySummary, count: usize, mean_ms: f64, ms: [u64; 4]) {
        assert_eq!(s.count, count);
        assert_close(s.mean_s, mean_ms / 1e3);
        assert_eq!([s.p50_s, s.p95_s, s.p99_s, s.max_s], ms.map(|m| m as f64 / 1e3));
    }

    fn assert_close(actual: f64, expected: f64) {
        assert!((actual - expected).abs() <= 1e-12 * expected.abs(), "{actual} != {expected}");
    }

    #[test]
    fn aggregate_pins_fleet_latency_class_and_model_rows() {
        let r0 = retired(
            &[
                (0, 0, true, 30, Some(true)),
                (0, 0, false, 60, Some(false)),
                (1, 1, true, 120, None),
                (1, 0, false, 20, None),
            ],
            [2, 1],
            [(10, 2, 4096, 0.25), (3, 5, 8192, 0.5)],
        );
        let r1 = retired(
            &[
                (0, 1, false, 10, Some(true)),
                (0, 1, true, 80, Some(false)),
                (1, 0, false, 40, None),
                (1, 1, false, 200, None),
                (0, 0, true, 45, Some(true)),
            ],
            [1, 3],
            [(7, 1, 2048, 0.125), (0, 4, 16384, 1.0)],
        );
        let classes = [
            ClassPolicy::with_deadline("interactive", Duration::from_millis(50)),
            ClassPolicy::best_effort("batch"),
        ];
        let report = ClusterReport::aggregate(
            "jsq".into(),
            &classes,
            vec![r0, r1],
            Vec::new(),
            Duration::from_secs(2),
        );

        assert_eq!((report.issued, report.completed, report.shed), (16, 9, 7));
        assert_latency(&report.latency, 9, 605.0 / 9.0, [45, 200, 200, 200]);
        assert_close(report.goodput_rps(), 3.5);

        let rows: Vec<_> = report
            .classes
            .iter()
            .map(|c| (c.class, c.name.as_str(), c.completed, c.shed, c.good))
            .collect();
        assert_eq!(rows, [(0, "interactive", 5, 3, 3), (1, "batch", 4, 4, 4)]);
        assert_latency(&report.classes[0].latency, 5, 45.0, [45, 80, 80, 80]);
        assert_latency(&report.classes[1].latency, 4, 95.0, [40, 200, 200, 200]);

        assert_eq!(report.models.len(), 2);
        let (a, b) = (&report.models[0], &report.models[1]);
        let counts =
            |m: &ModelStats| (m.completed, m.cold, m.tile_hits, m.tile_misses, m.bytes_paged);
        assert_eq!((a.model, a.name.as_str(), counts(a)), (0, "a@v1", (5, 2, 17, 3, 6144)));
        assert_eq!((b.model, b.name.as_str(), counts(b)), (1, "b@v1", (4, 2, 3, 9, 24576)));
        assert_latency(&a.warm_latency, 3, 40.0, [40, 60, 60, 60]);
        assert_latency(&a.cold_latency, 2, 37.5, [30, 45, 45, 45]);
        assert_latency(&b.warm_latency, 2, 105.0, [10, 200, 200, 200]);
        assert_latency(&b.cold_latency, 2, 100.0, [80, 120, 120, 120]);
        assert_close(a.transfer_sim_s, 0.375);
        assert_close(b.transfer_sim_s, 1.5);
    }
}
