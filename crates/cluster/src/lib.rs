//! `tw-cluster` — multi-replica serving over `tw-serve`: a router with
//! five load-balancing policies and a reactive autoscaler.
//!
//! One [`tw_serve::Server`] is a single node.  Production scale means N
//! replicas behind a router, each with its own queue, batcher, worker pool
//! and — because fleets are never uniform for long — its own kernel plan,
//! worker count and simulated device generation:
//!
//! ```text
//!                       +-- Replica r0 (a100, 4 workers) -- queue → batcher → pool
//! submissions → router -+-- Replica r1 (v100, 2 workers) -- queue → batcher → pool
//!  (BalancerKind)       +-- Replica r2 (v100, 1 worker)  -- queue → batcher → pool
//!                            ↑ add / drain (Autoscaler)        → ClusterReport
//! ```
//!
//! * [`Replica`] — one server plus its [`ReplicaSpec`] (backend plan,
//!   workers, [`tw_gpu_sim::GpuDevice`] profile, dwell scale).
//! * [`BalancerKind`] — the routing policy: round-robin, join-shortest-
//!   queue, power-of-two-choices, the cost-model-aware least-predicted-wait
//!   (which prices each replica's backlog with that replica's own
//!   `InferenceSession::dwell_model`) and residency-aware, which routes a
//!   model to the replicas holding it warm in VRAM.
//! * [`Autoscaler`] — threshold + hysteresis scaling on sustained
//!   queue-depth or shed pressure; the cluster applies its decisions.
//! * [`Cluster`] — routes classed submissions, replays
//!   [`tw_models::Arrival`] schedules on their own clock
//!   ([`Cluster::replay`], one model or a cycled model assignment), and
//!   aggregates every replica's outcome into a [`ClusterReport`] with the
//!   same `tw_serve::summarize` builder a single server reports through.
//!
//! # Id conservation
//!
//! The single-server guarantee — every submission completes or sheds
//! exactly once — extends to the fleet: each replica asserts
//! `completed + shed == routed` when drained, and
//! [`Cluster::shutdown`] asserts the fleet-wide sum equals the number of
//! submissions the cluster issued, across every balancer policy and any
//! autoscaling history.
//!
//! # Deterministic drain
//!
//! Scale-down and shutdown both retire replicas through the same sequence:
//!
//! 1. The replica is removed from the live list — the balancer can no
//!    longer route to it and no new ids can reach it.
//! 2. Its server runs `tw_serve::Server::shutdown`'s documented
//!    close → join → collect ordering, draining everything already queued.
//! 3. The retired outcome (spec, routed count, report, observations) is held
//!    until [`Cluster::shutdown`] merges every replica — scaled-down ones
//!    included — into the final report.
//!
//! Scale-down drains run on a background thread so an open-loop replay's
//! arrival clock never stalls behind a retiring replica; `shutdown` joins
//! those threads before reporting, so the ordering guarantee is unchanged.

pub mod autoscaler;
pub mod balancer;
pub mod replica;
pub mod report;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleAction};
use balancer::Router;
pub use balancer::{BalancerKind, BalancerParseError, ReplicaProbe};
pub use replica::{Replica, ReplicaSpec, RetiredReplica};
pub use report::{ClusterReport, ReplicaReport};

use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tilewise::TileWiseMatrix;
use tw_models::Arrival;
use tw_serve::{
    Admission, AdmissionConfig, ClassId, ClassPolicy, MemoryConfig, ModelId, ServerClosed,
};

/// Cluster-wide serving settings shared by every replica (per-replica
/// differences live on [`ReplicaSpec`]).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Largest number of requests fused into one batch, per replica.
    pub max_batch_size: usize,
    /// Longest a batch head waits for followers, per replica.
    pub max_batch_wait: Duration,
    /// Bound on queued requests per replica.
    pub queue_capacity: usize,
    /// Request classes in priority order (index = class id).
    pub classes: Vec<ClassPolicy>,
    /// Per-replica admission policy (applied at each replica's door, after
    /// routing).
    pub admission: AdmissionConfig,
    /// Routing policy.
    pub balancer: BalancerKind,
    /// Seed for stochastic balancers (p2c).
    pub balancer_seed: u64,
    /// Reactive scaling; `None` runs a fixed fleet.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Per-replica VRAM residency management; `None` serves everything
    /// eternally resident (the legacy behavior).  With it set, every
    /// replica pages weight tiles against its own device's VRAM — the
    /// regime where [`BalancerKind::ResidencyAware`] affinity routing earns
    /// its keep.
    pub memory: Option<MemoryConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 8,
            max_batch_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            classes: vec![ClassPolicy::best_effort("default")],
            admission: AdmissionConfig::default(),
            balancer: BalancerKind::JoinShortestQueue,
            balancer_seed: 0,
            autoscaler: None,
            memory: None,
        }
    }
}

impl ClusterConfig {
    /// Panics on nonsensical settings; called by [`Cluster::start`].
    pub fn validate(&self) {
        assert!(self.max_batch_size > 0, "max batch size must be positive");
        assert!(
            self.queue_capacity >= self.max_batch_size,
            "queue capacity must hold at least one full batch"
        );
        assert!(!self.classes.is_empty(), "need at least one request class");
        if let Some(scaler) = &self.autoscaler {
            scaler.validate();
        }
    }

    /// Builder-style override of the class list (priority order).
    pub fn with_classes(mut self, classes: Vec<ClassPolicy>) -> Self {
        self.classes = classes;
        self
    }

    /// Builder-style class list mirroring a traffic mix.
    pub fn with_traffic_classes(self, classes: &[tw_models::TrafficClass]) -> Self {
        self.with_classes(ClassPolicy::from_traffic(classes))
    }
}

/// A running fleet: submit requests (the balancer routes them), or replay a
/// traffic schedule, then shut down for the aggregated report.
pub struct Cluster {
    /// The hosted models — `(name, pruned tiles)` in [`ModelId`] order,
    /// shared by every replica (each binds its own kernels per model).
    models: Vec<(String, Vec<TileWiseMatrix>)>,
    config: ClusterConfig,
    live: Vec<Replica>,
    draining: Vec<JoinHandle<RetiredReplica>>,
    router: Router,
    autoscaler: Option<Autoscaler>,
    issued: usize,
    since_poll: usize,
    /// Sheds by replicas already retired (their counts are final once they
    /// leave the routing table); keeps the autoscaler's cumulative shed
    /// signal monotonic across drains.
    retired_shed: usize,
    scale_events: Vec<String>,
    started: Instant,
}

impl Cluster {
    /// Starts one replica per spec serving the single model `tiles` (each
    /// replica binds its own kernels and prices them on its own device).
    ///
    /// # Panics
    /// Panics on an empty spec list, an invalid config, or an invalid spec.
    pub fn start(
        tiles: Vec<TileWiseMatrix>,
        specs: Vec<ReplicaSpec>,
        config: ClusterConfig,
    ) -> Self {
        Self::start_models(vec![("default".to_string(), tiles)], specs, config)
    }

    /// Starts a multi-model fleet: every replica hosts every model in
    /// `models` (ids follow list order on all replicas), and requests are
    /// routed per model via [`Cluster::submit_model`].  Combine with
    /// [`ClusterConfig::memory`] and [`BalancerKind::ResidencyAware`] for
    /// warm-affinity routing under constrained VRAM.
    ///
    /// # Panics
    /// Panics on an empty model or spec list, an invalid config, or an
    /// invalid spec.
    pub fn start_models(
        models: Vec<(String, Vec<TileWiseMatrix>)>,
        specs: Vec<ReplicaSpec>,
        config: ClusterConfig,
    ) -> Self {
        config.validate();
        assert!(!models.is_empty(), "a cluster needs at least one model");
        assert!(!specs.is_empty(), "a cluster needs at least one replica");
        let live: Vec<Replica> =
            specs.into_iter().map(|spec| Replica::start(&models, spec, &config)).collect();
        let router = Router::new(config.balancer, config.balancer_seed);
        let autoscaler = config.autoscaler.clone().map(Autoscaler::new);
        Self {
            models,
            config,
            live,
            draining: Vec::new(),
            router,
            autoscaler,
            issued: 0,
            since_poll: 0,
            retired_shed: 0,
            scale_events: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Number of live replicas right now.
    pub fn live_replicas(&self) -> usize {
        self.live.len()
    }

    /// Submissions issued so far (admitted or shed, across all replicas).
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// Total queued requests across the live fleet.
    pub fn queue_depth(&self) -> usize {
        self.live.iter().map(Replica::queue_depth).sum()
    }

    /// Autoscaler decisions so far, in decision order.
    pub fn scale_events(&self) -> &[String] {
        &self.scale_events
    }

    /// Routes one classed submission for the default model (0).  See
    /// [`Cluster::submit_model`].
    pub fn submit_to(
        &mut self,
        class: ClassId,
        payload: Vec<f32>,
    ) -> Result<(usize, Admission), ServerClosed> {
        self.submit_model(0, class, payload)
    }

    /// Routes one classed submission for `model` through the balancer.
    /// Every probe carries the replica's warmth for *this* model, so
    /// residency-aware policies can route for affinity.  Returns the chosen
    /// replica's index in the live list and the replica's admission
    /// outcome.  `Err` only once shutdown has begun (never during a run).
    ///
    /// # Panics
    /// Panics if `class` or `model` is out of range, the payload does not
    /// match the model input dim, or the balancer returns an out-of-range
    /// pick.
    pub fn submit_model(
        &mut self,
        model: ModelId,
        class: ClassId,
        payload: Vec<f32>,
    ) -> Result<(usize, Admission), ServerClosed> {
        assert!(model < self.models.len(), "model {model} out of range");
        let with_warmth = self.router.needs_warmth();
        let probes: Vec<ReplicaProbe> =
            self.live.iter().map(|r| r.probe(class, model, with_warmth)).collect();
        let pick = self.router.pick(&probes);
        assert!(
            pick < self.live.len(),
            "balancer {} picked replica {pick} of {}",
            self.router.name(),
            self.live.len()
        );
        let admission = self.live[pick].submit_model(model, class, payload)?;
        self.issued += 1;
        self.since_poll += 1;
        self.maybe_autoscale();
        Ok((pick, admission))
    }

    /// Replays a `tw-models` traffic schedule on its own clock
    /// ([`tw_models::pace`]): arrival `i` is routed, for model
    /// `models[i % models.len()]`, at its offset from the start of the
    /// replay.  `&[0]` serves a single model; `&[0, 1]` alternates two
    /// models per arrival; `&[0, 0, 0, 1]` skews traffic 3:1.
    /// Admission-refused requests land in the final report's shed
    /// accounting.  (As with `tw_serve::drive`, activate admission control
    /// or size queues for the offered load when the arrival clock must be
    /// honored under overload.)
    ///
    /// # Panics
    /// Panics on an empty `models` list, or arrivals whose class, model or
    /// payload does not fit the config.
    pub fn replay(&mut self, schedule: &[Arrival], models: &[ModelId]) {
        assert!(!models.is_empty(), "model assignment cannot be empty");
        tw_models::pace(schedule, |i, arrival| {
            self.submit_model(models[i % models.len()], arrival.class, arrival.payload.clone())
                .expect("submit before shutdown");
        });
    }

    /// On the poll cadence, feed the autoscaler one pressure observation
    /// and apply its decision.
    fn maybe_autoscale(&mut self) {
        let Some(scaler) = self.autoscaler.as_mut() else {
            return;
        };
        if self.since_poll < scaler.poll_every() {
            return;
        }
        self.since_poll = 0;
        let depth: usize = self.live.iter().map(Replica::queue_depth).sum();
        // The shed-pressure signal must stay monotonic across drains:
        // retired replicas leave the live list, so their (final) shed
        // counts are carried in `retired_shed` — otherwise a scale-down
        // would make the cumulative count *drop* and mask fresh sheds on
        // the survivors as an idle poll.
        let shed: usize =
            self.retired_shed + self.live.iter().map(Replica::shed_so_far).sum::<usize>();
        match scaler.observe(self.live.len(), depth, shed) {
            Some(ScaleAction::Up) => {
                let mut spec = scaler.template().clone();
                spec.name = scaler.next_name();
                let name = spec.name.clone();
                self.live.push(Replica::start(&self.models, spec, &self.config));
                self.scale_events.push(format!(
                    "+{name} at submission {} (fleet depth {depth}, {} live)",
                    self.issued,
                    self.live.len(),
                ));
            }
            Some(ScaleAction::Down) => {
                // Retire the shallowest live replica: least in-flight work
                // to drain, least disruption to the balancer's picture.
                let victim = self
                    .live
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, r)| (r.queue_depth(), *i))
                    .map(|(i, _)| i)
                    .expect("observe() requires a non-empty fleet");
                let replica = self.live.remove(victim);
                // Final at removal: a replica off the routing table can
                // never shed again (sheds happen at submission).
                self.retired_shed += replica.shed_so_far();
                self.scale_events.push(format!(
                    "-{} at submission {} (fleet depth {depth}, {} live)",
                    replica.spec().name,
                    self.issued,
                    self.live.len(),
                ));
                // Step 1 of the documented drain happened above (no longer
                // routable); steps 2–3 run off-thread so the arrival clock
                // keeps ticking.  Joined in `shutdown`.
                self.draining.push(std::thread::spawn(move || replica.shutdown()));
            }
            None => {}
        }
    }

    /// Drains the whole fleet and aggregates the run.  Replicas retired by
    /// scale-down are joined first (their drains were already running),
    /// then live replicas drain in start order; the report covers every
    /// replica that ever served.  Fleet-wide id conservation — completed +
    /// shed across all replicas equals submissions issued — is asserted
    /// here.
    pub fn shutdown(mut self) -> ClusterReport {
        let mut retired: Vec<RetiredReplica> =
            self.draining.drain(..).map(|h| h.join().expect("drain thread panicked")).collect();
        retired.extend(self.live.drain(..).map(Replica::shutdown));
        let report = ClusterReport::aggregate(
            self.router.name().to_string(),
            &self.config.classes,
            retired,
            self.scale_events,
            self.started.elapsed(),
        );
        assert_eq!(
            report.completed + report.shed,
            self.issued,
            "cluster lost ids: {} completed + {} shed != {} issued",
            report.completed,
            report.shed,
            self.issued,
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilewise::{Backend, InferenceSession};

    fn tiles() -> Vec<TileWiseMatrix> {
        InferenceSession::synthetic_tiles(&[24, 32, 12], 0.5, 8, 17)
    }

    fn specs(n: usize, workers: usize, time_scale: f64) -> Vec<ReplicaSpec> {
        (0..n)
            .map(|i| ReplicaSpec::v100(format!("r{i}"), workers, Backend::TileWise, time_scale))
            .collect()
    }

    #[test]
    fn fixed_fleet_round_robin_conserves_ids_and_balances_exactly() {
        let config =
            ClusterConfig { balancer: BalancerKind::RoundRobin, ..ClusterConfig::default() };
        let mut cluster = Cluster::start(tiles(), specs(3, 1, 0.0), config);
        for _ in 0..30 {
            cluster.submit_to(0, vec![0.1; 24]).unwrap();
        }
        assert_eq!(cluster.issued(), 30);
        assert_eq!(cluster.live_replicas(), 3);
        let report = cluster.shutdown();
        assert_eq!(report.completed, 30);
        assert_eq!(report.shed, 0);
        assert_eq!(report.issued, 30);
        assert_eq!(report.balancer, "round-robin");
        assert_eq!(report.replicas.len(), 3);
        for replica in &report.replicas {
            assert_eq!(replica.routed, 10, "round-robin splits 30 exactly");
            assert_eq!(replica.report.completed, 10);
        }
        assert!((report.balance_skew() - 1.0).abs() < 1e-12);
        assert_eq!(report.latency.count, 30);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn jsq_avoids_the_wedged_replica() {
        // Replica 0 crawls (huge dwell), replicas 1–2 are instant.  JSQ
        // must stop feeding the deep queue after the first few routes.
        let mut spec_list = specs(3, 1, 0.0);
        spec_list[0].time_scale = 1e5;
        let config =
            ClusterConfig { balancer: BalancerKind::JoinShortestQueue, ..ClusterConfig::default() };
        let mut cluster = Cluster::start(tiles(), spec_list, config);
        for _ in 0..60 {
            cluster.submit_to(0, vec![0.1; 24]).unwrap();
        }
        let report = cluster.shutdown();
        assert_eq!(report.completed, 60);
        let slow = &report.replicas[0];
        let fast: usize = report.replicas[1..].iter().map(|r| r.routed).sum();
        assert!(
            slow.routed < fast,
            "jsq kept feeding the wedged replica: {} vs {} to the fast pair",
            slow.routed,
            fast,
        );
    }

    #[test]
    fn autoscaler_grows_under_pressure_and_drained_replicas_stay_in_the_report() {
        let template = ReplicaSpec::v100("template", 2, Backend::TileWise, 0.0);
        let config = ClusterConfig {
            balancer: BalancerKind::JoinShortestQueue,
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 1,
                max_replicas: 3,
                scale_up_depth: 4,
                scale_down_depth: 0,
                sustain: 1,
                poll_every: 5,
                template,
            }),
            ..ClusterConfig::default()
        };
        // One crawling replica: its queue passes the threshold almost
        // immediately, so the scaler must add capacity; the added replicas
        // then absorb the rest of the load.
        let mut spec_list = specs(1, 1, 0.0);
        spec_list[0].time_scale = 5e4;
        let mut cluster = Cluster::start(tiles(), spec_list, config);
        for _ in 0..80 {
            cluster.submit_to(0, vec![0.1; 24]).unwrap();
        }
        assert!(cluster.live_replicas() > 1, "pressure must add replicas");
        let events = cluster.scale_events().to_vec();
        assert!(events.iter().any(|e| e.starts_with("+auto-")), "events: {events:?}");
        let report = cluster.shutdown();
        assert_eq!(report.completed + report.shed, 80);
        assert_eq!(report.shed, 0, "no admission control configured");
        assert!(report.replicas.len() > 1);
        assert_eq!(report.replicas.iter().map(|r| r.routed).sum::<usize>(), 80);
        assert_eq!(report.scale_events, events);
    }

    #[test]
    fn scale_down_drains_deterministically_without_losing_ids() {
        let template = ReplicaSpec::v100("template", 1, Backend::TileWise, 0.0);
        let config = ClusterConfig {
            balancer: BalancerKind::RoundRobin,
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 1,
                max_replicas: 4,
                scale_up_depth: 1000,
                scale_down_depth: 2,
                sustain: 1,
                poll_every: 4,
                template,
            }),
            ..ClusterConfig::default()
        };
        // Three idle instant replicas: the scaler drains down to the floor
        // while traffic keeps flowing; every id still lands exactly once.
        // Trickle submissions (yielding while queues are non-empty so the
        // polls actually observe an *idle* fleet even on a loaded host)
        // until the floor is reached, bounded so a wedge still fails fast.
        let mut cluster = Cluster::start(tiles(), specs(3, 1, 0.0), config);
        let mut submitted = 0;
        while cluster.live_replicas() > 1 && submitted < 2000 {
            cluster.submit_to(0, vec![0.1; 24]).unwrap();
            submitted += 1;
            while cluster.queue_depth() > 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(cluster.live_replicas(), 1, "idle fleet must drain to the floor");
        let report = cluster.shutdown();
        assert_eq!(report.completed, submitted);
        assert_eq!(report.replicas.len(), 3, "drained replicas stay in the report");
        assert_eq!(report.replicas.iter().map(|r| r.routed).sum::<usize>(), submitted);
        assert_eq!(
            report.scale_events.iter().filter(|e| e.starts_with('-')).count(),
            2,
            "two drains to reach the floor: {:?}",
            report.scale_events,
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_rejected() {
        let _ = Cluster::start(tiles(), Vec::new(), ClusterConfig::default());
    }
}
