//! Pluggable request routing across replicas.
//!
//! A balancer sees one [`ReplicaProbe`] per live replica — queue depth, the
//! class-aware backlog a new arrival would wait behind, the cost-model
//! predicted wait for that backlog, and the replica's worker count — and
//! picks one.  The four built-in policies cover the classic trade-offs:
//!
//! * [`RoundRobin`] — state-only, load-blind.  The baseline every informed
//!   policy must beat on heterogeneous replicas.
//! * [`JoinShortestQueue`] — full information, picks the globally shallowest
//!   queue.  Optimal for homogeneous replicas, but treats a queue of 4 on a
//!   1-worker midrange replica the same as on a 4-worker A100.
//! * [`PowerOfTwoChoices`] — samples two replicas and takes the shallower:
//!   most of JSQ's benefit at O(1) probe cost (the "power of two choices"
//!   result), and the policy large fleets actually deploy.
//! * [`LeastPredictedWait`] — prices each replica's backlog with its own
//!   cost model (`InferenceSession::dwell_model` by way of
//!   `Server::predicted_wait`): batches ahead x that replica's batch dwell /
//!   its worker count.  The only policy that sees *heterogeneity* — a deep
//!   queue on a fast wide replica can still be the cheapest seat.
//! * [`ResidencyAware`] — the memory-aware policy: prefers replicas where
//!   the request's *model* is already warm in VRAM (affinity routing), so
//!   a paging fleet stops thrashing tiles back and forth; queue depth
//!   breaks ties among equally-warm replicas.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One replica's routing snapshot, taken at submission time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicaProbe {
    /// Total queued requests across all class lanes.
    pub queue_depth: usize,
    /// Queued requests in lanes of the same or higher priority than the
    /// arrival being routed — what it would actually wait behind.
    pub depth_ahead: usize,
    /// Cost-model predicted wall-clock wait for `depth_ahead`, in seconds
    /// (zero when the replica dwells no simulated device time).
    pub predicted_wait_s: f64,
    /// The replica's worker count (its drain rate, in batches per round).
    pub workers: usize,
    /// The model the routed request targets (`0` on single-model fleets).
    pub model: usize,
    /// Fraction of the routed request's model bytes resident in this
    /// replica's VRAM (`1.0` when the replica does not page).
    pub warm_fraction: f64,
}

/// A routing policy over live replicas.
///
/// `pick` receives one probe per live replica (at least one) and returns an
/// index *into the probe slice*.  Balancers may keep state (round-robin
/// cursors, RNGs) but must not assume a stable replica count: the
/// autoscaler adds and drains replicas mid-run.
pub trait LoadBalancer: Send {
    /// Short policy name, carried into reports.
    fn name(&self) -> &'static str;

    /// Whether this policy reads [`ReplicaProbe::warm_fraction`].  Probing
    /// warmth costs a tile-cache lock (contended by the replica's own
    /// workers) plus a tile-list scan *per replica per submission*, so the
    /// cluster only pays it for policies that return `true` — every other
    /// probe carries `1.0`.  Default: `false`.
    fn needs_warmth(&self) -> bool {
        false
    }

    /// Chooses the replica for one submission.
    ///
    /// # Panics
    /// Implementations may panic on an empty probe slice; the cluster never
    /// passes one.
    fn pick(&mut self, probes: &[ReplicaProbe]) -> usize;
}

/// Load-blind rotation through the replica list.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl LoadBalancer for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn pick(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "cannot route without replicas");
        let pick = self.next % probes.len();
        self.next = self.next.wrapping_add(1);
        pick
    }
}

/// Routes to the replica with the fewest queued requests (ties: the smaller
/// class-aware backlog, then the lower index — deterministic).
#[derive(Debug, Default)]
pub struct JoinShortestQueue;

impl LoadBalancer for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "jsq"
    }

    fn pick(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "cannot route without replicas");
        probes
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (p.queue_depth, p.depth_ahead, *i))
            .map(|(i, _)| i)
            .expect("non-empty probes")
    }
}

/// Samples two distinct replicas uniformly and routes to the shallower
/// queue (the classic O(1)-probe approximation of JSQ).  Seeded, so runs
/// replay deterministically.
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    rng: StdRng,
}

impl PowerOfTwoChoices {
    /// A seeded sampler; equal seeds replay equal routing decisions (given
    /// equal probe sequences).
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }
}

impl LoadBalancer for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "p2c"
    }

    fn pick(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "cannot route without replicas");
        if probes.len() == 1 {
            return 0;
        }
        let a = self.rng.gen_range(0..probes.len());
        let mut b = self.rng.gen_range(0..probes.len() - 1);
        if b >= a {
            b += 1;
        }
        // Prefer the shallower queue; break ties toward the lower index so
        // the decision is a pure function of (rng draw, probes).
        let key = |i: usize| (probes[i].queue_depth, probes[i].depth_ahead, i);
        if key(b) < key(a) {
            b
        } else {
            a
        }
    }
}

/// Routes to the replica whose *priced* backlog is cheapest: each probe's
/// predicted wait comes from that replica's own dwell model and worker
/// count, so a fast, wide replica with a deeper queue can still win.  Ties
/// (e.g. every wait still zero) fall back to the per-worker backlog, then
/// the raw depth, then the index.
#[derive(Debug, Default)]
pub struct LeastPredictedWait;

impl LoadBalancer for LeastPredictedWait {
    fn name(&self) -> &'static str {
        "least-wait"
    }

    fn pick(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "cannot route without replicas");
        let key = |p: &ReplicaProbe| {
            debug_assert!(p.workers > 0, "replica without workers");
            (p.predicted_wait_s, p.depth_ahead as f64 / p.workers as f64, p.queue_depth as f64)
        };
        probes
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| {
                key(a).partial_cmp(&key(b)).expect("finite probe keys").then(i.cmp(j))
            })
            .map(|(i, _)| i)
            .expect("non-empty probes")
    }
}

/// Routes to the replica where the request's model is warmest in VRAM —
/// affinity routing for paging fleets.  Replicas within
/// [`ResidencyAware::WARMTH_TOLERANCE`] of the warmest are considered
/// equally warm, and the shallowest queue among them wins (so two replicas
/// both holding the model still share load instead of one wedging).
///
/// When *no* replica is meaningfully warm (below
/// [`ResidencyAware::MIN_WARMTH`], e.g. the model's first touch, or a
/// fleet thrashed by an earlier load-blind policy), depth-based
/// tie-breaking would split the cold model across replicas and page it
/// everywhere — so instead the policy seeds affinity deterministically by
/// hashing the model over the live fleet (`model % replicas`).  Each model
/// thereafter finds its home replica warm and sticks to it.
///
/// On a fleet without memory management every probe reports `1.0` and the
/// policy degenerates to JSQ.
#[derive(Debug, Default)]
pub struct ResidencyAware;

impl ResidencyAware {
    /// Warmth slack within which replicas count as equally warm.
    pub const WARMTH_TOLERANCE: f64 = 0.05;
    /// Below this best-replica warmth the model counts as cold everywhere
    /// and affinity is seeded by `model % replicas` instead of queue depth.
    pub const MIN_WARMTH: f64 = 0.5;
}

impl LoadBalancer for ResidencyAware {
    fn name(&self) -> &'static str {
        "residency"
    }

    fn needs_warmth(&self) -> bool {
        true
    }

    fn pick(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "cannot route without replicas");
        let warmest = probes.iter().map(|p| p.warm_fraction).fold(f64::NEG_INFINITY, f64::max);
        if warmest < Self::MIN_WARMTH {
            return probes[0].model % probes.len();
        }
        probes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.warm_fraction >= warmest - Self::WARMTH_TOLERANCE)
            .min_by_key(|(i, p)| (p.queue_depth, p.depth_ahead, *i))
            .map(|(i, _)| i)
            .expect("the warmest probe always qualifies")
    }
}

/// The built-in balancer vocabulary, parseable from CLI flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancerKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`JoinShortestQueue`].
    JoinShortestQueue,
    /// [`PowerOfTwoChoices`].
    PowerOfTwoChoices,
    /// [`LeastPredictedWait`].
    LeastPredictedWait,
    /// [`ResidencyAware`].
    ResidencyAware,
}

impl BalancerKind {
    /// Every built-in policy, in the order benchmarks sweep them.
    pub const ALL: [BalancerKind; 5] = [
        BalancerKind::RoundRobin,
        BalancerKind::JoinShortestQueue,
        BalancerKind::PowerOfTwoChoices,
        BalancerKind::LeastPredictedWait,
        BalancerKind::ResidencyAware,
    ];

    /// The canonical flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "rr",
            BalancerKind::JoinShortestQueue => "jsq",
            BalancerKind::PowerOfTwoChoices => "p2c",
            BalancerKind::LeastPredictedWait => "least-wait",
            BalancerKind::ResidencyAware => "residency",
        }
    }

    /// Instantiates the policy (`seed` feeds the p2c sampler; the others
    /// ignore it).
    pub fn build(self, seed: u64) -> Box<dyn LoadBalancer> {
        match self {
            BalancerKind::RoundRobin => Box::new(RoundRobin::default()),
            BalancerKind::JoinShortestQueue => Box::new(JoinShortestQueue),
            BalancerKind::PowerOfTwoChoices => Box::new(PowerOfTwoChoices::new(seed)),
            BalancerKind::LeastPredictedWait => Box::new(LeastPredictedWait),
            BalancerKind::ResidencyAware => Box::new(ResidencyAware),
        }
    }
}

impl std::fmt::Display for BalancerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Error for parsing a [`BalancerKind`] from an unknown policy name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalancerParseError(String);

impl std::fmt::Display for BalancerParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown balancer {:?} (expected rr|jsq|p2c|least-wait|residency)", self.0)
    }
}

impl std::error::Error for BalancerParseError {}

impl std::str::FromStr for BalancerKind {
    type Err = BalancerParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_lowercase().as_str() {
            "rr" | "round-robin" => Ok(BalancerKind::RoundRobin),
            "jsq" | "shortest-queue" => Ok(BalancerKind::JoinShortestQueue),
            "p2c" | "power-of-two" => Ok(BalancerKind::PowerOfTwoChoices),
            "least-wait" | "lpw" | "least-predicted-wait" => Ok(BalancerKind::LeastPredictedWait),
            "residency" | "affinity" | "residency-aware" => Ok(BalancerKind::ResidencyAware),
            other => Err(BalancerParseError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(depth: usize, ahead: usize, wait: f64, workers: usize) -> ReplicaProbe {
        ReplicaProbe {
            queue_depth: depth,
            depth_ahead: ahead,
            predicted_wait_s: wait,
            workers,
            model: 0,
            warm_fraction: 1.0,
        }
    }

    #[test]
    fn round_robin_cycles_and_adapts_to_resizes() {
        let mut rr = RoundRobin::default();
        let three: Vec<ReplicaProbe> = (0..3).map(|_| probe(0, 0, 0.0, 1)).collect();
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(&three)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Shrink to two replicas mid-rotation: picks stay in range.
        let two = &three[..2];
        for _ in 0..4 {
            assert!(rr.pick(two) < 2);
        }
    }

    #[test]
    fn jsq_takes_the_shallowest_queue_deterministically() {
        let mut jsq = JoinShortestQueue;
        let probes = vec![probe(9, 9, 0.0, 1), probe(2, 1, 0.0, 1), probe(2, 2, 0.0, 1)];
        // Depth tie between 1 and 2 is broken by the smaller backlog.
        assert_eq!(jsq.pick(&probes), 1);
    }

    #[test]
    fn p2c_is_seed_deterministic_and_prefers_shallow_queues() {
        let probes: Vec<ReplicaProbe> =
            (0..8).map(|i| probe(if i == 3 { 0 } else { 50 }, 0, 0.0, 1)).collect();
        let picks = |seed: u64| -> Vec<usize> {
            let mut p2c = PowerOfTwoChoices::new(seed);
            (0..64).map(|_| p2c.pick(&probes)).collect()
        };
        assert_eq!(picks(7), picks(7), "equal seeds replay equal decisions");
        // Whenever replica 3 is sampled it wins; over 64 picks it must show
        // up far more often than 1/8 of the time.
        let hits = picks(7).iter().filter(|&&p| p == 3).count();
        assert!(hits > 8, "p2c picked the empty replica only {hits}/64 times");
        // Both sampled indices stay in range on a two-replica fleet.
        let mut p2c = PowerOfTwoChoices::new(1);
        let two: Vec<ReplicaProbe> = (0..2).map(|_| probe(0, 0, 0.0, 1)).collect();
        for _ in 0..32 {
            assert!(p2c.pick(&two) < 2);
        }
        assert_eq!(p2c.pick(&two[..1]), 0, "single replica short-circuits");
    }

    #[test]
    fn least_wait_sees_heterogeneity_where_jsq_cannot() {
        // Replica 0: shallow queue but slow (high predicted wait).
        // Replica 1: deeper queue on fast wide hardware (low wait).
        let probes = vec![probe(3, 3, 0.9, 1), probe(8, 8, 0.1, 4)];
        assert_eq!(JoinShortestQueue.pick(&probes), 0, "jsq only sees depth");
        assert_eq!(LeastPredictedWait.pick(&probes), 1, "least-wait prices the backlog");
        // With every wait zero (no dwell) it falls back to per-worker load.
        let cold = vec![probe(6, 6, 0.0, 1), probe(8, 8, 0.0, 4)];
        assert_eq!(LeastPredictedWait.pick(&cold), 1);
    }

    #[test]
    fn residency_prefers_warm_replicas_and_splits_ties_by_depth() {
        let warm = |depth, fraction| ReplicaProbe {
            queue_depth: depth,
            depth_ahead: depth,
            predicted_wait_s: 0.0,
            workers: 1,
            model: 0,
            warm_fraction: fraction,
        };
        let mut residency = ResidencyAware;
        // The warm replica wins even with a deeper queue — paging costs
        // more than queueing here.
        let probes = vec![warm(1, 0.0), warm(6, 1.0)];
        assert_eq!(residency.pick(&probes), 1);
        // Two equally-warm replicas share load by queue depth.
        let probes = vec![warm(5, 1.0), warm(2, 0.98), warm(9, 0.4)];
        assert_eq!(residency.pick(&probes), 1, "within tolerance, shallow queue wins");
        // On a non-paging fleet (all 1.0) it degenerates to JSQ.
        let probes = vec![warm(4, 1.0), warm(2, 1.0), warm(3, 1.0)];
        assert_eq!(residency.pick(&probes), 1);
    }

    #[test]
    fn residency_seeds_cold_models_deterministically() {
        let cold = |depth, model| ReplicaProbe {
            queue_depth: depth,
            depth_ahead: depth,
            predicted_wait_s: 0.0,
            workers: 1,
            model,
            warm_fraction: 0.0,
        };
        let mut residency = ResidencyAware;
        // A cold model ignores queue depth and lands on its home replica
        // (model % fleet) — splitting it by depth would page it everywhere.
        let probes = |model| vec![cold(9, model), cold(0, model), cold(3, model)];
        assert_eq!(residency.pick(&probes(0)), 0);
        assert_eq!(residency.pick(&probes(1)), 1);
        assert_eq!(residency.pick(&probes(5)), 2);
        // Once any replica is meaningfully warm, warmth routing takes over.
        let mut warming = probes(0);
        warming[2].warm_fraction = 0.8;
        assert_eq!(residency.pick(&warming), 2);
    }

    #[test]
    fn kinds_round_trip_and_build_their_policy() {
        for kind in BalancerKind::ALL {
            let parsed: BalancerKind = kind.as_str().parse().expect("canonical spelling parses");
            assert_eq!(parsed, kind);
            let policy = kind.build(3);
            // Each kind builds the policy its name advertises.
            match kind {
                BalancerKind::RoundRobin => assert_eq!(policy.name(), "round-robin"),
                BalancerKind::JoinShortestQueue => assert_eq!(policy.name(), "jsq"),
                BalancerKind::PowerOfTwoChoices => assert_eq!(policy.name(), "p2c"),
                BalancerKind::LeastPredictedWait => assert_eq!(policy.name(), "least-wait"),
                BalancerKind::ResidencyAware => assert_eq!(policy.name(), "residency"),
            }
        }
        assert_eq!("affinity".parse::<BalancerKind>().unwrap(), BalancerKind::ResidencyAware);
        assert!("waterfall".parse::<BalancerKind>().is_err());
    }
}
