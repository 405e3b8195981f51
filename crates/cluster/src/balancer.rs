//! Request routing across replicas.
//!
//! The router sees one [`ReplicaProbe`] per live replica — queue depth, the
//! class-aware backlog a new arrival would wait behind, the cost-model
//! predicted wait for that backlog, and the replica's worker count — and
//! picks one.  The five built-in policies ([`BalancerKind`]) cover the
//! classic trade-offs:
//!
//! * [`BalancerKind::RoundRobin`] — state-only, load-blind.  The baseline
//!   every informed policy must beat on heterogeneous replicas.
//! * [`BalancerKind::JoinShortestQueue`] — full information, picks the
//!   globally shallowest queue (ties: the smaller class-aware backlog, then
//!   the lower index).  Optimal for homogeneous replicas, but treats a
//!   queue of 4 on a 1-worker midrange replica the same as on a 4-worker
//!   A100.
//! * [`BalancerKind::PowerOfTwoChoices`] — samples two distinct replicas
//!   uniformly (seeded, so runs replay deterministically) and takes the
//!   shallower: most of JSQ's benefit at O(1) probe cost (the "power of two
//!   choices" result), and the policy large fleets actually deploy.
//! * [`BalancerKind::LeastPredictedWait`] — prices each replica's backlog
//!   with its own cost model (`InferenceSession::dwell_model` by way of
//!   `Server::predicted_wait`): batches ahead x that replica's batch dwell /
//!   its worker count.  The only policy that sees *heterogeneity* — a deep
//!   queue on a fast wide replica can still be the cheapest seat.  Ties
//!   (e.g. every wait still zero) fall back to the per-worker backlog, then
//!   the raw depth, then the index.
//! * [`BalancerKind::ResidencyAware`] — the memory-aware policy: prefers
//!   replicas where the request's *model* is already warm in VRAM (affinity
//!   routing), so a paging fleet stops thrashing tiles back and forth.
//!   Replicas within 0.05 of the warmest count as equally warm, and the
//!   shallowest queue among them wins.  When *no* replica is at least half
//!   warm (the model's first touch, or a fleet thrashed by a load-blind
//!   policy), depth tie-breaks would split the cold model and page it
//!   everywhere, so affinity is seeded by `model % replicas` instead.  On a
//!   fleet without memory management every probe reports `1.0` and the
//!   policy degenerates to JSQ.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Warmth slack within which replicas count as equally warm
/// ([`BalancerKind::ResidencyAware`]).
const WARMTH_TOLERANCE: f64 = 0.05;
/// Below this best-replica warmth the model counts as cold everywhere and
/// [`BalancerKind::ResidencyAware`] seeds affinity by `model % replicas`
/// instead of queue depth.
const MIN_WARMTH: f64 = 0.5;

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

/// The built-in balancer vocabulary, parseable from CLI flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancerKind {
    /// Load-blind rotation through the replica list.
    RoundRobin,
    /// The shallowest queue.
    JoinShortestQueue,
    /// The shallower of two seeded samples.
    PowerOfTwoChoices,
    /// The cheapest cost-model-priced backlog.
    LeastPredictedWait,
    /// The warmest replica for the request's model, then the shallowest.
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

/// The cluster's routing state: the policy plus the round-robin cursor
/// and the seeded p2c sampler.  Probe slices may change length between
/// picks — the autoscaler adds and drains replicas mid-run.
pub(crate) struct Router {
    kind: BalancerKind,
    next: usize,
    rng: StdRng,
}

impl Router {
    /// A router for `kind`; `seed` feeds the p2c sampler, so equal seeds
    /// replay equal decisions (given equal probe sequences).
    pub(crate) fn new(kind: BalancerKind, seed: u64) -> Self {
        Self { kind, next: 0, rng: StdRng::seed_from_u64(seed) }
    }

    /// The policy name carried into reports.
    pub(crate) fn name(&self) -> &'static str {
        match self.kind {
            BalancerKind::RoundRobin => "round-robin",
            kind => kind.as_str(),
        }
    }

    /// Whether the policy reads [`ReplicaProbe::warm_fraction`].  Probing
    /// warmth costs a tile-cache lock (contended by the replica's own
    /// workers) plus a tile-list scan *per replica per submission*, so the
    /// cluster pays it only for [`BalancerKind::ResidencyAware`]; every
    /// other probe carries `1.0`.
    pub(crate) fn needs_warmth(&self) -> bool {
        self.kind == BalancerKind::ResidencyAware
    }

    /// Chooses the replica for one submission: an index into `probes`.
    ///
    /// # Panics
    /// Panics on an empty probe slice; the cluster never passes one.
    pub(crate) fn pick(&mut self, probes: &[ReplicaProbe]) -> usize {
        assert!(!probes.is_empty(), "cannot route without replicas");
        // Shallower queue first, then the smaller backlog, then the lower
        // index, so every decision is deterministic.
        let depth_key = |i: usize| (probes[i].queue_depth, probes[i].depth_ahead, i);
        match self.kind {
            BalancerKind::RoundRobin => {
                let pick = self.next % probes.len();
                self.next = self.next.wrapping_add(1);
                pick
            }
            BalancerKind::JoinShortestQueue => {
                (0..probes.len()).min_by_key(|&i| depth_key(i)).expect("non-empty probes")
            }
            BalancerKind::PowerOfTwoChoices => {
                if probes.len() == 1 {
                    return 0;
                }
                let a = self.rng.gen_range(0..probes.len());
                let mut b = self.rng.gen_range(0..probes.len() - 1);
                if b >= a {
                    b += 1;
                }
                std::cmp::min_by_key(a, b, |&i| depth_key(i))
            }
            BalancerKind::LeastPredictedWait => {
                let key = |i: usize| {
                    let p = &probes[i];
                    debug_assert!(p.workers > 0, "replica without workers");
                    let per_worker = p.depth_ahead as f64 / p.workers as f64;
                    (p.predicted_wait_s, per_worker, p.queue_depth as f64)
                };
                (0..probes.len())
                    .min_by(|&i, &j| {
                        key(i).partial_cmp(&key(j)).expect("finite probe keys").then(i.cmp(&j))
                    })
                    .expect("non-empty probes")
            }
            BalancerKind::ResidencyAware => {
                let warmest =
                    probes.iter().map(|p| p.warm_fraction).fold(f64::NEG_INFINITY, f64::max);
                if warmest < MIN_WARMTH {
                    return probes[0].model % probes.len();
                }
                (0..probes.len())
                    .filter(|&i| probes[i].warm_fraction >= warmest - WARMTH_TOLERANCE)
                    .min_by_key(|&i| depth_key(i))
                    .expect("the warmest probe always qualifies")
            }
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
        let mut rr = Router::new(BalancerKind::RoundRobin, 0);
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
        let mut jsq = Router::new(BalancerKind::JoinShortestQueue, 0);
        let probes = vec![probe(9, 9, 0.0, 1), probe(2, 1, 0.0, 1), probe(2, 2, 0.0, 1)];
        // Depth tie between 1 and 2 is broken by the smaller backlog.
        assert_eq!(jsq.pick(&probes), 1);
    }

    #[test]
    fn p2c_is_seed_deterministic_and_prefers_shallow_queues() {
        let probes: Vec<ReplicaProbe> =
            (0..8).map(|i| probe(if i == 3 { 0 } else { 50 }, 0, 0.0, 1)).collect();
        let picks = |seed: u64| -> Vec<usize> {
            let mut p2c = Router::new(BalancerKind::PowerOfTwoChoices, seed);
            (0..64).map(|_| p2c.pick(&probes)).collect()
        };
        assert_eq!(picks(7), picks(7), "equal seeds replay equal decisions");
        // Whenever replica 3 is sampled it wins; over 64 picks it must show
        // up far more often than 1/8 of the time.
        let hits = picks(7).iter().filter(|&&p| p == 3).count();
        assert!(hits > 8, "p2c picked the empty replica only {hits}/64 times");
        // Both sampled indices stay in range on a two-replica fleet.
        let mut p2c = Router::new(BalancerKind::PowerOfTwoChoices, 1);
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
        assert_eq!(
            Router::new(BalancerKind::JoinShortestQueue, 0).pick(&probes),
            0,
            "jsq only sees depth"
        );
        let mut least_wait = Router::new(BalancerKind::LeastPredictedWait, 0);
        assert_eq!(least_wait.pick(&probes), 1, "least-wait prices the backlog");
        // With every wait zero (no dwell) it falls back to per-worker load.
        let cold = vec![probe(6, 6, 0.0, 1), probe(8, 8, 0.0, 4)];
        assert_eq!(least_wait.pick(&cold), 1);
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
        let mut residency = Router::new(BalancerKind::ResidencyAware, 0);
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
        let mut residency = Router::new(BalancerKind::ResidencyAware, 0);
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
            let policy = Router::new(kind, 3);
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

    #[test]
    fn routing_decisions_are_pinned() {
        // A seeded stream of probe vectors over every axis a policy reads:
        // 1-6 replicas, mixed depths, waits and widths, several models, and
        // warmth on both sides of the 0.5 cold floor and the 0.05 tolerance.
        const WARMTH: [f64; 9] = [0.0, 0.04, 0.3, 0.46, 0.5, 0.52, 0.94, 0.96, 1.0];
        let mut rng = StdRng::seed_from_u64(21);
        let stream: Vec<Vec<ReplicaProbe>> = (0..40)
            .map(|_| {
                let replicas = rng.gen_range(1..7usize);
                let model = rng.gen_range(0..5usize);
                (0..replicas)
                    .map(|_| {
                        let depth = rng.gen_range(0..5usize);
                        ReplicaProbe {
                            queue_depth: depth,
                            depth_ahead: rng.gen_range(0..=depth),
                            predicted_wait_s: rng.gen_range(0..3usize) as f64 * 0.001,
                            workers: rng.gen_range(1..4usize),
                            model,
                            warm_fraction: WARMTH[rng.gen_range(0..WARMTH.len())],
                        }
                    })
                    .collect()
            })
            .collect();
        let expected = |kind| -> [usize; 40] {
            match kind {
                BalancerKind::RoundRobin => [
                    0, 1, 2, 3, 4, 1, 0, 0, 0, 4, 2, 5, 0, 1, 0, 0, 1, 1, 0, 4, //
                    2, 1, 2, 1, 0, 1, 0, 0, 4, 2, 2, 0, 0, 1, 0, 0, 1, 1, 2, 0,
                ],
                BalancerKind::JoinShortestQueue => [
                    1, 0, 2, 3, 1, 1, 1, 0, 0, 0, 2, 0, 0, 1, 0, 1, 0, 0, 0, 2, //
                    2, 1, 1, 1, 0, 2, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 2, 1, 0, 1,
                ],
                BalancerKind::PowerOfTwoChoices => [
                    1, 0, 2, 3, 5, 0, 1, 0, 0, 1, 2, 0, 0, 2, 0, 0, 0, 0, 0, 2, //
                    2, 2, 2, 1, 5, 1, 0, 0, 5, 1, 1, 0, 3, 1, 0, 0, 0, 2, 5, 0,
                ],
                BalancerKind::LeastPredictedWait => [
                    0, 3, 2, 0, 1, 1, 0, 0, 0, 4, 3, 0, 5, 2, 0, 0, 3, 0, 1, 2, //
                    2, 1, 3, 1, 3, 2, 0, 0, 5, 0, 1, 0, 1, 0, 0, 0, 2, 2, 5, 0,
                ],
                BalancerKind::ResidencyAware => [
                    1, 0, 0, 2, 2, 1, 1, 0, 0, 1, 2, 0, 4, 2, 0, 1, 3, 0, 0, 2, //
                    0, 1, 1, 0, 0, 2, 0, 0, 5, 0, 3, 0, 0, 0, 0, 0, 4, 1, 0, 0,
                ],
            }
        };
        for kind in BalancerKind::ALL {
            // One policy per kind over the whole stream: round-robin keeps
            // its cursor and p2c its RNG across fleet sizes.
            let mut policy = Router::new(kind, 7);
            let picks: Vec<usize> = stream.iter().map(|probes| policy.pick(probes)).collect();
            assert_eq!(picks, expected(kind), "{kind} decisions moved");
        }
    }
}
