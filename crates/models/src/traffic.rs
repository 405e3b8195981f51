//! Open-loop traffic generation: arrival processes and request-class mixes.
//!
//! The closed-loop harness in `tw-serve` measures peak throughput, but a
//! production tier lives under *open-loop* load: requests arrive on their
//! own clock, whether or not the server keeps up.  This module generates
//! deterministic open-loop traffic schedules — each [`Arrival`] is an offset
//! from the start of the run, a request class, and a payload — under three
//! pluggable arrival processes:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless steady load (exponential
//!   inter-arrival gaps), the classic M/G/k driver.
//! * [`ArrivalProcess::BurstyOnOff`] — a Markov-modulated Poisson process:
//!   the source alternates between exponentially-long ON phases (bursting at
//!   `on_rate`) and OFF phases (trickling at `off_rate`, possibly silent).
//!   Mean rate can equal a Poisson source's while transiently overloading
//!   any finite queue.
//! * [`ArrivalProcess::Pareto`] — heavy-tailed inter-arrival gaps
//!   (`P[gap > t] ~ t^-alpha`, `1 < alpha <= 2`): most gaps are tiny (dense
//!   request trains) but rare gaps are huge, the self-similar traffic shape
//!   measured on real serving front-ends.
//!
//! A [`TrafficSpec`] pairs a process with a [`TrafficClass`] mix (for
//! example latency-sensitive *interactive* requests vs. best-effort *batch*
//! requests) and renders the whole run up front via [`TrafficSpec::schedule`],
//! so every scenario is replayable from its seed.

use crate::requests::RequestGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One scheduled request of an open-loop run.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the run at which the request arrives.
    pub at: Duration,
    /// Index into the run's [`TrafficClass`] list.
    pub class: usize,
    /// Request payload (length = the served model's input dim).
    pub payload: Vec<f32>,
}

/// A closed-loop schedule: every payload is due at once, in class 0.
/// Replayed against a server that blocks on a full queue, submission then
/// runs exactly as fast as the server drains it.
pub fn closed_loop(payloads: Vec<Vec<f32>>) -> Vec<Arrival> {
    payloads.into_iter().map(|payload| Arrival { at: Duration::ZERO, class: 0, payload }).collect()
}

/// Replays `schedule` on its own clock: sleeps until each arrival is due
/// (its offset from the call) and hands it, with its index, to `submit`.
/// An arrival already overdue — because `submit` blocked — is handed over
/// at once.
pub fn pace(schedule: &[Arrival], mut submit: impl FnMut(usize, &Arrival)) {
    let started = Instant::now();
    for (index, arrival) in schedule.iter().enumerate() {
        let due = started + arrival.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        submit(index, arrival);
    }
}

/// The inter-arrival law of an open-loop source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests/second.
    Poisson {
        /// Mean arrival rate (requests per second).
        rate: f64,
    },
    /// Markov-modulated Poisson: exponential ON phases (mean `mean_on`)
    /// arriving at `on_rate`, exponential OFF phases (mean `mean_off`)
    /// arriving at `off_rate` (`0.0` = silent).
    BurstyOnOff {
        /// Arrival rate inside a burst.
        on_rate: f64,
        /// Arrival rate between bursts (may be `0.0`).
        off_rate: f64,
        /// Mean burst length.
        mean_on: Duration,
        /// Mean gap between bursts.
        mean_off: Duration,
    },
    /// Pareto inter-arrival gaps with tail index `alpha` (heavier the closer
    /// to 1) scaled so the *mean* rate is `rate` requests/second.
    Pareto {
        /// Mean arrival rate (requests per second).
        rate: f64,
        /// Tail index; must be in `(1, 2]` for a finite mean with a
        /// heavy tail.
        alpha: f64,
    },
}

impl ArrivalProcess {
    fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate > 0.0 && rate.is_finite(), "Poisson rate must be positive");
            }
            ArrivalProcess::BurstyOnOff { on_rate, off_rate, mean_on, mean_off } => {
                assert!(on_rate > 0.0 && on_rate.is_finite(), "burst on_rate must be positive");
                assert!(
                    off_rate >= 0.0 && off_rate.is_finite(),
                    "burst off_rate must be non-negative"
                );
                assert!(mean_on > Duration::ZERO, "mean ON phase must be positive");
                assert!(mean_off > Duration::ZERO, "mean OFF phase must be positive");
            }
            ArrivalProcess::Pareto { rate, alpha } => {
                assert!(rate > 0.0 && rate.is_finite(), "Pareto rate must be positive");
                assert!(
                    alpha > 1.0 && alpha <= 2.0,
                    "Pareto tail index must be in (1, 2] for a finite-mean heavy tail"
                );
            }
        }
    }
}

/// One request class of a traffic mix.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficClass {
    /// Class name, carried through to per-class serving reports.
    pub name: String,
    /// Fraction of arrivals drawn from this class; shares are normalized
    /// over the mix, so they need not sum to 1.
    pub share: f64,
    /// Latency SLO measured from submission; `None` = best effort.  The
    /// serving layer turns this into a per-class deadline.
    pub deadline: Option<Duration>,
}

impl TrafficClass {
    /// A latency-sensitive class with an SLO deadline.
    pub fn interactive(share: f64, deadline: Duration) -> Self {
        Self { name: "interactive".into(), share, deadline: Some(deadline) }
    }

    /// A best-effort class with no deadline.
    pub fn batch(share: f64) -> Self {
        Self { name: "batch".into(), share, deadline: None }
    }
}

/// A complete open-loop traffic description, renderable to a deterministic
/// [`Arrival`] schedule.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// The inter-arrival law.
    pub process: ArrivalProcess,
    /// The class mix; `Arrival::class` indexes into this list, and list
    /// order is the serving priority order (index 0 = highest).
    pub classes: Vec<TrafficClass>,
    /// Number of arrivals to schedule.
    pub requests: usize,
    /// Payload length (the served model's input dim).
    pub input_dim: usize,
    /// RNG seed; equal specs render equal schedules.
    pub seed: u64,
}

/// The default interactive/batch mix: 30% interactive under `slo`, 70%
/// best-effort batch.
fn interactive_batch_mix(slo: Duration) -> Vec<TrafficClass> {
    vec![TrafficClass::interactive(0.3, slo), TrafficClass::batch(0.7)]
}

impl TrafficSpec {
    /// Steady Poisson load with the standard interactive/batch mix.
    pub fn steady(rate: f64, slo: Duration, requests: usize, input_dim: usize, seed: u64) -> Self {
        Self {
            process: ArrivalProcess::Poisson { rate },
            classes: interactive_batch_mix(slo),
            requests,
            input_dim,
            seed,
        }
    }

    /// Bursty ON/OFF load: ~0.5s bursts at 3.7x the nominal rate separated
    /// by ~1.5s near-silent gaps (0.1x).  The phase weights are chosen so
    /// the *mean* offered rate equals `rate` — `(3.7 * 0.5 + 0.1 * 1.5) /
    /// 2.0 = 1.0` — making `steady` vs `bursty` comparisons at the same
    /// `--rate` measure burstiness itself, not extra load.
    pub fn bursty(rate: f64, slo: Duration, requests: usize, input_dim: usize, seed: u64) -> Self {
        Self {
            process: ArrivalProcess::BurstyOnOff {
                on_rate: rate * 3.7,
                off_rate: rate * 0.1,
                mean_on: Duration::from_millis(500),
                mean_off: Duration::from_millis(1500),
            },
            classes: interactive_batch_mix(slo),
            requests,
            input_dim,
            seed,
        }
    }

    /// Heavy-tailed load: Pareto inter-arrivals at tail index 1.5.
    pub fn heavy_tail(
        rate: f64,
        slo: Duration,
        requests: usize,
        input_dim: usize,
        seed: u64,
    ) -> Self {
        Self {
            process: ArrivalProcess::Pareto { rate, alpha: 1.5 },
            classes: interactive_batch_mix(slo),
            requests,
            input_dim,
            seed,
        }
    }

    /// The SLO showcase: steady Poisson arrivals, interactive/batch mix —
    /// identical to [`TrafficSpec::steady`] today, but kept as its own
    /// constructor so the scenario vocabulary matches the benchmark CLI.
    pub fn mixed_priority(
        rate: f64,
        slo: Duration,
        requests: usize,
        input_dim: usize,
        seed: u64,
    ) -> Self {
        Self::steady(rate, slo, requests, input_dim, seed)
    }

    /// Renders the whole run: `requests` arrivals with monotonically
    /// non-decreasing offsets, classes drawn by share, payloads from the
    /// seeded [`RequestGenerator`].
    ///
    /// # Panics
    /// Panics on invalid process parameters, an empty class list,
    /// non-positive total share, or a zero `input_dim`.
    pub fn schedule(&self) -> Vec<Arrival> {
        self.process.validate();
        assert!(!self.classes.is_empty(), "traffic needs at least one class");
        let total_share: f64 = self.classes.iter().map(|c| c.share).sum();
        assert!(
            total_share > 0.0 && self.classes.iter().all(|c| c.share >= 0.0),
            "class shares must be non-negative with a positive total"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut payloads = RequestGenerator::new(self.input_dim, 1.0, self.seed ^ 0x9e37_79b9);
        let mut gaps = GapSampler::new(self.process);
        let mut at = Duration::ZERO;
        (0..self.requests)
            .map(|_| {
                at += gaps.next_gap(&mut rng);
                let mut pick = rng.gen_range(0.0..total_share);
                let mut class = self.classes.len() - 1;
                for (i, c) in self.classes.iter().enumerate() {
                    if pick < c.share {
                        class = i;
                        break;
                    }
                    pick -= c.share;
                }
                Arrival { at, class, payload: payloads.next_payload() }
            })
            .collect()
    }

    /// Mean arrival rate implied by a rendered schedule (requests/second).
    pub fn observed_rate(schedule: &[Arrival]) -> f64 {
        match schedule.last() {
            Some(last) if last.at > Duration::ZERO => schedule.len() as f64 / last.at.as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Exponential sample with the given mean (seconds).
fn exp_mean(rng: &mut StdRng, mean_s: f64) -> f64 {
    // u in (0, 1] avoids ln(0).
    let u: f64 = 1.0 - rng.gen_range(0.0f64..1.0);
    -u.ln() * mean_s
}

/// Stateful inter-arrival sampler (the ON/OFF process carries phase state).
struct GapSampler {
    process: ArrivalProcess,
    /// Remaining time in the current ON/OFF phase, and whether it is ON.
    phase: Option<(f64, bool)>,
}

impl GapSampler {
    fn new(process: ArrivalProcess) -> Self {
        Self { process, phase: None }
    }

    fn next_gap(&mut self, rng: &mut StdRng) -> Duration {
        let gap_s = match self.process {
            ArrivalProcess::Poisson { rate } => exp_mean(rng, 1.0 / rate),
            ArrivalProcess::Pareto { rate, alpha } => {
                // Scale x_m so the mean gap alpha*x_m/(alpha-1) is 1/rate.
                let x_m = (alpha - 1.0) / (alpha * rate);
                let u: f64 = 1.0 - rng.gen_range(0.0f64..1.0);
                x_m * u.powf(-1.0 / alpha)
            }
            ArrivalProcess::BurstyOnOff { on_rate, off_rate, mean_on, mean_off } => {
                // Walk phases until an arrival lands inside one.
                let (mut remaining, mut on) = self
                    .phase
                    .take()
                    .unwrap_or_else(|| (exp_mean(rng, mean_on.as_secs_f64()), true));
                let mut gap = 0.0f64;
                loop {
                    let rate = if on { on_rate } else { off_rate };
                    let candidate = if rate > 0.0 { exp_mean(rng, 1.0 / rate) } else { f64::MAX };
                    if candidate < remaining {
                        remaining -= candidate;
                        gap += candidate;
                        self.phase = Some((remaining, on));
                        break;
                    }
                    gap += remaining;
                    on = !on;
                    let mean = if on { mean_on } else { mean_off };
                    remaining = exp_mean(rng, mean.as_secs_f64());
                }
                gap
            }
        };
        Duration::from_secs_f64(gap_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap(schedule: &[Arrival]) -> f64 {
        schedule.last().unwrap().at.as_secs_f64() / schedule.len() as f64
    }

    #[test]
    fn pace_hands_out_arrivals_in_order_once_due() {
        let mut schedule = closed_loop(vec![vec![1.0], vec![2.0]]);
        assert!(schedule.iter().all(|a| a.at == Duration::ZERO && a.class == 0));
        schedule[1].at = Duration::from_millis(30);
        let started = Instant::now();
        let mut seen = Vec::new();
        pace(&schedule, |index, arrival| seen.push((index, arrival.payload[0], started.elapsed())));
        assert_eq!(seen.iter().map(|s| (s.0, s.1)).collect::<Vec<_>>(), [(0, 1.0), (1, 2.0)]);
        assert!(seen[0].2 < Duration::from_millis(30), "a due arrival is not delayed");
        assert!(seen[1].2 >= Duration::from_millis(30), "handed over before due");
    }

    #[test]
    fn schedules_are_deterministic_and_ordered() {
        let spec = TrafficSpec::steady(500.0, Duration::from_millis(50), 200, 16, 7);
        let a = spec.schedule();
        let b = spec.schedule();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "offsets must be non-decreasing");
        assert!(a.iter().all(|x| x.payload.len() == 16));
    }

    #[test]
    fn poisson_mean_rate_tracks_target() {
        let spec = TrafficSpec::steady(1000.0, Duration::from_millis(50), 5000, 4, 3);
        let schedule = spec.schedule();
        let rate = TrafficSpec::observed_rate(&schedule);
        assert!((rate - 1000.0).abs() < 100.0, "observed rate {rate}");
    }

    #[test]
    fn pareto_mean_rate_tracks_target_with_heavy_tail() {
        let spec = TrafficSpec::heavy_tail(1000.0, Duration::from_millis(50), 20_000, 4, 11);
        let schedule = spec.schedule();
        let mean = mean_gap(&schedule);
        // Heavy tail converges slowly; accept a loose band around 1ms.
        assert!(mean > 0.3e-3 && mean < 3e-3, "mean gap {mean}");
        // The defining property: the max gap dwarfs the median gap.
        let mut gaps: Vec<f64> =
            schedule.windows(2).map(|w| (w[1].at - w[0].at).as_secs_f64()).collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = gaps[gaps.len() / 2];
        let max = gaps[gaps.len() - 1];
        assert!(max > 20.0 * median, "tail not heavy: median {median} max {max}");
    }

    #[test]
    fn bursty_gaps_cluster_while_mean_rate_tracks_target() {
        // Long run: phase lengths are exponential with second-scale means,
        // so the mean rate only converges over many ON/OFF cycles.
        let spec = TrafficSpec::bursty(500.0, Duration::from_millis(50), 60_000, 4, 5);
        let schedule = spec.schedule();
        // The ON/OFF weights must preserve the nominal mean rate (a 30%
        // band comfortably excludes the 2x a naive 4x/0.1x split offers),
        // so that steady-vs-bursty comparisons at one rate isolate
        // burstiness.
        let rate = TrafficSpec::observed_rate(&schedule);
        assert!((rate - 500.0).abs() < 150.0, "observed mean rate {rate}");
        let gaps: Vec<f64> =
            schedule.windows(2).map(|w| (w[1].at - w[0].at).as_secs_f64()).collect();
        // Inside bursts gaps run at 3.7x rate (~0.5ms); between bursts the
        // trickle rate leaves ~20ms holes.  Both regimes must appear.
        let dense = gaps.iter().filter(|g| **g < 2.0 / 500.0).count();
        let sparse = gaps.iter().filter(|g| **g > 8.0 / 500.0).count();
        assert!(dense > gaps.len() / 2, "{dense}/{} dense gaps", gaps.len());
        assert!(sparse > 20, "{sparse} sparse gaps — no OFF phases seen");
    }

    #[test]
    fn class_mix_respects_shares() {
        let spec = TrafficSpec::steady(500.0, Duration::from_millis(50), 4000, 4, 13);
        let schedule = spec.schedule();
        let interactive = schedule.iter().filter(|a| a.class == 0).count();
        let share = interactive as f64 / schedule.len() as f64;
        assert!((share - 0.3).abs() < 0.05, "interactive share {share}");
        assert_eq!(spec.classes[0].name, "interactive");
        assert!(spec.classes[0].deadline.is_some());
        assert!(spec.classes[1].deadline.is_none());
    }

    #[test]
    #[should_panic(expected = "tail index")]
    fn light_tailed_pareto_rejected() {
        let spec = TrafficSpec {
            process: ArrivalProcess::Pareto { rate: 100.0, alpha: 3.0 },
            classes: vec![TrafficClass::batch(1.0)],
            requests: 10,
            input_dim: 4,
            seed: 1,
        };
        let _ = spec.schedule();
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_mix_rejected() {
        let spec = TrafficSpec {
            process: ArrivalProcess::Poisson { rate: 100.0 },
            classes: Vec::new(),
            requests: 10,
            input_dim: 4,
            seed: 1,
        };
        let _ = spec.schedule();
    }
}
