//! The benchmark's metric math: tail percentiles that keep enough samples
//! beyond them, latency measured from an arrival's due time, the
//! saturating phase's segment rates, and the failure ledger every run's
//! `failed` count comes from.

use std::time::{Duration, Instant};

/// A reported percentile must leave at least this many samples above it;
/// with fewer, the benchmark reports the highest percentile that does.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` of `samples`, lowered where needed so that
/// at least [`MIN_TAIL`] samples lie beyond it.  Returns `0.0` for an empty
/// sample set.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]` or a sample is NaN.
pub fn tail_percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).min(n.saturating_sub(MIN_TAIL)).max(1);
    sorted[rank - 1]
}

/// Median of `samples` (the lower middle for an even count); `0.0` when
/// empty.  Not a tail: the [`MIN_TAIL`] cap does not apply.
///
/// # Panics
/// Panics if a sample is NaN.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    sorted[(sorted.len() - 1) / 2]
}

/// Latency of an open-loop request timed from when it was *due*: the
/// generator's lateness in sending it plus the server's own
/// submission-to-completion latency.  A stalled generator therefore charges
/// its stall to every request it delayed.
pub fn due_latency(due: Duration, sent: Duration, server_latency: Duration) -> Duration {
    sent.saturating_sub(due) + server_latency
}

/// Service rate of a saturating phase, sampled over equal segments of its
/// window.  The median segment rate is reported, so a short stall of a
/// shared host moves one segment rather than the figure.
#[derive(Debug)]
pub struct SegmentRates {
    started: Instant,
    segment: Duration,
    segments: usize,
    /// `(seconds since start, requests taken into service)` at each
    /// segment boundary passed, starting with `(0, 0)`.
    marks: Vec<(f64, usize)>,
}

impl SegmentRates {
    /// Starts the clock for `segments` segments spanning `window`.
    pub fn new(window: Duration, segments: usize) -> Self {
        assert!(segments > 0, "at least one segment");
        let segment = window / segments as u32;
        SegmentRates { started: Instant::now(), segment, segments, marks: vec![(0.0, 0)] }
    }

    /// Records `progress` (requests taken into service so far) if a segment
    /// boundary has passed; returns whether the window is still open.
    pub fn tick(&mut self, progress: usize) -> bool {
        self.tick_at(self.started.elapsed(), progress)
    }

    fn tick_at(&mut self, elapsed: Duration, progress: usize) -> bool {
        if self.marks.len() <= self.segments && elapsed >= self.segment * self.marks.len() as u32 {
            self.marks.push((elapsed.as_secs_f64(), progress));
        }
        self.marks.len() <= self.segments
    }

    /// Rate of each segment recorded so far, in requests per second.  A
    /// segment runs between the times its boundaries were actually
    /// recorded.
    pub fn rates(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).max(f64::MIN_POSITIVE))
            .collect()
    }
}

/// Id conservation and failure accounting for one run.  A submission fails
/// when it is shed, never completes, completes more than once, or completes
/// with a wrong output.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    sent: usize,
    shed: usize,
    /// Completions seen per request id (ids are dense from 0).
    seen: Vec<u32>,
    /// Completions whose id the run could not observe (fleet runs only
    /// report counts).
    anonymous: usize,
    wrong: usize,
}

impl Ledger {
    /// Records one submission, shed or admitted.
    pub fn sent(&mut self, shed: bool) {
        self.sent += 1;
        if shed {
            self.shed += 1;
        }
    }

    /// Records a completion of request `id` whose output was checked.
    pub fn completed(&mut self, id: u64, correct: bool) {
        let index = usize::try_from(id).expect("request id fits in usize");
        if index >= self.seen.len() {
            self.seen.resize(index + 1, 0);
        }
        self.seen[index] += 1;
        if !correct {
            self.wrong += 1;
        }
    }

    /// Records `count` completions known only as a count.
    pub fn completed_uncounted(&mut self, count: usize) {
        self.anonymous += count;
    }

    /// Submissions recorded.
    pub fn attempted(&self) -> usize {
        self.sent
    }

    /// Distinct requests that completed at least once.
    pub fn completed_count(&self) -> usize {
        self.seen.iter().filter(|&&c| c > 0).count() + self.anonymous
    }

    /// Failed submissions: shed + lost + duplicated + wrong output, capped
    /// at the number sent.
    pub fn failed(&self) -> usize {
        let duplicates: usize = self.seen.iter().map(|&c| c.saturating_sub(1) as usize).sum();
        let lost = self.sent.saturating_sub(self.shed + self.completed_count());
        (self.shed + lost + duplicates + self.wrong).min(self.sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail_percentile(&samples, 0.99);
        assert_eq!(p99, 990.0);
        assert_eq!(samples.iter().filter(|&&s| s > p99).count(), MIN_TAIL);
    }

    #[test]
    fn small_samples_lower_the_percentile_to_keep_the_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let p99 = tail_percentile(&samples, 0.99);
        assert_eq!(p99, 190.0, "rank capped at n - 10");
        assert!(samples.iter().filter(|&&s| s > p99).count() >= MIN_TAIL);
        // The median is untouched by the cap, however few the samples.
        assert_eq!(median(&samples), 100.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0, "lower middle");
        // Too few samples for any tail: fall back to the smallest.
        assert_eq!(tail_percentile(&[3.0, 1.0, 2.0], 0.99), 1.0);
        assert_eq!(tail_percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn due_latency_charges_generator_lag() {
        let ms = Duration::from_millis;
        assert_eq!(due_latency(ms(10), ms(13), ms(5)), ms(8), "3 ms late + 5 ms served");
        assert_eq!(due_latency(ms(10), ms(10), ms(5)), ms(5), "on time");
        assert_eq!(due_latency(ms(10), ms(9), ms(5)), ms(5), "early sends are not credited");
    }

    #[test]
    fn segment_rates_time_each_segment_between_its_marks() {
        let s = |secs: f64| Duration::from_secs_f64(secs);
        let mut rates = SegmentRates::new(s(3.0), 3);
        assert!(rates.tick_at(s(0.5), 40), "no boundary yet");
        assert!(rates.tick_at(s(1.0), 100));
        // A stalled second segment: a boundary is recorded late, and the
        // segment is timed from when it was actually recorded.
        assert!(rates.tick_at(s(2.5), 130));
        assert!(!rates.tick_at(s(3.0), 190), "the last boundary closes the window");
        assert_eq!(rates.rates(), [100.0, 20.0, 120.0], "100/1.0, 30/1.5, 60/0.5");
        // The stall is not the median.
        assert_eq!(median(&rates.rates()), 100.0);
        assert!(!rates.tick_at(s(4.0), 500), "ticks after the window change nothing");
        assert_eq!(rates.marks.len(), 4);
    }

    #[test]
    fn ledger_counts_every_kind_of_failure() {
        let mut ledger = Ledger::default();
        for _ in 0..6 {
            ledger.sent(false);
        }
        ledger.sent(true);
        ledger.completed(0, true);
        ledger.completed(1, true);
        ledger.completed(2, false); // wrong output
        ledger.completed(3, true);
        ledger.completed(3, true); // duplicate
        ledger.completed(4, true);
        // id 5 never completes; id 6 was shed.
        assert_eq!(ledger.attempted(), 7);
        assert_eq!(ledger.completed_count(), 5);
        assert_eq!(ledger.failed(), 4, "shed + lost + duplicate + wrong");
    }

    #[test]
    fn clean_runs_have_no_failures() {
        let mut ledger = Ledger::default();
        for id in 0..100 {
            ledger.sent(false);
            ledger.completed(id, true);
        }
        assert_eq!(ledger.failed(), 0);
        let mut fleet = Ledger::default();
        for _ in 0..10 {
            fleet.sent(false);
        }
        fleet.completed_uncounted(9);
        assert_eq!(fleet.failed(), 1, "one admitted request never completed");
    }
}
