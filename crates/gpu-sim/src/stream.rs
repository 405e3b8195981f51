//! CUDA-stream concurrency model.
//!
//! The paper's load-imbalance mitigation assigns different tile GEMMs to
//! different streams "and rel\[ies\] on the underlying scheduler to maximize
//! resource utilization" (Fig. 7 ④).  [`StreamSim`] models that scheduler as
//! a greedy longest-processing-time assignment of kernels to a bounded
//! number of streams; the makespan of the schedule is the latency the cost
//! model charges.

/// The result of scheduling a set of kernels onto streams.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamSchedule {
    /// Total busy time of each stream.
    pub per_stream_time: Vec<f64>,
    /// Which stream each kernel (by input index) was assigned to.
    pub assignment: Vec<usize>,
}

impl StreamSchedule {
    /// The makespan: time until the last stream finishes.
    pub fn makespan(&self) -> f64 {
        self.per_stream_time.iter().cloned().fold(0.0, f64::max)
    }

    /// Sum of all kernel times (the single-stream latency).
    pub fn total_work(&self) -> f64 {
        self.per_stream_time.iter().sum()
    }

    /// Average stream utilisation relative to the makespan.
    pub fn utilization(&self) -> f64 {
        let makespan = self.makespan();
        if makespan <= 0.0 || self.per_stream_time.is_empty() {
            return 1.0;
        }
        self.total_work() / (makespan * self.per_stream_time.len() as f64)
    }
}

/// A greedy multi-stream scheduler.
#[derive(Clone, Copy, Debug)]
pub struct StreamSim {
    num_streams: usize,
}

impl StreamSim {
    /// Creates a scheduler with the given number of concurrent streams.
    ///
    /// # Panics
    /// Panics if `num_streams` is zero.
    pub fn new(num_streams: usize) -> Self {
        assert!(num_streams > 0, "need at least one stream");
        Self { num_streams }
    }

    /// Schedules kernels with the given durations using greedy
    /// longest-processing-time-first assignment (a 4/3-approximation of the
    /// optimal makespan, and a good proxy for the hardware scheduler).
    pub fn schedule(&self, durations: &[f64]) -> StreamSchedule {
        let streams = self.num_streams.min(durations.len()).max(1);
        let mut per_stream_time = vec![0.0f64; streams];
        let mut assignment = vec![0usize; durations.len()];

        // Longest first.
        let mut order: Vec<usize> = (0..durations.len()).collect();
        order.sort_by(|&a, &b| {
            durations[b].partial_cmp(&durations[a]).expect("durations must not be NaN")
        });

        for idx in order {
            // Assign to the least-loaded stream.
            let (stream, _) = per_stream_time
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .expect("at least one stream");
            per_stream_time[stream] += durations[idx];
            assignment[idx] = stream;
        }
        StreamSchedule { per_stream_time, assignment }
    }

    /// Prices one *batch* of independent, identical kernels — the serving
    /// runtime's use case, where a dynamic batcher groups `count` forward
    /// passes of `duration` seconds each and the device overlaps them across
    /// streams.  Equivalent to [`StreamSim::schedule`] with a uniform
    /// duration vector, but without allocating it.
    ///
    /// # Panics
    /// Panics if `duration` is negative or NaN.
    pub fn schedule_uniform(&self, duration: f64, count: usize) -> StreamSchedule {
        assert!(duration >= 0.0, "kernel duration must be non-negative");
        if count == 0 {
            return StreamSchedule { per_stream_time: Vec::new(), assignment: Vec::new() };
        }
        let streams = self.num_streams.min(count);
        // Round-robin is optimal for identical durations: stream s receives
        // ceil((count - s) / streams) kernels.
        let per_stream_time: Vec<f64> =
            (0..streams).map(|s| duration * (count - s).div_ceil(streams) as f64).collect();
        let assignment: Vec<usize> = (0..count).map(|i| i % streams).collect();
        StreamSchedule { per_stream_time, assignment }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_serializes() {
        let sim = StreamSim::new(1);
        let sched = sim.schedule(&[1.0, 2.0, 3.0]);
        assert!((sched.makespan() - 6.0).abs() < 1e-12);
        assert!((sched.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equal_kernels_divide_evenly() {
        let sim = StreamSim::new(4);
        let sched = sim.schedule(&[1.0; 8]);
        assert!((sched.makespan() - 2.0).abs() < 1e-12);
        assert!((sched.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_bounded_by_largest_kernel() {
        let sim = StreamSim::new(3);
        let sched = sim.schedule(&[10.0, 1.0, 1.0, 1.0]);
        assert!((sched.makespan() - 10.0).abs() < 1e-12);
        assert!(sched.utilization() < 0.5);
    }

    #[test]
    fn lpt_beats_naive_round_robin_on_skewed_input() {
        // Naive in-order round robin over 2 streams of [5,5,1,1,4,4] gives
        // makespan 10; LPT gives 10 as well worst-case but for this input
        // [5,4,1] / [5,4,1] = 10 each: check <= sum/streams * 4/3 bound.
        let sim = StreamSim::new(2);
        let durations = [5.0, 5.0, 1.0, 1.0, 4.0, 4.0];
        let sched = sim.schedule(&durations);
        let lower_bound = durations.iter().sum::<f64>() / 2.0;
        assert!(sched.makespan() <= lower_bound * 4.0 / 3.0 + 1e-12);
        assert!(sched.makespan() >= lower_bound - 1e-12);
    }

    #[test]
    fn more_streams_never_hurt() {
        let durations: Vec<f64> = (1..20).map(|i| i as f64 * 0.1).collect();
        let mut last = f64::INFINITY;
        for s in [1, 2, 4, 8, 16] {
            let m = StreamSim::new(s).schedule(&durations).makespan();
            assert!(m <= last + 1e-12, "streams {s}: {m} > {last}");
            last = m;
        }
    }

    #[test]
    fn empty_input() {
        let sched = StreamSim::new(4).schedule(&[]);
        assert_eq!(sched.makespan(), 0.0);
        assert_eq!(sched.total_work(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_panics() {
        let _ = StreamSim::new(0);
    }

    #[test]
    fn assignment_covers_all_kernels() {
        let sim = StreamSim::new(3);
        let sched = sim.schedule(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(sched.assignment.len(), 5);
        assert!(sched.assignment.iter().all(|&s| s < 3));
        // Per-stream sums reconstruct total work.
        assert!((sched.total_work() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_batch_matches_general_scheduler() {
        for (streams, count) in [(1, 5), (4, 8), (4, 9), (8, 3), (32, 100)] {
            let sim = StreamSim::new(streams);
            let uniform = sim.schedule_uniform(0.25, count);
            let general = sim.schedule(&vec![0.25; count]);
            assert!(
                (uniform.makespan() - general.makespan()).abs() < 1e-12,
                "streams {streams} count {count}"
            );
            assert!((uniform.total_work() - general.total_work()).abs() < 1e-9);
            assert_eq!(uniform.assignment.len(), count);
        }
    }

    #[test]
    fn uniform_batch_scales_down_with_streams() {
        // Batching 16 identical forward passes over more streams shrinks the
        // priced latency until the stream count reaches the batch size.
        let mut last = f64::INFINITY;
        for streams in [1, 2, 4, 8, 16, 32] {
            let m = StreamSim::new(streams).schedule_uniform(1.0, 16).makespan();
            assert!(m <= last + 1e-12);
            last = m;
        }
        assert!((StreamSim::new(16).schedule_uniform(1.0, 16).makespan() - 1.0).abs() < 1e-12);
        assert!((StreamSim::new(32).schedule_uniform(1.0, 16).makespan() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_empty_batch() {
        let sched = StreamSim::new(4).schedule_uniform(1.0, 0);
        assert_eq!(sched.makespan(), 0.0);
        assert!(sched.assignment.is_empty());
    }
}
