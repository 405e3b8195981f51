//! The SLO-aware dynamic batcher: size-, wait- and deadline-bounded
//! request grouping.
//!
//! Batching amortizes per-kernel overhead (and, on the modelled GPU, fills
//! streams), but waiting for a full batch adds latency.  The standard
//! compromise — used by every production inference server — is a *dynamic*
//! batch: close the batch at `max_batch_size` requests, or `max_batch_wait`
//! after the first request arrived, whichever comes first.  The wait clock
//! starts at the batch head, so an idle server adds zero batching latency to
//! a lone request beyond the configured budget.
//!
//! On top of that, [`SloBatcher`] is *deadline-aware*: every batch member
//! with an SLO tightens the fill deadline to `member.deadline -
//! predicted_execution`, where the predicted execution time comes from the
//! session's cost-model dwell table.  A batch carrying a near-deadline
//! interactive request therefore stops *waiting* early instead of politely
//! waiting out a budget the request cannot afford.  Past the fill deadline
//! the batcher stays work-conserving: requests already queued still join,
//! up to `max_batch_size` (the predicted execution time is priced for a
//! full batch, so the deadline margin holds).
//! Requests are popped from the priority queue, so higher-priority lanes
//! fill batches first.
//!
//! # Model purity
//!
//! A batch is fused into *one* activation matrix against *one* model's
//! weights, so every batch must be model-pure.  On a multi-model server the
//! fill phase stops at the first popped request targeting a different
//! model; that request is stashed (never dropped) and becomes the head of a
//! subsequent batch.  On a single-model server the stash stays empty and
//! behavior is unchanged.

use crate::queue::{Pop, PriorityQueue};
use crate::request::InferenceRequest;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Groups queued requests into dynamic batches.  One batcher is shared by
/// all workers; each [`SloBatcher::next_batch`] call assembles one batch.
pub struct SloBatcher {
    queue: Arc<PriorityQueue<InferenceRequest>>,
    max_batch_size: usize,
    max_batch_wait: Duration,
    /// Predicted wall-clock execution time of a full batch — the margin a
    /// member's deadline must leave for the batch to still be worth joining.
    /// `ZERO` (e.g. CPU-only serving) degrades to the plain wait budget.
    predicted_exec: Duration,
    /// Requests popped while filling a batch of a *different* model: they
    /// head later batches, in stash order, before the queue is consulted.
    stash: Mutex<VecDeque<InferenceRequest>>,
}

impl SloBatcher {
    /// A batcher draining `queue` with the given bounds.
    ///
    /// # Panics
    /// Panics if `max_batch_size` is zero.
    pub fn new(
        queue: Arc<PriorityQueue<InferenceRequest>>,
        max_batch_size: usize,
        max_batch_wait: Duration,
        predicted_exec: Duration,
    ) -> Self {
        assert!(max_batch_size > 0, "max batch size must be positive");
        Self {
            queue,
            max_batch_size,
            max_batch_wait,
            predicted_exec,
            stash: Mutex::new(VecDeque::new()),
        }
    }

    /// The queue this batcher drains.
    pub fn queue(&self) -> &Arc<PriorityQueue<InferenceRequest>> {
        &self.queue
    }

    /// The latest moment the batch may keep filling once `request` is a
    /// member: its deadline minus the predicted batch execution time (never
    /// later than the running `fill_until`).
    fn tighten(&self, fill_until: Instant, request: &InferenceRequest) -> Instant {
        match request.deadline {
            Some(deadline) => {
                let latest_start =
                    deadline.checked_sub(self.predicted_exec).unwrap_or_else(Instant::now);
                fill_until.min(latest_start)
            }
            None => fill_until,
        }
    }

    /// Takes the highest-priority stashed request (FIFO within a class) —
    /// unless the queue holds work of *strictly higher priority still*,
    /// which wins the head slot (the stashed request stays in place among
    /// its peers).  Stashing must not invert the queue's strict-priority
    /// discipline in either direction: a best-effort request deferred by a
    /// model switch may not overtake interactive arrivals, whether those
    /// are still queued or themselves already stashed.
    fn pop_stash_or_higher_priority(&self) -> Option<InferenceRequest> {
        let mut stash = self.stash.lock().expect("batch stash poisoned");
        let best = stash.iter().enumerate().min_by_key(|(i, r)| (r.class, *i)).map(|(i, _)| i)?;
        let stashed = stash.remove(best).expect("index from enumerate");
        if let Some(higher) = self.queue.try_pop_before(stashed.class) {
            stash.insert(best, stashed);
            return Some(higher);
        }
        Some(stashed)
    }

    /// Assembles the next batch: blocks for a batch head (stashed work
    /// first, unless the queue holds strictly higher-priority arrivals),
    /// then fills with same-model requests up to the size cap — waiting
    /// for arrivals until the wait deadline or the earliest member's SLO
    /// cutoff, and past it taking only requests already queued.  Returns
    /// `None` once the queue is closed and drained and no stashed request
    /// remains — the worker's signal to exit.
    pub fn next_batch(&self) -> Option<Vec<InferenceRequest>> {
        // Phase 1: wait (in slices, re-checking the stash so a request
        // stashed by another worker is never stranded behind an idle queue)
        // for the batch head.
        let head = loop {
            if let Some(item) = self.pop_stash_or_higher_priority() {
                break item;
            }
            match self.queue.pop_timeout(Duration::from_millis(50)) {
                Pop::Item(item) => break item,
                Pop::TimedOut => continue,
                Pop::Closed => match self.pop_stash_or_higher_priority() {
                    Some(item) => break item,
                    None => return None,
                },
            }
        };
        let model = head.model;

        // Phase 2: fill until the size cap, waiting for arrivals until the
        // wait deadline or SLO cutoff; past it, keep taking only what is
        // already queued (work-conserving: a backlog never ships as
        // singletons, and no request waits past the cutoff).
        let mut fill_until = self.tighten(Instant::now() + self.max_batch_wait, &head);
        let mut batch = Vec::with_capacity(self.max_batch_size);
        batch.push(head);
        while batch.len() < self.max_batch_size {
            let now = Instant::now();
            let next = if now >= fill_until {
                self.queue.try_pop().map_or(Pop::TimedOut, Pop::Item)
            } else {
                self.queue.pop_timeout(fill_until - now)
            };
            match next {
                Pop::Item(item) if item.model == model => {
                    fill_until = self.tighten(fill_until, &item);
                    batch.push(item);
                }
                // A different model cannot share the fused activation
                // matrix: stash it as a future batch head and close this
                // batch (stopping here preserves per-model FIFO order).
                Pop::Item(item) => {
                    self.stash.lock().expect("batch stash poisoned").push_back(item);
                    break;
                }
                // Nothing more in time, or closed with a partial batch in
                // hand: flush what we have; after a close the next call
                // observes Closed and returns None.
                Pop::TimedOut | Pop::Closed => break,
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> InferenceRequest {
        InferenceRequest::new(id, vec![0.0; 4])
    }

    fn deadline_request(id: u64, slo_ms: u64) -> InferenceRequest {
        InferenceRequest::classed(id, vec![0.0; 4], 0, Some(Duration::from_millis(slo_ms)))
    }

    fn ids(batch: &[InferenceRequest]) -> Vec<u64> {
        batch.iter().map(|r| r.id).collect()
    }

    fn batcher(capacity: usize, max_batch: usize, wait_ms: u64) -> SloBatcher {
        batcher_with_exec(capacity, max_batch, wait_ms, 0)
    }

    fn batcher_with_exec(
        capacity: usize,
        max_batch: usize,
        wait_ms: u64,
        exec_ms: u64,
    ) -> SloBatcher {
        SloBatcher::new(
            Arc::new(PriorityQueue::new(2, capacity)),
            max_batch,
            Duration::from_millis(wait_ms),
            Duration::from_millis(exec_ms),
        )
    }

    #[test]
    fn full_batch_closes_at_size_cap_without_waiting() {
        let b = batcher(64, 4, 10_000);
        for i in 0..11 {
            b.queue().push(0, request(i)).unwrap();
        }
        // A queue holding >= max_batch items must yield a full batch
        // immediately even with a huge wait budget.
        let start = Instant::now();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![0, 1, 2, 3]);
        assert!(start.elapsed() < Duration::from_secs(1), "must not wait out the budget");
        assert_eq!(ids(&b.next_batch().unwrap()), vec![4, 5, 6, 7]);
        // The remainder is flushed as a partial batch after close...
        b.queue().close();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![8, 9, 10]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let b = batcher(64, 8, 30);
        b.queue().push(0, request(1)).unwrap();
        b.queue().push(0, request(2)).unwrap();
        let start = Instant::now();
        let batch = b.next_batch().unwrap();
        let waited = start.elapsed();
        assert_eq!(ids(&batch), vec![1, 2]);
        // The batcher must have honoured (roughly) the wait budget before
        // flushing a partial batch.
        assert!(waited >= Duration::from_millis(25), "flushed after {waited:?}");
        assert!(waited < Duration::from_millis(500), "overslept: {waited:?}");
    }

    #[test]
    fn late_arrivals_within_budget_join_the_batch() {
        let b = Arc::new(batcher(64, 3, 500));
        b.queue().push(0, request(1)).unwrap();
        let feeder = {
            let q = Arc::clone(b.queue());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.push(0, request(2)).unwrap();
                q.push(0, request(3)).unwrap();
            })
        };
        let start = Instant::now();
        let batch = b.next_batch().unwrap();
        feeder.join().unwrap();
        assert_eq!(ids(&batch), vec![1, 2, 3]);
        // Filled by arrival, not by deadline.
        assert!(start.elapsed() < Duration::from_millis(400));
    }

    #[test]
    fn close_flushes_partial_batch_then_ends() {
        let b = Arc::new(batcher(64, 8, 10_000));
        b.queue().push(0, request(5)).unwrap();
        let closer = {
            let q = Arc::clone(b.queue());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.close();
            })
        };
        // Close must cut the fill phase short well before the 10s budget.
        let start = Instant::now();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![5]);
        assert!(start.elapsed() < Duration::from_secs(5));
        closer.join().unwrap();
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn batch_size_one_never_waits() {
        let b = batcher(8, 1, 10_000);
        b.queue().push(0, request(9)).unwrap();
        let start = Instant::now();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![9]);
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn zero_wait_still_batches_the_queued_backlog() {
        let b = batcher(64, 8, 0);
        for i in 0..16 {
            b.queue().push(0, request(i)).unwrap();
        }
        // The wait deadline has passed once the head is in hand, but the
        // queued same-model requests still fill the batch to its cap.
        assert_eq!(ids(&b.next_batch().unwrap()), (0..8).collect::<Vec<_>>());
        assert_eq!(ids(&b.next_batch().unwrap()), (8..16).collect::<Vec<_>>());
        // An empty queue past the deadline closes the batch without waiting.
        b.queue().push(0, request(16)).unwrap();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![16]);
    }

    #[test]
    fn near_deadline_head_still_takes_its_queued_peers() {
        // The head's 50ms SLO leaves no slack for the predicted 90ms
        // execution, so its fill deadline has already passed — but five
        // peers are queued: the batch takes all six without waiting.
        let b = batcher_with_exec(64, 8, 500, 90);
        for i in 1..7 {
            b.queue().push(0, deadline_request(i, 50)).unwrap();
        }
        let start = Instant::now();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1, 2, 3, 4, 5, 6]);
        assert!(start.elapsed() < Duration::from_millis(120), "waited {:?}", start.elapsed());
    }

    #[test]
    fn near_deadline_head_closes_the_batch_early() {
        // Wait budget 500ms, but the head's SLO leaves no slack after the
        // predicted 90ms execution: the batch must flush (almost)
        // immediately instead of waiting out the budget.
        let b = batcher_with_exec(64, 8, 500, 90);
        b.queue().push(0, deadline_request(1, 100)).unwrap();
        let start = Instant::now();
        let batch = b.next_batch().unwrap();
        assert_eq!(ids(&batch), vec![1]);
        assert!(start.elapsed() < Duration::from_millis(120), "waited {:?}", start.elapsed());
    }

    #[test]
    fn deadline_member_tightens_a_running_fill() {
        // Best-effort head opens a 10s fill window; a near-deadline joiner
        // must slam it shut.
        let b = Arc::new(batcher_with_exec(64, 8, 10_000, 50));
        b.queue().push(1, request(1)).unwrap();
        let feeder = {
            let q = Arc::clone(b.queue());
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                q.push(0, deadline_request(2, 60)).unwrap();
            })
        };
        let start = Instant::now();
        let batch = b.next_batch().unwrap();
        feeder.join().unwrap();
        let mut got = ids(&batch);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert!(start.elapsed() < Duration::from_millis(500), "waited {:?}", start.elapsed());
    }

    #[test]
    fn higher_priority_lane_fills_batches_first() {
        let b = batcher(64, 2, 10_000);
        b.queue().push(1, request(10)).unwrap();
        b.queue().push(1, request(11)).unwrap();
        b.queue().push(0, request(1)).unwrap();
        b.queue().push(0, request(2)).unwrap();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1, 2]);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![10, 11]);
    }

    #[test]
    fn batches_are_model_pure_and_no_request_is_lost() {
        let b = batcher(64, 8, 10_000);
        // Interleaved models on one lane: the batcher must split them into
        // model-pure batches while preserving arrival order per model.
        let models = [0usize, 0, 1, 1, 0, 2];
        for (id, &model) in models.iter().enumerate() {
            b.queue()
                .push(0, InferenceRequest::for_model(id as u64, model, vec![0.0; 4], 0, None))
                .unwrap();
        }
        b.queue().close();
        let mut batches = Vec::new();
        while let Some(batch) = b.next_batch() {
            assert!(
                batch.iter().all(|r| r.model == batch[0].model),
                "mixed-model batch: {:?}",
                batch.iter().map(|r| (r.id, r.model)).collect::<Vec<_>>()
            );
            batches.push(ids(&batch));
        }
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4], vec![5]]);
    }

    #[test]
    fn stashed_low_priority_request_does_not_overtake_interactive_arrivals() {
        // Lane 0 = interactive, lane 1 = batch.  A model-1 batch-class
        // request gets stashed while a model-0 batch fills; interactive
        // model-0 work arriving meanwhile must still head the next batch —
        // the stash may not invert strict priority.
        let b = batcher(64, 3, 10_000);
        let req =
            |id, model, class| InferenceRequest::for_model(id, model, vec![0.0; 4], class, None);
        b.queue().push(1, req(1, 0, 1)).unwrap();
        b.queue().push(1, req(2, 0, 1)).unwrap();
        b.queue().push(1, req(3, 1, 1)).unwrap();
        // First batch: the model-0 pair; request 3 (model 1) is popped
        // during the fill and stashed, closing the batch early.
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1, 2]);
        b.queue().push(0, req(4, 0, 0)).unwrap();
        b.queue().push(0, req(5, 0, 0)).unwrap();
        b.queue().close();
        // The interactive arrivals outrank the stashed batch request.
        assert_eq!(ids(&b.next_batch().unwrap()), vec![4, 5]);
        // The stashed request is served next — never lost.
        assert_eq!(ids(&b.next_batch().unwrap()), vec![3]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn stash_yields_its_own_highest_priority_request_first() {
        // Strict priority must hold *within* the stash too: a best-effort
        // request stashed earlier may not overtake an interactive request
        // stashed later.
        let b = batcher(64, 2, 10_000);
        let req =
            |id, model, class| InferenceRequest::for_model(id, model, vec![0.0; 4], class, None);
        // Head req 1 (model 0); fill pops the model-1 best-effort req 2 and
        // stashes it.
        b.queue().push(1, req(1, 0, 1)).unwrap();
        b.queue().push(1, req(2, 1, 1)).unwrap();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![1]);
        // Head req 3 (model 2, interactive); fill pops the interactive
        // model-3 req 4 and stashes it behind req 2.
        b.queue().push(0, req(3, 2, 0)).unwrap();
        b.queue().push(0, req(4, 3, 0)).unwrap();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![3]);
        b.queue().close();
        // Stash is [2 (class 1), 4 (class 0)]: the interactive request
        // heads the next batch despite being stashed later.
        assert_eq!(ids(&b.next_batch().unwrap()), vec![4]);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![2]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn single_model_serving_never_stashes() {
        let b = batcher(64, 4, 10_000);
        for id in 0..8 {
            b.queue().push(0, request(id)).unwrap();
        }
        b.queue().close();
        assert_eq!(ids(&b.next_batch().unwrap()), vec![0, 1, 2, 3]);
        assert_eq!(ids(&b.next_batch().unwrap()), vec![4, 5, 6, 7]);
        assert!(b.next_batch().is_none());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let _ = batcher(8, 0, 1);
    }
}
