//! A bounded, closable, priority-aware MPMC queue — the admission path.
//!
//! `std::sync::mpsc` channels are single-consumer and unbounded (or
//! rendezvous when bounded), neither of which fits a serving queue: many
//! workers pop concurrently, submitters must feel backpressure when the
//! system is saturated, and shutdown must let workers drain what is already
//! queued.  On top of that, an SLO-aware server cannot serve one FIFO: an
//! interactive request arriving behind a wall of batch work would inherit
//! the whole backlog's wait.  [`PriorityQueue`] therefore keeps one FIFO
//! *lane per class* under a single capacity bound: pops always drain the
//! highest-priority non-empty lane (strict priority — lane 0 first), FIFO
//! within a lane.  A one-lane queue degenerates to exactly the plain
//! bounded FIFO it replaced.
//!
//! Strict priority means sustained interactive overload can starve batch
//! lanes; that is the intended SLO trade and is bounded in practice by the
//! admission controller shedding load before the queue wedges.
//!
//! Producers choose per push: [`PriorityQueue::push`] blocks while full
//! (closed-loop backpressure), [`PriorityQueue::try_push`] refuses instead
//! (the open-loop admission path, which must never block the arrival clock).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result of a pop attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue stayed empty for the whole timeout (but is still open).
    TimedOut,
    /// The queue is closed and fully drained; no item will ever arrive.
    Closed,
}

/// Why a [`PriorityQueue::try_push`] was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity; the item is handed back.
    Full(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

struct State<T> {
    lanes: Vec<VecDeque<T>>,
    len: usize,
    closed: bool,
}

/// A bounded multi-producer multi-consumer priority queue with close
/// semantics.  See the module docs for the scheduling discipline.
pub struct PriorityQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> PriorityQueue<T> {
    /// A queue with `lanes` priority lanes holding at most `capacity` items
    /// in total.
    ///
    /// # Panics
    /// Panics if `capacity` or `lanes` is zero.
    pub fn new(lanes: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(lanes > 0, "queue needs at least one priority lane");
        Self {
            state: Mutex::new(State {
                lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` on `lane`, blocking while the queue is full.  Returns
    /// the item back as `Err` if the queue has been closed.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn push(&self, lane: usize, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        assert!(lane < state.lanes.len(), "lane {lane} out of range");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.len < self.capacity {
                state.lanes[lane].push_back(item);
                state.len += 1;
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue lock poisoned");
        }
    }

    /// Non-blocking enqueue: refuses (handing the item back) instead of
    /// blocking when the queue is full — the open-loop admission path.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn try_push(&self, lane: usize, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        assert!(lane < state.lanes.len(), "lane {lane} out of range");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.len >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.lanes[lane].push_back(item);
        state.len += 1;
        self.not_empty.notify_one();
        Ok(())
    }

    fn pop_front(state: &mut State<T>) -> Option<T> {
        for lane in &mut state.lanes {
            if let Some(item) = lane.pop_front() {
                state.len -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Dequeues from the highest-priority non-empty lane, immediately if an
    /// item is available.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        let item = Self::pop_front(&mut state);
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Dequeues from lanes *strictly higher priority* than `lane`
    /// (`0..lane`), immediately if such an item is available — the probe a
    /// consumer holding lower-priority deferred work uses to keep strict
    /// priority intact.  `lane == 0` can never yield anything.
    ///
    /// # Panics
    /// Panics if `lane` exceeds the lane count.
    pub fn try_pop_before(&self, lane: usize) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        assert!(lane <= state.lanes.len(), "lane {lane} out of range");
        for higher in &mut state.lanes[..lane] {
            if let Some(item) = higher.pop_front() {
                state.len -= 1;
                self.not_full.notify_one();
                return Some(item);
            }
        }
        None
    }

    /// Dequeues, waiting up to `timeout` for an item.  Items still queued at
    /// close time are drained before [`Pop::Closed`] is reported.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = Self::pop_front(&mut state) {
                self.not_full.notify_one();
                return Pop::Item(item);
            }
            if state.closed {
                return Pop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::TimedOut;
            }
            let (next, timed_out) =
                self.not_empty.wait_timeout(state, deadline - now).expect("queue lock poisoned");
            state = next;
            if timed_out.timed_out() && state.len == 0 && !state.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Closes the queue: subsequent pushes fail, queued items remain
    /// poppable, and blocked poppers wake up.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock poisoned");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of queued items right now, across all lanes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").len
    }

    /// `(total depth, depth through lane)` under one lock: the second
    /// component counts items in lanes `0..=lane` — the backlog served
    /// *before* a new arrival on `lane`, which is what wait prediction
    /// needs under strict priority.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn depths(&self, lane: usize) -> (usize, usize) {
        let state = self.state.lock().expect("queue lock poisoned");
        assert!(lane < state.lanes.len(), "lane {lane} out of range");
        let through = state.lanes[..=lane].iter().map(VecDeque::len).sum();
        (state.len, through)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fifo(capacity: usize) -> PriorityQueue<u64> {
        PriorityQueue::new(1, capacity)
    }

    #[test]
    fn single_lane_is_fifo() {
        let q = fifo(8);
        for i in 0..5 {
            q.push(0, i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn pops_prefer_the_highest_priority_lane() {
        let q = PriorityQueue::new(3, 16);
        q.push(2, 20).unwrap();
        q.push(1, 10).unwrap();
        q.push(2, 21).unwrap();
        q.push(0, 0).unwrap();
        q.push(1, 11).unwrap();
        // Lane 0 first, then lane 1 FIFO, then lane 2 FIFO.
        let drained: Vec<u64> = std::iter::from_fn(|| q.try_pop()).collect();
        assert_eq!(drained, vec![0, 10, 11, 20, 21]);
    }

    #[test]
    fn late_high_priority_overtakes_queued_low_priority() {
        let q = PriorityQueue::new(2, 16);
        for i in 0..4 {
            q.push(1, 100 + i).unwrap();
        }
        q.push(0, 1).unwrap();
        assert_eq!(q.depths(0), (5, 1), "one item is ahead of a new lane-0 arrival");
        assert_eq!(q.depths(1), (5, 5), "everything is ahead of a new lane-1 arrival");
        assert_eq!(q.try_pop(), Some(1), "interactive must jump the batch backlog");
        assert_eq!(q.depths(1), (4, 4));
    }

    #[test]
    fn try_pop_before_only_yields_strictly_higher_priority() {
        let q = PriorityQueue::new(3, 16);
        q.push(1, 10).unwrap();
        q.push(2, 20).unwrap();
        // Nothing outranks lane 0; lane 1 work does not outrank itself.
        assert_eq!(q.try_pop_before(0), None);
        assert_eq!(q.try_pop_before(1), None);
        // Lane-1 work outranks a lane-2 holder.
        assert_eq!(q.try_pop_before(2), Some(10));
        assert_eq!(q.try_pop_before(2), None, "lane 2 itself is not eligible");
        assert_eq!(q.len(), 1);
        q.push(0, 0).unwrap();
        assert_eq!(q.try_pop_before(1), Some(0));
    }

    #[test]
    fn try_push_refuses_when_full_and_after_close() {
        let q = fifo(2);
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        assert_eq!(q.try_push(0, 3), Err(PushError::Full(3)));
        q.close();
        assert_eq!(q.try_push(0, 4), Err(PushError::Closed(4)));
    }

    #[test]
    fn capacity_is_shared_across_lanes() {
        let q = PriorityQueue::new(2, 2);
        q.try_push(1, 10).unwrap();
        q.try_push(1, 11).unwrap();
        // The high-priority lane is empty but the *queue* is full.
        assert_eq!(q.try_push(0, 0), Err(PushError::Full(0)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_timeout_times_out_when_empty() {
        let q = fifo(4);
        let start = Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(20)), Pop::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = fifo(4);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        q.close();
        assert_eq!(q.push(0, 3), Err(3));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Item(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Pop::Closed);
    }

    #[test]
    fn full_queue_blocks_until_a_pop() {
        let q = Arc::new(fifo(2));
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let start = Instant::now();
                q.push(0, 3).unwrap();
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.try_pop(), Some(1));
        let blocked_for = producer.join().unwrap();
        assert!(
            blocked_for >= Duration::from_millis(20),
            "producer should have blocked, blocked {blocked_for:?}"
        );
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q: Arc<PriorityQueue<u32>> = Arc::new(PriorityQueue::new(1, 2));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_timeout(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), Pop::Closed);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(PriorityQueue::new(2, 16));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        q.push((p % 2) as usize, p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        match q.pop_timeout(Duration::from_secs(10)) {
                            Pop::Item(v) => seen.push(v),
                            Pop::Closed => break,
                            Pop::TimedOut => panic!("starved"),
                        }
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let mut expected: Vec<u64> =
            (0..4).flat_map(|p| (0..100).map(move |i| p * 1000 + i)).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: PriorityQueue<u8> = PriorityQueue::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one priority lane")]
    fn zero_lanes_rejected() {
        let _: PriorityQueue<u8> = PriorityQueue::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_lane_rejected() {
        let q = fifo(4);
        let _ = q.push(1, 9);
    }
}
