//! Kernel spans for the traced run.
//!
//! The benchmark records spans from its own code, at the calls into each
//! crate: [`traced_registry`] wraps every standard kernel family so each
//! `KernelBackend::forward_batch` a serving worker makes is timed.  The
//! wrapper delegates pricing and footprint, so the auto-planner resolves
//! exactly the plan it resolves untraced.  Spans stay in memory until the
//! run ends.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tilewise::planner::WeightExecution;
use tilewise::{KernelBackend, KernelRegistry};
use tw_tensor::Matrix;

/// One timed `forward_batch` call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer index in the served chain.
    pub layer: usize,
    /// Rows (requests) in the call.
    pub rows: usize,
    /// Serving worker that made the call (`usize::MAX` when the calling
    /// thread is not a serving worker).
    pub worker: usize,
    pub start: Instant,
    pub end: Instant,
}

/// Spans recorded so far, shared by every wrapped kernel.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    fn record(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

#[derive(Debug)]
struct Timed {
    inner: Box<dyn KernelBackend>,
    layer: usize,
    log: Arc<SpanLog>,
}

impl KernelBackend for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forward_batch(&self, inputs: &Matrix) -> Matrix {
        let start = Instant::now();
        let output = self.inner.forward_batch(inputs);
        let end = Instant::now();
        self.log.record(Span {
            layer: self.layer,
            rows: inputs.rows(),
            worker: worker_index(),
            start,
            end,
        });
        output
    }

    fn execution(&self) -> WeightExecution {
        self.inner.execution()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }
}

/// The standard registry with every family wrapped in a span-recording
/// kernel.  `dims` is the served chain's activation dims; a layer is
/// identified by its `k x n` shape.
pub fn traced_registry(dims: &[usize], log: &Arc<SpanLog>) -> KernelRegistry {
    let mut traced = KernelRegistry::empty();
    for (name, build) in KernelRegistry::standard().iter() {
        let build = Arc::clone(build);
        let log = Arc::clone(log);
        let dims = dims.to_vec();
        traced.register(name, move |tile| {
            let layer = dims
                .windows(2)
                .position(|pair| pair[0] == tile.k() && pair[1] == tile.n())
                .expect("traced tile belongs to the served chain");
            Box::new(Timed { inner: build(tile), layer, log: Arc::clone(&log) })
        });
    }
    traced
}

/// Index of the calling `tw-serve` worker, parsed from its thread name.
fn worker_index() -> usize {
    std::thread::current()
        .name()
        .and_then(|name| name.strip_prefix("tw-serve-worker-"))
        .and_then(|index| index.parse().ok())
        .unwrap_or(usize::MAX)
}
