//! Serving runtime configuration.

use std::time::Duration;
use tw_memory::{ModelRegistry, PolicyKind};
use tw_models::TrafficClass;

/// How the worker pool accounts for simulated GPU time.
///
/// The workspace models the V100 analytically (`tw-gpu-sim`); a serving
/// worker therefore executes the batch's functional math on the CPU and then
/// *dwells* for the batch's priced device time, exactly as a real inference
/// worker blocks on an accelerator. The dwell is what dynamic batching and
/// worker pools exist to overlap, so it is on by default in benchmarks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuDwell {
    /// Wall-clock seconds per simulated device second.  `1.0` replays the
    /// modelled V100 in real time; larger values stretch device time so the
    /// serving dynamics (queueing, batching, pool overlap) dominate the
    /// benchmark instead of CPU kernel time.
    pub time_scale: f64,
}

/// One request class the server accepts.  Classes are configured as an
/// ordered list on [`ServeConfig::classes`]; the *index* is the class id and
/// its priority — index 0 is served first (strict priority across the
/// queue's lanes).
#[derive(Clone, Debug, PartialEq)]
pub struct ClassPolicy {
    /// Class name, carried into per-class report rows.
    pub name: String,
    /// Latency SLO measured from submission; `None` = best effort.  Drives
    /// the request deadline, the batcher's early close, goodput accounting,
    /// and (when admission control is active) deadline-infeasibility sheds.
    pub deadline: Option<Duration>,
}

impl ClassPolicy {
    /// A best-effort class.
    pub fn best_effort(name: impl Into<String>) -> Self {
        Self { name: name.into(), deadline: None }
    }

    /// A latency-sensitive class due `deadline` after submission.
    pub fn with_deadline(name: impl Into<String>, deadline: Duration) -> Self {
        Self { name: name.into(), deadline: Some(deadline) }
    }

    /// Class policies mirroring a `tw-models` traffic mix, in mix order
    /// (traffic class order is priority order).
    pub fn from_traffic(classes: &[TrafficClass]) -> Vec<Self> {
        classes.iter().map(|c| Self { name: c.name.clone(), deadline: c.deadline }).collect()
    }
}

/// VRAM residency management: when set on [`ServeConfig::memory`], the
/// server tracks which weight tiles are on-device through a
/// `tw-memory` [`tw_memory::TileCache`], and every batch whose model is not
/// fully resident pays the PCIe transfer time as an extra *cold-miss* dwell
/// component.  `None` (the default) models the legacy assumption that all
/// weights are eternally resident.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryConfig {
    /// VRAM capacity override in bytes; `None` uses the serving device's
    /// [`tw_gpu_sim::GpuDevice::vram_bytes`] profile.  Sizing this *below*
    /// the hosted models' combined footprint is how multi-model paging
    /// scenarios are provoked deliberately.
    pub vram_bytes: Option<u64>,
    /// Paging granularity for tiles derived at [`crate::Server::start`]
    /// (callers of `start_registry` choose theirs when building the
    /// registry).
    pub page_bytes: u64,
    /// Which resident tile to evict under pressure.
    pub policy: PolicyKind,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self {
            vram_bytes: None,
            page_bytes: ModelRegistry::DEFAULT_PAGE_BYTES,
            policy: PolicyKind::Lru,
        }
    }
}

/// SLO-aware admission control: when to *shed* a request at submission
/// instead of queueing it.  All knobs default to `None`/off; with every
/// knob off the server falls back to pure blocking backpressure (the
/// closed-loop discipline).  With any knob active, submission never blocks:
/// requests that cannot be admitted are refused with a [`crate::ShedRecord`]
/// — the open-loop discipline, where blocking the submitter would distort
/// the arrival process.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdmissionConfig {
    /// Shed when total queue depth has reached this many requests (must be
    /// at most the queue capacity to be meaningful).
    pub max_queue_depth: Option<usize>,
    /// Shed when the predicted queue wait (depth, batch size, worker count
    /// and the cost model's batch dwell) exceeds this budget.
    pub max_predicted_wait: Option<Duration>,
    /// Shed a request whose class deadline cannot be met even if admitted
    /// now (predicted wait + predicted batch execution > SLO) — completing
    /// it late would burn device time without earning goodput.
    pub shed_hopeless: bool,
}

impl AdmissionConfig {
    /// Whether any admission policy is active (switches submission from
    /// blocking backpressure to non-blocking shed).
    pub fn is_active(&self) -> bool {
        self.max_queue_depth.is_some() || self.max_predicted_wait.is_some() || self.shed_hopeless
    }
}

/// Configuration of a [`crate::Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest number of requests fused into one batch.
    pub max_batch_size: usize,
    /// Longest a batch head waits for followers before the batch is flushed
    /// (deadline-pressed batches may flush earlier; see
    /// [`crate::SloBatcher`]).
    pub max_batch_wait: Duration,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Bound on queued requests; without admission control submitters block
    /// when the queue is full (backpressure).
    pub queue_capacity: usize,
    /// Simulated device dwell per batch; `None` serves CPU-only.
    pub gpu_dwell: Option<GpuDwell>,
    /// Request classes in priority order (index = class id, 0 served
    /// first).  The default is one best-effort class, which reproduces the
    /// plain FIFO server.
    pub classes: Vec<ClassPolicy>,
    /// SLO-aware admission control; default off (pure backpressure).
    pub admission: AdmissionConfig,
    /// VRAM residency management; default off (weights eternally
    /// resident, no paging dwell).
    pub memory: Option<MemoryConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch_size: 8,
            max_batch_wait: Duration::from_millis(2),
            workers: 2,
            queue_capacity: 1024,
            gpu_dwell: None,
            classes: vec![ClassPolicy::best_effort("default")],
            admission: AdmissionConfig::default(),
            memory: None,
        }
    }
}

impl ServeConfig {
    /// Panics on nonsensical settings; called by [`crate::Server::start`].
    pub fn validate(&self) {
        assert!(self.max_batch_size > 0, "max batch size must be positive");
        assert!(self.workers > 0, "need at least one worker");
        assert!(
            self.queue_capacity >= self.max_batch_size,
            "queue capacity must hold at least one full batch"
        );
        if let Some(dwell) = &self.gpu_dwell {
            assert!(
                dwell.time_scale.is_finite() && dwell.time_scale >= 0.0,
                "GPU dwell time scale must be finite and non-negative"
            );
        }
        assert!(!self.classes.is_empty(), "need at least one request class");
        if let Some(depth) = self.admission.max_queue_depth {
            assert!(depth > 0, "a zero shed depth would shed every request");
            assert!(
                depth <= self.queue_capacity,
                "shed depth beyond queue capacity would never trigger"
            );
        }
        if let Some(memory) = &self.memory {
            assert!(memory.page_bytes > 0, "memory page size must be positive");
            if let Some(vram) = memory.vram_bytes {
                assert!(vram > 0, "VRAM capacity override must be positive");
            }
        }
    }

    /// Builder-style override of the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style override of the batch bounds.
    pub fn with_batching(mut self, max_batch_size: usize, max_batch_wait: Duration) -> Self {
        self.max_batch_size = max_batch_size;
        self.max_batch_wait = max_batch_wait;
        self
    }

    /// Builder-style override of the simulated device dwell.
    pub fn with_gpu_dwell(mut self, dwell: GpuDwell) -> Self {
        self.gpu_dwell = Some(dwell);
        self
    }

    /// Builder-style override of the class list (priority order).
    pub fn with_classes(mut self, classes: Vec<ClassPolicy>) -> Self {
        self.classes = classes;
        self
    }

    /// Builder-style class list mirroring a traffic mix.
    pub fn with_traffic_classes(self, classes: &[TrafficClass]) -> Self {
        self.with_classes(ClassPolicy::from_traffic(classes))
    }

    /// Builder-style override of the admission policy.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_single_class_fifo() {
        let cfg = ServeConfig::default();
        cfg.validate();
        assert_eq!(cfg.classes.len(), 1);
        assert!(!cfg.admission.is_active());
    }

    #[test]
    fn builders_compose() {
        let cfg = ServeConfig::default()
            .with_workers(4)
            .with_batching(16, Duration::from_millis(5))
            .with_gpu_dwell(GpuDwell { time_scale: 1.0 })
            .with_classes(vec![
                ClassPolicy::with_deadline("interactive", Duration::from_millis(40)),
                ClassPolicy::best_effort("batch"),
            ])
            .with_admission(AdmissionConfig { max_queue_depth: Some(256), ..Default::default() });
        cfg.validate();
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.max_batch_size, 16);
        assert_eq!(cfg.gpu_dwell, Some(GpuDwell { time_scale: 1.0 }));
        assert_eq!(cfg.classes[0].deadline, Some(Duration::from_millis(40)));
        assert!(cfg.admission.is_active());
    }

    #[test]
    fn traffic_classes_map_to_policies() {
        let mix = vec![
            TrafficClass::interactive(0.3, Duration::from_millis(50)),
            TrafficClass::batch(0.7),
        ];
        let cfg = ServeConfig::default().with_traffic_classes(&mix);
        assert_eq!(cfg.classes.len(), 2);
        assert_eq!(cfg.classes[0].name, "interactive");
        assert_eq!(cfg.classes[0].deadline, Some(Duration::from_millis(50)));
        assert_eq!(cfg.classes[1].name, "batch");
        assert_eq!(cfg.classes[1].deadline, None);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ServeConfig::default().with_workers(0).validate();
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn queue_smaller_than_batch_rejected() {
        let cfg = ServeConfig { queue_capacity: 4, max_batch_size: 8, ..ServeConfig::default() };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one request class")]
    fn empty_class_list_rejected() {
        ServeConfig { classes: Vec::new(), ..ServeConfig::default() }.validate();
    }

    #[test]
    fn memory_config_defaults() {
        assert!(ServeConfig::default().memory.is_none(), "residency management is opt-in");
        let memory = MemoryConfig { vram_bytes: Some(1 << 20), ..MemoryConfig::default() };
        ServeConfig { memory: Some(memory), ..ServeConfig::default() }.validate();
        assert_eq!(memory.vram_bytes, Some(1 << 20));
        assert_eq!(memory.page_bytes, tw_memory::ModelRegistry::DEFAULT_PAGE_BYTES);
        assert_eq!(memory.policy, PolicyKind::Lru);
    }

    #[test]
    #[should_panic(expected = "page size must be positive")]
    fn zero_page_size_rejected() {
        let memory = MemoryConfig { page_bytes: 0, ..MemoryConfig::default() };
        ServeConfig { memory: Some(memory), ..ServeConfig::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "shed depth")]
    fn shed_depth_beyond_capacity_rejected() {
        let cfg = ServeConfig {
            queue_capacity: 64,
            admission: AdmissionConfig { max_queue_depth: Some(128), ..Default::default() },
            ..ServeConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "zero shed depth")]
    fn zero_shed_depth_rejected() {
        let cfg = ServeConfig {
            admission: AdmissionConfig { max_queue_depth: Some(0), ..Default::default() },
            ..ServeConfig::default()
        };
        cfg.validate();
    }
}
