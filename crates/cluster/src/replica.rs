//! One serving replica: a `tw_serve::Server` plus the spec that shaped it.

use crate::balancer::ReplicaProbe;
use crate::ClusterConfig;
use std::sync::Arc;
use tilewise::{Backend, InferenceSession, TileWiseMatrix};
use tw_gpu_sim::GpuDevice;
use tw_memory::ModelRegistry;
use tw_serve::{
    Admission, ClassId, GpuDwell, InferenceResponse, ModelId, RunObservation, ServeConfig,
    ServeReport, Server, ServerClosed,
};

/// How to build one replica.  Replicas are first-class heterogeneous: each
/// carries its own backend selection, worker count, simulated device
/// profile and dwell scale, so one cluster can mix an A100-class replica
/// with a narrow midrange one — exactly the fleet shape that separates
/// load-blind from cost-aware balancing.
#[derive(Clone, Debug)]
pub struct ReplicaSpec {
    /// Replica name, carried into reports (`r0`, `auto-1`, ...).
    pub name: String,
    /// Worker threads of this replica's pool.
    pub workers: usize,
    /// Kernel backend selection applied to every layer (`Backend::Auto`
    /// still plans per layer).
    pub backend: Backend,
    /// Simulated device the replica's batches are priced on.
    pub device: GpuDevice,
    /// Wall-clock seconds per simulated device second (`0` = no dwell; see
    /// [`tw_serve::GpuDwell`]).  The scale is shared across a fleet so
    /// device-profile differences survive into measured latency.
    pub time_scale: f64,
}

impl ReplicaSpec {
    /// A V100 replica — the fleet's default building block.
    pub fn v100(
        name: impl Into<String>,
        workers: usize,
        backend: Backend,
        time_scale: f64,
    ) -> Self {
        Self { name: name.into(), workers, backend, device: GpuDevice::v100(), time_scale }
    }

    /// Builder-style device override.
    pub fn on(mut self, device: GpuDevice) -> Self {
        self.device = device;
        self
    }

    /// Panics on a nonsensical spec; called by [`Replica::start`].
    pub fn validate(&self) {
        assert!(self.workers > 0, "replica {:?} needs at least one worker", self.name);
        assert!(
            self.time_scale.is_finite() && self.time_scale >= 0.0,
            "replica {:?} dwell time scale must be finite and non-negative",
            self.name
        );
    }
}

/// A live replica: its own [`InferenceSession`] (kernel plan priced on its
/// own device) behind its own [`Server`], plus routing bookkeeping.
pub struct Replica {
    spec: ReplicaSpec,
    server: Server,
    /// Submissions the balancer routed here (admitted + shed) — the
    /// denominator of per-replica id conservation.
    routed: usize,
}

impl Replica {
    /// Builds the replica's sessions — one per hosted model, all priced on
    /// the replica's own device — and starts its server with the
    /// cluster-wide queue/batch/class/admission/memory settings and the
    /// replica's own worker count and dwell.  Model ids follow the order of
    /// `models`, identically on every replica.
    ///
    /// # Panics
    /// Panics on an invalid spec or cluster config, or an empty model list.
    pub fn start(
        models: &[(String, Vec<TileWiseMatrix>)],
        spec: ReplicaSpec,
        config: &ClusterConfig,
    ) -> Self {
        spec.validate();
        assert!(!models.is_empty(), "a replica needs at least one model");
        let page_bytes = config.memory.map_or(ModelRegistry::DEFAULT_PAGE_BYTES, |m| m.page_bytes);
        let mut registry = ModelRegistry::with_page_bytes(page_bytes);
        for (name, tiles) in models {
            let plan = vec![spec.backend; tiles.len()];
            let session =
                InferenceSession::with_plan(tiles.to_vec(), &plan).with_device(spec.device.clone());
            registry.register(name.clone(), 1, Arc::new(session));
        }
        let serve_config = ServeConfig {
            max_batch_size: config.max_batch_size,
            max_batch_wait: config.max_batch_wait,
            workers: spec.workers,
            queue_capacity: config.queue_capacity,
            gpu_dwell: (spec.time_scale > 0.0).then_some(GpuDwell { time_scale: spec.time_scale }),
            classes: config.classes.clone(),
            admission: config.admission,
            memory: config.memory,
        };
        Self { spec, server: Server::start_registry(registry, serve_config), routed: 0 }
    }

    /// The spec the replica was built from.
    pub fn spec(&self) -> &ReplicaSpec {
        &self.spec
    }

    /// Total queued requests right now.
    pub fn queue_depth(&self) -> usize {
        self.server.queue_depth()
    }

    /// Requests shed by this replica so far.
    pub fn shed_so_far(&self) -> usize {
        self.server.shed_so_far()
    }

    /// The routing snapshot for a `class` arrival targeting `model`.  One
    /// queue-lock acquisition per replica (`Server::routing_probe`) — this
    /// runs for every live replica on every submission, contending with the
    /// replica's own workers.  `with_warmth` additionally looks up the
    /// model's VRAM residency (a tile-cache lock + tile scan); the cluster
    /// passes `true` only for [`crate::BalancerKind::ResidencyAware`], the
    /// one policy that reads warmth, and every other probe carries `1.0`.
    pub fn probe(&self, class: ClassId, model: ModelId, with_warmth: bool) -> ReplicaProbe {
        let (queue_depth, depth_ahead, predicted_wait) = self.server.routing_probe(class);
        ReplicaProbe {
            queue_depth,
            depth_ahead,
            predicted_wait_s: predicted_wait.as_secs_f64(),
            workers: self.spec.workers,
            model,
            warm_fraction: if with_warmth { self.server.model_warm_fraction(model) } else { 1.0 },
        }
    }

    /// Routes one submission for `model` to this replica.
    pub fn submit_model(
        &mut self,
        model: ModelId,
        class: ClassId,
        payload: Vec<f32>,
    ) -> Result<Admission, ServerClosed> {
        let admission = self.server.submit_model(model, class, payload)?;
        self.routed += 1;
        Ok(admission)
    }

    /// Drains the replica — `tw_serve::Server::shutdown`'s documented
    /// close → join → collect sequence — and returns everything the final
    /// cluster report needs.  The replica's own id conservation (every
    /// routed submission completed or shed exactly once) is asserted here.
    pub fn shutdown(self) -> RetiredReplica {
        let routed = self.routed;
        let (report, responses) = self.server.shutdown();
        assert_eq!(
            report.completed + report.shed,
            routed,
            "replica {:?} lost ids: {} completed + {} shed != {} routed",
            self.spec.name,
            report.completed,
            report.shed,
            routed,
        );
        RetiredReplica::new(self.spec, routed, report, &responses)
    }
}

/// A drained replica's complete outcome, merged into the
/// [`crate::ClusterReport`] at cluster shutdown.
pub struct RetiredReplica {
    /// The spec the replica ran under.
    pub spec: ReplicaSpec,
    /// Submissions routed to it over its lifetime.
    pub routed: usize,
    /// Its final serving report.
    pub report: ServeReport,
    /// One observation per response it produced (the cluster never drains
    /// mid-run, so this covers the replica's complete output).
    pub observations: Vec<RunObservation>,
}

impl RetiredReplica {
    /// Retires a replica from its server's shutdown output.
    pub fn new(
        spec: ReplicaSpec,
        routed: usize,
        report: ServeReport,
        responses: &[InferenceResponse],
    ) -> Self {
        Self {
            spec,
            routed,
            report,
            observations: responses.iter().map(RunObservation::of).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilewise::Backend;

    fn models() -> Vec<(String, Vec<TileWiseMatrix>)> {
        vec![("default".to_string(), InferenceSession::synthetic_tiles(&[24, 32, 12], 0.5, 8, 17))]
    }

    #[test]
    fn replica_serves_and_conserves_its_ids() {
        let config = ClusterConfig::default();
        let spec = ReplicaSpec::v100("r0", 2, Backend::TileWise, 0.0);
        let mut replica = Replica::start(&models(), spec, &config);
        for _ in 0..25 {
            replica.submit_model(0, 0, vec![0.2; 24]).unwrap();
        }
        // Without memory management every model reads fully warm.
        assert_eq!(replica.probe(0, 0, true).warm_fraction, 1.0);
        let retired = replica.shutdown();
        assert_eq!(retired.report.completed, 25);
        assert_eq!(retired.observations.len(), 25);
        assert_eq!(retired.routed, 25);
        assert_eq!(retired.report.backend_plan, vec!["tile-wise", "tile-wise"]);
    }

    #[test]
    fn heterogeneous_specs_price_on_their_own_device() {
        let config = ClusterConfig::default();
        let tiles = models();
        let v100 =
            Replica::start(&tiles, ReplicaSpec::v100("v", 1, Backend::TileWise, 0.0), &config);
        let a100 = Replica::start(
            &tiles,
            ReplicaSpec::v100("a", 1, Backend::TileWise, 0.0).on(GpuDevice::a100_like()),
            &config,
        );
        let b = config.max_batch_size;
        assert!(
            a100.server.session().simulated_batch_seconds(b)
                < v100.server.session().simulated_batch_seconds(b),
            "the A100 replica must price the same batch cheaper"
        );
        v100.shutdown();
        a100.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_worker_spec_rejected() {
        let spec = ReplicaSpec::v100("bad", 0, Backend::Dense, 0.0);
        let _ = Replica::start(&models(), spec, &ClusterConfig::default());
    }
}
