//! `tw-memory` — VRAM residency management for multi-model serving.
//!
//! Every kernel backend in the workspace reports `resident_bytes`, but
//! until this crate nothing modelled *where* those bytes live: devices had
//! no capacity, weights were eternally resident, and a server could host
//! exactly one model.  `tw-memory` supplies the missing layer between the
//! GPU cost model and the serving runtime:
//!
//! ```text
//!  ModelRegistry ──(tiles per model/layer)──> TileCache ──> MemoryPool
//!   name@version                               │  EvictionPolicy (lru /
//!   InferenceSession                           │   cost-aware), pinning
//!                                              └─ TransferCost (PCIe)
//! ```
//!
//! * [`MemoryPool`] — allocation accounting against one device's
//!   [`tw_gpu_sim::GpuDevice::vram_bytes`] capacity.
//! * [`TileCache`] — pages weight tiles keyed `(model, layer, tile)` and
//!   sized from the kernel's actual resident bytes; misses are priced by
//!   the device's [`tw_gpu_sim::TransferCost`] PCIe profile, eviction is
//!   pluggable behind [`EvictionPolicy`] ([`Lru`] or [`CostAware`]), tiles
//!   referenced by in-flight batches are pinned, and hits / misses / bytes
//!   transferred are counted globally and per model.
//! * [`ModelRegistry`] — named, versioned [`tilewise::InferenceSession`]s
//!   behind stable [`ModelId`]s.
//!
//! The serving tier (`tw-serve`) calls [`TileCache::acquire`] before each
//! batch and adds the returned transfer seconds to the batch's simulated
//! dwell, which is how cold-start latency becomes visible in reports; the
//! cluster tier (`tw-cluster`) routes on [`TileCache::resident_fraction`]
//! so requests prefer replicas where their model is already warm.
//!
//! The crate pins a conservation law end to end: **bytes transferred in ==
//! bytes evicted + bytes resident** — no byte is silently dropped or
//! double-counted, mirroring the id-conservation guarantee of the serving
//! layer.

pub mod cache;
pub mod policy;
pub mod pool;
pub mod registry;

pub use cache::{
    Acquisition, CacheStats, ModelId, ModelPagingStats, TileCache, TileKey, WeightTile,
};
pub use policy::{CandidateTile, CostAware, EvictionPolicy, Lru, PolicyKind, PolicyParseError};
pub use pool::{MemoryPool, OutOfMemory};
pub use registry::{ModelEntry, ModelRegistry};
