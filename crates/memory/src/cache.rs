//! The tile cache: which weight tiles are in VRAM, and what paging the
//! missing ones costs.
//!
//! A serving worker about to execute a batch of model `m` calls
//! [`TileCache::acquire`] with `m`'s tiles.  Tiles already resident are
//! hits; the rest are paged in over the device's
//! [`tw_gpu_sim::TransferCost`] profile, evicting unpinned tiles (chosen by
//! the configured [`EvictionPolicy`]) until the new bytes fit.  The
//! returned [`Acquisition`] carries the simulated transfer seconds — the
//! batch's *cold-miss* dwell component.  Every acquired tile is pinned
//! until the matching [`TileCache::release`], so a concurrent batch can
//! never evict weights mid-execution.
//!
//! # Accounting invariants
//!
//! The cache maintains, and its tests pin, the conservation law every
//! report builds on: **bytes transferred in == bytes evicted + bytes
//! resident** — a byte paged over PCIe is either still in VRAM or was
//! evicted, never silently dropped or double-counted.  Pinned tiles are
//! never eviction candidates.  When the *pinned* working set alone exceeds
//! capacity the pool overcommits (recorded, never a deadlock) — size VRAM
//! for at least one model's footprint per concurrent worker to avoid it.

use crate::policy::{CandidateTile, EvictionPolicy};
use crate::pool::MemoryPool;
use std::collections::{BTreeMap, HashMap};
use tw_gpu_sim::TransferCost;

/// Index of a model in its [`crate::ModelRegistry`] — the id requests carry.
pub type ModelId = usize;

/// Identity of one pageable weight tile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileKey {
    /// Owning model.
    pub model: ModelId,
    /// Layer within the model.
    pub layer: usize,
    /// Tile within the layer.
    pub tile: usize,
}

impl std::fmt::Display for TileKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}/l{}/t{}", self.model, self.layer, self.tile)
    }
}

/// One pageable tile: its key and its resident size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightTile {
    /// The tile's identity.
    pub key: TileKey,
    /// Bytes the tile occupies when resident.
    pub bytes: u64,
}

/// The outcome of one [`TileCache::acquire`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Acquisition {
    /// Tiles that were already resident.
    pub hits: usize,
    /// Tiles that had to be paged in.
    pub misses: usize,
    /// Bytes moved host→device for the misses.
    pub bytes_transferred: u64,
    /// Simulated seconds the transfer took (zero on an all-hit acquire) —
    /// the batch's cold-miss dwell component.
    pub transfer_seconds: f64,
}

impl Acquisition {
    /// Whether any tile had to be paged in.
    pub fn is_cold(&self) -> bool {
        self.misses > 0
    }
}

/// Lifetime counters of one cache (see also [`ModelPagingStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Tile lookups that found the tile resident.
    pub hits: u64,
    /// Tile lookups that had to page the tile in.
    pub misses: u64,
    /// Total bytes moved host→device.
    pub bytes_transferred: u64,
    /// Total bytes evicted from VRAM.
    pub bytes_evicted: u64,
    /// Number of tiles evicted.
    pub evictions: u64,
    /// Total simulated transfer seconds charged.
    pub transfer_seconds: f64,
}

impl CacheStats {
    /// Fraction of lookups that hit (1.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Per-model slice of the cache counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelPagingStats {
    /// Tile hits for this model.
    pub hits: u64,
    /// Tile misses for this model.
    pub misses: u64,
    /// Bytes paged in for this model.
    pub bytes_transferred: u64,
    /// Simulated transfer seconds charged to this model's batches.
    pub transfer_seconds: f64,
}

impl ModelPagingStats {
    /// Fraction of this model's lookups that hit (1.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

#[derive(Clone, Copy, Debug)]
struct Resident {
    bytes: u64,
    last_access: u64,
    accesses: u64,
    pins: u32,
}

/// The VRAM residency manager: a [`MemoryPool`] of tiles with pluggable
/// eviction, pinning and full paging accounting.
#[derive(Debug)]
pub struct TileCache {
    pool: MemoryPool,
    transfer: TransferCost,
    policy: Box<dyn EvictionPolicy>,
    resident: HashMap<TileKey, Resident>,
    clock: u64,
    stats: CacheStats,
    per_model: BTreeMap<ModelId, ModelPagingStats>,
}

impl TileCache {
    /// A cache allocating from `pool` and pricing misses with `transfer`,
    /// evicting by `policy`.
    pub fn new(pool: MemoryPool, transfer: TransferCost, policy: Box<dyn EvictionPolicy>) -> Self {
        Self {
            pool,
            transfer,
            policy,
            resident: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            per_model: BTreeMap::new(),
        }
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.pool.used()
    }

    /// Times the pinned working set forced the pool past capacity.
    pub fn overcommits(&self) -> u64 {
        self.pool.overcommits()
    }

    /// The configured eviction policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether `key` is resident right now.
    pub fn contains(&self, key: TileKey) -> bool {
        self.resident.contains_key(&key)
    }

    /// Fraction of `tiles`' bytes currently resident (1.0 for an empty
    /// slice) — the *warmth* probe residency-aware routing ranks replicas
    /// by.
    pub fn resident_fraction(&self, tiles: &[WeightTile]) -> f64 {
        let total: u64 = tiles.iter().map(|t| t.bytes).sum();
        if total == 0 {
            return 1.0;
        }
        let warm: u64 =
            tiles.iter().filter(|t| self.resident.contains_key(&t.key)).map(|t| t.bytes).sum();
        warm as f64 / total as f64
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Per-model counters, for every model that was ever looked up.
    pub fn model_stats(&self) -> &BTreeMap<ModelId, ModelPagingStats> {
        &self.per_model
    }

    /// Makes every tile in `tiles` resident and pins it (pin counts stack
    /// across concurrent batches), evicting unpinned tiles as needed, and
    /// returns the hit/miss/transfer accounting.  Call
    /// [`TileCache::release`] with the same tiles when the batch completes.
    ///
    /// The whole acquire is one atomic step under the caller's lock: either
    /// all tiles end up resident and pinned, with misses priced as a single
    /// batched copy (one transfer latency, however many tiles missed).
    pub fn acquire(&mut self, tiles: &[WeightTile]) -> Acquisition {
        self.clock += 1;
        let mut outcome = Acquisition::default();
        let mut missed_by_model: BTreeMap<ModelId, u64> = BTreeMap::new();
        for tile in tiles {
            if let Some(entry) = self.resident.get_mut(&tile.key) {
                entry.last_access = self.clock;
                entry.accesses += 1;
                entry.pins += 1;
                outcome.hits += 1;
                self.stats.hits += 1;
                self.per_model.entry(tile.key.model).or_default().hits += 1;
                continue;
            }
            self.make_room(tile.bytes);
            self.pool.alloc_overcommit(tile.bytes);
            self.resident.insert(
                tile.key,
                Resident { bytes: tile.bytes, last_access: self.clock, accesses: 1, pins: 1 },
            );
            outcome.misses += 1;
            outcome.bytes_transferred += tile.bytes;
            self.stats.misses += 1;
            self.stats.bytes_transferred += tile.bytes;
            let per_model = self.per_model.entry(tile.key.model).or_default();
            per_model.misses += 1;
            per_model.bytes_transferred += tile.bytes;
            *missed_by_model.entry(tile.key.model).or_default() += tile.bytes;
        }
        // Price the misses as one batched copy per model (in practice an
        // acquire is single-model): one transfer latency, then bandwidth.
        for (model, bytes) in missed_by_model {
            let seconds = self.transfer.seconds(bytes);
            outcome.transfer_seconds += seconds;
            self.stats.transfer_seconds += seconds;
            self.per_model.entry(model).or_default().transfer_seconds += seconds;
        }
        outcome
    }

    /// Unpins tiles previously acquired.  If an earlier acquire had to
    /// overcommit the pool (pinned working sets of concurrent batches
    /// exceeding capacity), the overshoot is repaid here: newly-unpinned
    /// tiles are evicted until the pool is back within its budget, so an
    /// overcommit is a transient spike, never a permanent capacity raise.
    ///
    /// # Panics
    /// Panics if a tile is not resident or not pinned — a release without a
    /// matching acquire is a caller bug that would silently corrupt the
    /// pinning discipline.
    pub fn release(&mut self, tiles: &[WeightTile]) {
        for tile in tiles {
            let entry = self
                .resident
                .get_mut(&tile.key)
                .unwrap_or_else(|| panic!("release of non-resident tile {}", tile.key));
            assert!(entry.pins > 0, "release of unpinned tile {}", tile.key);
            entry.pins -= 1;
        }
        while self.pool.is_overcommitted() {
            if !self.evict_one_unpinned() {
                break;
            }
        }
    }

    /// Evicts unpinned tiles (policy-chosen) until `needed` bytes fit or no
    /// candidate remains (everything pinned: the pool will overcommit).
    fn make_room(&mut self, needed: u64) {
        while self.pool.free() < needed {
            if !self.evict_one_unpinned() {
                return;
            }
        }
    }

    /// Evicts the policy's pick among the unpinned resident tiles; `false`
    /// when none exists.
    fn evict_one_unpinned(&mut self) -> bool {
        let candidates: Vec<CandidateTile> = self
            .resident
            .iter()
            .filter(|(_, entry)| entry.pins == 0)
            .map(|(key, entry)| CandidateTile {
                key: *key,
                bytes: entry.bytes,
                reload_seconds: self.transfer.seconds(entry.bytes),
                last_access: entry.last_access,
                accesses: entry.accesses,
            })
            .collect();
        if candidates.is_empty() {
            return false;
        }
        let victim = self.policy.victim(self.clock, &candidates);
        assert!(victim < candidates.len(), "policy picked candidate out of range");
        self.evict(candidates[victim].key);
        true
    }

    fn evict(&mut self, key: TileKey) -> u64 {
        let entry = self.resident.remove(&key).expect("evicting a non-resident tile");
        debug_assert_eq!(entry.pins, 0, "evicting a pinned tile");
        self.pool.release(entry.bytes);
        self.stats.evictions += 1;
        self.stats.bytes_evicted += entry.bytes;
        entry.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, PolicyKind};

    fn tile(model: ModelId, layer: usize, tile: usize, bytes: u64) -> WeightTile {
        WeightTile { key: TileKey { model, layer, tile }, bytes }
    }

    fn cache(capacity: u64) -> TileCache {
        TileCache::new(MemoryPool::new(capacity), TransferCost::new(1.0e9, 10.0e-6), Box::new(Lru))
    }

    #[test]
    fn cold_then_warm_acquires_flip_miss_to_hit() {
        let mut c = cache(1 << 20);
        let tiles = vec![tile(0, 0, 0, 4096), tile(0, 0, 1, 4096), tile(0, 1, 0, 8192)];
        let cold = c.acquire(&tiles);
        assert_eq!((cold.hits, cold.misses), (0, 3));
        assert_eq!(cold.bytes_transferred, 16384);
        assert!(cold.is_cold());
        // One batched copy: a single latency plus the bytes.
        let expected = 10.0e-6 + 16384.0 / 1.0e9;
        assert!((cold.transfer_seconds - expected).abs() < 1e-12);
        c.release(&tiles);
        let warm = c.acquire(&tiles);
        assert_eq!((warm.hits, warm.misses), (3, 0));
        assert_eq!(warm.transfer_seconds, 0.0);
        assert!(!warm.is_cold());
        c.release(&tiles);
        assert_eq!(c.resident_bytes(), 16384);
        assert_eq!(c.stats().hit_rate(), 0.5);
        assert_eq!(c.resident_fraction(&tiles), 1.0);
    }

    #[test]
    fn eviction_makes_room_and_conserves_bytes() {
        let mut c = cache(10_000);
        let a = vec![tile(0, 0, 0, 6000)];
        let b = vec![tile(1, 0, 0, 6000)];
        c.acquire(&a);
        c.release(&a);
        // b does not fit next to a: a must be evicted.
        c.acquire(&b);
        c.release(&b);
        assert!(!c.contains(a[0].key));
        assert!(c.contains(b[0].key));
        let stats = c.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_evicted, 6000);
        assert_eq!(stats.bytes_transferred, stats.bytes_evicted + c.resident_bytes());
        assert_eq!(c.resident_fraction(&a), 0.0);
        assert_eq!(c.resident_fraction(&b), 1.0);
    }

    #[test]
    fn pinned_tiles_survive_pressure_via_overcommit_and_repay_on_release() {
        let mut c = cache(10_000);
        let a = vec![tile(0, 0, 0, 6000)];
        let b = vec![tile(1, 0, 0, 6000)];
        c.acquire(&a);
        // a is still pinned: acquiring b cannot evict it, so the pool
        // overcommits rather than deadlocking or corrupting the batch.
        c.acquire(&b);
        assert!(c.contains(a[0].key));
        assert!(c.contains(b[0].key));
        assert_eq!(c.resident_bytes(), 12_000);
        assert_eq!(c.overcommits(), 1);
        // Releasing repays the overshoot: the freshly unpinned tile is
        // evicted until the pool is back within budget — an overcommit is
        // a spike, not a permanent capacity raise.
        c.release(&a);
        assert!(!c.contains(a[0].key), "unpinned a must be evicted to repay the overcommit");
        assert!(c.contains(b[0].key), "b is still pinned");
        assert_eq!(c.resident_bytes(), 6000);
        assert_eq!(c.stats().evictions, 1);
        c.release(&b);
        assert!(c.contains(b[0].key), "within budget, release evicts nothing");
        let stats = c.stats();
        assert_eq!(stats.bytes_transferred, stats.bytes_evicted + c.resident_bytes());
    }

    #[test]
    fn pin_counts_stack_across_concurrent_acquires() {
        let mut c = cache(10_000);
        let shared = vec![tile(0, 0, 0, 4000)];
        c.acquire(&shared);
        c.acquire(&shared);
        c.release(&shared);
        // Still pinned once: pressure must not evict it.
        c.acquire(&[tile(1, 0, 0, 9000)]);
        assert!(c.contains(shared[0].key));
        c.release(&shared);
    }

    #[test]
    fn per_model_stats_split_the_traffic() {
        let mut c = cache(1 << 20);
        let m0 = vec![tile(0, 0, 0, 1000)];
        let m1 = vec![tile(1, 0, 0, 2000)];
        c.acquire(&m0);
        c.release(&m0);
        c.acquire(&m0);
        c.release(&m0);
        c.acquire(&m1);
        c.release(&m1);
        let stats = c.model_stats();
        assert_eq!(stats[&0].hits, 1);
        assert_eq!(stats[&0].misses, 1);
        assert_eq!(stats[&0].bytes_transferred, 1000);
        assert_eq!(stats[&0].hit_rate(), 0.5);
        assert_eq!(stats[&1].misses, 1);
        assert_eq!(stats[&1].hit_rate(), 0.0);
        assert!(stats[&0].transfer_seconds > 0.0);
    }

    #[test]
    fn policy_kinds_plug_in() {
        for kind in PolicyKind::ALL {
            let c =
                TileCache::new(MemoryPool::new(1024), TransferCost::new(1.0e9, 0.0), kind.build());
            assert_eq!(c.policy_name(), kind.as_str());
        }
    }

    #[test]
    #[should_panic(expected = "release of non-resident tile")]
    fn release_without_acquire_is_a_bug() {
        let mut c = cache(1024);
        c.release(&[tile(0, 0, 0, 16)]);
    }
}
