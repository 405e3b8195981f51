//! The model registry: named, versioned inference sessions.
//!
//! A multi-model server resolves request model ids through one
//! [`ModelRegistry`].  Each registered model carries its executable
//! [`tilewise::InferenceSession`] and the derived [`WeightTile`] set the
//! [`crate::TileCache`] pages: every layer's `resident_bytes` is split into
//! tiles of at most `page_bytes`, keyed `(model, layer, tile)` — so paging
//! granularity follows the kernel's actual footprint, not a guess.  When the
//! registered footprint exceeds a device's VRAM every model still serves:
//! the tile cache pages.

use crate::cache::{ModelId, TileKey, WeightTile};
use std::sync::Arc;
use tilewise::InferenceSession;

/// One registered model.
#[derive(Clone, Debug)]
pub struct ModelEntry {
    name: String,
    version: u32,
    session: Arc<InferenceSession>,
    tiles: Vec<WeightTile>,
    footprint: u64,
}

impl ModelEntry {
    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model's version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The executable session.
    pub fn session(&self) -> &Arc<InferenceSession> {
        &self.session
    }

    /// The pageable weight tiles, in (layer, tile) order.
    pub fn tiles(&self) -> &[WeightTile] {
        &self.tiles
    }

    /// Total resident footprint in bytes (the sum of the tiles).
    pub fn footprint(&self) -> u64 {
        self.footprint
    }
}

/// Named, versioned inference sessions behind stable [`ModelId`]s.
///
/// Ids are indices into registration order and never move; re-registering a
/// name with a higher version adds a new entry without invalidating
/// in-flight requests against the old id.
#[derive(Clone, Debug, Default)]
pub struct ModelRegistry {
    entries: Vec<ModelEntry>,
    page_bytes: u64,
}

impl ModelRegistry {
    /// Default paging granularity: 256 KiB pages.  Small enough that a
    /// partially-reused model does not pin its whole footprint, large
    /// enough that per-tile bookkeeping stays negligible next to transfer
    /// time.
    pub const DEFAULT_PAGE_BYTES: u64 = 256 * 1024;

    /// An empty registry with the default paging granularity.
    pub fn new() -> Self {
        Self { entries: Vec::new(), page_bytes: Self::DEFAULT_PAGE_BYTES }
    }

    /// An empty registry paging in tiles of at most `page_bytes`.
    ///
    /// # Panics
    /// Panics if `page_bytes` is zero.
    pub fn with_page_bytes(page_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        Self { entries: Vec::new(), page_bytes }
    }

    /// Registers `session` as `name` at `version` and returns its id.
    ///
    /// # Panics
    /// Panics if the same `(name, version)` pair is already registered —
    /// re-deploying a model means bumping the version.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        version: u32,
        session: Arc<InferenceSession>,
    ) -> ModelId {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|e| e.name == name && e.version == version),
            "model {name:?} v{version} is already registered"
        );
        let id = self.entries.len();
        let mut tiles = Vec::new();
        for (layer, layer_bytes) in session.layer_resident_bytes().into_iter().enumerate() {
            let mut remaining = layer_bytes as u64;
            let mut index = 0;
            while remaining > 0 {
                let bytes = remaining.min(self.page_bytes);
                tiles.push(WeightTile { key: TileKey { model: id, layer, tile: index }, bytes });
                remaining -= bytes;
                index += 1;
            }
        }
        let footprint = tiles.iter().map(|t| t.bytes).sum();
        self.entries.push(ModelEntry { name, version, session, tiles, footprint });
        id
    }

    /// The entry behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was never issued.
    pub fn get(&self, id: ModelId) -> &ModelEntry {
        &self.entries[id]
    }

    /// Number of registered models (all versions).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, entry)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ModelId, &ModelEntry)> {
        self.entries.iter().enumerate()
    }

    /// Sum of every registered model's footprint.
    pub fn total_footprint(&self) -> u64 {
        self.entries.iter().map(|e| e.footprint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilewise::Backend;

    fn session(dims: &[usize], seed: u64) -> Arc<InferenceSession> {
        Arc::new(InferenceSession::synthetic_chain(dims, 0.5, 8, seed, Backend::TileWise))
    }

    #[test]
    fn tiles_cover_the_session_footprint_at_page_granularity() {
        let mut registry = ModelRegistry::with_page_bytes(1024);
        let s = session(&[48, 64, 32], 1);
        let id = registry.register("bert", 1, Arc::clone(&s));
        let entry = registry.get(id);
        assert_eq!(entry.name(), "bert");
        assert_eq!(entry.version(), 1);
        assert_eq!(entry.footprint(), s.resident_bytes() as u64);
        assert_eq!(
            entry.tiles().iter().map(|t| t.bytes).sum::<u64>(),
            entry.footprint(),
            "tiles partition the footprint exactly"
        );
        assert!(entry.tiles().iter().all(|t| t.bytes <= 1024 && t.bytes > 0));
        assert!(entry.tiles().len() >= s.num_layers(), "at least one tile per layer");
        // Keys are (model, layer, tile) and layers match the session.
        let layers: std::collections::BTreeSet<usize> =
            entry.tiles().iter().map(|t| t.key.layer).collect();
        assert_eq!(layers.len(), s.num_layers());
        assert!(entry.tiles().iter().all(|t| t.key.model == id));
    }

    #[test]
    fn old_versions_keep_their_ids() {
        let mut registry = ModelRegistry::new();
        let v1 = registry.register("bert", 1, session(&[24, 16], 1));
        let v3 = registry.register("bert", 3, session(&[24, 16], 2));
        let gpt = registry.register("gpt", 1, session(&[24, 16], 3));
        // Old ids stay valid for in-flight work.
        assert_eq!(registry.get(v1).version(), 1);
        assert_eq!(registry.get(v3).version(), 3);
        assert_eq!(registry.get(gpt).name(), "gpt");
        assert_eq!(registry.len(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_version_rejected() {
        let mut registry = ModelRegistry::new();
        registry.register("bert", 1, session(&[24, 16], 1));
        registry.register("bert", 1, session(&[24, 16], 2));
    }
}
