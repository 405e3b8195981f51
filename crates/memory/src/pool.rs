//! A per-device allocation budget: bytes against a VRAM capacity.

/// Error from [`MemoryPool::try_alloc`]: the request did not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the allocation asked for.
    pub requested: u64,
    /// Bytes that were free at the time.
    pub free: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "out of device memory: requested {} bytes, {} free", self.requested, self.free)
    }
}

impl std::error::Error for OutOfMemory {}

/// Tracks allocations against one device's VRAM capacity.
///
/// The pool is pure accounting — it holds no buffers, because the workspace
/// simulates the device analytically.  What it guarantees is the invariant
/// every resident-set decision hangs off: `used` is the exact sum of live
/// allocations, and [`MemoryPool::try_alloc`] refuses anything that would
/// exceed `capacity`.  [`MemoryPool::alloc_overcommit`] exists for callers
/// (the tile cache) whose *pinned* working set can transiently exceed the
/// budget: it always succeeds but reports (and counts) the overshoot, the
/// way a real allocator would start thrashing rather than deadlock.
#[derive(Clone, Debug)]
pub struct MemoryPool {
    capacity: u64,
    used: u64,
    peak: u64,
    overcommits: u64,
}

impl MemoryPool {
    /// An empty pool of `capacity` bytes.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "memory pool capacity must be positive");
        Self { capacity, used: 0, peak: 0, overcommits: 0 }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (zero when overcommitted).
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }

    /// High-water mark of [`Self::used`] over the pool's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Times an [`Self::alloc_overcommit`] pushed `used` past `capacity`.
    pub fn overcommits(&self) -> u64 {
        self.overcommits
    }

    /// Whether `used` currently exceeds `capacity`.
    pub fn is_overcommitted(&self) -> bool {
        self.used > self.capacity
    }

    /// Allocates `bytes` if they fit, or reports [`OutOfMemory`] without
    /// changing the pool.
    pub fn try_alloc(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        if bytes > self.free() {
            return Err(OutOfMemory { requested: bytes, free: self.free() });
        }
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(())
    }

    /// Allocates `bytes` unconditionally; returns `true` when the pool
    /// stayed within capacity and `false` (counting an overcommit) when the
    /// allocation pushed it over.
    pub fn alloc_overcommit(&mut self, bytes: u64) -> bool {
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        if self.used > self.capacity {
            self.overcommits += 1;
            false
        } else {
            true
        }
    }

    /// Returns `bytes` to the pool.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds the currently allocated total — freeing
    /// memory that was never allocated is an accounting bug, not a runtime
    /// condition.
    pub fn release(&mut self, bytes: u64) {
        assert!(bytes <= self.used, "released {bytes} bytes but only {} are allocated", self.used);
        self.used -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip_tracks_used_and_peak() {
        let mut pool = MemoryPool::new(100);
        assert_eq!(pool.free(), 100);
        pool.try_alloc(60).unwrap();
        pool.try_alloc(40).unwrap();
        assert_eq!(pool.used(), 100);
        assert_eq!(pool.free(), 0);
        pool.release(60);
        assert_eq!(pool.used(), 40);
        assert_eq!(pool.peak(), 100);
        assert!(!pool.is_overcommitted());
        assert_eq!(pool.overcommits(), 0);
    }

    #[test]
    fn try_alloc_refuses_without_mutating() {
        let mut pool = MemoryPool::new(64);
        pool.try_alloc(60).unwrap();
        let err = pool.try_alloc(8).unwrap_err();
        assert_eq!(err, OutOfMemory { requested: 8, free: 4 });
        assert!(err.to_string().contains("requested 8"));
        assert_eq!(pool.used(), 60, "failed alloc must not change the pool");
    }

    #[test]
    fn overcommit_always_succeeds_but_is_counted() {
        let mut pool = MemoryPool::new(64);
        assert!(pool.alloc_overcommit(60));
        assert!(!pool.alloc_overcommit(10));
        assert!(pool.is_overcommitted());
        assert_eq!(pool.used(), 70);
        assert_eq!(pool.free(), 0);
        assert_eq!(pool.overcommits(), 1);
        pool.release(10);
        assert!(!pool.is_overcommitted());
    }

    #[test]
    #[should_panic(expected = "only 10 are allocated")]
    fn over_release_is_an_accounting_bug() {
        let mut pool = MemoryPool::new(64);
        pool.try_alloc(10).unwrap();
        pool.release(11);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = MemoryPool::new(0);
    }
}
