//! An LRU block cache — the ablation the paper points at.
//!
//! Appendix D evaluates every term with *no caching*: "whenever we probe a
//! relation, we go to disk to read the block. Hence, the results for ECA
//! are pessimistic", and §6.3 adds "we expect that the I/O performance of
//! ECA would improve if we incorporated multiple term optimization or
//! caching into the analysis". This module supplies that missing piece:
//! a shared LRU over `(table, block)` identities. Reads that hit the
//! cache are not charged to the [`crate::IoMeter`].
//!
//! The cache models Scenario 1's "ample memory" honestly; Scenario 2's
//! whole premise is three memory blocks, so the nested-loop executor does
//! not consult it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One cached block's identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct BlockId {
    table: String,
    block: u64,
}

struct CacheInner {
    /// Block → recency stamp.
    entries: HashMap<BlockId, u64>,
    clock: u64,
    capacity: usize,
    hits: u64,
    misses: u64,
}

/// A shared LRU block cache. Clones reference the same cache; access is
/// serialized by a mutex so parallel term evaluation can share it.
#[derive(Clone)]
pub struct BlockCache {
    inner: Arc<Mutex<CacheInner>>,
}

impl BlockCache {
    /// A cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            inner: Arc::new(Mutex::new(CacheInner {
                entries: HashMap::with_capacity(capacity),
                clock: 0,
                capacity,
                hits: 0,
                misses: 0,
            })),
        }
    }

    /// The cache's state. A holder that panicked can at worst have left a
    /// counter or a recency stamp one step behind, and the map stays
    /// valid, so a poisoned lock is taken as it stands.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record an access to `(table, block)`. Returns `true` on a hit (the
    /// block read is free); on a miss the block is admitted, evicting the
    /// least recently used entry if full.
    pub fn access(&self, table: &str, block: u64) -> bool {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let id = BlockId {
            table: table.to_owned(),
            block,
        };
        if let Some(stamp) = inner.entries.get_mut(&id) {
            *stamp = clock;
            inner.hits += 1;
            return true;
        }
        inner.misses += 1;
        if inner.capacity == 0 {
            return false;
        }
        if inner.entries.len() >= inner.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
            }
        }
        inner.entries.insert(id, clock);
        false
    }

    /// Drop every cached block (e.g. after updates invalidate contents).
    pub fn invalidate_table(&self, table: &str) {
        self.lock().entries.retain(|id, _| id.table != table);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        write!(
            f,
            "BlockCache(cap={}, resident={}, hits={}, misses={})",
            inner.capacity,
            inner.entries.len(),
            inner.hits,
            inner.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let c = BlockCache::new(4);
        assert!(!c.access("r1", 0));
        assert!(c.access("r1", 0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let c = BlockCache::new(2);
        c.access("r", 0);
        c.access("r", 1);
        c.access("r", 0); // refresh 0
        c.access("r", 2); // evicts 1 (LRU)
        assert!(c.access("r", 0), "0 stays resident");
        assert!(!c.access("r", 1), "1 was evicted");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let c = BlockCache::new(0);
        assert!(!c.access("r", 0));
        assert!(!c.access("r", 0));
        assert!(c.is_empty());
    }

    #[test]
    fn tables_are_distinct() {
        let c = BlockCache::new(4);
        c.access("a", 0);
        assert!(!c.access("b", 0));
        assert!(c.access("a", 0));
    }

    #[test]
    fn invalidation_clears_one_table() {
        let c = BlockCache::new(4);
        c.access("a", 0);
        c.access("b", 0);
        c.invalidate_table("a");
        assert!(!c.access("a", 0));
        assert!(c.access("b", 0));
    }

    #[test]
    fn clones_share_state() {
        let a = BlockCache::new(4);
        let b = a.clone();
        a.access("r", 0);
        assert!(b.access("r", 0));
    }
}
