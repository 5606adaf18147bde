//! A set-associative cache timing model with random replacement.
//!
//! Used for the primary CPU's data cache (Table 2: 4-way associative,
//! random replacement, 32-byte blocks, 4 KB – 256 KB) and for the NP's
//! data cache (16 KB, 2-way). The model is timing-only: it tracks which
//! block addresses are resident and whether each line is held *owned*
//! (exclusive/dirty — writes hit silently) or *shared* (writes require a
//! bus transaction the NP or directory can observe). Data bytes live in
//! [`crate::memory::NodeMemory`].

use tt_base::stats::Counter;
use tt_base::DetRng;

/// Result of probing the cache for a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The block is resident and the line is held owned (writable).
    HitOwned,
    /// The block is resident but shared: reads hit, writes need a bus
    /// upgrade transaction.
    HitShared,
    /// The block is not resident.
    Miss,
}

impl Probe {
    /// Whether the probe found the block at all.
    #[inline]
    pub fn is_hit(self) -> bool {
        !matches!(self, Probe::Miss)
    }
}

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Block address (in block-granule units) of the victim.
    pub block: u64,
    /// Whether the victim was held owned (i.e. needs a writeback).
    pub owned: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Line {
    block: u64,
    owned: bool,
}

/// Cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that hit.
    pub hits: Counter,
    /// Probes that missed.
    pub misses: Counter,
}

/// A set-associative, random-replacement cache keyed by block address.
///
/// Block addresses are `u64` block numbers (byte address / block size);
/// the caller chooses the address space (physical for the CPU cache,
/// synthetic directory-structure addresses for the NP cache).
///
/// # Example
///
/// ```
/// use tt_mem::cache::{CacheModel, Probe};
/// use tt_base::DetRng;
///
/// let mut cache = CacheModel::new(4096, 4, 32, DetRng::new(1));
/// assert_eq!(cache.probe(42), Probe::Miss);
/// cache.fill(42, /* owned */ false);
/// assert_eq!(cache.probe(42), Probe::HitShared);
/// ```
#[derive(Clone, Debug)]
pub struct CacheModel {
    sets: Vec<Vec<Line>>,
    assoc: usize,
    set_mask: u64,
    rng: DetRng,
    stats: CacheStats,
}

impl CacheModel {
    /// Creates a cache of `capacity_bytes` with the given associativity and
    /// block size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes) or the number of
    /// sets is not a power of two.
    pub fn new(capacity_bytes: usize, assoc: usize, block_bytes: usize, rng: DetRng) -> Self {
        assert!(capacity_bytes > 0 && assoc > 0 && block_bytes > 0);
        let lines = capacity_bytes / block_bytes;
        assert!(lines >= assoc, "cache smaller than one set");
        let nsets = lines / assoc;
        assert!(nsets.is_power_of_two(), "set count {nsets} not a power of two");
        CacheModel {
            sets: vec![Vec::with_capacity(assoc); nsets],
            assoc,
            set_mask: (nsets - 1) as u64,
            rng,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        (block & self.set_mask) as usize
    }

    /// Looks up a block, updating hit/miss statistics.
    pub fn probe(&mut self, block: u64) -> Probe {
        let set = self.set_of(block);
        for line in &self.sets[set] {
            if line.block == block {
                self.stats.hits.inc();
                return if line.owned { Probe::HitOwned } else { Probe::HitShared };
            }
        }
        self.stats.misses.inc();
        Probe::Miss
    }

    /// Looks up a block without touching statistics (for assertions).
    pub fn peek(&self, block: u64) -> Probe {
        let set = self.set_of(block);
        for line in &self.sets[set] {
            if line.block == block {
                return if line.owned { Probe::HitOwned } else { Probe::HitShared };
            }
        }
        Probe::Miss
    }

    /// Installs a block after a miss, choosing a random victim if the set
    /// is full. Returns the evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the block is already resident (fills must
    /// follow misses).
    pub fn fill(&mut self, block: u64, owned: bool) -> Option<Evicted> {
        debug_assert_eq!(self.peek(block), Probe::Miss, "fill of resident block");
        let assoc = self.assoc;
        let set_idx = self.set_of(block);
        let evicted = if self.sets[set_idx].len() >= assoc {
            let victim = self.rng.below_usize(assoc);
            let set = &mut self.sets[set_idx];
            let old = set.swap_remove(victim);
            Some(Evicted { block: old.block, owned: old.owned })
        } else {
            None
        };
        self.sets[set_idx].push(Line { block, owned });
        evicted
    }

    /// Changes the ownership state of a resident line (upgrade/downgrade).
    /// Returns `false` if the block is not resident.
    pub fn set_owned(&mut self, block: u64, owned: bool) -> bool {
        let set = self.set_of(block);
        for line in &mut self.sets[set] {
            if line.block == block {
                line.owned = owned;
                return true;
            }
        }
        false
    }

    /// Removes a block. Returns `true` if it was resident.
    pub fn invalidate(&mut self, block: u64) -> bool {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.block == block) {
            set.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes every block of the given 4 KB page (used when a stache page
    /// is re-purposed). `page_blocks` is the block-number range of the page.
    pub fn invalidate_range(&mut self, blocks: std::ops::Range<u64>) -> usize {
        let mut n = 0;
        for b in blocks {
            if self.invalidate(b) {
                n += 1;
            }
        }
        n
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize, assoc: usize) -> CacheModel {
        CacheModel::new(cap, assoc, 32, DetRng::new(1))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache(4096, 4);
        assert_eq!(c.probe(100), Probe::Miss);
        assert_eq!(c.fill(100, false), None);
        assert_eq!(c.probe(100), Probe::HitShared);
        c.set_owned(100, true);
        assert_eq!(c.probe(100), Probe::HitOwned);
        assert_eq!(c.stats().hits.get(), 2);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn full_set_evicts_exactly_one() {
        let mut c = cache(4096, 4); // 32 sets
        let set_stride = 32; // blocks mapping to the same set differ by nsets
        for i in 0..4 {
            assert!(c.fill(i * set_stride, false).is_none());
        }
        let ev = c.fill(4 * set_stride, true).expect("set full, must evict");
        assert_eq!(ev.block % set_stride, 0);
        assert!(!ev.owned);
        assert_eq!(c.peek(ev.block), Probe::Miss);
        let resident = (0..5).filter(|i| c.peek(i * set_stride).is_hit()).count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn owned_victim_needs_writeback() {
        let mut c = cache(128, 4); // single set of 4
        for i in 0..4 {
            c.fill(i, true);
        }
        assert_eq!(c.fill(9, false).map(|ev| ev.owned), Some(true));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache(4096, 4);
        c.fill(7, true);
        assert!(c.invalidate(7));
        assert!(!c.invalidate(7));
        assert_eq!(c.probe(7), Probe::Miss);
    }

    #[test]
    fn invalidate_range_clears_page() {
        let mut c = cache(64 * 1024, 4);
        for b in 0..128u64 {
            c.fill(b, false);
        }
        assert_eq!(c.invalidate_range(0..128), 128);
        assert!((0..128).all(|b| c.peek(b) == Probe::Miss));
    }

    #[test]
    fn set_owned_on_absent_block_is_false() {
        let mut c = cache(4096, 4);
        assert!(!c.set_owned(3, true));
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = cache(4096, 4);
        c.peek(5);
        assert_eq!(c.stats().misses.get(), 0);
        assert_eq!(c.probe(5), Probe::Miss);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = cache(256, 4); // 2 sets
                                   // Blocks 0,2,4,6 -> set 0; 1,3,5,7 -> set 1.
        for b in [0u64, 2, 4, 6, 1, 3, 5, 7] {
            assert!(c.fill(b, false).is_none());
        }
        assert!((0..8).all(|b| c.peek(b) == Probe::HitShared));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        CacheModel::new(96, 1, 32, DetRng::new(0));
    }
}
