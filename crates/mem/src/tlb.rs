//! A fully-associative FIFO TLB timing model.
//!
//! Table 2 gives all three translation structures — the CPU TLB, the NP
//! TLB, and the reverse TLB (RTLB) — the same organization: 64 entries,
//! fully associative, FIFO replacement, 25-cycle miss. [`FifoTlb`] models
//! any of them; it is generic over the key (virtual page number for the
//! forward TLBs, physical page number for the RTLB).
//!
//! Like the cache model, this is timing-only: translations and RTLB entry
//! contents are always read from the functional state in
//! [`crate::ptable::PageTable`] / [`crate::memory::NodeMemory`]; the TLB
//! decides only whether the 25-cycle miss penalty applies.

use std::collections::VecDeque;
use std::hash::Hash;

use tt_base::stats::Counter;
use tt_base::FxHashSet;

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Accesses that missed (and loaded the entry).
    pub misses: Counter,
}

/// A fully-associative, FIFO-replacement TLB over keys of type `K`.
///
/// # Example
///
/// ```
/// use tt_mem::FifoTlb;
/// use tt_base::addr::Vpn;
///
/// let mut tlb = FifoTlb::new(64);
/// assert!(!tlb.access(Vpn(7)), "first touch misses");
/// assert!(tlb.access(Vpn(7)), "now resident");
/// ```
#[derive(Clone, Debug)]
pub struct FifoTlb<K> {
    /// Entries in fill order; the front is the next FIFO victim.
    entries: VecDeque<K>,
    /// Residency index so the per-access membership test is O(1) instead
    /// of a scan over all 64 entries. Always mirrors `entries`.
    resident: FxHashSet<K>,
    /// The key of the most recent hit or fill — consecutive accesses to
    /// the same page skip even the hash probe. `None` or stale-free:
    /// cleared whenever its entry could have left the TLB.
    last: Option<K>,
    capacity: usize,
    stats: TlbStats,
}

impl<K: Eq + Hash + Copy> FifoTlb<K> {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        FifoTlb {
            entries: VecDeque::with_capacity(capacity),
            resident: FxHashSet::default(),
            last: None,
            capacity,
            stats: TlbStats::default(),
        }
    }

    /// Accesses `key`: returns `true` on a hit. On a miss the entry is
    /// loaded, evicting the oldest entry if the TLB is full (FIFO), and
    /// `false` is returned so the caller can charge the miss penalty.
    pub fn access(&mut self, key: K) -> bool {
        if self.last == Some(key) {
            return true;
        }
        if self.resident.contains(&key) {
            self.last = Some(key);
            true
        } else {
            self.stats.misses.inc();
            if self.entries.len() == self.capacity {
                let victim = self.entries.pop_front().expect("TLB is full");
                self.resident.remove(&victim);
            }
            self.entries.push_back(key);
            self.resident.insert(key);
            self.last = Some(key);
            false
        }
    }

    /// Removes `key` (e.g. on unmap/remap). Returns `true` if present.
    pub fn flush(&mut self, key: K) -> bool {
        if self.last == Some(key) {
            self.last = None;
        }
        if self.resident.remove(&key) {
            let pos = self
                .entries
                .iter()
                .position(|e| *e == key)
                .expect("residency index mirrors entries");
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::addr::Vpn;

    /// Whether `page` is resident, leaving `t` untouched.
    fn resident(t: &FifoTlb<Vpn>, page: u64) -> bool {
        t.clone().flush(Vpn(page))
    }

    #[test]
    fn hit_after_fill() {
        let mut t = FifoTlb::new(4);
        assert!(!t.access(Vpn(1)));
        assert!(t.access(Vpn(1)));
        assert_eq!(t.stats().misses.get(), 1);
    }

    #[test]
    fn fifo_evicts_oldest() {
        let mut t = FifoTlb::new(3);
        t.access(Vpn(1));
        t.access(Vpn(2));
        t.access(Vpn(3));
        // Re-touching 1 must NOT refresh its FIFO position.
        assert!(t.access(Vpn(1)));
        t.access(Vpn(4)); // evicts 1 (oldest by insertion)
        assert!(!resident(&t, 1));
        assert!(resident(&t, 2));
        assert!(resident(&t, 3));
        assert!(resident(&t, 4));
    }

    #[test]
    fn flush_removes_entry() {
        let mut t = FifoTlb::new(2);
        t.access(Vpn(9));
        assert!(t.flush(Vpn(9)));
        assert!(!t.flush(Vpn(9)));
        assert!(!resident(&t, 9));
    }

    #[test]
    fn capacity_is_respected() {
        let mut t = FifoTlb::new(64);
        for i in 0..100u64 {
            t.access(Vpn(i));
        }
        assert!((0..36).all(|i| !resident(&t, i)), "the oldest 36 are gone");
        assert!((36..100).all(|i| resident(&t, i)), "the newest 64 remain");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        FifoTlb::<Vpn>::new(0);
    }
}
