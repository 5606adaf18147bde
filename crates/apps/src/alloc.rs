//! Shared-segment allocation helpers for the workloads.
//!
//! The paper's run-time library lets programs allocate shared pages on
//! chosen home nodes (owners-compute allocation) or round-robin. These
//! helpers compute the address arithmetic: an `ArenaPlanner` hands out
//! page-aligned regions of the shared segment, an `OwnedArray` places
//! each owner's elements on pages homed at that owner, and a
//! `CyclicArray` spreads pages round-robin (the default for data with
//! no natural owner, e.g. MP3D's space cells).

use tt_base::addr::{VAddr, PAGE_BYTES, WORD_BYTES};
use tt_base::workload::{Placement, Region, SHARED_SEGMENT_BASE};
use tt_base::NodeId;

/// Hands out page-aligned shared-segment ranges.
#[derive(Clone, Debug)]
pub(crate) struct ArenaPlanner {
    cursor: u64,
}

impl ArenaPlanner {
    /// A planner starting at the shared segment base.
    pub(crate) fn new() -> Self {
        ArenaPlanner { cursor: SHARED_SEGMENT_BASE }
    }

    /// Reserves `bytes` (rounded up to whole pages) and returns the base.
    pub(crate) fn reserve(&mut self, bytes: usize) -> VAddr {
        let base = self.cursor;
        let pages = bytes.div_ceil(PAGE_BYTES) as u64;
        self.cursor += pages * PAGE_BYTES as u64;
        VAddr::new(base)
    }
}

impl Default for ArenaPlanner {
    fn default() -> Self {
        Self::new()
    }
}

/// A distributed array where each owner's elements live on pages homed at
/// that owner (owners-compute placement).
///
/// Each owner's span starts on a fresh page, so pages never straddle
/// owners and the [`Region`] can name a home per page.
#[derive(Clone, Debug)]
pub(crate) struct OwnedArray {
    base: VAddr,
    /// Per-owner element counts.
    counts: Vec<usize>,
    /// Per-owner starting page offset (in pages from `base`).
    owner_page: Vec<usize>,
    /// Per-owner page span.
    owner_pages: Vec<usize>,
    words_per_elem: usize,
    mode: u8,
}

impl OwnedArray {
    /// Plans an array of `counts[o]` elements per owner, each
    /// `words_per_elem` 64-bit words, homed per the owners-compute rule,
    /// with protocol page mode `mode`.
    pub(crate) fn plan(
        planner: &mut ArenaPlanner,
        counts: &[usize],
        words_per_elem: usize,
        mode: u8,
    ) -> Self {
        assert!(words_per_elem > 0);
        let mut owner_page = Vec::with_capacity(counts.len());
        let mut owner_pages = Vec::with_capacity(counts.len());
        let mut page = 0usize;
        for &c in counts {
            owner_page.push(page);
            let bytes = c.max(1) * words_per_elem * WORD_BYTES;
            let pages = bytes.div_ceil(PAGE_BYTES);
            owner_pages.push(pages);
            page += pages;
        }
        let base = planner.reserve(page * PAGE_BYTES);
        OwnedArray { base, counts: counts.to_vec(), owner_page, owner_pages, words_per_elem, mode }
    }

    /// The layout region declaring every page's home.
    pub(crate) fn region(&self) -> Region {
        let mut homes = Vec::new();
        for (owner, &pages) in self.owner_pages.iter().enumerate() {
            homes.extend(std::iter::repeat_n(NodeId::new(owner as u16), pages));
        }
        Region {
            base: self.base,
            bytes: homes.len() * PAGE_BYTES,
            placement: Placement::PerPage(homes),
            mode: self.mode,
        }
    }

    /// Address of word `word` of element `idx` of `owner`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub(crate) fn addr(&self, owner: usize, idx: usize, word: usize) -> VAddr {
        assert!(idx < self.counts[owner], "element index out of range");
        assert!(word < self.words_per_elem);
        let off =
            self.owner_page[owner] * PAGE_BYTES + (idx * self.words_per_elem + word) * WORD_BYTES;
        self.base.offset(off as u64)
    }

    /// Number of elements owned by `owner`.
    pub(crate) fn count(&self, owner: usize) -> usize {
        self.counts[owner]
    }
}

/// A flat shared array whose pages are homed round-robin across nodes.
#[derive(Clone, Debug)]
pub(crate) struct CyclicArray {
    base: VAddr,
    elems: usize,
    words_per_elem: usize,
    mode: u8,
}

impl CyclicArray {
    /// Plans a flat array of `elems` elements of `words_per_elem` words.
    pub(crate) fn plan(
        planner: &mut ArenaPlanner,
        elems: usize,
        words_per_elem: usize,
        mode: u8,
    ) -> Self {
        let base = planner.reserve(elems.max(1) * words_per_elem * WORD_BYTES);
        CyclicArray { base, elems, words_per_elem, mode }
    }

    /// The layout region (cyclic placement).
    pub(crate) fn region(&self) -> Region {
        Region {
            base: self.base,
            bytes: self.elems.max(1) * self.words_per_elem * WORD_BYTES,
            placement: Placement::Cyclic,
            mode: self.mode,
        }
    }

    /// Address of word `word` of element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub(crate) fn addr(&self, idx: usize, word: usize) -> VAddr {
        assert!(idx < self.elems, "element index out of range");
        assert!(word < self.words_per_elem);
        self.base.offset(((idx * self.words_per_elem + word) * WORD_BYTES) as u64)
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.elems
    }
}

/// Splits `total` elements evenly over `procs` owners (owners-compute).
pub(crate) fn even_split(total: usize, procs: usize) -> Vec<usize> {
    let base = total / procs;
    let extra = total % procs;
    (0..procs).map(|p| base + usize::from(p < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_hands_out_disjoint_page_aligned_ranges() {
        let mut p = ArenaPlanner::new();
        let a = p.reserve(100);
        let b = p.reserve(5000);
        let c = p.reserve(4096);
        assert_eq!(a.raw() % PAGE_BYTES as u64, 0);
        assert_eq!(b.raw(), a.raw() + PAGE_BYTES as u64);
        assert_eq!(c.raw(), b.raw() + 2 * PAGE_BYTES as u64);
    }

    #[test]
    fn owned_array_pages_do_not_straddle_owners() {
        let mut p = ArenaPlanner::new();
        // 3 owners with 600 one-word elements each: 4800 B -> 2 pages each.
        let a = OwnedArray::plan(&mut p, &[600, 600, 600], 1, 0);
        let r = a.region();
        match &r.placement {
            Placement::PerPage(homes) => {
                assert_eq!(homes.len(), 6);
                assert_eq!(homes[0], NodeId::new(0));
                assert_eq!(homes[1], NodeId::new(0));
                assert_eq!(homes[2], NodeId::new(1));
                assert_eq!(homes[5], NodeId::new(2));
            }
            other => panic!("unexpected placement {other:?}"),
        }
        // First element of owner 1 starts exactly at its first page.
        assert_eq!(a.addr(1, 0, 0).raw() % PAGE_BYTES as u64, 0);
        assert_eq!(r.bytes, 6 * PAGE_BYTES);
    }

    #[test]
    fn owned_array_addressing_is_dense_within_owner() {
        let mut p = ArenaPlanner::new();
        let a = OwnedArray::plan(&mut p, &[10, 10], 3, 0);
        assert_eq!(a.addr(0, 1, 0).raw() - a.addr(0, 0, 0).raw(), 3 * WORD_BYTES as u64);
        assert_eq!(a.addr(0, 0, 2).raw() - a.addr(0, 0, 0).raw(), 16);
        assert_eq!(a.count(1), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owned_array_bounds_checked() {
        let mut p = ArenaPlanner::new();
        let a = OwnedArray::plan(&mut p, &[4], 1, 0);
        a.addr(0, 4, 0);
    }

    #[test]
    fn cyclic_array_is_dense() {
        let mut p = ArenaPlanner::new();
        let a = CyclicArray::plan(&mut p, 100, 2, 0);
        assert_eq!(a.addr(1, 0).raw() - a.addr(0, 0).raw(), 16);
        assert_eq!(a.len(), 100);
        assert!(matches!(a.region().placement, Placement::Cyclic));
    }

    #[test]
    fn even_split_distributes_remainder() {
        assert_eq!(even_split(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(even_split(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(even_split(3, 4), vec![1, 1, 1, 0]);
    }
}
