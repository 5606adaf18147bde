//! A per-node virtual-to-physical page table.
//!
//! Tempest's virtual memory management (Section 2.3) lets user-level code
//! explicitly allocate physical pages at chosen virtual addresses in the
//! shared segment, then remap, unmap, or free them. The page table is the
//! functional side of that mechanism; the TLB models in [`crate::tlb`]
//! supply the timing.

use tt_base::addr::{PAddr, Ppn, VAddr, Vpn};
use tt_base::FxHashMap;

/// Error returned when a mapping operation is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapError {
    /// The virtual page is already mapped.
    AlreadyMapped(Vpn),
    /// The virtual page is not mapped.
    NotMapped(Vpn),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::AlreadyMapped(v) => write!(f, "virtual page {v:?} is already mapped"),
            MapError::NotMapped(v) => write!(f, "virtual page {v:?} is not mapped"),
        }
    }
}

impl std::error::Error for MapError {}

/// A node's page table: `Vpn -> Ppn`.
///
/// # Example
///
/// ```
/// use tt_mem::PageTable;
/// use tt_base::addr::{Ppn, VAddr, Vpn};
///
/// let mut pt = PageTable::new();
/// pt.map(Vpn(5), Ppn(2))?;
/// assert_eq!(pt.translate_addr(VAddr::new(5 * 4096 + 8)),
///            Some(Ppn(2).base().offset(8)));
/// # Ok::<(), tt_mem::ptable::MapError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    map: FxHashMap<Vpn, Ppn>,
    /// Memoized result of the most recent successful translation —
    /// consecutive accesses to the same page skip the hash lookup.
    /// Invalidated on [`PageTable::unmap`]; `map` never overwrites an
    /// existing entry, so a cached mapping cannot go stale any other way.
    last: std::cell::Cell<Option<(Vpn, Ppn)>>,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Maps `vpn` to `ppn`.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::AlreadyMapped`] if `vpn` already has a mapping;
    /// remapping requires an explicit [`PageTable::unmap`] first, mirroring
    /// the paper's explicit remap operation.
    pub fn map(&mut self, vpn: Vpn, ppn: Ppn) -> Result<(), MapError> {
        match self.map.entry(vpn) {
            std::collections::hash_map::Entry::Occupied(_) => Err(MapError::AlreadyMapped(vpn)),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(ppn);
                Ok(())
            }
        }
    }

    /// Removes the mapping for `vpn`, returning the frame it mapped.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::NotMapped`] if `vpn` has no mapping.
    pub fn unmap(&mut self, vpn: Vpn) -> Result<Ppn, MapError> {
        if matches!(self.last.get(), Some((v, _)) if v == vpn) {
            self.last.set(None);
        }
        self.map.remove(&vpn).ok_or(MapError::NotMapped(vpn))
    }

    /// The frame `vpn` maps to, if any.
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        if let Some((v, p)) = self.last.get() {
            if v == vpn {
                return Some(p);
            }
        }
        let ppn = self.map.get(&vpn).copied();
        if let Some(p) = ppn {
            self.last.set(Some((vpn, p)));
        }
        ppn
    }

    /// Translates a full virtual address to a physical address.
    pub fn translate_addr(&self, addr: VAddr) -> Option<PAddr> {
        self.translate(addr.page()).map(|ppn| ppn.base().offset(addr.page_offset()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        pt.map(Vpn(10), Ppn(3)).unwrap();
        assert_eq!(pt.translate(Vpn(10)), Some(Ppn(3)));
        assert_eq!(pt.unmap(Vpn(10)), Ok(Ppn(3)));
        assert_eq!(pt.translate(Vpn(10)), None);
    }

    #[test]
    fn double_map_is_error() {
        let mut pt = PageTable::new();
        pt.map(Vpn(1), Ppn(1)).unwrap();
        assert_eq!(pt.map(Vpn(1), Ppn(2)), Err(MapError::AlreadyMapped(Vpn(1))));
    }

    #[test]
    fn unmap_missing_is_error() {
        let mut pt = PageTable::new();
        assert_eq!(pt.unmap(Vpn(9)), Err(MapError::NotMapped(Vpn(9))));
    }

    #[test]
    fn translate_addr_preserves_offset() {
        let mut pt = PageTable::new();
        pt.map(Vpn(2), Ppn(7)).unwrap();
        let va = VAddr::new(2 * 4096 + 1234);
        let pa = pt.translate_addr(va).unwrap();
        assert_eq!(pa.raw(), 7 * 4096 + 1234);
        assert!(pt.translate_addr(VAddr::new(99 * 4096)).is_none());
    }

    #[test]
    fn remap_via_unmap_then_map() {
        let mut pt = PageTable::new();
        pt.map(Vpn(4), Ppn(1)).unwrap();
        let old = pt.unmap(Vpn(4)).unwrap();
        pt.map(Vpn(4), Ppn(2)).unwrap();
        assert_eq!(old, Ppn(1));
        assert_eq!(pt.translate(Vpn(4)), Some(Ppn(2)));
    }
}
