//! A node's physical memory: paged frames carrying real data bytes,
//! per-block access tags, and per-page protocol metadata.
//!
//! Unlike a pure timing simulator, this reproduction moves *real bytes*
//! through the protocols: coherence messages carry 32-byte block payloads
//! and the workloads verify that every load observes the value a
//! sequentially consistent execution would produce. `NodeMemory` is the
//! backing store for one node.
//!
//! Each frame also holds the metadata a Typhoon RTLB entry exposes to
//! block-access-fault handlers (Section 5.4): the mapped virtual page, a
//! 4-bit *page mode* used to select fault handlers, and uninterpreted
//! user state (the paper provides 48 bits, "typically a 16-bit home node
//! ID and a 32-bit pointer to an arbitrary user data structure"; we
//! generalize to two 64-bit words so protocol state needn't be packed).

use tt_base::addr::{PAddr, Ppn, Vpn, BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};

use crate::tags::{PackedTags, Tag};

/// Per-page metadata visible to protocol handlers via the RTLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageMeta {
    /// The virtual page this frame is mapped at, if any.
    pub vpn: Option<Vpn>,
    /// The 4-bit page mode used (with the access type and tag) to select
    /// the block-access-fault handler.
    pub mode: u8,
    /// Uninterpreted protocol state (paper: home node id + user pointer).
    pub user: [u64; 2],
}

/// One 4 KB physical page frame: data, tags, and metadata.
///
/// Block tags are stored packed (2 bits per block plus a uniform-tag
/// summary, see [`crate::tags::PackedTags`]) so `set_all_tags` is O(1)
/// and "is this whole page tagged T?" is one comparison.
#[derive(Clone, Debug)]
pub struct PageFrame {
    data: Box<[u8; PAGE_BYTES]>,
    tags: PackedTags,
    /// Protocol-visible metadata.
    pub meta: PageMeta,
}

impl Default for PageFrame {
    fn default() -> Self {
        PageFrame {
            data: Box::new([0; PAGE_BYTES]),
            tags: PackedTags::default(),
            meta: PageMeta::default(),
        }
    }
}

impl PageFrame {
    /// The tag of block `idx` (0..[`tt_base::addr::BLOCKS_PER_PAGE`]).
    pub fn tag(&self, idx: usize) -> Tag {
        self.tags.get(idx)
    }

    /// Sets the tag of block `idx`.
    pub fn set_tag(&mut self, idx: usize, tag: Tag) {
        self.tags.set(idx, tag);
    }

    /// Sets every block tag on the page (O(1) on the packed store).
    pub fn set_all_tags(&mut self, tag: Tag) {
        self.tags.set_all(tag);
    }
}

/// Statistics for a node's memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Frames currently allocated.
    pub allocated: usize,
    /// High-water mark of allocated frames.
    pub peak_allocated: usize,
}

/// A node's physical memory.
///
/// # Example
///
/// ```
/// use tt_mem::{NodeMemory, Tag};
///
/// let mut mem = NodeMemory::new();
/// let frame = mem.alloc();
/// let addr = frame.base().offset(16);
/// mem.write_word(addr, 0xFEED);
/// assert_eq!(mem.read_word(addr), 0xFEED);
/// assert_eq!(mem.tag(addr), Tag::Invalid, "fresh frames fault on access");
/// ```
#[derive(Clone, Debug, Default)]
pub struct NodeMemory {
    frames: Vec<Option<PageFrame>>,
    free: Vec<Ppn>,
    stats: MemoryStats,
}

impl NodeMemory {
    /// An empty memory; frames are allocated on demand.
    pub fn new() -> Self {
        NodeMemory::default()
    }

    /// Allocates a zeroed frame (tags all `Invalid`) and returns its
    /// physical page number.
    pub fn alloc(&mut self) -> Ppn {
        let ppn = match self.free.pop() {
            Some(ppn) => {
                self.frames[ppn.0 as usize] = Some(PageFrame::default());
                ppn
            }
            None => {
                self.frames.push(Some(PageFrame::default()));
                Ppn(self.frames.len() as u64 - 1)
            }
        };
        self.stats.allocated += 1;
        self.stats.peak_allocated = self.stats.peak_allocated.max(self.stats.allocated);
        ppn
    }

    /// Frees a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated.
    pub fn free(&mut self, ppn: Ppn) {
        let slot = self
            .frames
            .get_mut(ppn.0 as usize)
            .expect("free of out-of-range frame");
        assert!(slot.is_some(), "double free of {ppn:?}");
        *slot = None;
        self.free.push(ppn);
        self.stats.allocated -= 1;
    }

    /// The frame at `ppn`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated.
    pub fn frame(&self, ppn: Ppn) -> &PageFrame {
        self.frames
            .get(ppn.0 as usize)
            .and_then(Option::as_ref)
            .expect("access to unallocated frame")
    }

    /// Mutable access to the frame at `ppn`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated.
    pub fn frame_mut(&mut self, ppn: Ppn) -> &mut PageFrame {
        self.frames
            .get_mut(ppn.0 as usize)
            .and_then(Option::as_mut)
            .expect("access to unallocated frame")
    }

    /// Reads the 64-bit word at a word-aligned physical address.
    pub fn read_word(&self, addr: PAddr) -> u64 {
        let frame = self.frame(addr.page());
        let off = addr.page_offset() as usize;
        debug_assert_eq!(off % WORD_BYTES, 0, "unaligned word read at {addr}");
        u64::from_le_bytes(frame.data[off..off + WORD_BYTES].try_into().unwrap())
    }

    /// Writes the 64-bit word at a word-aligned physical address.
    pub fn write_word(&mut self, addr: PAddr, value: u64) {
        let frame = self.frame_mut(addr.page());
        let off = addr.page_offset() as usize;
        debug_assert_eq!(off % WORD_BYTES, 0, "unaligned word write at {addr}");
        frame.data[off..off + WORD_BYTES].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies out the 32-byte block containing `addr`.
    pub fn read_block(&self, addr: PAddr) -> [u8; BLOCK_BYTES] {
        let frame = self.frame(addr.page());
        let off = addr.block_base().page_offset() as usize;
        frame.data[off..off + BLOCK_BYTES].try_into().unwrap()
    }

    /// Overwrites the 32-byte block containing `addr`.
    pub fn write_block(&mut self, addr: PAddr, block: &[u8; BLOCK_BYTES]) {
        let frame = self.frame_mut(addr.page());
        let off = addr.block_base().page_offset() as usize;
        frame.data[off..off + BLOCK_BYTES].copy_from_slice(block);
    }

    /// The tag of the block containing `addr`.
    pub fn tag(&self, addr: PAddr) -> Tag {
        self.frame(addr.page()).tag(addr.block_in_page())
    }

    /// Sets the tag of the block containing `addr`.
    pub fn set_tag(&mut self, addr: PAddr, tag: Tag) {
        self.frame_mut(addr.page()).set_tag(addr.block_in_page(), tag);
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_reuses_frames() {
        let mut m = NodeMemory::new();
        let a = m.alloc();
        let b = m.alloc();
        assert_ne!(a, b);
        m.free(a);
        let c = m.alloc();
        assert_eq!(a, c, "freed frame is reused");
        assert_eq!(m.stats().allocated, 2);
        assert_eq!(m.stats().peak_allocated, 2);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = NodeMemory::new();
        let a = m.alloc();
        m.free(a);
        m.free(a);
    }

    #[test]
    fn words_round_trip() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        let addr = p.base().offset(16);
        m.write_word(addr, 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(m.read_word(addr), 0xDEAD_BEEF_0BAD_F00D);
        // Neighboring word untouched.
        assert_eq!(m.read_word(p.base().offset(8)), 0);
    }

    #[test]
    fn blocks_round_trip_and_carry_words() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        let addr = p.base().offset(64); // block 2
        m.write_word(addr.offset(8), 42);
        let block = m.read_block(addr);
        let mut m2 = NodeMemory::new();
        let q = m2.alloc();
        m2.write_block(q.base().offset(64), &block);
        assert_eq!(m2.read_word(q.base().offset(72)), 42);
    }

    #[test]
    fn tags_default_invalid_and_update() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        let addr = p.base().offset(96);
        assert_eq!(m.tag(addr), Tag::Invalid);
        m.set_tag(addr, Tag::ReadOnly);
        assert_eq!(m.tag(addr), Tag::ReadOnly);
        // Other blocks unaffected.
        assert_eq!(m.tag(p.base()), Tag::Invalid);
    }

    #[test]
    fn set_all_tags() {
        let mut f = PageFrame::default();
        f.set_all_tags(Tag::ReadWrite);
        assert!(f.tags.iter().all(|(_, t)| t == Tag::ReadWrite));
    }

    #[test]
    fn freed_frame_contents_are_reset() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        m.write_word(p.base(), 7);
        m.set_tag(p.base(), Tag::ReadWrite);
        m.free(p);
        let q = m.alloc();
        assert_eq!(q, p);
        assert_eq!(m.read_word(q.base()), 0);
        assert_eq!(m.tag(q.base()), Tag::Invalid);
    }

    #[test]
    fn meta_is_mutable() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        m.frame_mut(p).meta = PageMeta {
            vpn: Some(Vpn(5)),
            mode: 3,
            user: [11, 22],
        };
        assert_eq!(m.frame(p).meta.vpn, Some(Vpn(5)));
        assert_eq!(m.frame(p).meta.user[1], 22);
    }
}
