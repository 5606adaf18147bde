//! A node's physical memory: paged frames carrying real data bytes,
//! per-block access tags, and per-page protocol metadata.
//!
//! Unlike a pure timing simulator, this reproduction moves *real bytes*
//! through the protocols: coherence messages carry 32-byte block payloads
//! and the workloads verify that every load observes the value a
//! sequentially consistent execution would produce. `NodeMemory` is the
//! backing store for one node.
//!
//! Frames are sparse: a frame stores only the blocks that have been
//! written with data, and an absent block reads as zero, exactly as a
//! freshly zeroed page would. Stache allocates whole pages but fetches
//! single blocks, so most blocks of a stached page are never stored.
//!
//! Each frame also holds the metadata a Typhoon RTLB entry exposes to
//! block-access-fault handlers (Section 5.4): the mapped virtual page, a
//! 4-bit *page mode* used to select fault handlers, and uninterpreted
//! user state (the paper provides 48 bits, "typically a 16-bit home node
//! ID and a 32-bit pointer to an arbitrary user data structure"; we
//! generalize to two 64-bit words so protocol state needn't be packed).

use tt_base::addr::{PAddr, Ppn, Vpn, BLOCKS_PER_PAGE, BLOCK_BYTES, WORD_BYTES};

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
/// Data is stored per block, and only for blocks that have been written
/// with data: `slots[b]` is 1 + the index of block `b` in `blocks`, or 0
/// while the block is absent (it then reads as zero). Blocks are
/// appended in first-write order, so storing one never moves another.
/// Writing zeros to an absent block stores nothing; writing to a stored
/// block always overwrites it.
///
/// Block tags are stored packed (2 bits per block, see
/// [`crate::tags::PackedTags`]) so `set_all_tags` is O(1).
#[derive(Clone, Debug)]
pub struct PageFrame {
    slots: [u8; BLOCKS_PER_PAGE],
    blocks: Vec<[u8; BLOCK_BYTES]>,
    tags: PackedTags,
    /// Protocol-visible metadata.
    pub meta: PageMeta,
}

// `slots` holds 1 + an index below `BLOCKS_PER_PAGE` in a `u8`.
const _: () = assert!(BLOCKS_PER_PAGE < u8::MAX as usize);

impl Default for PageFrame {
    fn default() -> Self {
        PageFrame {
            slots: [0; BLOCKS_PER_PAGE],
            blocks: Vec::new(),
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

    /// Block `idx`'s bytes, or `None` while it is absent (all zero).
    fn block(&self, idx: usize) -> Option<&[u8; BLOCK_BYTES]> {
        match self.slots[idx] {
            0 => None,
            s => Some(&self.blocks[s as usize - 1]),
        }
    }

    /// Block `idx`'s bytes for writing, stored (zeroed) first if absent.
    fn block_mut(&mut self, idx: usize) -> &mut [u8; BLOCK_BYTES] {
        if self.slots[idx] == 0 {
            self.blocks.push([0; BLOCK_BYTES]);
            self.slots[idx] = self.blocks.len() as u8;
        }
        &mut self.blocks[self.slots[idx] as usize - 1]
    }
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
}

impl NodeMemory {
    /// An empty memory; frames are allocated on demand.
    pub fn new() -> Self {
        NodeMemory::default()
    }

    /// Allocates a zeroed frame (tags all `Invalid`) and returns its
    /// physical page number. The frame stores no block until one is
    /// written with data.
    pub fn alloc(&mut self) -> Ppn {
        match self.free.pop() {
            Some(ppn) => {
                self.frames[ppn.0 as usize] = Some(PageFrame::default());
                ppn
            }
            None => {
                self.frames.push(Some(PageFrame::default()));
                Ppn(self.frames.len() as u64 - 1)
            }
        }
    }

    /// Frees a frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated.
    pub fn free(&mut self, ppn: Ppn) {
        let slot = self.frames.get_mut(ppn.0 as usize).expect("free of out-of-range frame");
        assert!(slot.is_some(), "double free of {ppn:?}");
        *slot = None;
        self.free.push(ppn);
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
        let off = addr.page_offset() as usize;
        debug_assert_eq!(off % WORD_BYTES, 0, "unaligned word read at {addr}");
        let block = self.frame(addr.page()).block(addr.block_in_page());
        let w = off % BLOCK_BYTES;
        block.map_or(0, |b| u64::from_le_bytes(b[w..w + WORD_BYTES].try_into().unwrap()))
    }

    /// Writes the 64-bit word at a word-aligned physical address.
    pub fn write_word(&mut self, addr: PAddr, value: u64) {
        let off = addr.page_offset() as usize;
        debug_assert_eq!(off % WORD_BYTES, 0, "unaligned word write at {addr}");
        let frame = self.frame_mut(addr.page());
        let idx = addr.block_in_page();
        if value == 0 && frame.block(idx).is_none() {
            return;
        }
        let w = off % BLOCK_BYTES;
        frame.block_mut(idx)[w..w + WORD_BYTES].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies out the 32-byte block containing `addr`.
    pub fn read_block(&self, addr: PAddr) -> [u8; BLOCK_BYTES] {
        let block = self.frame(addr.page()).block(addr.block_in_page());
        block.copied().unwrap_or([0; BLOCK_BYTES])
    }

    /// Overwrites the 32-byte block containing `addr`.
    pub fn write_block(&mut self, addr: PAddr, block: &[u8; BLOCK_BYTES]) {
        let frame = self.frame_mut(addr.page());
        let idx = addr.block_in_page();
        if frame.block(idx).is_none() && block.iter().all(|&b| b == 0) {
            return;
        }
        *frame.block_mut(idx) = *block;
    }

    /// The tag of the block containing `addr`.
    pub fn tag(&self, addr: PAddr) -> Tag {
        self.frame(addr.page()).tag(addr.block_in_page())
    }

    /// Sets the tag of the block containing `addr`.
    pub fn set_tag(&mut self, addr: PAddr, tag: Tag) {
        self.frame_mut(addr.page()).set_tag(addr.block_in_page(), tag);
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
        assert_eq!(m.frames.len(), 2, "reuse grows no new frame");
        assert!(m.free.is_empty());
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
        assert!((0..tt_base::addr::BLOCKS_PER_PAGE).all(|i| f.tags.get(i) == Tag::ReadWrite));
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
    fn zero_writes_to_a_fresh_frame_store_nothing() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        m.write_word(p.base().offset(8), 0);
        m.write_block(p.base().offset(64), &[0; BLOCK_BYTES]);
        assert!(m.frame(p).blocks.is_empty());
        assert_eq!(m.read_word(p.base().offset(8)), 0);
        assert_eq!(m.read_block(p.base().offset(64)), [0; BLOCK_BYTES]);
    }

    #[test]
    fn frames_store_only_blocks_given_data() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        let mut given = std::collections::BTreeSet::new();
        // Words and blocks, zero and nonzero, several per block, in a
        // scrambled block order; then overwrite every one back to zero.
        for i in 0..600u64 {
            let block = (i * 37 % BLOCKS_PER_PAGE as u64) as usize;
            let addr = p.base().offset(block as u64 * BLOCK_BYTES as u64 + (i % 4) * 8);
            let value = if i % 3 == 0 { 0 } else { i % 251 };
            if i % 5 == 0 {
                m.write_block(addr, &[value as u8; BLOCK_BYTES]);
            } else {
                m.write_word(addr, value);
            }
            if value != 0 {
                given.insert(block);
            }
            assert!(m.frame(p).blocks.len() <= given.len());
        }
        let stored = m.frame(p).blocks.len();
        for &block in &given {
            m.write_block(p.base().offset(block as u64 * BLOCK_BYTES as u64), &[0; BLOCK_BYTES]);
        }
        assert_eq!(m.frame(p).blocks.len(), stored, "zeroing a stored block keeps it");
        let zero =
            |b: usize| m.read_block(p.base().offset((b * BLOCK_BYTES) as u64)) == [0; BLOCK_BYTES];
        assert!((0..BLOCKS_PER_PAGE).all(zero));
    }

    #[test]
    fn meta_is_mutable() {
        let mut m = NodeMemory::new();
        let p = m.alloc();
        m.frame_mut(p).meta = PageMeta { vpn: Some(Vpn(5)), mode: 3, user: [11, 22] };
        assert_eq!(m.frame(p).meta.vpn, Some(Vpn(5)));
        assert_eq!(m.frame(p).meta.user[1], 22);
    }
}
