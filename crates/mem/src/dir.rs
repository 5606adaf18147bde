//! The compact coherence directory kept by every home node, on both
//! machines: Stache's software directory on Typhoon and DirNNB's hardware
//! directory.
//!
//! The paper gives Stache 64 bits of directory per home block: two bytes
//! of state and six one-byte sharer pointers, with a bit vector once more
//! than six nodes share the block (Section 3, LimitLESS-style). This is
//! that layout, widened to 16-bit node ids for machines of up to 65,536
//! nodes:
//!
//! - **Pages.** Entries live in boxed arrays of one fourteen-byte entry
//!   per block of a 4 KiB virtual page, keyed by VPN and allocated when a
//!   block of the page is first recorded. A page nobody has touched costs
//!   nothing and reads as uncached.
//! - **Inline sharers.** An entry holds up to six sharers as `u16` node
//!   ids, in insertion order. The seventh sharer moves the set to a
//!   bit-vector in a side map, one bit per node of the machine.
//! - **Side busy state.** The busy transaction (`B`) and the deferred
//!   requests (`R`) are transient, bounded by outstanding misses, so they
//!   live in side maps keyed by block address instead of fattening every
//!   entry. Each machine supplies its own transaction and request types.
//!
//! A sharer set only grows: [`Directory::add_sharer`] inserts one node,
//! and [`Directory::set_exclusive`], [`Directory::set_uncached`] and
//! [`Directory::set_shared_pair`] replace the whole set, releasing any
//! bit-vector. No single sharer is ever removed: a shared victim is
//! dropped silently, so the home's set is a superset of the real copies
//! until the next write.
//!
//! [`Directory::sharers`] enumerates in insertion order while the set is
//! inline and in ascending node order once it has overflowed. That order
//! is the order invalidations fan out in, so it sets cycle counts: Stache
//! uses it as is, and DirNNB sorts what it reads, so its fan-out is
//! ascending in every representation.

use std::collections::VecDeque;

use tt_base::addr::{BLOCKS_PER_PAGE, BLOCK_BYTES};
use tt_base::{FxHashMap, NodeId};

/// The sharing state of one block. The sharer set itself is read through
/// [`Directory::sharers`] / [`Directory::has_other_sharers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirView {
    /// No cached copies: only the home's memory holds the block.
    Uncached,
    /// One or more read-only copies.
    Shared,
    /// A single exclusive (writable) copy at the named node.
    Exclusive(NodeId),
}

/// Sharers an entry holds inline before overflowing to the bit-vector.
const INLINE_SHARERS: usize = 6;

const KIND_UNCACHED: u8 = 0;
const KIND_EXCLUSIVE: u8 = 1;
const KIND_INLINE: u8 = 2;
const KIND_WIDE: u8 = 3;

/// One block's directory state: a kind tag, the inline sharer count, and
/// six inline slots (the exclusive owner reuses slot 0). Fourteen bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Entry {
    kind: u8,
    n: u8,
    s: [u16; INLINE_SHARERS],
}

impl Entry {
    fn one(kind: u8, node: NodeId) -> Self {
        let mut s = [0; INLINE_SHARERS];
        s[0] = node.raw();
        Entry { kind, n: 1, s }
    }
}

/// The block directory of one machine's homes, generic in the busy
/// transaction `B` and the deferred request `R` its protocol records.
/// Addresses passed in are block-aligned.
#[derive(Debug)]
pub struct Directory<B, R> {
    /// Arena pages, keyed by VPN (`block address >> 12`).
    pages: FxHashMap<u64, Box<[Entry; BLOCKS_PER_PAGE]>>,
    /// Overflowed sharer sets: bit-vectors, one bit per node.
    wide: FxHashMap<u64, Box<[u64]>>,
    /// Busy transactions for blocks with a request in flight.
    busy: FxHashMap<u64, B>,
    /// Requests deferred behind a busy entry, FIFO per block.
    deferred: FxHashMap<u64, VecDeque<R>>,
    /// Machine size, for bit-vector width.
    nodes: usize,
}

fn split(addr: u64) -> (u64, usize) {
    let block = addr / BLOCK_BYTES as u64;
    (
        block / BLOCKS_PER_PAGE as u64,
        (block % BLOCKS_PER_PAGE as u64) as usize,
    )
}

fn set_bit(bits: &mut [u64], node: u16) {
    bits[node as usize / 64] |= 1 << (node % 64);
}

impl<B: Copy, R> Directory<B, R> {
    /// An empty directory for a `nodes`-node machine.
    pub fn new(nodes: usize) -> Self {
        Directory {
            pages: FxHashMap::default(),
            wide: FxHashMap::default(),
            busy: FxHashMap::default(),
            deferred: FxHashMap::default(),
            nodes,
        }
    }

    fn entry(&self, addr: u64) -> Entry {
        let (page, slot) = split(addr);
        self.pages.get(&page).map_or(Entry::default(), |p| p[slot])
    }

    fn entry_mut(&mut self, addr: u64) -> &mut Entry {
        let (page, slot) = split(addr);
        &mut self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([Entry::default(); BLOCKS_PER_PAGE]))[slot]
    }

    /// The block's sharing state.
    pub fn view(&self, addr: u64) -> DirView {
        let e = self.entry(addr);
        match e.kind {
            KIND_UNCACHED => DirView::Uncached,
            KIND_EXCLUSIVE => DirView::Exclusive(NodeId::new(e.s[0])),
            _ => DirView::Shared,
        }
    }

    /// Makes `node` the sole exclusive owner.
    pub fn set_exclusive(&mut self, addr: u64, node: NodeId) {
        self.wide.remove(&addr);
        *self.entry_mut(addr) = Entry::one(KIND_EXCLUSIVE, node);
    }

    /// Drops all cached copies from the record.
    pub fn set_uncached(&mut self, addr: u64) {
        self.wide.remove(&addr);
        let (page, slot) = split(addr);
        if let Some(p) = self.pages.get_mut(&page) {
            p[slot] = Entry::default();
        }
    }

    /// Sets the sharer set to exactly `[a, b]`, in that order (the
    /// recall-for-read downgrade: old owner, then new reader; the two
    /// may coincide).
    pub fn set_shared_pair(&mut self, addr: u64, a: NodeId, b: NodeId) {
        self.wide.remove(&addr);
        let e = self.entry_mut(addr);
        *e = Entry::one(KIND_INLINE, a);
        if b != a {
            e.s[1] = b.raw();
            e.n = 2;
        }
    }

    /// Adds a read-only sharer. Returns `true` if this insertion
    /// overflowed the six inline pointers into the bit-vector.
    ///
    /// # Panics
    ///
    /// Panics if the entry is exclusive — the protocol must recall first.
    pub fn add_sharer(&mut self, addr: u64, node: NodeId) -> bool {
        let nodes = self.nodes;
        let id = node.raw();
        let e = self.entry_mut(addr);
        match e.kind {
            KIND_UNCACHED => {
                *e = Entry::one(KIND_INLINE, node);
                false
            }
            KIND_INLINE => {
                let n = e.n as usize;
                if e.s[..n].contains(&id) {
                    return false;
                }
                if n < INLINE_SHARERS {
                    e.s[n] = id;
                    e.n += 1;
                    return false;
                }
                let mut bits = vec![0u64; nodes.div_ceil(64)].into_boxed_slice();
                for &s in e.s.iter().chain([&id]) {
                    set_bit(&mut bits, s);
                }
                *e = Entry {
                    kind: KIND_WIDE,
                    ..Entry::default()
                };
                self.wide.insert(addr, bits);
                true
            }
            KIND_WIDE => {
                let bits = self
                    .wide
                    .get_mut(&addr)
                    .expect("wide entry has a bit-vector");
                set_bit(bits, id);
                false
            }
            _ => panic!("add_sharer on an exclusive entry"),
        }
    }

    /// The block's sharers: insertion order while inline, ascending node
    /// order after overflow. Empty unless the block is shared.
    pub fn sharers(&self, addr: u64) -> Vec<NodeId> {
        let e = self.entry(addr);
        match e.kind {
            KIND_INLINE => e.s[..e.n as usize]
                .iter()
                .map(|&s| NodeId::new(s))
                .collect(),
            KIND_WIDE => {
                let bits = self.wide.get(&addr).expect("wide entry has a bit-vector");
                iter_bits(bits).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Whether any node other than `except` shares the block — the
    /// allocation-free form of checking [`Directory::sharers`], for the
    /// local-miss fast path.
    pub fn has_other_sharers(&self, addr: u64, except: NodeId) -> bool {
        let e = self.entry(addr);
        match e.kind {
            KIND_INLINE => e.s[..e.n as usize].iter().any(|&s| s != except.raw()),
            KIND_WIDE => {
                let bits = self.wide.get(&addr).expect("wide entry has a bit-vector");
                iter_bits(bits).any(|m| m != except)
            }
            _ => false,
        }
    }

    /// Whether a request is in flight for the block.
    pub fn is_busy(&self, addr: u64) -> bool {
        self.busy.contains_key(&addr)
    }

    /// The block's busy transaction, if any.
    pub fn busy(&self, addr: u64) -> Option<B> {
        self.busy.get(&addr).copied()
    }

    /// Marks the block busy with `busy` in flight.
    pub fn set_busy(&mut self, addr: u64, busy: B) {
        self.busy.insert(addr, busy);
    }

    /// Clears the block's busy transaction.
    pub fn clear_busy(&mut self, addr: u64) {
        self.busy.remove(&addr);
    }

    /// Queues a request behind a busy entry.
    pub fn push_deferred(&mut self, addr: u64, req: R) {
        self.deferred.entry(addr).or_default().push_back(req);
    }

    /// Pops the oldest deferred request for the block.
    pub fn pop_deferred(&mut self, addr: u64) -> Option<R> {
        let q = self.deferred.get_mut(&addr)?;
        let head = q.pop_front();
        if q.is_empty() {
            self.deferred.remove(&addr);
        }
        head
    }

    /// Blocks still busy or with queued requesters — the deadlock
    /// diagnostic, sorted by address for a stable panic message.
    pub fn stuck(&self) -> Vec<(u64, DirView, Option<B>, usize)> {
        let mut addrs: Vec<u64> = self
            .busy
            .keys()
            .chain(self.deferred.keys())
            .copied()
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
            .into_iter()
            .map(|a| {
                let queued = self.deferred.get(&a).map_or(0, VecDeque::len);
                (a, self.view(a), self.busy(a), queued)
            })
            .collect()
    }
}

/// Ascending iteration over a sharer bit-vector.
fn iter_bits(bits: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let bit = word.trailing_zeros();
            word &= word - 1;
            Some(NodeId::new((w * 64) as u16 + bit as u16))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    type Dir = Directory<u8, (NodeId, u8)>;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn ns(ids: &[u16]) -> Vec<NodeId> {
        ids.iter().map(|&i| n(i)).collect()
    }

    /// The entry's representation tag, read from the private arena.
    fn kind(d: &Dir, a: u64) -> u8 {
        d.entry(a).kind
    }

    #[test]
    fn entry_fits_in_sixteen_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 16);
    }

    #[test]
    fn inline_sharers_stay_inline_in_insertion_order() {
        let mut d = Dir::new(16);
        let a = 0x40u64;
        for i in [9u16, 2, 5, 5, 14, 0, 7] {
            assert!(!d.add_sharer(a, n(i)), "six distinct sharers fit inline");
        }
        assert_eq!(d.view(a), DirView::Shared);
        assert_eq!(kind(&d, a), KIND_INLINE);
        assert!(d.wide.is_empty());
        assert_eq!(d.sharers(a), ns(&[9, 2, 5, 14, 0, 7]), "insertion order");
    }

    #[test]
    fn seventh_sharer_overflows_to_bits_in_ascending_order() {
        let mut d = Dir::new(128);
        let a = 0x80u64;
        for i in [70u16, 3, 120, 64, 9, 100] {
            assert!(!d.add_sharer(a, n(i)));
        }
        assert!(d.add_sharer(a, n(1)), "the seventh sharer reports overflow");
        assert!(!d.add_sharer(a, n(2)), "later sharers do not");
        assert_eq!(kind(&d, a), KIND_WIDE);
        assert!(d.wide.contains_key(&a));
        assert_eq!(d.sharers(a), ns(&[1, 2, 3, 9, 64, 70, 100, 120]));
        assert!(d.has_other_sharers(a, n(3)));
    }

    /// An overflowed block with sharers `0..7` and its bit-vector.
    fn overflowed(a: u64) -> Dir {
        let mut d = Dir::new(256);
        for i in 0..7u16 {
            d.add_sharer(a, n(i));
        }
        assert!(d.wide.contains_key(&a));
        d
    }

    #[test]
    fn set_exclusive_releases_the_bit_vector() {
        let a = 0x100u64;
        let mut d = overflowed(a);
        d.set_exclusive(a, n(3));
        assert!(d.wide.is_empty());
        assert_eq!(d.view(a), DirView::Exclusive(n(3)));
        assert!(d.sharers(a).is_empty());
    }

    #[test]
    fn set_uncached_releases_the_bit_vector() {
        let a = 0x100u64;
        let mut d = overflowed(a);
        d.set_uncached(a);
        assert!(d.wide.is_empty());
        assert_eq!(d.view(a), DirView::Uncached);
        assert!(!d.has_other_sharers(a, n(99)));
    }

    #[test]
    fn set_shared_pair_releases_the_bit_vector() {
        let a = 0x100u64;
        let mut d = overflowed(a);
        d.set_shared_pair(a, n(200), n(1));
        assert!(d.wide.is_empty());
        assert_eq!(kind(&d, a), KIND_INLINE);
        assert_eq!(d.sharers(a), ns(&[200, 1]), "owner first, then reader");
    }

    #[test]
    fn has_other_sharers_at_the_inline_boundary() {
        let mut d = Dir::new(32);
        let a = 0x60u64;
        for i in [4u16, 8, 12, 16, 20, 24] {
            d.add_sharer(a, n(i));
        }
        // Exactly full inline set.
        assert_eq!(kind(&d, a), KIND_INLINE);
        assert!(d.has_other_sharers(a, n(8)));
        assert!(
            !d.has_other_sharers(0x1000, n(0)),
            "absent block has no sharers"
        );
        let mut lone = Dir::new(32);
        lone.add_sharer(a, n(8));
        assert!(
            !lone.has_other_sharers(a, n(8)),
            "the only sharer is excepted"
        );
    }

    #[test]
    fn thousand_node_all_sharers() {
        let nodes = 1024usize;
        let mut d = Dir::new(nodes);
        let a = 0x2000u64;
        for i in (0..nodes as u16).rev() {
            d.add_sharer(a, n(i));
        }
        assert_eq!(kind(&d, a), KIND_WIDE);
        let all = d.sharers(a);
        assert_eq!(all.len(), nodes);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(d.has_other_sharers(a, n(513)));
    }

    #[test]
    fn exclusive_and_pair_transitions() {
        let mut d = Dir::new(64);
        let a = 0xA0u64;
        d.set_exclusive(a, n(7));
        assert_eq!(d.view(a), DirView::Exclusive(n(7)));
        d.set_shared_pair(a, n(9), n(4));
        assert_eq!(d.sharers(a), ns(&[9, 4]));
        d.set_shared_pair(a, n(5), n(5));
        assert_eq!(d.sharers(a), ns(&[5]), "coinciding pair dedupes");
        assert_eq!(d.entry(a).n, 1);
        d.set_uncached(a);
        assert_eq!(d.view(a), DirView::Uncached);
    }

    #[test]
    #[should_panic(expected = "exclusive")]
    fn add_sharer_on_exclusive_panics() {
        let mut d = Dir::new(8);
        d.set_exclusive(0, n(1));
        d.add_sharer(0, n(2));
    }

    #[test]
    fn busy_and_deferred_lifecycle() {
        let mut d = Dir::new(8);
        let a = 0xC0u64;
        assert!(!d.is_busy(a));
        d.set_busy(a, 1);
        assert!(d.is_busy(a));
        assert_eq!(d.busy(a), Some(1));
        d.push_deferred(a, (n(3), 10));
        d.push_deferred(a, (n(4), 11));
        assert_eq!(d.stuck(), vec![(a, DirView::Uncached, Some(1), 2)]);
        d.clear_busy(a);
        assert_eq!(d.pop_deferred(a), Some((n(3), 10)));
        assert_eq!(d.pop_deferred(a), Some((n(4), 11)));
        assert_eq!(d.pop_deferred(a), None);
        assert!(d.stuck().is_empty());
    }
}
