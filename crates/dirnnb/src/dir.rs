//! Compact directory state for the hardware DirNNB protocol.
//!
//! The directory used to be a `FxHashMap<u64, DirEntry>` with a 64-bit
//! sharer bitmap, a busy tag, and a deferral queue in every entry — about
//! a hundred heap bytes per touched block, and a hard 64-node ceiling.
//! Big-machine mode (DESIGN.md §11) replaces it with an arena-backed form
//! sized for 1024-node sweeps over millions of blocks:
//!
//! - **Pages.** Entries live in boxed arrays of [`ENTRIES_PER_PAGE`]
//!   eight-byte `Entry` slots, keyed by directory page. A directory
//!   page covers exactly one 4 KiB virtual page (128 blocks of 32 bytes),
//!   so pages are naturally disjoint across home nodes.
//! - **Inline sharers.** An entry inlines up to [`INLINE_SHARERS`]
//!   sharers as sorted `u16` node ids. Wider sets overflow to a
//!   LimitLESS-style bit-vector in a side map — rare in practice, so the
//!   common-case footprint stays at 8 bytes per block.
//! - **Side busy state.** Busy tags and deferred-request queues are
//!   transient (bounded by outstanding misses), so they live in side maps
//!   keyed by block address instead of fattening every entry.
//!
//! A sharer set only grows: [`Directory::add_sharer`] inserts one node
//! (overflowing to the bit-vector past [`INLINE_SHARERS`]), and
//! [`Directory::set_exclusive`], [`Directory::set_uncached`] and
//! [`Directory::set_shared_pair`] replace the whole set, releasing any
//! bit-vector. No single sharer is ever removed: a shared victim is
//! dropped silently (Table 2's `REPLACE_SHARED`, no message), so the
//! home's set is a superset of the real copies until the next write.
//!
//! Sharer enumeration is in ascending node order in every representation,
//! matching the old bitmap's bit-scan order exactly — invalidations fan
//! out in the same order, so reported cycles are unchanged.

use std::collections::VecDeque;

use tt_base::addr::{BLOCK_BYTES, PAGE_BYTES};
use tt_base::{FxHashMap, NodeId};

/// What a requester asked the directory for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirReq {
    /// Read (shared) copy.
    Read,
    /// Write (exclusive) copy, data needed.
    Write,
    /// Write permission for a block the requester already holds shared.
    Upgrade,
}

impl DirReq {
    /// Whether the grant must carry the data block.
    pub fn needs_data(self) -> bool {
        !matches!(self, DirReq::Upgrade)
    }
}

/// Why a directory entry is busy (a request is in flight on its behalf).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirBusy {
    /// Invalidations are out; the entry unblocks when all are acked.
    Invalidating {
        /// Acks still outstanding.
        acks_left: usize,
        /// The requester to grant once acks drain.
        to: NodeId,
        /// The request being satisfied.
        req: DirReq,
    },
    /// A recall (flush/downgrade) is out to the exclusive owner.
    Recalling {
        /// The current exclusive owner.
        owner: NodeId,
        /// The requester to grant once the data returns.
        to: NodeId,
        /// The request being satisfied.
        req: DirReq,
    },
}

/// The sharing state of one block, as the protocol engine sees it. The
/// sharer set itself is queried through [`Directory::sharers_except`] /
/// [`Directory::has_other_sharers`] rather than carried in the view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirView {
    /// No cached copies.
    Uncached,
    /// One or more read-only copies.
    Shared,
    /// A single exclusive (writable) copy at the named node.
    Exclusive(NodeId),
}

/// Directory entries per arena page: one entry per block of a 4 KiB
/// virtual page, so the page key *is* the VPN.
pub const ENTRIES_PER_PAGE: usize = PAGE_BYTES / BLOCK_BYTES;

/// Sharers an entry holds inline before overflowing to the bit-vector.
pub const INLINE_SHARERS: usize = 3;

const KIND_UNCACHED: u8 = 0;
const KIND_EXCLUSIVE: u8 = 1;
const KIND_INLINE: u8 = 2;
const KIND_WIDE: u8 = 3;

/// One block's directory state: a kind tag, the inline sharer count, and
/// three inline slots (the exclusive owner reuses slot 0). Eight bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Entry {
    kind: u8,
    n: u8,
    s: [u16; INLINE_SHARERS],
}

/// The compact block directory of the DirNNB homes. Addresses passed in
/// are block-aligned.
#[derive(Debug, Default)]
pub struct Directory {
    /// Arena pages, keyed by VPN (`block address >> 12`).
    pages: FxHashMap<u64, Box<[Entry; ENTRIES_PER_PAGE]>>,
    /// Overflowed sharer sets: ascending bit-vectors, one bit per node.
    wide: FxHashMap<u64, Box<[u64]>>,
    /// Busy tags for blocks with a request in flight.
    busy: FxHashMap<u64, DirBusy>,
    /// Requests deferred behind a busy entry, FIFO per block.
    deferred: FxHashMap<u64, VecDeque<(NodeId, DirReq)>>,
    /// Machine size, for bit-vector width.
    nodes: usize,
}

fn split(addr: u64) -> (u64, usize) {
    let block = addr / BLOCK_BYTES as u64;
    (
        block / ENTRIES_PER_PAGE as u64,
        (block % ENTRIES_PER_PAGE as u64) as usize,
    )
}

impl Directory {
    /// An empty directory for a `nodes`-node machine.
    pub fn new(nodes: usize) -> Self {
        Directory {
            nodes,
            ..Directory::default()
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
            .or_insert_with(|| Box::new([Entry::default(); ENTRIES_PER_PAGE]))[slot]
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
        let e = self.entry_mut(addr);
        *e = Entry {
            kind: KIND_EXCLUSIVE,
            n: 0,
            s: [node.raw(), 0, 0],
        };
    }

    /// Drops all cached copies from the record.
    pub fn set_uncached(&mut self, addr: u64) {
        self.wide.remove(&addr);
        let (page, slot) = split(addr);
        if let Some(p) = self.pages.get_mut(&page) {
            p[slot] = Entry::default();
        }
    }

    /// Sets the sharer set to exactly `{a, b}` (the recall-for-read
    /// downgrade: old owner plus new reader, which may coincide).
    pub fn set_shared_pair(&mut self, addr: u64, a: NodeId, b: NodeId) {
        self.wide.remove(&addr);
        let (lo, hi) = (a.raw().min(b.raw()), a.raw().max(b.raw()));
        let e = self.entry_mut(addr);
        *e = if lo == hi {
            Entry { kind: KIND_INLINE, n: 1, s: [lo, 0, 0] }
        } else {
            Entry { kind: KIND_INLINE, n: 2, s: [lo, hi, 0] }
        };
    }

    /// Adds a read-only sharer; a set wider than [`INLINE_SHARERS`]
    /// overflows to the bit-vector form.
    ///
    /// # Panics
    ///
    /// Panics if the entry is exclusive — the protocol must recall first.
    pub fn add_sharer(&mut self, addr: u64, node: NodeId) {
        let nodes = self.nodes;
        let e = self.entry_mut(addr);
        match e.kind {
            KIND_UNCACHED => {
                *e = Entry { kind: KIND_INLINE, n: 1, s: [node.raw(), 0, 0] };
            }
            KIND_INLINE => {
                let n = e.n as usize;
                let id = node.raw();
                if e.s[..n].contains(&id) {
                    return;
                }
                if n < INLINE_SHARERS {
                    // Insert keeping the inline slots sorted ascending.
                    let pos = e.s[..n].partition_point(|&x| x < id);
                    e.s.copy_within(pos..n, pos + 1);
                    e.s[pos] = id;
                    e.n += 1;
                    return;
                }
                // Overflow: promote the inline set to a bit-vector.
                let mut bits = vec![0u64; nodes.div_ceil(64)].into_boxed_slice();
                for &s in &e.s {
                    bits[s as usize / 64] |= 1 << (s % 64);
                }
                bits[id as usize / 64] |= 1 << (id % 64);
                *e = Entry { kind: KIND_WIDE, n: 0, s: [0; INLINE_SHARERS] };
                self.wide.insert(addr, bits);
            }
            KIND_WIDE => {
                let bits = self.wide.get_mut(&addr).expect("wide entry has a bit-vector");
                bits[node.index() / 64] |= 1 << (node.index() % 64);
            }
            _ => panic!("add_sharer on an exclusive entry"),
        }
    }

    /// The sharers other than `except`, in ascending node order (the
    /// order the old bitmap's bit scan produced — invalidation fan-out
    /// order, so cycle-identical by construction).
    pub fn sharers_except(&self, addr: u64, except: NodeId) -> Vec<NodeId> {
        let e = self.entry(addr);
        match e.kind {
            KIND_INLINE => e.s[..e.n as usize]
                .iter()
                .filter(|&&s| s != except.raw())
                .map(|&s| NodeId::new(s))
                .collect(),
            KIND_WIDE => {
                let bits = self.wide.get(&addr).expect("wide entry has a bit-vector");
                iter_bits(bits).filter(|&m| m != except).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Whether any node other than `except` shares the block — the
    /// allocation-free form of `!sharers_except(..).is_empty()` used on
    /// the local-miss fast path.
    pub fn has_other_sharers(&self, addr: u64, except: NodeId) -> bool {
        let e = self.entry(addr);
        match e.kind {
            KIND_INLINE => e.s[..e.n as usize].iter().any(|&s| s != except.raw()),
            KIND_WIDE => {
                let bits = self.wide.get(&addr).expect("wide entry has a bit-vector");
                bits.iter().enumerate().any(|(w, &word)| {
                    let mask = if except.index() / 64 == w {
                        !(1u64 << (except.index() % 64))
                    } else {
                        !0
                    };
                    word & mask != 0
                })
            }
            _ => false,
        }
    }

    /// Whether a request is in flight for the block.
    pub fn is_busy(&self, addr: u64) -> bool {
        self.busy.contains_key(&addr)
    }

    /// The block's busy tag, if any.
    pub fn busy(&self, addr: u64) -> Option<DirBusy> {
        self.busy.get(&addr).copied()
    }

    /// Tags the block busy.
    pub fn set_busy(&mut self, addr: u64, busy: DirBusy) {
        self.busy.insert(addr, busy);
    }

    /// Clears the block's busy tag.
    pub fn clear_busy(&mut self, addr: u64) {
        self.busy.remove(&addr);
    }

    /// Queues a request behind a busy entry.
    pub fn push_deferred(&mut self, addr: u64, from: NodeId, req: DirReq) {
        self.deferred.entry(addr).or_default().push_back((from, req));
    }

    /// Pops the oldest deferred request for the block.
    pub fn pop_deferred(&mut self, addr: u64) -> Option<(NodeId, DirReq)> {
        let q = self.deferred.get_mut(&addr)?;
        let head = q.pop_front();
        if q.is_empty() {
            self.deferred.remove(&addr);
        }
        head
    }

    /// Blocks still busy or with queued requesters — the deadlock
    /// diagnostic, sorted by address for a stable panic message.
    pub fn stuck(&self) -> Vec<(u64, DirView, Option<DirBusy>, usize)> {
        let mut addrs: Vec<u64> =
            self.busy.keys().chain(self.deferred.keys()).copied().collect();
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

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    /// The entry's representation tag, read from the private arena.
    fn kind(d: &Directory, a: u64) -> u8 {
        d.entry(a).kind
    }

    #[test]
    fn inline_sharers_stay_inline_and_sorted() {
        let mut d = Directory::new(16);
        let a = 0x40u64;
        d.add_sharer(a, n(9));
        d.add_sharer(a, n(2));
        d.add_sharer(a, n(5));
        d.add_sharer(a, n(5)); // duplicate is idempotent
        assert_eq!(d.view(a), DirView::Shared);
        assert_eq!(kind(&d, a), KIND_INLINE);
        assert!(d.wide.is_empty());
        let all = d.sharers_except(a, n(15));
        assert_eq!(all, vec![n(2), n(5), n(9)], "ascending node order");
    }

    #[test]
    fn fourth_sharer_overflows_to_bits_and_keeps_order() {
        let mut d = Directory::new(128);
        let a = 0x80u64;
        for i in [70u16, 3, 120, 64] {
            d.add_sharer(a, n(i));
        }
        assert_eq!(kind(&d, a), KIND_WIDE);
        assert!(d.wide.contains_key(&a));
        assert_eq!(d.sharers_except(a, n(99)), vec![n(3), n(64), n(70), n(120)]);
        assert_eq!(
            d.sharers_except(a, n(70)),
            vec![n(3), n(64), n(120)],
            "bit-vector enumeration is ascending"
        );
        assert!(d.has_other_sharers(a, n(3)));
    }

    /// An overflowed block with sharers `0..5` and its bit-vector.
    fn overflowed(a: u64) -> Directory {
        let mut d = Directory::new(256);
        for i in 0..5u16 {
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
        assert!(d.sharers_except(a, n(99)).is_empty());
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
        assert_eq!(d.sharers_except(a, n(99)), vec![n(1), n(200)]);
    }

    #[test]
    fn sharers_except_at_the_inline_boundary() {
        let mut d = Directory::new(32);
        let a = 0x60u64;
        d.add_sharer(a, n(4));
        d.add_sharer(a, n(8));
        d.add_sharer(a, n(12));
        // Exactly full inline set: filtering a member yields the others.
        assert_eq!(d.sharers_except(a, n(8)), vec![n(4), n(12)]);
        assert!(!d.has_other_sharers(0x1000, n(0)), "absent block has no sharers");
    }

    #[test]
    fn thousand_node_all_sharers() {
        let nodes = 1024usize;
        let mut d = Directory::new(nodes);
        let a = 0x2000u64;
        for i in 0..nodes as u16 {
            d.add_sharer(a, n(i));
        }
        assert_eq!(kind(&d, a), KIND_WIDE);
        assert_eq!(d.sharers_except(a, n(u16::MAX)).len(), nodes);
        let except = n(513);
        let rest = d.sharers_except(a, except);
        assert_eq!(rest.len(), nodes - 1);
        assert!(rest.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(!rest.contains(&except));
        assert!(d.has_other_sharers(a, except));
    }

    #[test]
    fn exclusive_and_pair_transitions() {
        let mut d = Directory::new(64);
        let a = 0xA0u64;
        d.set_exclusive(a, n(7));
        assert_eq!(d.view(a), DirView::Exclusive(n(7)));
        d.set_shared_pair(a, n(9), n(4));
        assert_eq!(d.sharers_except(a, n(63)), vec![n(4), n(9)]);
        d.set_shared_pair(a, n(5), n(5));
        assert_eq!(
            d.sharers_except(a, n(63)),
            vec![n(5)],
            "coinciding pair dedupes"
        );
        assert_eq!(d.entry(a).n, 1);
        d.set_uncached(a);
        assert_eq!(d.view(a), DirView::Uncached);
    }

    #[test]
    #[should_panic(expected = "exclusive")]
    fn add_sharer_on_exclusive_panics() {
        let mut d = Directory::new(8);
        d.set_exclusive(0, n(1));
        d.add_sharer(0, n(2));
    }

    #[test]
    fn busy_and_deferred_lifecycle() {
        let mut d = Directory::new(8);
        let a = 0xC0u64;
        assert!(!d.is_busy(a));
        d.set_busy(a, DirBusy::Recalling { owner: n(1), to: n(2), req: DirReq::Write });
        assert!(d.is_busy(a));
        d.push_deferred(a, n(3), DirReq::Read);
        d.push_deferred(a, n(4), DirReq::Upgrade);
        assert_eq!(d.stuck().len(), 1);
        d.clear_busy(a);
        assert_eq!(d.pop_deferred(a), Some((n(3), DirReq::Read)));
        assert_eq!(d.pop_deferred(a), Some((n(4), DirReq::Upgrade)));
        assert_eq!(d.pop_deferred(a), None);
        assert!(d.stuck().is_empty());
    }

    #[test]
    fn upgrade_needs_no_data() {
        assert!(DirReq::Read.needs_data());
        assert!(DirReq::Write.needs_data());
        assert!(!DirReq::Upgrade.needs_data());
    }
}
