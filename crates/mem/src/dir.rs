//! The coherence directory every home node keeps, and the one home
//! protocol engine both machines run on it: Stache's software directory on
//! Typhoon and DirNNB's hardware directory make the same LimitLESS-style
//! decisions here, and each machine only carries them out.
//!
//! # Storage
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
//! - **Side transaction state.** A block's in-flight transaction and its
//!   deferred requests are transient, bounded by outstanding misses,
//!   so they live in side maps keyed by block address instead of
//!   fattening every entry.
//!
//! A sharer set only grows: [`Directory::add_sharer`] inserts one node,
//! and an exclusive grant, [`Directory::set_uncached`] or a read recall
//! replace the whole set, releasing any bit-vector. No single sharer is
//! ever removed: a shared victim is dropped silently, so the home's set is
//! a superset of the real copies until the next write.
//!
//! # The engine
//!
//! [`Directory::request`] decides a [`Request`] against the block's state
//! (DESIGN.md §11 has the table): it is deferred while the block is busy,
//! granted, or starts an invalidation round or a recall. The last
//! [`Directory::ack`], the recall's data ([`Directory::recall_data`]) or
//! the owner's racing [`Directory::writeback`] returns the [`Grant`] that
//! ends the transaction; [`Directory::next_deferred`] then serves the
//! deferred requests in FIFO order until one makes the block busy again.
//! The engine charges no cost and sends nothing: each machine carries its
//! decisions out with its own costs, messages or events, and tags.
//!
//! [`Directory::sharers`] enumerates in insertion order while the set is
//! inline and in ascending node order once it has overflowed. That order
//! is the order invalidations fan out in, so it sets cycle counts: Stache
//! sends in the order [`Action::Invalidate`] lists, and DirNNB sorts it,
//! so its fan-out is ascending in every representation.

use std::collections::VecDeque;
use std::fmt::Debug;

use tt_base::addr::{BLOCKS_PER_PAGE, BLOCK_BYTES};
use tt_base::{FxHashMap, NodeId};

/// The sharing state of one block. The sharer set itself is read through
/// [`Directory::sharers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirView {
    /// No cached copies: only the home's memory holds the block.
    Uncached,
    /// One or more read-only copies.
    Shared,
    /// A single exclusive (writable) copy at the named node.
    Exclusive(NodeId),
}

/// A request at a block's home.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request<T> {
    /// The requesting node; `None` is a thread on the home node itself,
    /// whose copy is the home's memory and is never recorded as a sharer.
    pub node: Option<NodeId>,
    /// Whether the requester wants an exclusive (writable) copy.
    pub exclusive: bool,
    /// The machine's handle for answering: Stache's requesting thread,
    /// DirNNB's request kind.
    pub token: T,
}

/// What a grant leaves the requester holding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GrantKind {
    /// The only copy (for the home: the block is uncached again).
    Exclusive,
    /// A read-only copy that made the block shared.
    Shared,
    /// A read-only copy of a block already shared; `overflowed` when this
    /// sharer spilled the inline pointers into the bit-vector.
    Joined { overflowed: bool },
}

/// A request the directory has granted; the machine answers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant<T> {
    pub to: Request<T>,
    pub kind: GrantKind,
}

/// The home's answer to a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action<T> {
    /// The block is busy: the request waits in its FIFO.
    Deferred,
    /// Granted on the spot.
    Grant(Grant<T>),
    /// Invalidate these sharers, in directory order; the last
    /// [`Directory::ack`] grants the request.
    Invalidate(Vec<NodeId>),
    /// Recall the block from its exclusive owner, invalidating its copy
    /// or (for a read) downgrading it; the returned data grants.
    Recall { owner: NodeId, invalidate: bool },
}

/// A block's in-flight home transaction: invalidations out, the last ack
/// grants `to`; or a recall out to `owner`, its data grants `to`.
#[derive(Clone, Copy, Debug)]
enum Transaction<T> {
    Invalidating { acks_left: usize, to: Request<T> },
    Recalling { owner: NodeId, to: Request<T> },
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

/// The block directory of one machine's homes and its protocol engine,
/// generic in the token `T` each request carries. Addresses passed in are
/// block-aligned.
#[derive(Debug)]
pub struct Directory<T> {
    /// Arena pages, keyed by VPN (`block address >> 12`).
    pages: FxHashMap<u64, Box<[Entry; BLOCKS_PER_PAGE]>>,
    /// Overflowed sharer sets: bit-vectors, one bit per node.
    wide: FxHashMap<u64, Box<[u64]>>,
    /// Transactions of blocks with a request in flight.
    busy: FxHashMap<u64, Transaction<T>>,
    /// Requests deferred behind a busy block, FIFO per block.
    deferred: FxHashMap<u64, VecDeque<Request<T>>>,
    /// Machine size, for bit-vector width.
    nodes: usize,
}

fn split(addr: u64) -> (u64, usize) {
    let block = addr / BLOCK_BYTES as u64;
    (block / BLOCKS_PER_PAGE as u64, (block % BLOCKS_PER_PAGE as u64) as usize)
}

fn set_bit(bits: &mut [u64], node: u16) {
    bits[node as usize / 64] |= 1 << (node % 64);
}

impl<T: Copy + Debug> Directory<T> {
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
        &mut self.pages.entry(page).or_insert_with(|| Box::new([Entry::default(); BLOCKS_PER_PAGE]))
            [slot]
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
    fn set_exclusive(&mut self, addr: u64, node: NodeId) {
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
    fn set_shared_pair(&mut self, addr: u64, a: NodeId, b: NodeId) {
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
                *e = Entry { kind: KIND_WIDE, ..Entry::default() };
                self.wide.insert(addr, bits);
                true
            }
            KIND_WIDE => {
                let bits = self.wide.get_mut(&addr).expect("wide entry has a bit-vector");
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
            KIND_INLINE => e.s[..e.n as usize].iter().map(|&s| NodeId::new(s)).collect(),
            KIND_WIDE => {
                let bits = self.wide.get(&addr).expect("wide entry has a bit-vector");
                iter_bits(bits).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Whether any node other than `except` shares the block (any node at
    /// all for `None`), without building the sharer list.
    fn has_other_sharers(&self, addr: u64, except: Option<NodeId>) -> bool {
        let e = self.entry(addr);
        match e.kind {
            KIND_INLINE => e.s[..e.n as usize].iter().any(|&s| Some(NodeId::new(s)) != except),
            KIND_WIDE => {
                let bits = self.wide.get(&addr).expect("wide entry has a bit-vector");
                iter_bits(bits).any(|m| Some(m) != except)
            }
            _ => false,
        }
    }

    /// Whether a request is in flight for the block.
    pub fn is_busy(&self, addr: u64) -> bool {
        self.busy.contains_key(&addr)
    }

    /// Blocks still busy or with queued requesters — the deadlock
    /// diagnostic, sorted by address for a stable panic message.
    pub fn stuck(&self) -> Vec<impl Debug> {
        let mut addrs: Vec<u64> = self.busy.keys().chain(self.deferred.keys()).copied().collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs
            .into_iter()
            .map(|a| {
                let queued = self.deferred.get(&a).map_or(0, VecDeque::len);
                (a, self.view(a), self.busy.get(&a).copied(), queued)
            })
            .collect()
    }

    // --- The engine ---------------------------------------------------------

    /// Decides a request at the home: defers it behind a busy block,
    /// grants it, or starts the invalidation round or recall that will.
    pub fn request(&mut self, addr: u64, req: Request<T>) -> Action<T> {
        if self.is_busy(addr) {
            self.deferred.entry(addr).or_default().push_back(req);
            return Action::Deferred;
        }
        if let Some(grant) = self.grant_now(addr, req) {
            return Action::Grant(grant);
        }
        if let DirView::Exclusive(owner) = self.view(addr) {
            self.busy.insert(addr, Transaction::Recalling { owner, to: req });
            return Action::Recall { owner, invalidate: req.exclusive };
        }
        let mut targets = self.sharers(addr);
        targets.retain(|&s| Some(s) != req.node);
        let acks_left = targets.len();
        self.busy.insert(addr, Transaction::Invalidating { acks_left, to: req });
        Action::Invalidate(targets)
    }

    /// Grants `req` if the home can on the spot, with no transaction, and
    /// otherwise changes nothing.
    pub fn grant_now(&mut self, addr: u64, req: Request<T>) -> Option<Grant<T>> {
        if self.is_busy(addr) {
            return None;
        }
        let kind = match (self.view(addr), req.exclusive, req.node) {
            (DirView::Exclusive(_), ..) => return None,
            (DirView::Shared, true, node) if self.has_other_sharers(addr, node) => return None,
            (DirView::Shared, false, node) => {
                GrantKind::Joined { overflowed: node.is_some_and(|n| self.add_sharer(addr, n)) }
            }
            (DirView::Uncached, false, Some(n)) => {
                self.add_sharer(addr, n);
                GrantKind::Shared
            }
            // An exclusive copy, or the home reading an uncached block:
            // either way the requester's is the only copy.
            _ => return Some(self.grant_exclusive(addr, req)),
        };
        Some(Grant { to: req, kind })
    }

    fn grant_exclusive(&mut self, addr: u64, to: Request<T>) -> Grant<T> {
        match to.node {
            Some(n) => self.set_exclusive(addr, n),
            None => self.set_uncached(addr),
        }
        Grant { to, kind: GrantKind::Exclusive }
    }

    /// Counts one invalidation acknowledgment; the last one grants.
    ///
    /// # Panics
    ///
    /// Panics if the block is not invalidating.
    pub fn ack(&mut self, addr: u64) -> Option<Grant<T>> {
        let Some(Transaction::Invalidating { acks_left, to }) = self.busy.get_mut(&addr) else {
            panic!("ack for a block that is not invalidating");
        };
        *acks_left -= 1;
        if *acks_left > 0 {
            return None;
        }
        let to = *to;
        self.busy.remove(&addr);
        Some(self.grant_exclusive(addr, to))
    }

    /// Completes a recall with the owner's data: a read leaves the old
    /// owner and the reader sharing (the owner alone for a home reader).
    ///
    /// # Panics
    ///
    /// Panics if the block is not recalling.
    pub fn recall_data(&mut self, addr: u64, from: NodeId) -> Grant<T> {
        let Some(Transaction::Recalling { owner, to }) = self.busy.remove(&addr) else {
            panic!("recall data for a block that is not recalling");
        };
        debug_assert_eq!(owner, from);
        if to.exclusive {
            return self.grant_exclusive(addr, to);
        }
        self.set_shared_pair(addr, owner, to.node.unwrap_or(owner));
        Grant { to, kind: GrantKind::Shared }
    }

    /// A writeback from `from`, the exclusive owner: it completes a recall
    /// in flight to that owner (the data crossed the recall) and returns
    /// that recall's grant; otherwise the block is uncached again.
    ///
    /// # Panics
    ///
    /// Panics if another transaction is in flight.
    pub fn writeback(&mut self, addr: u64, from: NodeId) -> Option<Grant<T>> {
        match self.busy.get(&addr) {
            Some(Transaction::Recalling { owner, .. }) if *owner == from => {
                Some(self.recall_data(addr, from))
            }
            Some(other) => panic!("writeback raced an unexpected transaction {other:?}"),
            None => {
                debug_assert_eq!(self.view(addr), DirView::Exclusive(from));
                self.set_uncached(addr);
                None
            }
        }
    }

    /// Decides the block's oldest deferred request, once the block is not
    /// busy. Called until it returns `None`, it serves the queue in FIFO
    /// order up to the first request that makes the block busy again.
    pub fn next_deferred(&mut self, addr: u64) -> Option<Action<T>> {
        if self.is_busy(addr) {
            return None;
        }
        let q = self.deferred.get_mut(&addr)?;
        let req = q.pop_front().expect("deferred queues are never empty");
        if q.is_empty() {
            self.deferred.remove(&addr);
        }
        Some(self.request(addr, req))
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

    type Dir = Directory<u8>;

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
        assert!(d.has_other_sharers(a, Some(n(3))));
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
        assert!(!d.has_other_sharers(a, Some(n(99))));
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
        assert!(d.has_other_sharers(a, Some(n(8))));
        assert!(!d.has_other_sharers(0x1000, Some(n(0))), "absent block has no sharers");
        let mut lone = Dir::new(32);
        lone.add_sharer(a, n(8));
        assert!(!lone.has_other_sharers(a, Some(n(8))), "the only sharer is excepted");
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
        assert!(d.has_other_sharers(a, Some(n(513))));
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

    // --- The engine ---------------------------------------------------------

    const A: u64 = 0xE0;
    /// The home's own thread.
    const HOME: Option<u16> = None;

    fn rq(node: Option<u16>, exclusive: bool) -> Request<u8> {
        Request { node: node.map(n), exclusive, token: 7 }
    }

    fn granted(node: Option<u16>, exclusive: bool, kind: GrantKind) -> Action<u8> {
        Action::Grant(Grant { to: rq(node, exclusive), kind })
    }

    /// The block's state as `(view, sharers, busy)`.
    fn state(d: &Dir) -> (DirView, Vec<NodeId>, bool) {
        (d.view(A), d.sharers(A), d.is_busy(A))
    }

    fn uncached() -> Dir {
        Dir::new(16)
    }

    fn shared_1_2() -> Dir {
        let mut d = Dir::new(16);
        d.add_sharer(A, n(1));
        d.add_sharer(A, n(2));
        d
    }

    fn shared_1() -> Dir {
        let mut d = Dir::new(16);
        d.add_sharer(A, n(1));
        d
    }

    fn exclusive_1() -> Dir {
        let mut d = Dir::new(16);
        d.set_exclusive(A, n(1));
        d
    }

    /// One row: the state, the requester, exclusive or not, then the
    /// action and the view and sharers it leaves.
    type Row = (fn() -> Dir, Option<u16>, bool, Action<u8>, DirView, Vec<NodeId>);

    /// Every (state × requester × read/exclusive): the home's own thread,
    /// a node that already holds the block (node 1) and a node that does
    /// not (node 3). Each row is also checked against `grant_now`, which
    /// must grant exactly the rows `request` grants and otherwise leave
    /// the block untouched.
    #[test]
    fn every_request_against_every_state() {
        use DirView::{Exclusive, Shared, Uncached};
        use GrantKind::Joined;
        let (excl, shared) = (GrantKind::Exclusive, GrantKind::Shared);
        let joined = Joined { overflowed: false };
        let recall = |invalidate| Action::Recall { owner: n(1), invalidate };
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            // The home's copy is the only one: the block stays uncached.
            (uncached, HOME, false, granted(HOME, false, excl), Uncached, vec![]),
            (uncached, HOME, true, granted(HOME, true, excl), Uncached, vec![]),
            (uncached, Some(3), false, granted(Some(3), false, shared), Shared, ns(&[3])),
            (uncached, Some(3), true, granted(Some(3), true, excl), Exclusive(n(3)), vec![]),
            (shared_1_2, HOME, false, granted(HOME, false, joined), Shared, ns(&[1, 2])),
            (shared_1_2, HOME, true, Action::Invalidate(ns(&[1, 2])), Shared, ns(&[1, 2])),
            (shared_1_2, Some(1), false, granted(Some(1), false, joined), Shared, ns(&[1, 2])),
            (shared_1_2, Some(1), true, Action::Invalidate(ns(&[2])), Shared, ns(&[1, 2])),
            (shared_1_2, Some(3), false, granted(Some(3), false, joined), Shared, ns(&[1, 2, 3])),
            (shared_1_2, Some(3), true, Action::Invalidate(ns(&[1, 2])), Shared, ns(&[1, 2])),
            // The sole sharer upgrades on the spot; anyone else invalidates it.
            (shared_1, HOME, true, Action::Invalidate(ns(&[1])), Shared, ns(&[1])),
            (shared_1, Some(1), true, granted(Some(1), true, excl), Exclusive(n(1)), vec![]),
            (shared_1, Some(3), true, Action::Invalidate(ns(&[1])), Shared, ns(&[1])),
            (exclusive_1, HOME, false, recall(false), Exclusive(n(1)), vec![]),
            (exclusive_1, HOME, true, recall(true), Exclusive(n(1)), vec![]),
            (exclusive_1, Some(1), false, recall(false), Exclusive(n(1)), vec![]),
            (exclusive_1, Some(1), true, recall(true), Exclusive(n(1)), vec![]),
            (exclusive_1, Some(3), false, recall(false), Exclusive(n(1)), vec![]),
            (exclusive_1, Some(3), true, recall(true), Exclusive(n(1)), vec![]),
        ];
        for (i, (setup, node, exclusive, action, view, sharers)) in table.into_iter().enumerate() {
            let mut d = setup();
            let grant = matches!(action, Action::Grant(_));
            assert_eq!(d.request(A, rq(node, exclusive)), action, "row {i}");
            assert_eq!(state(&d), (view, sharers.clone(), !grant), "row {i}");
            let mut d = setup();
            let before = state(&d);
            match (d.grant_now(A, rq(node, exclusive)), action) {
                (Some(g), Action::Grant(want)) => {
                    assert_eq!(g, want, "row {i}");
                    assert_eq!(state(&d), (view, sharers, false), "row {i}");
                }
                (None, Action::Invalidate(_) | Action::Recall { .. }) => {
                    assert_eq!(state(&d), before, "row {i}: grant_now changed nothing")
                }
                (got, want) => panic!("row {i}: grant_now {got:?} for {want:?}"),
            }
        }
    }

    #[test]
    fn the_seventh_reader_reports_overflow() {
        let mut d = Dir::new(16);
        for i in 0..6 {
            d.add_sharer(A, n(i));
        }
        let joined = |overflowed| GrantKind::Joined { overflowed };
        assert_eq!(d.request(A, rq(Some(6), false)), granted(Some(6), false, joined(true)));
        assert_eq!(d.request(A, rq(Some(7), false)), granted(Some(7), false, joined(false)));
    }

    #[test]
    fn the_last_ack_grants_the_writer() {
        for (writer, view) in [(Some(3), DirView::Exclusive(n(3))), (HOME, DirView::Uncached)] {
            let mut d = shared_1_2();
            assert_eq!(d.request(A, rq(writer, true)), Action::Invalidate(ns(&[1, 2])));
            assert_eq!(d.ack(A), None, "one ack still out");
            assert!(d.is_busy(A));
            let want = Grant { to: rq(writer, true), kind: GrantKind::Exclusive };
            assert_eq!(d.ack(A), Some(want));
            assert_eq!(state(&d), (view, vec![], false));
        }
    }

    #[test]
    #[should_panic(expected = "not invalidating")]
    fn an_ack_without_invalidations_panics() {
        exclusive_1().ack(A);
    }

    /// Recall data grants a reader a copy beside the old owner (the owner
    /// alone for the home's thread) and a writer the block.
    #[test]
    fn recall_data_completes_the_recall() {
        let rows = [
            (Some(3), false, GrantKind::Shared, DirView::Shared, ns(&[1, 3])),
            (HOME, false, GrantKind::Shared, DirView::Shared, ns(&[1])),
            (Some(3), true, GrantKind::Exclusive, DirView::Exclusive(n(3)), vec![]),
            (HOME, true, GrantKind::Exclusive, DirView::Uncached, vec![]),
        ];
        for (node, exclusive, kind, view, sharers) in rows {
            let mut d = exclusive_1();
            d.request(A, rq(node, exclusive));
            let want = Grant { to: rq(node, exclusive), kind };
            assert_eq!(d.recall_data(A, n(1)), want);
            assert_eq!(state(&d), (view, sharers, false));
        }
    }

    #[test]
    fn a_writeback_racing_a_recall_completes_it() {
        let mut d = exclusive_1();
        d.request(A, rq(Some(3), false));
        let want = Grant { to: rq(Some(3), false), kind: GrantKind::Shared };
        assert_eq!(d.writeback(A, n(1)), Some(want));
        assert_eq!(state(&d), (DirView::Shared, ns(&[1, 3]), false));
    }

    #[test]
    fn a_plain_writeback_leaves_the_block_uncached() {
        let mut d = exclusive_1();
        assert_eq!(d.writeback(A, n(1)), None);
        assert_eq!(state(&d), (DirView::Uncached, vec![], false));
    }

    #[test]
    #[should_panic(expected = "writeback raced")]
    fn a_writeback_during_invalidations_panics() {
        let mut d = shared_1_2();
        d.request(A, rq(Some(3), true));
        d.writeback(A, n(1));
    }

    /// Deferred requests drain in FIFO order, and the drain stops at the
    /// first one that makes the block busy again.
    #[test]
    fn the_drain_is_fifo_and_stops_at_a_new_transaction() {
        let mut d = exclusive_1();
        assert_eq!(
            d.request(A, rq(Some(2), false)),
            Action::Recall { owner: n(1), invalidate: false }
        );
        for (node, exclusive) in
            [(Some(3), false), (HOME, false), (Some(5), true), (Some(6), false)]
        {
            assert_eq!(d.request(A, rq(node, exclusive)), Action::Deferred);
        }
        assert_eq!(d.next_deferred(A), None, "busy: nothing drains");
        assert_eq!(
            format!("{:?}", d.stuck()),
            "[(224, Exclusive(n1), Some(Recalling { owner: n1, to: Request { node: Some(n2), \
             exclusive: false, token: 7 } }), 4)]",
            "address, view, transaction and queue length"
        );
        d.recall_data(A, n(1));
        let joined = GrantKind::Joined { overflowed: false };
        assert_eq!(d.next_deferred(A), Some(granted(Some(3), false, joined)));
        assert_eq!(d.next_deferred(A), Some(granted(HOME, false, joined)));
        assert_eq!(d.next_deferred(A), Some(Action::Invalidate(ns(&[1, 2, 3]))));
        assert_eq!(d.next_deferred(A), None, "the writer made the block busy");
        assert_eq!(d.deferred[&A].len(), 1, "node 6 still waits");
        for _ in 0..3 {
            d.ack(A);
        }
        assert_eq!(d.next_deferred(A), Some(Action::Recall { owner: n(5), invalidate: false }));
        assert_eq!(d.next_deferred(A), None);
        assert_eq!(d.stuck().len(), 1, "only the recall remains");
        assert_eq!(
            d.recall_data(A, n(5)),
            Grant { to: rq(Some(6), false), kind: GrantKind::Shared }
        );
        assert_eq!(d.next_deferred(A), None);
        assert!(d.stuck().is_empty());
        assert!(d.deferred.is_empty(), "an emptied queue is removed");
    }
}
