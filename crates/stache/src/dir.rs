//! The software directory backing Stache's coherence protocol.
//!
//! The paper preallocates 64 bits per home block: two bytes of state and
//! six one-byte sharer pointers; when more than six sharers exist the
//! first pointers become a bit vector (Section 3). [`SharerSet`] models
//! exactly that representation (including the overflow statistic the
//! ablation benchmark reads), and [`BlockDir`] holds the per-block state
//! machine: stable states `Idle`/`Shared`/`Exclusive` plus a busy
//! transaction with a FIFO queue of deferred requests.
//!
//! A sharer set never shrinks one sharer at a time: a shared copy is
//! dropped silently on replacement, and the home empties the whole set
//! when it invalidates the copies or hands out an exclusive one.

use std::collections::VecDeque;

use tt_base::NodeId;
use tt_tempest::ThreadId;

/// Number of explicit sharer pointers before overflowing to a bit vector.
pub const POINTER_SLOTS: usize = 6;

/// The sharer set of one block: six pointers, or a heap bit vector after
/// overflow — the LimitLESS-style chained structure the paper sketches
/// for machines wider than the inline pointers cover. The vector is
/// sized to the highest node inserted, so a 1024-node machine pays the
/// heap allocation only on blocks that actually overflow.
///
/// A set only grows or is emptied whole: Stache drops a shared copy
/// silently on replacement, so no single sharer is ever removed, and
/// [`SharerSet::clear`] (after invalidating every sharer) is the one way
/// back to the pointer form.
///
/// # Example
///
/// ```
/// use tt_stache::dir::SharerSet;
/// use tt_base::NodeId;
///
/// let mut sharers = SharerSet::new();
/// for i in 0..6 {
///     assert!(!sharers.insert(NodeId::new(i)), "pointers suffice");
/// }
/// assert!(sharers.insert(NodeId::new(999)), "seventh sharer overflows");
/// assert!(matches!(sharers, SharerSet::Bits(_)));
/// assert_eq!(sharers.iter().len(), 7);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SharerSet {
    /// Up to six explicit node pointers.
    Pointers([Option<NodeId>; POINTER_SLOTS]),
    /// Bit `i` set means node `i` holds a copy; sized to the highest
    /// node seen, growing on demand.
    Bits(Box<[u64]>),
}

impl Default for SharerSet {
    fn default() -> Self {
        SharerSet::Pointers([None; POINTER_SLOTS])
    }
}

impl SharerSet {
    /// An empty set.
    pub fn new() -> Self {
        SharerSet::default()
    }

    /// Adds a sharer. Returns `true` if this insertion overflowed the
    /// pointer representation into the bit vector.
    pub fn insert(&mut self, node: NodeId) -> bool {
        match self {
            SharerSet::Pointers(slots) => {
                if slots.contains(&Some(node)) {
                    return false;
                }
                if let Some(empty) = slots.iter_mut().find(|s| s.is_none()) {
                    *empty = Some(node);
                    return false;
                }
                // Overflow: convert to a bit vector wide enough for the
                // highest node present.
                let top = slots
                    .iter()
                    .flatten()
                    .map(|s| s.index())
                    .chain(std::iter::once(node.index()))
                    .max()
                    .unwrap();
                let mut bits = vec![0u64; top / 64 + 1].into_boxed_slice();
                for s in slots.iter().flatten() {
                    bits[s.index() / 64] |= 1 << (s.index() % 64);
                }
                bits[node.index() / 64] |= 1 << (node.index() % 64);
                *self = SharerSet::Bits(bits);
                true
            }
            SharerSet::Bits(bits) => {
                let word = node.index() / 64;
                if word >= bits.len() {
                    let mut grown = vec![0u64; word + 1];
                    grown[..bits.len()].copy_from_slice(bits);
                    *bits = grown.into_boxed_slice();
                }
                bits[word] |= 1 << (node.index() % 64);
                false
            }
        }
    }

    /// Number of sharers.
    fn len(&self) -> usize {
        match self {
            SharerSet::Pointers(slots) => slots.iter().flatten().count(),
            SharerSet::Bits(bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Iterates over the sharers in ascending node order for the bit
    /// vector, insertion order for pointers.
    pub fn iter(&self) -> Vec<NodeId> {
        match self {
            SharerSet::Pointers(slots) => slots.iter().flatten().copied().collect(),
            SharerSet::Bits(bits) => {
                let mut out = Vec::with_capacity(self.len());
                for (wi, &w) in bits.iter().enumerate() {
                    let mut word = w;
                    while word != 0 {
                        let bit = word.trailing_zeros() as usize;
                        out.push(NodeId::new((wi * 64 + bit) as u16));
                        word &= word - 1;
                    }
                }
                out
            }
        }
    }

    /// Empties the set (back to the compact pointer form).
    pub fn clear(&mut self) {
        *self = SharerSet::new();
    }
}

/// Stable directory state of one home block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirState {
    /// Only the home's copy exists; home tag is `ReadWrite`.
    #[default]
    Idle,
    /// Read-only copies exist at the sharers; home tag is `ReadOnly`.
    Shared,
    /// One remote node holds the writable copy; home tag is `Invalid`.
    Exclusive(NodeId),
}

/// Who issued a (possibly deferred) request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Requester {
    /// A remote node, to be answered with a data message.
    Remote(NodeId),
    /// The home node's own suspended computation thread.
    Local(ThreadId),
}

/// The kind of copy requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    /// Read-only copy.
    Ro,
    /// Exclusive (writable) copy.
    Rw,
}

/// A request waiting for the block to leave its busy state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PendingReq {
    /// Who asked.
    pub who: Requester,
    /// What they asked for.
    pub kind: ReqKind,
}

/// An in-flight home transaction on a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Busy {
    /// Invalidations sent; waiting for `acks_left` acknowledgments, then
    /// grant `to` an exclusive copy.
    Invalidating {
        /// Remaining acknowledgments.
        acks_left: usize,
        /// The requester to grant once acknowledged.
        to: Requester,
    },
    /// A recall was sent to the exclusive owner; on data arrival grant
    /// `to` a copy of kind `kind`.
    Recalling {
        /// The current exclusive owner.
        owner: NodeId,
        /// The requester to grant.
        to: Requester,
        /// Kind of copy to grant.
        kind: ReqKind,
    },
}

/// Directory entry for one home block.
#[derive(Clone, Debug, Default)]
pub struct BlockDir {
    /// Stable state.
    pub state: DirState,
    /// Sharers (meaningful in `Shared`).
    pub sharers: SharerSet,
    /// In-flight transaction, if any.
    pub busy: Option<Busy>,
    /// Requests deferred while busy (FIFO).
    pub queue: VecDeque<PendingReq>,
}

impl BlockDir {
    /// Whether a transaction is in flight.
    pub fn is_busy(&self) -> bool {
        self.busy.is_some()
    }
}

/// The directory for one home page: one entry per 32-byte block.
#[derive(Clone, Debug)]
pub struct PageDirectory {
    /// Entries indexed by block-in-page.
    pub blocks: Vec<BlockDir>,
}

impl PageDirectory {
    /// A fresh directory: every block `Idle`.
    pub fn new() -> Self {
        PageDirectory {
            blocks: (0..tt_base::addr::BLOCKS_PER_PAGE)
                .map(|_| BlockDir::default())
                .collect(),
        }
    }
}

impl Default for PageDirectory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    /// Whether the set has overflowed to the bit-vector form.
    fn is_wide(s: &SharerSet) -> bool {
        matches!(s, SharerSet::Bits(_))
    }

    #[test]
    fn pointer_form_holds_six() {
        let mut s = SharerSet::new();
        for i in 0..6 {
            assert!(!s.insert(n(i)));
        }
        assert!(!is_wide(&s));
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn seventh_sharer_overflows_to_bits() {
        let mut s = SharerSet::new();
        for i in 0..6 {
            s.insert(n(i));
        }
        assert!(s.insert(n(10)), "seventh insert reports overflow");
        assert!(is_wide(&s));
        assert_eq!(s.len(), 7);
        assert_eq!(
            s.iter(),
            vec![n(0), n(1), n(2), n(3), n(4), n(5), n(10)],
            "every sharer carried into the bit vector"
        );
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut s = SharerSet::new();
        s.insert(n(3));
        assert!(!s.insert(n(3)));
        assert_eq!(s.len(), 1);
        // And in bit form too.
        for i in 0..7 {
            s.insert(n(i));
        }
        let len = s.len();
        s.insert(n(3));
        assert_eq!(s.len(), len);
    }

    #[test]
    fn iter_returns_all_sharers() {
        let mut s = SharerSet::new();
        for i in [5u16, 2, 9] {
            s.insert(n(i));
        }
        let mut got = s.iter();
        got.sort();
        assert_eq!(got, vec![n(2), n(5), n(9)]);
    }

    #[test]
    fn clear_resets_to_pointer_form() {
        let mut s = SharerSet::new();
        for i in 0..10 {
            s.insert(n(i));
        }
        s.clear();
        assert!(s.iter().is_empty());
        assert!(!is_wide(&s));
    }

    #[test]
    fn wide_machine_nodes_fit_and_grow_the_vector() {
        let mut s = SharerSet::new();
        for i in 0..7 {
            s.insert(n(i));
        }
        assert!(is_wide(&s));
        // Node 1000 lands beyond the current one-word vector.
        s.insert(n(1000));
        assert_eq!(s.len(), 8);
        assert_eq!(s.iter().last().copied(), Some(n(1000)));
    }

    #[test]
    fn bit_vector_iterates_ascending_across_words() {
        let mut s = SharerSet::new();
        for i in [200u16, 3, 130, 64, 63, 1000, 65] {
            s.insert(n(i));
        }
        assert_eq!(
            s.iter(),
            vec![n(3), n(63), n(64), n(65), n(130), n(200), n(1000)]
        );
    }

    #[test]
    fn thousand_node_all_sharers() {
        let mut s = SharerSet::new();
        for i in 0..1024u16 {
            s.insert(n(i));
        }
        assert_eq!(s.len(), 1024);
        let got = s.iter();
        assert_eq!(got.len(), 1024);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn page_directory_has_an_entry_per_block() {
        let d = PageDirectory::new();
        assert_eq!(d.blocks.len(), 128);
        assert_eq!(d.blocks[0].state, DirState::Idle);
        assert!(!d.blocks[0].is_busy());
    }
}
