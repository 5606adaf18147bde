//! Checking support: the virtual-net discipline and directory snapshots.
//!
//! The `tt-check` subsystem (crates/check) installs observers into a
//! running machine and asserts coherence invariants at every event
//! boundary. Two of those invariants need cooperation from the protocol
//! layer, which this module provides:
//!
//! - **Virtual-net discipline** ([`VnPolicy`]): the two-network
//!   deadlock-freedom argument (Section 5.1) requires every handler's
//!   messages to travel on one fixed virtual network, with the
//!   request/response pairing forming no waits-for cycle. A protocol
//!   publishes its handler→net map as a `VnPolicy`; [`VnPolicy::assert_send`]
//!   is the single rule enforced both by [`crate::testing::MockCtx`] in
//!   unit tests and by the `tt-check` invariant engine at machine level.
//!   Note the rule is a *declared map*, not a structural "requests only
//!   beget responses": Stache's final-ACK handler legally issues fresh
//!   Request-net INV/RECALL messages when it drains its deferred queue.
//!
//! - **Directory snapshots** ([`BlockDirSnapshot`]): the tag/directory
//!   agreement invariant compares a home node's directory state against
//!   the block tags of every cached copy. Protocols that keep a directory
//!   expose it via [`crate::Protocol::inspect_directory`]; the default is
//!   to expose nothing, so protocols without directories need no changes.

use tt_base::addr::VAddr;
use tt_base::{FxHashMap, NodeId};
use tt_net::VirtualNet;

use crate::msg::HandlerId;

/// The declared virtual network for every handler of a protocol.
///
/// # Example
///
/// ```
/// use tt_tempest::inspect::VnPolicy;
/// use tt_tempest::HandlerId;
/// use tt_net::VirtualNet;
///
/// let policy = VnPolicy::new()
///     .expect(HandlerId(0x10), VirtualNet::Request)
///     .expect(HandlerId(0x12), VirtualNet::Response);
/// policy.assert_send(HandlerId(0x10), VirtualNet::Request); // fine
/// assert!(policy.expected(HandlerId(0x99)).is_none()); // unregistered
/// ```
#[derive(Clone, Debug, Default)]
pub struct VnPolicy {
    map: FxHashMap<u32, VirtualNet>,
}

impl VnPolicy {
    /// An empty policy (every handler unregistered, nothing asserted).
    pub fn new() -> Self {
        VnPolicy::default()
    }

    /// Declares the virtual network `handler` must travel on.
    ///
    /// # Panics
    ///
    /// Panics if the handler was already declared for the *other* net —
    /// a handler with two nets would break the waits-for argument.
    pub fn expect(mut self, handler: HandlerId, vn: VirtualNet) -> Self {
        let prev = self.map.insert(handler.raw(), vn);
        assert!(
            prev.is_none() || prev == Some(vn),
            "handler {handler:?} declared for both virtual nets"
        );
        self
    }

    /// The declared net for `handler`, or `None` if unregistered.
    pub fn expected(&self, handler: HandlerId) -> Option<VirtualNet> {
        self.map.get(&handler.raw()).copied()
    }

    /// Asserts that sending `handler` on `vn` respects the policy.
    /// Handlers the policy does not know are allowed (tests and custom
    /// protocols may use private handler ids).
    ///
    /// # Panics
    ///
    /// Panics with a "virtual-net violation" message if the handler is
    /// declared for the other network.
    pub fn assert_send(&self, handler: HandlerId, vn: VirtualNet) {
        if let Some(expected) = self.expected(handler) {
            assert!(
                expected == vn,
                "virtual-net violation: handler {handler:?} sent on {vn:?} \
                 but is declared for {expected:?}; responses must never wait \
                 behind requests"
            );
        }
    }
}

/// A home directory entry's coherence state, as seen by checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirSnapshotState {
    /// No remote copies; the home's copy is the only one.
    Idle,
    /// Read-only copies at these nodes (sharer pointers may be stale
    /// supersets: Stache drops page frames silently, Section 3).
    Shared(Vec<NodeId>),
    /// One writable copy at this node.
    Exclusive(NodeId),
}

/// Snapshot of one home block's directory entry
/// (see [`crate::Protocol::inspect_directory`]).
#[derive(Clone, Debug)]
pub struct BlockDirSnapshot {
    /// Virtual address of the block (block-aligned).
    pub addr: VAddr,
    /// The home node that owns this directory entry.
    pub home: NodeId,
    /// Coherence state of the entry.
    pub state: DirSnapshotState,
    /// Whether a transaction is in flight for this block. Busy entries
    /// are mid-transition and exempt from tag/directory agreement.
    pub busy: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_allows_declared_and_unknown_handlers() {
        let p = VnPolicy::new().expect(HandlerId(1), VirtualNet::Request);
        p.assert_send(HandlerId(1), VirtualNet::Request);
        p.assert_send(HandlerId(2), VirtualNet::Response); // unregistered: ok
        assert_eq!(p.expected(HandlerId(1)), Some(VirtualNet::Request));
        assert_eq!(p.expected(HandlerId(2)), None);
    }

    #[test]
    #[should_panic(expected = "virtual-net violation")]
    fn policy_rejects_wrong_net() {
        let p = VnPolicy::new().expect(HandlerId(1), VirtualNet::Response);
        p.assert_send(HandlerId(1), VirtualNet::Request);
    }

    #[test]
    #[should_panic(expected = "both virtual nets")]
    fn double_declaration_on_other_net_panics() {
        let _ = VnPolicy::new()
            .expect(HandlerId(1), VirtualNet::Request)
            .expect(HandlerId(1), VirtualNet::Response);
    }
}
