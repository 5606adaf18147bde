//! Fault records delivered to user-level handlers.
//!
//! Two kinds of fault suspend a computation thread and invoke protocol
//! code:
//!
//! - a **page fault** (Section 2.3): the accessed virtual page is not
//!   mapped (or a write hit a read-only page);
//! - a **block access fault** (Section 2.4): the page is mapped, but the
//!   accessed 32-byte block's tag forbids the access.
//!
//! On Typhoon, a block access fault is detected by the NP's bus monitor;
//! the RTLB entry supplies the handler with the virtual page, the page
//! *mode* (a 4-bit value that selects the handler), and uninterpreted
//! user state (home node id, directory pointer, ...). [`BlockFault`]
//! carries exactly that information.

use tt_base::{NodeId, VAddr};
use tt_mem::{AccessKind, PageMeta, Tag};
use tt_net::VirtualNet;

use crate::msg::HandlerId;

/// Identifies a suspended computation thread awaiting `resume`.
///
/// The paper's model has one computation thread per node (plus logically
/// concurrent message threads); machines use the node index as the
/// thread handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub NodeId);

impl ThreadId {
    /// The node whose computation thread this is.
    #[inline]
    pub fn node(self) -> NodeId {
        self.0
    }
}

/// A page fault: access to an unmapped page in the user-managed segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageFault {
    /// The suspended thread.
    pub thread: ThreadId,
    /// The faulting virtual address.
    pub addr: VAddr,
    /// Load or store.
    pub kind: AccessKind,
}

/// A block access fault: the block's tag forbids the access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockFault {
    /// The suspended thread.
    pub thread: ThreadId,
    /// The faulting virtual address.
    pub addr: VAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// The tag that caused the fault (`ReadOnly` write, `Invalid`/`Busy`
    /// any access).
    pub tag: Tag,
    /// RTLB-supplied page metadata: mode and user words.
    pub meta: PageMeta,
}

/// A network fault a reliable transport could not recover from: every
/// retransmission of a message was lost (or unacknowledged) until the
/// retry budget ran out.
///
/// This is the graceful-degradation path for lossy-network runs: rather
/// than retrying forever (which would hang the simulation behind a
/// permanently partitioned link), the transport raises a Tempest-visible
/// fault through [`crate::TempestCtx::raise_net_fault`] and the machine
/// terminates the run with a deterministic diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// The node whose transport gave up.
    pub node: NodeId,
    /// The unreachable destination.
    pub dst: NodeId,
    /// Virtual network the lost message traveled on.
    pub vn: VirtualNet,
    /// Handler the lost message named.
    pub handler: HandlerId,
    /// Retransmissions attempted before giving up.
    pub retries: u32,
}

impl std::fmt::Display for NetFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network fault: node {} gave up on {:?} message {:?} to node {} after {} retries",
            self.node.index(),
            self.vn,
            self.handler,
            self.dst.index(),
            self.retries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_names_its_node() {
        let t = ThreadId(NodeId::new(4));
        assert_eq!(t.node(), NodeId::new(4));
    }

    #[test]
    fn fault_records_carry_context() {
        let f = BlockFault {
            thread: ThreadId(NodeId::new(1)),
            addr: VAddr::new(0x1000_0020),
            kind: AccessKind::Store,
            tag: Tag::ReadOnly,
            meta: PageMeta {
                vpn: Some(VAddr::new(0x1000_0020).page()),
                mode: 2,
                user: [9, 0xdead],
            },
        };
        assert_eq!(f.meta.user[0], 9);
        assert_eq!(f.kind, AccessKind::Store);
        assert_eq!(f.tag, Tag::ReadOnly);
    }

    #[test]
    fn net_fault_displays_its_context() {
        let f = NetFault {
            node: NodeId::new(3),
            dst: NodeId::new(5),
            vn: VirtualNet::Request,
            handler: HandlerId(0x12),
            retries: 24,
        };
        let s = f.to_string();
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("node 5"), "{s}");
        assert!(s.contains("24 retries"), "{s}");
    }
}
