//! The network interface processor (NP) model (paper Section 5, Figure 2).
//!
//! The NP is a previous-generation integer core tightly coupled to the
//! network interface, with its own instruction/data caches, a forward TLB
//! (for handler accesses by virtual address), and the reverse TLB the bus
//! monitor uses for tag checks. Scheduling is a hardware-assisted,
//! non-preemptive dispatch loop: once a handler starts it runs to
//! completion, so handlers never synchronize with each other.
//!
//! Dispatch priority (Section 5.1): the response virtual network is
//! serviced first (so request handlers cannot starve response handlers,
//! keeping request/response protocols deadlock-free), then block-access
//! faults, then protocol timers, then the request network, then explicit
//! application calls: one FIFO per class.

use std::collections::VecDeque;

use tt_base::addr::{Ppn, Vpn};
use tt_base::config::{NP_DCACHE_ASSOC, NP_DCACHE_BYTES, NP_TLB_ENTRIES, RTLB_ENTRIES};
use tt_base::stats::Counter;
use tt_base::{Cycles, DetRng};
use tt_mem::{CacheModel, FifoTlb};
use tt_net::VirtualNet;
use tt_tempest::{BlockFault, Message, PageFault, ThreadId, UserCall};

/// One unit of work awaiting the NP's dispatch loop.
#[derive(Clone, Debug)]
pub enum NpWork {
    /// An incoming active message.
    Message(Message),
    /// A page fault deposited by the CPU.
    PageFault(PageFault),
    /// A block access fault deposited by the bus monitor (BAF buffer).
    BlockFault(BlockFault),
    /// An explicit application call into the protocol.
    UserCall(ThreadId, UserCall),
    /// A protocol timer armed via `TempestCtx::set_timer` firing.
    Timer(u64),
}

/// Dispatch classes: response messages, faults, timers, request
/// messages, application calls.
const CLASSES: usize = 5;

impl NpWork {
    /// The work's dispatch class; a lower class is dispatched first.
    /// Timer firings come after faults but before fresh requests, so
    /// retransmission never starves behind request traffic.
    fn class(&self) -> usize {
        match self {
            NpWork::Message(m) if m.vn == VirtualNet::Response => 0,
            NpWork::BlockFault(_) | NpWork::PageFault(_) => 1,
            NpWork::Timer(_) => 2,
            NpWork::Message(_) => 3,
            NpWork::UserCall(..) => 4,
        }
    }
}

/// NP statistics.
#[derive(Clone, Debug, Default)]
pub(crate) struct NpStats {
    /// Handlers dispatched.
    pub(crate) handlers: Counter,
    /// NP instructions charged by handlers.
    pub(crate) instructions: Counter,
    /// Messages received (both nets).
    pub(crate) messages: Counter,
    /// Cycles the NP spent executing handlers.
    pub(crate) busy_cycles: Counter,
}

/// The state of one node's network interface processor.
#[derive(Debug)]
pub(crate) struct NpState {
    /// NP data cache (Table 2: 16 KB, 2-way), used for protocol data
    /// structures; block data moves through the separate block-transfer
    /// buffer and does not pollute it.
    pub(crate) dcache: CacheModel,
    /// NP forward TLB for handler accesses by virtual address.
    pub(crate) tlb: FifoTlb<Vpn>,
    /// Reverse TLB: physical page -> tag/metadata residence, consulted by
    /// the bus monitor on every CPU bus transaction.
    pub(crate) rtlb: FifoTlb<Ppn>,
    /// Pending work, one FIFO per dispatch class ([`NpWork::class`]);
    /// the fault class is the BAF buffer plus page faults.
    queues: [VecDeque<NpWork>; CLASSES],
    /// The NP is executing a handler until this time.
    pub(crate) busy_until: Cycles,
    /// Whether a dispatch event is already scheduled (de-duplication).
    pub(crate) dispatch_pending: bool,
    /// Statistics.
    pub(crate) stats: NpStats,
}

impl NpState {
    /// Creates an NP with Table 2's caches and TLBs.
    pub(crate) fn new(rng: DetRng) -> Self {
        NpState {
            dcache: CacheModel::new(
                NP_DCACHE_BYTES,
                NP_DCACHE_ASSOC,
                tt_base::addr::BLOCK_BYTES,
                rng,
            ),
            tlb: FifoTlb::new(NP_TLB_ENTRIES),
            rtlb: FifoTlb::new(RTLB_ENTRIES),
            queues: Default::default(),
            busy_until: Cycles::ZERO,
            dispatch_pending: false,
            stats: NpStats::default(),
        }
    }

    /// Enqueues a unit of work.
    pub(crate) fn enqueue(&mut self, work: NpWork) {
        if let NpWork::Message(_) = work {
            self.stats.messages.inc();
        }
        self.queues[work.class()].push_back(work);
    }

    /// Removes the oldest work item of the highest-priority class.
    pub(crate) fn next_work(&mut self) -> Option<NpWork> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Whether any work is pending.
    pub(crate) fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::{NodeId, VAddr};
    use tt_mem::AccessKind;
    use tt_net::Payload;
    use tt_tempest::HandlerId;

    fn np() -> NpState {
        NpState::new(DetRng::new(0))
    }

    fn msg(vn: VirtualNet) -> Message {
        Message {
            src: NodeId::new(1),
            dst: NodeId::new(0),
            vn,
            handler: HandlerId(0),
            payload: Payload::new(),
        }
    }

    fn fault() -> NpWork {
        NpWork::PageFault(PageFault {
            thread: ThreadId(NodeId::new(0)),
            addr: VAddr::new(0),
            kind: AccessKind::Load,
        })
    }

    #[test]
    fn dispatch_priority_order() {
        let mut np = np();
        np.enqueue(NpWork::UserCall(ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 0 }));
        np.enqueue(NpWork::Message(msg(VirtualNet::Request)));
        np.enqueue(fault());
        np.enqueue(NpWork::Message(msg(VirtualNet::Response)));

        assert!(matches!(
            np.next_work(),
            Some(NpWork::Message(m)) if m.vn == VirtualNet::Response
        ));
        assert!(matches!(np.next_work(), Some(NpWork::PageFault(_))));
        assert!(matches!(
            np.next_work(),
            Some(NpWork::Message(m)) if m.vn == VirtualNet::Request
        ));
        assert!(matches!(np.next_work(), Some(NpWork::UserCall(..))));
        assert!(np.next_work().is_none());
        assert!(!np.has_work());
    }

    #[test]
    fn fifo_within_a_queue() {
        let mut np = np();
        let mut a = msg(VirtualNet::Request);
        a.handler = HandlerId(1);
        let mut b = msg(VirtualNet::Request);
        b.handler = HandlerId(2);
        np.enqueue(NpWork::Message(a));
        np.enqueue(NpWork::Message(b));
        assert!(matches!(
            np.next_work(),
            Some(NpWork::Message(m)) if m.handler == HandlerId(1)
        ));
        assert!(matches!(
            np.next_work(),
            Some(NpWork::Message(m)) if m.handler == HandlerId(2)
        ));
    }

    #[test]
    fn message_stat_counts_both_nets() {
        let mut np = np();
        np.enqueue(NpWork::Message(msg(VirtualNet::Request)));
        np.enqueue(NpWork::Message(msg(VirtualNet::Response)));
        assert_eq!(np.stats.messages.get(), 2);
    }
}
