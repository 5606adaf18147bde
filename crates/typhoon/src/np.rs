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
//! faults, then the request network, then explicit application calls.

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
pub struct NpState {
    /// NP data cache (Table 2: 16 KB, 2-way), used for protocol data
    /// structures; block data moves through the separate block-transfer
    /// buffer and does not pollute it.
    pub(crate) dcache: CacheModel,
    /// NP forward TLB for handler accesses by virtual address.
    pub(crate) tlb: FifoTlb<Vpn>,
    /// Reverse TLB: physical page -> tag/metadata residence, consulted by
    /// the bus monitor on every CPU bus transaction.
    pub(crate) rtlb: FifoTlb<Ppn>,
    /// High-priority queue: messages from the response network.
    pub(crate) response_q: VecDeque<Message>,
    /// Fault records (the BAF buffer plus page faults).
    pub(crate) fault_q: VecDeque<NpWork>,
    /// Low-priority queue: messages from the request network.
    pub(crate) request_q: VecDeque<Message>,
    /// Protocol timer firings; serviced after faults but before fresh
    /// requests, so retransmission never starves behind request traffic.
    pub(crate) timer_q: VecDeque<u64>,
    /// Application calls.
    pub(crate) call_q: VecDeque<(ThreadId, UserCall)>,
    /// The NP is executing a handler until this time.
    pub(crate) busy_until: Cycles,
    /// Whether a dispatch event is already scheduled (de-duplication).
    pub(crate) dispatch_pending: bool,
    /// Statistics.
    pub(crate) stats: NpStats,
}

impl NpState {
    /// Creates an NP with Table 2's caches and TLBs.
    pub fn new(rng: DetRng) -> Self {
        NpState {
            dcache: CacheModel::new(
                NP_DCACHE_BYTES,
                NP_DCACHE_ASSOC,
                tt_base::addr::BLOCK_BYTES,
                rng,
            ),
            tlb: FifoTlb::new(NP_TLB_ENTRIES),
            rtlb: FifoTlb::new(RTLB_ENTRIES),
            response_q: VecDeque::new(),
            fault_q: VecDeque::new(),
            timer_q: VecDeque::new(),
            request_q: VecDeque::new(),
            call_q: VecDeque::new(),
            busy_until: Cycles::ZERO,
            dispatch_pending: false,
            stats: NpStats::default(),
        }
    }

    /// Enqueues a unit of work.
    pub(crate) fn enqueue(&mut self, work: NpWork) {
        match work {
            NpWork::Message(m) => {
                self.stats.messages.inc();
                match m.vn {
                    VirtualNet::Response => self.response_q.push_back(m),
                    VirtualNet::Request => self.request_q.push_back(m),
                }
            }
            NpWork::BlockFault(_) | NpWork::PageFault(_) => self.fault_q.push_back(work),
            NpWork::Timer(t) => self.timer_q.push_back(t),
            NpWork::UserCall(t, c) => self.call_q.push_back((t, c)),
        }
    }

    /// Removes the highest-priority pending work item.
    pub(crate) fn next_work(&mut self) -> Option<NpWork> {
        if let Some(m) = self.response_q.pop_front() {
            return Some(NpWork::Message(m));
        }
        if let Some(w) = self.fault_q.pop_front() {
            return Some(w);
        }
        if let Some(t) = self.timer_q.pop_front() {
            return Some(NpWork::Timer(t));
        }
        if let Some(m) = self.request_q.pop_front() {
            return Some(NpWork::Message(m));
        }
        if let Some((t, c)) = self.call_q.pop_front() {
            return Some(NpWork::UserCall(t, c));
        }
        None
    }

    /// Whether any work is pending.
    pub(crate) fn has_work(&self) -> bool {
        !self.response_q.is_empty()
            || !self.fault_q.is_empty()
            || !self.timer_q.is_empty()
            || !self.request_q.is_empty()
            || !self.call_q.is_empty()
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
        Message { src: NodeId::new(1), vn, handler: HandlerId(0), payload: Payload::new() }
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
