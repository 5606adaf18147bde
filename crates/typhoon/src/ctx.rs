//! Typhoon's implementation of the Tempest context.
//!
//! A `NodeCtx` is constructed for the duration of one protocol handler
//! invocation. It accumulates the handler's cost (charged instructions,
//! NP cache and TLB delays, block transfers) so that messages sent and
//! threads resumed *during* the handler carry the correct timestamps —
//! the paper's observation that "the critical path is even shorter, since
//! most bookkeeping is performed after a message is sent" falls out
//! naturally: a handler that charges bookkeeping instructions after its
//! `send` does not delay the message.

use tt_base::addr::{Ppn, VAddr, Vpn, BLOCK_BYTES};
use tt_base::config::{SystemConfig, LOCAL_MISS, NP_BLOCK_XFER, NP_TLB_MISS};
use tt_base::{Cycles, NodeId};
use tt_mem::cache::Probe;
use tt_mem::ptable::MapError;
use tt_mem::{PageMeta, Tag};
use tt_net::{Network, Payload, VirtualNet};
use tt_sim::cpu::Stall;
use tt_sim::EventQueue;
use tt_tempest::{HandlerId, Message, TempestCtx, ThreadId};

use crate::cpu::issue_access;
use crate::machine::{Event, NodeState};

/// The per-handler Tempest context (see module docs).
pub(crate) struct NodeCtx<'a> {
    pub(crate) id: NodeId,
    pub(crate) cfg: &'a SystemConfig,
    /// Time the handler began executing (after dispatch overhead).
    pub(crate) start: Cycles,
    /// Cost accumulated so far by this handler.
    pub(crate) cost: Cycles,
    /// The node the handler runs on: its CPU, NP, memory and page table.
    pub(crate) node: &'a mut NodeState,
    pub(crate) network: &'a mut Network,
    pub(crate) queue: &'a mut EventQueue<Event>,
}

impl NodeCtx<'_> {
    /// Total handler cost accumulated (the machine uses this to set the
    /// NP busy time).
    pub(crate) fn total_cost(&self) -> Cycles {
        self.cost
    }

    fn translate_or_die(&self, addr: VAddr) -> tt_base::addr::PAddr {
        self.node.ptable.translate_addr(addr).unwrap_or_else(|| {
            panic!(
                "node {}: NP access to unmapped address {addr} — an NP page \
                 fault is a user programming error (paper Section 5.1)",
                self.id
            )
        })
    }

    /// Charges an NP forward-TLB access for a handler memory operation.
    fn charge_np_tlb(&mut self, vpn: Vpn) {
        if self.node.np.tlb.access(vpn) {
            self.cost += Cycles::new(1);
        } else {
            self.cost += NP_TLB_MISS;
        }
    }

    /// Charges an RTLB access for a tag operation.
    fn charge_rtlb(&mut self, ppn: Ppn) {
        if self.node.np.rtlb.access(ppn) {
            self.cost += Cycles::new(1);
        } else {
            self.cost += NP_TLB_MISS;
        }
    }

    /// Keeps the primary CPU's cache consistent with a new tag value: a
    /// block the CPU may no longer write is downgraded, a block it may no
    /// longer access is purged (the NP issues the MBus coherence
    /// transaction).
    fn enforce_cache_consistency(&mut self, paddr: tt_base::addr::PAddr, tag: Tag) {
        let key = paddr.raw() / BLOCK_BYTES as u64;
        match tag {
            Tag::ReadWrite => {}
            Tag::ReadOnly => {
                if self.node.cpu.cache.peek(key) == Probe::HitOwned {
                    self.node.cpu.cache.set_owned(key, false);
                }
            }
            Tag::Invalid | Tag::Busy => {
                self.node.cpu.cache.invalidate(key);
            }
        }
    }
}

impl TempestCtx for NodeCtx<'_> {
    fn node(&self) -> NodeId {
        self.id
    }

    fn now(&self) -> Cycles {
        self.start + self.cost
    }

    fn charge(&mut self, instructions: u64) {
        let scaled = self.cfg.scaled_handler_instr(instructions);
        self.cost += Cycles::new(scaled);
        self.node.np.stats.instructions.add(scaled);
    }

    fn protocol_data_access(&mut self, key: u64) {
        match self.node.np.dcache.probe(key) {
            Probe::Miss => {
                self.cost += LOCAL_MISS;
                self.node.np.dcache.fill(key, true);
            }
            _ => self.cost += Cycles::new(1),
        }
    }

    fn send(&mut self, dst: NodeId, vn: VirtualNet, handler: HandlerId, payload: Payload) {
        let wire = payload.wire_bytes();
        let msg = Message { src: self.id, dst, vn, handler, payload };
        // `transmit` applies the installed fault schedule (if any) and
        // yields zero, one, or two delivery times; with no fault plan it
        // is exactly one delivery.
        for at in self.network.transmit(self.now(), self.id, dst, wire).iter() {
            self.queue.schedule(at, Event::Deliver(msg.clone()));
        }
    }

    fn set_timer(&mut self, at: Cycles, token: u64) {
        // The firing is ordinary NP work on this node: it participates
        // in the deterministic event order like every message delivery.
        let at = at.max(self.now());
        self.queue.schedule(
            at,
            Event::NpWork { node: self.id.index(), work: crate::np::NpWork::Timer(token) },
        );
    }

    fn alloc_page(&mut self) -> Ppn {
        self.node.mem.alloc()
    }

    fn free_page(&mut self, ppn: Ppn) {
        self.node.mem.free(ppn);
    }

    fn map_page(&mut self, vpn: Vpn, ppn: Ppn) -> Result<(), MapError> {
        self.node.ptable.map(vpn, ppn)?;
        self.node.mem.frame_mut(ppn).meta.vpn = Some(vpn);
        Ok(())
    }

    fn unmap_page(&mut self, vpn: Vpn) -> Result<Ppn, MapError> {
        let ppn = self.node.ptable.unmap(vpn)?;
        // Stale translations and tag residency must be flushed, and any
        // CPU-cached blocks of the frame purged (the frame is about to be
        // re-purposed).
        self.node.cpu.tlb.flush(vpn);
        self.node.np.tlb.flush(vpn);
        self.node.np.rtlb.flush(ppn);
        let first_block = ppn.base().raw() / BLOCK_BYTES as u64;
        self.node
            .cpu
            .cache
            .invalidate_range(first_block..first_block + tt_base::addr::BLOCKS_PER_PAGE as u64);
        self.node.mem.frame_mut(ppn).meta.vpn = None;
        Ok(ppn)
    }

    fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        self.node.ptable.translate(vpn)
    }

    fn set_page_meta(&mut self, vpn: Vpn, meta: PageMeta) {
        let ppn = self
            .node
            .ptable
            .translate(vpn)
            .unwrap_or_else(|| panic!("set_page_meta on unmapped page {vpn:?}"));
        let mut meta = meta;
        meta.vpn = Some(vpn);
        self.node.mem.frame_mut(ppn).meta = meta;
    }

    fn read_tag(&self, addr: VAddr) -> Tag {
        let paddr = self.translate_or_die(addr);
        self.node.mem.tag(paddr)
    }

    fn set_tag(&mut self, addr: VAddr, tag: Tag) {
        let paddr = self.translate_or_die(addr);
        self.charge_rtlb(paddr.page());
        self.node.mem.set_tag(paddr, tag);
        self.enforce_cache_consistency(paddr, tag);
    }

    fn set_page_tags(&mut self, vpn: Vpn, tag: Tag) {
        let ppn = self
            .node
            .ptable
            .translate(vpn)
            .unwrap_or_else(|| panic!("set_page_tags on unmapped page {vpn:?}"));
        self.charge_rtlb(ppn);
        self.node.mem.frame_mut(ppn).set_all_tags(tag);
        if tag != Tag::ReadWrite {
            let first = ppn.base();
            for b in 0..tt_base::addr::BLOCKS_PER_PAGE {
                self.enforce_cache_consistency(first.offset((b * BLOCK_BYTES) as u64), tag);
            }
        }
    }

    fn force_read_block(&mut self, addr: VAddr) -> [u8; BLOCK_BYTES] {
        self.charge_np_tlb(addr.page());
        self.cost += NP_BLOCK_XFER;
        let paddr = self.translate_or_die(addr);
        self.node.mem.read_block(paddr)
    }

    fn force_write_block(&mut self, addr: VAddr, block: &[u8; BLOCK_BYTES]) {
        self.charge_np_tlb(addr.page());
        self.cost += NP_BLOCK_XFER;
        let paddr = self.translate_or_die(addr);
        self.node.mem.write_block(paddr, block);
        // The block-transfer path is coherent with the CPU cache: purge
        // any (now stale) CPU copy.
        self.node.cpu.cache.invalidate(paddr.raw() / BLOCK_BYTES as u64);
    }

    fn resume(&mut self, thread: ThreadId) {
        assert_eq!(
            thread.node(),
            self.id,
            "resume of a non-local thread: handlers can only resume their own node's computation"
        );
        let reason = self.node.cpu.stream.resume(self.now() + Cycles::new(1));
        // Resuming unmasks the CPU's nacked bus transaction, which
        // completes *before* the NP dispatches another handler — so the
        // retried access is attempted right here (and counts as an op
        // again; it may re-fault, e.g. a page-fault handler resuming
        // into a block fault). Without this, a recall or invalidation
        // queued behind the current handler would systematically steal
        // the block before the retry, and two writers hammering one
        // block could livelock (real Typhoon gives the pending
        // transaction the same priority).
        if reason == Stall::Fault {
            let stream = &mut self.node.cpu.stream;
            stream.ops.inc();
            let access = stream.pending_access();
            issue_access(self.cfg, self.node, self.queue, access);
        }
        let n = self.id.index();
        self.node.cpu.stream.wake(self.queue, Event::CpuStep(n));
    }
}
