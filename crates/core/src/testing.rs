//! Test support: an in-memory [`TempestCtx`] for unit-testing protocols.
//!
//! Machine-level tests (see `tt-typhoon`) exercise protocols end to end,
//! but state-machine bugs are easier to pin down against a context that
//! simply records what the handler did. [`MockCtx`] provides real memory,
//! tags, and page tables, and logs every message sent and every resume;
//! timing charges accumulate into a plain counter. Tests inspect memory
//! through [`MockCtx::read_word`], [`MockCtx::write_word`] and
//! [`MockCtx::page_meta`], which bypass the protocol interface.
//!
//! # Example
//!
//! ```
//! use tt_tempest::testing::MockCtx;
//! use tt_tempest::TempestCtx;
//! use tt_base::addr::Vpn;
//! use tt_mem::Tag;
//!
//! let mut ctx = MockCtx::new(0);
//! let ppn = ctx.alloc_page();
//! ctx.map_page(Vpn(0x10000), ppn).unwrap();
//! ctx.set_page_tags(Vpn(0x10000), Tag::ReadWrite);
//! ctx.write_word(Vpn(0x10000).base(), 7);
//! assert_eq!(ctx.read_word(Vpn(0x10000).base()), 7);
//! ```

use tt_base::addr::{Ppn, VAddr, Vpn, BLOCK_BYTES};
use tt_base::{Cycles, NodeId};
use tt_mem::ptable::MapError;
use tt_mem::{NodeMemory, PageMeta, PageTable, Tag};
use tt_net::{Payload, VirtualNet};

use crate::ctx::TempestCtx;
use crate::fault::{NetFault, ThreadId};
use crate::inspect::VnPolicy;
use crate::msg::HandlerId;

/// A message recorded by [`MockCtx::send`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SentMessage {
    /// Destination node.
    pub dst: NodeId,
    /// Virtual network used.
    pub vn: VirtualNet,
    /// Handler named.
    pub handler: HandlerId,
    /// Payload.
    pub payload: Payload,
}

/// An in-memory Tempest context that records handler effects
/// (see module docs).
#[derive(Debug)]
pub struct MockCtx {
    node: NodeId,
    now: Cycles,
    /// Functional memory (data + tags).
    pub mem: NodeMemory,
    /// Page table.
    pub ptable: PageTable,
    /// Every message sent, in order.
    pub sent: Vec<SentMessage>,
    /// Every thread resumed, in order.
    pub resumed: Vec<ThreadId>,
    /// Instructions charged.
    pub charged: u64,
    /// Protocol-data accesses recorded (keys, in order).
    pub data_accesses: Vec<u64>,
    /// Every timer armed via `set_timer`, in order: `(deadline, token)`.
    pub timers: Vec<(Cycles, u64)>,
    /// Every unrecoverable network fault raised, in order.
    pub net_faults: Vec<NetFault>,
    /// Virtual-net discipline enforced on every `send` — the same
    /// waits-for rule the `tt-check` invariant engine asserts at machine
    /// level (see [`VnPolicy::assert_send`]). Empty by default, so tests
    /// of ad-hoc protocols are unaffected until they declare a policy.
    vn_policy: VnPolicy,
}

impl MockCtx {
    /// A context for node `node`.
    pub fn new(node: u16) -> Self {
        MockCtx {
            node: NodeId::new(node),
            now: Cycles::ZERO,
            mem: NodeMemory::new(),
            ptable: PageTable::new(),
            sent: Vec::new(),
            resumed: Vec::new(),
            charged: 0,
            data_accesses: Vec::new(),
            timers: Vec::new(),
            net_faults: Vec::new(),
            vn_policy: VnPolicy::new(),
        }
    }

    /// Installs the virtual-net policy [`MockCtx::send`] asserts against.
    pub fn set_vn_policy(&mut self, policy: VnPolicy) {
        self.vn_policy = policy;
    }

    /// Allocates, maps, and tags a page in one step; returns the frame.
    pub fn install_page(&mut self, vpn: Vpn, tag: Tag, meta: PageMeta) -> Ppn {
        let ppn = self.alloc_page();
        self.map_page(vpn, ppn).expect("fresh mapping");
        self.set_page_tags(vpn, tag);
        self.set_page_meta(vpn, meta);
        ppn
    }

    /// The last message sent, if any.
    pub fn last_sent(&self) -> Option<&SentMessage> {
        self.sent.last()
    }

    /// Clears the recorded effects (keeps memory and mappings).
    pub fn clear_effects(&mut self) {
        self.sent.clear();
        self.resumed.clear();
        self.charged = 0;
        self.data_accesses.clear();
        self.timers.clear();
        self.net_faults.clear();
    }

    /// The word at `addr` (no tag check).
    pub fn read_word(&self, addr: VAddr) -> u64 {
        self.mem.read_word(self.paddr(addr))
    }

    /// Writes the word at `addr` (no tag check).
    pub fn write_word(&mut self, addr: VAddr, value: u64) {
        let paddr = self.paddr(addr);
        self.mem.write_word(paddr, value);
    }

    /// The metadata of the frame mapping `vpn`, if it is mapped.
    pub fn page_meta(&self, vpn: Vpn) -> Option<PageMeta> {
        self.ptable.translate(vpn).map(|p| self.mem.frame(p).meta)
    }

    /// Advances the mock clock.
    pub fn advance(&mut self, by: Cycles) {
        self.now += by;
    }

    fn paddr(&self, addr: VAddr) -> tt_base::addr::PAddr {
        self.ptable
            .translate_addr(addr)
            .unwrap_or_else(|| panic!("mock: access to unmapped address {addr}"))
    }
}

impl TempestCtx for MockCtx {
    fn node(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> Cycles {
        self.now
    }

    fn charge(&mut self, instructions: u64) {
        self.charged += instructions;
    }

    fn protocol_data_access(&mut self, key: u64) {
        self.data_accesses.push(key);
    }

    fn send(&mut self, dst: NodeId, vn: VirtualNet, handler: HandlerId, payload: Payload) {
        self.vn_policy.assert_send(handler, vn);
        self.sent.push(SentMessage { dst, vn, handler, payload });
    }

    fn set_timer(&mut self, at: Cycles, token: u64) {
        self.timers.push((at, token));
    }

    fn raise_net_fault(&mut self, fault: NetFault) {
        self.net_faults.push(fault);
    }

    fn alloc_page(&mut self) -> Ppn {
        self.mem.alloc()
    }

    fn free_page(&mut self, ppn: Ppn) {
        self.mem.free(ppn);
    }

    fn map_page(&mut self, vpn: Vpn, ppn: Ppn) -> Result<(), MapError> {
        self.ptable.map(vpn, ppn)?;
        self.mem.frame_mut(ppn).meta.vpn = Some(vpn);
        Ok(())
    }

    fn unmap_page(&mut self, vpn: Vpn) -> Result<Ppn, MapError> {
        let ppn = self.ptable.unmap(vpn)?;
        self.mem.frame_mut(ppn).meta.vpn = None;
        Ok(ppn)
    }

    fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        self.ptable.translate(vpn)
    }

    fn set_page_meta(&mut self, vpn: Vpn, meta: PageMeta) {
        let ppn = self.ptable.translate(vpn).expect("mapped page");
        let mut meta = meta;
        meta.vpn = Some(vpn);
        self.mem.frame_mut(ppn).meta = meta;
    }

    fn read_tag(&self, addr: VAddr) -> Tag {
        self.mem.tag(self.paddr(addr))
    }

    fn set_tag(&mut self, addr: VAddr, tag: Tag) {
        let paddr = self.paddr(addr);
        self.mem.set_tag(paddr, tag);
    }

    fn set_page_tags(&mut self, vpn: Vpn, tag: Tag) {
        let ppn = self.ptable.translate(vpn).expect("mapped page");
        self.mem.frame_mut(ppn).set_all_tags(tag);
    }

    fn force_read_block(&mut self, addr: VAddr) -> [u8; BLOCK_BYTES] {
        let paddr = self.paddr(addr);
        self.mem.read_block(paddr)
    }

    fn force_write_block(&mut self, addr: VAddr, block: &[u8; BLOCK_BYTES]) {
        let paddr = self.paddr(addr);
        self.mem.write_block(paddr, block);
    }

    fn resume(&mut self, thread: ThreadId) {
        self.resumed.push(thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_sends_and_resumes() {
        let mut ctx = MockCtx::new(1);
        ctx.send(NodeId::new(2), VirtualNet::Request, HandlerId(9), Payload::args(&[1]));
        ctx.resume(ThreadId(NodeId::new(1)));
        ctx.charge(14);
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(ctx.last_sent().unwrap().handler, HandlerId(9));
        assert_eq!(ctx.resumed, vec![ThreadId(NodeId::new(1))]);
        assert_eq!(ctx.charged, 14);
        ctx.clear_effects();
        assert!(ctx.sent.is_empty() && ctx.resumed.is_empty());
    }

    #[test]
    #[should_panic(expected = "virtual-net violation")]
    fn send_enforces_the_declared_vn_policy() {
        let mut ctx = MockCtx::new(0);
        ctx.set_vn_policy(VnPolicy::new().expect(HandlerId(9), VirtualNet::Response));
        // A "response" handler sent on the request net is exactly the
        // waits-for bug the two-network design exists to exclude.
        ctx.send(NodeId::new(2), VirtualNet::Request, HandlerId(9), Payload::new());
    }

    #[test]
    fn install_page_round_trips() {
        let mut ctx = MockCtx::new(0);
        let meta = PageMeta { vpn: None, mode: 3, user: [5, 6] };
        ctx.install_page(Vpn(7), Tag::ReadOnly, meta);
        assert_eq!(ctx.read_tag(Vpn(7).base()), Tag::ReadOnly);
        let m = ctx.page_meta(Vpn(7)).unwrap();
        assert_eq!(m.mode, 3);
        assert_eq!(m.vpn, Some(Vpn(7)));
    }
}
