//! Known-broken protocols and reusable failure scenarios.
//!
//! Promoted from `tt-typhoon`'s old failure-injection tests so both
//! machines (and the fuzzer) can share them: deliberately broken
//! protocols must be *caught* by the harness's invariants — value
//! verification and the invariant engine catch coherence bugs, the
//! deadlock detector catches lost resumes and mismatched barriers.
//! These give confidence that green fuzzing runs actually prove
//! something.

use tt_base::addr::PAGE_BYTES;
use tt_base::workload::{Layout, Op, Placement, Region, ScriptWorkload, SHARED_SEGMENT_BASE};
use tt_base::{NodeId, SystemConfig, VAddr};
use tt_mem::{PageMeta, Tag};
use tt_net::{Payload, VirtualNet};
use tt_stache::stache::{ACK, INV};
use tt_stache::StacheProtocol;
use tt_tempest::{
    BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId, UserCall,
};

const GET: HandlerId = HandlerId(0x60);
const PUT: HandlerId = HandlerId(0x61);

/// A broken "coherence" protocol: it hands out writable copies of the
/// same block to everyone and never invalidates anything. Any two nodes
/// writing then reading the same word will observe each other's lost
/// updates.
pub struct NeverInvalidate {
    node: NodeId,
    layout: Layout,
    nodes: usize,
    pending: Option<ThreadId>,
}

impl NeverInvalidate {
    /// Builds the protocol for one node.
    pub fn new(node: NodeId, layout: &Layout, cfg: &SystemConfig) -> Self {
        NeverInvalidate { node, layout: layout.clone(), nodes: cfg.nodes, pending: None }
    }

    fn home_of(&self, vpn: tt_base::addr::Vpn) -> NodeId {
        self.layout.home_of(vpn, self.nodes).expect("page in layout").0
    }
}

impl Protocol for NeverInvalidate {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        let node = self.node;
        let mine = self.layout.pages(self.nodes).filter(|&(_, h, _)| h == node);
        for (vpn, _, _) in mine {
            let ppn = ctx.alloc_page();
            ctx.map_page(vpn, ppn).unwrap();
            ctx.set_page_tags(vpn, Tag::ReadWrite);
            ctx.set_page_meta(
                vpn,
                PageMeta { vpn: Some(vpn), mode: 0, user: [self.node.raw() as u64, 0] },
            );
        }
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        let vpn = fault.addr.page();
        let ppn = ctx.alloc_page();
        ctx.map_page(vpn, ppn).unwrap();
        ctx.set_page_tags(vpn, Tag::Invalid);
        ctx.set_page_meta(
            vpn,
            PageMeta { vpn: Some(vpn), mode: 0, user: [self.home_of(vpn).raw() as u64, 0] },
        );
        ctx.resume(fault.thread);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        let home = NodeId::new(fault.meta.user[0] as u16);
        self.pending = Some(fault.thread);
        ctx.send(home, VirtualNet::Request, GET, Payload::args(&[fault.addr.block_base().raw()]));
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            GET => {
                // BUG: gives a writable copy without tracking or
                // invalidating anyone.
                let addr = VAddr::new(msg.arg(0));
                let data = ctx.force_read_block(addr);
                ctx.send(
                    msg.src,
                    VirtualNet::Response,
                    PUT,
                    Payload::with_block(&[addr.raw()], data),
                );
            }
            PUT => {
                let addr = VAddr::new(msg.arg(0));
                let data = msg.payload.block();
                ctx.force_write_block(addr, &data);
                ctx.set_tag(addr, Tag::ReadWrite);
                ctx.resume(self.pending.take().expect("pending fault"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// A protocol that takes the fault and never resumes the thread.
pub struct LoseResume;

impl Protocol for LoseResume {
    fn on_page_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: PageFault) {
        // BUG: thread left suspended forever.
    }
    fn on_block_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: BlockFault) {}
    fn on_message(&mut self, _ctx: &mut dyn TempestCtx, _msg: Message) {}
}

/// The planted protocol bug the fuzzer must find: a full Stache
/// protocol, except that an incoming `INV` is acknowledged *without*
/// invalidating the local copy. The home then believes the block is
/// exclusive at the new writer while a stale readable copy survives —
/// an SWMR / tag-directory violation the invariant engine flags the
/// moment the grant completes, and a lost update the value checks catch
/// soon after.
pub struct SkipInvalidate {
    inner: StacheProtocol,
}

impl SkipInvalidate {
    /// Wraps a freshly built Stache instance for one node.
    pub fn new(node: NodeId, layout: &Layout, cfg: &SystemConfig) -> Self {
        SkipInvalidate { inner: StacheProtocol::new(node, layout, cfg) }
    }
}

impl Protocol for SkipInvalidate {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        self.inner.init(ctx);
    }
    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        self.inner.on_page_fault(ctx, fault);
    }
    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        self.inner.on_block_fault(ctx, fault);
    }
    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        self.inner.on_user_call(ctx, thread, call);
    }
    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        if msg.handler == INV {
            // BUG: acknowledge the invalidation without performing it.
            let addr = VAddr::new(msg.arg(0));
            ctx.send(msg.src, VirtualNet::Response, ACK, Payload::args(&[addr.raw()]));
            return;
        }
        self.inner.on_message(ctx, msg);
    }
    fn inspect_directory(&self, out: &mut Vec<tt_tempest::BlockDirSnapshot>) {
        self.inner.inspect_directory(out);
    }
}

/// One shared page homed on node 0.
pub fn one_page_layout() -> Layout {
    let mut l = Layout::new();
    l.add(Region {
        base: VAddr::new(SHARED_SEGMENT_BASE),
        bytes: PAGE_BYTES,
        placement: Placement::PerPage(vec![NodeId::new(0)]),
        mode: 0,
    });
    l
}

/// Two nodes; node 1 caches a word, node 0 (the home) updates it twice
/// with barriers between, node 1 must observe both updates. A protocol
/// that fails to invalidate node 1's stale copy trips value
/// verification on either machine's run.
pub fn stale_read_workload() -> ScriptWorkload {
    let word = VAddr::new(SHARED_SEGMENT_BASE);
    let mut w = ScriptWorkload::new(2).with_layout(one_page_layout());
    w.set(
        0,
        vec![
            Op::Write { addr: word, value: 1 },
            Op::Barrier,
            Op::Barrier,
            Op::Write { addr: word, value: 2 },
            Op::Barrier,
        ],
    );
    w.set(
        1,
        vec![
            Op::Barrier,
            Op::Read { addr: word, expect: Some(1) },
            Op::Barrier,
            Op::Barrier,
            Op::Read { addr: word, expect: Some(2) },
        ],
    );
    w
}

/// Two nodes; node 0 writes 1 to a word, node 1 reads it after a
/// barrier and expects 3, a value no execution writes. Value
/// verification must fail on any machine, DirNNB included, which has no
/// protocol a test could break instead.
pub fn impossible_read_workload() -> ScriptWorkload {
    let word = VAddr::new(SHARED_SEGMENT_BASE);
    let mut w = ScriptWorkload::new(2).with_layout(one_page_layout());
    w.set(0, vec![Op::Write { addr: word, value: 1 }, Op::Barrier]);
    w.set(1, vec![Op::Barrier, Op::Read { addr: word, expect: Some(3) }]);
    w
}

/// One node reads an unmapped page; a protocol that loses the resume
/// leaves the CPU blocked forever and must hit the deadlock detector.
pub fn lost_resume_workload() -> ScriptWorkload {
    let mut w = ScriptWorkload::new(1).with_layout(one_page_layout());
    w.set(
        0,
        vec![Op::Read {
            addr: VAddr::new(SHARED_SEGMENT_BASE + PAGE_BYTES as u64 * 10),
            expect: None,
        }],
    );
    w
}

/// Node 1 runs one barrier and finishes; node 0 waits at a second
/// barrier that can never release. Both machines must end in their
/// deadlock detector, not hang.
pub fn mismatched_barrier_workload() -> ScriptWorkload {
    let mut w = ScriptWorkload::new(2).with_layout(one_page_layout());
    w.set(0, vec![Op::Barrier, Op::Barrier]);
    w.set(1, vec![Op::Barrier]);
    w
}
