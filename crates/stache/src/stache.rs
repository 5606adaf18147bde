//! The Stache protocol: transparent shared memory in user-level software
//! (paper Section 3).
//!
//! One [`StacheProtocol`] instance runs on each node's NP. A node plays
//! two roles at once:
//!
//! - **home** for the pages the layout assigns it: it owns the per-block
//!   software directory and services coherence requests;
//! - **stacher** for remote pages it touches: it allocates local stache
//!   pages on demand (FIFO replacement when over budget), requests blocks
//!   from homes, and installs replies.
//!
//! The default coherence protocol is invalidation-based with
//! request/response/recall/ack messages, "similar to the LimitLESS
//! protocol, except that it is implemented entirely in software". The
//! paper's handler path lengths (14 instructions to request, 30 to
//! respond at the home, 20 to install the reply) are charged through the
//! Tempest context and are the `STACHE_*_INSTR` constants of
//! `tt_base::config`.

use tt_base::addr::{VAddr, Vpn, BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES};
use tt_base::config::{
    SystemConfig, STACHE_HOME_INSTR, STACHE_PAGE_FAULT_INSTR, STACHE_REPLY_INSTR,
    STACHE_REQUEST_INSTR,
};
use tt_base::stats::{Counter, Report};
use tt_base::workload::Layout;
use tt_base::NodeId;
use tt_mem::dir::{Action, DirView, Directory, Grant, GrantKind, Request};
use tt_mem::{AccessKind, PageMeta, Tag};
use tt_net::{Payload, VirtualNet};
use tt_tempest::{
    BlockDirSnapshot, BlockFault, DirSnapshotState, HandlerId, Message, PageFault, Protocol,
    TempestCtx, ThreadId, VnPolicy,
};

// Handler ids (the "handler PCs" of the paper's active messages).
/// Request a read-only copy. Args: `[block_addr]`.
pub const GET_RO: HandlerId = HandlerId(0x10);
/// Request an exclusive copy. Args: `[block_addr]`.
pub const GET_RW: HandlerId = HandlerId(0x11);
/// Grant a read-only copy. Args: `[block_addr]` + block data.
pub const PUT_RO: HandlerId = HandlerId(0x12);
/// Grant an exclusive copy. Args: `[block_addr]` + block data.
pub const PUT_RW: HandlerId = HandlerId(0x13);
/// Invalidate a shared copy. Args: `[block_addr]`.
pub const INV: HandlerId = HandlerId(0x14);
/// Acknowledge an invalidation. Args: `[block_addr]`.
pub const ACK: HandlerId = HandlerId(0x15);
/// Recall an exclusive copy, downgrading the owner to read-only.
pub const RECALL_RO: HandlerId = HandlerId(0x16);
/// Recall an exclusive copy, invalidating the owner.
pub const RECALL_RW: HandlerId = HandlerId(0x17);
/// Owner returns recalled data. Args: `[block_addr]` + block data.
pub const RECALL_DATA: HandlerId = HandlerId(0x18);
/// Write modified data back on page replacement. Args: `[block_addr]` + data.
pub const WRITEBACK: HandlerId = HandlerId(0x19);

/// The virtual network each Stache handler is declared for — the
/// deadlock-freedom discipline `tt-check` (and [`MockCtx`] in unit
/// tests) asserts on every send. GET/INV/RECALL/WRITEBACK are requests;
/// PUT/ACK/RECALL_DATA answer them on the response net, so a response is
/// never queued behind the request that is waiting for it.
///
/// [`MockCtx`]: tt_tempest::testing::MockCtx
pub fn vn_policy() -> VnPolicy {
    VnPolicy::new()
        .expect(GET_RO, VirtualNet::Request)
        .expect(GET_RW, VirtualNet::Request)
        .expect(INV, VirtualNet::Request)
        .expect(RECALL_RO, VirtualNet::Request)
        .expect(RECALL_RW, VirtualNet::Request)
        .expect(WRITEBACK, VirtualNet::Request)
        .expect(PUT_RO, VirtualNet::Response)
        .expect(PUT_RW, VirtualNet::Response)
        .expect(ACK, VirtualNet::Response)
        .expect(RECALL_DATA, VirtualNet::Response)
}

/// Base instruction cost of the invalidation handler at a sharer.
const INV_HANDLER_INSTR: u64 = 8;
/// Base instruction cost of bookkeeping per acknowledgment at the home.
const ACK_HANDLER_INSTR: u64 = 8;
/// Base instruction cost of a recall handler at the owner.
const RECALL_HANDLER_INSTR: u64 = 12;
/// Base instruction cost per block examined during page replacement.
const REPLACE_PER_BLOCK_INSTR: u64 = 2;

/// Statistics collected by one node's Stache instance.
#[derive(Clone, Debug, Default)]
struct StacheStats {
    /// Block access faults handled.
    block_faults: Counter,
    /// Page faults handled (stache page creations).
    page_faults: Counter,
    /// Read-only block requests sent.
    ro_requests: Counter,
    /// Exclusive block requests sent.
    rw_requests: Counter,
    /// Home-side requests serviced.
    home_requests: Counter,
    /// Invalidations sent.
    invals_sent: Counter,
    /// Recalls sent.
    recalls_sent: Counter,
    /// Writebacks sent (page replacement).
    writebacks_sent: Counter,
    /// Stache pages replaced (FIFO).
    replacements: Counter,
    /// Directory sharer sets that overflowed six pointers.
    sharer_overflows: Counter,
    /// Faults by the home node on its own pages (serviced locally,
    /// without messages).
    home_faults: Counter,
    /// Requests deferred because the block was busy.
    deferred_requests: Counter,
}

/// A fault by this node's CPU awaiting a data reply.
#[derive(Clone, Copy, Debug)]
struct PendingFault {
    thread: ThreadId,
    addr: VAddr,
}

/// The Stache protocol for one node (see module docs).
pub struct StacheProtocol {
    node: NodeId,
    /// The distributed mapping table: the workload's layout answers
    /// every shared page's home and mode.
    layout: Layout,
    /// Machine size (cyclic regions home page `i` on node `i mod nodes`).
    nodes: usize,
    /// The directory of the blocks homed on this node. A block nobody
    /// has recorded reads as uncached (`Idle`: only the home's copy).
    dir: Directory<ThreadId>,
    /// Outstanding fault of the local computation thread.
    pending: Option<PendingFault>,
    /// Stache pages in allocation order (FIFO replacement).
    stache_fifo: Vec<Vpn>,
    /// Maximum stache pages before replacement kicks in.
    capacity_pages: usize,
    stats: StacheStats,
}

impl StacheProtocol {
    /// Builds the node's Stache instance from the workload layout.
    pub fn new(node: NodeId, layout: &Layout, cfg: &SystemConfig) -> Self {
        let capacity_pages = if cfg.stache_capacity_bytes == usize::MAX {
            usize::MAX
        } else {
            (cfg.stache_capacity_bytes / PAGE_BYTES).max(1)
        };
        StacheProtocol {
            node,
            layout: layout.clone(),
            nodes: cfg.nodes,
            dir: Directory::new(cfg.nodes),
            pending: None,
            stache_fifo: Vec::new(),
            capacity_pages,
            stats: StacheStats::default(),
        }
    }

    /// The home node of a shared page.
    ///
    /// # Panics
    ///
    /// Panics if the page is outside the declared shared segment — the
    /// moral equivalent of a wild pointer in the application.
    fn home_of(&self, vpn: Vpn) -> (NodeId, u8) {
        self.layout.home_of(vpn, self.nodes).unwrap_or_else(|| {
            panic!("node {}: access to page {vpn:?} outside the shared segment layout", self.node)
        })
    }

    /// The pages homed on this node with their modes, in ascending order.
    fn home_pages(&self) -> impl Iterator<Item = (Vpn, u8)> + '_ {
        let node = self.node;
        self.layout
            .pages(self.nodes)
            .filter(move |&(_, h, _)| h == node)
            .map(|(vpn, _, mode)| (vpn, mode))
    }

    /// Synthetic NP-data-cache key for a block's directory entry (the
    /// paper packs four 64-bit entries per 32-byte cache line).
    fn dir_key(addr: VAddr) -> u64 {
        addr.raw() / (4 * BLOCK_BYTES) as u64
    }

    // --- Home side: carrying out the directory engine's decisions --------

    /// A request at the home: the engine defers it behind the block's
    /// in-flight transaction or decides it, and this node carries it out.
    fn home_request(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr, req: Request<ThreadId>) {
        ctx.protocol_data_access(Self::dir_key(addr));
        match self.dir.request(addr.raw(), req) {
            Action::Deferred => {
                self.stats.deferred_requests.inc();
                if req.node.is_some() {
                    // The message handler still runs to queue the request.
                    ctx.charge(ACK_HANDLER_INSTR);
                }
            }
            action => self.serve(ctx, addr, action),
        }
    }

    /// Carries out the engine's decision on a request it did not defer:
    /// a grant, an invalidation round or a recall.
    fn serve(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr, action: Action<ThreadId>) {
        ctx.protocol_data_access(Self::dir_key(addr)); // Repeats the caller's probe (1 cycle).
        ctx.charge(STACHE_HOME_INSTR);
        self.stats.home_requests.inc();
        let a = addr.raw();
        match action {
            Action::Grant(grant) => self.grant(ctx, addr, grant),
            Action::Invalidate(targets) => {
                self.stats.invals_sent.add(targets.len() as u64);
                for s in targets {
                    ctx.send(s, VirtualNet::Request, INV, Payload::args(&[a]));
                }
            }
            Action::Recall { owner, invalidate } => {
                self.stats.recalls_sent.inc();
                let handler = if invalidate { RECALL_RW } else { RECALL_RO };
                ctx.send(owner, VirtualNet::Request, handler, Payload::args(&[a]));
            }
            Action::Deferred => unreachable!("a deferred request is not served"),
        }
    }

    /// Answers a granted request. The home's tag follows what the grant
    /// leaves the home holding (the only copy, a shared copy, or none),
    /// then the data goes out or the home's own thread resumes.
    fn grant(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr, grant: Grant<ThreadId>) {
        let handler = match grant.kind {
            GrantKind::Exclusive => {
                let home_tag = match grant.to.node {
                    Some(_) => Tag::Invalid,
                    None => Tag::ReadWrite,
                };
                ctx.set_tag(addr, home_tag);
                PUT_RW
            }
            GrantKind::Shared => {
                ctx.set_tag(addr, Tag::ReadOnly);
                PUT_RO
            }
            // The block was already shared, so the home's tag is ReadOnly.
            GrantKind::Joined { overflowed } => {
                if overflowed {
                    self.stats.sharer_overflows.inc();
                }
                PUT_RO
            }
        };
        match grant.to.node {
            Some(r) => {
                let data = ctx.force_read_block(addr);
                let payload = Payload::with_block(&[addr.raw()], data);
                ctx.send(r, VirtualNet::Response, handler, payload);
            }
            None => ctx.resume(grant.to.token),
        }
    }

    /// Serves the block's deferred requests in FIFO order until one of
    /// them starts a new transaction.
    fn drain(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr) {
        while let Some(action) = self.dir.next_deferred(addr.raw()) {
            self.serve(ctx, addr, action);
        }
    }

    // --- Message handlers ------------------------------------------------

    fn on_get(&mut self, ctx: &mut dyn TempestCtx, msg: &Message, exclusive: bool) {
        let req = Request { node: Some(msg.src), exclusive, token: ThreadId(msg.src) };
        self.home_request(ctx, VAddr::new(msg.arg(0)), req);
    }

    fn on_put(&mut self, ctx: &mut dyn TempestCtx, msg: &Message, tag: Tag) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(STACHE_REPLY_INSTR);
        let data = msg.payload.block();
        ctx.force_write_block(addr, &data);
        ctx.set_tag(addr, tag);
        let pending = self.pending.take().expect("PUT with no outstanding fault");
        debug_assert_eq!(pending.addr.block_base(), addr.block_base());
        ctx.resume(pending.thread);
    }

    fn on_inv(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(INV_HANDLER_INSTR);
        // The page may have been replaced (shared copies are dropped
        // silently), in which case there is nothing to invalidate but the
        // home still needs its acknowledgment.
        if ctx.translate(addr.page()).is_some() {
            ctx.set_tag(addr, Tag::Invalid);
        }
        ctx.send(msg.src, VirtualNet::Response, ACK, Payload::args(&[addr.raw()]));
    }

    fn on_ack(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(ACK_HANDLER_INSTR);
        ctx.protocol_data_access(Self::dir_key(addr));
        // The final acknowledgment's handler sends the data (paper §3).
        if let Some(grant) = self.dir.ack(addr.raw()) {
            ctx.charge(STACHE_HOME_INSTR);
            self.grant(ctx, addr, grant);
            self.drain(ctx, addr);
        }
    }

    fn on_recall(&mut self, ctx: &mut dyn TempestCtx, msg: &Message, invalidate: bool) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(RECALL_HANDLER_INSTR);
        // If we already gave the block up (page replacement writeback in
        // flight), ignore: the home completes via the WRITEBACK message.
        if ctx.translate(addr.page()).is_none() || ctx.read_tag(addr) != Tag::ReadWrite {
            return;
        }
        let data = ctx.force_read_block(addr);
        let new_tag = if invalidate { Tag::Invalid } else { Tag::ReadOnly };
        ctx.set_tag(addr, new_tag);
        ctx.send(
            msg.src,
            VirtualNet::Response,
            RECALL_DATA,
            Payload::with_block(&[addr.raw()], data),
        );
    }

    fn on_recall_data(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let grant = self.dir.recall_data(addr.raw(), msg.src);
        self.complete_recall(ctx, addr, &msg.payload.block(), grant);
    }

    /// Completes a recall with returned data (from RECALL_DATA, or from a
    /// racing WRITEBACK by the owner) and answers the recall's request.
    fn complete_recall(
        &mut self,
        ctx: &mut dyn TempestCtx,
        addr: VAddr,
        data: &[u8; BLOCK_BYTES],
        grant: Grant<ThreadId>,
    ) {
        ctx.charge(STACHE_HOME_INSTR);
        ctx.protocol_data_access(Self::dir_key(addr)); // A repeat after on_writeback's.
        ctx.force_write_block(addr, data);
        self.grant(ctx, addr, grant);
        self.drain(ctx, addr);
    }

    fn on_writeback(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let data = msg.payload.block();
        ctx.protocol_data_access(Self::dir_key(addr));
        match self.dir.writeback(addr.raw(), msg.src) {
            // The owner replaced the page while our recall was in flight;
            // its writeback carries the data we wanted.
            Some(grant) => self.complete_recall(ctx, addr, &data, grant),
            None => {
                ctx.charge(ACK_HANDLER_INSTR);
                ctx.force_write_block(addr, &data);
                ctx.set_tag(addr, Tag::ReadWrite);
            }
        }
    }

    // --- Stache page management -----------------------------------------

    /// Replaces the oldest stache page: modified (ReadWrite) blocks are
    /// written back to their home; read-only copies are dropped silently
    /// (the home's sharer pointer goes stale, which later invalidations
    /// tolerate). The frame is then unmapped and freed.
    fn replace_page(&mut self, ctx: &mut dyn TempestCtx) {
        let victim = self.stache_fifo.remove(0);
        let (home, _) = self.home_of(victim);
        self.stats.replacements.inc();
        let base = victim.base();
        for b in 0..BLOCKS_PER_PAGE {
            ctx.charge(REPLACE_PER_BLOCK_INSTR);
            let addr = base.offset((b * BLOCK_BYTES) as u64);
            match ctx.read_tag(addr) {
                Tag::ReadWrite => {
                    self.stats.writebacks_sent.inc();
                    let data = ctx.force_read_block(addr);
                    ctx.send(
                        home,
                        VirtualNet::Request,
                        WRITEBACK,
                        Payload::with_block(&[addr.raw()], data),
                    );
                }
                Tag::ReadOnly | Tag::Invalid => {}
                Tag::Busy => panic!("replacing a page with an outstanding request"),
            }
        }
        let ppn = ctx.unmap_page(victim).expect("victim is mapped");
        ctx.free_page(ppn);
    }
}

impl Protocol for StacheProtocol {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        // Create home pages: map them writable (the paper's shared-memory
        // allocation functions). The layout yields pages in ascending
        // order, so physical frames are handed out in a canonical order:
        // frame numbers feed the NP data-cache set mapping. Directory
        // entries are allocated when a block is first recorded.
        for (vpn, mode) in self.home_pages() {
            let ppn = ctx.alloc_page();
            ctx.map_page(vpn, ppn).expect("fresh mapping");
            ctx.set_page_tags(vpn, Tag::ReadWrite);
            ctx.set_page_meta(
                vpn,
                PageMeta { vpn: Some(vpn), mode, user: [self.node.raw() as u64, 0] },
            );
        }
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        let vpn = fault.addr.page();
        let (home, mode) = self.home_of(vpn);
        assert_ne!(home, self.node, "home pages are mapped at init");
        self.stats.page_faults.inc();
        ctx.charge(STACHE_PAGE_FAULT_INSTR);
        if self.stache_fifo.len() + 1 > self.capacity_pages {
            self.replace_page(ctx);
        }
        let ppn = ctx.alloc_page();
        ctx.map_page(vpn, ppn).expect("page was unmapped");
        ctx.set_page_tags(vpn, Tag::Invalid);
        ctx.set_page_meta(vpn, PageMeta { vpn: Some(vpn), mode, user: [home.raw() as u64, 0] });
        self.stache_fifo.push(vpn);
        // Restart the access; it will now take a block access fault
        // (the paper deliberately does NOT send the request from here).
        ctx.resume(fault.thread);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        self.stats.block_faults.inc();
        let addr = fault.addr.block_base();
        let home = NodeId::new(fault.meta.user[0] as u16);
        let exclusive = fault.kind == AccessKind::Store;
        if home == self.node {
            // Home faults access the directory directly (paper §3).
            self.stats.home_faults.inc();
            let req = Request { node: None, exclusive, token: fault.thread };
            self.home_request(ctx, addr, req);
            return;
        }
        ctx.charge(STACHE_REQUEST_INSTR);
        let handler = if exclusive {
            self.stats.rw_requests.inc();
            GET_RW
        } else {
            self.stats.ro_requests.inc();
            GET_RO
        };
        // Mark the block busy (request outstanding) and ask the home.
        ctx.set_tag(addr, Tag::Busy);
        self.pending = Some(PendingFault { thread: fault.thread, addr });
        ctx.send(home, VirtualNet::Request, handler, Payload::args(&[addr.raw()]));
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            GET_RO => self.on_get(ctx, &msg, false),
            GET_RW => self.on_get(ctx, &msg, true),
            PUT_RO => self.on_put(ctx, &msg, Tag::ReadOnly),
            PUT_RW => self.on_put(ctx, &msg, Tag::ReadWrite),
            INV => self.on_inv(ctx, &msg),
            ACK => self.on_ack(ctx, &msg),
            RECALL_RO => self.on_recall(ctx, &msg, false),
            RECALL_RW => self.on_recall(ctx, &msg, true),
            RECALL_DATA => self.on_recall_data(ctx, &msg),
            WRITEBACK => self.on_writeback(ctx, &msg),
            other => panic!("stache: unknown handler {other:?}"),
        }
    }

    fn report(&self, report: &mut Report) {
        let s = &self.stats;
        report.push_count("stache.block_faults", s.block_faults.get());
        report.push_count("stache.page_faults", s.page_faults.get());
        report.push_count("stache.ro_requests", s.ro_requests.get());
        report.push_count("stache.rw_requests", s.rw_requests.get());
        report.push_count("stache.home_requests", s.home_requests.get());
        report.push_count("stache.invals_sent", s.invals_sent.get());
        report.push_count("stache.recalls_sent", s.recalls_sent.get());
        report.push_count("stache.writebacks_sent", s.writebacks_sent.get());
        report.push_count("stache.replacements", s.replacements.get());
        report.push_count("stache.sharer_overflows", s.sharer_overflows.get());
        report.push_count("stache.home_faults", s.home_faults.get());
        report.push_count("stache.deferred_requests", s.deferred_requests.get());
    }

    fn inspect_directory(&self, out: &mut Vec<BlockDirSnapshot>) {
        for (vpn, _) in self.home_pages() {
            for i in 0..BLOCKS_PER_PAGE {
                let addr = vpn.base().offset((i * BLOCK_BYTES) as u64);
                let a = addr.raw();
                let state = match self.dir.view(a) {
                    DirView::Uncached => DirSnapshotState::Idle,
                    DirView::Shared => DirSnapshotState::Shared(self.dir.sharers(a)),
                    DirView::Exclusive(owner) => DirSnapshotState::Exclusive(owner),
                };
                out.push(BlockDirSnapshot {
                    addr,
                    home: self.node,
                    state,
                    busy: self.dir.is_busy(a),
                });
            }
        }
    }
}
