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

use tt_base::addr::{VAddr, Vpn, BLOCK_BYTES, PAGE_BYTES};
use tt_base::config::{
    SystemConfig, STACHE_HOME_INSTR, STACHE_PAGE_FAULT_INSTR, STACHE_REPLY_INSTR,
    STACHE_REQUEST_INSTR,
};
use tt_base::stats::{Counter, Report};
use tt_base::workload::Layout;
use tt_base::{FxHashMap, NodeId};
use tt_mem::{AccessKind, PageMeta, Tag};
use tt_net::{Payload, VirtualNet};
use tt_tempest::{
    BlockDirSnapshot, BlockFault, DirSnapshotState, HandlerId, Message, PageFault, Protocol,
    TempestCtx, ThreadId, VnPolicy,
};

use crate::dir::{BlockDir, Busy, DirState, PageDirectory, PendingReq, ReqKind, Requester};

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
pub struct StacheStats {
    /// Block access faults handled.
    pub block_faults: Counter,
    /// Page faults handled (stache page creations).
    pub page_faults: Counter,
    /// Read-only block requests sent.
    pub ro_requests: Counter,
    /// Exclusive block requests sent.
    pub rw_requests: Counter,
    /// Home-side requests serviced.
    pub home_requests: Counter,
    /// Invalidations sent.
    pub invals_sent: Counter,
    /// Recalls sent.
    pub recalls_sent: Counter,
    /// Writebacks sent (page replacement).
    pub writebacks_sent: Counter,
    /// Stache pages replaced (FIFO).
    pub replacements: Counter,
    /// Directory sharer sets that overflowed six pointers.
    pub sharer_overflows: Counter,
    /// Faults by the home node on its own pages (serviced locally,
    /// without messages).
    pub home_faults: Counter,
    /// Requests deferred because the block was busy.
    pub deferred_requests: Counter,
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
    /// Directories for pages homed on this node (lookup-only: safe to
    /// key with the fast hasher).
    dirs: FxHashMap<Vpn, PageDirectory>,
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
            dirs: FxHashMap::default(),
            pending: None,
            stache_fifo: Vec::new(),
            capacity_pages,
            stats: StacheStats::default(),
        }
    }

    /// Read-only view of the statistics.
    pub fn stats(&self) -> &StacheStats {
        &self.stats
    }

    /// The home node of a shared page.
    ///
    /// # Panics
    ///
    /// Panics if the page is outside the declared shared segment — the
    /// moral equivalent of a wild pointer in the application.
    fn home_of(&self, vpn: Vpn) -> (NodeId, u8) {
        self.layout.home_of(vpn, self.nodes).unwrap_or_else(|| {
            panic!(
                "node {}: access to page {vpn:?} outside the shared segment layout",
                self.node
            )
        })
    }

    /// Synthetic NP-data-cache key for a directory entry (the paper packs
    /// four 64-bit entries per 32-byte cache line).
    fn dir_key(vpn: Vpn, block: usize) -> u64 {
        (vpn.0 * tt_base::addr::BLOCKS_PER_PAGE as u64 + block as u64) / 4
    }

    fn send_data(
        &self,
        ctx: &mut dyn TempestCtx,
        dst: NodeId,
        vn: VirtualNet,
        handler: HandlerId,
        addr: VAddr,
    ) {
        let data = ctx.force_read_block(addr);
        ctx.send(dst, vn, handler, Payload::with_block(&[addr.raw()], data));
    }

    // --- Home-side protocol engine --------------------------------------

    /// Services one request against a non-busy directory entry, possibly
    /// starting a transaction (invalidation round or recall).
    fn process_request(
        &mut self,
        ctx: &mut dyn TempestCtx,
        addr: VAddr,
        who: Requester,
        kind: ReqKind,
    ) {
        let vpn = addr.page();
        let block = addr.block_in_page();
        ctx.protocol_data_access(Self::dir_key(vpn, block));
        ctx.charge(STACHE_HOME_INSTR);
        self.stats.home_requests.inc();

        let entry = self
            .dirs
            .get_mut(&vpn)
            .expect("request for a page not homed here")
            .blocks[block]
            .clone();
        debug_assert!(!entry.is_busy());

        match (entry.state, kind) {
            (DirState::Idle, ReqKind::Ro) => match who {
                Requester::Remote(r) => {
                    let e = self.entry_mut(vpn, block);
                    e.state = DirState::Shared;
                    e.sharers.clear();
                    e.sharers.insert(r);
                    ctx.set_tag(addr, Tag::ReadOnly);
                    self.send_data(ctx, r, VirtualNet::Response, PUT_RO, addr);
                }
                Requester::Local(t) => {
                    // A deferred local read: the home copy is valid again.
                    ctx.set_tag(addr, Tag::ReadWrite);
                    ctx.resume(t);
                }
            },
            (DirState::Shared, ReqKind::Ro) => match who {
                Requester::Remote(r) => {
                    let e = self.entry_mut(vpn, block);
                    if e.sharers.insert(r) {
                        self.stats.sharer_overflows.inc();
                    }
                    self.send_data(ctx, r, VirtualNet::Response, PUT_RO, addr);
                }
                Requester::Local(t) => {
                    // Home reads are permitted in Shared (tag ReadOnly).
                    ctx.resume(t);
                }
            },
            (DirState::Exclusive(owner), ReqKind::Ro) => {
                self.stats.recalls_sent.inc();
                self.entry_mut(vpn, block).busy = Some(Busy::Recalling {
                    owner,
                    to: who,
                    kind: ReqKind::Ro,
                });
                ctx.send(
                    owner,
                    VirtualNet::Request,
                    RECALL_RO,
                    Payload::args(&[addr.raw()]),
                );
            }
            (DirState::Idle, ReqKind::Rw) => match who {
                Requester::Remote(r) => {
                    self.entry_mut(vpn, block).state = DirState::Exclusive(r);
                    ctx.set_tag(addr, Tag::Invalid);
                    self.send_data(ctx, r, VirtualNet::Response, PUT_RW, addr);
                }
                Requester::Local(t) => {
                    ctx.set_tag(addr, Tag::ReadWrite);
                    ctx.resume(t);
                }
            },
            (DirState::Shared, ReqKind::Rw) => {
                let requester_node = match who {
                    Requester::Remote(r) => Some(r),
                    Requester::Local(_) => None,
                };
                let targets: Vec<NodeId> = self
                    .entry_mut(vpn, block)
                    .sharers
                    .iter()
                    .into_iter()
                    .filter(|s| Some(*s) != requester_node)
                    .collect();
                if targets.is_empty() {
                    // The requester is the only sharer (an upgrade), or
                    // the sharer set was stale.
                    self.grant_exclusive(ctx, addr, who);
                } else {
                    self.stats.invals_sent.add(targets.len() as u64);
                    for s in &targets {
                        ctx.send(
                            *s,
                            VirtualNet::Request,
                            INV,
                            Payload::args(&[addr.raw()]),
                        );
                    }
                    self.entry_mut(vpn, block).busy = Some(Busy::Invalidating {
                        acks_left: targets.len(),
                        to: who,
                    });
                }
            }
            (DirState::Exclusive(owner), ReqKind::Rw) => {
                self.stats.recalls_sent.inc();
                self.entry_mut(vpn, block).busy = Some(Busy::Recalling {
                    owner,
                    to: who,
                    kind: ReqKind::Rw,
                });
                ctx.send(
                    owner,
                    VirtualNet::Request,
                    RECALL_RW,
                    Payload::args(&[addr.raw()]),
                );
            }
        }
    }

    fn entry_mut(&mut self, vpn: Vpn, block: usize) -> &mut BlockDir {
        &mut self
            .dirs
            .get_mut(&vpn)
            .expect("directory present")
            .blocks[block]
    }

    /// Completes an exclusive grant: directory update, home tag, message
    /// or local resume.
    fn grant_exclusive(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr, who: Requester) {
        let vpn = addr.page();
        let block = addr.block_in_page();
        let e = self.entry_mut(vpn, block);
        e.sharers.clear();
        match who {
            Requester::Remote(r) => {
                e.state = DirState::Exclusive(r);
                ctx.set_tag(addr, Tag::Invalid);
                self.send_data(ctx, r, VirtualNet::Response, PUT_RW, addr);
            }
            Requester::Local(t) => {
                e.state = DirState::Idle;
                ctx.set_tag(addr, Tag::ReadWrite);
                ctx.resume(t);
            }
        }
    }

    /// Finishes a transaction and services deferred requests in FIFO
    /// order until one of them starts a new transaction.
    fn finish_transaction(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr) {
        let vpn = addr.page();
        let block = addr.block_in_page();
        loop {
            let e = self.entry_mut(vpn, block);
            if e.is_busy() {
                return;
            }
            let Some(PendingReq { who, kind }) = e.queue.pop_front() else {
                return;
            };
            self.process_request(ctx, addr, who, kind);
        }
    }

    // --- Message handlers ------------------------------------------------

    fn on_get(&mut self, ctx: &mut dyn TempestCtx, msg: &Message, kind: ReqKind) {
        let addr = VAddr::new(msg.arg(0));
        let vpn = addr.page();
        let block = addr.block_in_page();
        ctx.protocol_data_access(Self::dir_key(vpn, block));
        if self.entry_mut(vpn, block).is_busy() {
            self.stats.deferred_requests.inc();
            ctx.charge(ACK_HANDLER_INSTR);
            self.entry_mut(vpn, block).queue.push_back(PendingReq {
                who: Requester::Remote(msg.src),
                kind,
            });
            return;
        }
        self.process_request(ctx, addr, Requester::Remote(msg.src), kind);
    }

    fn on_put(&mut self, ctx: &mut dyn TempestCtx, msg: &Message, tag: Tag) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(STACHE_REPLY_INSTR);
        let data = msg.payload.block();
        ctx.force_write_block(addr, &data);
        ctx.set_tag(addr, tag);
        let pending = self
            .pending
            .take()
            .expect("PUT with no outstanding fault");
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
        ctx.send(
            msg.src,
            VirtualNet::Response,
            ACK,
            Payload::args(&[addr.raw()]),
        );
    }

    fn on_ack(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let vpn = addr.page();
        let block = addr.block_in_page();
        ctx.charge(ACK_HANDLER_INSTR);
        ctx.protocol_data_access(Self::dir_key(vpn, block));
        let e = self.entry_mut(vpn, block);
        let Some(Busy::Invalidating { acks_left, to }) = e.busy.clone() else {
            panic!("ACK for a block that is not invalidating");
        };
        if acks_left > 1 {
            e.busy = Some(Busy::Invalidating {
                acks_left: acks_left - 1,
                to,
            });
            return;
        }
        // Final acknowledgment: this handler sends the data (paper §3).
        e.busy = None;
        ctx.charge(STACHE_HOME_INSTR);
        self.grant_exclusive(ctx, addr, to);
        self.finish_transaction(ctx, addr);
    }

    fn on_recall(&mut self, ctx: &mut dyn TempestCtx, msg: &Message, kind: ReqKind) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(RECALL_HANDLER_INSTR);
        // If we already gave the block up (page replacement writeback in
        // flight), ignore: the home completes via the WRITEBACK message.
        if ctx.translate(addr.page()).is_none() || ctx.read_tag(addr) != Tag::ReadWrite {
            return;
        }
        let data = ctx.force_read_block(addr);
        let new_tag = match kind {
            ReqKind::Ro => Tag::ReadOnly,
            ReqKind::Rw => Tag::Invalid,
        };
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
        let data = msg.payload.block();
        self.complete_recall(ctx, addr, msg.src, &data);
    }

    /// Completes a recall with returned data (from RECALL_DATA, or from a
    /// racing WRITEBACK by the owner).
    fn complete_recall(
        &mut self,
        ctx: &mut dyn TempestCtx,
        addr: VAddr,
        from: NodeId,
        data: &[u8; BLOCK_BYTES],
    ) {
        let vpn = addr.page();
        let block = addr.block_in_page();
        ctx.charge(STACHE_HOME_INSTR);
        ctx.protocol_data_access(Self::dir_key(vpn, block));
        ctx.force_write_block(addr, data);
        let e = self.entry_mut(vpn, block);
        let Some(Busy::Recalling { owner, to, kind }) = e.busy.clone() else {
            panic!("recall data for a block that is not recalling");
        };
        debug_assert_eq!(owner, from);
        e.busy = None;
        match kind {
            ReqKind::Ro => {
                let e = self.entry_mut(vpn, block);
                e.state = DirState::Shared;
                e.sharers.clear();
                e.sharers.insert(owner);
                match to {
                    Requester::Remote(r) => {
                        e.sharers.insert(r);
                        ctx.set_tag(addr, Tag::ReadOnly);
                        self.send_data(ctx, r, VirtualNet::Response, PUT_RO, addr);
                    }
                    Requester::Local(t) => {
                        ctx.set_tag(addr, Tag::ReadOnly);
                        ctx.resume(t);
                    }
                }
            }
            ReqKind::Rw => {
                self.grant_exclusive(ctx, addr, to);
            }
        }
        self.finish_transaction(ctx, addr);
    }

    fn on_writeback(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let vpn = addr.page();
        let block = addr.block_in_page();
        let data = msg.payload.block();
        ctx.protocol_data_access(Self::dir_key(vpn, block));
        let e = self.entry_mut(vpn, block);
        match e.busy.clone() {
            Some(Busy::Recalling { owner, .. }) if owner == msg.src => {
                // The owner replaced the page while our recall was in
                // flight; its writeback carries the data we wanted.
                self.complete_recall(ctx, addr, msg.src, &data);
            }
            Some(other) => panic!("writeback raced an unexpected transaction {other:?}"),
            None => {
                ctx.charge(ACK_HANDLER_INSTR);
                debug_assert_eq!(e.state, DirState::Exclusive(msg.src));
                e.state = DirState::Idle;
                e.sharers.clear();
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
        for b in 0..tt_base::addr::BLOCKS_PER_PAGE {
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
        // Create home pages: map them writable and allocate directories
        // (the paper's shared-memory allocation functions). The layout
        // yields pages in ascending order, so physical frames are handed
        // out in a canonical order: frame numbers feed the NP data-cache
        // set mapping.
        let node = self.node;
        let mine = self.layout.pages(self.nodes).filter(|&(_, h, _)| h == node);
        for (vpn, _, mode) in mine {
            let ppn = ctx.alloc_page();
            ctx.map_page(vpn, ppn).expect("fresh mapping");
            ctx.set_page_tags(vpn, Tag::ReadWrite);
            ctx.set_page_meta(
                vpn,
                PageMeta {
                    vpn: Some(vpn),
                    mode,
                    user: [self.node.raw() as u64, 0],
                },
            );
            self.dirs.insert(vpn, PageDirectory::new());
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
        ctx.set_page_meta(
            vpn,
            PageMeta {
                vpn: Some(vpn),
                mode,
                user: [home.raw() as u64, 0],
            },
        );
        self.stache_fifo.push(vpn);
        // Restart the access; it will now take a block access fault
        // (the paper deliberately does NOT send the request from here).
        ctx.resume(fault.thread);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        self.stats.block_faults.inc();
        let addr = fault.addr.block_base();
        let home = NodeId::new(fault.meta.user[0] as u16);
        let kind = match fault.kind {
            AccessKind::Load => ReqKind::Ro,
            AccessKind::Store => ReqKind::Rw,
        };
        if home == self.node {
            // Home faults access the directory directly (paper §3).
            self.stats.home_faults.inc();
            let vpn = addr.page();
            let block = addr.block_in_page();
            ctx.protocol_data_access(Self::dir_key(vpn, block));
            if self.entry_mut(vpn, block).is_busy() {
                self.stats.deferred_requests.inc();
                self.entry_mut(vpn, block).queue.push_back(PendingReq {
                    who: Requester::Local(fault.thread),
                    kind,
                });
                return;
            }
            self.process_request(ctx, addr, Requester::Local(fault.thread), kind);
            return;
        }
        ctx.charge(STACHE_REQUEST_INSTR);
        match kind {
            ReqKind::Ro => self.stats.ro_requests.inc(),
            ReqKind::Rw => self.stats.rw_requests.inc(),
        }
        // Mark the block busy (request outstanding) and ask the home.
        ctx.set_tag(addr, Tag::Busy);
        self.pending = Some(PendingFault {
            thread: fault.thread,
            addr,
        });
        let handler = match kind {
            ReqKind::Ro => GET_RO,
            ReqKind::Rw => GET_RW,
        };
        ctx.send(
            home,
            VirtualNet::Request,
            handler,
            Payload::args(&[addr.raw()]),
        );
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            GET_RO => self.on_get(ctx, &msg, ReqKind::Ro),
            GET_RW => self.on_get(ctx, &msg, ReqKind::Rw),
            PUT_RO => self.on_put(ctx, &msg, Tag::ReadOnly),
            PUT_RW => self.on_put(ctx, &msg, Tag::ReadWrite),
            INV => self.on_inv(ctx, &msg),
            ACK => self.on_ack(ctx, &msg),
            RECALL_RO => self.on_recall(ctx, &msg, ReqKind::Ro),
            RECALL_RW => self.on_recall(ctx, &msg, ReqKind::Rw),
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
        let mut pages: Vec<(&Vpn, &PageDirectory)> = self.dirs.iter().collect();
        pages.sort_unstable_by_key(|&(vpn, _)| vpn);
        for (vpn, dir) in pages {
            for (i, entry) in dir.blocks.iter().enumerate() {
                let state = match entry.state {
                    DirState::Idle => DirSnapshotState::Idle,
                    DirState::Shared => DirSnapshotState::Shared(entry.sharers.iter()),
                    DirState::Exclusive(owner) => DirSnapshotState::Exclusive(owner),
                };
                out.push(BlockDirSnapshot {
                    addr: VAddr::new(vpn.base().raw() + (i * BLOCK_BYTES) as u64),
                    home: self.node,
                    state,
                    busy: entry.is_busy(),
                });
            }
        }
    }
}
