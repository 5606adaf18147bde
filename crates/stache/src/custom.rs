//! The custom EM3D delayed-update protocol (paper Section 4).
//!
//! EM3D's bipartite graph is static: after the first iteration, the set
//! of remote graph nodes each processor reads never changes. Transparent
//! shared memory therefore wastes four messages per remote value per
//! iteration (request, response, invalidate, acknowledge). This protocol
//! gets communication to near-minimum:
//!
//! - Graph-node value pages are allocated on *custom* pages (region modes
//!   [`EM3D_E_MODE`] / [`EM3D_H_MODE`]). Remote reads stach them as
//!   usual, but the home keeps the block **ReadWrite for its own CPU**
//!   and records the copy in a per-block *copy list* instead of
//!   downgrading — copies are allowed to go stale *within* a phase.
//! - At the end of a phase the application calls the protocol
//!   ([`FLUSH_OP`]); the home handler walks its copy lists and pushes
//!   only the **modified values** — no invalidations and no
//!   acknowledgments.
//! - Synchronization is a **fuzzy barrier**: every processor knows how
//!   many remote blocks it has stached of each kind and simply waits
//!   until that many updates (tagged with the phase index) have arrived.
//!
//! The protocol is not EM3D-specific: any producer-consumer application
//! whose consumers' read sets are (eventually) static can mark its
//! produced data with the custom page modes and call the flush at phase
//! boundaries — `tt_apps::ocean` uses it for boundary rows.
//!
//! Ordinary pages (edge weights, neighbor lists) fall through to the
//! embedded default [`StacheProtocol`], exactly as the paper's customized
//! handlers coexist with the Stache library.
//!
//! Because new stachings only happen while the graph's access pattern is
//! being discovered (the first iteration), the application places one
//! hardware barrier after the first iteration of each phase; afterwards
//! the fuzzy barrier alone synchronizes. (The paper makes the same
//! static-graph argument.)

use tt_base::addr::VAddr;
use tt_base::config::SystemConfig;
use tt_base::stats::{Counter, Report};
use tt_base::workload::Layout;
use tt_base::{FxHashMap, NodeId};
use tt_mem::{AccessKind, Tag};
use tt_net::{Payload, VirtualNet};
use tt_tempest::{
    BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId, UserCall,
};

use crate::stache::StacheProtocol;

/// Region mode of E-node value pages.
pub const EM3D_E_MODE: u8 = 2;
/// Region mode of H-node value pages.
pub const EM3D_H_MODE: u8 = 3;

/// `UserCall::op` for the end-of-phase flush; `arg` is the page mode
/// whose values were just produced ([`EM3D_E_MODE`] or [`EM3D_H_MODE`]).
pub const FLUSH_OP: u32 = 1;

/// Request a copy of a custom block. Args: `[block_addr, mode]`.
pub const CGET: HandlerId = HandlerId(0x30);
/// Grant a copy of a custom block. Args: `[block_addr, mode]` + data.
pub const CPUT: HandlerId = HandlerId(0x31);
/// Push updated values. Args: `[block_addr, mode, phase]` + data.
pub const UPDATE: HandlerId = HandlerId(0x32);

/// Base instruction cost of the home's copy-list bookkeeping per request.
const CGET_INSTR: u64 = 18;
/// Base instruction cost of installing a granted copy.
const CPUT_INSTR: u64 = 16;
/// Base instruction cost per update message sent during a flush.
const UPDATE_SEND_INSTR: u64 = 6;
/// Base instruction cost of applying one received update.
const UPDATE_RECV_INSTR: u64 = 8;

/// Statistics for the custom protocol (on top of the embedded Stache's).
#[derive(Clone, Debug, Default)]
struct Em3dStats {
    /// Custom-block requests served at the home.
    cgets: Counter,
    /// Copies installed at stachers.
    cputs: Counter,
    /// Update messages sent.
    updates_sent: Counter,
    /// Update messages received and applied.
    updates_received: Counter,
    /// Flush calls serviced.
    flushes: Counter,
    /// Flush waits that were already satisfied on entry.
    instant_flushes: Counter,
}

/// A stacher's outstanding custom-block fault.
#[derive(Clone, Copy, Debug)]
struct PendingCustom {
    thread: ThreadId,
}

/// The EM3D delayed-update protocol for one node (see module docs).
pub struct Em3dUpdateProtocol {
    node: NodeId,
    /// Default protocol for ordinary pages.
    stache: StacheProtocol,
    /// Home side: per custom block, the nodes holding copies.
    copies: FxHashMap<u64, Vec<NodeId>>,
    /// Home side: blocks with at least one copy, per mode, in first-copy
    /// order (the paper's outstanding-copy list).
    flush_list: FxHashMap<u8, Vec<u64>>,
    /// Stacher side: custom blocks stached, per mode (the expected number
    /// of updates per flush).
    expected: FxHashMap<u8, u64>,
    /// Stacher side: updates received, per (mode, phase).
    received: FxHashMap<(u8, u64), u64>,
    /// Stacher side: how many flushes of each mode this node has passed.
    phase: FxHashMap<u8, u64>,
    /// A thread blocked in a flush wait: `(thread, mode, phase, target)`.
    waiting: Option<(ThreadId, u8, u64, u64)>,
    /// Outstanding custom-block fault.
    pending: Option<PendingCustom>,
    stats: Em3dStats,
}

impl Em3dUpdateProtocol {
    /// Builds the node's protocol instance from the workload layout.
    pub fn new(node: NodeId, layout: &Layout, cfg: &SystemConfig) -> Self {
        Em3dUpdateProtocol {
            node,
            stache: StacheProtocol::new(node, layout, cfg),
            copies: FxHashMap::default(),
            flush_list: FxHashMap::default(),
            expected: FxHashMap::default(),
            received: FxHashMap::default(),
            phase: FxHashMap::default(),
            waiting: None,
            pending: None,
            stats: Em3dStats::default(),
        }
    }

    fn is_custom_mode(mode: u8) -> bool {
        mode == EM3D_E_MODE || mode == EM3D_H_MODE
    }

    /// Completes the flush wait if its update count has been reached.
    fn check_wait(&mut self, ctx: &mut dyn TempestCtx) {
        let Some((thread, mode, phase, target)) = self.waiting else {
            return;
        };
        let got = *self.received.get(&(mode, phase)).unwrap_or(&0);
        if got >= target {
            assert_eq!(got, target, "more updates than stached blocks");
            self.received.remove(&(mode, phase));
            self.waiting = None;
            ctx.resume(thread);
        }
    }

    fn on_cget(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let mode = msg.arg(1) as u8;
        self.stats.cgets.inc();
        ctx.charge(CGET_INSTR);
        ctx.protocol_data_access(addr.raw() / 32);
        let entry = self.copies.entry(addr.raw()).or_default();
        if entry.is_empty() {
            self.flush_list.entry(mode).or_default().push(addr.raw());
        }
        if !entry.contains(&msg.src) {
            entry.push(msg.src);
        }
        // Respond with the current data; the home's tag stays ReadWrite —
        // its CPU keeps writing at full speed and copies go stale until
        // the flush (delayed update).
        let data = ctx.force_read_block(addr);
        ctx.send(
            msg.src,
            VirtualNet::Response,
            CPUT,
            Payload::with_block(&[addr.raw(), mode as u64], data),
        );
    }

    fn on_cput(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let mode = msg.arg(1) as u8;
        self.stats.cputs.inc();
        ctx.charge(CPUT_INSTR);
        let data = msg.payload.block();
        ctx.force_write_block(addr, &data);
        ctx.set_tag(addr, Tag::ReadOnly);
        *self.expected.entry(mode).or_insert(0) += 1;
        let pending = self.pending.take().expect("CPUT with no pending fault");
        ctx.resume(pending.thread);
    }

    fn on_update(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let mode = msg.arg(1) as u8;
        let phase = msg.arg(2);
        self.stats.updates_received.inc();
        ctx.charge(UPDATE_RECV_INSTR);
        let data = msg.payload.block();
        ctx.force_write_block(addr, &data);
        *self.received.entry((mode, phase)).or_insert(0) += 1;
        self.check_wait(ctx);
    }

    fn on_flush(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, mode: u8) {
        assert!(Self::is_custom_mode(mode), "flush of a non-custom mode");
        self.stats.flushes.inc();
        // 1. Home role: push updated values to every outstanding copy.
        let phase = *self.phase.entry(mode).or_insert(0);
        if let Some(blocks) = self.flush_list.get(&mode) {
            let blocks = blocks.clone();
            for addr_raw in blocks {
                let addr = VAddr::new(addr_raw);
                let data = ctx.force_read_block(addr);
                let holders = self.copies.get(&addr_raw).cloned().unwrap_or_default();
                for dst in holders {
                    self.stats.updates_sent.inc();
                    ctx.charge(UPDATE_SEND_INSTR);
                    ctx.send(
                        dst,
                        VirtualNet::Request,
                        UPDATE,
                        Payload::with_block(&[addr_raw, mode as u64, phase], data),
                    );
                }
            }
        }
        // 2. Stacher role: fuzzy barrier — wait until every stached block
        //    of this mode has been refreshed for this phase.
        let target = *self.expected.get(&mode).unwrap_or(&0);
        self.phase.insert(mode, phase + 1);
        let got = *self.received.get(&(mode, phase)).unwrap_or(&0);
        if got >= target {
            self.stats.instant_flushes.inc();
            self.received.remove(&(mode, phase));
            ctx.resume(thread);
        } else {
            assert!(self.waiting.is_none(), "one flush wait at a time");
            self.waiting = Some((thread, mode, phase, target));
        }
    }
}

impl Protocol for Em3dUpdateProtocol {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        self.stache.init(ctx);
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        // Stache's page-fault handler already records the region mode in
        // the page metadata, so custom stache pages work unchanged.
        self.stache.on_page_fault(ctx, fault);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        if !Self::is_custom_mode(fault.meta.mode) {
            self.stache.on_block_fault(ctx, fault);
            return;
        }
        // Custom pages: only remote *reads* fault (homes keep ReadWrite
        // tags and owners-compute means nobody writes remote values).
        assert_eq!(
            fault.kind,
            AccessKind::Load,
            "EM3D custom pages are only written by their home node"
        );
        let home = NodeId::new(fault.meta.user[0] as u16);
        assert_ne!(home, self.node, "home reads its own pages tag-free");
        let addr = fault.addr.block_base();
        ctx.charge(14);
        ctx.set_tag(addr, Tag::Busy);
        self.pending = Some(PendingCustom { thread: fault.thread });
        ctx.send(
            home,
            VirtualNet::Request,
            CGET,
            Payload::args(&[addr.raw(), fault.meta.mode as u64]),
        );
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            CGET => self.on_cget(ctx, &msg),
            CPUT => self.on_cput(ctx, &msg),
            UPDATE => self.on_update(ctx, &msg),
            _ => self.stache.on_message(ctx, msg),
        }
    }

    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        match call.op {
            FLUSH_OP => self.on_flush(ctx, thread, call.arg as u8),
            _ => ctx.resume(thread),
        }
    }

    fn report(&self, report: &mut Report) {
        self.stache.report(report);
        let s = &self.stats;
        report.push_count("em3d.cgets", s.cgets.get());
        report.push_count("em3d.cputs", s.cputs.get());
        report.push_count("em3d.updates_sent", s.updates_sent.get());
        report.push_count("em3d.updates_received", s.updates_received.get());
        report.push_count("em3d.flushes", s.flushes.get());
        report.push_count("em3d.instant_flushes", s.instant_flushes.get());
    }
}
