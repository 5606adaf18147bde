//! The hot-key write-update protocol for the KV server (`tt-serve`).
//!
//! Under an invalidation protocol (Stache), every put to a hot key pays
//! the full price of popularity: the home recalls or invalidates every
//! reader's copy, and each of those readers then misses and re-fetches.
//! For a Zipfian serving mix the same few keys are read by *everyone*,
//! so a write-heavy load on hot keys turns into an invalidation storm —
//! and tail latency explodes.
//!
//! This protocol flips the policy for KV slot pages (region mode
//! [`KV_MODE`]): the home keeps slot blocks **ReadWrite for itself** and
//! *pushes the new value* to every registered copy instead of
//! invalidating it. A put becomes:
//!
//! 1. the client stages the new value in its node's local staging page
//!    (ordinary local stores — never a fault), then calls
//!    [`KV_PUT_OP`] with the key;
//! 2. the protocol ships each slot block to the key's home
//!    (`KV_WRITE`);
//! 3. the home applies it and broadcasts `KV_UPD` to every node on
//!    the block's copy list — including the writer, if it holds a copy;
//! 4. sharers apply the update in place and acknowledge (`KV_UACK`);
//! 5. when the last ack is in, the home releases the writer
//!    (`KV_WACK`) and the put completes.
//!
//! Writes to the *same block* are serialized at the home: while a
//! broadcast is in flight the block's requests — reads (`KV_GET`) and
//! colliding writes alike — park in a FIFO and drain when the last ack
//! lands. That makes each block's value sequence a single total order
//! chosen at the home, and because the network preserves FIFO per
//! (src, dst) pair, two updates pushed to the same sharer can never
//! reorder — no version arbitration is needed at the edges.
//!
//! Gets are unchanged from Stache in *shape* — miss, fetch, cache
//! ReadOnly — but use the protocol's own `KV_GET`/`KV_PUT_MSG` pair
//! because the home's directory never downgrades its own tag. Non-KV
//! pages (the staging pages, anything else) fall through to the
//! embedded [`StacheProtocol`].
//!
//! `tt-check`'s KV litmus family proves this protocol observationally
//! equivalent to the stache baseline: same values at every checked read
//! and the same final slot image, under schedule fuzzing.

use std::collections::VecDeque;

use tt_base::addr::{VAddr, BLOCK_BYTES};
use tt_base::config::SystemConfig;
use tt_base::stats::{Counter, Report};
use tt_base::workload::Layout;
use tt_base::{FxHashMap, NodeId};
use tt_mem::{AccessKind, Tag};
use tt_net::{Payload, VirtualNet};
use tt_serve::{KvLayout, LatSink, SharedKvLatency, KV_MODE, KV_PUT_OP, KV_STAMP_OP};
use tt_stache::StacheProtocol;
use tt_tempest::{
    BlockFault, HandlerId, Message, PageFault, Protocol, TempestCtx, ThreadId, UserCall,
};

/// Request a copy of a KV slot block. Args: `[block_addr]`.
pub(crate) const KV_GET: HandlerId = HandlerId(0x40);
/// Grant a copy of a KV slot block. Args: `[block_addr]` + data.
pub(crate) const KV_PUT_MSG: HandlerId = HandlerId(0x41);
/// Ship one written slot block to its home. Args: `[block_addr]` + data.
pub(crate) const KV_WRITE: HandlerId = HandlerId(0x42);
/// Push an updated slot block to a sharer. Args: `[block_addr]` + data.
pub(crate) const KV_UPD: HandlerId = HandlerId(0x43);
/// Sharer's acknowledgment of an update. Args: `[block_addr]`.
pub(crate) const KV_UACK: HandlerId = HandlerId(0x44);
/// Home's release of the writer once a block's broadcast is acked.
/// Args: `[block_addr]`.
pub(crate) const KV_WACK: HandlerId = HandlerId(0x45);

/// Sharer-side cost of a slot miss (tag flip + send).
const GET_FAULT_INSTR: u64 = 14;
/// Home-side cost of serving a slot read (copy-list upkeep + reply).
const GET_SERVE_INSTR: u64 = 18;
/// Sharer-side cost of installing a granted copy.
const PUT_INSTALL_INSTR: u64 = 16;
/// Writer-side cost per block of launching a put.
const PUT_LAUNCH_INSTR: u64 = 12;
/// Home-side cost of applying one shipped block.
const WRITE_APPLY_INSTR: u64 = 20;
/// Home-side cost per update message sent.
const UPD_SEND_INSTR: u64 = 6;
/// Sharer-side cost of applying one pushed update.
const UPD_RECV_INSTR: u64 = 8;
/// Home-side cost of consuming one ack.
const UACK_INSTR: u64 = 4;
/// Writer-side cost of consuming a release.
const WACK_INSTR: u64 = 4;
/// Cost of the latency stamp.
const STAMP_INSTR: u64 = 4;

/// Statistics on top of the embedded Stache's.
#[derive(Clone, Debug, Default)]
struct KvUpdateStats {
    /// Slot reads served at homes.
    gets_served: Counter,
    /// Slot copies installed at sharers.
    copies_installed: Counter,
    /// Shipped blocks applied at homes.
    writes_applied: Counter,
    /// Update messages broadcast.
    updates_sent: Counter,
    /// Updates applied at sharers.
    updates_applied: Counter,
    /// Updates that arrived after the sharer dropped the page.
    stale_updates: Counter,
    /// Reads parked behind an in-flight broadcast.
    deferred_gets: Counter,
    /// Writes parked behind an in-flight broadcast.
    deferred_writes: Counter,
}

/// A home-side broadcast in flight for one block.
struct WriteTxn {
    acks_left: usize,
    writer: NodeId,
}

/// A request parked behind an in-flight broadcast.
enum Deferred {
    Get(NodeId),
    Write(NodeId, [u8; BLOCK_BYTES]),
}

/// A writer blocked in a put until every block's broadcast is released.
struct PutWait {
    thread: ThreadId,
    wacks_left: usize,
}

/// The write-update KV protocol for one node (see module docs).
pub struct KvUpdateProtocol {
    node: NodeId,
    /// Default protocol for non-KV pages (staging, everything else).
    stache: StacheProtocol,
    kv: KvLayout,
    /// Home side: per slot block, the nodes holding copies.
    copies: FxHashMap<u64, Vec<NodeId>>,
    /// Home side: broadcasts in flight, one per block at most.
    inflight: FxHashMap<u64, WriteTxn>,
    /// Home side: requests parked behind an in-flight broadcast.
    deferred: FxHashMap<u64, VecDeque<Deferred>>,
    /// Sharer side: the CPU's outstanding slot-read fault.
    pending_get: Option<ThreadId>,
    /// Writer side: the CPU's outstanding put.
    put_wait: Option<PutWait>,
    sink: LatSink,
    stats: KvUpdateStats,
}

impl KvUpdateProtocol {
    /// Builds one node's protocol; request latencies fold into `shared`.
    pub fn new(
        node: NodeId,
        layout: &Layout,
        cfg: &SystemConfig,
        kv: KvLayout,
        shared: SharedKvLatency,
    ) -> Self {
        KvUpdateProtocol {
            node,
            stache: StacheProtocol::new(node, layout, cfg),
            kv,
            copies: FxHashMap::default(),
            inflight: FxHashMap::default(),
            deferred: FxHashMap::default(),
            pending_get: None,
            put_wait: None,
            sink: LatSink::new(shared),
            stats: KvUpdateStats::default(),
        }
    }

    /// Home side: reply to a slot read with the current block and
    /// register the reader on the copy list.
    fn serve_get(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr, who: NodeId) {
        self.stats.gets_served.inc();
        ctx.charge(GET_SERVE_INSTR);
        ctx.protocol_data_access(addr.raw() / BLOCK_BYTES as u64);
        let entry = self.copies.entry(addr.raw()).or_default();
        if !entry.contains(&who) {
            entry.push(who);
        }
        let data = ctx.force_read_block(addr);
        ctx.send(who, VirtualNet::Response, KV_PUT_MSG, Payload::with_block(&[addr.raw()], data));
    }

    /// Home side: apply one shipped block and broadcast it. Starts a
    /// transaction if any copies are outstanding; releases the writer
    /// immediately otherwise.
    fn apply_write(
        &mut self,
        ctx: &mut dyn TempestCtx,
        addr: VAddr,
        data: &[u8; BLOCK_BYTES],
        writer: NodeId,
    ) {
        debug_assert!(!self.inflight.contains_key(&addr.raw()));
        self.stats.writes_applied.inc();
        ctx.charge(WRITE_APPLY_INSTR);
        ctx.protocol_data_access(addr.raw() / BLOCK_BYTES as u64);
        ctx.force_write_block(addr, data);
        let Some(sharers) = self.copies.get(&addr.raw()).filter(|s| !s.is_empty()) else {
            self.release_writer(ctx, addr, writer);
            return;
        };
        for &dst in sharers {
            self.stats.updates_sent.inc();
            ctx.charge(UPD_SEND_INSTR);
            ctx.send(dst, VirtualNet::Request, KV_UPD, Payload::with_block(&[addr.raw()], *data));
        }
        self.inflight.insert(addr.raw(), WriteTxn { acks_left: sharers.len(), writer });
    }

    /// Home side: a block's broadcast is fully acked — tell the writer.
    fn release_writer(&mut self, ctx: &mut dyn TempestCtx, addr: VAddr, writer: NodeId) {
        if writer == self.node {
            self.complete_put_block(ctx);
        } else {
            ctx.send(writer, VirtualNet::Response, KV_WACK, Payload::args(&[addr.raw()]));
        }
    }

    /// Writer side: one block of the outstanding put is done.
    fn complete_put_block(&mut self, ctx: &mut dyn TempestCtx) {
        let wait = self.put_wait.as_mut().expect("put release with no outstanding put");
        wait.wacks_left -= 1;
        if wait.wacks_left == 0 {
            let thread = self.put_wait.take().expect("checked above").thread;
            ctx.resume(thread);
        }
    }

    /// Home side: either start a write now or park it behind the
    /// block's in-flight broadcast.
    fn home_write(
        &mut self,
        ctx: &mut dyn TempestCtx,
        addr: VAddr,
        data: &[u8; BLOCK_BYTES],
        writer: NodeId,
    ) {
        if self.inflight.contains_key(&addr.raw()) {
            self.stats.deferred_writes.inc();
            self.deferred.entry(addr.raw()).or_default().push_back(Deferred::Write(writer, *data));
        } else {
            self.apply_write(ctx, addr, data, writer);
        }
    }

    fn on_kv_get(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        if self.inflight.contains_key(&addr.raw()) {
            self.stats.deferred_gets.inc();
            self.deferred.entry(addr.raw()).or_default().push_back(Deferred::Get(msg.src));
        } else {
            self.serve_get(ctx, addr, msg.src);
        }
    }

    fn on_kv_put_msg(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        self.stats.copies_installed.inc();
        ctx.charge(PUT_INSTALL_INSTR);
        let data = msg.payload.block();
        ctx.force_write_block(addr, &data);
        ctx.set_tag(addr, Tag::ReadOnly);
        let thread = self.pending_get.take().expect("slot copy granted with no pending fault");
        ctx.resume(thread);
    }

    fn on_kv_write(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        let data = msg.payload.block();
        self.home_write(ctx, addr, &data, msg.src);
    }

    fn on_kv_upd(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(UPD_RECV_INSTR);
        // Apply in place if we still hold the page; a page evicted by
        // stache replacement leaves a stale copy-list entry behind, and
        // the ack alone is the right answer — a re-fault re-fetches.
        if ctx.translate(addr.page()).is_some() {
            let data = msg.payload.block();
            ctx.force_write_block(addr, &data);
            ctx.set_tag(addr, Tag::ReadOnly);
            self.stats.updates_applied.inc();
        } else {
            self.stats.stale_updates.inc();
        }
        ctx.send(msg.src, VirtualNet::Response, KV_UACK, Payload::args(&[addr.raw()]));
    }

    fn on_kv_uack(&mut self, ctx: &mut dyn TempestCtx, msg: &Message) {
        let addr = VAddr::new(msg.arg(0));
        ctx.charge(UACK_INSTR);
        let txn = self.inflight.get_mut(&addr.raw()).expect("ack with no broadcast in flight");
        txn.acks_left -= 1;
        if txn.acks_left > 0 {
            return;
        }
        let writer = txn.writer;
        self.inflight.remove(&addr.raw());
        self.release_writer(ctx, addr, writer);
        // Drain parked requests in arrival order. A parked write starts
        // a fresh broadcast, which re-parks everything behind it.
        while let Some(req) = self.deferred.get_mut(&addr.raw()).and_then(VecDeque::pop_front) {
            match req {
                Deferred::Get(who) => self.serve_get(ctx, addr, who),
                Deferred::Write(who, data) => {
                    self.apply_write(ctx, addr, &data, who);
                    if self.inflight.contains_key(&addr.raw()) {
                        return;
                    }
                }
            }
        }
    }

    fn on_kv_wack(&mut self, ctx: &mut dyn TempestCtx) {
        ctx.charge(WACK_INSTR);
        self.complete_put_block(ctx);
    }

    /// Writer side: publish the staged value of `key`.
    fn on_put_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, key: u64) {
        assert!(self.put_wait.is_none(), "one put at a time per node");
        let blocks = self.kv.slot_blocks();
        self.put_wait = Some(PutWait { thread, wacks_left: blocks });
        let slot = self.kv.slot_addr(key);
        let staging = self.kv.staging_addr(self.node);
        let home = self.kv.home_of_key(key);
        for b in 0..blocks {
            ctx.charge(PUT_LAUNCH_INSTR);
            let off = (b * BLOCK_BYTES) as u64;
            let data = ctx.force_read_block(staging.offset(off));
            let addr = slot.offset(off);
            if home == self.node {
                self.home_write(ctx, addr, &data, self.node);
            } else {
                ctx.send(
                    home,
                    VirtualNet::Request,
                    KV_WRITE,
                    Payload::with_block(&[addr.raw()], data),
                );
            }
        }
    }
}

impl Protocol for KvUpdateProtocol {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        // Stache's init maps every home page ReadWrite — exactly the
        // home-keeps-writing policy this protocol wants for slots too.
        self.stache.init(ctx);
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        // Stache's handler allocates the frame, records the region mode
        // and home in the page metadata, and enforces the frame budget;
        // KV slot pages need nothing more.
        self.stache.on_page_fault(ctx, fault);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        if fault.meta.mode != KV_MODE {
            self.stache.on_block_fault(ctx, fault);
            return;
        }
        assert_eq!(
            fault.kind,
            AccessKind::Load,
            "update-variant puts go through the staging page, never raw slot stores"
        );
        let home = NodeId::new(fault.meta.user[0] as u16);
        assert_ne!(home, self.node, "slot homes keep ReadWrite tags");
        let addr = fault.addr.block_base();
        ctx.charge(GET_FAULT_INSTR);
        ctx.set_tag(addr, Tag::Busy);
        assert!(self.pending_get.is_none(), "one slot fault at a time per CPU");
        self.pending_get = Some(fault.thread);
        ctx.send(home, VirtualNet::Request, KV_GET, Payload::args(&[addr.raw()]));
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        match msg.handler {
            KV_GET => self.on_kv_get(ctx, &msg),
            KV_PUT_MSG => self.on_kv_put_msg(ctx, &msg),
            KV_WRITE => self.on_kv_write(ctx, &msg),
            KV_UPD => self.on_kv_upd(ctx, &msg),
            KV_UACK => self.on_kv_uack(ctx, &msg),
            KV_WACK => self.on_kv_wack(ctx),
            _ => self.stache.on_message(ctx, msg),
        }
    }

    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        match call.op {
            KV_PUT_OP => self.on_put_call(ctx, thread, call.arg),
            KV_STAMP_OP => {
                ctx.charge(STAMP_INSTR);
                self.sink.record(ctx.now(), call.arg);
                ctx.resume(thread);
            }
            _ => ctx.resume(thread),
        }
    }

    fn report(&self, report: &mut Report) {
        self.stache.report(report);
        report.push_count("kv.gets", self.sink.local.get.total());
        report.push_count("kv.puts", self.sink.local.put.total());
        let s = &self.stats;
        report.push_count("kvu.gets_served", s.gets_served.get());
        report.push_count("kvu.copies_installed", s.copies_installed.get());
        report.push_count("kvu.writes_applied", s.writes_applied.get());
        report.push_count("kvu.updates_sent", s.updates_sent.get());
        report.push_count("kvu.updates_applied", s.updates_applied.get());
        report.push_count("kvu.stale_updates", s.stale_updates.get());
        report.push_count("kvu.deferred_gets", s.deferred_gets.get());
        report.push_count("kvu.deferred_writes", s.deferred_writes.get());
    }
}

/// [`tt_serve::run_kv`] with this protocol: the update-variant runner.
pub fn run_kv_update(cfg: &SystemConfig, params: &tt_serve::KvParams) -> tt_serve::KvOutcome {
    tt_serve::run_kv(cfg, params, &|node, layout, cfg, kv, shared| {
        Box::new(KvUpdateProtocol::new(node, layout, cfg, kv.clone(), shared))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_serve::{run_kv_stache, KvParams, KvVariant};

    #[test]
    fn update_serving_runs_and_counts_every_request() {
        let mut params = KvParams::small(KvVariant::Update);
        params.write_pct = 50;
        let cfg = SystemConfig::test_config(params.nodes);
        let out = run_kv_update(&cfg, &params);
        assert_eq!(out.lat.requests(), params.requests_per_node * params.nodes as u64);
        assert!(out.report.get("kvu.writes_applied").unwrap() > 0.0);
        assert!(out.report.get("kvu.updates_sent").unwrap() > 0.0);
    }

    #[test]
    fn update_serving_handles_slots_wider_than_a_page_fraction() {
        // 8-word values make 72-byte slots; none may straddle a page,
        // because a put ships all of a key's blocks to one home.
        let mut params = KvParams::small(KvVariant::Update);
        params.value_words = 8;
        params.write_pct = 50;
        params.requests_per_node = 32;
        let cfg = SystemConfig::test_config(params.nodes);
        let out = run_kv_update(&cfg, &params);
        assert_eq!(out.lat.requests(), params.requests_per_node * params.nodes as u64);
    }

    #[test]
    fn variants_agree_on_request_counts() {
        // Same seed, same mix: the two variants serve the identical
        // request stream (the litmus family proves value agreement; this
        // is the cheap smoke that the runs are comparable at all).
        let mut sp = KvParams::small(KvVariant::Stache);
        sp.write_pct = 50;
        let mut up = sp.clone();
        up.variant = KvVariant::Update;
        let cfg = SystemConfig::test_config(sp.nodes);
        let s = run_kv_stache(&cfg, &sp);
        let u = run_kv_update(&cfg, &up);
        assert_eq!(s.lat.get.total(), u.lat.get.total());
        assert_eq!(s.lat.put.total(), u.lat.put.total());
    }
}
