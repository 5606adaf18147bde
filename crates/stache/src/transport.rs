//! A reliable transport for Tempest protocols on a lossy network.
//!
//! The paper assumes the CM-5-class network never loses a packet; the
//! `tt-net` fault plan (drops, duplication, detected corruption,
//! transient partitions) breaks that assumption. [`Reliable`] wraps any
//! [`Protocol`] and restores exactly-once, per-link-FIFO delivery on top
//! of the lossy wire, so the wrapped protocol runs unmodified:
//!
//! - every outgoing message to a remote node carries a **sequence
//!   number** (one sequence space per ordered sender→receiver pair,
//!   across *both* virtual networks — Stache and the `kv_update`
//!   protocol both rely on cross-VN per-pair FIFO);
//! - the receiver delivers strictly in sequence order, buffering
//!   early arrivals and suppressing stale duplicates (idempotence:
//!   a retransmitted copy of an already-delivered message is dropped,
//!   not re-executed), and returns **cumulative acks** ("I have
//!   everything below `n`") on the response network;
//! - the sender retransmits unacknowledged messages on a cycle-domain
//!   **timeout with exponential backoff**, using the machine's protocol
//!   timer ([`tt_tempest::TempestCtx::set_timer`]);
//! - a message still unacknowledged after `MAX_RETRIES` (24)
//!   retransmissions raises a Tempest-visible [`NetFault`] — graceful
//!   degradation with a deterministic diagnostic instead of a hang
//!   behind a permanently dead link.
//!
//! Determinism: all transport state advances only on handler execution
//! (sends, deliveries, timer firings), which the simulator orders by the
//! same deterministic event keys as every other event, so a faulty run
//! replays bit-exactly.
//!
//! Self-sends never traverse the wire (the network delivers them
//! fault-free), so they bypass sequencing entirely.

use std::collections::{BTreeMap, BTreeSet};

use tt_base::stats::Report;
use tt_base::{Cycles, NodeId};
use tt_net::{Payload, VirtualNet};
use tt_tempest::{
    BlockDirSnapshot, BlockFault, HandlerId, Message, NetFault, PageFault, Protocol, TempestCtx,
    ThreadId, UserCall, VnPolicy,
};

/// Transport-level cumulative acknowledgment. Arg 0 is the receiver's
/// `next_expected` sequence number for the acked link: "I have delivered
/// everything below this". Acks are unsequenced (an ack loss is repaired
/// by the next ack or a retransmission) and travel on the response
/// network so they can never be blocked behind requests.
pub(crate) const REL_ACK: HandlerId = HandlerId(0xF0);

/// Instruction cost charged per transport bookkeeping step (sequence
/// strip, ack processing) — the retry machinery is protocol code and
/// pays NP cycles like any other handler.
const REL_BOOKKEEP_INSTR: u64 = 2;
/// Instruction cost charged per retransmission.
const REL_RETRANSMIT_INSTR: u64 = 6;

/// Initial retransmission timeout (cycles after the send).
const TIMEOUT: Cycles = Cycles::new(128);
/// Backoff ceiling: a message's timeout doubles on every retransmission
/// up to this cap.
const BACKOFF_CAP: Cycles = Cycles::new(4096);
/// Retransmissions of one message before the transport gives up and
/// raises a [`NetFault`]. With [`TIMEOUT`] and [`BACKOFF_CAP`] the retry
/// horizon (~80k cycles) comfortably outlasts the longest transient
/// partition `FaultSpec::from_seed` can schedule (~9k cycles).
const MAX_RETRIES: u32 = 24;

/// Receiver behavior of a [`Reliable`] transport.
#[derive(Clone, Copy, Debug)]
pub struct ReliableConfig {
    /// Suppress stale duplicates at the receiver. `false` plants the
    /// classic retransmission bug — a retried message is re-executed on
    /// redelivery — which the tt-check fault fuzzer must catch.
    pub dedupe: bool,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig { dedupe: true }
    }
}

/// Transport counters, exposed in reports as `rel.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RelStats {
    /// Sequenced messages sent (first transmissions).
    sent: u64,
    /// Retransmissions.
    retransmits: u64,
    /// Acks sent.
    acks_sent: u64,
    /// Acks received.
    acks_received: u64,
    /// Stale duplicates suppressed at the receiver.
    stale_suppressed: u64,
    /// Stale duplicates delivered anyway (`dedupe: false` planted bug).
    stale_delivered: u64,
    /// Early arrivals parked in the reorder buffer.
    reordered: u64,
}

/// One retransmittable in-flight message.
#[derive(Clone, Debug)]
struct Inflight {
    vn: VirtualNet,
    handler: HandlerId,
    /// Wire payload, sequence word already appended.
    payload: Payload,
    /// Cycle at which the retransmission timer considers this message
    /// lost; mirrored by its entry in [`RelState::deadlines`].
    deadline: Cycles,
    /// Current per-message timeout (doubles per retry, capped).
    backoff: Cycles,
    retries: u32,
}

/// Sender-side state for one ordered link (this node → `dst`).
#[derive(Debug, Default)]
struct LinkTx {
    next_seq: u64,
    inflight: BTreeMap<u64, Inflight>,
}

/// Receiver-side state for one ordered link (`src` → this node).
#[derive(Debug, Default)]
struct LinkRx {
    next_expected: u64,
    /// Early arrivals keyed by sequence number.
    reorder: BTreeMap<u64, (VirtualNet, HandlerId, Payload)>,
}

/// Mutable transport state, split from the wrapped protocol so a
/// [`RelCtx`] can borrow it while the inner protocol runs.
#[derive(Debug, Default)]
struct RelState {
    /// Keyed by destination node (BTreeMap for deterministic iteration).
    tx: BTreeMap<u16, LinkTx>,
    /// Keyed by source node.
    rx: BTreeMap<u16, LinkRx>,
    /// One `(deadline, dst, seq)` entry per in-flight message, so a
    /// timer firing finds the due messages and the next deadline without
    /// walking every link.
    deadlines: BTreeSet<(Cycles, u16, u64)>,
    /// Deadline the machine timer is currently armed for, if any.
    timer_at: Option<Cycles>,
    stats: RelStats,
}

impl RelState {
    /// Arms the machine timer for `deadline` if it is not already armed
    /// at or before it. One timer serves all links; spurious firings
    /// find nothing due and re-arm.
    fn arm(&mut self, ctx: &mut dyn TempestCtx, deadline: Cycles) {
        if self.timer_at.is_none_or(|t| deadline < t) {
            ctx.set_timer(deadline, 0);
            self.timer_at = Some(deadline);
        }
    }
}

/// Wraps a protocol's [`TempestCtx`] so that every remote send is
/// sequenced and registered for retransmission. All other machine
/// services pass straight through.
struct RelCtx<'a> {
    ctx: &'a mut dyn TempestCtx,
    state: &'a mut RelState,
}

impl TempestCtx for RelCtx<'_> {
    fn node(&self) -> NodeId {
        self.ctx.node()
    }
    fn now(&self) -> Cycles {
        self.ctx.now()
    }
    fn charge(&mut self, instructions: u64) {
        self.ctx.charge(instructions);
    }
    fn protocol_data_access(&mut self, key: u64) {
        self.ctx.protocol_data_access(key);
    }

    fn send(&mut self, dst: NodeId, vn: VirtualNet, handler: HandlerId, mut payload: Payload) {
        if dst == self.ctx.node() {
            // Self-sends never touch the wire and are never faulted.
            self.ctx.send(dst, vn, handler, payload);
            return;
        }
        let link = self.state.tx.entry(dst.raw()).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        payload.push_word(seq);
        let deadline = self.ctx.now() + TIMEOUT;
        link.inflight.insert(
            seq,
            Inflight {
                vn,
                handler,
                payload: payload.clone(),
                deadline,
                backoff: TIMEOUT,
                retries: 0,
            },
        );
        self.state.deadlines.insert((deadline, dst.raw(), seq));
        self.state.stats.sent += 1;
        self.ctx.charge(REL_BOOKKEEP_INSTR);
        self.ctx.send(dst, vn, handler, payload);
        self.state.arm(self.ctx, deadline);
    }

    fn set_timer(&mut self, at: Cycles, token: u64) {
        self.ctx.set_timer(at, token);
    }
    fn raise_net_fault(&mut self, fault: NetFault) {
        self.ctx.raise_net_fault(fault);
    }
    fn alloc_page(&mut self) -> tt_base::addr::Ppn {
        self.ctx.alloc_page()
    }
    fn free_page(&mut self, ppn: tt_base::addr::Ppn) {
        self.ctx.free_page(ppn);
    }
    fn map_page(
        &mut self,
        vpn: tt_base::addr::Vpn,
        ppn: tt_base::addr::Ppn,
    ) -> Result<(), tt_mem::ptable::MapError> {
        self.ctx.map_page(vpn, ppn)
    }
    fn unmap_page(
        &mut self,
        vpn: tt_base::addr::Vpn,
    ) -> Result<tt_base::addr::Ppn, tt_mem::ptable::MapError> {
        self.ctx.unmap_page(vpn)
    }
    fn translate(&self, vpn: tt_base::addr::Vpn) -> Option<tt_base::addr::Ppn> {
        self.ctx.translate(vpn)
    }
    fn set_page_meta(&mut self, vpn: tt_base::addr::Vpn, meta: tt_mem::PageMeta) {
        self.ctx.set_page_meta(vpn, meta);
    }
    fn read_tag(&self, addr: tt_base::VAddr) -> tt_mem::Tag {
        self.ctx.read_tag(addr)
    }
    fn set_tag(&mut self, addr: tt_base::VAddr, tag: tt_mem::Tag) {
        self.ctx.set_tag(addr, tag);
    }
    fn set_page_tags(&mut self, vpn: tt_base::addr::Vpn, tag: tt_mem::Tag) {
        self.ctx.set_page_tags(vpn, tag);
    }
    fn force_read_block(&mut self, addr: tt_base::VAddr) -> [u8; tt_base::addr::BLOCK_BYTES] {
        self.ctx.force_read_block(addr)
    }
    fn force_write_block(
        &mut self,
        addr: tt_base::VAddr,
        block: &[u8; tt_base::addr::BLOCK_BYTES],
    ) {
        self.ctx.force_write_block(addr, block);
    }
    fn resume(&mut self, thread: ThreadId) {
        self.ctx.resume(thread);
    }
}

/// Reliable-delivery wrapper: see the module docs.
pub struct Reliable {
    inner: Box<dyn Protocol>,
    cfg: ReliableConfig,
    state: RelState,
}

impl Reliable {
    /// Wraps `inner` with the default configuration.
    pub fn new(inner: Box<dyn Protocol>) -> Self {
        Reliable::with_config(inner, ReliableConfig::default())
    }

    /// Wraps `inner` with an explicit configuration.
    pub fn with_config(inner: Box<dyn Protocol>, cfg: ReliableConfig) -> Self {
        Reliable { inner, cfg, state: RelState::default() }
    }

    /// Delivers a message to the wrapped protocol, with its sends
    /// sequenced through this transport.
    fn deliver(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        let mut rctx = RelCtx { ctx, state: &mut self.state };
        self.inner.on_message(&mut rctx, msg);
    }

    /// Sends the current cumulative ack for the link from `src`.
    fn send_ack(&mut self, ctx: &mut dyn TempestCtx, src: NodeId) {
        let next = self.state.rx.entry(src.raw()).or_default().next_expected;
        self.state.stats.acks_sent += 1;
        ctx.charge(REL_BOOKKEEP_INSTR);
        ctx.send(src, VirtualNet::Response, REL_ACK, Payload::args(&[next]));
    }

    /// Processes a cumulative ack from `src`: everything below `upto`
    /// is delivered and need never be retransmitted. Duplicate or stale
    /// acks are harmless (the range is simply already empty).
    fn on_ack(&mut self, ctx: &mut dyn TempestCtx, src: NodeId, upto: u64) {
        self.state.stats.acks_received += 1;
        ctx.charge(REL_BOOKKEEP_INSTR);
        let Some(link) = self.state.tx.get_mut(&src.raw()) else { return };
        while let Some(entry) = link.inflight.first_entry() {
            if *entry.key() >= upto {
                break;
            }
            let (seq, m) = entry.remove_entry();
            self.state.deadlines.remove(&(m.deadline, src.raw(), seq));
        }
    }
}

impl Protocol for Reliable {
    fn init(&mut self, ctx: &mut dyn TempestCtx) {
        let mut rctx = RelCtx { ctx, state: &mut self.state };
        self.inner.init(&mut rctx);
    }

    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
        let mut rctx = RelCtx { ctx, state: &mut self.state };
        self.inner.on_page_fault(&mut rctx, fault);
    }

    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault) {
        let mut rctx = RelCtx { ctx, state: &mut self.state };
        self.inner.on_block_fault(&mut rctx, fault);
    }

    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
        let mut rctx = RelCtx { ctx, state: &mut self.state };
        self.inner.on_user_call(&mut rctx, thread, call);
    }

    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message) {
        if msg.handler == REL_ACK {
            self.on_ack(ctx, msg.src, msg.arg(0));
            return;
        }
        if msg.src == ctx.node() {
            // Self-sends bypass sequencing on both ends.
            self.deliver(ctx, msg);
            return;
        }
        let mut msg = msg;
        let seq =
            msg.payload.pop_word().expect("sequenced message carries a trailing sequence word");
        ctx.charge(REL_BOOKKEEP_INSTR);
        let src = msg.src;
        let next = self.state.rx.entry(src.raw()).or_default().next_expected;
        if seq < next {
            // A stale duplicate: a retransmitted copy of a message this
            // node already delivered. Idempotence demands suppression —
            // re-ack so the sender stops retrying.
            if self.cfg.dedupe {
                self.state.stats.stale_suppressed += 1;
            } else {
                self.state.stats.stale_delivered += 1;
                self.deliver(ctx, msg);
            }
            self.send_ack(ctx, src);
            return;
        }
        if seq > next {
            // Early arrival (the predecessor was lost or is still in
            // flight): park it; redundant copies of a parked message
            // are ignored.
            self.state.stats.reordered += 1;
            let rxl = self.state.rx.get_mut(&src.raw()).expect("entry created above");
            rxl.reorder.entry(seq).or_insert((msg.vn, msg.handler, msg.payload));
            self.send_ack(ctx, src);
            return;
        }
        // In order: deliver, then drain any parked successors.
        self.deliver(ctx, msg);
        loop {
            let rxl = self.state.rx.get_mut(&src.raw()).expect("entry created above");
            rxl.next_expected += 1;
            let n = rxl.next_expected;
            match rxl.reorder.remove(&n) {
                Some((vn, handler, payload)) => {
                    self.deliver(ctx, Message { src, vn, handler, payload })
                }
                None => break,
            }
        }
        self.send_ack(ctx, src);
    }

    fn on_timer(&mut self, ctx: &mut dyn TempestCtx, _token: u64) {
        let now = ctx.now();
        self.state.timer_at = None;
        ctx.charge(REL_BOOKKEEP_INSTR);
        // The due messages leave the index first; each retry re-enters
        // it under its new deadline. They are handled in `(dst, seq)`
        // order, link by link, whatever their deadlines' order.
        let mut due = Vec::new();
        while let Some(&(deadline, dst, seq)) = self.state.deadlines.first() {
            if deadline > now {
                break;
            }
            self.state.deadlines.pop_first();
            due.push((dst, seq));
        }
        due.sort_unstable();
        let mut faults = Vec::new();
        for (dst, seq) in due {
            let link = self.state.tx.get_mut(&dst).expect("an indexed message's link exists");
            let m = link.inflight.get_mut(&seq).expect("an indexed message is in flight");
            if m.retries >= MAX_RETRIES {
                let m = link.inflight.remove(&seq).expect("checked above");
                faults.push(NetFault {
                    node: ctx.node(),
                    dst: NodeId::new(dst),
                    vn: m.vn,
                    handler: m.handler,
                    retries: m.retries,
                });
                continue;
            }
            m.retries += 1;
            m.deadline = now + m.backoff;
            m.backoff = Cycles::new((m.backoff.raw() * 2).min(BACKOFF_CAP.raw()));
            self.state.deadlines.insert((m.deadline, dst, seq));
            self.state.stats.retransmits += 1;
            ctx.charge(REL_RETRANSMIT_INSTR);
            ctx.send(NodeId::new(dst), m.vn, m.handler, m.payload.clone());
        }
        if let Some(&(d, _, _)) = self.state.deadlines.first() {
            self.state.arm(ctx, d);
        }
        for f in faults {
            // Deterministic graceful degradation: on a real machine this
            // terminates the run with the fault's diagnostic.
            ctx.raise_net_fault(f);
        }
    }

    fn report(&self, report: &mut Report) {
        self.inner.report(report);
        let s = &self.state.stats;
        report.push_count("rel.sent", s.sent);
        report.push_count("rel.retransmits", s.retransmits);
        report.push_count("rel.acks_sent", s.acks_sent);
        report.push_count("rel.acks_received", s.acks_received);
        report.push_count("rel.stale_suppressed", s.stale_suppressed);
        report.push_count("rel.stale_delivered", s.stale_delivered);
        report.push_count("rel.reordered", s.reordered);
    }

    fn inspect_directory(&self, out: &mut Vec<BlockDirSnapshot>) {
        self.inner.inspect_directory(out);
    }
}

/// Extends a protocol's virtual-net policy with the transport's ack
/// handler (acks travel on the response network).
pub fn reliable_vn_policy(base: VnPolicy) -> VnPolicy {
    base.expect(REL_ACK, VirtualNet::Response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_tempest::testing::MockCtx;

    use std::sync::{Arc, Mutex};

    type Log = Arc<Mutex<Vec<(HandlerId, Vec<u64>)>>>;

    /// Records deliveries into a shared log; sends one sequenced message
    /// (to the node named by `call.op`) per user call.
    struct Recorder {
        log: Log,
    }

    const PING: HandlerId = HandlerId(0x77);

    impl Protocol for Recorder {
        fn on_page_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: PageFault) {
            unreachable!("transport tests take no page faults");
        }
        fn on_block_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: BlockFault) {
            unreachable!("transport tests take no block faults");
        }
        fn on_message(&mut self, _ctx: &mut dyn TempestCtx, msg: Message) {
            self.log.lock().unwrap().push((msg.handler, msg.payload.words().to_vec()));
        }
        fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, call: UserCall) {
            ctx.send(
                NodeId::new(call.op as u16),
                VirtualNet::Request,
                PING,
                Payload::args(&[call.arg]),
            );
            ctx.resume(thread);
        }
    }

    fn rig(cfg: ReliableConfig) -> (Reliable, MockCtx, Log) {
        let log: Log = Arc::default();
        (Reliable::with_config(Box::new(Recorder { log: log.clone() }), cfg), MockCtx::new(0), log)
    }

    fn delivered(log: &Log) -> Vec<(HandlerId, Vec<u64>)> {
        log.lock().unwrap().clone()
    }

    fn wire(src: u16, seq: u64, words: Vec<u64>) -> Message {
        let mut words = words;
        words.push(seq);
        Message {
            src: NodeId::new(src),
            vn: VirtualNet::Request,
            handler: PING,
            payload: Payload::args(&words),
        }
    }

    #[test]
    fn sends_are_sequenced_and_tracked() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 9 });
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 10 });
        assert_eq!(ctx.sent.len(), 2);
        assert_eq!(ctx.sent[0].payload.words(), &[9, 0], "seq 0 appended");
        assert_eq!(ctx.sent[1].payload.words(), &[10, 1], "seq 1 appended");
        assert_eq!(r.state.stats.sent, 2);
        assert_eq!(ctx.timers.len(), 1, "one timer for the earliest deadline");
        assert_eq!(ctx.timers[0].0, Cycles::new(128));
    }

    #[test]
    fn self_sends_bypass_sequencing() {
        let (mut r, mut ctx, log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 0, arg: 5 });
        assert_eq!(ctx.sent[0].payload.words(), &[5], "no seq word");
        assert_eq!(r.state.stats.sent, 0);
        assert!(ctx.timers.is_empty());
        // And a self-delivered message needs no seq word stripped.
        let m = Message {
            src: NodeId::new(0),
            vn: VirtualNet::Request,
            handler: PING,
            payload: Payload::args(&[5]),
        };
        r.on_message(&mut ctx, m);
        assert_eq!(delivered(&log), vec![(PING, vec![5])]);
    }

    #[test]
    fn in_order_delivery_acks_cumulatively() {
        let (mut r, mut ctx, log) = rig(ReliableConfig::default());
        r.on_message(&mut ctx, wire(2, 0, vec![40]));
        r.on_message(&mut ctx, wire(2, 1, vec![41]));
        assert_eq!(delivered(&log), vec![(PING, vec![40]), (PING, vec![41])]);
        let acks: Vec<_> = ctx
            .sent
            .iter()
            .filter(|s| s.handler == REL_ACK)
            .map(|s| (s.dst, s.vn, s.payload.words()[0]))
            .collect();
        assert_eq!(
            acks,
            vec![
                (NodeId::new(2), VirtualNet::Response, 1),
                (NodeId::new(2), VirtualNet::Response, 2)
            ]
        );
    }

    #[test]
    fn early_arrivals_are_parked_and_drained_in_order() {
        let (mut r, mut ctx, log) = rig(ReliableConfig::default());
        r.on_message(&mut ctx, wire(2, 2, vec![42]));
        r.on_message(&mut ctx, wire(2, 1, vec![41]));
        assert!(delivered(&log).is_empty(), "nothing until seq 0 arrives");
        assert_eq!(r.state.stats.reordered, 2);
        r.on_message(&mut ctx, wire(2, 0, vec![40]));
        assert_eq!(delivered(&log), vec![(PING, vec![40]), (PING, vec![41]), (PING, vec![42])]);
        let last_ack = ctx.sent.iter().rev().find(|s| s.handler == REL_ACK).unwrap();
        assert_eq!(last_ack.payload.words()[0], 3, "cumulative ack covers the drain");
    }

    #[test]
    fn stale_duplicates_are_suppressed_and_reacked() {
        let (mut r, mut ctx, log) = rig(ReliableConfig::default());
        r.on_message(&mut ctx, wire(2, 0, vec![40]));
        r.on_message(&mut ctx, wire(2, 0, vec![40])); // retransmitted copy
        assert_eq!(delivered(&log).len(), 1, "idempotent redelivery");
        assert_eq!(r.state.stats.stale_suppressed, 1);
        let acks: Vec<u64> = ctx
            .sent
            .iter()
            .filter(|s| s.handler == REL_ACK)
            .map(|s| s.payload.words()[0])
            .collect();
        assert_eq!(acks, vec![1, 1], "duplicate is re-acked so the sender stops");
    }

    #[test]
    fn dedupe_off_replays_the_duplicate_into_the_protocol() {
        let (mut r, mut ctx, log) = rig(ReliableConfig { dedupe: false });
        r.on_message(&mut ctx, wire(2, 0, vec![40]));
        r.on_message(&mut ctx, wire(2, 0, vec![40]));
        assert_eq!(delivered(&log).len(), 2, "planted bug: re-execution");
        assert_eq!(r.state.stats.stale_delivered, 1);
    }

    #[test]
    fn timeout_fires_exactly_at_the_window_boundary() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 9 });
        // One cycle before the deadline: no retransmission, timer re-armed.
        ctx.advance(Cycles::new(127));
        r.on_timer(&mut ctx, 0);
        assert_eq!(r.state.stats.retransmits, 0);
        assert_eq!(ctx.timers.last().unwrap().0, Cycles::new(128), "re-armed");
        // Exactly at the deadline: the message is retransmitted.
        ctx.advance(Cycles::new(1));
        r.on_timer(&mut ctx, 0);
        assert_eq!(r.state.stats.retransmits, 1);
        let last = ctx.sent.last().unwrap();
        assert_eq!(last.payload.words(), &[9, 0], "same wire payload, same seq");
        // Backoff doubled: next deadline is 128 + 128*2? No — the new
        // deadline uses the pre-doubling backoff (128), the *next* one
        // doubles.
        assert_eq!(ctx.timers.last().unwrap().0, Cycles::new(128 + 128));
    }

    #[test]
    fn ack_after_retry_clears_inflight_and_stops_the_clock() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 9 });
        ctx.advance(Cycles::new(128));
        r.on_timer(&mut ctx, 0);
        assert_eq!(r.state.stats.retransmits, 1);
        // The (late) ack for the original arrives after the retry.
        let ack = Message {
            src: NodeId::new(1),
            vn: VirtualNet::Response,
            handler: REL_ACK,
            payload: Payload::args(&[1]),
        };
        r.on_message(&mut ctx, ack.clone());
        // A duplicate ack (the retry also got acked) is harmless.
        r.on_message(&mut ctx, ack);
        assert_eq!(r.state.stats.acks_received, 2);
        // The next timer firing finds nothing due and arms nothing.
        let timers_before = ctx.timers.len();
        ctx.advance(Cycles::new(10_000));
        r.on_timer(&mut ctx, 0);
        assert_eq!(r.state.stats.retransmits, 1, "nothing left to retry");
        assert_eq!(ctx.timers.len(), timers_before, "clock stopped");
    }

    /// Advances the mock clock to the transport's armed timer and fires it.
    fn fire_next_timer(r: &mut Reliable, ctx: &mut MockCtx) {
        let deadline = ctx.timers.last().unwrap().0;
        ctx.advance(deadline - ctx.now());
        r.on_timer(ctx, 0);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 9 });
        let mut gaps = Vec::new();
        for _ in 0..7 {
            fire_next_timer(&mut r, &mut ctx);
            let next = ctx.timers.last().unwrap().0;
            gaps.push((next - ctx.now()).raw());
        }
        let doubling: Vec<u64> = (0..6).map(|i| TIMEOUT.raw() << i).collect();
        assert_eq!(gaps[..6], doubling, "doubling");
        assert_eq!(gaps[6], BACKOFF_CAP.raw(), "then capped");
    }

    #[test]
    fn exhausted_retries_raise_a_net_fault() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 3, arg: 9 });
        for _ in 0..MAX_RETRIES {
            fire_next_timer(&mut r, &mut ctx);
        }
        assert_eq!(r.state.stats.retransmits, u64::from(MAX_RETRIES), "the budget");
        assert!(ctx.net_faults.is_empty(), "still within the budget");
        fire_next_timer(&mut r, &mut ctx);
        assert_eq!(r.state.stats.retransmits, u64::from(MAX_RETRIES), "no retry past it");
        assert_eq!(ctx.net_faults.len(), 1, "then the transport gives up");
        let f = ctx.net_faults[0];
        assert_eq!(f.dst, NodeId::new(3));
        assert_eq!(f.handler, PING);
        assert_eq!(f.retries, MAX_RETRIES);
        // Giving up is terminal for that message: no further retries.
        ctx.advance(Cycles::new(100_000));
        r.on_timer(&mut ctx, 0);
        assert_eq!(r.state.stats.retransmits, u64::from(MAX_RETRIES));
    }

    #[test]
    fn partition_healing_mid_retransmit_converges() {
        // Model a partition: several timeouts elapse with no ack (the
        // copies are being lost), then the link heals and a stale
        // duplicate plus the ack arrive. The sender must stop cleanly.
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        r.on_user_call(&mut ctx, ThreadId(NodeId::new(0)), UserCall { op: 1, arg: 9 });
        for _ in 0..3 {
            let deadline = ctx.timers.last().unwrap().0;
            ctx.advance(deadline - ctx.now());
            r.on_timer(&mut ctx, 0);
        }
        assert_eq!(r.state.stats.retransmits, 3);
        // Heal: the receiver finally got a copy and acks it.
        r.on_message(
            &mut ctx,
            Message {
                src: NodeId::new(1),
                vn: VirtualNet::Response,
                handler: REL_ACK,
                payload: Payload::args(&[1]),
            },
        );
        ctx.advance(Cycles::new(100_000));
        r.on_timer(&mut ctx, 0);
        assert_eq!(r.state.stats.retransmits, 3, "healed link needs no more copies");
        assert!(ctx.net_faults.is_empty());
    }

    /// Sends one sequenced message to `dst` (a [`Recorder`] user call).
    fn send_to(r: &mut Reliable, ctx: &mut MockCtx, dst: u16, arg: u64) {
        r.on_user_call(ctx, ThreadId(NodeId::new(0)), UserCall { op: u32::from(dst), arg });
    }

    /// A cumulative ack from `src` covering every sequence below `upto`.
    fn ack(r: &mut Reliable, ctx: &mut MockCtx, src: u16, upto: u64) {
        let payload = Payload::args(&[upto]);
        let m =
            Message { src: NodeId::new(src), vn: VirtualNet::Response, handler: REL_ACK, payload };
        r.on_message(ctx, m);
    }

    /// The deadline index holds exactly one entry per in-flight message.
    fn assert_index_matches_inflight(r: &Reliable) {
        let inflight: BTreeSet<(Cycles, u16, u64)> = r
            .state
            .tx
            .iter()
            .flat_map(|(&dst, l)| l.inflight.iter().map(move |(&seq, m)| (m.deadline, dst, seq)))
            .collect();
        assert_eq!(r.state.deadlines, inflight);
    }

    #[test]
    fn one_firing_retransmits_in_link_order_not_deadline_order() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        send_to(&mut r, &mut ctx, 2, 20); // (2, 0) due at 128
        ctx.advance(Cycles::new(3));
        send_to(&mut r, &mut ctx, 2, 21); // (2, 1) due at 131
        ctx.advance(Cycles::new(2));
        send_to(&mut r, &mut ctx, 1, 10); // (1, 0) due at 133
        ctx.advance(Cycles::new(133 - 5));
        let before = ctx.sent.len();
        r.on_timer(&mut ctx, 0);
        let retried: Vec<(NodeId, &[u64])> =
            ctx.sent[before..].iter().map(|m| (m.dst, m.payload.words())).collect();
        assert_eq!(
            retried,
            vec![
                (NodeId::new(1), &[10, 0][..]),
                (NodeId::new(2), &[20, 0][..]),
                (NodeId::new(2), &[21, 1][..]),
            ],
            "ascending (dst, seq), the latest deadline first"
        );
        assert_index_matches_inflight(&r);
    }

    #[test]
    fn the_deadline_index_tracks_acks_and_give_ups() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        for arg in 0..3 {
            send_to(&mut r, &mut ctx, 1, arg);
        }
        send_to(&mut r, &mut ctx, 2, 9);
        assert_eq!(r.state.deadlines.len(), 4);
        ack(&mut r, &mut ctx, 1, 2);
        assert_index_matches_inflight(&r);
        assert_eq!(r.state.deadlines.len(), 2, "seqs 0 and 1 to node 1 acked");
        for _ in 0..MAX_RETRIES {
            fire_next_timer(&mut r, &mut ctx);
            assert_index_matches_inflight(&r);
        }
        fire_next_timer(&mut r, &mut ctx);
        assert_eq!(ctx.net_faults.len(), 2, "both survivors give up");
        assert!(r.state.deadlines.is_empty());
        assert_index_matches_inflight(&r);
        send_to(&mut r, &mut ctx, 2, 10);
        assert_eq!(r.state.deadlines.len(), 1, "a later send is indexed afresh");
        assert_index_matches_inflight(&r);
    }

    #[test]
    fn a_firing_with_nothing_due_rearms_at_the_earliest_deadline() {
        let (mut r, mut ctx, _log) = rig(ReliableConfig::default());
        send_to(&mut r, &mut ctx, 1, 10); // due at 128; the timer is armed there
        ctx.advance(Cycles::new(10));
        send_to(&mut r, &mut ctx, 3, 30); // due at 138
        ctx.advance(Cycles::new(2));
        send_to(&mut r, &mut ctx, 2, 20); // due at 140
        ack(&mut r, &mut ctx, 1, 1);
        let sent_before = ctx.sent.len();
        fire_next_timer(&mut r, &mut ctx);
        assert_eq!(ctx.now(), Cycles::new(128), "the stale timer still fires");
        assert_eq!(ctx.sent.len(), sent_before, "nothing due, nothing sent");
        assert_eq!(r.state.stats.retransmits, 0);
        assert_eq!(ctx.timers.last().unwrap().0, Cycles::new(138), "re-armed at the earliest");
    }

    #[test]
    fn vn_policy_extension_covers_the_ack() {
        let policy = reliable_vn_policy(crate::vn_policy());
        assert_eq!(policy.expected(REL_ACK), Some(VirtualNet::Response));
        assert_eq!(policy.expected(crate::stache::GET_RO), Some(VirtualNet::Request));
    }
}
