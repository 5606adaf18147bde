//! The Typhoon machine: nodes, events, and the simulation driver.
//!
//! The machine executes a [`Workload`]'s op streams on `nodes` simulated
//! processors (the shared `tt_sim::cpu` front end, with Typhoon's
//! tag-checked bus model behind its memory ops), each paired with a
//! network interface processor running one instance of a user-level
//! [`Protocol`]. See the crate docs for the modeling approach. The
//! shared [`tt_sim::driver`] runs it.

use std::collections::HashMap;

use tt_base::addr::{VAddr, WORD_BYTES};
use tt_base::config::{NpMode, SystemConfig, BULK_PACKET_CYCLES};
use tt_base::stats::Report;
use tt_base::workload::{Layout, Workload};
use tt_base::{Cycles, DetRng, NodeId};
use tt_mem::{NodeMemory, PageTable, Tag};
use tt_net::{Network, Packet, Payload, VirtualNet};
use tt_sim::cpu::{self, Access, CpuHost, Flow, Stall, Status, Stream};
use tt_sim::driver::{self, Machine};
use tt_sim::EventQueue;
use tt_tempest::{BlockDirSnapshot, BulkRequest, HandlerId, Message, Protocol, UserCall};

use crate::cpu::{exec_access, AccessOutcome, CpuState};
use crate::ctx::NodeCtx;
use crate::np::{NpState, NpWork};

/// Handler-id space reserved for machine-internal packets (bulk data);
/// protocol handler ids must stay below this.
pub const MACHINE_HANDLER_BASE: u32 = 0xFFFF_FF00;
const BULK_DATA: u32 = MACHINE_HANDLER_BASE;
const BULK_DONE: u32 = MACHINE_HANDLER_BASE + 1;
const BULK_ACK: u32 = MACHINE_HANDLER_BASE + 2;
/// Sentinel for "no notify handler" in bulk-done packets.
const NO_HANDLER: u64 = u64::MAX;

/// A simulation event.
#[derive(Clone, Debug)]
pub enum Event {
    /// Run (at most a quantum of) ops on a CPU.
    CpuStep(usize),
    /// The NP's dispatch loop looks for work.
    NpDispatch(usize),
    /// Work arrives at a node's NP (faults, application calls).
    NpWork {
        /// Destination node index.
        node: usize,
        /// The work item.
        work: NpWork,
    },
    /// A network packet arrives at its destination.
    Deliver(Packet),
    /// All processors arrived; release the barrier.
    BarrierRelease {
        /// Barrier generation (for sanity checking).
        generation: u64,
    },
    /// Inject the next packet of an active bulk transfer.
    BulkInject {
        /// Source node index.
        node: usize,
        /// Transfer id.
        id: u64,
    },
}

impl Event {
    /// The node whose state handling this event touches, or `None` for
    /// events with machine-global effect. Anchors the keys of what their
    /// handlers schedule.
    pub fn target(&self) -> Option<usize> {
        match self {
            Event::CpuStep(n) | Event::NpDispatch(n) => Some(*n),
            Event::NpWork { node, .. } | Event::BulkInject { node, .. } => Some(*node),
            Event::Deliver(p) => Some(p.dst.index()),
            Event::BarrierRelease { .. } => None,
        }
    }
}

/// An in-progress outgoing bulk transfer.
#[derive(Clone, Debug)]
pub struct BulkState {
    /// Transfer id (unique per source node).
    pub id: u64,
    /// The original request.
    pub request: BulkRequest,
    /// Bytes injected so far.
    pub offset: usize,
}

/// One node: CPU + NP + memory + page table + active bulk transfers.
pub(crate) struct NodeState {
    pub(crate) cpu: CpuState,
    pub(crate) np: NpState,
    pub(crate) mem: NodeMemory,
    pub(crate) ptable: PageTable,
    pub(crate) bulk: Vec<BulkState>,
    /// Ids for this node's bulk transfers (bulk ids are matched only
    /// against the owning node's `bulk` list).
    pub(crate) bulk_seq: u64,
}

pub use tt_sim::RunResult;

/// The Typhoon machine (see crate docs).
pub struct TyphoonMachine {
    cfg: SystemConfig,
    nodes: Vec<NodeState>,
    protocols: Vec<Option<Box<dyn Protocol>>>,
    network: Network,
    workload: Box<dyn Workload>,
    layout: Layout,
    /// Seed for same-cycle tie-shuffling, applied to the event queue at
    /// `run` time (a `tt-check` legal-nondeterminism knob).
    tie_shuffle: Option<u64>,
}

impl TyphoonMachine {
    /// Builds a machine: one CPU/NP pair per node, a fresh protocol
    /// instance per node from `protocol`, and the given workload.
    ///
    /// The factory receives the node id and the workload's layout — the
    /// moral equivalent of the paper's "distributed mapping table" being
    /// known to the run-time library on every node.
    pub fn new(
        cfg: SystemConfig,
        workload: Box<dyn Workload>,
        protocol: &dyn Fn(NodeId, &Layout, &SystemConfig) -> Box<dyn Protocol>,
    ) -> Self {
        let layout = workload.layout();
        let mut rng = DetRng::new(cfg.seed);
        let nodes = (0..cfg.nodes)
            .map(|i| NodeState {
                cpu: CpuState::new(NodeId::new(i as u16), &cfg, rng.fork(i as u64 * 2)),
                np: NpState::new(rng.fork(i as u64 * 2 + 1)),
                mem: NodeMemory::new(),
                ptable: PageTable::new(),
                bulk: Vec::new(),
                bulk_seq: 0,
            })
            .collect();
        let protocols = (0..cfg.nodes)
            .map(|i| Some(protocol(NodeId::new(i as u16), &layout, &cfg)))
            .collect();
        let mut network = Network::new(cfg.nodes, cfg.network_latency);
        network.set_topology(cfg.topology);
        if let Some(spec) = cfg.fault {
            network.set_fault_plan(spec);
        }
        TyphoonMachine {
            cfg,
            nodes,
            protocols,
            network,
            workload,
            layout,
            tie_shuffle: None,
        }
    }

    /// Delivers same-cycle events in a seed-dependent permutation instead
    /// of key order (the driver salts the queue's keys with `seed`).
    /// Call before [`TyphoonMachine::run`].
    pub fn set_tie_shuffle(&mut self, seed: u64) {
        self.tie_shuffle = Some(seed);
    }

    /// Stretches every wire packet's latency by a deterministic extra
    /// `0..=max_extra` cycles drawn from `seed`, preserving per-link FIFO
    /// (see `tt_net::Network::set_jitter`). Call before
    /// [`TyphoonMachine::run`].
    pub fn set_net_jitter(&mut self, seed: u64, max_extra: Cycles) {
        self.network.set_jitter(seed, max_extra);
    }

    /// The workload's shared-segment layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    // --- Inspection (tt-check) -------------------------------------------
    //
    // Read-only views for the invariant engine. None of these are called
    // on the production path.

    /// The machine's configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The tag of `addr`'s block in `node`'s memory, or `None` if the
    /// node has no frame mapped for that page.
    pub fn node_tag(&self, node: usize, addr: VAddr) -> Option<Tag> {
        let n = &self.nodes[node];
        n.ptable.translate_addr(addr).map(|pa| n.mem.tag(pa))
    }

    /// The word at virtual `addr` in `node`'s memory, or `None` if the
    /// page is unmapped there.
    pub fn node_word(&self, node: usize, addr: VAddr) -> Option<u64> {
        let n = &self.nodes[node];
        n.ptable.translate_addr(addr).map(|pa| n.mem.read_word(pa))
    }

    /// Values `node`'s CPU observed via `Op::ReadRecord` loads, in
    /// program order (litmus harnesses read these back after a run).
    pub fn recorded_reads(&self, node: usize) -> &[u64] {
        &self.nodes[node].cpu.stream.recorded
    }

    /// Snapshots of every home-block directory entry across all nodes
    /// (via [`Protocol::inspect_directory`]). Empty for protocols that
    /// keep no directory.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a protocol handler (the running
    /// node's protocol is temporarily taken); event-boundary observers
    /// never see that state.
    pub fn inspect_directories(&self) -> Vec<BlockDirSnapshot> {
        let mut out = Vec::new();
        for proto in &self.protocols {
            proto
                .as_ref()
                .expect("inspect between events, not mid-handler")
                .inspect_directory(&mut out);
        }
        out
    }

    /// Runs the simulation to completion and returns timing + statistics.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (events drain while a processor is
    /// still blocked — a protocol that lost a resume, or a workload whose
    /// barrier counts differ across processors), or if value verification
    /// is enabled and a load observes a value that a sequentially
    /// consistent execution could not produce.
    pub fn run(&mut self) -> RunResult {
        driver::run(self)
    }

    /// Like [`TyphoonMachine::run`], but invokes `observe` after every
    /// event with the event just handled and the machine's post-event
    /// state — the attachment point for the `tt-check` invariant engine.
    /// Handlers are atomic, so at each callback the machine is in a
    /// consistent state (protocols restored, tags settled). Cycle counts
    /// are identical to [`TyphoonMachine::run`]'s.
    pub fn run_observed(
        &mut self,
        observe: &mut dyn FnMut(Cycles, &Event, &TyphoonMachine),
    ) -> RunResult {
        driver::run_observed(self, observe)
    }

    // --- Reporting -------------------------------------------------------

    fn build_report(&mut self, cycles: Cycles, releases: u64) -> Report {
        let mut r = Report::new();
        r.push_count("machine.cycles", cycles.raw());
        r.push_count("machine.nodes", self.cfg.nodes as u64);
        r.push_count("machine.barriers", releases);

        r.push_sums(
            &self.nodes,
            &[
                ("cpu.ops", |n| n.cpu.stream.ops.get()),
                ("cpu.reads", |n| n.cpu.stats.reads.get()),
                ("cpu.writes", |n| n.cpu.stats.writes.get()),
                ("cpu.compute_cycles", |n| n.cpu.stream.compute_cycles.get()),
                ("cpu.local_misses", |n| n.cpu.stats.local_misses.get()),
                ("cpu.upgrades", |n| n.cpu.stats.upgrades.get()),
                ("cpu.block_faults", |n| n.cpu.stats.block_faults.get()),
                ("cpu.page_faults", |n| n.cpu.stats.page_faults.get()),
                ("cpu.fault_stall_cycles", |n| {
                    n.cpu.stream.stall_cycles(Stall::Fault)
                }),
                ("cpu.barrier_wait_cycles", |n| {
                    n.cpu.stream.barrier_wait_cycles.get()
                }),
                ("cpu.call_stall_cycles", |n| {
                    n.cpu.stream.stall_cycles(Stall::Call)
                }),
                ("cpu.cache_hits", |n| n.cpu.cache.stats().hits.get()),
                ("cpu.cache_misses", |n| n.cpu.cache.stats().misses.get()),
                ("cpu.tlb_misses", |n| n.cpu.tlb.stats().misses.get()),
                ("cpu.rtlb_misses", |n| n.cpu.stats.rtlb_misses.get()),
                ("cpu.idle_cycles", |n| n.cpu.stream.idle_cycles.get()),
                ("np.handlers", |n| n.np.stats.handlers.get()),
                ("np.instructions", |n| n.np.stats.instructions.get()),
                ("np.messages", |n| n.np.stats.messages.get()),
                ("np.busy_cycles", |n| n.np.stats.busy_cycles.get()),
                ("np.bulk_packets", |n| n.np.stats.bulk_packets.get()),
            ],
        );

        let net = self.network.stats();
        r.push_count("net.packets", net.total_packets());
        r.push_count("net.bytes", net.total_bytes());
        r.push_count("net.local_packets", net.local_packets.get());

        // Aggregate protocol statistics across nodes by summing rows with
        // equal names.
        let mut order: Vec<String> = Vec::new();
        let mut sums: HashMap<String, f64> = HashMap::new();
        for proto in self.protocols.iter().flatten() {
            let mut pr = Report::new();
            proto.report(&mut pr);
            for row in pr.iter() {
                if !sums.contains_key(&row.name) {
                    order.push(row.name.clone());
                }
                *sums.entry(row.name.clone()).or_insert(0.0) += row.value;
            }
        }
        for name in order {
            let v = sums[&name];
            r.push(name, v);
        }
        r
    }
}

#[doc(hidden)]
impl Machine for TyphoonMachine {
    type Event = Event;

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn tie_shuffle(&self) -> Option<u64> {
        self.tie_shuffle
    }

    fn target(&self, event: &Event) -> Option<usize> {
        event.target()
    }

    /// Initializes every node's protocol at time zero and seeds the
    /// queue with each node's first CPU step.
    fn init(&mut self, queue: &mut EventQueue<Event>) {
        for n in 0..self.cfg.nodes {
            queue.set_origin(n);
            let mut proto = self.protocols[n].take().expect("protocol present");
            let mut ctx = self.ctx(n, Cycles::ZERO, queue);
            proto.init(&mut ctx);
            self.protocols[n] = Some(proto);
        }
        cpu::seed(self, queue);
    }

    /// Dispatches one event (the driver has declared its target as the
    /// origin of everything the handler schedules).
    #[inline]
    fn handle(&mut self, now: Cycles, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::CpuStep(n) => cpu::step(self, n, now, queue),
            Event::NpDispatch(n) => {
                let np = &mut self.nodes[n].np;
                np.dispatch_pending = false;
                if np.busy_until > now {
                    np.dispatch_pending = true;
                    let at = np.busy_until;
                    queue.schedule(at, Event::NpDispatch(n));
                } else if np.has_work() {
                    self.run_one_handler(n, now, queue);
                }
            }
            Event::NpWork { node, work } => {
                self.nodes[node].np.enqueue(work);
                self.try_dispatch(node, now, queue);
            }
            Event::Deliver(packet) => self.deliver(packet, now, queue),
            Event::BarrierRelease { generation } => cpu::release(self, now, generation, queue),
            Event::BulkInject { node, id } => self.bulk_inject(node, id, now, queue),
        }
    }

    fn release_event(generation: u64) -> Event {
        Event::BarrierRelease { generation }
    }

    /// Asserts the machine drained cleanly and builds the result.
    fn finish(&mut self, releases: u64) -> (Cycles, Report) {
        let cycles =
            cpu::finished_at(self.nodes.iter().map(|n| &n.cpu.stream)).unwrap_or_else(|stuck| {
                panic!(
                    "machine deadlocked with processors still blocked: {stuck:?} \
                     (np work pending={:?})",
                    self.nodes
                        .iter()
                        .map(|n| n.np.has_work())
                        .collect::<Vec<_>>()
                )
            });
        (cycles, self.build_report(cycles, releases))
    }
}

impl TyphoonMachine {
    /// Builds a per-handler context for node `n`.
    fn ctx<'a>(
        &'a mut self,
        n: usize,
        start: Cycles,
        queue: &'a mut EventQueue<Event>,
    ) -> NodeCtx<'a> {
        NodeCtx {
            id: NodeId::new(n as u16),
            nodes: self.cfg.nodes,
            cfg: &self.cfg,
            start,
            cost: Cycles::ZERO,
            node: &mut self.nodes[n],
            network: &mut self.network,
            queue,
        }
    }

    // --- NP execution ---------------------------------------------------

    fn try_dispatch(&mut self, n: usize, now: Cycles, queue: &mut EventQueue<Event>) {
        let np = &mut self.nodes[n].np;
        if !np.has_work() {
            return;
        }
        if np.busy_until > now {
            if !np.dispatch_pending {
                np.dispatch_pending = true;
                queue.schedule(np.busy_until, Event::NpDispatch(n));
            }
            return;
        }
        self.run_one_handler(n, now, queue);
    }

    fn run_one_handler(&mut self, n: usize, now: Cycles, queue: &mut EventQueue<Event>) {
        let Some(work) = self.nodes[n].np.next_work() else {
            return;
        };
        let start = now + self.cfg.np_mode.dispatch();
        {
            let stats = &mut self.nodes[n].np.stats;
            stats.handlers.inc();
            match &work {
                NpWork::Message(_) | NpWork::Timer(_) => {}
                NpWork::BlockFault(_) => stats.block_faults.inc(),
                NpWork::PageFault(_) => stats.page_faults.inc(),
                NpWork::UserCall(..) => stats.user_calls.inc(),
            }
        }
        let mut proto = self.protocols[n].take().expect("protocol present");
        let cost = {
            let mut ctx = self.ctx(n, start, queue);
            match work {
                NpWork::Message(m) => proto.on_message(&mut ctx, m),
                NpWork::BlockFault(f) => proto.on_block_fault(&mut ctx, f),
                NpWork::PageFault(f) => proto.on_page_fault(&mut ctx, f),
                NpWork::UserCall(t, c) => proto.on_user_call(&mut ctx, t, c),
                NpWork::Timer(token) => proto.on_timer(&mut ctx, token),
            }
            let c = ctx.total_cost();
            if c == Cycles::ZERO {
                Cycles::new(1)
            } else {
                c
            }
        };
        self.protocols[n] = Some(proto);
        let node = &mut self.nodes[n];
        let np = &mut node.np;
        np.busy_until = start + cost;
        np.stats
            .busy_cycles
            .add((self.cfg.np_mode.dispatch() + cost).raw());
        // Software Tempest: the handler ran on the primary CPU, stealing
        // its cycles if it was computing.
        if self.cfg.np_mode == NpMode::OnCpu
            && node.cpu.stream.status == Status::Ready
            && node.cpu.stream.clock < np.busy_until
        {
            node.cpu.stream.clock = np.busy_until;
        }
        if np.has_work() && !np.dispatch_pending {
            np.dispatch_pending = true;
            let at = np.busy_until;
            queue.schedule(at, Event::NpDispatch(n));
        }
    }

    // --- Packets ---------------------------------------------------------

    fn deliver(&mut self, packet: Packet, now: Cycles, queue: &mut EventQueue<Event>) {
        let n = packet.dst.index();
        if packet.handler >= MACHINE_HANDLER_BASE {
            self.deliver_machine_packet(packet, now, queue);
            return;
        }
        self.nodes[n]
            .np
            .enqueue(NpWork::Message(Message::from_packet(packet)));
        self.try_dispatch(n, now, queue);
    }

    fn deliver_machine_packet(
        &mut self,
        packet: Packet,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        let n = packet.dst.index();
        match packet.handler {
            BULK_DATA => {
                let dst_addr = VAddr::new(packet.payload.words()[0]);
                let node = &mut self.nodes[n];
                write_virtual_bytes(&mut node.mem, &node.ptable, dst_addr, packet.payload.data());
                let np = &mut node.np;
                let busy = if np.busy_until > now { np.busy_until } else { now };
                np.busy_until = busy + BULK_PACKET_CYCLES;
            }
            BULK_DONE => {
                let words = packet.payload.words();
                let (src_base, dst_base, bytes) = (words[0], words[1], words[2]);
                let (notify_src, notify_dst) = (words[3], words[4]);
                if notify_dst != NO_HANDLER {
                    self.nodes[n].np.enqueue(NpWork::Message(Message {
                        src: packet.src,
                        vn: VirtualNet::Response,
                        handler: HandlerId(notify_dst as u32),
                        payload: Payload::args(&[src_base, dst_base, bytes]),
                    }));
                    self.try_dispatch(n, now, queue);
                }
                if notify_src != NO_HANDLER {
                    let ack = Packet {
                        src: packet.dst,
                        dst: packet.src,
                        vn: VirtualNet::Response,
                        handler: BULK_ACK,
                        payload: Payload::args(&[src_base, dst_base, bytes, notify_src]),
                    };
                    let at = self.network.send(now, &ack);
                    queue.schedule(at, Event::Deliver(ack));
                }
            }
            BULK_ACK => {
                let words = packet.payload.words();
                self.nodes[n].np.enqueue(NpWork::Message(Message {
                    src: packet.src,
                    vn: VirtualNet::Response,
                    handler: HandlerId(words[3] as u32),
                    payload: Payload::args(&[words[0], words[1], words[2]]),
                }));
                self.try_dispatch(n, now, queue);
            }
            other => panic!("unknown machine handler id {other:#x}"),
        }
    }

    fn bulk_inject(&mut self, n: usize, id: u64, now: Cycles, queue: &mut EventQueue<Event>) {
        let Some(pos) = self.nodes[n].bulk.iter().position(|b| b.id == id) else {
            return;
        };
        let busy_until = self.nodes[n].np.busy_until;
        if busy_until > now {
            queue.schedule(busy_until, Event::BulkInject { node: n, id });
            return;
        }
        let (packet, done_packet) = {
            let node = &mut self.nodes[n];
            let b = &mut node.bulk[pos];
            let req = b.request;
            let remaining = req.bytes - b.offset;
            let chunk = remaining.min(tt_tempest::bulk::BULK_PACKET_DATA_BYTES);
            let data = read_virtual_bytes(
                &node.mem,
                &node.ptable,
                req.src_addr.offset(b.offset as u64),
                chunk,
            );
            let packet = Packet {
                src: NodeId::new(n as u16),
                dst: req.dst,
                vn: VirtualNet::Request,
                handler: BULK_DATA,
                payload: Payload::with_data(&[req.dst_addr.raw() + b.offset as u64], &data),
            };
            b.offset += chunk;
            node.np.stats.bulk_packets.inc();
            let done = if b.offset == req.bytes {
                let notify_src = req
                    .notify_src
                    .map(|h| h.raw() as u64)
                    .unwrap_or(NO_HANDLER);
                let notify_dst = req
                    .notify_dst
                    .map(|h| h.raw() as u64)
                    .unwrap_or(NO_HANDLER);
                Some(Packet {
                    src: NodeId::new(n as u16),
                    dst: req.dst,
                    vn: VirtualNet::Request,
                    handler: BULK_DONE,
                    payload: Payload::args(&[
                        req.src_addr.raw(),
                        req.dst_addr.raw(),
                        req.bytes as u64,
                        notify_src,
                        notify_dst,
                    ]),
                })
            } else {
                None
            };
            (packet, done)
        };
        let at = self.network.send(now, &packet);
        queue.schedule(at, Event::Deliver(packet));
        let np = &mut self.nodes[n].np;
        np.busy_until = now + BULK_PACKET_CYCLES;
        if let Some(done) = done_packet {
            let at = self.network.send(np.busy_until, &done);
            queue.schedule(at, Event::Deliver(done));
            self.nodes[n].bulk.remove(pos);
        } else {
            let at = np.busy_until;
            queue.schedule(at, Event::BulkInject { node: n, id });
        }
    }
}

impl CpuHost for TyphoonMachine {
    fn workload(&mut self) -> &mut dyn Workload {
        &mut *self.workload
    }

    #[inline]
    fn cpu(&mut self, n: usize) -> &mut Stream {
        &mut self.nodes[n].cpu.stream
    }

    #[inline]
    fn access(&mut self, n: usize, access: Access, queue: &mut EventQueue<Event>) -> Flow {
        issue_access(&self.cfg, &mut self.nodes[n], queue, access)
    }

    /// A protocol call suspends the thread and queues the call as NP
    /// work one cycle later; the handler resumes it.
    fn user_call(&mut self, n: usize, op: u32, arg: u64, queue: &mut EventQueue<Event>) -> Flow {
        let cpu = &mut self.nodes[n].cpu;
        cpu.stream.block(Stall::Call);
        let work = NpWork::UserCall(cpu.thread(), UserCall { op, arg });
        let at = cpu.stream.clock + Cycles::new(1);
        queue.schedule(at, Event::NpWork { node: n, work });
        Flow::Blocked
    }

    fn wakeup(n: usize) -> Event {
        Event::CpuStep(n)
    }
}

/// Executes one tag-checked access for the node's CPU: on success it
/// completes the op; on a page or block fault it suspends the CPU and
/// hands the fault to the node's NP. The op loop issues accesses
/// through here, and so does a fault handler's resume, which retries
/// the faulted access before the NP dispatches again.
pub(crate) fn issue_access(
    cfg: &SystemConfig,
    node: &mut NodeState,
    queue: &mut EventQueue<Event>,
    access: Access,
) -> Flow {
    let Access {
        addr,
        kind,
        value,
        expect,
        record,
    } = access;
    let cpu = &mut node.cpu;
    let (np, mem, ptable) = (&mut node.np, &mut node.mem, &node.ptable);
    let (work, cost) = match exec_access(cfg, cpu, np, mem, ptable, addr, kind, value) {
        AccessOutcome::Done {
            cost,
            value: loaded,
        } => {
            if cfg.verify_values {
                if let (Some(expect), Some(got)) = (expect, loaded) {
                    assert_eq!(
                        got,
                        expect,
                        "coherence violation: node {} read {addr} at cycle {} and \
                         observed {got:#x}, expected {expect:#x}",
                        cpu.id.index(),
                        cpu.stream.clock
                    );
                }
            }
            if record {
                let loaded = loaded.expect("a load always produces a value");
                cpu.stream.recorded.push(loaded);
            }
            cpu.stream.complete(cost);
            return Flow::Completed;
        }
        AccessOutcome::PageFault(fault, cost) => {
            (NpWork::PageFault(fault), cost + cfg.np_mode.fault_detect())
        }
        AccessOutcome::BlockFault(fault, cost) => (NpWork::BlockFault(fault), cost),
    };
    cpu.stream.clock += cost;
    cpu.stream.block(Stall::Fault);
    let at = cpu.stream.clock;
    let node = cpu.id.index();
    queue.schedule(at, Event::NpWork { node, work });
    Flow::Blocked
}

/// Reads `len` bytes starting at virtual `addr` (word-aligned) through the
/// node's page table.
fn read_virtual_bytes(mem: &NodeMemory, pt: &PageTable, addr: VAddr, len: usize) -> Vec<u8> {
    assert_eq!(addr.raw() % WORD_BYTES as u64, 0, "bulk source unaligned");
    assert_eq!(len % WORD_BYTES, 0, "bulk length unaligned");
    let mut out = Vec::with_capacity(len);
    for w in 0..len / WORD_BYTES {
        let va = addr.offset((w * WORD_BYTES) as u64);
        let pa = pt
            .translate_addr(va)
            .unwrap_or_else(|| panic!("bulk read from unmapped address {va}"));
        out.extend_from_slice(&mem.read_word(pa).to_le_bytes());
    }
    out
}

/// Writes bytes starting at virtual `addr` (word-aligned) through the
/// node's page table.
fn write_virtual_bytes(mem: &mut NodeMemory, pt: &PageTable, addr: VAddr, data: &[u8]) {
    assert_eq!(addr.raw() % WORD_BYTES as u64, 0, "bulk destination unaligned");
    assert_eq!(data.len() % WORD_BYTES, 0, "bulk length unaligned");
    for (w, chunk) in data.chunks_exact(WORD_BYTES).enumerate() {
        let va = addr.offset((w * WORD_BYTES) as u64);
        let pa = pt
            .translate_addr(va)
            .unwrap_or_else(|| panic!("bulk write to unmapped address {va}"));
        mem.write_word(pa, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
}
