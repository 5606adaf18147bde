//! The Typhoon machine: nodes, events, and the simulation driver.
//!
//! The machine executes a [`Workload`]'s op streams on `nodes` simulated
//! processors (the shared `tt_sim::cpu` front end, with Typhoon's
//! tag-checked bus model behind its memory ops), each paired with a
//! network interface processor running one instance of a user-level
//! [`Protocol`]. See the crate docs for the modeling approach. The
//! shared [`tt_sim::driver`] runs it.

use std::collections::HashMap;

use tt_base::addr::VAddr;
use tt_base::config::{NpMode, SystemConfig};
use tt_base::stats::Report;
use tt_base::workload::{Layout, Workload};
use tt_base::{Cycles, DetRng, NodeId};
use tt_mem::{NodeMemory, PageTable, Tag};
use tt_net::Network;
use tt_sim::cpu::{self, Access, CpuHost, Flow, Stall, Status, Stream};
use tt_sim::driver::{self, Machine};
use tt_sim::EventQueue;
use tt_tempest::{BlockDirSnapshot, Message, Protocol, UserCall};

use crate::cpu::{exec_access, AccessOutcome, CpuState};
use crate::ctx::NodeCtx;
use crate::np::{NpState, NpWork};

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
    /// A message arrives at its destination node.
    Deliver(Message),
    /// All processors arrived; release the barrier.
    BarrierRelease {
        /// Barrier generation (for sanity checking).
        generation: u64,
    },
    /// Never scheduled: bulk transfer (paper Section 2.2) is not
    /// modelled. The variant stays only because the `perfbench` event
    /// profiler still names it; it goes with that profiler's bulk row.
    BulkInject,
}

/// One node: CPU + NP + memory + page table.
pub(crate) struct NodeState {
    pub(crate) cpu: CpuState,
    pub(crate) np: NpState,
    pub(crate) mem: NodeMemory,
    pub(crate) ptable: PageTable,
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
    /// The factory receives the node id and the workload's layout. The
    /// layout is the paper's "distributed mapping table": a protocol
    /// keeps a copy and asks [`Layout::home_of`] for a page's home and
    /// mode rather than building a per-page map of its own.
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
            })
            .collect();
        let protocols =
            (0..cfg.nodes).map(|i| Some(protocol(NodeId::new(i as u16), &layout, &cfg))).collect();
        let mut network = Network::new(cfg.nodes, cfg.network_latency);
        network.set_topology(cfg.topology);
        if let Some(spec) = cfg.fault {
            network.set_fault_plan(spec);
        }
        TyphoonMachine { cfg, nodes, protocols, network, workload, layout, tie_shuffle: None }
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
                ("cpu.fault_stall_cycles", |n| n.cpu.stream.stall_cycles(Stall::Fault)),
                ("cpu.barrier_wait_cycles", |n| n.cpu.stream.barrier_wait_cycles.get()),
                ("cpu.call_stall_cycles", |n| n.cpu.stream.stall_cycles(Stall::Call)),
                ("cpu.cache_hits", |n| n.cpu.cache.stats().hits.get()),
                ("cpu.cache_misses", |n| n.cpu.cache.stats().misses.get()),
                ("cpu.tlb_misses", |n| n.cpu.tlb.stats().misses.get()),
                ("cpu.rtlb_misses", |n| n.cpu.stats.rtlb_misses.get()),
                ("cpu.idle_cycles", |n| n.cpu.stream.idle_cycles.get()),
                ("np.handlers", |n| n.np.stats.handlers.get()),
                ("np.instructions", |n| n.np.stats.instructions.get()),
                ("np.messages", |n| n.np.stats.messages.get()),
                ("np.busy_cycles", |n| n.np.stats.busy_cycles.get()),
            ],
        );
        // Always 0 (bulk transfer is not modelled); the row keeps its
        // place because `perfbench` digests every report row.
        r.push_count("np.bulk_packets", 0);

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

    /// The node whose state handling an event touches (`None` =
    /// machine-global). Anchors the keys of what its handler schedules.
    fn target(&self, event: &Event) -> Option<usize> {
        match event {
            Event::CpuStep(n) | Event::NpDispatch(n) => Some(*n),
            Event::NpWork { node, .. } => Some(*node),
            Event::Deliver(m) => Some(m.dst.index()),
            Event::BarrierRelease { .. } => None,
            Event::BulkInject => unreachable!("BulkInject is never scheduled"),
        }
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
            Event::Deliver(m) => {
                let n = m.dst.index();
                self.nodes[n].np.enqueue(NpWork::Message(m));
                self.try_dispatch(n, now, queue);
            }
            Event::BarrierRelease { generation } => cpu::release(self, now, generation, queue),
            Event::BulkInject => unreachable!("BulkInject is never scheduled"),
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
                    self.nodes.iter().map(|n| n.np.has_work()).collect::<Vec<_>>()
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
        self.nodes[n].np.stats.handlers.inc();
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
        np.stats.busy_cycles.add((self.cfg.np_mode.dispatch() + cost).raw());
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
    let Access { addr, kind, value, expect, record } = access;
    let cpu = &mut node.cpu;
    let (np, mem, ptable) = (&mut node.np, &mut node.mem, &node.ptable);
    let (work, cost) = match exec_access(cfg, cpu, np, mem, ptable, addr, kind, value) {
        AccessOutcome::Done { cost, value: loaded } => {
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
