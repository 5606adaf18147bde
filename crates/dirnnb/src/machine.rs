//! The DirNNB machine: CPUs + hardware directory, driven by the same
//! event engine ([`tt_sim::driver`]), CPU front end (`tt_sim::cpu`) and
//! workload op streams as Typhoon.

use tt_base::addr::{VAddr, Vpn, BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tt_base::config::{
    DirPlacement, SystemConfig, CACHE_ASSOC, DIR_OP_BASE, DIR_OP_BLOCK_RECV, DIR_OP_BLOCK_SEND,
    DIR_OP_PER_MSG, LOCAL_MISS, REMOTE_INVALIDATE, REMOTE_MISS_FINISH, REMOTE_MISS_REQUEST,
    REPLACE_EXCLUSIVE, REPLACE_SHARED, TLB_ENTRIES, TLB_MISS,
};
use tt_base::stats::{Counter, Report};
use tt_base::workload::{Layout, Workload};
use tt_base::{Cycles, DetRng, FxHashMap, NodeId};
use tt_mem::cache::Probe;
use tt_mem::{AccessKind, CacheModel, FifoTlb};
use tt_net::{Network, VirtualNet, ARG_WORD_BYTES, HANDLER_WORD_BYTES};
use tt_sim::cpu::{self, Access, CpuHost, Flow, Stall, Status, Stream};
use tt_sim::driver::{self, Machine};
use tt_sim::EventQueue;

use tt_mem::dir::{Action, Directory, Grant, Request};

/// What a requester asked the directory for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirReq {
    /// Read (shared) copy.
    Read,
    /// Write (exclusive) copy, data needed.
    Write,
    /// Write permission for a block the requester already holds shared.
    Upgrade,
}

impl DirReq {
    /// Whether the grant must carry the data block.
    fn needs_data(self) -> bool {
        !matches!(self, DirReq::Upgrade)
    }

    /// The request as the home directory sees it, from node `from`.
    fn by(self, from: NodeId) -> Request<DirReq> {
        Request { node: Some(from), exclusive: self != DirReq::Read, token: self }
    }
}

/// DirNNB's per-CPU statistics; the counters every machine keeps live
/// on the shared [`Stream`].
#[derive(Clone, Debug, Default)]
struct CpuStats {
    reads: Counter,
    writes: Counter,
    local_misses: Counter,
    remote_misses: Counter,
    upgrades: Counter,
}

struct Cpu {
    cache: CacheModel,
    tlb: FifoTlb<Vpn>,
    stream: Stream,
    /// Block address of the outstanding miss, if any. Used to defer a
    /// recall that overtakes this CPU's grant (the protocol's
    /// "relinquish and retry" for a busy owner).
    pending_block: Option<u64>,
    stats: CpuStats,
}

/// Directory statistics.
#[derive(Clone, Debug, Default)]
struct DirStats {
    dir_ops: Counter,
    invalidations: Counter,
    recalls: Counter,
    writebacks: Counter,
    deferred: Counter,
}

/// Simulation events.
#[derive(Clone, Debug)]
#[doc(hidden)]
pub enum Event {
    CpuStep(usize),
    HomeRequest { addr: u64, from: u16, req: DirReq },
    HomeAck { addr: u64 },
    HomeData { addr: u64, from: u16 },
    Invalidate { addr: u64, node: u16 },
    Recall { addr: u64, node: u16, invalidate: bool },
    Grant { addr: u64, node: u16, req: DirReq },
    Writeback { addr: u64, from: u16 },
    BarrierRelease { generation: u64 },
}

/// One coherent page of the machine's single value image.
type StorePage = Box<[u64; PAGE_BYTES / WORD_BYTES]>;

pub use tt_sim::RunResult;

/// The all-hardware DirNNB machine (see crate docs).
pub struct DirnnbMachine {
    cfg: SystemConfig,
    cpus: Vec<Cpu>,
    /// The homes' directory and protocol engine.
    dirs: Directory<DirReq>,
    /// The workload's shared-segment layout; [`DirnnbMachine::home_of`]
    /// applies `cfg.placement` to it.
    layout: Layout,
    /// The coherent value image; a page is allocated on its first store.
    store: FxHashMap<Vpn, StorePage>,
    network: Network,
    workload: Box<dyn Workload>,
    dir_stats: DirStats,
    /// Seed for same-cycle tie-shuffling, applied to the event queue at
    /// `run` time (a `tt-check` legal-nondeterminism knob).
    tie_shuffle: Option<u64>,
}

impl DirnnbMachine {
    /// Builds the machine for a workload.
    pub fn new(cfg: SystemConfig, workload: Box<dyn Workload>) -> Self {
        let layout = workload.layout();
        let mut rng = DetRng::new(cfg.seed);
        let cpus = (0..cfg.nodes)
            .map(|i| Cpu {
                cache: CacheModel::new(
                    cfg.cpu.cache_bytes,
                    CACHE_ASSOC,
                    BLOCK_BYTES,
                    rng.fork(i as u64),
                ),
                tlb: FifoTlb::new(TLB_ENTRIES),
                stream: Stream::default(),
                pending_block: None,
                stats: CpuStats::default(),
            })
            .collect();
        let mut network = Network::new(cfg.nodes, cfg.network_latency);
        network.set_topology(cfg.topology);
        DirnnbMachine {
            dirs: Directory::new(cfg.nodes),
            cfg,
            cpus,
            layout,
            store: FxHashMap::default(),
            network,
            workload,
            dir_stats: DirStats::default(),
            tie_shuffle: None,
        }
    }

    /// Delivers same-cycle events in a seed-dependent permutation instead
    /// of key order (the driver salts the queue's keys with `seed`).
    /// Call before [`DirnnbMachine::run`].
    pub fn set_tie_shuffle(&mut self, seed: u64) {
        self.tie_shuffle = Some(seed);
    }

    /// The word at `addr` in the machine's global memory image, for the
    /// `tt-check` differential checker. DirNNB keeps one coherent value
    /// image (hardware coherence is exact by construction), so this *is*
    /// the final memory state once the machine has drained.
    pub fn shared_word(&self, addr: VAddr) -> u64 {
        self.store.get(&addr.page()).map_or(0, |page| page[word_index(addr)])
    }

    /// Values `node`'s CPU observed via `Op::ReadRecord` loads, in
    /// program order (litmus harnesses read these back after a run).
    pub fn recorded_reads(&self, node: usize) -> &[u64] {
        &self.cpus[node].stream.recorded
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// Panics on deadlock or on a value-verification failure, like
    /// `TyphoonMachine::run`.
    pub fn run(&mut self) -> RunResult {
        driver::run(self)
    }

    fn build_report(&self, cycles: Cycles, releases: u64) -> Report {
        let mut r = Report::new();
        r.push_count("machine.cycles", cycles.raw());
        r.push_count("machine.nodes", self.cfg.nodes as u64);
        r.push_count("machine.barriers", releases);
        r.push_sums(
            &self.cpus,
            &[
                ("cpu.ops", |c| c.stream.ops.get()),
                ("cpu.reads", |c| c.stats.reads.get()),
                ("cpu.writes", |c| c.stats.writes.get()),
                ("cpu.compute_cycles", |c| c.stream.compute_cycles.get()),
                ("cpu.local_misses", |c| c.stats.local_misses.get()),
                ("cpu.remote_misses", |c| c.stats.remote_misses.get()),
                ("cpu.upgrades", |c| c.stats.upgrades.get()),
                ("cpu.miss_stall_cycles", |c| c.stream.stall_cycles(Stall::Miss)),
                ("cpu.barrier_wait_cycles", |c| c.stream.barrier_wait_cycles.get()),
                ("cpu.cache_hits", |c| c.cache.stats().hits.get()),
                ("cpu.cache_misses", |c| c.cache.stats().misses.get()),
                ("cpu.tlb_misses", |c| c.tlb.stats().misses.get()),
                ("cpu.idle_cycles", |c| c.stream.idle_cycles.get()),
            ],
        );
        r.push_count("dir.ops", self.dir_stats.dir_ops.get());
        r.push_count("dir.invalidations", self.dir_stats.invalidations.get());
        r.push_count("dir.recalls", self.dir_stats.recalls.get());
        r.push_count("dir.writebacks", self.dir_stats.writebacks.get());
        r.push_count("dir.deferred", self.dir_stats.deferred.get());
        let net = self.network.stats();
        r.push_count("net.packets", net.total_packets());
        r.push_count("net.bytes", net.total_bytes());
        r
    }
}

#[doc(hidden)]
impl Machine for DirnnbMachine {
    type Event = Event;

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn tie_shuffle(&self) -> Option<u64> {
        self.tie_shuffle
    }

    /// The node an event's handling mutates (`None` = machine-global).
    /// Home-directed events (requests, acks, data, writebacks) are
    /// handled at the block's home.
    fn target(&self, event: &Event) -> Option<usize> {
        match *event {
            Event::CpuStep(n) => Some(n),
            Event::Invalidate { node, .. }
            | Event::Recall { node, .. }
            | Event::Grant { node, .. } => Some(node as usize),
            Event::HomeRequest { addr, .. }
            | Event::HomeAck { addr }
            | Event::HomeData { addr, .. }
            | Event::Writeback { addr, .. } => Some(self.home_of(addr).index()),
            Event::BarrierRelease { .. } => None,
        }
    }

    fn init(&mut self, queue: &mut EventQueue<Event>) {
        cpu::seed(self, queue);
    }

    /// Dispatches one event (the driver has declared its target as the
    /// origin of everything the handler schedules).
    #[inline]
    fn handle(&mut self, now: Cycles, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::CpuStep(n) => cpu::step(self, n, now, queue),
            Event::HomeRequest { addr, from, req } => {
                self.home_request(addr, NodeId::new(from), req, now, queue)
            }
            Event::HomeAck { addr } => {
                if let Some(grant) = self.dirs.ack(addr) {
                    self.home_grant(addr, grant, now, DIR_OP_BASE, queue);
                }
            }
            Event::HomeData { addr, from } => {
                let grant = self.dirs.recall_data(addr, NodeId::new(from));
                self.home_grant(addr, grant, now, DIR_OP_BASE + DIR_OP_BLOCK_RECV, queue);
            }
            Event::Invalidate { addr, node } => self.invalidate_at(addr, node as usize, now, queue),
            Event::Recall { addr, node, invalidate } => {
                self.recall_at(addr, node as usize, invalidate, now, queue)
            }
            Event::Grant { addr, node, req } => {
                self.grant_arrived(addr, node as usize, req, now, queue)
            }
            Event::Writeback { addr, from } => self.writeback(addr, NodeId::new(from), now, queue),
            Event::BarrierRelease { generation } => cpu::release(self, now, generation, queue),
        }
    }

    fn release_event(generation: u64) -> Event {
        Event::BarrierRelease { generation }
    }

    /// Asserts the machine drained cleanly and builds the result.
    fn finish(&mut self, releases: u64) -> (Cycles, Report) {
        let cycles =
            cpu::finished_at(self.cpus.iter().map(|c| &c.stream)).unwrap_or_else(|stuck| {
                let busy = self.dirs.stuck();
                panic!("DirNNB machine deadlocked: {stuck:?}; stuck directory entries: {busy:?}");
            });
        (cycles, self.build_report(cycles, releases))
    }
}

/// `addr`'s word within its page of the value image.
fn word_index(addr: VAddr) -> usize {
    addr.page_offset() as usize / WORD_BYTES
}

impl DirnnbMachine {
    fn home_of(&self, addr: u64) -> NodeId {
        let vpn = VAddr::new(addr).page();
        let (owner, _mode) = self
            .layout
            .home_of(vpn, self.cfg.nodes)
            .unwrap_or_else(|| panic!("access to {addr:#x} outside the shared segment layout"));
        match self.cfg.placement {
            DirPlacement::RoundRobin => NodeId::new((vpn.0 % self.cfg.nodes as u64) as u16),
            DirPlacement::Owner => owner,
        }
    }

    /// Injects a protocol message at `inject` and returns its arrival
    /// time at `dst`: the traffic accounting plus the network's latency
    /// model — a self-send arrives at `inject` (local hand-off is in the
    /// Table 2 costs), `Topology::Ideal` charges the constant latency,
    /// and the mesh charges hop counts plus per-link queuing.
    /// Wire size matches the one-argument packet `send` would have been
    /// handed: handler word + one argument word, plus a coherence block
    /// when `data` is set.
    fn deliver(&mut self, inject: Cycles, src: NodeId, dst: NodeId, data: bool) -> Cycles {
        let wire = HANDLER_WORD_BYTES + ARG_WORD_BYTES + if data { BLOCK_BYTES } else { 0 };
        self.network.deliver_at(inject, src, dst, VirtualNet::Request, wire)
    }

    // --- CPU memory system ------------------------------------------------

    /// Executes one access: a cache hit or a directory grant the home
    /// can give on the spot completes it; anything else blocks the CPU
    /// and sends the request to the home directory.
    #[inline]
    fn issue_access(&mut self, n: usize, access: Access, queue: &mut EventQueue<Event>) -> Flow {
        let me = NodeId::new(n as u16);
        let (addr, kind) = (access.addr, access.kind);
        let block = addr.block_base().raw();
        let key = block / BLOCK_BYTES as u64;
        let mut cost = Cycles::new(1);
        if !self.cpus[n].tlb.access(addr.page()) {
            cost += TLB_MISS;
        }
        let probe = self.cpus[n].cache.probe(key);
        let req = match (probe, kind) {
            (Probe::HitOwned, _) | (Probe::HitShared, AccessKind::Load) => None,
            (Probe::HitShared, AccessKind::Store) => Some(DirReq::Upgrade),
            (Probe::Miss, AccessKind::Load) => Some(DirReq::Read),
            (Probe::Miss, AccessKind::Store) => Some(DirReq::Write),
        };
        let Some(req) = req else {
            // Cache hit: no directory involvement, so the home lookup is
            // not needed — this is the per-op fast path.
            self.complete_access(n, access);
            self.cpus[n].stream.complete(cost);
            return Flow::Completed;
        };
        let home = self.home_of(addr.raw());

        // Fast local path: home is this node and the directory grants on
        // the spot — a plain 29-cycle local miss.
        if home == me && self.dirs.grant_now(block, req.by(me)).is_some() {
            cost += LOCAL_MISS;
            self.cpus[n].stats.local_misses.inc();
            if req == DirReq::Upgrade {
                // The line is already resident shared.
                self.cpus[n].cache.set_owned(key, true);
            } else {
                self.fill(n, key, req == DirReq::Write, &mut cost, queue);
            }
            self.complete_access(n, access);
            self.cpus[n].stream.complete(cost);
            return Flow::Completed;
        }

        // Slow path: block and send the request to the home directory.
        if home == me {
            self.cpus[n].stats.local_misses.inc();
        } else {
            self.cpus[n].stats.remote_misses.inc();
            cost += REMOTE_MISS_REQUEST;
        }
        if req == DirReq::Upgrade {
            self.cpus[n].stats.upgrades.inc();
        }
        let inject = {
            let cpu = &mut self.cpus[n];
            cpu.stream.clock += cost;
            cpu.stream.block(Stall::Miss);
            cpu.pending_block = Some(block);
            cpu.stream.clock
        };
        let at = self.deliver(inject, me, home, false);
        queue.schedule(at, Event::HomeRequest { addr: block, from: me.raw(), req });
        Flow::Blocked
    }

    /// Functional completion: reads check the global store, writes update
    /// it (hardware-coherent shared memory has a single value image).
    fn complete_access(&mut self, n: usize, access: Access) {
        let Access { addr, kind, value, expect, record } = access;
        match kind {
            AccessKind::Load => {
                self.cpus[n].stats.reads.inc();
                let got = self.shared_word(addr);
                if record {
                    self.cpus[n].stream.recorded.push(got);
                }
                if self.cfg.verify_values {
                    if let Some(expect) = expect {
                        assert_eq!(
                            got, expect,
                            "DirNNB coherence image mismatch: node {n} read {addr}"
                        );
                    }
                }
            }
            AccessKind::Store => {
                self.cpus[n].stats.writes.inc();
                let page = self
                    .store
                    .entry(addr.page())
                    .or_insert_with(|| Box::new([0u64; PAGE_BYTES / WORD_BYTES]));
                page[word_index(addr)] = value;
            }
        }
    }

    /// Installs a block in a CPU cache; a displaced dirty victim notifies
    /// its home asynchronously and adds the Table 2 replacement charge.
    fn fill(
        &mut self,
        n: usize,
        key: u64,
        owned: bool,
        cost: &mut Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        if let Some(victim) = self.cpus[n].cache.fill(key, owned) {
            *cost += if victim.owned { REPLACE_EXCLUSIVE } else { REPLACE_SHARED };
            if victim.owned {
                let victim_addr = victim.block * BLOCK_BYTES as u64;
                let home = self.home_of(victim_addr);
                let me = NodeId::new(n as u16);
                let clock = self.cpus[n].stream.clock;
                let at = self.deliver(clock.max(queue.now()), me, home, true);
                queue.schedule(at, Event::Writeback { addr: victim_addr, from: n as u16 });
            }
        }
    }

    // --- Home side: carrying out the directory engine's decisions --------

    fn home_request(
        &mut self,
        addr: u64,
        from: NodeId,
        req: DirReq,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        match self.dirs.request(addr, req.by(from)) {
            Action::Deferred => self.dir_stats.deferred.inc(),
            action => self.serve(addr, action, now, queue),
        }
    }

    /// Carries out the engine's decision on a request it did not defer.
    fn serve(
        &mut self,
        addr: u64,
        action: Action<DirReq>,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        self.dir_stats.dir_ops.inc();
        let home = self.home_of(addr);
        let base = DIR_OP_BASE;
        match action {
            Action::Grant(grant) => self.grant(addr, grant, now + base, queue),
            Action::Invalidate(mut targets) => {
                // Invalidations fan out in ascending node order.
                targets.sort_unstable();
                let cost = base + Cycles::new(DIR_OP_PER_MSG.raw() * targets.len() as u64);
                self.dir_stats.invalidations.add(targets.len() as u64);
                for t in targets {
                    let at = self.deliver(now + cost, home, t, false);
                    queue.schedule(at, Event::Invalidate { addr, node: t.raw() });
                }
            }
            Action::Recall { owner, invalidate } => {
                self.dir_stats.recalls.inc();
                let at = self.deliver(now + base + DIR_OP_PER_MSG, home, owner, false);
                queue.schedule(at, Event::Recall { addr, node: owner.raw(), invalidate });
            }
            Action::Deferred => unreachable!("a deferred request is not served"),
        }
    }

    /// Sends a grant back to the requester, starting at `at`.
    fn grant(
        &mut self,
        addr: u64,
        grant: Grant<DirReq>,
        at: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        let req = grant.to.token;
        let to = grant.to.node.expect("DirNNB requests come from nodes");
        let home = self.home_of(addr);
        let mut cost = DIR_OP_PER_MSG;
        if req.needs_data() {
            cost += DIR_OP_BLOCK_SEND;
        }
        let deliver = self.deliver(at + cost, home, to, req.needs_data());
        queue.schedule(deliver, Event::Grant { addr, node: to.raw(), req });
    }

    /// The grant that ends a transaction, `cost` cycles of directory work
    /// after `now`, then the requests deferred behind it.
    fn home_grant(
        &mut self,
        addr: u64,
        grant: Grant<DirReq>,
        now: Cycles,
        cost: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        self.dir_stats.dir_ops.inc();
        self.grant(addr, grant, now + cost, queue);
        while let Some(action) = self.dirs.next_deferred(addr) {
            self.serve(addr, action, now, queue);
        }
    }

    fn invalidate_at(
        &mut self,
        addr: u64,
        node: usize,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        // The remote cache controller invalidates without involving its
        // CPU: 8 cycles plus the shared-replacement charge (Table 2).
        let key = addr / BLOCK_BYTES as u64;
        self.cpus[node].cache.invalidate(key);
        let cost = REMOTE_INVALIDATE + REPLACE_SHARED;
        let home = self.home_of(addr);
        let me = NodeId::new(node as u16);
        let at = self.deliver(now + cost, me, home, false);
        queue.schedule(at, Event::HomeAck { addr });
    }

    fn recall_at(
        &mut self,
        addr: u64,
        node: usize,
        invalidate: bool,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        let key = addr / BLOCK_BYTES as u64;
        let present = if invalidate {
            self.cpus[node].cache.invalidate(key)
        } else {
            self.cpus[node].cache.set_owned(key, false)
        };
        if !present {
            if self.cpus[node].pending_block == Some(addr) {
                // The recall overtook this node's own grant for the same
                // block: both travel on the one request network, but the
                // home spends at least 32 cycles on a data grant and 21 on
                // a recall. Nack-and-retry, as a busy hardware owner
                // would: try again after the grant has landed.
                queue.schedule(
                    now + self.cfg.network_latency,
                    Event::Recall { addr, node: node as u16, invalidate },
                );
                return;
            }
            // Otherwise the line was evicted while the recall was in
            // flight; the home completes from the writeback.
            return;
        }
        let cost = REMOTE_INVALIDATE + REPLACE_EXCLUSIVE;
        let home = self.home_of(addr);
        let me = NodeId::new(node as u16);
        let at = self.deliver(now + cost, me, home, true);
        queue.schedule(at, Event::HomeData { addr, from: me.raw() });
    }

    fn writeback(&mut self, addr: u64, from: NodeId, now: Cycles, queue: &mut EventQueue<Event>) {
        self.dir_stats.writebacks.inc();
        // An eviction that raced our recall carries the block.
        if let Some(grant) = self.dirs.writeback(addr, from) {
            self.home_grant(addr, grant, now, DIR_OP_BASE + DIR_OP_BLOCK_RECV, queue);
        }
    }

    fn grant_arrived(
        &mut self,
        addr: u64,
        node: usize,
        req: DirReq,
        now: Cycles,
        queue: &mut EventQueue<Event>,
    ) {
        let key = addr / BLOCK_BYTES as u64;
        let me = NodeId::new(node as u16);
        let home = self.home_of(addr);
        let mut cost = if home == me { LOCAL_MISS } else { REMOTE_MISS_FINISH };
        match req {
            DirReq::Upgrade => {
                // The line is still resident unless an intervening
                // invalidation removed it; then treat as a full fill.
                if !self.cpus[node].cache.set_owned(key, true) {
                    self.fill(node, key, true, &mut cost, queue);
                }
            }
            DirReq::Read => self.fill(node, key, false, &mut cost, queue),
            DirReq::Write => self.fill(node, key, true, &mut cost, queue),
        }
        // Complete the blocked op *now*, before releasing the CPU: the
        // grant delivers the data to the stalled load/store, so a recall
        // racing in behind it can never steal an incomplete access (that
        // would livelock two writers hammering one block).
        let cpu = &mut self.cpus[node];
        debug_assert_eq!(cpu.stream.status, Status::Blocked(Stall::Miss));
        cpu.pending_block = None;
        let access = cpu.stream.pending_access();
        self.complete_access(node, access);
        let stream = &mut self.cpus[node].stream;
        stream.pc += 1;
        // The miss stall runs from the request to the fill's end (the
        // blocked CPU's clock is the request time, before `now`).
        stream.resume(now + cost);
        stream.wake(queue, Event::CpuStep(node));
    }
}

impl CpuHost for DirnnbMachine {
    fn workload(&mut self) -> &mut dyn Workload {
        &mut *self.workload
    }

    #[inline]
    fn cpu(&mut self, n: usize) -> &mut Stream {
        &mut self.cpus[n].stream
    }

    #[inline]
    fn access(&mut self, n: usize, access: Access, queue: &mut EventQueue<Event>) -> Flow {
        self.issue_access(n, access, queue)
    }

    /// A hardware shared-memory machine has no user-level protocol:
    /// calls complete in one cycle.
    fn user_call(&mut self, n: usize, _: u32, _: u64, _: &mut EventQueue<Event>) -> Flow {
        self.cpus[n].stream.clock += Cycles::new(1);
        Flow::Completed
    }

    fn wakeup(n: usize) -> Event {
        Event::CpuStep(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upgrade_needs_no_data() {
        assert!(DirReq::Read.needs_data());
        assert!(DirReq::Write.needs_data());
        assert!(!DirReq::Upgrade.needs_data());
    }
}
