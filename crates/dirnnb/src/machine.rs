//! The DirNNB machine: CPUs + hardware directory, driven by the same
//! event engine, CPU front end (`tt_sim::cpu`) and workload op streams
//! as Typhoon.
//!
//! # Parallel simulation
//!
//! Like `TyphoonMachine`, the machine honors `SystemConfig::sim_threads`
//! by splitting its nodes into contiguous shards under the conservative
//! window scheme of [`tt_sim::pdes`], through the shared
//! [`tt_sim::driver`]. Directory entries are touched only
//! by events targeted at the block's home node, so each shard owns a
//! private directory map covering its homes (merged back after the run
//! for diagnostics). The one genuinely global structure is the coherent
//! value image: accesses to it go through a mutex, which is sound for
//! determinism because the protocol orders all same-word accesses by
//! coherence — causally unordered accesses (the only ones that can race
//! in wall-clock time inside a window) always touch different words.

use std::ops::Range;
use std::sync::Mutex;

use tt_base::addr::{VAddr, Vpn, BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tt_base::config::{
    DirPlacement, SystemConfig, CACHE_ASSOC, DIR_OP_BASE, DIR_OP_BLOCK_RECV, DIR_OP_BLOCK_SEND,
    DIR_OP_PER_MSG, LOCAL_MISS, REMOTE_INVALIDATE, REMOTE_MISS_FINISH, REMOTE_MISS_REQUEST,
    REPLACE_EXCLUSIVE, REPLACE_SHARED, TLB_ENTRIES, TLB_MISS,
};
use tt_base::stats::{Counter, Report};
use tt_base::workload::Workload;
use tt_base::{Cycles, DetRng, FxHashMap, NodeId};
use tt_mem::cache::Probe;
use tt_mem::{AccessKind, CacheModel, FifoTlb};
use tt_net::{Network, VirtualNet, ARG_WORD_BYTES, HANDLER_WORD_BYTES};
use tt_sim::cpu::{self, Access, CpuHost, Flow, Stall, Status, Stream};
use tt_sim::driver::{self, carve, split_ranges, Machine};
use tt_sim::ShardQueue;

use crate::dir::{DirBusy, DirReq, DirView, Directory};

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

/// Directory statistics (per shard; summed into the report).
#[derive(Clone, Debug, Default)]
struct DirStats {
    dir_ops: Counter,
    invalidations: Counter,
    recalls: Counter,
    writebacks: Counter,
    deferred: Counter,
}

impl DirStats {
    fn absorb(&mut self, other: &DirStats) {
        self.dir_ops.add(other.dir_ops.get());
        self.invalidations.add(other.invalidations.get());
        self.recalls.add(other.recalls.get());
        self.writebacks.add(other.writebacks.get());
        self.deferred.add(other.deferred.get());
    }
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
    dirs: Directory,
    home_map: FxHashMap<Vpn, NodeId>,
    /// Owner→home page-count weights (`owner * nodes + home`), used to
    /// pick shard cut points that keep directory traffic shard-local.
    /// `None` when the node count makes the matrix not worth it.
    home_affinity: Option<Vec<u64>>,
    store: Mutex<FxHashMap<Vpn, StorePage>>,
    network: Network,
    workload: Mutex<Box<dyn Workload>>,
    dir_stats: DirStats,
    /// Seed for same-cycle tie-shuffling, applied to the event queue at
    /// `run` time (a `tt-check` legal-nondeterminism knob).
    tie_shuffle: Option<u64>,
}

/// The node an event's handling mutates (`None` = machine-global).
/// Home-directed events (requests, acks, data, writebacks) are handled
/// at the block's home, which takes the layout's home map to compute.
fn target_in(home_map: &FxHashMap<Vpn, NodeId>, event: &Event) -> Option<usize> {
    match *event {
        Event::CpuStep(n) => Some(n),
        Event::Invalidate { node, .. }
        | Event::Recall { node, .. }
        | Event::Grant { node, .. } => Some(node as usize),
        Event::HomeRequest { addr, .. }
        | Event::HomeAck { addr }
        | Event::HomeData { addr, .. }
        | Event::Writeback { addr, .. } => Some(home_of_in(home_map, addr).index()),
        Event::BarrierRelease { .. } => None,
    }
}

fn home_of_in(home_map: &FxHashMap<Vpn, NodeId>, addr: u64) -> NodeId {
    let vpn = VAddr::new(addr).page();
    *home_map
        .get(&vpn)
        .unwrap_or_else(|| panic!("access to {addr:#x} outside the shared segment layout"))
}

/// A shard's view of the machine: the contiguous CPU range it owns, the
/// directory entries of its home blocks, and the shared pieces.
#[doc(hidden)]
pub struct Shard<'m> {
    cfg: &'m SystemConfig,
    /// First global node index this shard owns.
    first: usize,
    cpus: &'m mut [Cpu],
    /// Directory state homed at this shard's nodes. Disjoint across
    /// shards because home-directed events are routed by home (and
    /// directory pages align with the page-granular home map).
    dirs: &'m mut Directory,
    home_map: &'m FxHashMap<Vpn, NodeId>,
    store: &'m Mutex<FxHashMap<Vpn, StorePage>>,
    /// This shard's network instance (statistics only; folded back after
    /// the run).
    network: &'m mut Network,
    workload: &'m Mutex<Box<dyn Workload>>,
    dir_stats: &'m mut DirStats,
}

/// What one shard of a windowed run owns besides its CPU slice: a
/// network clone (statistics only), the directory entries homed at its
/// nodes, and its directory statistics. Folded back after the run.
#[doc(hidden)]
pub struct ShardLocal {
    network: Network,
    dirs: Directory,
    stats: DirStats,
}

impl DirnnbMachine {
    /// Builds the machine for a workload.
    pub fn new(cfg: SystemConfig, workload: Box<dyn Workload>) -> Self {
        let layout = workload.layout();
        let mut home_map = FxHashMap::default();
        // Owner→home page weights for the topology-aware shard map
        // (skipped past 256 nodes, where the equal split is used).
        let n = cfg.nodes;
        let mut home_affinity = (2..=256).contains(&n).then(|| vec![0u64; n * n]);
        for (vpn, owner, _mode) in layout.pages(cfg.nodes) {
            let home = match cfg.placement {
                DirPlacement::RoundRobin => NodeId::new((vpn.0 % cfg.nodes as u64) as u16),
                DirPlacement::Owner => owner,
            };
            if let Some(w) = home_affinity.as_mut() {
                w[owner.index() * n + home.index()] += 1;
            }
            home_map.insert(vpn, home);
        }
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
            home_map,
            home_affinity,
            store: Mutex::new(FxHashMap::default()),
            network,
            workload: Mutex::new(workload),
            dir_stats: DirStats::default(),
            tie_shuffle: None,
        }
    }

    /// Delivers same-cycle events in a seed-dependent permutation instead
    /// of key order (the driver salts each queue's keys with `seed`).
    /// Call before [`DirnnbMachine::run`].
    pub fn set_tie_shuffle(&mut self, seed: u64) {
        self.tie_shuffle = Some(seed);
    }

    /// The word at `addr` in the machine's global memory image, for the
    /// `tt-check` differential checker. DirNNB keeps one coherent value
    /// image (hardware coherence is exact by construction), so this *is*
    /// the final memory state once the machine has drained.
    pub fn shared_word(&mut self, addr: VAddr) -> u64 {
        let mut store = self.store.lock().expect("store poisoned");
        read_store(&mut store, addr)
    }

    /// Values `node`'s CPU observed via `Op::ReadRecord` loads, in
    /// program order (litmus harnesses read these back after a run).
    pub fn recorded_reads(&self, node: usize) -> &[u64] {
        &self.cpus[node].stream.recorded
    }

    /// Runs the simulation to completion. `SystemConfig::sim_threads`
    /// selects the sequential event loop or the windowed parallel one;
    /// results are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics on deadlock or on a value-verification failure, like
    /// `TyphoonMachine::run`.
    pub fn run(&mut self) -> RunResult {
        driver::run(self)
    }

    /// Topology-aware shard map: contiguous `(first, len)` ranges whose
    /// cut points maximize the owner→home page weight kept inside a
    /// shard (equivalently, minimize cross-shard directory traffic),
    /// subject to every shard size staying within one node of the equal
    /// split — shard maps tune only wall-clock, never cycles, so load
    /// balance must not be traded away wholesale. Deterministic: size
    /// candidates are tried equal-split-first and only strict
    /// improvements move a cut, so uniform weights (e.g. round-robin
    /// placement) reproduce [`split_ranges`] exactly.
    fn affinity_ranges(&self, parts: usize) -> Vec<(usize, usize)> {
        let n = self.cfg.nodes;
        let equal = split_ranges(n, parts);
        let Some(w) = self.home_affinity.as_ref().filter(|_| (2..=n).contains(&parts)) else {
            return equal;
        };
        // 2D prefix sums: pre[i][j] = Σ w[a][b] for a < i, b < j.
        let m = n + 1;
        let mut pre = vec![0u64; m * m];
        for i in 0..n {
            for j in 0..n {
                pre[(i + 1) * m + j + 1] =
                    w[i * n + j] + pre[i * m + j + 1] + pre[(i + 1) * m + j] - pre[i * m + j];
            }
        }
        let intra = |a: usize, b: usize| -> u64 {
            pre[b * m + b] + pre[a * m + a] - pre[a * m + b] - pre[b * m + a]
        };
        let lo = (n / parts).max(1);
        let hi = n / parts + usize::from(!n.is_multiple_of(parts));
        // best[s][c]: max intra weight over splits of nodes [0, c) into
        // s shards; from[s][c] the cut that achieved it.
        let mut best = vec![vec![None::<u64>; m]; parts + 1];
        let mut from = vec![vec![0usize; m]; parts + 1];
        best[0][0] = Some(0);
        for s in 1..=parts {
            let eq_len = equal[s - 1].1;
            let mut sizes: Vec<usize> = (lo..=hi).collect();
            sizes.sort_by_key(|&l| (l != eq_len, l));
            for c in 1..=n {
                for &len in &sizes {
                    if len > c {
                        continue;
                    }
                    let p = c - len;
                    let Some(b) = best[s - 1][p] else { continue };
                    let cand = b + intra(p, c);
                    if best[s][c].is_none_or(|cur| cand > cur) {
                        best[s][c] = Some(cand);
                        from[s][c] = p;
                    }
                }
            }
        }
        if best[parts][n].is_none() {
            return equal;
        }
        let mut cuts = vec![n];
        let mut c = n;
        for s in (1..=parts).rev() {
            c = from[s][c];
            cuts.push(c);
        }
        cuts.reverse();
        debug_assert_eq!(cuts[0], 0, "reconstruction must reach node 0");
        (0..parts)
            .map(|i| (cuts[i], cuts[i + 1] - cuts[i]))
            .collect()
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
                ("cpu.miss_stall_cycles", |c| {
                    c.stream.stall_cycles(Stall::Miss)
                }),
                ("cpu.barrier_wait_cycles", |c| {
                    c.stream.barrier_wait_cycles.get()
                }),
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
    type Local = ShardLocal;
    type Shard<'a> = Shard<'a>;

    fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    fn tie_shuffle(&self) -> Option<u64> {
        self.tie_shuffle
    }

    fn lookahead(&self) -> Cycles {
        self.network.lookahead()
    }

    fn shard_map(&self, parts: usize) -> Vec<(usize, usize)> {
        self.affinity_ranges(parts)
    }

    fn whole(&mut self) -> Shard<'_> {
        Shard {
            cfg: &self.cfg,
            first: 0,
            cpus: &mut self.cpus,
            dirs: &mut self.dirs,
            home_map: &self.home_map,
            store: &self.store,
            network: &mut self.network,
            workload: &self.workload,
            dir_stats: &mut self.dir_stats,
        }
    }

    fn local(&self) -> ShardLocal {
        ShardLocal {
            network: self.network.clone(),
            dirs: Directory::new(self.cfg.nodes),
            stats: DirStats::default(),
        }
    }

    fn split<'a>(
        &'a mut self,
        ranges: &[(usize, usize)],
        locals: &'a mut [ShardLocal],
    ) -> Vec<Shard<'a>> {
        let mut cpus = carve(&mut self.cpus, ranges);
        ranges
            .iter()
            .zip(locals)
            .map(|(&(first, _), local)| Shard {
                cfg: &self.cfg,
                first,
                cpus: cpus.next().expect("one CPU slice per range"),
                dirs: &mut local.dirs,
                home_map: &self.home_map,
                store: &self.store,
                network: &mut local.network,
                workload: &self.workload,
                dir_stats: &mut local.stats,
            })
            .collect()
    }

    fn absorb(&mut self, locals: Vec<ShardLocal>) {
        // Shard directories are disjoint by construction (keyed by
        // home); folding them back serves post-run diagnostics.
        for local in locals {
            self.network.absorb_stats(&local.network);
            self.dir_stats.absorb(&local.stats);
            self.dirs.absorb(local.dirs);
        }
    }

    fn target(shard: &Shard<'_>, event: &Event) -> Option<usize> {
        target_in(shard.home_map, event)
    }

    fn init(shard: &mut Shard<'_>, queue: &mut ShardQueue<Event>) {
        cpu::seed(shard, queue);
    }

    #[inline]
    fn handle(shard: &mut Shard<'_>, now: Cycles, event: Event, queue: &mut ShardQueue<Event>) {
        shard.handle(now, event, queue);
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

fn read_store(store: &mut FxHashMap<Vpn, StorePage>, addr: VAddr) -> u64 {
    let page = store
        .entry(addr.page())
        .or_insert_with(|| Box::new([0u64; PAGE_BYTES / WORD_BYTES]));
    page[(addr.page_offset() as usize) / WORD_BYTES]
}

fn write_store(store: &mut FxHashMap<Vpn, StorePage>, addr: VAddr, value: u64) {
    let page = store
        .entry(addr.page())
        .or_insert_with(|| Box::new([0u64; PAGE_BYTES / WORD_BYTES]));
    page[(addr.page_offset() as usize) / WORD_BYTES] = value;
}

impl<'m> Shard<'m> {
    /// Dispatches one event (the driver has declared its target as the
    /// origin of everything the handler schedules).
    fn handle(&mut self, now: Cycles, event: Event, queue: &mut ShardQueue<Event>) {
        match event {
            Event::CpuStep(n) => cpu::step(self, n, now, queue),
            Event::HomeRequest { addr, from, req } => {
                self.home_request(addr, NodeId::new(from), req, now, queue)
            }
            Event::HomeAck { addr } => self.home_ack(addr, now, queue),
            Event::HomeData { addr, from } => self.home_data(addr, NodeId::new(from), now, queue),
            Event::Invalidate { addr, node } => self.invalidate_at(addr, node as usize, now, queue),
            Event::Recall {
                addr,
                node,
                invalidate,
            } => self.recall_at(addr, node as usize, invalidate, now, queue),
            Event::Grant { addr, node, req } => {
                self.grant_arrived(addr, node as usize, req, now, queue)
            }
            Event::Writeback { addr, from } => self.writeback(addr, NodeId::new(from), now, queue),
            Event::BarrierRelease { generation } => cpu::release(self, now, generation, queue),
        }
    }

    fn home_of(&self, addr: u64) -> NodeId {
        home_of_in(self.home_map, addr)
    }

    /// Injects a protocol message at `inject` and returns its arrival
    /// time at `dst`: the traffic accounting plus the network's latency
    /// model — a self-send arrives at `inject` (local hand-off is in the
    /// Table 2 costs), `Topology::Ideal` charges the constant latency,
    /// and routed topologies charge hop counts plus per-link queuing.
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
    fn issue_access(&mut self, n: usize, access: Access, queue: &mut ShardQueue<Event>) -> Flow {
        let l = n - self.first;
        let me = NodeId::new(n as u16);
        let (addr, kind) = (access.addr, access.kind);
        let block = addr.block_base().raw();
        let key = block / BLOCK_BYTES as u64;
        let mut cost = Cycles::new(1);
        if !self.cpus[l].tlb.access(addr.page()) {
            cost += TLB_MISS;
        }
        let probe = self.cpus[l].cache.probe(key);
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
            self.cpus[l].stream.complete(cost);
            return Flow::Completed;
        };
        let home = self.home_of(addr.raw());

        // Fast local path: home is this node and the directory can grant
        // immediately — a plain 29-cycle local miss.
        if home == me && !self.dirs.is_busy(block) {
            let fast = match (self.dirs.view(block), req) {
                (DirView::Uncached | DirView::Shared, DirReq::Read) => {
                    self.dirs.add_sharer(block, me);
                    Some(false)
                }
                (DirView::Uncached, DirReq::Write) => {
                    self.dirs.set_exclusive(block, me);
                    Some(true)
                }
                (DirView::Shared, DirReq::Upgrade | DirReq::Write)
                    if !self.dirs.has_other_sharers(block, me) =>
                {
                    self.dirs.set_exclusive(block, me);
                    Some(true)
                }
                _ => None,
            };
            if let Some(owned) = fast {
                cost += LOCAL_MISS;
                self.cpus[l].stats.local_misses.inc();
                if req == DirReq::Upgrade {
                    // The line is already resident shared.
                    self.cpus[l].cache.set_owned(key, true);
                } else {
                    self.fill(n, key, owned, &mut cost, queue);
                }
                self.complete_access(n, access);
                self.cpus[l].stream.complete(cost);
                return Flow::Completed;
            }
        }

        // Slow path: block and send the request to the home directory.
        if home == me {
            self.cpus[l].stats.local_misses.inc();
        } else {
            self.cpus[l].stats.remote_misses.inc();
            cost += REMOTE_MISS_REQUEST;
        }
        if req == DirReq::Upgrade {
            self.cpus[l].stats.upgrades.inc();
        }
        let inject = {
            let cpu = &mut self.cpus[l];
            cpu.stream.clock += cost;
            cpu.stream.block(Stall::Miss);
            cpu.pending_block = Some(block);
            cpu.stream.clock
        };
        let at = self.deliver(inject, me, home, false);
        queue.schedule_for(
            at,
            home.index(),
            Event::HomeRequest {
                addr: block,
                from: me.raw(),
                req,
            },
        );
        Flow::Blocked
    }

    /// Functional completion: reads check the global store, writes update
    /// it (hardware-coherent shared memory has a single value image).
    fn complete_access(&mut self, n: usize, access: Access) {
        let l = n - self.first;
        let Access {
            addr,
            kind,
            value,
            expect,
            record,
        } = access;
        match kind {
            AccessKind::Load => {
                self.cpus[l].stats.reads.inc();
                let got = {
                    let mut store = self.store.lock().expect("store poisoned");
                    read_store(&mut store, addr)
                };
                if record {
                    self.cpus[l].stream.recorded.push(got);
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
                self.cpus[l].stats.writes.inc();
                let mut store = self.store.lock().expect("store poisoned");
                write_store(&mut store, addr, value);
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
        queue: &mut ShardQueue<Event>,
    ) {
        let l = n - self.first;
        if let Some(victim) = self.cpus[l].cache.fill(key, owned) {
            *cost += if victim.owned {
                REPLACE_EXCLUSIVE
            } else {
                REPLACE_SHARED
            };
            if victim.owned {
                let victim_addr = victim.block * BLOCK_BYTES as u64;
                let home = self.home_of(victim_addr);
                let me = NodeId::new(n as u16);
                let clock = self.cpus[l].stream.clock;
                let at = self.deliver(clock.max(queue.now()), me, home, true);
                queue.schedule_for(
                    at,
                    home.index(),
                    Event::Writeback {
                        addr: victim_addr,
                        from: n as u16,
                    },
                );
            }
        }
    }

    // --- Directory engine --------------------------------------------------

    fn home_request(
        &mut self,
        addr: u64,
        from: NodeId,
        req: DirReq,
        now: Cycles,
        queue: &mut ShardQueue<Event>,
    ) {
        if self.dirs.is_busy(addr) {
            self.dir_stats.deferred.inc();
            self.dirs.push_deferred(addr, from, req);
            return;
        }
        self.dir_stats.dir_ops.inc();
        let home = self.home_of(addr);
        let base = DIR_OP_BASE;
        match (self.dirs.view(addr), req) {
            (DirView::Uncached | DirView::Shared, DirReq::Read) => {
                self.dirs.add_sharer(addr, from);
                self.grant(addr, from, req, now + base, queue);
            }
            (DirView::Uncached, DirReq::Write | DirReq::Upgrade) => {
                self.dirs.set_exclusive(addr, from);
                self.grant(addr, from, req, now + base, queue);
            }
            (DirView::Shared, DirReq::Write | DirReq::Upgrade) => {
                let targets = self.dirs.sharers_except(addr, from);
                if targets.is_empty() {
                    self.dirs.set_exclusive(addr, from);
                    self.grant(addr, from, req, now + base, queue);
                    return;
                }
                let cost = base + Cycles::new(DIR_OP_PER_MSG.raw() * targets.len() as u64);
                self.dir_stats.invalidations.add(targets.len() as u64);
                for t in &targets {
                    let at = self.deliver(now + cost, home, *t, false);
                    queue.schedule_for(
                        at,
                        t.index(),
                        Event::Invalidate {
                            addr,
                            node: t.raw(),
                        },
                    );
                }
                self.dirs.set_busy(
                    addr,
                    DirBusy::Invalidating {
                        acks_left: targets.len(),
                        to: from,
                        req,
                    },
                );
            }
            (DirView::Exclusive(owner), _) => {
                self.dir_stats.recalls.inc();
                let cost = base + DIR_OP_PER_MSG;
                let at = self.deliver(now + cost, home, owner, false);
                queue.schedule_for(
                    at,
                    owner.index(),
                    Event::Recall {
                        addr,
                        node: owner.raw(),
                        invalidate: !matches!(req, DirReq::Read),
                    },
                );
                self.dirs
                    .set_busy(addr, DirBusy::Recalling { owner, to: from, req });
            }
        }
    }

    /// Sends a grant back to the requester.
    fn grant(
        &mut self,
        addr: u64,
        to: NodeId,
        req: DirReq,
        at: Cycles,
        queue: &mut ShardQueue<Event>,
    ) {
        let home = self.home_of(addr);
        let mut cost = DIR_OP_PER_MSG;
        if req.needs_data() {
            cost += DIR_OP_BLOCK_SEND;
        }
        let deliver = self.deliver(at + cost, home, to, req.needs_data());
        queue.schedule_for(
            deliver,
            to.index(),
            Event::Grant {
                addr,
                node: to.raw(),
                req,
            },
        );
    }

    fn home_ack(&mut self, addr: u64, now: Cycles, queue: &mut ShardQueue<Event>) {
        let Some(DirBusy::Invalidating { acks_left, to, req }) = self.dirs.busy(addr) else {
            panic!("ack for a block that is not invalidating");
        };
        if acks_left > 1 {
            self.dirs.set_busy(
                addr,
                DirBusy::Invalidating {
                    acks_left: acks_left - 1,
                    to,
                    req,
                },
            );
            return;
        }
        self.dirs.clear_busy(addr);
        self.dirs.set_exclusive(addr, to);
        self.dir_stats.dir_ops.inc();
        self.grant(addr, to, req, now + DIR_OP_BASE, queue);
        self.drain_queue(addr, now, queue);
    }

    fn home_data(&mut self, addr: u64, from: NodeId, now: Cycles, queue: &mut ShardQueue<Event>) {
        let Some(DirBusy::Recalling { owner, to, req }) = self.dirs.busy(addr) else {
            panic!("recall data for a block that is not recalling");
        };
        debug_assert_eq!(owner, from);
        self.dirs.clear_busy(addr);
        match req {
            DirReq::Read => self.dirs.set_shared_pair(addr, owner, to),
            DirReq::Write | DirReq::Upgrade => self.dirs.set_exclusive(addr, to),
        }
        self.dir_stats.dir_ops.inc();
        let cost = DIR_OP_BASE + DIR_OP_BLOCK_RECV;
        self.grant(addr, to, req, now + cost, queue);
        self.drain_queue(addr, now, queue);
    }

    fn drain_queue(&mut self, addr: u64, now: Cycles, queue: &mut ShardQueue<Event>) {
        loop {
            if self.dirs.is_busy(addr) {
                return;
            }
            let Some((from, req)) = self.dirs.pop_deferred(addr) else {
                return;
            };
            self.home_request(addr, from, req, now, queue);
        }
    }

    fn invalidate_at(&mut self, addr: u64, node: usize, now: Cycles, queue: &mut ShardQueue<Event>) {
        // The remote cache controller invalidates without involving its
        // CPU: 8 cycles plus the shared-replacement charge (Table 2).
        let key = addr / BLOCK_BYTES as u64;
        self.cpus[node - self.first].cache.invalidate(key);
        let cost = REMOTE_INVALIDATE + REPLACE_SHARED;
        let home = self.home_of(addr);
        let me = NodeId::new(node as u16);
        let at = self.deliver(now + cost, me, home, false);
        queue.schedule_for(at, home.index(), Event::HomeAck { addr });
    }

    fn recall_at(
        &mut self,
        addr: u64,
        node: usize,
        invalidate: bool,
        now: Cycles,
        queue: &mut ShardQueue<Event>,
    ) {
        let l = node - self.first;
        let key = addr / BLOCK_BYTES as u64;
        let present = if invalidate {
            self.cpus[l].cache.invalidate(key)
        } else {
            self.cpus[l].cache.set_owned(key, false)
        };
        if !present {
            if self.cpus[l].pending_block == Some(addr) {
                // The recall overtook this node's own grant for the same
                // block (grants and recalls travel on different virtual
                // networks). Nack-and-retry, as a busy hardware owner
                // would: try again after the grant has landed.
                queue.schedule_for(
                    now + self.cfg.network_latency,
                    node,
                    Event::Recall {
                        addr,
                        node: node as u16,
                        invalidate,
                    },
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
        queue.schedule_for(
            at,
            home.index(),
            Event::HomeData {
                addr,
                from: me.raw(),
            },
        );
    }

    fn writeback(&mut self, addr: u64, from: NodeId, now: Cycles, queue: &mut ShardQueue<Event>) {
        self.dir_stats.writebacks.inc();
        match self.dirs.busy(addr) {
            Some(DirBusy::Recalling { owner, .. }) if owner == from => {
                // The owner's eviction raced our recall; its writeback
                // carries the block.
                self.home_data(addr, from, now, queue);
            }
            Some(other) => panic!("writeback raced {other:?}"),
            None => {
                debug_assert_eq!(self.dirs.view(addr), DirView::Exclusive(from));
                self.dirs.set_uncached(addr);
            }
        }
    }

    fn grant_arrived(
        &mut self,
        addr: u64,
        node: usize,
        req: DirReq,
        now: Cycles,
        queue: &mut ShardQueue<Event>,
    ) {
        let l = node - self.first;
        let key = addr / BLOCK_BYTES as u64;
        let me = NodeId::new(node as u16);
        let home = self.home_of(addr);
        let mut cost = if home == me {
            LOCAL_MISS
        } else {
            REMOTE_MISS_FINISH
        };
        match req {
            DirReq::Upgrade => {
                // The line is still resident unless an intervening
                // invalidation removed it; then treat as a full fill.
                if !self.cpus[l].cache.set_owned(key, true) {
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
        let cpu = &mut self.cpus[l];
        debug_assert_eq!(cpu.stream.status, Status::Blocked(Stall::Miss));
        cpu.pending_block = None;
        let access = cpu.stream.pending_access();
        self.complete_access(node, access);
        let stream = &mut self.cpus[l].stream;
        stream.pc += 1;
        // The miss stall runs from the request to the fill's end (the
        // blocked CPU's clock is the request time, before `now`).
        stream.resume(now + cost);
        stream.wake(node, queue, Event::CpuStep(node));
    }
}

impl CpuHost for Shard<'_> {
    type Event = Event;

    fn config(&self) -> &SystemConfig {
        self.cfg
    }

    fn workload(&self) -> &Mutex<Box<dyn Workload>> {
        self.workload
    }

    fn nodes(&self) -> Range<usize> {
        self.first..self.first + self.cpus.len()
    }

    #[inline]
    fn cpu(&mut self, n: usize) -> &mut Stream {
        &mut self.cpus[n - self.first].stream
    }

    #[inline]
    fn access(&mut self, n: usize, access: Access, queue: &mut ShardQueue<Event>) -> Flow {
        self.issue_access(n, access, queue)
    }

    /// A hardware shared-memory machine has no user-level protocol:
    /// calls complete in one cycle.
    fn user_call(&mut self, n: usize, _: u32, _: u64, _: &mut ShardQueue<Event>) -> Flow {
        self.cpus[n - self.first].stream.clock += Cycles::new(1);
        Flow::Completed
    }

    fn wakeup(n: usize) -> Event {
        Event::CpuStep(n)
    }
}
