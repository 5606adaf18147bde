//! The one op-stream CPU both machines run.
//!
//! The paper compares Typhoon/Stache with DirNNB on one processor model
//! — the same programs on the same CPU, cache and TLB (Table 2,
//! "Common") — and only the memory system differs. This module is that
//! processor: it executes a workload's op stream for one node per
//! `CpuStep` event, and hands every memory op (and every protocol call)
//! to the machine, which is the only part that differs.
//!
//! It owns:
//!
//! - the stream state ([`Stream`]): op chunk, pc, local clock, status,
//!   the step de-duplication flag, suspension time, recorded reads, and
//!   the counters every machine keeps;
//! - the op loop ([`step`]): chunk refill, the `Compute`, `WaitUntil`
//!   and `Barrier` ops, the quantum deadline and the direct-execution
//!   guard;
//! - barrier arrival and release ([`release`]) with the wait accounting;
//! - block and resume ([`Stream::block`], [`Stream::resume`]) with stall
//!   accounting per [`Stall`] reason;
//! - seeding each node's first step ([`seed`]) and the end-of-run
//!   queries ([`finished_at`]): a `Done` CPU's clock is its finish time.
//!
//! A machine supplies the rest through [`CpuHost`]. The per-op path is
//! monomorphised: no `dyn` beyond the workload's chunk refills, and no
//! per-op allocation.
//!
//! # Scheduling keys
//!
//! Each wake uses a fixed key, which the tie-shuffled order depends on:
//! the quantum yield uses the node's reserved wakeup key
//! ([`EventQueue::schedule_wakeup`]), the one event direct execution may
//! elide; release and resume use the node's own origin counter
//! ([`EventQueue::schedule`]).

use tt_base::addr::VAddr;
use tt_base::stats::Counter;
use tt_base::workload::{Op, Workload};
use tt_base::{Cycles, NodeId};
use tt_mem::AccessKind;

use crate::driver::Machine;
use crate::EventQueue;

/// Why a blocked CPU waits; stall cycles are charged per reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stall {
    /// A cache miss the hardware directory is serving (DirNNB).
    Miss,
    /// A page or block access fault a protocol handler is serving.
    Fault,
    /// An explicit call into the node's protocol library.
    Call,
}

/// Execution status of a node's computation thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Executing ops.
    Ready,
    /// Suspended until the machine resumes it.
    Blocked(Stall),
    /// Waiting at a barrier.
    AtBarrier,
    /// Program finished; the clock is the finish time.
    Done,
}

/// A memory op of the stream, decoded for the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Word-aligned shared virtual address.
    pub addr: VAddr,
    /// Load or store.
    pub kind: AccessKind,
    /// The value a store writes (0 for loads).
    pub value: u64,
    /// The value a load must observe when value verification is on.
    pub expect: Option<u64>,
    /// Whether the loaded value joins the recorded-read log.
    pub record: bool,
}

impl Access {
    /// Decodes a memory op.
    ///
    /// # Panics
    ///
    /// Panics on an op that does not touch shared memory.
    #[inline]
    fn of(op: Op) -> Access {
        let (addr, kind, value, expect, record) = match op {
            Op::Read { addr, expect } => (addr, AccessKind::Load, 0, expect, false),
            Op::ReadRecord { addr } => (addr, AccessKind::Load, 0, None, true),
            Op::Write { addr, value } => (addr, AccessKind::Store, value, None, false),
            other => unreachable!("not a memory op: {other:?}"),
        };
        Access { addr, kind, value, expect, record }
    }
}

/// Whether an op the machine executed completed or blocked the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// The op finished; the stream continues.
    Completed,
    /// The CPU is suspended until the machine resumes it.
    Blocked,
}

/// The state of one node's computation thread.
#[derive(Debug)]
pub struct Stream {
    /// Current op chunk.
    pub(crate) chunk: Vec<Op>,
    /// Index of the next op in `chunk`.
    pub pc: usize,
    /// Local time through which this CPU has executed.
    pub clock: Cycles,
    /// Execution status.
    pub status: Status,
    /// Whether a `CpuStep` event is already scheduled (de-duplication).
    pub(crate) step_pending: bool,
    /// Time at which the current suspension began.
    pub(crate) suspended_at: Cycles,
    /// Values observed by `Op::ReadRecord` loads, in program order
    /// (litmus harnesses read these back after the run).
    pub recorded: Vec<u64>,
    /// Ops executed (each charged one base cycle).
    pub ops: Counter,
    /// Cycles spent in `Compute` ops.
    pub compute_cycles: Counter,
    /// Cycles skipped by `Op::WaitUntil` (open-loop arrival idling).
    pub idle_cycles: Counter,
    /// Cycles waiting at barriers.
    pub barrier_wait_cycles: Counter,
    /// Cycles suspended, per [`Stall`] reason.
    stall_cycles: [Counter; 3],
}

impl Default for Stream {
    fn default() -> Self {
        Stream {
            chunk: Vec::new(),
            pc: 0,
            clock: Cycles::ZERO,
            status: Status::Ready,
            step_pending: false,
            suspended_at: Cycles::ZERO,
            recorded: Vec::new(),
            ops: Counter::new(),
            compute_cycles: Counter::new(),
            idle_cycles: Counter::new(),
            barrier_wait_cycles: Counter::new(),
            stall_cycles: [Counter::new(); 3],
        }
    }
}

impl Stream {
    /// Cycles this CPU spent blocked for `reason`.
    pub fn stall_cycles(&self, reason: Stall) -> u64 {
        self.stall_cycles[reason as usize].get()
    }

    /// The memory op the CPU is suspended on (its pc stays on a blocked
    /// access until the access completes).
    #[inline]
    pub fn pending_access(&self) -> Access {
        Access::of(self.chunk[self.pc])
    }

    /// Completes the op at the pc after `cost` cycles.
    #[inline]
    pub fn complete(&mut self, cost: Cycles) {
        self.clock += cost;
        self.pc += 1;
    }

    /// Suspends the CPU at its current clock for `reason`.
    #[inline]
    pub fn block(&mut self, reason: Stall) {
        self.status = Status::Blocked(reason);
        self.suspended_at = self.clock;
    }

    /// Makes a blocked CPU ready at `at` (or at its own clock, if that is
    /// later), charging the suspension to its reason, which is returned.
    ///
    /// # Panics
    ///
    /// Panics if the CPU is not blocked.
    #[inline]
    pub fn resume(&mut self, at: Cycles) -> Stall {
        let Status::Blocked(reason) = self.status else {
            panic!("resume of a thread that is not suspended (status {:?})", self.status);
        };
        self.stall_cycles[reason as usize].add((at - self.suspended_at).raw());
        self.status = Status::Ready;
        self.clock = self.clock.max(at);
        reason
    }

    /// Schedules `wakeup` at the CPU's clock unless the CPU is not ready
    /// or a step is already pending. Keyed under the current origin,
    /// which must be the CPU's own node.
    pub fn wake<E>(&mut self, queue: &mut EventQueue<E>, wakeup: E) {
        if self.status == Status::Ready && !self.step_pending {
            self.step_pending = true;
            queue.schedule(self.clock, wakeup);
        }
    }
}

/// What a machine supplies to the shared CPU besides the [`Machine`]
/// driver interface (which provides the configuration: node count,
/// quantum, direct execution).
pub trait CpuHost: Machine {
    /// The workload feeding every node's op stream.
    fn workload(&mut self) -> &mut dyn Workload;

    /// Node `n`'s stream state.
    fn cpu(&mut self, n: usize) -> &mut Stream;

    /// Executes the memory op at node `n`'s pc (already counted in
    /// `ops`). On [`Flow::Completed`] the machine has advanced the
    /// stream past it ([`Stream::complete`]); on [`Flow::Blocked`] it has
    /// blocked the stream ([`Stream::block`]) with the pc left on the op,
    /// and owes it a [`Stream::resume`].
    fn access(&mut self, n: usize, access: Access, queue: &mut EventQueue<Self::Event>) -> Flow;

    /// Executes `Op::UserCall { op, arg }` (the pc is already past it and
    /// the op counted), with the same contract as [`CpuHost::access`].
    fn user_call(
        &mut self,
        n: usize,
        op: u32,
        arg: u64,
        queue: &mut EventQueue<Self::Event>,
    ) -> Flow;

    /// Node `n`'s `CpuStep` event.
    fn wakeup(n: usize) -> Self::Event;
}

/// Runs node `n`'s op stream from `now` for at least a quantum (one
/// network latency) of simulated time, until it blocks, parks at a
/// barrier or finishes.
#[inline]
pub fn step<H: CpuHost>(host: &mut H, n: usize, now: Cycles, queue: &mut EventQueue<H::Event>) {
    let cfg = host.config();
    let (quantum, direct) = (cfg.network_latency, cfg.direct_execution);
    let mut cpu = host.cpu(n);
    cpu.step_pending = false;
    if cpu.status != Status::Ready {
        return;
    }
    cpu.clock = cpu.clock.max(now);
    let mut deadline = now + quantum;
    // `cpu` stays borrowed across ops and is re-borrowed only after the
    // host has run (a memory op or a call): compute runs never re-index.
    loop {
        // Refill the op chunk if exhausted; a finished program frees it.
        if cpu.pc >= cpu.chunk.len() {
            let next = host.workload().next_chunk(NodeId::new(n as u16));
            cpu = host.cpu(n);
            let Some(chunk) = next else {
                cpu.chunk = Vec::new();
                cpu.status = Status::Done;
                return;
            };
            cpu.chunk = chunk;
            cpu.pc = 0;
            continue;
        }
        let op = cpu.chunk[cpu.pc];
        cpu.ops.inc();
        match op {
            Op::Compute(k) => {
                cpu.clock += Cycles::new(k.into());
                cpu.compute_cycles.add(k.into());
                cpu.pc += 1;
            }
            Op::WaitUntil { until } => {
                cpu.pc += 1;
                let target = Cycles::new(until);
                if target > cpu.clock {
                    cpu.idle_cycles.add((target - cpu.clock).raw());
                    cpu.clock = target;
                }
            }
            Op::Barrier => {
                cpu.pc += 1;
                cpu.status = Status::AtBarrier;
                cpu.suspended_at = cpu.clock;
                queue.note_barrier_arrival(cpu.clock);
                return;
            }
            Op::UserCall { op, arg } => {
                cpu.pc += 1;
                if host.user_call(n, op, arg, queue) == Flow::Blocked {
                    return;
                }
                cpu = host.cpu(n);
            }
            Op::Read { .. } | Op::ReadRecord { .. } | Op::Write { .. } => {
                if host.access(n, Access::of(op), queue) == Flow::Blocked {
                    return;
                }
                cpu = host.cpu(n);
            }
        }
        if cpu.clock >= deadline {
            let at = cpu.clock;
            // Direct execution (WWT-style): if every pending event lies
            // strictly beyond this CPU's clock, the wakeup we are about
            // to schedule would be the very next event popped — so skip
            // the queue round trip and keep executing inline. Only the
            // self-wakeup is elided, and it carries a reserved key, so no
            // other event's key (and no tie-shuffled order) changes:
            // reported cycles are byte-identical.
            if direct && queue.peek_time().is_none_or(|t| t > at) {
                deadline = at + quantum;
                continue;
            }
            cpu.step_pending = true;
            queue.schedule_wakeup(at, n, H::wakeup(n));
            return;
        }
    }
}

/// Schedules every node's first step at time zero, each under its own
/// origin.
pub fn seed<H: CpuHost>(host: &mut H, queue: &mut EventQueue<H::Event>) {
    for n in 0..host.config().nodes {
        queue.set_origin(n);
        host.cpu(n).step_pending = true;
        queue.schedule(Cycles::ZERO, H::wakeup(n));
    }
}

/// Releases every node from barrier `generation` at `at`, waking each
/// under its own origin counter.
///
/// # Panics
///
/// Panics on a stale release or a node that is not at the barrier.
pub fn release<H: CpuHost>(
    host: &mut H,
    at: Cycles,
    generation: u64,
    queue: &mut EventQueue<H::Event>,
) {
    assert_eq!(generation + 1, queue.releases(), "stale barrier release");
    for n in 0..host.config().nodes {
        let cpu = host.cpu(n);
        assert_eq!(cpu.status, Status::AtBarrier, "node {n} missed the barrier");
        cpu.barrier_wait_cycles.add((at - cpu.suspended_at).raw());
        cpu.status = Status::Ready;
        cpu.clock = at;
        queue.set_origin(n);
        cpu.wake(queue, H::wakeup(n));
    }
}

/// When the last of `cpus` finished, or — if any has not — every
/// unfinished CPU's index and status.
pub fn finished_at<'a>(
    cpus: impl IntoIterator<Item = &'a Stream>,
) -> Result<Cycles, Vec<(usize, Status)>> {
    let mut end = Cycles::ZERO;
    let mut stuck = Vec::new();
    for (n, cpu) in cpus.into_iter().enumerate() {
        match cpu.status {
            Status::Done => end = end.max(cpu.clock),
            status => stuck.push((n, status)),
        }
    }
    if stuck.is_empty() {
        Ok(end)
    } else {
        Err(stuck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run;
    use tt_base::config::BARRIER_LATENCY;
    use tt_base::stats::Report;
    use tt_base::workload::Layout;
    use tt_base::SystemConfig;

    /// Cycles a toy hit costs, and how long a toy miss or protocol call
    /// stays blocked.
    const HIT: u64 = 2;
    const MISS: u64 = 30;
    const CALL: u64 = 20;
    /// Addresses at or above this miss.
    const MISS_BASE: u64 = 0x1000;
    /// The default network latency: quantum and barrier delay.
    const LATENCY: u64 = BARRIER_LATENCY.raw();

    fn hit(i: u64) -> VAddr {
        VAddr::new(8 * i)
    }

    fn miss(i: u64) -> VAddr {
        VAddr::new(MISS_BASE + 8 * i)
    }

    /// Hands each node its whole program as one chunk.
    struct Script(Vec<Option<Vec<Op>>>);

    impl Workload for Script {
        fn layout(&self) -> Layout {
            Layout::new()
        }
        fn next_chunk(&mut self, cpu: NodeId) -> Option<Vec<Op>> {
            self.0[cpu.index()].take()
        }
    }

    #[derive(Clone, Debug)]
    enum Ev {
        Step(usize),
        /// A blocked miss's data arrives.
        Fill(usize),
        /// The protocol finishes a user call.
        CallDone(usize),
        /// A neighbour's miss notice: cross-node traffic that lands on
        /// the same cycles as local wakes.
        Poke(usize),
        Release(u64),
    }

    /// A toy memory host: hits complete in [`HIT`] cycles; a miss costs
    /// one cycle, blocks for [`MISS`] and pokes the next node; a user
    /// call blocks for [`CALL`] and, given a nonzero argument, pokes its
    /// own node that many cycles on. Every handled event is logged per
    /// node.
    struct Toy {
        cfg: SystemConfig,
        shuffle: Option<u64>,
        streams: Vec<Stream>,
        logs: Vec<Vec<(u64, &'static str)>>,
        workload: Box<dyn Workload>,
    }

    impl Toy {
        fn new(cfg: SystemConfig, programs: Vec<Vec<Op>>) -> Self {
            let n = cfg.nodes;
            Toy {
                cfg,
                shuffle: None,
                streams: (0..n).map(|_| Stream::default()).collect(),
                logs: vec![Vec::new(); n],
                workload: Box::new(Script(programs.into_iter().map(Some).collect())),
            }
        }

        fn log(&mut self, n: usize, now: Cycles, what: &'static str) {
            self.logs[n].push((now.raw(), what));
        }
    }

    impl CpuHost for Toy {
        fn workload(&mut self) -> &mut dyn Workload {
            &mut *self.workload
        }
        fn cpu(&mut self, n: usize) -> &mut Stream {
            &mut self.streams[n]
        }
        fn access(&mut self, n: usize, access: Access, queue: &mut EventQueue<Ev>) -> Flow {
            let nodes = self.cfg.nodes;
            let cpu = self.cpu(n);
            if access.addr.raw() < MISS_BASE {
                cpu.complete(Cycles::new(HIT));
                return Flow::Completed;
            }
            cpu.clock += Cycles::new(1);
            cpu.block(Stall::Miss);
            let at = cpu.clock;
            queue.schedule(at + Cycles::new(MISS), Ev::Fill(n));
            let next = (n + 1) % nodes;
            queue.schedule(at + Cycles::new(LATENCY), Ev::Poke(next));
            Flow::Blocked
        }
        fn user_call(&mut self, n: usize, _: u32, poke: u64, queue: &mut EventQueue<Ev>) -> Flow {
            let cpu = self.cpu(n);
            cpu.block(Stall::Call);
            let at = cpu.clock;
            queue.schedule(at + Cycles::new(CALL), Ev::CallDone(n));
            if poke > 0 {
                queue.schedule(at + Cycles::new(poke), Ev::Poke(n));
            }
            Flow::Blocked
        }
        fn wakeup(n: usize) -> Ev {
            Ev::Step(n)
        }
    }

    impl Machine for Toy {
        type Event = Ev;

        fn config(&self) -> &SystemConfig {
            &self.cfg
        }
        fn tie_shuffle(&self) -> Option<u64> {
            self.shuffle
        }
        fn target(&self, ev: &Ev) -> Option<usize> {
            match *ev {
                Ev::Step(n) | Ev::Fill(n) | Ev::CallDone(n) | Ev::Poke(n) => Some(n),
                Ev::Release(_) => None,
            }
        }
        fn init(&mut self, q: &mut EventQueue<Ev>) {
            seed(self, q);
        }
        fn handle(&mut self, now: Cycles, ev: Ev, q: &mut EventQueue<Ev>) {
            match ev {
                Ev::Step(n) => {
                    self.log(n, now, "step");
                    step(self, n, now, q);
                }
                Ev::Fill(n) => {
                    self.log(n, now, "fill");
                    let cpu = self.cpu(n);
                    cpu.pc += 1;
                    cpu.resume(now);
                    cpu.wake(q, Ev::Step(n));
                }
                Ev::CallDone(n) => {
                    self.log(n, now, "call");
                    let cpu = self.cpu(n);
                    cpu.resume(now);
                    cpu.wake(q, Ev::Step(n));
                }
                Ev::Poke(n) => self.log(n, now, "poke"),
                Ev::Release(generation) => release(self, now, generation, q),
            }
        }
        fn release_event(generation: u64) -> Ev {
            Ev::Release(generation)
        }
        fn finish(&mut self, _: u64) -> (Cycles, Report) {
            let end = finished_at(&self.streams).unwrap_or_else(|stuck| panic!("stuck: {stuck:?}"));
            (end, Report::new())
        }
    }

    /// Per-node finish clock and counters.
    type Counts = (u64, u64, u64, u64, u64, [u64; 3]);

    fn counts(toy: &Toy) -> Vec<Counts> {
        toy.streams
            .iter()
            .map(|s| {
                (
                    s.clock.raw(),
                    s.ops.get(),
                    s.compute_cycles.get(),
                    s.idle_cycles.get(),
                    s.barrier_wait_cycles.get(),
                    [Stall::Miss, Stall::Fault, Stall::Call].map(|r| s.stall_cycles(r)),
                )
            })
            .collect()
    }

    fn config(nodes: usize, direct: bool) -> SystemConfig {
        SystemConfig {
            nodes,
            direct_execution: direct,
            network_latency: Cycles::new(LATENCY),
            ..SystemConfig::default()
        }
    }

    /// Six barrier phases per node mixing every op kind, with
    /// node-dependent work so arrivals, misses and pokes interleave.
    fn busy_programs(nodes: usize) -> Vec<Vec<Op>> {
        (0..nodes as u64)
            .map(|n| {
                let mut ops = Vec::new();
                for r in 0..6u64 {
                    ops.push(Op::Compute(((r * (n + 1)) % 7 + 1) as u32));
                    ops.push(Op::Read { addr: hit(n), expect: None });
                    ops.push(Op::Write { addr: miss(n + r), value: r });
                    ops.push(Op::Compute(3));
                    if (r + n) % 2 == 0 {
                        ops.push(Op::UserCall { op: 0, arg: r });
                    }
                    ops.push(Op::ReadRecord { addr: miss(n) });
                    ops.push(Op::Compute(40));
                    ops.push(Op::WaitUntil { until: 150 * (r + 1) });
                    // Skewed hit runs: the last node to the barrier runs
                    // alone, where direct execution elides its wakeups.
                    for _ in 0..4 * n + 2 {
                        ops.push(Op::Read { addr: hit(n), expect: None });
                    }
                    ops.push(Op::Barrier);
                }
                ops
            })
            .collect()
    }

    fn run_toy(cfg: SystemConfig, shuffle: Option<u64>, programs: Vec<Vec<Op>>) -> (Cycles, Toy) {
        let mut toy = Toy::new(cfg, programs);
        toy.shuffle = shuffle;
        let cycles = run(&mut toy).cycles;
        (cycles, toy)
    }

    #[test]
    fn direct_execution_leaves_every_clock_unchanged() {
        // Elision drops only wakeups, each under its reserved key, so
        // every other event keeps its key and its (shuffled) place.
        let others = |t: &Toy| -> Vec<Vec<(u64, &str)>> {
            let keep = |e: &&(u64, &'static str)| e.1 != "step";
            t.logs.iter().map(|l| l.iter().filter(keep).copied().collect()).collect()
        };
        let steps = |t: &Toy| t.logs.iter().flatten().filter(|(_, w)| *w == "step").count();
        for shuffle in [None, Some(1), Some(2)] {
            let (on, on_toy) = run_toy(config(4, true), shuffle, busy_programs(4));
            let (off, off_toy) = run_toy(config(4, false), shuffle, busy_programs(4));
            let case = format!("shuffle {shuffle:?}");
            assert_eq!(on, off, "{case}");
            assert_eq!(counts(&on_toy), counts(&off_toy), "{case}");
            assert_eq!(others(&on_toy), others(&off_toy), "{case}");
            assert!(steps(&on_toy) < steps(&off_toy), "nothing elided: {case}");
        }
    }

    #[test]
    fn barrier_wait_runs_from_arrival_to_release() {
        let programs = vec![
            vec![Op::Compute(10), Op::Barrier, Op::Compute(1)],
            vec![Op::Compute(50), Op::Barrier, Op::Compute(1)],
        ];
        let (cycles, toy) = run_toy(config(2, true), None, programs);
        // Release at the last arrival (50) plus the barrier latency.
        let release = 50 + LATENCY;
        let waits: Vec<u64> = toy.streams.iter().map(|s| s.barrier_wait_cycles.get()).collect();
        assert_eq!(waits, vec![release - 10, release - 50]);
        assert_eq!(cycles, Cycles::new(release + 1));
    }

    #[test]
    fn blocked_cycles_are_charged_to_their_stall_reason() {
        let program = vec![
            Op::Compute(4),
            Op::UserCall { op: 7, arg: 0 },
            Op::Compute(5),
            Op::Read { addr: miss(0), expect: None },
            Op::Compute(1),
        ];
        let (cycles, toy) = run_toy(config(1, true), None, vec![program]);
        let s = &toy.streams[0];
        assert_eq!(s.stall_cycles(Stall::Call), CALL, "call blocked at 4, resumed at 24");
        assert_eq!(s.stall_cycles(Stall::Miss), MISS, "miss blocked at 30, filled at 60");
        assert_eq!(s.stall_cycles(Stall::Fault), 0);
        assert_eq!(s.ops.get(), 5);
        assert_eq!(s.compute_cycles.get(), 10);
        assert_eq!(cycles, Cycles::new(4 + CALL + 5 + 1 + MISS + 1));
    }

    #[test]
    fn release_and_resume_wake_under_the_node_origin_counter() {
        // Each wake lands on the cycle of a self-poke the node scheduled
        // earlier. Under the node's counter the wake sorts after it;
        // under the reserved wakeup key (counter 0) it would sort first.
        let program = vec![
            Op::Compute(4),
            Op::UserCall { op: 0, arg: CALL },
            Op::UserCall { op: 0, arg: CALL + LATENCY },
            Op::Barrier,
            Op::Compute(1),
        ];
        let (_, toy) = run_toy(config(1, true), None, vec![program]);
        let call_at = 4 + CALL;
        let release_at = call_at + CALL + LATENCY;
        assert_eq!(
            toy.logs[0],
            vec![
                (0, "step"),
                (call_at, "call"),
                (call_at, "poke"),
                (call_at, "step"),
                (call_at + CALL, "call"),
                (call_at + CALL, "step"),
                (release_at, "poke"),
                (release_at, "step"),
            ]
        );
    }

    #[test]
    fn shuffled_wake_order_is_reproducible() {
        // Without elision every wake is an event, so each node's log is
        // its full event order.
        let logs = |seed: Option<u64>| {
            let (cycles, toy) = run_toy(config(4, false), seed, busy_programs(4));
            (cycles, counts(&toy), toy.logs)
        };
        let unshuffled = logs(None);
        let mut permuted = false;
        for seed in 1..=4 {
            let shuffled = logs(Some(seed));
            assert_eq!(logs(Some(seed)), shuffled, "seed {seed}");
            assert_eq!(shuffled.0, unshuffled.0, "tie order never changes the finish time here");
            permuted |= shuffled.2 != unshuffled.2;
        }
        assert!(permuted, "some seed must reorder same-cycle events");
    }
}
