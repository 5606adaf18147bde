//! The one machine driver: every simulation run, sequential, windowed
//! or observed, goes through here.
//!
//! A machine describes itself through [`Machine`]: its event type, a
//! *shard view* over a contiguous node range (the whole machine, or one
//! slice of it per shard), the owned per-shard [`Machine::Local`] state
//! a windowed run needs besides the node slices, and the handlers. The
//! driver owns everything else:
//!
//! - building the event queues (tie-shuffle salt, and the inline
//!   barrier when one shard owns every node);
//! - choosing the sequential or windowed path from
//!   `SystemConfig::pdes_shape`;
//! - the sequential loop, and the observed loop that calls back after
//!   every event;
//! - declaring each event's target node as the origin of what its
//!   handler schedules (the deterministic key scheme's anchor);
//! - the [`pdes`](crate::pdes) window scheme, including routing the
//!   cross-shard events `init` produced, checking that every shard saw
//!   the same barrier history, and attaching the window telemetry.
//!
//! The per-event path is monomorphised: `handle` and `target` are
//! associated functions on the concrete machine type, called through
//! no `dyn` and no per-event allocation.

use tt_base::config::BARRIER_LATENCY;
use tt_base::stats::{PdesTelemetry, Report};
use tt_base::{Cycles, SystemConfig};

use crate::pdes::{run_windows, ShardQueue, Windowing};

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total execution time (when the last processor finished).
    pub cycles: Cycles,
    /// Aggregated machine, network, and protocol statistics.
    pub report: Report,
    /// Host-side window-driver telemetry; `None` on the sequential path.
    /// Kept out of `report` so sequential and parallel reports compare
    /// equal.
    pub pdes: Option<PdesTelemetry>,
}

/// What a simulated machine supplies to the driver.
///
/// Shard views hold the node range they own as disjoint mutable slices
/// of the machine, plus shared references to what every shard reads.
/// Whatever else a shard mutates that is not per-node — a network's
/// send-side statistics, a directory map — lives in an owned
/// [`Machine::Local`], one per shard, which the driver keeps in a
/// single `Vec` and hands back to [`Machine::absorb`] after the run.
pub trait Machine {
    /// The machine's event type.
    type Event: Send;
    /// Owned per-shard state of a windowed run, folded back afterwards.
    type Local: Send;
    /// A view of the nodes one shard owns (see the trait docs).
    type Shard<'a>: Send
    where
        Self: 'a;

    /// The machine's configuration (node count, timing, simulator knobs).
    fn config(&self) -> &SystemConfig;

    /// Seed for same-cycle tie-shuffling, if the caller asked for it.
    fn tie_shuffle(&self) -> Option<u64>;

    /// Minimum cross-node interaction latency: the window scheme's
    /// lookahead.
    fn lookahead(&self) -> Cycles;

    /// Contiguous `(first, len)` node ranges for `parts` shards. Shard
    /// maps tune only wall-clock time, never cycles.
    fn shard_map(&self, parts: usize) -> Vec<(usize, usize)> {
        split_ranges(self.config().nodes, parts)
    }

    /// A view spanning every node, over the machine's own state.
    fn whole(&mut self) -> Self::Shard<'_>;

    /// A fresh per-shard [`Machine::Local`], taken before any traffic.
    fn local(&self) -> Self::Local;

    /// Views over the disjoint node `ranges`, the i-th using `locals[i]`.
    fn split<'a>(
        &'a mut self,
        ranges: &[(usize, usize)],
        locals: &'a mut [Self::Local],
    ) -> Vec<Self::Shard<'a>>;

    /// Folds the per-shard state of a windowed run back into the machine.
    fn absorb(&mut self, locals: Vec<Self::Local>);

    /// The node whose state handling `event` touches, or `None` for a
    /// machine-global event (the barrier release).
    fn target(shard: &Self::Shard<'_>, event: &Self::Event) -> Option<usize>;

    /// Seeds the queue for the shard's nodes at time zero. The view must
    /// declare each node as the origin ([`ShardQueue::set_origin`])
    /// before scheduling on its behalf.
    fn init(shard: &mut Self::Shard<'_>, queue: &mut ShardQueue<Self::Event>);

    /// Handles one event at `now`. The driver has already declared the
    /// event's target as the origin of what the handler schedules.
    fn handle(
        shard: &mut Self::Shard<'_>,
        now: Cycles,
        event: Self::Event,
        queue: &mut ShardQueue<Self::Event>,
    );

    /// The event releasing barrier generation `generation`.
    fn release_event(generation: u64) -> Self::Event;

    /// Checks the machine drained cleanly (no processor left blocked)
    /// and returns the total execution time and the report, given the
    /// number of barrier releases the run applied.
    fn finish(&mut self, releases: u64) -> (Cycles, Report);
}

/// Contiguous `(first, len)` node ranges splitting `total` nodes into
/// `parts` shards of near-equal size.
pub fn split_ranges(total: usize, parts: usize) -> Vec<(usize, usize)> {
    (0..parts)
        .map(|i| {
            let first = i * total / parts;
            let end = (i + 1) * total / parts;
            (first, end - first)
        })
        .collect()
}

/// Cuts `slice` into consecutive sub-slices of the lengths in `ranges`,
/// for building [`Machine::split`] views.
pub fn carve<'a, 'r, T>(
    mut slice: &'a mut [T],
    ranges: &'r [(usize, usize)],
) -> impl Iterator<Item = &'a mut [T]> + use<'a, 'r, T> {
    ranges.iter().map(move |&(_, len)| {
        let (head, rest) = std::mem::take(&mut slice).split_at_mut(len);
        slice = rest;
        head
    })
}

/// Runs `machine` to completion. `SystemConfig::sim_threads` and
/// `sim_shards` select the sequential event loop or the windowed
/// parallel one; results are bit-identical either way.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// `SystemConfig::validate`), or on whatever the machine's handlers and
/// [`Machine::finish`] assert — a panic on a worker thread is re-raised
/// here.
pub fn run<M: Machine>(machine: &mut M) -> RunResult {
    check_config(machine.config());
    let (shards, threads) = machine.config().pdes_shape();
    if shards > 1 {
        return run_windowed(machine, shards, threads);
    }
    let mut queue = sequential_queue(machine);
    {
        let mut shard = machine.whole();
        M::init(&mut shard, &mut queue);
        while let Some((now, event)) = queue.pop() {
            dispatch::<M>(&mut shard, now, event, &mut queue);
        }
    }
    finish(machine, queue.releases(), None)
}

/// Like [`run`], but calls `observe` after every event with the event
/// just handled and the machine's post-event state. Handlers are
/// atomic, so at each callback the machine is in a consistent state.
///
/// Always runs sequentially, whatever `sim_threads` says: the observer
/// wants the single total event order. Cycles are identical either way.
pub fn run_observed<M: Machine>(
    machine: &mut M,
    mut observe: impl FnMut(Cycles, &M::Event, &M),
) -> RunResult
where
    M::Event: Clone,
{
    check_config(machine.config());
    let mut queue = sequential_queue(machine);
    M::init(&mut machine.whole(), &mut queue);
    while let Some((now, event)) = queue.pop() {
        let observed = event.clone();
        dispatch::<M>(&mut machine.whole(), now, event, &mut queue);
        observe(now, &observed, machine);
    }
    finish(machine, queue.releases(), None)
}

fn check_config(cfg: &SystemConfig) {
    if let Err(reason) = cfg.validate() {
        panic!("invalid configuration: {reason}");
    }
}

/// A queue for the shard owning `first .. first + len`, salted if the
/// machine asked for tie-shuffling.
fn new_queue<M: Machine>(machine: &M, first: usize, len: usize) -> ShardQueue<M::Event> {
    let mut queue = ShardQueue::new(first, len);
    if let Some(seed) = machine.tie_shuffle() {
        queue.enable_tie_shuffle(seed);
    }
    queue
}

/// The single-shard queue: inline barrier completion, no windows. This
/// path *is* the sequential simulator.
fn sequential_queue<M: Machine>(machine: &M) -> ShardQueue<M::Event> {
    let cfg = machine.config();
    let mut queue = new_queue(machine, 0, cfg.nodes);
    queue.enable_inline_barrier(cfg.nodes, BARRIER_LATENCY, M::release_event);
    queue
}

/// Declares the event's target as the origin of everything its handler
/// schedules, then handles it.
#[inline]
fn dispatch<M: Machine>(
    shard: &mut M::Shard<'_>,
    now: Cycles,
    event: M::Event,
    queue: &mut ShardQueue<M::Event>,
) {
    match M::target(shard, &event) {
        Some(node) => queue.set_origin(node),
        None => queue.set_origin_global(),
    }
    M::handle(shard, now, event, queue);
}

fn run_windowed<M: Machine>(machine: &mut M, shards: usize, threads: usize) -> RunResult {
    let cfg = machine.config();
    let windowing = Windowing {
        lookahead: machine.lookahead(),
        release_delay: BARRIER_LATENCY,
        barrier_expected: cfg.nodes,
        policy: cfg.window_policy,
        threads,
    };
    let ranges = machine.shard_map(shards);
    let mut queues: Vec<ShardQueue<M::Event>> = ranges
        .iter()
        .map(|&(first, len)| new_queue(machine, first, len))
        .collect();
    let mut locals: Vec<M::Local> = (0..shards).map(|_| machine.local()).collect();
    let telemetry = {
        let mut views = machine.split(&ranges, &mut locals);
        for (view, queue) in views.iter_mut().zip(&mut queues) {
            M::init(view, queue);
        }
        run_windows(
            &mut views,
            &mut queues,
            windowing,
            dispatch::<M>,
            |_view, queue, at, generation| {
                queue.deliver_release(at, generation, M::release_event(generation))
            },
        )
    };
    machine.absorb(locals);
    // Every shard applies every release to its own nodes.
    assert!(
        queues.iter().all(|q| q.releases() == telemetry.releases),
        "shards disagree on barrier history: {:?} vs {} releases",
        queues.iter().map(|q| q.releases()).collect::<Vec<_>>(),
        telemetry.releases
    );
    finish(machine, telemetry.releases, Some(telemetry))
}

fn finish<M: Machine>(machine: &mut M, releases: u64, pdes: Option<PdesTelemetry>) -> RunResult {
    let (cycles, report) = machine.finish(releases);
    RunResult {
        cycles,
        report,
        pdes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_base::WindowPolicy;

    /// The lookahead and barrier latency of both toys (the default
    /// `SystemConfig` timing).
    const LATENCY: u64 = BARRIER_LATENCY.raw();

    fn toy_config(
        nodes: usize,
        shards: usize,
        threads: usize,
        policy: WindowPolicy,
    ) -> SystemConfig {
        SystemConfig {
            nodes,
            sim_shards: shards,
            sim_threads: threads,
            window_policy: policy,
            ..SystemConfig::default()
        }
    }

    /// A token ring: each node repeatedly passes a token to the next
    /// node with a fixed latency and bumps a per-node counter. With
    /// `init_cross` set, every node's `init` also sends one token
    /// straight to its neighbour — across a shard boundary for the last
    /// node of each shard.
    #[derive(Clone, Debug)]
    struct Token {
        to: usize,
        hops_left: u32,
    }

    struct Ring {
        cfg: SystemConfig,
        init_cross: bool,
        counts: Vec<u64>,
        last: Vec<Cycles>,
    }

    struct RingShard<'a> {
        first: usize,
        nodes: usize,
        init_cross: bool,
        counts: &'a mut [u64],
        last: &'a mut [Cycles],
    }

    impl Ring {
        fn new(cfg: SystemConfig, init_cross: bool) -> Self {
            let n = cfg.nodes;
            Ring {
                cfg,
                init_cross,
                counts: vec![0; n],
                last: vec![Cycles::ZERO; n],
            }
        }
    }

    impl Machine for Ring {
        type Event = Token;
        type Local = ();
        type Shard<'a> = RingShard<'a>;

        fn config(&self) -> &SystemConfig {
            &self.cfg
        }
        fn tie_shuffle(&self) -> Option<u64> {
            None
        }
        fn lookahead(&self) -> Cycles {
            Cycles::new(LATENCY)
        }
        fn whole(&mut self) -> RingShard<'_> {
            RingShard {
                first: 0,
                nodes: self.cfg.nodes,
                init_cross: self.init_cross,
                counts: &mut self.counts,
                last: &mut self.last,
            }
        }
        fn local(&self) {}
        fn split<'a>(
            &'a mut self,
            ranges: &[(usize, usize)],
            _: &'a mut [()],
        ) -> Vec<RingShard<'a>> {
            let counts = carve(&mut self.counts, ranges);
            let last = carve(&mut self.last, ranges);
            ranges
                .iter()
                .zip(counts.zip(last))
                .map(|(&(first, _), (counts, last))| RingShard {
                    first,
                    nodes: self.cfg.nodes,
                    init_cross: self.init_cross,
                    counts,
                    last,
                })
                .collect()
        }
        fn absorb(&mut self, _: Vec<()>) {}
        fn target(_: &RingShard<'_>, ev: &Token) -> Option<usize> {
            Some(ev.to)
        }
        fn init(s: &mut RingShard<'_>, q: &mut ShardQueue<Token>) {
            for n in s.first..s.first + s.counts.len() {
                q.set_origin(n);
                q.schedule_for(
                    Cycles::ZERO,
                    n,
                    Token {
                        to: n,
                        hops_left: 40,
                    },
                );
                if s.init_cross {
                    let next = (n + 1) % s.nodes;
                    q.schedule_for(
                        Cycles::new(LATENCY),
                        next,
                        Token {
                            to: next,
                            hops_left: 5,
                        },
                    );
                }
            }
        }
        fn handle(s: &mut RingShard<'_>, now: Cycles, ev: Token, q: &mut ShardQueue<Token>) {
            s.counts[ev.to - s.first] += 1;
            s.last[ev.to - s.first] = now;
            if ev.hops_left > 0 {
                let next = (ev.to + 1) % s.nodes;
                let token = Token {
                    to: next,
                    hops_left: ev.hops_left - 1,
                };
                q.schedule_for(now + Cycles::new(LATENCY), next, token);
            }
        }
        fn release_event(_: u64) -> Token {
            unreachable!("the ring has no barrier")
        }
        fn finish(&mut self, releases: u64) -> (Cycles, Report) {
            assert_eq!(releases, 0);
            let end = self.last.iter().copied().max().unwrap_or(Cycles::ZERO);
            (end, Report::new())
        }
    }

    fn run_ring(
        init_cross: bool,
        shards: usize,
        threads: usize,
        policy: WindowPolicy,
    ) -> (Vec<u64>, Cycles) {
        let mut ring = Ring::new(toy_config(8, shards, threads, policy), init_cross);
        let r = run(&mut ring);
        assert_eq!(r.pdes.is_some(), shards > 1, "windowed iff sharded");
        (ring.counts, r.cycles)
    }

    #[test]
    fn toy_machine_is_identical_across_shard_counts() {
        for init_cross in [false, true] {
            let seq = run_ring(init_cross, 1, 1, WindowPolicy::Fixed);
            for shards in [2, 4, 8] {
                for policy in [WindowPolicy::Fixed, WindowPolicy::Adaptive] {
                    for threads in [1, 2, shards] {
                        assert_eq!(
                            run_ring(init_cross, shards, threads, policy),
                            seq,
                            "init_cross={init_cross}: diverged at {shards} shards, \
                             {policy:?}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn init_outbox_reaches_the_owning_shard() {
        // Every node's init token to its neighbour adds 6 deliveries per
        // node; at 4 shards, 4 of the 8 cross a shard boundary and are
        // routed before the first window.
        let (plain, _) = run_ring(false, 4, 2, WindowPolicy::Fixed);
        let (cross, _) = run_ring(true, 4, 2, WindowPolicy::Fixed);
        let total = |c: &[u64]| c.iter().sum::<u64>();
        assert_eq!(total(&cross), total(&plain) + 8 * 6);
        assert_eq!(cross, run_ring(true, 1, 1, WindowPolicy::Fixed).0);
    }

    #[test]
    fn observed_run_sees_every_event_at_its_boundary() {
        // Sharding is ignored: the observer gets the one total order.
        let mut ring = Ring::new(toy_config(8, 4, 2, WindowPolicy::Fixed), false);
        let mut seen = 0u64;
        let mut stale = 0u64;
        let r = run_observed(&mut ring, |now, ev, m| {
            seen += 1;
            // The observer runs after the handler: state reflects the event.
            if m.counts.iter().sum::<u64>() != seen || m.last[ev.to] != now {
                stale += 1;
            }
        });
        assert_eq!(stale, 0);
        assert!(r.pdes.is_none());
        assert_eq!(
            (ring.counts, r.cycles),
            run_ring(false, 1, 1, WindowPolicy::Fixed)
        );
    }

    #[test]
    #[should_panic(expected = "invalid configuration: nodes must be between 1 and 65535, got 0")]
    fn zero_nodes_are_rejected() {
        run(&mut Ring::new(
            toy_config(0, 1, 1, WindowPolicy::Fixed),
            false,
        ));
    }

    #[test]
    #[should_panic(
        expected = "invalid configuration: fat-tree arity must be 0 (derived) or at least 2"
    )]
    fn unary_fat_trees_are_rejected() {
        let mut cfg = toy_config(8, 1, 1, WindowPolicy::Fixed);
        cfg.topology = tt_base::Topology::FatTree { arity: 1 };
        run(&mut Ring::new(cfg, false));
    }

    /// A barrier-phase toy: node `n` performs `5 + 25 * n` unit-latency
    /// local steps, parks at the barrier, and resumes on the release —
    /// for `PHASES` generations. The work skew makes fixed windows crawl
    /// (every shard re-rendezvouses each quantum while one shard works),
    /// which is exactly what adaptive windows elide.
    #[derive(Clone, Debug)]
    enum PhaseEv {
        Step { node: usize, left: u32 },
        Release { generation: u64 },
    }

    const PHASE_NODES: usize = 4;
    const PHASES: u64 = 3;

    fn work(node: usize) -> u32 {
        5 + 25 * node as u32
    }

    struct Phased {
        cfg: SystemConfig,
        steps: Vec<u64>,
        last: Vec<Cycles>,
    }

    struct PhasedShard<'a> {
        first: usize,
        steps: &'a mut [u64],
        last: &'a mut [Cycles],
    }

    impl Machine for Phased {
        type Event = PhaseEv;
        type Local = ();
        type Shard<'a> = PhasedShard<'a>;

        fn config(&self) -> &SystemConfig {
            &self.cfg
        }
        fn tie_shuffle(&self) -> Option<u64> {
            None
        }
        fn lookahead(&self) -> Cycles {
            Cycles::new(LATENCY)
        }
        fn whole(&mut self) -> PhasedShard<'_> {
            PhasedShard {
                first: 0,
                steps: &mut self.steps,
                last: &mut self.last,
            }
        }
        fn local(&self) {}
        fn split<'a>(
            &'a mut self,
            ranges: &[(usize, usize)],
            _: &'a mut [()],
        ) -> Vec<PhasedShard<'a>> {
            let steps = carve(&mut self.steps, ranges);
            let last = carve(&mut self.last, ranges);
            ranges
                .iter()
                .zip(steps.zip(last))
                .map(|(&(first, _), (steps, last))| PhasedShard { first, steps, last })
                .collect()
        }
        fn absorb(&mut self, _: Vec<()>) {}
        fn target(_: &PhasedShard<'_>, ev: &PhaseEv) -> Option<usize> {
            match ev {
                PhaseEv::Step { node, .. } => Some(*node),
                PhaseEv::Release { .. } => None,
            }
        }
        fn init(s: &mut PhasedShard<'_>, q: &mut ShardQueue<PhaseEv>) {
            for node in s.first..s.first + s.steps.len() {
                q.set_origin(node);
                let left = work(node);
                q.schedule_for(Cycles::ZERO, node, PhaseEv::Step { node, left });
            }
        }
        fn handle(s: &mut PhasedShard<'_>, now: Cycles, ev: PhaseEv, q: &mut ShardQueue<PhaseEv>) {
            match ev {
                PhaseEv::Step { node, left } => {
                    s.steps[node - s.first] += 1;
                    s.last[node - s.first] = now;
                    if left > 0 {
                        let step = PhaseEv::Step {
                            node,
                            left: left - 1,
                        };
                        q.schedule_for(now + Cycles::new(1), node, step);
                    } else {
                        q.note_barrier_arrival(now);
                    }
                }
                PhaseEv::Release { generation } => {
                    s.last.fill(now);
                    if generation + 1 < PHASES {
                        for node in s.first..s.first + s.steps.len() {
                            let left = work(node);
                            q.schedule_wakeup(now, node, PhaseEv::Step { node, left });
                        }
                    }
                }
            }
        }
        fn release_event(generation: u64) -> PhaseEv {
            PhaseEv::Release { generation }
        }
        fn finish(&mut self, releases: u64) -> (Cycles, Report) {
            assert_eq!(releases, PHASES);
            let mut report = Report::new();
            report.push_count("steps", self.steps.iter().sum());
            let end = self.last.iter().copied().max().unwrap_or(Cycles::ZERO);
            (end, report)
        }
    }

    fn run_phased(shards: usize, threads: usize, policy: WindowPolicy) -> (Vec<u64>, RunResult) {
        let mut m = Phased {
            cfg: toy_config(PHASE_NODES, shards, threads, policy),
            steps: vec![0; PHASE_NODES],
            last: vec![Cycles::ZERO; PHASE_NODES],
        };
        let r = run(&mut m);
        (m.steps, r)
    }

    #[test]
    fn barrier_toy_is_identical_across_policies_and_threads() {
        let (seq_steps, seq) = run_phased(1, 1, WindowPolicy::Fixed);
        assert_eq!(
            seq_steps,
            vec![18, 93, 168, 243],
            "3 rounds of 5+25n+1 steps"
        );
        // Node 3's 81 steps span 80 cycles; each release follows the last
        // arrival by the barrier latency: 3 * (80 + 11).
        assert_eq!(seq.cycles, Cycles::new(3 * (80 + LATENCY)), "final release");
        for shards in [2, 4] {
            for policy in [WindowPolicy::Fixed, WindowPolicy::Adaptive] {
                for threads in [1, 2, 3, shards] {
                    let (steps, r) = run_phased(shards, threads, policy);
                    assert_eq!(
                        (steps, r.cycles, r.report),
                        (seq_steps.clone(), seq.cycles, seq.report.clone()),
                        "diverged at {shards} shards, {policy:?}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_windows_elide_rendezvous_on_skewed_barrier_phases() {
        let fixed = run_phased(4, 4, WindowPolicy::Fixed)
            .1
            .pdes
            .expect("windowed");
        let adaptive = run_phased(4, 4, WindowPolicy::Adaptive)
            .1
            .pdes
            .expect("windowed");
        assert!(
            adaptive.windows < fixed.windows,
            "adaptive must batch idle windows: {adaptive:?} vs {fixed:?}"
        );
        assert!(
            adaptive.rendezvous < fixed.rendezvous,
            "adaptive must rendezvous less: {adaptive:?} vs {fixed:?}"
        );
        assert_eq!(adaptive.releases, PHASES);
        assert_eq!(
            adaptive.events, fixed.events,
            "same simulation, same events"
        );
    }
}
