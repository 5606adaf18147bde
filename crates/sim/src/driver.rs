//! The one machine driver: every simulation run, plain or observed,
//! goes through here.
//!
//! A machine describes itself through [`Machine`]: its event type, each
//! event's target node, and the handlers. The driver owns everything
//! else:
//!
//! - building the event queue (tie-shuffle salt, barrier release);
//! - the sequential loop, and the observed loop that calls back after
//!   every event;
//! - declaring each event's target node as the origin of what its
//!   handler schedules (the deterministic key scheme's anchor).
//!
//! The per-event path is monomorphised: `handle` and `target` are
//! methods on the concrete machine type, called through no `dyn` and no
//! per-event allocation.

use tt_base::config::BARRIER_LATENCY;
use tt_base::stats::{PdesTelemetry, Report};
use tt_base::{Cycles, SystemConfig};

use crate::EventQueue;

/// The result of a completed simulation.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total execution time (when the last processor finished).
    pub cycles: Cycles,
    /// Aggregated machine, network, and protocol statistics.
    pub report: Report,
    /// Always `None`: every run is sequential. Kept only so the
    /// benchmark in `perfbench/` builds until its parallel-simulator
    /// workload is retired.
    pub pdes: Option<PdesTelemetry>,
}

/// What a simulated machine supplies to the driver.
pub trait Machine {
    /// The machine's event type.
    type Event;

    /// The machine's configuration (node count, timing, simulator knobs).
    fn config(&self) -> &SystemConfig;

    /// Seed for same-cycle tie-shuffling, if the caller asked for it.
    fn tie_shuffle(&self) -> Option<u64>;

    /// The node whose state handling `event` touches, or `None` for a
    /// machine-global event (the barrier release).
    fn target(&self, event: &Self::Event) -> Option<usize>;

    /// Seeds the queue at time zero. The machine must declare each node
    /// as the origin ([`EventQueue::set_origin`]) before scheduling on
    /// its behalf.
    fn init(&mut self, queue: &mut EventQueue<Self::Event>);

    /// Handles one event at `now`. The driver has already declared the
    /// event's target as the origin of what the handler schedules.
    fn handle(&mut self, now: Cycles, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// The event releasing barrier generation `generation`.
    fn release_event(generation: u64) -> Self::Event;

    /// Checks the machine drained cleanly (no processor left blocked)
    /// and returns the total execution time and the report, given the
    /// number of barrier releases the run applied.
    fn finish(&mut self, releases: u64) -> (Cycles, Report);
}

/// Runs `machine` to completion on the sequential event loop.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// `SystemConfig::validate`), or on whatever the machine's handlers and
/// [`Machine::finish`] assert.
pub fn run<M: Machine>(machine: &mut M) -> RunResult {
    let mut queue = start(machine);
    while let Some((now, event)) = queue.pop() {
        dispatch(machine, now, event, &mut queue);
    }
    finish(machine, &queue)
}

/// Like [`run`], but calls `observe` after every event with the event
/// just handled and the machine's post-event state. Handlers are
/// atomic, so at each callback the machine is in a consistent state.
/// Cycles are identical to [`run`]'s.
pub fn run_observed<M: Machine>(
    machine: &mut M,
    mut observe: impl FnMut(Cycles, &M::Event, &M),
) -> RunResult
where
    M::Event: Clone,
{
    let mut queue = start(machine);
    while let Some((now, event)) = queue.pop() {
        let observed = event.clone();
        dispatch(machine, now, event, &mut queue);
        observe(now, &observed, machine);
    }
    finish(machine, &queue)
}

/// Validates the configuration, builds the queue (salted if the machine
/// asked for tie-shuffling) and lets the machine seed it.
fn start<M: Machine>(machine: &mut M) -> EventQueue<M::Event> {
    let cfg = machine.config();
    if let Err(reason) = cfg.validate() {
        panic!("invalid configuration: {reason}");
    }
    let mut queue = EventQueue::new(cfg.nodes, BARRIER_LATENCY, M::release_event);
    if let Some(seed) = machine.tie_shuffle() {
        queue.enable_tie_shuffle(seed);
    }
    machine.init(&mut queue);
    queue
}

/// Declares the event's target as the origin of everything its handler
/// schedules, then handles it.
#[inline]
fn dispatch<M: Machine>(
    machine: &mut M,
    now: Cycles,
    event: M::Event,
    queue: &mut EventQueue<M::Event>,
) {
    match machine.target(&event) {
        Some(node) => queue.set_origin(node),
        None => queue.set_origin_global(),
    }
    machine.handle(now, event, queue);
}

fn finish<M: Machine>(machine: &mut M, queue: &EventQueue<M::Event>) -> RunResult {
    let (cycles, report) = machine.finish(queue.releases());
    RunResult {
        cycles,
        report,
        pdes: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The barrier latency (the default `SystemConfig` network latency).
    const LATENCY: u64 = BARRIER_LATENCY.raw();

    /// A token ring: each node repeatedly passes a token to the next
    /// node with a fixed latency and bumps a per-node counter.
    #[derive(Clone, Debug)]
    struct Token {
        to: usize,
        hops_left: u32,
    }

    struct Ring {
        cfg: SystemConfig,
        counts: Vec<u64>,
        last: Vec<Cycles>,
    }

    impl Ring {
        fn new(nodes: usize) -> Self {
            Ring {
                cfg: SystemConfig {
                    nodes,
                    ..SystemConfig::default()
                },
                counts: vec![0; nodes],
                last: vec![Cycles::ZERO; nodes],
            }
        }
    }

    impl Machine for Ring {
        type Event = Token;

        fn config(&self) -> &SystemConfig {
            &self.cfg
        }
        fn tie_shuffle(&self) -> Option<u64> {
            None
        }
        fn target(&self, ev: &Token) -> Option<usize> {
            Some(ev.to)
        }
        fn init(&mut self, q: &mut EventQueue<Token>) {
            for n in 0..self.cfg.nodes {
                q.set_origin(n);
                q.schedule(
                    Cycles::ZERO,
                    Token {
                        to: n,
                        hops_left: 40,
                    },
                );
            }
        }
        fn handle(&mut self, now: Cycles, ev: Token, q: &mut EventQueue<Token>) {
            self.counts[ev.to] += 1;
            self.last[ev.to] = now;
            if ev.hops_left > 0 {
                let token = Token {
                    to: (ev.to + 1) % self.cfg.nodes,
                    hops_left: ev.hops_left - 1,
                };
                q.schedule(now + Cycles::new(LATENCY), token);
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

    #[test]
    fn observed_run_sees_every_event_at_its_boundary() {
        let mut ring = Ring::new(8);
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
        let mut plain = Ring::new(8);
        let p = run(&mut plain);
        assert_eq!((ring.counts, r.cycles), (plain.counts, p.cycles));
        assert_eq!(seen, 8 * 41);
        assert_eq!(p.cycles, Cycles::new(40 * LATENCY));
    }

    #[test]
    #[should_panic(expected = "invalid configuration: nodes must be between 1 and 65535, got 0")]
    fn zero_nodes_are_rejected() {
        run(&mut Ring::new(0));
    }

    #[test]
    #[should_panic(
        expected = "invalid configuration: fat-tree arity must be 0 (derived) or at least 2"
    )]
    fn unary_fat_trees_are_rejected() {
        let mut ring = Ring::new(8);
        ring.cfg.topology = tt_base::Topology::FatTree { arity: 1 };
        run(&mut ring);
    }

    /// A barrier-phase toy: node `n` performs `5 + 25 * n` unit-latency
    /// local steps, parks at the barrier, and resumes on the release —
    /// for `PHASES` generations.
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

    impl Machine for Phased {
        type Event = PhaseEv;

        fn config(&self) -> &SystemConfig {
            &self.cfg
        }
        fn tie_shuffle(&self) -> Option<u64> {
            None
        }
        fn target(&self, ev: &PhaseEv) -> Option<usize> {
            match ev {
                PhaseEv::Step { node, .. } => Some(*node),
                PhaseEv::Release { .. } => None,
            }
        }
        fn init(&mut self, q: &mut EventQueue<PhaseEv>) {
            for node in 0..PHASE_NODES {
                q.set_origin(node);
                let left = work(node);
                q.schedule(Cycles::ZERO, PhaseEv::Step { node, left });
            }
        }
        fn handle(&mut self, now: Cycles, ev: PhaseEv, q: &mut EventQueue<PhaseEv>) {
            match ev {
                PhaseEv::Step { node, left } => {
                    self.steps[node] += 1;
                    self.last[node] = now;
                    if left > 0 {
                        let step = PhaseEv::Step {
                            node,
                            left: left - 1,
                        };
                        q.schedule(now + Cycles::new(1), step);
                    } else {
                        q.note_barrier_arrival(now);
                    }
                }
                PhaseEv::Release { generation } => {
                    self.last.fill(now);
                    if generation + 1 < PHASES {
                        for node in 0..PHASE_NODES {
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

    #[test]
    fn barrier_phases_release_after_the_last_arrival() {
        let mut m = Phased {
            cfg: SystemConfig {
                nodes: PHASE_NODES,
                ..SystemConfig::default()
            },
            steps: vec![0; PHASE_NODES],
            last: vec![Cycles::ZERO; PHASE_NODES],
        };
        let r = run(&mut m);
        assert_eq!(m.steps, vec![18, 93, 168, 243], "3 rounds of 5+25n+1 steps");
        // Node 3's 81 steps span 80 cycles; each release follows the last
        // arrival by the barrier latency: 3 * (80 + 11).
        assert_eq!(r.cycles, Cycles::new(3 * (80 + LATENCY)), "final release");
        assert_eq!(r.report.get("steps"), Some(522.0));
    }
}
