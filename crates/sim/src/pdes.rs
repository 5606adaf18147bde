//! Conservative parallel discrete-event simulation (PDES).
//!
//! This module parallelizes **one** simulation run across OS threads
//! using the Wisconsin Wind Tunnel's quantum scheme, while producing
//! results bit-identical to the sequential run:
//!
//! - The machine's nodes are partitioned into contiguous *shards*, each
//!   owning a [`ShardQueue`] — a private event queue plus an outbox
//!   for events targeting nodes another shard owns.
//! - Every cross-node interaction costs at least the network's minimum
//!   one-way latency, the *lookahead* `L`. Shards therefore advance in
//!   lockstep windows `[T, T + Q)` with `Q ≤ L`: an event a shard
//!   executes inside the window can only schedule onto a foreign shard
//!   at `≥ T + L ≥` the window end, so within a window the shards are
//!   causally independent and may run concurrently.
//! - At each window boundary the outboxes are exchanged. Cross-shard
//!   events are inserted into the target's queue under the *key* they
//!   were scheduled with, not an insertion-order sequence number, so the
//!   late merge lands them at exactly the position the sequential heap
//!   would have given them.
//!
//! # Deterministic keys
//!
//! The sequential queue's FIFO tie-break (a global monotonic counter)
//! is meaningless across shards: each shard pops independently, so "who
//! scheduled first this window" is a race. Instead every event carries a
//! key packed from its *origin* — the node whose handler scheduled it,
//! or [`GLOBAL_ORIGIN`] for machine-global bookkeeping such as barrier
//! releases — and a per-origin counter:
//!
//! ```text
//! key = origin_id << 32 | counter      (origin_id = node + 1, 0 = global)
//! ```
//!
//! A node's handler sequence is deterministic (it is the projection of
//! the deterministic simulation onto that node), so its counter values
//! are independent of the thread count, and the total order
//! `(time, origin_id, counter)` is the same whether the simulation ran
//! on one thread or sixteen. Same-cycle events from different origins
//! are ordered by origin id — fixed and shard-independent — and global
//! events (`origin_id = 0`) sort ahead of every node's, which puts
//! barrier releases before same-cycle node work in both modes.
//!
//! # Barriers
//!
//! The machines' global barrier is the one interaction that is not
//! node-to-node. Shards record arrivals locally
//! ([`ShardQueue::note_barrier_arrival`]); the window driver aggregates
//! them at boundaries and, once every participant has arrived, releases
//! at `t_r = max_arrival + release_delay` by invoking the machine's
//! release hook on each shard for its own nodes. Windows are clamped so
//! no shard runs past `t_r` before the release is applied, and the
//! window quantum is `Q = min(lookahead, release_delay)`: the last
//! arrival happens inside a window `[T, T + Q)` that is discovered at
//! `T + Q`, and `t_r = max_arrival + release_delay ≥ T + Q`, so the
//! release is never scheduled into a shard's past.
//!
//! In single-shard mode (the inline barrier) the one shard owns every
//! node, so `note_barrier_arrival` completes the barrier inline and
//! schedules the release event itself — no windows, no worker threads,
//! no per-boundary overhead. That path *is* the sequential simulator,
//! and the equivalence the whole scheme is tested against.
//!
//! # Adaptive windows
//!
//! The fixed policy rendezvouses every `Q = min(lookahead,
//! release_delay)` cycles even when the shards have nothing to say to
//! each other. Under [`WindowPolicy::Adaptive`] the leader instead
//! grants each shard its own window end — the earliest time anything
//! *foreign* could still reach it:
//!
//! - **Cross-shard traffic.** Every cross-shard event departs at
//!   `≥ sender_now + lookahead` (asserted in
//!   [`ShardQueue::schedule_for`]), and a sender only pops events at or
//!   after its published head `h_B`, so nothing from shard `B` can land
//!   on `A` before `h_B + lookahead`. Shard `A` may therefore run to
//!   `min over B≠A of h_B + lookahead` — unbounded if no other shard has
//!   pending work. In-flight inbox messages count toward their target's
//!   head. Window boundaries only ever *withhold* already-merged events;
//!   the deterministic `(time, origin, counter)` keys order them, so
//!   where the boundaries fall cannot change the delivery order — only
//!   wall-clock.
//! - **Echoes.** The leader prices foreign shards by their heads *at
//!   the rendezvous*, but a message `A` emits mid-window can wake a
//!   shard the leader saw as idle, and its reply — earliest `t +
//!   lookahead` for a message departing at `t` — would land in `A`'s
//!   past if `A` kept running under a wide bound. So the queue clamps
//!   its own window to `t + lookahead` at the moment of each cross-shard
//!   send: pops already made precede `t`, pops after stay below the
//!   earliest echo, and any longer relay (`A → B → C → A`) is later
//!   still. From the next rendezvous on, the message sits in an inbox
//!   and is priced into its target's head as usual.
//! - **Barrier releases.** A release fires at `t_r = last_arrival +
//!   release_delay`, which is unknown while shards still owe arrivals.
//!   Three bounds keep every pop below `t_r`: (1) a shard whose nodes
//!   are all parked at the barrier is clamped to `release_lb +
//!   release_delay`, where `release_lb` — the max of the arrivals so far
//!   and each owing shard's head — lower-bounds the last arrival; (2) a
//!   shard that still owes an arrival needs no leader clamp, because its
//!   pops precede its own arrival, which precedes `t_r` (every node
//!   participates in every generation); (3) the queue itself clamps its
//!   window to `arrival + release_delay` the moment the arrival parking
//!   its *last* node is recorded mid-window
//!   ([`ShardQueue::note_barrier_arrival`]), so a wide window cannot
//!   outrun a release its own final arrival completes. Earlier arrivals
//!   need no clamp: the pops that follow them precede the shard's own
//!   next arrival (a later pop in the same time-ordered stream), which
//!   precedes the release.
//!
//! Every adaptive end is `max`ed with the fixed end, so adaptive rounds
//! make at least the fixed policy's progress and the decision loop
//! terminates identically. Cycle tables are bit-identical under either
//! policy — pinned by the machine equivalence tests and the `tt-check`
//! fuzzer's window-policy dimension.
//!
//! # Rendezvous
//!
//! Rounds are short — a few microseconds of event work per shard on
//! the 256-node workloads — so the boundary itself must be cheap. Each
//! round crosses one rendezvous: a worker acts its shards out,
//! publishes their heads, and arrives; the *last* arrival runs the
//! leader's decision for the next round (so it runs exactly once, after
//! every publish) and bumps a generation counter that releases the
//! others with the decision. Waiters spin on the counter for a bounded
//! budget and only then park on a condition variable; the releaser
//! notifies only if a sleeper registered, and the `SeqCst` pairing of
//! "register, then recheck" against "bump, then read sleepers" makes
//! that skip safe (see `Rendezvous`). A round in which nobody parks
//! costs no lock beyond the decision read and no futex call — where a
//! `std::sync::Barrier` crossed twice per round, with a futex sleep and
//! wake at each crossing.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use tt_base::stats::PdesTelemetry;
use tt_base::{Cycles, WindowPolicy};

use crate::EventQueue;

/// Window end meaning "unbounded": no foreign event or release can
/// reach the shard, so it may drain everything it has. Only ever
/// compared against, never added to.
const UNBOUNDED: Cycles = Cycles::new(u64::MAX);

/// Origin id of machine-global scheduling (barrier bookkeeping). Sorts
/// ahead of every node origin at the same cycle.
pub const GLOBAL_ORIGIN: u64 = 0;

/// Bits of the key holding the per-origin counter.
const COUNTER_BITS: u32 = 32;

/// Packs an origin id and counter into an event key.
#[inline]
fn pack_key(origin_id: u64, counter: u64) -> u64 {
    debug_assert!(origin_id < 1 << 16, "origin id overflows 16 bits");
    debug_assert!(counter < 1 << COUNTER_BITS, "origin counter overflows");
    (origin_id << COUNTER_BITS) | counter
}

/// A cross-shard event captured in a shard's outbox, to be merged into
/// the owning shard's queue at the next window boundary.
#[derive(Clone, Debug)]
pub(crate) struct OutMsg<E> {
    /// Absolute delivery time (≥ the window end, by the lookahead bound).
    time: Cycles,
    /// The deterministic key assigned at scheduling time.
    key: u64,
    /// Node the event targets; identifies the owning shard.
    target: usize,
    /// The event itself.
    event: E,
}

/// Inline (single-shard) barrier bookkeeping.
#[derive(Clone, Debug)]
struct InlineBarrier<E> {
    expected: usize,
    delay: Cycles,
    arrived: usize,
    max_arrival: Cycles,
    /// Builds the release event for a generation.
    release: fn(u64) -> E,
}

/// Windowed-mode context the driver installs on each queue: the shard's
/// index and the latency bounds the lookahead contract is checked
/// against.
#[derive(Clone, Copy, Debug)]
struct WinCtx {
    index: usize,
    lookahead: Cycles,
    release_delay: Cycles,
}

/// One shard's event queue: a private time-ordered queue over the
/// shard's contiguous node range, an outbox for foreign-node events, and
/// the per-origin counters that make event keys deterministic. Machines
/// schedule through [`ShardQueue::schedule_for`] and
/// [`ShardQueue::schedule_wakeup`]; the driver sets the active origin
/// before each handler runs.
#[derive(Debug)]
pub struct ShardQueue<E> {
    queue: EventQueue<E>,
    outbox: Vec<OutMsg<E>>,
    first_node: usize,
    node_count: usize,
    /// Per-origin scheduling counters for the local nodes.
    counters: Vec<u64>,
    /// Global-origin keys issued; only barrier releases consume them, so
    /// this is also the number of releases scheduled on this shard.
    global_counter: u64,
    /// Origin for keys of subsequently scheduled events. `None` = global.
    origin: Option<usize>,
    /// Exclusive end of the current window; `None` outside window mode.
    window_end: Option<Cycles>,
    /// Barrier arrivals not yet drained by the window driver.
    arrivals: Vec<Cycles>,
    /// Nodes of this shard currently parked at the barrier (windowed
    /// mode; cleared when the release is delivered).
    waiting: usize,
    /// Windowed-mode context, installed by [`run_windows`].
    win: Option<WinCtx>,
    inline_barrier: Option<InlineBarrier<E>>,
}

impl<E> ShardQueue<E> {
    /// A queue for the shard owning nodes `first_node .. first_node + node_count`.
    pub fn new(first_node: usize, node_count: usize) -> Self {
        ShardQueue {
            queue: EventQueue::new(),
            outbox: Vec::new(),
            first_node,
            node_count,
            counters: vec![0; node_count],
            global_counter: 0,
            origin: None,
            window_end: None,
            arrivals: Vec::new(),
            waiting: 0,
            win: None,
            inline_barrier: None,
        }
    }

    /// Delivers same-cycle events in a seed-dependent permutation
    /// instead of key order. The salt is a pure hash of the
    /// deterministic key, so the shuffled schedule is identical at every
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending.
    pub(crate) fn enable_tie_shuffle(&mut self, seed: u64) {
        self.queue.enable_tie_shuffle(seed);
    }

    /// Switches the barrier to inline mode: this shard owns every node,
    /// so the `expected`-th arrival completes the barrier locally and
    /// [`ShardQueue::note_barrier_arrival`] schedules `release(generation)`
    /// at `max_arrival + delay`. Single-shard (sequential) runs use
    /// this; window-driven runs leave it off and let the driver
    /// aggregate.
    pub(crate) fn enable_inline_barrier(
        &mut self,
        expected: usize,
        delay: Cycles,
        release: fn(u64) -> E,
    ) {
        self.inline_barrier = Some(InlineBarrier {
            expected,
            delay,
            arrived: 0,
            max_arrival: Cycles::ZERO,
            release,
        });
    }

    /// Whether `node` belongs to this shard.
    #[inline]
    pub fn owns(&self, node: usize) -> bool {
        (self.first_node..self.first_node + self.node_count).contains(&node)
    }

    /// Current simulated time of this shard (last popped event).
    #[inline]
    pub fn now(&self) -> Cycles {
        self.queue.now()
    }

    /// Timestamp of the earliest pending local event.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        self.queue.peek_time()
    }

    /// Whether no local events are pending (the outbox may be non-empty).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Exclusive end of the current window, if running windowed. The
    /// machines' direct-execution guard must keep a CPU's inline run
    /// strictly below this bound.
    #[inline]
    pub fn window_end(&self) -> Option<Cycles> {
        self.window_end
    }

    fn set_window_end(&mut self, end: Option<Cycles>) {
        self.window_end = end;
    }

    /// Installs the windowed-mode context: shard index (for
    /// diagnostics) and the latency bounds. Arms the lookahead-contract
    /// assertion in [`ShardQueue::schedule_for`] and the arrival-side
    /// window clamp in [`ShardQueue::note_barrier_arrival`].
    fn configure_windowing(&mut self, index: usize, lookahead: Cycles, release_delay: Cycles) {
        self.win = Some(WinCtx {
            index,
            lookahead,
            release_delay,
        });
    }

    /// Nodes of this shard currently parked at the barrier (windowed
    /// mode only; inline mode resets its own tally).
    fn waiting(&self) -> usize {
        self.waiting
    }

    /// Declares `node` the origin of subsequently scheduled events. The
    /// dispatch loop calls this with the handling node before each
    /// event; handlers themselves never need to.
    #[inline]
    pub fn set_origin(&mut self, node: usize) {
        debug_assert!(self.owns(node), "origin {node} outside shard");
        self.origin = Some(node);
    }

    /// Declares subsequent scheduling machine-global ([`GLOBAL_ORIGIN`]).
    #[inline]
    pub(crate) fn set_origin_global(&mut self) {
        self.origin = None;
    }

    fn next_key(&mut self) -> u64 {
        match self.origin {
            Some(node) => {
                // Counters start at 1: counter 0 is the reserved wakeup
                // key (`schedule_wakeup`).
                let c = &mut self.counters[node - self.first_node];
                *c += 1;
                pack_key(node as u64 + 1, *c)
            }
            None => {
                self.global_counter += 1;
                pack_key(GLOBAL_ORIGIN, self.global_counter)
            }
        }
    }

    /// Schedules `event` at `t` for `target`'s shard: locally if this
    /// shard owns the target, otherwise into the outbox for the merge at
    /// the window boundary.
    ///
    /// # Panics
    ///
    /// In windowed mode, panics if a cross-shard event is scheduled
    /// closer than the declared lookahead — the one way the
    /// conservative scheme can be unsound. (This is the contract the
    /// window leader's per-shard bounds rely on, and it is strictly
    /// stronger than "lands past the window end": fixed windows end at
    /// or before `now + lookahead`, and adaptive windows may end later.)
    pub fn schedule_for(&mut self, t: Cycles, target: usize, event: E) {
        let key = self.next_key();
        if self.owns(target) {
            self.queue.schedule(t, key, event);
        } else {
            if let Some(win) = self.win {
                let now = self.queue.now();
                assert!(
                    t >= now + win.lookahead,
                    "cross-shard event from shard {} (nodes {}..{}, origin {:?}) to \
                     node {target} at t={t:?} with now={now:?}, lookahead={:?}: \
                     interaction faster than the lookahead bound \
                     (window ending {:?})",
                    win.index,
                    self.first_node,
                    self.first_node + self.node_count,
                    self.origin,
                    win.lookahead,
                    self.window_end,
                );
                // Echo clamp: this message can wake its target — even a
                // shard the leader saw as idle — whose earliest causal
                // reply is one more lookahead hop away, at `t +
                // lookahead`. Clamp our own window there so a widened
                // bound can never outrun the echo. (Pops already made
                // this round precede `t`, so the clamp is not late; a
                // no-op under fixed windows, which end at or before
                // `now + lookahead ≤ t + lookahead`.)
                if let Some(end) = self.window_end {
                    self.window_end = Some(end.min(t + win.lookahead));
                }
            }
            self.outbox.push(OutMsg {
                time: t,
                key,
                target,
                event,
            });
        }
    }

    /// Schedules a machine-global `event` (no single target node) into
    /// the local queue, keyed from the dedicated global counter — never
    /// from a node's origin counter, so scheduling a global event leaves
    /// every per-node key stream untouched. Only meaningful in
    /// single-shard mode, where "global" and "local" coincide; windowed
    /// runs mirror the same keys through
    /// [`ShardQueue::deliver_release`].
    fn schedule_global(&mut self, t: Cycles, event: E) {
        debug_assert!(
            self.inline_barrier.is_some(),
            "global events are driver business in windowed mode"
        );
        self.global_counter += 1;
        let key = pack_key(GLOBAL_ORIGIN, self.global_counter);
        self.queue.schedule(t, key, event);
    }

    /// Barrier releases scheduled on this shard so far. Every shard sees
    /// every release, so after a run all shards agree on this count.
    pub fn releases(&self) -> u64 {
        self.global_counter
    }

    /// Schedules node `node`'s own wakeup under its *reserved* key
    /// (origin `node`, counter 0). The machines' CPU self-rescheduling
    /// is the one event the direct-execution optimization may elide;
    /// giving it a key outside the counter stream keeps every other
    /// event's key — and therefore the tie-shuffled order — independent
    /// of whether the wakeup was scheduled or elided. Sound because at
    /// most one such wakeup per node is ever pending (the machines'
    /// `step_pending` flag).
    pub fn schedule_wakeup(&mut self, t: Cycles, node: usize, event: E) {
        debug_assert!(self.owns(node), "wakeup for a foreign node");
        let key = pack_key(node as u64 + 1, 0);
        self.queue.schedule(t, key, event);
    }

    /// Pops the earliest local event strictly inside the current window
    /// (or any pending event when not windowed).
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        if let (Some(t), Some(end)) = (self.queue.peek_time(), self.window_end) {
            if t >= end {
                return None;
            }
        }
        self.queue.pop()
    }

    /// Records a barrier arrival at `at`. In inline mode, the arrival
    /// completing the barrier schedules the release event at
    /// `max_arrival + delay` (and resets for the next generation); in
    /// windowed mode the driver aggregates arrivals across shards at
    /// window boundaries and delivers the release itself.
    pub fn note_barrier_arrival(&mut self, at: Cycles) {
        match &mut self.inline_barrier {
            Some(b) => {
                b.arrived += 1;
                b.max_arrival = b.max_arrival.max(at);
                if b.arrived == b.expected {
                    b.arrived = 0;
                    let release_at = b.max_arrival + b.delay;
                    b.max_arrival = Cycles::ZERO;
                    let event = (b.release)(self.global_counter);
                    self.schedule_global(release_at, event);
                }
            }
            None => {
                self.arrivals.push(at);
                self.waiting += 1;
                // Once the shard's *last* node parks, the release
                // completing this generation fires at `last_arrival +
                // release_delay ≥ at + release_delay`; clamp the window
                // so a wide (adaptive) bound cannot run past it. Earlier
                // arrivals need no clamp: every pop that follows them
                // precedes the shard's own next arrival, which precedes
                // the release. A no-op under fixed windows, whose ends
                // never exceed `global_min + quantum ≤ at + delay`.
                if self.waiting == self.node_count {
                    if let (Some(end), Some(win)) = (self.window_end, self.win) {
                        self.window_end = Some(end.min(at + win.release_delay));
                    }
                }
            }
        }
    }

    /// Inserts a cross-shard event under its original key. The insertion
    /// time is irrelevant to ordering: the key places it exactly where
    /// the sequential heap would have.
    fn deliver(&mut self, msg: OutMsg<E>) {
        debug_assert!(self.owns(msg.target), "delivery to a foreign shard");
        self.queue.schedule(msg.time, msg.key, msg.event);
    }

    /// Inserts the windowed-mode barrier-release event under the exact
    /// global key the sequential path's [`ShardQueue::schedule_global`]
    /// would have assigned (`generation + 1`, since the global counter
    /// is consumed only by releases), so the salted (tie-shuffled) order
    /// at the release cycle is identical at every shard count.
    pub(crate) fn deliver_release(&mut self, t: Cycles, generation: u64, event: E) {
        debug_assert!(
            self.inline_barrier.is_none(),
            "inline mode schedules its own release"
        );
        self.global_counter += 1;
        debug_assert_eq!(
            self.global_counter,
            generation + 1,
            "release keys must mirror the sequential global counter"
        );
        let key = pack_key(GLOBAL_ORIGIN, self.global_counter);
        self.queue.schedule(t, key, event);
        self.waiting = 0;
    }

    /// Drains the accumulated cross-shard events.
    fn take_outbox(&mut self) -> Vec<OutMsg<E>> {
        std::mem::take(&mut self.outbox)
    }

    fn take_arrivals(&mut self) -> Vec<Cycles> {
        std::mem::take(&mut self.arrivals)
    }
}

/// Window-driver parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Windowing {
    /// Minimum cross-node interaction latency (the WWT lookahead).
    pub(crate) lookahead: Cycles,
    /// Barrier release latency: release fires at `max_arrival + release_delay`.
    pub(crate) release_delay: Cycles,
    /// Number of barrier participants (arrivals per generation). The
    /// adaptive policy's owing-shard reasoning requires every node to
    /// participate in every generation, which both machines guarantee
    /// (their release asserts each node is at the barrier); `0` means
    /// "no barrier at all" and disables the release bounds entirely.
    pub(crate) barrier_expected: usize,
    /// Window-advance policy (see the module docs).
    pub(crate) policy: WindowPolicy,
    /// OS threads to spread the shards over (clamped to `1..=shards`).
    /// Fewer threads than shards makes each worker multiplex a
    /// contiguous group of shards per round.
    pub(crate) threads: usize,
}

/// What every worker does next, decided by the window leader.
#[derive(Clone, Copy, Debug)]
enum Decision {
    /// All queues and inboxes are empty and no release is pending.
    Stop,
    /// Apply the barrier release at `at` to each shard's own nodes.
    Release { at: Cycles, generation: u64 },
    /// Run events with `time < ends[shard]` (per-shard bounds published
    /// in [`Shared::ends`]).
    Window,
}

/// Spin iterations a rendezvous waiter makes before it parks. A round
/// of the window driver carries a few microseconds of event work per
/// shard, so a waiter usually waits out only its peers' imbalance,
/// itself a few microseconds; a futex park plus the wake-up costs a
/// parked crossing ~15 µs on a virtualised host. 4096 `spin_loop`
/// hints last ~55 µs on a 2-vCPU Xeon VM at ~14 ns per hint (longer on
/// cores with a slower pause): several times a park, so nearly every
/// round ends inside the spin, yet short enough that a waiter behind a
/// peer stuck in a long window or release stops burning its core
/// within tens of microseconds.
const SPIN_BUDGET: u32 = 1 << 12;

/// A reusable single-crossing rendezvous for `parties` threads. The
/// last thread to arrive runs the round's leader action and publishes
/// its result; every other thread spins on the generation counter for
/// [`SPIN_BUDGET`] hints, then parks on a condition variable.
///
/// Sleeper/notify ordering: a parking waiter, holding `value`'s lock,
/// registers in `sleepers` and then rechecks `generation`; the releaser
/// bumps `generation` and then reads `sleepers`, all four accesses
/// `SeqCst`. In their single total order either the registration
/// precedes the releaser's read — the releaser then sees the sleeper
/// and takes the lock to notify, which it can only get once the waiter
/// is inside `Condvar::wait` — or the read precedes the registration,
/// and then the bump precedes the waiter's recheck, which sees the new
/// generation and never sleeps. No wake-up is lost, and a round with no
/// sleeper costs the releaser no notify and no syscall.
struct Rendezvous<T> {
    parties: usize,
    /// Spin budget: [`SPIN_BUDGET`], or 0 when the parties outnumber
    /// the host's cores and a spinning waiter would only delay the
    /// peers it waits for.
    spin: u32,
    /// Threads that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Completed rounds; a bump releases the waiters.
    generation: AtomicU64,
    /// Waiters parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    /// The leader action's result for the current generation; its lock
    /// is also the one parked waiters sleep under.
    value: Mutex<T>,
    wake: Condvar,
    /// Times any waiter parked (tests and tuning).
    parks: AtomicU64,
}

impl<T: Copy> Rendezvous<T> {
    fn new(parties: usize, initial: T) -> Self {
        assert!(parties > 0, "a rendezvous needs a party");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Rendezvous {
            parties,
            spin: if parties <= cores { SPIN_BUDGET } else { 0 },
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            value: Mutex::new(initial),
            wake: Condvar::new(),
            parks: AtomicU64::new(0),
        }
    }

    /// Arrives and waits for the other parties. The last to arrive runs
    /// `lead` — exactly once per round, after every party has arrived
    /// and before any leaves — and every party returns its result.
    fn wait(&self, lead: impl FnOnce() -> T) -> T {
        // Read before arriving: the generation cannot move until we do.
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // No one re-arrives before the bump below releases them.
            self.arrived.store(0, Ordering::Relaxed);
            let v = lead();
            *self.value.lock().expect("rendezvous lock") = v;
            self.generation.store(gen + 1, Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = self.value.lock().expect("rendezvous lock");
                self.wake.notify_all();
            }
            return v;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < self.spin {
                std::hint::spin_loop();
                spins += 1;
                continue;
            }
            let mut guard = self.value.lock().expect("rendezvous lock");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            self.parks.fetch_add(1, Ordering::Relaxed);
            while self.generation.load(Ordering::SeqCst) == gen {
                guard = self.wake.wait(guard).expect("rendezvous lock");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return *guard;
        }
        *self.value.lock().expect("rendezvous lock")
    }
}

/// Leader-maintained global state.
#[derive(Debug)]
struct DriverState {
    pending_release: Option<Cycles>,
    generation: u64,
    arrived: usize,
    max_arrival: Cycles,
    /// Telemetry: window rounds and leader decisions.
    windows: u64,
    rendezvous: u64,
    /// Per-shard heads and barrier occupancy gathered by [`decide`];
    /// kept across rounds so the leader allocates nothing per round.
    head: Vec<Option<Cycles>>,
    waiting: Vec<usize>,
}

/// Per-shard state published at the end of each act.
#[derive(Clone, Copy, Debug)]
struct ShardStatus {
    /// Earliest pending local event.
    head: Option<Cycles>,
    /// Nodes currently parked at the barrier.
    waiting: usize,
}

struct Shared<E> {
    rendezvous: Rendezvous<Decision>,
    /// Head + barrier occupancy per shard, published at the end of each act.
    status: Vec<Mutex<ShardStatus>>,
    /// Per-shard window ends for the current [`Decision::Window`] round.
    ends: Mutex<Vec<Cycles>>,
    /// Node count of every shard (for the owing-shard test).
    shard_nodes: Vec<usize>,
    /// Cross-shard events routed but not yet drained by their owner.
    inboxes: Vec<Mutex<Vec<OutMsg<E>>>>,
    /// Owning shard of every node.
    node_shard: Vec<usize>,
    state: Mutex<DriverState>,
    /// Telemetry: events dispatched inside windows / cross-shard
    /// messages routed at boundaries.
    events: AtomicU64,
    cross_messages: AtomicU64,
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Runs a sharded machine to completion under the conservative window
/// scheme across `cfg.threads` OS threads (fewer threads than shards
/// multiplex contiguous shard groups). Cross-shard events the
/// queues already hold (from the machine's init) are routed to their
/// owners first. `handle` dispatches one event on a shard (setting the
/// origin via [`ShardQueue::set_origin`] before the machine handler
/// runs); `release` applies a barrier release at the given time and
/// generation to the shard's own nodes.
///
/// Returns the run's [`PdesTelemetry`].
///
/// Panics raised by shard handlers are caught, the remaining workers
/// wound down at the next boundary, and the panic re-raised on the
/// calling thread — so a machine assertion behaves as it does
/// sequentially.
pub(crate) fn run_windows<E, S, H, R>(
    shards: &mut [S],
    queues: &mut [ShardQueue<E>],
    cfg: Windowing,
    handle: H,
    release: R,
) -> PdesTelemetry
where
    E: Send,
    S: Send,
    H: Fn(&mut S, Cycles, E, &mut ShardQueue<E>) + Sync,
    R: Fn(&mut S, &mut ShardQueue<E>, Cycles, u64) + Sync,
{
    let n_shards = shards.len();
    assert_eq!(n_shards, queues.len());
    assert!(n_shards > 0, "at least one shard");
    assert!(cfg.lookahead > Cycles::ZERO, "lookahead must be positive");
    assert!(cfg.release_delay > Cycles::ZERO, "release delay must be positive");
    let threads = cfg.threads.clamp(1, n_shards);
    // A pending release may clamp any window; it must never land before
    // a window the shards have already executed.
    let quantum = cfg.lookahead.min(cfg.release_delay);

    let nodes = queues
        .iter()
        .map(|q| q.first_node + q.node_count)
        .max()
        .expect("non-empty");
    let mut node_shard = vec![usize::MAX; nodes];
    for (i, q) in queues.iter_mut().enumerate() {
        node_shard[q.first_node..q.first_node + q.node_count].fill(i);
        q.configure_windowing(i, cfg.lookahead, cfg.release_delay);
    }
    assert!(
        node_shard.iter().all(|&s| s != usize::MAX),
        "shards must cover all nodes"
    );
    // Set-up scheduling (protocol init) may have produced cross-shard
    // events. All are at or past the lookahead, so none can land inside
    // the first window.
    for i in 0..n_shards {
        for msg in queues[i].take_outbox() {
            queues[node_shard[msg.target]].deliver(msg);
        }
    }

    let shared = Shared {
        rendezvous: Rendezvous::new(threads, Decision::Stop),
        status: queues
            .iter()
            .map(|q| {
                Mutex::new(ShardStatus {
                    head: q.peek_time(),
                    waiting: q.waiting(),
                })
            })
            .collect(),
        ends: Mutex::new(vec![Cycles::ZERO; n_shards]),
        shard_nodes: queues.iter().map(|q| q.node_count).collect(),
        inboxes: (0..n_shards).map(|_| Mutex::new(Vec::new())).collect(),
        node_shard,
        state: Mutex::new(DriverState {
            pending_release: None,
            generation: 0,
            arrived: 0,
            max_arrival: Cycles::ZERO,
            windows: 0,
            rendezvous: 0,
            head: Vec::with_capacity(n_shards),
            waiting: Vec::with_capacity(n_shards),
        }),
        events: AtomicU64::new(0),
        cross_messages: AtomicU64::new(0),
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
    };

    std::thread::scope(|scope| {
        // Deal the shards into `threads` contiguous groups whose sizes
        // differ by at most one.
        let mut shards_rest: &mut [S] = shards;
        let mut queues_rest: &mut [ShardQueue<E>] = queues;
        let mut first = 0usize;
        for g in 0..threads {
            let size = n_shards / threads + usize::from(g < n_shards % threads);
            let (s_chunk, s_rest) =
                std::mem::take(&mut shards_rest).split_at_mut(size);
            let (q_chunk, q_rest) =
                std::mem::take(&mut queues_rest).split_at_mut(size);
            shards_rest = s_rest;
            queues_rest = q_rest;
            let shared = &shared;
            let handle = &handle;
            let release = &release;
            let base = first;
            scope.spawn(move || {
                worker(base, s_chunk, q_chunk, shared, cfg, quantum, handle, release)
            });
            first += size;
        }
    });

    if shared.panicked.load(Ordering::SeqCst) {
        let payload = shared
            .panic_payload
            .lock()
            .expect("payload lock")
            .take()
            .unwrap_or_else(|| Box::new("PDES worker panicked"));
        resume_unwind(payload);
    }

    let events = shared.events.load(Ordering::SeqCst);
    let cross_messages = shared.cross_messages.load(Ordering::SeqCst);
    let st = shared.state.into_inner().expect("state lock");
    PdesTelemetry {
        windows: st.windows,
        rendezvous: st.rendezvous,
        events,
        cross_messages,
        releases: st.generation,
    }
}

/// Leader step: read the published heads, inboxes, and barrier arrivals
/// and decide the next round. For [`Decision::Window`], the per-shard
/// window ends are written to [`Shared::ends`].
fn decide<E>(shared: &Shared<E>, cfg: Windowing, quantum: Cycles) -> Decision {
    if shared.panicked.load(Ordering::SeqCst) {
        return Decision::Stop;
    }
    let mut guard = shared.state.lock().expect("state lock");
    let st = &mut *guard;
    st.head.clear();
    st.waiting.clear();
    for status in &shared.status {
        let s = status.lock().expect("status lock");
        st.head.push(s.head);
        st.waiting.push(s.waiting);
    }
    // In-flight cross-shard messages bound their *target* shard exactly
    // like its pending local events.
    for (head, inbox) in st.head.iter_mut().zip(&shared.inboxes) {
        for msg in inbox.lock().expect("inbox lock").iter() {
            *head = Some(head.map_or(msg.time, |h| h.min(msg.time)));
        }
    }
    let global_min = st.head.iter().flatten().min().copied();

    st.rendezvous += 1;
    if st.pending_release.is_none() && st.arrived > 0 && st.arrived == cfg.barrier_expected {
        st.pending_release = Some(st.max_arrival + cfg.release_delay);
        st.arrived = 0;
        st.max_arrival = Cycles::ZERO;
    }
    match (global_min, st.pending_release) {
        (None, None) => Decision::Stop,
        (h, Some(at)) if h.is_none_or(|h| h >= at) => {
            st.pending_release = None;
            let generation = st.generation;
            st.generation += 1;
            Decision::Release { at, generation }
        }
        (Some(global_min), pending) => {
            st.windows += 1;
            let natural = global_min + quantum;
            let fixed_end = pending.map_or(natural, |at| natural.min(at));
            let mut ends = shared.ends.lock().expect("ends lock");
            match cfg.policy {
                WindowPolicy::Fixed => ends.fill(fixed_end),
                WindowPolicy::Adaptive => adaptive_ends(
                    &cfg,
                    &shared.shard_nodes,
                    st,
                    global_min,
                    pending,
                    fixed_end,
                    &mut ends,
                ),
            }
            Decision::Window
        }
        (None, Some(_)) => unreachable!("covered by the release arm"),
    }
}

/// Computes the adaptive per-shard window ends (see the module docs for
/// the soundness argument). Every end is at least `fixed_end`, so the
/// adaptive policy never makes less progress than the fixed one.
/// Reads the heads and barrier occupancy [`decide`] gathered into `st`.
fn adaptive_ends(
    cfg: &Windowing,
    shard_nodes: &[usize],
    st: &DriverState,
    global_min: Cycles,
    pending: Option<Cycles>,
    fixed_end: Cycles,
    ends: &mut [Cycles],
) {
    let (head, waiting) = (&st.head, &st.waiting);
    // Smallest and second-smallest heads, for min-excluding-self.
    let mut min1: Option<(Cycles, usize)> = None;
    let mut min2: Option<Cycles> = None;
    for (i, h) in head.iter().enumerate() {
        let Some(t) = *h else { continue };
        match min1 {
            None => min1 = Some((t, i)),
            Some((m, _)) if t < m => {
                min2 = Some(min2.map_or(m, |s| s.min(m)));
                min1 = Some((t, i));
            }
            Some(_) => min2 = Some(min2.map_or(t, |s| s.min(t))),
        }
    }
    let foreign_head = |i: usize| -> Option<Cycles> {
        match min1 {
            Some((m, j)) if j != i => Some(m),
            Some(_) => min2,
            None => None,
        }
    };
    // Lower bound on the arrival completing the current barrier
    // generation: each shard still owing one must yet produce an
    // arrival at or after its head (or after the global minimum, if its
    // future depends on in-flight replies), and arrivals already
    // recorded bound it from below too.
    let barrier = cfg.barrier_expected > 0;
    let mut any_owing = false;
    let mut release_lb = if st.arrived > 0 { st.max_arrival } else { Cycles::ZERO };
    if barrier {
        for i in 0..head.len() {
            if waiting[i] < shard_nodes[i] {
                any_owing = true;
                release_lb = release_lb.max(head[i].unwrap_or(global_min));
            }
        }
    }
    for (i, end) in ends.iter_mut().enumerate() {
        let mut e = match foreign_head(i) {
            Some(h) => h + cfg.lookahead,
            None => UNBOUNDED,
        };
        // A fully-waiting shard must not run past the earliest release
        // the still-computing shards could produce. Owing shards need
        // no leader clamp: their pops precede their own next arrival
        // (which precedes the release), and the queue-side arrival
        // clamp bounds the remainder of the window.
        if barrier && any_owing && waiting[i] == shard_nodes[i] {
            e = e.min(release_lb + cfg.release_delay);
        }
        if let Some(at) = pending {
            e = e.min(at);
        }
        *end = e.max(fixed_end);
    }
}

/// One worker thread's loop: rendezvous (the last thread to arrive
/// decides), then act the round out on every shard in this worker's
/// contiguous group (`first .. first + shards.len()`). With as many
/// threads as shards each group is a single shard; with fewer, the
/// worker multiplexes. Routing a finished shard's outbox before a groupmate later in the
/// same round acts is harmless: cross-shard messages land at or after
/// their target's window end, so the target cannot pop them this round.
#[allow(clippy::too_many_arguments)]
fn worker<E, S, H, R>(
    first: usize,
    shards: &mut [S],
    queues: &mut [ShardQueue<E>],
    shared: &Shared<E>,
    cfg: Windowing,
    quantum: Cycles,
    handle: &H,
    release: &R,
) where
    E: Send,
    S: Send,
    H: Fn(&mut S, Cycles, E, &mut ShardQueue<E>) + Sync,
    R: Fn(&mut S, &mut ShardQueue<E>, Cycles, u64) + Sync,
{
    loop {
        let decision = shared.rendezvous.wait(|| {
            // A panicking leader would strand its peers in the
            // rendezvous: record the panic and stop everyone instead.
            catch_unwind(AssertUnwindSafe(|| decide(shared, cfg, quantum))).unwrap_or_else(
                |payload| {
                    record_panic(shared, payload);
                    Decision::Stop
                },
            )
        });
        for (k, (shard, queue)) in shards.iter_mut().zip(queues.iter_mut()).enumerate() {
            let index = first + k;
            let act = AssertUnwindSafe(|| match decision {
                Decision::Stop => {}
                Decision::Release { at, generation } => {
                    drain_inbox(index, queue, shared);
                    release(shard, queue, at, generation);
                    publish(index, queue, shared);
                }
                Decision::Window => {
                    drain_inbox(index, queue, shared);
                    let end = shared.ends.lock().expect("ends lock")[index];
                    queue.set_window_end(Some(end));
                    let mut handled = 0u64;
                    while let Some((now, ev)) = queue.pop() {
                        handle(shard, now, ev, queue);
                        handled += 1;
                    }
                    queue.set_window_end(None);
                    if handled > 0 {
                        shared.events.fetch_add(handled, Ordering::Relaxed);
                    }
                    let outbox = queue.take_outbox();
                    if !outbox.is_empty() {
                        shared
                            .cross_messages
                            .fetch_add(outbox.len() as u64, Ordering::Relaxed);
                        for msg in outbox {
                            let owner = shared.node_shard[msg.target];
                            debug_assert_ne!(owner, index, "own-shard event in outbox");
                            shared.inboxes[owner].lock().expect("inbox lock").push(msg);
                        }
                    }
                    let arrivals = queue.take_arrivals();
                    if !arrivals.is_empty() {
                        let mut st = shared.state.lock().expect("state lock");
                        st.arrived += arrivals.len();
                        for at in arrivals {
                            st.max_arrival = st.max_arrival.max(at);
                        }
                    }
                    publish(index, queue, shared);
                }
            });
            if let Err(payload) = catch_unwind(act) {
                record_panic(shared, payload);
            }
        }
        if matches!(decision, Decision::Stop) {
            break;
        }
    }
}

/// Records the first panic payload for [`run_windows`] to re-raise; the
/// next [`decide`] then stops every worker.
fn record_panic<E>(shared: &Shared<E>, payload: Box<dyn std::any::Any + Send>) {
    shared.panicked.store(true, Ordering::SeqCst);
    let mut slot = shared.panic_payload.lock().expect("payload lock");
    if slot.is_none() {
        *slot = Some(payload);
    }
}

fn drain_inbox<E>(index: usize, queue: &mut ShardQueue<E>, shared: &Shared<E>) {
    let msgs = std::mem::take(&mut *shared.inboxes[index].lock().expect("inbox lock"));
    for msg in msgs {
        queue.deliver(msg);
    }
}

fn publish<E>(index: usize, queue: &mut ShardQueue<E>, shared: &Shared<E>) {
    let mut st = shared.status[index].lock().expect("status lock");
    st.head = queue.peek_time();
    st.waiting = queue.waiting();
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: u64 = 11;

    #[test]
    fn inline_barrier_completes_and_resets() {
        let mut q: ShardQueue<u64> = ShardQueue::new(0, 4);
        q.enable_inline_barrier(4, Cycles::new(11), |generation| 100 + generation);
        for at in [5, 9, 7] {
            q.note_barrier_arrival(Cycles::new(at));
            assert!(q.is_empty(), "no release before the last arrival");
        }
        q.note_barrier_arrival(Cycles::new(8));
        assert_eq!(
            q.pop(),
            Some((Cycles::new(20), 100)),
            "release at max arrival + delay, for generation 0"
        );
        assert_eq!(q.releases(), 1);
        // Next generation starts clean.
        q.note_barrier_arrival(Cycles::new(30));
        assert!(q.is_empty());
    }

    #[test]
    fn windowed_arrivals_accumulate_for_the_driver() {
        let mut q: ShardQueue<u32> = ShardQueue::new(0, 4);
        q.note_barrier_arrival(Cycles::new(5));
        q.note_barrier_arrival(Cycles::new(9));
        assert!(q.is_empty(), "windowed mode never schedules the release");
        assert_eq!(q.take_arrivals(), vec![Cycles::new(5), Cycles::new(9)]);
        assert!(q.take_arrivals().is_empty());
    }

    #[test]
    fn global_origin_sorts_before_node_origins() {
        let mut q: ShardQueue<u32> = ShardQueue::new(0, 2);
        q.enable_inline_barrier(2, Cycles::new(1), |_| 999);
        q.set_origin(0);
        q.schedule_for(Cycles::new(5), 0, 100);
        q.set_origin_global();
        q.schedule_global(Cycles::new(5), 999);
        q.set_origin(1);
        q.schedule_for(Cycles::new(5), 1, 101);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![999, 100, 101]);
    }

    #[test]
    fn cross_shard_events_go_to_the_outbox_with_stable_keys() {
        let mut a: ShardQueue<u32> = ShardQueue::new(0, 2);
        let mut b: ShardQueue<u32> = ShardQueue::new(2, 2);
        a.set_origin(1);
        a.schedule_for(Cycles::new(20), 3, 7);
        assert!(a.is_empty(), "foreign event must not enter the local queue");
        let out = a.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].target, 3);
        // Origin id = node 1 + 1 = 2, first counter value 1.
        assert_eq!(out[0].key, (2 << 32) | 1);
        b.deliver(out.into_iter().next().unwrap());
        assert_eq!(b.pop(), Some((Cycles::new(20), 7)));
    }

    #[test]
    #[should_panic(expected = "faster than the lookahead bound")]
    fn cross_shard_event_under_lookahead_panics() {
        let mut q: ShardQueue<u32> = ShardQueue::new(0, 2);
        q.configure_windowing(0, Cycles::new(11), Cycles::new(11));
        q.set_window_end(Some(Cycles::new(50)));
        q.set_origin(0);
        q.schedule_for(Cycles::new(5), 5, 1);
    }

    #[test]
    fn cross_shard_event_at_exact_lookahead_is_accepted() {
        let mut q: ShardQueue<u32> = ShardQueue::new(0, 2);
        q.configure_windowing(0, Cycles::new(11), Cycles::new(11));
        q.set_window_end(Some(Cycles::new(50)));
        q.set_origin(0);
        q.schedule_for(Cycles::new(11), 5, 1);
        assert_eq!(q.take_outbox().len(), 1);
    }

    /// Far longer than [`SPIN_BUDGET`] spins on any host: a party that
    /// sleeps this long before arriving forces its peers to park.
    const PARK_DELAY: std::time::Duration = std::time::Duration::from_millis(20);

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let nodes = 4;
        let mut shards = vec![(), ()];
        let mut queues: Vec<ShardQueue<u32>> =
            (0..2).map(|i| ShardQueue::new(i * 2, 2)).collect();
        for n in 0..nodes {
            let q = &mut queues[n / 2];
            q.set_origin(n);
            q.schedule_for(Cycles::ZERO, n, n as u32);
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_windows(
                &mut shards,
                &mut queues,
                Windowing {
                    lookahead: Cycles::new(11),
                    release_delay: Cycles::new(11),
                    barrier_expected: nodes,
                    policy: WindowPolicy::Fixed,
                    threads: 2,
                },
                |_s: &mut (), _now, ev: u32, _q: &mut ShardQueue<u32>| {
                    if ev == 3 {
                        // Shard 0's worker finishes at once and parks in
                        // the rendezvous while this one dawdles.
                        std::thread::sleep(PARK_DELAY);
                        panic!("planted failure on node 3");
                    }
                },
                |_s, _q, _at, _gen| {},
            )
        }));
        let payload = result.expect_err("the planted panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"planted failure on node 3")
        );
    }
    #[test]
    fn rendezvous_leader_acts_once_per_round_and_everyone_sees_it() {
        const ROUNDS: u64 = 2_000;
        for parties in [2, 3, 4] {
            let rv = Rendezvous::new(parties, 0u64);
            let counter = AtomicU64::new(0);
            let actions = AtomicU64::new(0);
            // Mismatches are counted, not asserted in place: a party that
            // panicked mid-run would strand its peers in the rendezvous.
            let wrong = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for _ in 0..parties {
                    scope.spawn(|| {
                        for round in 1..=ROUNDS {
                            let v = rv.wait(|| {
                                actions.fetch_add(1, Ordering::Relaxed);
                                counter.fetch_add(1, Ordering::Relaxed) + 1
                            });
                            // The published value, and the leader's bump
                            // itself, are visible once the crossing ends.
                            if v != round || counter.load(Ordering::Relaxed) != round {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
            assert_eq!(wrong.into_inner(), 0, "{parties} parties saw a stale round");
            assert_eq!(actions.into_inner(), ROUNDS, "one action per round");
        }
    }

    #[test]
    fn rendezvous_parks_behind_a_slow_party_and_wakes() {
        let rv = Rendezvous::new(2, 0u32);
        let seen: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let parties: Vec<_> = [false, true]
                .into_iter()
                .map(|slow| {
                    let rv = &rv;
                    scope.spawn(move || {
                        (1..=3)
                            .map(|round| {
                                if slow {
                                    std::thread::sleep(PARK_DELAY);
                                }
                                rv.wait(|| round)
                            })
                            .collect()
                    })
                })
                .collect();
            parties
                .into_iter()
                .map(|p| p.join().expect("party"))
                .collect()
        });
        assert_eq!(seen, vec![vec![1, 2, 3]; 2], "both parties see every round");
        assert!(
            rv.parks.load(Ordering::Relaxed) >= 3,
            "the fast party must park each round: {} parks",
            rv.parks.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn single_party_rendezvous_returns_immediately() {
        let rv = Rendezvous::new(1, 0u32);
        for round in 1..=100 {
            assert_eq!(rv.wait(|| round), round);
        }
        assert_eq!(rv.parks.load(Ordering::Relaxed), 0);
    }

    /// Regression: a widened shard receives a message landing exactly at
    /// its granted (wider-than-fixed) window edge. Shard 0 holds the
    /// global minimum and local work straddling the edge; shard 1 pops
    /// far ahead of it and sends at exactly `now + lookahead`. The token
    /// must interleave with shard 0's local steps exactly as it does
    /// sequentially.
    #[derive(Clone, Debug)]
    enum WEv {
        Tick { t_next: u64 },
        Fire,
        Token,
    }

    #[derive(Default)]
    struct WShard {
        log: Vec<(u64, &'static str)>,
    }

    fn w_handle(s: &mut WShard, now: Cycles, ev: WEv, q: &mut ShardQueue<WEv>) {
        match ev {
            WEv::Tick { t_next } => {
                q.set_origin(0);
                s.log.push((now.raw(), "tick"));
                if t_next <= 130 {
                    q.schedule_for(
                        Cycles::new(t_next),
                        0,
                        WEv::Tick { t_next: t_next + 2 },
                    );
                }
            }
            WEv::Fire => {
                q.set_origin(1);
                s.log.push((now.raw(), "fire"));
                // Exactly at the lookahead bound: lands at shard 0's
                // already-granted widened window edge (100 + 11).
                q.schedule_for(now + Cycles::new(LATENCY), 0, WEv::Token);
            }
            WEv::Token => {
                q.set_origin(0);
                s.log.push((now.raw(), "token"));
            }
        }
    }

    fn run_widened(n_shards: usize, policy: WindowPolicy) -> Vec<(u64, &'static str)> {
        assert!(n_shards == 1 || n_shards == 2);
        let mut shards: Vec<WShard> = (0..n_shards).map(|_| WShard::default()).collect();
        let mut log = Vec::new();
        if n_shards == 1 {
            // One shard owning both nodes: the sequential reference.
            let mut q: ShardQueue<WEv> = ShardQueue::new(0, 2);
            q.set_origin(0);
            q.schedule_for(Cycles::ZERO, 0, WEv::Tick { t_next: 2 });
            q.set_origin(1);
            q.schedule_for(Cycles::new(100), 1, WEv::Fire);
            let shard = &mut shards[0];
            while let Some((now, ev)) = q.pop() {
                w_handle(shard, now, ev, &mut q);
            }
            log.append(&mut shard.log);
        } else {
            let mut queues: Vec<ShardQueue<WEv>> =
                (0..n_shards).map(|i| ShardQueue::new(i, 1)).collect();
            queues[0].set_origin(0);
            queues[0].schedule_for(Cycles::ZERO, 0, WEv::Tick { t_next: 2 });
            queues[1].set_origin(1);
            queues[1].schedule_for(Cycles::new(100), 1, WEv::Fire);
            run_windows(
                &mut shards,
                &mut queues,
                Windowing {
                    lookahead: Cycles::new(LATENCY),
                    release_delay: Cycles::new(LATENCY),
                    barrier_expected: 0,
                    policy,
                    threads: 2,
                },
                w_handle,
                |_s, _q, _at, _gen| unreachable!("no barrier in this toy"),
            );
            for s in &mut shards {
                log.append(&mut s.log);
            }
        }
        // Per-shard logs are concatenated; order them on (time, tag) so
        // sequential and sharded runs compare structurally.
        log.sort();
        log
    }

    #[test]
    fn widened_shard_receives_message_at_its_old_window_edge() {
        let seq = run_widened(1, WindowPolicy::Fixed);
        assert!(seq.contains(&(111, "token")), "token at fire + lookahead: {seq:?}");
        assert_eq!(run_widened(2, WindowPolicy::Fixed), seq);
        assert_eq!(run_widened(2, WindowPolicy::Adaptive), seq);
    }
}
