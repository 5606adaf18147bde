//! A deterministic discrete-event simulation engine.
//!
//! The paper evaluated Typhoon on the Wisconsin Wind Tunnel, a parallel
//! discrete-event simulator. This crate is our deterministic equivalent:
//! a time-ordered [`EventQueue`], the one machine [`driver`] that runs
//! every simulation, and the one op-stream [`cpu`] both machines execute
//! workloads on. Each simulation runs sequentially on one thread; host
//! parallelism comes from running independent simulations side by side.
//!
//! # Deterministic keys
//!
//! Events scheduled for the same cycle are delivered in the order of
//! their keys, which makes every simulation bit-reproducible. A key is
//! packed from the event's *origin* — the node whose handler scheduled
//! it, or [`GLOBAL_ORIGIN`] for machine-global bookkeeping such as
//! barrier releases — and a per-origin counter:
//!
//! ```text
//! key = origin_id << 32 | counter      (origin_id = node + 1, 0 = global)
//! ```
//!
//! Same-cycle events from different origins are ordered by origin id,
//! and global events sort ahead of every node's, which puts barrier
//! releases before same-cycle node work. The committed cycle tables
//! depend on this same-cycle order, and `tt-check`'s tie-shuffle salts
//! it (see [`EventQueue::enable_tie_shuffle`]).
//!
//! # Barriers
//!
//! The machines' global barrier is the one interaction that is not
//! node-to-node. The queue counts arrivals
//! ([`EventQueue::note_barrier_arrival`]); the arrival completing a
//! generation schedules the machine's release event at `max_arrival +
//! release_delay` under the next global key.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tt_base::{mix64, Cycles};

pub mod cpu;
pub mod driver;

pub use driver::{Machine, RunResult};

/// Origin id of machine-global scheduling (barrier bookkeeping). Sorts
/// ahead of every node origin at the same cycle.
pub const GLOBAL_ORIGIN: u64 = 0;

/// Bits of the key holding the per-origin counter.
const COUNTER_BITS: u32 = 32;

/// Bits of an entry key available to schedulers: a packed `(origin,
/// per-origin counter)` pair fits comfortably in 48 bits. The top 16
/// bits are reserved for the tie-shuffle salt so the heap `Entry` never
/// grows (an earlier draft that widened `Entry` by 16 bytes cost DirNNB
/// ~25% wall time).
const KEY_BITS: u32 = 48;

/// Packs an origin id and counter into an event key.
#[inline]
fn pack_key(origin_id: u64, counter: u64) -> u64 {
    debug_assert!(origin_id < 1 << 16, "origin id overflows 16 bits");
    debug_assert!(counter < 1 << COUNTER_BITS, "origin counter overflows");
    (origin_id << COUNTER_BITS) | counter
}

/// A pending event: ordering key is `(time, key)`, so same-cycle events
/// fire in a deterministic scheduler-chosen order. The ordering impls
/// deliberately ignore the event payload so event types need no `Ord`.
#[derive(Clone, Debug)]
struct Entry<E> {
    time: Cycles,
    key: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.key).cmp(&(other.time, other.key))
    }
}

/// Barrier bookkeeping for the current generation.
#[derive(Debug)]
struct Barrier<E> {
    expected: usize,
    delay: Cycles,
    arrived: usize,
    max_arrival: Cycles,
    /// Builds the release event for a generation.
    release: fn(u64) -> E,
}

/// The simulation's time-ordered event queue, with the per-origin
/// counters that make event keys deterministic (see the crate docs).
///
/// Machines schedule through [`EventQueue::schedule`] and
/// [`EventQueue::schedule_wakeup`]; the driver declares the origin
/// before each handler runs.
///
/// The common pattern in the machines is *self-rescheduling*: a handler
/// pops the earliest event and immediately schedules its successor,
/// which is very often again the earliest pending event. The queue keeps
/// that front-runner in a dedicated slot (`front`) so the pattern costs
/// two comparisons instead of two `O(log n)` heap operations.
///
/// Invariant: whenever `front` is occupied it orders before every entry
/// in `heap` (entries are totally ordered by `(time, key)`).
#[derive(Debug)]
pub struct EventQueue<E> {
    now: Cycles,
    front: Option<Entry<E>>,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// When set, same-cycle tie-breaking is deterministically permuted by
    /// salting the high bits of each entry's key with a hash of the seed
    /// and the raw key (see [`EventQueue::enable_tie_shuffle`]). `None`
    /// keeps the unsalted key order.
    shuffle: Option<u64>,
    /// Per-origin scheduling counters, one per node.
    counters: Vec<u64>,
    /// Global-origin keys issued; only barrier releases consume them, so
    /// this is also the number of releases scheduled so far.
    global_counter: u64,
    /// Origin for keys of subsequently scheduled events. `None` = global.
    origin: Option<usize>,
    barrier: Barrier<E>,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero for `nodes` nodes. Every node takes
    /// part in every barrier: the `nodes`-th arrival of a generation
    /// schedules `release(generation)` at `max_arrival + release_delay`.
    pub fn new(nodes: usize, release_delay: Cycles, release: fn(u64) -> E) -> Self {
        EventQueue {
            now: Cycles::ZERO,
            front: None,
            heap: BinaryHeap::new(),
            shuffle: None,
            counters: vec![0; nodes],
            global_counter: 0,
            origin: None,
            barrier: Barrier {
                expected: nodes,
                delay: release_delay,
                arrived: 0,
                max_arrival: Cycles::ZERO,
                release,
            },
        }
    }

    /// Turns on deterministic same-cycle tie-shuffling: events scheduled
    /// for the same cycle are delivered in a seed-dependent permutation
    /// instead of key order. Simulations must be correct under *any*
    /// same-cycle ordering, so this is a legal-nondeterminism knob for
    /// the `tt-check` schedule fuzzer; the same seed always produces the
    /// same permutation.
    ///
    /// The salt for an entry is a pure hash of `(seed, key)`, not a draw
    /// from an RNG stream, so it does not depend on insertion order.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending (their keys are unsalted).
    pub fn enable_tie_shuffle(&mut self, seed: u64) {
        assert!(
            self.is_empty(),
            "enable tie-shuffle on an empty queue, before scheduling"
        );
        self.shuffle = Some(seed);
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycles> {
        match &self.front {
            Some(e) => Some(e.time),
            None => self.heap.peek().map(|Reverse(e)| e.time),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Declares `node` the origin of subsequently scheduled events. The
    /// driver calls this with the handling node before each event;
    /// handlers themselves never need to.
    #[inline]
    pub fn set_origin(&mut self, node: usize) {
        debug_assert!(node < self.counters.len(), "origin {node} out of range");
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
                let c = &mut self.counters[node];
                *c += 1;
                pack_key(node as u64 + 1, *c)
            }
            None => {
                self.global_counter += 1;
                pack_key(GLOBAL_ORIGIN, self.global_counter)
            }
        }
    }

    /// Schedules `event` at `t` under the next key of the current origin.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past (`t < self.now()`): the simulation
    /// would no longer be causal.
    #[inline]
    pub fn schedule(&mut self, t: Cycles, event: E) {
        let key = self.next_key();
        self.insert(t, key, event);
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
        debug_assert!(
            node < self.counters.len(),
            "wakeup for node {node} out of range"
        );
        self.insert(t, pack_key(node as u64 + 1, 0), event);
    }

    /// Inserts `event` at `t` under `key`. Same-cycle entries are
    /// delivered in key order (after tie-shuffle salting, if enabled),
    /// regardless of insertion order.
    fn insert(&mut self, t: Cycles, key: u64, event: E) {
        assert!(
            t >= self.now,
            "scheduling into the past: {t:?} < {:?}",
            self.now
        );
        debug_assert!(key < 1 << KEY_BITS, "event key overflows 48 bits");
        let key = match self.shuffle {
            Some(seed) => (mix64(seed ^ key) << KEY_BITS) | key,
            None => key,
        };
        let entry = Entry {
            time: t,
            key,
            event,
        };
        match &self.front {
            Some(f) if entry < *f => {
                let old = std::mem::replace(self.front.as_mut().expect("front present"), entry);
                self.heap.push(Reverse(old));
            }
            Some(_) => self.heap.push(Reverse(entry)),
            None => match self.heap.peek() {
                Some(Reverse(min)) if *min < entry => self.heap.push(Reverse(entry)),
                _ => self.front = Some(entry),
            },
        }
    }

    /// Removes and returns the earliest event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = match self.front.take() {
            Some(e) => e,
            None => self.heap.pop()?.0,
        };
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Records a barrier arrival at `at`. The arrival completing the
    /// generation schedules the release event at `max_arrival + delay`
    /// under the next global key, and resets for the next generation.
    pub fn note_barrier_arrival(&mut self, at: Cycles) {
        let b = &mut self.barrier;
        b.arrived += 1;
        b.max_arrival = b.max_arrival.max(at);
        if b.arrived == b.expected {
            b.arrived = 0;
            let release_at = b.max_arrival + b.delay;
            b.max_arrival = Cycles::ZERO;
            let event = (b.release)(self.global_counter);
            self.global_counter += 1;
            self.insert(
                release_at,
                pack_key(GLOBAL_ORIGIN, self.global_counter),
                event,
            );
        }
    }

    /// Barrier releases scheduled so far.
    pub fn releases(&self) -> u64 {
        self.global_counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue whose barrier releases carry `100 + generation`.
    fn queue(nodes: usize) -> EventQueue<u32> {
        EventQueue::new(nodes, Cycles::new(11), |generation| 100 + generation as u32)
    }

    /// Pops everything, returning `(time, event)` pairs in delivery order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.raw(), e))
            .collect()
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = queue(1);
        q.set_origin(0);
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn keys_order_same_cycle_events_regardless_of_insertion() {
        let mut q = queue(3);
        // Inserted out of origin order, delivered in origin order.
        for (node, ev) in [(2, 2), (0, 0), (1, 1)] {
            q.set_origin(node);
            q.schedule(Cycles::new(5), ev);
        }
        assert_eq!(drain(&mut q), vec![(5, 0), (5, 1), (5, 2)]);
        // Within one origin, scheduling order.
        q.set_origin(0);
        for ev in [7, 8, 9] {
            q.schedule(Cycles::new(9), ev);
        }
        assert_eq!(drain(&mut q), vec![(9, 7), (9, 8), (9, 9)]);
    }

    #[test]
    fn the_wakeup_key_sorts_first_within_its_origin() {
        let mut q = queue(2);
        q.set_origin(1);
        q.schedule(Cycles::new(5), 1);
        q.set_origin(0);
        q.schedule(Cycles::new(5), 0);
        q.schedule_wakeup(Cycles::new(5), 1, 10);
        assert_eq!(drain(&mut q), vec![(5, 0), (5, 10), (5, 1)]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = queue(1);
        q.set_origin(0);
        q.schedule(Cycles::new(10), 1);
        q.pop();
        q.schedule(Cycles::new(5), 2);
    }

    #[test]
    fn barrier_completes_resets_and_sorts_before_node_work() {
        let mut q = queue(4);
        for at in [5, 9, 7] {
            q.note_barrier_arrival(Cycles::new(at));
            assert!(q.is_empty(), "no release before the last arrival");
        }
        q.set_origin(0);
        q.schedule(Cycles::new(20), 1);
        q.note_barrier_arrival(Cycles::new(8));
        assert_eq!(q.releases(), 1);
        assert_eq!(
            drain(&mut q),
            vec![(20, 100), (20, 1)],
            "release at max arrival + delay, for generation 0, ahead of node work"
        );
        // Next generation starts clean.
        for at in [30, 31, 32] {
            q.note_barrier_arrival(Cycles::new(at));
        }
        assert!(q.is_empty());
        q.note_barrier_arrival(Cycles::new(33));
        assert_eq!(drain(&mut q), vec![(44, 101)]);
    }

    #[test]
    fn tie_shuffle_permutes_same_cycle_events_deterministically() {
        let order_with_seed = |seed: Option<u64>| {
            let mut q = queue(50);
            if let Some(s) = seed {
                q.enable_tie_shuffle(s);
            }
            for i in 0..50 {
                q.set_origin(i as usize);
                q.schedule(Cycles::new(5), i);
            }
            drain(&mut q)
                .into_iter()
                .map(|(_, e)| e)
                .collect::<Vec<_>>()
        };
        let unsalted = order_with_seed(None);
        assert_eq!(unsalted, (0..50).collect::<Vec<_>>());
        let a = order_with_seed(Some(7));
        let b = order_with_seed(Some(7));
        assert_eq!(a, b, "same seed must reproduce the permutation");
        assert_ne!(a, unsalted, "seed 7 should permute 50 same-cycle events");
        let c = order_with_seed(Some(8));
        assert_ne!(a, c, "different seeds should usually differ");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, unsalted, "shuffling is a permutation, not a loss");
    }

    #[test]
    fn tie_shuffle_salt_depends_on_key_not_insertion_order() {
        let deliver = |nodes: &[usize]| {
            let mut q = queue(8);
            q.enable_tie_shuffle(99);
            for &n in nodes {
                q.set_origin(n);
                q.schedule(Cycles::new(5), n as u32);
            }
            drain(&mut q)
        };
        let forward = deliver(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let backward = deliver(&[7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn tie_shuffle_preserves_time_order() {
        let mut q = queue(1);
        q.enable_tie_shuffle(3);
        q.set_origin(0);
        q.schedule(Cycles::new(30), 3);
        q.schedule(Cycles::new(10), 1);
        q.schedule(Cycles::new(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    #[should_panic(expected = "empty queue")]
    fn tie_shuffle_must_be_enabled_before_scheduling() {
        let mut q = queue(1);
        q.set_origin(0);
        q.schedule(Cycles::new(1), 0);
        q.enable_tie_shuffle(1);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = queue(1);
        assert_eq!(q.now(), Cycles::ZERO);
        q.set_origin(0);
        q.schedule(Cycles::new(42), 9);
        q.pop();
        assert_eq!(q.now(), Cycles::new(42));
        assert!(q.is_empty());
    }
}
