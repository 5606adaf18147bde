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
//! it, or `GLOBAL_ORIGIN` for machine-global bookkeeping such as
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

pub use driver::RunResult;

/// Origin id of machine-global scheduling (barrier bookkeeping). Sorts
/// ahead of every node origin at the same cycle.
pub(crate) const GLOBAL_ORIGIN: u64 = 0;

/// Bits of the key holding the per-origin counter.
const COUNTER_BITS: u32 = 32;

/// Bits of an entry key available to schedulers: a packed `(origin,
/// per-origin counter)` pair fits comfortably in 48 bits. The top 16
/// bits are reserved for the tie-shuffle salt, so the salted key still
/// fits the one `u64` of the 24-byte heap [`Entry`] (an earlier draft
/// that widened the entry by 16 bytes cost DirNNB about 25 % wall time;
/// every sift moves whole entries).
const KEY_BITS: u32 = 48;

/// Packs an origin id and counter into an event key.
#[inline]
fn pack_key(origin_id: u64, counter: u64) -> u64 {
    debug_assert!(origin_id < 1 << 16, "origin id overflows 16 bits");
    debug_assert!(counter < 1 << COUNTER_BITS, "origin counter overflows");
    (origin_id << COUNTER_BITS) | counter
}

/// A pending event's ordering record: ordering key is `(time, key)`, so
/// same-cycle events fire in a deterministic scheduler-chosen order.
/// The event itself waits in the queue's slab at `slot`, so the heap
/// sifts 24-byte records whatever the event type's size (a Typhoon
/// `Deliver` event carries a whole packet payload inline).
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: Cycles,
    key: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.key).cmp(&(other.time, other.key))
    }
}

/// The earliest pending event, with its event inline: it is held outside
/// the heap and the slab.
#[derive(Debug)]
struct Front<E> {
    time: Cycles,
    key: u64,
    event: E,
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
/// The heap holds only 24-byte `Entry` records; their events sit in a
/// slab (`events`) whose freed slots are reused last-in first-out, so a
/// steady-state simulation allocates no new slots. The front slot keeps
/// its event inline: an event enters the slab only when it enters the
/// heap, and the self-rescheduling pattern never touches the slab.
///
/// Invariants: whenever `front` is occupied it orders before every entry
/// in `heap` (entries are totally ordered by `(time, key)`); every heap
/// entry's slot holds its event, and every other slot is empty and on
/// `free`.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: Cycles,
    front: Option<Front<E>>,
    heap: BinaryHeap<Reverse<Entry>>,
    /// Pending events, indexed by their entry's `slot`.
    events: Vec<Option<E>>,
    /// Empty slots of `events`, reused last-in first-out.
    free: Vec<u32>,
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
            events: Vec::new(),
            free: Vec::new(),
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
        assert!(self.is_empty(), "enable tie-shuffle on an empty queue, before scheduling");
        self.shuffle = Some(seed);
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// The timestamp of the earliest pending event, if any.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<Cycles> {
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
        debug_assert!(node < self.counters.len(), "wakeup for node {node} out of range");
        self.insert(t, pack_key(node as u64 + 1, 0), event);
    }

    /// Inserts `event` at `t` under `key`. Same-cycle entries are
    /// delivered in key order (after tie-shuffle salting, if enabled),
    /// regardless of insertion order.
    #[inline]
    fn insert(&mut self, t: Cycles, key: u64, event: E) {
        assert!(t >= self.now, "scheduling into the past: {t:?} < {:?}", self.now);
        debug_assert!(key < 1 << KEY_BITS, "event key overflows 48 bits");
        let key = match self.shuffle {
            Some(seed) => (mix64(seed ^ key) << KEY_BITS) | key,
            None => key,
        };
        let goes_front = match &self.front {
            Some(f) => (t, key) < (f.time, f.key),
            None => self.heap.peek().is_none_or(|Reverse(min)| (t, key) <= (min.time, min.key)),
        };
        if !goes_front {
            self.push_heap(t, key, event);
        } else if let Some(old) = self.front.replace(Front { time: t, key, event }) {
            self.push_heap(old.time, old.key, old.event);
        }
    }

    /// Parks `event` in a free slab slot and pushes its entry.
    fn push_heap(&mut self, time: Cycles, key: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.events.len()).expect("over 2^32 pending events");
                self.events.push(Some(event));
                slot
            }
        };
        self.heap.push(Reverse(Entry { time, key, slot }));
    }

    /// Removes and returns the earliest event, advancing `now` to its time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        let (time, event) = match self.front.take() {
            Some(f) => (f.time, f.event),
            None => {
                let Reverse(e) = self.heap.pop()?;
                let event =
                    self.events[e.slot as usize].take().expect("a pending entry's slot is full");
                self.free.push(e.slot);
                (e.time, event)
            }
        };
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, event))
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
            self.insert(release_at, pack_key(GLOBAL_ORIGIN, self.global_counter), event);
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
        std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.raw(), e)).collect()
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
            drain(&mut q).into_iter().map(|(_, e)| e).collect::<Vec<_>>()
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
    fn heap_entries_are_24_bytes_whatever_the_event() {
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = EventQueue::new(1, Cycles::new(11), |_| [0u8; 128]);
        q.set_origin(0);
        let mut slots = Vec::new();
        for round in 0..3u8 {
            for i in 0..4u8 {
                q.schedule(Cycles::new(u64::from(round) * 10 + u64::from(i)), [round * 4 + i; 128]);
            }
            for i in 0..4u8 {
                assert_eq!(q.pop().map(|(_, e)| e[0]), Some(round * 4 + i));
            }
            slots.push(q.events.len());
        }
        assert_eq!(slots, [3, 3, 3], "the front keeps one event inline; refills reuse slots");
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
