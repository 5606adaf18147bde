//! A deterministic discrete-event simulation engine.
//!
//! The paper evaluated Typhoon on the Wisconsin Wind Tunnel, a parallel
//! discrete-event simulator. This crate is our deterministic equivalent:
//! a time-ordered event queue, the one machine [`driver`] that runs
//! every simulation, the one op-stream [`cpu`] both machines execute
//! workloads on, and — in [`pdes`] — a conservative parallel window
//! scheme in the WWT style that runs one simulation across OS threads
//! while producing bit-identical results.
//!
//! Events scheduled for the same cycle are delivered in the order of
//! their deterministic keys, which makes every simulation
//! bit-reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tt_base::{mix64, Cycles};

pub mod cpu;
pub mod driver;
pub mod pdes;

pub use driver::{Machine, RunResult};
pub use pdes::{ShardQueue, GLOBAL_ORIGIN};

/// Bits of an entry key available to schedulers: a packed `(origin,
/// per-origin counter)` pair (see [`pdes::ShardQueue`]) fits comfortably
/// in 48 bits. The top 16 bits are reserved for the tie-shuffle salt so
/// the heap `Entry` never grows (an earlier draft that widened `Entry`
/// by 16 bytes cost DirNNB ~25% wall time).
const KEY_BITS: u32 = 48;

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

/// A time-ordered queue of simulation events, the storage behind
/// [`ShardQueue`].
///
/// The common pattern in the machines is *self-rescheduling*: a handler
/// pops the earliest event and immediately schedules its successor,
/// which is very often again the earliest pending event. The queue keeps
/// that front-runner in a dedicated slot (`front`) so the pattern costs
/// two comparisons instead of two `O(log n)` heap operations.
///
/// Invariant: whenever `front` is occupied it orders before every entry
/// in `heap` (entries are totally ordered by `(time, key)`, so delivery
/// of same-cycle events follows the key order deterministically).
///
/// Every entry carries a caller-supplied key, so the order is
/// independent of *when* an entry was inserted — the parallel driver in
/// [`pdes`] inserts cross-shard events at window boundaries, long after
/// their logical scheduling point.
#[derive(Clone, Debug)]
pub(crate) struct EventQueue<E> {
    now: Cycles,
    front: Option<Entry<E>>,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// When set, same-cycle tie-breaking is deterministically permuted by
    /// salting the high bits of each entry's key with a hash of the seed
    /// and the raw key (see [`EventQueue::enable_tie_shuffle`]). `None`
    /// keeps the unsalted key order.
    shuffle: Option<u64>,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub(crate) fn new() -> Self {
        EventQueue {
            now: Cycles::ZERO,
            front: None,
            heap: BinaryHeap::new(),
            shuffle: None,
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
    /// from an RNG stream: a stream's draw order would depend on
    /// insertion order, which under the parallel driver differs from the
    /// sequential run (cross-shard entries are inserted at window
    /// boundaries). Hashing the key gives every entry the same salt in
    /// both modes, so the shuffled schedule is identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if events are already pending (their keys are unsalted).
    pub(crate) fn enable_tie_shuffle(&mut self, seed: u64) {
        assert!(
            self.is_empty(),
            "enable tie-shuffle on an empty queue, before scheduling"
        );
        self.shuffle = Some(seed);
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[inline]
    pub(crate) fn now(&self) -> Cycles {
        self.now
    }

    /// Schedules `event` at absolute time `t` under a caller-supplied
    /// key. Same-cycle entries are delivered in key order (after
    /// tie-shuffle salting, if enabled), regardless of insertion order —
    /// the property the parallel driver needs to merge cross-shard
    /// events deterministically. Keys must be unique among pending
    /// entries and fit in 48 bits.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past (`t < self.now()`): the simulation
    /// would no longer be causal.
    pub(crate) fn schedule(&mut self, t: Cycles, key: u64, event: E) {
        assert!(t >= self.now, "scheduling into the past: {t:?} < {:?}", self.now);
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
    pub(crate) fn pop(&mut self) -> Option<(Cycles, E)> {
        let e = match self.front.take() {
            Some(e) => e,
            None => self.heap.pop()?.0,
        };
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<Cycles> {
        match &self.front {
            Some(e) => Some(e.time),
            None => self.heap.peek().map(|Reverse(e)| e.time),
        }
    }

    /// Whether no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything, returning `(time, event)` pairs in delivery order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.raw(), e))
            .collect()
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(30), 1, 3);
        q.schedule(Cycles::new(10), 2, 1);
        q.schedule(Cycles::new(20), 3, 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn caller_keys_order_same_cycle_events_regardless_of_insertion() {
        let mut q = EventQueue::new();
        // Inserted out of key order, delivered in key order.
        q.schedule(Cycles::new(5), 30, 2);
        q.schedule(Cycles::new(5), 10, 0);
        q.schedule(Cycles::new(5), 20, 1);
        assert_eq!(drain(&mut q), vec![(5, 0), (5, 1), (5, 2)]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycles::new(10), 1, 1);
        q.pop();
        q.schedule(Cycles::new(5), 2, 2);
    }

    #[test]
    fn tie_shuffle_permutes_same_cycle_events_deterministically() {
        let order_with_seed = |seed: Option<u64>| {
            let mut q = EventQueue::new();
            if let Some(s) = seed {
                q.enable_tie_shuffle(s);
            }
            for i in 0..50 {
                q.schedule(Cycles::new(5), u64::from(i), i);
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
        // The same (time, key) entries inserted in different orders must
        // come out identically — the property the parallel driver's
        // cross-shard merge relies on.
        let deliver = |keys: &[u64]| {
            let mut q = EventQueue::new();
            q.enable_tie_shuffle(99);
            for &k in keys {
                q.schedule(Cycles::new(5), k, k as u32);
            }
            drain(&mut q)
        };
        let forward = deliver(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let backward = deliver(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn tie_shuffle_preserves_time_order() {
        let mut q = EventQueue::new();
        q.enable_tie_shuffle(3);
        q.schedule(Cycles::new(30), 1, 3);
        q.schedule(Cycles::new(10), 2, 1);
        q.schedule(Cycles::new(20), 3, 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    #[should_panic(expected = "empty queue")]
    fn tie_shuffle_must_be_enabled_before_scheduling() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(Cycles::new(1), 1, 0);
        q.enable_tie_shuffle(1);
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.now(), Cycles::ZERO);
        q.schedule(Cycles::new(42), 1, 9);
        q.pop();
        assert_eq!(q.now(), Cycles::new(42));
        assert!(q.is_empty());
    }
}
