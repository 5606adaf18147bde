//! The invariant engine: event-boundary observers for
//! [`TyphoonMachine::run_observed`].
//!
//! Handlers are atomic in the simulation, so after every event the
//! machine is in a protocol-consistent state; these checks assert the
//! properties a correct write-invalidate protocol maintains at exactly
//! those boundaries:
//!
//! - **SWMR** — at most one node holds a `ReadWrite` copy of a block,
//!   and a writable copy excludes readable copies elsewhere;
//! - **data value** — all readable copies of a block agree word for
//!   word (the invalidate protocol never lets a stale readable copy
//!   coexist with a fresh one);
//! - **tag/directory agreement** — a non-busy home directory entry and
//!   the access tags tell the same story: `Idle` ⟹ home holds the only
//!   (writable) copy, `Shared` ⟹ home is read-only and every remote
//!   readable copy is a registered sharer, `Exclusive(o)` ⟹ home is
//!   invalid and nobody but `o` holds a copy. Busy entries are skipped:
//!   mid-transaction the directory intentionally leads or trails the
//!   tags, and silent replacement means the sharer list may *over*state
//!   copies (never understate), which is why the check is
//!   one-directional (tags ⟹ directory, not the converse);
//! - **virtual-network discipline** — every delivered protocol packet
//!   travels on the virtual network its handler declared
//!   ([`tt_stache::vn_policy`]); keeping requests off the response
//!   network is what makes the waits-for order acyclic, i.e. the
//!   request/response system deadlock-free;
//! - **event budget** — a livelocked protocol (e.g. two nodes stealing
//!   a block back and forth without progress) produces unbounded
//!   events; a generous budget turns that into a reported failure
//!   instead of a hung fuzzer.
//!
//! [`TyphoonMachine::run_observed`]: tt_typhoon::TyphoonMachine::run_observed

use tt_base::addr::{BLOCK_BYTES, WORD_BYTES};
use tt_base::{Cycles, VAddr};
use tt_mem::Tag;
use tt_tempest::{DirSnapshotState, VnPolicy};
use tt_typhoon::{Event, TyphoonMachine};

/// Default event budget: far above anything a litmus-sized run needs,
/// low enough that a livelock fails in well under a second.
pub(crate) const DEFAULT_EVENT_BUDGET: u64 = 2_000_000;

/// Event-boundary invariant checker. Construct one per run and feed it
/// to [`TyphoonMachine::run_observed`]:
///
/// ```text
/// let mut checker = InvariantChecker::new(litmus.blocks.clone());
/// machine.run_observed(&mut |now, ev, m| checker.check(now, ev, m));
/// ```
pub(crate) struct InvariantChecker {
    policy: VnPolicy,
    tracked: Vec<VAddr>,
    budget: u64,
    events: u64,
}

impl InvariantChecker {
    /// A checker watching the given block base addresses, enforcing the
    /// Stache virtual-network policy and the default event budget.
    pub(crate) fn new(tracked: Vec<VAddr>) -> Self {
        InvariantChecker {
            policy: tt_stache::vn_policy(),
            tracked,
            budget: DEFAULT_EVENT_BUDGET,
            events: 0,
        }
    }

    /// Replaces the virtual-network policy (for non-Stache protocols).
    pub(crate) fn with_policy(mut self, policy: VnPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the event budget.
    pub(crate) fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Events observed so far.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Asserts every invariant against the machine's post-event state.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the violated invariant.
    pub(crate) fn check(&mut self, now: Cycles, event: &Event, m: &TyphoonMachine) {
        self.events += 1;
        assert!(
            self.events <= self.budget,
            "event budget exceeded: {} events by cycle {now} without completion (livelock?)",
            self.events
        );
        if let Event::Deliver(m) = event {
            self.policy.assert_send(m.handler, m.vn);
        }
        self.check_tags(now, m);
        self.check_directories(now, m);
    }

    /// SWMR + data-value over the tracked blocks.
    fn check_tags(&self, now: Cycles, m: &TyphoonMachine) {
        let nodes = m.config().nodes;
        for &blk in &self.tracked {
            let mut writable = Vec::new();
            let mut readable = Vec::new();
            for n in 0..nodes {
                match m.node_tag(n, blk) {
                    Some(Tag::ReadWrite) => writable.push(n),
                    Some(Tag::ReadOnly) => readable.push(n),
                    _ => {}
                }
            }
            assert!(
                writable.len() <= 1,
                "SWMR violation: block {blk} writable on nodes {writable:?} at cycle {now}"
            );
            if let Some(&w) = writable.first() {
                assert!(
                    readable.is_empty(),
                    "SWMR violation: block {blk} writable on node {w} while readable on \
                     {readable:?} at cycle {now}"
                );
            }
            // All copies that may be read must agree word for word.
            let holders: Vec<usize> = writable.iter().chain(readable.iter()).copied().collect();
            if holders.len() >= 2 {
                for w in 0..BLOCK_BYTES / WORD_BYTES {
                    let a = VAddr::new(blk.raw() + (w * WORD_BYTES) as u64);
                    let v0 = m.node_word(holders[0], a).expect("tagged copy is mapped");
                    for &h in &holders[1..] {
                        let v = m.node_word(h, a).expect("tagged copy is mapped");
                        assert_eq!(
                            v, v0,
                            "data-value violation: block {blk} word {w} is {v0:#x} on node \
                             {} but {v:#x} on node {h} at cycle {now}",
                            holders[0]
                        );
                    }
                }
            }
        }
    }

    /// Tag/directory agreement over every non-busy home entry.
    fn check_directories(&self, now: Cycles, m: &TyphoonMachine) {
        let nodes = m.config().nodes;
        for d in m.inspect_directories() {
            if d.busy {
                continue;
            }
            let home = d.home.index();
            let home_tag = m.node_tag(home, d.addr);
            match &d.state {
                DirSnapshotState::Idle => {
                    assert_eq!(
                        home_tag,
                        Some(Tag::ReadWrite),
                        "tag/dir disagreement: idle block {} but home {home} tag is \
                         {home_tag:?} at cycle {now}",
                        d.addr
                    );
                }
                DirSnapshotState::Shared(sharers) => {
                    assert_eq!(
                        home_tag,
                        Some(Tag::ReadOnly),
                        "tag/dir disagreement: shared block {} but home {home} tag is \
                         {home_tag:?} at cycle {now}",
                        d.addr
                    );
                    for n in 0..nodes {
                        if n == home {
                            continue;
                        }
                        match m.node_tag(n, d.addr) {
                            Some(Tag::ReadWrite) => panic!(
                                "tag/dir disagreement: shared block {} writable on node {n} \
                                 at cycle {now}",
                                d.addr
                            ),
                            Some(Tag::ReadOnly) => assert!(
                                sharers.iter().any(|s| s.index() == n),
                                "tag/dir disagreement: block {} readable on node {n}, which \
                                 the home directory does not list as a sharer \
                                 (sharers {sharers:?}) at cycle {now}",
                                d.addr
                            ),
                            _ => {}
                        }
                    }
                }
                DirSnapshotState::Exclusive(owner) => {
                    if owner.index() != home {
                        assert_eq!(
                            home_tag,
                            Some(Tag::Invalid),
                            "tag/dir disagreement: block {} exclusive at node {} but home \
                             {home} tag is {home_tag:?} at cycle {now}",
                            d.addr,
                            owner.index()
                        );
                    }
                    for n in 0..nodes {
                        if n == owner.index() || n == home {
                            continue;
                        }
                        let t = m.node_tag(n, d.addr);
                        assert!(
                            !matches!(t, Some(Tag::ReadOnly) | Some(Tag::ReadWrite)),
                            "tag/dir disagreement: block {} exclusive at node {} but node \
                             {n} holds a {t:?} copy at cycle {now}",
                            d.addr,
                            owner.index()
                        );
                    }
                }
            }
        }
    }
}
