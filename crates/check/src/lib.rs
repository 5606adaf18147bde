//! **tt-check** — coherence model checking for the Tempest/Typhoon
//! reproduction.
//!
//! Simulators are only as trustworthy as the invariants they are checked
//! against. This crate turns the repo's two machines into a
//! model-checking harness with three layers:
//!
//! 1. an **invariant engine** ([`invariants`]) — observers attached to
//!    [`TyphoonMachine::run_observed`] that assert, at every event
//!    boundary: single-writer/multiple-reader over the 32-byte block
//!    tags, agreement between each node's Stache tags and the home
//!    directory state, word-level agreement of all readable copies of a
//!    block, the request/response virtual-network send discipline
//!    (deadlock-freedom of the waits-for order), and an event budget
//!    that turns livelock into a reported failure;
//! 2. a **schedule fuzzer** ([`fuzz`](mod@fuzz)) — seed-generated litmus workloads
//!    ([`litmus`]) run under perturbations of the machine's *legal*
//!    nondeterminism (same-cycle tie-breaking, network latency jitter,
//!    compute coalescing, direct execution on/off, lossy networks,
//!    the routed mesh).
//!    Everything derives from one `u64` seed through
//!    [`tt_base::DetRng`], so `tt-check replay --seed S` reproduces a
//!    failure bit-exactly, and a greedy shrinker reduces a failing case
//!    to a minimal configuration;
//! 3. a **differential checker** (also in [`fuzz`](mod@fuzz)) — the same workload
//!    runs on `tt-typhoon` (user-level Stache protocol) and `tt-dirnnb`
//!    (the hardware `Dir_N NB` baseline); final shared-memory images
//!    must match each other *and* the generator's own happens-before
//!    prediction, word for word.
//!
//! Two seed families run through one pipeline, [`Family`]: the random
//! litmus family (`Family::Random`, carrying the Typhoon protocol
//! factory — the stock [`stache_factory`] or a planted bug) and the
//! KV-serving family (`Family::Kv`: Stache-served and write-update-served
//! Typhoon against DirNNB, [`kvlitmus::KvLitmusConfig`]). Each has one
//! case result ([`fuzz::CaseResult`]: the named legs' cycles and the
//! observed events), one [`Failure`] carrying the family's [`Shape`], one
//! sweep ([`Family::fuzz`]), one replay ([`Family::run_seed`]) and one
//! shrinker ([`Family::shrink`]): its schedule half serves both families,
//! and the random family alone supplies shape steps. Both build and run
//! machines through one Typhoon leg and one DirNNB leg (private to
//! [`fuzz`](mod@fuzz)). [`FuzzOptions`] carries
//! everything the CLI can force on top of a seed's own draw.
//!
//! [`scenarios`] carries known-broken protocols (promoted from the old
//! `tt-typhoon` failure-injection tests) that the harness must catch:
//! a protocol that never invalidates, a protocol that loses resumes,
//! and a planted single-line Stache bug ([`scenarios::SkipInvalidate`])
//! that skips the invalidation an `INV` message demands while still
//! acknowledging it.
//!
//! The `tt-check` binary (in `tt-bench`) drives fuzzing runs and writes
//! a JSON report; see the repository README for a quick start.
//!
//! [`TyphoonMachine::run_observed`]: tt_typhoon::TyphoonMachine::run_observed

pub mod fuzz;
pub mod invariants;
pub mod kvlitmus;
pub mod litmus;
pub mod scenarios;

pub use fuzz::{stache_factory, Failure, Family, FuzzOptions, PerturbConfig, Shape};
