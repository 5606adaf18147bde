//! `tt-serve` — distributed key-value serving on the Tempest interface.
//!
//! The paper's claim is that user-level shared memory lets *applications*
//! choose their coherence policy. This crate stages that argument on a
//! workload the original authors could not have benchmarked but whose
//! access pattern they anticipated exactly: a distributed KV cache under
//! a skewed (Zipfian) request mix.
//!
//! - [`layout`] — keys hashed into the shared segment: one slot per key
//!   (version/length header word + fixed-size value), scattered across
//!   cyclically-homed pages so hot keys spread over the machine, plus a
//!   per-node staging page for the update variant's puts.
//! - [`workload`] — a deterministic *open-loop* client population:
//!   Poisson arrivals realized with `Op::WaitUntil`, Zipf-distributed
//!   keys, read-mostly (95/5) and write-heavy (50/50) mixes, all derived
//!   from per-node forks of one seed.
//! - [`lat`] — per-request latency in simulated cycles, recorded by the
//!   protocol at a stamp user-call and merged across nodes into
//!   order-independent histograms (p50/p99/p999 come out bit-identical
//!   however many simulator threads ran).
//! - [`protocol`] — the baseline server: Stache's transparent
//!   invalidation coherence plus the stamp call.
//! - [`run`] — one-call runners that wire workload, machine, protocol,
//!   and collector together.
//!
//! The specialized hot-key *write-update* protocol — the payoff of the
//! comparison — is `tt_apps::kv_update::KvUpdateProtocol`, an
//! application-level custom protocol in the same sense as the paper's
//! EM3D update protocol. `tt-check`'s KV litmus family proves the two
//! variants observationally equivalent; `kv_bench` measures the gap.

pub mod lat;
pub mod layout;
pub mod protocol;
pub mod run;
pub mod workload;

pub use lat::{KvLatency, LatSink, SharedKvLatency};
pub use layout::{
    header_word, value_word, KvLayout, KV_MODE, KV_PUT_OP, KV_STAMP_OP, MAX_VALUE_WORDS,
};
pub use protocol::KvStacheProtocol;
pub use run::{run_kv, run_kv_stache, KvOutcome};
pub use workload::{KvParams, KvVariant, KvWorkload};
