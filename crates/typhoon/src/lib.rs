//! **Typhoon** — a machine implementing the Tempest interface
//! (paper Section 5).
//!
//! A Typhoon node is a commodity workstation-class processor plus one
//! custom device: the **network interface processor (NP)**, a
//! fully-programmable user-level processor sitting on the memory bus.
//! The NP
//!
//! - snoops the CPU's bus transactions and enforces fine-grain access
//!   tags via a **reverse TLB** (RTLB) indexed by physical page number;
//! - suspends faulting accesses ("relinquish and retry" + bus-request
//!   masking) and deposits fault records in the **BAF buffer**;
//! - runs user-level protocol handlers via a hardware-assisted,
//!   non-preemptive dispatch loop (priority: response network, then
//!   faults, then request network, then application calls);
//! - sends and receives active messages.
//!
//! This crate models all of that with the event-driven engine from
//! `tt-sim`, executing a machine-independent workload op stream
//! (`tt_base::workload`) against a user-level [`Protocol`]
//! (`tt_tempest::Protocol`). Timing follows Table 2 of the paper; see
//! `tt_base::config`. The processor — CPU, data cache, TLB, access
//! counters and load retirement — is the one DirNNB runs too
//! (`tt_sim::cpu::Cpu`); this crate adds the NP and the bus monitor's
//! tag checks on the CPU's bus transactions.
//!
//! Like the Wisconsin Wind Tunnel the paper used, CPU execution is
//! *quantum-batched*: a CPU executes up to one network latency of work
//! per event, so cross-processor effects are observed with at most one
//! quantum of skew — the same conservative-window argument WWT makes.
//! Fault/handler/resume paths are exact.
//!
//! [`Protocol`]: tt_tempest::Protocol

mod cpu;
pub mod ctx;
pub mod machine;
pub mod np;

pub use machine::{Event, RunResult, TyphoonMachine};
