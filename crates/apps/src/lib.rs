//! The five benchmark workloads of the paper's evaluation (Section 6,
//! Table 3), re-implemented as op-stream generators:
//!
//! | App    | Domain                          | Small set          | Large set            |
//! |--------|---------------------------------|--------------------|----------------------|
//! | Appbt  | CFD, block-tridiagonal NAS kernel | 12×12×12         | 24×24×24             |
//! | Barnes | gravitational N-body (Barnes-Hut) | 2,048 bodies     | 8,192 bodies         |
//! | MP3D   | rarefied fluid flow (wind tunnel) | 10,000 molecules | 50,000 molecules     |
//! | Ocean  | hydrodynamic 2-D basin simulation | 98×98 grid       | 386×386 grid         |
//! | EM3D   | electromagnetic wave propagation  | 64,000 nodes, °10 | 192,000 nodes, °15  |
//!
//! Each kernel *natively* computes its values in Rust while emitting the
//! shared-memory reference stream (reads/writes/compute/barriers) that a
//! 32-way SPMD execution of the original program would issue. The native
//! values ride along in the ops, so simulated machines can verify every
//! load against a sequentially consistent execution — the workloads
//! double as coherence-protocol oracles.
//!
//! All five follow the owners-compute rule and a barrier-phase structure;
//! [`phased::PhasedWorkload`] turns a phase generator into the chunked
//! [`Workload`](tt_base::workload::Workload) interface the machines
//! consume, keeping at most one phase of ops in memory.
//!
//! Simplifications relative to the originals are documented per module
//! (e.g. private data — stacks, edge weights — is modeled as compute
//! cycles, exactly as the paper's simulator ignored stack references).

// Stencil and vector kernels index several parallel arrays with one
// loop variable; iterator zips would obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod alloc;
pub mod appbt;
pub mod barnes;
pub mod datasets;
pub mod em3d;
pub mod kv_update;
pub mod mp3d;
pub mod ocean;
pub mod phased;

pub use datasets::{AppId, DataSet};
pub use kv_update::{run_kv_update, KvUpdateProtocol};
pub use phased::{PhasedApp, PhasedWorkload};

/// How the delayed-update apps ([`em3d`], [`ocean`]) synchronize phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Hardware barrier between phases (transparent shared memory).
    Barrier,
    /// Custom-mode pages and a phase-end flush call to the delayed-update
    /// protocol (`tt_stache::Em3dUpdateProtocol`), which pushes the
    /// freshly written values to the nodes holding copies.
    Flush,
}
