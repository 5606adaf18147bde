//! **Stache** — user-level transparent shared memory on Tempest
//! (paper Section 3), plus the custom EM3D delayed-update protocol
//! (paper Section 4).
//!
//! Stache manages part of each node's local memory as a large,
//! fully-associative cache for remote data — a software
//! "level-three cache" reminiscent of COMA machines, but built entirely
//! from the Tempest mechanisms:
//!
//! - shared data is allocated at page granularity on *home* nodes;
//! - a remote node's first touch of a shared page takes a **page fault**;
//!   the handler allocates a local *stache page*, maps it at the shared
//!   address with all block tags `Invalid`, and restarts the access;
//! - the restarted access takes a **block access fault**; the handler
//!   sends a request to the home node and terminates;
//! - the home's **message handler** performs the coherence actions
//!   (invalidation, recall) and returns the data; the reply handler
//!   installs it with a force-write, upgrades the tag, and resumes the
//!   thread. Subsequent accesses run at full hardware speed.
//!
//! Coherence is a software LimitLESS-style invalidation protocol
//! ([`stache`]): each home block has a compact directory entry — its
//! state plus six sharer pointers, falling back to a bit vector on
//! overflow. The home's transitions are decided by [`tt_mem::dir`], the
//! directory and home engine DirNNB's homes run too.
//! Page replacement is FIFO.
//!
//! The [`custom`] module shows the paper's real payoff: a protocol whose
//! *semantics* are customized per application. For EM3D's static
//! bipartite graph it replaces invalidation with **delayed updates**: home
//! nodes track outstanding copies and, at an explicit phase boundary,
//! push only the modified values — no invalidations, no acknowledgments,
//! and a fuzzy barrier implemented by counting expected updates.

pub mod custom;
pub mod stache;
pub mod transport;

pub use custom::Em3dUpdateProtocol;
pub use stache::{vn_policy, StacheProtocol};
pub use transport::{reliable_vn_policy, Reliable, ReliableConfig};
