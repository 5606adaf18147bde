//! **DirNNB** — the all-hardware directory-protocol baseline
//! (paper Section 6).
//!
//! The paper compares Typhoon/Stache against "a conventional,
//! all-hardware, directory-based Dir_N NB cache-coherence protocol":
//! a full-map directory (one presence bit per node — `Dir_N`) with no
//! broadcast (`NB`), modeled in the Wisconsin Wind Tunnel with the cost
//! formulas of Table 2:
//!
//! - remote cache miss: `23 + (5|16 if replacement) + network/directory
//!   cost + 34`;
//! - remote cache invalidate: `8 + (5|16 if replacement)`;
//! - directory operation: `16 + 11 if block received + 5 per message
//!   sent + 11 if block sent`.
//!
//! This crate reproduces that model: the same processor as Typhoon
//! (`tt_sim::cpu::Cpu`: CPU, data cache, TLB, access counters and load
//! retirement) and the same workload op streams, but coherence handled
//! by a cost-modeled hardware directory at each page's home node rather
//! than by user-level software. Dirty ownership migrates through the home
//! (recall, then grant); invalidations fan out from the home and are
//! acknowledged; shared victims are dropped silently (no-broadcast
//! directories tolerate stale presence bits by acknowledging
//! invalidations for blocks no longer cached).
//!
//! Since DirNNB provides hardware-coherent shared memory, the functional
//! data image is a single global store: loads always observe the current
//! word, and the directory machinery contributes timing (and the cache
//! models decide hit/miss).

pub mod machine;

pub use machine::{DirnnbMachine, RunResult};
