//! Common foundation types for the Tempest/Typhoon reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! - [`addr`] — virtual/physical addresses and the memory geometry of the
//!   simulated machine (32-byte blocks, 4-kilobyte pages, 8-byte words);
//! - [`cycles`] — the simulated time unit;
//! - [`ids`] — node and thread identifiers;
//! - [`config`] — the full simulation parameter set of Table 2 of the paper;
//! - [`rng`] — a small deterministic random-number generator so that every
//!   simulation run is bit-reproducible from its seed;
//! - [`stats`] — counters and histograms collected by the machines;
//! - [`table`] — a plain-text table formatter used by the bench harness.
//!
//! # Example
//!
//! ```
//! use tt_base::addr::VAddr;
//! use tt_base::config::SystemConfig;
//!
//! let a = VAddr::new(0x1000_0048);
//! assert_eq!(a.block_base(), VAddr::new(0x1000_0040));
//! let cfg = SystemConfig::default();
//! assert_eq!(cfg.nodes, 32);
//! ```

pub mod addr;
pub mod alloc_stats;
pub mod config;
pub mod cycles;
pub mod fxhash;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod table;
pub mod workload;

pub use addr::VAddr;
pub use config::{FaultSpec, SystemConfig, Topology, WindowPolicy, PARTITION_RUN};
pub use cycles::Cycles;
pub use fxhash::{FxHashMap, FxHashSet};
pub use ids::NodeId;
pub use rng::{mix64, DetRng, Zipf};
