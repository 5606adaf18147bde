//! Memory-system models for the Tempest/Typhoon reproduction.
//!
//! Functional state (page contents, access tags, page tables) is held in
//! [`memory::NodeMemory`] and [`ptable::PageTable`]; the cache and TLB
//! models ([`cache::CacheModel`], [`tlb::FifoTlb`]) are *timing* models
//! that decide which accesses hit, which miss, and which generate bus
//! transactions visible to Typhoon's network interface processor.
//!
//! - [`tags`] — the fine-grain access-control tags of Section 2.4
//!   (ReadWrite / ReadOnly / Invalid, plus Typhoon's Busy state);
//! - [`cache`] — a set-associative cache with random replacement and
//!   per-line ownership state (Table 2: 4-way CPU cache, 2-way NP cache);
//! - [`tlb`] — a fully-associative FIFO TLB, reused for the CPU TLB, the
//!   NP TLB, and the reverse TLB (all 64-entry in Table 2);
//! - [`memory`] — a node's paged physical memory carrying real data bytes,
//!   per-block tags, and the per-page metadata Typhoon's RTLB exposes to
//!   handlers (page mode + 48 bits of uninterpreted state). Frames are
//!   sparse: each stores only the blocks written with data, and an absent
//!   block reads as zero;
//! - [`ptable`] — a per-node virtual-to-physical page table;
//! - [`dir`] — the compact per-block coherence directory every home node
//!   keeps, and the home protocol engine that decides on it, Stache's and
//!   DirNNB's alike.

pub mod cache;
pub mod dir;
pub mod memory;
pub mod ptable;
pub mod tags;
pub mod tlb;

pub use cache::{CacheModel, Evicted, Probe};
pub use memory::{NodeMemory, PageFrame, PageMeta};
pub use ptable::PageTable;
pub use tags::{AccessKind, Tag};
pub use tlb::FifoTlb;
