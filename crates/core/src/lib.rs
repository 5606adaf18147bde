//! **Tempest** — the user-level shared-memory interface (paper Section 2).
//!
//! Tempest is the paper's primary contribution: a parallel-machine
//! interface that exposes families of *mechanisms* so that user-level
//! code — compilers, run-time libraries, or application programmers — can
//! implement shared-memory *policies* themselves. This crate models the
//! three that the protocols the paper evaluates use:
//!
//! 1. **Low-overhead messages** ([`msg`]): active messages whose arrival
//!    spawns a handler thread that runs atomically to completion,
//!    logically concurrent with the computation thread.
//! 2. **Virtual memory management** ([`TempestCtx`] map/unmap/alloc):
//!    user-level allocation of physical pages at chosen virtual addresses
//!    in the shared segment, with user-level page-fault handlers.
//! 3. **Fine-grain access control** ([`access`]): ReadWrite / ReadOnly /
//!    Invalid tags on aligned 32-byte blocks, checked on every processor
//!    load and store, with the nine operations of Table 1.
//!
//! The fourth family, bulk data transfer (Section 2.2), is not modelled:
//! Stache and the custom protocols move data one 32-byte block per
//! message, so no evaluated result depends on it (DESIGN.md §2).
//!
//! A shared-memory protocol is a type implementing [`Protocol`]; one
//! instance runs on each node's network interface processor and reacts to
//! page faults, block access faults, incoming messages, and explicit
//! application calls. All interaction with the machine goes through
//! [`TempestCtx`], so the same protocol code runs on any machine that
//! implements the interface (the paper makes the same portability
//! argument for Typhoon vs. a hypothetical CM-5 software implementation).
//!
//! The transparent-shared-memory protocol built on this interface
//! (Stache, paper Section 3) and the custom EM3D protocol (Section 4)
//! live in the `tt-stache` crate; the Typhoon hardware model that
//! implements this interface lives in `tt-typhoon`.
//!
//! # Example: a trivial protocol
//!
//! ```
//! use tt_tempest::{BlockFault, Message, PageFault, Protocol, TempestCtx};
//! use tt_base::NodeId;
//!
//! /// Counts faults; panics on messages (it never sends any).
//! #[derive(Default)]
//! struct CountingProtocol {
//!     faults: u64,
//! }
//!
//! impl Protocol for CountingProtocol {
//!     fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault) {
//!         self.faults += 1;
//!         // Allocate and map a page, make it writable, retry the access.
//!         let ppn = ctx.alloc_page();
//!         ctx.map_page(fault.addr.page(), ppn).unwrap();
//!         ctx.set_page_tags(fault.addr.page(), tt_mem::Tag::ReadWrite);
//!         ctx.resume(fault.thread);
//!     }
//!     fn on_block_fault(&mut self, _ctx: &mut dyn TempestCtx, _fault: BlockFault) {
//!         unreachable!("pages are mapped fully writable");
//!     }
//!     fn on_message(&mut self, _ctx: &mut dyn TempestCtx, _msg: Message) {
//!         unreachable!("this protocol never sends messages");
//!     }
//! }
//! ```

pub mod access;
pub mod ctx;
pub mod fault;
pub mod inspect;
pub mod msg;
pub mod protocol;
pub mod testing;

pub use access::TagOp;
pub use ctx::TempestCtx;
pub use fault::{BlockFault, NetFault, PageFault, ThreadId};
pub use inspect::{BlockDirSnapshot, DirSnapshotState, VnPolicy};
pub use msg::{HandlerId, Message};
pub use protocol::{Protocol, UserCall};
