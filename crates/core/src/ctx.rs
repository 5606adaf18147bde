//! [`TempestCtx`] — the machine services available to protocol handlers.
//!
//! A protocol handler runs on the node's network interface processor and
//! interacts with the machine exclusively through this trait: sending
//! messages, managing the node's address space, manipulating fine-grain
//! access tags, moving data with force reads/writes, charging its own
//! execution cost, and resuming suspended computation threads.
//!
//! `TempestCtx` is an object-safe trait so that protocol crates compile
//! independently of any particular machine; `tt-typhoon` provides the
//! real implementation, and tests use lightweight mock contexts.

use tt_base::addr::{Ppn, VAddr, Vpn, BLOCK_BYTES};
use tt_base::{Cycles, NodeId};
use tt_mem::ptable::MapError;
use tt_mem::{PageMeta, Tag};
use tt_net::{Payload, VirtualNet};

use crate::fault::{NetFault, ThreadId};
use crate::msg::HandlerId;

/// Machine services available to user-level protocol handlers.
///
/// # Cost accounting
///
/// Handler execution time is charged explicitly: structural costs
/// (dispatch, message send/receive occupancy) are charged by the machine,
/// and each handler charges its own instruction count via
/// [`TempestCtx::charge`] — mirroring the paper's methodology of counting
/// NP instructions at one cycle each. Accesses to protocol data
/// structures (directories, copy lists) go through
/// [`TempestCtx::protocol_data_access`], which simulates the NP's data
/// cache and charges a memory delay on a miss.
pub trait TempestCtx {
    /// This node's id.
    fn node(&self) -> NodeId;

    /// Current simulated time.
    fn now(&self) -> Cycles;

    /// Charges `instructions` NP instructions (one cycle each) to the
    /// currently running handler.
    fn charge(&mut self, instructions: u64);

    /// Models an NP access to a protocol data structure identified by a
    /// stable key (e.g. a directory entry's address); charges the NP
    /// data-cache hit or miss cost.
    fn protocol_data_access(&mut self, key: u64);

    // --- Messages (Section 2.1) ---

    /// Sends an active message. Requests must travel on
    /// [`VirtualNet::Request`] and responses on [`VirtualNet::Response`]
    /// for the protocol to be deadlock-free (Section 5.1).
    fn send(&mut self, dst: NodeId, vn: VirtualNet, handler: HandlerId, payload: Payload);

    // --- Protocol timers (retransmission support) ---

    /// Arms (or re-arms) a protocol timer: at cycle `at` (clamped to no
    /// earlier than now) the machine invokes
    /// [`crate::Protocol::on_timer`] with `token` on this node's NP.
    /// Timers are a machine service like message delivery: the firing is
    /// an ordinary NP work item, so it participates in the same
    /// deterministic event order as everything else.
    ///
    /// The default panics: a machine (or mock) that hands protocols no
    /// timer facility cannot host a retransmitting transport.
    fn set_timer(&mut self, at: Cycles, token: u64) {
        let _ = (at, token);
        panic!("this machine does not support protocol timers");
    }

    /// Reports an unrecoverable network fault (a reliable transport
    /// exhausted its retry budget). The default terminates the run with
    /// the fault's diagnostic — deterministic graceful degradation
    /// rather than a silent hang behind a dead link.
    fn raise_net_fault(&mut self, fault: NetFault) {
        panic!("{fault}");
    }

    // --- Virtual memory management (Section 2.3) ---

    /// Allocates a zeroed local physical page (all block tags `Invalid`).
    fn alloc_page(&mut self) -> Ppn;

    /// Frees a local physical page.
    fn free_page(&mut self, ppn: Ppn);

    /// Maps `vpn` to the local frame `ppn`.
    ///
    /// # Errors
    ///
    /// Fails if `vpn` is already mapped.
    fn map_page(&mut self, vpn: Vpn, ppn: Ppn) -> Result<(), MapError>;

    /// Unmaps `vpn`, returning the frame it mapped. Flushes the TLBs.
    ///
    /// # Errors
    ///
    /// Fails if `vpn` is not mapped.
    fn unmap_page(&mut self, vpn: Vpn) -> Result<Ppn, MapError>;

    /// The frame `vpn` maps to, if any.
    fn translate(&self, vpn: Vpn) -> Option<Ppn>;

    /// Writes the RTLB-visible metadata of the frame mapping `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not mapped.
    fn set_page_meta(&mut self, vpn: Vpn, meta: PageMeta);

    // --- Fine-grain access control (Section 2.4, Table 1) ---

    /// `read-tag`: the tag of the block containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not mapped (protocol bug: on Typhoon an NP
    /// page fault is a user programming error that terminates the
    /// program, Section 5.1).
    fn read_tag(&self, addr: VAddr) -> Tag;

    /// `set-RW` / `set-RO` / `invalidate` / Busy marking: sets the tag of
    /// the block containing `addr`, and keeps the primary CPU's cache
    /// consistent with the new tag (downgrading or purging its copy as
    /// required, as the NP does via MBus transactions).
    fn set_tag(&mut self, addr: VAddr, tag: Tag);

    /// Sets every block tag on the page at `vpn` (page initialization).
    fn set_page_tags(&mut self, vpn: Vpn, tag: Tag);

    /// `force-read` of the whole block containing `addr`.
    fn force_read_block(&mut self, addr: VAddr) -> [u8; BLOCK_BYTES];

    /// `force-write` of the whole block containing `addr`.
    fn force_write_block(&mut self, addr: VAddr, block: &[u8; BLOCK_BYTES]);

    /// `resume`: unsuspends a thread previously stopped by a fault or a
    /// blocking protocol call; the thread retries its access.
    fn resume(&mut self, thread: ThreadId);
}
