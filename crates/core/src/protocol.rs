//! The [`Protocol`] trait: user-level shared-memory policy code.
//!
//! One `Protocol` value runs on each node's network interface processor.
//! The machine invokes it for page faults, block access faults, incoming
//! messages, and explicit application calls; the protocol reacts through
//! the [`TempestCtx`] it is handed. Handlers run atomically and to
//! completion (Section 5.1's non-preemptive scheduling), which the
//! single-threaded simulation provides by construction.
//!
//! The paper's argument is that this interface is *sufficient* to build
//! transparent shared memory (Stache, `tt-stache::stache`), message
//! passing (trivially), and hybrid protocols (the EM3D delayed-update
//! protocol, `tt-stache::custom`) — all in user-level software.

use tt_base::stats::Report;

use crate::ctx::TempestCtx;
use crate::fault::{BlockFault, PageFault, ThreadId};
use crate::inspect::BlockDirSnapshot;
use crate::msg::Message;

/// An application's explicit call into its protocol library.
///
/// Custom protocols export operations the application invokes directly —
/// for EM3D, the end-of-phase flush that replaces the barrier. The
/// calling thread is suspended until the protocol resumes it, so a call
/// can implement blocking synchronization (e.g. a fuzzy barrier).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UserCall {
    /// Protocol-defined operation code.
    pub op: u32,
    /// Protocol-defined argument.
    pub arg: u64,
}

/// User-level shared-memory policy code for one node.
///
/// `Send` so a machine, protocols included, can be handed to another
/// thread; a protocol only ever executes on one thread at a time
/// (handlers stay atomic).
pub trait Protocol: Send {
    /// Called once before the simulation starts, after all nodes'
    /// protocols are constructed; typically maps home pages and
    /// initializes directories.
    fn init(&mut self, _ctx: &mut dyn TempestCtx) {}

    /// Handles an access to an unmapped page of the user-managed segment.
    /// Must eventually lead to `ctx.resume(fault.thread)`.
    fn on_page_fault(&mut self, ctx: &mut dyn TempestCtx, fault: PageFault);

    /// Handles a block access fault. Must eventually lead to
    /// `ctx.resume(fault.thread)` (usually after a remote block arrives).
    fn on_block_fault(&mut self, ctx: &mut dyn TempestCtx, fault: BlockFault);

    /// Handles an incoming active message.
    fn on_message(&mut self, ctx: &mut dyn TempestCtx, msg: Message);

    /// Handles a protocol timer armed with [`TempestCtx::set_timer`]
    /// firing. Firings may be spurious (a timer re-armed later still
    /// fires at its old deadline), so implementations must re-check
    /// their own state. The default ignores timers.
    fn on_timer(&mut self, _ctx: &mut dyn TempestCtx, _token: u64) {}

    /// Handles an explicit application call. The calling thread is
    /// suspended; the default implementation resumes it immediately
    /// (i.e. unknown calls are no-ops).
    fn on_user_call(&mut self, ctx: &mut dyn TempestCtx, thread: ThreadId, _call: UserCall) {
        ctx.resume(thread);
    }

    /// Appends protocol-specific statistics to a report.
    fn report(&self, _report: &mut Report) {}

    /// Appends snapshots of the home-block directory entries this node
    /// maintains, for the `tt-check` tag/directory-agreement invariant.
    /// The default exposes nothing: protocols without a directory (or
    /// that opt out of checking) need no changes, and production runs
    /// never call this.
    fn inspect_directory(&self, _out: &mut Vec<BlockDirSnapshot>) {}
}
