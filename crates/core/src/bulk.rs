//! Bulk node-to-node data transfers (paper Section 2.2).
//!
//! A bulk transfer moves a virtually addressed byte range from this node
//! to a destination node asynchronously with respect to the computation
//! thread, like a DMA transaction. The machine packetizes the range: a
//! maximum-size packet carries a handler word, an address, and 64 bytes
//! of data with two words to spare (Section 5.2). Completion can invoke
//! user handlers on either end, so user code can build scatter-gather
//! operations.

use tt_base::{NodeId, VAddr};

use crate::msg::HandlerId;

/// Data bytes carried by a maximum-size bulk packet (Section 5.2).
pub const BULK_PACKET_DATA_BYTES: usize = 64;

/// A request to move `bytes` bytes from `src_addr` on the requesting node
/// to `dst_addr` on node `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BulkRequest {
    /// Destination node.
    pub dst: NodeId,
    /// Source virtual address on the requesting node.
    pub src_addr: VAddr,
    /// Destination virtual address on `dst`.
    pub dst_addr: VAddr,
    /// Length in bytes. Must be word-aligned.
    pub bytes: usize,
    /// Handler invoked on the *source* node when the last packet has been
    /// injected and acknowledged, with args `[src_addr, dst_addr, bytes]`.
    pub notify_src: Option<HandlerId>,
    /// Handler invoked on the *destination* node when the last packet has
    /// been written, with args `[src_addr, dst_addr, bytes]`.
    pub notify_dst: Option<HandlerId>,
}
