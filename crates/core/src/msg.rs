//! Low-overhead active messages (paper Section 2.1).
//!
//! A Tempest message names a destination node, a *handler* to run on
//! arrival, and carries data. The handler executes atomically with
//! respect to other handlers, on a thread that is logically concurrent
//! with the node's computation thread (so critical sections, not
//! interrupt masking, protect shared protocol state — and there is no
//! priority-inversion problem).
//!
//! In the paper the head word of a packet is the handler's *program
//! counter*; here handlers are named by a [`HandlerId`] that the protocol
//! dispatches on in [`crate::Protocol::on_message`] — the same
//! hardware-assisted dispatch structure Typhoon implements (Section 5.1),
//! with Rust enums standing in for jump tables.

use std::fmt;

use tt_base::NodeId;
use tt_net::{Payload, VirtualNet};

/// Names the user-level handler a message invokes on arrival.
///
/// Protocols define their handler ids as constants (see `tt-stache` for
/// the Stache handler set).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HandlerId(pub u32);

impl HandlerId {
    /// The raw id.
    #[inline]
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for HandlerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A message in flight and as delivered to a protocol's message
/// handler. The network times only its header (`src`, `dst` and the
/// payload's wire size); the machine carries the message itself in its
/// delivery event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// The sending node.
    pub src: NodeId,
    /// The destination node.
    pub dst: NodeId,
    /// The virtual network the message travels on.
    pub vn: VirtualNet,
    /// The handler the sender named.
    pub handler: HandlerId,
    /// Argument words and optional data block.
    pub payload: Payload,
}

impl Message {
    /// Argument word `i`.
    ///
    /// # Panics
    ///
    /// Panics if the payload has fewer than `i + 1` words — a protocol
    /// bug, equivalent to a handler reading past the end of a packet.
    pub fn arg(&self, i: usize) -> u64 {
        self.payload.words()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_accessor() {
        let m = Message {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            vn: VirtualNet::Request,
            handler: HandlerId(1),
            payload: Payload::args(&[42, 43]),
        };
        assert_eq!(m.arg(0), 42);
        assert_eq!(m.arg(1), 43);
    }

    #[test]
    #[should_panic]
    fn missing_arg_panics() {
        let m = Message {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            vn: VirtualNet::Request,
            handler: HandlerId(1),
            payload: Payload::new(),
        };
        m.arg(0);
    }
}
