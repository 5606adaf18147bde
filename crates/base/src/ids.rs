//! Node identifiers.

use std::fmt;

/// Identifies one processing node of the simulated parallel machine.
///
/// The paper's target systems have 32 nodes; this reproduction supports any
/// node count up to `u16::MAX`, and the Stache directory falls back from
/// six explicit pointers to a bit vector exactly as the paper describes
/// when the machine has at most 32 nodes (see `tt-stache`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id.
    #[inline]
    pub const fn new(n: u16) -> Self {
        NodeId(n)
    }

    /// The raw id.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The id as a `usize`, for indexing per-node tables.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for NodeId {
    fn from(n: u16) -> Self {
        NodeId(n)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_the_raw_id() {
        assert_eq!(NodeId::new(3).index(), 3);
        assert_eq!(NodeId::new(3).raw(), 3);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", NodeId::new(5)), "n5");
    }
}
