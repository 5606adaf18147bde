//! The fine-grain access-control operations of Table 1.
//!
//! Tempest defines nine operations on tagged memory blocks. They split
//! into three groups:
//!
//! | Operation     | Where it runs            | In this reproduction |
//! |---------------|--------------------------|----------------------|
//! | `read`        | CPU loads                | issued by workloads, checked by the machine |
//! | `write`       | CPU stores               | issued by workloads, checked by the machine |
//! | `force-read`  | protocol handlers        | [`TempestCtx::force_read_block`] |
//! | `force-write` | protocol handlers        | [`TempestCtx::force_write_block`] |
//! | `read-tag`    | protocol handlers        | [`TempestCtx::read_tag`] |
//! | `set-RW`      | protocol handlers        | [`TempestCtx::set_tag`] with [`Tag::ReadWrite`] |
//! | `set-RO`      | protocol handlers        | [`TempestCtx::set_tag`] with [`Tag::ReadOnly`] |
//! | `invalidate`  | protocol handlers        | [`TempestCtx::set_tag`] with [`Tag::Invalid`] (also purges CPU-cached copies) |
//! | `resume`      | protocol handlers        | [`TempestCtx::resume`] |
//!
//! [`TagOp`] names the operations; `tables` prints Table 1 from it.
//!
//! [`TempestCtx::force_read_block`]: crate::TempestCtx::force_read_block
//! [`TempestCtx::force_write_block`]: crate::TempestCtx::force_write_block
//! [`TempestCtx::read_tag`]: crate::TempestCtx::read_tag
//! [`TempestCtx::set_tag`]: crate::TempestCtx::set_tag
//! [`TempestCtx::resume`]: crate::TempestCtx::resume
//! [`Tag::ReadWrite`]: tt_mem::Tag::ReadWrite
//! [`Tag::ReadOnly`]: tt_mem::Tag::ReadOnly
//! [`Tag::Invalid`]: tt_mem::Tag::Invalid

/// The nine Tempest operations on tagged memory blocks (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TagOp {
    /// Load with tag check; faults suspend the thread and invoke a handler.
    Read,
    /// Store with tag check; faults suspend the thread and invoke a handler.
    Write,
    /// Load without tag check.
    ForceRead,
    /// Store without tag check.
    ForceWrite,
    /// Return the value of the tag.
    ReadTag,
    /// Set the tag to `ReadWrite`.
    SetRw,
    /// Set the tag to `ReadOnly`.
    SetRo,
    /// Set the tag to `Invalid` and invalidate any local cached copies.
    Invalidate,
    /// Resume suspended thread(s).
    Resume,
}

impl TagOp {
    /// All nine operations, in Table 1 order.
    pub const ALL: [TagOp; 9] = [
        TagOp::Read,
        TagOp::Write,
        TagOp::ForceRead,
        TagOp::ForceWrite,
        TagOp::ReadTag,
        TagOp::SetRw,
        TagOp::SetRo,
        TagOp::Invalidate,
        TagOp::Resume,
    ];

    /// The Table 1 name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            TagOp::Read => "read",
            TagOp::Write => "write",
            TagOp::ForceRead => "force-read",
            TagOp::ForceWrite => "force-write",
            TagOp::ReadTag => "read-tag",
            TagOp::SetRw => "set-RW",
            TagOp::SetRo => "set-RO",
            TagOp::Invalidate => "invalidate",
            TagOp::Resume => "resume",
        }
    }

    /// The Table 1 description of the operation.
    pub fn description(self) -> &'static str {
        match self {
            TagOp::Read => {
                "Load with tag check; if access fault, suspend thread and invoke handler"
            }
            TagOp::Write => {
                "Store with tag check; if access fault, suspend thread and invoke handler"
            }
            TagOp::ForceRead => "Load without tag check",
            TagOp::ForceWrite => "Store without tag check",
            TagOp::ReadTag => "Return value of tag",
            TagOp::SetRw => "Set tag value to ReadWrite",
            TagOp::SetRo => "Set tag value to ReadOnly",
            TagOp::Invalidate => "Set tag value to Invalid and invalidate any local copies",
            TagOp::Resume => "Resume suspended thread(s)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_has_nine_operations() {
        assert_eq!(TagOp::ALL.len(), 9);
        let names: Vec<_> = TagOp::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec![
                "read",
                "write",
                "force-read",
                "force-write",
                "read-tag",
                "set-RW",
                "set-RO",
                "invalidate",
                "resume"
            ]
        );
    }

    #[test]
    fn descriptions_are_nonempty() {
        for op in TagOp::ALL {
            assert!(!op.description().is_empty());
        }
    }
}
