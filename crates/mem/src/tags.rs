//! Fine-grain access-control tags (paper Section 2.4).
//!
//! Every aligned 32-byte memory block carries an access tag. Loads and
//! stores are checked against the tag; a disallowed access is a *block
//! access fault* that suspends the computation thread and invokes a
//! user-level handler. These tags are the mechanism that makes user-level
//! transparent shared memory (Stache) possible.

use std::fmt;

/// The access tag of one memory block.
///
/// `ReadWrite`, `ReadOnly` and `Invalid` are the Tempest-visible values
/// (Table 1). `Busy` is Typhoon's fourth RTLB encoding (Section 5.4): it
/// faults exactly like `Invalid`, but lets protocol software distinguish
/// blocks that need special handling, e.g. blocks with a request already
/// outstanding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Reads and writes complete normally.
    ReadWrite,
    /// Reads complete; writes fault.
    ReadOnly,
    /// All accesses fault.
    #[default]
    Invalid,
    /// Same access semantics as [`Tag::Invalid`]; distinguishable by
    /// protocol software (e.g. "request outstanding").
    Busy,
}

impl Tag {
    /// The 2-bit RTLB encoding of this tag. `Invalid` is zero so a
    /// freshly zeroed tag word means "everything faults", matching the
    /// hardware's power-on state and [`PackedTags::default`].
    #[inline]
    pub(crate) const fn code(self) -> u64 {
        match self {
            Tag::Invalid => 0,
            Tag::ReadOnly => 1,
            Tag::ReadWrite => 2,
            Tag::Busy => 3,
        }
    }

    /// Decodes a 2-bit RTLB encoding (inverse of [`Tag::code`]).
    #[inline]
    pub(crate) const fn from_code(code: u64) -> Tag {
        match code & 0b11 {
            0 => Tag::Invalid,
            1 => Tag::ReadOnly,
            2 => Tag::ReadWrite,
            _ => Tag::Busy,
        }
    }

    /// Whether an access of the given kind completes without a fault.
    #[inline]
    pub fn permits(self, kind: AccessKind) -> bool {
        matches!((self, kind), (Tag::ReadWrite, _) | (Tag::ReadOnly, AccessKind::Load))
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tag::ReadWrite => "RW",
            Tag::ReadOnly => "RO",
            Tag::Invalid => "INV",
            Tag::Busy => "BUSY",
        };
        f.write_str(s)
    }
}

/// Number of `u64` words holding one page's worth of 2-bit block tags.
pub(crate) const TAG_WORDS: usize = tt_base::addr::BLOCKS_PER_PAGE / BLOCKS_PER_WORD;

/// Blocks whose tags fit in one `u64` (2 bits each).
const BLOCKS_PER_WORD: usize = 32;

/// Replicates a 2-bit tag code across all 32 lanes of a word.
#[inline]
const fn splat(tag: Tag) -> u64 {
    tag.code() * 0x5555_5555_5555_5555
}

/// One page's block tags, packed 2 bits per block — the RTLB's tag-array
/// layout (Section 5.4) rather than one byte-sized enum per block.
///
/// Beyond the 4× space saving, packing makes [`PackedTags::set_all`]
/// O(1): it stores `TAG_WORDS` splatted words instead of looping over
/// 128 blocks.
///
/// # Example
///
/// ```
/// use tt_mem::tags::{PackedTags, Tag};
///
/// let mut tags = PackedTags::default();
/// assert_eq!(tags.get(5), Tag::Invalid);
/// tags.set(5, Tag::ReadWrite);
/// assert_eq!(tags.get(5), Tag::ReadWrite);
/// tags.set_all(Tag::ReadOnly);
/// assert_eq!(tags.get(5), Tag::ReadOnly);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedTags {
    words: [u64; TAG_WORDS],
}

impl Default for PackedTags {
    /// All blocks `Invalid` (the all-zero bit pattern).
    fn default() -> Self {
        PackedTags { words: [0; TAG_WORDS] }
    }
}

impl PackedTags {
    /// The tag of block `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn get(&self, idx: usize) -> Tag {
        let word = self.words[idx / BLOCKS_PER_WORD];
        Tag::from_code(word >> (2 * (idx % BLOCKS_PER_WORD)))
    }

    /// Sets the tag of block `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn set(&mut self, idx: usize, tag: Tag) {
        let shift = 2 * (idx % BLOCKS_PER_WORD);
        let word = &mut self.words[idx / BLOCKS_PER_WORD];
        *word = (*word & !(0b11 << shift)) | (tag.code() << shift);
    }

    /// Sets every block's tag in O(1) word stores.
    #[inline]
    pub fn set_all(&mut self, tag: Tag) {
        self.words = [splat(tag); TAG_WORDS];
    }
}

/// The kind of a tag-checked memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A processor load (Tempest `read`).
    Load,
    /// A processor store (Tempest `write`).
    Store,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permission_matrix_matches_section_2_4() {
        use AccessKind::*;
        assert!(Tag::ReadWrite.permits(Load));
        assert!(Tag::ReadWrite.permits(Store));
        assert!(Tag::ReadOnly.permits(Load));
        assert!(!Tag::ReadOnly.permits(Store));
        assert!(!Tag::Invalid.permits(Load));
        assert!(!Tag::Invalid.permits(Store));
        assert!(!Tag::Busy.permits(Load));
        assert!(!Tag::Busy.permits(Store));
    }

    #[test]
    fn busy_faults_like_invalid_but_is_distinguishable() {
        for kind in [AccessKind::Load, AccessKind::Store] {
            assert_eq!(Tag::Busy.permits(kind), Tag::Invalid.permits(kind));
        }
        assert_ne!(Tag::Busy, Tag::Invalid);
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(Tag::default(), Tag::Invalid);
    }

    #[test]
    fn display_is_short() {
        assert_eq!(Tag::ReadWrite.to_string(), "RW");
        assert_eq!(Tag::Busy.to_string(), "BUSY");
    }

    #[test]
    fn codes_round_trip() {
        for t in [Tag::ReadWrite, Tag::ReadOnly, Tag::Invalid, Tag::Busy] {
            assert_eq!(Tag::from_code(t.code()), t);
        }
        assert_eq!(Tag::Invalid.code(), 0, "zeroed tag words mean Invalid");
    }

    #[test]
    fn packed_tags_match_a_byte_array_model() {
        let mut packed = PackedTags::default();
        let mut model = [Tag::Invalid; tt_base::addr::BLOCKS_PER_PAGE];
        // Deterministic pseudo-random update sequence.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = (x as usize >> 8) % model.len();
            let tag = Tag::from_code(x);
            packed.set(idx, tag);
            model[idx] = tag;
            assert_eq!(packed.get(idx), tag);
        }
        for (i, &t) in model.iter().enumerate() {
            assert_eq!(packed.get(i), t, "block {i}");
        }
    }

    #[test]
    fn last_block_in_frame_is_addressable() {
        let last = tt_base::addr::BLOCKS_PER_PAGE - 1;
        let mut p = PackedTags::default();
        p.set(last, Tag::ReadWrite);
        assert_eq!(p.get(last), Tag::ReadWrite);
        // The top word's high lanes hold it; its neighbors are untouched.
        assert_eq!(p.get(last - 1), Tag::Invalid);
        let writable = (0..=last).filter(|&i| p.get(i) == Tag::ReadWrite).count();
        assert_eq!(writable, 1);
        p.set(last, Tag::Invalid);
        assert_eq!(p, PackedTags::default());
    }

    #[test]
    fn single_block_downgrade_after_set_all_touches_one_block() {
        let mut all_rw = PackedTags::default();
        all_rw.set_all(Tag::ReadWrite);
        for victim in [0, 31, 32, 63, 64, tt_base::addr::BLOCKS_PER_PAGE - 1] {
            let mut p = all_rw;
            p.set(victim, Tag::ReadOnly);
            assert_eq!(p.get(victim), Tag::ReadOnly);
            // Every other block still reads back ReadWrite.
            for i in (0..tt_base::addr::BLOCKS_PER_PAGE).filter(|&i| i != victim) {
                assert_eq!(p.get(i), Tag::ReadWrite, "block {i} after downgrading {victim}");
            }
            p.set(victim, Tag::ReadWrite);
            assert_eq!(p, all_rw, "victim {victim}");
        }
    }

    #[test]
    fn every_tag_round_trips_at_every_block_index() {
        for tag in [Tag::ReadWrite, Tag::ReadOnly, Tag::Invalid, Tag::Busy] {
            for idx in 0..tt_base::addr::BLOCKS_PER_PAGE {
                let mut p = PackedTags::default();
                p.set(idx, tag);
                assert_eq!(p.get(idx), tag, "tag {tag} at block {idx}");
                // Word-boundary neighbors must be unaffected.
                if idx > 0 {
                    assert_eq!(p.get(idx - 1), Tag::Invalid);
                }
                if idx + 1 < tt_base::addr::BLOCKS_PER_PAGE {
                    assert_eq!(p.get(idx + 1), Tag::Invalid);
                }
            }
        }
    }
}
