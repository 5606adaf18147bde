//! Addresses and memory geometry.
//!
//! The simulated machine uses the geometry of the paper's Table 2:
//! 32-byte coherence blocks and 4-kilobyte pages. Words are 64 bits wide
//! (the paper's SPARC used 32-bit words; we model doubles, the dominant
//! datatype of all five benchmarks, as single-word accesses).
//!
//! Virtual and physical addresses are separate newtypes so that protocol
//! code cannot accidentally index a page table with a physical address or
//! a reverse TLB with a virtual one.

use std::fmt;

/// Bytes per coherence block (the fine-grain access-control granule).
pub const BLOCK_BYTES: usize = 32;
/// Bytes per virtual-memory page.
pub const PAGE_BYTES: usize = 4096;
/// Bytes per data word.
pub const WORD_BYTES: usize = 8;
/// Coherence blocks per page.
pub const BLOCKS_PER_PAGE: usize = PAGE_BYTES / BLOCK_BYTES;
/// Data words per coherence block.
pub const WORDS_PER_BLOCK: usize = BLOCK_BYTES / WORD_BYTES;

/// A virtual address in a node's (shared) address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(u64);

/// A physical address in a node's local memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(u64);

/// A virtual page number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Vpn(pub u64);

/// A physical page number (local to one node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Ppn(pub u64);

macro_rules! addr_impl {
    ($t:ident, $pn:ident) => {
        impl $t {
            /// Creates an address from a raw byte address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// The raw byte address.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The page number containing this address.
            #[inline]
            pub const fn page(self) -> $pn {
                $pn(self.0 / PAGE_BYTES as u64)
            }

            /// Byte offset within the page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 % PAGE_BYTES as u64
            }

            /// Index of the coherence block within the page (0..[`BLOCKS_PER_PAGE`]).
            #[inline]
            pub const fn block_in_page(self) -> usize {
                (self.page_offset() as usize) / BLOCK_BYTES
            }

            /// The address rounded down to its block base.
            #[inline]
            pub const fn block_base(self) -> Self {
                Self(self.0 - self.0 % BLOCK_BYTES as u64)
            }

            /// Adds a byte offset.
            #[inline]
            pub const fn offset(self, bytes: u64) -> Self {
                Self(self.0 + bytes)
            }
        }

        impl From<u64> for $t {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($t), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_impl!(VAddr, Vpn);
addr_impl!(PAddr, Ppn);

impl Vpn {
    /// The base virtual address of this page.
    #[inline]
    pub const fn base(self) -> VAddr {
        VAddr::new(self.0 * PAGE_BYTES as u64)
    }
}

impl Ppn {
    /// The base physical address of this page.
    #[inline]
    pub const fn base(self) -> PAddr {
        PAddr::new(self.0 * PAGE_BYTES as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_consistent() {
        assert_eq!(BLOCKS_PER_PAGE, 128);
        assert_eq!(WORDS_PER_BLOCK, 4);
        assert_eq!(BLOCKS_PER_PAGE * BLOCK_BYTES, PAGE_BYTES);
    }

    #[test]
    fn vaddr_decomposition() {
        let a = VAddr::new(0x1000_1230);
        assert_eq!(a.page(), Vpn(0x10001));
        assert_eq!(a.page_offset(), 0x230);
        assert_eq!(a.block_in_page(), 0x230 / 32);
        assert_eq!(a.block_base().raw(), 0x1000_1220);
    }

    #[test]
    fn page_round_trip() {
        let v = Vpn(42);
        assert_eq!(v.base().page(), v);
        let p = Ppn(7);
        assert_eq!(p.base().page(), p);
    }

    #[test]
    fn offset_and_block_base_commute() {
        let a = VAddr::new(0x2000_0000);
        assert_eq!(a.offset(40).block_base().raw(), 0x2000_0020);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", VAddr::new(0x10)), "0x10");
        assert_eq!(format!("{:?}", PAddr::new(0x10)), "PAddr(0x10)");
    }
}
