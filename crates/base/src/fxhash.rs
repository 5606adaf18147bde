//! A fast, deterministic hasher for the simulator's hot lookup tables.
//!
//! The default `std` hasher (SipHash) showed up prominently in profiles of
//! full-machine runs: page-table translations, directory lookups, and the
//! DirNNB value store all hash a `u64`-sized key on nearly every simulated
//! memory operation. This module provides the well-known Fx multiply-mix
//! hash (as used by rustc) — a couple of nanoseconds per key instead of
//! tens — with no external dependency.
//!
//! **Use only for maps that are never iterated on a semantics-bearing
//! path.** Swapping the hasher changes a `HashMap`'s internal bucket
//! order; any code that iterates one of these maps and schedules events
//! or allocates resources in iteration order would change simulation
//! results. Lookup/insert/remove-only maps are bit-exact under any
//! hasher. (It is also not DoS-resistant, which a simulator does not
//! need.)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx string/integer hasher: `hash = (rotl(hash, 5) ^ word) * SEED`
/// per 8-byte word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_keys() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_tail_is_hashed() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"abcdefghijk");
        b.write(b"abcdefghijj");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }
}
