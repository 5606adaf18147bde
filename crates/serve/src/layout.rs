//! Key-to-address layout for the KV store.
//!
//! Keys live in a dense `0..keys` space (the Zipf rank *is* the key), but
//! popular keys must not cluster on one home node: ranks are scattered
//! across slots by sorting keys on a `mix64` hash, so the ten hottest
//! keys land on ten essentially random pages. The permutation depends
//! only on `(keys, salt)`, never on the run seed, so every system under
//! comparison serves the identical placement.
//!
//! A slot is one header word followed by `value_words` data words,
//! rounded up to a power-of-two number of bytes, at least one coherence
//! block. So two keys never share a block (no false sharing between
//! unrelated keys; a put invalidates or updates exactly its own key's
//! blocks), and slots tile pages: no slot straddles a page boundary, so
//! every key has exactly one home.
//!
//! After the slot region, one page per node serves as that node's
//! *staging buffer*: the write-update variant's puts compose the new
//! value there with ordinary stores (the page is homed locally, so they
//! never fault) and then hand the protocol the key in a single user
//! call. The stache variant leaves the staging pages untouched, which
//! keeps final memory images comparable across variants.

use tt_base::addr::{BLOCK_BYTES, PAGE_BYTES, WORD_BYTES};
use tt_base::workload::{Layout, Placement, Region, SHARED_SEGMENT_BASE};
use tt_base::{mix64, NodeId, VAddr};

/// Page mode of KV slot pages. `StacheProtocol` ignores modes it does
/// not know, so the same layout runs unchanged under plain Stache; the
/// update protocol keys its custom handling off this mode.
pub const KV_MODE: u8 = 4;

/// User call: publish the value staged in this node's staging page to
/// the slot of key `arg` (write-update variant only).
pub const KV_PUT_OP: u32 = 0x20;
/// User call: record one finished request's latency. `arg` packs the
/// request's scheduled arrival cycle in bits 63..1 and "was a put" in
/// bit 0; the protocol charges `now - arrival` to the per-class
/// histogram.
pub const KV_STAMP_OP: u32 = 0x21;

/// Largest value length: [`header_word`] packs it into 8 bits.
pub const MAX_VALUE_WORDS: usize = 255;

/// Salt for the slot permutation; fixed so layouts are run-independent.
const SLOT_SALT: u64 = 0x7455_4b56_u64;

/// Where each key lives: slot addressing, home mapping, staging pages.
#[derive(Clone, Debug)]
pub struct KvLayout {
    /// Data words per value.
    pub(crate) value_words: usize,
    /// Machine size (fixes the cyclic home mapping).
    pub(crate) nodes: usize,
    /// Bytes per slot (header + value, rounded up to a power of two of
    /// at least one block).
    slot_bytes: u64,
    /// `slot_of[key]` = slot index after the scatter permutation.
    slot_of: Vec<u32>,
    /// First byte past the (page-rounded) slot region.
    staging_base: u64,
}

impl KvLayout {
    /// Builds the layout for `keys` keys of `value_words`-word values on
    /// a `nodes`-node machine.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= keys <= u32::MAX` and
    /// `1 <= value_words <= MAX_VALUE_WORDS`.
    pub fn new(keys: u64, value_words: usize, nodes: usize) -> Self {
        assert!(keys > 0 && keys <= u32::MAX as u64, "key count out of range");
        assert!(
            (1..=MAX_VALUE_WORDS).contains(&value_words),
            "a value has 1 to {MAX_VALUE_WORDS} words"
        );
        let slot_words = 1 + value_words;
        let slot_bytes = (slot_words * WORD_BYTES).max(BLOCK_BYTES).next_power_of_two() as u64;
        // Scatter: order keys by a seed-independent hash of the key.
        // Sorting on (hash, key) keeps the permutation total even if two
        // hashes collide.
        let mut order: Vec<u32> = (0..keys as u32).collect();
        order.sort_unstable_by_key(|&k| (mix64(k as u64 ^ SLOT_SALT), k));
        let mut slot_of = vec![0u32; keys as usize];
        for (slot, &key) in order.iter().enumerate() {
            slot_of[key as usize] = slot as u32;
        }
        let slots_bytes = (keys * slot_bytes).next_multiple_of(PAGE_BYTES as u64);
        KvLayout {
            value_words,
            nodes,
            slot_bytes,
            slot_of,
            staging_base: SHARED_SEGMENT_BASE + slots_bytes,
        }
    }

    /// Words per slot (header + value).
    pub fn slot_words(&self) -> usize {
        1 + self.value_words
    }

    /// Coherence blocks per slot.
    pub fn slot_blocks(&self) -> usize {
        self.slot_bytes as usize / BLOCK_BYTES
    }

    /// Base address of `key`'s slot (the header word).
    pub fn slot_addr(&self, key: u64) -> VAddr {
        let slot = self.slot_of[key as usize] as u64;
        VAddr::new(SHARED_SEGMENT_BASE + slot * self.slot_bytes)
    }

    /// Address of word `w` of `key`'s slot (word 0 is the header,
    /// words `1..=value_words` the value).
    pub fn word_addr(&self, key: u64, w: usize) -> VAddr {
        debug_assert!(w < self.slot_words());
        self.slot_addr(key).offset((w * WORD_BYTES) as u64)
    }

    /// Home node of `key`'s slot under the cyclic page placement.
    pub fn home_of_key(&self, key: u64) -> NodeId {
        let page = (self.slot_addr(key).raw() - SHARED_SEGMENT_BASE) / PAGE_BYTES as u64;
        NodeId::new((page % self.nodes as u64) as u16)
    }

    /// Base address of `node`'s staging page.
    pub fn staging_addr(&self, node: NodeId) -> VAddr {
        VAddr::new(self.staging_base + node.raw() as u64 * PAGE_BYTES as u64)
    }

    /// The shared-segment layout: slot pages (mode [`KV_MODE`]) followed
    /// by one staging page per node (mode 0), both cyclically homed —
    /// staging page `i` lands on node `i` exactly because the staging
    /// region starts on a fresh page boundary with one page per node.
    pub fn layout(&self) -> Layout {
        let mut l = Layout::new();
        l.add(Region {
            base: VAddr::new(SHARED_SEGMENT_BASE),
            bytes: (self.staging_base - SHARED_SEGMENT_BASE) as usize,
            placement: Placement::Cyclic,
            mode: KV_MODE,
        });
        l.add(Region {
            base: VAddr::new(self.staging_base),
            bytes: self.nodes * PAGE_BYTES,
            placement: Placement::Cyclic,
            mode: 0,
        });
        l
    }
}

/// Packs a slot header word: writing node, per-writer sequence number,
/// and value length in words. Readers treat it as an opaque version
/// stamp; the litmus tests predict it exactly.
pub fn header_word(writer: NodeId, seq: u64, value_words: usize) -> u64 {
    (writer.raw() as u64) << 48 | (seq & 0xFFFF_FFFF) << 8 | value_words as u64
}

/// Value word `i` for a slot whose header is `hdr`: a `mix64` stream
/// keyed on (key, header, position). Pure, so workload generation and
/// litmus prediction derive identical bytes without communicating.
pub fn value_word(key: u64, hdr: u64, i: usize) -> u64 {
    mix64(mix64(key ^ SLOT_SALT) ^ hdr.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ (i as u64) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_never_share_blocks() {
        let kv = KvLayout::new(100, 3, 4);
        assert_eq!(kv.slot_blocks(), 1);
        let mut bases: Vec<u64> = (0..100).map(|k| kv.slot_addr(k).raw()).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 100, "each key has a distinct slot");
        for k in 0..100 {
            assert_eq!(kv.slot_addr(k).block_base(), kv.slot_addr(k));
        }
    }

    #[test]
    fn wide_values_span_blocks() {
        let kv = KvLayout::new(10, 7, 2); // 8 words = 64 bytes = 2 blocks
        assert_eq!(kv.slot_blocks(), 2);
        assert_eq!(kv.word_addr(3, 7).raw() - kv.slot_addr(3).raw(), 56);
    }

    #[test]
    fn slots_tile_pages() {
        // 8-word values make 72-byte slots: rounded to whole blocks (96
        // bytes) slot 42 would straddle pages 0 and 1; 128 bytes tile.
        for value_words in [8, 12, 16, MAX_VALUE_WORDS] {
            let kv = KvLayout::new(512, value_words, 4);
            assert!(PAGE_BYTES.is_multiple_of(kv.slot_blocks() * BLOCK_BYTES));
            for k in 0..512 {
                let last = kv.word_addr(k, kv.slot_words() - 1);
                assert_eq!(kv.slot_addr(k).page(), last.page(), "key {k}");
            }
        }
        assert_eq!(KvLayout::new(1, 8, 4).slot_blocks(), 4);
    }

    #[test]
    #[should_panic(expected = "1 to 255 words")]
    fn value_length_must_fit_the_header() {
        KvLayout::new(1, MAX_VALUE_WORDS + 1, 4);
    }

    #[test]
    fn permutation_scatters_hot_keys() {
        // The ten hottest ranks should not all map to one page.
        let kv = KvLayout::new(4096, 3, 8);
        let mut pages: Vec<u64> = (0..10).map(|k| kv.slot_addr(k).page().0).collect();
        pages.sort_unstable();
        pages.dedup();
        assert!(pages.len() >= 4, "hot keys clustered: {pages:?}");
    }

    #[test]
    fn staging_pages_are_per_node() {
        let kv = KvLayout::new(64, 3, 4);
        let l = kv.layout();
        for n in 0..4u16 {
            let vpn = kv.staging_addr(NodeId::new(n)).page();
            let (home, mode) = l.home_of(vpn, 4).expect("staging page in layout");
            assert_eq!(home, NodeId::new(n));
            assert_eq!(mode, 0);
        }
        for k in [0u64, 17, 63] {
            let (home, mode) = l.home_of(kv.slot_addr(k).page(), 4).expect("slot page");
            assert_eq!(home, kv.home_of_key(k));
            assert_eq!(mode, KV_MODE);
        }
    }

    #[test]
    fn header_roundtrip_fields() {
        let h = header_word(NodeId::new(7), 0x1234, 3);
        assert_eq!(h >> 48, 7);
        assert_eq!(h >> 8 & 0xFFFF_FFFF, 0x1234);
        assert_eq!(h & 0xFF, 3);
    }
}
