//! Keys of the transactional key-value store.
//!
//! Tebaldi is a key-value store with support for tables (§4.5). Workload
//! keys are composites of small integers (warehouse id, district id, order
//! id, ...), so instead of heap-allocated byte strings we pack the composite
//! parts into a `u128`. This keeps keys `Copy`, hashable without allocation,
//! and cheap to log.

use crate::schema::TableId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fully qualified key: a table plus a packed row identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key {
    /// The table this key belongs to.
    pub table: TableId,
    /// The packed row identifier within the table.
    pub row: u128,
}

impl Key {
    /// Creates a key from a table and an already-packed row id.
    pub fn new(table: TableId, row: u128) -> Self {
        Key { table, row }
    }

    /// Creates a key whose row id is a single integer.
    pub fn simple(table: TableId, id: u64) -> Self {
        Key {
            table,
            row: id as u128,
        }
    }

    /// Packs up to four 32-bit components into a row id, most significant
    /// first. This is how the TPC-C and SEATS schemas build composite keys
    /// such as `(warehouse, district, order, line)`.
    pub fn composite(table: TableId, parts: &[u32]) -> Self {
        assert!(parts.len() <= 4, "composite keys support at most 4 parts");
        let mut row: u128 = 0;
        for &p in parts {
            row = (row << 32) | p as u128;
        }
        Key { table, row }
    }

    /// One cheap 64-bit mix of `(table, row)` (multiply–xorshift, the
    /// `splitmix64` finalizer). Every place that spreads keys uses it: the
    /// store's shard and bucket index, the SSI reader-table stripes, the
    /// lock-table shards and — through [`Hash`] — every `HashMap` keyed by
    /// `Key`. Workload keys are
    /// composites of small integers built by the program itself, so a keyed
    /// hash against crafted collisions buys nothing here.
    #[inline]
    pub fn mix64(&self) -> u64 {
        let mut h = (self.row as u64)
            ^ ((self.row >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (self.table.0 as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// Extracts the `idx`-th (0-based, most significant first) 32-bit
    /// component of a key created by [`Key::composite`] with `n` parts.
    pub fn part(&self, idx: usize, n: usize) -> u32 {
        assert!(idx < n && n <= 4);
        let shift = 32 * (n - 1 - idx);
        ((self.row >> shift) & 0xffff_ffff) as u32
    }
}

impl Hash for Key {
    /// One `write_u64` of [`Key::mix64`]: equal keys mix equally, and a
    /// general-purpose hasher digests 8 bytes instead of 20.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.mix64());
    }
}

/// Pass-through hasher for maps keyed by [`Key`] alone: the key's own
/// [`mix64`](Key::mix64) *is* the hash.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached by a non-`Key` key type; stay correct, not fast.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A `HashMap` keyed by [`Key`] that hashes with [`Key::mix64`].
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:x}", self.table, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_roundtrip() {
        let t = TableId(3);
        let k = Key::composite(t, &[7, 11, 13, 17]);
        assert_eq!(k.part(0, 4), 7);
        assert_eq!(k.part(1, 4), 11);
        assert_eq!(k.part(2, 4), 13);
        assert_eq!(k.part(3, 4), 17);
    }

    #[test]
    fn composite_distinct() {
        let t = TableId(1);
        let a = Key::composite(t, &[1, 2]);
        let b = Key::composite(t, &[2, 1]);
        assert_ne!(a, b);
        let c = Key::composite(TableId(2), &[1, 2]);
        assert_ne!(a, c);
    }

    #[test]
    fn mix64_spreads_dense_composites_over_low_and_high_bits() {
        // TPC-C-shaped keys differ in a few low bits of one component; both
        // ends of the mix must still spread (the store takes shard and
        // bucket from different bits, `HashMap` control bytes from the top).
        let mut low = std::collections::HashSet::new();
        let mut high = std::collections::HashSet::new();
        for w in 0..4u32 {
            for d in 0..10u32 {
                for o in 0..64u32 {
                    let h = Key::composite(TableId(5), &[w, d, o]).mix64();
                    low.insert(h & 0xfff);
                    high.insert(h >> 52);
                }
            }
        }
        // 2560 keys into 4096 cells: a uniform hash leaves ~1900 distinct.
        assert!(low.len() > 1500, "low bits collide: {}", low.len());
        assert!(high.len() > 1500, "high bits collide: {}", high.len());
        let mut map: KeyMap<u32> = KeyMap::default();
        map.insert(Key::simple(TableId(1), 7), 1);
        assert_eq!(map.get(&Key::simple(TableId(1), 7)), Some(&1));
        assert_eq!(map.get(&Key::simple(TableId(2), 7)), None);
    }

    #[test]
    fn simple_key_matches_one_part_composite() {
        let t = TableId(9);
        assert_eq!(Key::simple(t, 42).row, Key::composite(t, &[42]).row);
    }

    #[test]
    #[should_panic]
    fn too_many_parts_panics() {
        let _ = Key::composite(TableId(0), &[1, 2, 3, 4, 5]);
    }
}
