//! The one hasher of the query path.
//!
//! Everything the server hashes per query is a few machine words: a
//! 32-bit [`crate::Address`], a tenant or transfer id, the fields of a
//! resolved problem, a cache key that is itself a hash. The standard
//! library's default (SipHash) spends most of its time on a key schedule
//! and finalisation meant for long, hostile byte strings. [`WordHasher`]
//! folds one word per multiplication instead, and [`WordMap`] /
//! [`WordSet`] are the standard collections built on it.
//!
//! It is defined here, beside `Address`, because this is the lowest crate
//! every address-keyed table can see.
//!
//! The hash is not keyed. Every table that uses it treats a hash value as
//! a bucket choice only — equality of the keys decides a lookup, and the
//! answer cache compares whole problems structurally — so colliding keys
//! cost time, never correctness; the tables a tenant's addresses reach
//! are bounded by the §4.3 sample budget.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher over machine words (the FxHash family).
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher {
    hash: u64,
}

/// Odd, with no short runs of equal bits: every input bit reaches the high
/// half of the product.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl WordHasher {
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(
                chunk.try_into().expect("chunks of eight"),
            ));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    /// A multiplication pushes entropy upwards only; the table takes its
    /// bucket from the low bits, so the well-mixed high half is rotated
    /// down into them.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`WordHasher`]s; the `S` of every [`WordMap`] and [`WordSet`].
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildWordHasher>;

/// A `HashSet` hashed by [`WordHasher`].
pub type WordSet<K> = HashSet<K, BuildWordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Address;
    use std::hash::BuildHasher;

    #[test]
    fn equal_input_hashes_equal_and_split_writes_differ_from_joined() {
        let b = BuildWordHasher::default();
        assert_eq!(b.hash_one(Address(7)), b.hash_one(Address(7)));
        assert_ne!(b.hash_one(Address(7)), b.hash_one(Address(8)));
        assert_ne!(b.hash_one((1u32, 2u32)), b.hash_one((2u32, 1u32)));
        assert_ne!(b.hash_one("ab"), b.hash_one("ba"));
        assert_ne!(b.hash_one("abcdefgh"), b.hash_one("abcdefghi"));
    }

    #[test]
    fn datacenter_address_patterns_fill_a_table_evenly() {
        // A table of `n` keys has the next power of two above `8n/7`
        // buckets, picks one from the low bits of the hash and tags the
        // entry with the top seven. Neighbouring hosts (10.0.0.x), hosts a
        // rack apart (10.0.x.1), a /16 apart, and the benchmark's fleet
        // (500 racks of 40) must pile up in neither.
        let b = BuildWordHasher::default();
        let strided = |stride: u32| (0..256u32).map(move |i| 0x0A00_0001 + i * stride);
        let fleet =
            (0..500u32).flat_map(|rack| (1..=40u32).map(move |h| 0x0A00_0000 + rack * 256 + h));
        let patterns: [Vec<u32>; 4] = [
            strided(1).collect(),
            strided(256).collect(),
            strided(65_536).collect(),
            fleet.collect(),
        ];
        for keys in &patterns {
            let buckets = (keys.len() * 8 / 7 + 1).next_power_of_two() as u64;
            let mut load: WordMap<u64, u32> = WordMap::default();
            let mut tags: WordSet<u64> = WordSet::default();
            for &k in keys {
                let h = b.hash_one(Address(k));
                *load.entry(h & (buckets - 1)).or_default() += 1;
                tags.insert(h >> 57);
            }
            let worst = load.values().max().copied().unwrap_or(0);
            assert!(
                worst <= 4,
                "{} keys from {:#x}: {worst} in one bucket",
                keys.len(),
                keys[0]
            );
            assert!(
                tags.len() >= 100,
                "{} keys from {:#x}: {} tags",
                keys.len(),
                keys[0],
                tags.len()
            );
        }
    }
}
