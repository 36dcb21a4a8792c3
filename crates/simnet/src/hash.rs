//! A small, fast, non-cryptographic hasher for the engine's internal maps.
//!
//! The engine's hash maps are keyed by [`NodeId`](crate::NodeId)s, node
//! pairs and timer ids: a few machine words each, chosen by the harness,
//! never by an adversary. The standard library's SipHash spends most of a
//! lookup on DoS resistance those keys do not need. This is the
//! multiply-rotate word hash popularised by the Firefox and rustc
//! compilers. It changes nothing observable: no engine map is ever
//! iterated in hash order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time multiply-rotate hasher.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WordHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` using [`WordHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// A `HashSet` using [`WordHasher`].
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn distinct_small_keys_hash_apart() {
        let hash = |id: u32| {
            let mut h = WordHasher::default();
            std::hash::Hash::hash(&NodeId(id), &mut h);
            h.finish()
        };
        let hashes: HashSet<u64> = (0..1000).map(hash).collect();
        assert_eq!(hashes.len(), 1000);
    }
}
