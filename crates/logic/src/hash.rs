//! One fixed, fast hasher for every map the flow keys by its own data.
//!
//! The flow's hot maps — the structural-hash table, the NPN class stores,
//! the cell library's match index, the link-signature index — are keyed by
//! node ids, signals, gate kinds and truth tables the program computes
//! itself. std's default hasher (keyed SipHash) defends against crafted
//! collisions, which such keys cannot carry, and costs several times more
//! per lookup than a multiply. [`FastHasher`] folds each machine word in with
//! one add and one multiply by a fixed odd constant, and rotates the state
//! once at the end: a multiply carries every input bit only *upwards*, so
//! without the rotation the low bits that pick a bucket would ignore the
//! high bits of the key (all five-input truth tables that differ only in
//! their upper minterms would share one bucket).
//!
//! The hasher is unkeyed, so a map's iteration order is the same in every
//! process. It is not hardened against adversarial keys: text read from
//! outside the program (the parsers' name tables) keeps std's SipHash.

#![allow(clippy::disallowed_types)] // The aliases below are the one sanctioned use.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A [`HashSet`] hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// The odd multiplier every word is folded in with; its bits are spread
/// evenly, so one multiply carries each input bit into many output bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// The final rotation: moves the well-mixed high bits of the product down to
/// the low bits a table uses as the bucket index.
const ROTATE: u32 = 26;

/// Word-at-a-time multiplicative hasher: per word
/// `state = (state + word) * MULTIPLIER`, then `finish = state.rotate_left(26)`.
/// Unkeyed, so every process sees the same hashes; not hardened against
/// crafted collisions, so only for keys the program computes itself.
#[derive(Copy, Clone, Default, Debug)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // The length tags the tail so "ab" and "ab\0" stay apart.
            self.add_word(u64::from_ne_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_word(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_word(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NodeId, Signal, TruthTable};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// How many of the 65 536 buckets the low 16 bits of the keys' hashes
    /// reach.
    fn bucket_share<T: Hash>(keys: impl Iterator<Item = T>) -> f64 {
        let mut hit = vec![false; 1 << 16];
        for key in keys {
            hit[(hash_of(&key) & 0xffff) as usize] = true;
        }
        hit.iter().filter(|&&h| h).count() as f64 / hit.len() as f64
    }

    /// A uniform hash of 2^16 keys into 2^16 buckets reaches 1 − 1/e ≈ 63 %
    /// of them; each key family the flow's maps use must come close.
    const MIN_SHARE: f64 = 0.55;

    #[test]
    fn every_four_input_table_spreads_over_the_buckets() {
        let share = bucket_share((0..1u64 << 16).map(|w| TruthTable::from_u64(4, w)));
        assert!(share >= MIN_SHARE, "four-input tables reach {share:.3}");
    }

    #[test]
    fn tables_that_differ_only_in_high_minterms_spread_over_the_buckets() {
        // The keys a multiply without the final rotation maps to one bucket:
        // every low bit of the word is zero, so every low bit of the product
        // is the same.
        let five = bucket_share((0..1u64 << 16).map(|w| TruthTable::from_u64(5, w << 16)));
        assert!(five >= MIN_SHARE, "five-input tables reach {five:.3}");
        let six = bucket_share((0..1u64 << 16).map(|w| TruthTable::from_u64(6, w << 32)));
        assert!(six >= MIN_SHARE, "six-input tables reach {six:.3}");
    }

    #[test]
    fn consecutive_strash_keys_spread_over_the_buckets() {
        // The keys `Network::strash` sees while a chain of two-input gates
        // grows: each gate reads the previous one and a primary input.
        let keys = (0..1u32 << 16).map(|i| {
            let prev = Signal::new(NodeId::from_index(i as usize + 64), i % 3 == 0);
            let input = Signal::new(NodeId::from_index((i % 64) as usize + 1), false);
            let kind = if i % 2 == 0 {
                GateKind::And2
            } else {
                GateKind::Xor2
            };
            (kind, [input.min(prev), input.max(prev), Signal::CONST0])
        });
        let share = bucket_share(keys);
        assert!(share >= MIN_SHARE, "strash keys reach {share:.3}");
    }

    #[test]
    fn the_hash_of_a_fixed_key_is_pinned() {
        // Every map's iteration order follows from this function; changing
        // it must be a deliberate edit of this value.
        let key = TruthTable::from_u64(4, 0x6996);
        assert_eq!(hash_of(&key), 5_315_873_308_210_160_815);
    }

    #[test]
    fn byte_tails_are_length_tagged() {
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write(&[1, 2, 3, 0]);
        assert_ne!(a.finish(), b.finish());
    }
}
