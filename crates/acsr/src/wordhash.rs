//! A hasher for keys that are already well-spread machine words.
//!
//! The term store's maps are keyed on structural digests, canonical `Arc`
//! addresses and [`TermId`](crate::TermId)s; the step memo on `(TermId,
//! env epoch)`. None of those keys needs std's keyed SipHash: a digest is
//! already a 64-bit FNV-1a value, an address is unique for as long as it is a
//! key, and an id is unique by construction. [`WordHasher`] therefore folds
//! each written word into its state with the 64-bit finalizer of
//! MurmurHash3 (`fmix64`: xor-shift, multiply, xor-shift, multiply,
//! xor-shift) — a bijection on `u64` in which every input bit reaches every
//! output bit. That matters to std's `HashMap`, which takes its bucket index
//! from the low bits and its tag byte from the top seven: a word key with
//! dead low bits (aligned addresses) or a constant high half (small ids)
//! still spreads over both.
//!
//! The hasher is deterministic (no per-process keys). Where the keys derive
//! from untrusted input — a digest of a term built from a daemon client's
//! AADL text — that is safe because every consumer resolves equal hashes by
//! an exact comparison afterwards: the map compares the full key, and the
//! store compares equal digests structurally. A crafted collision can cost
//! time, never a wrong id.

use std::hash::{BuildHasherDefault, Hasher};

/// The MurmurHash3 64-bit finalizer: a bijective avalanche mix.
#[inline]
fn fmix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

/// A [`Hasher`] for word-sized keys: each `write_*` of an integer mixes
/// the full 64-bit value into the state with [`fmix64`]. Byte slices (not
/// used by the keys this is meant for, but required by the trait) are read
/// as little-endian words.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = fmix64(self.0 ^ x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// A `HashMap` keyed on well-spread words, hashed with [`WordHasher`].
pub(crate) type WordMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(t)
    }

    #[test]
    fn single_words_hash_to_their_bijective_mix() {
        // One word in, fmix64 of it out: no two words share a hash.
        for x in [0u64, 1, 0x10, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(hash(&x), fmix64(x));
        }
        let hashes: std::collections::HashSet<u64> =
            (0..10_000u64).map(|x| hash(&(x << 4))).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn every_input_bit_reaches_the_top_and_bottom_bits() {
        // The map indexes buckets by low bits and tags them by the top 7:
        // flipping any single input bit must move both, on average about
        // half of the bits.
        for bit in 0..64 {
            let (a, b) = (
                hash(&0x1234_5678_9ABC_DEF0u64),
                hash(&(0x1234_5678_9ABC_DEF0u64 ^ (1 << bit))),
            );
            let flipped = (a ^ b).count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "bit {bit} flipped only {flipped} output bits"
            );
        }
    }

    #[test]
    fn tuple_keys_depend_on_every_component_and_their_order() {
        assert_ne!(hash(&(1u32, 2u64)), hash(&(2u32, 1u64)));
        assert_ne!(hash(&(1u32, 2u64)), hash(&(1u32, 3u64)));
        assert_eq!(hash(&(1u32, 2u64)), hash(&(1u32, 2u64)));
    }
}
