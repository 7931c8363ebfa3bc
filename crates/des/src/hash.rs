//! A fixed hasher for maps keyed by simulator-owned integers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier: 2^64 / φ, the Fibonacci-hashing constant.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed multiplicative hasher for integer keys that the simulation
/// itself produces (block numbers, lock and barrier ids, latencies).
///
/// Each written word is xored into the state, which is then multiplied by
/// an odd constant. `finish` folds the product's high half into its low
/// half. A product's low bits depend only on the key's low bits, and the
/// map indexes its buckets by the low bits of the hash: the blocks one
/// home owns are `h + k·nprocs` and share their low bits, so without the
/// fold they would crowd into a fraction of the buckets.
///
/// The hash is not randomized, so an adversary who picks the keys can
/// make every key collide. Keep it to keys the simulator generates; maps
/// whose keys arrive from a network peer keep the standard library's
/// randomized hasher.
///
/// # Example
///
/// ```
/// use commchar_des::FixedMap;
///
/// let mut homes: FixedMap<u64, usize> = FixedMap::default();
/// for k in 0..64u64 {
///     homes.insert(3 + 16 * k, 3);
/// }
/// assert_eq!(homes.len(), 64);
/// assert_eq!(homes[&(3 + 16 * 5)], 3);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MUL);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` under the [`FixedHasher`]; construct it with
/// `FixedMap::default()`.
pub type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    fn hash(k: u64) -> u64 {
        BuildHasherDefault::<FixedHasher>::default().hash_one(k)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_hash_is_fixed() {
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
        // Not randomized: every map hashes a key to the same value.
        assert_eq!(hash(1), FixedMap::<u64, ()>::default().hasher().hash_one(1u64));
    }

    #[test]
    fn a_homes_blocks_spread_over_the_low_bits() {
        // Blocks h + k·16 share their low four bits; after the fold their
        // hashes' low bits (the bucket index) take many values.
        for h in [0u64, 3, 15] {
            let mut buckets = std::collections::HashSet::new();
            for k in 0..256 {
                buckets.insert(hash(h + 16 * k) & 255);
            }
            assert!(buckets.len() > 128, "home {h}: {} of 256 buckets", buckets.len());
        }
    }

    #[test]
    fn narrow_writes_match_the_widened_word() {
        let via = |f: &dyn Fn(&mut FixedHasher)| {
            let mut h = FixedHasher::default();
            f(&mut h);
            h.finish()
        };
        assert_eq!(via(&|h| h.write_u32(7)), via(&|h| h.write_u64(7)));
        assert_eq!(via(&|h| h.write(&7u64.to_le_bytes())), via(&|h| h.write_u64(7)));
    }
}
