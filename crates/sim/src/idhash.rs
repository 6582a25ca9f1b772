//! Deterministic hashing for integer ids.
//!
//! Every map in the simulator's hot path is keyed by plain integers: job
//! ids, event sequence numbers, allocation handles, and small tuples of
//! them. The std `HashMap` hashes those with randomly keyed SipHash-1-3,
//! which resists hash flooding by untrusted keys but costs tens of
//! nanoseconds per lookup — a sixth of a campaign cell's time. The
//! [`IdHasher`] here is the FxHash rotate-xor-multiply step with a fixed
//! multiplier: one multiply per integer word.
//!
//! It is not keyed, so an adversary who chooses the keys can force
//! collisions. The ids it hashes are not chosen by a peer: traces carry
//! them, and in a deployment the resource manager assigns job ids while
//! peer requests only look ids up, never insert them.
//!
//! The hasher is deterministic across runs and processes, so map iteration
//! order is too — but no output of the simulator depends on it.

// The one place the std maps are named: everything else uses the aliases.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (a fixed odd constant with well-spread bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher for integer keys: per word, rotate the state, xor
/// the word in, multiply by a fixed odd constant.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
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

    /// The multiply leaves its best-mixed bits at the top, while the table
    /// picks buckets from the low bits: fold the high half down so ids that
    /// differ only in high bits (multiples of a power of two) still spread.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// Builds [`IdHasher`]s; zero-sized, so the aliases cost no space.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by integer ids, hashed with [`IdHasher`]. Build with
/// `IdHashMap::default()`.
#[allow(clippy::disallowed_types)]
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of integer ids, hashed with [`IdHasher`]. Build with
/// `IdHashSet::default()`.
#[allow(clippy::disallowed_types)]
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash_is_fixed_across_builders() {
        let (a, b) = (IdBuildHasher::default(), IdBuildHasher::default());
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
        }
        assert_eq!(a.hash_one((3usize, 7u64)), b.hash_one((3usize, 7u64)));
    }

    #[test]
    fn sequential_and_strided_ids_spread_over_buckets() {
        // Low 10 bits pick among 1024 buckets. Ids 0..1024, alone or
        // strided (by a power of two too), must spread about as well as
        // random hashes would (~650 distinct buckets).
        let build = IdBuildHasher::default();
        for stride in [1u64, 2, 3, 1 << 12, 1 << 32] {
            let buckets: IdHashSet<u64> = (0..1024u64)
                .map(|i| build.hash_one(i * stride) & 1023)
                .collect();
            assert!(buckets.len() > 600, "stride {stride}: {}", buckets.len());
        }
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut map: IdHashMap<(usize, u64), u32> = IdHashMap::default();
        let mut set: IdHashSet<&str> = IdHashSet::default();
        for i in 0..1000u64 {
            map.insert((i as usize % 2, i), i as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(1, 999)), Some(&999));
        assert_eq!(map.remove(&(0, 998)), Some(998));
        assert!(!map.contains_key(&(0, 998)));
        assert!(set.insert("rpc-call"));
        assert!(!set.insert("rpc-call"));
        assert!(set.contains("rpc-call") && !set.contains("rpc-cal"));
    }
}
