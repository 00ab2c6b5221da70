//! The one hasher behind every id-, key- and signature-keyed map on the
//! arrival path: [`IdMap`] / [`IdSet`].
//!
//! Those maps are keyed by small integers and tuples of them — edge and
//! vertex ids, FNV-folded join keys, `(VLabel, VLabel, ELabel)`
//! signatures, query ids, plan fingerprints — and are probed several times
//! per arrival (ingest gate, snapshot, dispatch, engine tables, store
//! indexes). The standard library's default SipHash-1-3 costs tens of
//! nanoseconds per lookup on such keys; [`IdHasher`] costs one
//! 64×64→128-bit multiply per word.
//!
//! **The mix.** Per word `x` the state becomes `fold((state ^ x) × K)`,
//! where `fold` XORs the product's high and low halves. The high half
//! carries every input bit into the low bits a table indexes by, so keys
//! that differ only in their high bits — `i << 48`, or ids that share
//! their low bits — still spread. A plain multiply-then-rotate finish
//! (rustc-hash 2's) does not: on 4,096 keys `i << 48` it leaves only 4
//! distinct low-12-bit buckets. The tests pin the spread.
//!
//! **Determinism.** Seed and constant are fixed, so a map's iteration
//! order is a function of its insert/remove history alone and repeats
//! across runs and processes. Nothing in this workspace may *depend* on
//! that order — results are compared as streams or sorted sets — but
//! runs no longer differ by it.
//!
//! **Not HashDoS-resistant.** Without a per-process random seed, a source
//! that picks edge or vertex ids to collide can degrade these tables to
//! linear probing. The trust boundary is the ingest gate
//! (`tcs_core::IngestGate`): ids past it come from the stream owner, not
//! from an adversary. A deployment taking ids from hostile clients must
//! remap them to dense internal ids before the gate.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Initial state (the first 64 fractional bits of π).
const SEED: u64 = 0x243f_6a88_85a3_08d3;
/// Multiplier (odd: 2⁶⁴ divided by the golden ratio). With `SEED` it
/// keeps ≥ 1,553 of 4,096 low-12-bit buckets for keys `i << s`, every
/// `s ≤ 52`; some other common odd constants (the PCG-64 multiplier,
/// for one) fall below 700 at a shift near 20.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The folded-multiply hasher (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    state: u64,
}

impl Default for IdHasher {
    #[inline]
    fn default() -> Self {
        IdHasher { state: SEED }
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.state ^ x) * u128::from(K);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Byte strings (e.g. a plan fingerprint's canonical encoding) fold
    /// in 8-byte little-endian words, the last one zero-padded; `Hash`
    /// impls of slices prefix the length, so padding cannot alias.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(b));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut b = [0u8; 8];
            b[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// A `HashMap` under [`IdHasher`]; construct with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` under [`IdHasher`]; construct with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ELabel, VLabel};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: &T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    /// Distinct low-12-bit values (a 4,096-slot table's bucket indexes)
    /// over a key set.
    fn low12_buckets(hashes: impl Iterator<Item = u64>) -> usize {
        hashes.map(|h| h & 0xfff).collect::<std::collections::BTreeSet<_>>().len()
    }

    #[test]
    fn shifted_integer_keys_spread_over_low_bits() {
        // A rotate-based finish collapses these to a handful of buckets at
        // s = 48; the folded multiply keeps them spread for every shift.
        for s in 0..=52u32 {
            let n = low12_buckets((0..4096u64).map(|i| hash_of(&(i << s))));
            assert!(n >= 1024, "shift {s}: only {n} distinct low-12-bit buckets");
        }
    }

    #[test]
    fn signature_tuples_spread_over_low_bits() {
        let n =
            low12_buckets((0..4096u16).map(|i| {
                hash_of(&(VLabel(i % 64), VLabel(i / 64), ELabel(i.wrapping_mul(7) % 5)))
            }));
        assert!(n >= 1024, "only {n} distinct low-12-bit buckets");
    }

    #[test]
    fn folded_join_keys_spread_over_low_bits() {
        // The FNV-1a fold the plans use for join keys (`tcs_core::plan`).
        let fnv = |vs: &[u64]| {
            vs.iter().fold(0xcbf2_9ce4_8422_2325u64, |k, &v| (k ^ v).wrapping_mul(0x0100_0000_01b3))
        };
        let n = low12_buckets((0..4096u64).map(|i| hash_of(&fnv(&[i % 97, i / 97]))));
        assert!(n >= 1024, "only {n} distinct low-12-bit buckets");
    }

    #[test]
    fn byte_strings_hash_by_value() {
        let a: Vec<u8> = (0..23u8).collect();
        let b = a.clone();
        assert_eq!(hash_of(&a), hash_of(&b));
        let mut h1 = IdHasher::default();
        h1.write(&a);
        let mut h2 = IdHasher::default();
        h2.write(&b);
        assert_eq!(h1.finish(), h2.finish());
        // Every byte, tail included, reaches the state.
        for i in 0..a.len() {
            let mut c = a.clone();
            c[i] ^= 1;
            assert_ne!(hash_of(&a), hash_of(&c), "byte {i} ignored");
        }
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(i << 40, i);
        }
        assert!((0..1000u64).all(|i| m[&(i << 40)] == i));
        let s: IdSet<u64> = (0..10).collect();
        assert!(s.contains(&3) && !s.contains(&10));
    }
}
