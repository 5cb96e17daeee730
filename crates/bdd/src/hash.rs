//! Fx-style multiplicative hashing.
//!
//! The kernel's hot loops hash fixed-width integer triples millions of
//! times per verification; SipHash (std's default, keyed and DoS-proof)
//! costs an order of magnitude more than needed for in-process tables
//! whose keys the process itself created. The firefox/rustc "fx" scheme
//! — multiply by a large odd constant, rotate, xor the next word — is
//! the standard answer and is what CUDD-family packages effectively do.

/// The fxhash multiplication constant (64-bit golden-ratio mix).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Mixes one 32-bit word into a running fx hash.
#[inline(always)]
pub(crate) fn fx_mix(h: u64, w: u32) -> u64 {
    (h.rotate_left(5) ^ w as u64).wrapping_mul(K)
}

/// Hashes a `(var, lo, hi)` node triple.
#[inline(always)]
pub(crate) fn hash3(a: u32, b: u32, c: u32) -> u64 {
    fx_mix(fx_mix(fx_mix(0, a), b), c)
}

/// A `std::hash::Hasher` over the fx scheme, for the few places that
/// still want a `HashMap` (e.g. the model-counting memo in `sat.rs`)
/// without paying for SipHash.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            self.hash = fx_mix(self.hash, u32::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.hash = fx_mix(self.hash, i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.hash = fx_mix(fx_mix(self.hash, i as u32), (i >> 32) as u32);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
#[derive(Default, Clone, Copy)]
pub struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed with fx hashing.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn triple_hash_is_deterministic_and_spreads() {
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
        assert_ne!(hash3(1, 2, 3), hash3(3, 2, 1));
        assert_ne!(hash3(0, 0, 1), hash3(0, 1, 0));
        // Sequential keys should not collide in the low bits (the table
        // indexes with a power-of-two mask).
        let mask = 0xffff;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u32 {
            seen.insert(hash3(i % 40, i, i + 1) & mask);
        }
        assert!(seen.len() > 900, "low-bit spread too poor: {}", seen.len());
    }

    #[test]
    fn hasher_matches_itself_across_write_widths() {
        let b = FxBuildHasher;
        let mut h1 = b.build_hasher();
        h1.write_u64(0x1234_5678_9abc_def0);
        let mut h2 = b.build_hasher();
        h2.write_u32(0x9abc_def0);
        h2.write_u32(0x1234_5678);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&40), Some(&80));
    }
}
