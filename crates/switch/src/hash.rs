//! Seeded hash functions and fingerprints.
//!
//! Tofino provides CRC-based hash units; any good 64-bit mixer reproduces
//! their statistical behaviour. We use the splitmix64 finalizer, which is
//! cheap, passes avalanche tests, and keeps the whole repository
//! deterministic: every hash function is identified by `(family_seed, index)`
//! so experiments are exactly reproducible.

/// The splitmix64 finalizer: a full-avalanche 64→64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One hash function drawn from a [`HashFamily`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFn {
    seed: u64,
}

impl HashFn {
    /// Construct directly from a seed.
    pub fn from_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Hash a 64-bit key.
    #[inline]
    pub fn hash64(&self, x: u64) -> u64 {
        mix64(x ^ self.seed)
    }

    /// Hash a byte string (FNV-1a accumulate, then mix).
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ self.seed;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        mix64(h)
    }

    /// Map a key to an index in `0..m`.
    ///
    /// `m` must be nonzero. Uses the high-bits multiply trick rather than
    /// modulo, like hardware hash units that produce an n-bit index.
    #[inline]
    pub fn index(&self, x: u64, m: usize) -> usize {
        debug_assert!(m > 0, "index() requires a nonzero table size");
        // Multiply-shift: (hash * m) >> 64, unbiased for our purposes.
        ((u128::from(self.hash64(x)) * m as u128) >> 64) as usize
    }

    /// A fingerprint of `bits` bits (1..=64) of the key.
    #[inline]
    pub fn fingerprint(&self, x: u64, bits: u32) -> u64 {
        debug_assert!((1..=64).contains(&bits));
        let h = self.hash64(x);
        if bits >= 64 {
            h
        } else {
            h >> (64 - bits)
        }
    }
}

/// A family of independent hash functions, one per index.
///
/// Bloom filters and Count-Min sketches draw their `H` functions from one
/// family so a single seed reproduces an entire experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFamily {
    seed: u64,
}

impl HashFamily {
    /// Create a family from a master seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The `i`-th function of the family.
    pub fn function(&self, i: usize) -> HashFn {
        HashFn { seed: mix64(self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_samples() {
        // A mixer must not collide on a small dense set.
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(mix64(x)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashFn::from_seed(1);
        let b = HashFn::from_seed(2);
        let same = (0..1000).filter(|&x| a.hash64(x) == b.hash64(x)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn index_is_in_range_and_roughly_uniform() {
        let f = HashFn::from_seed(7);
        let m = 16;
        let mut counts = vec![0usize; m];
        let n = 64_000;
        for x in 0..n as u64 {
            let i = f.index(x, m);
            assert!(i < m);
            counts[i] += 1;
        }
        let expected = n / m;
        for &c in &counts {
            // Within 15% of uniform for this sample size.
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.15,
                "bucket count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    fn fingerprint_respects_width() {
        let f = HashFn::from_seed(3);
        for bits in 1..=64u32 {
            let fp = f.fingerprint(0xDEAD_BEEF, bits);
            if bits < 64 {
                assert!(fp < (1u64 << bits), "fingerprint wider than {bits} bits");
            }
        }
    }

    #[test]
    fn fingerprint_collision_rate_matches_width() {
        // 12-bit fingerprints over 1000 keys: expected pairwise collision count
        // ≈ C(1000,2) / 4096 ≈ 122. Allow a generous band.
        let f = HashFn::from_seed(11);
        let fps: Vec<u64> = (0..1000u64).map(|x| f.fingerprint(x, 12)).collect();
        let mut collisions = 0;
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                if fps[i] == fps[j] {
                    collisions += 1;
                }
            }
        }
        assert!((40..400).contains(&collisions), "collisions = {collisions}");
    }

    #[test]
    fn hash_bytes_differs_from_hash64_domain() {
        let f = HashFn::from_seed(5);
        assert_ne!(f.hash_bytes(b"pizza"), f.hash_bytes(b"burger"));
        assert_ne!(f.hash_bytes(b""), f.hash_bytes(b"\0"));
    }

    #[test]
    fn family_functions_are_independent() {
        let fam = HashFamily::new(42);
        let f0 = fam.function(0);
        let f1 = fam.function(1);
        assert_ne!(f0, f1);
        let same = (0..1000).filter(|&x| f0.hash64(x) == f1.hash64(x)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn family_is_deterministic() {
        assert_eq!(HashFamily::new(9).function(3), HashFamily::new(9).function(3));
    }
}
