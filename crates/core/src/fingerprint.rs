//! Fingerprints for wide or multi-column keys (§5, Example #8).
//!
//! Some DISTINCT / GROUP BY queries run on multiple input columns or
//! variable-width fields that exceed the bits a switch can parse from a
//! packet. The CWorker then sends a short hash — a *fingerprint* — of all
//! queried columns instead. Collisions can make the switch prune an entry
//! it should not (only harmful if the colliding entries also share a matrix
//! row); Theorem 4 sizes the fingerprint so this happens with probability
//! at most `δ`.

use crate::analysis;
use cheetah_switch::HashFn;

/// A fingerprint function: `bits`-wide hash of the queried columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintSpec {
    /// Fingerprint width in bits (1..=63 so the +1 "occupied" bias used by
    /// the matrix cache cannot wrap).
    pub bits: u32,
    hash: HashFn,
}

impl FingerprintSpec {
    /// A fingerprint of explicit width.
    pub fn new(bits: u32, seed: u64) -> Self {
        assert!((1..=63).contains(&bits), "fingerprint width must be 1..=63");
        Self { bits, hash: HashFn::from_seed(seed) }
    }

    /// Size the fingerprint per Theorem 4 for a DISTINCT matrix with `d`
    /// rows, failure budget `delta`, and `expected_distinct` distinct keys.
    pub fn for_distinct(d: usize, delta: f64, expected_distinct: u64, seed: u64) -> Self {
        let bits = analysis::distinct_fingerprint_bits(d, delta, expected_distinct).min(63);
        Self::new(bits.max(1), seed)
    }

    /// Fingerprint a pre-encoded 64-bit key.
    #[inline]
    pub fn apply(&self, key: u64) -> u64 {
        self.hash.fingerprint(key, self.bits)
    }

    /// Fingerprint a byte string (multi-column keys serialized by the
    /// CWorker).
    #[inline]
    pub fn apply_bytes(&self, key: &[u8]) -> u64 {
        let h = self.hash.hash_bytes(key);
        if self.bits >= 64 {
            h
        } else {
            h >> (64 - self.bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_is_respected() {
        let f = FingerprintSpec::new(16, 1);
        for k in 0..1000u64 {
            assert!(f.apply(k) < 1 << 16);
        }
    }

    #[test]
    #[should_panic(expected = "fingerprint width")]
    fn zero_width_rejected() {
        let _ = FingerprintSpec::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "fingerprint width")]
    fn width_64_rejected() {
        // 64-bit fingerprints would wrap the +1 occupancy bias.
        let _ = FingerprintSpec::new(64, 1);
    }

    #[test]
    fn theorem4_sizing_is_capped_at_63() {
        let f = FingerprintSpec::for_distinct(1000, 1e-4, 500_000_000, 7);
        assert!(f.bits <= 63);
        assert!(f.bits >= 48);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = FingerprintSpec::new(32, 99);
        let b = FingerprintSpec::new(32, 99);
        assert_eq!(a.apply(12345), b.apply(12345));
        assert_eq!(a.apply_bytes(b"chrome/1.0"), b.apply_bytes(b"chrome/1.0"));
    }

    #[test]
    fn collision_rate_roughly_two_to_minus_bits() {
        let f = FingerprintSpec::new(10, 3);
        let n = 2000u64;
        let fps: Vec<u64> = (0..n).map(|k| f.apply(k)).collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let collisions = n as usize - sorted.len();
        // Expected ≈ n - 1024·(1-(1-1/1024)^n) ≈ 880 birthday-collided keys;
        // just check it is in a plausible band (not 0, not everything).
        assert!(collisions > 300 && collisions < 1500, "collisions = {collisions}");
    }
}
