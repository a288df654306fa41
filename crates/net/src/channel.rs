//! Link models with fault injection.
//!
//! Following the smoltcp examples' fault injector: a link can drop packets,
//! corrupt one octet, duplicate a delivery, and jitter arrival times (the
//! reordering source), and is shaped by a serialization rate. Everything
//! is seeded, so lossy runs are exactly reproducible.

use bytes::Bytes;
use cheetah_switch::hash::mix64;

/// Simulated nanoseconds.
pub type SimTime = u64;

/// Fault-injection knobs (probabilities in `[0, 1]`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability one octet of the packet is flipped (the checksum will
    /// catch it at the receiver, turning it into an effective drop).
    pub corrupt_prob: f64,
    /// Probability a delivered packet arrives twice (NIC/switch
    /// duplication; the receiver's sequence dedup absorbs it).
    pub dup_prob: f64,
    /// Uniform extra per-arrival delay in `[0, jitter_ns)`. Non-zero
    /// jitter lets a later packet overtake an earlier one — the
    /// reordering the switch's `Y > X+1` rule exists for.
    pub jitter_ns: SimTime,
}

impl FaultProfile {
    /// No faults.
    pub fn lossless() -> Self {
        Self { drop_prob: 0.0, corrupt_prob: 0.0, dup_prob: 0.0, jitter_ns: 0 }
    }

    /// The smoltcp examples' "good starting value" (15% drop, 15%
    /// corrupt), plus mild duplication and enough jitter to reorder
    /// back-to-back frames.
    pub fn harsh() -> Self {
        Self { drop_prob: 0.15, corrupt_prob: 0.15, dup_prob: 0.05, jitter_ns: 5_000 }
    }
}

/// A tiny deterministic RNG (splitmix64 stream).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Seeded RNG.
    pub fn new(seed: u64) -> Self {
        Self { state: seed ^ 0x5E_ED0F_CAFE }
    }

    /// Next u64.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A unidirectional link: serialization rate, propagation delay, faults.
#[derive(Debug, Clone)]
pub struct Link {
    /// Bits per second.
    pub rate_bps: f64,
    /// Propagation + processing delay in nanoseconds.
    pub latency_ns: SimTime,
    /// Fault profile.
    pub faults: FaultProfile,
    /// The time until which the wire is busy serializing earlier packets.
    busy_until: SimTime,
    rng: SimRng,
    /// Packets dropped by fault injection.
    pub dropped: u64,
    /// Packets corrupted by fault injection.
    pub corrupted: u64,
    /// Packets duplicated by fault injection.
    pub duplicated: u64,
}

/// One copy of a transmitted packet reaching the far end of a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time.
    pub at: SimTime,
    /// The bytes that arrive (possibly corrupted).
    pub bytes: Bytes,
}

impl Link {
    /// A link with the given rate/latency/faults.
    pub fn new(rate_bps: f64, latency_ns: SimTime, faults: FaultProfile, seed: u64) -> Self {
        Self {
            rate_bps,
            latency_ns,
            faults,
            busy_until: 0,
            rng: SimRng::new(seed),
            dropped: 0,
            corrupted: 0,
            duplicated: 0,
        }
    }

    /// Transmit a packet at `now`: the link serializes it (bytes padded
    /// with frame overhead by the caller via `wire_bytes`), applies
    /// faults, and reports every copy that arrives — zero for a drop,
    /// one normally, two under duplication. Jitter is drawn per arrival,
    /// so arrivals on a jittered link may overtake each other.
    pub fn transmit(&mut self, now: SimTime, bytes: Bytes, wire_bytes: u64) -> Vec<Arrival> {
        let start = now.max(self.busy_until);
        let ser_ns = (wire_bytes as f64 * 8.0 / self.rate_bps * 1e9) as SimTime;
        self.busy_until = start + ser_ns;
        if self.rng.next_f64() < self.faults.drop_prob {
            self.dropped += 1;
            return Vec::new();
        }
        let bytes = if self.rng.next_f64() < self.faults.corrupt_prob {
            self.corrupted += 1;
            let mut m = bytes.to_vec();
            let i = self.rng.below(m.len().max(1));
            if !m.is_empty() {
                m[i] ^= 1 << self.rng.below(8);
            }
            Bytes::from(m)
        } else {
            bytes
        };
        let mut out = Vec::with_capacity(1);
        let at = self.busy_until + self.latency_ns + self.jitter();
        out.push(Arrival { at, bytes: bytes.clone() });
        if self.faults.dup_prob > 0.0 && self.rng.next_f64() < self.faults.dup_prob {
            self.duplicated += 1;
            let at = self.busy_until + self.latency_ns + self.jitter();
            out.push(Arrival { at, bytes });
        }
        out
    }

    fn jitter(&mut self) -> SimTime {
        if self.faults.jitter_ns == 0 {
            0
        } else {
            self.rng.next_u64() % self.faults.jitter_ns
        }
    }

    /// The time until which this link is serializing.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_f64_in_unit_interval() {
        let mut r = SimRng::new(1);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn lossless_link_delivers_in_order_with_serialization() {
        let mut l = Link::new(8e9, 1_000, FaultProfile::lossless(), 0);
        // 1000 bytes at 8 Gbps = 1 µs serialization.
        let o1 = l.transmit(0, Bytes::from_static(b"x"), 1000);
        let o2 = l.transmit(0, Bytes::from_static(b"y"), 1000);
        assert_eq!(o1.len(), 1);
        assert_eq!(o2.len(), 1);
        assert_eq!(o1[0].at, 1_000 + 1_000);
        assert_eq!(o2[0].at, 2_000 + 1_000, "second packet queues behind the first");
    }

    #[test]
    fn drop_rate_approximates_profile() {
        let faults = FaultProfile { drop_prob: 0.3, ..FaultProfile::lossless() };
        let mut l = Link::new(1e12, 0, faults, 42);
        let n = 20_000;
        let mut dropped = 0;
        for i in 0..n {
            if l.transmit(i, Bytes::from_static(b"p"), 64).is_empty() {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let faults = FaultProfile { corrupt_prob: 1.0, ..FaultProfile::lossless() };
        let mut l = Link::new(1e12, 0, faults, 9);
        let orig = Bytes::from_static(b"hello world");
        let arrivals = l.transmit(0, orig.clone(), 64);
        assert_eq!(arrivals.len(), 1, "corruption must not drop");
        let diff: u32 =
            orig.iter().zip(arrivals[0].bytes.iter()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn duplication_delivers_the_same_bytes_twice() {
        let faults = FaultProfile { dup_prob: 1.0, ..FaultProfile::lossless() };
        let mut l = Link::new(1e12, 100, faults, 3);
        let arrivals = l.transmit(0, Bytes::from_static(b"frame"), 64);
        assert_eq!(arrivals.len(), 2);
        assert_eq!(arrivals[0].bytes, arrivals[1].bytes);
        assert_eq!(l.duplicated, 1);
    }

    #[test]
    fn jitter_reorders_back_to_back_packets() {
        // With jitter far above the serialization gap, some later packet
        // must arrive before an earlier one.
        let faults = FaultProfile { jitter_ns: 100_000, ..FaultProfile::lossless() };
        let mut l = Link::new(1e12, 0, faults, 11);
        let mut last = 0u64;
        let mut reordered = false;
        for i in 0..100 {
            let a = l.transmit(i, Bytes::from_static(b"p"), 64);
            if a[0].at < last {
                reordered = true;
            }
            last = a[0].at;
        }
        assert!(reordered, "jitter must be able to reorder arrivals");
    }

    #[test]
    fn zero_jitter_preserves_fifo_order() {
        let mut l = Link::new(1e9, 500, FaultProfile::lossless(), 0);
        let mut last = 0u64;
        for i in 0..100 {
            let a = l.transmit(i, Bytes::from_static(b"p"), 125);
            assert!(a[0].at >= last, "lossless link must stay FIFO");
            last = a[0].at;
        }
    }

    #[test]
    fn faster_link_finishes_sooner() {
        let mut slow = Link::new(1e9, 0, FaultProfile::lossless(), 0);
        let mut fast = Link::new(10e9, 0, FaultProfile::lossless(), 0);
        for _ in 0..100 {
            slow.transmit(0, Bytes::from_static(b"p"), 125);
            fast.transmit(0, Bytes::from_static(b"p"), 125);
        }
        assert!(fast.busy_until() * 9 < slow.busy_until());
    }
}
