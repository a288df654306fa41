//! The Cheetah packet formats (Figure 4).
//!
//! Cheetah runs its own channel on top of UDP, decoupled from Spark's
//! normal communication. Each data message carries a flow id, an entry
//! identifier that doubles as the sequence number of the reliability
//! protocol, and `n` values (one per queried column) — the variable-length
//! header of Figure 4. ACKs carry the flow id, the acknowledged sequence
//! number, and whether the ACK came from the switch (entry pruned) or the
//! master (entry delivered).
//!
//! Parsing is defensive, smoltcp-style: every accessor validates lengths,
//! a 16-bit ones'-complement checksum detects fault-injected corruption,
//! and malformed packets yield a typed [`WireError`] — never a panic.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Packet type discriminants on the wire.
const TYPE_DATA: u8 = 1;
const TYPE_ACK: u8 = 2;
const TYPE_FIN: u8 = 3;
const TYPE_FIN_ACK: u8 = 4;

/// Maximum number of values a data packet can carry (8-bit `n` field, but
/// bounded further by the PHV budget of any real switch).
pub const MAX_VALUES: usize = 16;

/// Wire-format errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the claimed contents.
    Truncated,
    /// Unknown packet type byte.
    BadType(u8),
    /// `n` exceeds [`MAX_VALUES`].
    TooManyValues(u8),
    /// Checksum mismatch (corrupted in flight).
    BadChecksum,
    /// Structurally complete but semantically malformed payload — e.g.
    /// invalid UTF-8 in a string field, or trailing bytes beyond the
    /// declared contents.
    BadPayload,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadType(t) => write!(f, "unknown packet type {t}"),
            WireError::TooManyValues(n) => write!(f, "too many values: {n}"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadPayload => write!(f, "malformed payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// A data message: one entry of a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Flow id (dataset/query channel).
    pub fid: u32,
    /// Entry identifier, doubling as the reliability sequence number.
    pub seq: u64,
    /// The queried column values (already encoded by the CWorker).
    pub values: Vec<u64>,
}

/// Who acknowledged a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckSource {
    /// The switch pruned the entry (it will never reach the master).
    SwitchPruned,
    /// The master received the entry.
    Master,
}

/// An acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckPacket {
    /// Flow id.
    pub fid: u32,
    /// Acknowledged sequence number.
    pub seq: u64,
    /// Switch (pruned) or master (delivered).
    pub source: AckSource,
}

/// Any Cheetah message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Entry data.
    Data(DataPacket),
    /// Acknowledgement.
    Ack(AckPacket),
    /// End of a flow's transmission: `last_seq` entries were sent.
    Fin {
        /// Flow id.
        fid: u32,
        /// Highest sequence number of the flow.
        last_seq: u64,
    },
    /// Master's acknowledgement of a FIN.
    FinAck {
        /// Flow id.
        fid: u32,
    },
}

/// Internet-style 16-bit ones'-complement checksum (shared with the
/// survivor-batch framing in [`crate::stream`]).
pub(crate) fn checksum(bytes: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

impl Packet {
    /// Serialize, appending a trailing checksum.
    pub fn emit(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(32);
        match self {
            Packet::Data(d) => {
                assert!(d.values.len() <= MAX_VALUES, "too many values to emit");
                b.put_u8(TYPE_DATA);
                b.put_u32(d.fid);
                b.put_u64(d.seq);
                b.put_u8(d.values.len() as u8);
                for v in &d.values {
                    b.put_u64(*v);
                }
            }
            Packet::Ack(a) => {
                b.put_u8(TYPE_ACK);
                b.put_u32(a.fid);
                b.put_u64(a.seq);
                b.put_u8(match a.source {
                    AckSource::SwitchPruned => 0,
                    AckSource::Master => 1,
                });
            }
            Packet::Fin { fid, last_seq } => {
                b.put_u8(TYPE_FIN);
                b.put_u32(*fid);
                b.put_u64(*last_seq);
            }
            Packet::FinAck { fid } => {
                b.put_u8(TYPE_FIN_ACK);
                b.put_u32(*fid);
            }
        }
        let ck = checksum(&b);
        b.put_u16(ck);
        b.freeze()
    }

    /// Parse and verify the checksum.
    pub fn parse(mut buf: Bytes) -> Result<Packet, WireError> {
        if buf.len() < 3 {
            return Err(WireError::Truncated);
        }
        let body_len = buf.len() - 2;
        let claimed = u16::from_be_bytes([buf[body_len], buf[body_len + 1]]);
        if checksum(&buf[..body_len]) != claimed {
            return Err(WireError::BadChecksum);
        }
        let ty = buf.get_u8();
        match ty {
            TYPE_DATA => {
                if buf.remaining() < 4 + 8 + 1 + 2 {
                    return Err(WireError::Truncated);
                }
                let fid = buf.get_u32();
                let seq = buf.get_u64();
                let n = buf.get_u8();
                if n as usize > MAX_VALUES {
                    return Err(WireError::TooManyValues(n));
                }
                if buf.remaining() < n as usize * 8 + 2 {
                    return Err(WireError::Truncated);
                }
                let values = (0..n).map(|_| buf.get_u64()).collect();
                Ok(Packet::Data(DataPacket { fid, seq, values }))
            }
            TYPE_ACK => {
                if buf.remaining() < 4 + 8 + 1 + 2 {
                    return Err(WireError::Truncated);
                }
                let fid = buf.get_u32();
                let seq = buf.get_u64();
                let source = match buf.get_u8() {
                    0 => AckSource::SwitchPruned,
                    _ => AckSource::Master,
                };
                Ok(Packet::Ack(AckPacket { fid, seq, source }))
            }
            TYPE_FIN => {
                if buf.remaining() < 4 + 8 + 2 {
                    return Err(WireError::Truncated);
                }
                let fid = buf.get_u32();
                let last_seq = buf.get_u64();
                Ok(Packet::Fin { fid, last_seq })
            }
            TYPE_FIN_ACK => {
                if buf.remaining() < 4 + 2 {
                    return Err(WireError::Truncated);
                }
                Ok(Packet::FinAck { fid: buf.get_u32() })
            }
            other => Err(WireError::BadType(other)),
        }
    }

    /// Bytes this packet occupies on the wire including Ethernet/IP/UDP
    /// overhead (42 bytes of encapsulation + the Cheetah payload, padded
    /// to the 64-byte minimum Ethernet frame).
    pub fn wire_bytes(&self) -> u64 {
        let payload = self.emit().len() as u64;
        (payload + 42).max(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let bytes = p.emit();
        let q = Packet::parse(bytes).expect("parse back");
        assert_eq!(p, q);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Packet::Data(DataPacket { fid: 7, seq: 123456789, values: vec![1, 2, 3] }));
        roundtrip(Packet::Data(DataPacket { fid: 0, seq: 0, values: vec![] }));
        roundtrip(Packet::Data(DataPacket {
            fid: u32::MAX,
            seq: u64::MAX,
            values: vec![u64::MAX; MAX_VALUES],
        }));
    }

    #[test]
    fn ack_fin_roundtrip() {
        roundtrip(Packet::Ack(AckPacket { fid: 1, seq: 9, source: AckSource::SwitchPruned }));
        roundtrip(Packet::Ack(AckPacket { fid: 1, seq: 9, source: AckSource::Master }));
        roundtrip(Packet::Fin { fid: 3, last_seq: 100 });
        roundtrip(Packet::FinAck { fid: 3 });
    }

    #[test]
    fn corruption_detected() {
        let p = Packet::Data(DataPacket { fid: 7, seq: 42, values: vec![5, 6] });
        let bytes = p.emit();
        for i in 0..bytes.len() {
            let mut m = bytes.to_vec();
            m[i] ^= 0x40;
            let res = Packet::parse(Bytes::from(m));
            // Either the checksum catches it, or (for the checksum bytes /
            // semantic-neutral flips) parsing may still fail another way —
            // but it must never panic and must not silently return the
            // original packet.
            if let Ok(q) = res {
                assert_ne!(q, p, "bit flip at {i} went unnoticed");
            }
        }
    }

    #[test]
    fn truncation_detected() {
        let p = Packet::Data(DataPacket { fid: 7, seq: 42, values: vec![5, 6, 7] });
        let bytes = p.emit();
        for len in 0..bytes.len() {
            let res = Packet::parse(bytes.slice(0..len));
            assert!(res.is_err(), "truncated to {len} bytes parsed successfully");
        }
    }

    #[test]
    fn bad_type_rejected() {
        let mut b = BytesMut::new();
        b.put_u8(99);
        b.put_u32(0);
        let ck = checksum(&b);
        b.put_u16(ck);
        assert_eq!(Packet::parse(b.freeze()), Err(WireError::BadType(99)));
    }

    #[test]
    fn too_many_values_rejected() {
        // Hand-craft a data packet claiming n = 200.
        let mut b = BytesMut::new();
        b.put_u8(TYPE_DATA);
        b.put_u32(1);
        b.put_u64(1);
        b.put_u8(200);
        let ck = checksum(&b);
        b.put_u16(ck);
        assert_eq!(Packet::parse(b.freeze()), Err(WireError::TooManyValues(200)));
    }

    #[test]
    fn wire_bytes_has_minimum_frame() {
        let small = Packet::FinAck { fid: 1 };
        assert_eq!(small.wire_bytes(), 64);
        let big = Packet::Data(DataPacket { fid: 1, seq: 1, values: vec![0; 10] });
        assert!(big.wire_bytes() > 64);
    }

    #[test]
    fn checksum_catches_swapped_fields() {
        // Same bytes, different order: must produce different checksums in
        // the common case (sanity of the checksum routine).
        assert_ne!(checksum(&[1, 2, 3, 4]), checksum(&[4, 3, 2, 1]));
        assert_eq!(checksum(&[]), 0xFFFF);
    }
}
