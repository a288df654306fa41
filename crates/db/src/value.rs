//! Typed values and their switch encodings.

use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
}

/// One cell value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// String value.
    Str(String),
}

impl Value {
    /// The value's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Integer content, or `None` for strings.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// String content, or `None` for ints.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Int(_) => None,
        }
    }

    /// Approximate serialized size in bytes (for transfer accounting).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Str(s) => 4 + s.len() as u64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// Order-preserving encoding of an `i64` into a `u64`:
/// `a < b  ⇔  encode(a) < encode(b)`. This is how the CWorker serializes
/// integer order-by / comparison columns so the switch's *unsigned* ALU
/// comparisons agree with signed SQL semantics.
#[inline]
pub fn encode_ordered_i64(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Inverse of [`encode_ordered_i64`].
#[inline]
pub fn decode_ordered_i64(u: u64) -> i64 {
    (u ^ (1u64 << 63)) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_encoding_preserves_order() {
        let samples = [i64::MIN, -5, -1, 0, 1, 42, i64::MAX];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(a < b, encode_ordered_i64(a) < encode_ordered_i64(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn ordered_encoding_roundtrips() {
        for &v in &[i64::MIN, -1, 0, 7, i64::MAX] {
            assert_eq!(decode_ordered_i64(encode_ordered_i64(v)), v);
        }
    }

    #[test]
    fn wire_bytes() {
        assert_eq!(Value::Int(0).wire_bytes(), 8);
        assert_eq!(Value::Str("abcd".into()).wire_bytes(), 8);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_str(), None);
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).data_type(), DataType::Str);
    }
}
