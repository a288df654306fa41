//! The permitted stateless ALU operation set.
//!
//! §2.2 of the paper: *"There are limited operations we can run on switches
//! (e.g. hashing, bit shifting, bit matching, etc). These are insufficient
//! for queries which sometimes require string operations, and other
//! arithmetic operations (e.g., multiplication, division, log)."*
//!
//! This module is the single place where per-packet arithmetic is defined.
//! Every pruning algorithm computes through [`AluOp::eval`] (or the typed
//! helpers), so a reviewer can audit at a glance that nothing outside the
//! hardware op set is used on the data path. Multiplication, division,
//! logarithms and floating point are deliberately absent; the
//! [`aph`](crate::aph) module shows the paper's lookup-table workaround for
//! `log`.

/// A stateless ALU operation on up to two operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// `a + b`, wrapping (hardware adders wrap).
    Add,
    /// `a - b`, wrapping.
    Sub,
    /// Saturating add (common stateful-ALU mode for counters).
    AddSat,
    /// `min(a, b)`.
    Min,
    /// `max(a, b)`.
    Max,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `b & 63`.
    Shl,
    /// Logical shift right by `b & 63`.
    Shr,
    /// `1` if `a == b` else `0`.
    Eq,
    /// `1` if `a > b` else `0` (unsigned).
    Gt,
    /// `1` if `a < b` else `0` (unsigned).
    Lt,
}

impl AluOp {
    /// Evaluate the operation.
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::AddSat => a.saturating_add(b),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a << (b & 63),
            AluOp::Shr => a >> (b & 63),
            AluOp::Eq => u64::from(a == b),
            AluOp::Gt => u64::from(a > b),
            AluOp::Lt => u64::from(a < b),
        }
    }
}

/// A power-of-two multiply expressed as the shift the hardware would use.
///
/// The deterministic TOP-N algorithm sets its thresholds to `t_i = 2^i · t0`
/// precisely because this is the only "multiplication" a switch can do.
#[inline]
pub fn mul_pow2(a: u64, exp: u32) -> u64 {
    if a == 0 {
        return 0;
    }
    if exp >= 64 || a.leading_zeros() < exp {
        return u64::MAX; // saturate instead of losing high bits
    }
    a << exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Add.eval(u64::MAX, 1), 0, "hardware adders wrap");
        assert_eq!(AluOp::AddSat.eval(u64::MAX, 1), u64::MAX);
        assert_eq!(AluOp::Sub.eval(3, 5), u64::MAX - 1);
        assert_eq!(AluOp::Min.eval(4, 9), 4);
        assert_eq!(AluOp::Max.eval(4, 9), 9);
    }

    #[test]
    fn bit_ops() {
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.eval(1, 8), 256);
        assert_eq!(AluOp::Shr.eval(256, 8), 1);
        // Shift amounts wrap at 64 like the hardware barrel shifter.
        assert_eq!(AluOp::Shl.eval(1, 64), 1);
    }

    #[test]
    fn predicates() {
        assert_eq!(AluOp::Eq.eval(7, 7), 1);
        assert_eq!(AluOp::Eq.eval(7, 8), 0);
        assert_eq!(AluOp::Gt.eval(8, 7), 1);
        assert_eq!(AluOp::Lt.eval(7, 8), 1);
    }

    #[test]
    fn mul_pow2_saturates_instead_of_overflowing() {
        assert_eq!(mul_pow2(3, 2), 12);
        assert_eq!(mul_pow2(1, 63), 1 << 63);
        assert_eq!(mul_pow2(2, 63), u64::MAX);
        assert_eq!(mul_pow2(1, 64), u64::MAX);
    }
}
