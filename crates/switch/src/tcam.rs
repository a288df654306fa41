//! Ternary (TCAM) match tables.
//!
//! TCAM entries match a key against `(value, mask)` pairs — bits where the
//! mask is 0 are wildcards — and the highest-priority matching entry wins.
//! Cheetah uses the TCAM for the Appendix-D most-significant-bit finder (32
//! or 64 prefix rules locate the leading 1 of an operand in one lookup) and
//! for range-style matching in filters.

use crate::Result;

/// One TCAM entry: `key & mask == value & mask` matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamEntry<A> {
    /// The value to compare against (only bits under the mask matter).
    pub value: u64,
    /// The care mask: 1 bits must match, 0 bits are wildcards.
    pub mask: u64,
    /// Priority; larger wins among multiple matches.
    pub priority: u32,
    /// Action data returned on a match.
    pub action: A,
}

/// A ternary match table.
#[derive(Debug, Clone)]
pub struct TernaryTable<A> {
    name: &'static str,
    entries: Vec<TcamEntry<A>>,
    sorted: bool,
}

impl<A: Clone> TernaryTable<A> {
    /// Create an empty table.
    pub fn new(name: &'static str) -> Self {
        Self { name, entries: Vec::new(), sorted: true }
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Install one entry.
    pub fn install(&mut self, entry: TcamEntry<A>) {
        self.entries.push(entry);
        self.sorted = false;
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.sorted = true;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
            self.sorted = true;
        }
    }

    /// Look up a key; returns the highest-priority matching action.
    pub fn lookup(&mut self, key: u64) -> Option<&A> {
        self.ensure_sorted();
        self.entries.iter().find(|e| key & e.mask == e.value & e.mask).map(|e| &e.action)
    }

    /// Build the most-significant-bit finder used by Appendix D: for a
    /// `width`-bit operand, entry `i` matches keys whose leading 1 is at bit
    /// `i` and returns `i`. A key of zero matches no entry.
    pub fn msb_finder(width: u32) -> Result<TernaryTable<u32>> {
        let mut t = TernaryTable::new("msb-finder");
        for i in 0..width {
            // Keys with bit i set and all higher bits (within width) zero.
            let value = 1u64 << i;
            let mut mask = !0u64 << i; // bit i and everything above
            if width < 64 {
                mask &= (1u64 << width) - 1;
            }
            t.install(TcamEntry { value, mask, priority: i, action: i });
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_matching() {
        let mut t = TernaryTable::new("t");
        // Match anything whose top nibble is 0xA.
        t.install(TcamEntry { value: 0xA0, mask: 0xF0, priority: 1, action: "a" });
        assert_eq!(t.lookup(0xA7), Some(&"a"));
        assert_eq!(t.lookup(0xB7), None);
    }

    #[test]
    fn priority_breaks_ties() {
        let mut t = TernaryTable::new("t");
        t.install(TcamEntry { value: 0, mask: 0, priority: 0, action: "default" });
        t.install(TcamEntry { value: 0x10, mask: 0xF0, priority: 5, action: "specific" });
        assert_eq!(t.lookup(0x15), Some(&"specific"));
        assert_eq!(t.lookup(0x25), Some(&"default"));
    }

    #[test]
    fn msb_finder_32() {
        let mut t = TernaryTable::<()>::msb_finder(32).unwrap();
        assert_eq!(t.entries.len(), 32);
        assert_eq!(t.lookup(1), Some(&0));
        assert_eq!(t.lookup(0b1000), Some(&3));
        assert_eq!(t.lookup(0xFFFF_FFFF), Some(&31));
        assert_eq!(t.lookup(0), None, "zero has no leading 1");
    }

    #[test]
    fn msb_finder_64() {
        let mut t = TernaryTable::<()>::msb_finder(64).unwrap();
        assert_eq!(t.entries.len(), 64);
        for bit in 0..64u32 {
            let key = 1u64 << bit;
            assert_eq!(t.lookup(key), Some(&bit));
            // A few extra low bits set must not change the answer.
            let noisy = key | (key >> 1) | 1;
            assert_eq!(t.lookup(noisy), Some(&bit));
        }
    }

    #[test]
    fn msb_finder_agrees_with_leading_zeros() {
        let mut t = TernaryTable::<()>::msb_finder(64).unwrap();
        // Deterministic pseudo-random sample.
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        for _ in 0..1000 {
            x = crate::hash::mix64(x);
            if x == 0 {
                continue;
            }
            let expect = 63 - x.leading_zeros();
            assert_eq!(t.lookup(x), Some(&expect));
        }
    }

    #[test]
    fn clear_empties_table() {
        let mut t = TernaryTable::new("t");
        t.install(TcamEntry { value: 0, mask: 0, priority: 0, action: 1u8 });
        t.clear();
        assert_eq!(t.entries.len(), 0);
        assert_eq!(t.lookup(0), None);
    }
}
