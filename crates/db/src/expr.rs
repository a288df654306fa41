//! Predicates for WHERE clauses, including the string `LIKE` the switch
//! cannot evaluate (§4.1's running example).

use crate::value::DataType;

/// Integer comparison operators (signed SQL semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntCmp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

impl IntCmp {
    /// Evaluate.
    #[inline]
    pub fn eval(self, v: i64, lit: i64) -> bool {
        match self {
            IntCmp::Gt => v > lit,
            IntCmp::Ge => v >= lit,
            IntCmp::Lt => v < lit,
            IntCmp::Le => v <= lit,
            IntCmp::Eq => v == lit,
            IntCmp::Ne => v != lit,
        }
    }
}

/// A SQL `LIKE` pattern with `%` wildcards (no `_` support — the paper's
/// example only uses `%`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LikePattern {
    segments: Vec<String>,
    anchored_start: bool,
    anchored_end: bool,
}

impl LikePattern {
    /// Parse a pattern like `"e%s"`, `"%chrome%"`, `"http://%"`.
    pub fn parse(pattern: &str) -> Self {
        let anchored_start = !pattern.starts_with('%');
        let anchored_end = !pattern.ends_with('%');
        let segments = pattern.split('%').filter(|s| !s.is_empty()).map(str::to_string).collect();
        Self { segments, anchored_start, anchored_end }
    }

    /// Does `text` match the pattern?
    pub fn matches(&self, text: &str) -> bool {
        if self.segments.is_empty() {
            // Pure "%...%" of wildcards matches anything; a fully empty
            // pattern matches only the empty string.
            return !self.anchored_start && !self.anchored_end || text.is_empty();
        }
        let mut pos = 0usize;
        for (i, seg) in self.segments.iter().enumerate() {
            let first = i == 0;
            let last = i == self.segments.len() - 1;
            if first && self.anchored_start {
                if !text[pos..].starts_with(seg.as_str()) {
                    return false;
                }
                pos += seg.len();
            } else if last && self.anchored_end {
                let rest = &text[pos..];
                if !rest.ends_with(seg.as_str()) || rest.len() < seg.len() {
                    return false;
                }
                pos = text.len();
            } else {
                match text[pos..].find(seg.as_str()) {
                    Some(at) => pos += at + seg.len(),
                    None => return false,
                }
            }
        }
        true
    }
}

/// A WHERE-clause predicate tree (monotone: And/Or over atoms; negations
/// are pushed into the comparison operators, as §4.1 assumes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DbPredicate {
    /// Integer comparison against a literal.
    CmpInt {
        /// Column index in the table schema.
        col: usize,
        /// Comparison operator.
        op: IntCmp,
        /// Literal.
        lit: i64,
    },
    /// String LIKE — not switch-evaluable.
    Like {
        /// Column index in the table schema.
        col: usize,
        /// The pattern.
        pattern: LikePattern,
    },
    /// Conjunction.
    And(Vec<DbPredicate>),
    /// Disjunction.
    Or(Vec<DbPredicate>),
}

impl DbPredicate {
    /// All column indices the predicate reads.
    pub fn columns(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.typed_columns().into_iter().map(|(col, _)| col).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The `Int` columns the predicate compares, ascending and
    /// deduplicated — the packet value slots of its switch program, in
    /// slot order (a `LIKE` column never reaches the switch).
    pub fn int_columns(&self) -> Vec<usize> {
        let atoms = self.typed_columns().into_iter();
        let mut out: Vec<usize> =
            atoms.filter(|(_, t)| *t == DataType::Int).map(|(col, _)| col).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every atom's column with the type the atom reads it as — `Int`
    /// under a comparison, `Str` under `LIKE` — in tree order.
    pub fn typed_columns(&self) -> Vec<(usize, DataType)> {
        match self {
            DbPredicate::CmpInt { col, .. } => vec![(*col, DataType::Int)],
            DbPredicate::Like { col, .. } => vec![(*col, DataType::Str)],
            DbPredicate::And(xs) | DbPredicate::Or(xs) => {
                xs.iter().flat_map(DbPredicate::typed_columns).collect()
            }
        }
    }

    /// The same predicate over a table that carries only columns `cols`
    /// (ascending, covering [`columns`](Self::columns)), in that order:
    /// every column index becomes its position in `cols`. Positions
    /// ascend with the indices, so the switch sees the same packet slots.
    pub fn remapped(&self, cols: &[usize]) -> DbPredicate {
        let at = |col: &usize| cols.binary_search(col).expect("a column the projection carries");
        match self {
            DbPredicate::CmpInt { col, op, lit } => {
                DbPredicate::CmpInt { col: at(col), op: *op, lit: *lit }
            }
            DbPredicate::Like { col, pattern } => {
                DbPredicate::Like { col: at(col), pattern: pattern.clone() }
            }
            DbPredicate::And(xs) => DbPredicate::And(xs.iter().map(|x| x.remapped(cols)).collect()),
            DbPredicate::Or(xs) => DbPredicate::Or(xs.iter().map(|x| x.remapped(cols)).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_cmp_ops() {
        assert!(IntCmp::Gt.eval(5, 4));
        assert!(!IntCmp::Gt.eval(4, 4));
        assert!(IntCmp::Ge.eval(4, 4));
        assert!(IntCmp::Lt.eval(-5, 0), "signed semantics");
        assert!(IntCmp::Le.eval(0, 0));
        assert!(IntCmp::Eq.eval(7, 7));
        assert!(IntCmp::Ne.eval(7, 8));
    }

    #[test]
    fn like_paper_example() {
        // name LIKE 'e%s' — starts with e, ends with s.
        let p = LikePattern::parse("e%s");
        assert!(p.matches("eggs"));
        assert!(p.matches("es"));
        assert!(!p.matches("eggo"));
        assert!(!p.matches("legs"));
        assert!(!p.matches("e"), "single char cannot satisfy both anchors");
    }

    #[test]
    fn like_contains() {
        let p = LikePattern::parse("%chrome%");
        assert!(p.matches("google chrome 99"));
        assert!(!p.matches("firefox"));
    }

    #[test]
    fn like_prefix_suffix() {
        assert!(LikePattern::parse("http://%").matches("http://a.example"));
        assert!(!LikePattern::parse("http://%").matches("https://a.example"));
        assert!(LikePattern::parse("%.html").matches("index.html"));
        assert!(!LikePattern::parse("%.html").matches("index.htm"));
    }

    #[test]
    fn like_multi_segment() {
        let p = LikePattern::parse("a%b%c");
        assert!(p.matches("aXbYc"));
        assert!(p.matches("abc"));
        assert!(!p.matches("acb"));
        assert!(!p.matches("aXbY"));
    }

    #[test]
    fn like_all_wildcards() {
        assert!(LikePattern::parse("%").matches("anything"));
        assert!(LikePattern::parse("%").matches(""));
        assert!(LikePattern::parse("").matches(""));
        assert!(!LikePattern::parse("").matches("x"));
    }

    #[test]
    fn predicate_columns_and_remapping() {
        let p = DbPredicate::Or(vec![
            DbPredicate::CmpInt { col: 2, op: IntCmp::Gt, lit: 5 },
            DbPredicate::And(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 4 },
                DbPredicate::Like { col: 0, pattern: LikePattern::parse("e%s") },
            ]),
        ]);
        assert_eq!(p.columns(), vec![0, 1, 2]);
        assert_eq!(
            p.typed_columns(),
            vec![(2, DataType::Int), (1, DataType::Int), (0, DataType::Str)]
        );
        assert_eq!(p.remapped(&[0, 1, 2]), p, "a full-width projection moves nothing");
    }
}
