//! Columnar tables split into partitions.
//!
//! A [`Table`] is a schema plus a list of [`Partition`]s; each partition is
//! a set of equal-length columns. One worker owns one (or more) partitions,
//! mirroring Spark's task-per-partition execution.
//!
//! A string column that repeats is also coded once, at load
//! ([`TableBuilder::build`]): one dictionary for the whole table, and per
//! partition one `u32` code per row, kept beside the plain strings
//! ([`Partition::coded`]). The baseline reads the plain strings; the
//! operators read the codes.

use crate::value::{DataType, Value};
use cheetah_switch::hash::mix64;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One column of a partition.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>),
    /// String column.
    Str(Vec<String>),
    /// Dictionary-coded string column: row `r` holds `dict[codes[r]]`.
    /// The [`Dictionary`] holds each distinct string once, in first-seen
    /// order, beside its rank (the codes in [`Value`] order, sorted on
    /// first use), and is shared by `Arc`, so a completion can fold, count
    /// and probe by code without reading a string, and answer in order
    /// without sorting. Two places make one:
    ///
    /// * [`TableBuilder::build`] codes a repeating string column of a
    ///   loaded table, one dictionary for the whole table, and keeps the
    ///   codes beside the plain strings ([`Partition::coded`]);
    /// * [`route_columns`](crate::sharded::route_columns) routes a unit's
    ///   key column as codes against one dictionary per shard, holding the
    ///   strings the shard holds and shared by the units of every stream
    ///   routed together — both sides of a JOIN.
    Dict {
        /// One code per row, indexing `dict`.
        codes: Vec<u32>,
        /// The distinct strings, each once, in first-seen order, and their
        /// rank.
        dict: Arc<Dictionary>,
    },
}

/// The strings a [`Column::Dict`] codes against, each once, in first-seen
/// order — code `c` is `dict[c]` — and their rank: the codes listed in
/// [`Value`] order (byte order of the strings). DISTINCT, GROUP BY and
/// HAVING walk their per-code fold in rank order, so they hand their
/// answer over sorted and build no hash map to dedup or group it.
///
/// The rank is computed on first use and kept for the dictionary's life,
/// so loading and routing never sort: a routed shard's dictionary that
/// only a JOIN reads is never ranked, and a loaded table's is ranked once
/// for every request that reads it. It derefs to the strings; equality
/// and `Debug` read the strings alone.
#[derive(Default)]
pub struct Dictionary {
    strings: Box<[String]>,
    rank: OnceLock<Box<[u32]>>,
}

impl Dictionary {
    /// The codes in ascending [`Value`] order of their strings, sorted on
    /// the first call and kept.
    pub(crate) fn rank(&self) -> &[u32] {
        self.rank.get_or_init(|| {
            let n = u32::try_from(self.strings.len()).expect("fewer than 2^32 strings");
            let mut rank: Vec<u32> = (0..n).collect();
            // Each string is held once, so no two codes tie.
            rank.sort_unstable_by_key(|&c| self.strings[c as usize].as_str());
            rank.into()
        })
    }

    /// Has [`rank`](Self::rank) been computed?
    #[cfg(test)]
    pub(crate) fn is_ranked(&self) -> bool {
        self.rank.get().is_some()
    }
}

impl Deref for Dictionary {
    type Target = [String];

    fn deref(&self) -> &[String] {
        &self.strings
    }
}

impl From<Vec<String>> for Dictionary {
    fn from(strings: Vec<String>) -> Self {
        Self { strings: strings.into(), rank: OnceLock::new() }
    }
}

impl PartialEq for Dictionary {
    fn eq(&self, other: &Self) -> bool {
        self.strings == other.strings
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.strings.fmt(f)
    }
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Str(_) | Column::Dict { .. } => DataType::Str,
        }
    }

    /// Cell accessor (clones — used on output paths, not inner loops).
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
            Column::Dict { codes, dict } => Value::Str(dict[codes[row] as usize].clone()),
        }
    }

    /// The string cell at `row` of either string form, or `None` for int
    /// columns.
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            Column::Str(v) => Some(&v[row]),
            Column::Dict { codes, dict } => Some(&dict[codes[row] as usize]),
            Column::Int(_) => None,
        }
    }

    /// Integer view, or `None` for string columns.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            Column::Str(_) | Column::Dict { .. } => None,
        }
    }

    /// Plain string view, or `None` for int and dictionary-coded columns
    /// (read those a cell at a time with [`str_at`](Self::str_at)).
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v),
            Column::Int(_) | Column::Dict { .. } => None,
        }
    }
}

/// One horizontal slice of a table, owned by one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    columns: Vec<Column>,
    /// Per column, its codes where the table coded it at load: a
    /// [`Column::Dict`] over the table's one dictionary for that column.
    /// Empty — no allocation — where nothing is coded, as in a routed
    /// unit: one small allocation per partition moved where the allocator
    /// placed a layout's units, and a warm TOP N over them read 5–12 %
    /// slower.
    coded: Vec<Option<Column>>,
    rows: usize,
}

impl Partition {
    /// Build from columns (all must have equal length). Nothing is coded.
    pub fn new(columns: Vec<Column>) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns of a partition must have the same length"
        );
        Self { coded: Vec::new(), columns, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column accessor: the cells as loaded, strings plain.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column `i` as the operators read it: the [`Column::Dict`] its table
    /// coded at load, if it did, else [`column`](Self::column). The two
    /// hold the same cells.
    pub fn coded(&self, i: usize) -> &Column {
        self.coded.get(i).and_then(Option::as_ref).unwrap_or(&self.columns[i])
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Full row as values (output paths only).
    pub fn row(&self, r: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(r)).collect()
    }
}

/// A schema'd table split into partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    fields: Vec<(String, DataType)>,
    partitions: Vec<Partition>,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field names and types.
    pub fn fields(&self) -> &[(String, DataType)] {
        &self.fields
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.partitions.iter().map(Partition::rows).sum()
    }

    /// Build a table from one ready-made partition. The routing fast path
    /// assembles shard slices column-wise and hands them over whole, so it
    /// never pays the row builder's per-cell [`Value`] boxing.
    pub fn from_partition(
        name: impl Into<String>,
        fields: Vec<(String, DataType)>,
        partition: Partition,
    ) -> Self {
        assert_eq!(partition.width(), fields.len(), "partition arity mismatch");
        for ((name, ty), col) in fields.iter().zip(&partition.columns) {
            assert_eq!(col.data_type(), *ty, "column {name} does not match its declared type");
        }
        Table { name: name.into(), fields, partitions: vec![partition] }
    }

    /// Re-split the same rows into `n` balanced partitions (Figure 6
    /// varies the partition count over a fixed dataset). The rows keep
    /// their order, so the load rule samples the same cells and codes the
    /// same columns, with the same dictionaries.
    pub fn repartition(&self, n: usize) -> Table {
        assert!(n > 0, "need at least one partition");
        let per = self.rows().div_ceil(n).max(1);
        // A setup path, not a measured path: clarity over speed.
        let mut b = TableBuilder::new(self.name.clone(), self.fields.clone(), per);
        for p in &self.partitions {
            for r in 0..p.rows() {
                b.push_row(p.row(r));
            }
        }
        // Degenerate tiny tables: pad with empty partitions.
        if !b.current[0].is_empty() {
            b.cut();
        }
        while b.partitions.len() < n {
            b.cut();
        }
        b.build()
    }

    /// Is string column `col` coded at load ([`Partition::coded`])?
    pub fn is_coded(&self, col: usize) -> bool {
        self.partitions.iter().all(|p| p.coded.get(col).is_some_and(Option::is_some))
    }

    /// The table over `partitions`, each repeating string column coded:
    /// the load rule.
    fn code_repeats(
        name: String,
        fields: Vec<(String, DataType)>,
        mut partitions: Vec<Partition>,
    ) -> Self {
        for (c, (_, ty)) in fields.iter().enumerate() {
            let (distinct, cells) = match ty {
                DataType::Str => sample_repeats(&partitions, c),
                DataType::Int => continue,
            };
            if 2 * distinct <= cells {
                code_column(&mut partitions, c);
            }
        }
        Table { name, fields, partitions }
    }
}

/// Cells of a string column the load rule reads at most: a strided sample,
/// so a table's size does not move the cost of deciding.
///
/// The rule is to code a column iff the sample holds at most half as many
/// distinct strings as cells. Measured on the Big Data tables (600 000
/// visits, 300 000 ranked pages): `pageURL`, `sourceIP` and `destURL` are
/// near-unique and stay plain; `userAgent`, `countryCode`, `languageCode`
/// and `searchWord` repeat and are coded (the workloads crate's
/// `coded_at_load` test holds its generators to these verdicts). A
/// near-unique column would pay a map lookup per row and save nothing:
/// routed coded, `pageURL` read 177 → 251 ns/row.
pub const CODING_SAMPLE: usize = 4096;

/// The load rule's sample of string column `c` over `parts`: the distinct
/// strings among the cells it reads, and how many cells it reads (every
/// `step`-th row, the step chosen so at most [`CODING_SAMPLE`] are read).
/// The column is coded iff the first is at most half the second.
fn sample_repeats(parts: &[Partition], c: usize) -> (usize, usize) {
    let total: usize = parts.iter().map(Partition::rows).sum();
    let step = total.div_ceil(CODING_SAMPLE).max(1);
    let mut seen: HashSet<&str, BuildHasherDefault<StrHasher>> = HashSet::default();
    let (mut cells, mut next, mut base) = (0, 0, 0);
    for p in parts {
        let col = &p.columns[c];
        while next < base + p.rows() {
            seen.insert(col.str_at(next - base).expect("a string column"));
            (cells, next) = (cells + 1, next + step);
        }
        base += p.rows();
    }
    (seen.len(), cells)
}

/// Code string column `c` of every partition against one dictionary: its
/// distinct strings in first-seen order, each once, shared by `Arc` (its
/// rank is left to the first keyed answer that reads it).
fn code_column(parts: &mut [Partition], c: usize) {
    let mut dict: Vec<String> = Vec::new();
    let mut codes: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
    let mut index: HashMap<&str, u32, BuildHasherDefault<StrHasher>> = HashMap::default();
    for p in parts.iter() {
        let cells = p.columns[c].as_str().expect("a loaded string column is plain");
        // `get`, then `insert` for a new string: most rows repeat one, and
        // a lookup does less than the entry API, which reserves first.
        codes.push(
            cells
                .iter()
                .map(|s| match index.get(s.as_str()) {
                    Some(&code) => code,
                    None => {
                        dict.push(s.clone());
                        let code = u32::try_from(dict.len() - 1).expect("fewer than 2^32 strings");
                        index.insert(s, code);
                        code
                    }
                })
                .collect(),
        );
    }
    let dict = Arc::new(Dictionary::from(dict));
    for (p, codes) in parts.iter_mut().zip(codes) {
        p.coded.resize(p.columns.len(), None);
        p.coded[c] = Some(Column::Dict { codes, dict: Arc::clone(&dict) });
    }
}

/// The load coder's string hash: a word at a time, the last word read
/// overlapping the one before it, so no byte is copied, then one mix. On
/// the `adhoc_cold` key column (8-byte strings) its map codes a row in
/// 11–18 ns against SipHash's 28–33 ns (2-core Xeon VM).
#[derive(Default)]
struct StrHasher(u64);

impl StrHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for StrHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        let half = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
        match n {
            8.. => {
                (0..n - 8).step_by(8).for_each(|i| self.add(word(i)));
                self.add(word(n - 8));
            }
            4..8 => self.add(u64::from(half(0)) | u64::from(half(n - 4)) << 32),
            1..4 => {
                self.add(u64::from_le_bytes([bytes[0], bytes[n / 2], bytes[n - 1], 0, 0, 0, 0, 0]))
            }
            0 => {}
        }
        self.add(n as u64);
    }

    /// `str`'s hash ends with a `0xff` byte; the length already delimits it.
    #[inline]
    fn write_u8(&mut self, _: u8) {}
}

/// Row-oriented builder used by the workload generators.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    fields: Vec<(String, DataType)>,
    current: Vec<Column>,
    partitions: Vec<Partition>,
    rows_per_partition: usize,
}

impl TableBuilder {
    /// Start a table with the given schema, cutting partitions every
    /// `rows_per_partition` rows.
    pub fn new(
        name: impl Into<String>,
        fields: Vec<(String, DataType)>,
        rows_per_partition: usize,
    ) -> Self {
        assert!(rows_per_partition > 0);
        let current = fields
            .iter()
            .map(|(_, t)| match t {
                DataType::Int => Column::Int(Vec::new()),
                DataType::Str => Column::Str(Vec::new()),
            })
            .collect();
        Self { name: name.into(), fields, current, partitions: Vec::new(), rows_per_partition }
    }

    /// Append one row: one value per field, in schema order. An array
    /// serves as well as a `Vec`, and allocates nothing.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = Value>) {
        let mut row = row.into_iter();
        for c in &mut self.current {
            match (c, row.next().expect("row arity mismatch")) {
                (Column::Int(vec), Value::Int(x)) => vec.push(x),
                (Column::Str(vec), Value::Str(s)) => vec.push(s),
                _ => panic!("row value type does not match schema"),
            }
        }
        assert!(row.next().is_none(), "row arity mismatch");
        if self.current[0].len() >= self.rows_per_partition {
            self.cut();
        }
    }

    /// Close the partition being filled, even mid-way: the rows pushed
    /// since the last cut become one partition (possibly empty). Lets
    /// generators build tables with *unequal* partition sizes — skewed
    /// worker loads — which the fixed `rows_per_partition` cadence cannot
    /// express.
    pub fn cut_partition(&mut self) {
        self.cut();
    }

    fn cut(&mut self) {
        let fresh: Vec<Column> = self
            .fields
            .iter()
            .map(|(_, t)| match t {
                DataType::Int => Column::Int(Vec::new()),
                DataType::Str => Column::Str(Vec::new()),
            })
            .collect();
        let full = std::mem::replace(&mut self.current, fresh);
        self.partitions.push(Partition::new(full));
    }

    /// Finish the table, coding each string column that repeats
    /// ([`CODING_SAMPLE`] states the rule).
    pub fn build(mut self) -> Table {
        if !self.current[0].is_empty() || self.partitions.is_empty() {
            self.cut();
        }
        Table::code_repeats(self.name, self.fields, self.partitions)
    }
}

#[cfg(test)]
impl Table {
    /// The same partitions with nothing coded: the cells as the table
    /// held them before the load rule.
    pub(crate) fn plain(&self) -> Table {
        let mut t = self.clone();
        t.partitions.iter_mut().for_each(|p| p.coded.clear());
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sample() -> Table {
        let mut b = TableBuilder::new(
            "products",
            vec![("name".into(), DataType::Str), ("price".into(), DataType::Int)],
            2,
        );
        for (n, p) in [("Burger", 4i64), ("Pizza", 7), ("Fries", 2), ("Jello", 5)] {
            b.push_row(vec![Value::Str(n.into()), Value::Int(p)]);
        }
        b.build()
    }

    #[test]
    fn builder_cuts_partitions() {
        let t = sample();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.partitions().len(), 2);
        assert_eq!(t.partitions()[0].rows(), 2);
    }

    #[test]
    fn column_lookup_and_fetch() {
        let t = sample();
        assert_eq!(t.fields()[1].0, "price");
        assert_eq!(t.partitions()[1].row(0), vec![Value::Str("Fries".into()), Value::Int(2)]);
    }

    #[test]
    fn repartition_preserves_rows() {
        let t = sample();
        for n in 1..=5 {
            let r = t.repartition(n);
            assert_eq!(r.partitions().len(), n);
            assert_eq!(r.rows(), 4);
            // Same multiset of rows.
            let mut all: Vec<Vec<Value>> = Vec::new();
            for (pi, p) in r.partitions().iter().enumerate() {
                for ri in 0..p.rows() {
                    all.push(r.partitions()[pi].row(ri));
                }
            }
            all.sort();
            let mut want: Vec<Vec<Value>> = (0..2)
                .flat_map(|pi| (0..t.partitions()[pi].rows()).map(move |ri| (pi, ri)))
                .map(|(pi, ri)| t.partitions()[pi].row(ri))
                .collect();
            want.sort();
            assert_eq!(all, want);
        }
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn unequal_columns_rejected() {
        let _ = Partition::new(vec![Column::Int(vec![1, 2]), Column::Int(vec![1])]);
    }

    #[test]
    fn empty_table_builds() {
        let b = TableBuilder::new("empty", vec![("x".into(), DataType::Int)], 10);
        let t = b.build();
        assert_eq!(t.rows(), 0);
        assert_eq!(t.partitions().len(), 1);
    }

    /// `rows` rows over partitions of `per` rows: a string column cycling
    /// through `distinct` strings, and an int column.
    fn cycling(rows: usize, distinct: usize, per: usize) -> Table {
        let fields = vec![("s".into(), DataType::Str), ("n".into(), DataType::Int)];
        let mut b = TableBuilder::new("cycling", fields, per);
        for r in 0..rows {
            b.push_row(vec![Value::Str(format!("s{}", r % distinct)), Value::Int(r as i64)]);
        }
        b.build()
    }

    /// Every partition's codes read as its plain cells, against one
    /// dictionary shared by `Arc` that holds each string once.
    fn assert_codes_read_as_cells(t: &Table) {
        let Column::Dict { dict: first, .. } = t.partitions()[0].coded(0) else {
            panic!("column 0 is coded");
        };
        assert_eq!(first.iter().collect::<HashSet<_>>().len(), first.len(), "each string once");
        for p in t.partitions() {
            let Column::Dict { dict, codes } = p.coded(0) else { panic!("every partition") };
            assert!(Arc::ptr_eq(dict, first), "one dictionary for the table");
            assert_eq!(codes.len(), p.rows());
            for r in 0..p.rows() {
                assert_eq!(p.coded(0).str_at(r), p.column(0).str_at(r));
            }
            assert!(matches!(p.column(0), Column::Str(_)), "the plain cells stay");
            assert_eq!(p.coded(1), p.column(1), "an int column is never coded");
        }
    }

    #[test]
    fn the_load_rule_codes_a_column_iff_its_sample_is_at_most_half_distinct() {
        // At most 4 096 rows, every cell is sampled: the cut is exact.
        for (distinct, coded) in [(2_000, true), (2_001, false), (1, true)] {
            let t = cycling(4_000, distinct, 1_000);
            assert_eq!(sample_repeats(t.partitions(), 0), (distinct, 4_000));
            assert_eq!(t.is_coded(0), coded, "{distinct} distinct of 4 000");
            if coded {
                assert_codes_read_as_cells(&t);
            } else {
                assert!(t.partitions().iter().all(|p| p.coded(0) == p.column(0)));
            }
        }
        // Past it, a strided sample of at most `CODING_SAMPLE` cells.
        let t = cycling(100_003, 7, 30_000);
        let (distinct, cells) = sample_repeats(t.partitions(), 0);
        assert_eq!(cells, 100_003usize.div_ceil(100_003usize.div_ceil(CODING_SAMPLE)));
        assert!(cells <= CODING_SAMPLE && distinct <= 7);
        assert_codes_read_as_cells(&t);
        // One row is one distinct string of one: left plain.
        assert!(!cycling(1, 1, 1).is_coded(0));
    }

    #[test]
    fn repartitioning_keeps_the_codes() {
        let t = cycling(5_000, 300, 700);
        assert!(t.is_coded(0));
        let Column::Dict { dict, .. } = t.partitions()[0].coded(0) else { unreachable!() };
        for n in [1, 3, 8, 6_000] {
            let r = t.repartition(n);
            assert_eq!(r.partitions().len(), n);
            assert!(r.is_coded(0), "{n} partitions");
            assert_codes_read_as_cells(&r);
            let Column::Dict { dict: again, .. } = r.partitions()[0].coded(0) else {
                unreachable!()
            };
            assert_eq!(again, dict, "{n} partitions: the same strings, in the same order");
        }
        // Empty partitions hold no codes, against the one dictionary.
        let padded = cycling(4, 1, 1).repartition(6);
        assert_codes_read_as_cells(&padded);
        assert_eq!(padded.partitions()[5].rows(), 0);
    }

    fn two_fields() -> Vec<(String, DataType)> {
        vec![("s".into(), DataType::Str), ("n".into(), DataType::Int)]
    }

    #[test]
    fn a_row_is_pushed_from_an_array_or_a_vec() {
        let mut b = TableBuilder::new("t", two_fields(), 8);
        b.push_row([Value::Str("a".into()), Value::Int(1)]);
        b.push_row(vec![Value::Str("b".into()), Value::Int(2)]);
        let t = b.build();
        assert_eq!(t.partitions()[0].row(0), vec![Value::Str("a".into()), Value::Int(1)]);
        assert_eq!(t.partitions()[0].row(1), vec![Value::Str("b".into()), Value::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn a_row_longer_than_the_schema_is_refused() {
        let mut b = TableBuilder::new("t", two_fields(), 8);
        b.push_row([Value::Str("a".into()), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn a_row_shorter_than_the_schema_is_refused() {
        TableBuilder::new("t", two_fields(), 8).push_row([Value::Str("a".into())]);
    }

    /// The strings `dict`'s rank lists, in its order.
    fn ranked(dict: &Dictionary) -> Vec<Value> {
        dict.rank().iter().map(|&c| Value::Str(dict[c as usize].clone())).collect()
    }

    /// `dict`'s strings as `Value`s, sorted.
    fn sorted(dict: &Dictionary) -> Vec<Value> {
        let mut values: Vec<Value> = dict.iter().cloned().map(Value::Str).collect();
        values.sort();
        values
    }

    #[test]
    fn the_rank_lists_the_codes_in_value_order() {
        let edges = [
            // The empty string, prefix pairs, and byte order against case.
            &["ab", "", "a", "b", "Z", "aB", "z", "abc", "A"][..],
            // Non-ASCII: accents, German sharp s, CJK, an emoji, beside the
            // ASCII letters they sort after.
            &["é", "e", "ß", "s", "中文", "中", "日本", "🦀", "ÿ", "f", "é!"],
            // No strings, and one.
            &[],
            &["only"],
        ];
        for strings in edges {
            let dict = Dictionary::from(strings.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            assert!(!dict.is_ranked(), "{strings:?}: built unranked");
            assert_eq!(ranked(&dict), sorted(&dict), "{strings:?}");
            assert!(dict.is_ranked(), "{strings:?}: kept");
        }
        // A loaded table whose rows repeat a few strings thousands of
        // times, in an order that is not theirs: coded at load, ranked
        // only when asked, and in `Value` order.
        let few = ["zeta", "", "Alpha", "alpha", "ß", "al"];
        let mut b = TableBuilder::new("few", vec![("s".into(), DataType::Str)], 1_000);
        for r in 0..12_000 {
            b.push_row([Value::Str(few[r * 7 % few.len()].to_string())]);
        }
        let t = b.build();
        let Column::Dict { dict, .. } = t.partitions()[0].coded(0) else {
            panic!("a repeating column is coded")
        };
        assert_eq!(dict.len(), few.len());
        assert!(!dict.is_ranked(), "loading does not rank");
        assert_eq!(ranked(dict), sorted(dict));
    }

    #[test]
    fn equality_and_debug_ignore_the_rank() {
        let strings = || vec!["b".to_string(), "a".to_string()];
        let (ranked, fresh) = (Dictionary::from(strings()), Dictionary::from(strings()));
        ranked.rank();
        assert_eq!(ranked, fresh);
        assert_eq!(format!("{ranked:?}"), format!("{fresh:?}"));
        assert_eq!(format!("{fresh:?}"), format!("{:?}", strings()));
        assert_ne!(fresh, Dictionary::from(vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn a_dictionary_column_reads_like_its_strings() {
        let plain = Column::Str(vec!["ab".into(), "c".into(), "ab".into()]);
        let dict = Arc::new(Dictionary::from(vec!["ab".to_string(), "c".to_string()]));
        let coded = Column::Dict { codes: vec![0, 1, 0], dict };
        assert_eq!((coded.len(), coded.data_type()), (3, DataType::Str));
        for r in 0..3 {
            assert_eq!((coded.get(r), coded.str_at(r)), (plain.get(r), plain.str_at(r)));
        }
        assert_eq!((coded.as_str(), coded.as_int()), (None, None));
        assert_eq!(Column::Int(vec![1]).str_at(0), None);
    }
}
