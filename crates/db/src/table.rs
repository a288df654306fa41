//! Columnar tables split into partitions.
//!
//! A [`Table`] is a schema plus a list of [`Partition`]s; each partition is
//! a set of equal-length columns. One worker owns one (or more) partitions,
//! mirroring Spark's task-per-partition execution.

use crate::value::{DataType, Value};

/// One column of a partition.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Integer column.
    Int(Vec<i64>),
    /// String column.
    Str(Vec<String>),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Str(v) => v.len(),
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
            Column::Str(_) => DataType::Str,
        }
    }

    /// Cell accessor (clones — used on output paths, not inner loops).
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Integer view, or `None` for string columns.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            Column::Str(_) => None,
        }
    }

    /// String view, or `None` for int columns.
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v),
            Column::Int(_) => None,
        }
    }

    /// Approximate in-memory/wire size of the whole column.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Column::Int(v) => v.len() as u64 * 8,
            Column::Str(v) => v.iter().map(|s| 4 + s.len() as u64).sum(),
        }
    }
}

/// One horizontal slice of a table, owned by one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    columns: Vec<Column>,
    rows: usize,
}

impl Partition {
    /// Build from columns (all must have equal length).
    pub fn new(columns: Vec<Column>) -> Self {
        let rows = columns.first().map_or(0, Column::len);
        assert!(
            columns.iter().all(|c| c.len() == rows),
            "all columns of a partition must have the same length"
        );
        Self { columns, rows }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column accessor.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
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

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(n, _)| n == name)
    }

    /// The partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Total row count.
    pub fn rows(&self) -> usize {
        self.partitions.iter().map(Partition::rows).sum()
    }

    /// Fetch one row by (partition, row) entry id.
    pub fn fetch(&self, partition: usize, row: usize) -> Vec<Value> {
        self.partitions[partition].row(row)
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
    /// varies the partition count over a fixed dataset).
    pub fn repartition(&self, n: usize) -> Table {
        assert!(n > 0, "need at least one partition");
        let total = self.rows();
        let per = total.div_ceil(n);
        // Gather row-major, then rebuild columns per chunk. This is a setup
        // path, not a measured path, so clarity over speed.
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(total);
        for p in &self.partitions {
            for r in 0..p.rows() {
                rows.push(p.row(r));
            }
        }
        let mut partitions = Vec::with_capacity(n);
        for chunk in rows.chunks(per.max(1)) {
            let mut cols: Vec<Column> = self
                .fields
                .iter()
                .map(|(_, t)| match t {
                    DataType::Int => Column::Int(Vec::with_capacity(chunk.len())),
                    DataType::Str => Column::Str(Vec::with_capacity(chunk.len())),
                })
                .collect();
            for row in chunk {
                for (c, v) in cols.iter_mut().zip(row) {
                    match (c, v) {
                        (Column::Int(vec), Value::Int(x)) => vec.push(*x),
                        (Column::Str(vec), Value::Str(s)) => vec.push(s.clone()),
                        _ => panic!("row value type does not match schema"),
                    }
                }
            }
            partitions.push(Partition::new(cols));
        }
        while partitions.len() < n {
            // Degenerate tiny tables: pad with empty partitions.
            let cols = self
                .fields
                .iter()
                .map(|(_, t)| match t {
                    DataType::Int => Column::Int(Vec::new()),
                    DataType::Str => Column::Str(Vec::new()),
                })
                .collect();
            partitions.push(Partition::new(cols));
        }
        Table { name: self.name.clone(), fields: self.fields.clone(), partitions }
    }
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

    /// Append one row.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.fields.len(), "row arity mismatch");
        for (c, v) in self.current.iter_mut().zip(row) {
            match (c, v) {
                (Column::Int(vec), Value::Int(x)) => vec.push(x),
                (Column::Str(vec), Value::Str(s)) => vec.push(s),
                _ => panic!("row value type does not match schema"),
            }
        }
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

    /// Finish the table.
    pub fn build(mut self) -> Table {
        if !self.current[0].is_empty() || self.partitions.is_empty() {
            self.cut();
        }
        Table { name: self.name, fields: self.fields, partitions: self.partitions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.column_index("price"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.fetch(1, 0), vec![Value::Str("Fries".into()), Value::Int(2)]);
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
                    all.push(r.fetch(pi, ri));
                }
            }
            all.sort();
            let mut want: Vec<Vec<Value>> = (0..2)
                .flat_map(|pi| (0..t.partitions()[pi].rows()).map(move |ri| (pi, ri)))
                .map(|(pi, ri)| t.fetch(pi, ri))
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

    #[test]
    fn column_wire_bytes() {
        let c = Column::Str(vec!["ab".into(), "c".into()]);
        assert_eq!(c.wire_bytes(), (4 + 2) + (4 + 1));
        assert_eq!(Column::Int(vec![1, 2, 3]).wire_bytes(), 24);
    }
}
