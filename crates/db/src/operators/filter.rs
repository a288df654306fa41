//! `SELECT COUNT(*) WHERE <pred>` — filtering, §4.1 Example #1.
//!
//! Switch-evaluable atoms (integer comparisons) prune on the switch;
//! external atoms (LIKE) are tautology-substituted there and re-checked by
//! the master, which evaluates the *full* predicate on the survivors: row
//! by row through a pruned selection, a column at a time over the
//! identity (the direct arm). A scan reads a string column as the
//! operators see it ([`Partition::coded`]): a coded column's LIKE matches
//! its dictionary's strings, read by code.

use super::{count, Partial, PruningOperator, Selected, Survivors};
use crate::executor::Tables;
use crate::expr::{DbPredicate, IntCmp};
use crate::ops;
use crate::query::QueryOutput;
use crate::table::{Column, Partition};
use crate::value::encode_ordered_i64;
use cheetah_core::{AtomSpec, BoolExpr, CmpOp, ExternalMode, FilterConfig, Predicate, QuerySpec};

/// The filtering operator: predicate lowering + master-side re-check.
pub struct FilterOp<'q> {
    pred: &'q DbPredicate,
    cfg: FilterConfig,
    slots: Vec<usize>,
}

impl<'q> FilterOp<'q> {
    /// Compile `pred` into the switch filter configuration and packet slot
    /// layout.
    pub fn new(pred: &'q DbPredicate) -> Self {
        let (cfg, slots) = filter_config_of(pred);
        Self { pred, cfg, slots }
    }
}

impl PruningOperator for FilterOp<'_> {
    fn kind(&self) -> &'static str {
        "filter-count"
    }

    fn spec(&self) -> cheetah_core::Result<QuerySpec> {
        Ok(QuerySpec::Filter(self.cfg.clone()))
    }

    fn encode_part(&self, _stream: usize, part: &Partition, sink: &mut dyn FnMut(&[u64])) {
        // Resolve every referenced column to a raw slice once per
        // partition.
        let cols: Vec<&[i64]> =
            self.slots.iter().map(|&c| part.column(c).as_int().expect("int filter col")).collect();
        let mut slots = vec![0u64; cols.len()];
        for r in 0..part.rows() {
            for (out, col) in slots.iter_mut().zip(&cols) {
                *out = encode_ordered_i64(col[r]);
            }
            sink(&slots);
        }
    }

    fn fold(&self, src: &Tables<'_>, survivors: &Survivors) -> Partial {
        // Master: evaluate the FULL predicate (including atoms the switch
        // replaced by tautologies) on the survivors, count. A sparse
        // selection re-checks row by row; the identity scans.
        let mut count = 0u64;
        for (part, sel) in survivors.parts(src, 0) {
            count += match sel {
                Selected::All(_) => scan_count(self.pred, part),
                Selected::Rows(ids) => ids
                    .iter()
                    .filter(|&&r| ops::eval_predicate(self.pred, part, r as usize))
                    .count() as u64,
            };
        }
        Partial::Count(count)
    }

    fn finish(&self, partials: Vec<Partial>) -> QueryOutput {
        QueryOutput::Count(partials.into_iter().map(|p| count(self.kind(), p)).sum())
    }
}

/// Rows a scan evaluates together: their masks stay in L1, and no mask is
/// ever allocated.
const CHUNK: usize = 512;

/// One row's truth in a scan's mask: 0 or 1, a word wide like the `Int`
/// cells it is computed from, so compare, combine and count all vectorize.
type Hit = u64;

/// Rows of `part` satisfying `pred`, evaluated a column at a time, a
/// chunk of rows at once.
fn scan_count(pred: &DbPredicate, part: &Partition) -> u64 {
    let mut mask = [0; CHUNK];
    let mut count = 0;
    for lo in (0..part.rows()).step_by(CHUNK) {
        let mask = &mut mask[..CHUNK.min(part.rows() - lo)];
        eval_chunk(pred, part, lo, mask);
        count += mask.iter().sum::<Hit>();
    }
    count
}

/// Write `pred` at rows `lo..lo + out.len()` of `part` into `out`. Each
/// comparison is dispatched once per chunk and runs as a tight loop over
/// its column; `And`/`Or` fold their children's masks.
fn eval_chunk(pred: &DbPredicate, part: &Partition, lo: usize, out: &mut [Hit]) {
    let rows = lo..lo + out.len();
    match pred {
        DbPredicate::CmpInt { col, op, lit } => {
            let v = &part.column(*col).as_int().expect("CmpInt on int column")[rows];
            let lit = *lit;
            match op {
                IntCmp::Gt => fill(out, v, |x| *x > lit),
                IntCmp::Ge => fill(out, v, |x| *x >= lit),
                IntCmp::Lt => fill(out, v, |x| *x < lit),
                IntCmp::Le => fill(out, v, |x| *x <= lit),
                IntCmp::Eq => fill(out, v, |x| *x == lit),
                IntCmp::Ne => fill(out, v, |x| *x != lit),
            }
        }
        DbPredicate::Like { col, pattern } => match part.coded(*col) {
            Column::Str(v) => fill(out, &v[rows], |s| pattern.matches(s)),
            Column::Dict { codes, dict } => {
                fill(out, &codes[rows], |&c| pattern.matches(&dict[c as usize]));
            }
            Column::Int(_) => panic!("Like on string column"),
        },
        // An empty conjunction holds everywhere, an empty disjunction
        // nowhere — as `ops::eval_predicate` reads them.
        DbPredicate::And(xs) => fold(xs, part, lo, out, 1, |o, c| *o &= c),
        DbPredicate::Or(xs) => fold(xs, part, lo, out, 0, |o, c| *o |= c),
    }
}

/// `out[i] = hit(&cells[i])`.
fn fill<T>(out: &mut [Hit], cells: &[T], hit: impl Fn(&T) -> bool) {
    for (o, cell) in out.iter_mut().zip(cells) {
        *o = Hit::from(hit(cell));
    }
}

/// `out` starts at `empty` and takes each of `xs`' masks in with `join`.
fn fold(
    xs: &[DbPredicate],
    part: &Partition,
    lo: usize,
    out: &mut [Hit],
    empty: Hit,
    join: impl Fn(&mut Hit, Hit),
) {
    out.fill(empty);
    let mut child = [0; CHUNK];
    let child = &mut child[..out.len()];
    for x in xs {
        eval_chunk(x, part, lo, child);
        for (o, &c) in out.iter_mut().zip(&*child) {
            join(o, c);
        }
    }
}

/// Compile a [`DbPredicate`] into the switch filter configuration plus the
/// packet slot layout: the unique int columns it references, in ascending
/// order, become packet values `0..k`. LIKE atoms become external atoms
/// (tautology-substituted; the master re-checks them on the survivors).
pub fn filter_config_of(pred: &DbPredicate) -> (FilterConfig, Vec<usize>) {
    // Slot layout: unique int columns in ascending order.
    let int_cols = pred.int_columns();
    let slot_of = |col: usize| int_cols.iter().position(|&c| c == col).expect("mapped col");
    let mut atoms: Vec<AtomSpec> = Vec::new();
    let expr = lower_pred(pred, &mut atoms, &slot_of);
    (FilterConfig { atoms, expr, external_mode: ExternalMode::Tautology }, int_cols)
}

fn lower_pred(
    pred: &DbPredicate,
    atoms: &mut Vec<AtomSpec>,
    slot_of: &impl Fn(usize) -> usize,
) -> BoolExpr {
    match pred {
        DbPredicate::CmpInt { col, op, lit } => {
            let sw_op = match op {
                crate::expr::IntCmp::Gt => CmpOp::Gt,
                crate::expr::IntCmp::Ge => CmpOp::Ge,
                crate::expr::IntCmp::Lt => CmpOp::Lt,
                crate::expr::IntCmp::Le => CmpOp::Le,
                crate::expr::IntCmp::Eq => CmpOp::Eq,
                crate::expr::IntCmp::Ne => CmpOp::Ne,
            };
            atoms.push(AtomSpec::Switch(Predicate {
                col: slot_of(*col),
                op: sw_op,
                constant: encode_ordered_i64(*lit),
            }));
            BoolExpr::Atom(atoms.len() - 1)
        }
        DbPredicate::Like { col, .. } => {
            atoms.push(AtomSpec::External { name: format!("LIKE on column {col}") });
            BoolExpr::Atom(atoms.len() - 1)
        }
        DbPredicate::And(xs) => {
            BoolExpr::And(xs.iter().map(|x| lower_pred(x, atoms, slot_of)).collect())
        }
        DbPredicate::Or(xs) => {
            BoolExpr::Or(xs.iter().map(|x| lower_pred(x, atoms, slot_of)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Cluster, ExecBackend};
    use crate::expr::LikePattern;
    use crate::query::DbQuery;
    use crate::table::{Table, TableBuilder};
    use crate::testutil::{every_row, test_table};
    use crate::value::{DataType, Value};
    use cheetah_switch::hash::mix64;
    use proptest::prelude::*;

    /// A draw from `x`'s stream below `bound`.
    fn draw(x: &mut u64, bound: u64) -> u64 {
        *x = mix64(*x);
        *x % bound
    }

    /// An int cell: the extremes, zero, or a small value — so literals
    /// drawn from the column hit `=` and both sides of every cut.
    fn int_cell(x: &mut u64) -> i64 {
        match draw(x, 8) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            _ => draw(x, 21) as i64 - 10,
        }
    }

    /// `key: Str, a: Int, b: Int` over partitions of the given sizes,
    /// empty and one-row ones included.
    fn table(sizes: &[usize], x: &mut u64) -> Table {
        let fields = vec![
            ("key".into(), DataType::Str),
            ("a".into(), DataType::Int),
            ("b".into(), DataType::Int),
        ];
        let mut b = TableBuilder::new("t", fields, usize::MAX);
        for (i, &rows) in sizes.iter().enumerate() {
            for _ in 0..rows {
                let key = Value::Str(format!("k-{}", draw(x, 30)));
                b.push_row(vec![key, Value::Int(int_cell(x)), Value::Int(int_cell(x))]);
            }
            if i + 1 < sizes.len() {
                b.cut_partition();
            }
        }
        b.build()
    }

    /// A random predicate over [`table`]'s schema: `And`/`Or` nodes of
    /// zero to three children down to `depth`, then atoms — all six
    /// comparisons against `i64::MIN`, `i64::MAX`, 0 or a cell of the
    /// table, and `LIKE`.
    fn predicate(x: &mut u64, depth: u32, t: &Table) -> DbPredicate {
        if depth > 0 && draw(x, 3) > 0 {
            let children = (0..draw(x, 4)).map(|_| predicate(x, depth - 1, t)).collect();
            return if draw(x, 2) == 0 {
                DbPredicate::And(children)
            } else {
                DbPredicate::Or(children)
            };
        }
        if draw(x, 5) == 0 {
            let patterns = ["k-1%", "%7", "%-2%", "k-%3", "%", "", "k-12"];
            let pattern = LikePattern::parse(patterns[draw(x, patterns.len() as u64) as usize]);
            return DbPredicate::Like { col: 0, pattern };
        }
        let col = 1 + draw(x, 2) as usize;
        let ops = [IntCmp::Gt, IntCmp::Ge, IntCmp::Lt, IntCmp::Le, IntCmp::Eq, IntCmp::Ne];
        let op = ops[draw(x, 6) as usize];
        let cells: Vec<i64> =
            t.partitions().iter().flat_map(|p| p.column(col).as_int().unwrap().to_vec()).collect();
        let lit = match draw(x, 4) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            _ if cells.is_empty() => 0,
            _ => cells[draw(x, cells.len() as u64) as usize],
        };
        DbPredicate::CmpInt { col, op, lit }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn the_column_scan_counts_like_the_row_by_row_partials(
            seed in any::<u64>(),
            parts in 1usize..6,
        ) {
            let mut x = seed;
            // Empty, one-row, small and multi-chunk partitions.
            let sizes: Vec<usize> = (0..parts)
                .map(|_| match draw(&mut x, 4) {
                    0 => 0,
                    1 => 1,
                    2 => draw(&mut x, 50) as usize,
                    _ => CHUNK + draw(&mut x, 2 * CHUNK as u64) as usize,
                })
                .collect();
            let t = table(&sizes, &mut x);
            let src = Tables::unary(&t);
            for _ in 0..8 {
                let pred = predicate(&mut x, 3, &t);
                let want: u64 =
                    t.partitions().iter().map(|p| ops::partial_filter_count(&pred, p)).sum();
                let op = FilterOp::new(&pred);
                let scanned = op.complete(&src, &Survivors::all(&src, 1).unwrap());
                prop_assert_eq!(&scanned, &QueryOutput::Count(want), "{:?} over {:?}", pred, sizes);
                let gathered = op.complete(&src, &every_row(&src, 1));
                prop_assert_eq!(&gathered, &QueryOutput::Count(want), "{:?} over {:?}", pred, sizes);
            }
        }
    }

    #[test]
    fn filter_lowering_maps_columns_to_slots() {
        let pred = DbPredicate::And(vec![
            DbPredicate::CmpInt { col: 7, op: IntCmp::Lt, lit: 5 },
            DbPredicate::CmpInt { col: 3, op: IntCmp::Gt, lit: 1 },
        ]);
        let (cfg, cols) = filter_config_of(&pred);
        assert_eq!(cols, vec![3, 7]);
        // Atom 0 references table col 7 → slot 1; atom 1 → slot 0.
        match (&cfg.atoms[0], &cfg.atoms[1]) {
            (AtomSpec::Switch(p0), AtomSpec::Switch(p1)) => {
                assert_eq!(p0.col, 1);
                assert_eq!(p1.col, 0);
            }
            other => panic!("unexpected atoms: {other:?}"),
        }
    }

    #[test]
    fn filter_with_like_residual_matches() {
        // The switch weakens the predicate (LIKE → T); the master must
        // re-check and land on the exact count.
        let cluster = Cluster::default();
        let t = test_table(4_000, 4);
        let q = DbQuery::FilterCount {
            pred: DbPredicate::Or(vec![
                DbPredicate::CmpInt { col: 1, op: IntCmp::Gt, lit: 9_000 },
                DbPredicate::And(vec![
                    DbPredicate::CmpInt { col: 2, op: IntCmp::Gt, lit: 50 },
                    DbPredicate::Like { col: 0, pattern: LikePattern::parse("agent-1%") },
                ]),
            ]),
        };
        let base = cluster.run_baseline(&q, &t, None);
        let chee = cluster.run_cheetah(&q, &t, None, ExecBackend::Interpreted).unwrap();
        assert_eq!(base.output, chee.output);
    }
}
