//! `SELECT COUNT(*) WHERE <pred>` — filtering, §4.1 Example #1.
//!
//! Switch-evaluable atoms (integer comparisons) prune on the switch;
//! external atoms (LIKE) are tautology-substituted there and re-checked by
//! the master, which evaluates the *full* predicate on the survivors.

use super::{PruningOperator, Survivors};
use crate::executor::Tables;
use crate::expr::DbPredicate;
use crate::ops;
use crate::query::QueryOutput;
use crate::table::Partition;
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

    fn complete(&self, src: &Tables<'_>, survivors: &Survivors) -> QueryOutput {
        // Master: evaluate the FULL predicate (including atoms the switch
        // replaced by tautologies) on the survivors, count.
        let mut count = 0u64;
        for (part, sel) in survivors.parts(src, 0) {
            count +=
                sel.iter().filter(|&&r| ops::eval_predicate(self.pred, part, r as usize)).count()
                    as u64;
        }
        QueryOutput::Count(count)
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
    use crate::engine::Cluster;
    use crate::expr::{IntCmp, LikePattern};
    use crate::query::DbQuery;
    use crate::testutil::test_table;

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
        let chee = cluster.run_cheetah(&q, &t, None).unwrap();
        assert_eq!(base.output, chee.output);
    }
}
