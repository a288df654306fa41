//! Filtering / WHERE pruning (§4.1 Example #1).
//!
//! The switch evaluates the predicates it can (integer comparisons against
//! constants), writes the outcomes as a bit vector, and looks the vector up
//! in a truth table to decide prune/forward. Predicates the switch cannot
//! evaluate (string `LIKE`, arbitrary arithmetic) are handled one of two
//! ways, both from the paper:
//!
//! * **Tautology substitution** — the unsupported atom is replaced by
//!   `(T ∨ F) ≡ T` and the (monotone) formula reduced. The weakened formula
//!   is a *necessary* condition for the original, so pruning on its falsity
//!   is safe; the master re-checks the full predicate on what survives.
//! * **Worker-computed bits** — the CWorker evaluates the unsupported atoms
//!   and ships their truth values as an extra packet field; the switch then
//!   evaluates the *complete* formula.
//!
//! Formulas here are monotone by construction (`And`/`Or` over atoms, no
//! negation — negations can be pushed into the comparison operators), which
//! is exactly the class §4.1 assumes.

use cheetah_switch::{
    ControlMsg, ExactTable, PacketRef, ResourceLedger, SwitchProgram, UsageSummary, Verdict,
};

/// Comparison operators a switch ALU supports directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `column > constant`
    Gt,
    /// `column ≥ constant`
    Ge,
    /// `column < constant`
    Lt,
    /// `column ≤ constant`
    Le,
    /// `column = constant`
    Eq,
    /// `column ≠ constant`
    Ne,
}

impl CmpOp {
    /// Evaluate against a value.
    #[inline]
    pub fn eval(self, value: u64, constant: u64) -> bool {
        match self {
            CmpOp::Gt => value > constant,
            CmpOp::Ge => value >= constant,
            CmpOp::Lt => value < constant,
            CmpOp::Le => value <= constant,
            CmpOp::Eq => value == constant,
            CmpOp::Ne => value != constant,
        }
    }
}

/// A switch-evaluable predicate: `column <op> constant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Index of the column in the packet's value list.
    pub col: usize,
    /// The comparison.
    pub op: CmpOp,
    /// The constant, runtime-updatable via
    /// `ControlMsg::ParamIndexed { key: "const", .. }`.
    pub constant: u64,
}

/// One atom of the Boolean formula.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomSpec {
    /// Evaluated on the switch.
    Switch(Predicate),
    /// Not switch-evaluable (e.g. `name LIKE 'e%s'`). Depending on
    /// [`ExternalMode`], either substituted by a tautology or evaluated by
    /// the CWorker and shipped as a packet bit.
    External {
        /// Human-readable description, for plans and diagnostics.
        name: String,
    },
}

/// How external (non-switch-evaluable) atoms are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternalMode {
    /// Replace by `T` (monotone weakening); master re-checks survivors.
    Tautology,
    /// The CWorker computes the atom and ships its bit in the packet (as a
    /// bitmask in the value slot after the columns).
    WorkerComputed,
}

/// A monotone Boolean formula over atom indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// Atom `i` of the config's atom list.
    Atom(usize),
    /// Conjunction.
    And(Vec<BoolExpr>),
    /// Disjunction.
    Or(Vec<BoolExpr>),
    /// A constant (arises from tautology substitution).
    Const(bool),
}

impl BoolExpr {
    /// Evaluate given atom truth values.
    pub fn eval(&self, bits: &[bool]) -> bool {
        match self {
            BoolExpr::Atom(i) => bits[*i],
            BoolExpr::And(xs) => xs.iter().all(|x| x.eval(bits)),
            BoolExpr::Or(xs) => xs.iter().any(|x| x.eval(bits)),
            BoolExpr::Const(b) => *b,
        }
    }

    /// Replace every atom for which `subst` returns `Some(b)` by `Const(b)`
    /// and simplify. With `Some(true)` for unsupported atoms this is the
    /// paper's tautology reduction.
    pub fn substitute(&self, subst: &impl Fn(usize) -> Option<bool>) -> BoolExpr {
        match self {
            BoolExpr::Atom(i) => match subst(*i) {
                Some(b) => BoolExpr::Const(b),
                None => BoolExpr::Atom(*i),
            },
            BoolExpr::And(xs) => {
                BoolExpr::And(xs.iter().map(|x| x.substitute(subst)).collect()).simplify()
            }
            BoolExpr::Or(xs) => {
                BoolExpr::Or(xs.iter().map(|x| x.substitute(subst)).collect()).simplify()
            }
            BoolExpr::Const(b) => BoolExpr::Const(*b),
        }
    }

    /// Constant-fold (`T ∧ x → x`, `F ∨ x → x`, absorption of dominating
    /// constants, unwrapping of singletons).
    pub fn simplify(&self) -> BoolExpr {
        match self {
            BoolExpr::And(xs) => {
                let mut out = Vec::new();
                for x in xs {
                    match x.simplify() {
                        BoolExpr::Const(false) => return BoolExpr::Const(false),
                        BoolExpr::Const(true) => {}
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => BoolExpr::Const(true),
                    1 => out.pop().expect("len checked"),
                    _ => BoolExpr::And(out),
                }
            }
            BoolExpr::Or(xs) => {
                let mut out = Vec::new();
                for x in xs {
                    match x.simplify() {
                        BoolExpr::Const(true) => return BoolExpr::Const(true),
                        BoolExpr::Const(false) => {}
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => BoolExpr::Const(false),
                    1 => out.pop().expect("len checked"),
                    _ => BoolExpr::Or(out),
                }
            }
            other => other.clone(),
        }
    }

    /// Indices of atoms that actually appear.
    pub fn atoms(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_atoms(&self, out: &mut Vec<usize>) {
        match self {
            BoolExpr::Atom(i) => out.push(*i),
            BoolExpr::And(xs) | BoolExpr::Or(xs) => {
                for x in xs {
                    x.collect_atoms(out);
                }
            }
            BoolExpr::Const(_) => {}
        }
    }
}

/// Filtering configuration: atoms + formula + external handling.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterConfig {
    /// The atoms referenced by [`FilterConfig::expr`].
    pub atoms: Vec<AtomSpec>,
    /// The monotone formula over atom indices.
    pub expr: BoolExpr,
    /// How external atoms are handled.
    pub external_mode: ExternalMode,
}

impl FilterConfig {
    /// The paper's §4.1 example:
    /// `(taste > 5) OR (texture > 4 AND name LIKE 'e%s')` — columns:
    /// 0 = taste, 1 = texture; the LIKE is external.
    pub fn paper_example(mode: ExternalMode) -> Self {
        Self {
            atoms: vec![
                AtomSpec::Switch(Predicate { col: 0, op: CmpOp::Gt, constant: 5 }),
                AtomSpec::Switch(Predicate { col: 1, op: CmpOp::Gt, constant: 4 }),
                AtomSpec::External { name: "name LIKE 'e%s'".into() },
            ],
            expr: BoolExpr::Or(vec![
                BoolExpr::Atom(0),
                BoolExpr::And(vec![BoolExpr::Atom(1), BoolExpr::Atom(2)]),
            ]),
            external_mode: ExternalMode::Tautology,
        }
        .with_mode(mode)
    }

    fn with_mode(mut self, mode: ExternalMode) -> Self {
        self.external_mode = mode;
        self
    }

    /// Number of packet value slots the switch parses: the referenced
    /// columns, plus one bitmask slot in worker-computed mode.
    pub fn packet_values(&self) -> usize {
        let cols = self
            .atoms
            .iter()
            .filter_map(|a| match a {
                AtomSpec::Switch(p) => Some(p.col + 1),
                AtomSpec::External { .. } => None,
            })
            .max()
            .unwrap_or(0);
        match self.external_mode {
            ExternalMode::Tautology => cols,
            ExternalMode::WorkerComputed => cols + 1,
        }
    }
}

/// The filtering pruning program.
#[derive(Debug)]
pub struct FilterPruner {
    cfg: FilterConfig,
    /// Per-atom constants (installable at runtime). Parallel to `cfg.atoms`;
    /// `None` for external atoms.
    constants: Vec<Option<u64>>,
    /// Truth table over the atom bit vector → forward?
    truth: ExactTable<bool>,
}

impl FilterPruner {
    /// Maximum number of atoms: the truth table enumerates 2^k assignments.
    pub const MAX_ATOMS: usize = 16;

    /// Build the program against `ledger`.
    pub fn build(cfg: FilterConfig, ledger: &mut ResourceLedger) -> crate::Result<Self> {
        let k = cfg.atoms.len();
        assert!(k > 0 && k <= Self::MAX_ATOMS, "1..={} atoms supported", Self::MAX_ATOMS);
        // The effective formula: in Tautology mode external atoms are T.
        let effective = match cfg.external_mode {
            ExternalMode::Tautology => cfg
                .expr
                .substitute(&|i| matches!(cfg.atoms[i], AtomSpec::External { .. }).then_some(true)),
            ExternalMode::WorkerComputed => cfg.expr.clone(),
        };
        // Resources: one ALU per switch atom (packed A per stage), one
        // truth-table stage.
        let n_switch = cfg.atoms.iter().filter(|a| matches!(a, AtomSpec::Switch(_))).count().max(1);
        let a = ledger.profile().alus_per_stage;
        let cmp_stages = n_switch.div_ceil(a);
        let start = ledger.find_contiguous(0, cmp_stages + 1, a.min(n_switch), 0)?;
        for s in 0..cmp_stages {
            let in_this = (n_switch - s * a).min(a);
            ledger.alloc_alus(start + s, in_this)?;
        }
        ledger.alloc_phv_bits(cfg.packet_values() * 64)?;
        // Truth table: one rule per forwarding assignment, default = prune.
        let mut truth = ExactTable::new("filter-truth");
        truth.set_default(false);
        let mut rules = 0;
        for bits_key in 0..(1u64 << k) {
            let bits: Vec<bool> = (0..k).map(|i| bits_key >> i & 1 == 1).collect();
            if effective.eval(&bits) {
                truth.install(bits_key, true);
                rules += 1;
            }
        }
        ledger.note_rules(rules + n_switch);
        let constants = cfg
            .atoms
            .iter()
            .map(|a| match a {
                AtomSpec::Switch(p) => Some(p.constant),
                AtomSpec::External { .. } => None,
            })
            .collect();
        Ok(Self { cfg, constants, truth })
    }

    /// One row of Table 2 for this configuration.
    pub fn table2_row(
        cfg: FilterConfig,
        profile: cheetah_switch::SwitchProfile,
    ) -> crate::Result<UsageSummary> {
        let mut ledger = ResourceLedger::new(profile);
        Self::build(cfg, &mut ledger)?;
        Ok(ledger.usage())
    }

    /// The configuration in use.
    pub fn config(&self) -> &FilterConfig {
        &self.cfg
    }
}

impl SwitchProgram for FilterPruner {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn on_packet(&mut self, pkt: PacketRef<'_>) -> cheetah_switch::Result<Verdict> {
        let mut key = 0u64;
        // In worker-computed mode the last value slot is a bitmask with one
        // bit per external atom, in atom order.
        let mut ext_bit_idx = 0usize;
        let ext_mask = match self.cfg.external_mode {
            ExternalMode::WorkerComputed => {
                Some(pkt.value(self.cfg.packet_values().saturating_sub(1))?)
            }
            ExternalMode::Tautology => None,
        };
        for (i, atom) in self.cfg.atoms.iter().enumerate() {
            let bit = match atom {
                AtomSpec::Switch(p) => {
                    let c = self.constants[i].expect("switch atom has a constant");
                    p.op.eval(pkt.value(p.col)?, c)
                }
                AtomSpec::External { .. } => match ext_mask {
                    Some(mask) => {
                        let b = mask >> ext_bit_idx & 1 == 1;
                        ext_bit_idx += 1;
                        b
                    }
                    None => true, // tautology substitution
                },
            };
            if bit {
                key |= 1 << i;
            }
        }
        Ok(match self.truth.lookup(key) {
            Some(true) => Verdict::Forward,
            _ => Verdict::Prune,
        })
    }

    fn control(&mut self, msg: &ControlMsg) -> cheetah_switch::Result<()> {
        if let ControlMsg::ParamIndexed { key: "const", index, value } = msg {
            if let Some(Some(c)) = self.constants.get_mut(*index) {
                *c = *value;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pruner::StandalonePruner;
    use cheetah_switch::SwitchProfile;

    fn build(cfg: FilterConfig) -> StandalonePruner<FilterPruner> {
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        StandalonePruner::new(FilterPruner::build(cfg, &mut ledger).unwrap())
    }

    fn simple_gt(constant: u64) -> FilterConfig {
        FilterConfig {
            atoms: vec![AtomSpec::Switch(Predicate { col: 0, op: CmpOp::Gt, constant })],
            expr: BoolExpr::Atom(0),
            external_mode: ExternalMode::Tautology,
        }
    }

    #[test]
    fn single_predicate_filters() {
        let mut p = build(simple_gt(10));
        assert_eq!(p.offer(&[11]).unwrap(), Verdict::Forward);
        assert_eq!(p.offer(&[10]).unwrap(), Verdict::Prune);
        assert_eq!(p.offer(&[9]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn all_cmp_ops() {
        for (op, v, c, expect) in [
            (CmpOp::Gt, 5u64, 4u64, true),
            (CmpOp::Gt, 4, 4, false),
            (CmpOp::Ge, 4, 4, true),
            (CmpOp::Lt, 3, 4, true),
            (CmpOp::Le, 4, 4, true),
            (CmpOp::Le, 5, 4, false),
            (CmpOp::Eq, 4, 4, true),
            (CmpOp::Ne, 4, 4, false),
            (CmpOp::Ne, 5, 4, true),
        ] {
            assert_eq!(op.eval(v, c), expect, "{op:?}({v},{c})");
        }
    }

    #[test]
    fn paper_example_tautology_reduction() {
        // (taste > 5) OR (texture > 4 AND LIKE) reduces to
        // (taste > 5) OR (texture > 4) on the switch.
        let mut p = build(FilterConfig::paper_example(ExternalMode::Tautology));
        // taste=7 → forward regardless of texture.
        assert_eq!(p.offer(&[7, 0]).unwrap(), Verdict::Forward);
        // taste=3, texture=5 → forward (LIKE re-checked at master).
        assert_eq!(p.offer(&[3, 5]).unwrap(), Verdict::Forward);
        // taste=3, texture=3 → prune: no assignment of LIKE satisfies it.
        assert_eq!(p.offer(&[3, 3]).unwrap(), Verdict::Prune);
    }

    #[test]
    fn paper_example_worker_computed_bits() {
        let mut p = build(FilterConfig::paper_example(ExternalMode::WorkerComputed));
        // Packet: [taste, texture, ext-bitmask]. LIKE true (mask=1):
        assert_eq!(p.offer(&[3, 5, 1]).unwrap(), Verdict::Forward);
        // LIKE false (mask=0): the full formula is false → prune on switch.
        assert_eq!(p.offer(&[3, 5, 0]).unwrap(), Verdict::Prune);
        // taste wins regardless of the external bit.
        assert_eq!(p.offer(&[7, 0, 0]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn tautology_never_overprunes_vs_full_formula() {
        // Safety: tautology-mode pruning must be a superset of the rows the
        // full formula accepts.
        let full = FilterConfig::paper_example(ExternalMode::WorkerComputed);
        let weak = FilterConfig::paper_example(ExternalMode::Tautology);
        let mut pf = build(full);
        let mut pw = build(weak);
        for taste in 0..10u64 {
            for texture in 0..10u64 {
                for like in 0..2u64 {
                    let accept_full = pf.offer(&[taste, texture, like]).unwrap();
                    let keep_weak = pw.offer(&[taste, texture]).unwrap();
                    if accept_full == Verdict::Forward {
                        assert_eq!(
                            keep_weak,
                            Verdict::Forward,
                            "tautology pruned a row the query accepts: ({taste},{texture},{like})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simplify_rules() {
        use BoolExpr::*;
        assert_eq!(And(vec![Const(true), Atom(0)]).simplify(), Atom(0));
        assert_eq!(And(vec![Const(false), Atom(0)]).simplify(), Const(false));
        assert_eq!(Or(vec![Const(true), Atom(0)]).simplify(), Const(true));
        assert_eq!(Or(vec![Const(false), Atom(0)]).simplify(), Atom(0));
        assert_eq!(And(Vec::new()).simplify(), Const(true));
        assert_eq!(Or(Vec::new()).simplify(), Const(false));
        // Nested: (T ∧ (F ∨ a)) → a.
        assert_eq!(And(vec![Const(true), Or(vec![Const(false), Atom(1)])]).simplify(), Atom(1));
    }

    #[test]
    fn substitute_reduces_paper_formula() {
        use BoolExpr::*;
        let expr = Or(vec![Atom(0), And(vec![Atom(1), Atom(2)])]);
        let reduced = expr.substitute(&|i| (i == 2).then_some(true));
        assert_eq!(reduced, Or(vec![Atom(0), Atom(1)]));
    }

    #[test]
    fn atoms_lists_unique_sorted() {
        use BoolExpr::*;
        let e = Or(vec![Atom(3), And(vec![Atom(1), Atom(3)])]);
        assert_eq!(e.atoms(), vec![1, 3]);
    }

    #[test]
    fn runtime_constant_update() {
        let mut p = build(simple_gt(10));
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Prune);
        p.program_mut()
            .control(&ControlMsg::ParamIndexed { key: "const", index: 0, value: 3 })
            .unwrap();
        assert_eq!(p.offer(&[5]).unwrap(), Verdict::Forward);
    }

    #[test]
    fn resource_row_counts_rules() {
        let row = FilterPruner::table2_row(simple_gt(10), SwitchProfile::tofino1()).unwrap();
        assert_eq!(row.alus, 1, "single predicate = 1 ALU (A.2.2)");
        assert!(row.rules >= 1);
    }

    #[test]
    fn paper_example_rule_count_in_claimed_range() {
        // "Each query requires between 10 to 20 control plane rules" — the
        // 3-atom example needs at most 2^3 + 2 = 10.
        let row = FilterPruner::table2_row(
            FilterConfig::paper_example(ExternalMode::Tautology),
            SwitchProfile::tofino1(),
        )
        .unwrap();
        assert!(row.rules <= 20, "rules = {}", row.rules);
    }

    #[test]
    #[should_panic(expected = "atoms supported")]
    fn too_many_atoms_rejected() {
        let atoms: Vec<AtomSpec> = (0..17)
            .map(|i| AtomSpec::Switch(Predicate { col: i, op: CmpOp::Gt, constant: 0 }))
            .collect();
        let expr = BoolExpr::And((0..17).map(BoolExpr::Atom).collect());
        let mut ledger = ResourceLedger::new(SwitchProfile::tofino1());
        let _ = FilterPruner::build(
            FilterConfig { atoms, expr, external_mode: ExternalMode::Tautology },
            &mut ledger,
        );
    }
}
