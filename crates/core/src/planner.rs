//! The Cheetah query planner (§3 "Query planner", §6 "Handling multiple
//! queries").
//!
//! Given a query specification, the planner builds the corresponding
//! pruning program against a resource ledger, counts the control-plane
//! rules it installs (the paper: 10–20 per query, < 100 for a whole
//! benchmark), and reports how many passes over the data the plan needs.
//!
//! [`PackedQueries`] implements §6: several queries are compiled onto *one*
//! dataplane, splitting ALUs/SRAM between them, so a workload's query mix
//! runs interactively without reprogramming the switch. Packing fails with
//! a precise resource error when the mix does not fit — that failure mode
//! is a first-class result, not a panic.

use crate::distinct::{DistinctConfig, DistinctPruner};
use crate::filter::{FilterConfig, FilterPruner};
use crate::groupby::{GroupByConfig, GroupByPruner};
use crate::having::{HavingConfig, HavingPruner};
use crate::join::{JoinConfig, JoinPruner};
use crate::skyline::{SkylineConfig, SkylinePruner};
use crate::topn::{TopNDetConfig, TopNDetPruner, TopNRandConfig, TopNRandPruner};
use cheetah_switch::{
    ControlPlane, Pipeline, ProgramId, ResourceLedger, SwitchProfile, UsageSummary,
};
use std::time::Duration;

/// A query the switch can help prune.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// `SELECT .. WHERE <predicates>`.
    Filter(FilterConfig),
    /// `SELECT DISTINCT ..`.
    Distinct(DistinctConfig),
    /// Deterministic `TOP N .. ORDER BY`.
    TopNDet(TopNDetConfig),
    /// Randomized `TOP N .. ORDER BY` (probabilistic guarantee).
    TopNRand(TopNRandConfig),
    /// `GROUP BY` with MAX/MIN aggregate.
    GroupBy(GroupByConfig),
    /// `JOIN .. ON`.
    Join(JoinConfig),
    /// `GROUP BY .. HAVING SUM/COUNT > c`.
    Having(HavingConfig),
    /// `SKYLINE OF`.
    Skyline(SkylineConfig),
}

impl QuerySpec {
    /// Short name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::Filter(_) => "filter",
            QuerySpec::Distinct(_) => "distinct",
            QuerySpec::TopNDet(_) => "topn-det",
            QuerySpec::TopNRand(_) => "topn-rand",
            QuerySpec::GroupBy(_) => "groupby",
            QuerySpec::Join(_) => "join",
            QuerySpec::Having(_) => "having",
            QuerySpec::Skyline(_) => "skyline",
        }
    }

    /// Passes over the data this query's plan performs.
    pub fn passes(&self) -> u8 {
        match self {
            QuerySpec::Join(_) | QuerySpec::Having(_) => 2,
            _ => 1,
        }
    }
}

/// A compiled single-query plan.
pub struct Plan {
    /// The pipeline holding the compiled program.
    pub pipeline: Pipeline,
    /// Handle of the program inside the pipeline.
    pub program: ProgramId,
    /// Resources consumed (one row of Table 2).
    pub usage: UsageSummary,
    /// Passes over the data.
    pub passes: u8,
    /// Time for the control plane to install the plan's rules.
    pub install_time: Duration,
}

/// Build a query's program against an existing ledger and install it in an
/// existing pipeline (the §6 packing primitive).
pub fn build_into(
    spec: &QuerySpec,
    ledger: &mut ResourceLedger,
    pipeline: &mut Pipeline,
) -> crate::Result<ProgramId> {
    let program: Box<dyn cheetah_switch::SwitchProgram> = match spec {
        QuerySpec::Filter(c) => Box::new(FilterPruner::build(c.clone(), ledger)?),
        QuerySpec::Distinct(c) => Box::new(DistinctPruner::build(*c, ledger)?),
        QuerySpec::TopNDet(c) => Box::new(TopNDetPruner::build(*c, ledger)?),
        QuerySpec::TopNRand(c) => Box::new(TopNRandPruner::build(*c, ledger)?),
        QuerySpec::GroupBy(c) => Box::new(GroupByPruner::build(*c, ledger)?),
        QuerySpec::Join(c) => Box::new(JoinPruner::build(*c, ledger)?),
        QuerySpec::Having(c) => Box::new(HavingPruner::build(*c, ledger)?),
        QuerySpec::Skyline(c) => Box::new(SkylinePruner::build(*c, ledger)?),
    };
    Ok(pipeline.install(program))
}

/// Compile one query for a switch model.
pub fn plan(spec: &QuerySpec, profile: SwitchProfile) -> crate::Result<Plan> {
    let control = ControlPlane::new(profile.rule_install_micros);
    let mut ledger = ResourceLedger::new(profile);
    let mut pipeline = Pipeline::new();
    let program = build_into(spec, &mut ledger, &mut pipeline)?;
    pipeline.bind_flow(0, program);
    if let QuerySpec::Join(c) = spec {
        pipeline.bind_flow(c.fid_a, program);
        pipeline.bind_flow(c.fid_b, program);
    }
    let usage = ledger.usage();
    Ok(Plan {
        pipeline,
        program,
        usage,
        passes: spec.passes(),
        install_time: control.install_time(usage.rules),
    })
}

/// §6: several queries packed onto one dataplane.
pub struct PackedQueries {
    /// The shared pipeline.
    pub pipeline: Pipeline,
    /// Program handle per input query, in order.
    pub programs: Vec<ProgramId>,
    /// Combined resource usage.
    pub usage: UsageSummary,
    /// Time to install all queries' rules.
    pub install_time: Duration,
}

impl PackedQueries {
    /// Pack `specs` onto one switch. Flow `i` is bound to query `i`
    /// (join queries additionally bind their two side fids).
    pub fn pack(specs: &[QuerySpec], profile: SwitchProfile) -> crate::Result<Self> {
        let control = ControlPlane::new(profile.rule_install_micros);
        let mut ledger = ResourceLedger::new(profile);
        let mut pipeline = Pipeline::new();
        let mut programs = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let id = build_into(spec, &mut ledger, &mut pipeline)?;
            pipeline.bind_flow(i as u32, id);
            if let QuerySpec::Join(c) = spec {
                pipeline.bind_flow(c.fid_a, id);
                pipeline.bind_flow(c.fid_b, id);
            }
            programs.push(id);
        }
        let usage = ledger.usage();
        Ok(Self { pipeline, programs, usage, install_time: control.install_time(usage.rules) })
    }
}

/// Validate a HAVING specification the way the paper's planner would:
/// `SUM/COUNT < c` is explicitly deferred to future work (§4.3) and is
/// rejected rather than planned.
pub fn validate_having_direction(less_than: bool) -> crate::Result<()> {
    if less_than {
        return Err(cheetah_switch::SwitchError::UnsupportedOp {
            op: "HAVING SUM/COUNT < c (future work in the paper)",
        }
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinct::EvictionPolicy;
    use crate::filter::{AtomSpec, BoolExpr, CmpOp, ExternalMode, Predicate};
    use crate::groupby::AggKind;
    use crate::having::HavingAgg;

    fn distinct_spec(rows: usize) -> QuerySpec {
        QuerySpec::Distinct(DistinctConfig {
            rows,
            cols: 2,
            policy: EvictionPolicy::Lru,
            fingerprint: None,
            seed: 1,
        })
    }

    fn filter_spec() -> QuerySpec {
        QuerySpec::Filter(FilterConfig {
            atoms: vec![AtomSpec::Switch(Predicate { col: 0, op: CmpOp::Lt, constant: 10 })],
            expr: BoolExpr::Atom(0),
            external_mode: ExternalMode::Tautology,
        })
    }

    #[test]
    fn single_query_plan_works_end_to_end() {
        let mut p = plan(&distinct_spec(512), SwitchProfile::tofino1()).unwrap();
        assert_eq!(p.passes, 1);
        assert!(p.usage.rules > 0);
        assert!(p.install_time < Duration::from_millis(1), "paper: rules install < 1 ms");
        assert!(!p.pipeline.process(0, &[5]).unwrap().is_prune());
        assert!(p.pipeline.process(0, &[5]).unwrap().is_prune());
    }

    #[test]
    fn join_and_having_are_two_pass() {
        assert_eq!(QuerySpec::Join(JoinConfig::paper_default()).passes(), 2);
        assert_eq!(QuerySpec::Having(HavingConfig::paper_default(100)).passes(), 2);
        assert_eq!(distinct_spec(8).passes(), 1);
    }

    #[test]
    fn pack_filter_plus_groupby_like_figure5_a_plus_b() {
        // §6's worked example: a filtering query packed with a SUM/group-by
        // style query in one dataplane.
        let specs = vec![
            filter_spec(),
            QuerySpec::GroupBy(GroupByConfig {
                rows: 256,
                cols: 4,
                agg: AggKind::Max,
                key_bits: 31,
                seed: 2,
            }),
        ];
        let mut packed = PackedQueries::pack(&specs, SwitchProfile::tofino1()).unwrap();
        assert_eq!(packed.programs.len(), 2);
        // Flow 0 = filter (< 10), flow 1 = group-by.
        assert!(!packed.pipeline.process(0, &[5]).unwrap().is_prune());
        assert!(packed.pipeline.process(0, &[15]).unwrap().is_prune());
        assert!(!packed.pipeline.process(1, &[7, 100]).unwrap().is_prune());
        assert!(packed.pipeline.process(1, &[7, 50]).unwrap().is_prune());
    }

    #[test]
    fn packing_fails_gracefully_when_resources_exhausted() {
        // Two huge DISTINCT matrices cannot share a tiny switch.
        let specs = vec![distinct_spec(4096), distinct_spec(4096)];
        let err = match PackedQueries::pack(&specs, SwitchProfile::tiny()) {
            Err(e) => e,
            Ok(_) => panic!("expected a resource error"),
        };
        let msg = err.to_string();
        assert!(msg.contains("SRAM") || msg.contains("stages"), "unexpected error: {msg}");
    }

    #[test]
    fn whole_benchmark_mix_fits_tofino2_under_100_rules() {
        // "Any of the Big Data benchmark workloads can be configured using
        // less than 100 control plane rules."
        let specs = vec![
            filter_spec(),
            distinct_spec(1024),
            QuerySpec::TopNDet(TopNDetConfig { n: 250, w: 4 }),
            QuerySpec::GroupBy(GroupByConfig {
                rows: 512,
                cols: 2,
                agg: AggKind::Max,
                key_bits: 31,
                seed: 3,
            }),
            QuerySpec::Having(HavingConfig {
                cm_rows: 3,
                cm_counters: 512,
                threshold: 1_000_000,
                agg: HavingAgg::Sum,
                dedup_rows: 256,
                dedup_cols: 2,
                seed: 4,
            }),
        ];
        let packed = PackedQueries::pack(&specs, SwitchProfile::tofino2()).unwrap();
        assert!(packed.usage.rules < 100, "rules = {}", packed.usage.rules);
        assert!(packed.install_time < Duration::from_millis(5));
    }

    #[test]
    fn having_less_than_is_rejected() {
        let err = validate_having_direction(true).unwrap_err();
        assert!(err.to_string().contains("future work"));
        validate_having_direction(false).unwrap();
    }

    #[test]
    fn join_plan_binds_both_sides() {
        let mut p = plan(
            &QuerySpec::Join(JoinConfig {
                m_bits: 1 << 12,
                fid_a: 7,
                fid_b: 8,
                ..JoinConfig::paper_default()
            }),
            SwitchProfile::tofino1(),
        )
        .unwrap();
        // Build pass consumes both sides.
        assert!(p.pipeline.process(7, &[1]).unwrap().is_prune());
        assert!(p.pipeline.process(8, &[1]).unwrap().is_prune());
    }

    #[test]
    fn every_query_kind_plans_on_tofino2() {
        let specs = [
            filter_spec(),
            distinct_spec(256),
            QuerySpec::TopNDet(TopNDetConfig::paper_default()),
            QuerySpec::TopNRand(TopNRandConfig { rows: 512, cols: 4, seed: 1 }),
            QuerySpec::GroupBy(GroupByConfig {
                rows: 128,
                cols: 2,
                agg: AggKind::Min,
                key_bits: 31,
                seed: 1,
            }),
            QuerySpec::Join(JoinConfig { m_bits: 1 << 14, ..JoinConfig::paper_default() }),
            QuerySpec::Having(HavingConfig::paper_default(5)),
            QuerySpec::Skyline(SkylineConfig::paper_default(crate::SkylinePolicy::Sum)),
        ];
        for spec in &specs {
            let p = plan(spec, SwitchProfile::tofino2())
                .unwrap_or_else(|e| panic!("{} failed to plan: {e}", spec.kind()));
            assert!(p.usage.stages_used > 0, "{} used no stages", spec.kind());
        }
    }
}
