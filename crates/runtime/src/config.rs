//! What an [`ExecPlan`](crate::ExecPlan) is laid out under: a
//! [`ShardLayout`].

use cheetah_core::plan::ShardPlan;
use cheetah_db::ShardSpec;
use std::sync::Arc;

/// Which rows each shard streams through its switch: a hand-picked spec,
/// or a plan the sampling planner fitted. [`ExecPlan::new`](crate::ExecPlan::new)
/// takes either, converted by `From`.
#[derive(Debug, Clone)]
pub enum ShardLayout {
    /// A hand-picked spec.
    Fixed(ShardSpec),
    /// A plan the sampling planner fitted
    /// ([`ShardPlanner::plan`](cheetah_db::ShardPlanner::plan)). The
    /// serving plane fits none: it lays a returning key out by a spec.
    Fitted(Arc<ShardPlan>),
}

impl From<ShardSpec> for ShardLayout {
    fn from(spec: ShardSpec) -> Self {
        ShardLayout::Fixed(spec)
    }
}

impl From<Arc<ShardPlan>> for ShardLayout {
    fn from(plan: Arc<ShardPlan>) -> Self {
        ShardLayout::Fitted(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::ShardPartitioner;
    use cheetah_db::{DataType, DbQuery, ShardPlanner, TableBuilder};

    #[test]
    fn a_layout_is_a_spec_or_a_fitted_plan() {
        let fixed = ShardLayout::from(ShardSpec::new(3, ShardPartitioner::Hash));
        assert!(matches!(fixed, ShardLayout::Fixed(s) if s.shards == 3));
        let empty = TableBuilder::new("t", vec![("k".into(), DataType::Str)], 1).build();
        let q = DbQuery::Distinct { col: 0 };
        let plan = Arc::new(ShardPlanner::default().plan(&q, &empty, None, 7));
        let fitted = ShardLayout::from(Arc::clone(&plan));
        assert!(matches!(&fitted, ShardLayout::Fitted(p) if Arc::ptr_eq(p, &plan)));
    }
}
