//! The one admission unit of the serving plane.
//!
//! A [`QueryRequest`] is everything the session needs to know about one
//! query: what to run ([`DbQuery`]), over which resident tables (`Arc`
//! handles — the plane never copies rows), on behalf of which tenant,
//! and — optionally — pinned execution choices for callers that know
//! exactly what they want (benchmark harnesses, A/B comparisons,
//! regression gates).

use cheetah_db::{DbQuery, ExecBackend, ExecPath, Table};
use std::sync::Arc;

/// One query submission: the builder the whole public API funnels into.
///
/// ```
/// use cheetah_db::{DbQuery, TableBuilder, DataType, Value};
/// use cheetah_serve::QueryRequest;
/// use std::sync::Arc;
///
/// let mut b = TableBuilder::new("t", vec![("k".into(), DataType::Int)], 8);
/// b.push_row(vec![Value::Int(1)]);
/// let table = Arc::new(b.build());
/// let req = QueryRequest::new(DbQuery::Distinct { col: 0 }, table)
///     .tenant("analytics")
///     .shards(4);
/// assert_eq!(req.tenant_id(), "analytics");
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Shared, so the session's key for the request clones a handle, not
    /// the predicate tree.
    pub(crate) query: Arc<DbQuery>,
    pub(crate) left: Arc<Table>,
    pub(crate) right: Option<Arc<Table>>,
    pub(crate) tenant: String,
    pub(crate) path: Option<ExecPath>,
    pub(crate) backend: Option<ExecBackend>,
    pub(crate) shards: Option<usize>,
}

impl QueryRequest {
    /// A request over one resident table, tenant `"default"`, every
    /// execution choice left to the session.
    pub fn new(query: DbQuery, left: Arc<Table>) -> Self {
        Self {
            query: Arc::new(query),
            left,
            right: None,
            tenant: "default".to_string(),
            path: None,
            backend: None,
            shards: None,
        }
    }

    /// Attach the right-hand stream of a binary query (JOIN). A unary
    /// query reads one table, so it drops the handle here — once, before
    /// the session's key, the planner or the scheduler's cost can see a
    /// table the query never reads.
    pub fn with_right(mut self, right: Arc<Table>) -> Self {
        if self.query.is_binary() {
            self.right = Some(right);
        }
        self
    }

    /// Tag the request with a tenant id — the unit of fair scheduling
    /// and of per-tenant accounting in the response breakdown.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Pin the execution path. Unpinned requests run barrier-pooled;
    /// streamed-resident is there to be pinned (and carries the fault
    /// mode of `cheetah_runtime::ExecPlan`).
    pub fn path(mut self, path: ExecPath) -> Self {
        self.path = Some(path);
        self
    }

    /// Pin the pruning backend (interpreted oracle or compiled kernel).
    /// Unpinned requests run compiled. Either way a family without a
    /// kernel (JOIN, HAVING) runs the interpreter, and the response says so.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Pin the shard count (hash-routed) instead of consulting the
    /// planner. `0` is clamped to 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// The query to run.
    pub fn query(&self) -> &DbQuery {
        &self.query
    }

    /// The left (or only) input stream.
    pub fn left(&self) -> &Arc<Table> {
        &self.left
    }

    /// The right input stream, if the query is binary.
    pub fn right(&self) -> Option<&Arc<Table>> {
        self.right.as_ref()
    }

    /// The tenant this request is accounted to.
    pub fn tenant_id(&self) -> &str {
        &self.tenant
    }

    /// Input rows across the streams the query reads — the fair
    /// scheduler's cost unit.
    pub(crate) fn cost_rows(&self) -> u64 {
        (self.left.rows() + self.right.as_ref().map_or(0, |r| r.rows())) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_db::{DataType, TableBuilder, Value};

    fn tiny(rows: usize) -> Arc<Table> {
        let mut b = TableBuilder::new("t", vec![("k".into(), DataType::Int)], rows.max(1));
        for i in 0..rows {
            b.push_row(vec![Value::Int(i as i64)]);
        }
        Arc::new(b.build())
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let req = QueryRequest::new(DbQuery::Distinct { col: 0 }, tiny(3));
        assert_eq!(req.tenant_id(), "default");
        assert!(req.path.is_none() && req.backend.is_none() && req.shards.is_none());
        let req = req
            .tenant("acme")
            .path(ExecPath::StreamedResident)
            .backend(ExecBackend::Compiled)
            .shards(0);
        assert_eq!(req.tenant_id(), "acme");
        assert_eq!(req.path, Some(ExecPath::StreamedResident));
        assert_eq!(req.backend, Some(ExecBackend::Compiled));
        assert_eq!(req.shards, Some(1), "zero shards clamps to one");
    }

    #[test]
    fn cost_counts_both_streams() {
        let req = QueryRequest::new(DbQuery::Join { left_key: 0, right_key: 0 }, tiny(5))
            .with_right(tiny(7));
        assert_eq!(req.cost_rows(), 12);
    }

    #[test]
    fn a_unary_query_keeps_no_right_table() {
        // A tenant is charged for the rows its query reads, and nothing
        // downstream is handed a table to index with the query's columns.
        let req = QueryRequest::new(DbQuery::Distinct { col: 0 }, tiny(5)).with_right(tiny(7));
        assert!(req.right().is_none());
        assert_eq!(req.cost_rows(), 5);
    }
}
