//! The tracing half of the telemetry plane: per-query spans, recorded
//! flat and assembled into one lifecycle tree per request when it is read.
//!
//! A [`Trace`] is created per query; [`Span`]s open under it (or under
//! a parent span), carry `key=value` attributes, and record themselves
//! into the trace when they finish (explicitly or on drop). Crossing a
//! thread boundary — the worker pool — is a [`SpanContext`] clone
//! captured into the job closure; the receiving thread opens children
//! under it.
//!
//! A span's name and attribute keys are `&'static str`, and a value is an
//! [`AttrValue`]: a static string, an integer or a bool copied as it is,
//! an owned string only where the text is the caller's (a tenant, an
//! error). A finished span appends one flat record — ids, name, clock and
//! a range of the trace's attribute buffer — under the trace's lock, so a
//! trace holds two buffers however many spans it has.
//!
//! [`Trace::close`] checks those records and moves them into one `Arc`: a
//! [`ClosedTrace`], which builds its [`TraceTree`] on first read. The
//! tree's child ordering is deterministic (sorted by name and attributes,
//! not completion order), so two runs of the same seeded workload build
//! byte-identical trees modulo timestamps. [`Trace::export`] builds the
//! same tree at once.

use crate::metrics::Registry;
use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A span attribute's value. Its [`Display`](fmt::Display) is the text
/// the built tree holds, exactly what `to_string()` of the source value
/// gives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// A static string: a label, a name.
    Str(&'static str),
    /// An unsigned integer: a count, an index, a shard.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// Text only known at run time (a tenant, an error).
    Owned(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::U64(n) => write!(f, "{n}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
            AttrValue::Owned(s) => f.write_str(s),
        }
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> Self {
        AttrValue::Str(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Owned(s)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::U64(n)
    }
}

impl From<u32> for AttrValue {
    fn from(n: u32) -> Self {
        AttrValue::U64(n.into())
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> Self {
        AttrValue::U64(n as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

/// One finished span, flat: its ids, its name, its clock and where its
/// attributes sit in the trace's attribute buffer.
#[derive(Debug)]
struct Finished {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_s: f64,
    end_s: f64,
    attrs: Range<usize>,
}

/// A trace's records: every finished span, in finishing order, and one
/// buffer of all their attributes.
#[derive(Debug, Default)]
pub(crate) struct Records {
    spans: Vec<Finished>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Records {
    /// Records sized for one request's lifecycle trace (about a dozen
    /// spans and twenty attributes), so a served request's rarely grow.
    /// Each buffer stays under a kilobyte: a standalone probe recorded a
    /// request's trace slower with buffers past it.
    fn for_one_request() -> Self {
        Records { spans: Vec::with_capacity(12), attrs: Vec::with_capacity(20) }
    }

    /// Whether these are a whole tree: every one of the `opened` spans
    /// finished, under exactly one root. Ids are dense, `0..opened`, and a
    /// parent opens before its children in the same trace, so once every
    /// span has closed every parent id resolves.
    fn check(&self, opened: u64) -> Result<(), TraceError> {
        let closed = self.spans.len() as u64;
        if closed != opened {
            return Err(TraceError::UnclosedSpans { opened, closed });
        }
        match self.spans.iter().filter(|s| s.parent.is_none()).count() {
            1 => Ok(()),
            roots => Err(TraceError::BadRootCount(roots)),
        }
    }

    /// The deterministic tree of records that passed [`check`](Self::check).
    fn build(&self) -> TraceTree {
        // Ids are dense, so each span has a slot; a parent's id is below
        // its children's, so one pass from the last id down hands each
        // node, its children already gathered, to its parent's slot.
        let mut slots: Vec<Option<(Option<u64>, SpanNode)>> = vec![None; self.spans.len()];
        for s in &self.spans {
            let attrs = self.attrs[s.attrs.clone()]
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let node = SpanNode {
                name: s.name.to_string(),
                attrs,
                start_s: s.start_s,
                end_s: s.end_s,
                children: Vec::new(),
            };
            slots[s.id as usize] = Some((s.parent, node));
        }
        let mut root = None;
        for id in (0..slots.len()).rev() {
            let (parent, mut node) = slots[id].take().expect("every opened id has closed");
            // Gathered newest first; the sort falls back to opening order.
            node.children.reverse();
            node.children.sort_by(|a, b| {
                (&a.name, &a.attrs).cmp(&(&b.name, &b.attrs)).then(a.start_s.total_cmp(&b.start_s))
            });
            match parent {
                None => root = Some(node),
                Some(p) => {
                    let (_, up) =
                        slots[p as usize].as_mut().expect("a parent's id is below its child's");
                    up.children.push(node);
                }
            }
        }
        TraceTree { root: root.expect("checked: exactly one root") }
    }
}

#[derive(Debug)]
struct TraceInner {
    epoch: Instant,
    registry: Registry,
    /// The next span id, and so the number of spans opened: ids are
    /// dense, `0..opened`, and a parent's id is below its children's.
    opened: AtomicU64,
    /// What the finished spans recorded.
    records: Mutex<Records>,
}

/// The lifecycle trace of one query. Clones share state; the trace
/// also carries the owning [`Registry`] so instrumentation deep in the
/// runtime attributes its counters to the session that issued the query.
#[derive(Clone, Debug)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Trace {
    /// A fresh trace recording into `registry`.
    pub fn new(registry: Registry) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                epoch: Instant::now(),
                registry,
                opened: AtomicU64::new(0),
                records: Mutex::new(Records::for_one_request()),
            }),
        }
    }

    /// The registry this trace reports metrics into.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Open a root-level span (no parent).
    pub fn span(&self, name: &'static str) -> Span {
        self.open(name, None)
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> Span {
        Span {
            trace: self.clone(),
            id: self.inner.opened.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            attrs: Vec::new(),
            start: Instant::now(),
        }
    }

    /// Number of spans opened so far.
    pub fn opened(&self) -> u64 {
        self.inner.opened.load(Ordering::Relaxed)
    }

    /// Number of spans that have finished recording.
    pub fn closed(&self) -> u64 {
        self.records().spans.len() as u64
    }

    /// Build the deterministic [`TraceTree`] now, leaving the records in
    /// place.
    ///
    /// Fails when spans are still open or when there is not exactly one
    /// root.
    pub fn export(&self) -> Result<TraceTree, TraceError> {
        Ok(self.checked()?.build())
    }

    /// Check the records as [`export`](Self::export) does, then move them
    /// out of the trace into a [`ClosedTrace`], which builds the tree when
    /// it is first read. Other handles to this trace then hold no records.
    pub fn close(self) -> Result<ClosedTrace, TraceError> {
        let mut records = self.checked()?;
        Ok(ClosedTrace::of(Arc::new(std::mem::take(&mut *records))))
    }

    /// The records, locked, once they [`check`](Records::check) out. The
    /// opened count is read under the lock, so every finished span's id is
    /// below it: a span records under this lock after its `fetch_add`, and
    /// the lock's release and acquire order that add before this load.
    fn checked(&self) -> Result<MutexGuard<'_, Records>, TraceError> {
        let records = self.records();
        records.check(self.opened())?;
        Ok(records)
    }

    /// The finished spans' records. A lock a panicking thread poisoned is
    /// taken back as it stands: each span's append leaves the records
    /// whole, and a span's drop must not panic.
    fn records(&self) -> MutexGuard<'_, Records> {
        self.inner.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn seconds_since_epoch(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.inner.epoch).as_secs_f64()
    }
}

/// A closed trace: its records, shared, and the tree built from them the
/// first time it is read (through `Deref`, so `closed.root` reads the
/// tree). Clones share the records and build their own tree. Two closed
/// traces are equal when they read the same records: a trace closes once,
/// so that is when they are the same trace.
pub struct ClosedTrace {
    pub(crate) records: Arc<Records>,
    tree: OnceLock<TraceTree>,
}

impl ClosedTrace {
    pub(crate) fn of(records: Arc<Records>) -> Self {
        ClosedTrace { records, tree: OnceLock::new() }
    }
}

impl Deref for ClosedTrace {
    type Target = TraceTree;

    fn deref(&self) -> &TraceTree {
        self.tree.get_or_init(|| self.records.build())
    }
}

impl Clone for ClosedTrace {
    fn clone(&self) -> Self {
        ClosedTrace::of(Arc::clone(&self.records))
    }
}

impl PartialEq for ClosedTrace {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.records, &other.records)
    }
}

impl fmt::Debug for ClosedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClosedTrace")
            .field("spans", &self.records.spans.len())
            .field("built", &self.tree.get().is_some())
            .finish()
    }
}

/// Why a trace refused to export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Spans were opened that never finished.
    UnclosedSpans {
        /// Spans opened over the trace's lifetime.
        opened: u64,
        /// Spans that finished recording.
        closed: u64,
    },
    /// Zero or multiple roots.
    BadRootCount(
        /// Number of parentless spans found.
        usize,
    ),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnclosedSpans { opened, closed } => {
                write!(f, "{} spans opened but only {} closed", opened, closed)
            }
            TraceError::BadRootCount(n) => write!(f, "expected exactly one root span, found {n}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// An open span: a guard that records itself into its [`Trace`] when
/// finished (or dropped). Not `Clone` — exactly one owner closes it.
#[derive(Debug)]
pub struct Span {
    trace: Trace,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    attrs: Vec<(&'static str, AttrValue)>,
    start: Instant,
}

impl Span {
    /// Attach a `key=value` attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push((key, value.into()));
    }

    /// Open a child span under this one.
    pub fn child(&self, name: &'static str) -> Span {
        self.trace.open(name, Some(self.id))
    }

    /// A cloneable handle for opening children from another thread.
    pub fn context(&self) -> SpanContext {
        SpanContext { trace: self.trace.clone(), span: self.id }
    }

    /// Push this span onto the calling thread's context stack; children
    /// opened via [`SpanContext::current`] land under it until the
    /// returned guard drops.
    pub fn enter(&self) -> ContextGuard {
        CURRENT.with(|stack| stack.borrow_mut().push(self.context()));
        ContextGuard { _priv: () }
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Seconds since this span opened. The span stays open; callers that
    /// treat a span as a timer (the session's queue span) read this at
    /// the transition and then [`finish`](Span::finish) — the breakdown
    /// field and the exported span are views of the same clock.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Close the span now (otherwise drop does it).
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let trace = &self.trace;
        let (start_s, end_s) =
            (trace.seconds_since_epoch(self.start), trace.seconds_since_epoch(Instant::now()));
        let mut records = trace.records();
        let from = records.attrs.len();
        records.attrs.append(&mut self.attrs);
        let attrs = from..records.attrs.len();
        let (id, parent, name) = (self.id, self.parent, self.name);
        records.spans.push(Finished { id, parent, name, start_s, end_s, attrs });
    }
}

/// A cheap cross-thread handle to "this trace, under this span".
#[derive(Clone, Debug)]
pub struct SpanContext {
    trace: Trace,
    span: u64,
}

impl SpanContext {
    /// The calling thread's innermost entered span, if any. This is how
    /// the worker pool picks up the submitting query's trace without
    /// any signature change on the spawn path.
    pub fn current() -> Option<SpanContext> {
        CURRENT.with(|stack| stack.borrow().last().cloned())
    }

    /// Open a child span under the context's span.
    pub fn child(&self, name: &'static str) -> Span {
        self.trace.open(name, Some(self.span))
    }

    /// The trace behind this context.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// Pops the entered span off the thread's context stack on drop.
#[derive(Debug)]
pub struct ContextGuard {
    _priv: (),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// One node of a frozen [`TraceTree`].
#[derive(Clone, Debug, Default)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// `key=value` attributes in insertion order.
    pub attrs: Vec<(String, String)>,
    /// Seconds since trace epoch at open.
    pub start_s: f64,
    /// Seconds since trace epoch at close.
    pub end_s: f64,
    /// Children, sorted by `(name, attrs, start)` — deterministic even
    /// when siblings raced on pool threads.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall-clock duration in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// First attribute value for `key`.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Depth-first search for the first descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All descendants (or self) named `name`, in tree order.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a SpanNode>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }
}

/// A finished, validated, deterministically ordered span tree for one
/// query. Not `Clone`: it is built from a trace's records, by
/// [`Trace::export`] or on a [`ClosedTrace`]'s first read.
#[derive(Debug)]
pub struct TraceTree {
    /// The root span (the query's whole lifecycle).
    pub root: SpanNode,
}

impl TraceTree {
    /// Total number of spans in the tree.
    pub fn span_count(&self) -> usize {
        fn count(n: &SpanNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_once_closed() {
        let trace = Trace::new(Registry::new());
        {
            let mut root = trace.span("query");
            root.attr("tenant", "t0");
            let child = root.child("plan");
            child.finish();
            root.finish();
        }
        let tree = trace.export().unwrap();
        assert_eq!(tree.root.name, "query");
        assert_eq!(tree.root.attr("tenant"), Some("t0"));
        assert_eq!(tree.root.children.len(), 1);
        assert_eq!(tree.root.children[0].name, "plan");
        assert_eq!(tree.span_count(), 2);
    }

    /// What a closed trace builds on first read is what export builds,
    /// and the records stay shared by every clone of it.
    #[test]
    fn a_closed_trace_builds_the_exported_tree_when_read() {
        let trace = Trace::new(Registry::new());
        {
            let mut root = trace.span("query");
            root.attr("tenant", "t0".to_string());
            root.child("plan").attr("cache", "hit");
            root.child("worker").attr("shard", 3usize);
        }
        let eager = trace.export().unwrap();
        let closed = trace.clone().close().unwrap();
        assert_eq!(trace.closed(), 0, "the records moved out");
        let lazy = closed.clone();
        assert!(lazy == closed && lazy.tree.get().is_none(), "a clone shares, unbuilt");
        assert_eq!(format!("{:?}", lazy.root), format!("{:?}", eager.root));
        assert!(lazy.tree.get().is_some() && closed.tree.get().is_none(), "built on read");
    }

    /// Every value an attribute takes displays as its source's
    /// `to_string()`, so the trees read as they did when attributes were
    /// stored as strings.
    #[test]
    fn attr_values_display_as_their_source() {
        let cases: [(AttrValue, String); 8] = [
            (0u64.into(), 0u64.to_string()),
            (u64::MAX.into(), u64::MAX.to_string()),
            (usize::MAX.into(), usize::MAX.to_string()),
            (7u32.into(), 7u32.to_string()),
            (true.into(), true.to_string()),
            (false.into(), false.to_string()),
            ("pooled/compiled".into(), "pooled/compiled".to_string()),
            ("tenant-ß→✓".to_string().into(), "tenant-ß→✓".to_string()),
        ];
        for (value, source) in cases {
            assert_eq!(value.to_string(), source, "{value:?}");
        }
    }

    #[test]
    fn unclosed_span_blocks_export() {
        let trace = Trace::new(Registry::new());
        let root = trace.span("query");
        let _open = root.child("never-finished");
        // `root` and `_open` are still alive: export must refuse.
        assert!(trace.opened() > trace.closed());
        match trace.export() {
            Err(TraceError::UnclosedSpans { opened, closed }) => {
                assert_eq!(opened, 2);
                assert_eq!(closed, 0);
            }
            other => panic!("expected UnclosedSpans, got {other:?}"),
        }
        assert_eq!(trace.clone().close().err(), trace.export().err(), "close checks alike");
    }

    #[test]
    fn two_roots_block_export() {
        let trace = Trace::new(Registry::new());
        trace.span("a").finish();
        trace.span("b").finish();
        match trace.export() {
            Err(TraceError::BadRootCount(2)) => {}
            other => panic!("expected BadRootCount(2), got {other:?}"),
        }
        assert_eq!(trace.close().err(), Some(TraceError::BadRootCount(2)));
    }

    #[test]
    fn context_crosses_threads() {
        let trace = Trace::new(Registry::new());
        let root = trace.span("query");
        let ctx = root.context();
        let handles: Vec<_> = (0..4usize)
            .map(|i| {
                let ctx = ctx.clone();
                std::thread::spawn(move || {
                    let mut s = ctx.child("worker");
                    s.attr("shard", i);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        root.finish();
        let tree = trace.export().unwrap();
        // Deterministic order: workers sorted by their shard attr.
        let shards: Vec<_> =
            tree.root.children.iter().map(|c| c.attr("shard").unwrap().to_string()).collect();
        assert_eq!(shards, ["0", "1", "2", "3"]);
    }

    #[test]
    fn thread_local_context_stack_nests() {
        let trace = Trace::new(Registry::new());
        assert!(SpanContext::current().is_none());
        let root = trace.span("query");
        {
            let _g = root.enter();
            let ctx = SpanContext::current().expect("entered");
            ctx.child("inner").finish();
        }
        assert!(SpanContext::current().is_none());
        root.finish();
        let tree = trace.export().unwrap();
        assert_eq!(tree.root.children[0].name, "inner");
    }

    #[test]
    fn dropped_spans_auto_finish() {
        let trace = Trace::new(Registry::new());
        {
            let root = trace.span("query");
            let _child = root.child("auto");
        }
        assert_eq!(trace.opened(), trace.closed());
        assert_eq!(trace.export().unwrap().span_count(), 2);
    }
}
