//! The tracing half of the telemetry plane: per-query spans that
//! assemble into one lifecycle tree per request.
//!
//! A [`Trace`] is created per query; [`Span`]s open under it (or under
//! a parent span), carry `key=value` attributes, and record themselves
//! into the trace when they finish (explicitly or on drop). Crossing a
//! thread boundary — the worker pool — is a [`SpanContext`] clone
//! captured into the job closure; the receiving thread opens children
//! under it.
//!
//! Finished traces freeze into a [`TraceTree`] whose child ordering is
//! deterministic (sorted by name and attributes, not completion order),
//! so two runs of the same seeded workload export byte-identical trees
//! modulo timestamps.

use crate::metrics::Registry;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

#[derive(Debug)]
struct TraceInner {
    epoch: Instant,
    registry: Registry,
    /// The next span id, and so the number of spans opened: ids are
    /// dense, `0..opened`, and a parent's id is below its children's.
    opened: AtomicU64,
    /// Each finished span: its id, its parent's id and its node
    /// (children empty), in finishing order.
    finished: Mutex<Vec<(u64, Option<u64>, SpanNode)>>,
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
                finished: Mutex::default(),
            }),
        }
    }

    /// The registry this trace reports metrics into.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Open a root-level span (no parent).
    pub fn span(&self, name: &str) -> Span {
        self.open(name, None)
    }

    fn open(&self, name: &str, parent: Option<u64>) -> Span {
        let start = Instant::now();
        Span {
            trace: self.clone(),
            id: self.inner.opened.fetch_add(1, Ordering::Relaxed),
            parent,
            node: SpanNode {
                name: name.to_string(),
                start_s: self.seconds_since_epoch(start),
                ..SpanNode::default()
            },
            start,
        }
    }

    /// Number of spans opened so far.
    pub fn opened(&self) -> u64 {
        self.inner.opened.load(Ordering::Relaxed)
    }

    /// Number of spans that have finished recording.
    pub fn closed(&self) -> u64 {
        self.finished().len() as u64
    }

    /// Freeze into a deterministic [`TraceTree`].
    ///
    /// Fails when spans are still open or when there is not exactly one
    /// root. Once every span has closed every parent id resolves: a
    /// parent opens before its children, in the same trace.
    pub fn export(&self) -> Result<TraceTree, TraceError> {
        let finished = self.finished();
        // Read under the lock, so every finished span's id is below it: a
        // span pushes under this lock after its `fetch_add`, and the
        // lock's release and acquire order that add before this load.
        let opened = self.opened();
        if finished.len() as u64 != opened {
            return Err(TraceError::UnclosedSpans { opened, closed: finished.len() as u64 });
        }
        // Ids are dense, so each span has a slot; a parent's id is below
        // its children's, so one pass from the last id down hands each
        // node, its children already gathered, to its parent's slot.
        let mut slots: Vec<Option<(Option<u64>, SpanNode)>> = vec![None; finished.len()];
        for (id, parent, node) in finished.iter() {
            slots[*id as usize] = Some((*parent, node.clone()));
        }
        drop(finished);
        let mut roots = Vec::new();
        for id in (0..slots.len()).rev() {
            let (parent, mut node) = slots[id].take().expect("every opened id has closed");
            // Gathered newest first; the sort falls back to opening order.
            node.children.reverse();
            node.children.sort_by(|a, b| {
                (&a.name, &a.attrs).cmp(&(&b.name, &b.attrs)).then(a.start_s.total_cmp(&b.start_s))
            });
            match parent {
                None => roots.push(node),
                Some(p) => {
                    let (_, up) =
                        slots[p as usize].as_mut().expect("a parent's id is below its child's");
                    up.children.push(node);
                }
            }
        }
        match <[SpanNode; 1]>::try_from(roots) {
            Ok([root]) => Ok(TraceTree { root }),
            Err(roots) => Err(TraceError::BadRootCount(roots.len())),
        }
    }

    /// The finished spans. A lock a panicking thread poisoned is taken
    /// back as it stands: each push leaves the list whole, and a span's
    /// drop must not panic.
    fn finished(&self) -> MutexGuard<'_, Vec<(u64, Option<u64>, SpanNode)>> {
        self.inner.finished.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn seconds_since_epoch(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.inner.epoch).as_secs_f64()
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

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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
    /// What this span records when it finishes (children empty).
    node: SpanNode,
    start: Instant,
}

impl Span {
    /// Attach a `key=value` attribute.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        self.node.attrs.push((key.to_string(), value.to_string()));
    }

    /// Open a child span under this one.
    pub fn child(&self, name: &str) -> Span {
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
        let mut node = std::mem::take(&mut self.node);
        node.end_s = self.trace.seconds_since_epoch(Instant::now());
        self.trace.finished().push((self.id, self.parent, node));
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
    pub fn child(&self, name: &str) -> Span {
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
/// query. Not `Clone`: holders share one tree through an `Arc`.
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
    }

    #[test]
    fn context_crosses_threads() {
        let trace = Trace::new(Registry::new());
        let root = trace.span("query");
        let ctx = root.context();
        let handles: Vec<_> = (0..4)
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
