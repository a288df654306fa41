//! Where finished traces go: a bounded ring buffer of recent
//! [`TraceTree`]s, a JSON-lines exporter, and the human renderer behind
//! the bench CLI's `--trace` flag.

use crate::span::{SpanNode, TraceTree};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// A bounded, thread-safe ring buffer of the most recent finished
/// traces. The session pushes one tree per completed query, the same
/// `Arc` its response carries; when full, the oldest falls out —
/// observability never grows without bound.
#[derive(Clone, Debug)]
pub struct TraceSink {
    inner: Arc<Mutex<SinkState>>,
}

#[derive(Debug)]
struct SinkState {
    cap: usize,
    ring: VecDeque<Arc<TraceTree>>,
    pushed: u64,
}

impl TraceSink {
    /// A sink retaining the last `cap` traces (`cap` 0 keeps nothing
    /// but still counts pushes).
    pub fn new(cap: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(SinkState {
                cap,
                ring: VecDeque::with_capacity(cap.min(64)),
                pushed: 0,
            })),
        }
    }

    /// Record one finished trace.
    pub fn push(&self, tree: Arc<TraceTree>) {
        let mut st = self.inner.lock().unwrap();
        st.pushed += 1;
        if st.cap == 0 {
            return;
        }
        if st.ring.len() == st.cap {
            st.ring.pop_front();
        }
        st.ring.push_back(tree);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<Arc<TraceTree>> {
        self.inner.lock().unwrap().ring.iter().cloned().collect()
    }

    /// The most recent trace, if any.
    pub fn last(&self) -> Option<Arc<TraceTree>> {
        self.inner.lock().unwrap().ring.back().cloned()
    }

    /// Total traces ever pushed (including any that fell out).
    pub fn pushed(&self) -> u64 {
        self.inner.lock().unwrap().pushed
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().ring.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Export one trace as JSON-lines: one span object per line, pre-order
/// over the deterministic tree, ids renumbered in that order. With
/// `zero_timestamps` the `start`/`end`/`dur` fields are emitted as 0 —
/// that form is byte-identical across runs of the same seeded workload
/// (the span-tree determinism contract).
pub fn export_jsonl(tree: &TraceTree, zero_timestamps: bool) -> String {
    let mut out = String::new();
    let mut next_id = 0u64;
    fn emit(node: &SpanNode, parent: Option<u64>, next_id: &mut u64, zero: bool, out: &mut String) {
        let id = *next_id;
        *next_id += 1;
        let (start, end, dur) =
            if zero { (0.0, 0.0, 0.0) } else { (node.start_s, node.end_s, node.duration_s()) };
        let _ = write!(out, "{{\"id\":{id},");
        match parent {
            Some(p) => {
                let _ = write!(out, "\"parent\":{p},");
            }
            None => {
                let _ = write!(out, "\"parent\":null,");
            }
        }
        let _ = write!(
            out,
            "\"name\":\"{}\",\"start\":{start:.9},\"end\":{end:.9},\"dur\":{dur:.9},\"attrs\":{{",
            json_escape(&node.name)
        );
        for (i, (k, v)) in node.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}\n");
        for child in &node.children {
            emit(child, Some(id), next_id, zero, out);
        }
    }
    emit(&tree.root, None, &mut next_id, zero_timestamps, &mut out);
    out
}

/// Render one trace as an indented human-readable tree with durations
/// and attributes — the `--trace` pretty-printer.
pub fn render(tree: &TraceTree) -> String {
    let mut out = String::new();
    fn emit(node: &SpanNode, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{indent}{} ", node.name);
        let dur = node.duration_s();
        if dur >= 1.0 {
            let _ = write!(out, "[{dur:.3}s]");
        } else if dur >= 1e-3 {
            let _ = write!(out, "[{:.3}ms]", dur * 1e3);
        } else {
            let _ = write!(out, "[{:.1}us]", dur * 1e6);
        }
        for (k, v) in &node.attrs {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for child in &node.children {
            emit(child, depth + 1, out);
        }
    }
    emit(&tree.root, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Trace;

    fn sample_tree() -> TraceTree {
        let trace = Trace::new(Registry::new());
        let mut root = trace.span("query");
        root.attr("tenant", "t\"quoted\"");
        {
            let mut w = root.child("worker");
            w.attr("shard", 1);
        }
        root.child("merge").finish();
        root.finish();
        trace.export().unwrap()
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let sink = TraceSink::new(2);
        for _ in 0..3 {
            sink.push(Arc::new(sample_tree()));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.pushed(), 3);
        assert!(sink.last().is_some());
    }

    #[test]
    fn jsonl_is_one_object_per_span_with_escapes() {
        let tree = sample_tree();
        let out = export_jsonl(&tree, false);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"query\""));
        assert!(lines[0].contains("\\\"quoted\\\""));
        assert!(lines[0].contains("\"parent\":null"));
        // Children renumbered in deterministic pre-order.
        assert!(lines[1].contains("\"name\":\"merge\"") && lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"name\":\"worker\"") && lines[2].contains("\"shard\":\"1\""));
    }

    #[test]
    fn zeroed_export_is_reproducible() {
        let a = export_jsonl(&sample_tree(), true);
        let b = export_jsonl(&sample_tree(), true);
        assert_eq!(a, b);
        assert!(a.contains("\"start\":0.000000000"));
    }

    #[test]
    fn render_indents_children() {
        let txt = render(&sample_tree());
        assert!(txt.starts_with("query "));
        assert!(txt.contains("\n  merge "));
        assert!(txt.contains("\n  worker "));
        assert!(txt.contains("shard=1"));
    }
}
