//! Crate-level contracts: lossless histogram observation under arbitrary
//! cross-thread interleavings, span-tree export determinism, and export
//! against a tree built directly from the spans' shape.

use cheetah_telemetry::{export_jsonl, Registry, Span, SpanNode, Trace, TraceTree};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    // Merging from several threads into one shared histogram loses
    // nothing: exact count and sum survive any interleaving.
    #[test]
    fn concurrent_observation_is_lossless(
        xs in prop::collection::vec(1e-6f64..100.0, 1..128),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("shared");
        std::thread::scope(|scope| {
            for chunk in xs.chunks(xs.len().div_ceil(4)) {
                let h = h.clone();
                scope.spawn(move || {
                    for &x in chunk {
                        h.observe(x);
                    }
                });
            }
        });
        prop_assert_eq!(h.count(), xs.len() as u64);
        let exact: f64 = xs.iter().sum();
        prop_assert!((h.sum() - exact).abs() <= 1e-9 * (1.0 + exact.abs()));
    }

    // A trace of any shape exports the tree its shape describes, whatever
    // order its spans finish in. Span `i`'s parent is a span opened before
    // it (span 0 is the root); names and attributes repeat, so siblings
    // tie on both and fall back to opening order.
    #[test]
    fn export_builds_the_drawn_tree(
        spans in prop::collection::vec((any::<u64>(), 0usize..3, 0usize..3, any::<u64>()), 1..41),
    ) {
        // (parent, name, shard attribute) of each span, in opening order.
        let names = ["plan", "worker", "merge"];
        let shape: Vec<(Option<usize>, &str, usize)> = spans
            .iter()
            .enumerate()
            .map(|(i, &(p, n, a, _))| ((i > 0).then(|| p as usize % i), names[n], a))
            .collect();
        let trace = Trace::new(Registry::new());
        let mut open: Vec<Option<Span>> = Vec::new();
        for &(parent, name, shard) in &shape {
            let mut span = match parent {
                None => trace.span(name),
                Some(p) => open[p].as_ref().expect("still open").child(name),
            };
            span.attr("shard", shard);
            open.push(Some(span));
        }
        let mut finish_order: Vec<usize> = (0..spans.len()).collect();
        finish_order.sort_by_key(|&i| (spans[i].3, i));
        for i in finish_order {
            open[i].take().expect("finished once").finish();
        }
        let tree = trace.export().expect("every span closed under one root");
        prop_assert_eq!(trace.opened(), spans.len() as u64);
        prop_assert_eq!(tree.span_count() as u64, trace.opened());

        fn node(i: usize, shape: &[(Option<usize>, &str, usize)]) -> SpanNode {
            let attrs = |j: usize| vec![("shard".to_string(), shape[j].2.to_string())];
            let mut kids: Vec<usize> =
                (0..shape.len()).filter(|&j| shape[j].0 == Some(i)).collect();
            kids.sort_by_key(|&j| (shape[j].1, attrs(j), j));
            SpanNode {
                name: shape[i].1.to_string(),
                attrs: attrs(i),
                children: kids.into_iter().map(|j| node(j, shape)).collect(),
                ..SpanNode::default()
            }
        }
        let want = TraceTree { root: node(0, &shape) };
        prop_assert_eq!(export_jsonl(&tree, true), export_jsonl(&want, true));
    }
}

/// Build the same lifecycle tree with racy worker-span completion and
/// return its timestamp-zeroed JSON-lines export.
fn seeded_trace_export(shards: usize) -> String {
    let trace = Trace::new(Registry::new());
    let mut root = trace.span("query");
    root.attr("tenant", "determinism");
    {
        let mut plan = root.child("plan");
        plan.attr("cache", "miss");
    }
    let exec = root.child("execute");
    let ctx = exec.context();
    std::thread::scope(|scope| {
        for i in 0..shards {
            let ctx = ctx.clone();
            scope.spawn(move || {
                let mut w = ctx.child("worker");
                w.attr("shard", i);
                // Skew completion order: high shards finish first.
                std::thread::sleep(std::time::Duration::from_micros(((shards - i) * 200) as u64));
            });
        }
    });
    exec.finish();
    root.finish();
    export_jsonl(&trace.export().unwrap(), true)
}

// Same seed ⇒ identical exported trace modulo timestamps, no matter how
// the pool threads raced.
#[test]
fn span_tree_export_is_deterministic() {
    let first = seeded_trace_export(6);
    for _ in 0..4 {
        assert_eq!(first, seeded_trace_export(6));
    }
    // And the deterministic order is the attr order, not completion
    // order (shard 5 finishes first but sorts last).
    let shard_lines: Vec<&str> =
        first.lines().filter(|l| l.contains("\"name\":\"worker\"")).collect();
    assert_eq!(shard_lines.len(), 6);
    assert!(shard_lines[0].contains("\"shard\":\"0\""));
    assert!(shard_lines[5].contains("\"shard\":\"5\""));
}
