//! The benchmark's own span recorder.
//!
//! The ledger records a span around every call it makes into a layer of
//! the program — name, start, end, the span that caused it, and the
//! request it belongs to — keeps them in memory, and writes them out as
//! JSON lines when the run ends. Where the program hands back its own
//! lifecycle trace (`QueryResponse::trace`), that tree is imported under
//! the benchmark span of the call that produced it, so one table covers
//! the client's wall time from the outside in.
//!
//! Nothing here is touched during the end-to-end phase: those metrics
//! are measured with the recorder off.

use cheetah_telemetry::SpanNode;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// The span that caused this one; `None` for a root.
    pub parent: Option<SpanId>,
    /// Request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Layer-qualified name of the call.
    pub name: String,
    /// Nanoseconds since the recorder's epoch at open.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch at close.
    pub end_ns: u64,
}

/// In-memory span store. A span's id is its index.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`. Recorders that are
    /// later merged with [`absorb`](Recorder::absorb) share one epoch.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Recorder::close).
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(SpanRec {
            parent,
            request,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`open`](Recorder::open).
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span around one call.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = call();
        self.close(id);
        out
    }

    /// Import the program's own span tree under `parent`, aligning the
    /// tree's root with the parent's start (the program opens its root
    /// first thing inside the call) and clamping to the parent's end.
    pub fn import_tree(&mut self, parent: SpanId, node: &SpanNode) {
        let offset_ns = self.spans[parent].start_ns as f64 - node.start_s * 1e9;
        self.import_node(parent, node, offset_ns);
    }

    fn import_node(&mut self, parent: SpanId, node: &SpanNode, offset_ns: f64) {
        let (lo, hi) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let at = |s: f64| ((s * 1e9 + offset_ns).max(0.0) as u64).clamp(lo, hi);
        let name = match node.attr("shard") {
            Some(shard) => format!("{}[{shard}]", node.name),
            None => node.name.clone(),
        };
        let request = self.spans[parent].request;
        self.spans.push(SpanRec {
            parent: Some(parent),
            request,
            name,
            start_ns: at(node.start_s),
            end_ns: at(node.end_s),
        });
        let id = self.spans.len() - 1;
        for child in &node.children {
            self.import_node(id, child, offset_ns);
        }
    }

    /// Move every span of `other` (recorded against the same epoch, e.g.
    /// by a second client thread) into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| SpanRec { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    /// Every span recorded so far, by id.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One row of a layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// Span name (with any `[shard]` suffix dropped).
    pub name: String,
    /// Spans of that name under the tabulated roots.
    pub count: u64,
    /// Wall time attributed to the name, nanoseconds.
    pub self_ns: f64,
}

/// Attribute the wall time of every root span named `root_name` to span
/// names, outside in.
///
/// A span's *self time* is its duration minus the part of that interval
/// its children cover; the covered part goes to the children. Where
/// several children run in parallel (shard workers), each instant is
/// split equally among those open at it, and a child hands its share on
/// to its own children in proportion — so the rows sum to the roots'
/// wall time by construction. The root's own self time is what no inner
/// span accounts for; callers print it as `unattributed`.
///
/// Returns the rows (sorted by name) and the roots' total wall time.
pub fn wall_attribution(spans: &[SpanRec], root_name: &str) -> (Vec<LayerRow>, f64) {
    let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    let mut rows: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut total = 0.0;
    for (root, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name == root_name {
            total += (s.end_ns - s.start_ns) as f64;
            attribute(spans, &children, root, (s.start_ns, s.end_ns), 1.0, &mut rows);
        }
    }
    let rows = rows
        .into_iter()
        .map(|(name, (count, self_ns))| LayerRow { name, count, self_ns })
        .collect();
    (rows, total)
}

/// Split span `id`, clamped to `[lo, hi]`, between itself and its
/// children; `scale` is the share of each of its nanoseconds that its
/// parent handed down.
fn attribute(
    spans: &[SpanRec],
    children: &[Vec<SpanId>],
    id: SpanId,
    (lo, hi): (u64, u64),
    scale: f64,
    rows: &mut BTreeMap<String, (u64, f64)>,
) {
    let kids: Vec<(SpanId, u64, u64)> = children[id]
        .iter()
        .map(|&c| (c, spans[c].start_ns.clamp(lo, hi), spans[c].end_ns.clamp(lo, hi)))
        .collect();
    // Sweep the children's boundaries; `open` holds indices into `kids`.
    // Closes sort before opens at one instant, so an empty child would
    // never close: it takes no part in the sweep.
    let mut events: Vec<(u64, bool, usize)> = kids
        .iter()
        .enumerate()
        .filter(|(_, c)| c.2 > c.1)
        .flat_map(|(k, c)| [(c.1, true, k), (c.2, false, k)])
        .collect();
    events.sort_unstable_by_key(|e| (e.0, e.1));
    let mut covered = vec![0.0f64; kids.len()];
    let mut own = 0.0f64;
    let mut open: Vec<usize> = Vec::new();
    let mut at = lo;
    for (t, opens, k) in events {
        let len = (t - at) as f64;
        if open.is_empty() {
            own += len;
        } else {
            for &o in &open {
                covered[o] += len / open.len() as f64;
            }
        }
        at = t;
        if opens {
            open.push(k);
        } else {
            open.retain(|o| *o != k);
        }
    }
    own += (hi - at) as f64;
    let row = rows.entry(base_name(&spans[id].name)).or_default();
    row.0 += 1;
    row.1 += own * scale;
    for (k, &(c, cs, ce)) in kids.iter().enumerate() {
        if ce > cs {
            let down = scale * covered[k] / (ce - cs) as f64;
            attribute(spans, children, c, (cs, ce), down, rows);
        } else {
            rows.entry(base_name(&spans[c].name)).or_default().0 += 1;
        }
    }
}

fn base_name(name: &str) -> String {
    name.split('[').next().unwrap_or(name).to_string()
}

/// Print a layer table: self time, share and count per row, the root's
/// own row relabelled `unattributed`, and the total they sum to.
pub fn print_table(title: &str, root_name: &str, rows: &[LayerRow], total_ns: f64) {
    println!("\n{title}");
    println!("{:<34} {:>9} {:>12} {:>8}", "span", "count", "self ms", "share");
    let mut sorted: Vec<&LayerRow> = rows.iter().collect();
    sorted.sort_by(|a, b| b.self_ns.total_cmp(&a.self_ns));
    let share = |ns: f64| if total_ns > 0.0 { ns / total_ns * 100.0 } else { 0.0 };
    for r in sorted.iter().filter(|r| r.name != root_name) {
        println!(
            "{:<34} {:>9} {:>12.3} {:>7.1}%",
            r.name,
            r.count,
            r.self_ns / 1e6,
            share(r.self_ns)
        );
    }
    let un = rows.iter().find(|r| r.name == root_name).map_or(0.0, |r| r.self_ns);
    println!("{:<34} {:>9} {:>12.3} {:>7.1}%", "unattributed", "-", un / 1e6, share(un));
    let sum: f64 = rows.iter().map(|r| r.self_ns).sum();
    println!(
        "{:<34} {:>9} {:>12.3} {:>7.1}%   ({root_name} wall {:.3} ms)",
        "sum",
        "-",
        sum / 1e6,
        share(sum),
        total_ns / 1e6
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(parent: Option<SpanId>, name: &str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec { parent, request: 0, name: name.to_string(), start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover_and_rows_sum_to_the_root() {
        // root 0..100; a 10..40; b 50..90 with two parallel workers
        // 50..70 and 50..90; a stray root of another name is ignored.
        let spans = vec![
            rec(None, "frontdoor", 0, 100),
            rec(Some(0), "a", 10, 40),
            rec(Some(0), "b", 50, 90),
            rec(Some(2), "worker[0]", 50, 70),
            rec(Some(2), "worker[1]", 50, 90),
            rec(None, "other", 0, 1000),
        ];
        let (rows, total) = wall_attribution(&spans, "frontdoor");
        assert_eq!(total, 100.0);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("a").self_ns, 30.0);
        // Workers cover all of b: b has no self time; the 40 ns go to
        // the workers (20 shared between two, 20 to the straggler).
        assert_eq!(get("b").self_ns, 0.0);
        assert_eq!(get("worker").self_ns, 40.0);
        assert_eq!(get("worker").count, 2);
        assert_eq!(get("frontdoor").self_ns, 30.0);
        assert_eq!(rows.iter().map(|r| r.self_ns).sum::<f64>(), total);
    }

    #[test]
    fn children_are_clamped_to_their_parent() {
        let spans = vec![rec(None, "r", 10, 20), rec(Some(0), "late", 15, 40)];
        let (rows, total) = wall_attribution(&spans, "r");
        assert_eq!(total, 10.0);
        assert_eq!(rows.iter().find(|r| r.name == "late").unwrap().self_ns, 5.0);
    }

    #[test]
    fn absorb_keeps_parent_links_and_jsonl_has_one_line_per_span() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let root = a.open("frontdoor", None, 7);
        a.time("verify", Some(root), 7, || ());
        a.close(root);
        let mut b = Recorder::new(epoch);
        let r2 = b.open("frontdoor", None, 8);
        b.time("verify", Some(r2), 8, || ());
        b.close(r2);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].request, 8);
        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"id\":0,\"parent\":null,\"request\":7"));
    }
}
