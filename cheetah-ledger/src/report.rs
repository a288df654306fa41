//! Metric names and units — the same lists `BENCHMARK.json` declares —
//! and the one JSON result line the run ends with.

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] =
    [("speedup_p50", "ratio"), ("speedup_p90", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// [`END_TO_END`] in the shape of [`per_layer`].
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
}

/// The seven query families, as `DbQuery::kind` names them.
pub const FAMILIES: [&str; 7] =
    ["filter-count", "distinct", "skyline", "topn", "groupby-max", "join", "having-sum"];

/// Arm suffixes in `PathChooser::ARMS` order.
pub const ARMS: [&str; 4] =
    ["pooled_interp", "pooled_compiled", "streamed_interp", "streamed_compiled"];

/// `(name, unit)` of every per-layer metric, grouped by the module that
/// owns the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    // The issue's other five end-to-end metrics, demoted: none of them
    // keeps its bound across ten seeds on a machine that drifts by 10 %.
    add("latency_p50_ms", "ms");
    add("latency_p90_ms", "ms");
    add("rows_per_s", "rows/s");
    add("cpu_ms_per_mrow", "ms/Mrow");
    add("survivor_fraction", "ratio");
    // serve::session
    add("serve.floor_us", "us");
    for span in crate::frontdoor::LIFECYCLE {
        add(&format!("serve.span.{span}_us"), "us");
    }
    add("serve.unattributed_share", "ratio");
    add("serve.queue_p90_us", "us");
    add("serve.rejected", "count");
    // serve::plan_cache
    add("plan_cache.hit_rate", "ratio");
    add("plan_cache.fingerprint_us", "us");
    // db::planner
    add("planner.plan_ms", "ms");
    add("planner.routing_keys_ns_per_row", "ns/row");
    add("planner.shards_chosen", "count");
    for arm in ARMS {
        add(&format!("chooser.share.{arm}"), "ratio");
    }
    add("chooser.regret", "ratio");
    // db::sharded
    add("route.ns_per_row", "ns/row");
    // db::executor + db::operators
    for family in FAMILIES {
        add(&format!("shard_exec.{family}.interp_ns_per_row"), "ns/row");
        add(&format!("shard_exec.{family}.compiled_ns_per_row"), "ns/row");
    }
    add("shard_exec.worker_share", "ratio");
    // core::compile / core::pruner
    for family in ["distinct", "groupby", "topn"] {
        add(&format!("kernel.{family}.interp_ns_per_entry"), "ns/entry");
        add(&format!("kernel.{family}.compiled_ns_per_entry"), "ns/entry");
    }
    // net::stream
    add("frame.encode_ns_per_entry", "ns/entry");
    add("frame.parse_ns_per_entry", "ns/entry");
    add("frame.bytes_per_entry", "B/entry");
    // db::master
    add("merge.ingest_ns_per_entry", "ns/entry");
    add("merge.finish_ms", "ms");
    // runtime::pool / runtime::runtime
    add("pool.dispatch_us", "us");
    add("pool.parallel_efficiency", "ratio");
    add("exec.parallel_efficiency", "ratio");
    for arm in ARMS {
        add(&format!("arm.{arm}_ms"), "ms");
    }
    // telemetry
    add("telemetry.observe_ns", "ns");
    add("telemetry.lookup_ns", "ns");
    add("telemetry.span_ns", "ns");
    add("telemetry.export_us", "us");
    // db::baseline, net::model
    add("baseline.ms", "ms");
    add("speedup_vs_baseline", "ratio");
    add("model.completion_ms", "ms");
    add("model.gap", "ratio");
    // funnel (exact counts over one cycle)
    add("funnel.rows_in", "count");
    add("funnel.entries_to_master", "count");
    add("funnel.pruned_fraction", "ratio");
    add("funnel.worker_wire_bytes", "B");
    add("funnel.master_wire_bytes", "B");
    // harness
    add("trace_overhead_share", "ratio");
    add("workloads.gen_rows_per_s", "rows/s");
    m
}

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The metrics of `spec` this run did not measure: absent, not
    /// finite, or — with `positive`, for metrics that are never 0 — not
    /// above 0.
    pub fn unusable(&self, spec: &[(String, &str)], positive: bool) -> Vec<String> {
        spec.iter()
            .filter(|(name, _)| {
                !self.get(name).is_some_and(|v| v.is_finite() && (v > 0.0 || !positive))
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Print `name value unit` per recorded metric, for people.
    pub fn print_all(&self) {
        let units: Vec<(String, &str)> = end_to_end().into_iter().chain(per_layer()).collect();
        for (name, v) in &self.0 {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            println!("{name:<44} {v:>16.6} {unit}");
        }
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every metric of `spec`
/// with all the digits it was measured with. A metric that is absent or
/// not finite prints as `null`; the caller has counted it in `failed`.
pub fn result_line(
    spec: &[(String, &str)],
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
) -> String {
    let body: Vec<String> = spec
        .iter()
        .map(|(name, unit)| {
            let v = match metrics.get(name) {
                Some(v) if v.is_finite() => v.to_string(),
                _ => "null".to_string(),
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the objects in top-level array `key` of a
    /// `BENCHMARK.json` text.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let from = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
        let rest = &json[from..];
        let array = &rest[rest.find('[').unwrap()..=rest.find(']').unwrap()];
        array
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn emitted_metric_names_are_exactly_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        let workloads: Vec<String> =
            crate::workloads::WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names_in(&json, "workloads"), workloads);
        // Units agree too.
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            let at = json.find(&format!("\"{name}\"")).expect("name present");
            let obj = &json[at..at + json[at..].find('}').unwrap()];
            assert!(obj.contains(&format!("\"unit\": \"{unit}\"")), "{name}: unit {unit} in {obj}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.25);
        m.set("b", 0.0);
        let spec = [("a_ms".to_string(), "ms"), ("b".to_string(), "count")];
        let line = result_line(&spec, &m, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        assert!(result_line(&spec[..1], &m, 10, 1).starts_with("{\"correct\": false"));
    }

    /// A measurement that failed (a division by zero rows, an absent
    /// trace) must not read as a perfect score of 0.
    #[test]
    fn absent_non_finite_and_zero_metrics_are_unusable() {
        let mut m = Metrics::default();
        m.set("ok", 2.0);
        m.set("zero", 0.0);
        m.set("nan", f64::NAN);
        m.set("inf", 1.0 / 0.0);
        let spec: Vec<(String, &str)> =
            ["ok", "zero", "nan", "inf", "absent"].iter().map(|n| (n.to_string(), "x")).collect();
        assert_eq!(m.unusable(&spec, false), ["nan", "inf", "absent"]);
        assert_eq!(m.unusable(&spec, true), ["zero", "nan", "inf", "absent"]);
        let line = result_line(&spec, &m, 1, 3);
        assert!(
            line.contains("\"nan\": {\"value\": null")
                && line.contains("\"absent\": {\"value\": null")
        );
    }
}
