//! The benchmark's metric registry and its one-line JSON result.
//!
//! Every metric the benchmark can print is declared once in [`METRICS`]
//! with its unit and whether it is end-to-end (printed with `--trace 0`)
//! or per-layer (printed with `--trace 1`). `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps the two in
//! step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which run prints a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A number a user of the system sees (untraced run).
    EndToEnd,
    /// A number of one layer (traced run).
    PerLayer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::PerLayer,
    }
}

/// Every metric, end-to-end first. Per-layer metrics a workload does not
/// exercise read 0 on it.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("ok_share", "fraction"),
    e2e("rss_mb", "MB"),
    e2e("p50_light_us", "us"),
    e2e("p50_heavy_us", "us"),
    e2e("server_cpu_us_per_req", "us"),
    e2e("train_plans_per_s", "plans/s"),
    e2e("predict_plans_per_s", "plans/s"),
    e2e("median_rel_err_pct", "%"),
    e2e("r15_share", "fraction"),
    // The benchmark's own client: validity only.
    layer("loadgen.late_p99_us", "us"),
    layer("loadgen.cpu_us_per_req", "us"),
    layer("loadgen.sent", "count"),
    // The daemon seen through the socket: tails and the knee, which the
    // shared host cannot resolve to an end-to-end bound.
    layer("serve.p99_light_us", "us"),
    layer("serve.p99_heavy_us", "us"),
    layer("serve.max_rate_hz", "req/s"),
    // The daemon's framing, fast decoder and reply (stats verb deltas).
    layer("serve.parse_ns_per_req", "ns"),
    layer("serve.serialize_ns_per_req", "ns"),
    layer("serve.fast_path_share", "fraction"),
    layer("serve.steady_allocs_per_req", "count"),
    layer("serve.unattributed_us", "us"),
    layer("scratch.decode_ns", "ns"),
    layer("proto.decode_ns", "ns"),
    layer("lower.key_ns_per_node", "ns"),
    layer("plansim.featurize_ns_per_node", "ns"),
    layer("stream.memo_hit_share", "fraction"),
    layer("stream.memo_probes", "count"),
    layer("stream.memo_hit_ns", "ns"),
    layer("stream.memo_entries", "count"),
    layer("stream.memo_evictions", "count"),
    layer("stream.featurize_ns_per_miss", "ns"),
    layer("stream.run_ns_per_miss", "ns"),
    layer("stream.oneshot_ns", "ns"),
    layer("stream.admit_ns", "ns"),
    layer("stream.predict_ns", "ns"),
    layer("stream.retire_ns", "ns"),
    layer("stream.dedup_ratio", "ratio"),
    layer("stream.batches", "count"),
    layer("stream.resident_plans_end", "count"),
    layer("nn.forward_ns_per_call", "ns"),
    layer("nn.forward_gflops", "GFLOP/s"),
    layer("nn.forward_bytes_per_call", "bytes"),
    layer("infer.compile_ns_per_plan", "ns"),
    layer("infer.run_ns_per_plan", "ns"),
    layer("train.epoch_ms", "ms"),
    layer("train.first_epoch_ms", "ms"),
    layer("train.rows_per_epoch", "count"),
    layer("train.gemms_per_epoch", "count"),
    layer("train.other_ms", "ms"),
    layer("train_program.compile_ms", "ms"),
    layer("train_program.forward_ms", "ms"),
    layer("train_program.loss_ms", "ms"),
    layer("train_program.backward_ms", "ms"),
    layer("pool.runs_per_epoch", "count"),
    layer("pool.unparks_per_epoch", "count"),
    // Self time per layer: span time minus the part its child spans cover.
    layer("loadgen.self_ms", "ms"),
    layer("serve.self_ms", "ms"),
    layer("scratch.self_ms", "ms"),
    layer("proto.self_ms", "ms"),
    layer("lower.self_ms", "ms"),
    layer("plansim.self_ms", "ms"),
    layer("stream.self_ms", "ms"),
    layer("nn.self_ms", "ms"),
    layer("infer.self_ms", "ms"),
    layer("train.self_ms", "ms"),
    layer("train_program.self_ms", "ms"),
    layer("host.slowdown", "ratio"),
    layer("trace.spans", "count"),
    layer("trace.overhead_pct", "%"),
];

/// The layers spans are recorded for, in report order; each has a
/// `<layer>.self_ms` metric.
pub const LAYERS: &[&str] = &[
    "loadgen",
    "serve",
    "scratch",
    "proto",
    "lower",
    "plansim",
    "stream",
    "nn",
    "infer",
    "train",
    "train_program",
];

/// Looks up a declared metric.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Metric values collected over one run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under a declared metric name.
    ///
    /// # Panics
    /// Panics on an undeclared name: every printed name must be in the
    /// registry (and so in `BENCHMARK.json`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            def(name).is_some(),
            "metric `{name}` is not declared in METRICS"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders the result line: exactly the metrics of `kind`, each with
    /// its unit. Per-layer metrics the run did not record read 0.
    ///
    /// # Panics
    /// Panics if an end-to-end metric is missing or any printed value is
    /// not finite.
    pub fn result_line(&self, kind: Kind, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for m in METRICS.iter().filter(|m| m.kind == kind) {
            let v = match (self.get(m.name), kind) {
                (Some(v), _) => v,
                (None, Kind::PerLayer) => 0.0,
                (None, Kind::EndToEnd) => panic!("end-to-end metric `{}` was not measured", m.name),
            };
            assert!(v.is_finite(), "metric `{}` is not finite: {v}", m.name);
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let text = include_str!("../../BENCHMARK.json");
        serde_json::parse(text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        doc.as_object()
            .and_then(|m| m.get(key))
            .and_then(|v| match v {
                serde_json::Value::Array(a) => Some(a),
                _ => None,
            })
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric entry is an object");
                let s = |k: &str| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_in_benchmark_json_with_its_unit() {
        let doc = benchmark_json();
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let mut json = listed(&doc, key);
            let mut ours: Vec<(String, String)> = METRICS
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            json.sort();
            ours.sort();
            assert_eq!(ours, json, "`{key}` in BENCHMARK.json differs from METRICS");
        }
    }

    #[test]
    fn every_printed_metric_name_is_declared() {
        let mut v = Values::default();
        for m in METRICS {
            v.set(m.name, 1.5);
        }
        for kind in [Kind::EndToEnd, Kind::PerLayer] {
            let line = v.result_line(kind, true, 10, 0);
            let doc = serde_json::parse(&line).expect("result line is JSON");
            let metrics = doc.as_object().unwrap()["metrics"]
                .as_object()
                .unwrap()
                .clone();
            assert_eq!(doc.as_object().unwrap()["attempted"].as_f64(), Some(10.0));
            assert_eq!(
                metrics.len(),
                METRICS.iter().filter(|m| m.kind == kind).count()
            );
            for (name, entry) in metrics.iter() {
                let d = def(name).unwrap_or_else(|| panic!("printed `{name}` is undeclared"));
                assert_eq!(d.kind, kind);
                assert_eq!(entry.as_object().unwrap()["unit"].as_str(), Some(d.unit));
            }
        }
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for l in LAYERS {
            let name = format!("{l}.self_ms");
            assert!(def(&name).is_some(), "missing `{name}`");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Values::default().set("no_such_metric", 1.0);
    }
}
