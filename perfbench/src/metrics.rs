//! The metric catalogue and the result line the benchmark prints.
//!
//! `BENCHMARK.json` lists the same names, units and directions; a test
//! and the `run.py` driver both check that the printed set equals the
//! declared one. `perfbench/README.md` records which end-to-end metric
//! on which workload each layer metric should move.

use std::collections::BTreeMap;

/// One metric the benchmark prints.
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`; read by the `BENCHMARK.json` test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Printed with `--trace 0`: whole cold passes, timed untraced.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("rounds_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Printed with `--trace 1`: the traced pass, per layer.
pub const PER_LAYER: &[MetricDef] = &[
    m("runner_s", "s", "lower"),
    m("adversary.topology_s", "s", "lower"),
    m("adversary.calls", "count", "lower"),
    m("graph.validate_s", "s", "lower"),
    m("graph.edges_mean", "count", "lower"),
    m("kernel.view_s", "s", "lower"),
    m("kernel.compose_s", "s", "lower"),
    m("kernel.eliminate_s", "s", "lower"),
    m("kernel.deliver_s", "s", "lower"),
    m("kernel.round_end_s", "s", "lower"),
    m("kernel.loop_other_s", "s", "lower"),
    m("kernel.useful_frac", "frac", "higher"),
    m("cell.build_s", "s", "lower"),
    m("instance.generate_s", "s", "lower"),
    m("executor.busy_s", "s", "lower"),
    m("executor.util", "frac", "higher"),
    m("executor.max_job_s", "s", "lower"),
    m("store.put_s", "s", "lower"),
    m("store.get_s", "s", "lower"),
    m("store.hits", "count", "higher"),
    m("store.misses", "count", "lower"),
    m("store.warm_s", "s", "lower"),
    m("delivery.sent", "count", "lower"),
    m("delivery.delivered", "count", "higher"),
    m("delivery.collided", "count", "lower"),
    m("delivery.dropped", "count", "lower"),
    m("share.adversary_validate", "frac", "lower"),
    m("share.compose_eliminate", "frac", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
];

/// The benchmark's last stdout line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
/// Every value of `values` must be finite and named in `defs`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(f64::NAN);
            // JSON has no NaN: a missing or non-finite value prints as
            // null, which the driver rejects as an incorrect run.
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_engine::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
    }

    /// The declared metric set (names, units, directions) is the printed
    /// one, in both trace modes.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let printed: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("wall_s", 1.25);
        values.insert("rounds_per_s", 400.0);
        values.insert("peak_rss_mb", 12.5);
        values.insert("setup_s", 0.003);
        let line = result_line(true, 8, 0, END_TO_END, &values);
        let doc = Json::parse(&line).expect("parses");
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.003)
        );
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(8));
    }
}
