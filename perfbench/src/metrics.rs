//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload on untraced runs.
/// Each workload gives them its own unit of work (see `NOTES.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("pass_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Per-layer metrics, reported by every workload on traced runs. A
/// layer that sits idle on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("expr.eval_ns", "ns"),
    ("expr.instrs", "count"),
    ("ode.step_ns", "ns"),
    ("ode.steps_per_sample", "count"),
    ("bltl.feed_ns", "ns"),
    ("bltl.early_stop_rate", "ratio"),
    ("smc.sample_us", "us"),
    ("pool.speedup", "ratio"),
    ("engine.compile_ms", "ms"),
    ("engine.falsify_ms", "ms"),
    ("engine.calibrate_ms", "ms"),
    ("engine.stability_ms", "ms"),
    ("engine.therapy_ms", "ms"),
    ("bmc.reach_ms", "ms"),
    ("icp.fixpoint_ns", "ns"),
    ("icp.boxes", "count"),
    ("icp.boxes_per_s", "1/s"),
    ("ode.flow_us", "us"),
    ("sat.conflicts", "count"),
    ("sat.restarts", "count"),
    ("bmc.depth", "count"),
    ("lyapunov.iterations", "count"),
    ("socket.overhead_us", "us"),
    ("daemon.hit_p50_ms", "ms"),
    ("daemon.miss_p50_ms", "ms"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("registry.prepare_us", "us"),
    ("registry.prepare_rebuild_us", "us"),
    ("registry.session_builds", "count"),
    ("cache.probe_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("scheduler.admit_ns", "ns"),
    ("scheduler.queue_wait_p50_ms", "ms"),
    ("scheduler.queue_wait_p90_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("persist.append_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.overhead_miss", "ratio"),
];

/// Collected metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line: exactly the catalogue's metrics, in order,
/// each with its unit. Panics on a missing or unknown name — that is a
/// bug in a workload, not a measurement.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    trace: bool,
    values: &Values,
) -> String {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    let body: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Shortest round-trip rendering (every digit kept); JSON has no
/// non-finite numbers, so those become `null` and fail validation
/// downstream rather than masquerading as a measurement.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
    /// a minimal scan (the file is flat and machine-written).
    fn manifest_section(doc: &str, section: &str) -> Vec<(String, String)> {
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(manifest_section(&doc, section), want, "{section}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let values: Values = END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect();
        let line = result_json(true, 10, 0, false, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    #[should_panic(expected = "did not report")]
    fn a_missing_metric_is_a_bug() {
        result_json(true, 1, 0, false, &Values::new());
    }
}
