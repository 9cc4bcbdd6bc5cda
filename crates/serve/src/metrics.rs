//! Per-phase latency aggregation for the serving core.
//!
//! [`ServeMetrics`] owns one [`PhaseMetric`] per phase of the query
//! lifecycle — a lock-free lifetime [`Histogram`] paired with a
//! sliding 60-second [`Windowed`] view — and
//! [`ServeCore`](crate::ServeCore) records into them inline (a record
//! is a handful of relaxed atomic ops — cheap enough for the
//! microsecond-scale warm path, measured through a real daemon socket
//! by the `daemon_mix` benchmark workload). Two renderings exist:
//!
//! * [`ServeMetrics::latency_json`] — the `latency` object inside the
//!   `{"op":"stats"}` reply: per-phase count / mean / p50 / p90 / p99 /
//!   max in milliseconds over the daemon's lifetime, plus
//!   `p50_60s_ms` / `p99_60s_ms` over the last minute (a lifetime p99
//!   goes stale after days of uptime; the windowed pair answers "how
//!   is it doing *now*").
//! * [`ServeMetrics::prometheus_into`] — Prometheus-style text
//!   exposition (summary quantiles in seconds plus `_sum`/`_count`),
//!   embedded in the `{"op":"metrics"}` reply alongside the counter
//!   metrics rendered by
//!   [`ServeCore::metrics_text`](crate::ServeCore::metrics_text).
//!
//! # Phases
//!
//! | phase           | measures                                                    |
//! |-----------------|-------------------------------------------------------------|
//! | `request_hit`   | end-to-end time of a request answered from the result cache |
//! | `request_miss`  | end-to-end time of a request that computed its answer       |
//! | `queue_wait`    | time spent waiting for a scheduler execution slot           |
//! | `execute`       | engine execution time (inside the panic boundary)           |
//! | `compile`       | artifact-acquisition share of execution (from provenance)   |
//! | `persist_append`| spill-file append time for memoized results                 |
//! | `lint`          | execution time of static-analysis (`lint`) queries          |
//!
//! The request histograms cover successful replies; refused or failed
//! requests are visible in the scheduler/cache/panic counters instead.

use crate::json::Json;
use biocheck_obs::{Histogram, Snapshot, Windowed};
use std::fmt::Write as _;
use std::time::Duration;

/// One phase's latency state: the lifetime histogram plus a sliding
/// last-60-seconds window. Recording lands in both; both stay
/// lock-free.
pub struct PhaseMetric {
    /// Lifetime histogram (all samples since daemon start).
    pub lifetime: Histogram,
    /// Sliding last-minute window.
    pub recent: Windowed,
}

impl Default for PhaseMetric {
    fn default() -> PhaseMetric {
        PhaseMetric {
            lifetime: Histogram::new(),
            recent: Windowed::last_minute(),
        }
    }
}

impl PhaseMetric {
    /// Records one sample into the lifetime histogram and the window.
    pub fn record(&self, d: Duration) {
        self.lifetime.record(d);
        self.recent.record(d);
    }

    /// Lifetime snapshot (the stable quantile API).
    pub fn snapshot(&self) -> Snapshot {
        self.lifetime.snapshot()
    }
}

/// The latency metrics of one [`ServeCore`](crate::ServeCore).
/// All fields record nanoseconds; recording is lock-free, so every
/// connection thread writes directly into the shared instance.
#[derive(Default)]
pub struct ServeMetrics {
    /// End-to-end latency of cache-hit replies.
    pub request_hit: PhaseMetric,
    /// End-to-end latency of computed (miss) replies.
    pub request_miss: PhaseMetric,
    /// Scheduler admission wait of admitted requests.
    pub queue_wait: PhaseMetric,
    /// Engine execution time (successful runs).
    pub execute: PhaseMetric,
    /// Compile/artifact-acquisition phase, as stamped into
    /// [`Provenance::compile_time`](biocheck_engine::Provenance::compile_time).
    pub compile: PhaseMetric,
    /// Persistence-log append latency.
    pub persist_append: PhaseMetric,
    /// Execution time of static-analysis (`lint`) queries — a subset
    /// of `execute`, split out so the pre-flight path is visible on
    /// its own.
    pub lint: PhaseMetric,
}

/// Phase name → metric, the single place the phase list lives.
fn phases(m: &ServeMetrics) -> [(&'static str, &PhaseMetric); 7] {
    [
        ("request_hit", &m.request_hit),
        ("request_miss", &m.request_miss),
        ("queue_wait", &m.queue_wait),
        ("execute", &m.execute),
        ("compile", &m.compile),
        ("persist_append", &m.persist_append),
        ("lint", &m.lint),
    ]
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn phase_json(metric: &PhaseMetric) -> Json {
    let snap = metric.lifetime.snapshot();
    let recent = metric.recent.snapshot();
    Json::obj([
        ("count", Json::num(snap.count() as f64)),
        ("mean_ms", Json::num(snap.mean_ns() / 1e6)),
        ("p50_ms", Json::num(ns_to_ms(snap.quantile(0.5)))),
        ("p90_ms", Json::num(ns_to_ms(snap.quantile(0.9)))),
        ("p99_ms", Json::num(ns_to_ms(snap.quantile(0.99)))),
        ("max_ms", Json::num(ns_to_ms(snap.max_ns()))),
        ("count_60s", Json::num(recent.count() as f64)),
        ("p50_60s_ms", Json::num(ns_to_ms(recent.quantile(0.5)))),
        ("p99_60s_ms", Json::num(ns_to_ms(recent.quantile(0.99)))),
    ])
}

impl ServeMetrics {
    /// The `latency` object of the stats reply: one entry per phase
    /// (always all seven, zeroed when nothing was recorded yet), each
    /// with lifetime percentiles plus the `*_60s` windowed pair.
    pub fn latency_json(&self) -> Json {
        Json::obj(
            phases(self)
                .into_iter()
                .map(|(name, metric)| (name, phase_json(metric)))
                .collect::<Vec<_>>(),
        )
    }

    /// Appends the latency summaries in Prometheus text exposition
    /// format: per phase, `quantile`-labelled samples of
    /// `biocheckd_request_latency_seconds` plus `_sum` and `_count`
    /// (lifetime values; scrapers derive recency by rate over
    /// successive scrapes, so the windowed view stays stats-only).
    pub fn prometheus_into(&self, out: &mut String) {
        out.push_str("# HELP biocheckd_request_latency_seconds Per-phase request latency.\n");
        out.push_str("# TYPE biocheckd_request_latency_seconds summary\n");
        for (name, metric) in phases(self) {
            let snap = metric.lifetime.snapshot();
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("1", 1.0)] {
                let _ = writeln!(
                    out,
                    "biocheckd_request_latency_seconds{{phase=\"{name}\",quantile=\"{label}\"}} {}",
                    snap.quantile(q) as f64 / 1e9
                );
            }
            let _ = writeln!(
                out,
                "biocheckd_request_latency_seconds_sum{{phase=\"{name}\"}} {}",
                snap.sum_ns() as f64 / 1e9
            );
            let _ = writeln!(
                out,
                "biocheckd_request_latency_seconds_count{{phase=\"{name}\"}} {}",
                snap.count()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_json_has_all_phases_and_ordered_quantiles() {
        let m = ServeMetrics::default();
        for i in 1..=200u64 {
            m.queue_wait.record(Duration::from_micros(i));
        }
        let j = m.latency_json();
        for phase in [
            "request_hit",
            "request_miss",
            "queue_wait",
            "execute",
            "compile",
            "persist_append",
            "lint",
        ] {
            assert!(j.get(phase).is_some(), "missing phase {phase}");
        }
        let qw = j.get("queue_wait").unwrap();
        let f = |k: &str| qw.get(k).and_then(Json::as_f64).unwrap();
        assert_eq!(f("count"), 200.0);
        assert!(f("p50_ms") > 0.0);
        assert!(f("p50_ms") <= f("p90_ms"));
        assert!(f("p90_ms") <= f("p99_ms"));
        assert!(f("p99_ms") <= f("max_ms"));
        // Untouched phases render as zeros, not as absent keys.
        let ex = j.get("execute").unwrap();
        assert_eq!(ex.get("count").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn windowed_pair_tracks_fresh_samples() {
        let m = ServeMetrics::default();
        for _ in 0..50 {
            m.execute.record(Duration::from_millis(2));
        }
        let ex = m.latency_json();
        let ex = ex.get("execute").unwrap();
        let f = |k: &str| ex.get(k).and_then(Json::as_f64).unwrap();
        // Freshly recorded samples are inside the 60 s window, so the
        // windowed percentiles are live (bucketed, so only ordering and
        // positivity are exact).
        assert_eq!(f("count_60s"), 50.0);
        assert!(f("p50_60s_ms") > 0.0);
        assert!(f("p99_60s_ms") >= f("p50_60s_ms"));
        // And both windowed keys exist even for untouched phases.
        let hit = m.latency_json();
        let hit = hit.get("request_hit").unwrap();
        assert_eq!(hit.get("count_60s").and_then(Json::as_f64), Some(0.0));
        assert_eq!(hit.get("p99_60s_ms").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let m = ServeMetrics::default();
        m.execute.record(Duration::from_millis(3));
        let mut out = String::new();
        m.prometheus_into(&mut out);
        assert!(out.starts_with("# HELP biocheckd_request_latency_seconds"));
        assert!(
            out.contains("biocheckd_request_latency_seconds{phase=\"execute\",quantile=\"0.5\"}")
        );
        assert!(out.contains("biocheckd_request_latency_seconds_count{phase=\"execute\"} 1"));
        // Every non-comment line is `name{labels} value` with a finite value.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
        }
    }
}
