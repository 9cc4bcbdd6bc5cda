//! Per-phase latency aggregation for the serving core.
//!
//! [`ServeMetrics`] keeps, per [`Phase`] of the query lifecycle, a
//! lock-free lifetime [`Histogram`] and a sliding 60-second
//! [`Windowed`] view. [`ServeCore`](crate::ServeCore) times each
//! boundary with one [`PhaseTimer`]: a single start `Instant` plus,
//! when the request is traced, the boundary's span. Finishing the
//! timer records the histogram and closes the span; dropping it
//! unfinished (a refused or failed request) only closes the span. A
//! record is a handful of relaxed atomic ops, cheap enough for the
//! microsecond-scale warm path that the `daemon_mix` benchmark
//! workload measures through a real daemon socket. Two renderings:
//!
//! * [`ServeMetrics::latency_json`] — the `latency` object inside the
//!   `{"op":"stats"}` reply: per-phase count / mean / p50 / p90 / p99 /
//!   max in milliseconds over the daemon's lifetime, plus
//!   `p50_60s_ms` / `p99_60s_ms` over the last minute (a lifetime p99
//!   goes stale after days of uptime; the windowed pair answers "how
//!   is it doing *now*").
//! * [`ServeMetrics::prometheus_into`] — Prometheus-style text
//!   exposition (summary quantiles in seconds plus `_sum`/`_count`),
//!   embedded in the `{"op":"metrics"}` reply ahead of the counter
//!   table of [`ServeCore::metrics_text`](crate::ServeCore::metrics_text).
//!
//! The request phases cover successful replies; refused or failed
//! requests are visible in the scheduler/cache/panic counters instead.

use crate::json::Json;
use biocheck_obs::{Histogram, Snapshot, TraceCtx, TraceSpan, Windowed};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A timed phase of the query lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `request_hit`: end-to-end time of a request answered from the cache.
    RequestHit,
    /// `request_miss`: end-to-end time of a request that computed its answer.
    RequestMiss,
    /// `queue_wait`: admitted requests' wait for a scheduler slot.
    QueueWait,
    /// `execute`: engine time inside the panic boundary, panics excluded.
    Execute,
    /// `compile`: the artifact-acquisition share of execution (provenance).
    Compile,
    /// `persist_append`: spill-file append time of a memoized result.
    PersistAppend,
    /// `lint`: execute time of static-analysis queries (within `execute`).
    Lint,
}

/// Phase names in [`Phase`] order: the `stats.latency` keys and the
/// exposition's `phase` labels.
const PHASE_NAMES: [&str; 7] = [
    "request_hit",
    "request_miss",
    "queue_wait",
    "execute",
    "compile",
    "persist_append",
    "lint",
];

/// The latency metrics of one [`ServeCore`](crate::ServeCore), indexed
/// by [`Phase`], in nanoseconds. Recording is lock-free, so every
/// connection thread writes directly into the shared instance.
pub struct ServeMetrics {
    lifetime: [Histogram; PHASE_NAMES.len()],
    recent: [Windowed; PHASE_NAMES.len()],
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics {
            lifetime: Default::default(),
            recent: std::array::from_fn(|_| Windowed::last_minute()),
        }
    }
}

/// One open timing boundary; see [`ServeMetrics::open`].
#[must_use = "a phase timer records only when finished"]
pub struct PhaseTimer<'a> {
    metrics: &'a ServeMetrics,
    start: Instant,
    _span: Option<TraceSpan>,
}

impl PhaseTimer<'_> {
    /// Records the elapsed time as one `phase` sample, closes the span
    /// and returns the elapsed time.
    pub fn finish(self, phase: Phase) -> Duration {
        let elapsed = self.start.elapsed();
        self.metrics.record(phase, elapsed);
        elapsed
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn phase_json(snap: Snapshot, recent: Snapshot) -> Json {
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
    /// Records one `phase` sample into its lifetime histogram and window.
    pub fn record(&self, phase: Phase, d: Duration) {
        self.lifetime[phase as usize].record(d);
        self.recent[phase as usize].record(d);
    }

    /// Starts timing a boundary now, opening the span `span` when the
    /// request is traced. Finish the timer with the phase to record;
    /// dropping it unfinished only closes the span.
    pub fn open(&self, span: &'static str, trace: Option<&Arc<TraceCtx>>) -> PhaseTimer<'_> {
        PhaseTimer {
            metrics: self,
            start: Instant::now(),
            _span: trace.map(|ctx| ctx.span(span)),
        }
    }

    /// The `latency` object of the stats reply: one entry per phase
    /// (always all seven, zeroed when nothing was recorded yet), each
    /// with lifetime percentiles plus the `*_60s` windowed pair.
    pub fn latency_json(&self) -> Json {
        Json::obj(PHASE_NAMES.into_iter().enumerate().map(|(i, name)| {
            let (snap, recent) = (self.lifetime[i].snapshot(), self.recent[i].snapshot());
            (name, phase_json(snap, recent))
        }))
    }

    /// Appends the latency summaries in Prometheus text exposition
    /// format: per phase, `quantile`-labelled samples of
    /// `biocheckd_request_latency_seconds` plus `_sum` and `_count`
    /// (lifetime values; scrapers derive recency by rate over
    /// successive scrapes, so the windowed view stays stats-only).
    pub fn prometheus_into(&self, out: &mut String) {
        out.push_str("# HELP biocheckd_request_latency_seconds Per-phase request latency.\n");
        out.push_str("# TYPE biocheckd_request_latency_seconds summary\n");
        for (name, histogram) in PHASE_NAMES.into_iter().zip(&self.lifetime) {
            let snap = histogram.snapshot();
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("1", 1.0)] {
                let _ = writeln!(
                    out,
                    "biocheckd_request_latency_seconds{{phase=\"{name}\",quantile=\"{label}\"}} {}",
                    snap.quantile(q) as f64 / 1e9
                );
            }
            let _ = writeln!(
                out,
                "biocheckd_request_latency_seconds_sum{{phase=\"{name}\"}} {}\n\
                 biocheckd_request_latency_seconds_count{{phase=\"{name}\"}} {}",
                snap.sum_ns() as f64 / 1e9,
                snap.count()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(m: &ServeMetrics, phase: &str) -> Option<f64> {
        m.latency_json().get(phase)?.get("count")?.as_f64()
    }

    #[test]
    fn a_timer_records_only_when_finished_and_always_closes_its_span() {
        let m = ServeMetrics::default();
        let ctx = TraceCtx::new(8);
        drop(m.open("serve.queue_wait", Some(&ctx)));
        assert_eq!(count(&m, "queue_wait"), Some(0.0));
        m.open("serve.execute", Some(&ctx)).finish(Phase::Execute);
        assert_eq!(count(&m, "execute"), Some(1.0));
        let spans: Vec<_> = ctx.records().iter().map(|r| r.name).collect();
        assert_eq!(spans, ["serve.queue_wait", "serve.execute"]);
        // Untraced: the same histogram, no span anywhere.
        m.open("serve.execute", None).finish(Phase::Lint);
        assert_eq!(count(&m, "lint"), Some(1.0));
        assert_eq!(ctx.records().len(), 2);
    }

    #[test]
    fn latency_json_has_all_phases_and_ordered_quantiles() {
        let m = ServeMetrics::default();
        for i in 1..=200u64 {
            m.record(Phase::QueueWait, Duration::from_micros(i));
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
            m.record(Phase::Execute, Duration::from_millis(2));
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
        m.record(Phase::Execute, Duration::from_millis(3));
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
