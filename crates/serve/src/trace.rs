//! The daemon-wide trace hub: the one in-flight request table plus a
//! bounded history of completed request traces.
//!
//! [`biocheck_obs::TraceCtx`] collects one request's spans
//! and progress counters; this module is the serving layer around it.
//! A [`TraceHub`] owns two tables:
//!
//! * **active** — every request from its first cache miss until its
//!   reply, queued ones included, keyed by a daemon-wide sequence
//!   number. It is the only per-request in-flight table: it holds the
//!   request's `CancelToken` (raised by a client `cancel` naming its
//!   wire id, and by the `--max-execute-ms` watchdog once its execute
//!   window overruns), and it is rendered as the `inflight` block of the
//!   `{"op":"stats"}` reply: elapsed time plus the live progress
//!   counters (SMC samples, RK steps, ICP boxes, BMC depth, CDCL
//!   conflicts/restarts) for traced requests.
//! * **recent** — the last [`RECENT_TRACES`] *traced* requests'
//!   complete span trees, each a [`RequestTrace`]. Rendered as Chrome
//!   `chrome://tracing` JSON by the `{"op":"trace_export"}` wire op
//!   and `biocheckd --trace-out`.
//!
//! Registration happens on the slow path only (after the first cache
//! check), so the memoized hit path never touches the hub. A request
//! leaves the active table through a guard drop, which runs on every
//! exit path — panics included — so a crashing solver produces a
//! *terminated* trace, never a leaked `inflight` row or cancel entry.
//! None of the data here feeds a fingerprint, a memoization key, or a
//! persisted byte.

use crate::json::Json;
use crate::server::ServeError;
use crate::wire::u64_to_json;
use biocheck_engine::CancelToken;
use biocheck_obs::{ProgressSnapshot, SpanRecord, TraceCtx};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, UnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Completed traced requests retained for export.
pub const RECENT_TRACES: usize = 64;

/// One entry in the hub's active table.
struct ActiveRequest {
    model: String,
    kind: &'static str,
    /// Client-chosen wire id, when the request carried one.
    wire_id: Option<u64>,
    started: Instant,
    /// Present when the request is traced (span tree + counters);
    /// untraced requests still appear in `inflight` with elapsed time.
    ctx: Option<Arc<TraceCtx>>,
    /// Raised by a client `cancel` of `wire_id` and by the watchdog.
    token: CancelToken,
    /// Start of the execute window; `None` while the request queues
    /// and after it executed, so only execution counts toward the
    /// watchdog ceiling.
    executing_since: Option<Instant>,
    /// The watchdog raised `token`.
    reaped: bool,
}

/// A finished traced request: everything needed to re-render its span
/// tree after the fact.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Daemon-wide trace sequence number.
    pub seq: u64,
    /// Model the query ran against.
    pub model: String,
    /// Query kind (`"estimate"`, `"lint"`, ...).
    pub kind: &'static str,
    /// Client-chosen wire id, when present.
    pub wire_id: Option<u64>,
    /// Start offset from the hub's epoch, nanoseconds (aligns requests
    /// on one shared export timeline).
    pub start_ns: u64,
    /// Wall time from hub registration to completion, nanoseconds.
    pub elapsed_ns: u64,
    /// `"ok"`, `"error"`, or `"panic"`.
    pub outcome: &'static str,
    /// Completed spans, oldest first.
    pub records: Vec<SpanRecord>,
    /// Spans lost to ring overflow or contention.
    pub dropped: u64,
    /// Final progress-counter values.
    pub progress: ProgressSnapshot,
}

/// The daemon-wide hub. One per [`ServeCore`](crate::ServeCore).
pub struct TraceHub {
    /// Armed by `--trace` / `--trace-out`: trace every request even
    /// without a per-request `"trace": true`.
    armed: AtomicBool,
    /// Echo each completed trace to stderr as one atomic block
    /// (`biocheckd --trace`).
    echo: AtomicBool,
    epoch: Instant,
    next_seq: AtomicU64,
    /// Lookups by wire id scan it: it holds only the requests being
    /// queued, executed or shed, so it stays small.
    active: Mutex<HashMap<u64, ActiveRequest>>,
    recent: Mutex<VecDeque<RequestTrace>>,
}

impl Default for TraceHub {
    fn default() -> TraceHub {
        TraceHub {
            armed: AtomicBool::new(false),
            echo: AtomicBool::new(false),
            epoch: Instant::now(),
            next_seq: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
            recent: Mutex::new(VecDeque::new()),
        }
    }
}

impl TraceHub {
    /// Trace every request, not just ones asking with `"trace": true`.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Is daemon-wide tracing on?
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Arm, and additionally echo each completed request's span tree
    /// to stderr as a single buffered block (so concurrent connections
    /// never interleave lines).
    pub fn arm_echo(&self) {
        self.arm();
        self.echo.store(true, Ordering::Relaxed);
    }

    /// Registers a request entering the execution path, with the token
    /// that a client `cancel` and the watchdog raise. Wire ids share
    /// one daemon-wide namespace, so a `wire_id` already in flight is
    /// refused (`invalid_request`) under the same lock that would insert
    /// it, never clobbering the holder's token. The returned guard
    /// removes the request — and, when traced, publishes its
    /// [`RequestTrace`] into the recent ring — on drop, every exit path
    /// included.
    pub fn begin<'hub>(
        &'hub self,
        model: &str,
        kind: &'static str,
        wire_id: Option<u64>,
        ctx: Option<Arc<TraceCtx>>,
        token: CancelToken,
    ) -> Result<TraceGuard<'hub>, ServeError> {
        let started = Instant::now();
        let mut table = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(id) = wire_id {
            if table.values().any(|a| a.wire_id == Some(id)) {
                return Err(ServeError::Invalid(format!(
                    "request id {id} is already in flight"
                )));
            }
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        table.insert(
            seq,
            ActiveRequest {
                model: model.to_string(),
                kind,
                wire_id,
                started,
                ctx,
                token,
                executing_since: None,
                reaped: false,
            },
        );
        Ok(TraceGuard {
            hub: self,
            seq,
            ok: false,
        })
    }

    /// Raises the token of the in-flight request registered under
    /// `wire_id`. Returns whether such a request existed.
    pub(crate) fn cancel(&self, wire_id: u64) -> bool {
        let table = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        let found = table.values().find(|a| a.wire_id == Some(wire_id));
        if let Some(a) = found {
            a.token.cancel();
        }
        found.is_some()
    }

    /// One watchdog tick: raises the token of every request that has
    /// been executing for longer than `ceiling` and marks it reaped.
    /// Returns how many it reaped.
    pub(crate) fn reap_overdue(&self, ceiling: Duration) -> u64 {
        let mut table = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        let mut reaped = 0;
        for a in table.values_mut() {
            if !a.reaped && a.executing_since.is_some_and(|t| t.elapsed() > ceiling) {
                a.reaped = true;
                a.token.cancel();
                reaped += 1;
            }
        }
        reaped
    }

    fn with_entry<R>(&self, seq: u64, f: impl FnOnce(&mut ActiveRequest) -> R) -> Option<R> {
        self.active
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&seq)
            .map(f)
    }

    /// The `inflight` array of the stats reply: one object per active
    /// request, ordered by registration sequence.
    pub fn inflight_json(&self) -> Json {
        let table = self.active.lock().unwrap_or_else(PoisonError::into_inner);
        let mut rows: Vec<(u64, &ActiveRequest)> = table.iter().map(|(&s, a)| (s, a)).collect();
        rows.sort_unstable_by_key(|&(seq, _)| seq);
        Json::Arr(
            rows.into_iter()
                .map(|(seq, a)| {
                    let mut pairs = vec![
                        ("seq", u64_to_json(seq)),
                        ("model", Json::str(a.model.clone())),
                        ("kind", Json::str(a.kind)),
                        (
                            "elapsed_ms",
                            Json::num(a.started.elapsed().as_secs_f64() * 1e3),
                        ),
                    ];
                    if let Some(id) = a.wire_id {
                        pairs.push(("id", u64_to_json(id)));
                    }
                    if let Some(ctx) = &a.ctx {
                        pairs.push(("progress", progress_json(&ctx.progress.snapshot())));
                    }
                    Json::obj(pairs)
                })
                .collect(),
        )
    }

    /// Completed traces, oldest first.
    pub fn recent(&self) -> Vec<RequestTrace> {
        self.recent
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// The `{"op":"trace_export"}` payload: every retained trace as
    /// Chrome trace-event JSON (load via `chrome://tracing` or Perfetto).
    /// Each request is one `tid` on a shared timeline; every span is a
    /// complete (`"ph":"X"`) event, and each root span carries the
    /// request metadata and final progress counters in `args`.
    pub fn chrome_trace_json(&self) -> Json {
        let mut events = Vec::new();
        for trace in self.recent() {
            for rec in &trace.records {
                let mut pairs = vec![
                    ("name", Json::str(rec.name)),
                    ("ph", Json::str("X")),
                    (
                        "ts",
                        Json::num((trace.start_ns + rec.start_ns) as f64 / 1e3),
                    ),
                    (
                        "dur",
                        Json::num(rec.end_ns.saturating_sub(rec.start_ns) as f64 / 1e3),
                    ),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num(trace.seq as f64)),
                ];
                if rec.parent == 0 {
                    let mut args = vec![
                        ("model", Json::str(trace.model.clone())),
                        ("kind", Json::str(trace.kind)),
                        ("outcome", Json::str(trace.outcome)),
                        ("spans_dropped", Json::num(trace.dropped as f64)),
                    ];
                    if let Some(id) = trace.wire_id {
                        args.push(("id", u64_to_json(id)));
                    }
                    for (name, value) in trace.progress.pairs() {
                        args.push((name, Json::num(value as f64)));
                    }
                    pairs.push(("args", Json::obj(args)));
                }
                events.push(Json::obj(pairs));
            }
        }
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }

    fn finish(&self, seq: u64, ok: bool) {
        let entry = self
            .active
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&seq);
        let Some(entry) = entry else { return };
        let Some(ctx) = entry.ctx else { return };
        let trace = RequestTrace {
            seq,
            model: entry.model,
            kind: entry.kind,
            wire_id: entry.wire_id,
            start_ns: u64::try_from(
                entry
                    .started
                    .saturating_duration_since(self.epoch)
                    .as_nanos(),
            )
            .unwrap_or(u64::MAX),
            elapsed_ns: u64::try_from(entry.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            outcome: if ok {
                "ok"
            } else if std::thread::panicking() {
                "panic"
            } else {
                "error"
            },
            records: ctx.records(),
            dropped: ctx.dropped(),
            progress: ctx.progress.snapshot(),
        };
        if self.echo.load(Ordering::Relaxed) {
            // One eprint of a pre-rendered block: the stderr lock is
            // taken once, so trees from concurrent connections never
            // interleave line-by-line.
            eprint!("{}", render_text_tree(&trace));
        }
        let mut recent = self.recent.lock().unwrap_or_else(PoisonError::into_inner);
        if recent.len() >= RECENT_TRACES {
            recent.pop_front();
        }
        recent.push_back(trace);
    }
}

impl std::fmt::Debug for TraceHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHub")
            .field("armed", &self.armed())
            .finish()
    }
}

/// Active-table registration guard; see [`TraceHub::begin`].
pub struct TraceGuard<'hub> {
    hub: &'hub TraceHub,
    seq: u64,
    ok: bool,
}

impl TraceGuard<'_> {
    /// Marks the request as successfully answered (the default outcome
    /// at drop is `"error"`, or `"panic"` while unwinding).
    pub fn set_ok(&mut self) {
        self.ok = true;
    }

    /// Runs `execute` as the request's execute window, the only time
    /// the watchdog ceiling counts, with any panic caught. Returns its
    /// result and whether the watchdog reaped the request meanwhile.
    pub fn execute<R>(
        &self,
        execute: impl FnOnce() -> R + UnwindSafe,
    ) -> (std::thread::Result<R>, bool) {
        self.hub.with_entry(self.seq, |a| {
            a.executing_since = Some(Instant::now());
        });
        let result = catch_unwind(execute);
        let reaped = self.hub.with_entry(self.seq, |a| {
            a.executing_since = None;
            a.reaped
        });
        (result, reaped == Some(true))
    }
}

impl Drop for TraceGuard<'_> {
    fn drop(&mut self) {
        self.hub.finish(self.seq, self.ok);
    }
}

/// The 6 progress counters as a JSON object.
pub fn progress_json(snap: &ProgressSnapshot) -> Json {
    Json::obj(
        snap.pairs()
            .into_iter()
            .map(|(name, value)| (name, Json::num(value as f64)))
            .collect::<Vec<_>>(),
    )
}

/// The `"trace"` object attached to a traced query's reply: the span
/// tree (flat records with `parent` links), drop count, and final
/// progress counters.
pub fn trace_reply_json(ctx: &TraceCtx) -> Json {
    Json::obj([
        (
            "spans",
            Json::Arr(ctx.records().iter().map(span_json).collect()),
        ),
        ("dropped", Json::num(ctx.dropped() as f64)),
        ("progress", progress_json(&ctx.progress.snapshot())),
    ])
}

fn span_json(rec: &SpanRecord) -> Json {
    Json::obj([
        ("id", Json::num(f64::from(rec.id))),
        ("parent", Json::num(f64::from(rec.parent))),
        ("name", Json::str(rec.name)),
        ("start_us", Json::num(rec.start_ns as f64 / 1e3)),
        (
            "dur_us",
            Json::num(rec.end_ns.saturating_sub(rec.start_ns) as f64 / 1e3),
        ),
    ])
}

/// One request's span tree as an indented text block (the `--trace`
/// stderr format). Children sort by start time; orphaned records
/// (parent overwritten out of the ring) surface at the root rather
/// than disappearing.
fn render_text_tree(trace: &RequestTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "trace: request #{} model={:?} kind={} {} {:.3} ms",
        trace.seq,
        trace.model,
        trace.kind,
        trace.outcome,
        trace.elapsed_ns as f64 / 1e6
    );
    if trace.dropped > 0 {
        let _ = write!(out, " ({} spans dropped)", trace.dropped);
    }
    out.push('\n');
    let ids: std::collections::HashSet<u32> = trace.records.iter().map(|r| r.id).collect();
    let mut children: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
    for rec in &trace.records {
        let parent = if ids.contains(&rec.parent) {
            rec.parent
        } else {
            0
        };
        children.entry(parent).or_default().push(rec);
    }
    for list in children.values_mut() {
        list.sort_by_key(|r| (r.start_ns, r.id));
    }
    // Iterative DFS: (id, depth) — span trees are shallow, but a stack
    // keeps pathological inputs from recursing.
    let mut stack: Vec<(&SpanRecord, usize)> = children
        .get(&0)
        .map(|roots| roots.iter().rev().map(|r| (*r, 1)).collect())
        .unwrap_or_default();
    while let Some((rec, depth)) = stack.pop() {
        let _ = writeln!(
            out,
            "{:indent$}{} {:.3} ms",
            "",
            rec.name,
            rec.end_ns.saturating_sub(rec.start_ns) as f64 / 1e6,
            indent = 2 * depth
        );
        if let Some(kids) = children.get(&rec.id) {
            for kid in kids.iter().rev() {
                // A record is its own parent only if ids collide, which
                // unique allocation rules out; guard anyway.
                if kid.id != rec.id {
                    stack.push((kid, depth + 1));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_request(hub: &TraceHub, model: &str, ok: bool) -> Arc<TraceCtx> {
        let ctx = TraceCtx::new(16);
        let mut guard = hub
            .begin(
                model,
                "estimate",
                Some(7),
                Some(Arc::clone(&ctx)),
                CancelToken::new(),
            )
            .unwrap();
        {
            let _root = ctx.span("serve.request");
            let _inner = ctx.span("engine.query");
        }
        if ok {
            guard.set_ok();
        }
        drop(guard);
        ctx
    }

    #[test]
    fn guard_moves_active_to_recent_with_outcome() {
        let hub = TraceHub::default();
        let ctx = TraceCtx::new(16);
        let guard = hub
            .begin("m", "lint", None, Some(ctx), CancelToken::new())
            .unwrap();
        let inflight = hub.inflight_json();
        let rows = match &inflight {
            Json::Arr(rows) => rows,
            other => panic!("inflight not an array: {other:?}"),
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("kind").and_then(Json::as_str), Some("lint"));
        assert!(rows[0].get("progress").is_some());
        drop(guard);
        let rows_after = match hub.inflight_json() {
            Json::Arr(rows) => rows,
            other => panic!("inflight not an array: {other:?}"),
        };
        assert!(rows_after.is_empty(), "guard drop must deregister");
        let recent = hub.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].outcome, "error", "no set_ok => error");
        traced_request(&hub, "m", true);
        assert_eq!(hub.recent()[1].outcome, "ok");
    }

    #[test]
    fn untraced_requests_appear_inflight_but_not_in_recent() {
        let hub = TraceHub::default();
        let mut guard = hub
            .begin("m", "sprt", None, None, CancelToken::new())
            .unwrap();
        let inflight = hub.inflight_json().render();
        assert!(inflight.contains("\"sprt\""));
        assert!(!inflight.contains("progress"), "no ctx, no counters");
        guard.set_ok();
        drop(guard);
        assert!(hub.recent().is_empty(), "only traced requests export");
    }

    #[test]
    fn recent_ring_is_bounded() {
        let hub = TraceHub::default();
        for i in 0..(RECENT_TRACES + 5) {
            traced_request(&hub, &format!("m{i}"), true);
        }
        let recent = hub.recent();
        assert_eq!(recent.len(), RECENT_TRACES);
        assert_eq!(recent[0].model, "m5", "oldest dropped first");
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        let hub = TraceHub::default();
        traced_request(&hub, "decay", true);
        let json = hub.chrome_trace_json();
        let events = match json.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("missing traceEvents: {other:?}"),
        };
        assert_eq!(events.len(), 2, "two spans, two complete events");
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
            for key in ["name", "ts", "dur", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event missing {key}");
            }
        }
        // Exactly the root (parent == 0) events carry args.
        let with_args: Vec<_> = events.iter().filter(|e| e.get("args").is_some()).collect();
        assert_eq!(with_args.len(), 1);
        let args = with_args[0].get("args").unwrap(); // lint: infallible
        assert_eq!(args.get("model").and_then(Json::as_str), Some("decay"));
        assert_eq!(args.get("outcome").and_then(Json::as_str), Some("ok"));
        assert!(args.get("samples").is_some(), "progress flattened in");
        // The export must survive a parse round-trip (what the CI smoke
        // validates end-to-end over the wire).
        let parsed = crate::json::parse_json(&json.render()).expect("export parses"); // lint: infallible
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn text_tree_indents_children_in_one_block() {
        let hub = TraceHub::default();
        let ctx = traced_request(&hub, "m", true);
        drop(ctx);
        let trace = &hub.recent()[0];
        let text = render_text_tree(trace);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("trace: request #"));
        assert!(lines[1].starts_with("  serve.request"));
        assert!(lines[2].starts_with("    engine.query"));
        assert!(text.ends_with('\n'), "block ends clean for atomic emit");
    }

    #[test]
    fn panicking_request_publishes_a_terminated_trace() {
        let hub = TraceHub::default();
        let ctx = TraceCtx::new(16);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = hub
                .begin(
                    "m",
                    "estimate",
                    None,
                    Some(Arc::clone(&ctx)),
                    CancelToken::new(),
                )
                .unwrap();
            let _root = ctx.span("serve.request");
            panic!("solver blew up");
        }));
        assert!(result.is_err());
        assert!(
            matches!(hub.inflight_json(), Json::Arr(rows) if rows.is_empty()),
            "unwind must deregister"
        );
        let recent = hub.recent();
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].outcome, "panic");
        assert_eq!(recent[0].records.len(), 1, "span terminated, not leaked");
        assert_eq!(recent[0].records[0].name, "serve.request");
    }
}
