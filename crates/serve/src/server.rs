//! The serving core and the TCP daemon.
//!
//! [`ServeCore`] is the transport-independent heart: it owns the
//! session [`Registry`], the byte-budgeted [`ResultCache`], the FIFO
//! [`Scheduler`], and the [`TraceHub`] — whose active table is the one
//! per-request in-flight table that client cancels, the execute
//! watchdog and the `inflight` stats view all read — and answers one
//! [`Request`] at a time. The TCP layer ([`serve`]) is a thin
//! line-framing shell around it: one thread per connection, one JSON
//! object per line, responses in request order per connection.
//!
//! # Memoization contract
//!
//! A query result is admitted to the cache only when it is a pure
//! function of `(model fingerprint, canonical query, seed, count
//! caps)`: the request carried no wall-clock deadline and its
//! per-request cancellation token was never raised. A cache hit
//! therefore hands back a report that is `fingerprint()`-identical to
//! what a fresh computation would produce — the invariant
//! `tests/serve.rs` pins down. Requests *with* a deadline still consult
//! the cache (a memoized complete answer is strictly better than a
//! deadline-truncated recomputation); they just never populate it.
//! Queue deadlines ([`BudgetSpec::queue_ms`](crate::wire::BudgetSpec))
//! are excluded from keys and from the purity check: shedding happens
//! strictly before any computation runs.
//!
//! # Line index
//!
//! A query line that the normal path answered as a cache hit (no `id`,
//! untraced, trace hub unarmed) is remembered by its exact trimmed text:
//! the model it names, that model's fingerprint and the memo key it
//! lowered to. When the same line comes again, [`ServeCore::handle_line`]
//! answers it from that entry without decoding or lowering it, provided
//! the model is still registered under the same fingerprint and the memo
//! is still cached; otherwise the line takes the normal path. The
//! fingerprint check is what keeps a re-registered model from being
//! answered by its previous definition: a purge clears resident memos
//! only, and the spill log can still load an old fingerprint's key.
//!
//! # Fault containment
//!
//! Every request body runs under `catch_unwind`, so a panicking solver
//! produces a clean `internal_error` reply instead of killing the
//! connection thread, and — because every shared-state lock in the
//! serving path recovers from poisoning — it never wedges the
//! registry, cache, in-flight table, or scheduler for later requests.
//! Overload is shed at admission (bounded queue, `overloaded` reply
//! with a retry hint), slow or stalled peers are bounded by per-line
//! and idle timeouts, and `shutdown` drains: in-flight queries finish
//! and get their replies, queued and future ones are refused. A
//! `--max-execute-ms` ceiling arms a watchdog tick that cancels any
//! execution past it (typed `watchdog_cancelled` reply), so a wedged
//! solver cannot pin a scheduler permit forever.
//!
//! # Durability
//!
//! Two append-only logs make a `kill -9` transparent to clients: the
//! cache spill file (`--persist`) rewarms memoized results, and the
//! registry log (`--registry`) replays every model's canonical source
//! so fingerprints — and therefore the warm cache keys — come back
//! identical with no re-registration. With a spill file the log is
//! also the memo store: a computed result is appended and only its
//! locator is kept in RAM, and a lookup that misses the resident LRU
//! reads the record back, verifies it, and promotes it. Session memory
//! needs no knob: each model's session is frozen at registration and
//! queries parse into private views of it, so only the engine's
//! fixed-size artifact LRU grows, and its gauges are in `stats` and
//! `metrics`.

use crate::append_log::{AppendLog, Codec, Extent, LogStats};
use crate::cache::persist::{locator, CacheLog, CacheRecord, Memo};
use crate::cache::{CacheStats, ResultCache};
use crate::json::{parse_json, Json, ObjWriter};
use crate::metrics::{Phase, ServeMetrics};
use crate::registry::persist::{ModelRecord, RegistryLog};
use crate::registry::Registry;
use crate::scheduler::{AdmitError, AdmitWait, Scheduler};
use crate::trace::{trace_reply_json, TraceHub};
use crate::wire::{u64_to_json, ModelSource, QueryRequest, Request};
use biocheck_engine::{Budget, CancelToken, Report};
use biocheck_obs::TraceCtx;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Rough fixed per-entry overhead charged on top of the key and
/// fingerprint lengths (the rendered report payload, map/list
/// bookkeeping).
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// The line index's share of the cache byte budget: `--cache-bytes`
/// divided by this.
const LINE_INDEX_SHARE: usize = 16;

/// Fixed per-entry overhead of a line-index entry on top of its string
/// lengths (map and list bookkeeping, three `Arc` headers).
const LINE_ENTRY_OVERHEAD_BYTES: usize = 128;

/// Configuration for a [`ServeCore`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Concurrent query executions admitted by the scheduler.
    pub concurrency: usize,
    /// Admission-queue bound; arrivals beyond it are shed with an
    /// `overloaded` reply instead of waiting.
    pub max_queue: usize,
    /// Cache spill file. `Some(path)` persists memoized results across
    /// restarts (appended as they are computed, reloaded on boot); a
    /// file that cannot be opened disables persistence with a warning
    /// rather than refusing to serve.
    pub persist: Option<PathBuf>,
    /// Registry log file. `Some(path)` persists every registration's
    /// canonical source and replays the log on boot, so a crashed
    /// daemon comes back with its models registered (and, combined
    /// with `persist`, its memoized results warm) without any client
    /// re-registering. Same fail-open policy as `persist`.
    pub registry: Option<PathBuf>,
    /// Hard ceiling on a single query's execute time. A watchdog tick
    /// raises the request's `CancelToken` once it is exceeded and the
    /// reply becomes a `watchdog_cancelled` error — a wedged solver
    /// cannot pin a scheduler permit forever.
    pub max_execute: Option<Duration>,
    /// Drop a connection that has been completely silent (no request
    /// in progress) for this long.
    pub idle_timeout: Duration,
    /// Drop a connection that started a request line but has not
    /// finished it within this window (slow-loris defense: a plain
    /// per-read timeout resets on every byte, so a peer trickling one
    /// byte per period would hold the thread forever).
    pub line_timeout: Duration,
    /// Socket write timeout for replies.
    pub write_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_bytes: 64 << 20,
            concurrency: 2,
            max_queue: 16,
            persist: None,
            registry: None,
            max_execute: None,
            idle_timeout: Duration::from_secs(300),
            line_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// Why a request was refused. The wire discriminant
/// ([`ServeError::kind`]) lets clients distinguish retryable overload
/// (`overloaded`, with a backoff hint) from caller mistakes
/// (`invalid_request`, `query_error`) and server faults
/// (`internal_error`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full; retry after the hinted backoff.
    Overloaded {
        /// Queue length observed at shed time.
        queue_depth: usize,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The request's queue deadline elapsed before an execution slot
    /// freed up; it was shed without running.
    Expired(String),
    /// The request's cancellation token was raised before it ran.
    Cancelled,
    /// The query exceeded the server's `--max-execute-ms` ceiling and
    /// the watchdog cancelled it mid-execution.
    WatchdogCancelled {
        /// How long the query had been executing when it was reaped.
        elapsed_ms: u64,
        /// The configured ceiling it exceeded.
        ceiling_ms: u64,
    },
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The request itself is malformed (unknown model, duplicate id,
    /// unparseable body, pinned-constant parameter, ...).
    Invalid(String),
    /// The engine rejected the query (bad specification values).
    Query(String),
    /// The server failed while executing the request (e.g. a solver
    /// panic, contained by `catch_unwind`).
    Internal(String),
}

/// Every [`ServeError::kind`] discriminant a reply can carry, in
/// declaration order. This is the source of truth the docs-drift check
/// (CI and `crates/serve/tests/docs_drift.rs`) extracts quoted names
/// from (matched up to the closing `];`) and greps against
/// `docs/OPERATIONS.md`.
pub const ERROR_KINDS: &[&str] = &[
    "overloaded",
    "expired",
    "cancelled",
    "watchdog_cancelled",
    "shutting_down",
    "invalid_request",
    "query_error",
    "internal_error",
];

impl ServeError {
    /// Stable machine-readable discriminant carried in error replies.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Expired(_) => "expired",
            ServeError::Cancelled => "cancelled",
            ServeError::WatchdogCancelled { .. } => "watchdog_cancelled",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Invalid(_) => "invalid_request",
            ServeError::Query(_) => "query_error",
            ServeError::Internal(_) => "internal_error",
        }
    }

    /// Backoff hint, present on `overloaded` replies.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "server overloaded ({queue_depth} queued); retry in {retry_after_ms} ms"
            ),
            ServeError::Expired(msg) => write!(f, "{msg}"),
            ServeError::Cancelled => write!(f, "request cancelled before execution"),
            ServeError::WatchdogCancelled {
                elapsed_ms,
                ceiling_ms,
            } => write!(
                f,
                "query exceeded the server execute ceiling ({elapsed_ms} ms > {ceiling_ms} ms) \
                 and was cancelled by the watchdog"
            ),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Invalid(msg) | ServeError::Query(msg) | ServeError::Internal(msg) => {
                write!(f, "{msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AdmitError> for ServeError {
    fn from(e: AdmitError) -> ServeError {
        match e {
            AdmitError::Overloaded {
                queue_depth,
                retry_after_ms,
            } => ServeError::Overloaded {
                queue_depth,
                retry_after_ms,
            },
            AdmitError::Expired { .. } => ServeError::Expired(e.to_string()),
            AdmitError::Cancelled => ServeError::Cancelled,
            AdmitError::ShuttingDown => ServeError::ShuttingDown,
        }
    }
}

/// The transport-independent serving core. Shared behind an `Arc`
/// across connection threads; all methods take `&self`.
pub struct ServeCore {
    registry: Registry,
    cache: ResultCache<Memo>,
    /// Query line → what the normal path lowered it to; see the module
    /// docs' line index.
    lines: ResultCache<IndexedLine>,
    line_hits: AtomicU64,
    scheduler: Scheduler,
    persist: Option<Mutex<CacheLog>>,
    registry_log: Option<Mutex<RegistryLog>>,
    watchdog: Option<Arc<Watchdog>>,
    watchdog_thread: Option<std::thread::JoinHandle<()>>,
    trace_hub: Arc<TraceHub>,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    panics: AtomicU64,
    idle_timeout: Duration,
    line_timeout: Duration,
    write_timeout: Duration,
}

impl ServeCore {
    /// Creates a core with the given configuration. When
    /// `config.persist` names a spill file, every record it holds is
    /// indexed (corrupt or torn records are skipped, never fatal) and
    /// the file is kept open for appending and reading back; a file
    /// that cannot be opened at all disables persistence with a
    /// warning on stderr.
    ///
    /// When `config.registry` names a registry log, every registration
    /// it holds is replayed (a source that no longer builds is skipped
    /// with a warning, never fatal) and the log is kept open so new
    /// registrations append — after a crash the daemon serves the same
    /// models under the same fingerprints with no client involvement.
    pub fn new(config: ServeConfig) -> ServeCore {
        let cache = ResultCache::new(config.cache_bytes);
        let persist = open_log(
            config.persist.as_deref(),
            "cache",
            |at, rec: CacheRecord| {
                match locator(at) {
                    Some(locator) => cache.index(&rec.key, locator),
                    None => cache.insert(rec.key, rec.memo, rec.cost),
                };
            },
        );
        let registry = Registry::new();
        let registry_log = open_log(
            config.registry.as_deref(),
            "registry",
            |_, m: ModelRecord| {
                // The source built when it was registered; a replay failure
                // means the engine changed underneath the log — warn, keep
                // serving.
                if let Err(e) = registry.register(&m.name, &m.source) {
                    eprintln!("biocheckd: skipping persisted model {:?} ({e})", m.name);
                }
            },
        );
        let trace_hub = Arc::new(TraceHub::default());
        let watchdog = config.max_execute.map(|ceiling| {
            Arc::new(Watchdog {
                ceiling,
                hub: Arc::clone(&trace_hub),
                fired_total: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            })
        });
        let watchdog_thread = watchdog.as_ref().map(|dog| {
            let dog = Arc::clone(dog);
            std::thread::Builder::new()
                .name("biocheckd-watchdog".into())
                .spawn(move || dog.run_ticks())
                .expect("spawn watchdog thread") // lint: infallible
        });
        ServeCore {
            registry,
            cache,
            lines: ResultCache::new(config.cache_bytes / LINE_INDEX_SHARE),
            line_hits: AtomicU64::new(0),
            scheduler: Scheduler::with_queue(config.concurrency, config.max_queue),
            persist,
            registry_log,
            watchdog,
            watchdog_thread,
            trace_hub,
            metrics: ServeMetrics::default(),
            shutdown: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            idle_timeout: config.idle_timeout,
            line_timeout: config.line_timeout,
            write_timeout: config.write_timeout,
        }
    }

    /// The model registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Persistence counters, when a spill file is attached.
    pub fn persist_stats(&self) -> Option<LogStats> {
        with_log(&self.persist, |log| log.stats())
    }

    /// Registry-log counters, when a registry log is attached.
    pub fn registry_persist_stats(&self) -> Option<LogStats> {
        with_log(&self.registry_log, |log| log.stats())
    }

    /// Queries reaped by the execute-ceiling watchdog.
    pub fn watchdog_cancelled_count(&self) -> u64 {
        self.watchdog
            .as_ref()
            .map_or(0, |dog| dog.fired_total.load(Ordering::Relaxed))
    }

    /// Query executions that panicked and were converted into
    /// `internal_error` replies.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// The admission scheduler (stats / drain access).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The request-tracing hub: the in-flight table (`inflight` stats
    /// block, cancel by id, the watchdog) and retained span trees
    /// (`trace_export`). Arm it to trace every request regardless of
    /// per-request `"trace"` flags.
    pub fn trace_hub(&self) -> &TraceHub {
        &self.trace_hub
    }

    /// Has a shutdown request been handled?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Registers (or replaces) a model; returns its fingerprint. A
    /// replacement with a *different* definition purges every memoized
    /// result of the old fingerprint.
    pub fn register(&self, name: &str, source: &ModelSource) -> Result<String, String> {
        let already = self.registry.get(name).map(|e| e.fingerprint().to_string());
        let (entry, replaced) = self.registry.register(name, source)?;
        if let Some(old) = replaced {
            self.cache.purge_prefix(&format!("{old}|"));
        }
        // Log only registrations that changed the served state — a
        // client re-registering the same source in a loop (the selftest
        // shape) must not grow the log.
        if already.as_deref() != Some(entry.fingerprint()) {
            with_log(&self.registry_log, |log| {
                log.append(&ModelRecord {
                    name: name.to_string(),
                    source: source.clone(),
                })
            });
        }
        Ok(entry.fingerprint().to_string())
    }

    /// Runs (or recalls) one query. Returns the report and whether it
    /// came from the cache.
    ///
    /// Every successful reply lands in the latency histograms (the
    /// `latency` block of [`ServeCore::stats_json`]): end-to-end split
    /// by cache hit/miss, queue wait, engine execute time, the compile
    /// share stamped into the report's provenance, and the persistence
    /// append. The hit path pays two clock reads and one histogram
    /// record — overhead the `daemon_mix` benchmark workload measures.
    pub fn run_query(&self, qr: &QueryRequest) -> Result<(Arc<Report>, bool), ServeError> {
        self.run_query_traced(qr)
            .map(|(report, cached, _trace)| (report, cached))
    }

    /// [`ServeCore::run_query`] plus the request-scoped trace. The
    /// third element is the `"trace"` reply payload — present only
    /// when the request opted in with `"trace": true` (a daemon armed
    /// via [`ServeCore::trace_hub`] records into the export ring
    /// without inflating replies). Tracing is purely observational:
    /// the report and its fingerprint are bit-identical with and
    /// without it, and traced/untraced twins share one cache entry.
    pub fn run_query_traced(
        &self,
        qr: &QueryRequest,
    ) -> Result<(Arc<Report>, bool, Option<Json>), ServeError> {
        self.answer(qr, None)
            .map(|(memo, cached, trace)| (memo.report, cached, trace))
    }

    /// [`ServeCore::run_query_traced`] with the report's rendered
    /// payload: the memo a hit recalls, or the one a miss made. `line`
    /// is the request's wire line, when it came as one: a hit may enter
    /// it into the line index.
    fn answer(
        &self,
        qr: &QueryRequest,
        line: Option<&str>,
    ) -> Result<(Memo, bool, Option<Json>), ServeError> {
        let ctx =
            (qr.trace || self.trace_hub.armed()).then(|| TraceCtx::new(TraceCtx::DEFAULT_CAPACITY));
        let result = self.run_query_inner(qr, line, ctx.as_ref());
        // Built after `run_query_inner` returned, so the root span is
        // closed and the tree in the reply is complete.
        let trace = match &ctx {
            Some(ctx) if qr.trace => Some(trace_reply_json(ctx)),
            _ => None,
        };
        result.map(|(memo, cached)| (memo, cached, trace))
    }

    fn run_query_inner(
        &self,
        qr: &QueryRequest,
        line: Option<&str>,
        trace: Option<&Arc<TraceCtx>>,
    ) -> Result<(Memo, bool), ServeError> {
        // The hub-guard slot is declared *before* the request timer,
        // which holds the root span, on purpose: locals drop in reverse
        // order, so the root span closes (landing its record in the
        // ring) before the guard publishes the completed trace — on
        // success, error, and unwind alike.
        let mut hub_guard: Option<crate::trace::TraceGuard<'_>> = None;
        let request = self.metrics.open("serve.request", trace);
        let entry = self
            .registry
            .get(&qr.model)
            .ok_or_else(|| ServeError::Invalid(format!("unknown model {:?}", qr.model)))?;
        // A parameter pinned as a constant at registration was
        // substituted out of the dynamics: randomizing it would be a
        // silent no-op, so it is an error instead.
        if let Some(pinned) = qr.query.param_names().iter().find(|n| entry.is_const(n)) {
            return Err(ServeError::Invalid(format!(
                "parameter {pinned:?} was pinned as a constant when model {:?} was registered; \
                 re-register the model without it to randomize it",
                qr.model
            )));
        }
        let (session, query, base_key) = entry
            .prepare(|cx| qr.query.build(cx))
            .map_err(ServeError::Invalid)?;
        // Past the engine's gate, a `query_error` is an execution failure.
        session
            .check(&query)
            .map_err(|e| ServeError::Invalid(e.to_string()))?;
        let mut budget = qr.budget.build();
        if let Some(ctx) = trace {
            budget = budget.with_trace(Arc::clone(ctx));
        }
        // `canonical_caps` renders only the deterministic count caps —
        // the attached trace context never reaches the key, so a traced
        // request and its untraced twin share one cache entry.
        let key = memo_key(&base_key, qr.seed, &budget);
        if let Some(hit) = self.lookup(&key) {
            request.finish(Phase::RequestHit);
            // Only a line whose reply is the bare hit reply is indexed:
            // an `id` or a trace would be missing from the index's.
            if let (Some(line), None, None) = (line, qr.id, trace) {
                self.index_line(line, &qr.model, entry.fingerprint(), &key);
            }
            return Ok((hit, true));
        }
        // Registration in the one in-flight table: from here until the
        // reply the request is listed in the `inflight` stats block and
        // its token is addressable by wire id (a duplicate id is refused)
        // and by the watchdog. The guard deregisters — and, when traced,
        // publishes the finished span tree for `trace_export` — on every
        // exit path, panics included. The memoized hit path above never
        // touches the table.
        let token = CancelToken::new();
        let guard = hub_guard.insert(self.trace_hub.begin(
            &qr.model,
            qr.query.kind(),
            qr.id,
            trace.map(Arc::clone),
            token.clone(),
        )?);
        let result = {
            let queue = self.metrics.open("serve.queue_wait", trace);
            let _permit = self.scheduler.admit(AdmitWait {
                deadline: budget.queue_deadline,
                cancel: Some(token.as_flag()),
            })?;
            // Queue wait covers admitted requests; refused admissions
            // are visible in the shed/expired counters instead.
            queue.finish(Phase::QueueWait);
            // A racing identical request may have populated the cache
            // while this one queued; recheck before paying for compute.
            if let Some(hit) = self.lookup(&key) {
                request.finish(Phase::RequestHit);
                guard.set_ok();
                return Ok((hit, true));
            }
            let execute = self.metrics.open("serve.execute", trace);
            // The watchdog watches only the execute window: queue wait
            // is governed by its own deadline.
            // Panic isolation: a solver bug (or an injected fault)
            // unwinds to here, is counted, and becomes a clean
            // `internal_error` reply. The permit and in-flight guard
            // release via RAII; no lock is held across this boundary.
            let (run, reaped) = guard.execute(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                crate::faults::exec_panic_point();
                #[cfg(feature = "fault-injection")]
                if let Some(stall) = crate::faults::exec_stall() {
                    // A wedged-but-cancellable solver: spin in short
                    // slices so a raised token (watchdog or client
                    // cancel) unwedges it, like the engine's own
                    // between-batch cancellation polls.
                    let t0 = Instant::now();
                    while t0.elapsed() < stall && !token.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                session
                    .query(query)
                    .seed(qr.seed)
                    .budget(budget.clone().with_cancel(token.clone()))
                    .run()
            }));
            let outcome = run.map_err(|payload| {
                self.panics.fetch_add(1, Ordering::Relaxed);
                let message = panic_message(&*payload);
                ServeError::Internal(format!("query execution panicked: {message}"))
            })?;
            let elapsed = execute.finish(Phase::Execute);
            if matches!(&outcome, Ok(rep) if rep.kind == biocheck_engine::QueryKind::Lint) {
                self.metrics.record(Phase::Lint, elapsed);
            }
            // A watchdog-reaped run surfaces as a typed error, not a
            // silently truncated report (the engine treats a raised
            // token as exhaustion, which is right for *client* cancels
            // answered out-of-band but would mask a reaped hang here).
            if let (true, Some(dog)) = (reaped, &self.watchdog) {
                return Err(ServeError::WatchdogCancelled {
                    elapsed_ms: elapsed.as_millis() as u64,
                    ceiling_ms: dog.ceiling.as_millis() as u64,
                });
            }
            outcome
        };
        // The payload is rendered here, once: the reply, the log record
        // and every later hit send these bytes.
        let memo = Memo::new(result.map_err(|e| ServeError::Query(e.to_string()))?);
        if let Some(compile) = memo.report.provenance.compile_time {
            self.metrics.record(Phase::Compile, compile);
        }
        // Pure-function check: no wall clock involved, token never
        // raised → memoize.
        if budget.is_count_only() && !token.is_cancelled() {
            let cost = key.len() + memo.report.fingerprint().len() + ENTRY_OVERHEAD_BYTES;
            let record = CacheRecord {
                key,
                cost,
                memo: memo.clone(),
            };
            // With a spill file the record is appended and only indexed
            // once written. Append errors are counted inside the log
            // and never fail the request; the result then stays in RAM,
            // like one the codec refuses or a locator cannot describe.
            let written = self.persist.as_ref().and_then(|log| {
                let append = self.metrics.open("serve.persist_append", trace);
                let at = log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .append(&record);
                append.finish(Phase::PersistAppend);
                at.and_then(locator)
            });
            match written {
                Some(locator) => self.cache.index(&record.key, locator),
                None => self.cache.insert(record.key, record.memo, cost),
            };
        }
        request.finish(Phase::RequestMiss);
        guard.set_ok();
        Ok((memo, false))
    }

    /// A memoized result: the resident LRU, then the index and a spill
    /// log read-back (promoted on success, with its payload rendered
    /// from the decoded report; any failure is a miss).
    fn lookup(&self, key: &str) -> Option<Memo> {
        self.cache
            .get_or_load(key, |locator| self.load(key, locator))
    }

    /// The spill log's record for `key` at `locator`.
    fn load(&self, key: &str, locator: u64) -> Option<(Memo, usize)> {
        with_log(&self.persist, |log| log.load(key, locator)).flatten()
    }

    /// Remembers that `line` lowered to the memo `key` of `model` under
    /// `fingerprint`.
    fn index_line(&self, line: &str, model: &str, fingerprint: &str, key: &str) {
        let cost =
            line.len() + model.len() + fingerprint.len() + key.len() + LINE_ENTRY_OVERHEAD_BYTES;
        let indexed = IndexedLine {
            model: model.into(),
            fingerprint: fingerprint.into(),
            key: key.into(),
        };
        self.lines.insert(line, indexed, cost);
    }

    /// The reply to a query line the line index holds, written around
    /// the stored payload without decoding or lowering the line; `None`
    /// when the line is not indexed, its model is gone or re-registered
    /// under another fingerprint, or its memo is no longer cached. The
    /// normal path then answers it.
    fn indexed_reply(&self, line: &str) -> Option<String> {
        let request = self.metrics.open("serve.request", None);
        let indexed = self.lines.get(line)?;
        let entry = self.registry.get(&indexed.model)?;
        if entry.fingerprint() != &*indexed.fingerprint {
            return None;
        }
        // A miss here is counted by the normal path's own lookup.
        let memo = self
            .cache
            .recall(&indexed.key, |locator| self.load(&indexed.key, locator))?;
        request.finish(Phase::RequestHit);
        self.line_hits.fetch_add(1, Ordering::Relaxed);
        Some(reply_line(&indexed.model, None, true, &memo, None))
    }

    /// Raises the cancellation token of the in-flight query registered
    /// under `id`. Returns whether such a query existed.
    pub fn cancel(&self, id: u64) -> bool {
        self.trace_hub.cancel(id)
    }

    /// The counter table: every numeric `stats` counter and gauge, one
    /// section per `stats` block in reply order. `persist` and
    /// `registry_persist` are present only when their log is attached.
    /// [`ServeCore::stats_json`] and [`ServeCore::metrics_text`] both
    /// render it, so a counter is named once.
    #[rustfmt::skip]
    fn counter_table(&self) -> Vec<Section> {
        let c = self.cache.stats();
        let s = &self.scheduler;
        let m = self.registry.memory_stats();
        let mut table = vec![
            Section("cache", "cache_", vec![
                counter("hits", c.hits as f64, "Result-cache hits."),
                counter("line_hits", self.line_hits.load(Ordering::Relaxed) as f64,
                    "Hits answered from the line index, without decoding the line (within hits)."),
                counter("misses", c.misses as f64, "Result-cache misses."),
                counter("inserts", c.inserts as f64, "Result-cache inserts."),
                counter("evictions", c.evictions as f64, "Entries evicted to fit the byte budget."),
                counter("rejected", c.rejected as f64,
                    "Entries refused as costlier than the budget."),
                counter("purged", c.purged as f64, "Entries purged by a model re-registration."),
                gauge("entries", c.entries as f64, "Entries currently cached."),
                gauge("bytes", c.bytes as f64, "Bytes currently charged against the cache budget."),
                gauge("capacity_bytes", self.cache.capacity_bytes() as f64,
                    "The cache byte budget."),
                gauge("hit_ratio", c.hit_ratio(), "Hits over all lookups, 0 before the first."),
            ]),
            Section("scheduler", "scheduler_", vec![
                gauge("capacity", s.capacity() as f64, "Concurrent executions admitted."),
                gauge("in_flight", s.in_flight() as f64, "Queries currently executing."),
                gauge("queue_depth", s.queue_depth() as f64,
                    "Requests waiting for an execution slot."),
                gauge("max_queue", s.max_queue() as f64,
                    "Wait-queue bound; arrivals beyond it are shed."),
                gauge("queue_high_water", s.queue_high_water() as f64,
                    "Deepest the wait queue has been since startup."),
                counter("shed", s.shed_count() as f64,
                    "Requests refused with an overloaded reply."),
                counter("expired", s.expired_count() as f64,
                    "Requests whose queue deadline elapsed before admission."),
            ]),
            Section("server", "", vec![
                counter("panic_replies", self.panic_count() as f64,
                    "Query executions that panicked and became internal_error replies."),
                counter("watchdog_cancelled", self.watchdog_cancelled_count() as f64,
                    "Queries cancelled for exceeding the execute ceiling."),
            ]),
            Section("sessions", "session_", vec![
                gauge("artifact_count", m.artifact_count as f64,
                    "Compiled artifacts cached across sessions."),
                counter("artifact_evictions", m.artifact_evictions as f64,
                    "Compiled artifacts evicted by the per-model LRU bound."),
            ]),
        ];
        if let Some(p) = self.persist_stats() {
            table.push(Section("persist", "persist_", vec![
                counter("loaded", p.loaded as f64, "Records indexed from the spill file at boot."),
                counter("skipped", p.skipped as f64,
                    "Unreadable spill-file lines skipped at boot."),
                gauge("indexed", c.indexed as f64,
                    "Memoized results located in the spill file by the in-memory index."),
                counter("appended", p.appended as f64,
                    "Memoized results appended to the spill file."),
                counter("append_errors", p.append_errors as f64,
                    "Spill-file append failures (best-effort, request unaffected)."),
                counter("unsupported", p.unsupported as f64,
                    "Results the spill-file codec refused; they stay in RAM."),
            ]));
        }
        if let Some(r) = self.registry_persist_stats() {
            table.push(Section("registry_persist", "registry_", vec![
                counter("loaded", r.loaded as f64,
                    "Models replayed from the registry log at boot."),
                counter("skipped", r.skipped as f64,
                    "Unreadable registry-log lines skipped at boot."),
                counter("deduped", r.deduped as f64,
                    "Superseded registry-log records dropped at boot."),
                counter("appended", r.appended as f64,
                    "Registrations appended to the registry log."),
                counter("append_errors", r.append_errors as f64,
                    "Registry-log append failures (best-effort, request unaffected)."),
            ]));
        }
        table
    }

    /// Statistics payload (`op: stats`): the counter table plus the
    /// non-numeric blocks.
    pub fn stats_json(&self) -> Json {
        let mut pairs: Vec<_> = self
            .counter_table()
            .into_iter()
            .map(|Section(section, _, rows)| {
                let mut fields: Vec<_> = rows
                    .into_iter()
                    .map(|Row(key, _, _, value)| (key, Json::num(value)))
                    .collect();
                if section == "scheduler" {
                    fields.push(("draining", Json::Bool(self.scheduler.is_draining())));
                }
                (section, Json::obj(fields))
            })
            .collect();
        pairs.push((
            "models",
            Json::Arr(
                self.registry
                    .list()
                    .into_iter()
                    .map(|(name, fp)| {
                        Json::obj([("name", Json::str(name)), ("fingerprint", Json::str(fp))])
                    })
                    .collect(),
            ),
        ));
        pairs.push(("inflight", self.trace_hub.inflight_json()));
        pairs.push(("latency", self.metrics.latency_json()));
        pairs.push(("threads", Json::num(rayon::current_num_threads() as f64)));
        Json::obj(pairs)
    }

    /// Prometheus text exposition (`op: metrics`): the per-phase
    /// latency summaries, then every row of the counter table as
    /// `biocheckd_` + section prefix + key, with `_total` on counters.
    /// The format is documented with example scrape output in
    /// `docs/OPERATIONS.md`.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        self.metrics.prometheus_into(&mut out);
        for Section(_, prefix, rows) in self.counter_table() {
            for Row(key, counter, help, value) in rows {
                let kind = if counter { "counter" } else { "gauge" };
                let suffix = if counter { "_total" } else { "" };
                let name = format!("biocheckd_{prefix}{key}{suffix}");
                let _ = writeln!(
                    out,
                    "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}"
                );
            }
        }
        out
    }

    /// Answers one request. The bool is `true` when the request was a
    /// shutdown (the transport should stop accepting after responding).
    /// A query's reply is made as its wire line, around the memo's
    /// stored payload, so here it is that line parsed back;
    /// [`ServeCore::handle_line`] sends the line as it is.
    pub fn handle(&self, request: &Request) -> (Json, bool) {
        match request {
            Request::Register { model, source } => match self.register(model, source) {
                Ok(fingerprint) => (
                    Json::obj([
                        ("ok", Json::Bool(true)),
                        ("model", Json::str(model.clone())),
                        ("fingerprint", Json::str(fingerprint)),
                    ]),
                    false,
                ),
                Err(e) => (error_json("invalid_request", &e, None), false),
            },
            Request::Query(qr) => {
                let line = self.query_reply(qr, None);
                let reply =
                    parse_json(&line).unwrap_or_else(|e| error_json("internal_error", &e, None));
                (reply, false)
            }
            Request::Cancel { id } => (
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("cancelled", Json::Bool(self.cancel(*id))),
                ]),
                false,
            ),
            Request::Stats => (
                Json::obj([("ok", Json::Bool(true)), ("stats", self.stats_json())]),
                false,
            ),
            Request::TraceExport => (
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("trace", self.trace_hub.chrome_trace_json()),
                ]),
                false,
            ),
            Request::Metrics => (
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("metrics", Json::str(self.metrics_text())),
                ]),
                false,
            ),
            Request::Ping => (Json::obj([("ok", Json::Bool(true))]), false),
            Request::Shutdown => {
                // Graceful drain: refuse new admissions, wait for
                // in-flight queries to finish (their connections get
                // their replies), sync the spill file, then confirm.
                self.shutdown.store(true, Ordering::SeqCst);
                self.scheduler.drain();
                with_log(&self.persist, AppendLog::sync);
                with_log(&self.registry_log, AppendLog::sync);
                (Json::obj([("ok", Json::Bool(true))]), true)
            }
        }
    }

    /// A query's reply line; `line` is the request's wire line, when it
    /// came as one.
    fn query_reply(&self, qr: &QueryRequest, line: Option<&str>) -> String {
        match self.answer(qr, line) {
            Ok((memo, cached, trace)) => {
                reply_line(&qr.model, qr.id, cached, &memo, trace.as_ref())
            }
            Err(e) => error_json(e.kind(), &e.to_string(), e.retry_after_ms()).render(),
        }
    }

    /// Answers one raw request line (transport entry point). A query
    /// line in the line index is answered from it; every other line is
    /// decoded and handled. The outer `catch_unwind` is the last line
    /// of defense — request bodies are already caught in
    /// [`ServeCore::run_query`] — so that even a bug in reply
    /// serialization yields a well-formed error line instead of a
    /// silently dropped connection.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let line = line.trim();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(reply) = self.indexed_reply(line) {
                return (reply, false);
            }
            match Request::from_line(line) {
                Ok(Request::Query(qr)) => (self.query_reply(&qr, Some(line)), false),
                Ok(request) => {
                    let (json, stop) = self.handle(&request);
                    (json.render(), stop)
                }
                Err(e) => (error_json("invalid_request", &e, None).render(), false),
            }
        }));
        match outcome {
            Ok(reply) => reply,
            Err(payload) => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                (
                    error_json(
                        "internal_error",
                        &format!("request handling panicked: {}", panic_message(&*payload)),
                        None,
                    )
                    .render(),
                    false,
                )
            }
        }
    }
}

/// Opens the log at `path` (when configured) and replays its records.
/// Fails open: a log that cannot be opened costs durability, not
/// availability, and is reported on stderr.
fn open_log<C: Codec>(
    path: Option<&Path>,
    what: &str,
    mut replay: impl FnMut(Extent, C::Record),
) -> Option<Mutex<AppendLog<C>>> {
    let path = path?;
    match AppendLog::open(path) {
        Ok((log, records)) => {
            for (at, record) in records {
                replay(at, record);
            }
            Some(Mutex::new(log))
        }
        Err(e) => {
            eprintln!(
                "biocheckd: {what} persistence disabled ({}: {e})",
                path.display()
            );
            None
        }
    }
}

/// Runs `f` on an attached log, under its lock.
fn with_log<C: Codec, R>(
    log: &Option<Mutex<AppendLog<C>>>,
    f: impl FnOnce(&mut AppendLog<C>) -> R,
) -> Option<R> {
    log.as_ref()
        .map(|log| f(&mut log.lock().unwrap_or_else(PoisonError::into_inner)))
}

/// Best-effort panic payload rendering (`&str` and `String` payloads;
/// anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// The hung-query watchdog: a background tick that raises the
/// `CancelToken` of any execution past the configured ceiling, read
/// from the trace hub's in-flight table. The engine polls tokens
/// between SMC batches, so a reaped run unwedges at the next poll,
/// releases its scheduler permit via RAII, and its reply becomes a
/// typed `watchdog_cancelled` error.
struct Watchdog {
    ceiling: Duration,
    hub: Arc<TraceHub>,
    fired_total: AtomicU64,
    stop: AtomicBool,
}

impl Watchdog {
    /// The tick loop (dedicated thread). The tick is a quarter of the
    /// ceiling, clamped to [1, 50] ms: overshoot past the ceiling is at
    /// most one tick, and an idle scan of a small table is cheap.
    fn run_ticks(&self) {
        let tick = (self.ceiling / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(tick);
            let reaped = self.hub.reap_overdue(self.ceiling);
            self.fired_total.fetch_add(reaped, Ordering::Relaxed);
        }
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        if let Some(dog) = &self.watchdog {
            dog.stop.store(true, Ordering::Relaxed);
        }
        if let Some(handle) = self.watchdog_thread.take() {
            let _ = handle.join();
        }
    }
}

/// What the normal path lowered an indexed query line to.
#[derive(Clone)]
struct IndexedLine {
    /// The model the line names.
    model: Arc<str>,
    /// The model's fingerprint when the line was indexed.
    fingerprint: Arc<str>,
    /// The memo key the line lowered to.
    key: Arc<str>,
}

/// A query's reply line. Its members are written in the canonical
/// sorted order around the memo's payload, so a hit renders no report:
/// it copies the bytes its miss rendered. The room left past the
/// closing brace holds the newline the transport appends.
fn reply_line(
    model: &str,
    id: Option<u64>,
    cached: bool,
    memo: &Memo,
    trace: Option<&Json>,
) -> String {
    let mut reply = ObjWriter::with_capacity(memo.payload.len() + model.len() + 64)
        .raw("cached", if cached { "true" } else { "false" });
    if let Some(id) = id {
        reply = reply.member("id", &u64_to_json(id));
    }
    reply = reply
        .string("model", model)
        .raw("ok", "true")
        .raw("report", &memo.payload);
    if let Some(trace) = trace {
        reply = reply.member("trace", trace);
    }
    reply.finish()
}

/// A prepared query's memo key: its model-and-query key, the seed and
/// the count caps.
fn memo_key(base_key: &str, seed: u64, budget: &Budget) -> String {
    format!("{base_key}|seed={seed}|{}", budget.canonical_caps())
}

fn error_json(kind: &str, message: &str, retry_after_ms: Option<u64>) -> Json {
    let mut pairs = vec![
        ("ok", Json::Bool(false)),
        ("kind", Json::str(kind)),
        ("error", Json::str(message)),
    ];
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", Json::num(ms as f64)));
    }
    Json::obj(pairs)
}

/// One counter-table section: its `stats` key, the metric-name
/// prefix after `biocheckd_`, and its rows.
struct Section(&'static str, &'static str, Vec<Row>);

/// One numeric `stats` field and its `biocheckd_*` metric: key,
/// counter (`_total`, monotonic) or gauge, help text, value.
struct Row(&'static str, bool, &'static str, f64);

fn counter(key: &'static str, value: f64, help: &'static str) -> Row {
    Row(key, true, help, value)
}

fn gauge(key: &'static str, value: f64, help: &'static str) -> Row {
    Row(key, false, help, value)
}

/// A running daemon: the bound address plus the accept-loop handle.
pub struct Daemon {
    /// The actually bound address (resolves port 0).
    pub addr: SocketAddr,
    accept_thread: std::thread::JoinHandle<()>,
}

impl Daemon {
    /// Blocks until the accept loop exits (a `shutdown` request).
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

/// Starts the line-delimited JSON daemon on `addr` (use port 0 for an
/// ephemeral port; the bound address is in the returned [`Daemon`]).
/// One thread per connection; requests on a connection are processed
/// sequentially, so responses arrive in request order. Concurrency
/// across connections is bounded by the core's scheduler.
pub fn serve(core: Arc<ServeCore>, addr: impl ToSocketAddrs) -> std::io::Result<Daemon> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let accept_core = Arc::clone(&core);
    let accept_thread = std::thread::Builder::new()
        .name("biocheckd-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_core.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let core = Arc::clone(&accept_core);
                let _ = std::thread::Builder::new()
                    .name("biocheckd-conn".into())
                    .spawn(move || handle_connection(core, stream, addr));
            }
        })?;
    Ok(Daemon {
        addr,
        accept_thread,
    })
}

/// Longest request line the daemon will buffer. A peer streaming an
/// endless line would otherwise grow the buffer without bound;
/// legitimate requests are a few kilobytes.
const MAX_LINE_BYTES: usize = 4 << 20;

/// Socket read timeout used as the poll tick for the idle / partial-line
/// deadlines and the shutdown flag.
const READ_POLL_TICK: Duration = Duration::from_millis(100);

fn handle_connection(core: Arc<ServeCore>, stream: TcpStream, daemon_addr: SocketAddr) {
    // The read timeout is a poll tick, not the protection itself: the
    // line/idle deadlines below are measured against wall-clock marks,
    // so a peer trickling one byte per tick still trips them.
    let _ = stream.set_read_timeout(Some(READ_POLL_TICK));
    // Replies are one write each; Nagle would hold them for the peer's
    // delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(core.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut last_activity = Instant::now();
    let mut line_started: Option<Instant> = None;
    loop {
        let before = buf.len();
        let remaining = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()).max(1) as u64;
        let read = std::io::Read::take(&mut reader, remaining).read_until(b'\n', &mut buf);
        if buf.len() > before {
            last_activity = Instant::now();
            if line_started.is_none() {
                line_started = Some(last_activity);
            }
        }
        match read {
            Ok(0) if buf.is_empty() => break, // clean EOF
            Ok(0) => break,                   // EOF mid-line: nothing to answer
            Ok(_) if buf.last() != Some(&b'\n') && buf.len() <= MAX_LINE_BYTES => {
                // The take() limit cut the read short of a newline
                // without exceeding the cap — keep accumulating.
                continue;
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // Poll tick: enforce the deadlines, then keep reading.
                if core.is_shutdown() && buf.is_empty() {
                    break; // draining and no request in progress
                }
                if let Some(t0) = line_started {
                    if t0.elapsed() > core.line_timeout {
                        let _ = write_reply(
                            &mut writer,
                            error_json(
                                "invalid_request",
                                &format!(
                                    "request line not completed within {} ms",
                                    core.line_timeout.as_millis()
                                ),
                                None,
                            )
                            .render(),
                        );
                        return;
                    }
                } else if last_activity.elapsed() > core.idle_timeout {
                    return; // silent idle peer
                }
                continue;
            }
            Err(_) => break,
        }
        if buf.len() > MAX_LINE_BYTES {
            // Cannot resynchronize mid-line: report and drop the peer.
            let _ = write_reply(
                &mut writer,
                error_json(
                    "invalid_request",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    None,
                )
                .render(),
            );
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            let _ = write_reply(
                &mut writer,
                error_json("invalid_request", "request line is not UTF-8", None).render(),
            );
            break;
        };
        let trimmed_empty = line.trim().is_empty();
        let (response, stop) = if trimmed_empty {
            (String::new(), false)
        } else {
            core.handle_line(line)
        };
        buf.clear();
        line_started = None;
        last_activity = Instant::now();
        if trimmed_empty {
            continue;
        }
        if write_reply(&mut writer, response).is_err() {
            break;
        }
        if stop {
            // Unblock the accept loop so it observes the shutdown flag.
            // A wildcard bind (0.0.0.0 / ::) is not connectable on
            // every platform — poke the loopback of the same family.
            let mut poke = daemon_addr;
            if poke.ip().is_unspecified() {
                poke.set_ip(match poke.ip() {
                    std::net::IpAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    std::net::IpAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(poke);
            break;
        }
    }
}

/// Writes one reply line (payload + `\n`, appended in place) and
/// flushes. Write timeouts surface as errors and drop the connection.
/// Under the `fault-injection` feature this is the transport fault
/// point: replies can be delayed or torn mid-line.
fn write_reply(writer: &mut TcpStream, mut response: String) -> std::io::Result<()> {
    response.push('\n');
    let bytes = response.as_bytes();
    #[cfg(feature = "fault-injection")]
    {
        if let Some(delay) = crate::faults::reply_delay() {
            std::thread::sleep(delay);
        }
        if let Some(n) = crate::faults::torn_reply_len(bytes.len()) {
            let _ = writer.write_all(&bytes[..n]);
            let _ = writer.flush();
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "fault injection: torn reply",
            ));
        }
    }
    writer.write_all(bytes)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::QuerySpec;

    /// A RAM hit sends the memo's stored payload and renders nothing:
    /// with the payload swapped for a sentinel, the hit's reply
    /// carries the sentinel.
    #[test]
    fn a_ram_hit_sends_the_stored_payload() {
        let core = ServeCore::new(ServeConfig::default());
        let source = ModelSource {
            states: vec![("x".into(), "-k*x".into())],
            consts: vec![("k".into(), 1.0)],
        };
        core.register("decay", &source).unwrap();
        let qr = QueryRequest {
            model: "decay".into(),
            id: None,
            seed: 1,
            budget: Default::default(),
            query: QuerySpec::Lint { ranges: vec![] },
            trace: false,
        };
        let line = Request::Query(qr.clone()).to_json().render();
        let (miss, _) = core.handle_line(&line);
        assert!(miss.starts_with("{\"cached\":false,"), "{miss}");
        let (report, cached) = core.run_query(&qr).unwrap();
        assert!(cached);
        let entry = core.registry().get("decay").unwrap();
        let (_, _, base_key) = entry.prepare(|cx| qr.query.build(cx)).unwrap();
        let key = memo_key(&base_key, qr.seed, &qr.budget.build());
        let payload = "\"stored\"".into();
        assert!(core.cache.insert(key, Memo { report, payload }, 1));
        let (hit, _) = core.handle_line(&line);
        assert_eq!(
            hit,
            "{\"cached\":true,\"model\":\"decay\",\"ok\":true,\"report\":\"stored\"}"
        );
    }
}
