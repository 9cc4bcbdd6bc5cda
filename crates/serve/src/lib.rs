//! The query-serving subsystem: the paper's analysis toolchain packaged
//! as a deployable service.
//!
//! The engine (`biocheck_engine`) made every analysis a typed, seeded,
//! budgeted query against a per-model [`Session`](biocheck_engine::Session).
//! This crate adds the layer the ROADMAP's serving story needs on top:
//!
//! * [`registry::Registry`] — a multi-model **session registry**: models
//!   register by name with textual sources, are fingerprinted, and share
//!   one frozen engine session per model across all clients and threads
//!   (each query parses into a private view of it, so new expression
//!   vocabulary never rebuilds or grows the session; artifact gauges in
//!   [`registry::MemoryStats`]) — and [`registry::persist::RegistryLog`]
//!   makes registrations durable: a log of canonical sources, replayed
//!   on boot, so a `kill -9` restart serves the same models under the
//!   same fingerprints with no client re-registration.
//! * [`cache::ResultCache`] — a **cost-aware LRU result cache**: seeded
//!   queries under count-only budgets are pure functions of
//!   `(model fingerprint, canonical query, seed, caps)`, so whole
//!   [`Report`](biocheck_engine::Report)s are memoized, with
//!   byte-budgeted eviction and hit/miss/evict counters. With the
//!   [`cache::persist::CacheLog`] spill file, results live in the log
//!   and RAM keeps a compact index plus the results that were hit. A
//!   cached report is `fingerprint()`-identical to a fresh computation,
//!   including one read back from the log.
//! * [`append_log::AppendLog`] — the one crash-recoverable log format
//!   both durable logs share: versioned header, checksummed records,
//!   torn-tail-tolerant load, compaction by atomic rename.
//! * [`scheduler::Scheduler`] — **fair FIFO admission** of concurrent
//!   requests over the existing thread pool, bounded concurrency,
//!   per-request [`Budget`](biocheck_engine::Budget) and
//!   [`CancelToken`](biocheck_engine::CancelToken).
//! * [`wire`] — a **line-delimited JSON protocol** (typed requests in,
//!   serialized reports out) with [`json`] as the workspace's shared
//!   mini-JSON parser/serializer.
//! * [`server::ServeCore`] + [`server::serve`] — the transport-free core
//!   and the `biocheckd` TCP daemon; [`client::Client`] is the blocking
//!   counterpart used by tests, CI, and the bench load generator. A
//!   `--max-execute-ms` watchdog reaps wedged queries (typed
//!   `watchdog_cancelled` replies) so a stuck solver cannot pin an
//!   execution slot forever. Client `cancel`s, that watchdog and the
//!   `inflight` stats view read one per-request in-flight table, the
//!   active map of [`trace::TraceHub`], which also keeps the recent
//!   span trees for `trace_export`.
//! * [`metrics`] — **per-phase latency histograms** (lock-free, from
//!   `biocheck_obs`), each phase timed by one guard that also opens its
//!   span. `{"op":"stats"}` and `{"op":"metrics"}` render them beside
//!   one counter table; `biocheck_client --stats-watch` polls `stats`.
//!
//! Serving is deterministic per request: the same `(model, query, seed,
//! count budget)` produces a bit-identical report at any pool width, any
//! admission order, and any number of concurrent clients — cached or
//! recomputed.
//!
//! # Example (in-process)
//!
//! ```
//! use biocheck_serve::server::{ServeConfig, ServeCore};
//! use biocheck_serve::wire::{
//!     BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec,
//!     SmcSpecWire,
//! };
//! use biocheck_expr::RelOp;
//!
//! let core = ServeCore::new(ServeConfig::default());
//! core.register(
//!     "decay",
//!     &ModelSource {
//!         states: vec![("x".into(), "-x".into())],
//!         consts: vec![],
//!     },
//! )
//! .unwrap();
//! let request = QueryRequest {
//!     model: "decay".into(),
//!     id: None,
//!     seed: 42,
//!     budget: BudgetSpec::default(),
//!     trace: false,
//!     query: QuerySpec::Estimate {
//!         smc: SmcSpecWire {
//!             init: vec![DistSpec::Uniform(0.5, 1.5)],
//!             params: vec![],
//!             property: PropSpec::Eventually {
//!                 bound: 0.01,
//!                 inner: Box::new(PropSpec::Prop { expr: "x - 1".into(), rel: RelOp::Ge }),
//!             },
//!             t_end: 0.01,
//!         },
//!         method: MethodSpec::Fixed { n: 100 },
//!     },
//! };
//! let (fresh, cached) = core.run_query(&request).unwrap();
//! assert!(!cached);
//! let (hit, cached) = core.run_query(&request).unwrap();
//! assert!(cached);
//! assert_eq!(fresh.fingerprint(), hit.fingerprint());
//! ```

pub mod append_log;
pub mod cache;
pub mod case_studies;
pub mod client;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod trace;
pub mod wire;

pub use append_log::LogStats;
pub use cache::{CacheStats, ResultCache};
pub use case_studies::{case_study_source, pinned_lint_json, CASE_STUDIES};
pub use client::{Client, ClientConfig, QueryReply};
pub use json::{parse_json, Json};
pub use registry::persist::{ModelRecord, RegistryLog};
pub use registry::{fingerprint64, MemoryStats, ModelEntry, Registry};
pub use scheduler::{AdmitError, AdmitWait, Scheduler};
pub use server::{serve, Daemon, ServeConfig, ServeCore, ServeError};
pub use trace::{RequestTrace, TraceHub};
pub use wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, Request,
    SmcSpecWire,
};
