//! Observability primitives for the BioCheck serving stack.
//!
//! Three tools, all dependency-free and cheap enough to leave on in
//! production:
//!
//! * [`Histogram`] — a lock-free, log-linear bucketed latency
//!   histogram. Recording is a handful of relaxed atomic operations
//!   (no locks, no allocation), so many threads can record into one
//!   histogram concurrently, and independent histograms can be
//!   [merged](Histogram::merge) after the fact. A [`Snapshot`]
//!   extracts p50/p90/p99/max with a bounded relative error of
//!   1/16 (6.25%) — see the [`hist`] module docs for the bucket
//!   layout and the exact error bound.
//!
//! * [`TraceCtx`] — request-scoped tracing: a per-request span tree
//!   collected into a lock-free bounded ring ([`SpanRing`]) plus live
//!   [`Progress`] counters the solver loops publish at their existing
//!   budget-poll points. Strictly observational: nothing here feeds a
//!   fingerprint, a memoization key, or a persisted byte.
//!
//! * [`Windowed`] — a sliding-window view over [`Histogram`] (last-60s
//!   percentiles for long-lived daemons whose lifetime p99 goes stale).
//!
//! The serving layer (`biocheck_serve`) aggregates histograms per
//! request phase and exposes them via `{"op":"stats"}` and
//! `{"op":"metrics"}`, and threads a [`TraceCtx`] through every traced
//! request.
//!
//! ```
//! use biocheck_obs::Histogram;
//!
//! let h = Histogram::new();
//! for v in [100u64, 200, 300, 400, 500] {
//!     h.record_ns(v);
//! }
//! let snap = h.snapshot();
//! assert_eq!(snap.count(), 5);
//! assert_eq!(snap.max_ns(), 500);
//! assert!(snap.quantile(0.5) >= 280 && snap.quantile(0.5) <= 320);
//! ```

pub mod hist;
pub mod trace;
pub mod window;

pub use hist::{Histogram, Snapshot};
pub use trace::{Progress, ProgressSnapshot, SpanRecord, SpanRing, TraceCtx, TraceSpan};
pub use window::Windowed;
