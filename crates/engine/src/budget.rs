//! First-class resource budgets with cooperative cancellation.
//!
//! A [`Budget`] is threaded through every query: an SMC query's lane
//! stream polls it whenever a lane claims a sample index (a tripped
//! poll halts the stream, and the lanes in flight stop at their next
//! accepted step), and the ICP/BMC frontier loops poll it between
//! frontier rounds (via the `cancel`/`deadline` fields on
//! `BranchAndPrune`, `ReachOptions`, and `DeltaSmt`). A tripped budget
//! never panics and never corrupts a result — the query returns a
//! well-formed partial [`Report`](crate::Report) with
//! [`Outcome::Exhausted`](crate::Outcome::Exhausted).
//!
//! Determinism: `max_samples` and `max_paver_boxes` are exact counters,
//! so budget trips are bit-for-bit reproducible. `deadline` and
//! mid-flight `cancel` depend on wall-clock timing; the *shape* of the
//! partial report is still well-formed, but the cut point is not
//! reproducible — deterministic pipelines should budget by counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag. Clone it, hand one copy to the query (via
/// [`Budget::cancel`]) and keep the other; calling [`CancelToken::cancel`]
/// from any thread stops the query at its next cooperative poll point.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, unraised token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag; every query holding a clone stops at its next
    /// poll point (an SMC sample claim or a frontier round).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the flag been raised?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// The raw flag, for threading into substrate solvers.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        self.0.clone()
    }

    /// Borrowed view of the flag, for poll sites (and for admission
    /// queues that must notice cancellation while the query is still
    /// waiting for an execution slot).
    pub fn as_flag(&self) -> &AtomicBool {
        &self.0
    }
}

/// A per-query resource budget. The default is unlimited.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Cap on Bernoulli samples drawn by SMC-backed queries
    /// (`Estimate`, `Sprt`, `Robustness`). When it cuts a query short,
    /// the report carries the estimate over the samples actually drawn.
    pub max_samples: Option<usize>,
    /// Cap on box splits in the δ-decision searches behind `Falsify`,
    /// `Therapy`, and `Calibrate` (overrides the per-query
    /// `max_splits` defaults when set).
    pub max_paver_boxes: Option<usize>,
    /// Wall-clock allowance, measured from the start of `run()`.
    pub deadline: Option<Duration>,
    /// Maximum time the request may wait in an admission queue before
    /// being shed (consumed by the serving layer, not by the engine).
    /// Excluded from [`Budget::canonical_caps`] and from the purity
    /// check: shedding happens strictly *before* any computation, so a
    /// queue deadline can never change a computed result.
    pub queue_deadline: Option<Duration>,
    /// Cooperative cancellation flag.
    pub cancel: Option<CancelToken>,
    /// Request-scoped trace context. Strictly observational: the engine
    /// opens phase spans on it and the solver loops publish progress
    /// counters into it at their existing budget-poll points. Excluded
    /// from [`Budget::canonical_caps`] (and thereby from memoization
    /// keys) for the same reason as timings are excluded from report
    /// fingerprints — tracing a query must never change its answer or
    /// its cache identity.
    pub trace: Option<Arc<biocheck_obs::TraceCtx>>,
}

impl Budget {
    /// An unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Sets the sample cap.
    #[must_use]
    pub fn with_max_samples(mut self, n: usize) -> Budget {
        self.max_samples = Some(n);
        self
    }

    /// Sets the split cap for δ-decision searches.
    #[must_use]
    pub fn with_max_paver_boxes(mut self, n: usize) -> Budget {
        self.max_paver_boxes = Some(n);
        self
    }

    /// Sets the wall-clock allowance.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        self.deadline = Some(d);
        self
    }

    /// Sets the admission-queue deadline (see [`Budget::queue_deadline`]).
    #[must_use]
    pub fn with_queue_deadline(mut self, d: Duration) -> Budget {
        self.queue_deadline = Some(d);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Attaches a request-scoped trace context (see [`Budget::trace`]).
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<biocheck_obs::TraceCtx>) -> Budget {
        self.trace = Some(trace);
        self
    }

    /// Canonical rendering of the deterministic, count-based caps — the
    /// budget component of result-memoization keys
    /// (`biocheck_serve`). Deadlines and cancellation tokens are
    /// wall-clock-dependent and deliberately excluded: a report whose
    /// run they cut short is not a pure function of the request and is
    /// never cached.
    pub fn canonical_caps(&self) -> String {
        format!(
            "samples={:?};boxes={:?}",
            self.max_samples, self.max_paver_boxes
        )
    }

    /// `true` when the budget carries no wall-clock deadline. Together
    /// with an unraised (or absent) cancellation token this makes a
    /// seeded query a pure function of `(model, query, seed, caps)` —
    /// the precondition for result memoization.
    pub fn is_count_only(&self) -> bool {
        self.deadline.is_none()
    }

    /// Resolves the relative deadline against the query start instant.
    pub(crate) fn deadline_from(&self, start: Instant) -> Option<Instant> {
        self.deadline.map(|d| start + d)
    }

    /// The raw cancellation flag, if any (for substrate solvers).
    pub(crate) fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.cancel.as_ref().map(CancelToken::flag)
    }

    /// Poll point: has the flag been raised or the deadline passed?
    /// Delegates to the substrate-shared predicate so every layer polls
    /// with identical semantics.
    pub(crate) fn interrupted(&self, deadline: Option<Instant>) -> bool {
        biocheck_icp::interrupted(self.cancel.as_ref().map(CancelToken::as_flag), deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn budget_builders() {
        let b = Budget::unlimited()
            .with_max_samples(10)
            .with_max_paver_boxes(20)
            .with_deadline(Duration::from_millis(5))
            .with_cancel(CancelToken::new());
        assert_eq!(b.max_samples, Some(10));
        assert_eq!(b.max_paver_boxes, Some(20));
        assert!(b.deadline.is_some() && b.cancel.is_some());
        assert!(!b.interrupted(None));
        assert!(b.interrupted(Some(Instant::now())));
    }
}
