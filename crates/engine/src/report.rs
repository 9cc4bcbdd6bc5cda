//! The uniform answer type: verdict/estimate payload plus structured
//! provenance and the budget outcome.

use crate::calibrate::Calibration;
use crate::falsify::FalsificationOutcome;
use crate::query::QueryKind;
use crate::stability::StabilityReport;
use crate::therapy::TherapyPlan;
use biocheck_lint::Diagnostic;
use biocheck_smc::{Estimate, SprtResult};
use std::fmt::Write as _;
use std::time::Duration;

/// Did the query run to its natural end, or did a resource bound stop
/// it first?
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The query finished: the value is its full answer.
    Complete,
    /// A budget (sample cap, split cap, cancellation, deadline) stopped
    /// the query mid-flight; the value is a well-formed partial answer
    /// over the work actually performed.
    Exhausted,
}

/// Structured provenance: enough to reproduce or audit the answer.
///
/// The timing fields (`wall_time`, `compile_time`, `run_time`) are
/// observability only and are **excluded from
/// [`Report::fingerprint`]**: two runs of the same seeded query
/// produce fingerprint-identical reports however long they took — the
/// property the batch-determinism and cache-consistency tests pin
/// down. `wall_time` is caller-supplied (time the run yourself and
/// set the field); the phase timings are stamped by the engine on
/// every executed query.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// Master seed the per-sample RNG streams were forked from.
    pub seed: u64,
    /// Bernoulli samples actually drawn (0 for δ-decision queries,
    /// whose work is measured in box splits).
    pub samples: usize,
    /// Fraction of drawn samples whose streaming verdict decided before
    /// the simulation horizon (0 when not applicable).
    pub early_stop_rate: f64,
    /// Mean integration samples per draw (0 when not applicable).
    pub avg_steps: f64,
    /// Caller-attached wall time; `None` unless supplied.
    pub wall_time: Option<Duration>,
    /// Time spent acquiring compiled artifacts (RHS program, monitor
    /// plan, sampler) before the solver ran — a cache hit makes this
    /// near-zero. `None` when the report predates instrumentation
    /// (e.g. decoded from an old persistence log); 0 for δ-decision
    /// queries, which lower inline. Excluded from the fingerprint.
    pub compile_time: Option<Duration>,
    /// Time the solver itself ran (execute phase minus artifact
    /// acquisition). `None` when unmeasured. Excluded from the
    /// fingerprint.
    pub run_time: Option<Duration>,
}

/// Summary of a [`Query::Robustness`](crate::Query::Robustness) run.
/// A run stopped by its budget before any sample was drawn reports all
/// fields as 0 (check the report's `provenance.samples`).
#[derive(Copy, Clone, Debug)]
pub struct RobustnessSummary {
    /// Fraction of satisfying samples.
    pub p_hat: f64,
    /// Mean robustness over the drawn samples (index-ordered summation,
    /// hence deterministic).
    pub mean: f64,
    /// Minimum robustness observed (`-inf` when a sampled trajectory's
    /// simulation failed).
    pub min: f64,
}

/// The query-specific payload of a [`Report`].
#[derive(Clone, Debug)]
pub enum Value {
    /// Probability estimate (`Estimate` queries). `half_width` and
    /// `confidence` are non-zero only when the guarantee was actually
    /// earned: a budget-truncated run ([`Outcome::Exhausted`]) zeroes
    /// them, and so does an adaptive Bayes run that reached its own
    /// sample cap with the credible interval still open (which reports
    /// [`Outcome::Complete`] — the cap is the method's own answer —
    /// but claims no interval). The point estimate over the samples
    /// actually drawn is all such runs honestly assert.
    Estimate(Estimate),
    /// Sequential-test verdict (`Sprt` queries).
    Sprt(SprtResult),
    /// Robustness summary (`Robustness` queries).
    Robustness(RobustnessSummary),
    /// Falsification verdict (`Falsify` queries).
    Falsify(FalsificationOutcome),
    /// Synthesized treatment plan, `None` when no schedule exists within
    /// the jump bound (`Therapy` queries).
    Therapy(Option<TherapyPlan>),
    /// δ-sat calibration, `None` on unsat or exhaustion (`Calibrate`
    /// queries; check [`Report::outcome`] to tell the two apart).
    Calibration(Option<Calibration>),
    /// Certified stability report, `None` when no equilibrium was
    /// localized or no certificate found (`Stability` queries).
    Stability(Option<StabilityReport>),
    /// Static analyzer findings, content-sorted and deterministic
    /// (`Lint` queries). An empty list means the model is clean over
    /// the assumed boxes.
    Lint(Vec<Diagnostic>),
}

/// The uniform analysis answer returned by every query.
///
/// Reports are `Clone` so result-level caches (the serving layer's
/// memoization) can hand out copies of a stored answer; a clone
/// fingerprints identically to its original.
#[derive(Clone, Debug)]
pub struct Report {
    /// Which query produced this report.
    pub kind: QueryKind,
    /// Budget outcome.
    pub outcome: Outcome,
    /// The verdict/estimate payload.
    pub value: Value,
    /// Structured provenance.
    pub provenance: Provenance,
}

impl Report {
    /// A deterministic rendering of everything except the caller-supplied
    /// wall time: two reports fingerprint equal iff seed, sample counts,
    /// outcome, and every payload float are bit-identical (floats render
    /// via their shortest round-trip form, which is injective on bit
    /// patterns up to NaN payloads). This is what the par==seq and
    /// cache-consistency tests compare.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{:?}|{:?}|{:?}|seed={} samples={} early={:?} steps={:?}",
            self.kind,
            self.outcome,
            self.value,
            self.provenance.seed,
            self.provenance.samples,
            self.provenance.early_stop_rate,
            self.provenance.avg_steps,
        );
        // Callers keep fingerprints to compare later; growth by doubling
        // would leave a ~140-byte fingerprint in a 256-byte buffer.
        s.shrink_to_fit();
        s
    }
}
