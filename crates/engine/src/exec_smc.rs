//! The budget-aware SMC query loop.
//!
//! Every SMC query runs as one lane stream ([`TraceSampler::stats_stream`],
//! [`TraceSampler::robustness_stream`]): lanes claim sample indices —
//! sample `i` always draws from `fork_rng(seed, i)` — until the query's
//! rule (the estimate count, [`SprtState`], [`BayesState`] or the
//! robustness sums) stops them, and finished samples reach the rule one
//! at a time in index order. Parallel mode adds pool helpers to the
//! stream once per query. The budget is polled whenever a lane claims an
//! index: a raised cancellation flag or a passed deadline halts the
//! stream — in-flight lanes stop at their next accepted step and their
//! samples are discarded — and an exact sample cap is the stream's
//! limit. Either way the answer is a well-formed partial one over a
//! gap-free prefix of the sample indices.
//!
//! Because each sample is a pure function of `(seed, index)` and the
//! rules consume samples strictly in index order, every result here
//! that no budget cut short is bit-for-bit the corresponding sequential
//! reference's (`biocheck_smc::seq_estimate`, `seq_chernoff_estimate`,
//! `seq_sprt`, `seq_bayes_estimate`; `tests/equiv.rs` holds them equal),
//! except that an undecided Bayes run zeroes its unearned half-width and
//! confidence. Results are independent of thread count and lane width.
//! The session refuses parameters a rule cannot run
//! ([`Session::check`](crate::Session::check)) before any of these
//! runs.

use crate::budget::Budget;
use crate::query::EstimateMethod;
use crate::report::{Outcome, RobustnessSummary, Value};
use biocheck_smc::{
    chernoff_sample_size, BayesState, Estimate, SampleStats, SprtOutcome, SprtState, TraceSampler,
};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What an SMC query hands back to the session for packaging.
pub(crate) struct SmcOutcome {
    pub value: Value,
    pub outcome: Outcome,
    pub samples: usize,
    pub early_stop_rate: f64,
    pub avg_steps: f64,
}

fn rate(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The samples a query's rule consumed, with the instrumentation of
/// Boolean samples (a robustness sample records no steps).
#[derive(Default)]
struct Tally {
    drawn: usize,
    hits: usize,
    steps: usize,
    early: usize,
}

impl Tally {
    /// The query's answer `value` over the samples tallied; `exhausted`
    /// when the budget cut the run short.
    fn outcome(&self, value: Value, exhausted: bool) -> SmcOutcome {
        SmcOutcome {
            value,
            outcome: if exhausted {
                Outcome::Exhausted
            } else {
                Outcome::Complete
            },
            samples: self.drawn,
            early_stop_rate: rate(self.early, self.drawn),
            avg_steps: rate(self.steps, self.drawn),
        }
    }
}

/// One SMC query's sampling context: its sampler and seed, the budget
/// that polls its stream, and whether pool helpers may join.
pub(crate) struct Sampling<'a> {
    pub sampler: &'a TraceSampler,
    pub seed: u64,
    pub budget: &'a Budget,
    pub deadline: Option<Instant>,
    pub parallel: bool,
}

impl Sampling<'_> {
    /// The budget's sample cap applied to a query's own sample target.
    fn goal(&self, target: usize) -> usize {
        target.min(self.budget.max_samples.unwrap_or(usize::MAX))
    }

    /// Whether the budget's cancellation flag or deadline has tripped.
    fn interrupted(&self) -> bool {
        self.budget.interrupted(self.deadline)
    }

    /// Streams up to `limit` Boolean samples into `rule` (fed each
    /// verdict in index order; `true` once decided) and tallies what it
    /// consumed. `adaptive` marks a rule that may decide early.
    /// Progress counters are published as each sample is consumed:
    /// relaxed stores, invisible to the sample bodies themselves.
    fn stats(
        &self,
        limit: usize,
        adaptive: bool,
        mut rule: impl FnMut(bool) -> bool + Send,
    ) -> Tally {
        let progress = self.budget.trace.as_ref().map(|t| &t.progress);
        let poll = || self.interrupted();
        let mut tally = Tally::default();
        let stream = self
            .sampler
            .stats_stream(self.seed, limit, |st: SampleStats| {
                tally.drawn += 1;
                tally.hits += st.sat as usize;
                tally.steps += st.steps;
                tally.early += st.early_stop as usize;
                if let Some(p) = progress {
                    p.samples.store(tally.drawn as u64, Ordering::Relaxed);
                    p.rk_steps.store(tally.steps as u64, Ordering::Relaxed);
                }
                rule(st.sat)
            })
            .until(&poll);
        if adaptive {
            stream.adaptive().run(self.parallel);
        } else {
            stream.run(self.parallel);
        }
        tally
    }

    /// `Query::Estimate` (all three methods).
    pub(crate) fn estimate(&self, method: EstimateMethod) -> SmcOutcome {
        let (target, half_width, confidence) = match method {
            EstimateMethod::Fixed { n } => (n, 0.0, 0.0),
            EstimateMethod::Chernoff { eps, delta } => {
                (chernoff_sample_size(eps, delta), eps, 1.0 - delta)
            }
            EstimateMethod::Bayes {
                half_width,
                confidence,
                max_samples,
            } => return self.bayes(half_width, confidence, max_samples),
        };
        let tally = self.stats(self.goal(target), false, |_| false);
        let drawn = tally.drawn;
        // A budget-truncated run did not draw enough samples to honor
        // the method's statistical guarantee: its partial estimate
        // carries zeroed guarantee fields so no consumer can mistake it
        // for a full-strength Chernoff bound.
        let complete = drawn >= target;
        let estimate = Estimate {
            p_hat: rate(tally.hits, drawn),
            samples: drawn,
            half_width: if complete { half_width } else { 0.0 },
            confidence: if complete { confidence } else { 0.0 },
        };
        tally.outcome(Value::Estimate(estimate), !complete)
    }

    /// Feeds an adaptive rule (`push` returns its decision once made)
    /// at most `max_samples` samples. Returns the decision, the tally,
    /// and whether the budget cut the run short: an undecided run that
    /// did not reach the *query's* cap. Reaching that cap undecided is
    /// the rule's own answer.
    fn adaptive<D: Send>(
        &self,
        max_samples: usize,
        mut push: impl FnMut(bool) -> Option<D> + Send,
    ) -> (Option<D>, Tally, bool) {
        let mut decision = None;
        let tally = self.stats(self.goal(max_samples), true, |sat| {
            decision = push(sat);
            decision.is_some()
        });
        let exhausted = decision.is_none() && tally.drawn < max_samples;
        (decision, tally, exhausted)
    }

    /// `Query::Sprt`.
    pub(crate) fn sprt(
        &self,
        theta: f64,
        indiff: f64,
        alpha: f64,
        beta: f64,
        max_samples: usize,
    ) -> SmcOutcome {
        let mut state = SprtState::new(theta, indiff, alpha, beta);
        let (decision, tally, exhausted) = self.adaptive(max_samples, |sat| state.push(sat));
        let result = state.result(decision.unwrap_or(SprtOutcome::Inconclusive));
        tally.outcome(Value::Sprt(result), exhausted)
    }

    /// `EstimateMethod::Bayes` (adaptive stopping).
    fn bayes(&self, half_width: f64, confidence: f64, max_samples: usize) -> SmcOutcome {
        let mut state = BayesState::new(half_width, confidence);
        let (decision, tally, exhausted) = self.adaptive(max_samples, |sat| state.push(sat));
        // The credible interval never closed — whether the budget cut the
        // run short (`Exhausted`) or the method's own sample cap ended it
        // (`Complete`, the adaptive rule's own "give up" answer), the
        // requested half-width/confidence guarantee was not earned, so
        // the fields are zeroed either way (same convention as the
        // truncated fixed-sample methods).
        let estimate = decision.unwrap_or_else(|| Estimate {
            half_width: 0.0,
            confidence: 0.0,
            ..state.finish()
        });
        tally.outcome(Value::Estimate(estimate), exhausted)
    }

    /// `Query::Robustness`: single-pass `(satisfied, robustness)`
    /// samples through one lane stream; mean and min accumulate in index
    /// order, hence deterministically. A run stopped before any sample
    /// was drawn reports an all-zero summary.
    pub(crate) fn robustness(&self, samples: usize) -> SmcOutcome {
        let progress = self.budget.trace.as_ref().map(|t| &t.progress);
        let poll = || self.interrupted();
        let mut tally = Tally::default();
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        self.sampler
            .robustness_stream(self.seed, self.goal(samples), |(sat, rob)| {
                tally.drawn += 1;
                tally.hits += sat as usize;
                sum += rob;
                min = min.min(rob);
                if let Some(p) = progress {
                    p.samples.store(tally.drawn as u64, Ordering::Relaxed);
                }
                false
            })
            .until(&poll)
            .run(self.parallel);
        let drawn = tally.drawn;
        let summary = RobustnessSummary {
            p_hat: rate(tally.hits, drawn),
            mean: if drawn == 0 { 0.0 } else { sum / drawn as f64 },
            min: if drawn == 0 { 0.0 } else { min },
        };
        tally.outcome(Value::Robustness(summary), drawn < samples)
    }
}
