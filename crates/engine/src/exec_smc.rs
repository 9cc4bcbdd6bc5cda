//! The budget-aware speculative SMC batch loop.
//!
//! Samples are generated in index-ordered speculative batches (parallel
//! mode uses the work-stealing pool; sample `i` always draws from
//! `fork_rng(seed, i)`) and fed one at a time to the resumable decision
//! rules from `biocheck_smc` ([`SprtState`], [`BayesState`]). The budget
//! is polled between batches — a raised cancellation flag, a passed
//! deadline, or an exact sample cap stops the loop at the next batch
//! boundary with a well-formed partial answer.
//!
//! Because each sample is a pure function of `(seed, index)` and the
//! decision rules consume samples strictly in index order, every result
//! here is bit-for-bit identical to the corresponding `biocheck_smc`
//! free function (and independent of thread count and batch size).

use crate::budget::Budget;
use crate::query::EstimateMethod;
use crate::report::{Outcome, RobustnessSummary, Value};
use biocheck_smc::{
    chernoff_sample_size, par_fill, with_scratch, BayesState, Estimate, SampleScratch, SampleStats,
    Slots, SprtOutcome, SprtState, TraceSampler,
};
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

/// Index-ordered sample stream, refilled in speculative batches.
///
/// Generic over the range entry point that fills a batch (Boolean
/// stats, robustness pairs), so every SMC query shares one
/// batching/budget implementation. Sequential mode fills a batch with
/// one range call through a pooled scratch ([`with_scratch`]); parallel
/// mode has the pool's workers fill it together ([`par_fill`]). Each sample is
/// a pure function of its index (scratch reuse carries no state), which
/// makes the stream's contents independent of chunk size, thread count,
/// and execution mode.
struct Stream<'a, T, F> {
    sampler: &'a TraceSampler,
    parallel: bool,
    chunk: usize,
    /// Hard cap on generated samples (query target ∧ budget cap).
    limit: usize,
    /// Samples generated so far (across all batches).
    generated: usize,
    /// The current batch only — memory stays O(chunk), not O(total).
    buf: Vec<T>,
    next: usize,
    budget: &'a Budget,
    deadline: Option<Instant>,
    fill: F,
}

impl<'a, T, F> Stream<'a, T, F>
where
    T: Copy + Default + Send,
    F: Fn(&TraceSampler, u64, &mut SampleScratch, &Slots<T>) + Sync,
{
    fn new(
        sampler: &'a TraceSampler,
        parallel: bool,
        limit: usize,
        budget: &'a Budget,
        deadline: Option<Instant>,
        fill: F,
    ) -> Stream<'a, T, F> {
        let chunk = if parallel {
            32 * rayon::current_num_threads().max(1)
        } else {
            32
        };
        Stream {
            sampler,
            parallel,
            chunk,
            limit,
            generated: 0,
            buf: Vec::new(),
            next: 0,
            budget,
            deadline,
            fill,
        }
    }

    /// The next sample, or `None` when the limit was reached or the
    /// budget interrupted at a batch boundary.
    fn take(&mut self) -> Option<T> {
        if self.next == self.buf.len() {
            let want = self.chunk.min(self.limit.saturating_sub(self.generated));
            if want == 0 || self.budget.interrupted(self.deadline) {
                return None;
            }
            let base = self.generated as u64;
            self.buf.clear();
            self.buf.resize(want, T::default());
            let (sampler, fill, buf) = (self.sampler, &self.fill, &mut self.buf);
            if self.parallel {
                par_fill(sampler, base, buf, fill);
            } else {
                with_scratch(|scratch| fill(sampler, base, scratch, &Slots::new(buf)));
            }
            self.generated += want;
            self.next = 0;
            // Progress is published at the existing budget-poll point
            // (once per speculative batch): one relaxed store, no
            // allocation, invisible to the sample bodies themselves.
            if let Some(trace) = &self.budget.trace {
                trace
                    .progress
                    .samples
                    .store(self.generated as u64, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let t = self.buf[self.next];
        self.next += 1;
        Some(t)
    }
}

/// The Boolean-verdict batch fill shared by `Estimate`/`Sprt`:
/// instrumented stats from the fused simulate-and-monitor lanes.
fn stats_fill(
    seed: u64,
) -> impl Fn(&TraceSampler, u64, &mut SampleScratch, &Slots<SampleStats>) + Sync {
    move |sampler, first, scratch, slots| sampler.sample_stats_shared(seed, first, scratch, slots)
}

/// `Query::Estimate` (all three methods).
pub(crate) fn run_estimate(
    sampler: &TraceSampler,
    seed: u64,
    method: EstimateMethod,
    budget: &Budget,
    deadline: Option<Instant>,
    parallel: bool,
) -> SmcOutcome {
    let (target, half_width, confidence) = match method {
        EstimateMethod::Fixed { n } => (n, 0.0, 0.0),
        EstimateMethod::Chernoff { eps, delta } => {
            (chernoff_sample_size(eps, delta), eps, 1.0 - delta)
        }
        EstimateMethod::Bayes {
            half_width,
            confidence,
            max_samples,
        } => {
            return run_bayes(
                sampler,
                seed,
                half_width,
                confidence,
                max_samples,
                budget,
                deadline,
                parallel,
            )
        }
    };
    let goal = target.min(budget.max_samples.unwrap_or(usize::MAX));
    let mut stream = Stream::new(sampler, parallel, goal, budget, deadline, stats_fill(seed));
    let progress = budget.trace.as_ref().map(|t| &t.progress);
    let (mut hits, mut drawn, mut steps, mut early) = (0usize, 0usize, 0usize, 0usize);
    while drawn < goal {
        let Some(st) = stream.take() else { break };
        drawn += 1;
        hits += st.sat as usize;
        steps += st.steps;
        early += st.early_stop as usize;
        if let Some(p) = progress {
            p.rk_steps
                .store(steps as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }
    // A budget-truncated run did not draw enough samples to honor the
    // method's statistical guarantee: its partial estimate carries
    // zeroed guarantee fields so no consumer can mistake it for a
    // full-strength Chernoff bound.
    let complete = drawn >= target;
    SmcOutcome {
        value: Value::Estimate(Estimate {
            p_hat: rate(hits, drawn),
            samples: drawn,
            half_width: if complete { half_width } else { 0.0 },
            confidence: if complete { confidence } else { 0.0 },
        }),
        outcome: if complete {
            Outcome::Complete
        } else {
            Outcome::Exhausted
        },
        samples: drawn,
        early_stop_rate: rate(early, drawn),
        avg_steps: rate(steps, drawn),
    }
}

/// `Query::Sprt`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sprt(
    sampler: &TraceSampler,
    seed: u64,
    theta: f64,
    indiff: f64,
    alpha: f64,
    beta: f64,
    max_samples: usize,
    budget: &Budget,
    deadline: Option<Instant>,
    parallel: bool,
) -> SmcOutcome {
    let goal = max_samples.min(budget.max_samples.unwrap_or(usize::MAX));
    let mut stream = Stream::new(sampler, parallel, goal, budget, deadline, stats_fill(seed));
    let progress = budget.trace.as_ref().map(|t| &t.progress);
    let mut state = SprtState::new(theta, indiff, alpha, beta);
    let (mut steps, mut early) = (0usize, 0usize);
    let mut decision = None;
    while decision.is_none() && state.samples() < goal {
        let Some(st) = stream.take() else { break };
        steps += st.steps;
        early += st.early_stop as usize;
        decision = state.push(st.sat);
        if let Some(p) = progress {
            p.rk_steps
                .store(steps as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let drawn = state.samples();
    // An undecided test that did not reach the *query's* cap was cut by
    // the budget; reaching the query cap undecided is the test's own
    // `Inconclusive` answer.
    let exhausted = decision.is_none() && drawn < max_samples;
    SmcOutcome {
        value: Value::Sprt(state.result(decision.unwrap_or(SprtOutcome::Inconclusive))),
        outcome: if exhausted {
            Outcome::Exhausted
        } else {
            Outcome::Complete
        },
        samples: drawn,
        early_stop_rate: rate(early, drawn),
        avg_steps: rate(steps, drawn),
    }
}

/// `EstimateMethod::Bayes` (adaptive stopping).
#[allow(clippy::too_many_arguments)]
fn run_bayes(
    sampler: &TraceSampler,
    seed: u64,
    half_width: f64,
    confidence: f64,
    max_samples: usize,
    budget: &Budget,
    deadline: Option<Instant>,
    parallel: bool,
) -> SmcOutcome {
    let goal = max_samples.min(budget.max_samples.unwrap_or(usize::MAX));
    let mut stream = Stream::new(sampler, parallel, goal, budget, deadline, stats_fill(seed));
    let progress = budget.trace.as_ref().map(|t| &t.progress);
    let mut state = BayesState::new(half_width, confidence);
    let (mut steps, mut early) = (0usize, 0usize);
    let mut decision = None;
    while decision.is_none() && state.samples() < goal {
        let Some(st) = stream.take() else { break };
        steps += st.steps;
        early += st.early_stop as usize;
        decision = state.push(st.sat);
        if let Some(p) = progress {
            p.rk_steps
                .store(steps as u64, std::sync::atomic::Ordering::Relaxed);
        }
    }
    let drawn = state.samples();
    let exhausted = decision.is_none() && drawn < max_samples;
    let mut estimate = decision.unwrap_or_else(|| state.finish());
    if decision.is_none() {
        // The credible interval never closed — whether the budget cut
        // the run short (`Exhausted`) or the method's own sample cap
        // ended it (`Complete`, the adaptive rule's own "give up"
        // answer), the requested half-width/confidence guarantee was
        // not earned, so the fields are zeroed either way (same
        // convention as the truncated fixed-sample methods).
        estimate.half_width = 0.0;
        estimate.confidence = 0.0;
    }
    SmcOutcome {
        value: Value::Estimate(estimate),
        outcome: if exhausted {
            Outcome::Exhausted
        } else {
            Outcome::Complete
        },
        samples: drawn,
        early_stop_rate: rate(early, drawn),
        avg_steps: rate(steps, drawn),
    }
}

/// `Query::Robustness`: single-pass `(satisfied, robustness)` samples
/// through the same speculative stream; mean and min accumulate in
/// index order, hence deterministically. A run stopped before any
/// sample was drawn reports an all-zero summary.
pub(crate) fn run_robustness(
    sampler: &TraceSampler,
    seed: u64,
    samples: usize,
    budget: &Budget,
    deadline: Option<Instant>,
    parallel: bool,
) -> SmcOutcome {
    let goal = samples.min(budget.max_samples.unwrap_or(usize::MAX));
    let mut stream = Stream::new(
        sampler,
        parallel,
        goal,
        budget,
        deadline,
        move |s: &TraceSampler, first, scratch: &mut SampleScratch, slots: &Slots<(bool, f64)>| {
            s.sample_robustness_shared(seed, first, scratch, slots)
        },
    );
    let (mut hits, mut drawn) = (0usize, 0usize);
    let mut sum = 0.0f64;
    let mut min = f64::INFINITY;
    while drawn < goal {
        let Some((sat, rob)) = stream.take() else {
            break;
        };
        drawn += 1;
        hits += sat as usize;
        sum += rob;
        min = min.min(rob);
    }
    SmcOutcome {
        value: Value::Robustness(RobustnessSummary {
            p_hat: rate(hits, drawn),
            mean: if drawn == 0 { 0.0 } else { sum / drawn as f64 },
            min: if drawn == 0 { 0.0 } else { min },
        }),
        outcome: if drawn < samples {
            Outcome::Exhausted
        } else {
            Outcome::Complete
        },
        samples: drawn,
        early_stop_rate: 0.0,
        avg_steps: 0.0,
    }
}
