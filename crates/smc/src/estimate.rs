//! Sequential and fixed-sample statistical tests, and the parameter
//! rule of each.

/// Refuses a sample count or cap of zero: every method needs at least
/// one sample. `what` names the count (`"n"`, `"samples"`,
/// `"max_samples"`).
pub fn check_samples(what: &'static str, n: usize) -> Result<(), (&'static str, String)> {
    if n > 0 {
        Ok(())
    } else {
        Err((what, "need at least one sample, got 0".into()))
    }
}

/// The SPRT's rule: a positive indifference width δ with `θ ± δ` inside
/// (0, 1), so both hypotheses are proper, disjoint Bernoulli parameters
/// (with δ < 0 they swap and the test accepts the wrong one; with δ = 0
/// it never decides), and both error levels in (0, 1) (with α = 2 the
/// `H₁` threshold is negative and the first sample decides).
pub fn check_sprt(
    theta: f64,
    indiff: f64,
    alpha: f64,
    beta: f64,
) -> Result<(), (&'static str, String)> {
    if !(indiff > 0.0 && theta - indiff > 0.0 && theta + indiff < 1.0) {
        return Err((
            "theta/indiff",
            format!("need indiff > 0 and theta ± indiff inside (0, 1), got {theta} ± {indiff}"),
        ));
    }
    if !(alpha > 0.0 && alpha < 1.0 && beta > 0.0 && beta < 1.0) {
        return Err((
            "alpha/beta",
            format!("error levels must lie in (0, 1), got {alpha}, {beta}"),
        ));
    }
    Ok(())
}

/// The Chernoff–Hoeffding rule: the error bound ε and the failure
/// probability δ both in (0, 1).
pub fn check_chernoff(eps: f64, delta: f64) -> Result<(), (&'static str, String)> {
    if eps > 0.0 && eps < 1.0 && delta > 0.0 && delta < 1.0 {
        Ok(())
    } else {
        Err((
            "eps/delta",
            format!("need eps, delta in (0, 1), got {eps}, {delta}"),
        ))
    }
}

/// The Bayesian estimator's rule: a half-width in (0, 0.5) and a
/// confidence in (0.5, 1).
pub fn check_bayes(half_width: f64, confidence: f64) -> Result<(), (&'static str, String)> {
    if !(half_width > 0.0 && half_width < 0.5) {
        return Err((
            "half_width",
            format!("need half_width in (0, 0.5), got {half_width}"),
        ));
    }
    if !(confidence > 0.5 && confidence < 1.0) {
        return Err((
            "confidence",
            format!("need confidence in (0.5, 1), got {confidence}"),
        ));
    }
    Ok(())
}

/// Panics with the message of a refused parameter.
#[track_caller]
pub(crate) fn require(check: Result<(), (&'static str, String)>) {
    if let Err((what, detail)) = check {
        panic!("{what}: {detail}");
    }
}

/// Outcome of the SPRT.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SprtOutcome {
    /// `H₀: p ≥ θ + δ` accepted (the property holds with probability ≥ θ).
    AcceptH0,
    /// `H₁: p ≤ θ − δ` accepted.
    AcceptH1,
    /// The sample budget ran out inside the indifference region.
    Inconclusive,
}

/// Result of a sequential probability ratio test.
#[derive(Copy, Clone, Debug)]
pub struct SprtResult {
    /// The verdict.
    pub outcome: SprtOutcome,
    /// Samples consumed.
    pub samples: usize,
    /// Empirical satisfaction fraction among those samples.
    pub p_hat: f64,
}

/// Resumable Wald SPRT: the log-likelihood-ratio accumulator behind
/// [`sprt`], exposed so drivers that interleave sample generation with
/// budget checks (a query's lane stream) can push samples one at a time
/// and stop at any sample. Pushing the same sample sequence reproduces
/// [`sprt`] bit-for-bit.
#[derive(Clone, Debug)]
pub struct SprtState {
    llr: f64,
    hits: usize,
    n: usize,
    accept_h1: f64,
    accept_h0: f64,
    l_pos: f64,
    l_neg: f64,
}

impl SprtState {
    /// Creates an accumulator for `H₀: p ≥ θ+δ` vs `H₁: p ≤ θ−δ` at
    /// error levels (α, β).
    ///
    /// # Panics
    ///
    /// Panics on arguments [`check_sprt`] refuses.
    pub fn new(theta: f64, indiff: f64, alpha: f64, beta: f64) -> SprtState {
        require(check_sprt(theta, indiff, alpha, beta));
        let p0 = theta + indiff; // boundary of H0
        let p1 = theta - indiff; // boundary of H1
        SprtState {
            llr: 0.0,
            hits: 0,
            n: 0,
            accept_h1: ((1.0 - beta) / alpha).ln(),
            accept_h0: (beta / (1.0 - alpha)).ln(),
            // Contribution of a success to log LR(H1/H0).
            l_pos: (p1 / p0).ln(),
            l_neg: ((1.0 - p1) / (1.0 - p0)).ln(),
        }
    }

    /// Feeds one Bernoulli sample; returns the verdict once a decision
    /// boundary is crossed, `None` while the test is still running.
    pub fn push(&mut self, sample: bool) -> Option<SprtOutcome> {
        self.n += 1;
        if sample {
            self.hits += 1;
            self.llr += self.l_pos;
        } else {
            self.llr += self.l_neg;
        }
        if self.llr >= self.accept_h1 {
            return Some(SprtOutcome::AcceptH1);
        }
        if self.llr <= self.accept_h0 {
            return Some(SprtOutcome::AcceptH0);
        }
        None
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> usize {
        self.n
    }

    /// Packages the result with the given outcome (the decision from
    /// [`SprtState::push`], or [`SprtOutcome::Inconclusive`] when the
    /// caller's budget ran out first).
    pub fn result(&self, outcome: SprtOutcome) -> SprtResult {
        SprtResult {
            outcome,
            samples: self.n,
            p_hat: if self.n == 0 {
                0.0
            } else {
                self.hits as f64 / self.n as f64
            },
        }
    }
}

/// Wald's SPRT for `H₀: p ≥ θ+δ` vs `H₁: p ≤ θ−δ` with type-I/II error
/// bounds `alpha`/`beta` and indifference half-width `indiff`.
///
/// # Panics
///
/// Panics on arguments [`check_sprt`] refuses.
pub fn sprt<F: FnMut() -> bool>(
    mut sample: F,
    theta: f64,
    indiff: f64,
    alpha: f64,
    beta: f64,
    max_samples: usize,
) -> SprtResult {
    let mut state = SprtState::new(theta, indiff, alpha, beta);
    for _ in 0..max_samples {
        if let Some(outcome) = state.push(sample()) {
            return state.result(outcome);
        }
    }
    state.result(SprtOutcome::Inconclusive)
}

/// A probability estimate with its guarantee parameters.
#[derive(Copy, Clone, Debug)]
pub struct Estimate {
    /// Point estimate.
    pub p_hat: f64,
    /// Samples used.
    pub samples: usize,
    /// Half-width of the reported interval.
    pub half_width: f64,
    /// Confidence level of the interval.
    pub confidence: f64,
}

/// The Chernoff–Hoeffding sample size: `n = ⌈ln(2/δ) / (2ε²)⌉` samples
/// give `P(|p̂ − p| > ε) ≤ δ`. Shared by the sequential and parallel
/// estimators so their sample counts can never diverge.
///
/// # Panics
///
/// Panics on arguments [`check_chernoff`] refuses.
pub fn chernoff_sample_size(eps: f64, delta: f64) -> usize {
    require(check_chernoff(eps, delta));
    ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as usize
}

/// Chernoff–Hoeffding estimation with [`chernoff_sample_size`] samples.
///
/// # Panics
///
/// Panics on arguments [`check_chernoff`] refuses.
pub fn chernoff_estimate<F: FnMut() -> bool>(mut sample: F, eps: f64, delta: f64) -> Estimate {
    let n = chernoff_sample_size(eps, delta);
    let mut hits = 0usize;
    for _ in 0..n {
        if sample() {
            hits += 1;
        }
    }
    Estimate {
        p_hat: hits as f64 / n as f64,
        samples: n,
        half_width: eps,
        confidence: 1.0 - delta,
    }
}

/// Resumable Bayesian estimation with a `Beta(1, 1)` prior: the
/// posterior accumulator behind [`bayes_estimate`], exposed so budgeted
/// drivers can push samples between cancellation checks. Pushing the
/// same sample sequence reproduces [`bayes_estimate`] bit-for-bit.
#[derive(Clone, Debug)]
pub struct BayesState {
    a: f64, // successes + 1
    b: f64, // failures + 1
    n: usize,
    z: f64,
    half_width: f64,
    confidence: f64,
}

impl BayesState {
    /// Creates an accumulator stopping once the (normal-approximated)
    /// credible interval at `confidence` is narrower than
    /// `2·half_width`.
    ///
    /// # Panics
    ///
    /// Panics on arguments [`check_bayes`] refuses.
    pub fn new(half_width: f64, confidence: f64) -> BayesState {
        require(check_bayes(half_width, confidence));
        BayesState {
            a: 1.0,
            b: 1.0,
            n: 0,
            // Two-sided z for the requested coverage (rational
            // approximation of the probit function).
            z: probit(0.5 + confidence / 2.0),
            half_width,
            confidence,
        }
    }

    /// Feeds one Bernoulli sample; returns the estimate once the
    /// credible interval is narrow enough, `None` while undecided.
    pub fn push(&mut self, sample: bool) -> Option<Estimate> {
        if sample {
            self.a += 1.0;
        } else {
            self.b += 1.0;
        }
        self.n += 1;
        let mean = self.a / (self.a + self.b);
        let var =
            self.a * self.b / ((self.a + self.b) * (self.a + self.b) * (self.a + self.b + 1.0));
        if self.n >= 16 && self.z * var.sqrt() <= self.half_width {
            Some(Estimate {
                p_hat: mean,
                samples: self.n,
                half_width: self.half_width,
                confidence: self.confidence,
            })
        } else {
            None
        }
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> usize {
        self.n
    }

    /// The posterior-mean estimate at the current sample count (used
    /// when the caller's budget runs out before the interval closes).
    pub fn finish(&self) -> Estimate {
        Estimate {
            p_hat: self.a / (self.a + self.b),
            samples: self.n,
            half_width: self.half_width,
            confidence: self.confidence,
        }
    }
}

/// Bayesian estimation with a `Beta(1, 1)` prior: samples until the
/// (normal-approximated) credible interval at `confidence` is narrower
/// than `2·half_width`, or the budget runs out.
///
/// # Panics
///
/// Panics on arguments [`check_bayes`] refuses.
pub fn bayes_estimate<F: FnMut() -> bool>(
    mut sample: F,
    half_width: f64,
    confidence: f64,
    max_samples: usize,
) -> Estimate {
    let mut state = BayesState::new(half_width, confidence);
    while state.samples() < max_samples {
        if let Some(estimate) = state.push(sample()) {
            return estimate;
        }
    }
    state.finish()
}

/// Inverse standard-normal CDF (Acklam's rational approximation; absolute
/// error < 1.2e-9 — far below statistical noise here).
fn probit(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bernoulli(p: f64, seed: u64) -> impl FnMut() -> bool {
        let mut rng = StdRng::seed_from_u64(seed);
        move || rng.gen::<f64>() < p
    }

    #[test]
    fn sprt_accepts_h0_when_p_high() {
        let r = sprt(bernoulli(0.95, 1), 0.8, 0.05, 0.01, 0.01, 100_000);
        assert_eq!(r.outcome, SprtOutcome::AcceptH0);
        assert!(r.samples < 1000, "SPRT should stop early: {}", r.samples);
    }

    #[test]
    fn sprt_accepts_h1_when_p_low() {
        let r = sprt(bernoulli(0.5, 2), 0.8, 0.05, 0.01, 0.01, 100_000);
        assert_eq!(r.outcome, SprtOutcome::AcceptH1);
    }

    #[test]
    fn sprt_inconclusive_inside_indifference() {
        // p exactly at θ: tiny budget keeps it undecided (usually).
        let r = sprt(bernoulli(0.8, 3), 0.8, 0.01, 0.001, 0.001, 50);
        assert_eq!(r.outcome, SprtOutcome::Inconclusive);
        assert_eq!(r.samples, 50);
    }

    #[test]
    fn sprt_error_rate_is_controlled() {
        // With p = 0.9 ≥ θ+δ = 0.85, H1 acceptances are type-II errors;
        // across repetitions they must stay rare.
        let mut wrong = 0;
        for seed in 0..100 {
            let r = sprt(bernoulli(0.9, seed), 0.8, 0.05, 0.05, 0.05, 100_000);
            if r.outcome == SprtOutcome::AcceptH1 {
                wrong += 1;
            }
        }
        assert!(wrong <= 10, "type-II errors: {wrong}/100");
    }

    #[test]
    fn chernoff_sample_size_and_accuracy() {
        let e = chernoff_estimate(bernoulli(0.3, 4), 0.05, 0.05);
        // n = ln(40)/0.005 ≈ 738.
        assert!(e.samples >= 700 && e.samples <= 800, "n = {}", e.samples);
        assert!((e.p_hat - 0.3).abs() < 0.05, "p̂ = {}", e.p_hat);
        assert_eq!(e.confidence, 0.95);
    }

    #[test]
    fn bayes_estimate_converges() {
        let e = bayes_estimate(bernoulli(0.6, 5), 0.05, 0.95, 100_000);
        assert!((e.p_hat - 0.6).abs() < 0.08, "p̂ = {}", e.p_hat);
        assert!(e.samples < 100_000);
        // Tighter width needs more samples.
        let e2 = bayes_estimate(bernoulli(0.6, 5), 0.01, 0.95, 100_000);
        assert!(e2.samples > e.samples);
    }

    /// The push-based state machines must reproduce the closure-driven
    /// functions bit-for-bit on the same sample sequence — they are what
    /// the engine's budgeted lane streams drive.
    #[test]
    fn resumable_states_match_closure_drivers() {
        for (p, seed) in [(0.5, 1u64), (0.9, 2), (0.2, 3)] {
            // SPRT.
            let reference = sprt(bernoulli(p, seed), 0.8, 0.05, 0.01, 0.01, 5_000);
            let mut draw = bernoulli(p, seed);
            let mut st = SprtState::new(0.8, 0.05, 0.01, 0.01);
            let mut decided = None;
            while decided.is_none() && st.samples() < 5_000 {
                decided = st.push(draw());
            }
            let replay = st.result(decided.unwrap_or(SprtOutcome::Inconclusive));
            assert_eq!(replay.outcome, reference.outcome);
            assert_eq!(replay.samples, reference.samples);
            assert_eq!(replay.p_hat.to_bits(), reference.p_hat.to_bits());

            // Bayes.
            let reference = bayes_estimate(bernoulli(p, seed), 0.05, 0.95, 5_000);
            let mut draw = bernoulli(p, seed);
            let mut st = BayesState::new(0.05, 0.95);
            let mut done = None;
            while done.is_none() && st.samples() < 5_000 {
                done = st.push(draw());
            }
            let replay = done.unwrap_or_else(|| st.finish());
            assert_eq!(replay.samples, reference.samples);
            assert_eq!(replay.p_hat.to_bits(), reference.p_hat.to_bits());
        }
    }

    #[test]
    fn probit_sanity() {
        assert!(probit(0.5).abs() < 1e-8);
        assert!((probit(0.975) - 1.959964).abs() < 1e-4);
        assert!((probit(0.025) + 1.959964).abs() < 1e-4);
        assert!((probit(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "inside (0, 1)")]
    fn sprt_rejects_degenerate_theta() {
        let _ = sprt(|| true, 0.99, 0.05, 0.01, 0.01, 10);
    }

    #[test]
    #[should_panic(expected = "need indiff > 0")]
    fn sprt_rejects_a_non_positive_indifference_width() {
        // θ = 0.5, δ = −0.05 swaps the hypotheses: on p = 0.9 the test
        // would accept H₁ (p ≤ 0.55).
        let _ = SprtState::new(0.5, -0.05, 0.05, 0.05);
    }

    #[test]
    #[should_panic(expected = "error levels must lie in (0, 1)")]
    fn sprt_rejects_error_levels_of_one_or_more() {
        // With α = 2 the H₁ threshold ln((1 − β)/α) is negative, so the
        // first sample would accept H₁.
        let _ = SprtState::new(0.5, 0.1, 2.0, 0.05);
    }
}
