//! Deterministic parallel trajectory sampling.
//!
//! Trajectory sampling is embarrassingly parallel — each Bernoulli sample
//! simulates an independent random instantiation — but naive
//! parallelization destroys reproducibility: worker threads would consume
//! a shared RNG stream in schedule-dependent order. This module instead
//! **forks a per-sample RNG from a master seed**: sample `i` always draws
//! from `fork_rng(seed, i)`, so the sample vector (and hence every
//! estimate, verdict, and confidence interval derived from it) is
//! bit-for-bit identical whether computed on 1 thread or 64.
//!
//! The `seq_*` functions are the same estimators run on one thread over
//! the same per-index streams; `parallel == sequential` is asserted by
//! the property tests at the bottom of this file. The `par_*` functions
//! sample through one [`LaneStream`](crate::LaneStream) per call, in
//! lockstep lanes, and the `seq_*` ones one scalar sample at a time, so
//! those tests also hold the lanes to the scalar path.
//!
//! Adaptive-stopping procedures (SPRT, Bayes) consume the stream in
//! index order, so the verdict and the reported sample count match the
//! sequential run exactly; lanes run at most `samplers × LANES` samples
//! past the decision, and those are discarded.
//!
//! These free functions have no notion of budgets or cancellation; the
//! `biocheck_engine` crate's `Session` API drives the same streams with
//! its budget as their poll and should be preferred by application
//! code.

use crate::estimate::{
    bayes_estimate, sprt, BayesState, Estimate, SprtOutcome, SprtResult, SprtState,
};
use crate::sampler::TraceSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-index seed fork: a SplitMix64-style mix of a master seed and
/// an index. Shared by [`fork_rng`] (per-sample streams) and the engine
/// crate's `run_batch` (per-query streams), so both levels of forking
/// use the same well-mixed generator.
pub fn fork_seed(master_seed: u64, index: u64) -> u64 {
    let mut z = master_seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The per-sample generator: [`fork_seed`] of the master seed and the
/// sample index seeds an independent [`StdRng`].
pub fn fork_rng(master_seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(fork_seed(master_seed, index))
}

/// Parallel fixed-sample estimate of the satisfaction probability.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn par_estimate(sampler: &TraceSampler, seed: u64, n: usize) -> f64 {
    assert!(n > 0, "estimate needs at least one sample");
    let mut hits = 0usize;
    sampler
        .stats_stream(seed, n, |st| {
            hits += st.sat as usize;
            false
        })
        .run(true);
    hits as f64 / n as f64
}

/// Sequential reference for [`par_estimate`] (same per-index streams).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn seq_estimate(sampler: &TraceSampler, seed: u64, n: usize) -> f64 {
    assert!(n > 0, "estimate needs at least one sample");
    let mut scratch = sampler.scratch();
    let hits = (0..n as u64)
        .filter(|&i| sampler.sample_with(&mut fork_rng(seed, i), &mut scratch))
        .count();
    hits as f64 / n as f64
}

/// Parallel Chernoff–Hoeffding estimation with
/// [`chernoff_sample_size`](crate::chernoff_sample_size) samples,
/// computed across worker threads.
///
/// # Panics
///
/// Panics unless `0 < eps < 1` and `0 < delta < 1`.
pub fn par_chernoff_estimate(sampler: &TraceSampler, seed: u64, eps: f64, delta: f64) -> Estimate {
    let n = crate::chernoff_sample_size(eps, delta);
    Estimate {
        p_hat: par_estimate(sampler, seed, n),
        samples: n,
        half_width: eps,
        confidence: 1.0 - delta,
    }
}

/// Sequential reference for [`par_chernoff_estimate`].
///
/// # Panics
///
/// Panics unless `0 < eps < 1` and `0 < delta < 1`.
pub fn seq_chernoff_estimate(sampler: &TraceSampler, seed: u64, eps: f64, delta: f64) -> Estimate {
    let n = crate::chernoff_sample_size(eps, delta);
    Estimate {
        p_hat: seq_estimate(sampler, seed, n),
        samples: n,
        half_width: eps,
        confidence: 1.0 - delta,
    }
}

/// Parallel SPRT: Wald's sequential test fed in index order by one
/// adaptive [`LaneStream`](crate::LaneStream). Verdict, sample count,
/// and `p_hat` are identical to [`seq_sprt`] with the same seed.
///
/// # Panics
///
/// Panics on degenerate arguments (see [`sprt`](crate::sprt)).
#[allow(clippy::too_many_arguments)]
pub fn par_sprt(
    sampler: &TraceSampler,
    seed: u64,
    theta: f64,
    indiff: f64,
    alpha: f64,
    beta: f64,
    max_samples: usize,
) -> SprtResult {
    let mut state = SprtState::new(theta, indiff, alpha, beta);
    let mut decision = None;
    sampler
        .stats_stream(seed, max_samples, |st| {
            decision = state.push(st.sat);
            decision.is_some()
        })
        .adaptive()
        .run(true);
    state.result(decision.unwrap_or(SprtOutcome::Inconclusive))
}

/// Parallel Bayesian estimation (`Beta(1, 1)` prior, adaptive stopping)
/// fed in index order by one adaptive [`LaneStream`](crate::LaneStream).
/// Estimate and sample count are identical to [`seq_bayes_estimate`]
/// with the same seed — the adaptive stopping rule sees samples in index
/// order regardless of which lane simulated them.
///
/// # Panics
///
/// Panics on out-of-range arguments (see [`bayes_estimate`]).
pub fn par_bayes_estimate(
    sampler: &TraceSampler,
    seed: u64,
    half_width: f64,
    confidence: f64,
    max_samples: usize,
) -> Estimate {
    let mut state = BayesState::new(half_width, confidence);
    let mut decision = None;
    sampler
        .stats_stream(seed, max_samples, |st| {
            decision = state.push(st.sat);
            decision.is_some()
        })
        .adaptive()
        .run(true);
    decision.unwrap_or_else(|| state.finish())
}

/// Sequential reference for [`par_bayes_estimate`] (same per-index
/// streams).
///
/// # Panics
///
/// Panics on out-of-range arguments (see [`bayes_estimate`]).
pub fn seq_bayes_estimate(
    sampler: &TraceSampler,
    seed: u64,
    half_width: f64,
    confidence: f64,
    max_samples: usize,
) -> Estimate {
    let mut i = 0u64;
    let mut scratch = sampler.scratch();
    let mut take = move || {
        let b = sampler.sample_with(&mut fork_rng(seed, i), &mut scratch);
        i += 1;
        b
    };
    bayes_estimate(&mut take, half_width, confidence, max_samples)
}

/// Sequential reference for [`par_sprt`] (same per-index streams).
pub fn seq_sprt(
    sampler: &TraceSampler,
    seed: u64,
    theta: f64,
    indiff: f64,
    alpha: f64,
    beta: f64,
    max_samples: usize,
) -> SprtResult {
    let mut i = 0u64;
    let mut scratch = sampler.scratch();
    let mut take = move || {
        let b = sampler.sample_with(&mut fork_rng(seed, i), &mut scratch);
        i += 1;
        b
    };
    sprt(&mut take, theta, indiff, alpha, beta, max_samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Dist;
    use biocheck_bltl::Bltl;
    use biocheck_expr::{Atom, Context, RelOp};
    use biocheck_ode::OdeSystem;

    /// Decay from x₀ ~ U[0.5, 1.5]; F≤0.01 (x ≥ 1) ⇔ x₀ ≥ ~1 ⇒ p ≈ 0.5.
    fn threshold_sampler() -> TraceSampler {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse("x - 1").unwrap();
        let prop = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        TraceSampler::new(cx, &sys, vec![Dist::Uniform(0.5, 1.5)], vec![], prop, 0.01)
    }

    #[test]
    fn forked_streams_are_independent_of_schedule() {
        // fork_rng is a pure function of (seed, index).
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for i in [0u64, 1, 1000] {
                let mut a = fork_rng(seed, i);
                let mut b = fork_rng(seed, i);
                use rand::RngCore;
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn parallel_estimate_matches_sequential_bit_for_bit() {
        let s = threshold_sampler();
        for seed in [1u64, 42, 2020] {
            let p_par = par_estimate(&s, seed, 200);
            let p_seq = seq_estimate(&s, seed, 200);
            assert_eq!(p_par.to_bits(), p_seq.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_chernoff_matches_sequential_bit_for_bit() {
        let s = threshold_sampler();
        let a = par_chernoff_estimate(&s, 9, 0.1, 0.2);
        let b = seq_chernoff_estimate(&s, 9, 0.1, 0.2);
        assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits());
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.half_width, b.half_width);
        assert_eq!(a.confidence, b.confidence);
    }

    #[test]
    fn parallel_sprt_matches_sequential_verdict_and_count() {
        let s = threshold_sampler();
        // p ≈ 0.5, H0: p ≥ 0.85 vs H1: p ≤ 0.75 → AcceptH1 quickly.
        for seed in [3u64, 11] {
            let a = par_sprt(&s, seed, 0.8, 0.05, 0.05, 0.05, 10_000);
            let b = seq_sprt(&s, seed, 0.8, 0.05, 0.05, 0.05, 10_000);
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
            assert_eq!(a.samples, b.samples, "seed {seed}");
            assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_bayes_matches_sequential_bit_for_bit() {
        let s = threshold_sampler();
        for seed in [4u64, 19] {
            let a = par_bayes_estimate(&s, seed, 0.08, 0.9, 5_000);
            let b = seq_bayes_estimate(&s, seed, 0.08, 0.9, 5_000);
            assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits(), "seed {seed}");
            assert_eq!(a.samples, b.samples, "seed {seed}");
            assert_eq!(a.half_width, b.half_width);
            assert_eq!(a.confidence, b.confidence);
        }
    }

    #[test]
    fn parallel_bayes_stops_adaptively() {
        let s = threshold_sampler();
        let wide = par_bayes_estimate(&s, 7, 0.1, 0.9, 50_000);
        let tight = par_bayes_estimate(&s, 7, 0.03, 0.9, 50_000);
        assert!(
            wide.samples < tight.samples,
            "tighter width needs more samples"
        );
        assert!(tight.samples < 50_000, "budget should not be exhausted");
        assert!((wide.p_hat - 0.5).abs() < 0.2, "p̂ = {}", wide.p_hat);
    }

    #[test]
    fn estimate_is_statistically_sane() {
        let s = threshold_sampler();
        let p = par_estimate(&s, 5, 600);
        assert!((p - 0.5).abs() < 0.1, "p = {p}");
    }

    #[test]
    fn different_seeds_give_different_sample_vectors() {
        let s = threshold_sampler();
        let a = par_estimate(&s, 1, 400);
        let b = par_estimate(&s, 2, 400);
        // Means are close but the underlying vectors differ; with 400
        // draws the two estimates almost surely differ a little.
        assert_ne!(a.to_bits(), b.to_bits());
    }
}
