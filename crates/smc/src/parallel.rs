//! Per-sample random streams and the sequential SMC references.
//!
//! Trajectory sampling is embarrassingly parallel — each Bernoulli sample
//! simulates an independent random instantiation — but naive
//! parallelization destroys reproducibility: worker threads would consume
//! a shared RNG stream in schedule-dependent order. Every estimator here
//! and in the engine instead **forks a per-sample RNG from a master
//! seed**: sample `i` always draws from `fork_rng(seed, i)`, so the
//! sample vector (and hence every estimate, verdict, and confidence
//! interval derived from it) is bit-for-bit identical whether computed
//! on 1 thread or 64.
//!
//! The `seq_*` functions run each estimator on one thread, one scalar
//! sample at a time, over those per-index streams. They are the
//! reference the parallel path is tested against: the `biocheck_engine`
//! crate's `Session` drives the same rules over lockstep-lane streams
//! ([`LaneStream`](crate::LaneStream)) with budgets and cancellation,
//! and its tests hold every answer to the `seq_*` one bit for bit.

use crate::estimate::{
    bayes_estimate, check_samples, chernoff_estimate, require, sprt, Estimate, SprtResult,
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

/// Samples `0, 1, 2, ...` of the per-index streams, one scalar sample
/// per call through one reused scratch.
fn scalar_samples(sampler: &TraceSampler, seed: u64) -> impl FnMut() -> bool + '_ {
    let mut scratch = sampler.scratch();
    let mut next = 0u64;
    move || {
        let i = next;
        next += 1;
        sampler.sample_with(&mut fork_rng(seed, i), &mut scratch)
    }
}

/// Fixed-sample estimate of the satisfaction probability from samples
/// `0..n`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn seq_estimate(sampler: &TraceSampler, seed: u64, n: usize) -> f64 {
    require(check_samples("n", n));
    let mut sample = scalar_samples(sampler, seed);
    let hits = (0..n).filter(|_| sample()).count();
    hits as f64 / n as f64
}

/// Chernoff–Hoeffding estimation over samples `0, 1, ...` (see
/// [`chernoff_estimate`]).
///
/// # Panics
///
/// Panics on arguments [`check_chernoff`](crate::check_chernoff)
/// refuses.
pub fn seq_chernoff_estimate(sampler: &TraceSampler, seed: u64, eps: f64, delta: f64) -> Estimate {
    chernoff_estimate(scalar_samples(sampler, seed), eps, delta)
}

/// Bayesian estimation (`Beta(1, 1)` prior, adaptive stopping) over
/// samples `0, 1, ...` (see [`bayes_estimate`]).
///
/// # Panics
///
/// Panics on arguments [`check_bayes`](crate::check_bayes) refuses.
pub fn seq_bayes_estimate(
    sampler: &TraceSampler,
    seed: u64,
    half_width: f64,
    confidence: f64,
    max_samples: usize,
) -> Estimate {
    let sample = scalar_samples(sampler, seed);
    bayes_estimate(sample, half_width, confidence, max_samples)
}

/// Wald's SPRT over samples `0, 1, ...` (see [`sprt`]).
///
/// # Panics
///
/// Panics on arguments [`check_sprt`](crate::check_sprt) refuses.
pub fn seq_sprt(
    sampler: &TraceSampler,
    seed: u64,
    theta: f64,
    indiff: f64,
    alpha: f64,
    beta: f64,
    max_samples: usize,
) -> SprtResult {
    let sample = scalar_samples(sampler, seed);
    sprt(sample, theta, indiff, alpha, beta, max_samples)
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
    fn parallel_bayes_stops_adaptively() {
        let s = threshold_sampler();
        let wide = seq_bayes_estimate(&s, 7, 0.1, 0.9, 50_000);
        let tight = seq_bayes_estimate(&s, 7, 0.03, 0.9, 50_000);
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
        let p = seq_estimate(&s, 5, 600);
        assert!((p - 0.5).abs() < 0.1, "p = {p}");
    }

    #[test]
    fn different_seeds_give_different_sample_vectors() {
        let s = threshold_sampler();
        let a = seq_estimate(&s, 1, 400);
        let b = seq_estimate(&s, 2, 400);
        // Means are close but the underlying vectors differ; with 400
        // draws the two estimates almost surely differ a little.
        assert_ne!(a.to_bits(), b.to_bits());
    }
}
