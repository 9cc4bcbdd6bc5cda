//! Statistical model checking (SMC): the probabilistic branch of the
//! paper's framework (Fig. 2) for models with probabilistic initial
//! states, used when δ-decision analysis rejects a model and hypotheses
//! must be generated and tested statistically.
//!
//! Contents:
//!
//! * [`Dist`] — initial-state/parameter distributions.
//! * [`TraceSampler`] — draws a random instantiation of an ODE model,
//!   simulates it, and monitors a BLTL property → a Bernoulli sample.
//!   The sample body is **fused**: the property compiles once into a
//!   streaming monitor, each integration step feeds it directly (no
//!   trace materialized, no monitor built per sample), integration stops
//!   the moment the verdict decides, and a reused [`SampleScratch`]
//!   makes the steady-state loop allocation-free. The range entry
//!   points ([`TraceSampler::sample_stats_range`],
//!   [`TraceSampler::sample_robustness_range`]) run [`LANES`]
//!   trajectories in lockstep, bit-identical to the one-sample forms.
//! * [`sprt`] — Wald's sequential probability ratio test for
//!   `H₀: p ≥ θ+δᵢ` vs `H₁: p ≤ θ−δᵢ` at error levels (α, β).
//! * [`chernoff_estimate`] — fixed-sample estimation with a
//!   Chernoff–Hoeffding guarantee `P(|p̂ − p| > ε) ≤ δ`.
//! * [`bayes_estimate`] — Beta-posterior estimation run until the
//!   credible interval is narrower than a target width.
//! * [`par_estimate`] / [`par_chernoff_estimate`] / [`par_sprt`] /
//!   [`par_bayes_estimate`] — deterministic parallel forms: per-sample
//!   RNGs forked from a master seed, adaptive rules fed speculative
//!   batches in index order, so every parallel result is bit-for-bit
//!   the sequential one. [`par_fill`] has up to one worker per pool
//!   thread fill a batch's shared [`Slots`], each claiming the next
//!   index as a lane frees up.
//! * [`SmcFit`] — SMC-driven parameter estimation: simulated-annealing
//!   search scored by satisfaction probability (or mean robustness), the
//!   strategy of the paper's SMC calibration line of work.
//!
//! The free functions here are the low-level deterministic primitives.
//! Application code should prefer the `biocheck_engine` crate's
//! `Session`/`Query` front-end, which caches compiled artifacts across
//! queries and adds budgets and cooperative cancellation on top of the
//! same primitives.

mod estimate;
mod fit;
mod parallel;
mod sampler;

pub use estimate::{
    bayes_estimate, chernoff_estimate, chernoff_sample_size, sprt, BayesState, Estimate,
    SprtOutcome, SprtResult, SprtState,
};
pub use fit::{FitResult, SmcFit};
pub use parallel::{
    fork_rng, fork_seed, par_bayes_estimate, par_chernoff_estimate, par_estimate, par_fill,
    par_sprt, seq_bayes_estimate, seq_chernoff_estimate, seq_estimate, seq_sprt,
};
pub use sampler::{with_scratch, Dist, SampleScratch, SampleStats, Slots, TraceSampler, LANES};
