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
//! * [`LaneStream`] — one query's samples from the first to the rule's
//!   decision: up to one sampler per pool thread, each claiming the next
//!   index as a lane frees up, with finished samples reordered so the
//!   query's rule consumes them in index order.
//! * [`par_estimate`] / [`par_chernoff_estimate`] / [`par_sprt`] /
//!   [`par_bayes_estimate`] — deterministic parallel forms: per-sample
//!   RNGs forked from a master seed, every rule fed one stream in index
//!   order, so every parallel result is bit-for-bit the sequential one.
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
mod stream;

pub use estimate::{
    bayes_estimate, chernoff_estimate, chernoff_sample_size, sprt, BayesState, Estimate,
    SprtOutcome, SprtResult, SprtState,
};
pub use fit::{FitResult, SmcFit};
pub use parallel::{
    fork_rng, fork_seed, par_bayes_estimate, par_chernoff_estimate, par_estimate, par_sprt,
    seq_bayes_estimate, seq_chernoff_estimate, seq_estimate, seq_sprt,
};
pub use sampler::{Dist, SampleOutcome, SampleScratch, SampleStats, TraceSampler, LANES};
pub use stream::LaneStream;
