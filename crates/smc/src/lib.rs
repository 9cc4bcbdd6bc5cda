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
//!   makes the steady-state loop allocation-free. A query's
//!   [`LaneStream`] runs [`LANES`] trajectories in lockstep,
//!   bit-identical to the one-sample forms.
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
//! * [`seq_estimate`] / [`seq_chernoff_estimate`] / [`seq_sprt`] /
//!   [`seq_bayes_estimate`] — the sequential references: one scalar
//!   sample at a time from the per-sample RNGs [`fork_rng`] forks off a
//!   master seed, so a lane stream on any number of threads must give
//!   the same bits.
//! * [`check_samples`] / [`check_sprt`] / [`check_chernoff`] /
//!   [`check_bayes`] — each method's parameter rule, written once: the
//!   estimators assert it and front-ends refuse a request with it.
//! * [`SmcFit`] — SMC-driven parameter estimation: simulated-annealing
//!   search scored by satisfaction probability (or mean robustness), the
//!   strategy of the paper's SMC calibration line of work. Each
//!   candidate samples through the fused sample body.
//!
//! The `biocheck_engine` crate's `Session`/`Query` front-end is the one
//! parallel driver: it caches compiled artifacts across queries and runs
//! each query's rule over one [`LaneStream`] with a budget and
//! cooperative cancellation. Application code should use it.

mod estimate;
mod fit;
mod parallel;
mod sampler;
mod stream;

pub use estimate::{
    bayes_estimate, check_bayes, check_chernoff, check_samples, check_sprt, chernoff_estimate,
    chernoff_sample_size, sprt, BayesState, Estimate, SprtOutcome, SprtResult, SprtState,
};
pub use fit::{FitResult, SmcFit};
pub use parallel::{
    fork_rng, fork_seed, seq_bayes_estimate, seq_chernoff_estimate, seq_estimate, seq_sprt,
};
pub use sampler::{Dist, SampleOutcome, SampleScratch, SampleStats, TraceSampler, LANES};
pub use stream::LaneStream;
