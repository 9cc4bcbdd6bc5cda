//! SMC-driven parameter estimation: global search scored by statistical
//! property satisfaction (the paper's SMC calibration strategy — equip a
//! parameter-search loop with an SMC-based evaluation method).

use crate::estimate::{check_samples, require};
use crate::sampler::{Dist, SampleScratch, TraceSampler};
use biocheck_bltl::{Bltl, CompiledBltl};
use biocheck_expr::{tanh, Context, VarId};
use biocheck_interval::Interval;
use biocheck_ode::{CompiledOde, OdeSystem};
use rand::Rng;
use std::sync::Arc;

/// Result of a parameter fit.
#[derive(Clone, Debug)]
pub struct FitResult {
    /// Best parameter values, in the order given to [`SmcFit::new`].
    pub params: Vec<f64>,
    /// Score of the best point (mean satisfaction or mean robustness).
    pub score: f64,
    /// Total simulations spent.
    pub simulations: usize,
}

/// Simulated-annealing parameter search where a candidate's objective is
/// the SMC-estimated satisfaction probability (optionally smoothed by
/// average robustness) of a BLTL property over random initial states.
///
/// The right-hand side and the property's streaming monitor compile
/// once, in [`SmcFit::new`]; each candidate is a [`TraceSampler`] over
/// them with every parameter a [`Dist::Point`], and its samples run
/// through the fused sample body.
pub struct SmcFit {
    cx: Context,
    ode: Arc<CompiledOde>,
    plan: CompiledBltl,
    init: Vec<Dist>,
    param_vars: Vec<VarId>,
    param_ranges: Vec<Interval>,
    property: Bltl,
    t_end: f64,
    /// Samples per objective evaluation (at least one).
    pub samples_per_eval: usize,
    /// Annealing iterations.
    pub iterations: usize,
    /// Initial temperature (in objective units).
    pub temperature: f64,
    /// Blend factor: `score = p̂ + rob_weight·tanh(mean robustness)`.
    pub rob_weight: f64,
}

impl SmcFit {
    /// Creates a fitter over the given parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree or there is no parameter to fit.
    pub fn new(
        cx: Context,
        sys: OdeSystem,
        init: Vec<Dist>,
        param_vars: Vec<VarId>,
        param_ranges: Vec<Interval>,
        property: Bltl,
        t_end: f64,
    ) -> SmcFit {
        assert_eq!(init.len(), sys.dim(), "one init distribution per state");
        assert_eq!(param_vars.len(), param_ranges.len(), "ranges per param");
        assert!(!param_vars.is_empty(), "SmcFit needs a parameter to fit");
        SmcFit {
            ode: Arc::new(sys.compile(&cx)),
            plan: CompiledBltl::compile(&cx, &sys.states, &property),
            cx,
            init,
            param_vars,
            param_ranges,
            property,
            t_end,
            samples_per_eval: 24,
            iterations: 120,
            temperature: 0.3,
            rob_weight: 0.1,
        }
    }

    /// Objective at a parameter point.
    fn score<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        scratch: &mut SampleScratch,
        params: &[f64],
    ) -> f64 {
        let points = self.param_vars.iter().zip(params);
        let sampler = TraceSampler::from_artifacts(
            self.cx.clone(),
            Arc::clone(&self.ode),
            self.plan.clone(),
            self.init.clone(),
            points.map(|(&v, &p)| (v, Dist::Point(p))).collect(),
            self.property.clone(),
            self.t_end,
        );
        let mut hits = 0usize;
        let mut rob_sum = 0.0;
        for _ in 0..self.samples_per_eval {
            let (sat, rob) = sampler.sample_robustness_with(rng, scratch);
            hits += sat as usize;
            // A failed simulation reads −∞ and scores tanh(−∞) = −1;
            // any other non-finite robustness is skipped.
            if rob.is_finite() || rob == f64::NEG_INFINITY {
                rob_sum += tanh(rob);
            }
        }
        let n = self.samples_per_eval as f64;
        hits as f64 / n + self.rob_weight * rob_sum / n
    }

    /// Runs the annealing search.
    ///
    /// # Panics
    ///
    /// Panics when `samples_per_eval` is 0.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> FitResult {
        require(check_samples("samples_per_eval", self.samples_per_eval));
        let mut scratch = SampleScratch::new();
        let dims = self.param_ranges.len();
        let mut cur: Vec<f64> = self
            .param_ranges
            .iter()
            .map(|r| rng.gen_range(r.lo()..=r.hi()))
            .collect();
        let mut cur_score = self.score(rng, &mut scratch, &cur);
        let mut best = cur.clone();
        let mut best_score = cur_score;
        let mut sims = self.samples_per_eval;
        for it in 0..self.iterations {
            let temp = self.temperature * (1.0 - it as f64 / self.iterations as f64) + 1e-6;
            // Propose: perturb one random dimension by a range fraction.
            let d = rng.gen_range(0..dims);
            let mut cand = cur.clone();
            let w = self.param_ranges[d].width();
            let step = w * temp * (rng.gen::<f64>() - 0.5);
            cand[d] = (cand[d] + step).clamp(self.param_ranges[d].lo(), self.param_ranges[d].hi());
            let cand_score = self.score(rng, &mut scratch, &cand);
            sims += self.samples_per_eval;
            let accept = cand_score >= cur_score
                || rng.gen::<f64>() < ((cand_score - cur_score) / temp).exp();
            if accept {
                cur = cand;
                cur_score = cand_score;
                if cur_score > best_score {
                    best = cur.clone();
                    best_score = cur_score;
                }
            }
        }
        FitResult {
            params: best,
            score: best_score,
            simulations: sims,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::{Atom, RelOp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fit the decay rate k in x' = -k·x so that x(1) ≈ e⁻¹ (i.e. k ≈ 1):
    /// property G≤1 after t=1 band — encoded as F≤1 (x ≤ 0.38) ∧ G≤1 (x ≥ 0.30
    /// at the end)… simplest: F≤1(x ≤ 0.38) ∧ ¬F≤1(x ≤ 0.30).
    fn decay_rate_fit() -> SmcFit {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let k = cx.intern_var("k");
        let rhs = cx.parse("-k * x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let upper = cx.parse("0.38 - x").unwrap(); // x ≤ 0.38 reached
        let lower = cx.parse("0.33 - x").unwrap(); // but never below 0.33
        let prop = Bltl::And(vec![
            Bltl::eventually(1.0, Bltl::Prop(Atom::new(upper, RelOp::Ge))),
            Bltl::Not(Box::new(Bltl::eventually(
                1.0,
                Bltl::Prop(Atom::new(lower, RelOp::Ge)),
            ))),
        ]);
        SmcFit::new(
            cx,
            sys,
            vec![Dist::Point(1.0)],
            vec![k],
            vec![Interval::new(0.2, 3.0)],
            prop,
            1.0,
        )
    }

    #[test]
    fn recovers_decay_rate() {
        let r = decay_rate_fit().run(&mut StdRng::seed_from_u64(11));
        // e^{-k} ∈ [0.33, 0.38] ⇒ k ∈ [0.967, 1.109].
        assert!(
            r.params[0] > 0.9 && r.params[0] < 1.2,
            "k = {} (score {})",
            r.params[0],
            r.score
        );
        assert!(r.score > 0.9, "good fits satisfy almost surely");
        assert!(r.simulations > 0);
    }

    /// `(x' = −k·x, x₀ ~ U(0.5, 1.5), F≤1 (0.38 − x ≥ 0), k ∈ [0.2, 3])`.
    fn decay_to_threshold() -> SmcFit {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let k = cx.intern_var("k");
        let rhs = cx.parse("-k * x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse("0.38 - x").unwrap();
        let prop = Bltl::eventually(1.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        SmcFit::new(
            cx,
            sys,
            vec![Dist::Uniform(0.5, 1.5)],
            vec![k],
            vec![Interval::new(0.2, 3.0)],
            prop,
            1.0,
        )
    }

    /// `x' = k·x·x` from `x₀ ~ U(0.5, 1.5)` blows up before `t = 2` when
    /// `k·x₀ > ½`, so about one sample in five fails and scores −1.
    fn blowup() -> SmcFit {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let k = cx.intern_var("k");
        let rhs = cx.parse("k * x * x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse("x - 3").unwrap();
        let prop = Bltl::eventually(2.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        SmcFit::new(
            cx,
            sys,
            vec![Dist::Uniform(0.5, 1.5)],
            vec![k],
            vec![Interval::new(0.1, 3.0)],
            prop,
            2.0,
        )
    }

    /// Pins `(params[0], score, simulations)` of four fits bit for bit.
    #[test]
    fn fit_results_are_pinned() {
        let fits = [
            (decay_rate_fit(), 11),
            (decay_rate_fit(), 2020),
            (decay_to_threshold(), 5),
            (blowup(), 3),
        ];
        let pins = [
            "3ff0960a8f5b2b85 3ff00a17f4b216eb 2904",
            "3ff08729c2ff6fe4 3ff009da9724684c 2904",
            "4008000000000000 3ff083d2a03fa24d 2904",
            "3fd2613621e80956 3fe613030bc2faf9 2904",
        ];
        for ((fit, seed), want) in fits.into_iter().zip(pins) {
            let r = fit.run(&mut StdRng::seed_from_u64(seed));
            let (k, score) = (r.params[0], r.score);
            let got = format!(
                "{:016x} {:016x} {}",
                k.to_bits(),
                score.to_bits(),
                r.simulations
            );
            assert_eq!(got, want, "seed {seed}: k = {k}, score = {score}");
        }
    }

    #[test]
    #[should_panic(expected = "samples_per_eval: need at least one sample")]
    fn zero_samples_per_eval_is_refused() {
        let mut fit = decay_rate_fit();
        fit.samples_per_eval = 0;
        fit.run(&mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "SmcFit needs a parameter to fit")]
    fn a_fit_without_parameters_is_refused() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse("x - 1").unwrap();
        let prop = Bltl::eventually(1.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        SmcFit::new(cx, sys, vec![Dist::Point(1.0)], vec![], vec![], prop, 1.0);
    }

    #[test]
    fn impossible_property_scores_low() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let k = cx.intern_var("k");
        let rhs = cx.parse("-k * x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let e = cx.parse("x - 10").unwrap(); // decay never reaches 10
        let prop = Bltl::eventually(1.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        let mut fit = SmcFit::new(
            cx,
            sys,
            vec![Dist::Point(1.0)],
            vec![k],
            vec![Interval::new(0.2, 3.0)],
            prop,
            1.0,
        );
        fit.iterations = 20;
        let mut rng = StdRng::seed_from_u64(2);
        let r = fit.run(&mut rng);
        assert!(r.score < 0.1, "score = {}", r.score);
    }
}
