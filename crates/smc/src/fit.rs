//! SMC-driven parameter estimation: global search scored by statistical
//! property satisfaction (the paper's SMC calibration strategy — equip a
//! parameter-search loop with an SMC-based evaluation method).

use crate::sampler::Dist;
use biocheck_bltl::{Bltl, Monitor};
use biocheck_expr::{tanh, Context, VarId};
use biocheck_interval::Interval;
use biocheck_ode::{DormandPrince, OdeSystem};
use rand::Rng;

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
pub struct SmcFit {
    cx: Context,
    sys: OdeSystem,
    init: Vec<Dist>,
    param_vars: Vec<VarId>,
    param_ranges: Vec<Interval>,
    property: Bltl,
    t_end: f64,
    /// Samples per objective evaluation.
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
    /// Panics when lengths disagree.
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
        SmcFit {
            cx,
            sys,
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
    fn score<R: Rng + ?Sized>(&self, rng: &mut R, params: &[f64]) -> f64 {
        let ode = self.sys.compile(&self.cx);
        let integrator = DormandPrince::with_tolerances(1e-6, 1e-8);
        let mut env = vec![0.0; self.cx.num_vars()];
        for (&v, &p) in self.param_vars.iter().zip(params) {
            env[v.index()] = p;
        }
        let mut hits = 0usize;
        let mut rob_sum = 0.0;
        for _ in 0..self.samples_per_eval {
            let y0: Vec<f64> = self.init.iter().map(|d| d.sample(rng)).collect();
            match integrator.integrate(&ode, &env, &y0, (0.0, self.t_end)) {
                Ok(trace) => {
                    let mut mon = Monitor::new(&self.cx, &self.sys.states).with_env(env.clone());
                    if mon.check(&self.property, &trace) {
                        hits += 1;
                    }
                    let rob = mon.robustness(&self.property, &trace);
                    if rob.is_finite() {
                        rob_sum += tanh(rob);
                    }
                }
                Err(_) => rob_sum -= 1.0,
            }
        }
        let n = self.samples_per_eval as f64;
        hits as f64 / n + self.rob_weight * rob_sum / n
    }

    /// Runs the annealing search.
    pub fn run<R: Rng + ?Sized>(&self, rng: &mut R) -> FitResult {
        let dims = self.param_ranges.len();
        let mut cur: Vec<f64> = self
            .param_ranges
            .iter()
            .map(|r| rng.gen_range(r.lo()..=r.hi()))
            .collect();
        let mut cur_score = self.score(rng, &cur);
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
            let cand_score = self.score(rng, &cand);
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
    #[test]
    fn recovers_decay_rate() {
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
        let fit = SmcFit::new(
            cx,
            sys,
            vec![Dist::Point(1.0)],
            vec![k],
            vec![Interval::new(0.2, 3.0)],
            prop,
            1.0,
        );
        let mut rng = StdRng::seed_from_u64(11);
        let r = fit.run(&mut rng);
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
