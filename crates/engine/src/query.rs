//! The typed query surface: one enum covering every analysis the
//! framework offers, replacing the former per-crate free-function zoo.

use crate::calibrate::Dataset;
use biocheck_bltl::Bltl;
use biocheck_bmc::{ReachOptions, ReachSpec};
use biocheck_expr::{Atom, Context, VarId};
use biocheck_interval::Interval;
use biocheck_smc::{check_bayes, check_chernoff, check_samples, check_sprt, Dist};
use std::fmt::Write as _;

/// The probabilistic setup shared by the SMC-backed queries: how the
/// session's ODE model is randomly instantiated and which property is
/// monitored on each trajectory. Two queries with equal setups share one
/// compiled sampler (RHS program + streaming monitor plan) inside the
/// session cache.
#[derive(Clone, Debug)]
pub struct SmcSpec {
    /// One initial-state distribution per state component.
    pub init: Vec<Dist>,
    /// Randomized parameters (the rest of the environment stays 0).
    pub params: Vec<(VarId, Dist)>,
    /// The monitored BLTL property.
    pub property: Bltl,
    /// Simulation horizon.
    pub t_end: f64,
}

/// How [`Query::Estimate`] chooses its sample count.
#[derive(Clone, Copy, Debug)]
pub enum EstimateMethod {
    /// Exactly `n` samples, no statistical guarantee attached.
    Fixed {
        /// Sample count (must be > 0).
        n: usize,
    },
    /// Chernoff–Hoeffding: enough samples that
    /// `P(|p̂ − p| > eps) ≤ delta`.
    Chernoff {
        /// Absolute error bound.
        eps: f64,
        /// Failure probability.
        delta: f64,
    },
    /// Bayesian adaptive stopping: sample until the credible interval at
    /// `confidence` is narrower than `2·half_width`.
    Bayes {
        /// Target half-width of the credible interval.
        half_width: f64,
        /// Coverage of the credible interval.
        confidence: f64,
        /// Hard cap on samples for the adaptive rule.
        max_samples: usize,
    },
}

/// A typed analysis request against a [`Session`](crate::Session).
///
/// SMC-backed variants (`Estimate`, `Sprt`, `Robustness`) and the
/// δ-decision variants `Calibrate`/`Stability` need a session over an
/// ODE model; `Falsify`/`Therapy` need one over a hybrid automaton.
/// Mixing them up is an [`Error::WrongModel`](crate::Error::WrongModel),
/// not a panic.
#[derive(Clone, Debug)]
pub enum Query {
    /// Estimate the satisfaction probability of a BLTL property.
    Estimate {
        /// Random instantiation + property.
        smc: SmcSpec,
        /// Sample-count policy.
        method: EstimateMethod,
    },
    /// Wald's SPRT for `H₀: p ≥ θ+δᵢ` vs `H₁: p ≤ θ−δᵢ`.
    Sprt {
        /// Random instantiation + property.
        smc: SmcSpec,
        /// The threshold θ.
        theta: f64,
        /// Indifference half-width δᵢ.
        indiff: f64,
        /// Type-I error bound.
        alpha: f64,
        /// Type-II error bound.
        beta: f64,
        /// Hard cap on samples before giving up (`Inconclusive`).
        max_samples: usize,
    },
    /// Quantitative semantics: mean/min robustness plus p̂ over a fixed
    /// number of samples.
    Robustness {
        /// Random instantiation + property.
        smc: SmcSpec,
        /// Sample count (must be > 0).
        samples: usize,
    },
    /// Model falsification: prove a behavior unreachable for *every*
    /// admissible parameter value (`unsat` rejects the hypothesis).
    Falsify {
        /// The reachability question.
        spec: ReachSpec,
        /// Solver configuration (budget fields are overridden by the
        /// query's [`Budget`](crate::Budget) when set).
        opts: ReachOptions,
    },
    /// Shortest-schedule therapy synthesis over a treatment automaton.
    Therapy {
        /// The reachability question encoding the therapeutic goal.
        spec: ReachSpec,
        /// Solver configuration (budget fields overridden as above).
        opts: ReachOptions,
    },
    /// BioPSy-style guaranteed parameter synthesis from time-series
    /// data, against the session's ODE model.
    Calibrate {
        /// The observations.
        data: Dataset,
        /// Known initial state (one value per state component).
        init: Vec<f64>,
        /// Unknown parameters with their prior ranges.
        params: Vec<(VarId, Interval)>,
        /// Physical bounds per state component.
        state_bounds: Vec<Interval>,
        /// δ of the decision procedure.
        delta: f64,
        /// Validated-integration base step.
        flow_step: f64,
    },
    /// Equilibrium localization + Lyapunov certification.
    Stability {
        /// Search region (one interval per state component).
        region: Vec<Interval>,
        /// Inner radius of the certification annulus.
        r_min: f64,
        /// Outer radius of the certification annulus.
        r_max: f64,
    },
    /// Static pre-flight analysis: interval-based domain diagnostics
    /// plus structural checks, with no solving or sampling. Works on
    /// both ODE and hybrid sessions and is read-only — the arena,
    /// artifact cache, and every other query's fingerprint are
    /// provably unchanged by running it.
    Lint {
        /// Assumed variable boxes (unlisted variables default to
        /// `[0, ∞)`; hybrid parameter ranges apply automatically).
        ranges: Vec<(VarId, Interval)>,
        /// Declared parameters/constants for the unused-entity checks.
        declared: Vec<VarId>,
        /// Optional BLTL property to check atoms of.
        property: Option<Bltl>,
    },
}

impl Query {
    /// A canonical, context-independent rendering of the query: every
    /// expression is printed through [`Context::display`] (names, not
    /// arena ids), floats render in their shortest round-trip form, and
    /// field order is fixed. Two queries canonicalize equally iff they
    /// describe the same analysis — even when their `NodeId`s differ
    /// because the host contexts interned expressions in different
    /// orders. This is the query component of result-memoization keys
    /// (`biocheck_serve`): keying on `Debug` output would let one
    /// arena's `NodeId(17)` collide with a different expression at the
    /// same id in a rebuilt session.
    ///
    /// `cx` must be the context the query's expressions live in.
    pub fn canonical(&self, cx: &Context) -> String {
        let mut s = String::new();
        match self {
            Query::Estimate { smc, method } => {
                s.push_str("estimate{");
                push_smc(&mut s, cx, smc);
                match *method {
                    EstimateMethod::Fixed { n } => {
                        let _ = write!(s, ";fixed(n={n})");
                    }
                    EstimateMethod::Chernoff { eps, delta } => {
                        let _ = write!(s, ";chernoff(eps={eps:?},delta={delta:?})");
                    }
                    EstimateMethod::Bayes {
                        half_width,
                        confidence,
                        max_samples,
                    } => {
                        let _ = write!(
                            s,
                            ";bayes(hw={half_width:?},conf={confidence:?},cap={max_samples})"
                        );
                    }
                }
                s.push('}');
            }
            Query::Sprt {
                smc,
                theta,
                indiff,
                alpha,
                beta,
                max_samples,
            } => {
                s.push_str("sprt{");
                push_smc(&mut s, cx, smc);
                let _ = write!(
                    s,
                    ";theta={theta:?};indiff={indiff:?};alpha={alpha:?};beta={beta:?};cap={max_samples}}}"
                );
            }
            Query::Robustness { smc, samples } => {
                s.push_str("robustness{");
                push_smc(&mut s, cx, smc);
                let _ = write!(s, ";n={samples}}}");
            }
            Query::Falsify { spec, opts } => {
                s.push_str("falsify{");
                push_reach(&mut s, cx, spec, opts);
                s.push('}');
            }
            Query::Therapy { spec, opts } => {
                s.push_str("therapy{");
                push_reach(&mut s, cx, spec, opts);
                s.push('}');
            }
            Query::Calibrate {
                data,
                init,
                params,
                state_bounds,
                delta,
                flow_step,
            } => {
                let _ = write!(
                    s,
                    "calibrate{{times={:?};values={:?};observed={:?};tol={:?};init={:?}",
                    data.times, data.values, data.observed, data.tolerance, init
                );
                s.push_str(";params=[");
                for (i, (v, range)) in params.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{}:{}", cx.var_name(*v), range);
                }
                let _ = write!(
                    s,
                    "];bounds={:?};delta={delta:?};step={flow_step:?}}}",
                    state_bounds
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                );
            }
            Query::Stability {
                region,
                r_min,
                r_max,
            } => {
                let _ = write!(
                    s,
                    "stability{{region={:?};r_min={r_min:?};r_max={r_max:?}}}",
                    region.iter().map(|i| i.to_string()).collect::<Vec<_>>()
                );
            }
            Query::Lint {
                ranges,
                declared,
                property,
            } => {
                s.push_str("lint{ranges=[");
                for (i, (v, range)) in ranges.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{}:{}", cx.var_name(*v), range);
                }
                s.push_str("];declared=[");
                for (i, v) in declared.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(cx.var_name(*v));
                }
                s.push_str("];prop=");
                match property {
                    Some(p) => push_bltl(&mut s, cx, p),
                    None => s.push_str("none"),
                }
                s.push('}');
            }
        }
        s
    }

    /// Refuses SMC parameters the query cannot run: a parameter outside
    /// its method's rule ([`check_samples`], [`check_sprt`],
    /// [`check_chernoff`], [`check_bayes`]), a horizon that is not
    /// finite and positive, a temporal bound of the property that is
    /// negative or not finite, or an ill-defined distribution
    /// ([`Dist::check`]). The error names the parameters at fault and
    /// says what is wrong. Queries that do not sample pass: their
    /// parameters are checked when they run.
    pub fn check_smc(&self) -> Result<(), (&'static str, String)> {
        let (smc, rule) = match *self {
            Query::Estimate { ref smc, method } => (
                smc,
                match method {
                    EstimateMethod::Fixed { n } => check_samples("n", n),
                    EstimateMethod::Chernoff { eps, delta } => check_chernoff(eps, delta),
                    EstimateMethod::Bayes {
                        half_width,
                        confidence,
                        max_samples,
                    } => check_bayes(half_width, confidence)
                        .and(check_samples("max_samples", max_samples)),
                },
            ),
            Query::Sprt {
                ref smc,
                theta,
                indiff,
                alpha,
                beta,
                max_samples,
            } => (
                smc,
                check_sprt(theta, indiff, alpha, beta)
                    .and(check_samples("max_samples", max_samples)),
            ),
            Query::Robustness { ref smc, samples } => (smc, check_samples("samples", samples)),
            _ => return Ok(()),
        };
        rule?;
        if !(smc.t_end.is_finite() && smc.t_end > 0.0) {
            let detail = format!("must be finite and positive, got {}", smc.t_end);
            return Err(("t_end", detail));
        }
        if let Some(bound) = bad_until_bound(&smc.property) {
            let detail = format!("temporal bounds must be finite and non-negative, got {bound}");
            return Err(("bound", detail));
        }
        let params = smc.params.iter().map(|(_, d)| d);
        smc.init.iter().chain(params).try_for_each(Dist::check)
    }

    /// The discriminant, carried on every [`Report`](crate::Report).
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Estimate { .. } => QueryKind::Estimate,
            Query::Sprt { .. } => QueryKind::Sprt,
            Query::Robustness { .. } => QueryKind::Robustness,
            Query::Falsify { .. } => QueryKind::Falsify,
            Query::Therapy { .. } => QueryKind::Therapy,
            Query::Calibrate { .. } => QueryKind::Calibrate,
            Query::Stability { .. } => QueryKind::Stability,
            Query::Lint { .. } => QueryKind::Lint,
        }
    }
}

/// The first `Until` bound in `f` that is negative or not finite. No
/// trace satisfies `F≤b φ` for b < 0, so such a property would run and
/// report p̂ = 0 instead of being refused.
fn bad_until_bound(f: &Bltl) -> Option<f64> {
    match f {
        Bltl::Prop(_) => None,
        Bltl::Not(g) => bad_until_bound(g),
        Bltl::And(gs) | Bltl::Or(gs) => gs.iter().find_map(bad_until_bound),
        Bltl::Until { lhs, rhs, bound } => {
            if bound.is_finite() && *bound >= 0.0 {
                bad_until_bound(lhs).or_else(|| bad_until_bound(rhs))
            } else {
                Some(*bound)
            }
        }
    }
}

fn push_atom(s: &mut String, cx: &Context, atom: &Atom) {
    let op = match atom.op {
        biocheck_expr::RelOp::Gt => "gt",
        biocheck_expr::RelOp::Ge => "ge",
        biocheck_expr::RelOp::Eq => "eq",
        biocheck_expr::RelOp::Le => "le",
        biocheck_expr::RelOp::Lt => "lt",
    };
    let _ = write!(s, "{op}({})", cx.display(atom.expr));
}

pub(crate) fn push_bltl(s: &mut String, cx: &Context, f: &Bltl) {
    match f {
        Bltl::Prop(a) => push_atom(s, cx, a),
        Bltl::Not(inner) => {
            s.push_str("not(");
            push_bltl(s, cx, inner);
            s.push(')');
        }
        Bltl::And(fs) => {
            s.push_str("and(");
            for (i, g) in fs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_bltl(s, cx, g);
            }
            s.push(')');
        }
        Bltl::Or(fs) => {
            s.push_str("or(");
            for (i, g) in fs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_bltl(s, cx, g);
            }
            s.push(')');
        }
        Bltl::Until { lhs, rhs, bound } => {
            s.push_str("until(");
            push_bltl(s, cx, lhs);
            s.push(',');
            push_bltl(s, cx, rhs);
            let _ = write!(s, ",{bound:?})");
        }
    }
}

fn push_dist(s: &mut String, d: &Dist) {
    match *d {
        Dist::Point(v) => {
            let _ = write!(s, "point({v:?})");
        }
        Dist::Uniform(lo, hi) => {
            let _ = write!(s, "uniform({lo:?},{hi:?})");
        }
        Dist::Normal { mean, sd } => {
            let _ = write!(s, "normal({mean:?},{sd:?})");
        }
        Dist::LogNormal { mu, sigma } => {
            let _ = write!(s, "lognormal({mu:?},{sigma:?})");
        }
    }
}

pub(crate) fn push_smc(s: &mut String, cx: &Context, smc: &SmcSpec) {
    s.push_str("init=[");
    for (i, d) in smc.init.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_dist(s, d);
    }
    s.push_str("];params=[");
    for (i, (v, d)) in smc.params.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{}:", cx.var_name(*v));
        push_dist(s, d);
    }
    s.push_str("];prop=");
    push_bltl(s, cx, &smc.property);
    let _ = write!(s, ";t_end={:?}", smc.t_end);
}

fn push_reach(s: &mut String, cx: &Context, spec: &ReachSpec, opts: &ReachOptions) {
    let _ = write!(s, "goal_mode={:?};goal=[", spec.goal_mode);
    for (i, a) in spec.goal.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_atom(s, cx, a);
    }
    let _ = write!(
        s,
        "];k={};T={:?};delta={:?};bounds={:?};splits={};step={:?}",
        spec.k_max,
        spec.time_bound,
        opts.delta,
        opts.state_bounds
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>(),
        opts.max_splits,
        opts.flow_step
    );
}

/// Discriminant of a [`Query`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// [`Query::Estimate`]
    Estimate,
    /// [`Query::Sprt`]
    Sprt,
    /// [`Query::Robustness`]
    Robustness,
    /// [`Query::Falsify`]
    Falsify,
    /// [`Query::Therapy`]
    Therapy,
    /// [`Query::Calibrate`]
    Calibrate,
    /// [`Query::Stability`]
    Stability,
    /// [`Query::Lint`]
    Lint,
}
