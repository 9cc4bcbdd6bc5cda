//! The typed query surface: one enum covering every analysis the
//! framework offers, replacing the former per-crate free-function zoo.

use crate::calibrate::Dataset;
use biocheck_bltl::Bltl;
use biocheck_bmc::{ReachOptions, ReachSpec};
use biocheck_expr::{Atom, Context, VarId};
use biocheck_interval::Interval;
use biocheck_smc::Dist;
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
/// Every query passes [`Session::check`](crate::Session::check) before
/// it runs: a parameter out of its kind's range, the wrong model kind or
/// a length that differs from the model dimension is a typed
/// [`Error`](crate::Error), never a panic or a report.
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
            Query::Falsify { spec, opts } => push_reach(&mut s, cx, "falsify", spec, opts),
            Query::Therapy { spec, opts } => push_reach(&mut s, cx, "therapy", spec, opts),
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
                push_joined(&mut s, params, |s, (v, range)| {
                    let _ = write!(s, "{}:{range}", cx.var_name(*v));
                });
                let bounds = rendered(state_bounds);
                let _ = write!(
                    s,
                    "];bounds={bounds:?};delta={delta:?};step={flow_step:?}}}"
                );
            }
            Query::Stability {
                region,
                r_min,
                r_max,
            } => {
                let region = rendered(region);
                let _ = write!(
                    s,
                    "stability{{region={region:?};r_min={r_min:?};r_max={r_max:?}}}"
                );
            }
            Query::Lint {
                ranges,
                declared,
                property,
            } => {
                s.push_str("lint{ranges=[");
                push_joined(&mut s, ranges, |s, (v, range)| {
                    let _ = write!(s, "{}:{range}", cx.var_name(*v));
                });
                s.push_str("];declared=[");
                push_joined(&mut s, declared, |s, v| s.push_str(cx.var_name(*v)));
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

/// Pushes each of `items` through `push`, separated by commas.
fn push_joined<'a, T: 'a>(
    s: &mut String,
    items: impl IntoIterator<Item = &'a T>,
    mut push: impl FnMut(&mut String, &'a T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push(s, item);
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
            push_joined(s, fs, |s, g| push_bltl(s, cx, g));
            s.push(')');
        }
        Bltl::Or(fs) => {
            s.push_str("or(");
            push_joined(s, fs, |s, g| push_bltl(s, cx, g));
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
    push_joined(s, &smc.init, push_dist);
    s.push_str("];params=[");
    push_joined(s, &smc.params, |s, (v, d)| {
        let _ = write!(s, "{}:", cx.var_name(*v));
        push_dist(s, d);
    });
    s.push_str("];prop=");
    push_bltl(s, cx, &smc.property);
    let _ = write!(s, ";t_end={:?}", smc.t_end);
}

fn push_reach(s: &mut String, cx: &Context, kind: &str, spec: &ReachSpec, opts: &ReachOptions) {
    let _ = write!(s, "{kind}{{goal_mode={:?};goal=[", spec.goal_mode);
    push_joined(s, &spec.goal, |s, a| push_atom(s, cx, a));
    let _ = write!(
        s,
        "];k={};T={:?};delta={:?};bounds={:?};splits={};step={:?}}}",
        spec.k_max,
        spec.time_bound,
        opts.delta,
        rendered(&opts.state_bounds),
        opts.max_splits,
        opts.flow_step
    );
}

/// Each interval in its `Display` form.
fn rendered(intervals: &[Interval]) -> Vec<String> {
    intervals.iter().map(Interval::to_string).collect()
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
