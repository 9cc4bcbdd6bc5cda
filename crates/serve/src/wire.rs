//! The line-delimited JSON wire protocol: typed requests in, reports
//! out.
//!
//! Every message is one JSON object on one line (`\n`-terminated).
//! Requests carry an `"op"` discriminant; responses always carry
//! `"ok"`. The protocol covers model registration (ODE models from
//! textual right-hand sides), the SMC-backed queries
//! (estimate/sprt/robustness), stability queries, per-request budgets,
//! cooperative cancellation by request id, cache/registry statistics,
//! and shutdown. The full schema is documented in the README's
//! "Serving" section; `Request`/`QuerySpec` are the schema's source of
//! truth.
//!
//! Expressions travel as text and are parsed into the target model's
//! interned [`Context`] on the server, so two textually equal queries
//! resolve to the same compiled artifacts — and to the same
//! memoization key ([`Query::canonical`] renders names, not arena
//! ids).

use crate::json::Json;
use biocheck_bltl::Bltl;
use biocheck_engine::{Budget, EstimateMethod, Query, Report, SmcSpec, Value};
use biocheck_expr::{Atom, Context, RelOp, VarId};
use biocheck_interval::Interval;
use biocheck_ode::OdeSystem;
use biocheck_smc::Dist;
use std::time::Duration;

/// A model registration payload: one `(name, rhs)` pair per state
/// variable (order fixes the state vector) plus constant parameter
/// substitutions applied to every right-hand side at registration.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSource {
    /// `(state name, d state/dt expression)`, in state order.
    pub states: Vec<(String, String)>,
    /// `(parameter name, value)` substituted as constants.
    pub consts: Vec<(String, f64)>,
}

impl ModelSource {
    /// The canonical source string the model fingerprint hashes: the
    /// compact JSON rendering of the source. JSON quoting makes field
    /// boundaries unambiguous — user-supplied names/expressions can
    /// never smuggle a delimiter and make two different models
    /// fingerprint equal (a const named `"p=1,q"` is distinct from
    /// consts `p` and `q`).
    pub fn canonical(&self) -> String {
        self.to_json().render()
    }

    /// Parses the source into a context + system: state variables are
    /// interned first (in order), constants substituted into every RHS.
    pub fn build(&self) -> Result<(Context, OdeSystem), String> {
        if self.states.is_empty() {
            return Err("model needs at least one state".into());
        }
        // Name hygiene: a const sharing a state's name would substitute
        // the state itself out of the dynamics — silently wrong for
        // every subsequent query — and duplicate names within either
        // list hide one of the definitions.
        let mut seen = std::collections::HashSet::new();
        for (name, _) in &self.states {
            if !seen.insert(name.as_str()) {
                return Err(format!("duplicate state {name:?}"));
            }
        }
        for (name, v) in &self.consts {
            // A const of `1e999` parses to infinity, which the canonical
            // source (the fingerprint's input) cannot render.
            if !v.is_finite() {
                return Err(format!("const {name:?} must be finite, got {v}"));
            }
            if self.states.iter().any(|(s, _)| s == name) {
                return Err(format!(
                    "const {name:?} collides with a state of the same name"
                ));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("duplicate const {name:?}"));
            }
        }
        let mut cx = Context::new();
        let states: Vec<_> = self
            .states
            .iter()
            .map(|(name, _)| cx.intern_var(name))
            .collect();
        let mut rhs = Vec::with_capacity(self.states.len());
        for (name, src) in &self.states {
            let node = cx.parse(src).map_err(|e| format!("rhs of {name}: {e:?}"))?;
            rhs.push(node);
        }
        if !self.consts.is_empty() {
            let map: std::collections::HashMap<_, _> = self
                .consts
                .iter()
                .map(|(name, v)| {
                    let vid = cx.intern_var(name);
                    let c = cx.constant(*v);
                    (vid, c)
                })
                .collect();
            rhs = rhs.iter().map(|&r| cx.subst(r, &map)).collect();
        }
        Ok((cx, OdeSystem::new(states, rhs)))
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            (
                "states",
                Json::Arr(
                    self.states
                        .iter()
                        .map(|(n, r)| Json::Arr(vec![Json::str(n.clone()), Json::str(r.clone())]))
                        .collect(),
                ),
            ),
            (
                "consts",
                Json::Arr(
                    self.consts
                        .iter()
                        .map(|(n, v)| Json::Arr(vec![Json::str(n.clone()), Json::num(*v)]))
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<ModelSource, String> {
        let states = v
            .get("states")
            .and_then(Json::as_arr)
            .ok_or("source missing states")?
            .iter()
            .map(|pair| {
                let p = pair.as_arr().filter(|p| p.len() == 2);
                match p {
                    Some([n, r]) => match (n.as_str(), r.as_str()) {
                        (Some(n), Some(r)) => Ok((n.to_string(), r.to_string())),
                        _ => Err("state entry must be [name, rhs]".to_string()),
                    },
                    _ => Err("state entry must be [name, rhs]".to_string()),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let consts = match v.get("consts") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("consts must be an array")?
                .iter()
                .map(|pair| {
                    let p = pair.as_arr().filter(|p| p.len() == 2);
                    match p {
                        Some([n, val]) => match (n.as_str(), val.as_f64()) {
                            (Some(n), Some(val)) => Ok((n.to_string(), val)),
                            _ => Err("const entry must be [name, value]".to_string()),
                        },
                        _ => Err("const entry must be [name, value]".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(ModelSource { states, consts })
    }
}

/// A BLTL property in wire form: expressions are strings, structure is
/// explicit.
#[derive(Clone, Debug, PartialEq)]
pub enum PropSpec {
    /// The constant true formula.
    True,
    /// `expr ⋈ 0`.
    Prop {
        /// Left-hand term, compared against zero.
        expr: String,
        /// The relation.
        rel: RelOp,
    },
    /// Negation.
    Not(Box<PropSpec>),
    /// Conjunction.
    And(Vec<PropSpec>),
    /// Disjunction.
    Or(Vec<PropSpec>),
    /// `lhs U≤bound rhs`.
    Until {
        /// Left operand.
        lhs: Box<PropSpec>,
        /// Right operand.
        rhs: Box<PropSpec>,
        /// Time bound.
        bound: f64,
    },
    /// `F≤bound inner`.
    Eventually {
        /// Time bound.
        bound: f64,
        /// Operand.
        inner: Box<PropSpec>,
    },
    /// `G≤bound inner`.
    Globally {
        /// Time bound.
        bound: f64,
        /// Operand.
        inner: Box<PropSpec>,
    },
}

/// Lossless u64 encoding: JSON numbers are f64 in this protocol, so
/// seeds/ids above 2^53 would be silently rounded (breaking the
/// bit-determinism contract — the server would run a different seed
/// than the client constructed). Values strictly below 2^53 travel as
/// numbers; anything at or above travels as a decimal string, and the
/// decoder enforces the same rule: a *number* at or above 2^53 is
/// rejected rather than silently rounded — a non-Rust client sending
/// 2^53 + 1 as a plain number has already lost the true value to f64
/// rounding before the server ever sees it, so the only honest answer
/// is an error demanding the string form (every integer strictly below
/// 2^53 is exact in f64).
pub(crate) fn u64_to_json(v: u64) -> Json {
    if v < (1 << 53) {
        Json::num(v as f64)
    } else {
        Json::str(v.to_string())
    }
}

pub(crate) fn u64_from_json(v: &Json) -> Option<u64> {
    match v {
        Json::Num(_) => v.as_usize().map(|n| n as u64).filter(|&n| n < (1 << 53)),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// `[lo, hi]` from the wire, named `what` in the error. JSON parses
/// `1e999` into `f64::INFINITY`, which `Interval::new` must never see.
/// Every other number is left to [`Session::check`].
///
/// [`Session::check`]: biocheck_engine::Session::check
fn interval(lo: f64, hi: f64, what: &str) -> Result<Interval, String> {
    if !(lo.is_finite() && hi.is_finite()) {
        Err(format!("{what} [{lo}, {hi}] must be finite"))
    } else if lo > hi {
        Err(format!("{what} [{lo}, {hi}] is empty"))
    } else {
        Ok(Interval::new(lo, hi))
    }
}

fn rel_name(rel: RelOp) -> &'static str {
    match rel {
        RelOp::Gt => "gt",
        RelOp::Ge => "ge",
        RelOp::Eq => "eq",
        RelOp::Le => "le",
        RelOp::Lt => "lt",
    }
}

fn rel_from(name: &str) -> Result<RelOp, String> {
    Ok(match name {
        "gt" => RelOp::Gt,
        "ge" => RelOp::Ge,
        "eq" => RelOp::Eq,
        "le" => RelOp::Le,
        "lt" => RelOp::Lt,
        other => return Err(format!("unknown relation {other:?}")),
    })
}

impl PropSpec {
    /// Lowers the wire form into a [`Bltl`] over `cx`.
    pub fn build(&self, cx: &mut Context) -> Result<Bltl, String> {
        Ok(match self {
            PropSpec::True => Bltl::And(vec![]),
            PropSpec::Prop { expr, rel } => {
                // Strict parsing: every name must already exist in the
                // model (a state, a registered constant, or a free
                // parameter from the right-hand sides). Auto-interning
                // a typo'd name would make it silently evaluate as 0.
                let node = cx
                    .parse_strict(expr)
                    .map_err(|e| format!("{expr:?}: {e:?}"))?;
                Bltl::Prop(Atom::new(node, *rel))
            }
            PropSpec::Not(inner) => Bltl::Not(Box::new(inner.build(cx)?)),
            PropSpec::And(args) => Bltl::And(
                args.iter()
                    .map(|a| a.build(cx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            PropSpec::Or(args) => Bltl::Or(
                args.iter()
                    .map(|a| a.build(cx))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            PropSpec::Until { lhs, rhs, bound } => Bltl::Until {
                lhs: Box::new(lhs.build(cx)?),
                rhs: Box::new(rhs.build(cx)?),
                bound: *bound,
            },
            PropSpec::Eventually { bound, inner } => Bltl::eventually(*bound, inner.build(cx)?),
            PropSpec::Globally { bound, inner } => Bltl::globally(*bound, inner.build(cx)?),
        })
    }

    fn to_json(&self) -> Json {
        match self {
            PropSpec::True => Json::obj([("type", Json::str("true"))]),
            PropSpec::Prop { expr, rel } => Json::obj([
                ("type", Json::str("prop")),
                ("expr", Json::str(expr.clone())),
                ("rel", Json::str(rel_name(*rel))),
            ]),
            PropSpec::Not(inner) => {
                Json::obj([("type", Json::str("not")), ("inner", inner.to_json())])
            }
            PropSpec::And(args) => Json::obj([
                ("type", Json::str("and")),
                (
                    "args",
                    Json::Arr(args.iter().map(PropSpec::to_json).collect()),
                ),
            ]),
            PropSpec::Or(args) => Json::obj([
                ("type", Json::str("or")),
                (
                    "args",
                    Json::Arr(args.iter().map(PropSpec::to_json).collect()),
                ),
            ]),
            PropSpec::Until { lhs, rhs, bound } => Json::obj([
                ("type", Json::str("until")),
                ("lhs", lhs.to_json()),
                ("rhs", rhs.to_json()),
                ("bound", Json::num(*bound)),
            ]),
            PropSpec::Eventually { bound, inner } => Json::obj([
                ("type", Json::str("eventually")),
                ("bound", Json::num(*bound)),
                ("inner", inner.to_json()),
            ]),
            PropSpec::Globally { bound, inner } => Json::obj([
                ("type", Json::str("globally")),
                ("bound", Json::num(*bound)),
                ("inner", inner.to_json()),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<PropSpec, String> {
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("property missing type")?;
        let inner = |key: &str| -> Result<Box<PropSpec>, String> {
            Ok(Box::new(PropSpec::from_json(
                v.get(key).ok_or_else(|| format!("{ty} missing {key}"))?,
            )?))
        };
        let bound = || -> Result<f64, String> {
            v.get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{ty} missing bound"))
        };
        let args = || -> Result<Vec<PropSpec>, String> {
            v.get("args")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{ty} missing args"))?
                .iter()
                .map(PropSpec::from_json)
                .collect()
        };
        Ok(match ty {
            "true" => PropSpec::True,
            "prop" => PropSpec::Prop {
                expr: v
                    .get("expr")
                    .and_then(Json::as_str)
                    .ok_or("prop missing expr")?
                    .to_string(),
                rel: rel_from(
                    v.get("rel")
                        .and_then(Json::as_str)
                        .ok_or("prop missing rel")?,
                )?,
            },
            "not" => PropSpec::Not(inner("inner")?),
            "and" => PropSpec::And(args()?),
            "or" => PropSpec::Or(args()?),
            "until" => PropSpec::Until {
                lhs: inner("lhs")?,
                rhs: inner("rhs")?,
                bound: bound()?,
            },
            "eventually" => PropSpec::Eventually {
                bound: bound()?,
                inner: inner("inner")?,
            },
            "globally" => PropSpec::Globally {
                bound: bound()?,
                inner: inner("inner")?,
            },
            other => return Err(format!("unknown property type {other:?}")),
        })
    }
}

/// A sampling distribution in wire form.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DistSpec {
    /// Deterministic value.
    Point(f64),
    /// Uniform on `[lo, hi]`.
    Uniform(f64, f64),
    /// Normal.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation.
        sd: f64,
    },
    /// Log-normal.
    LogNormal {
        /// Location.
        mu: f64,
        /// Scale.
        sigma: f64,
    },
}

impl DistSpec {
    /// The distribution (`Session::check` checks it).
    fn build(&self) -> Dist {
        match *self {
            DistSpec::Point(v) => Dist::Point(v),
            DistSpec::Uniform(lo, hi) => Dist::Uniform(lo, hi),
            DistSpec::Normal { mean, sd } => Dist::Normal { mean, sd },
            DistSpec::LogNormal { mu, sigma } => Dist::LogNormal { mu, sigma },
        }
    }

    fn to_json(self) -> Json {
        match self {
            DistSpec::Point(v) => Json::obj([("dist", Json::str("point")), ("v", Json::num(v))]),
            DistSpec::Uniform(lo, hi) => Json::obj([
                ("dist", Json::str("uniform")),
                ("lo", Json::num(lo)),
                ("hi", Json::num(hi)),
            ]),
            DistSpec::Normal { mean, sd } => Json::obj([
                ("dist", Json::str("normal")),
                ("mean", Json::num(mean)),
                ("sd", Json::num(sd)),
            ]),
            DistSpec::LogNormal { mu, sigma } => Json::obj([
                ("dist", Json::str("lognormal")),
                ("mu", Json::num(mu)),
                ("sigma", Json::num(sigma)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<DistSpec, String> {
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("dist missing {key}"))
        };
        match v.get("dist").and_then(Json::as_str) {
            Some("point") => Ok(DistSpec::Point(f("v")?)),
            Some("uniform") => Ok(DistSpec::Uniform(f("lo")?, f("hi")?)),
            Some("normal") => Ok(DistSpec::Normal {
                mean: f("mean")?,
                sd: f("sd")?,
            }),
            Some("lognormal") => Ok(DistSpec::LogNormal {
                mu: f("mu")?,
                sigma: f("sigma")?,
            }),
            other => Err(format!("unknown dist {other:?}")),
        }
    }
}

/// The SMC setup in wire form (see [`SmcSpec`]).
#[derive(Clone, Debug, PartialEq)]
pub struct SmcSpecWire {
    /// One initial-state distribution per state component.
    pub init: Vec<DistSpec>,
    /// Randomized parameters by name.
    pub params: Vec<(String, DistSpec)>,
    /// The monitored property.
    pub property: PropSpec,
    /// Simulation horizon.
    pub t_end: f64,
}

impl SmcSpecWire {
    fn build(&self, cx: &mut Context) -> Result<SmcSpec, String> {
        let params = self
            .params
            .iter()
            .map(|(name, d)| {
                let vid = cx
                    .var_id(name)
                    .ok_or_else(|| format!("unknown parameter {name:?}"))?;
                Ok((vid, d.build()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SmcSpec {
            init: self.init.iter().map(DistSpec::build).collect(),
            params,
            property: self.property.build(cx)?,
            t_end: self.t_end,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "init",
                Json::Arr(self.init.iter().map(|d| d.to_json()).collect()),
            ),
            (
                "params",
                Json::Arr(
                    self.params
                        .iter()
                        .map(|(n, d)| Json::Arr(vec![Json::str(n.clone()), d.to_json()]))
                        .collect(),
                ),
            ),
            ("property", self.property.to_json()),
            ("t_end", Json::num(self.t_end)),
        ])
    }

    fn from_json(v: &Json) -> Result<SmcSpecWire, String> {
        let init = v
            .get("init")
            .and_then(Json::as_arr)
            .ok_or("smc missing init")?
            .iter()
            .map(DistSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let params = match v.get("params") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or("params must be an array")?
                .iter()
                .map(|pair| {
                    let p = pair.as_arr().filter(|p| p.len() == 2);
                    match p {
                        Some([n, d]) => match n.as_str() {
                            Some(n) => Ok((n.to_string(), DistSpec::from_json(d)?)),
                            None => Err("param entry must be [name, dist]".to_string()),
                        },
                        _ => Err("param entry must be [name, dist]".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(SmcSpecWire {
            init,
            params,
            property: PropSpec::from_json(v.get("property").ok_or("smc missing property")?)?,
            t_end: v
                .get("t_end")
                .and_then(Json::as_f64)
                .ok_or("smc missing t_end")?,
        })
    }
}

/// Sample-count policy in wire form (see [`EstimateMethod`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MethodSpec {
    /// Exactly `n` samples.
    Fixed {
        /// Sample count.
        n: usize,
    },
    /// Chernoff–Hoeffding bound.
    Chernoff {
        /// Absolute error bound.
        eps: f64,
        /// Failure probability.
        delta: f64,
    },
    /// Bayesian adaptive stopping.
    Bayes {
        /// Target half-width.
        half_width: f64,
        /// Coverage.
        confidence: f64,
        /// Sample cap.
        max_samples: usize,
    },
}

impl MethodSpec {
    fn build(&self) -> EstimateMethod {
        match *self {
            MethodSpec::Fixed { n } => EstimateMethod::Fixed { n },
            MethodSpec::Chernoff { eps, delta } => EstimateMethod::Chernoff { eps, delta },
            MethodSpec::Bayes {
                half_width,
                confidence,
                max_samples,
            } => EstimateMethod::Bayes {
                half_width,
                confidence,
                max_samples,
            },
        }
    }

    fn to_json(self) -> Json {
        match self {
            MethodSpec::Fixed { n } => {
                Json::obj([("type", Json::str("fixed")), ("n", Json::num(n as f64))])
            }
            MethodSpec::Chernoff { eps, delta } => Json::obj([
                ("type", Json::str("chernoff")),
                ("eps", Json::num(eps)),
                ("delta", Json::num(delta)),
            ]),
            MethodSpec::Bayes {
                half_width,
                confidence,
                max_samples,
            } => Json::obj([
                ("type", Json::str("bayes")),
                ("half_width", Json::num(half_width)),
                ("confidence", Json::num(confidence)),
                ("max_samples", Json::num(max_samples as f64)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<MethodSpec, String> {
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("method missing {key}"))
        };
        let n = |key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("method missing {key}"))
        };
        match v.get("type").and_then(Json::as_str) {
            Some("fixed") => Ok(MethodSpec::Fixed { n: n("n")? }),
            Some("chernoff") => Ok(MethodSpec::Chernoff {
                eps: f("eps")?,
                delta: f("delta")?,
            }),
            Some("bayes") => Ok(MethodSpec::Bayes {
                half_width: f("half_width")?,
                confidence: f("confidence")?,
                max_samples: n("max_samples")?,
            }),
            other => Err(format!("unknown estimate method {other:?}")),
        }
    }
}

/// A typed analysis request in wire form. The δ-decision queries over
/// hybrid automata (`Falsify`/`Therapy`/`Calibrate`) stay in-process
/// for now — automata have no textual wire form yet.
#[derive(Clone, Debug, PartialEq)]
pub enum QuerySpec {
    /// Probability estimation.
    Estimate {
        /// Random instantiation + property.
        smc: SmcSpecWire,
        /// Sample-count policy.
        method: MethodSpec,
    },
    /// Wald's sequential probability ratio test.
    Sprt {
        /// Random instantiation + property.
        smc: SmcSpecWire,
        /// Threshold θ.
        theta: f64,
        /// Indifference half-width.
        indiff: f64,
        /// Type-I error bound.
        alpha: f64,
        /// Type-II error bound.
        beta: f64,
        /// Sample cap.
        max_samples: usize,
    },
    /// Quantitative robustness summary.
    Robustness {
        /// Random instantiation + property.
        smc: SmcSpecWire,
        /// Sample count.
        samples: usize,
    },
    /// Equilibrium localization + Lyapunov certification.
    Stability {
        /// Search region, one `[lo, hi]` per state component.
        region: Vec<(f64, f64)>,
        /// Inner annulus radius.
        r_min: f64,
        /// Outer annulus radius.
        r_max: f64,
    },
    /// Static pre-flight analysis (the `{"op":"lint"}` wire op): no
    /// solving, no sampling, read-only against the session. Every
    /// variable the model knows is in scope for the unused-entity
    /// checks; `ranges` optionally tightens the default `[0, ∞)` box
    /// per variable.
    Lint {
        /// Assumed `(variable, lo, hi)` boxes; unlisted variables keep
        /// the nonnegative default.
        ranges: Vec<(String, f64, f64)>,
    },
}

impl QuerySpec {
    /// Names of the parameters this query randomizes (empty for
    /// non-SMC queries). The server cross-checks them against the
    /// model's registration-time constants.
    pub fn param_names(&self) -> Vec<&str> {
        match self {
            QuerySpec::Estimate { smc, .. }
            | QuerySpec::Sprt { smc, .. }
            | QuerySpec::Robustness { smc, .. } => {
                smc.params.iter().map(|(n, _)| n.as_str()).collect()
            }
            QuerySpec::Stability { .. } | QuerySpec::Lint { .. } => Vec::new(),
        }
    }

    /// Short kind label for observability surfaces (the `inflight`
    /// stats block and trace exports).
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::Estimate { .. } => "estimate",
            QuerySpec::Sprt { .. } => "sprt",
            QuerySpec::Robustness { .. } => "robustness",
            QuerySpec::Stability { .. } => "stability",
            QuerySpec::Lint { .. } => "lint",
        }
    }

    /// Lowers the wire form into an engine [`Query`], parsing every
    /// expression into `cx` (the target model's context). It refuses
    /// only what cannot be lowered (an unknown name, an unparsable
    /// expression, an empty or non-finite interval); the server runs
    /// [`Session::check`] on the result before its cache probe.
    ///
    /// [`Session::check`]: biocheck_engine::Session::check
    pub fn build(&self, cx: &mut Context) -> Result<Query, String> {
        Ok(match self {
            QuerySpec::Estimate { smc, method } => Query::Estimate {
                smc: smc.build(cx)?,
                method: method.build(),
            },
            QuerySpec::Sprt {
                smc,
                theta,
                indiff,
                alpha,
                beta,
                max_samples,
            } => Query::Sprt {
                smc: smc.build(cx)?,
                theta: *theta,
                indiff: *indiff,
                alpha: *alpha,
                beta: *beta,
                max_samples: *max_samples,
            },
            QuerySpec::Robustness { smc, samples } => Query::Robustness {
                smc: smc.build(cx)?,
                samples: *samples,
            },
            QuerySpec::Stability {
                region,
                r_min,
                r_max,
            } => Query::Stability {
                region: region
                    .iter()
                    .map(|&(lo, hi)| interval(lo, hi, "region entry"))
                    .collect::<Result<Vec<_>, String>>()?,
                r_min: *r_min,
                r_max: *r_max,
            },
            QuerySpec::Lint { ranges } => {
                let ranges = ranges
                    .iter()
                    .map(|(name, lo, hi)| {
                        let vid = cx
                            .var_id(name)
                            .ok_or_else(|| format!("unknown variable {name:?}"))?;
                        Ok((vid, interval(*lo, *hi, &format!("range for {name:?}"))?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                // Every variable the model interned is "declared" from
                // the wire's perspective: registration interns states
                // and constants, and strict parsing means queries never
                // grow the set — so this list is deterministic per
                // model and the canonical memoization key is stable.
                let declared = (0..cx.num_vars()).map(VarId::from_index).collect();
                Query::Lint {
                    ranges,
                    declared,
                    property: None,
                }
            }
        })
    }

    fn to_json(&self) -> Json {
        match self {
            QuerySpec::Estimate { smc, method } => Json::obj([
                ("type", Json::str("estimate")),
                ("smc", smc.to_json()),
                ("method", method.to_json()),
            ]),
            QuerySpec::Sprt {
                smc,
                theta,
                indiff,
                alpha,
                beta,
                max_samples,
            } => Json::obj([
                ("type", Json::str("sprt")),
                ("smc", smc.to_json()),
                ("theta", Json::num(*theta)),
                ("indiff", Json::num(*indiff)),
                ("alpha", Json::num(*alpha)),
                ("beta", Json::num(*beta)),
                ("max_samples", Json::num(*max_samples as f64)),
            ]),
            QuerySpec::Robustness { smc, samples } => Json::obj([
                ("type", Json::str("robustness")),
                ("smc", smc.to_json()),
                ("samples", Json::num(*samples as f64)),
            ]),
            QuerySpec::Stability {
                region,
                r_min,
                r_max,
            } => Json::obj([
                ("type", Json::str("stability")),
                (
                    "region",
                    Json::Arr(
                        region
                            .iter()
                            .map(|&(lo, hi)| Json::Arr(vec![Json::num(lo), Json::num(hi)]))
                            .collect(),
                    ),
                ),
                ("r_min", Json::num(*r_min)),
                ("r_max", Json::num(*r_max)),
            ]),
            QuerySpec::Lint { ranges } => Json::obj([
                ("type", Json::str("lint")),
                ("ranges", ranges_to_json(ranges)),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<QuerySpec, String> {
        let f = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("query missing {key}"))
        };
        let n = |key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("query missing {key}"))
        };
        let smc = || -> Result<SmcSpecWire, String> {
            SmcSpecWire::from_json(v.get("smc").ok_or("query missing smc")?)
        };
        match v.get("type").and_then(Json::as_str) {
            Some("estimate") => Ok(QuerySpec::Estimate {
                smc: smc()?,
                method: MethodSpec::from_json(v.get("method").ok_or("estimate missing method")?)?,
            }),
            Some("sprt") => Ok(QuerySpec::Sprt {
                smc: smc()?,
                theta: f("theta")?,
                indiff: f("indiff")?,
                alpha: f("alpha")?,
                beta: f("beta")?,
                max_samples: n("max_samples")?,
            }),
            Some("robustness") => Ok(QuerySpec::Robustness {
                smc: smc()?,
                samples: n("samples")?,
            }),
            Some("stability") => Ok(QuerySpec::Stability {
                region: v
                    .get("region")
                    .and_then(Json::as_arr)
                    .ok_or("stability missing region")?
                    .iter()
                    .map(|pair| {
                        let p = pair.as_arr().filter(|p| p.len() == 2);
                        match p {
                            Some([lo, hi]) => match (lo.as_f64(), hi.as_f64()) {
                                (Some(lo), Some(hi)) => Ok((lo, hi)),
                                _ => Err("region entry must be [lo, hi]".to_string()),
                            },
                            _ => Err("region entry must be [lo, hi]".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                r_min: f("r_min")?,
                r_max: f("r_max")?,
            }),
            Some("lint") => Ok(QuerySpec::Lint {
                ranges: ranges_from_json(v)?,
            }),
            other => Err(format!("unknown query type {other:?}")),
        }
    }
}

fn ranges_to_json(ranges: &[(String, f64, f64)]) -> Json {
    Json::Arr(
        ranges
            .iter()
            .map(|(n, lo, hi)| {
                Json::Arr(vec![Json::str(n.clone()), Json::num(*lo), Json::num(*hi)])
            })
            .collect(),
    )
}

/// Parses the optional `"ranges"` array of `[name, lo, hi]` triples
/// shared by the `lint` op and the `lint` query type.
fn ranges_from_json(v: &Json) -> Result<Vec<(String, f64, f64)>, String> {
    match v.get("ranges") {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(arr) => arr
            .as_arr()
            .ok_or("ranges must be an array")?
            .iter()
            .map(|triple| {
                let t = triple.as_arr().filter(|t| t.len() == 3);
                match t {
                    Some([n, lo, hi]) => match (n.as_str(), lo.as_f64(), hi.as_f64()) {
                        (Some(n), Some(lo), Some(hi)) => Ok((n.to_string(), lo, hi)),
                        _ => Err("range entry must be [name, lo, hi]".to_string()),
                    },
                    _ => Err("range entry must be [name, lo, hi]".to_string()),
                }
            })
            .collect(),
    }
}

/// A per-request resource budget in wire form. Count caps are
/// deterministic (and memoizable); `deadline_ms` is wall-clock and
/// makes the request uncacheable.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BudgetSpec {
    /// Cap on Bernoulli samples.
    pub max_samples: Option<usize>,
    /// Cap on δ-decision box splits.
    pub max_paver_boxes: Option<usize>,
    /// Wall-clock allowance in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Maximum milliseconds the request may wait in the admission
    /// queue before the server sheds it with an `expired` reply.
    /// Excluded from memoization keys: shedding happens before any
    /// computation, so it can never change a computed result.
    pub queue_ms: Option<u64>,
}

impl BudgetSpec {
    /// Lowers into an engine [`Budget`] (no cancellation token — the
    /// server attaches its own per-request token).
    pub fn build(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(n) = self.max_samples {
            b = b.with_max_samples(n);
        }
        if let Some(n) = self.max_paver_boxes {
            b = b.with_max_paver_boxes(n);
        }
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(ms) = self.queue_ms {
            b = b.with_queue_deadline(Duration::from_millis(ms));
        }
        b
    }

    fn to_json(self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = Vec::new();
        if let Some(n) = self.max_samples {
            pairs.push(("max_samples", Json::num(n as f64)));
        }
        if let Some(n) = self.max_paver_boxes {
            pairs.push(("max_paver_boxes", Json::num(n as f64)));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::num(ms as f64)));
        }
        if let Some(ms) = self.queue_ms {
            pairs.push(("queue_ms", Json::num(ms as f64)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<BudgetSpec, String> {
        let n = |key: &str| -> Result<Option<usize>, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(x) => x
                    .as_usize()
                    .map(Some)
                    .ok_or_else(|| format!("budget.{key} must be a non-negative integer")),
            }
        };
        Ok(BudgetSpec {
            max_samples: n("max_samples")?,
            max_paver_boxes: n("max_paver_boxes")?,
            deadline_ms: n("deadline_ms")?.map(|v| v as u64),
            queue_ms: n("queue_ms")?.map(|v| v as u64),
        })
    }
}

/// One query request: which model, which analysis, which seed, under
/// which budget. `id` is optional and enables remote cancellation
/// ([`Request::Cancel`]).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// Registered model name.
    pub model: String,
    /// Optional request id (echoed in the response, target of `cancel`).
    pub id: Option<u64>,
    /// Master seed.
    pub seed: u64,
    /// Resource budget.
    pub budget: BudgetSpec,
    /// The analysis.
    pub query: QuerySpec,
    /// Opt-in request-scoped tracing: when `true`, the reply carries a
    /// `"trace"` object with the span tree and final progress counters.
    /// Strictly observational — excluded from memoization keys (a
    /// traced query and its untraced twin share one cache entry and
    /// one fingerprint).
    pub trace: bool,
}

/// A wire request: one JSON object per line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Registers (or replaces) a model under a name.
    Register {
        /// Model name.
        model: String,
        /// Model definition.
        source: ModelSource,
    },
    /// Runs a query.
    Query(QueryRequest),
    /// Cancels the in-flight query with the given id.
    Cancel {
        /// The target request id.
        id: u64,
    },
    /// Cache/registry/scheduler statistics.
    Stats,
    /// Chrome-trace JSON for recently completed traced requests.
    TraceExport,
    /// Prometheus-style text metrics exposition.
    Metrics,
    /// Liveness check.
    Ping,
    /// Stops the daemon.
    Shutdown,
}

/// Every `"op"` discriminant the protocol accepts, in match order.
/// This is the source of truth the docs-drift check (CI and
/// `crates/serve/tests/docs_drift.rs`) extracts quoted
/// names from (matched up to the closing `];`) and greps against
/// `docs/OPERATIONS.md`.
pub const OP_NAMES: &[&str] = &[
    "register",
    "query",
    "lint",
    "cancel",
    "stats",
    "trace_export",
    "metrics",
    "ping",
    "shutdown",
];

impl Request {
    /// Renders the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Register { model, source } => Json::obj([
                ("op", Json::str("register")),
                ("model", Json::str(model.clone())),
                ("source", source.to_json()),
            ]),
            // The lint op has a dedicated flat form: no smc setup, no
            // method, usually no seed or budget worth spelling out.
            Request::Query(q) => {
                if let QuerySpec::Lint { ranges } = &q.query {
                    let mut pairs = vec![
                        ("op", Json::str("lint")),
                        ("model", Json::str(q.model.clone())),
                    ];
                    if !ranges.is_empty() {
                        pairs.push(("ranges", ranges_to_json(ranges)));
                    }
                    if q.seed != 0 {
                        pairs.push(("seed", u64_to_json(q.seed)));
                    }
                    if q.budget != BudgetSpec::default() {
                        pairs.push(("budget", q.budget.to_json()));
                    }
                    if let Some(id) = q.id {
                        pairs.push(("id", u64_to_json(id)));
                    }
                    if q.trace {
                        pairs.push(("trace", Json::Bool(true)));
                    }
                    return Json::obj(pairs);
                }
                let mut pairs = vec![
                    ("op", Json::str("query")),
                    ("model", Json::str(q.model.clone())),
                    ("seed", u64_to_json(q.seed)),
                    ("budget", q.budget.to_json()),
                    ("query", q.query.to_json()),
                ];
                if let Some(id) = q.id {
                    pairs.push(("id", u64_to_json(id)));
                }
                if q.trace {
                    pairs.push(("trace", Json::Bool(true)));
                }
                Json::obj(pairs)
            }
            Request::Cancel { id } => {
                Json::obj([("op", Json::str("cancel")), ("id", u64_to_json(*id))])
            }
            Request::Stats => Json::obj([("op", Json::str("stats"))]),
            Request::TraceExport => Json::obj([("op", Json::str("trace_export"))]),
            Request::Metrics => Json::obj([("op", Json::str("metrics"))]),
            Request::Ping => Json::obj([("op", Json::str("ping"))]),
            Request::Shutdown => Json::obj([("op", Json::str("shutdown"))]),
        }
    }

    /// Parses a request object.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        match v.get("op").and_then(Json::as_str) {
            Some("register") => Ok(Request::Register {
                model: v
                    .get("model")
                    .and_then(Json::as_str)
                    .ok_or("register missing model")?
                    .to_string(),
                source: ModelSource::from_json(v.get("source").ok_or("register missing source")?)?,
            }),
            Some("query") => {
                Ok(Request::Query(QueryRequest {
                    model: v
                        .get("model")
                        .and_then(Json::as_str)
                        .ok_or("query missing model")?
                        .to_string(),
                    id: match v.get("id") {
                        None | Some(Json::Null) => None,
                        Some(j) => Some(u64_from_json(j).ok_or(
                            "query id must be a u64 (numbers below 2^53, string form above)",
                        )?),
                    },
                    seed: v
                        .get("seed")
                        .and_then(u64_from_json)
                        .ok_or("query missing seed")?,
                    budget: match v.get("budget") {
                        None => BudgetSpec::default(),
                        Some(b) => BudgetSpec::from_json(b)?,
                    },
                    query: QuerySpec::from_json(v.get("query").ok_or("query missing query")?)?,
                    trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
                }))
            }
            // Lint in flat form; seed and budget are optional because a
            // static pass neither samples nor usually needs a budget,
            // but both are honored when supplied (the query still runs
            // through the ordinary scheduler and cache).
            Some("lint") => Ok(Request::Query(QueryRequest {
                model: v
                    .get("model")
                    .and_then(Json::as_str)
                    .ok_or("lint missing model")?
                    .to_string(),
                id: match v.get("id") {
                    None | Some(Json::Null) => None,
                    Some(j) => {
                        Some(u64_from_json(j).ok_or(
                            "lint id must be a u64 (numbers below 2^53, string form above)",
                        )?)
                    }
                },
                seed: match v.get("seed") {
                    None | Some(Json::Null) => 0,
                    Some(j) => u64_from_json(j)
                        .ok_or("lint seed must be a u64 (numbers below 2^53, string form above)")?,
                },
                budget: match v.get("budget") {
                    None => BudgetSpec::default(),
                    Some(b) => BudgetSpec::from_json(b)?,
                },
                query: QuerySpec::Lint {
                    ranges: ranges_from_json(v)?,
                },
                trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
            })),
            Some("cancel") => Ok(Request::Cancel {
                id: v
                    .get("id")
                    .and_then(u64_from_json)
                    .ok_or("cancel missing id")?,
            }),
            Some("stats") => Ok(Request::Stats),
            Some("trace_export") => Ok(Request::TraceExport),
            Some("metrics") => Ok(Request::Metrics),
            Some("ping") => Ok(Request::Ping),
            Some("shutdown") => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Parses a request line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        Request::from_json(&crate::json::parse_json(line.trim())?)
    }
}

/// A report float: finite values as JSON numbers (whose shortest
/// round-trip rendering is bit-exact, `-0.0` included), non-finite ones
/// as the strings `"inf"`, `"-inf"` and `"NaN"`, which JSON numbers
/// cannot express.
fn f64_to_json(v: f64) -> Json {
    match v {
        _ if v.is_finite() => Json::Num(v),
        f64::INFINITY => Json::str("inf"),
        f64::NEG_INFINITY => Json::str("-inf"),
        _ => Json::str("NaN"),
    }
}

fn f64_from_json(v: &Json) -> Option<f64> {
    match v {
        Json::Num(v) => Some(*v),
        _ => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
            .into_iter()
            .find(|&x| f64_to_json(x) == *v),
    }
}

/// Serializes a [`Report`] into the response `"report"` payload:
/// discriminant, outcome, the typed value, provenance, and the
/// server-computed [`Report::fingerprint`] (so clients can check
/// bit-level agreement without reconstructing the struct). Every float
/// is lossless (see [`report_from_json`]); phase timings are not.
pub fn report_to_json(report: &Report) -> Json {
    let value = match &report.value {
        Value::Estimate(e) => Json::obj([
            ("type", Json::str("estimate")),
            ("p_hat", f64_to_json(e.p_hat)),
            ("samples", Json::num(e.samples as f64)),
            ("half_width", f64_to_json(e.half_width)),
            ("confidence", f64_to_json(e.confidence)),
        ]),
        Value::Sprt(r) => Json::obj([
            ("type", Json::str("sprt")),
            ("outcome", Json::str(format!("{:?}", r.outcome))),
            ("samples", Json::num(r.samples as f64)),
            ("p_hat", f64_to_json(r.p_hat)),
        ]),
        Value::Robustness(r) => Json::obj([
            ("type", Json::str("robustness")),
            ("p_hat", f64_to_json(r.p_hat)),
            ("mean", f64_to_json(r.mean)),
            ("min", f64_to_json(r.min)),
        ]),
        Value::Stability(r) => {
            let report = r.as_ref().map_or(Json::Null, |rep| {
                Json::obj([
                    (
                        "equilibrium",
                        Json::Arr(rep.equilibrium.iter().map(|&v| f64_to_json(v)).collect()),
                    ),
                    ("lyapunov", Json::str(rep.lyapunov.clone())),
                    ("iterations", Json::num(rep.iterations as f64)),
                    ("certified", Json::Bool(rep.certified)),
                ])
            });
            Json::obj([("type", Json::str("stability")), ("report", report)])
        }
        Value::Lint(diags) => {
            let diagnostic = |d: &biocheck_engine::Diagnostic| {
                let witness = d.witness.iter().map(|(name, iv)| {
                    let (lo, hi) = (f64_to_json(iv.lo()), f64_to_json(iv.hi()));
                    Json::Arr(vec![Json::str(name.clone()), lo, hi])
                });
                Json::obj([
                    ("code", Json::str(d.code.clone())),
                    ("severity", Json::str(d.severity.name())),
                    ("site", Json::str(d.site.clone())),
                    ("message", Json::str(d.message.clone())),
                    ("expr", d.expr.clone().map_or(Json::Null, Json::Str)),
                    ("witness", Json::Arr(witness.collect())),
                ])
            };
            let diags = diags.iter().map(diagnostic).collect();
            Json::obj([
                ("type", Json::str("lint")),
                ("diagnostics", Json::Arr(diags)),
            ])
        }
        // Not producible over the wire today; serialized as a debug
        // rendering so the payload is still total.
        other => Json::obj([
            ("type", Json::str("opaque")),
            ("debug", Json::str(format!("{other:?}"))),
        ]),
    };
    Json::obj([
        ("kind", Json::str(format!("{:?}", report.kind))),
        (
            "outcome",
            Json::str(match report.outcome {
                biocheck_engine::Outcome::Complete => "complete",
                biocheck_engine::Outcome::Exhausted => "exhausted",
            }),
        ),
        ("value", value),
        (
            "provenance",
            Json::obj([
                ("seed", u64_to_json(report.provenance.seed)),
                ("samples", Json::num(report.provenance.samples as f64)),
                (
                    "early_stop_rate",
                    f64_to_json(report.provenance.early_stop_rate),
                ),
                ("avg_steps", f64_to_json(report.provenance.avg_steps)),
                // Phase timings are observability-only (excluded from
                // the fingerprint); null when unmeasured, e.g. a report
                // reloaded from a persistence log.
                (
                    "compile_ms",
                    opt_duration_ms(report.provenance.compile_time),
                ),
                ("run_ms", opt_duration_ms(report.provenance.run_time)),
            ]),
        ),
        ("fingerprint", Json::str(report.fingerprint())),
    ])
}

fn opt_duration_ms(d: Option<std::time::Duration>) -> Json {
    match d {
        Some(d) => Json::Num(d.as_secs_f64() * 1e3),
        None => Json::Null,
    }
}

/// The inverse of [`report_to_json`] for the wire-producible kinds
/// (`Estimate`, `Sprt`, `Robustness`, `Stability`, `Lint`). The result
/// is `fingerprint()`-identical to the serialized report: the payload's
/// own `"fingerprint"` is checked against the decoded report, so any
/// payload that does not decode to exactly what was serialized is
/// `None`. Phase timings are observability-only and come back `None`.
pub fn report_from_json(v: &Json) -> Option<Report> {
    use biocheck_engine::{
        Diagnostic, Outcome, Provenance, QueryKind, RobustnessSummary, Severity,
    };
    use biocheck_smc::{Estimate, SprtOutcome, SprtResult};
    let f = |v: &Json, key: &str| f64_from_json(v.get(key)?);
    let n = |v: &Json, key: &str| v.get(key)?.as_usize();
    let s = |v: &Json, key: &str| Some(v.get(key)?.as_str()?.to_string());
    let val = v.get("value")?;
    let (kind, value) = match (v.get("kind")?.as_str()?, val.get("type")?.as_str()?) {
        ("Estimate", "estimate") => (
            QueryKind::Estimate,
            Value::Estimate(Estimate {
                p_hat: f(val, "p_hat")?,
                samples: n(val, "samples")?,
                half_width: f(val, "half_width")?,
                confidence: f(val, "confidence")?,
            }),
        ),
        ("Sprt", "sprt") => (
            QueryKind::Sprt,
            Value::Sprt(SprtResult {
                outcome: match val.get("outcome")?.as_str()? {
                    "AcceptH0" => SprtOutcome::AcceptH0,
                    "AcceptH1" => SprtOutcome::AcceptH1,
                    "Inconclusive" => SprtOutcome::Inconclusive,
                    _ => return None,
                },
                samples: n(val, "samples")?,
                p_hat: f(val, "p_hat")?,
            }),
        ),
        ("Robustness", "robustness") => (
            QueryKind::Robustness,
            Value::Robustness(RobustnessSummary {
                p_hat: f(val, "p_hat")?,
                mean: f(val, "mean")?,
                min: f(val, "min")?,
            }),
        ),
        ("Stability", "stability") => (
            QueryKind::Stability,
            Value::Stability(match val.get("report")? {
                Json::Null => None,
                r => Some(biocheck_engine::StabilityReport {
                    equilibrium: (r.get("equilibrium")?.as_arr()?.iter())
                        .map(f64_from_json)
                        .collect::<Option<_>>()?,
                    lyapunov: s(r, "lyapunov")?,
                    iterations: n(r, "iterations")?,
                    certified: r.get("certified")?.as_bool()?,
                }),
            }),
        ),
        ("Lint", "lint") => {
            let diagnostic = |d: &Json| {
                let witness = (d.get("witness")?.as_arr()?.iter())
                    .map(|w| {
                        let [name, lo, hi] = w.as_arr()? else {
                            return None;
                        };
                        let (lo, hi) = (f64_from_json(lo)?, f64_from_json(hi)?);
                        let iv = if lo.is_nan() && hi.is_nan() {
                            Interval::EMPTY
                        } else {
                            Interval::checked(lo, hi)?
                        };
                        Some((name.as_str()?.to_string(), iv))
                    })
                    .collect::<Option<_>>()?;
                let severity = s(d, "severity")?;
                Some(Diagnostic {
                    code: s(d, "code")?,
                    severity: [Severity::Error, Severity::Warn, Severity::Info]
                        .into_iter()
                        .find(|x| x.name() == severity)?,
                    site: s(d, "site")?,
                    message: s(d, "message")?,
                    expr: match d.get("expr")? {
                        Json::Null => None,
                        e => Some(e.as_str()?.to_string()),
                    },
                    witness,
                })
            };
            let diags = val.get("diagnostics")?.as_arr()?.iter().map(diagnostic);
            (QueryKind::Lint, Value::Lint(diags.collect::<Option<_>>()?))
        }
        _ => return None,
    };
    let p = v.get("provenance")?;
    let report = Report {
        kind,
        outcome: match v.get("outcome")?.as_str()? {
            "complete" => Outcome::Complete,
            "exhausted" => Outcome::Exhausted,
            _ => return None,
        },
        value,
        provenance: Provenance {
            seed: u64_from_json(p.get("seed")?)?,
            samples: n(p, "samples")?,
            early_stop_rate: f(p, "early_stop_rate")?,
            avg_steps: f(p, "avg_steps")?,
            ..Provenance::default()
        },
    };
    (report.fingerprint() == v.get("fingerprint")?.as_str()?).then_some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn sample_request() -> Request {
        Request::Query(QueryRequest {
            model: "decay".into(),
            id: Some(7),
            seed: 42,
            trace: false,
            budget: BudgetSpec {
                max_samples: Some(500),
                max_paver_boxes: None,
                deadline_ms: Some(250),
                queue_ms: Some(1_000),
            },
            query: QuerySpec::Estimate {
                smc: SmcSpecWire {
                    init: vec![DistSpec::Uniform(0.5, 1.5)],
                    params: vec![("k".into(), DistSpec::Point(1.0))],
                    property: PropSpec::Eventually {
                        bound: 0.01,
                        inner: Box::new(PropSpec::Prop {
                            expr: "x - 1".into(),
                            rel: RelOp::Ge,
                        }),
                    },
                    t_end: 0.01,
                },
                method: MethodSpec::Fixed { n: 200 },
            },
        })
    }

    #[test]
    fn requests_roundtrip_through_json() {
        let requests = vec![
            sample_request(),
            Request::Register {
                model: "decay".into(),
                source: ModelSource {
                    states: vec![("x".into(), "-k*x".into())],
                    consts: vec![("k".into(), 1.0)],
                },
            },
            Request::Cancel { id: 3 },
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
            Request::Query(QueryRequest {
                model: "m".into(),
                id: None,
                seed: 0,
                trace: false,
                budget: BudgetSpec::default(),
                query: QuerySpec::Stability {
                    region: vec![(-0.5, 0.5), (-1.0, 1.0)],
                    r_min: 0.1,
                    r_max: 0.4,
                },
            }),
            Request::Query(QueryRequest {
                model: "m".into(),
                id: None,
                seed: 9,
                trace: false,
                budget: BudgetSpec::default(),
                query: QuerySpec::Sprt {
                    smc: SmcSpecWire {
                        init: vec![DistSpec::Normal { mean: 0.0, sd: 1.0 }],
                        params: vec![],
                        property: PropSpec::And(vec![
                            PropSpec::True,
                            PropSpec::Not(Box::new(PropSpec::Prop {
                                expr: "x".into(),
                                rel: RelOp::Lt,
                            })),
                        ]),
                        t_end: 1.0,
                    },
                    theta: 0.8,
                    indiff: 0.05,
                    alpha: 0.01,
                    beta: 0.01,
                    max_samples: 1000,
                },
            }),
        ];
        for req in requests {
            let line = req.to_json().render();
            let back = Request::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, req, "{line}");
        }
    }

    #[test]
    fn lint_requests_roundtrip_through_json() {
        // Flat form with every optional field absent, with ranges, and
        // with a non-default seed/budget/id.
        let bare = Request::Query(QueryRequest {
            model: "m".into(),
            id: None,
            seed: 0,
            trace: false,
            budget: BudgetSpec::default(),
            query: QuerySpec::Lint { ranges: vec![] },
        });
        let full = Request::Query(QueryRequest {
            model: "m".into(),
            id: Some(12),
            seed: 3,
            trace: false,
            budget: BudgetSpec {
                max_samples: Some(10),
                ..BudgetSpec::default()
            },
            query: QuerySpec::Lint {
                ranges: vec![("x".into(), 0.0, 5.0), ("k".into(), 0.1, 0.4)],
            },
        });
        for req in [bare, full] {
            let line = req.to_json().render();
            assert!(line.contains("\"op\":\"lint\""), "{line}");
            let back = Request::from_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, req, "{line}");
        }
        // Hand-written client form parses too.
        let req =
            Request::from_line(r#"{"op":"lint","model":"decay","ranges":[["x",0,2]]}"#).unwrap();
        let Request::Query(qr) = req else {
            unreachable!()
        };
        assert_eq!(qr.seed, 0);
        assert_eq!(
            qr.query,
            QuerySpec::Lint {
                ranges: vec![("x".into(), 0.0, 2.0)],
            }
        );
    }

    #[test]
    fn lint_spec_builds_and_reports_serialize() {
        let source = ModelSource {
            states: vec![("x".into(), "-k*x".into())],
            consts: vec![("k".into(), 1.0)],
        };
        let (mut cx, sys) = source.build().unwrap();
        let spec = QuerySpec::Lint {
            ranges: vec![("x".into(), 0.0, 2.0)],
        };
        let query = spec.build(&mut cx).unwrap();
        let Query::Lint {
            ranges, declared, ..
        } = &query
        else {
            panic!("expected lint query")
        };
        assert_eq!(ranges.len(), 1);
        assert_eq!(declared.len(), cx.num_vars());
        // Unknown variables are a parse-time error, not a silent skip.
        let bad = QuerySpec::Lint {
            ranges: vec![("nope".into(), 0.0, 1.0)],
        };
        assert!(bad.build(&mut cx).unwrap_err().contains("unknown"));
        // Run it for real and check the typed serialization.
        let session = biocheck_engine::Session::from_parts(cx, sys);
        let report = session.query(query).run().unwrap();
        let json = report_to_json(&report);
        let value = json.get("value").unwrap();
        assert_eq!(value.get("type").and_then(Json::as_str), Some("lint"));
        assert!(value.get("diagnostics").and_then(Json::as_arr).is_some());
        assert_eq!(
            json.get("fingerprint").and_then(Json::as_str),
            Some(report.fingerprint().as_str())
        );
    }

    /// `OP_NAMES` is the docs-drift source of truth: it must cover
    /// exactly the ops the parser accepts and the renderer emits.
    #[test]
    fn op_names_match_protocol() {
        let argless = [
            ("stats", Request::Stats),
            ("trace_export", Request::TraceExport),
            ("metrics", Request::Metrics),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ];
        for (name, want) in argless {
            assert!(OP_NAMES.contains(&name));
            let parsed = Request::from_line(&format!("{{\"op\":\"{name}\"}}")).unwrap();
            assert_eq!(parsed, want);
        }
        // Ops with payloads: the rendered discriminant is listed.
        for req in [
            sample_request(),
            Request::Register {
                model: "m".into(),
                source: ModelSource {
                    states: vec![("x".into(), "-x".into())],
                    consts: vec![],
                },
            },
            Request::Cancel { id: 1 },
            Request::Query(QueryRequest {
                model: "m".into(),
                id: None,
                seed: 0,
                trace: false,
                budget: BudgetSpec::default(),
                query: QuerySpec::Lint { ranges: vec![] },
            }),
        ] {
            let op = req
                .to_json()
                .get("op")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert!(OP_NAMES.contains(&op.as_str()), "unlisted op {op}");
        }
        assert_eq!(OP_NAMES.len(), 9);
    }

    /// The `trace` flag rides along on query and lint requests, is
    /// omitted from the wire form when false, and round-trips when set.
    #[test]
    fn trace_flag_roundtrips_and_defaults_off() {
        let Request::Query(mut qr) = sample_request() else {
            unreachable!()
        };
        let plain = Request::Query(qr.clone()).to_json().render();
        assert!(!plain.contains("\"trace\""), "{plain}");
        qr.trace = true;
        let traced = Request::Query(qr.clone());
        let line = traced.to_json().render();
        assert!(line.contains("\"trace\":true"), "{line}");
        assert_eq!(Request::from_line(&line).unwrap(), traced);
        // Flat lint form carries it too.
        let lint = Request::Query(QueryRequest {
            model: "m".into(),
            id: None,
            seed: 0,
            trace: true,
            budget: BudgetSpec::default(),
            query: QuerySpec::Lint { ranges: vec![] },
        });
        let line = lint.to_json().render();
        assert!(line.contains("\"op\":\"lint\"") && line.contains("\"trace\":true"));
        assert_eq!(Request::from_line(&line).unwrap(), lint);
    }

    #[test]
    fn query_spec_builds_against_model_context() {
        let source = ModelSource {
            states: vec![("x".into(), "-k*x".into())],
            consts: vec![("k".into(), 1.0)],
        };
        let (mut cx, sys) = source.build().unwrap();
        assert_eq!(sys.dim(), 1);
        let Request::Query(qr) = sample_request() else {
            unreachable!()
        };
        let query = qr.query.build(&mut cx).unwrap();
        assert!(matches!(query, Query::Estimate { .. }));
        // Unknown parameter names are an error, not a silent intern.
        let bad = QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Point(1.0)],
                params: vec![("nope".into(), DistSpec::Point(0.0))],
                property: PropSpec::True,
                t_end: 1.0,
            },
            method: MethodSpec::Fixed { n: 1 },
        };
        assert!(bad.build(&mut cx).is_err());
    }

    #[test]
    fn large_seeds_roundtrip_losslessly() {
        let req = Request::Query(QueryRequest {
            model: "m".into(),
            id: Some(u64::MAX - 7),
            seed: u64::MAX,
            trace: false,
            budget: BudgetSpec::default(),
            query: QuerySpec::Stability {
                region: vec![(-1.0, 1.0)],
                r_min: 0.1,
                r_max: 0.5,
            },
        });
        let line = req.to_json().render();
        let back = Request::from_line(&line).unwrap();
        assert_eq!(back, req, "{line}");
        let cancel = Request::Cancel { id: u64::MAX - 7 };
        let back = Request::from_line(&cancel.to_json().render()).unwrap();
        assert_eq!(back, cancel);
    }

    #[test]
    fn model_name_collisions_are_rejected() {
        // A const shadowing a state would substitute the state out of
        // its own dynamics.
        let bad = ModelSource {
            states: vec![("x".into(), "-k*x".into())],
            consts: vec![("x".into(), 2.0), ("k".into(), 1.0)],
        };
        assert!(bad.build().unwrap_err().contains("collides"));
        let dup_state = ModelSource {
            states: vec![("x".into(), "-x".into()), ("x".into(), "x".into())],
            consts: vec![],
        };
        assert!(dup_state.build().unwrap_err().contains("duplicate state"));
        let dup_const = ModelSource {
            states: vec![("x".into(), "-k*x".into())],
            consts: vec![("k".into(), 1.0), ("k".into(), 2.0)],
        };
        assert!(dup_const.build().unwrap_err().contains("duplicate const"));
    }

    #[test]
    fn numeric_seeds_at_or_above_2_53_are_rejected() {
        // 2^53 as a plain JSON number is ambiguous (2^53 + 1 rounds to
        // it), so the decoder demands the string form there.
        let line = r#"{"op":"query","model":"m","seed":9007199254740992,"query":{"type":"stability","region":[[-1,1]],"r_min":0.1,"r_max":0.5}}"#;
        assert!(Request::from_line(line).is_err());
        // The same value as a string is accepted.
        let line = r#"{"op":"query","model":"m","seed":"9007199254740992","query":{"type":"stability","region":[[-1,1]],"r_min":0.1,"r_max":0.5}}"#;
        let req = Request::from_line(line).unwrap();
        let Request::Query(qr) = req else {
            unreachable!()
        };
        assert_eq!(qr.seed, 1 << 53);
        // Below the boundary, numbers are fine.
        let line = r#"{"op":"query","model":"m","seed":9007199254740991,"query":{"type":"stability","region":[[-1,1]],"r_min":0.1,"r_max":0.5}}"#;
        assert!(Request::from_line(line).is_ok());
    }

    #[test]
    fn non_finite_wire_numerics_are_refused_before_they_run() {
        let source = ModelSource {
            states: vec![("x".into(), "-x".into())],
            consts: vec![],
        };
        let (cx, sys) = source.build().unwrap();
        let session = biocheck_engine::Session::from_parts(cx.clone(), sys);
        // `build` refuses what it cannot lower; the session's gate,
        // which the server runs next, refuses the rest.
        let refusal = |q: QuerySpec| match q.build(&mut cx.clone()) {
            Ok(query) => session.check(&query).unwrap_err().to_string(),
            Err(e) => e,
        };
        // Infinite horizon (what "1e999" parses to).
        let q = QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Point(1.0)],
                params: vec![],
                property: PropSpec::True,
                t_end: f64::INFINITY,
            },
            method: MethodSpec::Fixed { n: 1 },
        };
        assert!(refusal(q).contains("t_end"));
        // Infinite property bound.
        let q = QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Point(1.0)],
                params: vec![],
                property: PropSpec::Eventually {
                    bound: f64::INFINITY,
                    inner: Box::new(PropSpec::True),
                },
                t_end: 1.0,
            },
            method: MethodSpec::Fixed { n: 1 },
        };
        assert!(refusal(q).contains("bound"));
        // NaN distribution parameter.
        let q = QuerySpec::Robustness {
            smc: SmcSpecWire {
                init: vec![DistSpec::Uniform(0.0, f64::NAN)],
                params: vec![],
                property: PropSpec::True,
                t_end: 1.0,
            },
            samples: 1,
        };
        assert!(refusal(q).contains("uniform"));
        // Infinite stability radius and inverted region.
        let q = QuerySpec::Stability {
            region: vec![(-1.0, 1.0)],
            r_min: 0.1,
            r_max: f64::INFINITY,
        };
        assert!(refusal(q).contains("r_max"));
        let q = QuerySpec::Stability {
            region: vec![(1.0, -1.0)],
            r_min: 0.1,
            r_max: 0.5,
        };
        assert!(q.build(&mut cx.clone()).unwrap_err().contains("empty"));
    }

    #[test]
    fn malformed_requests_error_cleanly() {
        for line in [
            "",
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"query\",\"model\":\"m\"}",
            "{\"op\":\"register\",\"model\":\"m\"}",
            "not json at all",
        ] {
            assert!(Request::from_line(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn report_serialization_includes_fingerprint() {
        use biocheck_engine::{Outcome, Provenance, QueryKind};
        let report = Report {
            kind: QueryKind::Robustness,
            outcome: Outcome::Complete,
            value: Value::Robustness(biocheck_engine::RobustnessSummary {
                p_hat: 0.5,
                mean: 1.25,
                min: f64::NEG_INFINITY,
            }),
            provenance: Provenance {
                seed: 3,
                samples: 10,
                ..Provenance::default()
            },
        };
        let json = report_to_json(&report);
        assert_eq!(
            json.get("fingerprint").and_then(Json::as_str),
            Some(report.fingerprint().as_str())
        );
        // -inf travels as a string, not as a panic or invalid JSON.
        assert_eq!(
            json.get("value").unwrap().get("min"),
            Some(&Json::str("-inf"))
        );
        let line = json.render();
        assert_eq!(parse_json(&line).unwrap(), json);
        let back = report_from_json(&parse_json(&line).unwrap()).expect("decodes");
        assert_eq!(back.fingerprint(), report.fingerprint());
    }
}
