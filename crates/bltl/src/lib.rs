//! Bounded linear temporal logic (BLTL) over simulation traces.
//!
//! The paper's SMC framework "uses bounded linear temporal logic to encode
//! quantitative behavioral constraints and qualitative properties of
//! biochemical networks" (Section I). This crate provides the logic and
//! two semantics:
//!
//! * **Boolean** ([`Monitor::check`]) — satisfaction at the first sample
//!   of a [`biocheck_ode::Trace`], with time-bounded `U`, `F`, `G`.
//! * **Quantitative robustness** ([`Monitor::robustness`]) — the signed
//!   margin by which the property holds (min/max recursion à la
//!   Fainekos–Pappas); positive robustness implies Boolean satisfaction.
//!
//! Hybrid trajectories are monitored by uniform resampling
//! ([`Monitor::check_hybrid`]).
//!
//! For hot loops (SMC sampling), the [`stream`] module compiles a
//! formula once into a [`CompiledBltl`] monitor plan evaluated
//! incrementally: [`CompiledBltl::feed`] returns a three-valued
//! [`Verdict`] that lets a simulation stop integrating the moment the
//! Boolean verdict is decided, and one pass produces satisfaction *and*
//! robustness, allocation-free after warm-up.
//!
//! # Examples
//!
//! ```
//! use biocheck_bltl::{Bltl, Monitor};
//! use biocheck_expr::{Atom, Context, RelOp};
//! use biocheck_ode::OdeSystem;
//!
//! let mut cx = Context::new();
//! let x = cx.intern_var("x");
//! let rhs = cx.parse("-x").unwrap();
//! let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
//! let trace = ode.integrate(&[0.0], &[1.0], (0.0, 5.0)).unwrap();
//!
//! // F≤5 (x ≤ 0.1): decay eventually drops below 0.1.
//! let thr = cx.parse("0.1 - x").unwrap();
//! let phi = Bltl::eventually(5.0, Bltl::Prop(Atom::new(thr, RelOp::Ge)));
//! let states = [x];
//! let mut mon = Monitor::new(&cx, &states);
//! assert!(mon.check(&phi, &trace));
//! ```

pub mod stream;

pub use stream::{CompiledBltl, MonitorScratch, Verdict};

use biocheck_expr::{Atom, Context, EvalScratch, Program, VarId};
use biocheck_hybrid::HybridTrajectory;
use biocheck_ode::Trace;

/// A bounded LTL formula over atomic state predicates.
#[derive(Clone, Debug)]
pub enum Bltl {
    /// An atomic proposition `t ⋈ 0` over state (and parameter) variables.
    Prop(Atom),
    /// Negation.
    Not(Box<Bltl>),
    /// Conjunction.
    And(Vec<Bltl>),
    /// Disjunction.
    Or(Vec<Bltl>),
    /// `lhs U≤t rhs`: `rhs` within `t` time units, `lhs` holding until then.
    Until {
        /// Left operand (must hold until `rhs`).
        lhs: Box<Bltl>,
        /// Right operand (must eventually hold).
        rhs: Box<Bltl>,
        /// Time bound.
        bound: f64,
    },
}

impl Bltl {
    /// `F≤t φ` (eventually within `t`).
    pub fn eventually(bound: f64, f: Bltl) -> Bltl {
        Bltl::Until {
            lhs: Box::new(Bltl::And(vec![])), // True
            rhs: Box::new(f),
            bound,
        }
    }

    /// `G≤t φ` (always within `t`): `¬F≤t ¬φ`.
    pub fn globally(bound: f64, f: Bltl) -> Bltl {
        Bltl::Not(Box::new(Bltl::eventually(bound, Bltl::Not(Box::new(f)))))
    }

    /// `a → b`.
    pub fn implies(a: Bltl, b: Bltl) -> Bltl {
        Bltl::Or(vec![Bltl::Not(Box::new(a)), b])
    }

    /// The constant *true* (empty conjunction).
    pub fn truth() -> Bltl {
        Bltl::And(vec![])
    }
}

/// Evaluates BLTL formulas on traces; holds the variable layout and the
/// parameter environment.
pub struct Monitor<'a> {
    cx: &'a Context,
    states: &'a [VarId],
    env: Vec<f64>,
    /// Reused evaluation buffers: the per-trace-sample inner loop of
    /// monitoring must not allocate (atoms compile once per distinct
    /// term via `progs`, then evaluate allocation-free).
    scratch: EvalScratch,
    /// Compiled form of each atom term, keyed by its root node — shared
    /// across `check`/`robustness` calls and repeated atom occurrences.
    progs: std::collections::HashMap<biocheck_expr::NodeId, Program>,
}

impl<'a> Monitor<'a> {
    /// Creates a monitor with a zeroed parameter environment.
    pub fn new(cx: &'a Context, states: &'a [VarId]) -> Monitor<'a> {
        Monitor {
            cx,
            states,
            env: vec![0.0; cx.num_vars()],
            scratch: EvalScratch::new(),
            progs: std::collections::HashMap::new(),
        }
    }

    /// Sets the full environment (parameter values at their indices).
    #[must_use]
    pub fn with_env(mut self, env: Vec<f64>) -> Monitor<'a> {
        self.env = env;
        self.env.resize(self.cx.num_vars(), 0.0);
        self
    }

    /// Boolean satisfaction at the start of the trace.
    pub fn check(&mut self, f: &Bltl, trace: &Trace) -> bool {
        self.sat_vec(f, trace)[0]
    }

    /// Quantitative robustness at the start of the trace; `> 0` implies
    /// Boolean satisfaction, `< 0` implies violation.
    pub fn robustness(&mut self, f: &Bltl, trace: &Trace) -> f64 {
        self.rob_vec(f, trace)[0]
    }

    /// Boolean satisfaction over a hybrid trajectory, resampled at `dt`.
    pub fn check_hybrid(&mut self, f: &Bltl, traj: &HybridTrajectory, dt: f64) -> bool {
        let trace = resample_hybrid(traj, dt);
        self.check(f, &trace)
    }

    /// Robustness over a hybrid trajectory, resampled at `dt`.
    pub fn robustness_hybrid(&mut self, f: &Bltl, traj: &HybridTrajectory, dt: f64) -> f64 {
        let trace = resample_hybrid(traj, dt);
        self.robustness(f, &trace)
    }

    /// Margins of an atom at every sample: positive iff the atom holds.
    ///
    /// The atom's term is compiled once per monitor (atoms are few,
    /// samples many); per-sample evaluation is then allocation- and
    /// planning-free.
    fn margins(&mut self, a: &Atom, trace: &Trace) -> Vec<f64> {
        let Monitor {
            cx,
            states,
            env,
            scratch,
            progs,
        } = self;
        let prog = progs
            .entry(a.expr)
            .or_insert_with(|| Program::compile(cx, &[a.expr]));
        let mut out = [0.0];
        (0..trace.len())
            .map(|i| {
                for (&v, &x) in states.iter().zip(trace.state(i)) {
                    env[v.index()] = x;
                }
                prog.eval_with(env, scratch, &mut out);
                stream::margin(out[0], a.op)
            })
            .collect()
    }

    /// Satisfaction of `f` at every sample index.
    fn sat_vec(&mut self, f: &Bltl, trace: &Trace) -> Vec<bool> {
        let n = trace.len();
        match f {
            Bltl::Prop(a) => self.margins(a, trace).iter().map(|&m| m >= 0.0).collect(),
            Bltl::Not(g) => self.sat_vec(g, trace).iter().map(|b| !b).collect(),
            Bltl::And(gs) => {
                let mut acc = vec![true; n];
                for g in gs {
                    for (a, b) in acc.iter_mut().zip(self.sat_vec(g, trace)) {
                        *a &= b;
                    }
                }
                acc
            }
            Bltl::Or(gs) => {
                let mut acc = vec![false; n];
                for g in gs {
                    for (a, b) in acc.iter_mut().zip(self.sat_vec(g, trace)) {
                        *a |= b;
                    }
                }
                acc
            }
            Bltl::Until { lhs, rhs, bound } => {
                let l = self.sat_vec(lhs, trace);
                let r = self.sat_vec(rhs, trace);
                let times = trace.times();
                (0..n)
                    .map(|i| {
                        for j in i..n {
                            if times[j] - times[i] > *bound {
                                break;
                            }
                            if r[j] {
                                return true;
                            }
                            if !l[j] {
                                break;
                            }
                        }
                        false
                    })
                    .collect()
            }
        }
    }

    /// Robustness of `f` at every sample index.
    fn rob_vec(&mut self, f: &Bltl, trace: &Trace) -> Vec<f64> {
        let n = trace.len();
        match f {
            Bltl::Prop(a) => self.margins(a, trace),
            Bltl::Not(g) => self.rob_vec(g, trace).iter().map(|v| -v).collect(),
            Bltl::And(gs) => {
                let mut acc = vec![f64::INFINITY; n];
                for g in gs {
                    for (a, b) in acc.iter_mut().zip(self.rob_vec(g, trace)) {
                        *a = a.min(b);
                    }
                }
                acc
            }
            Bltl::Or(gs) => {
                let mut acc = vec![f64::NEG_INFINITY; n];
                for g in gs {
                    for (a, b) in acc.iter_mut().zip(self.rob_vec(g, trace)) {
                        *a = a.max(b);
                    }
                }
                acc
            }
            Bltl::Until { lhs, rhs, bound } => {
                let l = self.rob_vec(lhs, trace);
                let r = self.rob_vec(rhs, trace);
                let times = trace.times();
                (0..n)
                    .map(|i| {
                        let mut best = f64::NEG_INFINITY;
                        let mut prefix = f64::INFINITY;
                        for j in i..n {
                            if times[j] - times[i] > *bound {
                                break;
                            }
                            best = best.max(prefix.min(r[j]));
                            prefix = prefix.min(l[j]);
                        }
                        best
                    })
                    .collect()
            }
        }
    }
}

/// Uniformly resamples a hybrid trajectory into a single trace (losing
/// the mode labels; properties over modes should be encoded as state
/// observables in the model).
pub fn resample_hybrid(traj: &HybridTrajectory, dt: f64) -> Trace {
    assert!(dt > 0.0, "resampling step must be positive");
    let t_end = traj.duration();
    let mut times = Vec::new();
    let mut states = Vec::new();
    let mut t = 0.0;
    while t < t_end {
        times.push(t);
        states.push(traj.state_at(t));
        t += dt;
    }
    times.push(t_end);
    states.push(traj.final_state().to_vec());
    let dim = states[0].len();
    let derivs = vec![vec![0.0; dim]; times.len()];
    Trace::new(times, states, derivs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::RelOp;

    /// A hand-built trace of x = [0, 1, 2, 3, 2, 1, 0] at t = 0..6.
    fn tent(cx: &Context) -> Trace {
        let _ = cx;
        let xs = [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        Trace::new(
            (0..7).map(|i| i as f64).collect(),
            xs.iter().map(|&v| vec![v]).collect(),
            vec![vec![0.0]; 7],
        )
    }

    fn prop(cx: &mut Context, src: &str, op: RelOp) -> Bltl {
        let e = cx.parse(src).unwrap();
        Bltl::Prop(Atom::new(e, op))
    }

    #[test]
    fn eventually_within_bound() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let p = prop(&mut cx, "x - 3", RelOp::Ge); // x ≥ 3 at t = 3
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        assert!(m.check(&Bltl::eventually(3.0, p.clone()), &tr));
        assert!(!m.check(&Bltl::eventually(2.0, p), &tr));
    }

    #[test]
    fn globally_bound() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let p = prop(&mut cx, "x", RelOp::Ge); // x ≥ 0 always
        let q = prop(&mut cx, "2.5 - x", RelOp::Ge); // x ≤ 2.5 fails at t=3
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        assert!(m.check(&Bltl::globally(6.0, p), &tr));
        assert!(!m.check(&Bltl::globally(6.0, q.clone()), &tr));
        assert!(m.check(&Bltl::globally(2.0, q), &tr)); // holds up to t=2
    }

    #[test]
    fn until_semantics() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        // (x ≤ 2.5) U≤4 (x ≥ 3): lhs holds at t=0,1,2, rhs at t=3. True.
        let lhs = prop(&mut cx, "2.5 - x", RelOp::Ge);
        let rhs = prop(&mut cx, "x - 3", RelOp::Ge);
        // (x ≤ 1.5) U≤4 (x ≥ 3): lhs breaks at t=2 before rhs. False.
        let lhs2 = prop(&mut cx, "1.5 - x", RelOp::Ge);
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        let u = Bltl::Until {
            lhs: Box::new(lhs.clone()),
            rhs: Box::new(rhs.clone()),
            bound: 4.0,
        };
        assert!(m.check(&u, &tr));
        let u2 = Bltl::Until {
            lhs: Box::new(lhs2),
            rhs: Box::new(rhs),
            bound: 4.0,
        };
        assert!(!m.check(&u2, &tr));
    }

    #[test]
    fn robustness_sign_matches_boolean() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let formulas = vec![
            Bltl::eventually(3.0, prop(&mut cx, "x - 3", RelOp::Ge)),
            Bltl::eventually(2.0, prop(&mut cx, "x - 3", RelOp::Ge)),
            Bltl::globally(6.0, prop(&mut cx, "x", RelOp::Ge)),
            Bltl::globally(6.0, prop(&mut cx, "2.5 - x", RelOp::Ge)),
        ];
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        for f in &formulas {
            let sat = m.check(f, &tr);
            let rob = m.robustness(f, &tr);
            if rob > 0.0 {
                assert!(sat, "positive robustness must imply satisfaction");
            }
            if rob < 0.0 {
                assert!(!sat, "negative robustness must imply violation");
            }
        }
    }

    #[test]
    fn robustness_values() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        // G≤6 (x ≤ 5): margin is 5 - max(x) = 2.
        let g = Bltl::globally(6.0, prop(&mut cx, "5 - x", RelOp::Ge));
        // F≤6 (x ≥ 3): margin is max(x) - 3 = 0 at peak.
        let f = Bltl::eventually(6.0, prop(&mut cx, "x - 3", RelOp::Ge));
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        assert!((m.robustness(&g, &tr) - 2.0).abs() < 1e-12);
        assert!(m.robustness(&f, &tr).abs() < 1e-12);
    }

    #[test]
    fn implies_and_truth() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        // (x ≥ 10) → anything is vacuously true.
        let f = Bltl::implies(
            prop(&mut cx, "x - 10", RelOp::Ge),
            prop(&mut cx, "x - 100", RelOp::Ge),
        );
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        assert!(m.check(&f, &tr));
        assert!(m.check(&Bltl::truth(), &tr));
    }

    #[test]
    fn nested_response_property() {
        // G≤2 (x ≥ 1 → F≤2 (x ≥ 3)): whenever x ≥ 1 in the first 2s,
        // x reaches 3 within 2 more seconds. On the tent: x ≥ 1 at t=1,2;
        // peak at t=3 is within bound from both. True.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let f = Bltl::globally(
            2.0,
            Bltl::implies(
                prop(&mut cx, "x - 1", RelOp::Ge),
                Bltl::eventually(2.0, prop(&mut cx, "x - 3", RelOp::Ge)),
            ),
        );
        let tr = tent(&cx);
        let mut m = Monitor::new(&cx, &states);
        assert!(m.check(&f, &tr));
    }

    #[test]
    fn monitor_with_params() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let thr = cx.intern_var("thr");
        let e = cx.parse("x - thr").unwrap();
        let p = Bltl::Prop(Atom::new(e, RelOp::Ge));
        let tr = tent(&cx);
        let states = [x];
        let mut env = vec![0.0; cx.num_vars()];
        env[thr.index()] = 2.5;
        let mut m = Monitor::new(&cx, &states).with_env(env);
        assert!(m.check(&Bltl::eventually(6.0, p.clone()), &tr));
        let mut env2 = vec![0.0; cx.num_vars()];
        env2[thr.index()] = 3.5;
        let mut m2 = Monitor::new(&cx, &states).with_env(env2);
        assert!(!m2.check(&Bltl::eventually(6.0, p), &tr));
    }

    #[test]
    fn hybrid_resampling_monitor() {
        let ha = biocheck_hybrid::HybridAutomaton::parse_bha(
            r#"
            state x;
            mode up { flow: x' = 1; jump to down when x >= 2; }
            mode down { flow: x' = -1; }
            init up: x = 0;
            "#,
        )
        .unwrap();
        let traj = ha.simulate_default(&[0.0], 4.0).unwrap();
        let mut cx = ha.cx.clone();
        let x = cx.var_id("x").unwrap();
        let states = [x];
        let e = cx.parse("x - 1.9").unwrap();
        let f = Bltl::eventually(3.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        let mut m = Monitor::new(&cx, &states);
        assert!(m.check_hybrid(&f, &traj, 0.05));
        assert!(m.robustness_hybrid(&f, &traj, 0.05) >= 0.0);
    }
}
