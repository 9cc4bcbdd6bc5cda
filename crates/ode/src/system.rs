//! ODE system description and its compiled form.

use crate::rk::{DormandPrince, OdeError, OdeScratch, StepControl};
use crate::trace::Trace;
use biocheck_expr::{Context, EvalScratch, NodeId, Program, VarId};

/// A system `dx/dt = f(x, p, t)` described by expressions in a shared
/// [`Context`].
///
/// `states[i]` is the variable holding the i-th state component and
/// `rhs[i]` its derivative expression. The right-hand sides may mention
/// parameter variables (held constant during integration) and, if
/// `time` is set, the time variable itself (non-autonomous systems).
#[derive(Clone, Debug)]
pub struct OdeSystem {
    /// State variables, fixing the state-vector order.
    pub states: Vec<VarId>,
    /// Derivative expressions, one per state.
    pub rhs: Vec<NodeId>,
    /// Optional explicit time variable.
    pub time: Option<VarId>,
}

impl OdeSystem {
    /// Creates an autonomous system.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `rhs` lengths differ.
    pub fn new(states: Vec<VarId>, rhs: Vec<NodeId>) -> OdeSystem {
        assert_eq!(states.len(), rhs.len(), "one rhs per state");
        OdeSystem {
            states,
            rhs,
            time: None,
        }
    }

    /// Creates a non-autonomous system with an explicit time variable.
    pub fn with_time(states: Vec<VarId>, rhs: Vec<NodeId>, time: VarId) -> OdeSystem {
        let mut s = OdeSystem::new(states, rhs);
        s.time = Some(time);
        s
    }

    /// State-space dimension.
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// The time-reversed system `dx/dt = -f(x)` (for backward reachability).
    pub fn reversed(&self, cx: &mut Context) -> OdeSystem {
        let rhs = self.rhs.iter().map(|&e| cx.neg(e)).collect();
        OdeSystem {
            states: self.states.clone(),
            rhs,
            time: self.time,
        }
    }

    /// Compiles the right-hand sides for repeated evaluation.
    pub fn compile(&self, cx: &Context) -> CompiledOde {
        CompiledOde {
            prog: Program::compile(cx, &self.rhs),
            states: self.states.clone(),
            time: self.time,
            env_len: cx.num_vars(),
        }
    }
}

/// A compiled ODE: derivative evaluation without touching the [`Context`].
///
/// The environment convention: `env` is indexed by [`VarId`] and must have
/// at least `env_len` entries; parameter entries are read as-is, state (and
/// time) entries are overwritten by the integrator.
#[derive(Clone, Debug)]
pub struct CompiledOde {
    pub(crate) prog: Program,
    pub(crate) states: Vec<VarId>,
    pub(crate) time: Option<VarId>,
    pub(crate) env_len: usize,
}

/// A detected guard crossing during event-aware integration.
#[derive(Clone, Debug)]
pub struct EventHit {
    /// Index of the triggered guard in the `events` slice.
    pub event: usize,
    /// Crossing time.
    pub t: f64,
    /// State at the crossing.
    pub state: Vec<f64>,
}

impl CompiledOde {
    /// State dimension.
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// Required environment length.
    pub fn env_len(&self) -> usize {
        self.env_len
    }

    /// The state variables (environment slots).
    pub fn states(&self) -> &[VarId] {
        &self.states
    }

    /// Evaluates `f(y, t)` into `out`, scribbling states/time into `env`.
    ///
    /// Allocates a fresh evaluation buffer per call; integrator loops use
    /// [`CompiledOde::deriv_with`] with a reused scratch instead.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()` or `env` is too short.
    pub fn deriv(&self, env: &mut [f64], y: &[f64], t: f64, out: &mut [f64]) {
        self.deriv_with(env, y, t, out, &mut EvalScratch::new());
    }

    /// Evaluates `f(y, t)` into `out`, reusing `scratch` — the
    /// allocation-free form sitting under every integrator step, and the
    /// `K = 1` instance of the crate's lane-generic `deriv_lanes`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()` or `env` is too short.
    pub fn deriv_with(
        &self,
        env: &mut [f64],
        y: &[f64],
        t: f64,
        out: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        self.deriv_lanes::<1>(
            env.as_chunks_mut().0,
            y.as_chunks().0,
            &[t],
            out.as_chunks_mut().0,
            scratch,
        );
    }

    /// Evaluates `f(y, t)` at `K` points in one sweep of the compiled
    /// right-hand side: lane `l` reads `y[i][l]`, `t[l]` and its own
    /// parameters `env[var][l]`, and receives `out[i][l]`, bit-identical
    /// to [`CompiledOde::deriv_with`] at that point.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()` or `env` is too short.
    ///
    /// Always inlined, so the integrator's AVX2 instance compiles the
    /// sweep for AVX2 too.
    #[inline(always)]
    pub(crate) fn deriv_lanes<const K: usize>(
        &self,
        env: &mut [[f64; K]],
        y: &[[f64; K]],
        t: &[f64; K],
        out: &mut [[f64; K]],
        scratch: &mut EvalScratch,
    ) {
        debug_assert_eq!(y.len(), self.states.len());
        for (&v, yi) in self.states.iter().zip(y) {
            env[v.index()] = *yi;
        }
        if let Some(tv) = self.time {
            env[tv.index()] = *t;
        }
        self.prog.eval_lanes(env, scratch, out);
    }

    /// Convenience: adaptive integration with default tolerances.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError`] when the step size collapses or the right-hand
    /// side produces a non-finite value.
    pub fn integrate(
        &self,
        base_env: &[f64],
        y0: &[f64],
        tspan: (f64, f64),
    ) -> Result<Trace, OdeError> {
        DormandPrince::default().integrate(self, base_env, y0, tspan)
    }

    /// Adaptive integration that stops at the earliest rising zero-crossing
    /// of any output of `guards` (a program over the same environment
    /// layout, compiled against the same context).
    ///
    /// A guard "fires" when its value passes from negative to ≥ 0 between
    /// two accepted steps. The integration streams and stops at the first
    /// sample where one did, so nothing past the event is integrated; the
    /// crossing is then refined by bisection on the Hermite interpolant
    /// of the samples kept, to absolute time tolerance `t_tol`.
    ///
    /// # Errors
    ///
    /// Propagates integration failures up to the event; event search
    /// itself cannot fail.
    pub fn integrate_with_events(
        &self,
        base_env: &[f64],
        y0: &[f64],
        tspan: (f64, f64),
        guards: &Program,
        t_tol: f64,
    ) -> Result<(Trace, Option<EventHit>), OdeError> {
        let mut env = base_env.to_vec();
        let mut scratch = EvalScratch::new();
        let mut eval_guards = |t: f64, y: &[f64], out: &mut [f64]| {
            for (&v, &yi) in self.states.iter().zip(y) {
                env[v.index()] = yi;
            }
            if let Some(tv) = self.time {
                env[tv.index()] = t;
            }
            guards.eval_with(&env, &mut scratch, out);
        };
        let m = guards.num_roots();
        let mut prev = vec![0.0; m];
        let mut cur = vec![0.0; m];
        let (mut times, mut states, mut derivs) = (Vec::new(), Vec::new(), Vec::new());
        let mut crossed = false;
        let sink = |t, y: &[f64], dy: &[f64]| {
            times.push(t);
            states.push(y.to_vec());
            derivs.push(dy.to_vec());
            std::mem::swap(&mut prev, &mut cur);
            eval_guards(t, y, &mut cur);
            crossed = times.len() > 1 && prev.iter().zip(&cur).any(|(&p, &c)| p < 0.0 && c >= 0.0);
            if crossed {
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        };
        let mut ws = OdeScratch::new();
        DormandPrince::default().integrate_streaming(self, base_env, y0, tspan, &mut ws, sink)?;
        let trace = Trace::new(times, states, derivs);
        if !crossed {
            return Ok((trace, None));
        }
        // Earliest guard that crossed in the last step window.
        let i = trace.len() - 1;
        let mut best: Option<(usize, f64)> = None;
        for g in 0..m {
            if prev[g] < 0.0 && cur[g] >= 0.0 {
                // Bisection on the interpolant.
                let (mut lo, mut hi) = (trace.times()[i - 1], trace.times()[i]);
                let mut buf = vec![0.0; m];
                while hi - lo > t_tol {
                    let mid = 0.5 * (lo + hi);
                    let y = trace.value_at(mid);
                    eval_guards(mid, &y, &mut buf);
                    if buf[g] >= 0.0 {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                if best.is_none_or(|(_, t)| hi < t) {
                    best = Some((g, hi));
                }
            }
        }
        let (event, t) = best.expect("a guard crossed in the last window");
        let hit = EventHit {
            event,
            t,
            state: trace.value_at(t),
        };
        Ok((trace.truncated_at(t), Some(hit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_construction() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        assert_eq!(sys.dim(), 1);
        let ode = sys.compile(&cx);
        assert_eq!(ode.dim(), 1);
        let mut env = vec![0.0; ode.env_len()];
        let mut out = [0.0];
        ode.deriv(&mut env, &[3.0], 0.0, &mut out);
        assert_eq!(out[0], -3.0);
    }

    #[test]
    fn parameters_read_from_env() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let _k = cx.intern_var("k");
        let rhs = cx.parse("-k * x").unwrap();
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        let mut env = vec![0.0, 2.5]; // k = 2.5
        let mut out = [0.0];
        ode.deriv(&mut env, &[2.0], 0.0, &mut out);
        assert_eq!(out[0], -5.0);
    }

    #[test]
    fn non_autonomous_time() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let t = cx.intern_var("t");
        let rhs = cx.parse("t").unwrap(); // dx/dt = t → x = t²/2
        let sys = OdeSystem::with_time(vec![x], vec![rhs], t);
        let ode = sys.compile(&cx);
        let trace = ode.integrate(&[0.0, 0.0], &[0.0], (0.0, 2.0)).unwrap();
        assert!((trace.last_state()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn reversed_field_negates() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let rev = sys.reversed(&mut cx);
        let ode = rev.compile(&cx);
        let mut env = vec![0.0];
        let mut out = [0.0];
        ode.deriv(&mut env, &[3.0], 0.0, &mut out);
        assert_eq!(out[0], 3.0);
    }

    #[test]
    fn event_detection_linear_crossing() {
        // dx/dt = 1, event at x - 1 = 0 ⇒ t = 1 from x0 = 0.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let one = cx.constant(1.0);
        let rhs = vec![one];
        let ode = OdeSystem::new(vec![x], rhs).compile(&cx);
        let guard = cx.parse("x - 1").unwrap();
        let guards = Program::compile(&cx, &[guard]);
        let (trace, hit) = ode
            .integrate_with_events(&[0.0], &[0.0], (0.0, 5.0), &guards, 1e-9)
            .unwrap();
        let hit = hit.expect("guard must fire");
        assert_eq!(hit.event, 0);
        assert!((hit.t - 1.0).abs() < 1e-6, "t = {}", hit.t);
        assert!((hit.state[0] - 1.0).abs() < 1e-6);
        assert!((trace.t_end() - hit.t).abs() < 1e-9);
    }

    #[test]
    fn earliest_of_two_events_wins() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let one = cx.constant(1.0);
        let ode = OdeSystem::new(vec![x], vec![one]).compile(&cx);
        let late = cx.parse("x - 2").unwrap();
        let early = cx.parse("x - 0.5").unwrap();
        let guards = Program::compile(&cx, &[late, early]);
        let (_, hit) = ode
            .integrate_with_events(&[0.0], &[0.0], (0.0, 5.0), &guards, 1e-9)
            .unwrap();
        let hit = hit.unwrap();
        assert_eq!(hit.event, 1);
        assert!((hit.t - 0.5).abs() < 1e-6);
    }

    #[test]
    fn integration_stops_at_the_event() {
        // dx/dt = 1/(3 − t) blows up at t = 3, long after x − 0.1 crosses
        // at t = 3(1 − e^−0.1) ≈ 0.2855: nothing past the event runs.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let t = cx.intern_var("t");
        let rhs = cx.parse("1 / (3 - t)").unwrap();
        let ode = OdeSystem::with_time(vec![x], vec![rhs], t).compile(&cx);
        let guard = cx.parse("x - 0.1").unwrap();
        let guards = Program::compile(&cx, &[guard]);
        let (trace, hit) = ode
            .integrate_with_events(&[0.0, 0.0], &[0.0], (0.0, 5.0), &guards, 1e-9)
            .unwrap();
        let hit = hit.expect("guard must fire");
        let exact = 3.0 * (1.0 - (-0.1f64).exp());
        // The crossing is located on the Hermite interpolant of the
        // accepted steps, hence the looser tolerance in time.
        assert!((hit.t - exact).abs() < 1e-5, "t = {}", hit.t);
        assert!((hit.state[0] - 0.1).abs() < 1e-9);
        assert_eq!(trace.t_end(), hit.t);
    }

    #[test]
    fn no_event_returns_full_trace() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let one = cx.constant(1.0);
        let ode = OdeSystem::new(vec![x], vec![one]).compile(&cx);
        let guard = cx.parse("x - 100").unwrap();
        let guards = Program::compile(&cx, &[guard]);
        let (trace, hit) = ode
            .integrate_with_events(&[0.0], &[0.0], (0.0, 2.0), &guards, 1e-9)
            .unwrap();
        assert!(hit.is_none());
        assert!((trace.t_end() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one rhs per state")]
    fn arity_mismatch_rejected() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let _ = OdeSystem::new(vec![x], vec![]);
    }
}
