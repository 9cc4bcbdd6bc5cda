//! The adaptive Dormand–Prince 5(4) embedded Runge–Kutta pair.

use crate::system::CompiledOde;
use crate::trace::Trace;
use biocheck_expr::EvalScratch;
use std::error::Error;
use std::fmt;

/// Integration failure.
#[derive(Clone, Debug, PartialEq)]
pub enum OdeError {
    /// The right-hand side produced NaN/∞ at time `t`.
    NonFinite {
        /// Time at which the derivative blew up.
        t: f64,
    },
    /// Adaptive step control shrank the step below the minimum.
    StepUnderflow {
        /// Time at which progress stalled.
        t: f64,
    },
    /// The step budget was exhausted before reaching the end time.
    TooManySteps {
        /// Time reached when the budget ran out.
        t: f64,
    },
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::NonFinite { t } => write!(f, "non-finite derivative at t = {t}"),
            OdeError::StepUnderflow { t } => write!(f, "step size underflow at t = {t}"),
            OdeError::TooManySteps { t } => write!(f, "step budget exhausted at t = {t}"),
        }
    }
}

impl Error for OdeError {}

/// Sink verdict for step-streaming integration: keep integrating or stop
/// at the current sample (e.g. because a monitored property has decided).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StepControl {
    /// Continue to the next accepted step.
    Continue,
    /// Stop integrating; the current sample is the last one.
    Stop,
}

/// Where a step-streaming integration ended.
#[derive(Copy, Clone, Debug)]
pub struct StreamEnd {
    /// Time of the last sample handed to the sink.
    pub t: f64,
    /// Number of samples handed to the sink (initial point included).
    pub steps: usize,
    /// `true` when the sink requested [`StepControl::Stop`] before the
    /// end of the time span.
    pub stopped_early: bool,
}

/// Reusable integrator workspace: state, stage, and environment buffers
/// plus the expression-evaluation scratch. After the first integration
/// with a given system dimension and lane count, subsequent integrations
/// through the same scratch perform no heap allocations. One scratch
/// serves the scalar entry points and [`DormandPrince::integrate_lanes`]
/// alike: lane buffers are flat, laid out `[row][lane]`.
#[derive(Clone, Debug, Default)]
pub struct OdeScratch {
    /// Environment, `[var][lane]`.
    env: Vec<f64>,
    /// Current state, `[component][lane]`.
    y: Vec<f64>,
    /// Stage derivatives, `[stage][component][lane]`.
    k: Vec<f64>,
    /// Right-hand-side input point (a stage state), `[component][lane]`.
    tmp: Vec<f64>,
    /// Right-hand-side output, `[component][lane]`.
    out: Vec<f64>,
    /// One lane's candidate state, and its state and derivative gathered
    /// for the sink: three `dim`-long runs.
    lane: Vec<f64>,
    eval: EvalScratch,
}

impl OdeScratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> OdeScratch {
        OdeScratch::default()
    }
}

/// Clears `buf` to `len` zeros, keeping its capacity.
fn zeroed(buf: &mut Vec<f64>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Dormand–Prince 5(4): adaptive embedded Runge–Kutta with FSAL.
///
/// The de-facto standard non-stiff integrator (`ode45`). Tolerances are
/// combined as `atol + rtol·|y|` per component.
#[derive(Clone, Debug)]
pub struct DormandPrince {
    /// Relative tolerance.
    pub rtol: f64,
    /// Absolute tolerance.
    pub atol: f64,
    /// Initial step (`None` = heuristic).
    pub h0: Option<f64>,
    /// Smallest allowed step before reporting [`OdeError::StepUnderflow`].
    pub h_min: f64,
    /// Largest allowed step.
    pub h_max: f64,
    /// Step budget.
    pub max_steps: usize,
}

impl Default for DormandPrince {
    fn default() -> DormandPrince {
        DormandPrince {
            rtol: 1e-8,
            atol: 1e-10,
            h0: None,
            h_min: 1e-12,
            h_max: f64::INFINITY,
            max_steps: 10_000_000,
        }
    }
}

// Butcher tableau (Dormand–Prince 5(4)).
const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
/// 5th-order weights (same as the last A row — FSAL).
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
/// 4th-order (embedded) weights.
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

impl DormandPrince {
    /// Creates an integrator with the given tolerances.
    pub fn with_tolerances(rtol: f64, atol: f64) -> DormandPrince {
        DormandPrince {
            rtol,
            atol,
            ..DormandPrince::default()
        }
    }

    /// Integrates `ode` from `y0` over `tspan`, returning a dense trace of
    /// the accepted steps.
    ///
    /// # Errors
    ///
    /// See [`OdeError`].
    pub fn integrate(
        &self,
        ode: &CompiledOde,
        base_env: &[f64],
        y0: &[f64],
        tspan: (f64, f64),
    ) -> Result<Trace, OdeError> {
        let mut ws = OdeScratch::new();
        let mut times = Vec::new();
        let mut states = Vec::new();
        let mut derivs = Vec::new();
        self.integrate_streaming(ode, base_env, y0, tspan, &mut ws, |t, y, dy| {
            times.push(t);
            states.push(y.to_vec());
            derivs.push(dy.to_vec());
            StepControl::Continue
        })?;
        Ok(Trace::new(times, states, derivs))
    }

    /// Step-streaming integration: hands every accepted sample
    /// `(t, state, derivative)` to `sink` as soon as it is accepted
    /// instead of building a [`Trace`], and stops integrating as soon as
    /// the sink returns [`StepControl::Stop`]. The accepted-step sequence
    /// up to the stopping point is bit-for-bit the sequence
    /// [`DormandPrince::integrate`] would produce (adaptive step-size
    /// control only ever looks backward), which is what makes
    /// early-terminating fused simulate-and-monitor SMC reproduce offline
    /// verdicts exactly.
    ///
    /// This is the `K = 1` instance of [`DormandPrince::integrate_lanes`].
    /// Reuses `ws` buffers — allocation-free after warm-up.
    ///
    /// # Errors
    ///
    /// See [`OdeError`].
    pub fn integrate_streaming<F>(
        &self,
        ode: &CompiledOde,
        base_env: &[f64],
        y0: &[f64],
        tspan: (f64, f64),
        ws: &mut OdeScratch,
        sink: F,
    ) -> Result<StreamEnd, OdeError>
    where
        F: FnMut(f64, &[f64], &[f64]) -> StepControl,
    {
        /// One trajectory, streamed to a closure.
        struct One<'a, F> {
            start: Option<(&'a [f64], &'a [f64])>,
            sink: F,
            end: Option<Result<StreamEnd, OdeError>>,
        }
        impl<F: FnMut(f64, &[f64], &[f64]) -> StepControl> LaneDriver for One<'_, F> {
            fn load(&mut self, _lane: usize) -> Option<(&[f64], &[f64])> {
                self.start.take()
            }
            fn sink(&mut self, _lane: usize, t: f64, y: &[f64], dy: &[f64]) -> StepControl {
                (self.sink)(t, y, dy)
            }
            fn finish(&mut self, _lane: usize, end: Result<StreamEnd, OdeError>) {
                self.end = Some(end);
            }
        }
        let mut one = One {
            start: Some((base_env, y0)),
            sink,
            end: None,
        };
        self.integrate_lanes::<1>(ode, tspan, ws, &mut one);
        one.end.expect("the loaded trajectory ends")
    }

    /// Lockstep integration of independent trajectories over `K` lanes:
    /// each sweep evaluates the compiled right-hand side once for all
    /// lanes (`CompiledOde::deriv_lanes`), and each lane then advances
    /// its own trajectory by one stage. A lane keeps its own time, step
    /// size, step count, accept/reject decision and error; the lanes
    /// only share the sweep. When a lane's trajectory ends, the driver
    /// learns how ([`LaneDriver::finish`]) and the lane is refilled with
    /// the next trajectory ([`LaneDriver::load`]). Once the driver has
    /// none left, a finished lane is parked on a frozen copy of a live
    /// lane's current state, preferably one whose derivative is already
    /// known finite, so an idle lane repeats a live trajectory's
    /// arithmetic instead of a finished one's NaNs or subnormals.
    ///
    /// Every lane performs exactly the float operations of
    /// [`DormandPrince::integrate_streaming`], in the same order: its
    /// samples and its end are bit-identical to a scalar run of its
    /// trajectory, which is the `K = 1` instance of this method.
    /// Reuses `ws` buffers — allocation-free after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the time span runs backward.
    pub fn integrate_lanes<const K: usize>(
        &self,
        ode: &CompiledOde,
        tspan: (f64, f64),
        ws: &mut OdeScratch,
        driver: &mut dyn LaneDriver,
    ) {
        let (t0, t_end) = tspan;
        assert!(t_end >= t0, "time span must be forward");
        let n = ode.dim();
        let OdeScratch {
            env,
            y,
            k,
            tmp,
            out,
            lane,
            eval,
        } = ws;
        zeroed(env, ode.env_len() * K);
        zeroed(y, n * K);
        zeroed(k, 7 * n * K);
        zeroed(tmp, n * K);
        zeroed(out, n * K);
        zeroed(lane, 3 * n);
        let env = env.as_chunks_mut::<K>().0;
        let y = y.as_chunks_mut::<K>().0;
        let k = k.as_chunks_mut::<K>().0;
        let tmp = tmp.as_chunks_mut::<K>().0;
        let out = out.as_chunks_mut::<K>().0;
        let (y5, rest) = lane.split_at_mut(n);
        let (ly, ldy) = rest.split_at_mut(n);

        // Simple heuristic initial step.
        let h_init = self.h0.unwrap_or_else(|| {
            let span = (t_end - t0).max(1e-12);
            (span / 100.0).min(self.h_max).max(self.h_min * 10.0)
        });
        let mut st = [Lane::default(); K];
        let mut tin = [t0; K];
        let mut more = true;
        for (l, lst) in st.iter_mut().enumerate() {
            more = more && load(driver, l, env, y);
            if more {
                *lst = Lane::fresh(t0);
            }
        }
        loop {
            // Park finished lanes on a live lane's state: one whose
            // derivative was already checked finite if there is one.
            let donor = st
                .iter()
                .position(|s| matches!(s.phase, Phase::Stage(_)))
                .or_else(|| st.iter().position(|s| s.phase == Phase::Fresh));
            let Some(d) = donor else { return };
            for l in 0..K {
                if st[l].phase == Phase::Done {
                    for row in tmp.iter_mut().zip(y.iter()) {
                        row.0[l] = row.1[d];
                    }
                    tin[l] = st[d].t;
                    for row in env.iter_mut() {
                        row[l] = row[d];
                    }
                    st[l].phase = Phase::Parked;
                }
            }

            // Each live lane's input point for this sweep.
            for (l, s) in st.iter().enumerate() {
                match s.phase {
                    Phase::Done | Phase::Parked => {}
                    Phase::Fresh | Phase::Stage(0) => {
                        for (ti, yi) in tmp.iter_mut().zip(y.iter()) {
                            ti[l] = yi[l];
                        }
                        tin[l] = s.t;
                    }
                    Phase::Stage(stage) => {
                        for i in 0..n {
                            let mut acc = 0.0;
                            for (j, a) in A[stage].iter().enumerate().take(stage) {
                                acc += a * k[j * n + i][l];
                            }
                            tmp[i][l] = y[i][l] + s.h * acc;
                        }
                        tin[l] = s.t + C[stage] * s.h;
                    }
                }
            }

            ode.deriv_lanes(env, tmp, &tin, out, eval);

            // Each live lane consumes its result and advances one stage.
            'lanes: for l in 0..K {
                let s = &mut st[l];
                let ended = 'lane: {
                    let stage = match s.phase {
                        Phase::Done | Phase::Parked => continue 'lanes,
                        Phase::Fresh => 0,
                        Phase::Stage(stage) => stage,
                    };
                    for (kr, o) in k[stage * n..(stage + 1) * n].iter_mut().zip(out.iter()) {
                        kr[l] = o[l];
                    }
                    match (s.phase, stage) {
                        (Phase::Fresh, _) => {
                            if k[..n].iter().any(|v| !v[l].is_finite()) {
                                break 'lane Some(Err(OdeError::NonFinite { t: s.t }));
                            }
                            s.h = h_init;
                            s.emitted = 1;
                            let dy = lane_of(&k[..n], l, ldy);
                            if driver.sink(l, s.t, lane_of(y, l, ly), dy) == StepControl::Stop {
                                break 'lane Some(Ok(s.end(true)));
                            }
                            if t_end == t0 {
                                break 'lane Some(Ok(s.end(false)));
                            }
                            s.head(self, t_end, Phase::Stage(1))
                        }
                        (_, 0..=5) => {
                            s.phase = Phase::Stage(stage + 1);
                            None
                        }
                        _ => {
                            // 5th/4th order solutions and the error estimate.
                            let h = s.h;
                            let mut err: f64 = 0.0;
                            for i in 0..n {
                                let mut s5 = 0.0;
                                let mut s4 = 0.0;
                                for j in 0..7 {
                                    s5 += B5[j] * k[j * n + i][l];
                                    s4 += B4[j] * k[j * n + i][l];
                                }
                                y5[i] = y[i][l] + h * s5;
                                let sc = self.atol + self.rtol * y[i][l].abs().max(y5[i].abs());
                                let e = h * (s5 - s4) / sc;
                                err += e * e;
                            }
                            let err = (err / n as f64).sqrt();
                            if !err.is_finite() {
                                // Derivative blew up inside the step: try
                                // a smaller one, from a re-evaluated k1.
                                s.h *= 0.25;
                                if s.h < self.h_min {
                                    break 'lane Some(Err(OdeError::NonFinite { t: s.t }));
                                }
                                break 'lane s.head(self, t_end, Phase::Stage(0));
                            }
                            if err <= 1.0 {
                                // Accept; FSAL: k1 of the next step is k7.
                                s.t += h;
                                for (i, yi) in y.iter_mut().enumerate() {
                                    yi[l] = y5[i];
                                    k[i][l] = k[6 * n + i][l];
                                }
                                s.emitted += 1;
                                let dy = lane_of(&k[..n], l, ldy);
                                if driver.sink(l, s.t, lane_of(y, l, ly), dy) == StepControl::Stop {
                                    break 'lane Some(Ok(s.end(true)));
                                }
                            }
                            // Step-size update (both accept and reject).
                            let factor = if err == 0.0 {
                                5.0
                            } else {
                                (0.9 * err.powf(-0.2)).clamp(0.2, 5.0)
                            };
                            s.h *= factor;
                            s.head(self, t_end, Phase::Stage(1))
                        }
                    }
                };
                if let Some(end) = ended {
                    driver.finish(l, end);
                    more = more && load(driver, l, env, y);
                    st[l] = if more {
                        Lane::fresh(t0)
                    } else {
                        Lane::default()
                    };
                }
            }
        }
    }
}

/// The caller's side of lockstep integration
/// ([`DormandPrince::integrate_lanes`]): it supplies independent
/// trajectories, consumes each lane's accepted samples, and learns how
/// each trajectory ended. Lanes are numbered `0..K`.
pub trait LaneDriver {
    /// Starts the next trajectory in `lane`: returns its parameter
    /// environment and initial state, or `None` when none is left.
    fn load(&mut self, lane: usize) -> Option<(&[f64], &[f64])>;

    /// One accepted sample `(t, state, derivative)` of the trajectory in
    /// `lane`: the sink of [`DormandPrince::integrate_streaming`].
    fn sink(&mut self, lane: usize, t: f64, y: &[f64], dy: &[f64]) -> StepControl;

    /// The trajectory in `lane` ended with what
    /// [`DormandPrince::integrate_streaming`] returns for it.
    fn finish(&mut self, lane: usize, end: Result<StreamEnd, OdeError>);
}

/// Where a lane of [`DormandPrince::integrate_lanes`] stands.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// No trajectory, not yet parked.
    #[default]
    Done,
    /// No trajectory; re-evaluates a frozen copy of a live lane's point.
    Parked,
    /// Just loaded: the next sweep evaluates the initial derivative.
    Fresh,
    /// The next sweep evaluates this stage (0 re-evaluates k1 after a
    /// non-finite step).
    Stage(usize),
}

/// One lane's integrator state: the locals of the scalar loop.
#[derive(Copy, Clone, Debug, Default)]
struct Lane {
    phase: Phase,
    t: f64,
    h: f64,
    /// Step attempts (the `max_steps` budget).
    steps: usize,
    /// Samples handed to the sink.
    emitted: usize,
}

impl Lane {
    fn fresh(t0: f64) -> Lane {
        Lane {
            phase: Phase::Fresh,
            t: t0,
            ..Lane::default()
        }
    }

    fn end(&self, stopped_early: bool) -> StreamEnd {
        StreamEnd {
            t: self.t,
            steps: self.emitted,
            stopped_early,
        }
    }

    /// The scalar loop's head: ends the trajectory at the end of the
    /// span (up to roundoff), on an exhausted step budget or on step
    /// underflow, and otherwise clamps the step and moves on to `next`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn head(
        &mut self,
        dp: &DormandPrince,
        t_end: f64,
        next: Phase,
    ) -> Option<Result<StreamEnd, OdeError>> {
        // Done up to roundoff: a sub-h_min sliver is not an error.
        if !(self.t < t_end) || t_end - self.t <= 1e-13 * (1.0 + t_end.abs()) {
            return Some(Ok(self.end(false)));
        }
        self.steps += 1;
        if self.steps > dp.max_steps {
            return Some(Err(OdeError::TooManySteps { t: self.t }));
        }
        self.h = self.h.min(t_end - self.t).min(dp.h_max);
        if self.h < dp.h_min {
            return Some(Err(OdeError::StepUnderflow { t: self.t }));
        }
        self.phase = next;
        None
    }
}

/// Loads the driver's next trajectory into lane `l` of `env` and `y`;
/// `false` when the driver has none left. The environment is the
/// driver's, zero-extended to the system's width.
fn load<const K: usize>(
    driver: &mut dyn LaneDriver,
    l: usize,
    env: &mut [[f64; K]],
    y: &mut [[f64; K]],
) -> bool {
    let Some((base_env, y0)) = driver.load(l) else {
        return false;
    };
    let base = base_env.iter().chain(std::iter::repeat(&0.0));
    for (row, &v) in env.iter_mut().zip(base) {
        row[l] = v;
    }
    for (row, &v) in y.iter_mut().zip(y0) {
        row[l] = v;
    }
    true
}

/// Lane `l` of `m` as a contiguous slice: `m` itself when there is one
/// lane, else gathered into `buf`.
fn lane_of<'a, const K: usize>(m: &'a [[f64; K]], l: usize, buf: &'a mut [f64]) -> &'a [f64] {
    if K == 1 {
        return m.as_flattened();
    }
    for (b, row) in buf.iter_mut().zip(m) {
        *b = row[l];
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::OdeSystem;
    use biocheck_expr::Context;

    fn decay_ode() -> (Context, CompiledOde) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        (cx, ode)
    }

    fn oscillator_ode() -> (Context, CompiledOde) {
        // x' = v, v' = -x: circle in phase space.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let v = cx.intern_var("v");
        let dx = cx.var_node(v);
        let xv = cx.var_node(x);
        let dv = cx.neg(xv);
        let ode = OdeSystem::new(vec![x, v], vec![dx, dv]).compile(&cx);
        (cx, ode)
    }

    #[test]
    fn dopri_exponential_decay_tight() {
        let (_cx, ode) = decay_ode();
        let tr = DormandPrince::with_tolerances(1e-10, 1e-12)
            .integrate(&ode, &[1.0], &[1.0], (0.0, 5.0))
            .unwrap();
        let want = (-5.0f64).exp();
        assert!((tr.last_state()[0] - want).abs() < 1e-9);
    }

    #[test]
    fn dopri_harmonic_oscillator_period() {
        let (_cx, ode) = oscillator_ode();
        let two_pi = 2.0 * std::f64::consts::PI;
        let tr = DormandPrince::default()
            .integrate(&ode, &[0.0, 0.0], &[1.0, 0.0], (0.0, two_pi))
            .unwrap();
        // After one period: back to (1, 0).
        assert!((tr.last_state()[0] - 1.0).abs() < 1e-6);
        assert!(tr.last_state()[1].abs() < 1e-6);
        // Energy x² + v² conserved along the trace (loosely).
        for (_, s) in tr.iter() {
            let e = s[0] * s[0] + s[1] * s[1];
            assert!((e - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn dopri_matches_logistic_closed_form() {
        // x' = x(1-x), x(0)=0.1 → x(t) = 1/(1+9e^{-t}).
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("x * (1 - x)").unwrap();
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        let tr = DormandPrince::default()
            .integrate(&ode, &[0.0], &[0.1], (0.0, 4.0))
            .unwrap();
        for (t, s) in tr.iter() {
            let want = 1.0 / (1.0 + 9.0 * (-t).exp());
            assert!((s[0] - want).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn dopri_adaptivity_beats_rk4_on_stiff_window() {
        // x' = -50(x - cos t): fast transient; DoPri should handle it.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let t = cx.intern_var("t");
        let rhs = cx.parse("-50 * (x - cos(t))").unwrap();
        let ode = OdeSystem::with_time(vec![x], vec![rhs], t).compile(&cx);
        let tr = DormandPrince::default()
            .integrate(&ode, &[0.0, 0.0], &[0.0], (0.0, 1.0))
            .unwrap();
        assert!(tr.last_state()[0].is_finite());
        assert!(tr.len() > 10);
    }

    #[test]
    fn zero_length_span() {
        let (_cx, ode) = decay_ode();
        let tr = DormandPrince::default()
            .integrate(&ode, &[1.0], &[0.7], (2.0, 2.0))
            .unwrap();
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.last_state()[0], 0.7);
    }

    #[test]
    fn blowup_detected() {
        // x' = x² from 1 blows up at t = 1.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("x^2").unwrap();
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        let r = DormandPrince::default().integrate(&ode, &[0.0], &[1.0], (0.0, 2.0));
        match r {
            Err(OdeError::StepUnderflow { t }) | Err(OdeError::NonFinite { t }) => {
                assert!(t <= 1.1, "must fail near the blow-up, got t = {t}")
            }
            Err(OdeError::TooManySteps { .. }) => {}
            Ok(_) => panic!("integration past a blow-up must fail"),
        }
    }

    #[test]
    fn streaming_reproduces_collected_trace_exactly() {
        let (_cx, ode) = oscillator_ode();
        let dp = DormandPrince::default();
        let span = (0.0, 3.0);
        let trace = dp.integrate(&ode, &[0.0, 0.0], &[1.0, 0.0], span).unwrap();
        let mut ws = OdeScratch::new();
        // Run twice through the same scratch: the second run (warm
        // buffers) must still match the collected trace bit-for-bit.
        for _ in 0..2 {
            let mut i = 0usize;
            let end = dp
                .integrate_streaming(&ode, &[0.0, 0.0], &[1.0, 0.0], span, &mut ws, |t, y, dy| {
                    assert_eq!(t.to_bits(), trace.times()[i].to_bits());
                    for (a, b) in y.iter().zip(trace.state(i)) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    for (a, b) in dy.iter().zip(trace.deriv(i)) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    i += 1;
                    StepControl::Continue
                })
                .unwrap();
            assert_eq!(i, trace.len());
            assert_eq!(end.steps, trace.len());
            assert!(!end.stopped_early);
        }
    }

    #[test]
    fn streaming_stops_on_sink_request() {
        let (_cx, ode) = decay_ode();
        let dp = DormandPrince::default();
        let mut ws = OdeScratch::new();
        let mut seen = 0usize;
        let end = dp
            .integrate_streaming(&ode, &[1.0], &[1.0], (0.0, 5.0), &mut ws, |_t, y, _dy| {
                seen += 1;
                if y[0] < 0.5 {
                    StepControl::Stop
                } else {
                    StepControl::Continue
                }
            })
            .unwrap();
        assert!(end.stopped_early);
        assert_eq!(end.steps, seen);
        assert!(end.t < 5.0, "stopped at t = {}", end.t);
        // ln 2 ≈ 0.693: the crossing is found within a step or two.
        assert!(end.t >= 0.5 && end.t < 1.2, "t = {}", end.t);
        // Stop on the very first sample also works.
        let end = dp
            .integrate_streaming(&ode, &[1.0], &[1.0], (0.0, 5.0), &mut ws, |_, _, _| {
                StepControl::Stop
            })
            .unwrap();
        assert!(end.stopped_early);
        assert_eq!(end.steps, 1);
        assert_eq!(end.t, 0.0);
    }

    #[test]
    fn error_display() {
        let e = OdeError::NonFinite { t: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = OdeError::StepUnderflow { t: 0.1 };
        assert!(e.to_string().contains("underflow"));
        let e = OdeError::TooManySteps { t: 2.0 };
        assert!(e.to_string().contains("budget"));
    }
}
