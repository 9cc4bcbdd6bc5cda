//! The adaptive Dormand–Prince 5(4) embedded Runge–Kutta pair.
//!
//! One integrator loop serves one trajectory and `K` lockstep ones
//! ([`DormandPrince::integrate_lanes`]). Lanes are stage-synchronous:
//! every live lane is at the same stage in every sweep, so the stage
//! sums, the 5th/4th-order solutions and the error norm run across the
//! lanes, and the sink takes every accepted sample of a sweep in one
//! call on the `[row][lane]` state. Only the accept/reject decision,
//! the step-size update and the loop head run lane by lane. A lane
//! starts a new trajectory, or retries a step after a non-finite error,
//! at the step boundary, with its first stage from the one-lane program.
//!
//! On x86-64 CPUs with AVX2, the `K > 1` loop runs an instance of the
//! same body compiled for AVX2, with the right-hand-side sweep inlined
//! into it; runtime detection alone chooses it. A target feature cannot
//! change a bit of the result: Rust never contracts a multiply and an
//! add into a fused multiply-add (and `fma` is not enabled anyway); add,
//! sub, mul, div, sqrt, abs, min and max are exactly rounded IEEE
//! operations at any vector width; `tanh` is one call per sweep to
//! [`biocheck_expr::tanh_lanes`], whose instances all compute the same
//! bits; and `exp`, `powf`, `powi` and the other elementary functions
//! make the same libm calls, one per lane.

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
    /// Right-hand-side input point (a stage state), then the 5th-order
    /// solution, `[component][lane]`.
    tmp: Vec<f64>,
    /// One lane's environment, state and derivative, gathered for the
    /// one-lane program.
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
        impl<F: FnMut(f64, &[f64], &[f64]) -> StepControl> LaneDriver<1> for One<'_, F> {
            fn load(&mut self, _lane: usize) -> Load<'_> {
                match self.start.take() {
                    Some((env, y0)) => Load::Start(env, y0),
                    None => Load::Done,
                }
            }
            fn sink(
                &mut self,
                _accepted: &[bool; 1],
                t: &[f64; 1],
                y: &[[f64; 1]],
                dy: &[[f64; 1]],
            ) -> [StepControl; 1] {
                [(self.sink)(t[0], y.as_flattened(), dy.as_flattened())]
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

    /// Lockstep integration of independent trajectories over `K` lanes.
    /// Every live lane is at the same Runge–Kutta stage in every sweep:
    /// each stage evaluates the compiled right-hand side once for all
    /// lanes (`CompiledOde::deriv_lanes`), and the stage sums, the
    /// 5th/4th-order solutions and the scaled error run across the lanes
    /// with per-lane times and step sizes. Each lane then accepts or
    /// rejects its own step; the sweep's accepted samples go to the
    /// driver in one [`LaneDriver::sink`] call, and only then does each
    /// lane adapt its own step size and keep its own step budget.
    ///
    /// When a lane's trajectory ends, the driver learns how
    /// ([`LaneDriver::finish`]), and at the step boundary the lane is
    /// refilled with the next trajectory ([`LaneDriver::load`]). A
    /// refilled lane's first derivative comes from the one-lane program
    /// on that lane's column, as does the re-evaluated first stage after
    /// a non-finite step, and its first sample goes to the sink with a
    /// one-lane mask. While the driver has none ready ([`Load::Later`])
    /// or none left ([`Load::Done`]), an ended lane idles on its stale
    /// column, and nothing reads its results. The call returns once no
    /// lane is live: when the driver is done, or when every lane waits
    /// on it.
    ///
    /// Every lane performs exactly the float operations of
    /// [`DormandPrince::integrate_streaming`], in the same order: its
    /// samples and its end are bit-identical to a scalar run of its
    /// trajectory, which is the `K = 1` instance of this method. With
    /// `K > 1` on an x86-64 CPU with AVX2, the loop runs its AVX2
    /// instance, which computes the same bits (see the module docs).
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
        driver: &mut dyn LaneDriver<K>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if K > 1 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU has AVX2, the one feature the
            // instance is compiled for.
            return unsafe { self.lanes_avx2::<K>(ode, tspan, ws, driver) };
        }
        self.lanes::<K>(ode, tspan, ws, driver);
    }

    /// [`DormandPrince::lanes`] compiled for AVX2, with the right-hand
    /// side's sweep inlined into it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2<const K: usize>(
        &self,
        ode: &CompiledOde,
        tspan: (f64, f64),
        ws: &mut OdeScratch,
        driver: &mut dyn LaneDriver<K>,
    ) {
        self.lanes::<K>(ode, tspan, ws, driver);
    }

    /// The body of [`DormandPrince::integrate_lanes`], inlined into each
    /// of its instances.
    #[inline(always)]
    fn lanes<const K: usize>(
        &self,
        ode: &CompiledOde,
        tspan: (f64, f64),
        ws: &mut OdeScratch,
        driver: &mut dyn LaneDriver<K>,
    ) {
        let (t0, t_end) = tspan;
        assert!(t_end >= t0, "time span must be forward");
        let n = ode.dim();
        let OdeScratch {
            env,
            y,
            k,
            tmp,
            lane,
            eval,
        } = ws;
        zeroed(env, ode.env_len() * K);
        zeroed(y, n * K);
        zeroed(k, 7 * n * K);
        zeroed(tmp, n * K);
        zeroed(lane, ode.env_len() + 2 * n);
        let env = env.as_chunks_mut::<K>().0;
        let y = y.as_chunks_mut::<K>().0;
        let k = k.as_chunks_mut::<K>().0;
        let tmp = tmp.as_chunks_mut::<K>().0;
        let (lenv, rest) = lane.split_at_mut(ode.env_len());
        let (ly, ldy) = rest.split_at_mut(n);

        // Simple heuristic initial step.
        let h_init = self.h0.unwrap_or_else(|| {
            let span = (t_end - t0).max(1e-12);
            (span / 100.0).min(self.h_max).max(self.h_min * 10.0)
        });
        let mut t = [t0; K];
        let mut h = [0.0; K];
        // Step attempts (the `max_steps` budget) and samples emitted.
        let mut steps = [0usize; K];
        let mut emitted = [0usize; K];
        let mut live = [false; K];
        let mut more = true;
        loop {
            // Refill ended lanes: a trajectory joins the sweeps once its
            // first sample is out and its first step is sized. A driver
            // with none ready yet is asked again at the next boundary.
            'refill: for l in 0..K {
                while !live[l] && more {
                    match load(driver, l, env, y) {
                        Refill::Loaded => {}
                        Refill::Later => break 'refill,
                        Refill::Done => {
                            more = false;
                            break;
                        }
                    }
                    (t[l], steps[l], emitted[l]) = (t0, 0, 1);
                    let col = (&mut *lenv, &mut *ly, &mut *ldy);
                    lane_k1(ode, l, t0, (&*env, &*y), &mut k[..n], col, eval);
                    let ended = if k[..n].iter().any(|r| !r[l].is_finite()) {
                        Some(Err(OdeError::NonFinite { t: t0 }))
                    } else {
                        h[l] = h_init;
                        let mut one = [false; K];
                        one[l] = true;
                        if driver.sink(&one, &t, y, &k[..n])[l] == StepControl::Stop {
                            Some(Ok(StreamEnd {
                                t: t0,
                                steps: 1,
                                stopped_early: true,
                            }))
                        } else {
                            self.head(t_end, t0, &mut h[l], &mut steps[l], 1)
                        }
                    };
                    match ended {
                        Some(end) => driver.finish(l, end),
                        None => live[l] = true,
                    }
                }
            }
            if !live.contains(&true) {
                return;
            }

            // Stages 2..=7, every lane at once: `y + h·Σ_{j<s} A[s][j]·k_j`
            // at `t + C[s]·h`, summed from 0.0 in `j` order.
            for s in 1..7 {
                let (done, next) = k.split_at_mut(s * n);
                for (i, (ti, yi)) in tmp.iter_mut().zip(y.iter()).enumerate() {
                    let mut acc = [0.0; K];
                    for (j, a) in A[s].iter().enumerate().take(s) {
                        let kj = &done[j * n + i];
                        for l in 0..K {
                            acc[l] += a * kj[l];
                        }
                    }
                    for l in 0..K {
                        ti[l] = yi[l] + h[l] * acc[l];
                    }
                }
                let tin = std::array::from_fn(|l| t[l] + C[s] * h[l]);
                ode.deriv_lanes(env, tmp, &tin, &mut next[..n], eval);
            }

            // 5th/4th order solutions (the 5th into `tmp`) and the error
            // estimate.
            let mut err = [0.0f64; K];
            for (i, (ti, yi)) in tmp.iter_mut().zip(y.iter()).enumerate() {
                let mut s5 = [0.0; K];
                let mut s4 = [0.0; K];
                for j in 0..7 {
                    let kj = &k[j * n + i];
                    for l in 0..K {
                        s5[l] += B5[j] * kj[l];
                        s4[l] += B4[j] * kj[l];
                    }
                }
                for l in 0..K {
                    ti[l] = yi[l] + h[l] * s5[l];
                    let sc = self.atol + self.rtol * yi[l].abs().max(ti[l].abs());
                    let e = h[l] * (s5[l] - s4[l]) / sc;
                    err[l] += e * e;
                }
            }

            // Each live lane accepts (a finite error norm of at most one)
            // or rejects its own step. An accepted lane moves to `t + h`,
            // and FSAL: k1 of its next step is k7.
            let err = err.map(|e| (e / n as f64).sqrt());
            let accepted: [bool; K] = std::array::from_fn(|l| live[l] && err[l] <= 1.0);
            let mut control = [StepControl::Continue; K];
            if accepted.contains(&true) {
                for l in 0..K {
                    if accepted[l] {
                        t[l] += h[l];
                        emitted[l] += 1;
                    }
                }
                let (k1, rest) = k.split_at_mut(n);
                let k7 = &rest[5 * n..];
                for (((yi, ti), k1i), k7i) in y.iter_mut().zip(tmp.iter()).zip(k1).zip(k7) {
                    for l in 0..K {
                        if accepted[l] {
                            yi[l] = ti[l];
                            k1i[l] = k7i[l];
                        }
                    }
                }
                control = driver.sink(&accepted, &t, y, &k[..n]);
            }

            // Then each live lane ends, retries or adapts its step size.
            for l in 0..K {
                if !live[l] {
                    continue;
                }
                let err = err[l];
                let ended = 'lane: {
                    if !err.is_finite() {
                        // Derivative blew up inside the step: try a
                        // smaller one, from a re-evaluated k1.
                        h[l] *= 0.25;
                        if h[l] < self.h_min {
                            break 'lane Some(Err(OdeError::NonFinite { t: t[l] }));
                        }
                        let ended = self.head(t_end, t[l], &mut h[l], &mut steps[l], emitted[l]);
                        if ended.is_none() {
                            let col = (&mut *lenv, &mut *ly, &mut *ldy);
                            lane_k1(ode, l, t[l], (&*env, &*y), &mut k[..n], col, eval);
                        }
                        break 'lane ended;
                    }
                    if accepted[l] && control[l] == StepControl::Stop {
                        break 'lane Some(Ok(StreamEnd {
                            t: t[l],
                            steps: emitted[l],
                            stopped_early: true,
                        }));
                    }
                    // Step-size update (both accept and reject).
                    let factor = if err == 0.0 {
                        5.0
                    } else {
                        (0.9 * err.powf(-0.2)).clamp(0.2, 5.0)
                    };
                    h[l] *= factor;
                    self.head(t_end, t[l], &mut h[l], &mut steps[l], emitted[l])
                };
                if let Some(end) = ended {
                    driver.finish(l, end);
                    live[l] = false;
                }
            }
        }
    }

    /// The scalar loop's head for a trajectory at `t` with step `h` and
    /// `emitted` samples: ends it at the end of the span (up to
    /// roundoff), on an exhausted step budget or on step underflow, and
    /// otherwise counts the step attempt and clamps `h`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn head(
        &self,
        t_end: f64,
        t: f64,
        h: &mut f64,
        steps: &mut usize,
        emitted: usize,
    ) -> Option<Result<StreamEnd, OdeError>> {
        // Done up to roundoff: a sub-h_min sliver is not an error.
        if !(t < t_end) || t_end - t <= 1e-13 * (1.0 + t_end.abs()) {
            return Some(Ok(StreamEnd {
                t,
                steps: emitted,
                stopped_early: false,
            }));
        }
        *steps += 1;
        if *steps > self.max_steps {
            return Some(Err(OdeError::TooManySteps { t }));
        }
        *h = h.min(t_end - t).min(self.h_max);
        if *h < self.h_min {
            return Some(Err(OdeError::StepUnderflow { t }));
        }
        None
    }
}

/// The caller's side of lockstep integration over `K` lanes
/// ([`DormandPrince::integrate_lanes`]): it supplies independent
/// trajectories, consumes each sweep's accepted samples, and learns how
/// each trajectory ended. Lanes are numbered `0..K`.
pub trait LaneDriver<const K: usize> {
    /// Starts the next trajectory in `lane`, if there is one now.
    fn load(&mut self, lane: usize) -> Load<'_>;

    /// The accepted samples of one sweep, all lanes in one call: every
    /// lane `l` with `accepted[l]` set has the sample `(t[l], y[i][l],
    /// dy[i][l])`, laid out `[component][lane]`; the other lanes' slots
    /// are stale and must not be read. It is called once a sweep has
    /// decided every lane's step and before any step-size update or
    /// [`LaneDriver::finish`], and only when some lane accepted; a
    /// refilled lane's first sample comes alone, with a one-lane mask.
    /// Entry `l` of the result is the control of an accepted lane `l`,
    /// what the sink of [`DormandPrince::integrate_streaming`] returns
    /// for it; the other entries are ignored.
    fn sink(
        &mut self,
        accepted: &[bool; K],
        t: &[f64; K],
        y: &[[f64; K]],
        dy: &[[f64; K]],
    ) -> [StepControl; K];

    /// The trajectory in `lane` ended with what
    /// [`DormandPrince::integrate_streaming`] returns for it.
    fn finish(&mut self, lane: usize, end: Result<StreamEnd, OdeError>);
}

/// What [`LaneDriver::load`] hands a free lane.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Load<'a> {
    /// The next trajectory: its parameter environment and initial state.
    Start(&'a [f64], &'a [f64]),
    /// None yet: the lane idles through the next sweep and asks again at
    /// the step boundary after it.
    Later,
    /// None is left: the lane idles from now on.
    Done,
}

/// How a lane refill went: [`Load`] with the trajectory's data copied
/// into the lane.
enum Refill {
    Loaded,
    Later,
    Done,
}

/// Loads the driver's next trajectory into lane `l` of `env` and `y`,
/// the environment zero-extended to the system's width.
fn load<const K: usize>(
    driver: &mut dyn LaneDriver<K>,
    l: usize,
    env: &mut [[f64; K]],
    y: &mut [[f64; K]],
) -> Refill {
    let (base_env, y0) = match driver.load(l) {
        Load::Start(base_env, y0) => (base_env, y0),
        Load::Later => return Refill::Later,
        Load::Done => return Refill::Done,
    };
    let base = base_env.iter().chain(std::iter::repeat(&0.0));
    for (row, &v) in env.iter_mut().zip(base) {
        row[l] = v;
    }
    for (row, &v) in y.iter_mut().zip(y0) {
        row[l] = v;
    }
    Refill::Loaded
}

/// Lane `l`'s first stage `f(t, y)` into `k1`, through the one-lane
/// program on the lane's gathered environment and state (`col`):
/// bit-identical to the lane's slot in a sweep.
fn lane_k1<const K: usize>(
    ode: &CompiledOde,
    l: usize,
    t: f64,
    (env, y): (&[[f64; K]], &[[f64; K]]),
    k1: &mut [[f64; K]],
    (cenv, cy, cdy): (&mut [f64], &mut [f64], &mut [f64]),
    eval: &mut EvalScratch,
) {
    for (c, row) in cenv.iter_mut().zip(env).chain(cy.iter_mut().zip(y)) {
        *c = row[l];
    }
    ode.deriv_with(cenv, cy, t, cdy, eval);
    for (row, &d) in k1.iter_mut().zip(cdy.iter()) {
        row[l] = d;
    }
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

    /// FSAL and the synchronous step boundary rest on these tableau
    /// facts: the last stage is evaluated at the 5th-order solution at
    /// `t + h`, so its derivative is the next step's first stage.
    #[test]
    fn tableau_supports_fsal() {
        assert_eq!(A[6], B5[..6]);
        assert_eq!(B5[6], 0.0);
        assert_eq!(C[6], 1.0);
        for (row, &c) in A.iter().zip(&C) {
            let sum: f64 = row.iter().sum();
            assert!((sum - c).abs() < 1e-15, "row sums to {sum}, C = {c}");
        }
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
