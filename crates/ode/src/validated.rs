//! Validated interval integration: rigorous enclosures of *all*
//! trajectories emanating from a box of initial states and parameters.
//!
//! Each step finds an a-priori enclosure `B ⊇ {y(s) : s ∈ [t, t+h]}` by
//! Picard–Lindelöf iteration (`B' = Y + [0,h]·F(B)`, accepted when
//! `B' ⊆ B`), then tightens the step endpoint with both the first-order
//! form `Y + h·F(B)` and the Lohner-style mean-value form built on the
//! Jacobian (a Taylor-2 midpoint flow plus a variational enclosure),
//! intersecting the two.

use biocheck_expr::{Context, Program, VarId};
use biocheck_interval::{IBox, Interval};
use std::error::Error;
use std::fmt;

use crate::system::OdeSystem;

/// Minimum step before a validated step gives up.
const H_MIN: f64 = 1e-9;
/// A tube stops (truncated) once any state enclosure is wider than this.
const MAX_WIDTH: f64 = 1e3;
/// Hard cap on accepted steps per flow.
const MAX_STEPS: usize = 100_000;

/// Failure of validated integration.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// No a-priori enclosure could be certified even at the minimum step.
    StepUnderflow {
        /// Time at which progress stalled.
        t: f64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::StepUnderflow { t } => {
                write!(f, "validated step underflow at t = {t}")
            }
        }
    }
}

impl Error for ValidationError {}

/// One accepted validated step.
#[derive(Clone, Debug)]
pub struct TubeStep {
    /// Step start time (relative to flow start).
    pub t0: f64,
    /// Step end time.
    pub t1: f64,
    /// Enclosure of all trajectories over the whole window `[t0, t1]`.
    pub range: IBox,
    /// Enclosure of the states exactly at `t1`.
    pub end: IBox,
}

/// A validated flow tube: consecutive step enclosures covering `[0, T]`.
#[derive(Clone, Debug)]
pub struct FlowTube {
    /// Initial box (time 0).
    pub start: IBox,
    /// Accepted steps in time order.
    pub steps: Vec<TubeStep>,
    /// `true` when the tube was truncated before the requested duration
    /// (by an invariant or a validation failure).
    pub truncated: bool,
}

impl FlowTube {
    /// Enclosure of states at the exact end of the tube.
    pub fn end(&self) -> &IBox {
        self.steps.last().map(|s| &s.end).unwrap_or(&self.start)
    }

    /// Duration actually covered.
    pub fn duration(&self) -> f64 {
        self.steps.last().map(|s| s.t1).unwrap_or(0.0)
    }

    /// Hull of all state enclosures over time windows intersecting
    /// `[t_lo, t_hi]` (∅-box of the right dimension when none intersect).
    pub fn states_over(&self, t_lo: f64, t_hi: f64) -> IBox {
        let mut acc: Option<IBox> = None;
        if t_lo <= 0.0 {
            acc = Some(self.start.clone());
        }
        for s in &self.steps {
            if s.t1 >= t_lo && s.t0 <= t_hi {
                acc = Some(match acc {
                    None => s.range.clone(),
                    Some(a) => a.hull(&s.range),
                });
            }
        }
        acc.unwrap_or_else(|| IBox::uniform(self.start.len(), Interval::EMPTY))
    }

    /// The hull of time windows whose enclosure intersects `target`,
    /// or `None` when the target is unreachable anywhere on the tube.
    pub fn times_reaching(&self, target: &IBox) -> Option<Interval> {
        let mut acc: Option<Interval> = None;
        if !self.start.intersect(target).is_empty() {
            acc = Some(Interval::ZERO);
        }
        for s in &self.steps {
            if !s.range.intersect(target).is_empty() {
                let w = Interval::new(s.t0, s.t1);
                acc = Some(match acc {
                    None => w,
                    Some(a) => a.hull(&w),
                });
            }
        }
        acc
    }
}

/// Validated integrator for an [`OdeSystem`].
#[derive(Clone, Debug)]
pub struct ValidatedOde {
    prog: Program,
    jac: Program,
    states: Vec<VarId>,
    /// Base step size.
    pub h0: f64,
}

impl ValidatedOde {
    /// Compiles a validated integrator with Jacobian-based mean-value
    /// tightening (the right-hand sides are differentiated symbolically).
    pub fn new(cx: &mut Context, sys: &OdeSystem) -> ValidatedOde {
        let vars = sys.states.clone();
        let mut entries = Vec::with_capacity(vars.len() * vars.len());
        for &e in &sys.rhs {
            for &v in &vars {
                entries.push(cx.diff(e, v));
            }
        }
        ValidatedOde {
            jac: Program::compile(cx, &entries),
            prog: Program::compile(cx, &sys.rhs),
            states: vars,
            h0: 0.05,
        }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// The state variables (environment slots).
    pub fn states(&self) -> &[VarId] {
        &self.states
    }

    /// Evaluates `F` over a state box, with parameters from `env`.
    fn eval_f(&self, env: &mut IBox, y: &IBox, out: &mut [Interval]) {
        for (&v, i) in self.states.iter().zip(0..) {
            env[v.index()] = y[i];
        }
        self.prog.eval_interval_into(env, out);
    }

    fn eval_jac(&self, env: &mut IBox, y: &IBox, out: &mut [Interval]) {
        for (&v, i) in self.states.iter().zip(0..) {
            env[v.index()] = y[i];
        }
        self.jac.eval_interval_into(env, out);
    }

    /// One validated step of size ≤ `h` from `y`. Returns
    /// `(accepted h, range enclosure, end enclosure)`.
    ///
    /// The endpoint uses a first-order Lohner-style mean-value form: the
    /// midpoint solution is propagated as a thin set and the initial-set
    /// spread is transported by an enclosure `W(h) ∈ I + h·J(B)·W̃` of the
    /// variational (sensitivity) matrix. For dissipative dynamics
    /// (negative-definite `J`) this is a *contraction*, so tubes do not
    /// balloon the way the naive `Y + h·F(B)` form does.
    fn step(&self, env: &mut IBox, y: &IBox, mut h: f64) -> Option<(f64, IBox, IBox)> {
        let n = self.dim();
        let mut f_y = vec![Interval::ZERO; n];
        self.eval_f(env, y, &mut f_y);
        if f_y.iter().any(Interval::is_empty) {
            return None;
        }
        'outer: while h >= H_MIN {
            let h_iv = Interval::new(0.0, h);
            // Candidate a-priori enclosure, inflated.
            let mut cand = IBox::new(
                (0..n)
                    .map(|i| {
                        let grow = h_iv * f_y[i];
                        (y[i] + grow).inflate(0.05 * (y[i] + grow).width() + 1e-7)
                    })
                    .collect(),
            );
            let mut f_b = vec![Interval::ZERO; n];
            for _attempt in 0..8 {
                self.eval_f(env, &cand, &mut f_b);
                if f_b.iter().any(Interval::is_empty) {
                    h *= 0.5;
                    continue 'outer;
                }
                let img = IBox::new((0..n).map(|i| y[i] + h_iv * f_b[i]).collect());
                if img.iter().any(|iv| !iv.is_bounded()) {
                    // An unbounded image can never certify a useful
                    // enclosure (hulling would "succeed" with ±∞): the
                    // step is too coarse for the dynamics — halve it.
                    h *= 0.5;
                    continue 'outer;
                }
                if !cand.contains_box(&img) {
                    // Inflate and retry the same h.
                    cand = img.hull(&cand).inflate(0.2 * cand.max_width() + 1e-7);
                    continue;
                }
                // Certified a-priori enclosure; tighten once more.
                let range = img;
                self.eval_f(env, &range, &mut f_b);
                let hh = Interval::point(h);
                // Baseline first-order end (sound but non-contractive).
                let mut end = IBox::new((0..n).map(|i| y[i] + hh * f_b[i]).collect());
                if let Some(mv) = self.mean_value_end(env, y, &range, &f_b, h) {
                    let tightened = end.intersect(&mv);
                    if !tightened.is_empty() {
                        end = tightened;
                    }
                }
                let end = end.intersect(&range);
                if end.is_empty() {
                    // Numerically inconsistent; retry smaller.
                    h *= 0.5;
                    continue 'outer;
                }
                return Some((h, range, end));
            }
            h *= 0.5;
        }
        None
    }

    /// Lohner-style mean-value endpoint:
    /// `Y(h) ⊆ ŷ_m(h) + W(h)·(Y − m)` with `W(h) ∈ I + h·J(B)·W̃`,
    /// where `ŷ_m` flows the midpoint and `W̃` is a Picard enclosure of
    /// the variational matrix over the step.
    fn mean_value_end(
        &self,
        env: &mut IBox,
        y: &IBox,
        range: &IBox,
        f_range: &[Interval],
        h: f64,
    ) -> Option<IBox> {
        let n = self.dim();
        let hh = Interval::point(h);
        // Thin solution from the midpoint m (Taylor-2 over the range box).
        let m = y.midpoint();
        let m_box = IBox::from_point(&m);
        let mut f_m = vec![Interval::ZERO; n];
        self.eval_f(env, &m_box, &mut f_m);
        let mut jb = vec![Interval::ZERO; n * n];
        self.eval_jac(env, range, &mut jb);
        if jb.iter().any(Interval::is_empty) || f_m.iter().any(Interval::is_empty) {
            return None;
        }
        let h2 = Interval::point(0.5 * h * h);
        let e_m: Vec<Interval> = (0..n)
            .map(|i| {
                let mut acc = Interval::ZERO;
                for j in 0..n {
                    acc += jb[i * n + j] * f_range[j];
                }
                Interval::point(m[i]) + hh * f_m[i] + h2 * acc
            })
            .collect();
        // Variational enclosure: W̃ with W̃ ⊇ I + [0,h]·J(B)·W̃ (Picard).
        let h_iv = Interval::new(0.0, h);
        let m_mat: Vec<Interval> = jb.iter().map(|&j| h_iv * j).collect();
        let ident = |i: usize, j: usize| {
            if i == j {
                Interval::ONE
            } else {
                Interval::ZERO
            }
        };
        // Candidate: I + M, inflated.
        let mut w_tilde: Vec<Interval> = (0..n * n)
            .map(|k| (ident(k / n, k % n) + m_mat[k]).inflate(1e-6))
            .collect();
        let mut certified = false;
        for _ in 0..4 {
            // img = I + M·W̃
            let mut img = vec![Interval::ZERO; n * n];
            for i in 0..n {
                for j in 0..n {
                    let mut acc = ident(i, j);
                    for l in 0..n {
                        acc += m_mat[i * n + l] * w_tilde[l * n + j];
                    }
                    img[i * n + j] = acc;
                }
            }
            let contained = img
                .iter()
                .zip(&w_tilde)
                .all(|(a, b)| b.contains_interval(a));
            if contained {
                w_tilde = img;
                certified = true;
                break;
            }
            // Inflate the hull and retry.
            w_tilde = img
                .iter()
                .zip(&w_tilde)
                .map(|(a, b)| a.hull(b).inflate(0.1 * a.hull(b).width() + 1e-9))
                .collect();
        }
        if !certified {
            return None;
        }
        // W(h) = I + h·J(B)·W̃ (exact step h, not [0,h]).
        let mut wh = vec![Interval::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = ident(i, j);
                for l in 0..n {
                    acc += hh * jb[i * n + l] * w_tilde[l * n + j];
                }
                wh[i * n + j] = acc;
            }
        }
        // e_m + W(h)·(Y − m)
        Some(IBox::new(
            (0..n)
                .map(|i| {
                    let mut acc = e_m[i];
                    for j in 0..n {
                        acc += wh[i * n + j] * (y[j] - Interval::point(m[j]));
                    }
                    acc
                })
                .collect(),
        ))
    }

    /// Flows the box `y0` for `duration`, producing a tube. Parameters are
    /// read from `env` (a full-context box; state dims are overwritten).
    ///
    /// A tube stops early, marked `truncated` but keeping its certified
    /// prefix, when a later step cannot be certified, when a state
    /// enclosure grows wider than 10³, or after 10⁵ steps.
    ///
    /// # Errors
    ///
    /// [`ValidationError::StepUnderflow`] when not even the first step can
    /// be certified.
    pub fn flow(&self, env: &IBox, y0: &IBox, duration: f64) -> Result<FlowTube, ValidationError> {
        assert_eq!(y0.len(), self.dim(), "initial box dimension mismatch");
        let mut env = env.clone();
        let mut tube = FlowTube {
            start: y0.clone(),
            steps: Vec::new(),
            truncated: false,
        };
        let mut t = 0.0;
        let mut y = y0.clone();
        let mut steps = 0;
        while t < duration {
            steps += 1;
            if steps > MAX_STEPS {
                tube.truncated = true;
                return Ok(tube);
            }
            let h_try = self.h0.min(duration - t);
            match self.step(&mut env, &y, h_try) {
                Some((h, range, end)) => {
                    let mut t1 = t + h;
                    // Snap the final step onto the requested duration so
                    // point queries at exactly `duration` always hit a
                    // window (guards against 1-ulp accumulation drift).
                    if (duration - t1).abs() <= 1e-12 * (1.0 + duration.abs()) {
                        t1 = duration;
                    }
                    tube.steps.push(TubeStep {
                        t0: t,
                        t1,
                        range,
                        end: end.clone(),
                    });
                    t = t1;
                    y = end;
                    if y.max_width() > MAX_WIDTH {
                        // Stop here but keep the certified prefix: callers
                        // (the flow contractor) can still prune with it,
                        // e.g. when an invariant caps the dwell earlier.
                        tube.truncated = true;
                        return Ok(tube);
                    }
                }
                None => {
                    if tube.steps.is_empty() {
                        return Err(ValidationError::StepUnderflow { t });
                    }
                    tube.truncated = true;
                    return Ok(tube);
                }
            }
        }
        Ok(tube)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rk::DormandPrince;
    use crate::system::OdeSystem;

    fn decay(cx: &mut Context) -> OdeSystem {
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        OdeSystem::new(vec![x], vec![rhs])
    }

    #[test]
    fn tube_encloses_point_solutions() {
        let mut cx = Context::new();
        let sys = decay(&mut cx);
        let v = ValidatedOde::new(&mut cx, &sys);
        let env = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let y0 = IBox::new(vec![Interval::new(0.8, 1.2)]);
        let tube = v.flow(&env, &y0, 1.0).unwrap();
        assert!(!tube.truncated);
        assert!((tube.duration() - 1.0).abs() < 1e-9);
        // Exact solutions x0·e^{-t} must lie inside every step enclosure.
        for x0 in [0.8, 0.95, 1.2] {
            for s in &tube.steps {
                for frac in [0.0, 0.5, 1.0] {
                    let t = s.t0 + frac * (s.t1 - s.t0);
                    let exact = x0 * (-t).exp();
                    assert!(
                        s.range.contains_point(&[exact]),
                        "t={t}, x0={x0}: {exact} ∉ {:?}",
                        s.range
                    );
                }
                let exact_end = x0 * (-s.t1).exp();
                assert!(s.end.contains_point(&[exact_end]));
            }
        }
        // End box brackets [0.8e⁻¹, 1.2e⁻¹].
        let end = tube.end();
        assert!(end.contains_point(&[0.8 * (-1.0f64).exp()]));
        assert!(end.contains_point(&[1.2 * (-1.0f64).exp()]));
    }

    #[test]
    fn oscillator_tube_contains_circle() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let vv = cx.intern_var("v");
        let dx = cx.var_node(vv);
        let xn = cx.var_node(x);
        let dv = cx.neg(xn);
        let sys = OdeSystem::new(vec![x, vv], vec![dx, dv]);
        let v = ValidatedOde::new(&mut cx, &sys);
        let env = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let y0 = IBox::from_point(&[1.0, 0.0]);
        let tube = v.flow(&env, &y0, 1.5).unwrap();
        for s in &tube.steps {
            let t = s.t1;
            assert!(
                s.end.contains_point(&[t.cos(), -t.sin()]),
                "t={t}: {:?}",
                s.end
            );
        }
    }

    #[test]
    fn parameterized_flow_uses_env() {
        // x' = -k x with k ∈ [0.5, 1.0]; tube must cover both extremes.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let _k = cx.intern_var("k");
        let rhs = cx.parse("-k * x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let v = ValidatedOde::new(&mut cx, &sys);
        let mut env = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let k_id = cx.var_id("k").unwrap();
        env[k_id.index()] = Interval::new(0.5, 1.0);
        let y0 = IBox::from_point(&[1.0]);
        let tube = v.flow(&env, &y0, 1.0).unwrap();
        let end = tube.end();
        assert!(end.contains_point(&[(-0.5f64).exp()]));
        assert!(end.contains_point(&[(-1.0f64).exp()]));
    }

    #[test]
    fn tube_queries() {
        let mut cx = Context::new();
        let sys = decay(&mut cx);
        let v = ValidatedOde::new(&mut cx, &sys);
        let env = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let y0 = IBox::from_point(&[1.0]);
        let tube = v.flow(&env, &y0, 2.0).unwrap();
        // states_over a window includes the solution there.
        let w = tube.states_over(0.5, 1.0);
        assert!(w.contains_point(&[(-0.7f64).exp()]));
        // times_reaching around x = e⁻¹ brackets t = 1.
        let target = IBox::new(vec![Interval::new(
            (-1.0f64).exp() - 1e-3,
            (-1.0f64).exp() + 1e-3,
        )]);
        let t = tube.times_reaching(&target).expect("reachable");
        assert!(t.contains(1.0), "{t:?}");
        // An unreachable target yields None.
        let unreachable = IBox::new(vec![Interval::new(5.0, 6.0)]);
        assert!(tube.times_reaching(&unreachable).is_none());
    }

    #[test]
    fn validated_agrees_with_numeric() {
        // Random-ish nonlinear system: tube must contain the DoPri point
        // solution at the end time.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let y = cx.intern_var("y");
        let r1 = cx.parse("y - x^3").unwrap();
        let r2 = cx.parse("-x - 0.2*y").unwrap();
        let sys = OdeSystem::new(vec![x, y], vec![r1, r2]);
        let vo = ValidatedOde::new(&mut cx, &sys);
        let co = sys.compile(&cx);
        let env_b = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let y0 = [0.5, -0.3];
        let tube = vo.flow(&env_b, &IBox::from_point(&y0), 1.0).unwrap();
        let tr = DormandPrince::default()
            .integrate(&co, &vec![0.0; cx.num_vars()], &y0, (0.0, tube.duration()))
            .unwrap();
        assert!(
            tube.end().contains_point(tr.last_state()),
            "numeric end {:?} outside validated {:?}",
            tr.last_state(),
            tube.end()
        );
    }

    #[test]
    fn zero_duration_flow() {
        let mut cx = Context::new();
        let sys = decay(&mut cx);
        let v = ValidatedOde::new(&mut cx, &sys);
        let env = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let y0 = IBox::new(vec![Interval::new(1.0, 2.0)]);
        let tube = v.flow(&env, &y0, 0.0).unwrap();
        assert_eq!(tube.steps.len(), 0);
        assert_eq!(tube.end(), &y0);
        assert_eq!(tube.duration(), 0.0);
    }

    #[test]
    fn error_display() {
        assert!(ValidationError::StepUnderflow { t: 1.0 }
            .to_string()
            .contains("underflow"));
    }
}
