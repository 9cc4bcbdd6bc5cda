//! Numeric simulation of hybrid automata under urgent-jump semantics,
//! producing trajectories over the hybrid time domain (Definitions 8–10).

use crate::automaton::{HybridAutomaton, ModeId};
use biocheck_expr::{Atom, NodeId, Program, RelOp};
use biocheck_ode::{CompiledOde, OdeError, Trace};
use std::error::Error;
use std::fmt;

/// Maximum number of discrete jumps per simulation (Zeno guard).
const MAX_JUMPS: usize = 256;
/// Absolute tolerance for locating guard crossings.
const T_TOL: f64 = 1e-9;

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// The underlying ODE integration failed.
    Ode(OdeError),
    /// The jump budget was exhausted (possible Zeno behavior) at time `t`.
    TooManyJumps {
        /// Time of the last jump.
        t: f64,
    },
    /// A guard uses an equality atom, which crossing detection cannot
    /// localize.
    EqualityGuard,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Ode(e) => write!(f, "integration failed: {e}"),
            SimError::TooManyJumps { t } => {
                write!(f, "jump budget exhausted at t = {t} (Zeno?)")
            }
            SimError::EqualityGuard => {
                write!(f, "equality guards are not supported by simulation")
            }
        }
    }
}

impl Error for SimError {}

impl From<OdeError> for SimError {
    fn from(e: OdeError) -> SimError {
        SimError::Ode(e)
    }
}

/// One continuous segment of a hybrid trajectory.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Mode the system dwelled in.
    pub mode: ModeId,
    /// The continuous trace (absolute times).
    pub trace: Trace,
    /// Index of the jump taken at the end (`None` for the final segment).
    pub exit_jump: Option<usize>,
}

/// A trajectory of a hybrid automaton: a sequence of per-mode continuous
/// segments glued by jumps, i.e. a function on the hybrid time domain
/// `{(i, t)}` of Definition 8.
#[derive(Clone, Debug)]
pub struct HybridTrajectory {
    /// The segments in time order.
    pub segments: Vec<Segment>,
}

impl HybridTrajectory {
    /// The discrete mode path `σ(0), σ(1), …` (the labeling function of
    /// Definition 10).
    pub fn mode_path(&self) -> Vec<ModeId> {
        self.segments.iter().map(|s| s.mode).collect()
    }

    /// Total continuous duration.
    pub fn duration(&self) -> f64 {
        self.segments.last().map(|s| s.trace.t_end()).unwrap_or(0.0)
    }

    /// Final continuous state.
    pub fn final_state(&self) -> &[f64] {
        self.segments.last().expect("non-empty").trace.last_state()
    }

    /// State at absolute time `t` (the segment active at `t`; jump times
    /// resolve to the *later* segment, matching `ξ(k+1, t_{k+1})`).
    pub fn state_at(&self, t: f64) -> Vec<f64> {
        for s in self.segments.iter().rev() {
            if t >= s.trace.t_start() {
                return s.trace.value_at(t);
            }
        }
        self.segments[0].trace.value_at(t)
    }

    /// Mode active at absolute time `t`.
    pub fn mode_at(&self, t: f64) -> ModeId {
        for s in self.segments.iter().rev() {
            if t >= s.trace.t_start() {
                return s.mode;
            }
        }
        self.segments[0].mode
    }

    /// Iterates `(t, state)` over all segments.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &[f64])> {
        self.segments.iter().flat_map(|s| s.trace.iter())
    }
}

/// Converts a guard atom into a "margin" expression that is ≥ 0 exactly
/// when the atom holds (used for crossing detection).
fn guard_margin(cx: &mut biocheck_expr::Context, atom: &Atom) -> Result<NodeId, SimError> {
    match atom.op {
        RelOp::Ge | RelOp::Gt => Ok(atom.expr),
        RelOp::Le | RelOp::Lt => Ok(cx.neg(atom.expr)),
        RelOp::Eq => Err(SimError::EqualityGuard),
    }
}

impl HybridAutomaton {
    /// Simulates from `init_state` in the initial mode for `t_end` time
    /// units, with parameters taken from [`HybridAutomaton::default_env`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn simulate_default(
        &self,
        init_state: &[f64],
        t_end: f64,
    ) -> Result<HybridTrajectory, SimError> {
        let env = self.default_env();
        self.simulate(&env, init_state, t_end)
    }

    /// Simulates with an explicit environment (parameter values live at
    /// their variables' indices).
    ///
    /// Urgent semantics: the earliest enabled guard fires; its resets are
    /// applied and the target mode continues. Crossings are located to
    /// within `T_TOL` (10⁻⁹) and the run fails after `MAX_JUMPS` (256)
    /// jumps. Invariants are not enforced here (simulation follows the
    /// flow; use BMC for invariant-aware analysis).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn simulate(
        &self,
        env: &[f64],
        init_state: &[f64],
        t_end: f64,
    ) -> Result<HybridTrajectory, SimError> {
        assert_eq!(init_state.len(), self.dim(), "initial state arity");
        // Pre-compute guard margins per mode (requires a context clone
        // since margins may add negation nodes).
        let mut cx = self.cx.clone();
        let mut mode_guards: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); self.modes.len()];
        for (ji, j) in self.jumps.iter().enumerate() {
            let mut margins = Vec::new();
            for g in &j.guards {
                margins.push(guard_margin(&mut cx, g)?);
            }
            // Conjunction via min of margins.
            let combined = match margins.len() {
                0 => cx.constant(1.0), // guard-free jump: immediately enabled
                1 => margins[0],
                _ => {
                    let mut acc = margins[0];
                    for &m in &margins[1..] {
                        acc = cx.min(acc, m);
                    }
                    acc
                }
            };
            mode_guards[j.from].push((ji, combined));
        }

        let mut env = env.to_vec();
        env.resize(cx.num_vars().max(env.len()), 0.0);
        // Each mode's flow and guard programs, compiled on its first visit.
        let mut compiled: Vec<Option<(CompiledOde, Program)>> =
            self.modes.iter().map(|_| None).collect();
        let mut segments = Vec::new();
        let mut mode = self.init_mode;
        let mut state = init_state.to_vec();
        let mut t = 0.0;
        let mut jumps_taken = 0;
        loop {
            let (ode, guards) = compiled[mode].get_or_insert_with(|| {
                let guard_exprs: Vec<NodeId> = mode_guards[mode].iter().map(|&(_, e)| e).collect();
                (
                    self.flow_system(mode).compile(&cx),
                    Program::compile(&cx, &guard_exprs),
                )
            });
            // A span that starts at or past `t_end` is the one point `t`.
            let span = (t, t_end.max(t));
            let (trace, hit) = ode.integrate_with_events(&env, &state, span, guards, T_TOL)?;
            let Some(hit) = hit else {
                segments.push(Segment {
                    mode,
                    trace,
                    exit_jump: None,
                });
                break;
            };
            let (jump_idx, _) = mode_guards[mode][hit.event];
            let jump = &self.jumps[jump_idx];
            // Apply resets on the exit state.
            let mut scratch = env.clone();
            for (&v, &xi) in self.states.iter().zip(&hit.state) {
                scratch[v.index()] = xi;
            }
            let mut new_state = hit.state.clone();
            for &(v, expr) in &jump.resets {
                let val = cx.eval(expr, &scratch);
                if let Some(pos) = self.states.iter().position(|&s| s == v) {
                    new_state[pos] = val;
                }
            }
            t = hit.t;
            segments.push(Segment {
                mode,
                trace,
                exit_jump: Some(jump_idx),
            });
            mode = jump.to;
            state = new_state;
            jumps_taken += 1;
            if jumps_taken > MAX_JUMPS {
                return Err(SimError::TooManyJumps { t });
            }
            // Nudge time forward to escape re-triggering the same
            // guard at the identical instant.
            t += T_TOL;
            if t >= t_end {
                break;
            }
        }
        Ok(HybridTrajectory { segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::{Atom, Context, RelOp};

    /// Bouncing-ramp automaton: x rises at +1 to 5, falls at -1 to 1.
    fn sawtooth() -> HybridAutomaton {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let up = cx.constant(1.0);
        let down = cx.constant(-1.0);
        let hi = cx.parse("x - 5").unwrap();
        let lo = cx.parse("1 - x").unwrap();
        let mut ha = HybridAutomaton::new(cx, vec![x]);
        let rise = ha.add_mode("rise", vec![up], vec![]);
        let fall = ha.add_mode("fall", vec![down], vec![]);
        ha.add_jump(rise, fall, vec![Atom::new(hi, RelOp::Ge)], vec![]);
        ha.add_jump(fall, rise, vec![Atom::new(lo, RelOp::Ge)], vec![]);
        ha.set_init(rise, vec![]);
        ha
    }

    #[test]
    fn sawtooth_oscillates() {
        let ha = sawtooth();
        let traj = ha.simulate_default(&[1.0], 20.0).unwrap();
        let path = traj.mode_path();
        assert!(path.len() >= 4, "several switches expected: {path:?}");
        // Alternating modes.
        for w in path.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        // x stays within [1 - eps, 5 + eps].
        for (_, s) in traj.iter() {
            assert!(s[0] > 0.9 && s[0] < 5.1, "x = {}", s[0]);
        }
        assert!((traj.duration() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn a_zero_length_run_is_the_initial_point() {
        let ha = sawtooth();
        for t_end in [0.0, -1.0] {
            let traj = ha.simulate_default(&[1.0], t_end).unwrap();
            assert_eq!(traj.mode_path(), vec![0]);
            assert_eq!(traj.segments[0].trace.len(), 1);
            assert_eq!(traj.segments[0].exit_jump, None);
            assert_eq!(traj.final_state(), &[1.0]);
            assert_eq!(traj.duration(), 0.0);
        }
    }

    #[test]
    fn jump_times_are_accurate() {
        let ha = sawtooth();
        let traj = ha.simulate_default(&[1.0], 10.0).unwrap();
        // First jump: from x=1 rising at +1 → t = 4 at x = 5.
        let first = &traj.segments[0];
        assert_eq!(first.mode, 0);
        assert!((first.trace.t_end() - 4.0).abs() < 1e-6);
        assert!((first.trace.last_state()[0] - 5.0).abs() < 1e-6);
        assert_eq!(first.exit_jump, Some(0));
        // Second: falls from 5 to 1 in 4s → jump at t = 8.
        let second = &traj.segments[1];
        assert_eq!(second.mode, 1);
        assert!((second.trace.t_end() - 8.0).abs() < 1e-4);
    }

    #[test]
    fn resets_applied() {
        // One mode, guard at x ≥ 1, reset x := 0: sawtooth via reset.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let one = cx.constant(1.0);
        let guard = cx.parse("x - 1").unwrap();
        let zero = cx.constant(0.0);
        let mut ha = HybridAutomaton::new(cx, vec![x]);
        let m = ha.add_mode("m", vec![one], vec![]);
        ha.add_jump(m, m, vec![Atom::new(guard, RelOp::Ge)], vec![(x, zero)]);
        ha.set_init(m, vec![]);
        let traj = ha.simulate_default(&[0.0], 3.5).unwrap();
        assert!(traj.segments.len() >= 3);
        // Every segment starts near 0 after the reset.
        for seg in &traj.segments[1..] {
            assert!(seg.trace.state(0)[0].abs() < 1e-6);
        }
        // x never exceeds 1 by much.
        for (_, s) in traj.iter() {
            assert!(s[0] < 1.01);
        }
    }

    #[test]
    fn state_and_mode_queries() {
        let ha = sawtooth();
        let traj = ha.simulate_default(&[1.0], 10.0).unwrap();
        assert_eq!(traj.mode_at(1.0), 0);
        assert_eq!(traj.mode_at(5.0), 1);
        let s = traj.state_at(2.0);
        assert!((s[0] - 3.0).abs() < 1e-6);
        let s = traj.state_at(5.0); // falling since t=4 from 5
        assert!((s[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn zeno_detected() {
        // Self-loop always enabled: guard true everywhere.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let one = cx.constant(1.0);
        let mut ha = HybridAutomaton::new(cx, vec![x]);
        let m = ha.add_mode("m", vec![one], vec![]);
        // Guard: x ≥ -1000, enabled from the start.
        let g = ha.cx.parse("x + 1000").unwrap();
        ha.add_jump(m, m, vec![Atom::new(g, RelOp::Ge)], vec![]);
        ha.set_init(m, vec![]);
        // Note: event detection requires a *crossing* (negative→nonneg),
        // so an always-true guard never fires; the run completes.
        let traj = ha.simulate_default(&[0.0], 1.0).unwrap();
        assert_eq!(traj.segments.len(), 1);
    }

    #[test]
    fn equality_guard_rejected() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let one = cx.constant(1.0);
        let g = cx.parse("x - 1").unwrap();
        let mut ha = HybridAutomaton::new(cx, vec![x]);
        let m = ha.add_mode("m", vec![one], vec![]);
        ha.add_jump(m, m, vec![Atom::new(g, RelOp::Eq)], vec![]);
        ha.set_init(m, vec![]);
        match ha.simulate_default(&[0.0], 1.0) {
            Err(SimError::EqualityGuard) => {}
            other => panic!("expected EqualityGuard, got {other:?}"),
        }
    }

    #[test]
    fn parameterized_simulation() {
        // x' = k in mode 0; k from the param default (midpoint of [1,3]).
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("k").unwrap();
        let mut ha = HybridAutomaton::new(cx, vec![x]);
        let m = ha.add_mode("m", vec![rhs], vec![]);
        ha.set_init(m, vec![]);
        ha.add_param("k", biocheck_interval::Interval::new(1.0, 3.0));
        let traj = ha.simulate_default(&[0.0], 2.0).unwrap();
        assert!((traj.final_state()[0] - 4.0).abs() < 1e-6); // k = 2
    }
}
