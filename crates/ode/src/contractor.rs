//! The flow contractor: an ODE constraint `x_t = flow(x_0, τ)` as an ICP
//! [`Contractor`], the key ingredient of the Reach encoding (Sec. III-C).

use crate::system::OdeSystem;
use crate::validated::ValidatedOde;
use biocheck_expr::{Atom, Context, NodeId, Program, RelOp, VarId};
use biocheck_icp::{Contractor, Outcome};
use biocheck_interval::{IBox, Interval};

/// Connects three groups of solver variables — entry state `x₀`, exit
/// state `x_t`, and dwell time `τ` — through the validated flow of an ODE
/// system, pruning all three plus nothing else. Mode invariants are
/// enforced *along* the flow, realizing the `∀[0,t]` part of the Reach
/// encoding.
///
/// The solver box is indexed by the shared [`Context`]'s variables. The
/// model's own state variables are used as scratch during integration;
/// parameters are read from the solver box directly (they are ordinary
/// context variables).
pub struct FlowContractor {
    fwd: ValidatedOde,
    bwd: ValidatedOde,
    /// Solver variables holding the mode-entry state.
    x0: Vec<VarId>,
    /// Solver variables holding the mode-exit state.
    xt: Vec<VarId>,
    /// Solver variable holding the dwell duration.
    time: VarId,
    /// Invariant atoms over the model state vars, compiled for enclosure
    /// checks: `(program over env, relops)`.
    inv_prog: Option<Program>,
    inv_ops: Vec<RelOp>,
    env_len: usize,
}

impl FlowContractor {
    /// Builds the contractor.
    ///
    /// * `sys` — the mode's dynamics (over model state variables).
    /// * `x0`/`xt` — solver variables for entry/exit states (may coincide
    ///   with the model state variables for single-step encodings).
    /// * `time` — solver variable for the dwell duration (`≥ 0`).
    /// * `invariants` — atoms over model state variables that must hold
    ///   along the whole flow.
    ///
    /// # Panics
    ///
    /// Panics when the variable groups disagree with the system dimension.
    pub fn new(
        cx: &mut Context,
        sys: &OdeSystem,
        x0: Vec<VarId>,
        xt: Vec<VarId>,
        time: VarId,
        invariants: &[Atom],
    ) -> FlowContractor {
        assert_eq!(x0.len(), sys.dim(), "x0 arity");
        assert_eq!(xt.len(), sys.dim(), "xt arity");
        let fwd = ValidatedOde::new(cx, sys);
        let rev = sys.reversed(cx);
        let bwd = ValidatedOde::new(cx, &rev);
        let inv_exprs: Vec<NodeId> = invariants.iter().map(|a| a.expr).collect();
        let inv_prog = if inv_exprs.is_empty() {
            None
        } else {
            Some(Program::compile(cx, &inv_exprs))
        };
        FlowContractor {
            fwd,
            bwd,
            x0,
            xt,
            time,
            inv_prog,
            inv_ops: invariants.iter().map(|a| a.op).collect(),
            env_len: cx.num_vars(),
        }
    }

    /// Tunes the validated integrator step size for both directions.
    ///
    /// # Panics
    ///
    /// Panics unless `h0` is finite and positive: a step of 0 or less
    /// never advances the flow, and the contractor would then certify
    /// boxes it never integrated.
    #[must_use]
    pub fn with_step(mut self, h0: f64) -> FlowContractor {
        assert!(
            h0.is_finite() && h0 > 0.0,
            "flow step must be finite and positive, got {h0}"
        );
        self.fwd.h0 = h0;
        self.bwd.h0 = h0;
        self
    }

    /// The largest time value where the invariant can still hold, given a
    /// tube; `None` when the invariant fails immediately.
    fn invariant_cutoff(&self, env: &mut IBox, tube: &crate::validated::FlowTube) -> Option<f64> {
        let prog = match &self.inv_prog {
            None => return Some(f64::INFINITY),
            Some(p) => p,
        };
        let mut vals = vec![Interval::ZERO; self.inv_ops.len()];
        // Start box.
        for (&v, i) in self.fwd.states().iter().zip(0..) {
            env[v.index()] = tube.start[i];
        }
        prog.eval_interval_into(env, &mut vals);
        if vals
            .iter()
            .zip(&self.inv_ops)
            .any(|(&iv, &op)| Atom::new(NodeId::from_raw(0), op).refuted_by(iv))
        {
            return None;
        }
        for s in &tube.steps {
            for (&v, i) in self.fwd.states().iter().zip(0..) {
                env[v.index()] = s.range[i];
            }
            prog.eval_interval_into(env, &mut vals);
            let refuted = vals
                .iter()
                .zip(&self.inv_ops)
                .any(|(&iv, &op)| Atom::new(NodeId::from_raw(0), op).refuted_by(iv));
            if refuted {
                // No trajectory survives past the start of this window.
                return Some(s.t0);
            }
        }
        Some(f64::INFINITY)
    }

    fn project(&self, bx: &IBox, vars: &[VarId]) -> IBox {
        vars.iter().map(|v| bx[v.index()]).collect()
    }
}

impl Contractor for FlowContractor {
    fn contract(&self, bx: &mut IBox) -> Outcome {
        let x0 = self.project(bx, &self.x0);
        let xt = self.project(bx, &self.xt);
        let t = bx[self.time.index()].intersect(&Interval::new(0.0, f64::INFINITY));
        if x0.is_empty() || xt.is_empty() || t.is_empty() {
            return Outcome::Empty;
        }
        if !t.is_bounded() || x0.iter().any(|d| !d.is_bounded()) {
            return Outcome::Unchanged; // wait for other contractors to bound us
        }
        let mut env = bx.clone();
        if env.len() < self.env_len {
            for _ in env.len()..self.env_len {
                env.push(Interval::ZERO);
            }
        }

        // Forward pass.
        let tube = match self.fwd.flow(&env.clone(), &x0, t.hi()) {
            Ok(tube) => tube,
            Err(_) => return Outcome::Unchanged, // cannot certify: no pruning
        };
        let mut t_hi = t.hi().min(tube.duration().max(0.0));
        if tube.truncated && t.lo() > tube.duration() {
            // We could not integrate far enough to say anything about the
            // required dwell window: bail out without pruning.
            return Outcome::Unchanged;
        }
        // Invariant cutoff caps the dwell time.
        let mut invariant_capped = false;
        match self.invariant_cutoff(&mut env.clone(), &tube) {
            None => return Outcome::Empty,
            Some(cut) => {
                if cut < t.lo() {
                    return Outcome::Empty;
                }
                if cut <= tube.duration() {
                    invariant_capped = true;
                    t_hi = t_hi.min(cut);
                }
            }
        }
        // A truncated tube only covers dwell times up to `duration`:
        // pruning the exit box is sound only if nothing beyond the covered
        // prefix is admissible — either because the requested dwell ends
        // inside it, or because the invariant cuts the trajectory inside it.
        if tube.truncated && !invariant_capped && t.hi() > tube.duration() {
            return Outcome::Unchanged;
        }
        // Reachable exit states within the dwell window.
        let reach = tube.states_over(t.lo(), t_hi);
        let new_xt = xt.intersect(&reach);
        if new_xt.is_empty() {
            return Outcome::Empty;
        }
        // Times at which the (narrowed) exit box is reachable.
        let t_window = match tube.times_reaching(&new_xt) {
            None => return Outcome::Empty,
            Some(w) => w.intersect(&Interval::new(t.lo(), t_hi)),
        };
        if t_window.is_empty() {
            return Outcome::Empty;
        }

        // Backward pass: flow the exit box backwards to prune the entry.
        let new_x0 = match self.bwd.flow(&env.clone(), &new_xt, t_window.hi()) {
            Ok(btube) if !btube.truncated => {
                let back_reach = btube.states_over(t_window.lo(), t_window.hi());
                let nx0 = x0.intersect(&back_reach);
                if nx0.is_empty() {
                    return Outcome::Empty;
                }
                nx0
            }
            _ => x0.clone(),
        };

        // Write back.
        let mut changed = false;
        let write = |bx: &mut IBox, vars: &[VarId], vals: &IBox| -> bool {
            let mut any = false;
            for (&v, i) in vars.iter().zip(0..) {
                if bx[v.index()] != vals[i] {
                    bx[v.index()] = vals[i];
                    any = true;
                }
            }
            any
        };
        changed |= write(bx, &self.xt, &new_xt);
        changed |= write(bx, &self.x0, &new_x0);
        let new_t = bx[self.time.index()].intersect(&t_window);
        if new_t.is_empty() {
            return Outcome::Empty;
        }
        if new_t != bx[self.time.index()] {
            bx[self.time.index()] = new_t;
            changed = true;
        }
        if changed {
            Outcome::Reduced
        } else {
            Outcome::Unchanged
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a solver setting for x' = -x with separate x0/xt/τ vars.
    /// Returns (cx, contractor, indices of [x0, xt, tau]).
    fn decay_setting() -> (Context, FlowContractor, [usize; 3]) {
        let mut cx = Context::new();
        let x = cx.intern_var("x"); // model state (scratch)
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let x0 = cx.intern_var("x0");
        let xt = cx.intern_var("xt");
        let tau = cx.intern_var("tau");
        let fc = FlowContractor::new(&mut cx, &sys, vec![x0], vec![xt], tau, &[]);
        let idx = [x0.index(), xt.index(), tau.index()];
        (cx, fc, idx)
    }

    fn full_box(cx: &Context) -> IBox {
        IBox::uniform(cx.num_vars(), Interval::ZERO)
    }

    #[test]
    #[should_panic(expected = "flow step must be finite and positive, got 0")]
    fn a_step_that_never_advances_is_refused() {
        let (_, fc, _) = decay_setting();
        let _ = fc.with_step(0.0);
    }

    #[test]
    fn forward_prunes_exit_state() {
        let (cx, fc, [i0, it, itau]) = decay_setting();
        let mut bx = full_box(&cx);
        bx[i0] = Interval::new(1.0, 2.0);
        bx[it] = Interval::new(0.0, 10.0);
        bx[itau] = Interval::point(1.0);
        let out = fc.contract(&mut bx);
        assert_eq!(out, Outcome::Reduced);
        // True reach set at τ=1: [e⁻¹, 2e⁻¹] ≈ [0.368, 0.736].
        assert!(bx[it].contains((-1.0f64).exp()));
        assert!(bx[it].contains(2.0 * (-1.0f64).exp()));
        assert!(
            bx[it].hi() < 1.2,
            "pruned from 10 to ≈0.74, got {:?}",
            bx[it]
        );
        assert!(bx[it].lo() > 0.2);
    }

    #[test]
    fn infeasible_exit_detected() {
        let (cx, fc, [i0, it, itau]) = decay_setting();
        let mut bx = full_box(&cx);
        bx[i0] = Interval::new(1.0, 2.0);
        bx[it] = Interval::new(5.0, 6.0); // decay can't grow
        bx[itau] = Interval::new(0.0, 1.0);
        assert_eq!(fc.contract(&mut bx), Outcome::Empty);
    }

    #[test]
    fn backward_prunes_entry_state() {
        let (cx, fc, [i0, it, itau]) = decay_setting();
        let mut bx = full_box(&cx);
        bx[i0] = Interval::new(0.1, 3.0);
        bx[it] = Interval::new(0.36, 0.38); // ≈ e⁻¹: x0 ≈ 1
        bx[itau] = Interval::point(1.0);
        let out = fc.contract(&mut bx);
        assert_ne!(out, Outcome::Empty);
        assert!(bx[i0].contains(1.0));
        assert!(
            bx[i0].width() < 1.0,
            "entry should be pruned near 1: {:?}",
            bx[i0]
        );
    }

    #[test]
    fn time_pruned_by_target() {
        let (cx, fc, [i0, it, itau]) = decay_setting();
        let mut bx = full_box(&cx);
        bx[i0] = Interval::point(1.0);
        bx[it] = Interval::new(0.35, 0.40); // reached near t = 1
        bx[itau] = Interval::new(0.0, 3.0);
        let out = fc.contract(&mut bx);
        assert_ne!(out, Outcome::Empty);
        assert!(bx[itau].contains(1.0));
        assert!(bx[itau].lo() > 0.5, "{:?}", bx[itau]);
        assert!(bx[itau].hi() < 1.5, "{:?}", bx[itau]);
    }

    #[test]
    fn solutions_never_lost() {
        // Soundness: the exact pair (x0, x0·e^{-τ}) survives contraction.
        let (cx, fc, [i0, it, itau]) = decay_setting();
        for x0v in [0.5, 1.0, 1.7] {
            for tauv in [0.2f64, 0.7, 1.4] {
                let mut bx = full_box(&cx);
                bx[i0] = Interval::new(0.4, 2.0);
                bx[it] = Interval::new(0.0, 3.0);
                bx[itau] = Interval::new(0.0, 1.5);
                let out = fc.contract(&mut bx);
                assert_ne!(out, Outcome::Empty);
                let xt_exact = x0v * (-tauv).exp();
                assert!(bx[i0].contains(x0v));
                assert!(bx[it].contains(xt_exact), "lost xt={xt_exact}");
                assert!(bx[itau].contains(tauv));
            }
        }
    }

    #[test]
    fn invariant_cuts_dwell_time() {
        // x' = -x from x0 = 1 with invariant x ≥ 0.5: x crosses 0.5 at
        // t = ln 2 ≈ 0.693, so requiring τ ≥ 1 is infeasible.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let inv_expr = cx.parse("x - 0.5").unwrap();
        let inv = Atom::new(inv_expr, RelOp::Ge);
        let x0 = cx.intern_var("x0");
        let xt = cx.intern_var("xt");
        let tau = cx.intern_var("tau");
        let fc = FlowContractor::new(&mut cx, &sys, vec![x0], vec![xt], tau, &[inv]);
        let mut bx = IBox::uniform(cx.num_vars(), Interval::ZERO);
        bx[x0.index()] = Interval::point(1.0);
        bx[xt.index()] = Interval::new(0.0, 2.0);
        bx[tau.index()] = Interval::new(1.0, 2.0);
        assert_eq!(fc.contract(&mut bx), Outcome::Empty);
        // With τ free, the dwell time gets capped near ln 2.
        let mut bx = IBox::uniform(cx.num_vars(), Interval::ZERO);
        bx[x0.index()] = Interval::point(1.0);
        bx[xt.index()] = Interval::new(0.0, 2.0);
        bx[tau.index()] = Interval::new(0.0, 2.0);
        assert_ne!(fc.contract(&mut bx), Outcome::Empty);
        assert!(
            bx[tau.index()].hi() < 1.0,
            "dwell must be capped near ln2: {:?}",
            bx[tau.index()]
        );
    }

    #[test]
    fn parameterized_flow_prunes_param_indirectly() {
        // x' = -k·x, x0 = 1, xt ≈ e⁻¹ at τ = 1 admits k ≈ 1; the flow
        // contractor prunes xt given the k-box, never k itself (HC4 atoms
        // would close the loop in a full solver).
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let _k = cx.intern_var("k");
        let rhs = cx.parse("-k*x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let x0 = cx.intern_var("x0");
        let xt = cx.intern_var("xt");
        let tau = cx.intern_var("tau");
        let fc = FlowContractor::new(&mut cx, &sys, vec![x0], vec![xt], tau, &[]);
        let mut bx = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let k = cx.var_id("k").unwrap();
        bx[k.index()] = Interval::new(0.9, 1.1);
        bx[x0.index()] = Interval::point(1.0);
        bx[xt.index()] = Interval::new(0.0, 1.0);
        bx[tau.index()] = Interval::point(1.0);
        let out = fc.contract(&mut bx);
        assert_ne!(out, Outcome::Empty);
        // xt must bracket e^{-k} for all k in the box but be far from 1.
        assert!(bx[xt.index()].contains((-0.9f64).exp()));
        assert!(bx[xt.index()].contains((-1.1f64).exp()));
        assert!(bx[xt.index()].hi() < 0.6);
    }

    #[test]
    fn zero_time_identifies_states() {
        let (cx, fc, [i0, it, itau]) = decay_setting();
        let mut bx = full_box(&cx);
        bx[i0] = Interval::new(1.0, 2.0);
        bx[it] = Interval::new(1.5, 5.0);
        bx[itau] = Interval::ZERO;
        let out = fc.contract(&mut bx);
        assert_ne!(out, Outcome::Empty);
        // xt ∩ x0 = [1.5, 2].
        assert!(bx[it].lo() >= 1.4 && bx[it].hi() <= 2.1, "{:?}", bx[it]);
    }

    #[test]
    fn unbounded_inputs_are_left_alone() {
        let (cx, fc, [i0, _, itau]) = decay_setting();
        let mut bx = full_box(&cx);
        bx[i0] = Interval::new(1.0, 2.0);
        bx[itau] = Interval::new(0.0, f64::INFINITY);
        assert_eq!(fc.contract(&mut bx), Outcome::Unchanged);
    }
}
