//! Lyapunov stability analysis via δ-decisions (Section IV-C of the
//! paper): synthesize a Lyapunov function for a nonlinear system by
//! solving the ∃∀ formula
//!
//! ```text
//! ∃c ∀x ∈ A:  V_c(x) > 0  ∧  V̇_c(x) < 0
//! ```
//!
//! with counterexample-guided inductive synthesis (CEGIS), the approach of
//! Kong–Solar-Lezama–Gao (CAV'18) that the paper invokes:
//!
//! 1. **Synthesize** — the constraints are *linear in the coefficients*
//!    `c`, so candidate coefficients satisfying them on a finite
//!    counterexample set are found by branch-and-prune over the `c`-box.
//! 2. **Verify** — search the annulus `A = { r ≤ ‖x‖∞ ≤ R }` for a point
//!    violating `V > 0 ∧ V̇ < 0` (a δ-decision). `unsat` certifies the
//!    candidate (exactly, since `unsat` is the exact side); a δ-sat
//!    witness becomes a new counterexample.
//!
//! The annulus excludes the equilibrium itself (where `V = V̇ = 0`), as in
//! the standard numerically-robust formulations cited by the paper.
//!
//! # Examples
//!
//! ```
//! use biocheck_expr::Context;
//! use biocheck_lyapunov::LyapunovSynthesizer;
//! use biocheck_ode::OdeSystem;
//!
//! // A globally stable linear system: x' = -x, y' = -2y.
//! let mut cx = Context::new();
//! let x = cx.intern_var("x");
//! let y = cx.intern_var("y");
//! let fx = cx.parse("-x").unwrap();
//! let fy = cx.parse("-2*y").unwrap();
//! let sys = OdeSystem::new(vec![x, y], vec![fx, fy]);
//! let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
//! let result = syn.run(20).expect("certificate exists");
//! assert!(result.verified);
//! ```

use biocheck_expr::{Atom, Context, NodeId, RelOp, VarId};
use biocheck_icp::{BranchAndPrune, DeltaResult};
use biocheck_interval::{IBox, Interval};
use biocheck_ode::OdeSystem;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Instant;

/// δ of the synthesis step's search over the coefficient box.
const SYNTH_DELTA: f64 = 1e-3;
/// δ of the verification step's search over the annulus.
const VERIFY_DELTA: f64 = 1e-4;
/// Margin ε enforced at counterexamples, scaled by ‖x‖².
const MARGIN: f64 = 0.05;

/// A synthesized Lyapunov certificate.
#[derive(Clone, Debug)]
pub struct LyapunovResult {
    /// Template coefficients (one per monomial).
    pub coeffs: Vec<f64>,
    /// Human-readable rendering of `V(x)`.
    pub v_text: String,
    /// CEGIS iterations used.
    pub iterations: usize,
    /// `true` when the verifier proved `V > 0 ∧ V̇ < 0` on the annulus
    /// (the exact, unsat side of the δ-decision).
    pub verified: bool,
}

/// Why a CEGIS run ended without a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoCertificate {
    /// No coefficients fit the counterexamples (the template is too
    /// weak), or the iterations ran out with an unverified candidate.
    NotFound,
    /// A δ-search ran out of splits, or the run was cancelled or passed
    /// its deadline: nothing proven, nothing refuted.
    Inconclusive,
}

/// Outcome of one verification sweep over the annulus.
enum Verification {
    /// Every sub-search returned `Unsat` — the exact side — so the
    /// candidate is proven on the whole annulus.
    Verified,
    /// A δ-sat violation witness to refine the counterexample set.
    Counterexample(Vec<f64>),
    /// A sub-search exhausted its split budget or was interrupted:
    /// nothing proven, nothing refuted.
    Inconclusive,
}

/// CEGIS synthesizer for Lyapunov functions over a monomial template.
pub struct LyapunovSynthesizer {
    cx: Context,
    states: Vec<VarId>,
    monomials: Vec<NodeId>,
    coeff_vars: Vec<VarId>,
    v_expr: NodeId,
    vdot_expr: NodeId,
    r_min: f64,
    r_max: f64,
    /// Cooperative cancellation flag, forwarded into the synthesis and
    /// verification δ-searches and polled between CEGIS phases. An
    /// interrupted run ends [`NoCertificate::Inconclusive`] — never a
    /// certificate whose verification search was cut short.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, polled at the same points as `cancel`.
    pub deadline: Option<Instant>,
    /// Live frontier-box counter, forwarded into every δ-search the
    /// same way as `cancel`. Purely observational.
    pub progress_boxes: Option<Arc<AtomicU64>>,
    /// Split cap of each synthesis and verification δ-search (default
    /// 50 000). A search that reaches it ends the run
    /// [`NoCertificate::Inconclusive`].
    pub max_splits: usize,
    counterexamples: Vec<Vec<f64>>,
}

impl LyapunovSynthesizer {
    /// Quadratic template `V = Σ_{i≤j} c_{ij} x_i x_j` over the annulus
    /// `r_min ≤ ‖x‖∞ ≤ r_max`.
    pub fn quadratic(cx: Context, sys: &OdeSystem, r_min: f64, r_max: f64) -> LyapunovSynthesizer {
        let mut cx = cx;
        let mut monomials = Vec::new();
        for i in 0..sys.states.len() {
            for j in i..sys.states.len() {
                let xi = cx.var_node(sys.states[i]);
                let xj = cx.var_node(sys.states[j]);
                monomials.push(cx.mul(xi, xj));
            }
        }
        LyapunovSynthesizer::with_monomials(cx, sys, monomials, r_min, r_max)
    }

    /// Custom monomial basis.
    ///
    /// # Panics
    ///
    /// Panics if the basis is empty or the radii are not `0 < r_min < r_max`.
    pub fn with_monomials(
        mut cx: Context,
        sys: &OdeSystem,
        monomials: Vec<NodeId>,
        r_min: f64,
        r_max: f64,
    ) -> LyapunovSynthesizer {
        assert!(!monomials.is_empty(), "empty template basis");
        assert!(
            0.0 < r_min && r_min < r_max,
            "need 0 < r_min < r_max, got [{r_min}, {r_max}]"
        );
        let coeff_vars: Vec<VarId> = (0..monomials.len())
            .map(|i| cx.intern_var(&format!("@c{i}")))
            .collect();
        // V = Σ cᵢ·mᵢ
        let terms: Vec<NodeId> = monomials
            .iter()
            .zip(&coeff_vars)
            .map(|(&m, &c)| {
                let cn = cx.var_node(c);
                cx.mul(cn, m)
            })
            .collect();
        let v_expr = cx.sum(&terms);
        // V̇ = ∇V·f
        let grads: Vec<NodeId> = sys.states.iter().map(|&s| cx.diff(v_expr, s)).collect();
        let dot_terms: Vec<NodeId> = grads
            .iter()
            .zip(&sys.rhs)
            .map(|(&g, &f)| cx.mul(g, f))
            .collect();
        let vdot_expr = cx.sum(&dot_terms);
        LyapunovSynthesizer {
            states: sys.states.clone(),
            cx,
            monomials,
            coeff_vars,
            v_expr,
            vdot_expr,
            r_min,
            r_max,
            cancel: None,
            deadline: None,
            progress_boxes: None,
            max_splits: 50_000,
            counterexamples: Vec::new(),
        }
    }

    /// Has the cancellation flag been raised or the deadline passed?
    fn interrupted(&self) -> bool {
        biocheck_icp::interrupted(self.cancel.as_deref(), self.deadline)
    }

    /// Seeds the counterexample set (axis points and corners by default).
    fn seed_counterexamples(&mut self) {
        if !self.counterexamples.is_empty() {
            return;
        }
        let n = self.states.len();
        let r = self.r_max;
        for i in 0..n {
            for sign in [-1.0, 1.0] {
                let mut p = vec![0.0; n];
                p[i] = sign * r;
                self.counterexamples.push(p.clone());
                p[i] = sign * self.r_min;
                self.counterexamples.push(p);
            }
        }
        // Corners.
        for mask in 0..(1usize << n.min(6)) {
            let p: Vec<f64> = (0..n)
                .map(|i| if mask >> i & 1 == 1 { r } else { -r })
                .collect();
            self.counterexamples.push(p);
        }
    }

    /// Synthesis step: coefficients satisfying the margin constraints at
    /// every stored counterexample.
    fn synthesize(&mut self) -> Result<Vec<f64>, NoCertificate> {
        if self.interrupted() {
            return Err(NoCertificate::Inconclusive);
        }
        let mut atoms = Vec::new();
        for ce in self.counterexamples.clone() {
            let map: HashMap<VarId, NodeId> = self
                .states
                .iter()
                .zip(&ce)
                .map(|(&s, &v)| (s, self.cx.constant(v)))
                .collect();
            let v_at = self.cx.subst(self.v_expr, &map);
            let vd_at = self.cx.subst(self.vdot_expr, &map);
            // Margin scaled by ‖x‖² keeps the requirement meaningful near
            // the inner radius and well above the verifier's δ.
            let norm2: f64 = ce.iter().map(|v| v * v).sum();
            let s = MARGIN * norm2;
            let eps = self.cx.constant(s);
            let neg_eps = self.cx.constant(-s);
            atoms.push(Atom::ge(&mut self.cx, v_at, eps));
            atoms.push(Atom::le(&mut self.cx, vd_at, neg_eps));
        }
        let mut init = IBox::uniform(self.cx.num_vars(), Interval::ZERO);
        for &c in &self.coeff_vars {
            init[c.index()] = Interval::new(-1.0, 1.0);
        }
        let mut bp = BranchAndPrune::new(SYNTH_DELTA);
        bp.max_splits = self.max_splits;
        bp.cancel = self.cancel.clone();
        bp.deadline = self.deadline;
        bp.progress_boxes = self.progress_boxes.clone();
        match bp.solve(&self.cx, &atoms, &[], &init) {
            DeltaResult::DeltaSat(w) => {
                Ok(self.coeff_vars.iter().map(|c| w.point[c.index()]).collect())
            }
            DeltaResult::Unsat => Err(NoCertificate::NotFound),
            DeltaResult::Unknown { .. } => Err(NoCertificate::Inconclusive),
        }
    }

    /// Verification: search the annulus for a violation of
    /// `V > margin/2 ∧ V̇ < -margin/2` at fixed coefficients.
    fn verify(&mut self, coeffs: &[f64]) -> Verification {
        let map: HashMap<VarId, NodeId> = self
            .coeff_vars
            .iter()
            .zip(coeffs)
            .map(|(&c, &v)| (c, self.cx.constant(v)))
            .collect();
        let v_fixed = self.cx.subst(self.v_expr, &map);
        let vd_fixed = self.cx.subst(self.vdot_expr, &map);
        let n = self.states.len();
        // Cover the annulus with 2n boxes: |x_d| ∈ [r_min, r_max].
        for d in 0..n {
            for sign in [-1.0, 1.0] {
                let mut init = IBox::uniform(self.cx.num_vars(), Interval::ZERO);
                for (i, &s) in self.states.iter().enumerate() {
                    init[s.index()] = if i == d {
                        if sign > 0.0 {
                            Interval::new(self.r_min, self.r_max)
                        } else {
                            Interval::new(-self.r_max, -self.r_min)
                        }
                    } else {
                        Interval::new(-self.r_max, self.r_max)
                    };
                }
                // Violation: V ≤ 0 or V̇ ≥ 0. Poll between the 2n·2
                // annulus sub-searches (on top of the polls inside each
                // δ-search) so a single CEGIS iteration is interruptible
                // at sub-search granularity. Only `Unsat` — the exact
                // side of the δ-decision — counts toward verification:
                // a sub-search that ran out of splits (or was
                // interrupted) proved nothing, so the candidate is
                // inconclusive, never vouched for.
                for (expr, op) in [(v_fixed, RelOp::Le), (vd_fixed, RelOp::Ge)] {
                    if self.interrupted() {
                        return Verification::Inconclusive;
                    }
                    let atom = Atom::new(expr, op);
                    let mut bp = BranchAndPrune::new(VERIFY_DELTA);
                    bp.max_splits = self.max_splits;
                    bp.cancel = self.cancel.clone();
                    bp.deadline = self.deadline;
                    bp.progress_boxes = self.progress_boxes.clone();
                    match bp.solve(&self.cx, &[atom], &[], &init) {
                        DeltaResult::DeltaSat(w) => {
                            return Verification::Counterexample(
                                self.states.iter().map(|s| w.point[s.index()]).collect(),
                            );
                        }
                        DeltaResult::Unsat => {}
                        DeltaResult::Unknown { .. } => return Verification::Inconclusive,
                    }
                }
            }
        }
        Verification::Verified
    }

    /// Runs CEGIS for at most `max_iters` rounds.
    ///
    /// # Errors
    ///
    /// [`NoCertificate::NotFound`] when no coefficients fit the
    /// counterexamples (the template is too weak) or iterations run out
    /// with an unverified candidate; [`NoCertificate::Inconclusive`] when
    /// a δ-search reached the split cap or the run was interrupted.
    pub fn run(&mut self, max_iters: usize) -> Result<LyapunovResult, NoCertificate> {
        self.seed_counterexamples();
        for it in 1..=max_iters {
            if self.interrupted() {
                return Err(NoCertificate::Inconclusive);
            }
            let coeffs = self.synthesize()?;
            match self.verify(&coeffs) {
                Verification::Verified => {
                    // Belt and braces: every annulus sub-search came
                    // back `Unsat`, but an interrupt raised *between*
                    // the last sub-search and here still aborts — never
                    // certify from an interrupted verification.
                    if self.interrupted() {
                        return Err(NoCertificate::Inconclusive);
                    }
                    return Ok(LyapunovResult {
                        v_text: self.render(&coeffs),
                        coeffs,
                        iterations: it,
                        verified: true,
                    });
                }
                Verification::Counterexample(ce) => {
                    self.counterexamples.push(ce);
                }
                // Split-cap exhaustion, cancellation, or a passed
                // deadline inside verification: nothing was proven and
                // no counterexample can guide the next round — fail
                // rather than vouch.
                Verification::Inconclusive => return Err(NoCertificate::Inconclusive),
            }
        }
        Err(NoCertificate::NotFound)
    }

    /// Renders `V` with concrete coefficients.
    fn render(&self, coeffs: &[f64]) -> String {
        let mut parts = Vec::new();
        for (&m, &c) in self.monomials.iter().zip(coeffs) {
            if c.abs() > 1e-9 {
                parts.push(format!("{c:.4}*{}", self.cx.display(m)));
            }
        }
        if parts.is_empty() {
            "0".to_string()
        } else {
            parts.join(" + ")
        }
    }

    /// Evaluates the synthesized `V` at a state point.
    pub fn eval_v(&self, coeffs: &[f64], x: &[f64]) -> f64 {
        let mut env = vec![0.0; self.cx.num_vars()];
        for (&s, &v) in self.states.iter().zip(x) {
            env[s.index()] = v;
        }
        for (&c, &v) in self.coeff_vars.iter().zip(coeffs) {
            env[c.index()] = v;
        }
        self.cx.eval(self.v_expr, &env)
    }

    /// Evaluates `V̇` at a state point.
    pub fn eval_vdot(&self, coeffs: &[f64], x: &[f64]) -> f64 {
        let mut env = vec![0.0; self.cx.num_vars()];
        for (&s, &v) in self.states.iter().zip(x) {
            env[s.index()] = v;
        }
        for (&c, &v) in self.coeff_vars.iter().zip(coeffs) {
            env[c.index()] = v;
        }
        self.cx.eval(self.vdot_expr, &env)
    }
}

/// Shifts an equilibrium to the origin: returns the system in coordinates
/// `y = x − x*` (same state variables, `f(x) ↦ f(y + x*)`).
pub fn shift_to_origin(cx: &mut Context, sys: &OdeSystem, equilibrium: &[f64]) -> OdeSystem {
    assert_eq!(equilibrium.len(), sys.dim(), "equilibrium arity");
    let map: HashMap<VarId, NodeId> = sys
        .states
        .iter()
        .zip(equilibrium)
        .map(|(&s, &e)| {
            let sn = cx.var_node(s);
            let en = cx.constant(e);
            (s, cx.add(sn, en))
        })
        .collect();
    let rhs = sys.rhs.iter().map(|&r| cx.subst(r, &map)).collect();
    OdeSystem::new(sys.states.clone(), rhs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_stable() -> (Context, OdeSystem) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let y = cx.intern_var("y");
        let fx = cx.parse("-x").unwrap();
        let fy = cx.parse("-2*y").unwrap();
        let sys = OdeSystem::new(vec![x, y], vec![fx, fy]);
        (cx, sys)
    }

    #[test]
    fn linear_system_certified() {
        let (cx, sys) = linear_stable();
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
        let r = syn.run(20).expect("quadratic certificate exists");
        assert!(r.verified);
        assert!(r.v_text.contains('x') || r.v_text.contains('y'));
        // V positive, V̇ negative at a probe point.
        let p = [0.5, -0.4];
        assert!(syn.eval_v(&r.coeffs, &p) > 0.0);
        assert!(syn.eval_vdot(&r.coeffs, &p) < 0.0);
    }

    #[test]
    fn damped_oscillator_certified() {
        // x' = v, v' = -x - v: needs a cross term, classic CEGIS exercise.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let v = cx.intern_var("v");
        let fx = cx.parse("v").unwrap();
        let fv = cx.parse("-x - v").unwrap();
        let sys = OdeSystem::new(vec![x, v], vec![fx, fv]);
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.2, 1.0);
        let r = syn.run(40).expect("certificate exists");
        assert!(r.verified);
        for p in [[0.5, 0.5], [-0.8, 0.3], [0.9, -0.9]] {
            assert!(syn.eval_v(&r.coeffs, &p) > 0.0, "V at {p:?}");
            assert!(syn.eval_vdot(&r.coeffs, &p) < 0.0, "V̇ at {p:?}");
        }
    }

    #[test]
    fn cubic_nonlinearity_certified() {
        // x' = -x³ on the annulus: V = x² works (V̇ = -2x⁴).
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let fx = cx.parse("-x^3").unwrap();
        let sys = OdeSystem::new(vec![x], vec![fx]);
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.3, 1.0);
        let r = syn.run(20).expect("x² certifies");
        assert!(r.verified);
        assert!(r.coeffs[0] > 0.0);
    }

    #[test]
    fn unstable_system_fails() {
        // x' = +x has no Lyapunov function.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let fx = cx.parse("x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![fx]);
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
        assert_eq!(syn.run(10).err(), Some(NoCertificate::NotFound));
    }

    #[test]
    fn shifted_equilibrium() {
        // x' = 1 - x has equilibrium at x = 1; shifted system y' = -y.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let fx = cx.parse("1 - x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![fx]);
        let shifted = shift_to_origin(&mut cx, &sys, &[1.0]);
        let v = cx.eval(shifted.rhs[0], &[0.5]); // y = 0.5 → y' = -0.5
        assert!((v + 0.5).abs() < 1e-12);
        let mut syn = LyapunovSynthesizer::quadratic(cx, &shifted, 0.1, 1.0);
        assert!(syn.run(15).expect("stable after shift").verified);
    }

    #[test]
    #[should_panic(expected = "r_min < r_max")]
    fn bad_radii_rejected() {
        let (cx, sys) = linear_stable();
        let _ = LyapunovSynthesizer::quadratic(cx, &sys, 1.0, 0.5);
    }

    #[test]
    fn raised_cancel_never_certifies() {
        // The system IS certifiable — a run with the flag already raised
        // must still come back inconclusive (interruption beats
        // certification).
        let (cx, sys) = linear_stable();
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
        let flag = Arc::new(AtomicBool::new(true));
        syn.cancel = Some(flag);
        assert_eq!(
            syn.run(20).err(),
            Some(NoCertificate::Inconclusive),
            "interrupted run certified"
        );
    }

    #[test]
    fn passed_deadline_never_certifies() {
        let (cx, sys) = linear_stable();
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
        syn.deadline = Some(Instant::now());
        assert_eq!(
            syn.run(20).err(),
            Some(NoCertificate::Inconclusive),
            "expired run certified"
        );
    }

    #[test]
    fn mid_run_cancel_stops_cegis() {
        // Raise the flag from outside while CEGIS runs on a certifiable
        // system: the synthesizer polls between phases and between the
        // annulus sub-searches, so it must come back inconclusive (the flag is
        // up before the first verification sub-search completes the
        // no-counterexample sweep) — and must never take anywhere near
        // the uncancelled wall time if the flag wins the race.
        let (cx, sys) = linear_stable();
        let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
        let flag = Arc::new(AtomicBool::new(false));
        syn.cancel = Some(flag.clone());
        let raiser = std::thread::spawn(move || {
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let r = syn.run(40);
        raiser.join().unwrap();
        // Either the flag won (inconclusive) or the run certified before the
        // store landed; both are sound — what is NEVER allowed is a
        // certificate whose verification observed the raised flag, which
        // `run` guards with its post-verify re-check.
        if let Ok(res) = r {
            assert!(res.verified);
        }
    }
}
