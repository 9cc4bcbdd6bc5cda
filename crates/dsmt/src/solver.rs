//! The lazy DPLL(T) loop.

use crate::fol::Fol;
use biocheck_expr::{Atom, Context, NodeId, RelOp, VarId};
use biocheck_icp::{BranchAndPrune, Contractor, DeltaResult};
use biocheck_interval::{IBox, Interval};
use biocheck_sat::{Lit, SolveResult, Solver};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::Instant;

/// Budget on Boolean models checked against the theory per
/// [`DeltaSmt::check`]; past it the answer is `Unknown`.
const MAX_THEORY_CHECKS: usize = 10_000;

/// Handle of a guarded contractor inside a [`DeltaSmt`] instance; embed it
/// in formulas as [`Fol::Flag`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FlagId(pub usize);

/// The δ-SMT solver: Boolean structure via CDCL, theory via ICP.
///
/// See the crate docs for the loop and an example. All real variables
/// that occur in asserted atoms (or are pruned by guarded contractors)
/// must be given bounds with [`DeltaSmt::bound`] — δ-decidability is a
/// theorem about *bounded* sentences (Definition 3).
pub struct DeltaSmt {
    cx: Context,
    delta: f64,
    bounds: HashMap<VarId, Interval>,
    asserted: Vec<Fol>,
    contractors: Vec<Box<dyn Contractor>>,
    exclusions: Vec<Vec<FlagId>>,
    /// Split budget per theory check (forwarded to branch-and-prune).
    pub max_splits: usize,
    /// Cooperative cancellation flag: polled between theory checks and
    /// forwarded into every branch-and-prune run. A raised flag makes
    /// [`DeltaSmt::check`] return [`DeltaResult::Unknown`].
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, polled at the same points as `cancel`.
    pub deadline: Option<Instant>,
    /// Live progress counters, forwarded the same way as `cancel`:
    /// boxes into every branch-and-prune run, conflicts/restarts into
    /// the CDCL core. Purely observational; `None` costs nothing.
    pub progress_boxes: Option<Arc<AtomicU64>>,
    /// Cumulative CDCL conflicts (see [`DeltaSmt::progress_boxes`]).
    pub progress_conflicts: Option<Arc<AtomicU64>>,
    /// Cumulative CDCL restarts (see [`DeltaSmt::progress_boxes`]).
    pub progress_restarts: Option<Arc<AtomicU64>>,
}

impl DeltaSmt {
    /// Creates a solver over the given context with precision `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0`.
    pub fn new(cx: Context, delta: f64) -> DeltaSmt {
        assert!(delta > 0.0, "delta must be positive");
        DeltaSmt {
            cx,
            delta,
            bounds: HashMap::new(),
            asserted: Vec::new(),
            contractors: Vec::new(),
            exclusions: Vec::new(),
            max_splits: 200_000,
            cancel: None,
            deadline: None,
            progress_boxes: None,
            progress_conflicts: None,
            progress_restarts: None,
        }
    }

    /// Shared access to the expression context.
    pub fn cx(&self) -> &Context {
        &self.cx
    }

    /// Mutable access (for building formulas in place).
    pub fn cx_mut(&mut self) -> &mut Context {
        &mut self.cx
    }

    /// Bounds variable `name` (interning it if needed).
    pub fn bound(&mut self, name: &str, range: Interval) -> VarId {
        let v = self.cx.intern_var(name);
        self.bounds.insert(v, range);
        v
    }

    /// Bounds an existing variable.
    pub fn bound_var(&mut self, v: VarId, range: Interval) {
        self.bounds.insert(v, range);
    }

    /// Asserts a formula (conjoined with previous assertions).
    pub fn assert(&mut self, f: Fol) {
        self.asserted.push(f);
    }

    /// Registers a guarded contractor; it participates in a theory check
    /// exactly when its [`Fol::Flag`] is true in the Boolean model.
    pub fn add_contractor(&mut self, c: Box<dyn Contractor>) -> FlagId {
        self.contractors.push(c);
        FlagId(self.contractors.len() - 1)
    }

    /// Declares a group of flags mutually exclusive (at most one true).
    /// Needed because flags occur only positively in formulas: without
    /// exclusion the SAT core may switch several mode contractors on at
    /// once, over-constraining a step in whole-formula BMC encodings.
    pub fn exclude_pairwise(&mut self, flags: &[FlagId]) {
        self.exclusions.push(flags.to_vec());
    }

    /// Runs the DPLL(T) loop.
    ///
    /// # Panics
    ///
    /// Panics when an atom mentions an unbounded variable.
    pub fn check(&mut self) -> DeltaResult {
        // Normalize and abstract.
        let nnf: Vec<Fol> = self.asserted.iter().map(Fol::nnf).collect();
        let mut enc = Encoder {
            sat: Solver::new(),
            atom_index: HashMap::new(),
            atoms: Vec::new(),
            atom_vars: Vec::new(),
            flag_vars: HashMap::new(),
        };
        let mut roots = Vec::new();
        for f in &nnf {
            roots.push(enc.encode(f));
        }
        for r in roots {
            if !enc.sat.add_clause(&[r]) {
                return DeltaResult::Unsat;
            }
        }
        // Mutual-exclusion groups over flags: pairwise ¬a ∨ ¬b.
        for group in &self.exclusions {
            let vars: Vec<biocheck_sat::Var> = group
                .iter()
                .map(|fid| {
                    *enc.flag_vars
                        .entry(*fid)
                        .or_insert_with(|| enc.sat.new_var())
                })
                .collect();
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    enc.sat.add_clause(&[Lit::neg(vars[i]), Lit::neg(vars[j])]);
                }
            }
        }
        // Bound check for every abstracted atom.
        for a in &enc.atoms {
            for v in self.cx.vars_of(a.expr) {
                assert!(
                    self.bounds.contains_key(&v),
                    "variable `{}` occurs in a constraint but has no bound",
                    self.cx.var_name(v)
                );
            }
        }
        // The full solver box: bounded vars get their range, the rest are
        // pinned to 0 (they are scratch/unused in this query).
        let mut init = IBox::uniform(self.cx.num_vars(), Interval::ZERO);
        for (&v, &range) in &self.bounds {
            init[v.index()] = range;
        }
        let mut bp = BranchAndPrune::new(self.delta);
        bp.max_splits = self.max_splits;
        bp.cancel = self.cancel.clone();
        bp.deadline = self.deadline;
        bp.progress_boxes = self.progress_boxes.clone();
        // Raising the cancel flag also interrupts an in-flight CDCL
        // search, so `check` is responsive even while the Boolean core —
        // not just the theory solver — is the long pole.
        if let Some(flag) = &self.cancel {
            enc.sat.set_interrupt(Arc::clone(flag));
        }
        if let (Some(c), Some(r)) = (&self.progress_conflicts, &self.progress_restarts) {
            enc.sat.set_progress(Arc::clone(c), Arc::clone(r));
        }

        for _ in 0..MAX_THEORY_CHECKS {
            if biocheck_icp::interrupted(self.cancel.as_deref(), self.deadline) {
                // `remaining` is a placeholder here (as in the
                // theory-check budget exhaustion below): the number of
                // Boolean models still to enumerate is not knowable
                // without continuing the CDCL search, so 1 only signals
                // "work was left", never a frontier size.
                return DeltaResult::Unknown { remaining: 1 };
            }
            match enc.sat.solve() {
                SolveResult::Unsat => return DeltaResult::Unsat,
                SolveResult::Sat => {}
                SolveResult::Interrupted => return DeltaResult::Unknown { remaining: 1 },
            }
            // Collect asserted theory literals (positive occurrences only,
            // by NNF + Plaisted–Greenbaum construction).
            let mut check_atoms: Vec<Atom> = Vec::new();
            let mut blocking: Vec<Lit> = Vec::new();
            for (i, &v) in enc.atom_vars.iter().enumerate() {
                if enc.sat.value(v) == Some(true) {
                    check_atoms.push(enc.atoms[i]);
                    blocking.push(Lit::neg(v));
                }
            }
            let mut active: Vec<&dyn Contractor> = Vec::new();
            for (&flag, &v) in &enc.flag_vars {
                if enc.sat.value(v) == Some(true) {
                    active.push(self.contractors[flag.0].as_ref());
                    blocking.push(Lit::neg(v));
                }
            }
            match bp.solve(&self.cx, &check_atoms, &active, &init) {
                DeltaResult::DeltaSat(w) => return DeltaResult::DeltaSat(w),
                DeltaResult::Unsat => {
                    if blocking.is_empty() {
                        // Empty theory conjunction can't be unsat.
                        unreachable!("empty theory set reported unsat");
                    }
                    if !enc.sat.add_clause(&blocking) {
                        return DeltaResult::Unsat;
                    }
                }
                unknown @ DeltaResult::Unknown { .. } => return unknown,
            }
        }
        DeltaResult::Unknown { remaining: 1 }
    }
}

/// Plaisted–Greenbaum (implication-only) encoder: sound for the positive
/// polarity produced by NNF.
struct Encoder {
    sat: Solver,
    atom_index: HashMap<(NodeId, RelOp), usize>,
    atoms: Vec<Atom>,
    atom_vars: Vec<biocheck_sat::Var>,
    flag_vars: HashMap<FlagId, biocheck_sat::Var>,
}

impl Encoder {
    fn atom_lit(&mut self, a: Atom) -> Lit {
        let key = (a.expr, a.op);
        let idx = *self.atom_index.entry(key).or_insert_with(|| {
            self.atoms.push(a);
            self.atom_vars.push(self.sat.new_var());
            self.atoms.len() - 1
        });
        Lit::pos(self.atom_vars[idx])
    }

    fn encode(&mut self, f: &Fol) -> Lit {
        match f {
            Fol::True => {
                let v = self.sat.new_var();
                self.sat.add_clause(&[Lit::pos(v)]);
                Lit::pos(v)
            }
            Fol::False => {
                let v = self.sat.new_var();
                self.sat.add_clause(&[Lit::neg(v)]);
                Lit::pos(v)
            }
            Fol::Atom(a) => self.atom_lit(*a),
            Fol::Flag(fid) => {
                let v = *self
                    .flag_vars
                    .entry(*fid)
                    .or_insert_with(|| self.sat.new_var());
                Lit::pos(v)
            }
            Fol::And(fs) => {
                let g = self.sat.new_var();
                let lits: Vec<Lit> = fs.iter().map(|f| self.encode(f)).collect();
                for l in lits {
                    // g → l
                    self.sat.add_clause(&[Lit::neg(g), l]);
                }
                Lit::pos(g)
            }
            Fol::Or(fs) => {
                let g = self.sat.new_var();
                let mut clause: Vec<Lit> = vec![Lit::neg(g)];
                for f in fs {
                    clause.push(self.encode(f));
                }
                // g → (l₁ ∨ … ∨ lₙ)
                self.sat.add_clause(&clause);
                Lit::pos(g)
            }
            Fol::Not(_) => unreachable!("encode runs on NNF input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_ode::{FlowContractor, OdeSystem};

    fn atom(cx: &mut Context, src: &str, op: RelOp) -> Fol {
        let e = cx.parse(src).unwrap();
        Fol::Atom(Atom::new(e, op))
    }

    #[test]
    fn conjunction_sat() {
        let mut cx = Context::new();
        let a = atom(&mut cx, "x - 1", RelOp::Ge);
        let b = atom(&mut cx, "x - 2", RelOp::Le);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.bound("x", Interval::new(-10.0, 10.0));
        smt.assert(Fol::and(vec![a, b]));
        let r = smt.check();
        let w = r.witness().expect("δ-sat");
        assert!(w.point[0] >= 0.9 && w.point[0] <= 2.1);
    }

    #[test]
    fn conjunction_unsat() {
        let mut cx = Context::new();
        let a = atom(&mut cx, "x - 5", RelOp::Ge);
        let b = atom(&mut cx, "x + 5", RelOp::Le);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.bound("x", Interval::new(-10.0, 10.0));
        smt.assert(a);
        smt.assert(b);
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn disjunction_finds_consistent_branch() {
        // (x ≥ 3 ∨ x ≤ -3) ∧ x² = 16 → x = ±4.
        let mut cx = Context::new();
        let hi = atom(&mut cx, "x - 3", RelOp::Ge);
        let lo = atom(&mut cx, "x + 3", RelOp::Le);
        let sq = atom(&mut cx, "x^2 - 16", RelOp::Eq);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.bound("x", Interval::new(-5.0, 5.0));
        smt.assert(Fol::or(vec![hi, lo]));
        smt.assert(sq);
        let r = smt.check();
        let w = r.witness().expect("δ-sat");
        assert!((w.point[0].abs() - 4.0).abs() < 0.05, "{:?}", w.point);
    }

    #[test]
    fn blocked_branches_lead_to_unsat() {
        // (x ≥ 3 ∨ x ≤ -3) ∧ |x| ≤ 1: both branches theory-conflict.
        let mut cx = Context::new();
        let hi = atom(&mut cx, "x - 3", RelOp::Ge);
        let lo = atom(&mut cx, "x + 3", RelOp::Le);
        let small = atom(&mut cx, "abs(x) - 1", RelOp::Le);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.bound("x", Interval::new(-10.0, 10.0));
        smt.assert(Fol::or(vec![hi, lo]));
        smt.assert(small);
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn negation_handled_via_nnf() {
        // ¬(x ≤ 2) ∧ x ≤ 3 → x ∈ (2, 3].
        let mut cx = Context::new();
        let le2 = atom(&mut cx, "x - 2", RelOp::Le);
        let le3 = atom(&mut cx, "x - 3", RelOp::Le);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.bound("x", Interval::new(-10.0, 10.0));
        smt.assert(Fol::not(le2));
        smt.assert(le3);
        let r = smt.check();
        let w = r.witness().expect("δ-sat");
        assert!(w.point[0] > 1.9 && w.point[0] <= 3.1);
    }

    #[test]
    fn negated_equality_splits() {
        // ¬(x = 0) ∧ x² ≤ 0.25 → x ∈ [-0.5, 0) ∪ (0, 0.5].
        let mut cx = Context::new();
        let eq = atom(&mut cx, "x", RelOp::Eq);
        let small = atom(&mut cx, "x^2 - 0.25", RelOp::Le);
        let mut smt = DeltaSmt::new(cx, 1e-4);
        smt.bound("x", Interval::new(-1.0, 1.0));
        smt.assert(Fol::not(eq));
        smt.assert(small);
        assert!(smt.check().is_delta_sat());
    }

    #[test]
    fn trivial_constants() {
        let cx = Context::new();
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.assert(Fol::True);
        assert!(smt.check().is_delta_sat());
        let cx = Context::new();
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.assert(Fol::False);
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn pre_raised_cancel_returns_unknown() {
        let mut cx = Context::new();
        let a = atom(&mut cx, "x - 1", RelOp::Ge);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.bound("x", Interval::new(-10.0, 10.0));
        smt.assert(a);
        let flag = Arc::new(AtomicBool::new(true));
        smt.cancel = Some(flag);
        let r = smt.check();
        assert!(
            matches!(r, DeltaResult::Unknown { .. }),
            "cancelled check must not claim an answer: {r:?}"
        );
    }

    #[test]
    fn mid_check_cancel_interrupts_boolean_core() {
        use std::sync::atomic::Ordering;
        // Pigeonhole over flags: each "pigeon" disjunction forces a hole
        // flag, pairwise exclusion forbids sharing. 12 pigeons, 11 holes
        // is Boolean-unsat but exponentially hard for CDCL, so without
        // the SAT-level interrupt this check would effectively hang.
        let cx = Context::new();
        let mut smt = DeltaSmt::new(cx, 1e-3);
        let pigeons = 12;
        let holes = 11;
        let flag_id = |p: usize, h: usize| FlagId(p * holes + h);
        for p in 0..pigeons {
            smt.assert(Fol::or(
                (0..holes).map(|h| Fol::Flag(flag_id(p, h))).collect(),
            ));
        }
        for h in 0..holes {
            let group: Vec<FlagId> = (0..pigeons).map(|p| flag_id(p, h)).collect();
            smt.exclude_pairwise(&group);
        }
        let flag = Arc::new(AtomicBool::new(false));
        smt.cancel = Some(Arc::clone(&flag));
        let timer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            flag.store(true, Ordering::Relaxed);
        });
        let start = std::time::Instant::now();
        let r = smt.check();
        timer.join().unwrap();
        assert!(
            matches!(r, DeltaResult::Unknown { .. }),
            "cancelled check must not claim an answer: {r:?}"
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(30));
    }

    #[test]
    #[should_panic(expected = "has no bound")]
    fn unbounded_variable_rejected() {
        let mut cx = Context::new();
        let a = atom(&mut cx, "q - 1", RelOp::Ge);
        let mut smt = DeltaSmt::new(cx, 1e-3);
        smt.assert(a);
        let _ = smt.check();
    }

    /// Sets up a decay-flow contractor x' = -x connecting x0 → xt in τ.
    fn decay_flow(smt: &mut DeltaSmt) -> FlagId {
        let cx = smt.cx_mut();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let sys = OdeSystem::new(vec![x], vec![rhs]);
        let x0 = cx.intern_var("x0");
        let xt = cx.intern_var("xt");
        let tau = cx.intern_var("tau");
        let fc = FlowContractor::new(cx, &sys, vec![x0], vec![xt], tau, &[]);
        smt.add_contractor(Box::new(fc))
    }

    #[test]
    fn guarded_flow_constraint_sat() {
        let cx = Context::new();
        let mut smt = DeltaSmt::new(cx, 1e-2);
        let flag = decay_flow(&mut smt);
        smt.bound("x0", Interval::point(1.0));
        smt.bound("xt", Interval::new(0.3, 0.4));
        smt.bound("tau", Interval::new(0.0, 2.0));
        smt.assert(Fol::Flag(flag));
        let r = smt.check();
        let w = r.witness().expect("δ-sat: e^{-1} ≈ 0.368 reachable");
        // τ must be near 1.
        let names = ["x0", "xt", "tau"];
        let tau_idx = smt.cx().var_id(names[2]).unwrap().index();
        assert!((w.point[tau_idx] - 1.0).abs() < 0.3, "{:?}", w.point);
    }

    #[test]
    fn guarded_flow_constraint_unsat() {
        let cx = Context::new();
        let mut smt = DeltaSmt::new(cx, 1e-2);
        let flag = decay_flow(&mut smt);
        smt.bound("x0", Interval::point(1.0));
        smt.bound("xt", Interval::new(2.0, 3.0)); // decay cannot grow
        smt.bound("tau", Interval::new(0.0, 2.0));
        smt.assert(Fol::Flag(flag));
        assert!(smt.check().is_unsat());
    }

    #[test]
    fn mode_choice_via_flags() {
        // Two candidate dynamics: decay x' = -x or growth x' = +x; target
        // xt ≈ e (growth) forces the SAT core to pick the growth flag.
        let cx = Context::new();
        let mut smt = DeltaSmt::new(cx, 1e-2);
        let decay = decay_flow(&mut smt);
        let grow = {
            let cx = smt.cx_mut();
            let x = cx.var_id("x").unwrap();
            let rhs = cx.parse("x").unwrap();
            let sys = OdeSystem::new(vec![x], vec![rhs]);
            let x0 = cx.var_id("x0").unwrap();
            let xt = cx.var_id("xt").unwrap();
            let tau = cx.var_id("tau").unwrap();
            let fc = FlowContractor::new(cx, &sys, vec![x0], vec![xt], tau, &[]);
            smt.add_contractor(Box::new(fc))
        };
        smt.bound("x0", Interval::point(1.0));
        smt.bound("xt", Interval::new(2.6, 2.8)); // ≈ e at τ = 1
        smt.bound("tau", Interval::point(1.0));
        smt.assert(Fol::or(vec![Fol::Flag(decay), Fol::Flag(grow)]));
        let r = smt.check();
        assert!(r.is_delta_sat(), "growth branch must be found: {r:?}");
    }
}
