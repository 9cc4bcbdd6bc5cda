//! Branch-and-prune: the δ-complete existential decision procedure
//! (Theorem 1 of the paper, realized as in the dReal implementation).

use crate::contract::{Contractor, Outcome};
use crate::hc4::Hc4;
use crate::propagate::Propagator;
use biocheck_expr::{Atom, Context, EvalScratch, Program};
use biocheck_interval::{IBox, Interval};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The shared cooperative-interrupt poll: has the cancellation flag
/// been raised or the deadline passed? One definition serves the
/// branch-and-prune frontier loop here, the BMC path enumeration, the
/// dSMT theory-check loop, and (via the engine's `Budget`) every query
/// driver — so a change to polling semantics happens in one place.
pub fn interrupted(cancel: Option<&AtomicBool>, deadline: Option<Instant>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Relaxed))
        || deadline.is_some_and(|d| Instant::now() >= d)
}

/// Answer of the δ-decision procedure.
///
/// The guarantee is one-sided, exactly as in Theorem 1: `Unsat` means the
/// original formula has **no** solution in the initial box; `DeltaSat`
/// means the δ-weakened formula is satisfiable (the original may or may
/// not be). `Unknown` is returned only when the split budget is exhausted
/// — a resource bound, not a logical answer.
#[derive(Clone, Debug)]
pub enum DeltaResult {
    /// The conjunction is unsatisfiable over the initial box (exact).
    Unsat,
    /// The δ-weakened conjunction is satisfiable; a witness is attached.
    DeltaSat(Witness),
    /// The split budget ran out with `remaining` boxes undecided.
    Unknown {
        /// Number of boxes still on the stack when the budget ran out.
        remaining: usize,
    },
}

impl DeltaResult {
    /// Returns `true` for `DeltaSat`.
    pub fn is_delta_sat(&self) -> bool {
        matches!(self, DeltaResult::DeltaSat(_))
    }

    /// Returns `true` for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, DeltaResult::Unsat)
    }

    /// The witness, if δ-sat.
    pub fn witness(&self) -> Option<&Witness> {
        match self {
            DeltaResult::DeltaSat(w) => Some(w),
            _ => None,
        }
    }
}

/// A δ-sat witness: the surviving box, its midpoint, and whether the
/// midpoint was verified to satisfy every algebraic atom δ-weakened.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The undecided/satisfying box.
    pub boxx: IBox,
    /// The box midpoint (a concrete candidate assignment).
    pub point: Vec<f64>,
    /// `true` when the midpoint checks out on all algebraic atoms.
    pub certified: bool,
}

/// An inner/outer paving of a constraint set, for guaranteed parameter-set
/// synthesis (BioPSy-style).
#[derive(Clone, Debug, Default)]
pub struct Paving {
    /// Boxes proven to satisfy *all* constraints everywhere (inner boxes).
    pub sat: Vec<IBox>,
    /// Boxes at resolution `ε` that could not be decided either way.
    pub undecided: Vec<IBox>,
    /// `true` when a resource bound (split budget, cancellation flag, or
    /// deadline) stopped refinement early; the unrefined frontier boxes
    /// were drained into `undecided`, so the paving is still a valid
    /// outer cover — just coarser than requested.
    pub exhausted: bool,
}

impl Paving {
    /// Does any inner box contain the point?
    pub fn sat_contains(&self, p: &[f64]) -> bool {
        self.sat.iter().any(|b| b.contains_point(p))
    }
}

/// The branch-and-prune δ-decision solver for conjunctions of atoms plus
/// arbitrary extra contractors (e.g. validated ODE flow constraints).
///
/// Pruning always uses the original constraints; δ only enters the
/// termination test, which keeps `Unsat` exact (see the crate docs).
#[derive(Clone, Debug)]
pub struct BranchAndPrune {
    /// The δ of the δ-decision problem.
    pub delta: f64,
    /// Box resolution: boxes with max width ≤ ε are answered δ-sat.
    pub eps: f64,
    /// Budget on the number of box splits.
    pub max_splits: usize,
    /// Propagation schedule.
    pub propagator: Propagator,
    /// Work-queue size at which box processing moves to worker threads
    /// (`usize::MAX` forces the sequential path). Batches are taken from
    /// the top of the queue and results are merged in queue order, so the
    /// answer is deterministic for a given thread-independent input.
    pub parallel_threshold: usize,
    /// Cooperative cancellation flag, polled once per frontier round
    /// (at most one batch of boxes between polls). When it reads `true`,
    /// [`BranchAndPrune::solve`] returns [`DeltaResult::Unknown`] with
    /// the surviving frontier size and [`BranchAndPrune::pave`] drains
    /// the frontier into `undecided` — both well-formed partial answers.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, polled at the same points as `cancel`.
    /// Deadlines trade determinism for latency control: whether the
    /// budget trips depends on machine speed, so deterministic callers
    /// should prefer split budgets or an explicit cancellation flag.
    pub deadline: Option<Instant>,
    /// Optional progress counter: frontier boxes processed, published
    /// with one relaxed `fetch_add` per round (the same cadence as the
    /// `cancel` poll). Purely observational — the search never reads
    /// it — so attaching a counter cannot change any verdict.
    pub progress_boxes: Option<Arc<std::sync::atomic::AtomicU64>>,
}

/// What happened to one box of the frontier.
enum BoxStep {
    /// Contraction emptied the box.
    Pruned,
    /// The box is an answer: `whole` when every atom δ-holds on the whole
    /// box, otherwise the box reached resolution ε undecided.
    Sat {
        /// The surviving box.
        bx: IBox,
        /// Whole-box satisfaction (vs. resolution cut-off).
        whole: bool,
    },
    /// The box was bisected.
    Split(IBox, IBox),
}

impl BranchAndPrune {
    /// Creates a solver with `ε = δ/4` and a generous split budget.
    ///
    /// # Panics
    ///
    /// Panics if `delta <= 0`.
    pub fn new(delta: f64) -> BranchAndPrune {
        assert!(delta > 0.0, "delta must be positive, got {delta}");
        BranchAndPrune {
            delta,
            eps: (delta / 4.0).max(1e-12),
            max_splits: 200_000,
            propagator: Propagator::default(),
            parallel_threshold: 64,
            cancel: None,
            deadline: None,
            progress_boxes: None,
        }
    }

    /// Publishes `n` newly processed frontier boxes to the progress
    /// counter, if one is attached.
    fn note_boxes(&self, n: usize) {
        if let Some(p) = &self.progress_boxes {
            p.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Has the cancellation flag been raised or the deadline passed?
    /// Polled between frontier rounds — cancellation is cooperative and
    /// takes effect at round granularity, never mid-contraction.
    fn interrupted(&self) -> bool {
        interrupted(self.cancel.as_deref(), self.deadline)
    }

    /// Disables worker threads (pure depth-first search).
    #[must_use]
    pub fn sequential(mut self) -> BranchAndPrune {
        self.parallel_threshold = usize::MAX;
        self
    }

    /// Contract/test/bisect one box. `progs[i]` is the compiled interval
    /// form of `atoms[i].expr`; `inner_delta` is the δ of the acceptance
    /// test (`None` skips the whole-box test — paving uses δ = 0 via
    /// `Some(0.0)`, solving passes `Some(self.delta)` when there are no
    /// extra contractors).
    #[allow(clippy::too_many_arguments)]
    fn step<C: Contractor + ?Sized>(
        &self,
        atoms: &[Atom],
        progs: &[Program],
        contractors: &[&C],
        mut bx: IBox,
        inner_delta: Option<f64>,
        scratch: &mut EvalScratch,
    ) -> BoxStep {
        if self.propagator.fixpoint_with(contractors, &mut bx, scratch) == Outcome::Empty {
            return BoxStep::Pruned;
        }
        let all_hold = inner_delta.is_some_and(|d| {
            atoms.iter().zip(progs).all(|(a, p)| {
                let mut out = [Interval::ZERO];
                p.eval_interval_with(&bx, scratch, &mut out);
                a.delta_holds_on(out[0], d)
            })
        });
        if all_hold {
            return BoxStep::Sat { bx, whole: true };
        }
        if bx.max_width() <= self.eps {
            return BoxStep::Sat { bx, whole: false };
        }
        let (l, r) = bx.bisect();
        BoxStep::Split(l, r)
    }

    /// Boxes processed per parallel round. Deliberately a constant, NOT a
    /// function of the worker count: the set of boxes explored before the
    /// first answer must be identical on every machine (thread count may
    /// only change wall time, never the witness or the verdict). With the
    /// work-stealing pool a round costs one pool submission, so the batch
    /// only needs to be large enough to give thieves split points when
    /// per-box fixpoint costs are skewed.
    const BATCH: usize = 64;

    /// Runs `step` over the top of the stack: one box below
    /// `parallel_threshold`, a fixed-size batch otherwise. The batch goes
    /// through `map_init`, which on the work-stealing pool splits it
    /// recursively over nested `join` — a leaf stuck on expensive boxes
    /// (deep fixpoints) sheds its siblings to thieves instead of
    /// serializing them — while writing results into position-indexed
    /// slots, so the merged result is in batch order no matter which
    /// workers ran which leaves. Each sequential leaf builds one
    /// [`EvalScratch`] and reuses it across its boxes. Both branch
    /// choices depend only on the stack size, so the search is
    /// thread-count-independent.
    fn run_batch<C: Contractor + ?Sized + Sync>(
        &self,
        atoms: &[Atom],
        progs: &[Program],
        contractors: &[&C],
        stack: &mut Vec<IBox>,
        inner_delta: Option<f64>,
        scratch: &mut EvalScratch,
    ) -> Vec<BoxStep> {
        if stack.len() < self.parallel_threshold {
            let bx = stack.pop().expect("run_batch on empty stack");
            return vec![self.step(atoms, progs, contractors, bx, inner_delta, scratch)];
        }
        let take = stack.len().min(Self::BATCH);
        // The batch keeps stack order: batch.last() was the stack top.
        let batch = stack.split_off(stack.len() - take);
        batch
            .into_par_iter()
            .map_init(EvalScratch::new, |scr, bx| {
                self.step(atoms, progs, contractors, bx, inner_delta, scr)
            })
            .collect()
    }

    /// Decides `⋀ atoms ∧ ⋀ extra` over `init`.
    ///
    /// `extra` contractors carry constraints that are not algebraic atoms
    /// (ODE flows); they participate in pruning but not in the δ-weakened
    /// satisfaction test (their boxes are accepted at resolution ε, as in
    /// dReach).
    ///
    /// # Panics
    ///
    /// Panics if `init` has an unbounded dimension — bounded quantifiers
    /// are a standing assumption of δ-decidability (Definition 3).
    pub fn solve(
        &self,
        cx: &Context,
        atoms: &[Atom],
        extra: &[&dyn Contractor],
        init: &IBox,
    ) -> DeltaResult {
        assert!(
            init.iter().all(|d| d.is_bounded()),
            "initial box must be bounded (bounded LRF sentences)"
        );
        let hc4s: Vec<Hc4> = atoms.iter().map(|&a| Hc4::new(cx, a)).collect();
        let mut contractors: Vec<&dyn Contractor> = Vec::new();
        for h in &hc4s {
            contractors.push(h);
        }
        contractors.extend_from_slice(extra);
        let progs: Vec<Program> = atoms
            .iter()
            .map(|a| Program::compile(cx, &[a.expr]))
            .collect();
        // Whole-box δ-satisfaction only decides when no extra contractors
        // are pending decisions; otherwise only the resolution test ends a
        // branch.
        let inner_delta = if extra.is_empty() {
            Some(self.delta)
        } else {
            None
        };

        let mut stack = vec![init.clone()];
        let mut splits = 0usize;
        let mut scratch = EvalScratch::new();
        while !stack.is_empty() {
            if self.interrupted() {
                return DeltaResult::Unknown {
                    remaining: stack.len(),
                };
            }
            let steps = self.run_batch(
                atoms,
                &progs,
                &contractors,
                &mut stack,
                inner_delta,
                &mut scratch,
            );
            self.note_boxes(steps.len());
            // Scan stack-top-first so the answer matches depth-first order.
            for s in steps.iter().rev() {
                if let BoxStep::Sat { bx, .. } = s {
                    return DeltaResult::DeltaSat(self.witness(cx, atoms, bx.clone()));
                }
            }
            let mut denied = 0usize;
            for s in steps {
                if let BoxStep::Split(l, r) = s {
                    if splits < self.max_splits {
                        splits += 1;
                        stack.push(r);
                        stack.push(l);
                    } else {
                        denied += 1;
                    }
                }
            }
            if denied > 0 {
                return DeltaResult::Unknown {
                    remaining: stack.len() + denied,
                };
            }
        }
        DeltaResult::Unsat
    }

    /// Paves `init` into inner (certainly-sat) and undecided boxes —
    /// guaranteed parameter-set synthesis over the atoms.
    pub fn pave(&self, cx: &Context, atoms: &[Atom], init: &IBox) -> Paving {
        assert!(
            init.iter().all(|d| d.is_bounded()),
            "initial box must be bounded"
        );
        let hc4s: Vec<Hc4> = atoms.iter().map(|&a| Hc4::new(cx, a)).collect();
        let contractors: Vec<&dyn Contractor> = hc4s.iter().map(|h| h as &dyn Contractor).collect();
        let progs: Vec<Program> = atoms
            .iter()
            .map(|a| Program::compile(cx, &[a.expr]))
            .collect();
        let mut paving = Paving::default();
        let mut stack = vec![init.clone()];
        let mut splits = 0usize;
        let mut scratch = EvalScratch::new();
        while !stack.is_empty() {
            if self.interrupted() {
                // Drain the unrefined frontier: the result stays a valid
                // outer cover of the sat set, just coarser.
                paving.undecided.append(&mut stack);
                paving.exhausted = true;
                break;
            }
            // Inner test with δ = 0: every point of the box satisfies the
            // original constraints.
            let steps = self.run_batch(
                atoms,
                &progs,
                &contractors,
                &mut stack,
                Some(0.0),
                &mut scratch,
            );
            self.note_boxes(steps.len());
            for s in steps {
                match s {
                    BoxStep::Pruned => {}
                    BoxStep::Sat { bx, whole: true } => paving.sat.push(bx),
                    BoxStep::Sat { bx, whole: false } => paving.undecided.push(bx),
                    BoxStep::Split(l, r) => {
                        if splits < self.max_splits {
                            splits += 1;
                            stack.push(r);
                            stack.push(l);
                        } else {
                            // Budget exhausted: record the halves undecided
                            // (their union is the unsplit box).
                            paving.undecided.push(l);
                            paving.undecided.push(r);
                            paving.exhausted = true;
                        }
                    }
                }
            }
        }
        paving
    }

    fn witness(&self, cx: &Context, atoms: &[Atom], bx: IBox) -> Witness {
        let point = bx.midpoint();
        let certified = atoms.iter().all(|a| {
            let v = cx.eval(a.expr, &point);
            !v.is_nan() && a.holds_at(v, self.delta)
        });
        Witness {
            boxx: bx,
            point,
            certified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::RelOp;
    use biocheck_interval::Interval;

    fn solve_conj(
        srcs: &[(&str, RelOp)],
        dims: usize,
        range: (f64, f64),
        delta: f64,
    ) -> DeltaResult {
        let mut cx = Context::new();
        let atoms: Vec<Atom> = srcs
            .iter()
            .map(|(s, op)| {
                let e = cx.parse(s).unwrap();
                Atom::new(e, *op)
            })
            .collect();
        let init = IBox::uniform(dims, Interval::new(range.0, range.1));
        BranchAndPrune::new(delta).solve(&cx, &atoms, &[], &init)
    }

    #[test]
    fn simple_sat() {
        let r = solve_conj(&[("x - 1", RelOp::Eq)], 1, (-5.0, 5.0), 1e-3);
        let w = r.witness().expect("δ-sat");
        assert!((w.point[0] - 1.0).abs() < 1e-2);
        assert!(w.certified);
    }

    #[test]
    fn simple_unsat() {
        let r = solve_conj(
            &[("x - 10", RelOp::Ge), ("x + 10", RelOp::Le)],
            1,
            (-5.0, 5.0),
            1e-3,
        );
        assert!(r.is_unsat());
    }

    #[test]
    fn circle_line_intersection() {
        // x² + y² = 1 ∧ x = y → x = y = ±1/√2.
        let r = solve_conj(
            &[("x^2 + y^2 - 1", RelOp::Eq), ("x - y", RelOp::Eq)],
            2,
            (-2.0, 2.0),
            1e-4,
        );
        let w = r.witness().expect("δ-sat");
        let c = 1.0 / 2.0f64.sqrt();
        let (x, y) = (w.point[0], w.point[1]);
        assert!(((x.abs() - c).abs() < 1e-2) && ((y.abs() - c).abs() < 1e-2));
    }

    #[test]
    fn disjoint_circle_line_unsat() {
        // x² + y² = 1 ∧ x + y = 10 has no solution in [-2,2]².
        let r = solve_conj(
            &[("x^2 + y^2 - 1", RelOp::Eq), ("x + y - 10", RelOp::Eq)],
            2,
            (-2.0, 2.0),
            1e-3,
        );
        assert!(r.is_unsat());
    }

    #[test]
    fn transcendental_sat() {
        // sin x = 1/2 with x ∈ [0, π/2] → x = π/6.
        let r = solve_conj(&[("sin(x) - 0.5", RelOp::Eq)], 1, (0.0, 1.6), 1e-5);
        let w = r.witness().expect("δ-sat");
        assert!((w.point[0] - std::f64::consts::FRAC_PI_6).abs() < 1e-3);
    }

    #[test]
    fn transcendental_unsat() {
        // exp(x) ≤ 0 is impossible.
        let r = solve_conj(&[("exp(x)", RelOp::Le)], 1, (-5.0, 5.0), 1e-3);
        assert!(r.is_unsat());
    }

    #[test]
    fn strict_vs_nonstrict_boundary() {
        // x ≥ 5 on [0,5] is sat exactly at the endpoint.
        let r = solve_conj(&[("x - 5", RelOp::Ge)], 1, (0.0, 5.0), 1e-3);
        assert!(r.is_delta_sat());
        // x > 5 on [0,5] has no solution, but its δ-weakening (x > 5-δ)
        // does: δ-sat is the correct one-sided answer.
        let r = solve_conj(&[("x - 5", RelOp::Gt)], 1, (0.0, 5.0), 1e-3);
        assert!(r.is_delta_sat());
        // x ≥ 5 + tiny is unsat even δ-weakened... for tiny >> δ.
        let r = solve_conj(&[("x - 5.1", RelOp::Ge)], 1, (0.0, 5.0), 1e-3);
        assert!(r.is_unsat());
    }

    #[test]
    fn unknown_on_tiny_budget() {
        let mut cx = Context::new();
        let e = cx.parse("sin(10*x) - y").unwrap();
        let atoms = vec![Atom::new(e, RelOp::Eq)];
        let mut solver = BranchAndPrune::new(1e-9);
        solver.max_splits = 3;
        let init = IBox::uniform(2, Interval::new(-1.0, 1.0));
        match solver.solve(&cx, &atoms, &[], &init) {
            DeltaResult::Unknown { remaining } => assert!(remaining > 0),
            DeltaResult::DeltaSat(w) => {
                // Acceptable alternative: found a satisfying whole-box early.
                assert!(w.boxx.max_width() > 0.0);
            }
            DeltaResult::Unsat => panic!("sin(10x)=y is satisfiable"),
        }
    }

    #[test]
    #[should_panic(expected = "bounded")]
    fn unbounded_box_rejected() {
        let cx = Context::new();
        let solver = BranchAndPrune::new(1e-3);
        let init = IBox::entire(1);
        let _ = solver.solve(&cx, &[], &[], &init);
    }

    #[test]
    fn pave_ring() {
        // 0.5 ≤ x² + y² ≤ 1: paving should find inner boxes and its inner
        // region must be a subset of the true region.
        let mut cx = Context::new();
        let lo = cx.parse("x^2 + y^2 - 0.25").unwrap();
        let hi = cx.parse("x^2 + y^2 - 1").unwrap();
        let atoms = vec![Atom::new(lo, RelOp::Ge), Atom::new(hi, RelOp::Le)];
        let mut solver = BranchAndPrune::new(0.05);
        solver.eps = 0.05;
        let paving = solver.pave(&cx, &atoms, &IBox::uniform(2, Interval::new(-1.5, 1.5)));
        assert!(!paving.sat.is_empty(), "ring has positive area");
        for b in &paving.sat {
            let p = b.midpoint();
            let r2 = p[0] * p[0] + p[1] * p[1];
            assert!((0.25..=1.0).contains(&r2), "inner box center outside ring");
        }
        // A point well inside the ring is covered by sat ∪ undecided.
        let probe = [0.7, 0.0];
        let covered = paving.sat_contains(&probe)
            || paving.undecided.iter().any(|b| b.contains_point(&probe));
        assert!(covered);
    }

    #[test]
    fn cancellation_yields_partial_answers() {
        let mut cx = Context::new();
        let e = cx.parse("x - 1").unwrap();
        let atoms = vec![Atom::new(e, RelOp::Eq)];
        let init = IBox::uniform(1, Interval::new(-5.0, 5.0));
        let mut solver = BranchAndPrune::new(1e-3);
        let flag = Arc::new(AtomicBool::new(true));
        solver.cancel = Some(flag.clone());
        // A pre-raised flag stops the search before the first round.
        match solver.solve(&cx, &atoms, &[], &init) {
            DeltaResult::Unknown { remaining } => assert!(remaining >= 1),
            other => panic!("cancelled solve must be Unknown, got {other:?}"),
        }
        let paving = solver.pave(&cx, &atoms, &init);
        assert!(paving.exhausted, "cancelled paving reports exhaustion");
        assert!(paving.sat.is_empty());
        assert_eq!(paving.undecided.len(), 1, "frontier drained undecided");
        // Lowering the flag restores normal operation on the same solver.
        flag.store(false, Ordering::Relaxed);
        assert!(solver.solve(&cx, &atoms, &[], &init).is_delta_sat());
        // An already-passed deadline behaves like a raised flag.
        solver.deadline = Some(Instant::now());
        assert!(matches!(
            solver.solve(&cx, &atoms, &[], &init),
            DeltaResult::Unknown { .. }
        ));
    }

    #[test]
    fn delta_result_accessors() {
        let r = DeltaResult::Unsat;
        assert!(r.is_unsat() && !r.is_delta_sat() && r.witness().is_none());
    }
}
