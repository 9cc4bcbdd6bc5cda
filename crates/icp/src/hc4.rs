//! The HC4-revise contractor: one forward interval sweep over the atom's
//! compiled [`Program`] tape, a clamp of the root to the relation's
//! admissible set, one backward projection sweep over the same tape
//! ([`Program::revise_with`]), and the write-back of the narrowed
//! variables to the box.

use crate::contract::{Contractor, Outcome};
use biocheck_expr::{Atom, Context, EvalScratch, Program};
use biocheck_interval::{IBox, Interval};

/// HC4-revise for a single atomic constraint `t ⋈ 0`.
///
/// The contractor compiles the atom's term once into a [`Program`]
/// tape, so contraction itself never touches the context again. The
/// same tape gives branch-and-prune its whole-box δ-test.
///
/// Pruning uses the relation's exact admissible set (δ = 0), which is the
/// sound choice inside branch-and-prune: the solver prunes with the
/// original constraints and lets δ enter only its termination test.
#[derive(Clone, Debug)]
pub struct Hc4 {
    tape: Program,
    atom: Atom,
}

impl Hc4 {
    /// Compiles a contractor for `atom` with exact pruning (δ = 0).
    pub fn new(cx: &Context, atom: Atom) -> Hc4 {
        Hc4 {
            tape: Program::compile_revise(cx, atom.expr),
            atom,
        }
    }

    /// The forward sweep: an enclosure of the atom's term on `bx`.
    fn eval(&self, bx: &IBox, scratch: &mut EvalScratch) -> Interval {
        let mut out = [Interval::ZERO];
        self.tape.eval_interval_with(bx, scratch, &mut out);
        out[0]
    }

    /// Does every point of `bx` satisfy the δ-weakened atom?
    pub(crate) fn holds_on(&self, bx: &IBox, delta: f64, scratch: &mut EvalScratch) -> bool {
        self.atom.delta_holds_on(self.eval(bx, scratch), delta)
    }
}

impl Contractor for Hc4 {
    fn contract(&self, bx: &mut IBox) -> Outcome {
        self.contract_with(bx, &mut EvalScratch::new())
    }

    fn contract_with(&self, bx: &mut IBox, scratch: &mut EvalScratch) -> Outcome {
        let root = self.eval(bx, scratch).intersect(&self.atom.projection(0.0));
        if root.is_empty() || !self.tape.revise_with(root, scratch) {
            return Outcome::Empty;
        }
        let mut changed = false;
        for (v, iv) in self.tape.var_enclosures(scratch) {
            let narrowed = bx[v.index()].intersect(&iv);
            if narrowed.is_empty() {
                return Outcome::Empty;
            }
            if narrowed != bx[v.index()] {
                bx[v.index()] = narrowed;
                changed = true;
            }
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
    use biocheck_expr::RelOp;

    fn contract_once(src: &str, op: RelOp, dims: Vec<Interval>) -> (Outcome, IBox) {
        let mut cx = Context::new();
        let e = cx.parse(src).unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(e, op));
        let mut bx = IBox::new(dims);
        let out = hc4.contract(&mut bx);
        (out, bx)
    }

    #[test]
    fn linear_equality_pins_variable() {
        // x - 3 = 0 on x ∈ [0, 10] → x ∈ [3, 3] (up to rounding).
        let (out, bx) = contract_once("x - 3", RelOp::Eq, vec![Interval::new(0.0, 10.0)]);
        assert_eq!(out, Outcome::Reduced);
        assert!(bx[0].contains(3.0));
        assert!(bx[0].width() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x + 5 ≤ 0 on x ∈ [0, 1] is impossible.
        let (out, _) = contract_once("x + 5", RelOp::Le, vec![Interval::new(0.0, 1.0)]);
        assert_eq!(out, Outcome::Empty);
    }

    #[test]
    fn inequality_trims_half() {
        // x ≥ 0 on [-2, 2] → [0, 2].
        let (out, bx) = contract_once("x", RelOp::Ge, vec![Interval::new(-2.0, 2.0)]);
        assert_eq!(out, Outcome::Reduced);
        assert_eq!(bx[0].lo(), 0.0);
        assert_eq!(bx[0].hi(), 2.0);
    }

    #[test]
    fn two_variable_propagation() {
        // x + y = 0, x ∈ [1, 2] ⇒ y ∈ [-2, -1].
        let (out, bx) = contract_once(
            "x + y",
            RelOp::Eq,
            vec![Interval::new(1.0, 2.0), Interval::new(-10.0, 10.0)],
        );
        assert_eq!(out, Outcome::Reduced);
        assert!(bx[1].lo() <= -2.0 + 1e-9 && bx[1].hi() >= -1.0 - 1e-9);
        assert!(bx[1].width() < 1.0 + 1e-6);
    }

    #[test]
    fn square_backward_respects_sign() {
        // x² = 4 with x ∈ [0, 10] → x ≈ [2, 2].
        let (_, bx) = contract_once("x^2 - 4", RelOp::Eq, vec![Interval::new(0.0, 10.0)]);
        assert!(bx[0].contains(2.0) && bx[0].width() < 1e-6);
        // x² = 4 with x ∈ [-10, 0] → x ≈ -2.
        let (_, bx) = contract_once("x^2 - 4", RelOp::Eq, vec![Interval::new(-10.0, 0.0)]);
        assert!(bx[0].contains(-2.0) && bx[0].width() < 1e-6);
        // Straddling: hull of both roots.
        let (_, bx) = contract_once("x^2 - 4", RelOp::Eq, vec![Interval::new(-10.0, 10.0)]);
        assert!(bx[0].contains(-2.0) && bx[0].contains(2.0));
        assert!(bx[0].width() < 4.0 + 1e-6);
    }

    #[test]
    fn exp_backward() {
        // exp(x) = e² ⇒ x ≈ 2.
        let e2 = std::f64::consts::E.powi(2);
        let src = format!("exp(x) - {e2}");
        let mut cx = Context::new();
        let ex = cx.parse(&src).unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(ex, RelOp::Eq));
        let mut bx = IBox::new(vec![Interval::new(-50.0, 50.0)]);
        assert_ne!(hc4.contract(&mut bx), Outcome::Empty);
        assert!(bx[0].contains(2.0));
        assert!(bx[0].width() < 1e-6);
    }

    #[test]
    fn division_backward() {
        // x / y = 2 with x ∈ [4, 4], y ∈ [0.1, 10] ⇒ y ≈ 2.
        let (_, bx) = contract_once(
            "x / y - 2",
            RelOp::Eq,
            vec![Interval::point(4.0), Interval::new(0.1, 10.0)],
        );
        assert!(bx[1].contains(2.0));
        assert!(bx[1].width() < 1e-6);
    }

    #[test]
    fn contraction_never_loses_solutions() {
        // For x in a grid satisfying the constraint, contraction keeps x.
        let mut cx = Context::new();
        let e = cx.parse("sin(x) - 0.5").unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(e, RelOp::Ge));
        let init = Interval::new(-1.5, 1.5);
        let mut bx = IBox::new(vec![init]);
        hc4.contract(&mut bx);
        for k in 0..=100 {
            let x = init.lo() + init.width() * k as f64 / 100.0;
            if x.sin() - 0.5 >= 0.0 {
                assert!(bx[0].contains(x), "lost solution {x}");
            }
        }
    }

    #[test]
    fn min_max_backward() {
        // max(x, 0) = 0 with x ∈ [-3, 5] ⇒ x ≤ 0.
        let (_, bx) = contract_once("max(x, 0)", RelOp::Eq, vec![Interval::new(-3.0, 5.0)]);
        assert!(bx[0].hi() <= 1e-12);
        assert!(bx[0].lo() <= -3.0 + 1e-12);
        // min(x, 10) ≥ 2 ⇒ x ≥ 2.
        let (_, bx) = contract_once("min(x, 10) - 2", RelOp::Ge, vec![Interval::new(-3.0, 5.0)]);
        assert!(bx[0].lo() >= 2.0 - 1e-9);
    }

    #[test]
    fn shared_subterm_dag() {
        // (x+1)² + (x+1) = 6 has root x+1 = 2 ⇒ x = 1 (and x+1 = -3 ⇒ x = -4).
        let (_, bx) = contract_once(
            "(x+1)^2 + (x+1) - 6",
            RelOp::Eq,
            vec![Interval::new(0.0, 10.0)],
        );
        assert!(bx[0].contains(1.0));
        assert!(bx[0].width() < 2.0, "{:?}", bx[0]);
    }

    #[test]
    fn delta_relaxed_projection_prunes_less() {
        // The δ-weakening of x ≥ 0 (Definition 4) is x ≥ −δ, i.e. the
        // atom x + δ ≥ 0: with δ = 0.5 it keeps [−0.5, 0) that the exact
        // atom prunes.
        let mut cx = Context::new();
        let e = cx.parse("x").unwrap();
        let weakened = cx.parse("x + 0.5").unwrap();
        let exact = Hc4::new(&cx, Atom::new(e, RelOp::Ge));
        let relaxed = Hc4::new(&cx, Atom::new(weakened, RelOp::Ge));
        let mut b1 = IBox::new(vec![Interval::new(-2.0, 2.0)]);
        let mut b2 = b1.clone();
        exact.contract(&mut b1);
        relaxed.contract(&mut b2);
        assert_eq!(b1[0].lo(), 0.0);
        // Outward rounding of the backward subtraction may keep one ulp
        // more, never less.
        assert!(b2[0].lo() <= -0.5 && b2[0].lo() > -0.5 - 1e-12, "{b2:?}");
    }
}
