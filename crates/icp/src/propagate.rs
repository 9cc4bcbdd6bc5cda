//! Fixpoint propagation over a family of contractors.

use crate::contract::{Contractor, Outcome};
use biocheck_expr::EvalScratch;
use biocheck_interval::IBox;

/// Minimum relative total-width reduction to schedule another round.
const TOL: f64 = 1e-3;
/// Hard cap on propagation rounds per call.
const MAX_ROUNDS: usize = 64;

/// Runs a round-robin schedule of contractors until the box stops shrinking
/// meaningfully.
///
/// A round is "meaningful" when the total box width drops by more than
/// 0.1% (relative), and at most 64 rounds run per call. Both limits only
/// affect tightness, never soundness.
#[derive(Clone, Copy, Debug, Default)]
pub struct Propagator;

impl Propagator {
    /// Creates a propagator.
    pub fn new() -> Propagator {
        Propagator
    }

    /// Applies all contractors to a fixpoint (allocates a fresh scratch;
    /// solver loops use [`Propagator::fixpoint_with`]).
    pub fn fixpoint<C: Contractor + ?Sized>(&self, contractors: &[&C], bx: &mut IBox) -> Outcome {
        self.fixpoint_with(contractors, bx, &mut EvalScratch::new())
    }

    /// Applies all contractors to a fixpoint, reusing `scratch` for the
    /// contractors' evaluation buffers.
    pub fn fixpoint_with<C: Contractor + ?Sized>(
        &self,
        contractors: &[&C],
        bx: &mut IBox,
        scratch: &mut EvalScratch,
    ) -> Outcome {
        let mut overall = Outcome::Unchanged;
        for _ in 0..MAX_ROUNDS {
            let before = bx.total_width();
            let mut round = Outcome::Unchanged;
            for c in contractors {
                match c.contract_with(bx, scratch) {
                    Outcome::Empty => return Outcome::Empty,
                    o => round = round.and_then(o),
                }
            }
            overall = overall.and_then(round);
            if round == Outcome::Unchanged {
                break;
            }
            let after = bx.total_width();
            if !before.is_finite() {
                // Can't measure progress on unbounded boxes; keep going
                // only while contractors report reductions.
                continue;
            }
            if after > before * (1.0 - TOL) {
                break; // diminishing returns
            }
        }
        overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hc4::Hc4;
    use biocheck_expr::{Atom, Context, RelOp};
    use biocheck_interval::Interval;

    #[test]
    fn fixpoint_chains_constraints() {
        // x = 2 ∧ y = x + 1 ∧ z = y + 1 needs multiple rounds to pin z.
        let mut cx = Context::new();
        let a1 = cx.parse("x - 2").unwrap();
        let a2 = cx.parse("y - x - 1").unwrap();
        let a3 = cx.parse("z - y - 1").unwrap();
        let cs: Vec<Hc4> = [a1, a2, a3]
            .into_iter()
            .map(|e| Hc4::new(&cx, Atom::new(e, RelOp::Eq)))
            .collect();
        let refs: Vec<&Hc4> = cs.iter().collect();
        let mut bx = IBox::uniform(3, Interval::new(-100.0, 100.0));
        let out = Propagator::new().fixpoint(&refs, &mut bx);
        assert_eq!(out, Outcome::Reduced);
        assert!(bx[0].contains(2.0) && bx[0].width() < 1e-6);
        assert!(bx[1].contains(3.0) && bx[1].width() < 1e-6);
        assert!(bx[2].contains(4.0) && bx[2].width() < 1e-6);
    }

    #[test]
    fn fixpoint_detects_conflict() {
        // x ≥ 1 ∧ x ≤ -1 is empty.
        let mut cx = Context::new();
        let ge = cx.parse("x - 1").unwrap();
        let le = cx.parse("x + 1").unwrap();
        let c1 = Hc4::new(&cx, Atom::new(ge, RelOp::Ge));
        let c2 = Hc4::new(&cx, Atom::new(le, RelOp::Le));
        let refs: Vec<&Hc4> = vec![&c1, &c2];
        let mut bx = IBox::uniform(1, Interval::new(-10.0, 10.0));
        assert_eq!(Propagator::new().fixpoint(&refs, &mut bx), Outcome::Empty);
    }

    #[test]
    fn fixpoint_unchanged_when_constraints_loose() {
        let mut cx = Context::new();
        let e = cx.parse("x - 100").unwrap();
        let c = Hc4::new(&cx, Atom::new(e, RelOp::Le));
        let refs: Vec<&Hc4> = vec![&c];
        let mut bx = IBox::uniform(1, Interval::new(0.0, 1.0));
        assert_eq!(
            Propagator::new().fixpoint(&refs, &mut bx),
            Outcome::Unchanged
        );
        assert_eq!(bx[0], Interval::new(0.0, 1.0));
    }

    #[test]
    fn max_rounds_bounds_work() {
        // x ≤ y/2 ∧ y ≤ x/2 on [0, 1]²: every round quarters both upper
        // bounds, a reduction far above the 0.1% cut-off, so only the
        // round cap ends the loop: after 64 rounds the upper bounds are
        // still near 4⁻⁶⁴, far from the subnormal floor where contraction
        // would stall by itself.
        let mut cx = Context::new();
        let e1 = cx.parse("x - y*0.5").unwrap();
        let e2 = cx.parse("y - x*0.5").unwrap();
        let c1 = Hc4::new(&cx, Atom::new(e1, RelOp::Le));
        let c2 = Hc4::new(&cx, Atom::new(e2, RelOp::Le));
        let refs: Vec<&Hc4> = vec![&c1, &c2];
        let mut bx = IBox::uniform(2, Interval::new(0.0, 1.0));
        assert_eq!(Propagator::new().fixpoint(&refs, &mut bx), Outcome::Reduced);
        let hi = bx[0].hi().max(bx[1].hi());
        assert!(hi < 1e-30, "{bx:?}");
        assert!(hi > 0.25f64.powi(MAX_ROUNDS as i32 + 2), "{bx:?}");
    }
}
