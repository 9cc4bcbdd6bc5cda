//! The [`Contractor`] abstraction.

use biocheck_expr::EvalScratch;
use biocheck_interval::IBox;

/// Result of applying a contractor to a box.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The box became empty: no solution exists inside it.
    Empty,
    /// At least one dimension was narrowed.
    Reduced,
    /// Nothing changed.
    Unchanged,
}

impl Outcome {
    /// Combines two successive outcomes.
    pub fn and_then(self, later: Outcome) -> Outcome {
        match (self, later) {
            (Outcome::Empty, _) | (_, Outcome::Empty) => Outcome::Empty,
            (Outcome::Reduced, _) | (_, Outcome::Reduced) => Outcome::Reduced,
            _ => Outcome::Unchanged,
        }
    }
}

/// A solution-preserving box-shrinking operator.
///
/// Implementations must be *sound*: every point of the input box that
/// satisfies the contractor's underlying constraint must remain in the
/// output box. They need not be optimal.
///
/// Implementors in BioCheck: [`crate::Hc4`] (algebraic atoms),
/// [`crate::Newton`] (equality systems), and the validated-ODE flow
/// contractor in `biocheck-ode`.
///
/// `Sync` is a supertrait so branch-and-prune can apply one contractor
/// family to many boxes from worker threads concurrently.
pub trait Contractor: Sync {
    /// Shrinks `bx` in place, reporting what happened.
    fn contract(&self, bx: &mut IBox) -> Outcome;

    /// Shrinks `bx` in place, reusing `scratch` for evaluation buffers.
    ///
    /// The fixpoint loop of [`crate::Propagator`] calls this form; the
    /// default implementation falls back to [`Contractor::contract`] for
    /// implementors without a scratch-aware path.
    fn contract_with(&self, bx: &mut IBox, scratch: &mut EvalScratch) -> Outcome {
        let _ = scratch;
        self.contract(bx)
    }
}

impl<T: Contractor + ?Sized> Contractor for Box<T> {
    fn contract(&self, bx: &mut IBox) -> Outcome {
        (**self).contract(bx)
    }
    fn contract_with(&self, bx: &mut IBox, scratch: &mut EvalScratch) -> Outcome {
        (**self).contract_with(bx, scratch)
    }
}

impl<T: Contractor + ?Sized> Contractor for &T {
    fn contract(&self, bx: &mut IBox) -> Outcome {
        (**self).contract(bx)
    }
    fn contract_with(&self, bx: &mut IBox, scratch: &mut EvalScratch) -> Outcome {
        (**self).contract_with(bx, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_interval::Interval;

    struct Halver;
    impl Contractor for Halver {
        fn contract(&self, bx: &mut IBox) -> Outcome {
            let d = bx[0];
            let (l, _) = d.bisect();
            if l == d {
                Outcome::Unchanged
            } else {
                bx[0] = l;
                Outcome::Reduced
            }
        }
    }

    #[test]
    fn outcome_combination() {
        use Outcome::*;
        assert_eq!(Empty.and_then(Reduced), Empty);
        assert_eq!(Reduced.and_then(Unchanged), Reduced);
        assert_eq!(Unchanged.and_then(Unchanged), Unchanged);
        assert_eq!(Unchanged.and_then(Empty), Empty);
    }

    #[test]
    fn trait_objects_and_refs_work() {
        let h = Halver;
        let boxed: Box<dyn Contractor> = Box::new(Halver);
        let mut bx = IBox::new(vec![Interval::new(0.0, 4.0)]);
        assert_eq!(h.contract(&mut bx), Outcome::Reduced);
        assert_eq!(bx[0], Interval::new(0.0, 2.0));
        assert_eq!(boxed.contract(&mut bx), Outcome::Reduced);
        assert_eq!(bx[0], Interval::new(0.0, 1.0));
        let r: &dyn Contractor = &h;
        assert_eq!(r.contract(&mut bx), Outcome::Reduced);
        assert_eq!(bx[0], Interval::new(0.0, 0.5));
    }
}
