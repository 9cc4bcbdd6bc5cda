//! Interval constraint propagation (ICP): the pruning engine behind
//! BioCheck's δ-decision procedures.
//!
//! The paper (Sections I and III) solves parameter-synthesis questions by
//! "adapting an interval constraint propagation based algorithm to explore
//! the parameter spaces". This crate is that algorithm:
//!
//! * [`Contractor`] — anything that can shrink an [`biocheck_interval::IBox`]
//!   without losing solutions. The workhorse implementation is [`Hc4`]
//!   (forward-backward propagation over the atom's compiled
//!   [`biocheck_expr::Program`] tape); validated ODE
//!   enclosures plug in through the same trait from `biocheck-ode`.
//! * [`Propagator`] — runs a set of contractors to a fixpoint.
//! * [`BranchAndPrune`] — the δ-complete existential solver: prune with the
//!   *original* constraints (sound), branch on the widest dimension, answer
//!   `unsat` when the search space empties and `δ-sat` with a witness box
//!   when a box satisfies the δ-weakened constraints or shrinks below the
//!   resolution `ε`. This realizes the practical δ-completeness result of
//!   Gao–Kong–Clarke's dReal within BioCheck.
//! * [`Newton`] — a Krawczyk-style interval Newton contractor for square
//!   systems of equalities (used for equilibria and as an ablation).
//!
//! # Examples
//!
//! Deciding `x² + y² = 1 ∧ y ≥ x` in the unit box:
//!
//! ```
//! use biocheck_expr::{Atom, Context, RelOp};
//! use biocheck_icp::{BranchAndPrune, DeltaResult};
//! use biocheck_interval::{IBox, Interval};
//!
//! let mut cx = Context::new();
//! let circle = cx.parse("x^2 + y^2 - 1").unwrap();
//! let diag = cx.parse("y - x").unwrap();
//! let atoms = vec![Atom::new(circle, RelOp::Eq), Atom::new(diag, RelOp::Ge)];
//! let init = IBox::uniform(2, Interval::new(-2.0, 2.0));
//! let solver = BranchAndPrune::new(1e-3);
//! match solver.solve(&cx, &atoms, &[], &init) {
//!     DeltaResult::DeltaSat(w) => {
//!         let (x, y) = (w.point[0], w.point[1]);
//!         assert!((x * x + y * y - 1.0).abs() < 1e-2);
//!     }
//!     other => panic!("expected δ-sat, got {other:?}"),
//! }
//! ```

mod contract;
mod hc4;
mod newton;
mod propagate;
mod solve;

pub use contract::{Contractor, Outcome};
pub use hc4::Hc4;
pub use newton::Newton;
pub use propagate::Propagator;
pub use solve::{interrupted, BranchAndPrune, DeltaResult, Paving, Witness};
