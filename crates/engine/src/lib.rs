//! The unified analysis engine: one typed query surface over every
//! analysis in the paper's framework (Fig. 2), with per-model sessions,
//! compiled-artifact caching, first-class budgets, and cooperative
//! cancellation.
//!
//! # Why
//!
//! The framework's value is the *workflow*: route one biological model
//! through calibration, falsification/validation, SMC-based analysis,
//! stability, and therapy synthesis. Before this crate each of those
//! steps was a free function with its own input conventions, its own
//! RNG plumbing, and no shared notion of resource limits — and every
//! call re-lowered the model's right-hand side and the property into
//! compiled form. A [`Session`] amortizes that compilation across
//! queries, and a [`Query`] + [`Budget`] + [`Report`] triple gives every
//! analysis the same request/response shape.
//!
//! # Shape
//!
//! * [`Session`] — constructed once per model ([`Session::new`] for ODE
//!   models, [`Session::from_automaton`] for hybrid automata); owns the
//!   compiled RHS program, a streaming-monitor plan per formula, and a
//!   sampler per SMC setup. Repeated queries never re-lower anything
//!   ([`Session::stats`] counts, tests verify).
//! * [`Query`] — the typed request: `Estimate`, `Sprt`, `Robustness`,
//!   `Falsify`, `Calibrate`, `Stability`, `Therapy`.
//! * [`Budget`] — sample caps, split caps, deadlines, and a
//!   [`CancelToken`]; polled cooperatively at every SMC sample claim
//!   and inside the ICP/BMC frontier loops, so any query can be
//!   stopped mid-flight and still returns a well-formed partial
//!   [`Report`] with [`Outcome::Exhausted`].
//! * [`Report`] — verdict/estimate plus structured provenance (seed,
//!   samples drawn, early-stop rate, caller-attached wall time) and the
//!   budget outcome.
//! * [`Session::run_batch`] — many queries concurrently, the caller and
//!   pool helpers claiming one query index at a time, with per-query
//!   forked seeds, bit-for-bit equal to running them sequentially.
//!
//! # Example
//!
//! ```
//! use biocheck_engine::{EstimateMethod, Query, Session, SmcSpec};
//! use biocheck_bltl::Bltl;
//! use biocheck_expr::{Atom, Context, RelOp};
//! use biocheck_ode::OdeSystem;
//! use biocheck_smc::Dist;
//!
//! // Decay model x' = -x with x(0) ~ U[0.5, 1.5].
//! let mut cx = Context::new();
//! let x = cx.intern_var("x");
//! let rhs = cx.parse("-x").unwrap();
//! let sys = OdeSystem::new(vec![x], vec![rhs]);
//! let e = cx.parse("x - 1").unwrap();
//! let prop = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e, RelOp::Ge)));
//!
//! let session = Session::from_parts(cx, sys);
//! let report = session
//!     .query(Query::Estimate {
//!         smc: SmcSpec {
//!             init: vec![Dist::Uniform(0.5, 1.5)],
//!             params: vec![],
//!             property: prop,
//!             t_end: 0.01,
//!         },
//!         method: EstimateMethod::Fixed { n: 200 },
//!     })
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.provenance.samples, 200);
//! // P(x(0) ≥ 1) ≈ 0.5 under U[0.5, 1.5].
//! ```

pub mod budget;
pub mod calibrate;
pub mod error;
mod exec_smc;
pub mod falsify;
pub mod query;
pub mod report;
pub mod session;
pub mod stability;
pub mod therapy;

pub use biocheck_lint::{Diagnostic, Severity};
pub use budget::{Budget, CancelToken};
pub use calibrate::{Calibration, CalibrationProblem, Dataset};
pub use error::Error;
pub use falsify::FalsificationOutcome;
pub use query::{EstimateMethod, Query, QueryKind, SmcSpec};
pub use report::{Outcome, Provenance, Report, RobustnessSummary, Value};
pub use session::{CacheStats, QueryRun, Session};
pub use stability::StabilityReport;
pub use therapy::TherapyPlan;
