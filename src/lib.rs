//! **BioCheck** — a model checking-based analysis framework for systems
//! biology models (reproduction of Liu, DAC 2020).
//!
//! # Start here: the unified analysis engine
//!
//! Every analysis in the paper's workflow (Fig. 2) runs through one
//! typed API in [`engine`]:
//!
//! * Build a [`engine::Session`] once per model —
//!   [`engine::Session::new`] for an ODE model,
//!   [`engine::Session::from_automaton`] for a hybrid automaton. The
//!   session compiles the model once and caches every compiled artifact
//!   (RHS programs, streaming BLTL monitor plans, samplers), so
//!   repeated queries re-lower nothing.
//! * Describe the analysis as a typed [`engine::Query`]: `Estimate`,
//!   `Sprt`, `Robustness`, `Falsify`, `Calibrate`, `Stability`, or
//!   `Therapy`.
//! * Run it with the builder —
//!   `session.query(q).seed(s).budget(b).run()` — and read the uniform
//!   [`engine::Report`]: the verdict/estimate, structured provenance
//!   (seed, samples drawn, early-stop rate), and the budget outcome.
//! * Budgets ([`engine::Budget`]) cap samples, box splits, and wall
//!   time, and carry a [`engine::CancelToken`]; a tripped budget yields
//!   a well-formed partial report (`Outcome::Exhausted`), never a
//!   panic.
//! * [`engine::Session::run_batch`] executes many queries concurrently
//!   over the work-stealing pool with per-query forked seeds,
//!   bit-for-bit equal to running them sequentially.
//!
//! ```
//! use biocheck::engine::{EstimateMethod, Query, Session, SmcSpec};
//! use biocheck::bltl::Bltl;
//! use biocheck::expr::{Atom, Context, RelOp};
//! use biocheck::ode::OdeSystem;
//! use biocheck::smc::Dist;
//!
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
//! ```
//!
//! # Substrate crates
//!
//! * [`bmc`] — bounded reachability for hybrid automata (dReach-style);
//! * [`dsmt`] / [`icp`] — the δ-decision procedures (dReal-style);
//! * [`models`] — the paper's biological case studies;
//! * [`hybrid`], [`ode`], [`bltl`], [`smc`], [`lyapunov`], [`sbml`],
//!   [`expr`], [`interval`], [`sat`] — the substrates.
//!
//! See `examples/quickstart.rs` for the full Fig. 2 workflow through
//! the engine, `examples/engine_batch.rs` for a batched multi-query
//! workload, and `docs/ARCHITECTURE.md` for the architecture and the
//! experiment harness.

pub use biocheck_bltl as bltl;
pub use biocheck_bmc as bmc;
pub use biocheck_dsmt as dsmt;
pub use biocheck_engine as engine;
pub use biocheck_expr as expr;
pub use biocheck_hybrid as hybrid;
pub use biocheck_icp as icp;
pub use biocheck_interval as interval;
pub use biocheck_lyapunov as lyapunov;
pub use biocheck_models as models;
pub use biocheck_ode as ode;
pub use biocheck_sat as sat;
pub use biocheck_sbml as sbml;
pub use biocheck_serve as serve;
pub use biocheck_smc as smc;
