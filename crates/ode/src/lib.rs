//! ODE systems and their three evaluation regimes: fast numeric
//! integration, event-aware simulation, and *validated* interval
//! integration that plugs into ICP as a flow contractor.
//!
//! The paper models single-mode biological systems as `dx/dt = f(x, p)`
//! with unknown parameters `p`, and multi-mode systems as hybrid automata
//! whose per-mode dynamics are such ODEs. Three consumers, three regimes:
//!
//! * [`DormandPrince`] — the adaptive embedded Runge–Kutta integrator,
//!   producing dense [`Trace`]s or streaming each accepted step (one
//!   trajectory, or `K` in lockstep); used by simulation, SMC
//!   sampling, and BLTL monitoring.
//! * Event detection ([`CompiledOde::integrate_with_events`]) — locates
//!   guard zero-crossings by Hermite interpolation + bisection; used by
//!   hybrid-automaton simulation for mode jumps.
//! * [`ValidatedOde`] — Picard–Lindelöf a-priori enclosures tightened by a
//!   mean-value Euler/Taylor-2 step, yielding a [`FlowTube`] that encloses
//!   *all* trajectories from a box of initial states and parameters. The
//!   [`FlowContractor`] wraps a tube as an [`biocheck_icp::Contractor`]
//!   for flow constraints `x_t = x_0 + ∫ f` in the Reach encoding
//!   (Section III-C of the paper).
//!
//! # Examples
//!
//! ```
//! use biocheck_expr::Context;
//! use biocheck_ode::{DormandPrince, OdeSystem};
//!
//! let mut cx = Context::new();
//! let x = cx.intern_var("x");
//! let rhs = cx.parse("-x").unwrap(); // dx/dt = -x
//! let sys = OdeSystem::new(vec![x], vec![rhs]);
//! let ode = sys.compile(&cx);
//! let trace = DormandPrince::default()
//!     .integrate(&ode, &[1.0], &[1.0], (0.0, 1.0))
//!     .unwrap();
//! let end = trace.last_state()[0];
//! assert!((end - (-1.0f64).exp()).abs() < 1e-6);
//! ```

mod contractor;
mod rk;
mod system;
mod trace;
mod validated;

pub use contractor::FlowContractor;
pub use rk::{DormandPrince, LaneDriver, Load, OdeError, OdeScratch, StepControl, StreamEnd};
pub use system::{CompiledOde, EventHit, OdeSystem};
pub use trace::Trace;
pub use validated::{FlowTube, ValidatedOde, ValidationError};
