//! Hybrid automata with LRF-representations (Definitions 6–12 of the
//! paper): multiple operational modes, nonlinear ODE flows per mode, guard
//! and reset jumps, invariants, and parameterization.
//!
//! The paper argues that cell-signaling events and pharmacological
//! interventions induce *multi-mode* dynamics best modeled as hybrid
//! automata. This crate provides:
//!
//! * [`HybridAutomaton`] — the automaton itself, owning the expression
//!   [`biocheck_expr::Context`] all its formulas live in. Parameters are
//!   ordinary context variables with declared ranges (Definition 12).
//! * Simulation under urgent-jump semantics with event detection,
//!   producing a [`HybridTrajectory`] over the hybrid time domain
//!   (Definitions 8–10): [`HybridAutomaton::simulate`]`(env, init, t_end)`
//!   takes explicit parameter values, and
//!   [`HybridAutomaton::simulate_default`] uses each parameter's range
//!   midpoint. Guard crossings are located to 10⁻⁹ time units, and a run
//!   that takes more than 256 jumps fails as possibly Zeno
//!   ([`SimError::TooManyJumps`]).
//! * A `.bha` text format ([`HybridAutomaton::parse_bha`]) mirroring
//!   dReach's `.drh` input language, and Graphviz export
//!   ([`HybridAutomaton::to_dot`]) which regenerates the paper's Fig. 3
//!   as an artifact.
//!
//! # Examples
//!
//! A thermostat-style two-mode system:
//!
//! ```
//! use biocheck_hybrid::HybridAutomaton;
//!
//! let src = r#"
//! state x;
//! mode heat {
//!   flow: x' = 1 - 0.1*x;
//!   jump to cool when x >= 5;
//! }
//! mode cool {
//!   flow: x' = -0.2*x;
//!   jump to heat when x <= 3;
//! }
//! init heat: x = 4;
//! "#;
//! let ha = HybridAutomaton::parse_bha(src).unwrap();
//! let traj = ha.simulate_default(&[4.0], 30.0).unwrap();
//! assert!(traj.mode_path().len() > 2, "must keep switching");
//! // The same run with the environment spelled out.
//! let same = ha.simulate(&ha.default_env(), &[4.0], 30.0).unwrap();
//! assert_eq!(same.mode_path(), traj.mode_path());
//! ```

mod automaton;
mod format;
mod simulate;

pub use automaton::{HybridAutomaton, Jump, Mode, ModeId};
pub use format::BhaError;
pub use simulate::{HybridTrajectory, Segment, SimError};
