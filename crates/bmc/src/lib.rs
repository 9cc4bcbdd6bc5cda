//! Bounded model checking for hybrid automata: the `Reach_{k,M}(H, U)`
//! encoding of Section III-C and parameter synthesis for reachability
//! (Definitions 11–13) — BioCheck's reimplementation of dReach.
//!
//! Two solving routes are provided:
//!
//! * **Path enumeration** ([`check_reach`]) — enumerate discrete mode
//!   paths of increasing length (so witnesses use the fewest jumps, which
//!   Section IV-B exploits to minimize the number of drugs in a therapy),
//!   encode each path as one big conjunction over step-indexed variables,
//!   and decide it with branch-and-prune ICP plus validated flow
//!   contractors. This is what the dReach tool does.
//! * **Whole-formula** ([`check_reach_whole`]) — Tseitin-encode the mode
//!   choice per step as Boolean flags guarding the flow contractors and
//!   let the DPLL(T) loop enumerate theory-consistent paths. Kept as an
//!   ablation (benchmark E9 compares the two).
//!
//! Returned witnesses expose the mode path, the per-mode dwell times, and
//! — for parameterized automata — the synthesized parameter box, i.e. the
//! answer to the parameter-synthesis problem of Definition 13.
//!
//! # Examples
//!
//! ```
//! use biocheck_bmc::{check_reach, ReachOptions, ReachSpec};
//! use biocheck_expr::{Atom, RelOp};
//! use biocheck_hybrid::HybridAutomaton;
//! use biocheck_interval::Interval;
//!
//! let mut ha = HybridAutomaton::parse_bha(
//!     "state x; mode up { flow: x' = 1; } init up: x = 0;",
//! )
//! .unwrap();
//! let goal_expr = ha.cx.parse("x - 2").unwrap();
//! let spec = ReachSpec {
//!     goal_mode: None,
//!     goal: vec![Atom::new(goal_expr, RelOp::Ge)],
//!     k_max: 0,
//!     time_bound: 5.0,
//! };
//! let opts = ReachOptions {
//!     state_bounds: vec![Interval::new(-10.0, 10.0)],
//!     ..ReachOptions::new(0.05)
//! };
//! let result = check_reach(&ha, &spec, &opts);
//! assert!(result.is_delta_sat(), "x reaches 2 at t = 2");
//! ```

mod encode;
mod reach;
mod whole;

pub use encode::{PathEncoding, StepVars};
pub use reach::{check_reach, ReachOptions, ReachResult, ReachSpec, ReachWitness};
pub use whole::check_reach_whole;
