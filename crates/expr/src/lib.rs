//! Hash-consed expression DAGs over computable real functions — the term
//! language `t := x | f(t(~x))` of the paper's LRF-formulas (Definition 1).
//!
//! All expressions live inside a [`Context`] arena. Building an expression
//! twice yields the same [`NodeId`] (hash-consing), children always have
//! smaller ids than parents (topological order), and light algebraic
//! simplification is applied at construction time. On top of the term
//! language, [`Atom`] represents the atomic formulas `t > 0` / `t ≥ 0`
//! (plus the derived `=`, `≤`, `<` forms) together with their δ-weakening
//! (Definition 4 of the paper).
//!
//! Provided operations:
//!
//! * evaluation over `f64` points and over interval boxes ([`Context::eval`],
//!   [`Context::eval_interval`]) — the two structures `R_F` is interpreted in,
//! * symbolic differentiation ([`Context::diff`]) for Jacobians and Lie
//!   derivatives,
//! * capture-free substitution ([`Context::subst`]) used by the BMC
//!   unroller to index variables by step,
//! * a text parser ([`Context::parse`]) and precedence-aware printer.
//!
//! # Examples
//!
//! ```
//! use biocheck_expr::Context;
//!
//! let mut cx = Context::new();
//! let e = cx.parse("x^2 + sin(y)").unwrap();
//! let x = cx.var_id("x").unwrap();
//! let dx = cx.diff(e, x);
//! // d/dx (x^2 + sin y) = 2x
//! let v = cx.eval(dx, &[3.0, 0.0]);
//! assert_eq!(v, 6.0);
//! ```

mod atom;
mod context;
mod diff;
mod display;
mod eval;
mod parser;
mod subst;
mod tanh;

pub use atom::{Atom, RelOp};
pub use context::eval_unary_f64;
pub use context::{BinOp, Context, Node, NodeId, UnaryOp, VarId};
pub use eval::{
    eval_binary_f64, eval_binary_interval, eval_unary_interval, AuxBuffers, EvalScratch, Program,
};
pub use parser::ParseError;
pub use tanh::{tanh, tanh_lanes, tanh_lanes_portable};
