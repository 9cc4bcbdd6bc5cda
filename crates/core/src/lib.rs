//! An empty package. The δ analyses it used to wrap (calibration,
//! falsification, therapy synthesis and Lyapunov stability) run only
//! through `biocheck_engine::Session::query` and `Session::run_batch`,
//! which take budgets and cancellation and report exhaustion.
//!
//! The package stays only because `crates/bench/Cargo.toml` still
//! depends on it: dropping that edge rewrites the benchmark's lockfile,
//! so removing the package waits for the next benchmark change
//! (ROADMAP, open item 4).
