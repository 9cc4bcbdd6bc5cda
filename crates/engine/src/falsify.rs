//! Model falsification: reject a model hypothesis by proving a desired
//! behavior unreachable for *every* admissible parameter value. Reached
//! through [`Query::Falsify`](crate::Query::Falsify) on a
//! [`Session`](crate::Session), which threads budgets and cancellation
//! into the reachability search.

use biocheck_bmc::{check_reach, ReachOptions, ReachResult, ReachSpec, ReachWitness};
use biocheck_hybrid::HybridAutomaton;

/// Outcome of a falsification attempt.
#[derive(Clone, Debug)]
pub enum FalsificationOutcome {
    /// `unsat` (exact): the model cannot exhibit the behavior no matter
    /// which parameter values are used — the hypothesis is rejected.
    Falsified,
    /// A δ-sat witness exhibits the behavior; the model stands.
    Consistent(Box<ReachWitness>),
    /// Budget exhausted.
    Undecided,
}

impl FalsificationOutcome {
    /// Returns `true` when the model was falsified.
    pub fn is_falsified(&self) -> bool {
        matches!(self, FalsificationOutcome::Falsified)
    }
}

/// Checks whether the automaton can reach the behavior described by
/// `spec` for any parameter valuation. `unsat` rejects the model — the
/// argument used against Fenton–Karma's ability to produce the
/// epicardial spike-and-dome morphology (Sec. IV-A).
pub(crate) fn falsify_reachability(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
) -> FalsificationOutcome {
    match check_reach(ha, spec, opts) {
        ReachResult::Unsat => FalsificationOutcome::Falsified,
        ReachResult::DeltaSat(w) => FalsificationOutcome::Consistent(Box::new(w)),
        ReachResult::Unknown => FalsificationOutcome::Undecided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, Query, Report, Session, Value};
    use biocheck_expr::{Atom, RelOp};
    use biocheck_interval::Interval;

    /// Asks whether x' = −k·x, k ∈ [0.1, 2], x(0) = 1 can reach
    /// `goal` ≥ 0 within `time_bound`.
    fn falsify_decay(goal: &str, time_bound: f64) -> Report {
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state x;
            param k = [0.1, 2.0];
            mode decay { flow: x' = -k*x; }
            init decay: x = 1;
            "#,
        )
        .unwrap();
        let e = ha.cx.parse(goal).unwrap();
        let spec = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(e, RelOp::Ge)],
            k_max: 0,
            time_bound,
        };
        let opts = ReachOptions {
            state_bounds: vec![Interval::new(0.0, 2.0)],
            ..ReachOptions::new(0.05)
        };
        Session::from_automaton(&ha)
            .query(Query::Falsify { spec, opts })
            .run()
            .unwrap()
    }

    #[test]
    fn falsifies_impossible_behavior() {
        // Pure decay can never exceed its initial value.
        let report = falsify_decay("x - 1.5", 2.0);
        assert_eq!(report.outcome, Outcome::Complete);
        assert!(matches!(
            report.value,
            Value::Falsify(FalsificationOutcome::Falsified)
        ));
    }

    #[test]
    fn consistent_behavior_retains_model() {
        // x ≤ 0.5 is reachable.
        let report = falsify_decay("0.5 - x", 5.0);
        match report.value {
            Value::Falsify(FalsificationOutcome::Consistent(w)) => {
                assert!(!w.params.is_empty());
            }
            other => panic!("expected consistency, got {other:?}"),
        }
    }
}
