//! Therapeutic strategy identification (Sec. IV-B): which drug to
//! deliver at what time, as a parameter-synthesis-for-reachability
//! problem over the treatment automaton, minimizing the number of drugs
//! (path length). Reached through
//! [`Query::Therapy`](crate::Query::Therapy) on a
//! [`Session`](crate::Session), which threads budgets and cancellation
//! into the reachability search and reports exhaustion distinctly from
//! "no schedule exists".

use biocheck_bmc::{check_reach, ReachOptions, ReachResult, ReachSpec};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;

/// A synthesized treatment plan.
#[derive(Clone, Debug)]
pub struct TherapyPlan {
    /// Mode names along the successful path (drug sequence).
    pub schedule: Vec<String>,
    /// Dwell time in each mode.
    pub dwell_times: Vec<f64>,
    /// Synthesized trigger thresholds / parameters (name, interval).
    pub thresholds: Vec<(String, Interval)>,
    /// Number of distinct treatment modes used (drugs administered).
    pub drugs_used: usize,
}

/// Synthesizes the shortest successful treatment schedule: the minimal
/// number of jumps whose mode path reaches the goal (e.g. "alive at
/// time T with damage below threshold"), together with admissible
/// trigger thresholds. Returns the plan (`None` when no schedule within
/// `spec.k_max` jumps works) and whether a resource bound cut the search
/// short (`ReachResult::Unknown`) rather than exhausting all paths.
pub(crate) fn run_therapy(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
) -> (Option<TherapyPlan>, bool) {
    match check_reach(ha, spec, opts) {
        ReachResult::DeltaSat(w) => {
            let schedule: Vec<String> = w.path.iter().map(|&m| ha.modes[m].name.clone()).collect();
            let mut seen = std::collections::BTreeSet::new();
            let drugs_used = schedule
                .iter()
                .skip(1) // initial mode is not a drug
                .filter(|name| seen.insert((*name).clone()))
                .count();
            (
                Some(TherapyPlan {
                    schedule,
                    dwell_times: w.dwell_times.clone(),
                    thresholds: w.param_box.clone(),
                    drugs_used,
                }),
                false,
            )
        }
        ReachResult::Unsat => (None, false),
        ReachResult::Unknown => (None, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, Query, Report, Session, Value};
    use biocheck_expr::{Atom, RelOp};

    /// Runs a therapy query for `goal` ≥ 0 in `goal_mode` on the automaton
    /// written in `bha`, with d ∈ [0, 5].
    fn therapy(bha: &str, goal: &str, goal_mode: Option<&str>, k_max: usize, t: f64) -> Report {
        let mut ha = HybridAutomaton::parse_bha(bha).unwrap();
        let goal = ha.cx.parse(goal).unwrap();
        let spec = ReachSpec {
            goal_mode: goal_mode.map(|m| ha.mode_by_name(m).unwrap()),
            goal: vec![Atom::new(goal, RelOp::Ge)],
            k_max,
            time_bound: t,
        };
        let opts = ReachOptions {
            state_bounds: vec![Interval::new(0.0, 5.0)],
            ..ReachOptions::new(0.05)
        };
        Session::from_automaton(&ha)
            .query(Query::Therapy { spec, opts })
            .run()
            .unwrap()
    }

    /// A toy rescue automaton: damage grows in mode `sick`; drug mode
    /// `treated` reverses it. Goal: low damage after treatment.
    #[test]
    fn finds_single_drug_schedule() {
        let bha = r#"
            state d;
            param theta = [0.5, 2.0];
            mode sick { flow: d' = 1; jump to treated when d >= theta; }
            mode treated { flow: d' = -0.5; }
            init sick: d = 0;
            "#;
        // d ≤ 0.2
        let report = therapy(bha, "0.2 - d", Some("treated"), 2, 5.0);
        let Value::Therapy(Some(plan)) = report.value else {
            panic!("expected a plan, got {:?}", report.value);
        };
        assert_eq!(
            plan.schedule,
            vec!["sick".to_string(), "treated".to_string()]
        );
        assert_eq!(plan.drugs_used, 1);
        assert_eq!(plan.dwell_times.len(), 2);
        assert!(!plan.thresholds.is_empty());
    }

    #[test]
    fn untreatable_returns_none() {
        let bha = r#"
            state d;
            mode sick { flow: d' = 1; }
            init sick: d = 0;
            "#;
        // d ≤ -1 is impossible.
        let report = therapy(bha, "-1 - d", None, 1, 3.0);
        assert_eq!(report.outcome, Outcome::Complete);
        assert!(matches!(report.value, Value::Therapy(None)));
    }
}
