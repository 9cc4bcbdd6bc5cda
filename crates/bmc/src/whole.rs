//! Whole-formula route: encode the mode choice per step as Boolean flags
//! guarding flow contractors and let DPLL(T) enumerate paths (ablation
//! against path enumeration; see benchmark E9).

use crate::encode::PathEncoding;
use crate::reach::{ReachOptions, ReachResult, ReachSpec};
use biocheck_dsmt::{DeltaSmt, FlagId, Fol};
use biocheck_hybrid::HybridAutomaton;
use biocheck_icp::DeltaResult;
use biocheck_interval::Interval;
use biocheck_ode::FlowContractor;

/// Decides the same question as [`crate::check_reach`] with a single
/// DPLL(T) query per path length: mode occupancy at each step is a
/// contractor flag, jumps are disjunctions over `(guard ∧ glue ∧ flags)`
/// branches, and the SAT core enumerates theory-consistent paths.
pub fn check_reach_whole(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
) -> ReachResult {
    assert_eq!(
        opts.state_bounds.len(),
        ha.dim(),
        "one state bound per state variable"
    );
    let mut any_unknown = false;
    for m in 0..=spec.k_max {
        match solve_depth(ha, spec, opts, m) {
            DeltaResult::DeltaSat(w) => {
                // The Boolean path is not directly exposed by the dsmt
                // witness; report the numeric content with an empty path.
                return ReachResult::DeltaSat(crate::reach::ReachWitness {
                    path: Vec::new(),
                    jumps: Vec::new(),
                    dwell_times: Vec::new(),
                    params: ha
                        .params
                        .iter()
                        .map(|&(v, _)| (ha.cx.var_name(v).to_string(), w.point[v.index()]))
                        .collect(),
                    param_box: ha
                        .params
                        .iter()
                        .map(|&(v, _)| (ha.cx.var_name(v).to_string(), w.boxx[v.index()]))
                        .collect(),
                    final_state: Vec::new(),
                    raw: w,
                });
            }
            DeltaResult::Unsat => {}
            DeltaResult::Unknown { .. } => any_unknown = true,
        }
    }
    if any_unknown {
        ReachResult::Unknown
    } else {
        ReachResult::Unsat
    }
}

fn solve_depth(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
    m: usize,
) -> DeltaResult {
    let n_steps = m + 1;
    let mut smt = DeltaSmt::new(ha.cx.clone(), opts.delta);
    smt.max_splits = opts.max_splits;
    smt.cancel = opts.cancel.clone();
    smt.deadline = opts.deadline;
    smt.progress_boxes = opts.progress_boxes.clone();
    smt.progress_conflicts = opts.progress_conflicts.clone();
    smt.progress_restarts = opts.progress_restarts.clone();
    let enc = PathEncoding::allocate(smt.cx_mut(), &ha.states, n_steps);

    // Mode-occupancy flags: one flow contractor per (step, mode).
    let mut occupancy: Vec<Vec<FlagId>> = Vec::with_capacity(n_steps);
    for i in 0..n_steps {
        let mut row = Vec::with_capacity(ha.modes.len());
        for q in 0..ha.modes.len() {
            let sys = ha.flow_system(q);
            let fc = FlowContractor::new(
                smt.cx_mut(),
                &sys,
                enc.steps[i].entry.clone(),
                enc.steps[i].exit.clone(),
                enc.steps[i].tau,
                &ha.modes[q].invariants,
            )
            .with_step(opts.flow_step)
            .with_label(format!("flow@{i}:{}", ha.modes[q].name));
            row.push(smt.add_contractor(Box::new(fc)));
        }
        occupancy.push(row);
    }
    // A step dwells in exactly one mode: exclude co-occupancy.
    for row in &occupancy {
        smt.exclude_pairwise(row);
    }

    // Init: start mode flag + init atoms at step-0 entry.
    let init_atoms = enc.atoms_at_entry(smt.cx_mut(), &ha.states, &ha.init, 0);
    let mut init_conj: Vec<Fol> = init_atoms.into_iter().map(Fol::Atom).collect();
    init_conj.push(Fol::Flag(occupancy[0][ha.init_mode]));
    smt.assert(Fol::and(init_conj));

    // Steps: disjunction over jumps.
    for i in 0..m {
        let mut branches = Vec::new();
        for (ji, jump) in ha.jumps.iter().enumerate() {
            let mut conj = vec![
                Fol::Flag(occupancy[i][jump.from]),
                Fol::Flag(occupancy[i + 1][jump.to]),
            ];
            for a in enc.atoms_at_exit(smt.cx_mut(), &ha.states, &jump.guards.clone(), i) {
                conj.push(Fol::Atom(a));
            }
            for a in enc.glue_atoms(ha, smt.cx_mut(), ji, i) {
                conj.push(Fol::Atom(a));
            }
            branches.push(Fol::and(conj));
        }
        if branches.is_empty() {
            return DeltaResult::Unsat; // no jumps at all but m ≥ 1
        }
        smt.assert(Fol::or(branches));
    }

    // Goal at the final exit (optionally pinned to a mode).
    let goal_atoms = enc.atoms_at_exit(smt.cx_mut(), &ha.states, &spec.goal, m);
    let mut goal_conj: Vec<Fol> = goal_atoms.into_iter().map(Fol::Atom).collect();
    if let Some(q) = spec.goal_mode {
        goal_conj.push(Fol::Flag(occupancy[m][q]));
    }
    smt.assert(Fol::and(goal_conj));

    // Bounds.
    for &(v, range) in &ha.params {
        smt.bound_var(v, range);
    }
    for s in &enc.steps {
        for (d, &v) in s.entry.iter().enumerate() {
            smt.bound_var(v, opts.state_bounds[d]);
        }
        for (d, &v) in s.exit.iter().enumerate() {
            smt.bound_var(v, opts.state_bounds[d]);
        }
        smt.bound_var(s.tau, Interval::new(0.0, spec.time_bound));
    }
    smt.check()
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::{Atom, RelOp};

    fn two_mode() -> HybridAutomaton {
        HybridAutomaton::parse_bha(
            r#"
            state x;
            mode rise { flow: x' = 1; jump to fall when x >= 5; }
            mode fall { flow: x' = -1; jump to rise when x <= 1; }
            init rise: x = 1;
            "#,
        )
        .unwrap()
    }

    fn opts() -> ReachOptions {
        ReachOptions {
            state_bounds: vec![Interval::new(-10.0, 10.0)],
            ..ReachOptions::new(0.05)
        }
    }

    #[test]
    fn whole_formula_zero_step() {
        let mut ha = two_mode();
        let e = ha.cx.parse("x - 4").unwrap();
        let spec = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(e, RelOp::Ge)],
            k_max: 0,
            time_bound: 6.0,
        };
        assert!(check_reach_whole(&ha, &spec, &opts()).is_delta_sat());
    }

    #[test]
    fn whole_formula_one_jump() {
        let mut ha = two_mode();
        let e = ha.cx.parse("3 - x").unwrap(); // x ≤ 3
        let spec = ReachSpec {
            goal_mode: Some(1),
            goal: vec![Atom::new(e, RelOp::Ge)],
            k_max: 1,
            time_bound: 6.0,
        };
        let r = check_reach_whole(&ha, &spec, &opts());
        assert!(r.is_delta_sat(), "{r:?}");
        // Parameter list empty but witness numeric content present.
        assert!(r.witness().unwrap().params.is_empty());
    }

    #[test]
    fn whole_formula_unsat() {
        let mut ha = two_mode();
        let e = ha.cx.parse("x - 20").unwrap();
        let spec = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(e, RelOp::Ge)],
            k_max: 1,
            time_bound: 6.0,
        };
        assert!(check_reach_whole(&ha, &spec, &opts()).is_unsat());
    }

    /// Progress gauges observe without steering: the traced run returns
    /// the untraced result. From `a` the path may jump to `b` (x keeps
    /// rising) or to `c` (x falls); only `b` reaches x ≥ 4.5 in time.
    /// The SAT core's first Boolean model takes `c`, the theory refutes
    /// it, and the blocked model then costs a conflict, so the conflict
    /// gauge moves.
    #[test]
    fn progress_gauges_move_and_change_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state x;
            mode a { flow: x' = 1; jump to b when x >= 2; jump to c when x >= 2; }
            mode b { flow: x' = 1; }
            mode c { flow: x' = -1; }
            init a: x = 0;
            "#,
        )
        .unwrap();
        let e = ha.cx.parse("x - 4.5").unwrap();
        let spec = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(e, RelOp::Ge)],
            k_max: 1,
            time_bound: 3.0,
        };
        let gauge = || Some(Arc::new(AtomicU64::new(0)));
        let traced = ReachOptions {
            progress_boxes: gauge(),
            progress_conflicts: gauge(),
            progress_restarts: gauge(),
            ..opts()
        };
        let plain = check_reach_whole(&ha, &spec, &opts());
        let seen = check_reach_whole(&ha, &spec, &traced);
        assert!(plain.is_delta_sat(), "{plain:?}");
        assert_eq!(format!("{seen:?}"), format!("{plain:?}"));
        let read = |g: &Option<Arc<AtomicU64>>| g.as_ref().unwrap().load(Ordering::Relaxed);
        assert!(
            read(&traced.progress_conflicts) > 0,
            "conflicts never moved"
        );
        assert!(read(&traced.progress_boxes) > 0, "boxes never moved");
    }

    #[test]
    fn agrees_with_path_enumeration() {
        let mut ha = two_mode();
        for (goal_src, op, k, mode) in [
            ("x - 4", RelOp::Ge, 0usize, None),
            ("3 - x", RelOp::Ge, 1, Some(1usize)),
            ("x - 20", RelOp::Ge, 1, None),
        ] {
            let e = ha.cx.parse(goal_src).unwrap();
            let spec = ReachSpec {
                goal_mode: mode,
                goal: vec![Atom::new(e, op)],
                k_max: k,
                time_bound: 6.0,
            };
            let a = crate::check_reach(&ha, &spec, &opts()).is_delta_sat();
            let b = check_reach_whole(&ha, &spec, &opts()).is_delta_sat();
            assert_eq!(a, b, "routes disagree on {goal_src}");
        }
    }
}
