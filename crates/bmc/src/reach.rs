//! Path-enumeration bounded reachability (the dReach algorithm).

use crate::encode::PathEncoding;
use biocheck_expr::Atom;
use biocheck_hybrid::{HybridAutomaton, ModeId};
use biocheck_icp::{BranchAndPrune, Contractor, DeltaResult, Witness};
use biocheck_interval::{IBox, Interval};
use biocheck_ode::FlowContractor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bound on enumerated paths per check (safety valve for dense jump
/// graphs); past it the answer is `Unknown`.
const MAX_PATHS: usize = 10_000;

/// A bounded reachability question: can the automaton reach states
/// satisfying `goal` (optionally in a specific mode) within `k_max`
/// discrete jumps, each dwell lasting at most `time_bound` (the `M` of
/// `Reach_{k,M}`)?
#[derive(Clone, Debug)]
pub struct ReachSpec {
    /// Required goal mode (`None` = any mode).
    pub goal_mode: Option<ModeId>,
    /// Goal constraints over the automaton's state variables.
    pub goal: Vec<Atom>,
    /// Maximum number of jumps `k`.
    pub k_max: usize,
    /// Per-mode dwell-time bound `M`.
    pub time_bound: f64,
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct ReachOptions {
    /// δ of the δ-decision.
    pub delta: f64,
    /// Bounds for each state variable (mandatory: bounded sentences).
    pub state_bounds: Vec<Interval>,
    /// Split budget per path.
    pub max_splits: usize,
    /// Validated-integrator base step.
    pub flow_step: f64,
    /// Cooperative cancellation flag: polled during path enumeration,
    /// between enumerated paths, and between per-path solver rounds. A
    /// raised flag makes [`check_reach`] return
    /// [`ReachResult::Unknown`] — a well-formed partial answer, never a
    /// panic.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, polled at the same points as `cancel`.
    pub deadline: Option<Instant>,
    /// Live unrolling-depth gauge: [`check_reach`] stores the current
    /// jump count `m` here as each depth opens. Purely observational,
    /// never read back.
    pub progress_depth: Option<Arc<AtomicU64>>,
    /// Cumulative frontier-box counter, forwarded into every per-path
    /// branch-and-prune run (same plumbing as `cancel`).
    pub progress_boxes: Option<Arc<AtomicU64>>,
    /// CDCL conflict gauge of the whole-formula route
    /// ([`check_reach_whole`](crate::check_reach_whole)): each depth's
    /// SAT core stores its running conflict count here. Purely
    /// observational, never read back.
    pub progress_conflicts: Option<Arc<AtomicU64>>,
    /// CDCL restart gauge, stored like `progress_conflicts`.
    pub progress_restarts: Option<Arc<AtomicU64>>,
}

impl ReachOptions {
    /// Defaults with the given δ; state bounds must be filled in.
    pub fn new(delta: f64) -> ReachOptions {
        ReachOptions {
            delta,
            state_bounds: Vec::new(),
            max_splits: 20_000,
            flow_step: 0.05,
            cancel: None,
            deadline: None,
            progress_depth: None,
            progress_boxes: None,
            progress_conflicts: None,
            progress_restarts: None,
        }
    }

    /// Has the cancellation flag been raised or the deadline passed?
    pub(crate) fn interrupted(&self) -> bool {
        biocheck_icp::interrupted(self.cancel.as_deref(), self.deadline)
    }
}

/// Outcome of a reachability check.
#[derive(Clone, Debug)]
pub enum ReachResult {
    /// No path of length ≤ k reaches the goal (exact).
    Unsat,
    /// The δ-weakened encoding is satisfiable along the returned path.
    DeltaSat(ReachWitness),
    /// Budgets were exhausted before a decision.
    Unknown,
}

impl ReachResult {
    /// Returns `true` for `DeltaSat`.
    pub fn is_delta_sat(&self) -> bool {
        matches!(self, ReachResult::DeltaSat(_))
    }

    /// Returns `true` for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, ReachResult::Unsat)
    }

    /// The witness, if δ-sat.
    pub fn witness(&self) -> Option<&ReachWitness> {
        match self {
            ReachResult::DeltaSat(w) => Some(w),
            _ => None,
        }
    }
}

/// A reachability witness: the discrete path plus the numeric content of
/// the surviving box.
#[derive(Clone, Debug)]
pub struct ReachWitness {
    /// Mode path `q0 … qm`.
    pub path: Vec<ModeId>,
    /// Jump indices taken between consecutive modes.
    pub jumps: Vec<usize>,
    /// Dwell time in each mode (midpoints of the witness box).
    pub dwell_times: Vec<f64>,
    /// Parameter values at the witness midpoint, by name.
    pub params: Vec<(String, f64)>,
    /// Parameter intervals of the witness box, by name (the synthesized
    /// parameter set in the sense of Definition 13).
    pub param_box: Vec<(String, Interval)>,
    /// Goal-step exit state at the witness midpoint.
    pub final_state: Vec<f64>,
    /// The raw ICP witness over all solver variables.
    pub raw: Witness,
}

/// Decides the reachability question by enumerating mode paths of
/// increasing length (0, 1, …, `k_max` jumps) and solving each path's
/// conjunction; the first δ-sat path wins, so witnesses minimize the
/// number of jumps.
pub fn check_reach(ha: &HybridAutomaton, spec: &ReachSpec, opts: &ReachOptions) -> ReachResult {
    assert_eq!(
        opts.state_bounds.len(),
        ha.dim(),
        "one state bound per state variable"
    );
    let mut any_unknown = false;
    let mut paths_tried = 0usize;
    // BFS over paths by length. The enumeration itself can be
    // exponential in dense jump graphs, so the interrupt flag is polled
    // per expanded node, not just per solved path.
    for m in 0..=spec.k_max {
        if let Some(p) = &opts.progress_depth {
            p.store(m as u64, Ordering::Relaxed);
        }
        let mut stack: Vec<(Vec<ModeId>, Vec<usize>)> = vec![(vec![ha.init_mode], vec![])];
        let mut paths: Vec<(Vec<ModeId>, Vec<usize>)> = Vec::new();
        while let Some((path, jumps)) = stack.pop() {
            if opts.interrupted() {
                return ReachResult::Unknown;
            }
            if jumps.len() == m {
                paths.push((path, jumps));
                continue;
            }
            let cur = *path.last().unwrap();
            for (ji, j) in ha.jumps_from(cur) {
                let mut p2 = path.clone();
                p2.push(j.to);
                let mut j2 = jumps.clone();
                j2.push(ji);
                stack.push((p2, j2));
            }
        }
        for (path, jumps) in paths {
            if let Some(goal_mode) = spec.goal_mode {
                if *path.last().unwrap() != goal_mode {
                    continue;
                }
            }
            if opts.interrupted() {
                return ReachResult::Unknown;
            }
            paths_tried += 1;
            if paths_tried > MAX_PATHS {
                // Path budget exhausted: the search is incomplete either
                // way, so the verdict is Unknown regardless of any_unknown.
                let _ = any_unknown;
                return ReachResult::Unknown;
            }
            match solve_path(ha, spec, opts, &path, &jumps) {
                DeltaResult::DeltaSat(w) => {
                    return ReachResult::DeltaSat(extract_witness(ha, &path, &jumps, w));
                }
                DeltaResult::Unsat => {}
                DeltaResult::Unknown { .. } => any_unknown = true,
            }
        }
    }
    if any_unknown {
        ReachResult::Unknown
    } else {
        ReachResult::Unsat
    }
}

/// Encodes and solves one fixed mode path.
pub(crate) fn solve_path(
    ha: &HybridAutomaton,
    spec: &ReachSpec,
    opts: &ReachOptions,
    path: &[ModeId],
    jumps: &[usize],
) -> DeltaResult {
    let mut cx = ha.cx.clone();
    let enc = PathEncoding::allocate(&mut cx, &ha.states, path.len());
    let mut atoms: Vec<Atom> = Vec::new();

    // Init at step-0 entry.
    atoms.extend(enc.atoms_at_entry(&mut cx, &ha.states, &ha.init, 0));
    for (i, &q) in path.iter().enumerate() {
        let inv = &ha.modes[q].invariants;
        atoms.extend(enc.atoms_at_entry(&mut cx, &ha.states, inv, i));
        atoms.extend(enc.atoms_at_exit(&mut cx, &ha.states, inv, i));
        if i < jumps.len() {
            let guard = ha.jumps[jumps[i]].guards.clone();
            atoms.extend(enc.atoms_at_exit(&mut cx, &ha.states, &guard, i));
            atoms.extend(enc.glue_atoms(ha, &mut cx, jumps[i], i));
        }
    }
    // Goal at the last exit.
    atoms.extend(enc.atoms_at_exit(&mut cx, &ha.states, &spec.goal, path.len() - 1));

    // Flow contractors per step.
    let mut flows: Vec<FlowContractor> = Vec::new();
    for (i, &q) in path.iter().enumerate() {
        let sys = ha.flow_system(q);
        let fc = FlowContractor::new(
            &mut cx,
            &sys,
            enc.steps[i].entry.clone(),
            enc.steps[i].exit.clone(),
            enc.steps[i].tau,
            &ha.modes[q].invariants,
        )
        .with_step(opts.flow_step);
        flows.push(fc);
    }
    let extra: Vec<&dyn Contractor> = flows.iter().map(|f| f as &dyn Contractor).collect();

    // Initial solver box.
    let mut init = IBox::uniform(cx.num_vars(), Interval::ZERO);
    for &(v, range) in &ha.params {
        init[v.index()] = range;
    }
    for s in &enc.steps {
        for (d, &v) in s.entry.iter().enumerate() {
            init[v.index()] = opts.state_bounds[d];
        }
        for (d, &v) in s.exit.iter().enumerate() {
            init[v.index()] = opts.state_bounds[d];
        }
        init[s.tau.index()] = Interval::new(0.0, spec.time_bound);
    }

    let mut bp = BranchAndPrune::new(opts.delta);
    bp.max_splits = opts.max_splits;
    bp.cancel = opts.cancel.clone();
    bp.deadline = opts.deadline;
    bp.progress_boxes = opts.progress_boxes.clone();
    bp.solve(&cx, &atoms, &extra, &init)
}

fn extract_witness(
    ha: &HybridAutomaton,
    path: &[ModeId],
    jumps: &[usize],
    w: Witness,
) -> ReachWitness {
    // Re-derive the encoding layout to find variable indices. The clone
    // mirrors solve_path's allocation order exactly.
    let mut cx = ha.cx.clone();
    let enc = PathEncoding::allocate(&mut cx, &ha.states, path.len());
    let dwell_times = enc.steps.iter().map(|s| w.point[s.tau.index()]).collect();
    let final_state = enc
        .steps
        .last()
        .map(|s| s.exit.iter().map(|v| w.point[v.index()]).collect())
        .unwrap_or_default();
    let params = ha
        .params
        .iter()
        .map(|&(v, _)| (cx.var_name(v).to_string(), w.point[v.index()]))
        .collect();
    let param_box = ha
        .params
        .iter()
        .map(|&(v, _)| (cx.var_name(v).to_string(), w.boxx[v.index()]))
        .collect();
    ReachWitness {
        path: path.to_vec(),
        jumps: jumps.to_vec(),
        dwell_times,
        params,
        param_box,
        final_state,
        raw: w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::RelOp;

    fn sawtooth() -> HybridAutomaton {
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

    fn spec(ha: &mut HybridAutomaton, goal_src: &str, op: RelOp, k: usize) -> ReachSpec {
        let e = ha.cx.parse(goal_src).unwrap();
        ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(e, op)],
            k_max: k,
            time_bound: 6.0,
        }
    }

    fn opts() -> ReachOptions {
        ReachOptions {
            state_bounds: vec![Interval::new(-10.0, 10.0)],
            ..ReachOptions::new(0.05)
        }
    }

    #[test]
    fn zero_step_reach() {
        let mut ha = sawtooth();
        let s = spec(&mut ha, "x - 4", RelOp::Ge, 0);
        let r = check_reach(&ha, &s, &opts());
        let w = r.witness().expect("x reaches 4 while rising");
        assert_eq!(w.path, vec![0]);
        assert!(w.jumps.is_empty());
        // Dwell ≈ 3 (from x=1 rising to 4).
        assert!((w.dwell_times[0] - 3.0).abs() < 0.5, "{:?}", w.dwell_times);
        assert!(w.final_state[0] >= 3.8);
    }

    #[test]
    fn one_jump_reach_into_fall() {
        let mut ha = sawtooth();
        let mut s = spec(&mut ha, "3 - x", RelOp::Ge, 1); // x ≤ 3
        s.goal_mode = Some(1); // in mode fall
        let r = check_reach(&ha, &s, &opts());
        let w = r.witness().expect("fall below 3 after one jump");
        assert_eq!(w.path, vec![0, 1]);
        assert_eq!(w.jumps, vec![0]);
    }

    #[test]
    fn unreachable_is_unsat() {
        let mut ha = sawtooth();
        // x ≥ 8 is never reached: rise jumps at 5.
        // (The guard is x ≥ 5 and jumps are urgent in BMC only through
        // the invariant; without invariants x could keep rising, so add
        // a tighter dwell bound instead.)
        let s = ReachSpec {
            goal_mode: None,
            goal: vec![{
                let e = ha.cx.parse("x - 20").unwrap();
                Atom::new(e, RelOp::Ge)
            }],
            k_max: 1,
            time_bound: 6.0,
        };
        let r = check_reach(&ha, &s, &opts());
        assert!(r.is_unsat(), "x ≤ 10 bound and 6s dwell cap: {r:?}");
    }

    #[test]
    fn invariant_forces_jump_before_goal() {
        // rise has invariant x ≤ 5; goal x ≥ 6 is unreachable in mode rise.
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state x;
            mode rise { inv: x <= 5; flow: x' = 1; }
            init rise: x = 0;
            "#,
        )
        .unwrap();
        let s = spec(&mut ha, "x - 6", RelOp::Ge, 0);
        let r = check_reach(&ha, &s, &opts());
        assert!(r.is_unsat(), "{r:?}");
        // But x ≥ 4 is fine.
        let s = spec(&mut ha, "x - 4", RelOp::Ge, 0);
        assert!(check_reach(&ha, &s, &opts()).is_delta_sat());
    }

    #[test]
    fn resets_respected() {
        // Jump resets x to 0; after one jump x can only be in [0, bound].
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state x;
            mode a { flow: x' = 1; jump to b when x >= 2 with x := 0; }
            mode b { flow: x' = 0; }
            init a: x = 0;
            "#,
        )
        .unwrap();
        let mut s = spec(&mut ha, "x - 1", RelOp::Ge, 1);
        s.goal_mode = Some(1);
        // In mode b x stays where the reset put it (0): x ≥ 1 unsat.
        let r = check_reach(&ha, &s, &opts());
        assert!(r.is_unsat(), "{r:?}");
        let mut s2 = spec(&mut ha, "0.1 - x", RelOp::Ge, 1); // x ≤ 0.1
        s2.goal_mode = Some(1);
        assert!(check_reach(&ha, &s2, &opts()).is_delta_sat());
    }

    #[test]
    fn parameter_synthesis_recovers_decay_rate() {
        // x' = -k·x from x(0) = 1; require x(τ = 1) ∈ [0.35, 0.38] ⇒ k ≈ 1.
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state x;
            param k = [0.2, 2.0];
            mode decay { flow: x' = -k * x; }
            init decay: x = 1;
            "#,
        )
        .unwrap();
        let lo = ha.cx.parse("x - 0.35").unwrap();
        let hi = ha.cx.parse("x - 0.38").unwrap();
        let tau_pin_lo = ha.cx.parse("0").unwrap(); // placeholder (unused)
        let _ = tau_pin_lo;
        let s = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(lo, RelOp::Ge), Atom::new(hi, RelOp::Le)],
            k_max: 0,
            time_bound: 1.0, // dwell exactly ≤ 1; k adjusts
        };
        let mut o = opts();
        o.state_bounds = vec![Interval::new(0.0, 2.0)];
        o.delta = 0.02;
        let r = check_reach(&ha, &s, &o);
        let w = r.witness().expect("k near 1 exists");
        let (name, k) = &w.params[0];
        assert_eq!(name, "k");
        // x(τ)=e^{-kτ} ∈ [.35,.38] with τ ≤ 1 ⇒ kτ ∈ [0.97, 1.05] ⇒ k ≥ 0.97.
        assert!(*k > 0.9, "k = {k}");
        assert!(!w.param_box.is_empty());
    }

    #[test]
    fn shortest_path_returned_first() {
        // Chain a → b → c, goal reachable in c only: path length 2.
        let mut ha = HybridAutomaton::parse_bha(
            r#"
            state x;
            mode a { flow: x' = 1; jump to b when x >= 1; }
            mode b { flow: x' = 1; jump to c when x >= 2; }
            mode c { flow: x' = 1; }
            init a: x = 0;
            "#,
        )
        .unwrap();
        let mut s = spec(&mut ha, "x - 2.5", RelOp::Ge, 4);
        s.goal_mode = Some(2);
        let r = check_reach(&ha, &s, &opts());
        let w = r.witness().expect("reachable via a,b,c");
        assert_eq!(w.path, vec![0, 1, 2], "minimal path expected");
    }

    #[test]
    fn result_accessors() {
        let r = ReachResult::Unsat;
        assert!(r.is_unsat() && !r.is_delta_sat() && r.witness().is_none());
    }
}
