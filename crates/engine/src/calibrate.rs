//! Guaranteed parameter synthesis from time-series data (the BioPSy
//! workflow): find parameter values such that the ODE solution passes
//! through every observation band, or prove that none exist. Reached
//! through [`Query::Calibrate`](crate::Query::Calibrate) on a
//! [`Session`](crate::Session), which supplies the model and reports
//! budget exhaustion distinctly from unsatisfiability.

use crate::budget::Budget;
use biocheck_expr::{Atom, Context, VarId};
use biocheck_icp::{BranchAndPrune, Contractor, DeltaResult};
use biocheck_interval::{IBox, Interval};
use biocheck_ode::{FlowContractor, OdeSystem};
use std::time::Instant;

/// A time-series dataset: observations of selected state components at
/// increasing times, each with a ± tolerance band.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Observation times (strictly increasing, first > 0).
    pub times: Vec<f64>,
    /// One row per time: observed values of the observed components.
    pub values: Vec<Vec<f64>>,
    /// Indices of the observed state components.
    pub observed: Vec<usize>,
    /// Half-width of the acceptance band around each observation.
    pub tolerance: f64,
}

impl Dataset {
    /// Builds a dataset observing all components.
    ///
    /// # Panics
    ///
    /// Panics when shapes disagree or times are not increasing.
    pub fn full(times: Vec<f64>, values: Vec<Vec<f64>>, tolerance: f64) -> Dataset {
        assert_eq!(times.len(), values.len(), "one row per time");
        assert!(times.windows(2).all(|w| w[0] < w[1]), "increasing times");
        assert!(!values.is_empty(), "empty dataset");
        let dim = values[0].len();
        Dataset {
            times,
            values,
            observed: (0..dim).collect(),
            tolerance,
        }
    }
}

/// A δ-sat calibration answer: witness parameter intervals plus a
/// representative point inside them.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Witness intervals, one per synthesized parameter (in the order of
    /// the query's `params`).
    pub param_box: Vec<Interval>,
    /// A concrete parameter point inside the witness box.
    pub witness: Vec<f64>,
}

/// Runs the branch-and-prune search for parameters in `params` that
/// carry `sys` from `init` through every observation band of `data`.
/// Returns the calibration (if δ-sat) and whether a resource bound
/// stopped the search before a decision.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_calibrate(
    cx: &Context,
    sys: &OdeSystem,
    data: &Dataset,
    init: &[f64],
    params: &[(VarId, Interval)],
    state_bounds: &[Interval],
    delta: f64,
    flow_step: f64,
    budget: &Budget,
    deadline: Option<Instant>,
) -> (Option<Calibration>, bool) {
    let mut cx = cx.clone();
    let n = sys.dim();
    // Step variables per data segment: x@j is the state at times[j-1]
    // (x@0 = init, pinned), linked by flow contractors with pinned dwell.
    let mut flows: Vec<FlowContractor> = Vec::new();
    let mut atoms: Vec<Atom> = Vec::new();
    let mut seg_vars: Vec<Vec<VarId>> = Vec::new();
    // Each segment's dwell variable and its duration.
    let mut dwells: Vec<(VarId, f64)> = Vec::new();
    let init_vars: Vec<VarId> = (0..n).map(|d| cx.intern_var(&format!("@x0_{d}"))).collect();
    seg_vars.push(init_vars.clone());
    for (d, &v) in init_vars.iter().enumerate() {
        let vn = cx.var_node(v);
        let c = cx.constant(init[d]);
        atoms.push(Atom::eq(&mut cx, vn, c));
    }
    let mut prev_t = 0.0;
    for (j, &t) in data.times.iter().enumerate() {
        let cur: Vec<VarId> = (0..n)
            .map(|d| cx.intern_var(&format!("@x{}_{d}", j + 1)))
            .collect();
        let tau = cx.intern_var(&format!("@tau{j}"));
        let fc = FlowContractor::new(&mut cx, sys, seg_vars[j].clone(), cur.clone(), tau, &[])
            .with_step(flow_step);
        flows.push(fc);
        // Observation bands at this time.
        for (oi, &comp) in data.observed.iter().enumerate() {
            let v = cx.var_node(cur[comp]);
            let lo = cx.constant(data.values[j][oi] - data.tolerance);
            let hi = cx.constant(data.values[j][oi] + data.tolerance);
            atoms.push(Atom::ge(&mut cx, v, lo));
            atoms.push(Atom::le(&mut cx, v, hi));
        }
        seg_vars.push(cur);
        // Pin the dwell to the segment duration.
        let dur = t - prev_t;
        let tau_node = cx.var_node(tau);
        let dt = cx.constant(dur);
        atoms.push(Atom::eq(&mut cx, tau_node, dt));
        dwells.push((tau, dur));
        prev_t = t;
    }
    // Solver box.
    let mut init_box = IBox::uniform(cx.num_vars(), Interval::ZERO);
    for &(v, range) in params {
        init_box[v.index()] = range;
    }
    for vars in &seg_vars {
        for (d, &v) in vars.iter().enumerate() {
            init_box[v.index()] = state_bounds[d];
        }
    }
    for &(tau, dt) in &dwells {
        init_box[tau.index()] = Interval::new(0.0, dt * 1.01);
    }
    let refs: Vec<&dyn Contractor> = flows.iter().map(|f| f as &dyn Contractor).collect();
    let mut bp = BranchAndPrune::new(delta);
    bp.max_splits = budget.max_paver_boxes.unwrap_or(50_000);
    bp.cancel = budget.cancel_flag();
    bp.deadline = deadline;
    bp.progress_boxes = budget
        .trace
        .as_ref()
        .map(|t| std::sync::Arc::clone(&t.progress.boxes));
    match bp.solve(&cx, &atoms, &refs, &init_box) {
        DeltaResult::DeltaSat(w) => (
            Some(Calibration {
                param_box: params.iter().map(|&(v, _)| w.boxx[v.index()]).collect(),
                witness: params.iter().map(|&(v, _)| w.point[v.index()]).collect(),
            }),
            false,
        ),
        DeltaResult::Unsat => (None, false),
        DeltaResult::Unknown { .. } => (None, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, Query, Report, Session, Value};

    /// A session over x' = `rhs` plus the ids of the named parameters.
    fn session(rhs: &str, params: &[&str]) -> (Session, Vec<VarId>) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let ids = params.iter().map(|p| cx.intern_var(p)).collect();
        let sys = OdeSystem::new(vec![x], vec![cx.parse(rhs).unwrap()]);
        (Session::from_parts(cx, sys), ids)
    }

    fn fit(report: &Report) -> &Calibration {
        assert_eq!(report.outcome, Outcome::Complete);
        match &report.value {
            Value::Calibration(Some(c)) => c,
            other => panic!("expected a fit, got {other:?}"),
        }
    }

    /// Generates decay data from k = 1 and recovers k.
    #[test]
    fn recovers_decay_rate_from_data() {
        let (session, ids) = session("-k*x", &["k"]);
        let times = vec![0.5, 1.0];
        let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
        let report = session
            .query(Query::Calibrate {
                data: Dataset::full(times, values, 0.02),
                init: vec![1.0],
                params: vec![(ids[0], Interval::new(0.2, 3.0))],
                state_bounds: vec![Interval::new(0.0, 2.0)],
                delta: 0.01,
                flow_step: 0.05,
            })
            .run()
            .unwrap();
        let c = fit(&report);
        assert!(
            (c.witness[0] - 1.0).abs() < 0.25,
            "recovered k = {} (box {:?})",
            c.witness[0],
            c.param_box[0]
        );
    }

    #[test]
    fn incompatible_data_is_rejected() {
        // Decay data that *grows*: no positive k fits.
        let (session, ids) = session("-k*x", &["k"]);
        let report = session
            .query(Query::Calibrate {
                data: Dataset::full(vec![1.0], vec![vec![1.8]], 0.05),
                init: vec![1.0],
                params: vec![(ids[0], Interval::new(0.1, 3.0))],
                state_bounds: vec![Interval::new(0.0, 2.0)],
                delta: 0.01,
                flow_step: 0.05,
            })
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::Complete);
        assert!(
            matches!(report.value, Value::Calibration(None)),
            "growth cannot come from decay"
        );
    }

    #[test]
    fn two_parameter_synthesis() {
        // x' = a - b·x: steady approach to a/b; data from (a, b) = (2, 1).
        let (session, ids) = session("a - b*x", &["a", "b"]);
        // x(t) = 2 − 2e^{−t} from x(0) = 0.
        let times = vec![0.5, 1.5];
        let values: Vec<Vec<f64>> = times
            .iter()
            .map(|&t: &f64| vec![2.0 - 2.0 * (-t).exp()])
            .collect();
        let report = session
            .query(Query::Calibrate {
                data: Dataset::full(times, values, 0.05),
                init: vec![0.0],
                params: vec![
                    (ids[0], Interval::new(0.5, 4.0)),
                    (ids[1], Interval::new(0.25, 2.5)),
                ],
                state_bounds: vec![Interval::new(0.0, 5.0)],
                delta: 0.02,
                flow_step: 0.05,
            })
            .run()
            .unwrap();
        // The identifiable combination near t→∞ is a/b = 2; both data
        // points also constrain the rate. Loose check on the witness:
        let point = &fit(&report).witness;
        let ratio = point[0] / point[1];
        assert!((ratio - 2.0).abs() < 0.6, "a/b = {ratio}");
    }

    #[test]
    #[should_panic(expected = "increasing times")]
    fn bad_dataset_rejected() {
        let _ = Dataset::full(vec![1.0, 1.0], vec![vec![0.0], vec![0.0]], 0.1);
    }
}
