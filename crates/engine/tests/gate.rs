//! `Session::check`, the one gate every query passes: each out-of-range
//! δ-decision parameter is an `Error::InvalidParameter` naming its field,
//! with no panic and no report, while boundary values still run. Each
//! refused case here used to panic inside a solver (δ, `time_bound`, the
//! calibration times, a NaN tolerance) or to answer wrongly: a
//! `flow_step` ≤ 0 gave a certified witness from a flow that never ran,
//! and a negative tolerance claimed that no parameter fits.

use biocheck_bmc::{ReachOptions, ReachSpec};
use biocheck_engine::{Budget, Dataset, Error, Query, Session};
use biocheck_expr::{Atom, Context, RelOp, VarId};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;
use biocheck_ode::OdeSystem;
use std::time::Duration;

/// x' = −k·x with k ∈ [0.1, 2]: can x fall to 0.5 within 5 time units?
fn decay_reach() -> (Session, ReachSpec, ReachOptions) {
    let mut ha = HybridAutomaton::parse_bha(
        r#"
        state x;
        param k = [0.1, 2.0];
        mode decay { flow: x' = -k*x; }
        init decay: x = 1;
        "#,
    )
    .unwrap();
    let e = ha.cx.parse("0.5 - x").unwrap();
    let spec = ReachSpec {
        goal_mode: None,
        goal: vec![Atom::new(e, RelOp::Ge)],
        k_max: 0,
        time_bound: 5.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![Interval::new(0.0, 2.0)],
        ..ReachOptions::new(0.05)
    };
    (Session::from_automaton(&ha), spec, opts)
}

/// Decay x' = −k·x observed at t = 0.5 and 1 with k = 1.
fn decay_calibration(times: Vec<f64>, tolerance: f64) -> (Session, Query) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let values = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
    let query = Query::Calibrate {
        data: Dataset {
            times,
            values,
            observed: vec![0],
            tolerance,
        },
        init: vec![1.0],
        params: vec![(k, Interval::new(0.2, 3.0))],
        state_bounds: vec![Interval::new(0.0, 2.0)],
        delta: 0.01,
        flow_step: 0.05,
    };
    (Session::from_parts(cx, sys), query)
}

fn run(session: &Session, query: Query) -> Result<biocheck_engine::Report, Error> {
    let budget = Budget::default().with_deadline(Duration::from_secs(5));
    session.query(query).budget(budget).run()
}

#[track_caller]
fn assert_refused(session: &Session, query: Query, what: &str) {
    match run(session, query) {
        Err(Error::InvalidParameter { what: w, .. }) if w == what => {}
        other => panic!("expected InvalidParameter `{what}`, got {other:?}"),
    }
}

#[test]
fn out_of_range_delta_parameters_are_invalid_parameters() {
    let (session, spec, opts) = decay_reach();
    let reach = |spec: ReachSpec, opts: ReachOptions| {
        [
            Query::Falsify {
                spec: spec.clone(),
                opts: opts.clone(),
            },
            Query::Therapy { spec, opts },
        ]
    };
    for delta in [0.0, f64::NAN] {
        let opts = ReachOptions {
            delta,
            ..opts.clone()
        };
        for query in reach(spec.clone(), opts) {
            assert_refused(&session, query, "delta");
        }
    }
    for time_bound in [-1.0, f64::INFINITY] {
        let spec = ReachSpec {
            time_bound,
            ..spec.clone()
        };
        for query in reach(spec, opts.clone()) {
            assert_refused(&session, query, "time_bound");
        }
    }
    for flow_step in [0.0, -1.0] {
        let opts = ReachOptions {
            flow_step,
            ..opts.clone()
        };
        for query in reach(spec.clone(), opts) {
            assert_refused(&session, query, "flow_step");
        }
    }

    for times in [vec![1.0, 0.5], vec![-0.5, 1.0]] {
        let (session, query) = decay_calibration(times, 0.02);
        assert_refused(&session, query, "data.times");
    }
    for tolerance in [f64::NAN, -1.0] {
        let (session, query) = decay_calibration(vec![0.5, 1.0], tolerance);
        assert_refused(&session, query, "data.tolerance");
    }
    let (session, mut query) = decay_calibration(vec![0.5, 1.0], 0.02);
    let Query::Calibrate { data, .. } = &mut query else {
        unreachable!()
    };
    data.values[1].push(0.3);
    assert_refused(&session, query, "data.values");

    let (session, _) = decay_calibration(vec![0.5], 0.02);
    for (r_min, r_max) in [(0.5, 0.1), (0.2, 0.2), (0.0, 0.4), (-0.1, 0.4)] {
        let query = Query::Stability {
            region: vec![Interval::new(-1.0, 1.0)],
            r_min,
            r_max,
        };
        assert_refused(&session, query, "r_min/r_max");
    }
}

/// The gate checks parameters before the model kind and shapes, so a
/// query wrong in two ways names its parameter.
#[test]
fn parameters_are_checked_before_model_kind_and_shape() {
    let (hybrid, _, _) = decay_reach();
    let (ode, _) = decay_calibration(vec![0.5], 0.02);
    let two_dims = |tolerance| {
        let (_, mut query) = decay_calibration(vec![0.5, 1.0], tolerance);
        let Query::Calibrate { init, .. } = &mut query else {
            unreachable!()
        };
        init.push(0.0);
        query
    };
    assert_refused(&hybrid, two_dims(-1.0), "data.tolerance");
    assert_refused(&ode, two_dims(-1.0), "data.tolerance");
    assert!(matches!(
        run(&hybrid, two_dims(0.02)),
        Err(Error::WrongModel { .. })
    ));
    assert!(matches!(
        run(&ode, two_dims(0.02)),
        Err(Error::Shape {
            what: "initial state",
            expected: 1,
            got: 2
        })
    ));
}

/// A reference outside the model is refused. A goal mode the automaton
/// does not have used to answer `Falsified` with outcome `Complete` (a
/// claim that an absent mode is unreachable), and a calibration
/// parameter outside the session's context panicked indexing the
/// solver box.
#[test]
fn references_outside_the_model_are_invalid_parameters() {
    let (session, spec, opts) = decay_reach();
    let absent = ReachSpec {
        goal_mode: Some(7),
        ..spec.clone()
    };
    let reach = [
        Query::Falsify {
            spec: absent.clone(),
            opts: opts.clone(),
        },
        Query::Therapy {
            spec: absent,
            opts: opts.clone(),
        },
    ];
    for query in reach {
        assert_refused(&session, query, "goal_mode");
    }
    // The one mode the automaton has is still a goal.
    let present = ReachSpec {
        goal_mode: Some(0),
        time_bound: 0.0,
        ..spec
    };
    run(
        &session,
        Query::Falsify {
            spec: present,
            opts,
        },
    )
    .unwrap();

    let (session, mut query) = decay_calibration(vec![0.5, 1.0], 0.02);
    let Query::Calibrate { params, .. } = &mut query else {
        unreachable!()
    };
    params[0].0 = VarId::from_index(99);
    assert_refused(&session, query, "params");
}

#[test]
fn boundary_values_still_run() {
    let (session, spec, opts) = decay_reach();
    let now = ReachSpec {
        time_bound: 0.0,
        ..spec
    };
    run(&session, Query::Falsify { spec: now, opts }).unwrap();
    let (session, query) = decay_calibration(vec![0.5, 1.0], 0.0);
    let capped = Budget::default().with_max_paver_boxes(200);
    session.query(query).budget(capped).run().unwrap();
}
