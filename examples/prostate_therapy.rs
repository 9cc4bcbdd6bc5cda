//! Sec. IV-B: personalized prostate-cancer therapy with the Ideta IAS
//! model — compare continuous androgen suppression (CAS, relapse)
//! against intermittent scheduling (IAS), and synthesize
//! patient-specific PSA switching thresholds through the engine's
//! `Query::Falsify` (a reachability question whose δ-sat witness *is*
//! the threshold box).
//!
//! Run with `cargo run --release --example prostate_therapy`.

use biocheck::bmc::{ReachOptions, ReachSpec};
use biocheck::engine::{FalsificationOutcome, Query, Session, Value};
use biocheck::expr::{Atom, RelOp};
use biocheck::interval::Interval;
use biocheck::models::prostate::{cas_model, ias_automaton, PatientParams};

fn main() {
    let patient = PatientParams::default();

    // CAS baseline: AI cells escape.
    let cas = cas_model(&patient);
    let tr = cas.simulate(1500.0).unwrap();
    println!(
        "CAS after 1500 days: AD x = {:.2}, AI y = {:.2}  (relapse: AI escaped)",
        tr.last_state()[0],
        tr.last_state()[1]
    );

    // IAS simulation with hand-picked thresholds.
    let mut ha = ias_automaton(&patient);
    let psa_low = ha.cx.parse("10 - (x + y)").unwrap(); // parse pre-session
    let mut env = ha.default_env();
    env[ha.cx.var_id("r0").unwrap().index()] = 6.0;
    env[ha.cx.var_id("r1").unwrap().index()] = 20.0;
    let traj = ha.simulate(&env, &[15.0, 0.1, 12.0], 700.0).unwrap();
    let mode_names: Vec<&str> = traj
        .mode_path()
        .iter()
        .map(|&m| ha.modes[m].name.as_str())
        .collect();
    println!("IAS cycles (r0=6, r1=20): {mode_names:?}");

    // Threshold synthesis: find (r0, r1) such that after one on-off
    // cycle the PSA is back below 10 — a δ-reachability question with
    // the thresholds as the free parameters.
    let session = Session::from_automaton(&ha);
    let report = session
        .query(Query::Falsify {
            spec: ReachSpec {
                goal_mode: Some(ha.mode_by_name("on").unwrap()),
                goal: vec![Atom::new(psa_low, RelOp::Ge)],
                k_max: 1,
                time_bound: 500.0,
            },
            opts: ReachOptions {
                state_bounds: vec![
                    Interval::new(0.0, 40.0), // x
                    Interval::new(0.0, 40.0), // y
                    Interval::new(0.0, 14.0), // z
                ],
                max_splits: 3_000,
                flow_step: 4.0,
                ..ReachOptions::new(0.1)
            },
        })
        .run()
        .expect("well-formed query");
    match &report.value {
        Value::Falsify(FalsificationOutcome::Consistent(w)) => {
            println!("synthesized thresholds: {:?}", w.param_box);
            println!(
                "  via path {:?} with dwell times {:?}",
                w.path, w.dwell_times
            );
        }
        other => println!("no thresholds found: {other:?} ({:?})", report.outcome),
    }
}
