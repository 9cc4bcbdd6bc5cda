//! Sec. IV-B / Fig. 3: therapy synthesis on the TBI multi-mode
//! cell-death automaton through the engine's `Query::Therapy` — which
//! drugs, in which order, triggered at which molecular signatures, keep
//! the cell alive?
//!
//! Run with `cargo run --release --example radiation_rescue`.

use biocheck::bmc::{ReachOptions, ReachSpec};
use biocheck::engine::{Budget, Query, Session, Value};
use biocheck::expr::{Atom, RelOp};
use biocheck::interval::Interval;
use biocheck::models::radiation::{tbi_automaton, tbi_init, THETA_DEATH};

fn main() {
    let mut ha = tbi_automaton();
    println!("TBI automaton (Fig. 3 artifact):\n{}", ha.to_dot());
    // Parse goal atoms in the automaton's context before the session
    // clones it.
    let safe = ha.cx.parse("4 - dmg").unwrap(); // dmg ≤ 4
    let committed = ha.cx.parse("rip3 - 1.2").unwrap(); // necroptosis arm engaged

    // Simulation: untreated vs. treated.
    let mut env = ha.default_env();
    let th1 = ha.cx.var_id("theta1").unwrap().index();
    let th2 = ha.cx.var_id("theta2").unwrap().index();
    env[th1] = 1e6; // never treat
    env[th2] = 1e6;
    let untreated = ha.simulate(&env, &tbi_init(), 40.0).unwrap();
    println!(
        "untreated: final damage = {:.2} (death at {THETA_DEATH}), path {:?}",
        untreated.final_state()[5],
        untreated.mode_path()
    );
    env[th1] = 0.8;
    env[th2] = 1.0;
    let treated = ha.simulate(&env, &tbi_init(), 40.0).unwrap();
    println!(
        "treated (θ1=0.8, θ2=1.0): final damage = {:.2}, path {:?}",
        treated.final_state()[5],
        treated.mode_path()
    );

    // Synthesis: find the shortest drug schedule + thresholds such that
    // damage stays low for the rescue window. The budget caps the
    // δ-search at 3000 box splits — exactly the old `max_splits`
    // setting, now expressed as a first-class query budget.
    let session = Session::from_automaton(&ha);
    let report = session
        .query(Query::Therapy {
            spec: ReachSpec {
                goal_mode: Some(ha.mode_by_name("B").unwrap()),
                goal: vec![Atom::new(safe, RelOp::Ge), Atom::new(committed, RelOp::Ge)],
                k_max: 3,
                time_bound: 8.0,
            },
            opts: ReachOptions {
                state_bounds: vec![
                    Interval::new(0.0, 3.0),  // clox
                    Interval::new(0.0, 10.0), // rip3
                    Interval::new(0.0, 6.0),  // c3
                    Interval::new(0.0, 12.0), // mlkl
                    Interval::new(0.0, 1.0),  // gpx4
                    Interval::new(0.0, 12.0), // dmg
                ],
                flow_step: 0.25,
                ..ReachOptions::new(0.1)
            },
        })
        .budget(Budget::unlimited().with_max_paver_boxes(3_000))
        .run()
        .expect("well-formed query");
    match &report.value {
        Value::Therapy(Some(plan)) => {
            println!("synthesized schedule: {:?}", plan.schedule);
            println!("  dwell times: {:?}", plan.dwell_times);
            println!("  thresholds: {:?}", plan.thresholds);
            println!("  drugs used: {}", plan.drugs_used);
        }
        _ => println!(
            "no schedule within 3 jumps ({:?}; try a larger budget)",
            report.outcome
        ),
    }
}
