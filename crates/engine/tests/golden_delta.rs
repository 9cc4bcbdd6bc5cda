//! Golden δ-path results: small `Falsify`, `Therapy`, `Calibrate` and
//! `Stability` reports, one whole-formula reachability witness, and the
//! final states of default-parameter hybrid simulations of the three case
//! studies must render byte-for-byte the lines pinned in
//! `fixtures/golden_delta.txt`. The fixture is never regenerated by a
//! refactor: a changed line means a changed verdict, witness box, dwell
//! time or simulated state. The CI matrix re-runs this suite under
//! `BIOCHECK_THREADS` ∈ {1, 2, 8}, so the pin holds at every pool width.

use biocheck_bmc::{check_reach_whole, ReachOptions, ReachSpec};
use biocheck_engine::{Dataset, Query, Session};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_hybrid::{HybridAutomaton, HybridTrajectory, SimError};
use biocheck_interval::Interval;
use biocheck_models::{cardiac, prostate, radiation};
use biocheck_ode::OdeSystem;
use std::fmt::Write;

const GOLDEN: &str = include_str!("../../../fixtures/golden_delta.txt");

/// x' = −k·x with k ∈ [0.1, 2]: can x fall to 0.5 within 5 time units?
fn decay_automaton() -> (HybridAutomaton, ReachSpec, ReachOptions) {
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
    (ha, spec, opts)
}

/// The IAS prostate automaton with its (r0, r1) thresholds free: one
/// switch into mode `on` while PSA is still rising past 15.2. (A falling
/// PSA goal needs a dwell of months, whose validated tube costs about a
/// minute in a debug build.)
fn prostate_therapy() -> (Session, Query) {
    let mut ha = prostate::ias_automaton(&prostate::PatientParams::default());
    let psa_high = ha.cx.parse("x + y - 15.2").unwrap();
    let spec = ReachSpec {
        goal_mode: Some(ha.mode_by_name("on").unwrap()),
        goal: vec![Atom::new(psa_high, RelOp::Ge)],
        k_max: 1,
        time_bound: 30.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![
            Interval::new(0.0, 40.0),
            Interval::new(0.0, 40.0),
            Interval::new(0.0, 14.0),
        ],
        max_splits: 3_000,
        flow_step: 4.0,
        ..ReachOptions::new(0.1)
    };
    (Session::from_automaton(&ha), Query::Therapy { spec, opts })
}

/// Decay x' = −k·x observed at t = 0.5 and 1 with k = 1.
fn decay_calibration() -> (Session, Query) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let times = vec![0.5, 1.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
    let query = Query::Calibrate {
        data: Dataset::full(times, values, 0.02),
        init: vec![1.0],
        params: vec![(k, Interval::new(0.2, 3.0))],
        state_bounds: vec![Interval::new(0.0, 2.0)],
        delta: 0.01,
        flow_step: 0.05,
    };
    (Session::from_parts(cx, sys), query)
}

/// A stable linear pair x' = −x + y, y' = −2y, certified on an annulus.
fn linear_stability() -> (Session, Query) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let y = cx.intern_var("y");
    let fx = cx.parse("-x + y").unwrap();
    let fy = cx.parse("-2*y").unwrap();
    let sys = OdeSystem::new(vec![x, y], vec![fx, fy]);
    let query = Query::Stability {
        region: vec![Interval::new(-0.5, 0.5), Interval::new(-0.5, 0.5)],
        r_min: 0.1,
        r_max: 0.4,
    };
    (Session::from_parts(cx, sys), query)
}

/// The sawtooth x ↑ 5, x ↓ 1 automaton: x ≤ 3 in mode `fall`, one jump.
fn sawtooth_whole_witness() -> String {
    let mut ha = HybridAutomaton::parse_bha(
        r#"
        state x;
        mode rise { flow: x' = 1; jump to fall when x >= 5; }
        mode fall { flow: x' = -1; jump to rise when x <= 1; }
        init rise: x = 1;
        "#,
    )
    .unwrap();
    let e = ha.cx.parse("3 - x").unwrap();
    let spec = ReachSpec {
        goal_mode: Some(1),
        goal: vec![Atom::new(e, RelOp::Ge)],
        k_max: 1,
        time_bound: 6.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![Interval::new(-10.0, 10.0)],
        ..ReachOptions::new(0.05)
    };
    let r = check_reach_whole(&ha, &spec, &opts);
    let Some(w) = r.witness() else {
        return format!("{r:?}");
    };
    let bx: Vec<(f64, f64)> = w.raw.boxx.iter().map(|iv| (iv.lo(), iv.hi())).collect();
    format!(
        "point={:?} box={bx:?} certified={}",
        w.raw.point, w.raw.certified
    )
}

/// Mode path and bit-exact final state of a default-parameter run.
fn sim_line(traj: Result<HybridTrajectory, SimError>) -> String {
    match traj {
        Ok(t) => {
            let bits: Vec<String> = t
                .final_state()
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            format!(
                "modes={:?} t={:016x} state=[{}]",
                t.mode_path(),
                t.duration().to_bits(),
                bits.join(",")
            )
        }
        Err(e) => format!("error: {e}"),
    }
}

/// One line per pinned result: `label value`.
fn render() -> String {
    let mut out = String::new();
    let (ha, spec, opts) = decay_automaton();
    let falsify = Query::Falsify { spec, opts };
    let reports = [
        ("falsify decay", Session::from_automaton(&ha), falsify),
        {
            let (s, q) = prostate_therapy();
            ("therapy prostate_ias_k1", s, q)
        },
        {
            let (s, q) = decay_calibration();
            ("calibrate decay", s, q)
        },
        {
            let (s, q) = linear_stability();
            ("stability linear2", s, q)
        },
    ];
    for (label, session, query) in reports {
        let report = session.query(query).seed(7).run().unwrap();
        let _ = writeln!(out, "{label} {}", report.fingerprint());
    }
    let _ = writeln!(out, "whole sawtooth {}", sawtooth_whole_witness());

    let fk = cardiac::fenton_karma();
    let stim = cardiac::with_stimulus(&fk, 0.3, 2.0);
    let mut fk_init = fk.init.clone();
    fk_init.push(0.0); // clock
    let _ = writeln!(
        out,
        "simulate cardiac {}",
        sim_line(stim.simulate_default(&fk_init, 60.0))
    );
    let ias = prostate::ias_automaton(&prostate::PatientParams::default());
    let _ = writeln!(
        out,
        "simulate prostate {}",
        sim_line(ias.simulate_default(&[15.0, 0.1, 12.0], 700.0))
    );
    let tbi = radiation::tbi_automaton();
    let _ = writeln!(
        out,
        "simulate radiation {}",
        sim_line(tbi.simulate_default(&radiation::tbi_init(), 40.0))
    );
    out
}

#[test]
fn delta_results_match_the_pinned_fixture() {
    let got = render();
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "drifted from fixtures/golden_delta.txt");
    }
    assert_eq!(got, GOLDEN);
}
