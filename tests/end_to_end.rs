//! Cross-crate integration tests: each exercises a full pipeline from the
//! public facade, mirroring (fast variants of) the paper's workflows.

use biocheck::bltl::{Bltl, Monitor};
use biocheck::bmc::{check_reach, ReachOptions, ReachSpec};
use biocheck::engine::{Dataset, Query, Session, Value};
use biocheck::expr::{Atom, Context, RelOp};
use biocheck::hybrid::HybridAutomaton;
use biocheck::interval::Interval;
use biocheck::models::{classics, radiation};
use biocheck::ode::OdeSystem;
use biocheck::sbml::SbmlModel;
use biocheck::smc::{sprt, Dist, SprtOutcome, TraceSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SBML → ODE → simulation → BLTL monitoring, all through the facade.
#[test]
fn sbml_to_monitoring_pipeline() {
    let xml = r#"<sbml><model id="decay">
      <listOfSpecies><species id="A" initialConcentration="1.0"/></listOfSpecies>
      <listOfParameters><parameter id="k" value="0.8"/></listOfParameters>
      <listOfReactions>
        <reaction id="deg">
          <listOfReactants><speciesReference species="A"/></listOfReactants>
          <kineticLaw><math><apply><times/><ci>k</ci><ci>A</ci></apply></math></kineticLaw>
        </reaction>
      </listOfReactions>
    </model></sbml>"#;
    let model = SbmlModel::parse(xml).unwrap();
    let (mut cx, sys, init, env) = model.to_ode().unwrap();
    let ode = sys.compile(&cx);
    let trace = ode.integrate(&env, &init, (0.0, 5.0)).unwrap();
    // F≤5 (A ≤ 0.05): holds since A(5) = e^{-4} ≈ 0.018.
    let thr = cx.parse("0.05 - A").unwrap();
    let phi = Bltl::eventually(5.0, Bltl::Prop(Atom::new(thr, RelOp::Ge)));
    let mut mon = Monitor::new(&cx, &sys.states).with_env(env);
    assert!(mon.check(&phi, &trace));
    assert!(mon.robustness(&phi, &trace) > 0.0);
}

/// Calibration round trip: generate data from known parameters, recover
/// them with δ-decisions, and validate the calibrated model with SMC.
#[test]
fn calibrate_then_validate() {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let times = vec![0.5, 1.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
    let report = Session::from_parts(cx.clone(), sys.clone())
        .query(Query::Calibrate {
            data: Dataset::full(times, values, 0.02),
            init: vec![1.0],
            params: vec![(k, Interval::new(0.2, 3.0))],
            state_bounds: vec![Interval::new(0.0, 2.0)],
            delta: 0.01,
            flow_step: 0.05,
        })
        .run()
        .unwrap();
    let Value::Calibration(Some(fit)) = report.value else {
        panic!("calibratable, got {:?}", report.value);
    };
    let point = fit.witness;
    assert!((point[0] - 1.0).abs() < 0.25);
    // Validate: F≤5 (x ≤ 0.1) holds with the recovered k.
    let thr = cx.parse("0.1 - x").unwrap();
    let phi = Bltl::eventually(5.0, Bltl::Prop(Atom::new(thr, RelOp::Ge)));
    let sampler = TraceSampler::new(
        cx,
        &sys,
        vec![Dist::Uniform(0.9, 1.1)],
        vec![(k, Dist::Point(point[0]))],
        phi,
        5.0,
    );
    let (mut rng, mut scratch) = (StdRng::seed_from_u64(5), sampler.scratch());
    let sample = || sampler.sample_with(&mut rng, &mut scratch);
    let r = sprt(sample, 0.9, 0.05, 0.01, 0.01, 100_000);
    assert_eq!(r.outcome, SprtOutcome::AcceptH0);
}

/// Parameter synthesis on a hybrid automaton from the `.bha` format.
#[test]
fn bha_reachability_synthesis() {
    let mut ha = HybridAutomaton::parse_bha(
        r#"
        state x;
        param k = [0.2, 2.0];
        mode decay { flow: x' = -k*x; }
        init decay: x = 1;
        "#,
    )
    .unwrap();
    let lo = ha.cx.parse("x - 0.35").unwrap();
    let hi = ha.cx.parse("x - 0.38").unwrap();
    let spec = ReachSpec {
        goal_mode: None,
        goal: vec![Atom::new(lo, RelOp::Ge), Atom::new(hi, RelOp::Le)],
        k_max: 0,
        time_bound: 1.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![Interval::new(0.0, 2.0)],
        delta: 0.02,
        ..ReachOptions::new(0.02)
    };
    let r = check_reach(&ha, &spec, &opts);
    let w = r.witness().expect("k near 1 reaches the band");
    assert!(w.params[0].1 > 0.9, "k = {}", w.params[0].1);
}

/// The radiation automaton end to end: untreated death, treated rescue.
#[test]
fn radiation_simulation_outcomes() {
    let ha = radiation::tbi_automaton();
    let mut env = ha.default_env();
    let th1 = ha.cx.var_id("theta1").unwrap().index();
    let th2 = ha.cx.var_id("theta2").unwrap().index();
    env[th1] = 0.8;
    env[th2] = 1.0;
    let treated = ha.simulate(&env, &radiation::tbi_init(), 40.0).unwrap();
    assert!(treated.final_state()[5] < radiation::THETA_DEATH);
    env[th1] = 1e6;
    env[th2] = 1e6;
    let untreated = ha.simulate(&env, &radiation::tbi_init(), 40.0).unwrap();
    assert!(
        untreated.final_state()[5] >= radiation::THETA_DEATH - 1e-6
            || untreated
                .mode_path()
                .contains(&ha.mode_by_name("1").unwrap())
    );
}

/// Stability pipeline over a model from the library.
#[test]
fn stability_of_proofreading_chain() {
    let kp = classics::kinetic_proofreading(2, 1.0, 0.5, 1.0);
    let report = Session::from_parts(kp.cx, kp.sys)
        .query(Query::Stability {
            region: vec![Interval::new(0.0, 2.0), Interval::new(0.0, 2.0)],
            r_min: 0.1,
            r_max: 0.8,
        })
        .run()
        .unwrap();
    let Value::Stability(Some(report)) = report.value else {
        panic!("linear chain is stable, got {:?}", report.value);
    };
    assert!(report.certified);
    // Equilibrium matches the closed form c0 = 1/1.5.
    assert!((report.equilibrium[0] - 1.0 / 1.5).abs() < 1e-6);
}

/// δ-SMT facade: a disjunctive query through the DPLL(T) loop.
#[test]
fn dsmt_disjunctive_query() {
    use biocheck::dsmt::{DeltaSmt, Fol};
    let mut cx = Context::new();
    let a = cx.parse("x - 1").unwrap();
    let b = cx.parse("x + 1").unwrap();
    let sq = cx.parse("x^2 - 4").unwrap();
    let mut smt = DeltaSmt::new(cx, 1e-3);
    smt.bound("x", Interval::new(-3.0, 3.0));
    smt.assert(Fol::or(vec![
        Fol::Atom(Atom::new(a, RelOp::Ge)),
        Fol::Atom(Atom::new(b, RelOp::Le)),
    ]));
    smt.assert(Fol::Atom(Atom::new(sq, RelOp::Eq)));
    let r = smt.check();
    let w = r.witness().expect("x = ±2");
    assert!((w.point[0].abs() - 2.0).abs() < 0.05);
}
