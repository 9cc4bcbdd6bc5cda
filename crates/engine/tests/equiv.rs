//! The engine's budgeted speculative loop must reproduce the
//! `biocheck_smc` free functions bit-for-bit on every method — the
//! proof that the API redesign changed no numbers.

use biocheck_bltl::Bltl;
use biocheck_engine::{EstimateMethod, Outcome, Query, Session, SmcSpec, Value};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_models::{cardiac, prostate, radiation};
use biocheck_ode::OdeSystem;
use biocheck_smc::{
    par_bayes_estimate, par_chernoff_estimate, par_estimate, par_sprt, Dist, TraceSampler,
};

fn decay() -> (Context, OdeSystem, Bltl) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("-x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("x - 1").unwrap();
    let prop = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    (cx, sys, prop)
}

fn setup() -> (Session, TraceSampler, SmcSpec) {
    let (cx, sys, prop) = decay();
    let spec = SmcSpec {
        init: vec![Dist::Uniform(0.5, 1.5)],
        params: vec![],
        property: prop.clone(),
        t_end: 0.01,
    };
    let sampler = TraceSampler::new(
        cx.clone(),
        &sys,
        spec.init.clone(),
        vec![],
        prop,
        spec.t_end,
    );
    (Session::from_parts(cx, sys), sampler, spec)
}

#[test]
fn estimate_matches_par_estimate() {
    let (session, sampler, spec) = setup();
    for seed in [1u64, 42, 2020] {
        let report = session
            .query(Query::Estimate {
                smc: spec.clone(),
                method: EstimateMethod::Fixed { n: 300 },
            })
            .seed(seed)
            .run()
            .unwrap();
        assert_eq!(report.outcome, Outcome::Complete);
        let Value::Estimate(e) = &report.value else {
            panic!("estimate expected")
        };
        let reference = par_estimate(&sampler, seed, 300);
        assert_eq!(e.p_hat.to_bits(), reference.to_bits(), "seed {seed}");
        assert_eq!(e.samples, 300);
    }
}

#[test]
fn chernoff_matches_par_chernoff() {
    let (session, sampler, spec) = setup();
    let report = session
        .query(Query::Estimate {
            smc: spec,
            method: EstimateMethod::Chernoff {
                eps: 0.15,
                delta: 0.2,
            },
        })
        .seed(9)
        .run()
        .unwrap();
    let Value::Estimate(e) = &report.value else {
        panic!("estimate expected")
    };
    let reference = par_chernoff_estimate(&sampler, 9, 0.15, 0.2);
    assert_eq!(e.p_hat.to_bits(), reference.p_hat.to_bits());
    assert_eq!(e.samples, reference.samples);
    assert_eq!(e.half_width, reference.half_width);
    assert_eq!(e.confidence, reference.confidence);
}

#[test]
fn sprt_matches_par_sprt() {
    let (session, sampler, spec) = setup();
    for seed in [3u64, 11] {
        let report = session
            .query(Query::Sprt {
                smc: spec.clone(),
                theta: 0.8,
                indiff: 0.05,
                alpha: 0.05,
                beta: 0.05,
                max_samples: 10_000,
            })
            .seed(seed)
            .run()
            .unwrap();
        let Value::Sprt(r) = &report.value else {
            panic!("sprt expected")
        };
        let reference = par_sprt(&sampler, seed, 0.8, 0.05, 0.05, 0.05, 10_000);
        assert_eq!(r.outcome, reference.outcome, "seed {seed}");
        assert_eq!(r.samples, reference.samples, "seed {seed}");
        assert_eq!(r.p_hat.to_bits(), reference.p_hat.to_bits(), "seed {seed}");
        assert_eq!(report.provenance.samples, reference.samples);
    }
}

#[test]
fn bayes_matches_par_bayes() {
    let (session, sampler, spec) = setup();
    for seed in [4u64, 19] {
        let report = session
            .query(Query::Estimate {
                smc: spec.clone(),
                method: EstimateMethod::Bayes {
                    half_width: 0.08,
                    confidence: 0.9,
                    max_samples: 5_000,
                },
            })
            .seed(seed)
            .run()
            .unwrap();
        let Value::Estimate(e) = &report.value else {
            panic!("estimate expected")
        };
        let reference = par_bayes_estimate(&sampler, seed, 0.08, 0.9, 5_000);
        assert_eq!(e.p_hat.to_bits(), reference.p_hat.to_bits(), "seed {seed}");
        assert_eq!(e.samples, reference.samples, "seed {seed}");
    }
}

/// Prostate CAS therapy: P(PSA = x + y stays below 18 for 100 days) over
/// noisy initial tumor burden and androgen level. The threshold sits
/// inside the initial-PSA range, so p is strictly between 0 and 1.
fn prostate_case() -> (Session, SmcSpec) {
    let mut m = prostate::cas_model(&prostate::PatientParams::default());
    let psa_ok = m.cx.parse("18 - (x + y)").unwrap();
    let spec = SmcSpec {
        init: vec![
            Dist::Uniform(10.0, 20.0),
            Dist::Uniform(0.05, 0.2),
            Dist::Uniform(10.0, 14.0),
        ],
        params: vec![],
        property: Bltl::globally(100.0, Bltl::Prop(Atom::new(psa_ok, RelOp::Ge))),
        t_end: 100.0,
    };
    (Session::new(&m), spec)
}

/// Fenton–Karma cardiac cell: P(an action potential fires within 30 time
/// units) over a random sustained stimulus current.
fn cardiac_case() -> (Session, SmcSpec) {
    let mut m = cardiac::fenton_karma();
    let stim = m.cx.var_id("I_stim").unwrap();
    let fires = m.cx.parse("u - 0.8").unwrap();
    let spec = SmcSpec {
        init: vec![
            Dist::Uniform(0.0, 0.05),
            Dist::Uniform(0.9, 1.0),
            Dist::Uniform(0.9, 1.0),
        ],
        params: vec![(stim, Dist::Uniform(0.0, 0.4))],
        property: Bltl::eventually(30.0, Bltl::Prop(Atom::new(fires, RelOp::Ge))),
        t_end: 30.0,
    };
    (Session::new(&m), spec)
}

/// Radiation-damaged cell (untreated live mode): P(RIP3 commitment —
/// rip3 ≥ 1 — within 20 hours) over noisy initial lipid oxidation.
fn radiation_case() -> (Session, SmcSpec) {
    let ha = radiation::tbi_automaton();
    let live = ha.mode_by_name("0").unwrap();
    let sys = OdeSystem::new(ha.states.clone(), ha.modes[live].rhs.clone());
    let mut cx = ha.cx.clone();
    let committed = cx.parse("rip3 - 1").unwrap();
    let mut init: Vec<Dist> = radiation::tbi_init().into_iter().map(Dist::Point).collect();
    init[0] = Dist::Uniform(0.1, 0.3); // clox
    let spec = SmcSpec {
        init,
        params: vec![],
        property: Bltl::eventually(20.0, Bltl::Prop(Atom::new(committed, RelOp::Ge))),
        t_end: 20.0,
    };
    (Session::from_parts(cx, sys), spec)
}

/// The parallel path reproduces the width-independent sequential path
/// bit-for-bit, on the decay toy and on the three case studies; run
/// under several pool widths, every width therefore agrees with every
/// other.
#[test]
fn sequential_mode_matches_parallel_mode() {
    let (decay, _, decay_spec) = setup();
    // Neither count is a chunk multiple; 97 crosses a batch boundary at
    // one and at two pool threads.
    let cases = [
        ("decay", (decay, decay_spec), 257),
        ("prostate", prostate_case(), 97),
        ("cardiac", cardiac_case(), 97),
        ("radiation", radiation_case(), 97),
    ];
    for (name, (session, spec), n) in cases {
        for seed in [0u64, 77] {
            let q = Query::Estimate {
                smc: spec.clone(),
                method: EstimateMethod::Fixed { n },
            };
            let par = session.query(q.clone()).seed(seed).run().unwrap();
            let seq = session.query(q).seed(seed).sequential().run().unwrap();
            assert_eq!(par.fingerprint(), seq.fingerprint(), "{name} seed {seed}");
        }
    }
}

#[test]
fn wrong_model_and_invalid_parameters_are_typed_errors() {
    use biocheck_engine::Error;
    let (session, _, spec) = setup();
    // SMC query parameters out of range.
    let err = session
        .query(Query::Estimate {
            smc: spec.clone(),
            method: EstimateMethod::Chernoff {
                eps: 1.5,
                delta: 0.05,
            },
        })
        .run()
        .unwrap_err();
    assert!(matches!(err, Error::InvalidParameter { .. }), "{err}");
    // Dimension mismatch.
    let mut bad = spec.clone();
    bad.init.push(Dist::Point(0.0));
    let err = session
        .query(Query::Estimate {
            smc: bad,
            method: EstimateMethod::Fixed { n: 10 },
        })
        .run()
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::Shape {
                expected: 1,
                got: 2,
                ..
            }
        ),
        "{err}"
    );
    // Reachability queries need an automaton session.
    let err = session
        .query(Query::Falsify {
            spec: biocheck_bmc::ReachSpec {
                goal_mode: None,
                goal: vec![],
                k_max: 0,
                time_bound: 1.0,
            },
            opts: biocheck_bmc::ReachOptions::new(0.05),
        })
        .run()
        .unwrap_err();
    assert!(matches!(err, Error::WrongModel { .. }), "{err}");
    assert!(err.to_string().contains("hybrid automaton"));
}
