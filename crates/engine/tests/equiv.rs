//! The engine's budgeted lane streams must reproduce the sequential
//! `biocheck_smc` references (`seq_*`: one scalar sample at a time)
//! bit-for-bit on every method, at any seed and sample count — the
//! proof that lanes, threads and budgets change no numbers. CI runs
//! this suite at 1, 2 and 8 pool threads.

mod cases;

use biocheck_bltl::Bltl;
use biocheck_engine::{EstimateMethod, Outcome, Query, Report, Session, SmcSpec, Value};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_ode::OdeSystem;
use biocheck_smc::{
    seq_bayes_estimate, seq_chernoff_estimate, seq_estimate, seq_sprt, Dist, Estimate, TraceSampler,
};
use cases::{cardiac_case, prostate_case, radiation_case};
use proptest::prelude::*;

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

/// Runs one query of the decay setup at `seed`.
fn run(session: &Session, query: Query, seed: u64) -> Report {
    session.query(query).seed(seed).run().unwrap()
}

fn estimate_of(report: &Report) -> Estimate {
    let Value::Estimate(e) = report.value else {
        panic!("estimate expected")
    };
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fixed_estimate_equals_seq_estimate(seed in 0..u64::MAX / 2, n in 1..300usize) {
        let (session, sampler, spec) = setup();
        let method = EstimateMethod::Fixed { n };
        let report = run(&session, Query::Estimate { smc: spec, method }, seed);
        prop_assert_eq!(report.outcome, Outcome::Complete);
        let e = estimate_of(&report);
        let want = seq_estimate(&sampler, seed, n);
        prop_assert_eq!(e.p_hat.to_bits(), want.to_bits(), "seed {} n {}", seed, n);
        prop_assert_eq!(e.samples, n);
    }

    #[test]
    fn chernoff_estimate_equals_seq_chernoff_estimate(seed in 0..u64::MAX / 2) {
        let (session, sampler, spec) = setup();
        let method = EstimateMethod::Chernoff { eps: 0.15, delta: 0.2 };
        let e = estimate_of(&run(&session, Query::Estimate { smc: spec, method }, seed));
        let want = seq_chernoff_estimate(&sampler, seed, 0.15, 0.2);
        prop_assert_eq!(e.p_hat.to_bits(), want.p_hat.to_bits(), "seed {}", seed);
        prop_assert_eq!(e.samples, want.samples);
        prop_assert_eq!(e.half_width.to_bits(), want.half_width.to_bits());
        prop_assert_eq!(e.confidence.to_bits(), want.confidence.to_bits());
    }

    /// Caps from 16 up leave some runs undecided. An undecided run
    /// zeroes its half-width and confidence at the session, so those
    /// are compared only for decided runs.
    #[test]
    fn bayes_estimate_equals_seq_bayes_estimate(seed in 0..u64::MAX / 2, cap in 16..200usize) {
        let (session, sampler, spec) = setup();
        let method = EstimateMethod::Bayes { half_width: 0.09, confidence: 0.9, max_samples: cap };
        let e = estimate_of(&run(&session, Query::Estimate { smc: spec, method }, seed));
        let want = seq_bayes_estimate(&sampler, seed, 0.09, 0.9, cap);
        prop_assert_eq!(e.p_hat.to_bits(), want.p_hat.to_bits(), "seed {} cap {}", seed, cap);
        prop_assert_eq!(e.samples, want.samples, "seed {} cap {}", seed, cap);
        if want.samples < cap {
            prop_assert_eq!(e.half_width.to_bits(), want.half_width.to_bits());
            prop_assert_eq!(e.confidence.to_bits(), want.confidence.to_bits());
        }
    }

    /// p ≈ 0.5 against θ = 0.8: most runs accept H₁ within the cap, the
    /// shortest caps leave some inconclusive.
    #[test]
    fn sprt_equals_seq_sprt(seed in 0..u64::MAX / 2, cap in 1..60usize) {
        let (session, sampler, spec) = setup();
        let query = Query::Sprt {
            smc: spec,
            theta: 0.8,
            indiff: 0.05,
            alpha: 0.05,
            beta: 0.05,
            max_samples: cap,
        };
        let report = run(&session, query, seed);
        let Value::Sprt(r) = report.value else {
            panic!("sprt expected")
        };
        let want = seq_sprt(&sampler, seed, 0.8, 0.05, 0.05, 0.05, cap);
        prop_assert_eq!(r.outcome, want.outcome, "seed {} cap {}", seed, cap);
        prop_assert_eq!(r.samples, want.samples, "seed {} cap {}", seed, cap);
        prop_assert_eq!(r.p_hat.to_bits(), want.p_hat.to_bits());
        prop_assert_eq!(report.provenance.samples, want.samples);
    }
}

/// The parallel path reproduces the width-independent sequential path
/// bit-for-bit, on the decay toy and on the three case studies; run
/// under several pool widths, every width therefore agrees with every
/// other.
#[test]
fn sequential_mode_matches_parallel_mode() {
    let (decay, _, decay_spec) = setup();
    // Neither count is a multiple of the lane width, and both are large
    // enough to recruit pool helpers when the pool has threads.
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

/// SPRT error levels outside (0, 1) make the decision thresholds
/// degenerate (α = 2 would accept H₁ on the first sample), and a zero
/// cap answers nothing: all are refused before any sample is drawn.
#[test]
fn sprt_refuses_degenerate_error_levels_and_a_zero_cap() {
    use biocheck_engine::Error;
    let (session, _, spec) = setup();
    let sprt = |alpha: f64, beta: f64, max_samples: usize| Query::Sprt {
        smc: spec.clone(),
        theta: 0.5,
        indiff: 0.1,
        alpha,
        beta,
        max_samples,
    };
    for (alpha, beta, cap, what) in [
        (2.0, 0.05, 1000, "alpha/beta"),
        (0.05, 1.0, 1000, "alpha/beta"),
        (0.0, 0.05, 1000, "alpha/beta"),
        (f64::NAN, 0.05, 1000, "alpha/beta"),
        (0.05, 0.05, 0, "max_samples"),
    ] {
        let err = session.query(sprt(alpha, beta, cap)).run().unwrap_err();
        assert!(
            matches!(err, Error::InvalidParameter { what: w, .. } if w == what),
            "alpha {alpha} beta {beta} cap {cap}: {err}"
        );
    }
    let ok = session.query(sprt(0.05, 0.05, 1000)).run().unwrap();
    assert!(ok.provenance.samples > 1, "a sound test needs evidence");
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
    // An empty uniform range (or a NaN bound) is refused up front
    // instead of panicking inside a sample.
    for (lo, hi) in [(0.05, 0.0), (f64::NAN, 1.0)] {
        let mut bad = spec.clone();
        bad.init[0] = Dist::Uniform(lo, hi);
        let err = session
            .query(Query::Robustness {
                smc: bad,
                samples: 10,
            })
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::InvalidParameter {
                    what: "uniform bounds",
                    ..
                }
            ),
            "{err}"
        );
    }
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

/// A temporal bound that is negative or not finite, anywhere in the
/// property, is an `InvalidParameter` for every sampling query. No trace
/// satisfies F≤−1 φ, so such a property used to run and report p̂ = 0.
#[test]
fn negative_or_non_finite_temporal_bounds_are_invalid_parameters() {
    use biocheck_engine::Error;
    let (session, _, spec) = setup();
    let Bltl::Until { rhs: atom, .. } = &spec.property else {
        panic!("the decay property is an eventually");
    };
    for bound in [-1.0, -f64::MIN_POSITIVE, f64::INFINITY, f64::NAN] {
        let nested = Bltl::And(vec![
            Bltl::eventually(0.01, (**atom).clone()),
            Bltl::Not(Box::new(Bltl::globally(bound, (**atom).clone()))),
        ]);
        for property in [Bltl::eventually(bound, (**atom).clone()), nested] {
            let smc = SmcSpec {
                property,
                ..spec.clone()
            };
            for query in [
                Query::Estimate {
                    smc: smc.clone(),
                    method: EstimateMethod::Fixed { n: 8 },
                },
                Query::Sprt {
                    smc: smc.clone(),
                    theta: 0.5,
                    indiff: 0.1,
                    alpha: 0.05,
                    beta: 0.05,
                    max_samples: 8,
                },
                Query::Robustness { smc, samples: 8 },
            ] {
                let err = session.query(query).run().unwrap_err();
                assert!(
                    matches!(err, Error::InvalidParameter { what: "bound", .. }),
                    "{bound}: {err}"
                );
            }
        }
    }
    // A zero bound ("now") is a legitimate property.
    let smc = SmcSpec {
        property: Bltl::eventually(0.0, (**atom).clone()),
        ..spec
    };
    session
        .query(Query::Estimate {
            smc,
            method: EstimateMethod::Fixed { n: 8 },
        })
        .run()
        .unwrap();
}

/// x' = −x from x₀ ~ U(0.5, 1.5) satisfies F≤5 (x ≤ 0.2) on every
/// sample. A distribution with a non-finite parameter or a uniform
/// width that overflows used to run and count every sample as a
/// violation (p̂ = 0), and a negative spread ran as its mirror image;
/// each is a typed error instead.
#[test]
fn unsampleable_distributions_are_invalid_parameters() {
    use biocheck_engine::Error;
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("-x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("0.2 - x").unwrap();
    let spec = SmcSpec {
        init: vec![Dist::Uniform(0.5, 1.5)],
        params: vec![],
        property: Bltl::eventually(5.0, Bltl::Prop(Atom::new(e, RelOp::Ge))),
        t_end: 5.0,
    };
    let session = Session::from_parts(cx, sys);
    let estimate = |smc: SmcSpec| {
        session
            .query(Query::Estimate {
                smc,
                method: EstimateMethod::Fixed { n: 10 },
            })
            .run()
    };
    let report = estimate(spec.clone()).unwrap();
    let Value::Estimate(ok) = &report.value else {
        panic!("estimate expected")
    };
    assert_eq!(ok.p_hat, 1.0, "the property is certain");
    for (dist, what) in [
        (Dist::Uniform(0.5, f64::INFINITY), "uniform bounds"),
        (Dist::Uniform(f64::NEG_INFINITY, 1.5), "uniform bounds"),
        (Dist::Uniform(-f64::MAX, f64::MAX), "uniform bounds"),
        (Dist::Point(f64::NAN), "point value"),
        (Dist::Point(f64::INFINITY), "point value"),
        (
            Dist::Normal {
                mean: 1.0,
                sd: f64::INFINITY,
            },
            "normal parameters",
        ),
        (
            Dist::Normal {
                mean: f64::NAN,
                sd: 0.1,
            },
            "normal parameters",
        ),
        (
            Dist::Normal {
                mean: 1.0,
                sd: -0.1,
            },
            "normal parameters",
        ),
        (
            Dist::LogNormal {
                mu: 0.0,
                sigma: -0.1,
            },
            "lognormal parameters",
        ),
        (
            Dist::LogNormal {
                mu: f64::INFINITY,
                sigma: 0.1,
            },
            "lognormal parameters",
        ),
        (
            Dist::LogNormal {
                mu: 0.0,
                sigma: f64::NAN,
            },
            "lognormal parameters",
        ),
    ] {
        let mut bad = spec.clone();
        bad.init[0] = dist.clone();
        let err = estimate(bad).unwrap_err();
        assert!(
            matches!(err, Error::InvalidParameter { what: w, .. } if w == what),
            "{dist:?}: {err}"
        );
    }
}
