//! Budgets and cancellation: a budget-cancelled query returns a
//! well-formed partial [`Report`] with `Outcome::Exhausted` — never a
//! panic, never a corrupted value.

use biocheck_bltl::Bltl;
use biocheck_engine::{
    Budget, CancelToken, EstimateMethod, Outcome, Query, Session, SmcSpec, Value,
};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_interval::Interval;
use biocheck_ode::OdeSystem;
use biocheck_smc::{fork_rng, Dist, TraceSampler};
use std::time::Duration;

fn decay_session() -> (Session, Bltl) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("-x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("x - 1").unwrap();
    let prop = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    (Session::from_parts(cx, sys), prop)
}

fn spec(prop: &Bltl) -> SmcSpec {
    SmcSpec {
        init: vec![Dist::Uniform(0.5, 1.5)],
        params: vec![],
        property: prop.clone(),
        t_end: 0.01,
    }
}

#[test]
fn sample_cap_yields_partial_estimate() {
    let (session, prop) = decay_session();
    let q = Query::Estimate {
        smc: spec(&prop),
        method: EstimateMethod::Fixed { n: 500 },
    };
    let capped = session
        .query(q.clone())
        .seed(9)
        .budget(Budget::unlimited().with_max_samples(50))
        .run()
        .unwrap();
    assert_eq!(capped.outcome, Outcome::Exhausted);
    assert_eq!(capped.provenance.samples, 50);
    // The partial estimate is the prefix of the full run's sample
    // stream: p̂ over the first 50 forked-RNG samples.
    let prefix = session
        .query(Query::Estimate {
            smc: spec(&prop),
            method: EstimateMethod::Fixed { n: 50 },
        })
        .seed(9)
        .run()
        .unwrap();
    assert_eq!(prefix.outcome, Outcome::Complete);
    let (Value::Estimate(a), Value::Estimate(b)) = (&capped.value, &prefix.value) else {
        panic!("estimate values expected");
    };
    assert_eq!(a.p_hat.to_bits(), b.p_hat.to_bits());
}

/// An adaptive Bayes run that reaches its own sample cap with the
/// credible interval still open is `Complete` (the cap is the method's
/// own answer) but must not claim the never-earned interval guarantee.
#[test]
fn bayes_at_own_cap_claims_no_guarantee() {
    let (session, prop) = decay_session();
    // p ≈ 0.5 and a 0.005 half-width at 99.9%: 60 samples cannot close
    // the interval.
    let r = session
        .query(Query::Estimate {
            smc: spec(&prop),
            method: EstimateMethod::Bayes {
                half_width: 0.005,
                confidence: 0.999,
                max_samples: 60,
            },
        })
        .seed(5)
        .run()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Complete, "own cap is not exhaustion");
    assert_eq!(r.provenance.samples, 60);
    let Value::Estimate(e) = &r.value else {
        panic!("estimate value expected");
    };
    assert_eq!((e.half_width, e.confidence), (0.0, 0.0));
    assert!(e.p_hat > 0.0 && e.p_hat < 1.0);
}

#[test]
fn pre_cancelled_queries_return_exhausted_everywhere() {
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel(token);

    // SMC query.
    let (session, prop) = decay_session();
    let r = session
        .query(Query::Estimate {
            smc: spec(&prop),
            method: EstimateMethod::Chernoff {
                eps: 0.05,
                delta: 0.05,
            },
        })
        .budget(budget.clone())
        .run()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Exhausted);
    assert_eq!(r.provenance.samples, 0);

    // SPRT.
    let r = session
        .query(Query::Sprt {
            smc: spec(&prop),
            theta: 0.8,
            indiff: 0.05,
            alpha: 0.05,
            beta: 0.05,
            max_samples: 10_000,
        })
        .budget(budget.clone())
        .run()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Exhausted);

    // Calibration (δ-decision side).
    let r = session
        .query(Query::Calibrate {
            data: biocheck_engine::Dataset::full(vec![0.5], vec![vec![0.6]], 0.05),
            init: vec![1.0],
            params: vec![],
            state_bounds: vec![Interval::new(0.0, 2.0)],
            delta: 0.01,
            flow_step: 0.05,
        })
        .budget(budget.clone())
        .run()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Exhausted);
    assert!(matches!(r.value, Value::Calibration(None)));

    // Stability.
    let r = session
        .query(Query::Stability {
            region: vec![Interval::new(-0.5, 0.5)],
            r_min: 0.1,
            r_max: 0.4,
        })
        .budget(budget.clone())
        .run()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Exhausted);
}

#[test]
fn mid_flight_cancellation_is_well_formed() {
    // Cancel from another thread while a long SMC query runs; whichever
    // claim sees the flag first, the report must be coherent.
    let (session, prop) = decay_session();
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(token.clone());
    std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        });
        let r = session
            .query(Query::Estimate {
                smc: spec(&prop),
                method: EstimateMethod::Fixed { n: 2_000_000 },
            })
            .seed(5)
            .budget(budget)
            .run()
            .unwrap();
        assert_eq!(r.outcome, Outcome::Exhausted);
        let Value::Estimate(e) = &r.value else {
            panic!("estimate expected")
        };
        assert_eq!(e.samples, r.provenance.samples);
        assert!(e.samples < 2_000_000);
        assert!(e.p_hat >= 0.0 && e.p_hat <= 1.0 || e.samples == 0);
    });
}

#[test]
fn zero_deadline_exhausts_immediately() {
    let (session, prop) = decay_session();
    let r = session
        .query(Query::Robustness {
            smc: spec(&prop),
            samples: 100,
        })
        .budget(Budget::unlimited().with_deadline(Duration::ZERO))
        .run()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Exhausted);
    assert_eq!(r.provenance.samples, 0);
    // The empty partial value is all-zero and finite — no ±inf leaks.
    let Value::Robustness(summary) = &r.value else {
        panic!("robustness summary expected");
    };
    assert_eq!(
        (summary.p_hat, summary.mean, summary.min),
        (0.0, 0.0, 0.0),
        "zero-sample summary must be all-zero"
    );
}

#[test]
fn paver_box_budget_caps_reachability() {
    // A falsification question given almost no split budget comes back
    // Undecided/Exhausted instead of looping or panicking.
    use biocheck_bmc::{ReachOptions, ReachSpec};
    use biocheck_hybrid::HybridAutomaton;
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
    let session = Session::from_automaton(&ha);
    let r = session
        .query(Query::Falsify {
            spec: spec.clone(),
            opts: opts.clone(),
        })
        .budget(Budget::unlimited().with_max_paver_boxes(1))
        .run()
        .unwrap();
    // With one split the δ-search cannot decide this instance.
    assert_eq!(r.outcome, Outcome::Exhausted, "{:?}", r.value);
    // Unlimited budget decides it (consistent: x ≤ 0.5 is reachable).
    let r = session.query(Query::Falsify { spec, opts }).run().unwrap();
    assert_eq!(r.outcome, Outcome::Complete);
}

/// Exponential growth from x₀ ~ U[0.5, 1.5] under G≤4 (x ≤ 60): the
/// violated samples stop as soon as x crosses 60, the others run the
/// whole horizon, so lanes finish out of index order. Returns the
/// session and a sampler built from the same model and property.
fn growth_session() -> (Session, TraceSampler, SmcSpec) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("60 - x").unwrap();
    let prop = Bltl::globally(4.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    let spec = SmcSpec {
        init: vec![Dist::Uniform(0.5, 1.5)],
        params: vec![],
        property: prop.clone(),
        t_end: 4.0,
    };
    let sampler = TraceSampler::new(cx.clone(), &sys, spec.init.clone(), vec![], prop, 4.0);
    (Session::from_parts(cx, sys), sampler, spec)
}

/// A cancelled, deadline-cut or sample-capped `Estimate` or `Robustness`
/// equals the sequential reference over its first `samples` indices: the
/// stream never hands a rule a gap, whichever lanes were in flight when
/// it stopped.
#[test]
fn cut_queries_equal_the_sequential_prefix() {
    let (session, sampler, spec) = growth_session();
    let n = 200_000;
    let queries = [
        Query::Estimate {
            smc: spec.clone(),
            method: EstimateMethod::Fixed { n },
        },
        Query::Robustness {
            smc: spec.clone(),
            samples: n,
        },
    ];
    for (seed, q) in (11u64..).zip(queries.iter().cycle().take(4)) {
        let token = CancelToken::new();
        let budgets = [
            Budget::unlimited().with_max_samples(77),
            Budget::unlimited().with_deadline(Duration::from_millis(3)),
            Budget::unlimited().with_cancel(token.clone()),
        ];
        for (b, budget) in budgets.into_iter().enumerate() {
            let sequential = seed % 2 == 0;
            let r = std::thread::scope(|scope| {
                let cancel = token.clone();
                scope.spawn(move || {
                    std::thread::sleep(Duration::from_millis(3));
                    cancel.cancel();
                });
                let run = session.query(q.clone()).seed(seed).budget(budget);
                if sequential {
                    run.sequential().run().unwrap()
                } else {
                    run.run().unwrap()
                }
            });
            let k = r.provenance.samples;
            assert_eq!(r.outcome, Outcome::Exhausted, "budget {b} seed {seed}");
            assert!(k < n, "budget {b} seed {seed}: the cut stopped the query");
            if b == 0 {
                assert_eq!(k, 77, "a sample cap is exact");
            }
            let mut scratch = sampler.scratch();
            match &r.value {
                Value::Estimate(e) => {
                    let hits = (0..k as u64)
                        .filter(|&i| sampler.sample_with(&mut fork_rng(seed, i), &mut scratch))
                        .count();
                    let want = if k == 0 { 0.0 } else { hits as f64 / k as f64 };
                    assert_eq!(e.samples, k);
                    assert_eq!(e.p_hat.to_bits(), want.to_bits(), "budget {b} seed {seed}");
                }
                Value::Robustness(summary) => {
                    let (mut hits, mut sum, mut min) = (0usize, 0.0f64, f64::INFINITY);
                    for i in 0..k as u64 {
                        let (sat, rob) =
                            sampler.sample_robustness_with(&mut fork_rng(seed, i), &mut scratch);
                        hits += sat as usize;
                        sum += rob;
                        min = min.min(rob);
                    }
                    let want = if k == 0 {
                        (0.0, 0.0, 0.0)
                    } else {
                        (hits as f64 / k as f64, sum / k as f64, min)
                    };
                    let got = (summary.p_hat, summary.mean, summary.min);
                    assert_eq!(
                        [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                        [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                        "budget {b} seed {seed}: {got:?} vs {want:?}"
                    );
                }
                other => panic!("unexpected value {other:?}"),
            }
        }
    }
}
