//! Property test: request-scoped tracing is purely observational. A
//! budget carrying a [`TraceCtx`] produces reports bit-for-bit
//! identical (`Report::fingerprint()`) to the untraced run, for
//! arbitrary seeds and query mixes — sequentially and through the
//! concurrent batch path (the CI matrix re-runs this suite under
//! `BIOCHECK_THREADS` ∈ {1, 2, 8}, so par == seq holds with tracing
//! attached at any pool width). The trace itself must be non-trivial:
//! spans recorded, progress counters advanced.

use biocheck_bltl::Bltl;
use biocheck_engine::{Budget, EstimateMethod, Query, Session, SmcSpec};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_interval::Interval;
use biocheck_obs::TraceCtx;
use biocheck_ode::OdeSystem;
use biocheck_smc::{fork_seed, Dist};
use proptest::prelude::*;

fn decay_session() -> (Session, Bltl, Bltl) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e1 = cx.parse("x - 1").unwrap();
    let p1 = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e1, RelOp::Ge)));
    let e2 = cx.parse("x - 0.8").unwrap();
    let p2 = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e2, RelOp::Ge)));
    let _ = k;
    (Session::from_parts(cx, sys), p1, p2)
}

fn spec(prop: &Bltl) -> SmcSpec {
    SmcSpec {
        init: vec![Dist::Uniform(0.5, 1.5)],
        params: vec![],
        property: prop.clone(),
        t_end: 0.01,
    }
}

fn make_query(selector: u8, p1: &Bltl, p2: &Bltl) -> Query {
    match selector % 5 {
        0 => Query::Estimate {
            smc: spec(p1),
            method: EstimateMethod::Fixed { n: 60 },
        },
        1 => Query::Estimate {
            smc: spec(p2),
            method: EstimateMethod::Bayes {
                half_width: 0.12,
                confidence: 0.9,
                max_samples: 800,
            },
        },
        2 => Query::Sprt {
            smc: spec(p1),
            theta: 0.8,
            indiff: 0.05,
            alpha: 0.05,
            beta: 0.05,
            max_samples: 2_000,
        },
        3 => Query::Robustness {
            smc: spec(p2),
            samples: 40,
        },
        _ => Query::Stability {
            region: vec![Interval::new(-0.5, 0.5)],
            r_min: 0.1,
            r_max: 0.4,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Traced and untraced runs of the same query under the same seed
    /// are fingerprint-identical, and the traced run actually recorded
    /// something (a span tree, and — for sampling queries — progress).
    #[test]
    fn tracing_leaves_every_fingerprint_bit_identical(
        seed in 0..u64::MAX / 2,
        selectors in proptest::collection::vec(0u8..5, 1..6),
    ) {
        for (i, &s) in selectors.iter().enumerate() {
            let q_seed = fork_seed(seed, i as u64);
            // Fresh sessions for both runs: cold caches on each side,
            // so neither run can lean on state the other created.
            let (plain_session, p1, p2) = decay_session();
            let plain = plain_session
                .query(make_query(s, &p1, &p2))
                .seed(q_seed)
                .budget(Budget::unlimited())
                .run();
            let (traced_session, t1, t2) = decay_session();
            let ctx = TraceCtx::new(TraceCtx::DEFAULT_CAPACITY);
            let traced = traced_session
                .query(make_query(s, &t1, &t2))
                .seed(q_seed)
                .budget(Budget::unlimited().with_trace(ctx.clone()))
                .run();
            prop_assert!(plain.is_ok() && traced.is_ok(), "query {}: {:?}", i, traced);
            prop_assert_eq!(
                plain.as_ref().unwrap().fingerprint(),
                traced.as_ref().unwrap().fingerprint(),
                "selector {} diverged under tracing",
                s
            );
            let records = ctx.records();
            prop_assert!(
                records.iter().any(|r| r.name == "engine.query"),
                "no engine.query span recorded: {:?}",
                records.iter().map(|r| r.name).collect::<Vec<_>>()
            );
            // Every SMC-backed query draws trajectories; the counter
            // must have seen them.
            if s % 5 != 4 {
                let samples = ctx
                    .progress
                    .snapshot()
                    .pairs()
                    .iter()
                    .find(|(n, _)| *n == "samples")
                    .unwrap()
                    .1;
                prop_assert!(samples > 0, "selector {} drew no counted samples", s);
            }
        }
    }

    /// The concurrent batch path with a traced shared budget equals
    /// the sequential untraced reference — tracing does not perturb
    /// the pool's work distribution or the per-query forked seeds.
    #[test]
    fn traced_batch_equals_untraced_sequential(
        seed in 0..u64::MAX / 2,
        selectors in proptest::collection::vec(0u8..5, 1..6),
    ) {
        let (session, p1, p2) = decay_session();
        let queries: Vec<Query> = selectors
            .iter()
            .map(|&s| make_query(s, &p1, &p2))
            .collect();
        let ctx = TraceCtx::new(TraceCtx::DEFAULT_CAPACITY);
        let traced = Budget::unlimited().with_trace(ctx);
        let entries: Vec<(Query, Option<Budget>)> =
            queries.iter().map(|q| (q.clone(), None)).collect();
        let batch = session.run_batch_entries(&entries, seed, &traced);
        let (fresh, q1, q2) = decay_session();
        for (i, &s) in selectors.iter().enumerate() {
            let reference = fresh
                .query(make_query(s, &q1, &q2))
                .seed(fork_seed(seed, i as u64))
                .run();
            prop_assert!(batch[i].is_ok() && reference.is_ok(), "query {}", i);
            prop_assert_eq!(
                batch[i].as_ref().unwrap().fingerprint(),
                reference.as_ref().unwrap().fingerprint(),
                "query {} diverged under traced batching",
                i
            );
        }
    }
}
