//! Property test: `run_batch` executes queries concurrently over the
//! thread pool with per-query forked seeds, and its report
//! vector is bit-for-bit identical to running every query sequentially
//! (one at a time, same forked seed) — for arbitrary master seeds and
//! query mixes, at any pool width (the CI matrix re-runs this suite
//! under `BIOCHECK_THREADS` ∈ {1, 2, 8}).

use biocheck_bltl::Bltl;
use biocheck_engine::{Budget, EstimateMethod, Query, Session, SmcSpec};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_interval::Interval;
use biocheck_ode::OdeSystem;
use biocheck_smc::{fork_seed, Dist};
use proptest::prelude::*;

/// Session over decay x' = -k·x with two pre-parsed threshold
/// properties; horizon kept tiny so hundreds of queries stay fast.
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

/// The query mix: estimates (two methods), an SPRT, a robustness
/// summary, and a stability query — picked per index by the proptest
/// selector vector.
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

    #[test]
    fn run_batch_equals_sequential_per_query_runs(
        seed in 0..u64::MAX / 2,
        selectors in proptest::collection::vec(0u8..5, 1..7),
    ) {
        let (session, p1, p2) = decay_session();
        let queries: Vec<Query> = selectors
            .iter()
            .map(|&s| make_query(s, &p1, &p2))
            .collect();
        // Concurrent batch.
        let batch = session.run_batch(&queries, seed);
        // Sequential reference: same queries one at a time with the
        // same forked seeds, on a FRESH session (cold caches), so the
        // comparison also covers cache-state independence.
        let (fresh, q1, q2) = decay_session();
        for (i, _q) in queries.iter().enumerate() {
            let reference = fresh
                .query(make_query(selectors[i], &q1, &q2))
                .seed(fork_seed(seed, i as u64))
                .run();
            let got = &batch[i];
            prop_assert!(
                got.is_ok() && reference.is_ok(),
                "non-Ok report at {}: {:?} vs {:?}",
                i,
                got,
                reference
            );
            prop_assert_eq!(
                got.as_ref().unwrap().fingerprint(),
                reference.as_ref().unwrap().fingerprint(),
                "query {} diverged under batching",
                i
            );
        }
    }

    /// Per-entry budgets: every entry may carry its own sample cap (or
    /// inherit the shared budget), and the batched result is still
    /// bit-for-bit the sequential per-query reference — including which
    /// entries report `Exhausted`.
    #[test]
    fn run_batch_entries_honors_per_query_budgets(
        seed in 0..u64::MAX / 2,
        // (query selector, per-entry cap; 0 = inherit the shared budget)
        entries in proptest::collection::vec((0u8..4, 0usize..40), 1..7),
        shared_cap in 5usize..60,
    ) {
        let (session, p1, p2) = decay_session();
        let shared = Budget::unlimited().with_max_samples(shared_cap);
        let batch_entries: Vec<(Query, Option<Budget>)> = entries
            .iter()
            .map(|&(s, cap)| {
                let budget =
                    (cap > 0).then(|| Budget::unlimited().with_max_samples(cap));
                (make_query(s, &p1, &p2), budget)
            })
            .collect();
        let batch = session.run_batch_entries(&batch_entries, seed, &shared);
        // Sequential reference on a fresh session: each entry alone,
        // same forked seed, same effective budget.
        let (fresh, q1, q2) = decay_session();
        for (i, &(s, cap)) in entries.iter().enumerate() {
            let budget = if cap > 0 {
                Budget::unlimited().with_max_samples(cap)
            } else {
                shared.clone()
            };
            let reference = fresh
                .query(make_query(s, &q1, &q2))
                .seed(fork_seed(seed, i as u64))
                .budget(budget)
                .run();
            let got = &batch[i];
            prop_assert!(got.is_ok() && reference.is_ok(), "entry {}: {:?}", i, got);
            prop_assert_eq!(
                got.as_ref().unwrap().fingerprint(),
                reference.as_ref().unwrap().fingerprint(),
                "entry {} diverged under per-entry budgets",
                i
            );
        }
    }

    #[test]
    fn run_batch_is_deterministic_across_repeats(seed in 0..u64::MAX / 2) {
        let (session, p1, p2) = decay_session();
        let queries: Vec<Query> = (0u8..5).map(|s| make_query(s, &p1, &p2)).collect();
        let a = session.run_batch(&queries, seed);
        let b = session.run_batch(&queries, seed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(x.is_ok() && y.is_ok(), "non-Ok report in deterministic batch");
            prop_assert_eq!(
                x.as_ref().unwrap().fingerprint(),
                y.as_ref().unwrap().fingerprint()
            );
        }
    }
}
