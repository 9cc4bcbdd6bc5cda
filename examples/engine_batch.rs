//! A batched multi-query workload through one [`Session`]: seven
//! analyses of the prostate CAS model — estimates at several PSA
//! thresholds, an SPRT, a robustness summary, and a stability check —
//! submitted as one `run_batch` call.
//!
//! Everything compiles once: the model RHS at session construction,
//! each distinct property once on first use. The batch runs the queries
//! concurrently over the thread pool with per-query forked
//! seeds, so the reports are bit-for-bit identical to running each
//! query alone (try `BIOCHECK_THREADS=1` — same numbers).
//!
//! Run with `cargo run --release --example engine_batch`.

use biocheck::bltl::Bltl;
use biocheck::engine::{EstimateMethod, Query, Session, SmcSpec, Value};
use biocheck::expr::{Atom, RelOp};
use biocheck::interval::Interval;
use biocheck::models::prostate;
use biocheck::smc::Dist;
use std::time::Instant;

fn main() {
    let patient = prostate::PatientParams::default();
    let mut model = prostate::cas_model(&patient);
    // Parse every monitored threshold before the session clones the
    // context.
    let thresholds: Vec<(f64, _)> = [16.0, 18.0, 20.0, 22.0]
        .into_iter()
        .map(|t| (t, model.cx.parse(&format!("{t} - (x + y)")).unwrap()))
        .collect();
    let session = Session::new(&model);

    let spec_for = |node| SmcSpec {
        init: vec![
            Dist::Uniform(10.0, 20.0), // AD tumor burden
            Dist::Uniform(0.05, 0.2),  // AI tumor burden
            Dist::Uniform(10.0, 14.0), // androgen
        ],
        params: vec![],
        property: Bltl::globally(100.0, Bltl::Prop(Atom::new(node, RelOp::Ge))),
        t_end: 100.0,
    };

    // The workload: a PSA-threshold sweep + hypothesis test +
    // robustness + stability, as one batch.
    let mut queries: Vec<Query> = thresholds
        .iter()
        .map(|&(_, node)| Query::Estimate {
            smc: spec_for(node),
            method: EstimateMethod::Fixed { n: 400 },
        })
        .collect();
    queries.push(Query::Sprt {
        smc: spec_for(thresholds[1].1),
        theta: 0.5,
        indiff: 0.05,
        alpha: 0.01,
        beta: 0.01,
        max_samples: 50_000,
    });
    queries.push(Query::Robustness {
        smc: spec_for(thresholds[1].1),
        samples: 200,
    });
    queries.push(Query::Stability {
        region: vec![
            Interval::new(0.0, 30.0),
            Interval::new(0.0, 1.0),
            Interval::new(10.0, 13.0),
        ],
        r_min: 0.05,
        r_max: 0.5,
    });

    let t0 = Instant::now();
    let reports = session.run_batch(&queries, 2020);
    let elapsed = t0.elapsed();

    for (q, r) in queries.iter().zip(&reports) {
        let r = r.as_ref().expect("well-formed queries");
        match (&r.value, q) {
            (Value::Estimate(e), Query::Estimate { .. }) => println!(
                "P(G≤100 PSA ok)  p̂ = {:.3}  ({} samples, {:.0}% early-stop)",
                e.p_hat,
                e.samples,
                100.0 * r.provenance.early_stop_rate
            ),
            (Value::Sprt(s), _) => println!(
                "SPRT p ≥ 0.5     {:?} after {} samples (p̂ = {:.3})",
                s.outcome, s.samples, s.p_hat
            ),
            (Value::Robustness(rb), _) => println!(
                "robustness       mean = {:.3}, min = {:.3}, p̂ = {:.3}",
                rb.mean, rb.min, rb.p_hat
            ),
            (Value::Stability(s), _) => println!(
                "stability        {}",
                s.as_ref()
                    .map(|rep| format!(
                        "equilibrium {:?}, certified = {}",
                        rep.equilibrium, rep.certified
                    ))
                    .unwrap_or_else(|| "no certificate in region".into())
            ),
            (v, _) => println!("{v:?}"),
        }
    }
    let stats = session.stats();
    println!(
        "\n{} queries in {elapsed:?} — compiled {} RHS + {} plans, {} sampler builds, {} cache hits",
        queries.len(),
        stats.rhs_compiles,
        stats.plan_compiles,
        stats.sampler_builds,
        stats.cache_hits
    );

    // Determinism spot-check: the batch equals per-query sequential runs.
    let lone = session
        .query(queries[0].clone())
        .seed(biocheck::smc::fork_seed(2020, 0))
        .run()
        .unwrap();
    assert_eq!(
        lone.fingerprint(),
        reports[0].as_ref().unwrap().fingerprint(),
        "batched == sequential, bit for bit"
    );
    println!("determinism: batched report == standalone report ✓");
    let _ = &mut model;
}
