//! Golden fingerprints: `Estimate`, `Sprt` and `Robustness` on the three
//! case studies, at two seeds, must render byte-for-byte the
//! `Report::fingerprint()` lines pinned in `fixtures/golden_smc.txt`.
//! The fixture was written before the lockstep integrator's rewrite and
//! is never regenerated by an optimisation: a changed line means a
//! changed sample, verdict or estimate. The CI matrix re-runs this suite
//! under `BIOCHECK_THREADS` ∈ {1, 2, 8}, so the pin holds at every pool
//! width.

mod cases;

use biocheck_engine::{EstimateMethod, Query, Session, SmcSpec};
use cases::{cardiac_case, prostate_case, radiation_case};
use std::fmt::Write;

const GOLDEN: &str = include_str!("../../../fixtures/golden_smc.txt");

fn queries(smc: &SmcSpec) -> [(&'static str, Query); 3] {
    [
        (
            "estimate",
            Query::Estimate {
                smc: smc.clone(),
                method: EstimateMethod::Fixed { n: 24 },
            },
        ),
        (
            "sprt",
            Query::Sprt {
                smc: smc.clone(),
                theta: 0.5,
                indiff: 0.1,
                alpha: 0.05,
                beta: 0.05,
                max_samples: 48,
            },
        ),
        (
            "robustness",
            Query::Robustness {
                smc: smc.clone(),
                samples: 16,
            },
        ),
    ]
}

/// One line per case, query and seed: `case query seed fingerprint`.
fn render() -> String {
    let cases: [(&str, (Session, SmcSpec)); 3] = [
        ("prostate", prostate_case()),
        ("cardiac", cardiac_case()),
        ("radiation", radiation_case()),
    ];
    let mut out = String::new();
    for (name, (session, smc)) in &cases {
        for (kind, q) in queries(smc) {
            for seed in [7u64, 2020] {
                let report = session.query(q.clone()).seed(seed).run().unwrap();
                let _ = writeln!(out, "{name} {kind} {seed} {}", report.fingerprint());
            }
        }
    }
    out
}

#[test]
fn case_study_fingerprints_match_the_pinned_fixture() {
    let got = render();
    for (g, w) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, w, "drifted from fixtures/golden_smc.txt");
    }
    assert_eq!(got, GOLDEN);
}
