//! Pinned trajectory bits: each case study is integrated from fixed
//! starts with the sampler's integrator and tolerances, and every
//! accepted sample's `(t, y, dy)` bits are folded into one FNV-64
//! digest per start. The digests in `fixtures/trajectory_bits.txt` were
//! written with the host's libm elementary functions and are never
//! regenerated by an optimisation: a changed line means some sample's
//! time, state or derivative moved, even by one ulp, which the
//! coarser verdict and estimate fingerprints of `golden_smc.txt` can
//! miss.

use biocheck_models::{cardiac, prostate, radiation};
use biocheck_ode::{CompiledOde, DormandPrince, OdeScratch, OdeSystem, StepControl};
use std::fmt::Write;

const PINNED: &str = include_str!("../../../fixtures/trajectory_bits.txt");

/// The integrator every `TraceSampler` builds.
fn integrator() -> DormandPrince {
    DormandPrince::with_tolerances(1e-6, 1e-8)
}

/// One case study: its compiled right-hand side, horizon, the
/// environment slots of its random parameters, and the `[lo, hi]` range
/// of each random parameter and initial state (a point range for a
/// fixed one), mirroring the engine's golden cases.
struct Case {
    name: &'static str,
    ode: CompiledOde,
    t_end: f64,
    params: Vec<(usize, (f64, f64))>,
    init: Vec<(f64, f64)>,
}

fn cases() -> Vec<Case> {
    let p = prostate::cas_model(&prostate::PatientParams::default());
    let fk = cardiac::fenton_karma();
    let stim = fk.cx.var_id("I_stim").unwrap().index();
    let ha = radiation::tbi_automaton();
    let live = ha.mode_by_name("0").unwrap();
    let tbi = OdeSystem::new(ha.states.clone(), ha.modes[live].rhs.clone());
    let mut tbi_init: Vec<(f64, f64)> = radiation::tbi_init().iter().map(|&v| (v, v)).collect();
    tbi_init[0] = (0.1, 0.3);
    vec![
        Case {
            name: "prostate",
            ode: p.sys.compile(&p.cx),
            t_end: 100.0,
            params: vec![],
            init: vec![(10.0, 20.0), (0.05, 0.2), (10.0, 14.0)],
        },
        Case {
            name: "cardiac",
            ode: fk.sys.compile(&fk.cx),
            t_end: 30.0,
            params: vec![(stim, (0.0, 0.4))],
            init: vec![(0.0, 0.05), (0.9, 1.0), (0.9, 1.0)],
        },
        Case {
            name: "radiation",
            ode: tbi.compile(&ha.cx),
            t_end: 20.0,
            params: vec![],
            init: tbi_init,
        },
    ]
}

/// FNV-1a, 64-bit, over little-endian words.
fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line per case and start: `case start samples digest`. Start `s`
/// of 5 puts every random quantity at fraction `s/4` of its range.
fn render() -> String {
    let mut out = String::new();
    let mut ws = OdeScratch::new();
    for case in cases() {
        for s in 0..5 {
            let at = |(lo, hi): (f64, f64)| lo + (hi - lo) * f64::from(s) / 4.0;
            let mut env = vec![0.0; case.ode.env_len()];
            for &(slot, range) in &case.params {
                env[slot] = at(range);
            }
            let y0: Vec<f64> = case.init.iter().map(|&r| at(r)).collect();
            let mut digest = 0xcbf2_9ce4_8422_2325;
            let mut samples = 0usize;
            integrator()
                .integrate_streaming(
                    &case.ode,
                    &env,
                    &y0,
                    (0.0, case.t_end),
                    &mut ws,
                    |t, y, dy| {
                        digest = fnv(digest, t.to_bits());
                        for v in y.iter().chain(dy) {
                            digest = fnv(digest, v.to_bits());
                        }
                        samples += 1;
                        StepControl::Continue
                    },
                )
                .unwrap();
            let _ = writeln!(out, "{} {s} {samples} {digest:016x}", case.name);
        }
    }
    out
}

#[test]
fn case_study_trajectories_match_the_pinned_bits() {
    let got = render();
    for (g, w) in got.lines().zip(PINNED.lines()) {
        assert_eq!(g, w, "drifted from fixtures/trajectory_bits.txt");
    }
    assert_eq!(got, PINNED);
}
