//! Property tests: the fused simulate-and-monitor sample body
//! (streaming monitor, early termination, scratch reuse) reproduces the
//! offline integrate-then-monitor reference exactly; a query's lockstep
//! lane stream reproduces the scalar per-index samples bit-for-bit, also
//! when several workers sample it together; and an adaptive stream runs
//! at most `samplers × LANES` samples past its decision. (`biocheck_engine`'s `tests/equiv.rs` holds every query
//! method run through lane streams to the `seq_*` references.)

use biocheck_bltl::Bltl;
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_models::{cardiac, prostate, radiation};
use biocheck_ode::OdeSystem;
use biocheck_smc::{
    fork_rng, seq_bayes_estimate, seq_sprt, BayesState, Dist, SampleStats, SprtOutcome, SprtState,
    TraceSampler, LANES,
};
use proptest::prelude::*;

/// Decay from x₀ ~ U[0.5, 1.5]; F≤0.01 (x ≥ 1) holds iff x₀ ≥ ~1 ⇒ p ≈ ½.
fn threshold_sampler() -> TraceSampler {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("-x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("x - 1").unwrap();
    let prop = Bltl::eventually(0.01, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    TraceSampler::new(cx, &sys, vec![Dist::Uniform(0.5, 1.5)], vec![], prop, 0.01)
}

/// Exercises the early-*False* path: G≤4 (x ≤ 60) over exponential
/// growth from x₀ ~ U[0.5, 1.5] — x(4) ≈ 54.6·x₀, so trajectories with
/// x₀ ≳ 1.1 cross the threshold mid-horizon and the streaming verdict
/// decides False early, while the rest run to the end (p ≈ 0.6).
fn globally_sampler() -> TraceSampler {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("60 - x").unwrap();
    let prop = Bltl::globally(4.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    TraceSampler::new(cx, &sys, vec![Dist::Uniform(0.5, 1.5)], vec![], prop, 4.0)
}

/// x' = x² blows up at t = 1/x₀: over a horizon of 2, draws with
/// x₀ > ½ fail to integrate while their neighbours finish. The property
/// never decides early, so every trajectory runs until it ends or fails.
fn blowup_sampler() -> TraceSampler {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let rhs = cx.parse("x^2").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let e = cx.parse("-1 - x").unwrap();
    let prop = Bltl::eventually(2.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    TraceSampler::new(cx, &sys, vec![Dist::Uniform(0.1, 0.9)], vec![], prop, 2.0)
}

/// A forced, non-autonomous system: the right-hand side reads the time
/// variable and a randomized rate parameter.
fn forced_sampler() -> TraceSampler {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let t = cx.intern_var("t");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x + sin(3*t)").unwrap();
    let sys = OdeSystem::with_time(vec![x], vec![rhs], t);
    let e = cx.parse("x - 0.3").unwrap();
    let prop = Bltl::globally(3.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
    TraceSampler::new(
        cx,
        &sys,
        vec![Dist::Uniform(0.2, 1.2)],
        vec![(k, Dist::Uniform(0.5, 2.0))],
        prop,
        3.0,
    )
}

/// The three case studies with the benchmark's properties: prostate CAS
/// keeps PSA under 18, the Fenton–Karma cell fires under a random
/// stimulus, the untreated radiation cell commits to RIP3.
fn case_study_samplers() -> Vec<TraceSampler> {
    let mut m = prostate::cas_model(&prostate::PatientParams::default());
    let psa_ok = m.cx.parse("18 - (x + y)").unwrap();
    let prostate = TraceSampler::new(
        m.cx,
        &m.sys,
        vec![
            Dist::Uniform(10.0, 20.0),
            Dist::Uniform(0.05, 0.2),
            Dist::Uniform(10.0, 14.0),
        ],
        vec![],
        Bltl::globally(100.0, Bltl::Prop(Atom::new(psa_ok, RelOp::Ge))),
        100.0,
    );
    let mut m = cardiac::fenton_karma();
    let stim = m.cx.var_id("I_stim").unwrap();
    let fires = m.cx.parse("u - 0.8").unwrap();
    let cardiac = TraceSampler::new(
        m.cx,
        &m.sys,
        vec![
            Dist::Uniform(0.0, 0.05),
            Dist::Uniform(0.9, 1.0),
            Dist::Uniform(0.9, 1.0),
        ],
        vec![(stim, Dist::Uniform(0.0, 0.4))],
        Bltl::eventually(30.0, Bltl::Prop(Atom::new(fires, RelOp::Ge))),
        30.0,
    );
    let ha = radiation::tbi_automaton();
    let live = ha.mode_by_name("0").unwrap();
    let sys = OdeSystem::new(ha.states.clone(), ha.modes[live].rhs.clone());
    let mut cx = ha.cx.clone();
    let committed = cx.parse("rip3 - 1").unwrap();
    let mut init: Vec<Dist> = radiation::tbi_init().into_iter().map(Dist::Point).collect();
    init[0] = Dist::Uniform(0.1, 0.3);
    let radiation = TraceSampler::new(
        cx,
        &sys,
        init,
        vec![],
        Bltl::eventually(20.0, Bltl::Prop(Atom::new(committed, RelOp::Ge))),
        20.0,
    );
    vec![prostate, cardiac, radiation]
}

/// Stream lengths that exercise the lane bookkeeping: empty, one
/// sample, three (below four, so one lane refilled index by index),
/// five, fewer samples than lanes, exactly one fill, and not a multiple
/// of it.
const RANGE_LENS: [usize; 7] = [0, 1, 3, 5, LANES - 3, LANES, 2 * LANES + 5];

/// What the rules of a stats and a robustness stream received.
type Samples = (Vec<SampleStats>, Vec<(bool, f64)>);

/// Samples `0..len` of both outcome kinds, in the order the rules of a
/// stats and a robustness stream received them, with `workers` threads
/// joining each stream (`0`: the calling thread alone).
fn stream_samples(
    s: &TraceSampler,
    seed: u64,
    len: usize,
    workers: usize,
) -> Result<Samples, TestCaseError> {
    let (mut got, mut got_rob) = (Vec::new(), Vec::new());
    let stats = s.stats_stream(seed, len, |st| {
        got.push(st);
        false
    });
    let robust = s.robustness_stream(seed, len, |r| {
        got_rob.push(r);
        false
    });
    if workers == 0 {
        stats.join();
        robust.join();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    stats.join();
                    robust.join();
                });
            }
        });
    }
    prop_assert_eq!((stats.claimed(), stats.consumed()), (len, len));
    prop_assert_eq!((robust.claimed(), robust.consumed()), (len, len));
    drop((stats, robust));
    Ok((got, got_rob))
}

/// Asserts that a lane stream on the calling thread hands its rule the
/// scalar per-index samples over `0..len` bit-for-bit, for both outcome
/// kinds.
fn assert_stream_equals_scalar(
    s: &TraceSampler,
    seed: u64,
    len: usize,
) -> Result<(), TestCaseError> {
    let (stats, robust) = stream_samples(s, seed, len, 0)?;
    let mut scalar = s.scratch();
    for (i, (st, &(sat, rob))) in stats.iter().zip(&robust).enumerate() {
        let i = i as u64;
        let want = s.sample_stats_with(&mut fork_rng(seed, i), &mut scalar);
        prop_assert_eq!(*st, want, "seed {} sample {}", seed, i);
        let (want_sat, want_rob) = s.sample_robustness_with(&mut fork_rng(seed, i), &mut scalar);
        prop_assert_eq!(sat, want_sat, "seed {} sample {}", seed, i);
        prop_assert!(
            rob.to_bits() == want_rob.to_bits(),
            "seed {seed} sample {i}: lanes rob {rob} vs scalar {want_rob}"
        );
    }
    Ok(())
}

/// Asserts that `workers` threads joining one lane stream hand its rule
/// exactly what one sampler over `0..len` does, in index order,
/// whichever thread claims which index.
fn assert_shared_stream_equals_one_sampler(
    s: &TraceSampler,
    seed: u64,
    len: usize,
    workers: usize,
) -> Result<(), TestCaseError> {
    let (want, want_rob) = stream_samples(s, seed, len, 0)?;
    let (got, got_rob) = stream_samples(s, seed, len, workers)?;
    prop_assert_eq!(&got, &want, "seed {} len {}", seed, len);
    prop_assert_eq!(got_rob.len(), len);
    for (j, (g, w)) in got_rob.iter().zip(&want_rob).enumerate() {
        prop_assert!(
            g.0 == w.0 && g.1.to_bits() == w.1.to_bits(),
            "seed {seed} sample {j}: shared {g:?} vs one sampler {w:?}"
        );
    }
    Ok(())
}

/// Runs an SPRT and a Bayes rule through adaptive streams joined by
/// `workers` threads: each equals its sequential reference, and neither
/// claims more than `samplers × LANES` indices past its decision.
fn assert_adaptive_speculation_is_bounded(
    s: &TraceSampler,
    seed: u64,
    theta: f64,
    workers: usize,
) -> Result<(), TestCaseError> {
    let max = 3_000;
    let mut sprt = SprtState::new(theta, 0.05, 0.01, 0.01);
    let mut sprt_decision = None;
    let mut bayes = BayesState::new(0.08, 0.9);
    let mut bayes_decision = None;
    let sprt_stream = s
        .stats_stream(seed, max, |st| {
            sprt_decision = sprt.push(st.sat);
            sprt_decision.is_some()
        })
        .adaptive();
    let bayes_stream = s
        .stats_stream(seed, max, |st| {
            bayes_decision = bayes.push(st.sat);
            bayes_decision.is_some()
        })
        .adaptive();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                sprt_stream.join();
                bayes_stream.join();
            });
        }
    });
    let counts = [
        (
            "sprt",
            sprt_stream.claimed(),
            sprt_stream.consumed(),
            sprt_stream.samplers(),
        ),
        (
            "bayes",
            bayes_stream.claimed(),
            bayes_stream.consumed(),
            bayes_stream.samplers(),
        ),
    ];
    for (what, claimed, consumed, samplers) in counts {
        prop_assert!(consumed < max, "{} decides before its cap", what);
        prop_assert!(
            claimed <= consumed + samplers * LANES,
            "{what}: {claimed} claimed for {consumed} consumed by {samplers} samplers"
        );
    }
    drop((sprt_stream, bayes_stream));
    let got = sprt.result(sprt_decision.unwrap_or(SprtOutcome::Inconclusive));
    let want = seq_sprt(s, seed, theta, 0.05, 0.01, 0.01, max);
    prop_assert_eq!((got.outcome, got.samples), (want.outcome, want.samples));
    let got = bayes_decision.unwrap_or_else(|| bayes.finish());
    let want = seq_bayes_estimate(s, seed, 0.08, 0.9, max);
    prop_assert_eq!(got.samples, want.samples);
    prop_assert!(got.p_hat.to_bits() == want.p_hat.to_bits());
    Ok(())
}

/// A sampler that panics halts its stream: the other samplers of an
/// adaptive stream stop instead of waiting for the samples the
/// panicking sampler's lanes held, and the panic reaches the caller.
#[test]
fn a_panicking_sampler_halts_its_stream() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let s = globally_sampler();
        let claims = AtomicUsize::new(0);
        let poll = || {
            assert!(claims.fetch_add(1, Ordering::Relaxed) != 40, "poll fault");
            false
        };
        let stream = s
            .stats_stream(7, 100_000, |_| false)
            .adaptive()
            .until(&poll);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| stream.join());
                }
            })
        }));
        let _ = done.send((run.is_err(), stream.consumed()));
    });
    let (panicked, consumed) = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the other sampler stops once the stream halts");
    assert!(panicked, "the sampler's panic reaches the caller");
    assert!(consumed < 100_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_sampling_equals_offline_reference(seed in 0..u64::MAX / 2, n in 1..40u64) {
        // The fused path (streaming monitor + early termination + scratch
        // reuse) must reproduce the offline integrate-then-monitor
        // pipeline exactly: same verdicts, same robustness bits, for the
        // same per-index RNG streams — on both an early-True and an
        // early-False property. (Both samplers' ODEs integrate cleanly
        // over the whole horizon for every drawable instantiation, so
        // the documented blow-up-after-decision divergence cannot occur
        // here.)
        for s in [threshold_sampler(), globally_sampler()] {
            let mut scratch = s.scratch();
            for i in 0..n {
                let (sat_off, rob_off) = s.sample_offline(&mut fork_rng(seed, i));
                let sat = s.sample_with(&mut fork_rng(seed, i), &mut scratch);
                prop_assert_eq!(sat, sat_off, "seed {} sample {}", seed, i);
                let (sat_r, rob) = s.sample_robustness_with(&mut fork_rng(seed, i), &mut scratch);
                prop_assert_eq!(sat_r, sat_off, "seed {} sample {}", seed, i);
                prop_assert!(rob.to_bits() == rob_off.to_bits(),
                    "seed {seed} sample {i}: fused rob {rob} vs offline {rob_off}");
            }
        }
    }

    #[test]
    fn early_termination_actually_triggers(seed in 0..u64::MAX / 2) {
        // Sanity that the speedup lever is real: on the threshold
        // sampler every satisfied sample decides True at the very first
        // step, and on the globally sampler every violated sample stops
        // before the horizon.
        let s = threshold_sampler();
        let mut scratch = s.scratch();
        let mut early = 0usize;
        for i in 0..24 {
            let st = s.sample_stats_with(&mut fork_rng(seed, i), &mut scratch);
            prop_assert_eq!(st.sat, st.early_stop && st.steps == 1,
                "sat iff decided at the initial sample");
            early += st.early_stop as usize;
        }
        let g = globally_sampler();
        for i in 0..24 {
            let st = g.sample_stats_with(&mut fork_rng(seed, i), &mut scratch);
            prop_assert_eq!(!st.sat, st.early_stop, "violations stop early");
            early += st.early_stop as usize;
        }
        prop_assert!(early > 0, "48 draws at p ≈ ½ should stop early sometimes");
    }

    #[test]
    fn lockstep_ranges_equal_scalar_samples(
        seed in 0..u64::MAX / 2,
        len in 0..3 * LANES,
    ) {
        // Decided at the first sample, decided mid-horizon, blow-ups
        // next to finishing lanes, and a time-reading RHS.
        let toy = [threshold_sampler(), globally_sampler(), blowup_sampler(), forced_sampler()];
        for s in &toy {
            for l in RANGE_LENS.into_iter().chain([len]) {
                assert_stream_equals_scalar(s, seed, l)?;
            }
        }
        for s in &case_study_samplers() {
            assert_stream_equals_scalar(s, seed, len)?;
        }
    }

    #[test]
    fn shared_stream_equals_one_range_call(
        seed in 0..u64::MAX / 2,
        len in 0..6 * LANES,
        workers in 1..4usize,
    ) {
        let toy = [threshold_sampler(), globally_sampler(), blowup_sampler(), forced_sampler()];
        for s in toy.iter().chain(&case_study_samplers()) {
            assert_shared_stream_equals_one_sampler(s, seed, len, workers)?;
        }
    }

    #[test]
    fn adaptive_streams_speculate_at_most_a_lane_fill_per_sampler(
        seed in 0..u64::MAX / 2,
        workers in 1..4usize,
    ) {
        // p ≈ ½ on the toy samplers; the case studies at the benchmark's
        // SPRT thresholds (prostate ≈ 0.48, cardiac ≈ 0.92, radiation 1).
        assert_adaptive_speculation_is_bounded(&threshold_sampler(), seed, 0.8, workers)?;
        assert_adaptive_speculation_is_bounded(&globally_sampler(), seed, 0.3, workers)?;
        let studies = case_study_samplers();
        for (s, theta) in studies.iter().zip([0.4, 0.85, 0.9]) {
            assert_adaptive_speculation_is_bounded(s, seed, theta, workers)?;
        }
    }

    #[test]
    fn blowup_ranges_mix_failed_and_finished_lanes(seed in 0..u64::MAX / 2) {
        // The mixed-lane case above must really occur: some lanes fail
        // (robustness −∞) while others in the same fill finish.
        let s = blowup_sampler();
        let mut robust = Vec::new();
        s.robustness_stream(seed, 2 * LANES, |r| {
            robust.push(r);
            false
        })
        .join();
        prop_assert_eq!(robust.len(), 2 * LANES);
        prop_assert!(robust.iter().any(|r| r.1 == f64::NEG_INFINITY));
        prop_assert!(robust.iter().any(|r| r.1.is_finite()));
    }
}
