//! Property tests: validated tubes always contain numeric solutions; the
//! adaptive integrator matches closed forms on random linear systems;
//! and lockstep lanes and the streaming entry point both reproduce an
//! independent scalar Dormand–Prince loop bit-for-bit.

use biocheck_expr::{Context, EvalScratch, Program};
use biocheck_interval::{IBox, Interval};
use biocheck_ode::{
    CompiledOde, DormandPrince, LaneDriver, Load, OdeError, OdeScratch, OdeSystem, StepControl,
    StreamEnd, ValidatedOde,
};
use proptest::prelude::*;

/// One trajectory's accepted `(t, y, dy)` samples, as bits.
type Stream = Vec<(u64, Vec<u64>, Vec<u64>)>;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A trajectory's end, as bits: `Ok((t, steps, stopped_early))` or the
/// error with its time.
fn end_bits(end: &Result<StreamEnd, OdeError>) -> Result<(u64, usize, bool), String> {
    match end {
        Ok(e) => Ok((e.t.to_bits(), e.steps, e.stopped_early)),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Drives lanes through a list of `(env, y0)` starts, records each
/// trajectory's stream and end, and stops a trajectory once `y[0]`
/// exceeds `stop_above`. With `later_every = n > 0`, every `n`-th load
/// is answered [`Load::Later`], as a driver waiting on other threads
/// does.
struct Recorder {
    starts: Vec<(Vec<f64>, Vec<f64>)>,
    stop_above: f64,
    later_every: usize,
    loads: usize,
    next: usize,
    held: Vec<usize>,
    streams: Vec<Stream>,
    ends: Vec<Option<Result<StreamEnd, OdeError>>>,
}

impl<const K: usize> LaneDriver<K> for Recorder {
    fn load(&mut self, lane: usize) -> Load<'_> {
        self.loads += 1;
        if self.later_every > 0 && self.loads.is_multiple_of(self.later_every) {
            return Load::Later;
        }
        let Some((env, y0)) = self.starts.get(self.next) else {
            return Load::Done;
        };
        self.held[lane] = self.next;
        self.next += 1;
        Load::Start(env, y0)
    }

    fn sink(
        &mut self,
        accepted: &[bool; K],
        t: &[f64; K],
        y: &[[f64; K]],
        dy: &[[f64; K]],
    ) -> [StepControl; K] {
        let mut control = [StepControl::Continue; K];
        for l in (0..K).filter(|&l| accepted[l]) {
            let column = |rows: &[[f64; K]]| rows.iter().map(|r| r[l].to_bits()).collect();
            self.streams[self.held[l]].push((t[l].to_bits(), column(y), column(dy)));
            if y[0][l] > self.stop_above {
                control[l] = StepControl::Stop;
            }
        }
        control
    }

    fn finish(&mut self, lane: usize, end: Result<StreamEnd, OdeError>) {
        let slot = &mut self.ends[self.held[lane]];
        assert!(slot.is_none(), "a trajectory ends once");
        *slot = Some(end);
    }
}

// Dormand–Prince 5(4) tableau, written out independently of the
// integrator's own copy.
const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const A: [[f64; 6]; 7] = [
    [0.0; 6],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// One reference run: the accepted samples, the end, and how many times
/// a non-finite error estimate forced a retry from a re-evaluated k1.
type Reference = (Stream, Result<StreamEnd, OdeError>, usize);

/// A plain scalar Dormand–Prince 5(4) loop with FSAL, `dp`'s tolerances
/// and step control, and a sink that stops once `y[0] > stop_above`: the
/// oracle for every lane and for the streaming entry point. Each sum
/// starts from 0.0 and runs in stage order.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn reference_dopri(
    dp: &DormandPrince,
    ode: &CompiledOde,
    env: &[f64],
    y0: &[f64],
    (t0, t_end): (f64, f64),
    stop_above: f64,
) -> Reference {
    let n = y0.len();
    let mut env = env.to_vec();
    env.resize(ode.env_len(), 0.0);
    let mut scratch = EvalScratch::new();
    let mut f =
        |t: f64, y: &[f64], out: &mut [f64]| ode.deriv_with(&mut env, y, t, out, &mut scratch);
    let mut stream = Stream::new();
    let mut retries = 0;
    let mut y = y0.to_vec();
    let mut k = vec![vec![0.0; n]; 7];
    let mut t = t0;
    f(t, &y, &mut k[0]);
    if k[0].iter().any(|v| !v.is_finite()) {
        return (stream, Err(OdeError::NonFinite { t }), retries);
    }
    let mut h = dp.h0.unwrap_or_else(|| {
        let span = (t_end - t0).max(1e-12);
        (span / 100.0).min(dp.h_max).max(dp.h_min * 10.0)
    });
    let end = |stream: &Stream, t: f64, stopped_early: bool| StreamEnd {
        t,
        steps: stream.len(),
        stopped_early,
    };
    stream.push((t.to_bits(), bits(&y), bits(&k[0])));
    if y[0] > stop_above {
        return (stream.clone(), Ok(end(&stream, t, true)), retries);
    }
    let mut attempts = 0;
    let mut refresh_k1 = false;
    loop {
        if !(t < t_end) || t_end - t <= 1e-13 * (1.0 + t_end.abs()) {
            let e = end(&stream, t, false);
            return (stream, Ok(e), retries);
        }
        attempts += 1;
        if attempts > dp.max_steps {
            return (stream, Err(OdeError::TooManySteps { t }), retries);
        }
        h = h.min(t_end - t).min(dp.h_max);
        if h < dp.h_min {
            return (stream, Err(OdeError::StepUnderflow { t }), retries);
        }
        if refresh_k1 {
            f(t, &y, &mut k[0]);
            refresh_k1 = false;
        }
        let mut ys = vec![0.0; n];
        for s in 1..7 {
            for (i, yi) in ys.iter_mut().enumerate() {
                let mut acc = 0.0;
                for j in 0..s {
                    acc += A[s][j] * k[j][i];
                }
                *yi = y[i] + h * acc;
            }
            f(t + C[s] * h, &ys, &mut k[s]);
        }
        let mut y5 = vec![0.0; n];
        let mut err: f64 = 0.0;
        for i in 0..n {
            let mut s5 = 0.0;
            let mut s4 = 0.0;
            for j in 0..7 {
                s5 += B5[j] * k[j][i];
                s4 += B4[j] * k[j][i];
            }
            y5[i] = y[i] + h * s5;
            let sc = dp.atol + dp.rtol * y[i].abs().max(y5[i].abs());
            let e = h * (s5 - s4) / sc;
            err += e * e;
        }
        let err = (err / n as f64).sqrt();
        if !err.is_finite() {
            retries += 1;
            h *= 0.25;
            if h < dp.h_min {
                return (stream, Err(OdeError::NonFinite { t }), retries);
            }
            refresh_k1 = true;
            continue;
        }
        if err <= 1.0 {
            t += h;
            y = y5;
            k[0] = k[6].clone();
            stream.push((t.to_bits(), bits(&y), bits(&k[0])));
            if y[0] > stop_above {
                let e = end(&stream, t, true);
                return (stream, Ok(e), retries);
            }
        }
        let factor = if err == 0.0 {
            5.0
        } else {
            (0.9 * err.powf(-0.2)).clamp(0.2, 5.0)
        };
        h *= factor;
    }
}

/// Runs `starts` through `K` lanes, through the streaming entry point
/// and through the reference loop, asserts equal streams and ends for
/// every trajectory, and returns the reference's retry count. The lanes
/// run twice: once loading whenever a lane is free, and once through a
/// driver that sometimes answers [`Load::Later`], re-entered whenever
/// every lane waited.
fn assert_lanes_equal_scalar<const K: usize>(
    ode: &CompiledOde,
    starts: &[(Vec<f64>, Vec<f64>)],
    tspan: (f64, f64),
    stop_above: f64,
) -> Result<usize, TestCaseError> {
    let dp = DormandPrince::with_tolerances(1e-6, 1e-8);
    let mut ws = OdeScratch::new();
    let mut recs = Vec::new();
    for later_every in [0, 3] {
        let mut rec = Recorder {
            starts: starts.to_vec(),
            stop_above,
            later_every,
            loads: 0,
            next: 0,
            held: vec![0; K],
            streams: vec![Vec::new(); starts.len()],
            ends: vec![None; starts.len()],
        };
        dp.integrate_lanes::<K>(ode, tspan, &mut ws, &mut rec);
        while rec.ends.iter().any(Option::is_none) {
            prop_assert!(
                later_every > 0,
                "a driver that never waits is done in one call"
            );
            dp.integrate_lanes::<K>(ode, tspan, &mut ws, &mut rec);
        }
        prop_assert_eq!(rec.next, starts.len(), "every trajectory loaded");
        recs.push(rec);
    }
    let mut retries = 0;
    for (i, (env, y0)) in starts.iter().enumerate() {
        let (want, want_end, r) = reference_dopri(&dp, ode, env, y0, tspan, stop_above);
        retries += r;
        let mut stream = Stream::new();
        let end = dp.integrate_streaming(ode, env, y0, tspan, &mut ws, |t, y, dy| {
            stream.push((t.to_bits(), bits(y), bits(dy)));
            if y[0] > stop_above {
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        });
        prop_assert!(stream == want, "trajectory {}: streaming differs", i);
        prop_assert_eq!(end_bits(&end), end_bits(&want_end), "trajectory {}", i);
        for rec in &recs {
            prop_assert!(rec.streams[i] == want, "trajectory {}: lane differs", i);
            let lane_end = rec.ends[i].as_ref().expect("every trajectory ends");
            prop_assert_eq!(end_bits(lane_end), end_bits(&want_end), "trajectory {}", i);
        }
    }
    Ok(retries)
}

/// `x' = x²` (blows up), `x' = -k·x + sin(3t)` (reads time and a
/// per-trajectory parameter `k`) and a right-hand side with every other
/// instruction kind, compiled over one context whose environment is
/// `[x, t, k]`.
fn blowup_forced_and_every_opcode() -> (CompiledOde, CompiledOde, CompiledOde) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let t = cx.intern_var("t");
    let _k = cx.intern_var("k");
    let blowup = cx.parse("x^2").unwrap();
    let blowup = OdeSystem::new(vec![x], vec![blowup]).compile(&cx);
    let forced = cx.parse("-k*x + sin(3*t)").unwrap();
    let forced = OdeSystem::with_time(vec![x], vec![forced], t).compile(&cx);
    // Div, min, max, abs, sqrt, an integer power, `Pow` with a constant
    // and with a parameter exponent, exp, ln of a positive term, tanh,
    // and `a*b + c`-shaped pairs the compiler fuses. Damped near the
    // origin, the `x^3` term blows up from starts beyond about ±10, and
    // a start of 1e150 overflows at once.
    let every = cx
        .parse(
            "0.2*x^3 / (1 + abs(x)) - 4*x + min(x, k) - max(0 - x, 0.5*k) \
             + 0.1*sqrt(1 + abs(x)) + 0.2*exp(0 - x^2) + 0.05*ln(1 + x^2) \
             + 0.3*tanh(3*t - x) + 0.01*abs(x)^1.5 - (1 + abs(x))^(0.1*k)",
        )
        .unwrap();
    let every = OdeSystem::with_time(vec![x], vec![every], t).compile(&cx);
    (blowup, forced, every)
}

/// The oracle's edge cases, at 16 and 8 lanes with refills and at one: the
/// non-finite retry (a start so large that the first trial step
/// overflows), blow-ups that end in an error, a time-dependent
/// right-hand side, one with every instruction kind, a sink that stops
/// on the first sample, and a span with `t_end == t0`.
#[test]
fn lanes_and_streaming_match_an_independent_dopri() {
    let (blowup, forced, every) = blowup_forced_and_every_opcode();
    let runs: Vec<(Vec<f64>, Vec<f64>)> = [
        0.3, 0.6, 0.95, 1e150, 2.0, 0.1, 1e150, 0.8, 0.5, 1.2, 0.7, -3.0, 60.0, 1e30,
    ]
    .iter()
    .enumerate()
    .map(|(i, &x0)| (vec![0.0, 0.0, 0.5 + i as f64 * 0.1], vec![x0]))
    .collect();
    let mut retries = 0;
    for (ode, tspan, stop) in [
        (&blowup, (0.0, 2.0), f64::INFINITY),
        (&blowup, (0.0, 2.0), 3.0),
        (&forced, (0.0, 2.0), 0.9),
        (&forced, (0.0, 2.0), f64::NEG_INFINITY),
        (&forced, (1.5, 1.5), f64::INFINITY),
        (&blowup, (0.0, 0.0), 3.0),
        (&every, (0.0, 2.0), f64::INFINITY),
        (&every, (0.0, 2.0), 1.5),
        (&every, (0.0, 2.0), f64::NEG_INFINITY),
    ] {
        retries += assert_lanes_equal_scalar::<16>(ode, &runs, tspan, stop).unwrap();
        retries += assert_lanes_equal_scalar::<8>(ode, &runs, tspan, stop).unwrap();
        retries += assert_lanes_equal_scalar::<1>(ode, &runs, tspan, stop).unwrap();
    }
    assert!(retries > 0, "the battery takes the non-finite retry");
}

/// The every-opcode right-hand side ends each way a trajectory can on
/// the oracle, so comparing lanes with it covers lanes that go
/// non-finite next to lanes that finish: moderate starts finish, ±60
/// blow up into a step underflow, 1e30 retries non-finite steps until it
/// fails, and 1e150 fails on its first derivative.
#[test]
fn every_opcode_rhs_finishes_and_fails() {
    let (_, _, every) = blowup_forced_and_every_opcode();
    let dp = DormandPrince::with_tolerances(1e-6, 1e-8);
    let run = |x0: f64| {
        reference_dopri(
            &dp,
            &every,
            &[0.0, 0.0, 1.0],
            &[x0],
            (0.0, 2.0),
            f64::INFINITY,
        )
    };
    for x0 in [0.3, -3.0, 4.0] {
        let (_, end, _) = run(x0);
        assert!(matches!(end, Ok(e) if e.t == 2.0), "{x0}: {end:?}");
    }
    for x0 in [60.0, -60.0] {
        let (_, end, _) = run(x0);
        assert!(
            matches!(end, Err(OdeError::StepUnderflow { .. })),
            "{x0}: {end:?}"
        );
    }
    let (_, end, retries) = run(1e30);
    assert!(
        matches!(end, Err(OdeError::NonFinite { .. })) && retries > 0,
        "{end:?}"
    );
    let (stream, end, _) = run(1e150);
    assert!(stream.is_empty() && matches!(end, Err(OdeError::NonFinite { t: 0.0 })));
}

/// A start for the lane properties: mostly moderate, sometimes one that
/// overflows the first trial step or the right-hand side at once.
fn start() -> BoxedStrategy<f64> {
    prop_oneof![0.1..0.9f64, 0.1..0.9f64, 0.9..5.0f64, Just(1e150)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// dx/dt = a·x has solution x0·e^{a·t}; DoPri must match to tolerance.
    #[test]
    fn dopri_matches_linear_closed_form(a in -2.0..0.5f64, x0 in 0.1..3.0f64, t_end in 0.1..3.0f64) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse(&format!("{a} * x")).unwrap();
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        let tr = DormandPrince::default()
            .integrate(&ode, &[0.0], &[x0], (0.0, t_end))
            .unwrap();
        let want = x0 * (a * t_end).exp();
        prop_assert!((tr.last_state()[0] - want).abs() < 1e-6 * (1.0 + want.abs()));
    }

    /// The validated tube from a box of initial states contains the
    /// numeric trajectory of every sampled member, at every step end.
    #[test]
    fn tube_contains_members(
        a in -1.5..-0.1f64,
        b in -0.5..0.5f64,
        lo in 0.4..0.8f64,
        w in 0.0..0.4f64,
        frac in 0.0..1.0f64,
    ) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let y = cx.intern_var("y");
        // Dissipative coupled system.
        let r1 = cx.parse(&format!("{a}*x + {b}*y")).unwrap();
        let r2 = cx.parse(&format!("{b}*x + {a}*y - 0.1*y^3")).unwrap();
        let sys = OdeSystem::new(vec![x, y], vec![r1, r2]);
        let vo = ValidatedOde::new(&mut cx, &sys);
        let co = sys.compile(&cx);
        let y0_box = IBox::new(vec![
            Interval::new(lo, lo + w),
            Interval::new(-0.2, 0.2),
        ]);
        let env = IBox::uniform(cx.num_vars(), Interval::ZERO);
        let tube = vo.flow(&env, &y0_box, 1.0).unwrap();
        // Pick one member of the initial box.
        let p = [lo + frac * w, -0.2 + frac * 0.4];
        let tr = DormandPrince::default()
            .integrate(&co, &[0.0, 0.0], &p, (0.0, tube.duration()))
            .unwrap();
        for s in &tube.steps {
            let state = tr.value_at(s.t1);
            prop_assert!(
                s.end.contains_point(&state),
                "t={}: {:?} outside {:?}", s.t1, state, s.end
            );
        }
    }

    /// Event time for dx/dt = c crossing threshold θ from 0 is θ/c.
    #[test]
    fn event_time_linear(c in 0.2..3.0f64, theta in 0.1..2.0f64) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.constant(c);
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        let guard = cx.parse(&format!("x - {theta}")).unwrap();
        let guards = Program::compile(&cx, &[guard]);
        let horizon = theta / c + 1.0;
        let (_, hit) = ode
            .integrate_with_events(&[0.0], &[0.0], (0.0, horizon), &guards, 1e-10)
            .unwrap();
        let hit = hit.expect("must cross");
        prop_assert!((hit.t - theta / c).abs() < 1e-6);
    }

    /// Hermite interpolation stays within the sample hull for monotone
    /// exponential decay (no spurious oscillation).
    #[test]
    fn interpolation_bounded_on_decay(x0 in 0.5..2.0f64, t_q in 0.0..2.0f64) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let rhs = cx.parse("-x").unwrap();
        let ode = OdeSystem::new(vec![x], vec![rhs]).compile(&cx);
        let tr = DormandPrince::default()
            .integrate(&ode, &[0.0], &[x0], (0.0, 2.0))
            .unwrap();
        let v = tr.value_at(t_q)[0];
        prop_assert!(v <= x0 + 1e-9 && v >= x0 * (-2.0f64).exp() - 1e-9);
        let exact = x0 * (-t_q).exp();
        prop_assert!((v - exact).abs() < 1e-6);
    }

    /// Lockstep lanes and the streaming entry point equal the reference
    /// loop, sample for sample and end for end: trajectories that blow
    /// up (x' = x² from x₀ > ½ over a horizon of 2) next to ones that
    /// finish or stop early, on a time-reading right-hand side with a
    /// per-trajectory parameter, at lane counts that leave lanes idle
    /// and refill them.
    #[test]
    fn lanes_equal_scalar_integration(
        starts in proptest::collection::vec((start(), 0.5..2.0f64), 0..20),
        stop_above in 1.0..4.0f64,
    ) {
        let (blowup, forced, every) = blowup_forced_and_every_opcode();
        let runs: Vec<(Vec<f64>, Vec<f64>)> = starts
            .iter()
            .map(|&(x0, k)| (vec![0.0, 0.0, k], vec![x0]))
            .collect();
        for (ode, stop) in [
            (&blowup, f64::INFINITY),
            (&blowup, stop_above),
            (&forced, 0.5),
            (&every, f64::INFINITY),
            (&every, stop_above),
        ] {
            assert_lanes_equal_scalar::<16>(ode, &runs, (0.0, 2.0), stop)?;
            assert_lanes_equal_scalar::<8>(ode, &runs, (0.0, 2.0), stop)?;
            assert_lanes_equal_scalar::<3>(ode, &runs, (0.0, 2.0), stop)?;
            assert_lanes_equal_scalar::<1>(ode, &runs, (0.0, 2.0), stop)?;
        }
    }
}
