//! Property tests: validated tubes always contain numeric solutions; the
//! adaptive integrator matches closed forms on random linear systems;
//! and lockstep lanes reproduce the scalar integrator bit-for-bit.

use biocheck_expr::Context;
use biocheck_interval::{IBox, Interval};
use biocheck_ode::{
    CompiledOde, DormandPrince, LaneDriver, OdeError, OdeScratch, OdeSystem, StepControl,
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
/// exceeds `stop_above`.
struct Recorder {
    starts: Vec<(Vec<f64>, Vec<f64>)>,
    stop_above: f64,
    next: usize,
    held: Vec<usize>,
    streams: Vec<Stream>,
    ends: Vec<Option<Result<StreamEnd, OdeError>>>,
}

impl LaneDriver for Recorder {
    fn load(&mut self, lane: usize) -> Option<(&[f64], &[f64])> {
        let (env, y0) = self.starts.get(self.next)?;
        self.held[lane] = self.next;
        self.next += 1;
        Some((env, y0))
    }

    fn sink(&mut self, lane: usize, t: f64, y: &[f64], dy: &[f64]) -> StepControl {
        self.streams[self.held[lane]].push((t.to_bits(), bits(y), bits(dy)));
        if y[0] > self.stop_above {
            StepControl::Stop
        } else {
            StepControl::Continue
        }
    }

    fn finish(&mut self, lane: usize, end: Result<StreamEnd, OdeError>) {
        let slot = &mut self.ends[self.held[lane]];
        assert!(slot.is_none(), "a trajectory ends once");
        *slot = Some(end);
    }
}

/// Runs `starts` through `K` lanes and through the scalar integrator,
/// and asserts equal streams and ends for every trajectory.
fn assert_lanes_equal_scalar<const K: usize>(
    ode: &CompiledOde,
    starts: &[(Vec<f64>, Vec<f64>)],
    t_end: f64,
    stop_above: f64,
) -> Result<(), TestCaseError> {
    let dp = DormandPrince::with_tolerances(1e-6, 1e-8);
    let mut rec = Recorder {
        starts: starts.to_vec(),
        stop_above,
        next: 0,
        held: vec![0; K],
        streams: vec![Vec::new(); starts.len()],
        ends: vec![None; starts.len()],
    };
    let mut ws = OdeScratch::new();
    dp.integrate_lanes::<K>(ode, (0.0, t_end), &mut ws, &mut rec);
    prop_assert_eq!(rec.next, starts.len(), "every trajectory loaded");
    for (i, (env, y0)) in starts.iter().enumerate() {
        let mut stream = Stream::new();
        let end = dp.integrate_streaming(ode, env, y0, (0.0, t_end), &mut ws, |t, y, dy| {
            stream.push((t.to_bits(), bits(y), bits(dy)));
            if y[0] > stop_above {
                StepControl::Stop
            } else {
                StepControl::Continue
            }
        });
        prop_assert!(rec.streams[i] == stream, "trajectory {} streams differ", i);
        let lane_end = rec.ends[i].as_ref().expect("every trajectory ends");
        prop_assert_eq!(end_bits(lane_end), end_bits(&end), "trajectory {}", i);
    }
    Ok(())
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
        let horizon = theta / c + 1.0;
        let (_, hit) = ode
            .integrate_with_events(&cx, &[0.0], &[0.0], (0.0, horizon), &[guard], 1e-10)
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

    /// Lockstep lanes equal the scalar integrator, sample for sample and
    /// end for end: trajectories that blow up (x' = x² from x₀ > ½ over
    /// a horizon of 2) next to ones that finish or stop early, on a
    /// time-reading right-hand side with a per-trajectory parameter, at
    /// lane counts that leave lanes parked and refill them.
    #[test]
    fn lanes_equal_scalar_integration(
        starts in proptest::collection::vec((0.1..0.9f64, 0.5..2.0f64), 0..20),
        stop_above in 1.0..4.0f64,
    ) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let t = cx.intern_var("t");
        let _k = cx.intern_var("k");
        let blowup = cx.parse("x^2").unwrap();
        let blowup = OdeSystem::new(vec![x], vec![blowup]).compile(&cx);
        let forced = cx.parse("-k*x + sin(3*t)").unwrap();
        let forced = OdeSystem::with_time(vec![x], vec![forced], t).compile(&cx);
        let runs: Vec<(Vec<f64>, Vec<f64>)> = starts
            .iter()
            .map(|&(x0, k)| (vec![0.0, 0.0, k], vec![x0]))
            .collect();
        for (ode, stop) in [(&blowup, f64::INFINITY), (&blowup, stop_above), (&forced, 0.5)] {
            assert_lanes_equal_scalar::<8>(ode, &runs, 2.0, stop)?;
            assert_lanes_equal_scalar::<3>(ode, &runs, 2.0, stop)?;
        }
    }
}
