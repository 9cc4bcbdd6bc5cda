//! Property tests: the streaming monitor is *the same function* as the
//! offline one — on random formulas and random traces, the streamed
//! Boolean verdict and robustness equal `Monitor::check` /
//! `Monitor::robustness` bit-for-bit, and any verdict decided on a
//! prefix equals the offline verdict on the full trace (the soundness
//! fact that lets fused SMC stop integrating early). The lane feed
//! monitors ragged lanes exactly as the offline monitor and the scalar
//! feed do, with or without robustness.
//!
//! Most generated formulas have temporal depth one (no `Until` inside
//! an `Until` operand), the shape every case-study property has, so
//! they run on the flat evaluator; the rest are of any depth and mostly
//! run on the arena evaluator. Traces carry NaN states now and then.

use biocheck_bltl::{Bltl, CompiledBltl, Monitor, MonitorScratch, Verdict};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_ode::Trace;
use proptest::prelude::*;

/// A machine-generatable BLTL sketch over one variable `x`.
#[derive(Clone, Debug)]
enum GenF {
    /// `x - c ⋈ 0`.
    Prop(f64, u8),
    Not(Box<GenF>),
    And(Vec<GenF>),
    Or(Vec<GenF>),
    Until(Box<GenF>, Box<GenF>, f64),
}

/// An atom `x - c ⋈ 0` under any of the five relations.
fn gen_prop() -> BoxedStrategy<GenF> {
    (-3.0..3.0f64, 0..5u8).prop_map(|(c, op)| GenF::Prop(c, op))
}

/// Not/And/Or over `inner`.
fn boolean(inner: BoxedStrategy<GenF>) -> BoxedStrategy<GenF> {
    prop_oneof![
        inner.clone().prop_map(|f| GenF::Not(Box::new(f))),
        collection::vec(inner.clone(), 0..4).prop_map(GenF::And),
        collection::vec(inner, 0..4).prop_map(GenF::Or),
    ]
}

/// A formula of any temporal depth up to three.
fn gen_formula() -> BoxedStrategy<GenF> {
    gen_prop().prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| GenF::Not(Box::new(f))),
            collection::vec(inner.clone(), 0..3).prop_map(GenF::And),
            collection::vec(inner.clone(), 0..3).prop_map(GenF::Or),
            (inner.clone(), inner, 0.0..8.0f64).prop_map(|(l, r, b)| GenF::Until(
                Box::new(l),
                Box::new(r),
                b
            )),
        ]
    })
}

/// A formula of temporal depth one: Not/And/Or over atoms and bounded
/// `Until`s whose operands are state formulas. Bounds run from 0 to
/// past the longest trace, so most expire mid-trace.
fn gen_depth_one() -> BoxedStrategy<GenF> {
    let state = gen_prop().prop_recursive(2, 8, 2, boolean);
    let until = (state.clone(), state, 0.0..8.0f64)
        .prop_map(|(l, r, b)| GenF::Until(Box::new(l), Box::new(r), b));
    prop_oneof![until.clone(), until, gen_prop()].prop_recursive(2, 12, 3, boolean)
}

/// Three of four cases have depth one; the fourth has any depth.
fn gen_case() -> BoxedStrategy<GenF> {
    prop_oneof![
        gen_depth_one(),
        gen_depth_one(),
        gen_depth_one(),
        gen_formula()
    ]
}

/// Whether `g` holds an `Until`.
fn temporal(g: &GenF) -> bool {
    match g {
        GenF::Prop(..) => false,
        GenF::Not(f) => temporal(f),
        GenF::And(fs) | GenF::Or(fs) => fs.iter().any(temporal),
        GenF::Until(..) => true,
    }
}

/// Whether no `Until` of `g` has an `Until` in an operand.
fn depth_one(g: &GenF) -> bool {
    match g {
        GenF::Prop(..) => true,
        GenF::Not(f) => depth_one(f),
        GenF::And(fs) | GenF::Or(fs) => fs.iter().all(depth_one),
        GenF::Until(l, r, _) => !temporal(l) && !temporal(r),
    }
}

/// A state value: one in twelve is NaN, which no atom holds on.
fn gen_value() -> BoxedStrategy<f64> {
    (0..12u8, -4.0..4.0f64).prop_map(|(k, v)| if k == 0 { f64::NAN } else { v })
}

fn materialize(cx: &mut Context, g: &GenF) -> Bltl {
    match g {
        GenF::Prop(c, op) => {
            let x = cx.var("x");
            let cc = cx.constant(*c);
            let e = cx.sub(x, cc);
            let op = match op {
                0 => RelOp::Ge,
                1 => RelOp::Gt,
                2 => RelOp::Le,
                3 => RelOp::Lt,
                _ => RelOp::Eq,
            };
            Bltl::Prop(Atom::new(e, op))
        }
        GenF::Not(f) => Bltl::Not(Box::new(materialize(cx, f))),
        GenF::And(fs) => Bltl::And(fs.iter().map(|f| materialize(cx, f)).collect()),
        GenF::Or(fs) => Bltl::Or(fs.iter().map(|f| materialize(cx, f)).collect()),
        GenF::Until(l, r, b) => Bltl::Until {
            lhs: Box::new(materialize(cx, l)),
            rhs: Box::new(materialize(cx, r)),
            bound: *b,
        },
    }
}

/// A random trace: strictly increasing times from positive increments.
fn make_trace(increments: &[f64], values: &[f64]) -> Trace {
    let mut t = 0.0;
    let mut times = vec![0.0];
    for &dt in increments {
        t += dt;
        times.push(t);
    }
    let states: Vec<Vec<f64>> = values[..times.len()].iter().map(|&v| vec![v]).collect();
    let derivs = vec![vec![0.0]; times.len()];
    Trace::new(times, states, derivs)
}

/// What a lane run reports per trace: the verdict after each sample,
/// the Boolean verdict and, when kept, the robustness.
type LaneRun = (Vec<Verdict>, bool, Option<f64>);

/// Monitors `traces` (each with its parameter environment) over `K`
/// lanes of one scratch, every sample of a trace fed in order. Lanes are
/// ragged: at each sweep, lane `l` reads `pause = idle[(sweep + l) %
/// idle.len()]`; a free lane begins the next trace only when `pause` is
/// 0, and a busy lane sits the sweep out (masked off) when it is 2. So
/// traces begin at different sweeps, lanes idle in between and sit out
/// sweeps mid-trace, and traces have their own lengths. Masked-off lanes
/// carry NaN samples, which must not reach any verdict.
fn run_lanes<const K: usize>(
    plan: &CompiledBltl,
    traces: &[(Trace, Vec<f64>)],
    idle: &[usize],
    robustness: bool,
) -> Result<Vec<LaneRun>, TestCaseError> {
    let mut s = MonitorScratch::new();
    let mut held: [Option<(usize, usize)>; K] = [None; K];
    let mut next = 0;
    let mut runs: Vec<Option<LaneRun>> = vec![None; traces.len()];
    let mut verdicts = vec![Vec::new(); traces.len()];
    let mut sweep = 0;
    while runs.iter().any(Option::is_none) {
        let mut mask = [false; K];
        let mut t = [f64::NAN; K];
        let mut y = [[f64::NAN; K]];
        for l in 0..K {
            let pause = idle[(sweep + l) % idle.len()];
            if held[l].is_none() && next < traces.len() && pause == 0 {
                plan.begin_lane::<K>(&mut s, l, &traces[next].1, robustness);
                held[l] = Some((next, 0));
                next += 1;
            }
            if let Some((i, j)) = held[l].filter(|_| pause < 2) {
                mask[l] = true;
                t[l] = traces[i].0.times()[j];
                y[0][l] = traces[i].0.state(j)[0];
            }
        }
        let v = plan.feed_lanes(&mut s, &mask, &t, &y);
        for l in 0..K {
            if !mask[l] {
                prop_assert_eq!(v[l], Verdict::Undecided, "masked-off lane {}", l);
                continue;
            }
            let (i, j) = held[l].expect("a masked lane holds a trace");
            verdicts[i].push(v[l]);
            prop_assert_eq!(s.lane_samples(l), j + 1);
            if j + 1 < traces[i].0.len() {
                held[l] = Some((i, j + 1));
                continue;
            }
            let sat = plan.finish_bool_lane(&mut s, l);
            let rob = robustness.then(|| plan.finish_robustness_lane(&mut s, l));
            runs[i] = Some((std::mem::take(&mut verdicts[i]), sat, rob));
            held[l] = None;
        }
        sweep += 1;
    }
    Ok(runs.into_iter().map(Option::unwrap).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every lane of the lane feed equals the offline monitor (Boolean
    /// and robustness, bit for bit) and the scalar feed (verdict after
    /// every sample), on ragged lanes at 16, 8, 3 and 1 lanes; each
    /// trace reads its own parameter `p`. Boolean-only lanes give the
    /// same verdicts as lanes that keep robustness. A depth-one formula
    /// `f` runs on the flat evaluator, and `G≤0 f`, which nests `f` in
    /// an `Until`, on the arena evaluator; from the second sample on
    /// both decide at the same sample, and at the first `G≤0 f` only
    /// waits where `f` is already true.
    #[test]
    fn lane_feed_equals_offline(
        g in gen_case(),
        traces in collection::vec(
            (
                collection::vec(0.05..1.5f64, 0..10),
                collection::vec(gen_value(), 11..12),
                -4.0..4.0f64,
            ),
            1..10,
        ),
        idle in collection::vec(0..3usize, 0..12),
    ) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let p = cx.intern_var("p");
        let states = [x];
        let xp = cx.parse("x - p").unwrap();
        let flat = depth_one(&g);
        let g = materialize(&mut cx, &g);
        let f = Bltl::Or(vec![g, Bltl::eventually(2.0, Bltl::Prop(Atom::new(xp, RelOp::Ge)))]);
        let plan = CompiledBltl::compile(&cx, &states, &f);
        let gated = CompiledBltl::compile(&cx, &states, &Bltl::globally(0.0, f.clone()));
        prop_assert_eq!(plan.is_flat(), flat, "{:?}", f);
        prop_assert!(!gated.is_flat());
        let traces: Vec<(Trace, Vec<f64>)> = traces
            .iter()
            .map(|(incs, vals, pv)| {
                let mut env = vec![0.0; cx.num_vars()];
                env[p.index()] = *pv;
                (make_trace(incs, vals), env)
            })
            .collect();
        let mut idle = idle;
        idle.insert(0, 0);
        let mut s = MonitorScratch::new();
        let wants: Vec<LaneRun> = traces
            .iter()
            .map(|(tr, env)| {
                plan.begin(&mut s, env);
                let verdicts = (0..tr.len())
                    .map(|i| plan.feed(&mut s, tr.times()[i], tr.state(i)))
                    .collect();
                let mut mon = Monitor::new(&cx, &states).with_env(env.clone());
                (verdicts, mon.check(&f, tr), Some(mon.robustness(&f, tr)))
            })
            .collect();
        for ((tr, env), want) in traces.iter().zip(&wants) {
            gated.begin(&mut s, env);
            for (i, &v) in want.0.iter().enumerate() {
                let w = gated.feed(&mut s, tr.times()[i], tr.state(i));
                let first_true = i == 0 && v == Verdict::True && w == Verdict::Undecided;
                prop_assert!(v == w || first_true,
                    "sample {}: {:?} but G≤0 of it {:?} ({:?})", i, v, w, f);
            }
            prop_assert_eq!(gated.finish_bool(&mut s), want.1, "{:?}", f);
        }
        for robustness in [true, false] {
            let runs = [
                run_lanes::<16>(&plan, &traces, &idle, robustness)?,
                run_lanes::<8>(&plan, &traces, &idle, robustness)?,
                run_lanes::<3>(&plan, &traces, &idle, robustness)?,
                run_lanes::<1>(&plan, &traces, &idle, robustness)?,
            ];
            for got in &runs {
                for (i, ((verdicts, sat, rob), want)) in got.iter().zip(&wants).enumerate() {
                    prop_assert_eq!(verdicts, &want.0, "trace {}: {:?}", i, f);
                    prop_assert_eq!(*sat, want.1, "trace {}: {:?}", i, f);
                    if robustness {
                        let (r, w) = (rob.unwrap(), want.2.unwrap());
                        prop_assert!(r.to_bits() == w.to_bits(),
                            "trace {}: {:?}: lane {} vs offline {}", i, f, r, w);
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_equals_offline(
        g in gen_case(),
        incs in collection::vec(0.05..1.5f64, 1..12),
        vals in collection::vec(gen_value(), 12..13),
    ) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let f = materialize(&mut cx, &g);
        let tr = make_trace(&incs, &vals);
        let mut mon = Monitor::new(&cx, &states);
        let want_sat = mon.check(&f, &tr);
        let want_rob = mon.robustness(&f, &tr);

        let plan = CompiledBltl::compile(&cx, &states, &f);
        let mut s = MonitorScratch::new();
        let env = vec![0.0; cx.num_vars()];
        let (sat, rob) = plan.eval_trace(&mut s, &env, &tr);
        prop_assert_eq!(sat, want_sat, "{:?}", f);
        prop_assert!(rob.to_bits() == want_rob.to_bits(),
            "{:?}: streamed {} vs offline {}", f, rob, want_rob);
    }

    #[test]
    fn prefix_decisions_predict_full_trace(
        g in gen_case(),
        incs in collection::vec(0.05..1.5f64, 1..12),
        vals in collection::vec(gen_value(), 12..13),
    ) {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let f = materialize(&mut cx, &g);
        let tr = make_trace(&incs, &vals);
        let mut mon = Monitor::new(&cx, &states);
        let want = mon.check(&f, &tr);

        let plan = CompiledBltl::compile(&cx, &states, &f);
        let mut s = MonitorScratch::new();
        let env = vec![0.0; cx.num_vars()];
        plan.begin(&mut s, &env);
        for i in 0..tr.len() {
            let v = plan.feed(&mut s, tr.times()[i], tr.state(i));
            if v.decided() {
                // A prefix decision must equal the verdict on the whole
                // trajectory — this is exactly what licenses cutting the
                // simulation short.
                prop_assert_eq!(v == biocheck_bltl::Verdict::True, want,
                    "decided {:?} at sample {} but full-trace check is {} ({:?})",
                    v, i, want, f);
                return Ok(());
            }
        }
        prop_assert_eq!(plan.finish_bool(&mut s), want, "{:?}", f);
    }

    #[test]
    fn scratch_reuse_is_stateless(
        g in gen_case(),
        incs in collection::vec(0.05..1.5f64, 1..8),
        vals in collection::vec(gen_value(), 8..9),
    ) {
        // Two different traces through one scratch, then the first again:
        // results must be independent of scratch history.
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let f = materialize(&mut cx, &g);
        let tr1 = make_trace(&incs, &vals);
        let flipped: Vec<f64> = vals.iter().map(|v| -v).collect();
        let tr2 = make_trace(&incs, &flipped);
        let plan = CompiledBltl::compile(&cx, &states, &f);
        let env = vec![0.0; cx.num_vars()];
        let mut s = MonitorScratch::new();
        let a1 = plan.eval_trace(&mut s, &env, &tr1);
        let _ = plan.eval_trace(&mut s, &env, &tr2);
        let a2 = plan.eval_trace(&mut s, &env, &tr1);
        prop_assert_eq!(a1.0, a2.0);
        prop_assert!(a1.1.to_bits() == a2.1.to_bits());
    }
}
