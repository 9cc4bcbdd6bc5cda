//! Experiment harness: one function per experiment (E1–E9, the
//! `crates/bench` row of `docs/ARCHITECTURE.md`), shared between the
//! Criterion benches (`cargo bench`) and the table generator
//! (`cargo run -p biocheck_bench --bin report`, see the README's
//! *Benchmarks* section).
//!
//! Every function returns printable rows so the experiment tables can be
//! regenerated; timings are taken by the callers.

pub mod perf;

use biocheck_bltl::Bltl;
use biocheck_bmc::{check_reach, check_reach_whole, ReachOptions, ReachSpec};
use biocheck_dsmt::{DeltaSmt, Fol};
use biocheck_engine::{
    Dataset, EstimateMethod, FalsificationOutcome, Query, Session, SmcSpec, Value,
};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_interval::Interval;
use biocheck_lyapunov::LyapunovSynthesizer;
use biocheck_models::{cardiac, classics, prostate, radiation};
use biocheck_ode::OdeSystem;
use biocheck_smc::{Dist, SprtOutcome};

/// One printable result row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment id (e.g. "E1").
    pub experiment: String,
    /// Workload / configuration description.
    pub config: String,
    /// Measured outcome.
    pub outcome: String,
    /// What the paper's claim predicts (shape check).
    pub expected: String,
    /// Did the shape hold?
    pub holds: bool,
}

impl Row {
    fn new(
        e: &str,
        config: impl Into<String>,
        outcome: impl Into<String>,
        expected: impl Into<String>,
        holds: bool,
    ) -> Row {
        Row {
            experiment: e.into(),
            config: config.into(),
            outcome: outcome.into(),
            expected: expected.into(),
            holds,
        }
    }
}

/// E1 — cardiac falsification: FK cannot produce a late dome with the
/// fast gate recovered; both models fire an AP.
pub fn e1_cardiac_falsification() -> Vec<Row> {
    let fk = cardiac::fenton_karma();
    let mut ha = cardiac::with_stimulus(&fk, 0.3, 2.0);
    let bounds = vec![
        Interval::new(-0.2, 1.6),
        Interval::new(0.0, 1.0),
        Interval::new(0.0, 1.0),
        Interval::new(0.0, 500.0),
    ];
    let opts = ReachOptions {
        state_bounds: bounds,
        max_splits: 2_000,
        flow_step: 0.5,
        ..ReachOptions::new(0.05)
    };
    // The dome refutation integrates through the stiff AP upstroke: it
    // needs a finer validated step and a larger split budget.
    let dome_opts = ReachOptions {
        state_bounds: opts.state_bounds.clone(),
        max_splits: 8_000,
        flow_step: 0.25,
        ..ReachOptions::new(0.05)
    };
    let mut rows = Vec::new();
    // Parse all goal atoms in the automaton's own context (atoms built in
    // a clone would alias foreign nodes once the solver extends its copy),
    // then open one engine session over the automaton for both queries.
    let fire = ha.cx.parse("u - 0.9").unwrap();
    let dome_u = ha.cx.parse("u - 0.7").unwrap();
    let dome_v = ha.cx.parse("v - 0.9").unwrap();
    let late = ha.cx.parse("c - 10").unwrap();
    let session = Session::from_automaton(&ha);
    // Fires an AP.
    let spec = ReachSpec {
        goal_mode: None,
        goal: vec![Atom::new(fire, RelOp::Ge)],
        k_max: 1,
        time_bound: 60.0,
    };
    let report = session
        .query(Query::Falsify { spec, opts })
        .run()
        .expect("well-formed query");
    let consistent = matches!(
        report.value,
        Value::Falsify(FalsificationOutcome::Consistent(_))
    );
    rows.push(Row::new(
        "E1",
        "FK, stim 0.3×2: reach u ≥ 0.9 (AP fires)",
        format!("δ-sat = {consistent}"),
        "δ-sat",
        consistent,
    ));
    // Dome surrogate unreachable.
    let spec2 = ReachSpec {
        goal_mode: Some(1),
        goal: vec![
            Atom::new(dome_u, RelOp::Ge),
            Atom::new(dome_v, RelOp::Ge),
            Atom::new(late, RelOp::Ge),
        ],
        k_max: 1,
        time_bound: 30.0,
    };
    let report = session
        .query(Query::Falsify {
            spec: spec2,
            opts: dome_opts,
        })
        .run()
        .expect("well-formed query");
    let Value::Falsify(out) = &report.value else {
        unreachable!("falsify query returns a falsification verdict");
    };
    rows.push(Row::new(
        "E1",
        "FK: spike-and-dome surrogate (late u ≥ 0.7 ∧ v ≥ 0.9)",
        format!("{out:?}"),
        "Falsified (unsat)",
        out.is_falsified(),
    ));
    rows
}

/// E2 — BioPSy-style guaranteed parameter synthesis on decay and
/// Michaelis–Menten workloads.
pub fn e2_parameter_synthesis() -> Vec<Row> {
    let mut rows = Vec::new();
    // Decay, 1 unknown.
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let times = vec![0.5, 1.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
    let session = Session::from_parts(cx, sys);
    let report = session
        .query(Query::Calibrate {
            data: Dataset::full(times, values, 0.02),
            init: vec![1.0],
            params: vec![(k, Interval::new(0.2, 3.0))],
            state_bounds: vec![Interval::new(0.0, 2.0)],
            delta: 0.01,
            flow_step: 0.05,
        })
        .run()
        .expect("well-formed query");
    let Value::Calibration(fit) = &report.value else {
        unreachable!("calibrate query returns a calibration");
    };
    let ok = fit
        .as_ref()
        .is_some_and(|c| (c.witness[0] - 1.0).abs() < 0.25);
    rows.push(Row::new(
        "E2",
        "decay x' = -kx, 2 data points ± 0.02, true k = 1",
        fit.as_ref()
            .map(|c| format!("k ∈ {} (witness {:.3})", c.param_box[0], c.witness[0]))
            .unwrap_or_else(|| "none".into()),
        "k recovered near 1",
        ok,
    ));
    // Michaelis–Menten, Vmax unknown. Parameters not under synthesis
    // must be pinned: the calibration solver reads *all* non-step vars
    // from the solver box, so Km is substituted by its constant before
    // the session is opened.
    let mm = classics::michaelis_menten();
    let vmax = mm.cx.var_id("Vmax").unwrap();
    let tr = mm.simulate(4.0).unwrap();
    let times = vec![2.0, 4.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t| tr.value_at(t)).collect();
    let (pinned_cx, pinned_sys) = {
        let mut cx = mm.cx.clone();
        let km = cx.var_id("Km").unwrap();
        let c = cx.constant(0.5);
        let map = std::collections::HashMap::from([(km, c)]);
        let rhs: Vec<_> = mm.sys.rhs.iter().map(|&r| cx.subst(r, &map)).collect();
        let sys = OdeSystem::new(mm.sys.states.clone(), rhs);
        (cx, sys)
    };
    let session = Session::from_parts(pinned_cx, pinned_sys);
    let report = session
        .query(Query::Calibrate {
            data: Dataset::full(times, values, 0.15),
            init: vec![10.0, 0.0],
            params: vec![(vmax, Interval::new(0.25, 3.0))],
            state_bounds: vec![Interval::new(0.0, 11.0), Interval::new(0.0, 11.0)],
            delta: 0.05,
            flow_step: 0.2,
        })
        .run()
        .expect("well-formed query");
    let Value::Calibration(fit) = &report.value else {
        unreachable!("calibrate query returns a calibration");
    };
    let ok = fit
        .as_ref()
        .is_some_and(|c| (c.witness[0] - 1.0).abs() < 0.4);
    rows.push(Row::new(
        "E2",
        "Michaelis–Menten, Vmax unknown (true 1.0), 2 points ± 0.15",
        fit.as_ref()
            .map(|c| format!("Vmax ∈ {} (witness {:.3})", c.param_box[0], c.witness[0]))
            .unwrap_or_else(|| "none".into()),
        "Vmax recovered near 1",
        ok,
    ));
    rows
}

/// E3 — prostate IAS therapy: CAS relapses, IAS cycles, thresholds
/// synthesizable.
pub fn e3_prostate() -> Vec<Row> {
    let patient = prostate::PatientParams::default();
    let mut rows = Vec::new();
    let cas = prostate::cas_model(&patient);
    let tr = cas.simulate(1500.0).unwrap();
    let relapse = tr.last_state()[1] > 0.1 && tr.last_state()[0] < 1.0;
    rows.push(Row::new(
        "E3",
        "CAS 1500 days",
        format!(
            "AD = {:.2}, AI = {:.2}",
            tr.last_state()[0],
            tr.last_state()[1]
        ),
        "AI escape under CAS (relapse)",
        relapse,
    ));
    let mut ha = prostate::ias_automaton(&patient);
    let mut env = ha.default_env();
    env[ha.cx.var_id("r0").unwrap().index()] = 6.0;
    env[ha.cx.var_id("r1").unwrap().index()] = 20.0;
    let traj = ha
        .simulate(
            &env,
            &[15.0, 0.1, 12.0],
            700.0,
            &biocheck_hybrid::SimOptions::default(),
        )
        .unwrap();
    rows.push(Row::new(
        "E3",
        "IAS (r0=6, r1=20), 700 days",
        format!("{} mode switches", traj.mode_path().len() - 1),
        "≥ 2 switches (cycling)",
        traj.mode_path().len() >= 3,
    ));
    let psa_low = ha.cx.parse("10 - (x + y)").unwrap();
    let spec = ReachSpec {
        goal_mode: Some(ha.mode_by_name("on").unwrap()),
        goal: vec![Atom::new(psa_low, RelOp::Ge)],
        k_max: 1,
        time_bound: 500.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![
            Interval::new(0.0, 40.0),
            Interval::new(0.0, 40.0),
            Interval::new(0.0, 14.0),
        ],
        max_splits: 3_000,
        flow_step: 4.0,
        ..ReachOptions::new(0.1)
    };
    let r = check_reach(&ha, &spec, &opts);
    rows.push(Row::new(
        "E3",
        "synthesize (r0, r1): PSA ≤ 10 reachable in mode `on`, k = 1",
        r.witness()
            .map(|w| format!("{:?}", w.param_box))
            .unwrap_or_else(|| format!("{r:?}")),
        "δ-sat with threshold box",
        r.is_delta_sat(),
    ));
    rows
}

/// E4 — radiation therapy automaton: shortest rescue path length.
pub fn e4_radiation() -> Vec<Row> {
    let mut ha = radiation::tbi_automaton();
    let mut rows = Vec::new();
    // Simulation facts.
    let mut env = ha.default_env();
    env[ha.cx.var_id("theta1").unwrap().index()] = 1e6;
    env[ha.cx.var_id("theta2").unwrap().index()] = 1e6;
    let untreated = ha
        .simulate(
            &env,
            &radiation::tbi_init(),
            40.0,
            &biocheck_hybrid::SimOptions::default(),
        )
        .unwrap();
    let dies = untreated.final_state()[5] >= radiation::THETA_DEATH - 1e-6
        || untreated
            .mode_path()
            .contains(&ha.mode_by_name("1").unwrap());
    rows.push(Row::new(
        "E4",
        "untreated cell, 40 h",
        format!("damage {:.2}", untreated.final_state()[5]),
        "death (damage ≥ 10)",
        dies,
    ));
    // Therapy synthesis: path 0 → A → B with thresholds.
    let safe = ha.cx.parse("4 - dmg").unwrap();
    let committed = ha.cx.parse("rip3 - 1.2").unwrap();
    let spec = ReachSpec {
        goal_mode: Some(ha.mode_by_name("B").unwrap()),
        goal: vec![Atom::new(safe, RelOp::Ge), Atom::new(committed, RelOp::Ge)],
        k_max: 3,
        time_bound: 6.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![
            Interval::new(0.0, 3.0),
            Interval::new(0.0, 10.0),
            Interval::new(0.0, 6.0),
            Interval::new(0.0, 12.0),
            Interval::new(0.0, 1.0),
            Interval::new(0.0, 12.0),
        ],
        max_splits: 10_000,
        flow_step: 0.25,
        ..ReachOptions::new(0.5)
    };
    let report = Session::from_automaton(&ha)
        .query(Query::Therapy { spec, opts })
        .run()
        .expect("well-formed query");
    let Value::Therapy(plan) = report.value else {
        unreachable!("therapy query returns a plan");
    };
    let ok = plan.as_ref().is_some_and(|p| p.schedule == ["0", "A", "B"]);
    rows.push(Row::new(
        "E4",
        "shortest rescue schedule (k ≤ 3)",
        plan.map(|p| format!("{:?}, θ = {:?}", p.schedule, p.thresholds))
            .unwrap_or_else(|| "none".into()),
        "0 → A → B (two drugs, as in Sec. IV-B)",
        ok,
    ));
    rows
}

/// E5 — stimulation robustness: sub-threshold stimuli cannot trigger an
/// AP (unsat), supra-threshold can (δ-sat).
pub fn e5_robustness() -> Vec<Row> {
    let fk = cardiac::fenton_karma();
    let mut rows = Vec::new();
    for (amp, expect_fire) in [(0.02, false), (0.3, true)] {
        let mut ha = cardiac::with_stimulus(&fk, amp, 2.0);
        let fire = ha.cx.parse("u - 0.8").unwrap();
        let spec = ReachSpec {
            goal_mode: None,
            goal: vec![Atom::new(fire, RelOp::Ge)],
            k_max: 1,
            time_bound: 60.0,
        };
        let opts = ReachOptions {
            state_bounds: vec![
                Interval::new(-0.2, 1.6),
                Interval::new(0.0, 1.0),
                Interval::new(0.0, 1.0),
                Interval::new(0.0, 500.0),
            ],
            max_splits: 2_000,
            flow_step: 0.5,
            ..ReachOptions::new(0.05)
        };
        let r = check_reach(&ha, &spec, &opts);
        let fired = r.is_delta_sat();
        rows.push(Row::new(
            "E5",
            format!("FK stimulus amplitude {amp}"),
            format!("AP (u ≥ 0.8): {}", if fired { "δ-sat" } else { "unsat" }),
            if expect_fire {
                "δ-sat (fires)"
            } else {
                "unsat (filtered)"
            },
            fired == expect_fire,
        ));
    }
    rows
}

/// E6 — Lyapunov certificates for linear/nonlinear networks.
pub fn e6_lyapunov() -> Vec<Row> {
    let mut rows = Vec::new();
    // Kinetic proofreading.
    let kp = classics::kinetic_proofreading(2, 1.0, 0.5, 1.0);
    let report = Session::new(&kp)
        .query(Query::Stability {
            region: vec![Interval::new(0.0, 2.0), Interval::new(0.0, 2.0)],
            r_min: 0.1,
            r_max: 0.8,
        })
        .run()
        .expect("well-formed query");
    let Value::Stability(r) = report.value else {
        unreachable!("stability query returns a stability report");
    };
    rows.push(Row::new(
        "E6",
        "kinetic proofreading chain (n = 2)",
        r.as_ref()
            .map(|rep| format!("certified in {} iters", rep.iterations))
            .unwrap_or_else(|| "failed".into()),
        "quadratic certificate",
        r.is_some_and(|rep| rep.certified),
    ));
    // Damped oscillator (cross term needed).
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let v = cx.intern_var("v");
    let fx = cx.parse("v").unwrap();
    let fv = cx.parse("-x - v").unwrap();
    let sys = OdeSystem::new(vec![x, v], vec![fx, fv]);
    let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.2, 1.0);
    let r = syn.run(40);
    rows.push(Row::new(
        "E6",
        "damped oscillator x'' = -x - x'",
        r.as_ref()
            .map(|res| format!("V = {} ({} iters)", res.v_text, res.iterations))
            .unwrap_or_else(|| "failed".into()),
        "certificate with cross term",
        r.is_some_and(|res| res.verified),
    ));
    // Unstable control.
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let fx = cx.parse("x").unwrap();
    let sys = OdeSystem::new(vec![x], vec![fx]);
    let mut syn = LyapunovSynthesizer::quadratic(cx, &sys, 0.1, 1.0);
    let r = syn.run(8);
    rows.push(Row::new(
        "E6",
        "unstable x' = +x (negative control)",
        if r.is_none() {
            "no certificate".into()
        } else {
            "certificate?!".to_string()
        },
        "must fail",
        r.is_none(),
    ));
    rows
}

/// E7 — SMC verdicts on the toggle switch and p53 loop, through one
/// engine session per model (the SPRT reuses the toggle session's
/// cached sampler).
pub fn e7_smc() -> Vec<Row> {
    let mut rows = Vec::new();
    let toggle = classics::toggle_switch();
    let mut cx = toggle.cx.clone();
    let u_wins = cx.parse("u - v - 1").unwrap();
    let prop = Bltl::eventually(
        40.0,
        Bltl::globally(5.0, Bltl::Prop(Atom::new(u_wins, RelOp::Ge))),
    );
    let session = Session::from_parts(cx, toggle.sys.clone());
    let smc = SmcSpec {
        init: vec![Dist::Uniform(0.0, 2.0), Dist::Uniform(0.0, 2.0)],
        params: vec![],
        property: prop,
        t_end: 45.0,
    };
    let report = session
        .query(Query::Estimate {
            smc: smc.clone(),
            method: EstimateMethod::Chernoff {
                eps: 0.1,
                delta: 0.05,
            },
        })
        .seed(2020)
        .run()
        .expect("well-formed query");
    let Value::Estimate(est) = report.value else {
        unreachable!("estimate query returns an estimate");
    };
    let symmetric = (est.p_hat - 0.5).abs() < 0.15;
    rows.push(Row::new(
        "E7",
        "toggle switch: P(u-high basin), u0,v0 ~ U[0,2]",
        format!("p̂ = {:.3} ({} samples)", est.p_hat, est.samples),
        "≈ 0.5 (symmetric basins)",
        symmetric,
    ));
    let report = session
        .query(Query::Sprt {
            smc,
            theta: 0.9,
            indiff: 0.05,
            alpha: 0.01,
            beta: 0.01,
            max_samples: 100_000,
        })
        .seed(2021)
        .run()
        .expect("well-formed query");
    let Value::Sprt(hyp) = report.value else {
        unreachable!("SPRT query returns an SPRT result");
    };
    rows.push(Row::new(
        "E7",
        "SPRT: H0 p ≥ 0.95 vs H1 p ≤ 0.85",
        format!("{:?} ({} samples)", hyp.outcome, hyp.samples),
        "AcceptH1 (probability is ≈ 0.5)",
        hyp.outcome == SprtOutcome::AcceptH1,
    ));
    // p53 overshoot.
    let p53 = classics::p53_mdm2();
    let mut cx = p53.cx.clone();
    let over = cx.parse("p53 - 0.5").unwrap();
    let prop = Bltl::eventually(30.0, Bltl::Prop(Atom::new(over, RelOp::Ge)));
    let session = Session::from_parts(cx, p53.sys.clone());
    let report = session
        .query(Query::Estimate {
            smc: SmcSpec {
                init: vec![Dist::Uniform(0.05, 0.2), Dist::Uniform(0.05, 0.2)],
                params: vec![],
                property: prop,
                t_end: 30.0,
            },
            method: EstimateMethod::Chernoff {
                eps: 0.1,
                delta: 0.05,
            },
        })
        .seed(2022)
        .run()
        .expect("well-formed query");
    let Value::Estimate(est) = report.value else {
        unreachable!("estimate query returns an estimate");
    };
    rows.push(Row::new(
        "E7",
        "p53–Mdm2: P(overshoot p53 ≥ 0.5 within 30)",
        format!("p̂ = {:.3} ({} samples)", est.p_hat, est.samples),
        "≈ 1 (deterministic overshoot)",
        est.p_hat > 0.9,
    ));
    rows
}

/// E8 — δ-decision scalability: solver verdict invariance and timing
/// shape across δ (the caller times; rows carry verdicts).
pub fn e8_delta_sweep(deltas: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &delta in deltas {
        let mut cx = Context::new();
        let e1 = cx.parse("x^2 + y^2 - 1").unwrap();
        let e2 = cx.parse("y - exp(-x)*sin(5*x)").unwrap();
        let mut smt = DeltaSmt::new(cx, delta);
        smt.bound("x", Interval::new(-2.0, 2.0));
        smt.bound("y", Interval::new(-2.0, 2.0));
        smt.assert(Fol::Atom(Atom::new(e1, RelOp::Eq)));
        smt.assert(Fol::Atom(Atom::new(e2, RelOp::Eq)));
        let r = smt.check();
        rows.push(Row::new(
            "E8",
            format!("circle ∧ damped-sine intersection, δ = {delta}"),
            (if r.is_delta_sat() { "δ-sat" } else { "unsat" }).to_string(),
            "δ-sat at every δ (roots exist)",
            r.is_delta_sat(),
        ));
    }
    rows
}

/// E9 — BMC depth scaling and the path-enumeration vs whole-formula
/// ablation on the sawtooth automaton.
pub fn e9_depth_scaling(k_max: usize) -> Vec<Row> {
    let mut ha = biocheck_hybrid::HybridAutomaton::parse_bha(
        r#"
        state x;
        mode rise { flow: x' = 1; jump to fall when x >= 5; }
        mode fall { flow: x' = -1; jump to rise when x <= 1; }
        init rise: x = 1;
        "#,
    )
    .unwrap();
    let goal = ha.cx.parse("2 - x").unwrap(); // x ≤ 2 in mode fall
    let opts = ReachOptions {
        state_bounds: vec![Interval::new(-10.0, 10.0)],
        ..ReachOptions::new(0.05)
    };
    let mut rows = Vec::new();
    for k in 0..=k_max {
        let spec = ReachSpec {
            goal_mode: Some(1),
            goal: vec![Atom::new(goal, RelOp::Ge)],
            k_max: k,
            time_bound: 6.0,
        };
        let a = check_reach(&ha, &spec, &opts);
        let b = check_reach_whole(&ha, &spec, &opts);
        let agree = a.is_delta_sat() == b.is_delta_sat();
        let expect_sat = k >= 1;
        rows.push(Row::new(
            "E9",
            format!("sawtooth, goal in `fall`, k = {k}"),
            format!(
                "path-enum: {}, whole-formula: {}",
                if a.is_delta_sat() { "δ-sat" } else { "unsat" },
                if b.is_delta_sat() { "δ-sat" } else { "unsat" }
            ),
            if expect_sat {
                "δ-sat (needs ≥ 1 jump)"
            } else {
                "unsat at k = 0"
            },
            agree && (a.is_delta_sat() == expect_sat),
        ));
    }
    rows
}

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders rows as a JSON array (the workspace has no serde; JSON is
/// emitted by hand).
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"experiment\": \"{}\", \"config\": \"{}\", \"outcome\": \"{}\", \"expected\": \"{}\", \"holds\": {}}}{}\n",
            json_escape(&r.experiment),
            json_escape(&r.config),
            json_escape(&r.outcome),
            json_escape(&r.expected),
            r.holds,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

/// Renders rows as a markdown table.
pub fn to_markdown(rows: &[Row]) -> String {
    let mut s = String::from("| Exp | Configuration | Measured | Paper-shape expectation | Holds |\n|---|---|---|---|---|\n");
    for r in rows {
        s.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.experiment,
            r.config,
            r.outcome,
            r.expected,
            if r.holds { "✅" } else { "❌" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_hold() {
        // The fast experiments must all report holds = true.
        for rows in [e6_lyapunov(), e9_depth_scaling(1)] {
            for r in &rows {
                assert!(r.holds, "{r:?}");
            }
        }
    }

    #[test]
    fn markdown_rendering() {
        let rows = vec![Row::new("E0", "cfg", "out", "exp", true)];
        let md = to_markdown(&rows);
        assert!(md.contains("| E0 |"));
        assert!(md.contains("✅"));
    }
}
