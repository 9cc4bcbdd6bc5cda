//! Layer probes: each one times calls into a single layer's public
//! functions on fixed inputs drawn from the workloads (case-study right
//! -hand sides, their recorded trajectories, the suite's contractors and
//! flows, the daemon script's wire lines and keys). They run on every
//! traced run, whatever the workload, so a layer's cost can be read next
//! to any end-to-end figure.

use crate::daemon_mix;
use crate::metrics::Values;
use crate::smc_sweep::{self, CaseStudy};
use crate::stats;
use crate::Config;
use biocheck_bltl::{CompiledBltl, MonitorScratch};
use biocheck_engine::{EstimateMethod, Query, Session};
use biocheck_expr::{Atom, EvalScratch, Program, RelOp};
use biocheck_icp::{Hc4, Propagator};
use biocheck_interval::{IBox, Interval};
use biocheck_models::{cardiac, radiation};
use biocheck_ode::{DormandPrince, OdeScratch, OdeSystem, StepControl, ValidatedOde};
use biocheck_serve::scheduler::AdmitWait;
use biocheck_serve::wire::{report_to_json, Request};
use biocheck_serve::{case_study_source, Registry, ResultCache, Scheduler};
use biocheck_smc::TraceSampler;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over five repetitions of the per-call time of `f`, in ns;
/// `f` returns how many calls it made.
fn per_call_ns(mut f: impl FnMut() -> usize) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let calls = f().max(1);
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&reps)
}

pub fn probe_all(cfg: &Config, values: &mut Values) {
    smc_layers(cfg, values);
    delta_layers(values);
    serve_layers(cfg, values);
}

/// The sampler's own integrator settings.
fn integrator() -> DormandPrince {
    DormandPrince::with_tolerances(1e-6, 1e-8)
}

/// `(t, state)` samples of one trajectory.
type Trajectory = Vec<(f64, Vec<f64>)>;

/// Mean environment and initial state of a case study, and its
/// trajectory from them.
fn nominal_run(s: &CaseStudy) -> (Vec<f64>, Vec<f64>, Trajectory) {
    let mut env = vec![0.0; s.cx.num_vars()];
    for (v, d) in &s.spec.params {
        env[v.index()] = d.mean();
    }
    let y0: Vec<f64> = s.spec.init.iter().map(|d| d.mean()).collect();
    let ode = s.sys.compile(&s.cx);
    let mut trace = Vec::new();
    integrator()
        .integrate_streaming(
            &ode,
            &env,
            &y0,
            (0.0, s.spec.t_end),
            &mut OdeScratch::new(),
            |t, y, _| {
                trace.push((t, y.to_vec()));
                StepControl::Continue
            },
        )
        .expect("case study integrates at its mean point");
    (env, y0, trace)
}

fn smc_layers(cfg: &Config, values: &mut Values) {
    let studies = smc_sweep::case_studies();
    let (mut eval, mut step, mut feed, mut sample, mut instrs) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in &studies {
        let (env, y0, trace) = nominal_run(s);

        // expr: the compiled right-hand side over the recorded states.
        let prog = Program::compile(&s.cx, &s.sys.rhs);
        instrs += prog.len() as f64;
        let mut scratch = EvalScratch::new();
        let mut out = vec![0.0; prog.num_roots()];
        let mut e = env.clone();
        eval += per_call_ns(|| {
            for _ in 0..20 {
                for (_, y) in &trace {
                    for (v, &yi) in s.sys.states.iter().zip(y) {
                        e[v.index()] = yi;
                    }
                    prog.eval_with(black_box(&e), &mut scratch, &mut out);
                }
            }
            black_box(&out);
            20 * trace.len()
        });

        // ode: accepted steps of the sampler's integrator.
        let ode = s.sys.compile(&s.cx);
        let mut ws = OdeScratch::new();
        step += per_call_ns(|| {
            let mut steps = 0;
            for _ in 0..20 {
                integrator()
                    .integrate_streaming(
                        &ode,
                        &env,
                        black_box(&y0),
                        (0.0, s.spec.t_end),
                        &mut ws,
                        |_, _, _| {
                            steps += 1;
                            StepControl::Continue
                        },
                    )
                    .expect("integrates");
            }
            steps
        });

        // bltl: the streaming monitor over the recorded trace, restarted
        // whenever its verdict decides.
        let plan = CompiledBltl::compile(&s.cx, &s.sys.states, &s.spec.property);
        let mut ms = MonitorScratch::new();
        feed += per_call_ns(|| {
            let mut calls = 0;
            for _ in 0..50 {
                plan.begin(&mut ms, &env);
                for (t, y) in &trace {
                    calls += 1;
                    if plan.feed(&mut ms, *t, black_box(y)).decided() {
                        break;
                    }
                }
            }
            calls
        });

        // smc: one fused simulate-and-monitor sample, single-threaded.
        let sampler = TraceSampler::new(
            s.cx.clone(),
            &s.sys,
            s.spec.init.clone(),
            s.spec.params.clone(),
            s.spec.property.clone(),
            s.spec.t_end,
        );
        let mut scratch = sampler.scratch();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        let n = 400 / cfg.scale();
        sample += per_call_ns(|| {
            for _ in 0..n {
                black_box(sampler.sample_with(&mut rng, &mut scratch));
            }
            n
        });
    }
    let k = studies.len() as f64;
    values.insert("expr.eval_ns", eval / k);
    values.insert("expr.instrs", instrs);
    values.insert("ode.step_ns", step / k);
    values.insert("bltl.feed_ns", feed / k);
    values.insert("smc.sample_us", sample / k / 1e3);

    // engine: artifact compilation of a fresh session's first query,
    // summed over the three case studies (median of five).
    let compile: Vec<f64> = (0..5)
        .map(|_| {
            studies
                .iter()
                .map(|s| {
                    let report = Session::from_parts(s.cx.clone(), s.sys.clone())
                        .query(Query::Estimate {
                            smc: s.spec.clone(),
                            method: EstimateMethod::Fixed { n: 1 },
                        })
                        .sequential()
                        .run()
                        .expect("one-sample estimate runs");
                    report
                        .provenance
                        .compile_time
                        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
                })
                .sum()
        })
        .collect();
    values.insert("engine.compile_ms", stats::median(&compile));
}

fn delta_layers(values: &mut Values) {
    // icp: HC4 fixpoint of the Fenton–Karma steady-state equations and
    // the suite's firing goal over the falsification state bounds.
    let fk = cardiac::fenton_karma();
    let mut cx = fk.cx.clone();
    let fire = cx.parse("u - 0.8").expect("goal parses");
    let mut contractors: Vec<Hc4> = fk
        .sys
        .rhs
        .iter()
        .map(|&r| Hc4::new(&cx, Atom::new(r, RelOp::Eq)))
        .collect();
    contractors.push(Hc4::new(&cx, Atom::new(fire, RelOp::Ge)));
    let refs: Vec<&Hc4> = contractors.iter().collect();
    let bounds = [
        Interval::new(-0.2, 1.6),
        Interval::new(0.0, 1.0),
        Interval::new(0.0, 1.0),
    ];
    let mut dims: Vec<Interval> = fk.env.iter().map(|&v| Interval::new(v, v)).collect();
    for (v, b) in fk.sys.states.iter().zip(bounds) {
        dims[v.index()] = b;
    }
    let init = IBox::new(dims);
    let prop = Propagator::new();
    let mut scratch = EvalScratch::new();
    values.insert(
        "icp.fixpoint_ns",
        per_call_ns(|| {
            for _ in 0..2000 {
                let mut bx = init.clone();
                black_box(prop.fixpoint_with(&refs, &mut bx, &mut scratch));
            }
            2000
        }),
    );

    // ode: one validated flow step on FK (step 0.5) and on the
    // untreated TBI mode (step 0.25), the suite's flow steps.
    let fk_flow = ValidatedOde::new(&mut fk.cx.clone(), &fk.sys);
    let fk_env = IBox::from_point(&fk.env);
    let fk_y0 = widen(&fk.init);
    let ha = radiation::tbi_automaton();
    let live = ha.mode_by_name("0").expect("TBI has the untreated mode");
    let tbi_sys = OdeSystem::new(ha.states.clone(), ha.modes[live].rhs.clone());
    let tbi_flow = ValidatedOde::new(&mut ha.cx.clone(), &tbi_sys);
    let tbi_env = IBox::from_point(&ha.default_env());
    let tbi_y0 = widen(&radiation::tbi_init());
    values.insert(
        "ode.flow_us",
        per_call_ns(|| {
            for _ in 0..20 {
                let _ = black_box(fk_flow.flow(&fk_env, &fk_y0, 0.5));
                let _ = black_box(tbi_flow.flow(&tbi_env, &tbi_y0, 0.25));
            }
            40
        }) / 1e3,
    );
}

/// A box of half-width 10⁻³ around a point.
fn widen(p: &[f64]) -> IBox {
    IBox::new(
        p.iter()
            .map(|&v| Interval::new(v - 1e-3, v + 1e-3))
            .collect(),
    )
}

fn serve_layers(cfg: &Config, values: &mut Values) {
    // wire: decoding a hit request line, encoding an estimate reply.
    let hit = daemon_mix::hit_request(cfg, 0);
    let line = Request::Query(hit.clone()).to_json().render();
    values.insert(
        "wire.decode_us",
        per_call_ns(|| {
            for _ in 0..2000 {
                black_box(Request::from_line(black_box(&line)).expect("request decodes"));
            }
            2000
        }) / 1e3,
    );
    let source = case_study_source(&hit.model).expect("case study");
    let (mut cx, sys) = source.build().expect("case study builds");
    let query = hit.query.build(&mut cx).expect("query builds");
    let report = Session::from_parts(cx, sys)
        .query(query)
        .seed(hit.seed)
        .run()
        .expect("estimate runs");
    values.insert(
        "wire.encode_us",
        per_call_ns(|| {
            for _ in 0..2000 {
                black_box(report_to_json(black_box(&report)).render());
            }
            2000
        }) / 1e3,
    );

    // registry: prepare on known vocabulary, and with a fresh literal
    // (arena growth, session rebuild).
    let registry = Registry::new();
    registry
        .register(&hit.model, &source)
        .expect("case study registers");
    let entry = registry.get(&hit.model).expect("just registered");
    let mut keys = Vec::new();
    for key in 0..6 {
        let qr = daemon_mix::hit_request(cfg, key);
        if qr.model == hit.model {
            let (_, _, k) = entry.prepare(|cx| qr.query.build(cx)).expect("prepares");
            keys.push(k);
        }
    }
    values.insert(
        "registry.prepare_us",
        per_call_ns(|| {
            for _ in 0..500 {
                black_box(entry.prepare(|cx| hit.query.build(cx)).expect("prepares"));
            }
            500
        }) / 1e3,
    );
    let mut fresh = 0;
    values.insert(
        "registry.prepare_rebuild_us",
        per_call_ns(|| {
            for _ in 0..40 {
                fresh += 1;
                let qr = daemon_mix::estimate(cfg, 0, 1, fresh);
                black_box(entry.prepare(|cx| qr.query.build(cx)).expect("prepares"));
            }
            40
        }) / 1e3,
    );

    // cache: probes of the warmed keys.
    let cache: ResultCache<Arc<biocheck_engine::Report>> = ResultCache::new(64 << 20);
    let shared = Arc::new(report);
    for k in &keys {
        cache.insert(k.clone(), Arc::clone(&shared), k.len() + 256);
    }
    values.insert(
        "cache.probe_ns",
        per_call_ns(|| {
            for i in 0..20_000 {
                black_box(cache.get(&keys[i % keys.len()]));
            }
            20_000
        }),
    );

    // scheduler: uncontended admission plus release.
    let scheduler = Scheduler::new(2);
    values.insert(
        "scheduler.admit_ns",
        per_call_ns(|| {
            for _ in 0..20_000 {
                drop(black_box(scheduler.admit(AdmitWait::default())));
            }
            20_000
        }),
    );
}
