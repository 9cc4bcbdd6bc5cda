//! The paper's guaranteed-analysis battery, in-process: falsification
//! (E5), calibration (E2), Lyapunov stability (E6), therapy synthesis
//! (E4) and sawtooth BMC through both routes (E9); E1 (minutes) and E3
//! (≈13 s) are left out. One traced pass of it is a layer probe for
//! `icp`, validated `ode`, `bmc`, `lyapunov` and the δ-decision engine
//! kinds, with every verdict checked against the paper's shape.
//!
//! It was first a workload of its own (`delta_suite`). Its pass is
//! ≈8–12 s, 90% one therapy query, and the host's speed shifts by up to
//! a third between runs; over ten seeds the pass time spread 25% of its
//! median, the largest bound `BENCHMARK.json` allows, and normalising by
//! the reference kernel (`reference.rs`) made it worse, since readings
//! on either side of a multi-second item do not describe the host
//! during it. So it is measured per layer only, where no bound applies.

use crate::metrics::Values;
use crate::stats::Tally;
use crate::Config;
use biocheck_bmc::{check_reach, check_reach_whole, ReachOptions, ReachSpec};
use biocheck_engine::{Budget, Dataset, FalsificationOutcome, Query, Report, Session, Value};
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_hybrid::HybridAutomaton;
use biocheck_interval::Interval;
use biocheck_models::{cardiac, classics, radiation};
use biocheck_obs::{ProgressSnapshot, TraceCtx};
use biocheck_ode::OdeSystem;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The layer an item exercises; also the per-layer metric its time
/// lands in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Falsify,
    Calibrate,
    Stability,
    Therapy,
    Bmc,
}

impl Kind {
    fn metric(self) -> &'static str {
        match self {
            Kind::Falsify => "engine.falsify_ms",
            Kind::Calibrate => "engine.calibrate_ms",
            Kind::Stability => "engine.stability_ms",
            Kind::Therapy => "engine.therapy_ms",
            Kind::Bmc => "bmc.reach_ms",
        }
    }
}

type Check = fn(&Report) -> Result<(), String>;

enum Job {
    /// An engine query on its own session, with its paper-shape check.
    Engine {
        session: Session,
        query: Query,
        check: Check,
    },
    /// Sawtooth reachability at k = 3 through the path-enumeration
    /// (`whole == false`) or whole-formula route; both must be δ-sat.
    Reach {
        ha: HybridAutomaton,
        spec: ReachSpec,
        opts: ReachOptions,
        whole: bool,
    },
}

struct Item {
    name: &'static str,
    kind: Kind,
    job: Job,
}

impl Item {
    /// Runs the item once; `trace` attaches the program's progress
    /// counters and span ring.
    fn run(&self, trace: Option<&Arc<TraceCtx>>) -> Result<Option<usize>, String> {
        match &self.job {
            Job::Engine {
                session,
                query,
                check,
            } => {
                let mut budget = Budget::unlimited();
                if let Some(ctx) = trace {
                    budget = budget.with_trace(Arc::clone(ctx));
                }
                let report = session
                    .query(query.clone())
                    .budget(budget)
                    .run()
                    .map_err(|e| format!("{}: {e}", self.name))?;
                check(&report).map_err(|e| format!("{}: {e}", self.name))?;
                Ok(match &report.value {
                    Value::Stability(Some(r)) => Some(r.iterations),
                    _ => None,
                })
            }
            Job::Reach {
                ha,
                spec,
                opts,
                whole,
            } => {
                let mut opts = opts.clone();
                if let Some(ctx) = trace {
                    opts.progress_depth = Some(Arc::clone(&ctx.progress.depth));
                    opts.progress_boxes = Some(Arc::clone(&ctx.progress.boxes));
                }
                let r = if *whole {
                    check_reach_whole(ha, spec, &opts)
                } else {
                    check_reach(ha, spec, &opts)
                };
                if r.is_delta_sat() {
                    Ok(None)
                } else {
                    Err(format!("{}: expected δ-sat at k = 3, got {r:?}", self.name))
                }
            }
        }
    }
}

fn falsify_item(name: &'static str, amplitude: f64, expect_fire: bool) -> Item {
    let fk = cardiac::fenton_karma();
    let mut ha = cardiac::with_stimulus(&fk, amplitude, 2.0);
    let fire = ha.cx.parse("u - 0.8").expect("FK goal parses");
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
    let check: Check = if expect_fire {
        |r| match &r.value {
            Value::Falsify(FalsificationOutcome::Consistent(_)) => Ok(()),
            v => Err(format!("expected δ-sat (fires), got {v:?}")),
        }
    } else {
        |r| match &r.value {
            Value::Falsify(FalsificationOutcome::Falsified) => Ok(()),
            v => Err(format!("expected unsat (filtered), got {v:?}")),
        }
    };
    Item {
        name,
        kind: Kind::Falsify,
        job: Job::Engine {
            session: Session::from_automaton(&ha),
            query: Query::Falsify { spec, opts },
            check,
        },
    }
}

fn calibrate_decay() -> Item {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let k = cx.intern_var("k");
    let rhs = cx.parse("-k*x").expect("decay parses");
    let sys = OdeSystem::new(vec![x], vec![rhs]);
    let times = vec![0.5, 1.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t: &f64| vec![(-t).exp()]).collect();
    Item {
        name: "calibrate_decay",
        kind: Kind::Calibrate,
        job: Job::Engine {
            session: Session::from_parts(cx, sys),
            query: Query::Calibrate {
                data: Dataset::full(times, values, 0.02),
                init: vec![1.0],
                params: vec![(k, Interval::new(0.2, 3.0))],
                state_bounds: vec![Interval::new(0.0, 2.0)],
                delta: 0.01,
                flow_step: 0.05,
            },
            check: |r| calibrated_near(r, 1.0, 0.25),
        },
    }
}

fn calibrate_mm() -> Item {
    let mm = classics::michaelis_menten();
    let vmax = mm.cx.var_id("Vmax").expect("MM has Vmax");
    let tr = mm.simulate(4.0).expect("MM simulates");
    let times = vec![2.0, 4.0];
    let values: Vec<Vec<f64>> = times.iter().map(|&t| tr.value_at(t)).collect();
    // Km is pinned by substitution: the calibration solver reads every
    // non-state variable from its box.
    let mut cx = mm.cx.clone();
    let km = cx.var_id("Km").expect("MM has Km");
    let c = cx.constant(0.5);
    let map = HashMap::from([(km, c)]);
    let rhs: Vec<_> = mm.sys.rhs.iter().map(|&r| cx.subst(r, &map)).collect();
    let sys = OdeSystem::new(mm.sys.states.clone(), rhs);
    Item {
        name: "calibrate_mm",
        kind: Kind::Calibrate,
        job: Job::Engine {
            session: Session::from_parts(cx, sys),
            query: Query::Calibrate {
                data: Dataset::full(times, values, 0.15),
                init: vec![10.0, 0.0],
                params: vec![(vmax, Interval::new(0.25, 3.0))],
                state_bounds: vec![Interval::new(0.0, 11.0), Interval::new(0.0, 11.0)],
                delta: 0.05,
                flow_step: 0.2,
            },
            check: |r| calibrated_near(r, 1.0, 0.4),
        },
    }
}

fn calibrated_near(r: &Report, truth: f64, tol: f64) -> Result<(), String> {
    match &r.value {
        Value::Calibration(Some(c)) if (c.witness[0] - truth).abs() < tol => Ok(()),
        v => Err(format!(
            "expected a witness within {tol} of {truth}, got {v:?}"
        )),
    }
}

fn stability() -> Item {
    let kp = classics::kinetic_proofreading(2, 1.0, 0.5, 1.0);
    Item {
        name: "stability_kp",
        kind: Kind::Stability,
        job: Job::Engine {
            session: Session::new(&kp),
            query: Query::Stability {
                region: vec![Interval::new(0.0, 2.0), Interval::new(0.0, 2.0)],
                r_min: 0.1,
                r_max: 0.8,
            },
            check: |r| match &r.value {
                Value::Stability(Some(rep)) if rep.certified => Ok(()),
                v => Err(format!("expected a certificate, got {v:?}")),
            },
        },
    }
}

fn therapy() -> Item {
    let mut ha = radiation::tbi_automaton();
    let safe = ha.cx.parse("4 - dmg").expect("goal parses");
    let committed = ha.cx.parse("rip3 - 1.2").expect("goal parses");
    let spec = ReachSpec {
        goal_mode: Some(ha.mode_by_name("B").expect("TBI has mode B")),
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
    Item {
        name: "therapy_rescue",
        kind: Kind::Therapy,
        job: Job::Engine {
            session: Session::from_automaton(&ha),
            query: Query::Therapy { spec, opts },
            check: |r| match &r.value {
                Value::Therapy(Some(plan)) if plan.schedule == ["0", "A", "B"] => Ok(()),
                v => Err(format!("expected schedule 0 → A → B, got {v:?}")),
            },
        },
    }
}

/// The sawtooth automaton of E9 with its goal (x ≤ 2 in mode `fall`).
pub fn sawtooth() -> (HybridAutomaton, ReachSpec, ReachOptions) {
    let mut ha = HybridAutomaton::parse_bha(
        r#"
        state x;
        mode rise { flow: x' = 1; jump to fall when x >= 5; }
        mode fall { flow: x' = -1; jump to rise when x <= 1; }
        init rise: x = 1;
        "#,
    )
    .expect("sawtooth parses");
    let goal = ha.cx.parse("2 - x").expect("goal parses");
    let spec = ReachSpec {
        goal_mode: Some(1),
        goal: vec![Atom::new(goal, RelOp::Ge)],
        k_max: 3,
        time_bound: 6.0,
    };
    let opts = ReachOptions {
        state_bounds: vec![Interval::new(-10.0, 10.0)],
        ..ReachOptions::new(0.05)
    };
    (ha, spec, opts)
}

fn bmc_item(name: &'static str, whole: bool) -> Item {
    let (ha, spec, opts) = sawtooth();
    Item {
        name,
        kind: Kind::Bmc,
        job: Job::Reach {
            ha,
            spec,
            opts,
            whole,
        },
    }
}

/// The battery in its fixed order; the seed picks where the pass starts.
/// Smoke runs leave out the ≈8.5 s therapy synthesis.
fn battery(cfg: &Config) -> Vec<Item> {
    let mut items = vec![
        falsify_item("falsify_fk_0.02", 0.02, false),
        falsify_item("falsify_fk_0.3", 0.3, true),
        calibrate_decay(),
        calibrate_mm(),
        stability(),
        bmc_item("bmc_path_enum", false),
        bmc_item("bmc_whole", true),
    ];
    if !cfg.smoke {
        items.push(therapy());
    }
    let start = (cfg.seed % items.len() as u64) as usize;
    items.rotate_left(start);
    items
}

/// Runs one traced pass of the battery, checks every verdict, and
/// reports the pass split by kind plus the program's progress counters.
/// Part of every traced run (see `layers::probe_all`).
pub fn probe(cfg: &Config, values: &mut Values, tally: &mut Tally) {
    let items = battery(cfg);
    let mut progress = ProgressSnapshot::default();
    let pass = Instant::now();
    for item in &items {
        let ctx = TraceCtx::new(TraceCtx::DEFAULT_CAPACITY);
        let t = Instant::now();
        let outcome = item.run(Some(&ctx));
        *values.entry(item.kind.metric()).or_insert(0.0) += t.elapsed().as_secs_f64() * 1e3;
        let p = ctx.progress.snapshot();
        progress.boxes += p.boxes;
        progress.conflicts += p.conflicts;
        progress.restarts += p.restarts;
        progress.depth = progress.depth.max(p.depth);
        tally.record(outcome.map(|iters| {
            if let Some(n) = iters {
                values.insert("lyapunov.iterations", n as f64);
            }
        }));
    }
    let pass_s = pass.elapsed().as_secs_f64();
    values.insert("icp.boxes", progress.boxes as f64);
    values.insert("icp.boxes_per_s", progress.boxes as f64 / pass_s);
    values.insert("sat.conflicts", progress.conflicts as f64);
    values.insert("sat.restarts", progress.restarts as f64);
    values.insert("bmc.depth", progress.depth as f64);
}
