//! `smc_sweep`: the statistical-verdict hot loop. In-process sessions on
//! the three case studies answer a fixed rotation of `Estimate`, `Sprt`
//! and `Robustness` queries, a fresh seed per query, with warm artifact
//! caches. The end-to-end figures run the pool at one thread (the steady
//! single-thread baseline); the traced run re-runs the sweep in a child
//! at `nproc` threads for `pool.speedup`.

use crate::metrics::Values;
use crate::reference::{self, Speed};
use crate::stats::{self, Tally};
use crate::{mix_seed, sys, Config};
use biocheck_bltl::Bltl;
use biocheck_engine::{Budget, EstimateMethod, Outcome, Query, Report, Session, SmcSpec, Value};
use biocheck_expr::{Atom, RelOp};
use biocheck_models::{cardiac, prostate, radiation};
use biocheck_obs::TraceCtx;
use biocheck_ode::OdeSystem;
use biocheck_smc::Dist;
use std::time::{Duration, Instant};

/// One case study: its session inputs, the monitored property, and the
/// SPRT threshold, set 0.08–0.1 below the model's probability
/// (prostate ≈ 0.48, cardiac ≈ 0.92, radiation = 1), so the test
/// decides after tens to hundreds of samples.
pub struct CaseStudy {
    pub cx: biocheck_expr::Context,
    pub sys: OdeSystem,
    pub spec: SmcSpec,
    pub sprt_theta: f64,
}

/// The three case studies with the repository's bench properties:
/// prostate CAS keeps PSA under 18 for 100 days, the Fenton–Karma cell
/// fires within 30 time units under a random stimulus, and the
/// untreated radiation cell commits to RIP3 within 20 hours.
pub fn case_studies() -> Vec<CaseStudy> {
    let mut m = prostate::cas_model(&prostate::PatientParams::default());
    let psa_ok =
        m.cx.parse("18 - (x + y)")
            .expect("prostate property parses");
    let prostate = CaseStudy {
        spec: SmcSpec {
            init: vec![
                Dist::Uniform(10.0, 20.0),
                Dist::Uniform(0.05, 0.2),
                Dist::Uniform(10.0, 14.0),
            ],
            params: vec![],
            property: Bltl::globally(100.0, Bltl::Prop(Atom::new(psa_ok, RelOp::Ge))),
            t_end: 100.0,
        },
        cx: m.cx,
        sys: m.sys,
        sprt_theta: 0.4,
    };

    let mut m = cardiac::fenton_karma();
    let stim = m.cx.var_id("I_stim").expect("FK has a stimulus");
    let fires = m.cx.parse("u - 0.8").expect("cardiac property parses");
    let cardiac = CaseStudy {
        spec: SmcSpec {
            init: vec![
                Dist::Uniform(0.0, 0.05),
                Dist::Uniform(0.9, 1.0),
                Dist::Uniform(0.9, 1.0),
            ],
            params: vec![(stim, Dist::Uniform(0.0, 0.4))],
            property: Bltl::eventually(30.0, Bltl::Prop(Atom::new(fires, RelOp::Ge))),
            t_end: 30.0,
        },
        cx: m.cx,
        sys: m.sys,
        sprt_theta: 0.85,
    };

    let ha = radiation::tbi_automaton();
    let live = ha.mode_by_name("0").expect("TBI has the untreated mode");
    let sys = OdeSystem::new(ha.states.clone(), ha.modes[live].rhs.clone());
    let mut cx = ha.cx.clone();
    let committed = cx.parse("rip3 - 1").expect("radiation property parses");
    let mut init: Vec<Dist> = radiation::tbi_init().into_iter().map(Dist::Point).collect();
    init[0] = Dist::Uniform(0.1, 0.3);
    let radiation = CaseStudy {
        spec: SmcSpec {
            init,
            params: vec![],
            property: Bltl::eventually(20.0, Bltl::Prop(Atom::new(committed, RelOp::Ge))),
            t_end: 20.0,
        },
        cx,
        sys,
        sprt_theta: 0.9,
    };
    vec![prostate, cardiac, radiation]
}

/// The fixed rotation: per case study an `Estimate`, an `Sprt` and a
/// `Robustness` query. `scale` divides the sample counts (smoke runs).
fn rotation(studies: &[CaseStudy], scale: usize) -> Vec<(usize, Query)> {
    let n = 2000 / scale;
    let mut out = Vec::new();
    for (i, s) in studies.iter().enumerate() {
        out.push((
            i,
            Query::Estimate {
                smc: s.spec.clone(),
                method: EstimateMethod::Fixed { n },
            },
        ));
        out.push((
            i,
            Query::Sprt {
                smc: s.spec.clone(),
                theta: s.sprt_theta,
                indiff: 0.05,
                alpha: 0.001,
                beta: 0.001,
                max_samples: n,
            },
        ));
        out.push((
            i,
            Query::Robustness {
                smc: s.spec.clone(),
                samples: n / 2,
            },
        ));
    }
    out
}

/// Checks a report's shape: complete, probabilities in range.
fn check_shape(r: &Report) -> Result<(), String> {
    if r.outcome != Outcome::Complete {
        return Err(format!("{:?} query stopped early", r.kind));
    }
    let p = match &r.value {
        Value::Estimate(e) => e.p_hat,
        Value::Sprt(s) => s.p_hat,
        Value::Robustness(s) => s.p_hat,
        other => return Err(format!("unexpected value {other:?}")),
    };
    if (0.0..=1.0).contains(&p) && r.provenance.samples > 0 {
        Ok(())
    } else {
        Err(format!(
            "{:?}: p̂ = {p}, samples = {}",
            r.kind, r.provenance.samples
        ))
    }
}

struct Sweep {
    sessions: Vec<Session>,
    queries: Vec<(usize, Query)>,
    next: u64,
}

/// What one timed phase measured. Times and rates are normalised to
/// the reference host (see `reference.rs`).
#[derive(Default)]
struct Phase {
    latencies_ms: Vec<f64>,
    pass_s: Vec<f64>,
    pass_rate: Vec<f64>,
    /// The host's slowdown over each pass, as measured.
    slowdown: Vec<f64>,
    /// Wall seconds of all passes, not normalised.
    raw_s: f64,
    samples: f64,
    steps_weighted: f64,
    early_weighted: f64,
    /// `(query index, seed, fingerprint)` of every answer.
    answers: Vec<(usize, u64, String)>,
}

impl Phase {
    /// Median Bernoulli samples/s over passes.
    fn throughput(&self) -> f64 {
        stats::median(&self.pass_rate)
    }
}

impl Sweep {
    /// Runs whole passes of the rotation until `budget` has elapsed.
    fn run_phase(&mut self, seed: u64, budget: Duration, traced: bool, tally: &mut Tally) -> Phase {
        let mut phase = Phase::default();
        let mut speed = Speed::start();
        let start = Instant::now();
        while phase.pass_s.is_empty() || start.elapsed() < budget {
            let pass_start = Instant::now();
            let mut pass_samples = 0.0;
            let mut pass_ms = Vec::with_capacity(self.queries.len());
            for (qi, (model, query)) in self.queries.iter().enumerate() {
                let qseed = mix_seed(seed, self.next);
                self.next += 1;
                let mut budget = Budget::unlimited();
                if traced {
                    budget = budget.with_trace(TraceCtx::new(TraceCtx::DEFAULT_CAPACITY));
                }
                let t = Instant::now();
                let run = self.sessions[*model]
                    .query(query.clone())
                    .seed(qseed)
                    .budget(budget)
                    .run();
                pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match run {
                    Ok(report) => {
                        let n = report.provenance.samples as f64;
                        pass_samples += n;
                        phase.steps_weighted += report.provenance.avg_steps * n;
                        phase.early_weighted += report.provenance.early_stop_rate * n;
                        tally.record(check_shape(&report));
                        phase.answers.push((qi, qseed, report.fingerprint()));
                    }
                    Err(e) => tally.record(Err(format!("query failed: {e}"))),
                }
            }
            let dt = pass_start.elapsed().as_secs_f64();
            let f = speed.factor();
            phase.latencies_ms.extend(pass_ms.iter().map(|ms| ms / f));
            phase.pass_s.push(dt / f);
            phase.pass_rate.push(pass_samples / dt * f);
            phase.slowdown.push(f);
            phase.raw_s += dt;
            phase.samples += pass_samples;
        }
        phase
    }

    /// Replays the first pass and every eighth later answer on the
    /// sequential path: parallel reports must be fingerprint-equal.
    fn verify(&self, phase: &Phase, tally: &mut Tally) {
        let per_pass = self.queries.len();
        for (k, (qi, qseed, fp)) in phase.answers.iter().enumerate() {
            if k >= per_pass && k % 8 != 0 {
                continue;
            }
            let (model, query) = &self.queries[*qi];
            match self.sessions[*model]
                .query(query.clone())
                .seed(*qseed)
                .sequential()
                .run()
            {
                Ok(r) if r.fingerprint() == *fp => {}
                Ok(_) => tally.fail(format!("query {qi} seed {qseed}: parallel != sequential")),
                Err(e) => tally.fail(format!("sequential replay failed: {e}")),
            }
        }
    }
}

/// Builds the sessions and compiles every plan once (first query of
/// each study, parallel path so the pool is up). Returns the sweep.
fn setup(cfg: &Config) -> Sweep {
    let studies = case_studies();
    let queries = rotation(&studies, cfg.scale());
    let sessions: Vec<Session> = studies
        .into_iter()
        .map(|s| Session::from_parts(s.cx, s.sys))
        .collect();
    for (model, query) in &queries {
        let _ = sessions[*model].query(shrink(query)).seed(0).run();
    }
    Sweep {
        sessions,
        queries,
        next: 0,
    }
}

/// The same query at one sample: compiles its artifacts, costs nothing.
fn shrink(q: &Query) -> Query {
    match q {
        Query::Estimate { smc, .. } => Query::Estimate {
            smc: smc.clone(),
            method: EstimateMethod::Fixed { n: 1 },
        },
        Query::Sprt {
            smc,
            theta,
            indiff,
            alpha,
            beta,
            ..
        } => Query::Sprt {
            smc: smc.clone(),
            theta: *theta,
            indiff: *indiff,
            alpha: *alpha,
            beta: *beta,
            max_samples: 1,
        },
        Query::Robustness { smc, .. } => Query::Robustness {
            smc: smc.clone(),
            samples: 1,
        },
        other => other.clone(),
    }
}

pub fn run(cfg: &Config, values: &mut Values, tally: &mut Tally) {
    // Set-up is well under a millisecond: repeat it for about a second
    // and report the normalised median.
    let (setup_s, mut sweep) = reference::median_reps(|| setup(cfg));
    if !cfg.trace {
        let phase = sweep.run_phase(cfg.seed, cfg.measure(), false, tally);
        sweep.verify(&phase, tally);
        eprintln!(
            "perfbench: {}",
            stats::tail_note("query latencies", phase.latencies_ms.len())
        );
        values.insert("setup_s", setup_s);
        values.insert("rss_mb", sys::peak_rss_mb(None));
        eprintln!(
            "perfbench: host slowdown {:.3} (median over passes); raw {:.0} samples/s",
            stats::median(&phase.slowdown),
            phase.samples / phase.raw_s
        );
        values.insert("throughput_per_s", phase.throughput());
        values.insert("pass_s", stats::median(&phase.pass_s));
        values.insert("p50_ms", stats::quantile(&phase.latencies_ms, 0.5));
        values.insert("p90_ms", stats::quantile(&phase.latencies_ms, 0.9));
        return;
    }
    // Traced run: an untraced half and a traced half of the same
    // rotation; their ratio is the tracing overhead.
    let half = cfg.measure() / 2;
    let plain = sweep.run_phase(cfg.seed, half, false, tally);
    let traced = sweep.run_phase(cfg.seed ^ 0x5eed, half, true, tally);
    sweep.verify(&plain, tally);
    let plain_rate = plain.throughput();
    values.insert("trace.overhead", plain_rate / traced.throughput());
    let samples = plain.samples + traced.samples;
    values.insert(
        "ode.steps_per_sample",
        (plain.steps_weighted + traced.steps_weighted) / samples,
    );
    values.insert(
        "bltl.early_stop_rate",
        (plain.early_weighted + traced.early_weighted) / samples,
    );
    match pool_probe_child(cfg, half) {
        Ok(wide) => {
            values.insert("pool.speedup", wide / plain_rate);
        }
        Err(e) => tally.record(Err(e)),
    }
}

/// The same sweep in a child process whose pool runs `nproc` threads
/// (the pool fixes its width at first use, so it needs its own
/// process). Returns its samples/s.
fn pool_probe_child(cfg: &Config, budget: Duration) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--pool-probe",
            "--seed",
            &cfg.seed.to_string(),
            "--seconds",
            &budget.as_secs_f64().to_string(),
        ])
        .args(if cfg.smoke { &["--smoke"][..] } else { &[][..] })
        .env("BIOCHECK_THREADS", sys::nproc().to_string())
        .env_remove("RAYON_NUM_THREADS")
        .output()
        .map_err(|e| format!("spawn pool probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "pool probe exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("pool probe output: {e}"))
}

/// Body of the `--pool-probe` child: prints samples/s of the untraced
/// sweep at whatever pool width the environment fixed.
pub fn pool_probe(cfg: &Config) -> f64 {
    let mut sweep = setup(cfg);
    let mut tally = Tally::default();
    let phase = sweep.run_phase(cfg.seed, cfg.measure(), false, &mut tally);
    phase.throughput()
}
