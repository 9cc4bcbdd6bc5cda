//! `daemon_mix`: the socket path. A `biocheckd` child process (with a
//! `--persist` spill file) serves `nproc` closed-loop connections made
//! with the repository's own blocking `Client`. Every connection plays
//! the same fixed eight-request cycle: seven hits on a warmed key set
//! (`Estimate` and `Lint` on the three case studies) and one miss. Misses
//! alternate between a fresh seed on known vocabulary and a fresh
//! threshold literal, which grows the model arena and makes
//! `ModelEntry::prepare` rebuild the session and recompile.

use crate::metrics::Values;
use crate::stats::{self, Tally};
use crate::{mix_seed, sys, Config};
use biocheck_engine::Session;
use biocheck_expr::RelOp;
use biocheck_models::radiation;
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, PropSpec, QueryRequest, QuerySpec, Request, SmcSpecWire,
};
use biocheck_serve::{case_study_source, Client, Json, Registry, CASE_STUDIES};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Requests per connection cycle; the last one is the miss.
const CYCLE: usize = 8;
/// Hit keys: an `Estimate` and a `Lint` per case study.
const HIT_KEYS: usize = 2 * CASE_STUDIES.len();

/// Bernoulli samples per `Estimate` (divided by the smoke scale).
fn samples(cfg: &Config) -> usize {
    256 / cfg.scale()
}

/// The case study's bench property with its threshold literal in wire
/// form (same properties as `smc_sweep`; the cardiac stimulus is pinned
/// at registration, so only the initial state is random there).
fn smc_wire(model: usize, literal: &str) -> SmcSpecWire {
    let prop = |bound: f64, expr: String, globally: bool| {
        let inner = Box::new(PropSpec::Prop {
            expr,
            rel: RelOp::Ge,
        });
        if globally {
            PropSpec::Globally { bound, inner }
        } else {
            PropSpec::Eventually { bound, inner }
        }
    };
    match CASE_STUDIES[model] {
        "prostate" => SmcSpecWire {
            init: vec![
                DistSpec::Uniform(10.0, 20.0),
                DistSpec::Uniform(0.05, 0.2),
                DistSpec::Uniform(10.0, 14.0),
            ],
            params: vec![],
            property: prop(100.0, format!("{literal} - (x + y)"), true),
            t_end: 100.0,
        },
        "cardiac" => SmcSpecWire {
            init: vec![
                DistSpec::Uniform(0.0, 0.05),
                DistSpec::Uniform(0.9, 1.0),
                DistSpec::Uniform(0.9, 1.0),
            ],
            params: vec![],
            property: prop(30.0, format!("u - {literal}"), false),
            t_end: 30.0,
        },
        _ => {
            let mut init: Vec<DistSpec> = radiation::tbi_init()
                .into_iter()
                .map(DistSpec::Point)
                .collect();
            init[0] = DistSpec::Uniform(0.1, 0.3);
            SmcSpecWire {
                init,
                params: vec![],
                property: prop(20.0, format!("rip3 - {literal}"), false),
                t_end: 20.0,
            }
        }
    }
}

/// The threshold literal of the case study's property; `fresh > 0`
/// shifts it by `fresh`·10⁻⁹, a constant the model arena has never seen.
fn literal(model: usize, fresh: u64) -> String {
    let base = [18.0, 0.8, 1.0][model];
    format!("{}", base + fresh as f64 * 1e-9)
}

pub fn estimate(cfg: &Config, model: usize, seed: u64, fresh: u64) -> QueryRequest {
    QueryRequest {
        model: CASE_STUDIES[model].to_string(),
        id: None,
        seed,
        budget: BudgetSpec::default(),
        query: QuerySpec::Estimate {
            smc: smc_wire(model, &literal(model, fresh)),
            method: MethodSpec::Fixed { n: samples(cfg) },
        },
        trace: false,
    }
}

fn lint(model: usize) -> QueryRequest {
    QueryRequest {
        model: CASE_STUDIES[model].to_string(),
        id: None,
        seed: 0,
        budget: BudgetSpec::default(),
        query: QuerySpec::Lint { ranges: vec![] },
        trace: false,
    }
}

/// The warmed key set: three estimates (seeded from the run seed), then
/// three lints.
pub fn hit_request(cfg: &Config, key: usize) -> QueryRequest {
    let n = CASE_STUDIES.len();
    if key < n {
        estimate(cfg, key, mix_seed(cfg.seed, key as u64), 0)
    } else {
        lint(key - n)
    }
}

/// One scripted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Hit(usize),
    /// Fresh seed on known vocabulary.
    MissSeed {
        model: usize,
        seed: u64,
    },
    /// Fresh threshold literal: arena growth and a session rebuild.
    MissLiteral {
        model: usize,
        fresh: u64,
    },
}

/// The fixed script: request `pos` of cycle `cycle` on connection
/// `conn` of `conns`. Hits walk the key set; each cycle ends in a miss
/// whose kind alternates cycle by cycle.
fn script(cfg: &Config, conns: usize, conn: usize, cycle: u64, pos: usize) -> Op {
    if pos + 1 < CYCLE {
        return Op::Hit((conn + pos + cycle as usize) % HIT_KEYS);
    }
    let unique = cycle * conns as u64 + conn as u64 + 1;
    let model = (unique % CASE_STUDIES.len() as u64) as usize;
    if cycle.is_multiple_of(2) {
        Op::MissSeed {
            model,
            seed: mix_seed(cfg.seed ^ 0xfeed, unique),
        }
    } else {
        Op::MissLiteral {
            model,
            fresh: unique,
        }
    }
}

fn op_request(cfg: &Config, op: Op) -> QueryRequest {
    match op {
        Op::Hit(key) => hit_request(cfg, key),
        Op::MissSeed { model, seed } => estimate(cfg, model, seed, 0),
        Op::MissLiteral { model, fresh } => estimate(cfg, model, mix_seed(cfg.seed, 99), fresh),
    }
}

/// The fingerprint a direct in-process session gives the request.
fn reference(qr: &QueryRequest) -> Result<String, String> {
    let source = case_study_source(&qr.model).ok_or("unknown case study")?;
    let (mut cx, sys) = source.build()?;
    let query = qr.query.build(&mut cx)?;
    Session::from_parts(cx, sys)
        .query(query)
        .seed(qr.seed)
        .budget(qr.budget.build())
        .run()
        .map(|r| r.fingerprint())
        .map_err(|e| e.to_string())
}

/// A running `biocheckd` child.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(exe: &Path, persist: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0", "--persist"])
            .arg(persist)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon stdout")?);
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("biocheckd listening on ")
            .map(str::to_string);
        let daemon = Daemon {
            child,
            stdout,
            addr: addr.clone().unwrap_or_default(),
        };
        match addr {
            Some(_) => Ok(daemon),
            // Dropping the handle kills and reaps the child.
            None => Err(format!("daemon did not start: {line:?}")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and exit, then reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        Client::connect(self.addr.as_str())
            .and_then(|mut c| c.shutdown().map_err(std::io::Error::other))
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After `shutdown` the child is already reaped; on any earlier
        // failure, never leave a daemon behind.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A decoded reply: served from the cache?, report fingerprint, and the
/// span tree of a traced request.
type Answer = Result<(bool, String, Option<Json>), String>;

/// A reply as the load generator saw it.
struct Reply {
    conn: usize,
    cycle: u64,
    op: Op,
    request: QueryRequest,
    rtt_ms: f64,
    outcome: Answer,
}

/// Sends one request without retry: an `overloaded` or any other error
/// reply is a failed operation, never silently retried.
fn exchange(client: &mut Client, qr: &QueryRequest) -> (f64, Answer) {
    let t = Instant::now();
    let reply = client.request(&Request::Query(qr.clone()));
    let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
    let outcome = reply.and_then(|j| {
        let cached = j
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or("reply missing cached")?;
        let fp = j
            .get("report")
            .and_then(|r| r.get("fingerprint"))
            .and_then(Json::as_str)
            .ok_or("reply missing fingerprint")?
            .to_string();
        Ok((cached, fp, j.get("trace").cloned()))
    });
    (rtt_ms, outcome)
}

/// Set-up: spawn, register the three case studies, and warm the key set,
/// checking each warm answer against its direct reference `refs[key]`.
fn setup(cfg: &Config, exe: &Path, persist: &Path, refs: &[String]) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(exe, persist)?;
    let mut client = Client::connect(daemon.addr.as_str()).map_err(|e| format!("connect: {e}"))?;
    for name in CASE_STUDIES {
        let source = case_study_source(name).ok_or("unknown case study")?;
        client.register(name, &source)?;
    }
    for (key, want) in refs.iter().enumerate() {
        let (_, outcome) = exchange(&mut client, &hit_request(cfg, key));
        match outcome? {
            (false, fp, _) if fp == *want => {}
            (cached, fp, _) => {
                return Err(format!(
                    "warming key {key}: cached={cached}, fingerprint {fp} != direct {want}"
                ))
            }
        }
    }
    Ok(daemon)
}

/// Runs the script on `conns` connections until `budget` elapses,
/// numbering cycles from `first_cycle` (a later phase starts past the
/// earlier one, so its misses are fresh too).
fn drive(
    cfg: &Config,
    addr: &str,
    conns: usize,
    budget: Duration,
    first_cycle: u64,
    trace: bool,
) -> Result<Vec<Reply>, String> {
    let deadline = Instant::now() + budget;
    let per_conn: Vec<Result<Vec<Reply>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn(move || -> Result<Vec<Reply>, String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    'cycles: for cycle in first_cycle.. {
                        for pos in 0..CYCLE {
                            // Whole cycles only, at least one: the mix stays 7:1.
                            if pos == 0 && cycle > first_cycle && Instant::now() >= deadline {
                                break 'cycles;
                            }
                            let op = script(cfg, conns, conn, cycle, pos);
                            let mut request = op_request(cfg, op);
                            request.trace = trace;
                            let (rtt_ms, outcome) = exchange(&mut client, &request);
                            out.push(Reply {
                                conn,
                                cycle,
                                op,
                                request,
                                rtt_ms,
                                outcome,
                            });
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for replies in per_conn {
        all.extend(replies?);
    }
    Ok(all)
}

/// Most misses re-run in process per check: each costs a direct session
/// run, so a fast daemon (thousands of misses a run) is sampled evenly
/// down to about this many to stay inside the run's time limit.
const MISS_REFERENCE_RUNS: usize = 400;

/// Checks every reply: hits must be cached and equal the direct
/// reference; misses must be computed, and (an even sample of at most
/// [`MISS_REFERENCE_RUNS`]) equal a direct run of the same request.
fn verify(replies: &[Reply], refs: &[String], tally: &mut Tally) {
    let misses = replies.iter().filter(|r| !is_hit(r)).count();
    let stride = misses.div_ceil(MISS_REFERENCE_RUNS).max(1);
    let mut miss_index = 0;
    for r in replies {
        let rerun = !is_hit(r) && miss_index % stride == 0;
        miss_index += usize::from(!is_hit(r));
        let check = match (&r.outcome, r.op) {
            (Err(e), _) => Err(format!("{:?}: error reply: {e}", r.op)),
            (Ok((cached, fp, _)), Op::Hit(key)) => {
                if !cached {
                    Err(format!("hit key {key} was recomputed"))
                } else if *fp != refs[key] {
                    Err(format!(
                        "hit key {key}: fingerprint differs from direct session"
                    ))
                } else {
                    Ok(())
                }
            }
            (Ok((cached, fp, _)), op) => {
                if *cached {
                    Err(format!("{op:?} was served from the cache"))
                } else if !rerun {
                    Ok(())
                } else {
                    match reference(&r.request) {
                        Ok(want) if want == *fp => Ok(()),
                        Ok(_) => Err(format!("{op:?}: fingerprint differs from direct session")),
                        Err(e) => Err(format!("{op:?}: direct run failed: {e}")),
                    }
                }
            }
        };
        tally.record(check);
    }
}

fn is_hit(r: &Reply) -> bool {
    matches!(r.op, Op::Hit(_))
}

fn latencies(replies: &[Reply], hits: Option<bool>) -> Vec<f64> {
    replies
        .iter()
        .filter(|r| hits.is_none_or(|h| is_hit(r) == h))
        .map(|r| r.rtt_ms)
        .collect()
}

/// Wall time of each completed eight-request cycle, per connection.
fn cycle_s(replies: &[Reply]) -> Vec<f64> {
    let mut cycles: std::collections::BTreeMap<(usize, u64), (usize, f64)> = Default::default();
    for r in replies {
        let c = cycles.entry((r.conn, r.cycle)).or_default();
        c.0 += 1;
        c.1 += r.rtt_ms / 1e3;
    }
    cycles
        .into_values()
        .filter(|&(n, _)| n == CYCLE)
        .map(|(_, s)| s)
        .collect()
}

/// `(name, duration µs)` of every span in a traced reply's tree.
fn reply_spans(trace: &Json) -> Vec<(String, f64)> {
    trace
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            let name = s.get("name").and_then(Json::as_str)?;
            Some((name.to_string(), s.get("dur_us").and_then(Json::as_f64)?))
        })
        .collect()
}

/// Scratch directory for the spill files, inside the build directory.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.parent()
        .unwrap_or(Path::new("."))
        .join(format!("perfbench-daemon-{}", std::process::id()))
}

pub fn run(cfg: &Config, values: &mut Values, tally: &mut Tally) {
    let dir = scratch_dir();
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| measure(cfg, &dir, values, tally));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = outcome {
        tally.record(Err(e));
    }
}

fn measure(cfg: &Config, dir: &Path, values: &mut Values, tally: &mut Tally) -> Result<(), String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("own executable: {e}"))?
        .with_file_name("biocheckd");
    let refs = (0..HIT_KEYS)
        .map(|key| reference(&hit_request(cfg, key)))
        .collect::<Result<Vec<_>, _>>()?;
    // Set up three times (fresh daemon and spill file each) and keep
    // the last daemon; set-up time is the median.
    let mut times = Vec::new();
    let mut daemon = None;
    for rep in 0..3 {
        if let Some(old) = daemon.take() {
            Daemon::shutdown(old)?;
        }
        let t = Instant::now();
        daemon = Some(setup(
            cfg,
            &exe,
            &dir.join(format!("persist-{rep}.log")),
            &refs,
        )?);
        times.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("three set-ups ran");
    let conns = sys::nproc();
    if !cfg.trace {
        let t = Instant::now();
        let replies = drive(cfg, &daemon.addr, conns, cfg.measure(), 0, false)?;
        let wall = t.elapsed().as_secs_f64();
        values.insert("rss_mb", sys::peak_rss_mb(Some(daemon.pid())));
        daemon.shutdown()?;
        verify(&replies, &refs, tally);
        let all = latencies(&replies, None);
        eprintln!(
            "perfbench: {}",
            stats::tail_note("reply latencies", all.len())
        );
        values.insert("setup_s", stats::median(&times));
        values.insert("throughput_per_s", replies.len() as f64 / wall);
        values.insert("pass_s", stats::median(&cycle_s(&replies)));
        values.insert("p50_ms", stats::quantile(&all, 0.5));
        values.insert("p90_ms", stats::quantile(&all, 0.9));
        return Ok(());
    }
    let half = cfg.measure() / 2;
    let plain = drive(cfg, &daemon.addr, conns, half, 0, false)?;
    let traced = drive(cfg, &daemon.addr, conns, half, 1 << 20, true)?;
    let stats_json = Client::connect(daemon.addr.as_str())
        .map_err(|e| format!("connect: {e}"))?
        .stats()?;
    daemon.shutdown()?;
    verify(&plain, &refs, tally);
    verify(&traced, &refs, tally);

    let p50 = |r: &[Reply], hits| stats::quantile(&latencies(r, Some(hits)), 0.5);
    values.insert("daemon.hit_p50_ms", p50(&plain, true));
    values.insert("daemon.miss_p50_ms", p50(&plain, false));
    values.insert("trace.overhead", p50(&traced, true) / p50(&plain, true));
    values.insert(
        "trace.overhead_miss",
        p50(&traced, false) / p50(&plain, false),
    );

    // Span durations (µs) by name over every traced reply; the socket's
    // share of a hit is its round trip minus the server-side request.
    let mut spans: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut overhead_us = Vec::new();
    for r in &traced {
        let Ok((_, _, Some(trace))) = &r.outcome else {
            tally.fail(format!("{:?}: traced reply carries no trace", r.op));
            continue;
        };
        for (name, us) in reply_spans(trace) {
            if is_hit(r) && name == "serve.request" {
                overhead_us.push(r.rtt_ms * 1e3 - us);
            }
            spans.entry(name).or_default().push(us);
        }
    }
    let span_q = |name: &str, q: f64| spans.get(name).map_or(0.0, |v| stats::quantile(v, q));
    values.insert("socket.overhead_us", stats::median(&overhead_us));
    values.insert(
        "scheduler.queue_wait_p50_ms",
        span_q("serve.queue_wait", 0.5) / 1e3,
    );
    values.insert(
        "scheduler.queue_wait_p90_ms",
        span_q("serve.queue_wait", 0.9) / 1e3,
    );
    values.insert("serve.execute_ms", span_q("serve.execute", 0.5) / 1e3);
    values.insert("persist.append_us", span_q("serve.persist_append", 0.5));
    values.insert(
        "cache.hit_ratio",
        stats_json
            .get("cache")
            .and_then(|c| c.get("hit_ratio"))
            .and_then(Json::as_f64)
            .ok_or("stats missing cache.hit_ratio")?,
    );
    values.insert(
        "registry.session_builds",
        session_builds(cfg, &plain, &traced)?,
    );
    Ok(())
}

/// Sessions the daemon's registry built for this script: the same
/// requests, in arrival order per connection, prepared against an
/// in-process registry (the `stats` op does not expose the count).
fn session_builds(cfg: &Config, plain: &[Reply], traced: &[Reply]) -> Result<f64, String> {
    let registry = Registry::new();
    for name in CASE_STUDIES {
        registry.register(name, &case_study_source(name).ok_or("unknown case study")?)?;
    }
    let warm = (0..HIT_KEYS).map(|k| hit_request(cfg, k));
    for qr in warm.chain(plain.iter().chain(traced).map(|r| r.request.clone())) {
        let entry = registry.get(&qr.model).ok_or("model not registered")?;
        entry.prepare(|cx| qr.query.build(cx))?;
    }
    Ok(CASE_STUDIES
        .iter()
        .filter_map(|n| registry.get(n))
        .map(|e| e.session_builds() as f64)
        .sum())
}
