//! `biocheck_client` — blocking client for a running `biocheckd`.
//!
//! ```text
//! biocheck_client --connect HOST:PORT            # stdin lines sent as they are, replies to stdout
//! biocheck_client --connect HOST:PORT --selftest # scripted batch + fingerprint check
//! biocheck_client --connect HOST:PORT --selftest --expect-warm # cache must already be hot
//! biocheck_client --connect HOST:PORT --selftest --expect-warm --no-register # registry log must serve too
//! biocheck_client --connect HOST:PORT --lint MODEL # static pre-flight of a case-study model
//! biocheck_client --connect HOST:PORT --stats-watch [--interval-ms MS] [--count N]
//! biocheck_client --connect HOST:PORT --trace-export # Chrome-trace JSON to stdout
//! biocheck_client --connect HOST:PORT --shutdown # stop the daemon
//! ```
//!
//! `--selftest` is the CI daemon smoke: it registers a model over the
//! wire, runs a scripted query batch twice (cold then memoized),
//! re-computes every query on a direct in-process
//! [`Session`] — exiting non-zero unless the
//! daemon's reports are `fingerprint()`-identical to the direct runs
//! and the second pass was served from the cache, with a median round
//! trip under 10 ms (a memoized hit on loopback is sub-millisecond; a
//! Nagle-delayed exchange takes ≈44 ms). With `--expect-warm`
//! even the *first* pass must be all cache hits — the CI
//! crash-recovery check uses this against a daemon restarted (after
//! SIGKILL) from its `--persist` spill file, proving warm-started
//! results are fingerprint-identical to fresh computation. With
//! `--no-register` the client never sends a `register` at all: the
//! selftest then passes only if the daemon's `--registry` log alone
//! restored the model, proving a crash is fully transparent to clients
//! (no re-registration, same fingerprints, warm cache).
//!
//! `--lint MODEL` registers one of the built-in case-study models
//! (`prostate`, `cardiac`, `radiation` — rendered from
//! `biocheck_models`) and prints the daemon's `{"op":"lint"}` report as
//! a single canonical JSON line; CI diffs that line against the pinned
//! `fixtures/lint_MODEL.json`.
//!
//! `--stats-watch` polls `{"op":"stats"}` on an interval (default
//! 2000 ms) and pretty-prints one line per sample: **deltas** for the
//! monotone counters (cache hits/misses, shed, expired) and current
//! values for the gauges and latency percentiles — both the lifetime
//! execute percentiles and the last-60-seconds p99, so a burst of
//! traffic is visible as the change per interval rather than buried
//! in lifetime totals. When requests are in flight their `inflight`
//! rows print underneath: model, kind, elapsed, and (for traced
//! requests) the live solver progress counters. `--count N` stops
//! after N samples (default: forever).
//!
//! `--trace-export` fetches `{"op":"trace_export"}` and prints the
//! Chrome trace-event JSON (open in `chrome://tracing` or Perfetto)
//! as one line to stdout; non-empty only when the daemon traces
//! (`--trace` / `--trace-out`) or clients sent `"trace": true`.
//!
//! Every socket operation is timeout-bounded (see
//! [`biocheck_serve::ClientConfig`]): a dead or hung daemon makes the
//! client fail fast with a diagnostic instead of blocking forever.

use biocheck_engine::Session;
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, SmcSpecWire,
};
use biocheck_serve::Client;
use std::io::BufRead;

fn selftest_model() -> ModelSource {
    ModelSource {
        states: vec![
            ("u".into(), "v - u^3 + k*u".into()),
            ("v".into(), "-0.5*v - u".into()),
        ],
        consts: vec![("k".into(), 0.2)],
    }
}

fn selftest_requests() -> Vec<QueryRequest> {
    let prop = |expr: &str, bound: f64| PropSpec::Eventually {
        bound,
        inner: Box::new(PropSpec::Prop {
            expr: expr.into(),
            rel: biocheck_expr::RelOp::Ge,
        }),
    };
    let smc = |expr: &str| SmcSpecWire {
        init: vec![DistSpec::Uniform(-1.0, 1.0), DistSpec::Uniform(-0.5, 0.5)],
        params: vec![],
        property: prop(expr, 2.0),
        t_end: 2.0,
    };
    let mut out = vec![];
    for (i, expr) in ["u - 0.5", "u - 0.2", "0.4 - v"].iter().enumerate() {
        out.push(QueryRequest {
            model: "selftest".into(),
            id: Some(i as u64),
            seed: 7 + i as u64,
            budget: BudgetSpec::default(),
            query: QuerySpec::Estimate {
                smc: smc(expr),
                method: MethodSpec::Fixed { n: 120 },
            },
            trace: false,
        });
    }
    out.push(QueryRequest {
        model: "selftest".into(),
        id: Some(90),
        seed: 11,
        budget: BudgetSpec {
            max_samples: Some(40),
            ..BudgetSpec::default()
        },
        query: QuerySpec::Sprt {
            smc: smc("u - 0.5"),
            theta: 0.5,
            indiff: 0.1,
            alpha: 0.05,
            beta: 0.05,
            max_samples: 2_000,
        },
        trace: false,
    });
    out.push(QueryRequest {
        model: "selftest".into(),
        id: Some(91),
        seed: 13,
        budget: BudgetSpec::default(),
        query: QuerySpec::Robustness {
            smc: smc("u - 0.2"),
            samples: 60,
        },
        trace: false,
    });
    // One static-analysis probe: lint is read-only and memoizes like any
    // other count-budget query, so the two-pass loop checks the cold
    // fingerprint against the direct session AND the warm cache hit (and
    // under --expect-warm, that lint reports survive the persist codec).
    out.push(QueryRequest {
        model: "selftest".into(),
        id: Some(92),
        seed: 0,
        budget: BudgetSpec::default(),
        query: QuerySpec::Lint { ranges: vec![] },
        trace: false,
    });
    out
}

/// `--lint NAME`: registers the named built-in case-study model and
/// prints the daemon's lint report as one canonical JSON line — the
/// exact bytes pinned by `fixtures/lint_*.json` in CI (only the
/// deterministic report parts; provenance carries wall-clock timings
/// that would break a byte-for-byte diff).
fn lint_model(addr: &str, name: &str) -> Result<(), String> {
    let source = biocheck_serve::case_study_source(name).ok_or_else(|| {
        format!("unknown case-study model {name:?} (expected prostate, cardiac, or radiation)")
    })?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let model = format!("lint-{name}");
    client.register(&model, &source)?;
    let reply = client.query(&QueryRequest {
        model,
        id: None,
        seed: 0,
        budget: BudgetSpec::default(),
        query: QuerySpec::Lint { ranges: vec![] },
        trace: false,
    })?;
    let value = reply
        .report
        .get("value")
        .cloned()
        .unwrap_or(biocheck_serve::Json::Null);
    let pinned = biocheck_serve::pinned_lint_json(name, value, reply.fingerprint);
    println!("{}", pinned.render());
    Ok(())
}

/// Ceiling on the median round trip of the memoized second pass.
const WARM_MEDIAN_BOUND: std::time::Duration = std::time::Duration::from_millis(10);

fn selftest(addr: &str, expect_warm: bool, no_register: bool) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.ping()?;
    let source = selftest_model();
    if no_register {
        eprintln!("selftest: --no-register, relying on the daemon's registry log");
    } else {
        let fingerprint = client.register("selftest", &source)?;
        eprintln!("selftest: registered model {fingerprint}");
    }

    // Direct in-process reference: same source, same queries, fresh
    // session — what the daemon must reproduce bit-for-bit.
    let (mut cx, sys) = source.build()?;
    let requests = selftest_requests();
    let direct: Vec<String> = {
        let queries: Vec<_> = requests
            .iter()
            .map(|qr| qr.query.build(&mut cx))
            .collect::<Result<_, _>>()?;
        let session = Session::from_parts(cx, sys);
        queries
            .iter()
            .zip(&requests)
            .map(|(q, qr)| {
                session
                    .query(q.clone())
                    .seed(qr.seed)
                    .budget(qr.budget.build())
                    .run()
                    .map(|r| r.fingerprint())
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?
    };

    let mut warm_rtts = Vec::new();
    for pass in 0..2 {
        for (i, qr) in requests.iter().enumerate() {
            let t = std::time::Instant::now();
            let reply = client.query(qr)?;
            if pass == 1 {
                warm_rtts.push(t.elapsed());
            }
            if reply.fingerprint != direct[i] {
                return Err(format!(
                    "query {i} pass {pass}: daemon fingerprint {} != direct {}",
                    reply.fingerprint, direct[i]
                ));
            }
            if pass == 1 && !reply.cached {
                return Err(format!("query {i}: second pass not served from cache"));
            }
            if pass == 0 && expect_warm && !reply.cached {
                return Err(format!(
                    "query {i}: --expect-warm but the first pass was not a cache hit \
                     (persistence warm start failed?)"
                ));
            }
            eprintln!(
                "selftest: query {i} pass {pass} ok (cached = {})",
                reply.cached
            );
        }
    }
    // Memoized replies are sub-millisecond on loopback; a transport
    // regression (Nagle holding a split request for the delayed ACK)
    // puts the median near 44 ms.
    warm_rtts.sort();
    let median = warm_rtts[warm_rtts.len() / 2];
    if median > WARM_MEDIAN_BOUND {
        return Err(format!(
            "warm-pass median round trip {median:?} exceeds {WARM_MEDIAN_BOUND:?}"
        ));
    }
    eprintln!("selftest: warm-pass median round trip {median:?}");
    let stats = client.stats()?;
    eprintln!("selftest: stats {}", stats.render());
    let hits = stats
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(biocheck_serve::Json::as_usize)
        .unwrap_or(0);
    if hits < requests.len() {
        return Err(format!(
            "expected >= {} cache hits, daemon reports {hits}",
            requests.len()
        ));
    }
    // The batch just mixed cold computes and warm hits, so the latency
    // histograms must hold non-trivial ordered percentiles.
    for phase in ["queue_wait", "execute"] {
        // A warm-started daemon (--expect-warm) never executes: both
        // passes are cache hits, and these phases legitimately stay
        // empty.
        if expect_warm {
            break;
        }
        let p = |q: &str| {
            stats
                .get("latency")
                .and_then(|l| l.get(phase))
                .and_then(|p| p.get(q))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("stats.latency.{phase}.{q} missing"))
        };
        let (p50, p99) = (p("p50_ms")?, p("p99_ms")?);
        if !(p99 >= p50 && p50 > 0.0) {
            return Err(format!(
                "stats.latency.{phase}: expected p99 >= p50 > 0, got p50={p50} p99={p99}"
            ));
        }
        eprintln!("selftest: latency.{phase} p50={p50:.4}ms p99={p99:.4}ms");
    }
    let metrics = client.metrics()?;
    if !metrics.contains("biocheckd_request_latency_seconds") {
        return Err("metrics exposition missing biocheckd_request_latency_seconds".into());
    }
    trace_smoke(&mut client)?;
    println!(
        "selftest OK: {} queries, daemon == direct session bit-for-bit, warm pass fully memoized{}",
        requests.len(),
        if expect_warm {
            " (warm-started from persisted cache)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Request-scoped tracing smoke, run at the end of `--selftest`: one
/// traced query must return a span tree whose root is `serve.request`
/// with `engine.query` nested underneath, identical in fingerprint to
/// its untraced twin from the earlier passes, and the subsequent
/// `trace_export` must hold at least one complete Chrome trace event
/// for it.
fn trace_smoke(client: &mut Client) -> Result<(), String> {
    use biocheck_serve::Json;
    let requests = selftest_requests();
    // A seed no earlier selftest used, so the traced run misses the
    // cache and actually exercises the engine span instrumentation —
    // even on a daemon warm-started from a log that holds every earlier
    // selftest's results (the crash-recovery `--expect-warm` run).
    let mut traced = requests[0].clone();
    traced.id = None;
    traced.seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(9_901, |d| d.as_nanos() as u64);
    traced.trace = true;
    let mut untraced = traced.clone();
    untraced.trace = false;
    let reply = client.request(&biocheck_serve::wire::Request::Query(traced))?;
    let trace = reply
        .get("trace")
        .ok_or("traced query reply missing trace object")?;
    let spans = match trace.get("spans") {
        Some(Json::Arr(spans)) => spans,
        _ => return Err("trace object missing spans array".into()),
    };
    let has = |name: &str| {
        spans
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some(name))
    };
    for name in ["serve.request", "serve.execute", "engine.query"] {
        if !has(name) {
            return Err(format!(
                "traced reply has no {name} span: {}",
                trace.render()
            ));
        }
    }
    let progress_samples = trace
        .get("progress")
        .and_then(|p| p.get("samples"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    if progress_samples <= 0.0 {
        return Err("traced estimate reports zero SMC samples drawn".into());
    }
    // Tracing must be purely observational: the untraced twin has the
    // same fingerprint (and is a cache hit on the traced entry).
    let fp = |reply: &Json| {
        reply
            .get("report")
            .and_then(|r| r.get("fingerprint"))
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or("query reply missing fingerprint")
    };
    let traced_fp = fp(&reply)?;
    let twin = client.request(&biocheck_serve::wire::Request::Query(untraced))?;
    if fp(&twin)? != traced_fp {
        return Err("traced and untraced fingerprints differ".into());
    }
    if twin.get("cached").and_then(Json::as_bool) != Some(true) {
        return Err("untraced twin missed the cache entry of its traced run".into());
    }
    // And the daemon retained the trace for export.
    let export = client.trace_export()?;
    let events = match export.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("trace_export missing traceEvents".into()),
    };
    let complete = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("ts").is_some()
                && e.get("dur").is_some()
        })
        .count();
    if complete == 0 {
        return Err("trace_export holds no complete span events".into());
    }
    eprintln!(
        "selftest: tracing ok ({} spans in reply, {complete} exported events, {} samples counted)",
        spans.len(),
        progress_samples
    );
    Ok(())
}

/// The counters and gauges one `--stats-watch` sample displays.
#[derive(Clone, Copy, Default)]
struct WatchSample {
    hits: f64,
    misses: f64,
    shed: f64,
    expired: f64,
    queue_depth: f64,
    in_flight: f64,
    exec_p50_ms: f64,
    exec_p99_ms: f64,
    exec_p99_60s_ms: f64,
    wait_p99_ms: f64,
}

fn watch_sample(stats: &biocheck_serve::Json) -> WatchSample {
    let f = |path: &[&str]| {
        let mut v = Some(stats);
        for k in path {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    WatchSample {
        hits: f(&["cache", "hits"]),
        misses: f(&["cache", "misses"]),
        shed: f(&["scheduler", "shed"]),
        expired: f(&["scheduler", "expired"]),
        queue_depth: f(&["scheduler", "queue_depth"]),
        in_flight: f(&["scheduler", "in_flight"]),
        exec_p50_ms: f(&["latency", "execute", "p50_ms"]),
        exec_p99_ms: f(&["latency", "execute", "p99_ms"]),
        exec_p99_60s_ms: f(&["latency", "execute", "p99_60s_ms"]),
        wait_p99_ms: f(&["latency", "queue_wait", "p99_ms"]),
    }
}

/// Renders the `inflight` rows of a stats reply, one indented line per
/// currently executing request: model, query kind, elapsed, and — for
/// traced requests — the non-zero live solver progress counters.
fn inflight_lines(stats: &biocheck_serve::Json) -> Vec<String> {
    use biocheck_serve::Json;
    let Some(Json::Arr(rows)) = stats.get("inflight") else {
        return vec![];
    };
    rows.iter()
        .map(|row| {
            let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            let mut line = format!(
                "    ↳ {} {} {:.0}ms",
                s("model"),
                s("kind"),
                row.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0)
            );
            if let Some(Json::Obj(progress)) = row.get("progress") {
                for (name, value) in progress {
                    let v = value.as_f64().unwrap_or(0.0);
                    if v > 0.0 {
                        let _ =
                            std::fmt::Write::write_fmt(&mut line, format_args!(" {name}={v:.0}"));
                    }
                }
            }
            line
        })
        .collect()
}

/// Polls stats and prints per-interval deltas for the counters plus
/// current gauge and percentile values, one line per sample.
fn stats_watch(
    addr: &str,
    interval: std::time::Duration,
    count: Option<u64>,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut prev: Option<WatchSample> = None;
    let mut taken = 0u64;
    println!(
        "{:>8} {:>8} {:>6} {:>8} {:>6} {:>7} {:>10} {:>10} {:>11} {:>10}",
        "Δhits",
        "Δmisses",
        "Δshed",
        "Δexpired",
        "queue",
        "running",
        "exec_p50ms",
        "exec_p99ms",
        "p99_60s_ms",
        "wait_p99ms"
    );
    loop {
        let stats = client.stats()?;
        let s = watch_sample(&stats);
        let d = prev.unwrap_or(s);
        println!(
            "{:>8} {:>8} {:>6} {:>8} {:>6} {:>7} {:>10.4} {:>10.4} {:>11.4} {:>10.4}",
            s.hits - d.hits,
            s.misses - d.misses,
            s.shed - d.shed,
            s.expired - d.expired,
            s.queue_depth,
            s.in_flight,
            s.exec_p50_ms,
            s.exec_p99_ms,
            s.exec_p99_60s_ms,
            s.wait_p99_ms,
        );
        for line in inflight_lines(&stats) {
            println!("{line}");
        }
        prev = Some(s);
        taken += 1;
        if count.is_some_and(|n| taken >= n) {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    if args.iter().any(|a| a == "--selftest") {
        let expect_warm = args.iter().any(|a| a == "--expect-warm");
        let no_register = args.iter().any(|a| a == "--no-register");
        if let Err(e) = selftest(&addr, expect_warm, no_register) {
            eprintln!("selftest FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(name) = args
        .iter()
        .position(|a| a == "--lint")
        .and_then(|i| args.get(i + 1))
    {
        if let Err(e) = lint_model(&addr, name) {
            eprintln!("lint: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--stats-watch") {
        let num_flag = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .and_then(|v| v.parse::<u64>().ok())
        };
        let interval = std::time::Duration::from_millis(num_flag("--interval-ms").unwrap_or(2000));
        if let Err(e) = stats_watch(&addr, interval, num_flag("--count")) {
            eprintln!("stats-watch: {e}");
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--trace-export") {
        let result = Client::connect(addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.trace_export());
        match result {
            Ok(json) => println!("{}", json.render()),
            Err(e) => {
                eprintln!("trace-export: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--shutdown") {
        let result = Client::connect(addr.as_str())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown());
        if let Err(e) = result {
            eprintln!("shutdown: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Raw mode: forward each stdin line verbatim, print each reply line
    // as the daemon wrote it. Only a failed exchange is reported here.
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            std::process::exit(1);
        }
    };
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match client.request_line(&line) {
            Ok(reply) => println!("{reply}"),
            Err(e) => {
                use biocheck_serve::Json;
                let error = Json::obj([("ok", Json::Bool(false)), ("error", Json::str(e))]);
                println!("{}", error.render());
            }
        }
    }
}
