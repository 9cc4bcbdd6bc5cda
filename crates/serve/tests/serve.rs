//! End-to-end serving tests: the memoization invariant (cache-hit
//! reports bit-identical to fresh computation, across session rebuilds
//! and request interleavings), the TCP daemon against direct engine
//! sessions, concurrent-client determinism, and per-request
//! budgets/cancellation.

use biocheck_engine::{Outcome, Session};
use biocheck_serve::server::{serve, ServeConfig, ServeCore, ServeError};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, SmcSpecWire,
};
use biocheck_serve::{AdmitWait, Client, Json};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn decay_source() -> ModelSource {
    ModelSource {
        states: vec![("x".into(), "-k*x".into())],
        consts: vec![("k".into(), 1.0)],
    }
}

fn estimate(expr: &str, seed: u64, n: usize) -> QueryRequest {
    QueryRequest {
        model: "decay".into(),
        id: None,
        seed,
        budget: BudgetSpec::default(),
        query: QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Uniform(0.5, 1.5)],
                params: vec![],
                property: PropSpec::Eventually {
                    bound: 0.01,
                    inner: Box::new(PropSpec::Prop {
                        expr: expr.into(),
                        rel: biocheck_expr::RelOp::Ge,
                    }),
                },
                t_end: 0.01,
            },
            method: MethodSpec::Fixed { n },
        },
        trace: false,
    }
}

/// A genuinely long request: an SPRT at theta ≈ p with a tiny
/// indifference region needs millions of samples, so a cancel wins by
/// a huge margin.
fn long_sprt(id: u64) -> QueryRequest {
    QueryRequest {
        model: "decay".into(),
        id: Some(id),
        seed: 6,
        budget: BudgetSpec::default(),
        query: QuerySpec::Sprt {
            smc: SmcSpecWire {
                init: vec![DistSpec::Uniform(0.5, 1.5)],
                params: vec![],
                property: PropSpec::Eventually {
                    bound: 0.01,
                    inner: Box::new(PropSpec::Prop {
                        expr: "x - 1".into(),
                        rel: biocheck_expr::RelOp::Ge,
                    }),
                },
                t_end: 0.01,
            },
            theta: 0.5,
            indiff: 0.001,
            alpha: 0.001,
            beta: 0.001,
            max_samples: usize::MAX / 2,
        },
        trace: false,
    }
}

/// The tentpole invariant: a cached report is `fingerprint()`-identical
/// to a fresh computation — including when the serving core processed
/// other queries in between (which grow the model's expression arena
/// and rebuild its session) and when requests arrive in a different
/// order on a different core.
#[test]
fn cached_reports_equal_fresh_computation() {
    let a = ServeCore::new(ServeConfig::default());
    a.register("decay", &decay_source()).unwrap();
    let q1 = estimate("x - 1", 42, 150);
    let q2 = estimate("x - 0.8", 42, 150);
    let q3 = estimate("x - 1.2", 9, 80);

    let (r1_cold, c) = a.run_query(&q1).unwrap();
    assert!(!c);
    // Interleave different vocabulary (forces session rebuilds) …
    let (_r2, _) = a.run_query(&q2).unwrap();
    let (_r3, _) = a.run_query(&q3).unwrap();
    // … then hit the cache for q1.
    let (r1_hit, c) = a.run_query(&q1).unwrap();
    assert!(c, "identical request must be memoized");
    assert_eq!(r1_cold.fingerprint(), r1_hit.fingerprint());

    // A different core that saw the queries in REVERSE order (different
    // arena growth history, different NodeIds) must produce the same
    // reports — canonical keys and display-based lowering make the
    // cache collision-free across histories.
    let b = ServeCore::new(ServeConfig::default());
    b.register("decay", &decay_source()).unwrap();
    let (r3b, _) = b.run_query(&q3).unwrap();
    let (r2b, _) = b.run_query(&q2).unwrap();
    let (r1b, _) = b.run_query(&q1).unwrap();
    assert_eq!(r1_cold.fingerprint(), r1b.fingerprint());
    assert_eq!(_r2.fingerprint(), r2b.fingerprint());
    assert_eq!(_r3.fingerprint(), r3b.fingerprint());

    let stats = a.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.inserts, 3);
}

/// Wire round-trip: responses from a real TCP daemon fingerprint-equal
/// direct `Session` runs of the same queries.
#[test]
fn daemon_matches_direct_session_runs() {
    let core = Arc::new(ServeCore::new(ServeConfig::default()));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = daemon.addr;

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let fingerprint = client.register("decay", &decay_source()).unwrap();
    assert_eq!(fingerprint.len(), 16, "fnv64 hex fingerprint");

    let requests = [
        estimate("x - 1", 7, 120),
        estimate("x - 0.8", 8, 120),
        QueryRequest {
            model: "decay".into(),
            id: None,
            seed: 3,
            budget: BudgetSpec::default(),
            query: QuerySpec::Stability {
                region: vec![(-0.5, 0.5)],
                r_min: 0.1,
                r_max: 0.4,
            },
            trace: false,
        },
    ];

    // Direct reference: one session, same query construction.
    let (mut cx, sys) = decay_source().build().unwrap();
    let queries: Vec<_> = requests
        .iter()
        .map(|qr| qr.query.build(&mut cx).unwrap())
        .collect();
    let session = Session::from_parts(cx, sys);
    for (qr, query) in requests.iter().zip(queries) {
        let direct = session.query(query).seed(qr.seed).run().unwrap();
        let reply = client.query(qr).unwrap();
        assert_eq!(
            reply.fingerprint,
            direct.fingerprint(),
            "wire result diverged for {qr:?}"
        );
        assert!(!reply.cached);
        // Second round: memoized, same fingerprint.
        let reply2 = client.query(qr).unwrap();
        assert!(reply2.cached);
        assert_eq!(reply2.fingerprint, direct.fingerprint());
    }

    // Stats over the wire.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_usize),
        Some(3)
    );
    assert_eq!(
        stats
            .get("models")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );

    client.shutdown().unwrap();
    daemon.join();
    assert!(core.is_shutdown());
}

/// Transport regression guard: a memoized hit over loopback is a
/// sub-millisecond exchange. A request written as two segments (line,
/// then newline) without `TCP_NODELAY` is held by Nagle's algorithm
/// until the daemon's delayed ACK fires, ≈44 ms per round trip.
#[test]
fn cached_hits_over_loopback_are_not_held_by_nagle() {
    let core = Arc::new(ServeCore::new(ServeConfig::default()));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(daemon.addr).unwrap();
    client.register("decay", &decay_source()).unwrap();
    let qr = estimate("x - 1", 5, 20);
    assert!(!client.query(&qr).unwrap().cached);
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let t = Instant::now();
            assert!(client.query(&qr).unwrap().cached);
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median cached round trip {median:?}"
    );
    client.shutdown().unwrap();
    daemon.join();
}

/// A line just under the daemon's 4 MiB cap, holding one string of
/// 2-byte characters, is decoded in bounded time: it gets its
/// `invalid_request` reply (the query has no seed) within seconds, and
/// the same connection then answers `ping`. A decoder that rescans the
/// rest of the line per character would hold the connection for about
/// an hour.
#[test]
fn near_cap_line_with_one_long_string_is_answered_promptly() {
    use std::io::{BufRead, BufReader, Write};
    let core = Arc::new(ServeCore::new(ServeConfig::default()));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(daemon.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let frame = r#"{"op":"query","model":""}"#;
    let chars = ((4 << 20) - 64 - frame.len()) / 'é'.len_utf8();
    let line = format!(r#"{{"op":"query","model":"{}"}}"#, "é".repeat(chars));
    assert!(line.len() + 1 < 4 << 20 && line.len() > (4 << 20) - 128);

    let t0 = Instant::now();
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let took = t0.elapsed();
    assert!(reply.contains(r#""kind":"invalid_request""#), "{reply}");
    assert!(reply.contains("missing seed"), "{reply}");
    assert!(took < Duration::from_secs(10), "reply took {took:?}");

    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim(), r#"{"ok":true}"#);

    Client::connect(daemon.addr).unwrap().shutdown().unwrap();
    daemon.join();
}

/// N concurrent clients hammering the daemon with a shared query mix:
/// every response must be bit-identical to the single-threaded
/// reference — at any pool width (CI re-runs this suite under
/// `BIOCHECK_THREADS` ∈ {1, 2, 8}) and any admission interleaving.
#[test]
fn concurrent_clients_get_bit_deterministic_reports() {
    let core = Arc::new(ServeCore::new(ServeConfig {
        cache_bytes: 1 << 20,
        concurrency: 4,
        ..ServeConfig::default()
    }));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = daemon.addr;

    let mix: Vec<QueryRequest> = (0..6)
        .map(|i| {
            estimate(
                ["x - 1", "x - 0.8", "x - 1.2"][i % 3],
                10 + (i / 3) as u64,
                60,
            )
        })
        .collect();

    // Single-threaded reference (its own core, cold).
    let reference: Vec<String> = {
        let core = ServeCore::new(ServeConfig::default());
        core.register("decay", &decay_source()).unwrap();
        mix.iter()
            .map(|qr| core.run_query(qr).unwrap().0.fingerprint())
            .collect()
    };

    {
        let mut client = Client::connect(addr).unwrap();
        client.register("decay", &decay_source()).unwrap();
    }
    let handles: Vec<_> = (0..4)
        .map(|worker| {
            let mix = mix.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Each worker walks the mix from a different offset so
                // cold computations and cache hits interleave.
                for round in 0..3 {
                    for i in 0..mix.len() {
                        let idx = (i + worker * 2 + round) % mix.len();
                        let reply = client.query(&mix[idx]).unwrap();
                        assert_eq!(
                            reply.fingerprint, reference[idx],
                            "worker {worker} round {round} query {idx} diverged"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    daemon.join();
}

/// End-to-end load shedding: with the single execution slot held and
/// the wait queue saturated, a per-request `queue_ms` deadline expires
/// the queued request, and further arrivals are shed immediately with
/// a typed `overloaded` refusal carrying a usable retry hint — all
/// before any model computation starts.
#[test]
fn overloaded_core_sheds_and_expires_instead_of_queueing_forever() {
    let core = Arc::new(ServeCore::new(ServeConfig {
        concurrency: 1,
        max_queue: 1,
        ..ServeConfig::default()
    }));
    core.register("decay", &decay_source()).unwrap();

    // Occupy the only execution slot directly through the scheduler, as
    // a long-running query would.
    let slot = core.scheduler().admit(AdmitWait::default()).unwrap();

    // A queue-deadlined request waits its `queue_ms` and is then shed
    // with a typed `expired` refusal (it never ran: nothing is cached).
    let mut deadlined = estimate("x - 1", 11, 40);
    deadlined.budget.queue_ms = Some(25);
    match core.run_query(&deadlined).unwrap_err() {
        ServeError::Expired(msg) => assert!(msg.contains("queue deadline"), "{msg}"),
        other => panic!("expected Expired, got {other:?}"),
    }
    assert_eq!(core.scheduler().expired_count(), 1);

    // Fill the one queue slot with a patient waiter …
    let waiter = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.run_query(&estimate("x - 1", 12, 40)))
    };
    while core.scheduler().queue_depth() == 0 {
        std::thread::yield_now();
    }
    // … so the next arrival is refused instantly with a backoff hint.
    match core.run_query(&estimate("x - 0.8", 13, 40)).unwrap_err() {
        ServeError::Overloaded {
            queue_depth,
            retry_after_ms,
        } => {
            assert_eq!(queue_depth, 1);
            assert!((50..=5_000).contains(&retry_after_ms));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(core.scheduler().shed_count(), 1);

    // Releasing the slot admits the queued waiter, which completes
    // normally — shedding refuses work, it never corrupts it.
    drop(slot);
    let (report, cached) = waiter.join().unwrap().unwrap();
    assert!(!cached);
    let fresh = ServeCore::new(ServeConfig::default());
    fresh.register("decay", &decay_source()).unwrap();
    let (expected, _) = fresh.run_query(&estimate("x - 1", 12, 40)).unwrap();
    assert_eq!(report.fingerprint(), expected.fingerprint());

    // The shed/expired requests never executed and were never cached.
    assert_eq!(core.cache_stats().inserts, 1);
    assert_eq!(core.scheduler().in_flight(), 0);
    assert_eq!(core.scheduler().queue_depth(), 0);
}

/// Randomizing a parameter that was pinned as a constant at
/// registration is rejected: the constant was substituted out of the
/// dynamics, so the distribution would silently have no effect.
#[test]
fn randomizing_a_pinned_const_is_an_error() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap(); // pins k = 1
    let mut qr = estimate("x - 1", 3, 20);
    let QuerySpec::Estimate { smc, .. } = &mut qr.query else {
        unreachable!()
    };
    smc.params.push(("k".into(), DistSpec::Uniform(0.5, 1.5)));
    let err = core.run_query(&qr).unwrap_err();
    assert!(err.to_string().contains("pinned as a constant"), "{err}");
}

/// A property referencing a registration-time constant evaluates it at
/// its pinned value (not the sampler's zero-filled environment): the
/// server substitutes it, so `"x - k"` with `k = 1` is the same query —
/// and the same memoization key — as the literal `"x - 1"`.
#[test]
fn property_constants_substitute_their_pinned_values() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap(); // pins k = 1
    let (symbolic, cached) = core.run_query(&estimate("x - k", 7, 120)).unwrap();
    assert!(!cached);
    let (literal, cached) = core.run_query(&estimate("x - 1", 7, 120)).unwrap();
    assert!(cached, "x - k with k = 1 IS x - 1: one memoization key");
    assert_eq!(symbolic.fingerprint(), literal.fingerprint());
}

/// An inverted uniform range is a typed `invalid_request`, refused
/// before any sample draws from it (it used to panic a pool worker
/// inside the sampler and come back as `internal_error`).
#[test]
fn inverted_uniform_bounds_are_rejected_without_a_panic() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    for init in [DistSpec::Uniform(0.05, 0.0), DistSpec::Uniform(2.0, 1.0)] {
        let mut qr = estimate("x - 1", 3, 20);
        let QuerySpec::Estimate { smc, .. } = &mut qr.query else {
            unreachable!()
        };
        smc.init = vec![init];
        let err = core.run_query(&qr).unwrap_err();
        assert_eq!(err.kind(), "invalid_request", "{err}");
        assert!(err.to_string().contains("exceeds hi"), "{err}");
    }
    // A degenerate range is a valid point distribution.
    let mut qr = estimate("x - 1", 3, 20);
    let QuerySpec::Estimate { smc, .. } = &mut qr.query else {
        unreachable!()
    };
    smc.init = vec![DistSpec::Uniform(1.5, 1.5)];
    core.run_query(&qr).unwrap();
    assert_eq!(core.panic_count(), 0);
}

/// A registration whose const reads `1e999` (infinity once parsed) is
/// an `invalid_request`. It used to reach the canonical source, whose
/// renderer cannot write infinity, and come back as `internal_error`.
#[test]
fn non_finite_const_registration_is_an_invalid_request() {
    let core = ServeCore::new(ServeConfig::default());
    for v in ["1e999", "-1e999"] {
        let line = format!(
            r#"{{"op":"register","model":"decay","source":{{"states":[["x","-k*x"]],"consts":[["k",{v}]]}}}}"#
        );
        let (reply, _) = core.handle_line(&line);
        assert!(reply.contains(r#""kind":"invalid_request""#), "{reply}");
        assert!(reply.contains("must be finite"), "{reply}");
    }
    assert_eq!(core.panic_count(), 0);
}

/// The wire refuses every distribution a `Session` refuses, with the
/// same rule: a negative spread and a uniform range whose width
/// overflows are `invalid_request`s too (they used to pass the wire and
/// come back as `query_error`s).
#[test]
fn distributions_a_session_refuses_are_invalid_requests() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    for init in [
        DistSpec::Normal {
            mean: 1.0,
            sd: -0.1,
        },
        DistSpec::LogNormal {
            mu: 0.0,
            sigma: -0.1,
        },
        DistSpec::Uniform(-1e308, 1e308),
    ] {
        let mut qr = estimate("x - 1", 3, 20);
        let QuerySpec::Estimate { smc, .. } = &mut qr.query else {
            unreachable!()
        };
        smc.init = vec![init];
        let err = core.run_query(&qr).unwrap_err();
        assert_eq!(err.kind(), "invalid_request", "{init:?}: {err}");
    }
    assert_eq!(core.panic_count(), 0);
}

/// SPRT error levels outside (0, 1) and a zero sample cap are refused
/// over the wire as `invalid_request` (α = 2 used to accept H₁ on the
/// first sample; a zero cap answered `Inconclusive` from no evidence).
#[test]
fn degenerate_sprt_requests_are_invalid() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    let line = |alpha: &str, beta: &str, cap: usize| {
        format!(
            r#"{{"op":"query","model":"decay","seed":1,"query":{{"type":"sprt","smc":{{"init":[{{"dist":"uniform","lo":0.5,"hi":1.5}}],"params":[],"property":{{"type":"eventually","bound":0.01,"inner":{{"type":"prop","expr":"x - 1","rel":"ge"}}}},"t_end":0.01}},"theta":0.5,"indiff":0.1,"alpha":{alpha},"beta":{beta},"max_samples":{cap}}}}}"#
        )
    };
    for (alpha, beta, cap) in [
        ("2", "0.05", 1000),
        ("0.05", "1", 1000),
        ("0.05", "0.05", 0),
    ] {
        let (reply, _) = core.handle_line(&line(alpha, beta, cap));
        assert!(
            reply.contains(r#""kind":"invalid_request""#),
            "alpha {alpha} beta {beta} cap {cap}: {reply}"
        );
    }
    let (reply, _) = core.handle_line(&line("0.05", "0.05", 1000));
    assert!(
        reply.contains(r#""ok":true"#),
        "a sound test is answered: {reply}"
    );
    assert_eq!(core.panic_count(), 0);
}

/// Every out-of-range query parameter or shape is refused at the wire
/// by the gate a `Session` applies (`Session::check`): an
/// `invalid_request`. A negative indifference width used to run with its
/// hypotheses swapped, and a temporal bound of −1 used to run and answer
/// p̂ = 0; inverted or non-positive stability radii and an `init` of the
/// wrong length used to wait for a slot and come back from the engine as
/// a `query_error`.
#[test]
fn out_of_range_query_parameters_are_invalid_requests() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    let smc = r#""smc":{"init":[{"dist":"uniform","lo":0.5,"hi":1.5}],"params":[],"property":{"type":"eventually","bound":0.01,"inner":{"type":"prop","expr":"x - 1","rel":"ge"}},"t_end":0.01}"#;
    let zero_horizon = smc.replace(r#""t_end":0.01"#, r#""t_end":0"#);
    let bad_bounds: Vec<String> = ["-1", "1e999", "-1e999"]
        .iter()
        .flat_map(|b| {
            let eventually = smc.replace(r#""bound":0.01"#, &format!(r#""bound":{b}"#));
            let globally = eventually.replace(r#""type":"eventually""#, r#""type":"globally""#);
            [eventually, globally]
        })
        .collect();
    let two_dims = smc.replace(
        r#""init":[{"dist":"uniform","lo":0.5,"hi":1.5}]"#,
        r#""init":[{"dist":"uniform","lo":0.5,"hi":1.5},{"dist":"point","v":0}]"#,
    );
    let estimate = |method: &str| format!(r#""type":"estimate","method":{method}"#);
    let stability = |radii: &str| format!(r#""type":"stability","region":[[-1,1]],{radii}"#);
    let smc_queries = [
        (
            r#""type":"sprt","theta":0.99,"indiff":0.05,"alpha":0.05,"beta":0.05,"max_samples":1000"#
                .to_string(),
            smc,
        ),
        (
            r#""type":"sprt","theta":0.5,"indiff":-0.05,"alpha":0.05,"beta":0.05,"max_samples":1000"#
                .to_string(),
            smc,
        ),
        (estimate(r#"{"type":"chernoff","eps":0,"delta":0.05}"#), smc),
        (
            estimate(r#"{"type":"bayes","half_width":0.05,"confidence":0.3,"max_samples":1000}"#),
            smc,
        ),
        (
            estimate(r#"{"type":"bayes","half_width":0.05,"confidence":0.9,"max_samples":0}"#),
            smc,
        ),
        (estimate(r#"{"type":"fixed","n":0}"#), smc),
        (r#""type":"robustness","samples":0"#.to_string(), smc),
        (estimate(r#"{"type":"fixed","n":8}"#), &zero_horizon),
        (estimate(r#"{"type":"fixed","n":8}"#), &two_dims),
    ];
    let bodies = smc_queries
        .into_iter()
        .chain(
            bad_bounds
                .iter()
                .map(|smc| (estimate(r#"{"type":"fixed","n":8}"#), smc.as_str())),
        )
        .map(|(query, smc)| format!("{query},{smc}"))
        .chain([
            stability(r#""r_min":0.5,"r_max":0.1"#),
            stability(r#""r_min":0.2,"r_max":0.2"#),
            stability(r#""r_min":0,"r_max":0.4"#),
            stability(r#""r_min":-0.1,"r_max":0.4"#),
        ]);
    for body in bodies {
        let line = format!(r#"{{"op":"query","model":"decay","seed":1,"query":{{{body}}}}}"#);
        let (reply, _) = core.handle_line(&line);
        assert!(
            reply.contains(r#""kind":"invalid_request""#),
            "{body}: {reply}"
        );
    }
    assert_eq!(core.panic_count(), 0);
}

/// A typo'd name in a property is an error, never a silent 0.
#[test]
fn unknown_property_names_are_rejected() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    let err = core.run_query(&estimate("X - 1", 3, 20)).unwrap_err();
    assert!(err.to_string().contains("X"), "{err}");
}

/// Per-request count budgets memoize and reproduce; cancelled requests
/// come back well-formed and are never cached.
#[test]
fn budgets_and_cancellation() {
    let core = Arc::new(ServeCore::new(ServeConfig::default()));
    core.register("decay", &decay_source()).unwrap();

    // Count cap: deterministic partial answer, cacheable.
    let mut capped = estimate("x - 1", 4, 500);
    capped.budget.max_samples = Some(50);
    let (r, cached) = core.run_query(&capped).unwrap();
    assert!(!cached);
    assert_eq!(r.outcome, Outcome::Exhausted);
    assert_eq!(r.provenance.samples, 50);
    let (r2, cached) = core.run_query(&capped).unwrap();
    assert!(cached, "count-budgeted requests are pure and memoizable");
    assert_eq!(r.fingerprint(), r2.fingerprint());

    // Deadline requests never populate the cache (wall-clock impure) —
    // even when they complete comfortably.
    let mut deadlined = estimate("x - 1", 5, 50);
    deadlined.budget.deadline_ms = Some(60_000);
    let (_r, cached) = core.run_query(&deadlined).unwrap();
    assert!(!cached);
    let (_r, cached) = core.run_query(&deadlined).unwrap();
    assert!(!cached, "deadline requests must not be memoized");

    // Cancelling an unknown id reports false.
    assert!(!core.cancel(99));

    // A request id already in flight is rejected, not clobbered: the
    // first holder's CancelToken stays addressable and intact.
    {
        let mut a = estimate("x - 1", 70, 500_000);
        a.id = Some(42);
        let runner = {
            let core = Arc::clone(&core);
            let a = a.clone();
            std::thread::spawn(move || core.run_query(&a))
        };
        // Wait until request 42 holds its execution permit (a cancel
        // before admission would refuse it as `Cancelled`).
        while core.scheduler().in_flight() != 1 {
            std::thread::yield_now();
        }
        assert!(core.cancel(42));
        let mut b = estimate("x - 0.8", 71, 10);
        b.id = Some(42);
        match core.run_query(&b) {
            Err(e) => assert!(e.to_string().contains("already in flight"), "{e}"),
            Ok((_, cached)) => {
                // Request A may have finished between the cancel and
                // this call; then B's id is free and B runs normally.
                assert!(!cached);
            }
        }
        let _ = runner.join().unwrap().unwrap();
        assert!(!core.cancel(42), "finished request must leave the table");
    }

    // Cancel a genuinely long request mid-flight.
    let long = long_sprt(1);
    let inserts_before = core.cache_stats().inserts;
    let runner = {
        let core = Arc::clone(&core);
        let long = long.clone();
        std::thread::spawn(move || core.run_query(&long))
    };
    // Spin until the request holds its execution permit, then cancel
    // it. Its id enters the in-flight table before admission, and a
    // cancel that lands before admission is refused as `Cancelled`.
    while core.scheduler().in_flight() != 1 {
        std::thread::yield_now();
    }
    assert!(core.cancel(1));
    let (report, cached) = runner.join().unwrap().unwrap();
    assert!(!cached);
    assert_eq!(report.outcome, Outcome::Exhausted);
    // A cancelled run is not a pure function of the request: never
    // memoized.
    assert_eq!(
        core.cache_stats().inserts,
        inserts_before,
        "cancelled run must not have been cached"
    );
    assert!(!core.cancel(1), "finished request left the in-flight table");
}

/// A second request under an id that is in flight is refused, on every
/// run: the first holder stays registered and uncancelled while the
/// duplicate is tried, and the duplicate never enters the table.
#[test]
fn duplicate_inflight_id_is_rejected() {
    let core = Arc::new(ServeCore::new(ServeConfig::default()));
    core.register("decay", &decay_source()).unwrap();
    let runner = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.run_query(&long_sprt(42)))
    };
    while core.scheduler().in_flight() != 1 {
        std::thread::yield_now();
    }
    let mut b = estimate("x - 0.8", 71, 10);
    b.id = Some(42);
    let err = core.run_query(&b).unwrap_err();
    assert_eq!(err.kind(), "invalid_request");
    assert!(err.to_string().contains("already in flight"), "{err}");
    let rows = match core.trace_hub().inflight_json() {
        Json::Arr(rows) => rows,
        other => panic!("inflight must be an array, got {}", other.render()),
    };
    assert_eq!(rows.len(), 1, "the duplicate must never be registered");
    assert_eq!(rows[0].get("kind").and_then(Json::as_str), Some("sprt"));
    assert!(core.cancel(42), "the holder's token is still addressable");
    let (report, cached) = runner.join().unwrap().unwrap();
    assert!(!cached);
    assert_eq!(report.outcome, Outcome::Exhausted);
    assert!(!core.cancel(42), "finished request must leave the table");
}

/// The observability tentpole, end to end: after a mixed cold/warm
/// batch the stats payload carries non-trivial ordered latency
/// percentiles per phase, the provenance carries phase timings, and
/// the metrics op renders a well-formed Prometheus exposition.
#[test]
fn stats_report_latency_percentiles_after_mixed_batch() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    // Cold pass (computes), then two warm passes (cache hits).
    let batch: Vec<QueryRequest> = (0..4).map(|i| estimate("x - 1", i, 60)).collect();
    for _ in 0..3 {
        for qr in &batch {
            core.run_query(qr).unwrap();
        }
    }
    let (report, cached) = core.run_query(&batch[0]).unwrap();
    assert!(cached);
    assert!(report.provenance.compile_time.is_some());
    assert!(report.provenance.run_time.is_some());

    let stats = core.stats_json();
    let pq = |phase: &str, q: &str| {
        stats
            .get("latency")
            .and_then(|l| l.get(phase))
            .and_then(|p| p.get(q))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("stats.latency.{phase}.{q} missing"))
    };
    for phase in [
        "queue_wait",
        "execute",
        "request_hit",
        "request_miss",
        "compile",
    ] {
        let (p50, p99, max) = (
            pq(phase, "p50_ms"),
            pq(phase, "p99_ms"),
            pq(phase, "max_ms"),
        );
        assert!(
            p99 >= p50 && p50 > 0.0,
            "{phase}: want p99 >= p50 > 0, got p50={p50} p99={p99}"
        );
        assert!(max >= p99, "{phase}: max {max} < p99 {p99}");
    }
    assert_eq!(pq("request_hit", "count"), 9.0);
    assert_eq!(pq("request_miss", "count"), 4.0);
    // Admitted executions: exactly the four misses waited for a slot.
    assert_eq!(pq("queue_wait", "count"), 4.0);
    assert_eq!(
        stats
            .get("scheduler")
            .and_then(|s| s.get("queue_high_water"))
            .and_then(|v| v.as_f64()),
        Some(1.0)
    );
    // hit_ratio is hits/(hits+misses) as reported by the same payload
    // (a cold request probes the cache twice: before and after
    // admission, so misses > computed-query count).
    let cache_num = |k: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(k))
            .and_then(|v| v.as_f64())
            .unwrap()
    };
    let (hits, misses) = (cache_num("hits"), cache_num("misses"));
    assert_eq!(hits, 9.0);
    assert_eq!(cache_num("hit_ratio"), hits / (hits + misses));

    // The metrics op embeds the text exposition.
    let (reply, stop) = core.handle(&biocheck_serve::Request::Metrics);
    assert!(!stop);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    let text = reply
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics reply carries the exposition text");
    assert!(text.contains("biocheckd_request_latency_seconds{phase=\"execute\",quantile=\"0.99\"}"));
    assert!(text.contains("biocheckd_cache_hits_total 9"));
    assert!(text.contains("biocheckd_scheduler_queue_high_water 1"));
}

/// Every numeric `stats` key, by section, of a core with both logs.
/// None may disappear or change its JSON type.
const STATS_NUMBERS: &[(&str, &str)] = &[
    (
        "cache",
        "hits line_hits misses inserts evictions rejected purged entries bytes capacity_bytes \
         hit_ratio",
    ),
    (
        "scheduler",
        "capacity in_flight queue_depth max_queue queue_high_water shed expired",
    ),
    ("server", "panic_replies watchdog_cancelled"),
    ("sessions", "artifact_count artifact_evictions"),
    (
        "persist",
        "loaded skipped indexed appended append_errors unsupported",
    ),
    (
        "registry_persist",
        "loaded skipped deduped appended append_errors",
    ),
];

/// Every `biocheckd_*` name a core with both logs renders, with its
/// `# TYPE`. None may disappear from the exposition.
const METRIC_INVENTORY: &[(&str, &str)] = &[
    ("biocheckd_request_latency_seconds", "summary"),
    ("biocheckd_cache_hits_total", "counter"),
    ("biocheckd_cache_line_hits_total", "counter"),
    ("biocheckd_cache_misses_total", "counter"),
    ("biocheckd_cache_inserts_total", "counter"),
    ("biocheckd_cache_evictions_total", "counter"),
    ("biocheckd_cache_entries", "gauge"),
    ("biocheckd_cache_bytes", "gauge"),
    ("biocheckd_scheduler_in_flight", "gauge"),
    ("biocheckd_scheduler_queue_depth", "gauge"),
    ("biocheckd_scheduler_queue_high_water", "gauge"),
    ("biocheckd_scheduler_shed_total", "counter"),
    ("biocheckd_scheduler_expired_total", "counter"),
    ("biocheckd_panic_replies_total", "counter"),
    ("biocheckd_watchdog_cancelled_total", "counter"),
    ("biocheckd_session_artifact_count", "gauge"),
    ("biocheckd_session_artifact_evictions_total", "counter"),
    ("biocheckd_persist_appended_total", "counter"),
    ("biocheckd_persist_append_errors_total", "counter"),
    ("biocheckd_persist_loaded_total", "counter"),
    ("biocheckd_persist_indexed", "gauge"),
    ("biocheckd_registry_appended_total", "counter"),
    ("biocheckd_registry_append_errors_total", "counter"),
    ("biocheckd_registry_loaded_total", "counter"),
];

/// The metric-name prefix after `biocheckd_` of each counter section.
fn metric_prefix(section: &str) -> &'static str {
    match section {
        "cache" => "cache_",
        "scheduler" => "scheduler_",
        "sessions" => "session_",
        "persist" => "persist_",
        "registry_persist" => "registry_",
        _ => "",
    }
}

/// The inventory pin for `stats` and `metrics`: with both logs
/// attached and a cold/warm batch served, every `stats` key path keeps
/// its JSON type, every metric name keeps its `# TYPE`, and each
/// counter that both surfaces render reads the same value in each.
#[test]
fn stats_and_metrics_keep_their_inventory_and_agree() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let persist = dir.join(format!("biocheck-inventory-cache-{pid}"));
    let registry = dir.join(format!("biocheck-inventory-registry-{pid}"));
    let _ = std::fs::remove_file(&persist);
    let _ = std::fs::remove_file(&registry);
    let core = ServeCore::new(ServeConfig {
        persist: Some(persist.clone()),
        registry: Some(registry.clone()),
        ..ServeConfig::default()
    });
    core.register("decay", &decay_source()).unwrap();
    let batch: Vec<QueryRequest> = (0..3).map(|i| estimate("x - 1", i, 40)).collect();
    for _ in 0..2 {
        for qr in &batch {
            core.run_query(qr).unwrap();
        }
    }
    let stats = core.stats_json();
    let text = core.metrics_text();
    let _ = std::fs::remove_file(&persist);
    let _ = std::fs::remove_file(&registry);

    let path = |keys: &[&str]| keys.iter().try_fold(&stats, |j, k| j.get(k));
    let phase_keys = "count mean_ms p50_ms p90_ms p99_ms max_ms count_60s p50_60s_ms p99_60s_ms";
    let phases = "request_hit request_miss queue_wait execute compile persist_append lint";
    let latency = phases
        .split(' ')
        .flat_map(|p| phase_keys.split(' ').map(move |k| vec!["latency", p, k]));
    let counters = STATS_NUMBERS
        .iter()
        .flat_map(|(s, keys)| keys.split(' ').map(move |k| vec![*s, k]));
    for keys in counters.chain(latency).chain([vec!["threads"]]) {
        let v = path(&keys);
        assert!(v.and_then(Json::as_f64).is_some(), "stats {keys:?}: {v:?}");
    }
    assert!(path(&["scheduler", "draining"])
        .and_then(Json::as_bool)
        .is_some());
    assert!(path(&["models"]).and_then(Json::as_arr).is_some());
    assert!(path(&["inflight"]).and_then(Json::as_arr).is_some());

    for (name, kind) in METRIC_INVENTORY {
        let line = format!("# TYPE {name} {kind}");
        assert!(text.lines().any(|l| l == line), "metrics lost `{line}`");
    }
    // `name value` samples; labelled ones keep their labels in the name.
    let samples: std::collections::HashMap<&str, f64> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').expect("sample line");
            (name, value.parse::<f64>().expect("numeric sample"))
        })
        .collect();
    let mut matched = Vec::new();
    for (section, _) in STATS_NUMBERS {
        let Some(Json::Obj(fields)) = stats.get(section) else {
            panic!("stats.{section} missing");
        };
        for (key, value) in fields {
            let gauge = format!("biocheckd_{}{key}", metric_prefix(section));
            for name in [format!("{gauge}_total"), gauge] {
                if let Some(&sample) = samples.get(name.as_str()) {
                    assert_eq!(
                        Some(sample),
                        value.as_f64(),
                        "{name} vs stats.{section}.{key}"
                    );
                    matched.push(name);
                }
            }
        }
    }
    for (name, _) in &METRIC_INVENTORY[1..] {
        assert!(
            matched.iter().any(|m| m == name),
            "{name} matches no stats key"
        );
    }
}
