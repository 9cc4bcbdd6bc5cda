//! Deterministic chaos suite (`cargo test -p biocheck_serve --features
//! fault-injection`): drives the serving layer through injected solver
//! panics, torn replies, delayed replies, persistence and registry-log
//! I/O errors, and wedged (stalled) executions, and pins down the
//! fault-hardening invariants:
//!
//! * the daemon never deadlocks and never leaks scheduler slots;
//! * every accepted request resolves exactly once, with a well-formed
//!   reply (success or typed error) — a torn reply is a *transport*
//!   fault the client recovers from by retrying, never a corrupted
//!   server;
//! * the cache (in memory and on disk) is never corrupted: after any
//!   fault storm, recovered results are `fingerprint()`-identical to
//!   fresh computation;
//! * faults actually fired (a chaos run that injected nothing proves
//!   nothing).
//!
//! The fault schedule is a pure function of the installed plan's seed,
//! so single-threaded failures replay exactly. The injector is
//! process-global; [`chaos_lock`] serializes the tests around it.

#![cfg(feature = "fault-injection")]

use biocheck_engine::Session;
use biocheck_serve::faults::{self, FaultPlan};
use biocheck_serve::server::{serve, ServeConfig, ServeCore, ServeError};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, SmcSpecWire,
};
use biocheck_serve::{Client, ClientConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes tests around the process-global fault injector.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears the global plan even when the test body panics.
struct FaultGuard;
impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

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

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("biocheck-chaos-{name}-{}", std::process::id()));
    p
}

/// Injected solver panics become clean `internal_error` replies; the
/// core (registry, cache, scheduler, in-flight table) stays fully
/// usable afterwards, and nothing half-computed is ever cached.
#[test]
fn solver_panics_are_contained_and_poison_nothing() {
    let _serial = chaos_lock();
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();

    faults::install(FaultPlan {
        seed: 0xC0FFEE,
        exec_panic_rate: 0.4,
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    let mut panicked = 0u64;
    let mut succeeded = Vec::new();
    for seed in 0..40u64 {
        let qr = estimate("x - 1", seed, 30);
        match core.run_query(&qr) {
            Ok((report, cached)) => {
                assert!(!cached, "distinct seeds cannot hit the cache");
                succeeded.push((qr, report.fingerprint()));
            }
            Err(ServeError::Internal(msg)) => {
                assert!(msg.contains("panicked"), "{msg}");
                panicked += 1;
            }
            Err(other) => panic!("unexpected error under panic injection: {other}"),
        }
    }
    let stats = faults::clear();
    assert!(panicked > 0, "chaos run must actually inject panics");
    assert_eq!(stats.exec_panics, panicked, "every injected panic counted");
    assert_eq!(core.panic_count(), panicked);
    assert_eq!(core.scheduler().in_flight(), 0, "no leaked permits");

    // Faults off: the same core keeps serving, and every result that
    // made it into the cache is fingerprint-identical to the original.
    for (qr, fingerprint) in &succeeded {
        let (report, cached) = core.run_query(qr).unwrap();
        assert!(cached, "successful results must have been memoized");
        assert_eq!(&report.fingerprint(), fingerprint, "cache uncorrupted");
    }
    // A panicked request's key was never cached: re-running computes.
    let fresh = ServeCore::new(ServeConfig::default());
    fresh.register("decay", &decay_source()).unwrap();
    for seed in 0..40u64 {
        let qr = estimate("x - 1", seed, 30);
        let (a, _) = core.run_query(&qr).unwrap();
        let (b, _) = fresh.run_query(&qr).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}

/// A panicking solver terminates its trace instead of leaking it: the
/// unwind is caught at the panic boundary, so the hub publishes the
/// request with an `error` outcome and a *closed* span tree (the
/// `serve.execute` and `serve.request` records landed despite the
/// unwind), and the in-flight table drains to empty — no `inflight`
/// row or cancel entry is ever stranded.
#[test]
fn panicking_solver_publishes_terminated_trace_not_a_leak() {
    let _serial = chaos_lock();
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    core.trace_hub().arm();

    faults::install(FaultPlan {
        seed: 0xDEAD,
        exec_panic_rate: 1.0, // every execution panics
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    let mut qr = estimate("x - 1", 3, 30);
    qr.trace = true;
    qr.id = Some(5);
    let err = core.run_query_traced(&qr).unwrap_err();
    assert!(matches!(err, ServeError::Internal(_)), "{err}");
    let stats = faults::clear();
    assert_eq!(stats.exec_panics, 1, "the panic must actually fire");
    assert!(!core.cancel(5), "panicked request leaked a cancel entry");

    match core.trace_hub().inflight_json() {
        biocheck_serve::Json::Arr(rows) => {
            assert!(rows.is_empty(), "panicked request leaked an inflight entry")
        }
        other => panic!("inflight must be an array, got {}", other.render()),
    }
    let recent = core.trace_hub().recent();
    assert_eq!(recent.len(), 1, "the panicked request was published");
    let t = &recent[0];
    assert_eq!(t.outcome, "error", "contained panic surfaces as error");
    for name in ["serve.request", "serve.execute"] {
        assert!(
            t.records.iter().any(|r| r.name == name),
            "span {name} did not terminate: {:?}",
            t.records.iter().map(|r| r.name).collect::<Vec<_>>()
        );
    }

    // Faults off: the same core (and its hub) keep working.
    let (_, cached, trace) = core.run_query_traced(&qr).unwrap();
    assert!(!cached, "nothing half-computed was cached");
    assert!(trace.is_some());
    assert_eq!(core.trace_hub().recent().len(), 2);
    assert_eq!(core.trace_hub().recent()[1].outcome, "ok");
}

/// Torn and delayed replies at the transport: the retrying client
/// recovers every query with fingerprints identical to a fault-free
/// core; the daemon survives and drains cleanly.
#[test]
fn torn_replies_recovered_by_client_retry() {
    let _serial = chaos_lock();
    let core = Arc::new(ServeCore::new(ServeConfig::default()));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = daemon.addr;

    let reference = ServeCore::new(ServeConfig::default());
    reference.register("decay", &decay_source()).unwrap();

    let config = ClientConfig {
        retries: 10,
        retry_base: Duration::from_millis(10),
        retry_cap: Duration::from_millis(100),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, config.clone()).unwrap();
    client.register("decay", &decay_source()).unwrap();

    faults::install(FaultPlan {
        seed: 42,
        torn_reply_rate: 0.35,
        reply_delay_rate: 0.2,
        reply_delay_ms: 10,
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    for seed in 0..25u64 {
        let qr = estimate("x - 1", seed, 25);
        let reply = client.query(&qr).expect("retry must recover the query");
        let (expected, _) = reference.run_query(&qr).unwrap();
        assert_eq!(
            reply.fingerprint,
            expected.fingerprint(),
            "reply for seed {seed} corrupted"
        );
    }
    let stats = faults::clear();
    assert!(
        stats.torn_replies > 0,
        "no replies were torn — proves nothing"
    );

    // The daemon is intact: clean shutdown drains and joins.
    let mut shut = Client::connect_with(addr, config).unwrap();
    shut.shutdown().unwrap();
    daemon.join();
    assert_eq!(core.scheduler().in_flight(), 0);
    assert_eq!(core.scheduler().queue_depth(), 0);
}

/// Disk faults on the spill path: appends fail silently (counted), the
/// request still succeeds, the in-memory cache still hits — and after
/// the fault storm the surviving log records are all valid.
#[test]
fn persist_io_errors_never_fail_requests() {
    let _serial = chaos_lock();
    let path = tmp_path("persist-io");
    let _ = std::fs::remove_file(&path);
    let core = ServeCore::new(ServeConfig {
        persist: Some(path.clone()),
        ..ServeConfig::default()
    });
    core.register("decay", &decay_source()).unwrap();

    faults::install(FaultPlan {
        seed: 7,
        persist_io_error_rate: 0.5,
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    let mut fingerprints = Vec::new();
    for seed in 0..20u64 {
        let qr = estimate("x - 1", seed, 25);
        let (report, _) = core
            .run_query(&qr)
            .expect("disk faults must not fail queries");
        fingerprints.push(report.fingerprint());
        let (hit, cached) = core.run_query(&qr).unwrap();
        assert!(cached, "in-memory cache unaffected by disk faults");
        assert_eq!(hit.fingerprint(), report.fingerprint());
    }
    let stats = faults::clear();
    assert!(
        stats.persist_io_errors > 0,
        "no disk faults fired — proves nothing"
    );
    let p = core.persist_stats().unwrap();
    assert_eq!(p.append_errors as u64, stats.persist_io_errors);
    assert_eq!(p.appended + p.append_errors, 20);
    drop(core);

    // Reboot from the partially-written log: whatever survived loads
    // cleanly and warm hits are fingerprint-identical.
    let warm = ServeCore::new(ServeConfig {
        persist: Some(path.clone()),
        ..ServeConfig::default()
    });
    warm.register("decay", &decay_source()).unwrap();
    let recovered = warm.persist_stats().unwrap();
    assert_eq!(
        recovered.loaded, p.appended,
        "all successful appends recovered"
    );
    assert_eq!(recovered.skipped, 0);
    let mut warm_hits = 0;
    for seed in 0..20u64 {
        let qr = estimate("x - 1", seed, 25);
        let (report, cached) = warm.run_query(&qr).unwrap();
        assert_eq!(report.fingerprint(), fingerprints[seed as usize]);
        warm_hits += usize::from(cached);
    }
    assert_eq!(warm_hits, p.appended, "every persisted record warm-hits");
    let _ = std::fs::remove_file(&path);
}

/// Everything at once, concurrently: panics, torn replies, delays,
/// disk faults, a tight admission queue — 12 retrying clients × 5
/// queries. The run must terminate (no deadlock), every request must
/// resolve exactly once client-side, and the daemon must drain to
/// zero in-flight/queued with an uncorrupted cache.
#[test]
fn chaos_hammer_terminates_with_every_request_resolved() {
    let _serial = chaos_lock();
    let path = tmp_path("hammer");
    let _ = std::fs::remove_file(&path);
    let core = Arc::new(ServeCore::new(ServeConfig {
        concurrency: 2,
        max_queue: 4,
        persist: Some(path.clone()),
        ..ServeConfig::default()
    }));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = daemon.addr;
    {
        let mut c = Client::connect(addr).unwrap();
        c.register("decay", &decay_source()).unwrap();
    }

    faults::install(FaultPlan {
        seed: 0xBAD5EED,
        exec_panic_rate: 0.15,
        torn_reply_rate: 0.15,
        reply_delay_rate: 0.2,
        reply_delay_ms: 5,
        persist_io_error_rate: 0.3,
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    let resolved = Arc::new(AtomicUsize::new(0));
    let config = ClientConfig {
        retries: 8,
        retry_base: Duration::from_millis(5),
        retry_cap: Duration::from_millis(50),
        ..ClientConfig::default()
    };
    let handles: Vec<_> = (0..12)
        .map(|t| {
            let resolved = Arc::clone(&resolved);
            let config = config.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_with(addr, config).unwrap();
                for q in 0..5u64 {
                    // Overlapping seeds across threads: cache traffic too.
                    let qr = estimate("x - 1", (t as u64 * 3 + q) % 20, 25);
                    // Success or a typed error — either way the request
                    // resolved exactly once; what must never happen is
                    // a hang or a malformed reply (query() would
                    // surface it as a parse failure after retries).
                    let _ = client.query(&qr);
                    resolved.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not hang or crash");
    }
    assert_eq!(
        resolved.load(Ordering::SeqCst),
        60,
        "every request resolved"
    );
    let stats = faults::clear();
    assert!(
        stats.exec_panics + stats.torn_replies + stats.persist_io_errors > 0,
        "hammer injected nothing — proves nothing"
    );

    // Faults off: daemon still healthy; drain leaves nothing behind.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let reference = ServeCore::new(ServeConfig::default());
    reference.register("decay", &decay_source()).unwrap();
    for seed in 0..20u64 {
        let qr = estimate("x - 1", seed, 25);
        let reply = client.query(&qr).unwrap();
        let (expected, _) = reference.run_query(&qr).unwrap();
        assert_eq!(reply.fingerprint, expected.fingerprint(), "cache corrupted");
    }
    client.shutdown().unwrap();
    daemon.join();
    assert_eq!(core.scheduler().in_flight(), 0, "drained to zero in-flight");
    assert_eq!(core.scheduler().queue_depth(), 0, "drained to zero queued");
    let _ = std::fs::remove_file(&path);
}

/// Disk faults on the registry log: registrations still succeed (the
/// in-memory registry is authoritative; persistence is best-effort and
/// counted), and a reboot replays exactly the appends that survived,
/// under their original fingerprints.
#[test]
fn registry_io_errors_never_fail_registration() {
    let _serial = chaos_lock();
    let path = tmp_path("registry-io");
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        registry: Some(path.clone()),
        ..ServeConfig::default()
    };
    let core = ServeCore::new(config.clone());
    faults::install(FaultPlan {
        seed: 11,
        registry_io_error_rate: 0.5,
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    let mut fingerprints = Vec::new();
    for i in 0..12usize {
        let source = ModelSource {
            states: vec![("x".into(), format!("-{}*k*x", i + 1))],
            consts: vec![("k".into(), 1.0)],
        };
        let fp = core
            .register(&format!("m{i}"), &source)
            .expect("disk faults must not fail registration");
        fingerprints.push((format!("m{i}"), fp));
    }
    let stats = faults::clear();
    assert!(
        stats.registry_io_errors > 0,
        "no registry faults fired — proves nothing"
    );
    let r = core.registry_persist_stats().unwrap();
    assert_eq!(r.append_errors as u64, stats.registry_io_errors);
    assert_eq!(r.appended + r.append_errors, 12);
    assert_eq!(core.registry().len(), 12, "in-memory registry unaffected");
    drop(core);

    let warm = ServeCore::new(config);
    let recovered = warm.registry_persist_stats().unwrap();
    assert_eq!(
        recovered.loaded, r.appended,
        "every successful append replays"
    );
    assert_eq!(recovered.skipped, 0);
    let mut replayed = 0;
    for (name, fp) in &fingerprints {
        if let Some(entry) = warm.registry().get(name) {
            assert_eq!(entry.fingerprint(), fp, "replayed {name} changed identity");
            replayed += 1;
        }
    }
    assert_eq!(replayed, r.appended);
    let _ = std::fs::remove_file(&path);
}

/// Wedged solvers under the 12-thread hammer: injected stalls wedge
/// executions long past the `--max-execute-ms` ceiling, the watchdog
/// reaps every one (typed `watchdog_cancelled`, permit released),
/// artifact LRU evictions race with in-flight queries, and no reply
/// ever diverges from a fresh, fault-free session.
#[test]
fn watchdog_reaps_stalled_queries_under_capped_hammer() {
    let _serial = chaos_lock();
    let core = Arc::new(ServeCore::new(ServeConfig {
        concurrency: 4,
        max_queue: 64,
        max_execute: Some(Duration::from_millis(25)),
        ..ServeConfig::default()
    }));
    let daemon = serve(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = daemon.addr;
    {
        let mut c = Client::connect(addr).unwrap();
        c.register("decay", &decay_source()).unwrap();
    }
    // Fresh, fault-free sessions are the reference for every literal.
    let sweep: Vec<QueryRequest> = (0..20)
        .map(|i| estimate(&format!("x - 0.{:03}", 300 + i), 9, 25))
        .collect();
    let expected: Vec<String> = sweep
        .iter()
        .map(|qr| {
            let (mut cx, sys) = decay_source().build().unwrap();
            let query = qr.query.build(&mut cx).unwrap();
            Session::from_parts(cx, sys)
                .query(query)
                .seed(qr.seed)
                .run()
                .unwrap()
                .fingerprint()
        })
        .collect();

    faults::install(FaultPlan {
        seed: 0xD06,
        exec_stall_rate: 0.4,
        exec_stall_ms: 400, // 16x the ceiling: wedged until reaped
        ..FaultPlan::default()
    });
    let _cleanup = FaultGuard;
    let reaped = Arc::new(AtomicUsize::new(0));
    let sweep = Arc::new(sweep);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..12)
        .map(|t| {
            let (sweep, expected, reaped) = (
                Arc::clone(&sweep),
                Arc::clone(&expected),
                Arc::clone(&reaped),
            );
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for q in 0..5usize {
                    let j = (t * 5 + q) % sweep.len();
                    match client.query(&sweep[j]) {
                        Ok(reply) => assert_eq!(
                            reply.fingerprint, expected[j],
                            "hammer reply diverged on query {j}"
                        ),
                        Err(e) => {
                            assert!(
                                e.contains("watchdog"),
                                "only watchdog errors expected, got: {e}"
                            );
                            reaped.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not hang or crash");
    }
    let stats = faults::clear();
    assert!(stats.exec_stalls > 0, "no stalls injected — proves nothing");
    let reaped = reaped.load(Ordering::SeqCst) as u64;
    assert!(reaped > 0, "watchdog never fired under the hammer");
    assert_eq!(
        core.watchdog_cancelled_count(),
        reaped,
        "every reap surfaced as exactly one typed error"
    );

    // Storm over: every sweep query (reaped ones included — they were
    // never memoized) now answers correctly, and the daemon drains.
    let mut client = Client::connect(addr).unwrap();
    for (j, qr) in sweep.iter().enumerate() {
        let reply = client.query(qr).unwrap();
        assert_eq!(reply.fingerprint, expected[j], "post-storm divergence");
    }
    let m = core.registry().memory_stats();
    assert!(
        m.artifact_evictions > 0,
        "no eviction raced — proves nothing"
    );
    assert!(m.artifact_count <= Session::MAX_ARTIFACTS, "LRU bound held");
    client.shutdown().unwrap();
    daemon.join();
    assert_eq!(core.scheduler().in_flight(), 0, "no leaked permits");
    assert_eq!(core.scheduler().queue_depth(), 0);
}
