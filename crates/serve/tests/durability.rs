//! Durability and bounded memory: registry-log crash recovery with no
//! client re-registration, literal sweeps over a frozen model session
//! answering bit-identically to fresh sessions across artifact LRU
//! evictions (the CI determinism matrix re-runs this suite at 1/2/8
//! pool threads), the 10k-literal sweep leaving the model arena at its
//! registration size gauge-verifiably, the spill log serving memoized
//! results through a RAM index (damaged records only cost a recompute),
//! and the hung-query watchdog reaping an overrunning execution but
//! never a queued one.

use biocheck_engine::Session;
use biocheck_serve::server::{ServeConfig, ServeCore, ServeError};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, SmcSpecWire,
};
use biocheck_serve::{AdmitWait, Json};
use std::sync::Arc;
use std::time::Duration;

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

/// The fingerprint a fresh, unshared session gives the request.
fn fresh(qr: &QueryRequest) -> String {
    let (mut cx, sys) = decay_source().build().unwrap();
    let query = qr.query.build(&mut cx).unwrap();
    Session::from_parts(cx, sys)
        .query(query)
        .seed(qr.seed)
        .budget(qr.budget.build())
        .run()
        .unwrap()
        .fingerprint()
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("biocheck-durability-{name}-{}", std::process::id()));
    p
}

fn session_gauge(core: &ServeCore, key: &str) -> usize {
    core.stats_json()
        .get("sessions")
        .and_then(|s| s.get(key))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats.sessions.{key} missing"))
}

/// The crash-transparency invariant: drop a core holding both logs
/// (SIGKILL between requests — appends are flushed per record, nothing
/// else was synced), tear a half-written record onto each log (SIGKILL
/// mid-append), restart from the files alone, and the new core serves
/// the same model under the same fingerprint with every memoized result
/// warm — no re-registration anywhere.
#[test]
fn registry_log_restores_serving_state_after_kill() {
    let registry_path = tmp_path("registry-restore");
    let persist_path = tmp_path("cache-restore");
    let _ = std::fs::remove_file(&registry_path);
    let _ = std::fs::remove_file(&persist_path);
    let config = ServeConfig {
        registry: Some(registry_path.clone()),
        persist: Some(persist_path.clone()),
        ..ServeConfig::default()
    };
    let mut fingerprints = Vec::new();
    let model_fp;
    {
        let core = ServeCore::new(config.clone());
        model_fp = core.register("decay", &decay_source()).unwrap();
        for seed in 0..5u64 {
            let (r, _) = core.run_query(&estimate("x - 1", seed, 30)).unwrap();
            fingerprints.push(r.fingerprint());
        }
        // Re-registering the same source must not grow the log.
        core.register("decay", &decay_source()).unwrap();
        assert_eq!(core.registry_persist_stats().unwrap().appended, 1);
    }
    for (path, torn) in [
        (&registry_path, "deadbeefdeadbeef {\"model\":\"dec"),
        (&persist_path, "deadbeefdeadbeef {\"key\":\"torn mid-wri"),
    ] {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(torn.as_bytes()).unwrap();
    }

    let warm = ServeCore::new(config);
    let (r, p) = (
        warm.registry_persist_stats().unwrap(),
        warm.persist_stats().unwrap(),
    );
    assert_eq!((r.loaded, r.skipped), (1, 1), "registration replayed");
    assert_eq!((p.loaded, p.skipped), (5, 1), "every result reloaded");
    let entry = warm
        .registry()
        .get("decay")
        .expect("model restored without any client register");
    assert_eq!(
        entry.fingerprint(),
        model_fp,
        "replayed fingerprint identical — persisted cache keys stay reachable"
    );
    for (seed, fp) in fingerprints.iter().enumerate() {
        let (r, cached) = warm.run_query(&estimate("x - 1", seed as u64, 30)).unwrap();
        assert!(cached, "restart must be warm for seed {seed}");
        assert_eq!(&r.fingerprint(), fp, "reply identical across the crash");
    }
    let _ = std::fs::remove_file(&registry_path);
    let _ = std::fs::remove_file(&persist_path);
}

/// Asks every query again on `core` and returns how many were recomputed:
/// every reply must succeed with its first fingerprint, and a recompute
/// is memoized again at once.
fn recomputed(core: &ServeCore, queries: &[QueryRequest], fps: &[String]) -> usize {
    let mut recomputed = 0;
    for (qr, fp) in queries.iter().zip(fps) {
        let (r, cached) = core.run_query(qr).expect("no error reply");
        assert_eq!(&r.fingerprint(), fp, "seed {}", qr.seed);
        if !cached {
            recomputed += 1;
            assert!(core.run_query(qr).unwrap().1, "recompute not memoized");
        }
    }
    recomputed
}

/// The log-backed memo tier: with a spill file, fresh results live in
/// the log and RAM holds only their index entries; asking again reads
/// each record back as a cache hit, fingerprint-identical to a fresh
/// session. Bytes overwritten in the middle of the live log, and
/// separately a truncated log, make exactly the affected keys recompute
/// — never an error reply or a wrong report.
#[test]
fn spill_log_serves_memoized_results_through_the_index() {
    let path = tmp_path("log-tier");
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        persist: Some(path.clone()),
        ..ServeConfig::default()
    };
    let queries: Vec<QueryRequest> = (0..1000).map(|seed| estimate("x - 1", seed, 3)).collect();
    let fps: Vec<String> = {
        let core = ServeCore::new(config.clone());
        core.register("decay", &decay_source()).unwrap();
        let fps: Vec<String> = queries
            .iter()
            .map(|qr| {
                let (r, cached) = core.run_query(qr).unwrap();
                assert!(!cached);
                r.fingerprint()
            })
            .collect();
        let c = core.cache_stats();
        assert_eq!((c.entries, c.indexed), (0, 1000), "results left resident");
        let persist = core.stats_json().get("persist").cloned().unwrap();
        assert_eq!(persist.get("indexed").and_then(Json::as_usize), Some(1000));
        assert!(core
            .metrics_text()
            .contains("biocheckd_persist_indexed 1000"));
        for (qr, fp) in queries.iter().zip(&fps) {
            let (r, cached) = core.run_query(qr).unwrap();
            assert!(cached, "seed {} not served from the log", qr.seed);
            assert_eq!(&r.fingerprint(), fp);
            assert_eq!(fp, &fresh(qr), "seed {}", qr.seed);
        }
        let c = core.cache_stats();
        assert_eq!((c.hits, c.entries), (1000, 1000), "log hits promoted");
        fps
    };

    // Overwrite a stretch in the middle of the live log.
    let core = ServeCore::new(config.clone());
    core.register("decay", &decay_source()).unwrap();
    assert_eq!(
        core.cache_stats().entries,
        0,
        "replay left results resident"
    );
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid..mid + 64].fill(b'#');
    std::fs::write(&path, &bytes).unwrap();
    let n = recomputed(&core, &queries, &fps);
    assert!(
        (1..=2).contains(&n),
        "{n} keys recomputed for one damaged stretch"
    );
    drop(core);

    // Truncate the compacted log: the lost tail recomputes.
    let core = ServeCore::new(config);
    core.register("decay", &decay_source()).unwrap();
    assert_eq!(core.cache_stats().indexed, 1000);
    let len = std::fs::metadata(&path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(len * 3 / 4).unwrap();
    let n = recomputed(&core, &queries, &fps);
    assert!(
        (200..300).contains(&n),
        "{n} keys recomputed for a lost quarter"
    );
    let _ = std::fs::remove_file(&path);
}

/// A sweep of novel literals against one frozen model session answers
/// every query bit-identically to a fresh session, never rebuilds or
/// grows the model, and keeps every earlier answer a cache hit.
#[test]
fn literal_sweep_matches_fresh_sessions_and_stays_cached() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    let entry = core.registry().get("decay").unwrap();
    let model_nodes = entry.session().arena_nodes();

    let sweep: Vec<QueryRequest> = (0..40)
        .map(|i| estimate(&format!("x - 0.{:03}", 500 + i), 42, 25))
        .collect();
    let mut cold = Vec::new();
    for qr in &sweep {
        let (r, cached) = core.run_query(qr).unwrap();
        assert!(!cached);
        assert_eq!(
            r.fingerprint(),
            fresh(qr),
            "view diverged from a fresh session"
        );
        cold.push(r.fingerprint());
    }
    assert_eq!(entry.session_builds(), 1, "the model session was rebuilt");
    assert_eq!(
        entry.session().arena_nodes(),
        model_nodes,
        "model arena grew"
    );
    // Earlier answers stay reachable and identical: canonical cache
    // keys are text-based, so private arenas change no key.
    for (qr, fp) in sweep.iter().zip(&cold) {
        let (hit, cached) = core.run_query(qr).unwrap();
        assert!(cached, "a later literal invalidated a memoized result");
        assert_eq!(&hit.fingerprint(), fp);
    }
}

/// The artifact LRU bound evicts least-recently-used compiled plans and
/// samplers once more setups are live than it holds, and evicted
/// artifacts recompile bit-identically on next use.
#[test]
fn artifact_cap_evicts_lru_and_recompiles_identically() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    let entry = core.registry().get("decay").unwrap();

    // Twice as many setups (plan + sampler each) as the bound holds.
    let props: Vec<String> = (0..Session::MAX_ARTIFACTS)
        .map(|i| format!("x - 0.{:03}", 900 + i))
        .collect();
    for seed in [42u64, 43] {
        for p in &props {
            let qr = estimate(p, seed, 20);
            assert_eq!(core.run_query(&qr).unwrap().0.fingerprint(), fresh(&qr));
        }
    }
    let m = core.registry().memory_stats();
    assert!(
        m.artifact_evictions > 0,
        "LRU never evicted — proves nothing"
    );
    assert!(
        m.artifact_count <= Session::MAX_ARTIFACTS,
        "store above the bound"
    );
    // Fresh seeds revisit the evicted setups: they recompile, identically.
    let builds = entry.session().stats().sampler_builds;
    for p in &props {
        let qr = estimate(p, 44, 20);
        let (r, cached) = core.run_query(&qr).unwrap();
        assert!(!cached);
        assert_eq!(
            r.fingerprint(),
            fresh(&qr),
            "recompiled artifact diverged for {p}"
        );
    }
    assert!(
        entry.session().stats().sampler_builds > builds,
        "nothing recompiled"
    );
}

/// The acceptance-criteria sweep: 10k distinct literals, each prepared
/// and run on a view of the frozen model session. The artifact store
/// stays within its LRU bound, the model arena at its registration size,
/// and the gauges agree across `stats` and `metrics`.
#[test]
fn ten_thousand_literal_sweep_keeps_the_model_arena_frozen() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("decay", &decay_source()).unwrap();
    let entry = core.registry().get("decay").unwrap();
    let model_nodes = entry.session().arena_nodes();
    for i in 0..10_000u32 {
        let qr = estimate(&format!("x - 0.{i:05}"), 1, 1);
        let (view, query, _) = entry
            .prepare(|cx| qr.query.build(cx))
            .expect("sweep query must lower");
        view.query(query).seed(1).run().expect("sweep query runs");
    }
    assert_eq!(
        entry.session().arena_nodes(),
        model_nodes,
        "model arena grew"
    );
    assert_eq!(entry.session_builds(), 1);
    let m = core.registry().memory_stats();
    assert_eq!(m.artifact_count, Session::MAX_ARTIFACTS);
    assert_eq!(m.artifact_evictions, 2 * 10_000 - Session::MAX_ARTIFACTS);
    assert_eq!(session_gauge(&core, "artifact_count"), m.artifact_count);
    assert_eq!(
        session_gauge(&core, "artifact_evictions"),
        m.artifact_evictions
    );
    // The gauges are on the metrics exposition too.
    let text = core.metrics_text();
    assert!(text.contains(&format!(
        "biocheckd_session_artifact_count {}",
        m.artifact_count
    )));
    assert!(text.contains("biocheckd_session_artifact_evictions_total"));
}

/// The watchdog reaps a genuinely overrunning execution: a typed
/// `watchdog_cancelled` error (not a silently truncated report), the
/// counter moves, and nothing poisoned lands in the cache.
#[test]
fn watchdog_cancels_overrunning_query() {
    // The ceiling is far above what the small query below needs even
    // on a loaded host, and far below the big query's full run.
    let core = ServeCore::new(ServeConfig {
        max_execute: Some(Duration::from_millis(500)),
        ..ServeConfig::default()
    });
    core.register("decay", &decay_source()).unwrap();
    // Big enough that execution is still running when the ceiling
    // trips; the engine polls the raised token at every sample claim and
    // unwedges long before the full run would finish.
    let big = QueryRequest {
        model: "decay".into(),
        id: None,
        seed: 5,
        budget: BudgetSpec::default(),
        query: QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Uniform(0.5, 1.5)],
                params: vec![],
                property: PropSpec::Eventually {
                    bound: 2.0,
                    inner: Box::new(PropSpec::Prop {
                        expr: "x - 0.25".into(),
                        rel: biocheck_expr::RelOp::Ge,
                    }),
                },
                t_end: 2.0,
            },
            method: MethodSpec::Fixed { n: 100_000_000 },
        },
        trace: false,
    };
    match core.run_query(&big) {
        Err(ServeError::WatchdogCancelled {
            elapsed_ms,
            ceiling_ms,
        }) => {
            assert_eq!(ceiling_ms, 500);
            assert!(elapsed_ms >= 500, "reaped before the ceiling");
        }
        other => panic!("expected watchdog_cancelled, got {other:?}"),
    }
    assert_eq!(core.watchdog_cancelled_count(), 1);
    assert_eq!(core.scheduler().in_flight(), 0, "permit released");
    // The reaped run was impure: nothing cached under its key.
    assert_eq!(core.cache_stats().inserts, 0);
    // Observability: the error kind string and the counter are wired
    // through the JSON stats and the Prometheus exposition.
    assert_eq!(
        ServeError::WatchdogCancelled {
            elapsed_ms: 1,
            ceiling_ms: 1
        }
        .kind(),
        "watchdog_cancelled"
    );
    let stats = core.stats_json();
    assert_eq!(
        stats
            .get("server")
            .and_then(|s| s.get("watchdog_cancelled"))
            .and_then(Json::as_usize),
        Some(1)
    );
    assert!(core
        .metrics_text()
        .contains("biocheckd_watchdog_cancelled_total 1"));
    // A small query on the same core is untouched by the watchdog's
    // history and still memoizes.
    let (r, cached) = core.run_query(&estimate("x - 1", 3, 20)).unwrap();
    assert!(!cached);
    let (hit, cached) = core.run_query(&estimate("x - 1", 3, 20)).unwrap();
    assert!(cached);
    assert_eq!(r.fingerprint(), hit.fingerprint());
}

/// The watchdog clock counts execution only: a request that waits in
/// the admission queue for twice the ceiling still runs to a report
/// once it gets the slot.
#[test]
fn queue_wait_does_not_count_toward_the_watchdog_ceiling() {
    let core = Arc::new(ServeCore::new(ServeConfig {
        concurrency: 1,
        max_execute: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    }));
    core.register("decay", &decay_source()).unwrap();
    let permit = core.scheduler().admit(AdmitWait::default()).unwrap();
    let waiter = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.run_query(&estimate("x - 1", 4, 20)))
    };
    while core.scheduler().queue_depth() != 1 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(600));
    drop(permit);
    match waiter.join().unwrap() {
        Ok((report, cached)) => {
            assert!(!cached);
            assert_eq!(report.provenance.samples, 20);
        }
        Err(e) => panic!("queued request must run once admitted, got {e:?}"),
    }
    assert_eq!(core.watchdog_cancelled_count(), 0);
}

/// Concurrent sweeps against one model: evictions race with in-flight
/// prepares and executions across threads, and every reply still
/// matches a fresh, unshared session.
#[test]
fn concurrent_capped_sweeps_match_unbounded_reference() {
    let sweep: Vec<QueryRequest> = (0..24)
        .map(|i| estimate(&format!("x - 0.{:03}", 700 + i), 9, 20))
        .collect();
    let expected: Vec<String> = sweep.iter().map(fresh).collect();

    let core = Arc::new(ServeCore::new(ServeConfig {
        concurrency: 4,
        ..ServeConfig::default()
    }));
    core.register("decay", &decay_source()).unwrap();
    let sweep = Arc::new(sweep);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let (core, sweep, expected) =
                (Arc::clone(&core), Arc::clone(&sweep), Arc::clone(&expected));
            std::thread::spawn(move || {
                // Each thread walks the sweep from a different offset so
                // evictions interleave with other threads' queries.
                for i in 0..sweep.len() {
                    let j = (i + t * 3) % sweep.len();
                    let (r, _) = core.run_query(&sweep[j]).unwrap();
                    assert_eq!(
                        r.fingerprint(),
                        expected[j],
                        "concurrent sweep diverged on query {j}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("sweep thread panicked");
    }
    let m = core.registry().memory_stats();
    assert!(
        m.artifact_evictions > 0,
        "no eviction raced — proves nothing"
    );
    assert!(m.artifact_count <= Session::MAX_ARTIFACTS);
}
