//! Durability and self-governance: registry-log crash recovery with no
//! client re-registration, arena/artifact caps with evict-and-rebuild
//! determinism (bit-identical to uncapped serving — the CI
//! determinism matrix re-runs this suite at 1/2/8 pool threads), the
//! 10k-literal sweep staying under the arena cap gauge-verifiably, and
//! the hung-query watchdog reaping an overrunning execution.

use biocheck_serve::server::{ServeConfig, ServeCore, ServeError};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, SmcSpecWire,
};
use biocheck_serve::Json;
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

/// The evict-and-rebuild determinism property: a capped core forced
/// through many arena-cap rebuilds mid-sweep answers every query
/// bit-identically to an unbounded core (and to cache hits of its own
/// earlier answers).
#[test]
fn cap_rebuilds_preserve_bit_identical_results() {
    let capped = ServeCore::new(ServeConfig {
        // Tight enough that a sweep of novel literals breaches it over
        // and over; the decay model itself needs only a handful.
        max_arena_nodes: Some(60),
        ..ServeConfig::default()
    });
    let uncapped = ServeCore::new(ServeConfig::default());
    capped.register("decay", &decay_source()).unwrap();
    uncapped.register("decay", &decay_source()).unwrap();

    let sweep: Vec<QueryRequest> = (0..40)
        .map(|i| estimate(&format!("x - 0.{:03}", 500 + i), 42, 25))
        .collect();
    let mut cold = Vec::new();
    for qr in &sweep {
        let (capped_r, cached) = capped.run_query(qr).unwrap();
        assert!(!cached);
        let (uncapped_r, _) = uncapped.run_query(qr).unwrap();
        assert_eq!(
            capped_r.fingerprint(),
            uncapped_r.fingerprint(),
            "governed session diverged from unbounded session"
        );
        cold.push(capped_r.fingerprint());
    }
    let m = capped.registry().memory_stats();
    assert!(
        m.cap_rebuilds > 0,
        "sweep never breached the cap — proves nothing"
    );
    assert!(m.arena_nodes_high_water <= 60, "gauge above the cap");
    // Earlier answers stay reachable and identical: canonical cache
    // keys are text-based, so a rebuilt arena changes no key.
    for (qr, fp) in sweep.iter().zip(&cold) {
        let (hit, cached) = capped.run_query(qr).unwrap();
        assert!(cached, "rebuilds must not invalidate memoized results");
        assert_eq!(&hit.fingerprint(), fp);
    }
    assert_eq!(uncapped.registry().memory_stats().cap_rebuilds, 0);
}

/// The artifact cap evicts least-recently-used compiled plans and
/// samplers once the vocabulary is stable (a new-vocabulary query
/// rebuilds the session and starts the artifact cache empty anyway),
/// and evicted artifacts recompile bit-identically on next use.
#[test]
fn artifact_cap_evicts_lru_and_recompiles_identically() {
    let capped = ServeCore::new(ServeConfig {
        max_artifacts: Some(4),
        ..ServeConfig::default()
    });
    let uncapped = ServeCore::new(ServeConfig::default());
    capped.register("decay", &decay_source()).unwrap();
    uncapped.register("decay", &decay_source()).unwrap();

    let props: Vec<String> = (0..8).map(|i| format!("x - 0.{:03}", 900 + i)).collect();
    // Pass 1 interns every property's vocabulary (each rebuild starts
    // the artifact cache fresh); pass 2 runs over a stable arena, so
    // artifacts accumulate — two (plan + sampler) per property — and
    // the cap starts evicting.
    for seed in [42u64, 43] {
        for p in &props {
            let (c, _) = capped.run_query(&estimate(p, seed, 20)).unwrap();
            let (u, _) = uncapped.run_query(&estimate(p, seed, 20)).unwrap();
            assert_eq!(c.fingerprint(), u.fingerprint());
        }
    }
    let m = capped.registry().memory_stats();
    assert!(
        m.artifact_evictions > 0,
        "artifact cap never enforced — proves nothing"
    );
    assert!(m.artifact_count_high_water <= 4, "gauge above the cap");
    assert_eq!(m.cap_rebuilds, 0, "no arena cap in this test");
    // Fresh seeds force recompiles of evicted artifacts: identical.
    for p in &props {
        let (c, cached) = capped.run_query(&estimate(p, 44, 20)).unwrap();
        assert!(!cached);
        let (u, _) = uncapped.run_query(&estimate(p, 44, 20)).unwrap();
        assert_eq!(
            c.fingerprint(),
            u.fingerprint(),
            "recompiled artifact diverged for {p}"
        );
    }
}

/// The acceptance-criteria sweep: 10k distinct literals against a
/// capped session. Arena growth is what `prepare` does (no execution
/// needed to grow the arena), so the sweep drives `prepare` directly
/// and verifies the high-water gauge never passed the cap.
#[test]
fn ten_thousand_literal_sweep_stays_under_arena_cap() {
    let core = ServeCore::new(ServeConfig {
        max_arena_nodes: Some(120),
        max_artifacts: Some(8),
        ..ServeConfig::default()
    });
    core.register("decay", &decay_source()).unwrap();
    let entry = core.registry().get("decay").unwrap();
    for i in 0..10_000u32 {
        let qr = estimate(&format!("x - 0.{i:05}"), 1, 10);
        entry
            .prepare(|cx| qr.query.build(cx))
            .expect("sweep query must lower");
    }
    let m = core.registry().memory_stats();
    assert!(
        m.arena_nodes_high_water <= 120,
        "high water {} exceeded the cap",
        m.arena_nodes_high_water
    );
    assert!(m.arena_nodes <= 120);
    assert!(m.cap_rebuilds > 0, "a 10k sweep must have breached the cap");
    assert_eq!(session_gauge(&core, "arena_nodes_high_water"), {
        m.arena_nodes_high_water
    });
    assert_eq!(session_gauge(&core, "cap_rebuilds"), m.cap_rebuilds);
    // The gauges are on the metrics exposition too.
    let text = core.metrics_text();
    assert!(text.contains("biocheckd_session_arena_nodes_high_water"));
    assert!(text.contains("biocheckd_session_cap_rebuilds_total"));
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
    // trips; the engine polls the raised token between batches and
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

/// Concurrent sweeps against one governed model: rebuilds and
/// evictions race with in-flight prepares across threads, and every
/// reply still matches the unbounded reference.
#[test]
fn concurrent_capped_sweeps_match_unbounded_reference() {
    let reference = ServeCore::new(ServeConfig::default());
    reference.register("decay", &decay_source()).unwrap();
    let mut expected = Vec::new();
    let sweep: Vec<QueryRequest> = (0..24)
        .map(|i| estimate(&format!("x - 0.{:03}", 700 + i), 9, 20))
        .collect();
    for qr in &sweep {
        expected.push(reference.run_query(qr).unwrap().0.fingerprint());
    }

    let capped = Arc::new(ServeCore::new(ServeConfig {
        max_arena_nodes: Some(30),
        max_artifacts: Some(3),
        concurrency: 4,
        ..ServeConfig::default()
    }));
    capped.register("decay", &decay_source()).unwrap();
    let sweep = Arc::new(sweep);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let (core, sweep, expected) = (
                Arc::clone(&capped),
                Arc::clone(&sweep),
                Arc::clone(&expected),
            );
            std::thread::spawn(move || {
                // Each thread walks the sweep from a different offset so
                // rebuilds interleave with other threads' prepares.
                for i in 0..sweep.len() {
                    let j = (i + t * 3) % sweep.len();
                    let (r, _) = core.run_query(&sweep[j]).unwrap();
                    assert_eq!(
                        r.fingerprint(),
                        expected[j],
                        "capped concurrent sweep diverged on query {j}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("sweep thread panicked");
    }
    let m = capped.registry().memory_stats();
    assert!(m.cap_rebuilds > 0, "no rebuild raced — proves nothing");
    assert!(m.arena_nodes_high_water <= 30);
}
