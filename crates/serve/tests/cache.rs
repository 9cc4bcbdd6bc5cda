//! Eviction edge cases for the result cache — and the end-to-end
//! guarantee that a model re-registered with a different fingerprint
//! can never be served a stale report, not even through the line
//! index.

use biocheck_serve::server::{ServeConfig, ServeCore};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, ModelSource, PropSpec, QueryRequest, QuerySpec, Request,
    SmcSpecWire,
};
use biocheck_serve::ResultCache;
use biocheck_serve::{parse_json, Json};

#[test]
fn capacity_zero_is_a_correct_noop() {
    let cache: ResultCache<u32> = ResultCache::new(0);
    assert!(!cache.insert("k", 1, 10), "nothing fits in 0 bytes");
    assert_eq!(cache.get("k"), None);
    let s = cache.stats();
    assert_eq!((s.entries, s.bytes, s.inserts), (0, 0, 0));
    assert_eq!(s.rejected, 1);
    assert_eq!(s.misses, 1);
    assert_eq!(s.evictions, 0, "rejection is not eviction");
}

#[test]
fn capacity_one_admits_only_one_byte_entries() {
    let cache: ResultCache<u32> = ResultCache::new(1);
    assert!(!cache.insert("a", 1, 2), "2 bytes cannot fit");
    assert!(cache.insert("a", 1, 1));
    assert_eq!(cache.get("a"), Some(1));
    // A second 1-byte entry evicts the first.
    assert!(cache.insert("b", 2, 1));
    assert_eq!(cache.get("a"), None);
    assert_eq!(cache.get("b"), Some(2));
    let s = cache.stats();
    assert_eq!((s.entries, s.bytes, s.evictions, s.rejected), (1, 1, 1, 1));
}

#[test]
fn byte_pressure_evicts_lru_first_and_exactly_enough() {
    let cache: ResultCache<u32> = ResultCache::new(100);
    for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
        assert!(cache.insert(*k, i as u32, 25));
    }
    // Touch order: a is oldest untouched ⇒ after touching a, b is LRU.
    assert_eq!(cache.get("a"), Some(0));
    // 50-byte insert needs two evictions: b then c (LRU order), d and a
    // survive.
    assert!(cache.insert("e", 9, 50));
    assert_eq!(cache.get("b"), None);
    assert_eq!(cache.get("c"), None);
    assert_eq!(cache.get("a"), Some(0));
    assert_eq!(cache.get("d"), Some(3));
    assert_eq!(cache.get("e"), Some(9));
    assert_eq!(cache.stats().evictions, 2);
    assert_eq!(cache.stats().bytes, 100);
}

#[test]
fn growing_replacement_rebalances() {
    let cache: ResultCache<u32> = ResultCache::new(10);
    assert!(cache.insert("a", 1, 4));
    assert!(cache.insert("b", 2, 4));
    // Replace b with a bigger value: a must be evicted to fit.
    assert!(cache.insert("b", 3, 8));
    assert_eq!(cache.get("a"), None);
    assert_eq!(cache.get("b"), Some(3));
    assert_eq!(cache.stats().bytes, 8);
}

#[test]
fn rejected_replacement_drops_the_stale_value() {
    // Re-inserting a key with an over-budget cost cannot store the new
    // value — but it must not keep serving the old one either: the
    // caller declared it replaced.
    let cache: ResultCache<u32> = ResultCache::new(10);
    assert!(cache.insert("k", 1, 5));
    assert!(!cache.insert("k", 2, 25), "25 bytes cannot fit in 10");
    assert_eq!(cache.get("k"), None, "stale value must be gone");
    let s = cache.stats();
    assert_eq!((s.entries, s.bytes, s.rejected), (0, 0, 1));
}

fn decay_request(rhs_threshold: f64) -> QueryRequest {
    QueryRequest {
        model: "m".into(),
        id: None,
        seed: 5,
        budget: BudgetSpec::default(),
        query: QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![DistSpec::Uniform(0.5, 1.5)],
                params: vec![],
                property: PropSpec::Eventually {
                    bound: 0.01,
                    inner: Box::new(PropSpec::Prop {
                        expr: format!("x - {rhs_threshold}"),
                        rel: biocheck_expr::RelOp::Ge,
                    }),
                },
                t_end: 0.01,
            },
            method: MethodSpec::Fixed { n: 80 },
        },
        trace: false,
    }
}

/// Re-registering a model with a *different* definition must never let
/// an old memoized report leak into answers for the new model — the
/// fingerprint in the key rotates AND the old entries are purged.
#[test]
fn reregistration_never_serves_stale_reports() {
    let core = ServeCore::new(ServeConfig::default());
    let v1 = ModelSource {
        states: vec![("x".into(), "-x".into())],
        consts: vec![],
    };
    core.register("m", &v1).unwrap();
    let request = decay_request(1.0);
    let (r1, cached) = core.run_query(&request).unwrap();
    assert!(!cached);
    let (r1_hit, cached) = core.run_query(&request).unwrap();
    assert!(cached);
    assert_eq!(r1.fingerprint(), r1_hit.fingerprint());

    // New dynamics under the same name: x decays 100× faster, so
    // F≤0.01(x ≥ 1) has a different probability.
    let v2 = ModelSource {
        states: vec![("x".into(), "-100*x".into())],
        consts: vec![],
    };
    core.register("m", &v2).unwrap();
    assert!(core.cache_stats().purged > 0, "old results purged");
    let (r2, cached) = core.run_query(&request).unwrap();
    assert!(!cached, "changed model must recompute");
    // Same request text, different dynamics ⇒ the reports may disagree;
    // what matters is that r2 equals a fresh single-model computation.
    let fresh = ServeCore::new(ServeConfig::default());
    fresh.register("m", &v2).unwrap();
    let (expected, _) = fresh.run_query(&request).unwrap();
    assert_eq!(r2.fingerprint(), expected.fingerprint());

    // And re-registering the SAME definition keeps the memoized results.
    core.register("m", &v2).unwrap();
    let (_r2_hit, cached) = core.run_query(&request).unwrap();
    assert!(cached, "identical re-registration keeps the cache");
}

/// `(cached, report fingerprint, line_hits)` after sending `line`.
fn send(core: &ServeCore, line: &str) -> (bool, String, f64) {
    let reply = parse_json(&core.handle_line(line).0).unwrap();
    let cached = reply.get("cached").and_then(Json::as_bool).unwrap();
    let report = reply.get("report").and_then(|r| r.get("fingerprint"));
    let stats = core.stats_json();
    let line_hits = stats.get("cache").and_then(|c| c.get("line_hits"));
    (
        cached,
        report.and_then(Json::as_str).unwrap().to_string(),
        line_hits.and_then(Json::as_f64).unwrap(),
    )
}

/// With a spill log, purging a re-registered model's results leaves
/// their log locators, which still load under the old fingerprint's
/// keys, and the line index maps a line to such a key. So after a
/// changed definition is registered under the same name, the indexed
/// line must answer the new model; once the old definition is back, it
/// answers the old memo again.
#[test]
fn an_indexed_line_answers_the_definition_registered_now() {
    let path = std::env::temp_dir().join(format!("biocheck-line-index-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let core = ServeCore::new(ServeConfig {
        persist: Some(path.clone()),
        ..ServeConfig::default()
    });
    let v1 = ModelSource {
        states: vec![("x".into(), "-x".into())],
        consts: vec![],
    };
    let v2 = ModelSource {
        states: vec![("x".into(), "-100*x".into())],
        consts: vec![],
    };
    let fresh = |source: &ModelSource| {
        let core = ServeCore::new(ServeConfig::default());
        core.register("m", source).unwrap();
        core.run_query(&decay_request(1.0)).unwrap().0.fingerprint()
    };
    let (fp1, fp2) = (fresh(&v1), fresh(&v2));
    assert_ne!(fp1, fp2);
    let line = Request::Query(decay_request(1.0)).to_json().render();

    core.register("m", &v1).unwrap();
    assert_eq!(send(&core, &line), (false, fp1.clone(), 0.0));
    assert_eq!(
        send(&core, &line),
        (true, fp1.clone(), 0.0),
        "log read-back"
    );
    assert_eq!(send(&core, &line), (true, fp1.clone(), 1.0), "line index");

    core.register("m", &v2).unwrap();
    assert_eq!(send(&core, &line), (false, fp2.clone(), 1.0), "new model");
    assert_eq!(send(&core, &line), (true, fp2.clone(), 1.0));
    assert_eq!(send(&core, &line), (true, fp2.clone(), 2.0));

    core.register("m", &v1).unwrap();
    assert_eq!(
        send(&core, &line),
        (true, fp1.clone(), 2.0),
        "old memo, from the log"
    );
    assert_eq!(send(&core, &line), (true, fp1, 3.0));
    drop(core);
    let _ = std::fs::remove_file(&path);
}

/// A tiny cache byte budget turns memoization off gracefully: queries
/// still answer correctly, the second run just recomputes.
#[test]
fn zero_budget_core_still_serves_correctly() {
    let core = ServeCore::new(ServeConfig {
        cache_bytes: 0,
        concurrency: 1,
        ..ServeConfig::default()
    });
    let v1 = ModelSource {
        states: vec![("x".into(), "-x".into())],
        consts: vec![],
    };
    core.register("m", &v1).unwrap();
    let request = decay_request(1.0);
    let (a, cached_a) = core.run_query(&request).unwrap();
    let (b, cached_b) = core.run_query(&request).unwrap();
    assert!(!cached_a && !cached_b);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(core.cache_stats().entries, 0);
    assert!(core.cache_stats().rejected >= 2);
    // Stats payload stays well-formed.
    let stats = core.stats_json();
    assert_eq!(
        stats.get("cache").and_then(|c| c.get("entries")),
        Some(&Json::Num(0.0))
    );
}
