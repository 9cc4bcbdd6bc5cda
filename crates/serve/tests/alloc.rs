//! Allocation budget of the warm query path: a query line answered from
//! the line index allocates exactly once, for its reply line, and
//! lowering the prostate `Estimate` of the `daemon_mix` benchmark
//! (`ModelEntry::prepare`, the first half of every miss and of a line's
//! first hit) stays within 40 allocations.
//!
//! This binary holds exactly one test so the global allocation counter
//! is not disturbed by concurrently running tests.

use biocheck_expr::RelOp;
use biocheck_serve::server::{ServeConfig, ServeCore};
use biocheck_serve::wire::{
    BudgetSpec, DistSpec, MethodSpec, PropSpec, QueryRequest, QuerySpec, Request, SmcSpecWire,
};
use biocheck_serve::{case_study_source, Json};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The fewest allocations `f` made over a few runs. The counter is
/// process-global, so a rare background allocation from the test
/// harness can land inside one measured window; an allocation `f`
/// itself makes shows up in every run, so the minimum cannot hide it.
fn fewest_allocations<R>(mut f: impl FnMut() -> R) -> usize {
    (0..5)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            std::hint::black_box(f());
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .unwrap()
}

/// The `daemon_mix` prostate `Estimate`.
fn prostate_estimate() -> QueryRequest {
    QueryRequest {
        model: "prostate".into(),
        id: None,
        seed: 11,
        budget: BudgetSpec::default(),
        query: QuerySpec::Estimate {
            smc: SmcSpecWire {
                init: vec![
                    DistSpec::Uniform(10.0, 20.0),
                    DistSpec::Uniform(0.05, 0.2),
                    DistSpec::Uniform(10.0, 14.0),
                ],
                params: vec![],
                property: PropSpec::Globally {
                    bound: 100.0,
                    inner: Box::new(PropSpec::Prop {
                        expr: "18 - (x + y)".into(),
                        rel: RelOp::Ge,
                    }),
                },
                t_end: 100.0,
            },
            method: MethodSpec::Fixed { n: 256 },
        },
        trace: false,
    }
}

fn line_hits(core: &ServeCore) -> f64 {
    let stats = core.stats_json();
    let hits = stats.get("cache").and_then(|c| c.get("line_hits"));
    hits.and_then(Json::as_f64).unwrap()
}

#[test]
fn warm_query_path_allocation_budget() {
    let core = ServeCore::new(ServeConfig::default());
    core.register("prostate", &case_study_source("prostate").unwrap())
        .unwrap();
    let estimate = prostate_estimate();
    let lint = QueryRequest {
        query: QuerySpec::Lint { ranges: vec![] },
        ..estimate.clone()
    };
    for qr in [&estimate, &lint] {
        let line = Request::Query(qr.clone()).to_json().render();
        // A miss, the hit that indexes the line, then indexed hits.
        let (miss, _) = core.handle_line(&line);
        assert!(miss.starts_with("{\"cached\":false,"), "{miss}");
        let (hit, _) = core.handle_line(&line);
        let before = line_hits(&core);
        let (indexed, _) = core.handle_line(&line);
        assert_eq!(indexed, hit);
        assert_eq!(line_hits(&core), before + 1.0);
        let n = fewest_allocations(|| core.handle_line(&line));
        assert_eq!(n, 1, "an indexed hit allocates only its reply line");
    }

    let entry = core.registry().get("prostate").unwrap();
    let n = fewest_allocations(|| entry.prepare(|cx| estimate.query.build(cx)).unwrap());
    assert!(n <= 40, "prostate Estimate prepare allocated {n} times");
}
