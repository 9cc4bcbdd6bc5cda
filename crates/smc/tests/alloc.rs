//! Verifies the fused-pipeline acceptance criterion: after warm-up, a
//! full SMC Bernoulli sample — RNG fork, instantiation draw, streaming
//! integration, streaming monitoring, verdict — through a reused
//! [`SampleScratch`] performs zero heap allocations and builds zero
//! monitors or traces (the sibling of `crates/expr/tests/alloc.rs`,
//! `crates/icp/tests/alloc.rs`, and `crates/bltl/tests/alloc.rs`). The
//! lockstep range entry points, which refill lanes from the next index
//! and park idle ones, are held to the same bar — with the lane-wide
//! monitor feed, and with Boolean-only monitoring on a scratch that never
//! kept robustness — and a query's lane stream allocates only its
//! reorder buffer, once.
//!
//! This binary holds exactly one test so the global allocation counter
//! is not disturbed by concurrently running tests.

use biocheck_bltl::Bltl;
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_ode::OdeSystem;
use biocheck_smc::{fork_rng, Dist, SampleStats, TraceSampler, LANES};
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

fn allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Runs `f` up to a few times and asserts that at least one run performs
/// zero heap allocations. The counter is process-global, so a rare
/// background allocation from the test-harness runtime can land inside
/// the measured window; a genuine per-call allocation in `f` would show
/// up in *every* run, so retrying cannot mask a real regression.
fn assert_allocation_free<R>(what: &str, mut f: impl FnMut() -> R) -> R {
    let mut min = usize::MAX;
    for _ in 0..5 {
        let (n, r) = allocations(&mut f);
        min = min.min(n);
        if n == 0 {
            return r;
        }
    }
    panic!("{what} allocated at least {min} times in steady state");
}

#[test]
fn fused_smc_sampling_does_not_allocate() {
    // Harmonic oscillator with a nested response property that runs the
    // full horizon (robustness-grade workload): every sample integrates
    // the same trajectory (Point distributions), so buffer high-water
    // marks are reached after one warm-up sample.
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let v = cx.intern_var("v");
    let dx = cx.parse("v").unwrap();
    let dv = cx.parse("-x").unwrap();
    let sys = OdeSystem::new(vec![x, v], vec![dx, dv]);
    let ge = |cx: &mut Context, s: &str| {
        let e = cx.parse(s).unwrap();
        Bltl::Prop(Atom::new(e, RelOp::Ge))
    };
    let prop = Bltl::And(vec![
        Bltl::globally(6.0, ge(&mut cx, "2 - x")),
        Bltl::eventually(6.0, ge(&mut cx, "x - 0.5")),
    ]);
    let sampler = TraceSampler::new(
        cx,
        &sys,
        vec![Dist::Point(1.0), Dist::Point(0.0)],
        vec![],
        prop,
        6.0,
    );

    let mut scratch = sampler.scratch();
    // Warm-up: both the boolean path and the robustness path.
    let first = sampler.sample_with(&mut fork_rng(7, 0), &mut scratch);
    let (_, first_rob) = sampler.sample_robustness_with(&mut fork_rng(7, 0), &mut scratch);
    assert!(first, "x stays within [−1, 1]: the property holds");
    assert!(first_rob > 0.0);

    // Steady state: whole samples — fork_rng included, exactly as the
    // parallel batch loop runs them — without touching the heap.
    let (hits, rob) = assert_allocation_free("fused SMC sampling", || {
        let mut hits = 0usize;
        let mut rob = 0.0;
        for i in 0..20u64 {
            if sampler.sample_with(&mut fork_rng(7, i), &mut scratch) {
                hits += 1;
            }
            rob += sampler
                .sample_robustness_with(&mut fork_rng(7, i), &mut scratch)
                .1;
        }
        (hits, rob)
    });
    assert_eq!(hits, 20, "Point-distribution samples are identical");
    assert!((rob - 20.0 * first_rob).abs() < 1e-12);

    // Lockstep ranges through a reused lane scratch: a length that is
    // not a multiple of the lane count, so refills and parked lanes both
    // occur, and a start that is not zero.
    let mut stats = vec![SampleStats::default(); 2 * LANES + 3];
    let mut robust = vec![(false, 0.0); 2 * LANES + 3];
    sampler.sample_stats_range(7, 5, &mut scratch, &mut stats);
    sampler.sample_robustness_range(7, 5, &mut scratch, &mut robust);
    assert_allocation_free("lockstep SMC ranges", || {
        for first in [5u64, 40, 1000] {
            sampler.sample_stats_range(7, first, &mut scratch, &mut stats);
            sampler.sample_robustness_range(7, first, &mut scratch, &mut robust);
        }
    });
    assert!(stats
        .iter()
        .all(|st| st.sat && st.steps > 1 && !st.early_stop));
    assert!(robust
        .iter()
        .all(|r| r.0 && r.1.to_bits() == first_rob.to_bits()));

    // Boolean-only monitoring on its own: a fresh scratch warmed by
    // one Boolean range (lane feed at 16 lanes) and one short range
    // (the one-lane fallback) stays allocation-free on both.
    let mut boolean = sampler.scratch();
    let mut short = vec![SampleStats::default(); 3];
    sampler.sample_stats_range(7, 5, &mut boolean, &mut stats);
    sampler.sample_stats_range(7, 5, &mut boolean, &mut short);
    assert_allocation_free("Boolean-only lane monitoring", || {
        for first in [5u64, 40, 1000] {
            sampler.sample_stats_range(7, first, &mut boolean, &mut stats);
            sampler.sample_stats_range(7, first, &mut boolean, &mut short);
        }
    });
    assert!(stats.iter().chain(&short).all(|st| st.sat && st.steps > 1));

    // A query's lane stream on the calling thread: after the warm-up
    // stream, a stream allocates its reorder buffer once, however many
    // samples pass through it.
    let stream = |n: usize| {
        let mut hits = 0usize;
        sampler
            .stats_stream(7, n, |st| {
                hits += st.sat as usize;
                false
            })
            .join();
        hits
    };
    assert_eq!(stream(10 * LANES), 10 * LANES);
    for n in [LANES, 40 * LANES] {
        let fewest = (0..5).map(|_| allocations(|| stream(n)).0).min();
        assert_eq!(
            fewest,
            Some(1),
            "a {n}-sample stream allocates its ring once"
        );
    }
}
