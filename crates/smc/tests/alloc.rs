//! Verifies the fused-pipeline acceptance criterion: after warm-up, a
//! full SMC Bernoulli sample — RNG fork, instantiation draw, streaming
//! integration, streaming monitoring, verdict — through a reused
//! [`SampleScratch`] performs zero heap allocations and builds zero
//! monitors or traces (the sibling of `crates/expr/tests/alloc.rs`,
//! `crates/icp/tests/alloc.rs`, and `crates/bltl/tests/alloc.rs`). A
//! query's lockstep lane stream, which refills lanes from the next index
//! and parks idle ones, allocates only its reorder buffer, once — at 16
//! lanes with the lane-wide monitor feed and at the one-lane fallback,
//! for both outcome kinds, and with Boolean-only monitoring on a scratch
//! that never kept robustness.
//!
//! This binary holds exactly one test so the global allocation counter
//! is not disturbed by concurrently running tests.

use biocheck_bltl::Bltl;
use biocheck_expr::{Atom, Context, RelOp};
use biocheck_ode::OdeSystem;
use biocheck_smc::{fork_rng, Dist, TraceSampler, LANES};
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

    // A query's lane stream on the calling thread, through the pooled
    // scratch: after a warm-up stream, a stream allocates its reorder
    // ring once, however many samples pass through it. Lengths cover
    // the one-lane fallback (3), one lane fill, refills with parked
    // lanes (2 × LANES + 3), and a long stream. The Boolean streams run
    // first, so their scratch has never kept robustness.
    let stats_stream = |n: usize| {
        let mut held = 0usize;
        sampler
            .stats_stream(7, n, |st| {
                held += (st.sat && st.steps > 1 && !st.early_stop) as usize;
                false
            })
            .join();
        held
    };
    let robustness_stream = |n: usize| {
        let mut held = 0usize;
        sampler
            .robustness_stream(7, n, |r| {
                held += (r.0 && r.1.to_bits() == first_rob.to_bits()) as usize;
                false
            })
            .join();
        held
    };
    let streams: [(&str, &dyn Fn(usize) -> usize); 2] = [
        ("Boolean", &stats_stream),
        ("robustness", &robustness_stream),
    ];
    for (kind, stream) in streams {
        assert_eq!(stream(10 * LANES), 10 * LANES);
        for n in [3, LANES, 2 * LANES + 3, 40 * LANES] {
            let runs: Vec<(usize, usize)> = (0..5).map(|_| allocations(|| stream(n))).collect();
            assert!(
                runs.iter().all(|&(_, held)| held == n),
                "every sample of a {n}-sample {kind} stream holds"
            );
            assert_eq!(
                runs.iter().map(|&(allocs, _)| allocs).min(),
                Some(1),
                "a {n}-sample {kind} stream allocates its ring once"
            );
        }
    }
}
