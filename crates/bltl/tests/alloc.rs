//! Verifies the streaming-monitor acceptance criterion: after warm-up,
//! a whole begin/feed*/finish monitoring cycle through a reused
//! [`MonitorScratch`] performs zero heap allocations (the sibling of
//! `crates/expr/tests/alloc.rs` and `crates/icp/tests/alloc.rs`), and so
//! do lane-feed cycles over several lanes, with and without robustness.
//!
//! This binary holds exactly one test so the global allocation counter
//! is not disturbed by concurrently running tests.

use biocheck_bltl::{Bltl, CompiledBltl, MonitorScratch, Verdict};
use biocheck_expr::{Atom, Context, RelOp};
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
fn streaming_monitoring_does_not_allocate() {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let y = cx.intern_var("y");
    let states = [x, y];
    let p = |cx: &mut Context, src: &str| {
        let e = cx.parse(src).unwrap();
        Bltl::Prop(Atom::new(e, RelOp::Ge))
    };
    // A nested formula exercising every operator: props, bool ops, and
    // two temporal layers.
    let f = Bltl::And(vec![
        Bltl::globally(
            8.0,
            Bltl::implies(
                p(&mut cx, "x - 1"),
                Bltl::eventually(3.0, p(&mut cx, "y - 2")),
            ),
        ),
        Bltl::Or(vec![
            p(&mut cx, "4 - x"),
            Bltl::Not(Box::new(p(&mut cx, "y"))),
        ]),
    ]);
    let plan = CompiledBltl::compile(&cx, &states, &f);
    let env = vec![0.0; cx.num_vars()];
    let mut s = MonitorScratch::new();

    // A fixed synthetic trajectory (same shape every cycle, like the
    // identical traces a Point-distribution SMC sampler produces).
    let sample = |j: usize| {
        let t = j as f64 * 0.25;
        [(t * 1.3).sin() + 1.2, (t * 0.7).cos() * 2.5]
    };
    let run = |s: &mut MonitorScratch| {
        plan.begin(s, &env);
        for j in 0..40 {
            let st = sample(j);
            if plan.feed(s, j as f64 * 0.25, &st).decided() {
                break;
            }
        }
        let sat = plan.finish_bool(s);
        let rob = plan.finish_robustness(s);
        (sat, rob)
    };

    // Warm-up: reach every buffer's high-water mark.
    let want = run(&mut s);
    assert_eq!(want, run(&mut s), "monitoring must be deterministic");

    // Steady state: whole monitoring cycles without touching the heap.
    let got = assert_allocation_free("streaming monitoring", || {
        let mut last = (false, 0.0);
        for _ in 0..20 {
            last = run(&mut s);
        }
        last
    });
    assert_eq!(got, want, "steady-state cycles must reproduce the verdict");
    assert!(got.1.is_finite());

    // Lane feed: the cycle of `run` in four lanes begun at different
    // sweeps, one of them sitting out every third sweep, with and
    // without robustness.
    const K: usize = 4;
    let lanes = |s: &mut MonitorScratch, robustness: bool| {
        let mut fed = [0usize; K];
        let mut out = [None; K];
        for sweep in 0..80 {
            let mut mask = [false; K];
            let mut t = [0.0; K];
            let mut y = [[0.0; K]; 2];
            for l in 0..K {
                if sweep == l {
                    plan.begin_lane::<K>(s, l, &env, robustness);
                }
                if sweep >= l && out[l].is_none() && !(l == 1 && sweep % 3 == 0) {
                    mask[l] = true;
                    t[l] = fed[l] as f64 * 0.25;
                    [y[0][l], y[1][l]] = sample(fed[l]);
                }
            }
            let v: [Verdict; K] = plan.feed_lanes(s, &mask, &t, &y);
            for l in (0..K).filter(|&l| mask[l]) {
                fed[l] += 1;
                if v[l].decided() || fed[l] == 40 {
                    let sat = plan.finish_bool_lane(s, l);
                    out[l] = Some((sat, robustness.then(|| plan.finish_robustness_lane(s, l))));
                }
            }
        }
        out
    };
    let mut ls = MonitorScratch::new();
    let full = lanes(&mut ls, true);
    let boolean = lanes(&mut ls, false);
    for (f, b) in full.iter().zip(&boolean) {
        assert_eq!(
            *f,
            Some((want.0, Some(want.1))),
            "every lane monitors one trace"
        );
        assert_eq!(
            *b,
            Some((want.0, None)),
            "a Boolean-only lane decides alike"
        );
    }
    assert_allocation_free("the lane feed", || {
        for _ in 0..5 {
            assert_eq!(lanes(&mut ls, true), full);
            assert_eq!(lanes(&mut ls, false), boolean);
        }
    });
}
