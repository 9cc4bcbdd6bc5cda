//! Verifies the streaming-monitor acceptance criterion: after warm-up,
//! a whole begin/feed*/finish monitoring cycle through a reused
//! [`MonitorScratch`] performs zero heap allocations (the sibling of
//! `crates/expr/tests/alloc.rs` and `crates/icp/tests/alloc.rs`), and so
//! do lane-feed cycles over several lanes, with and without robustness,
//! on the arena evaluator (a nested formula) and on the flat one (a
//! depth-one formula at 16 lanes).
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

/// A fixed synthetic trajectory (same shape every cycle, like the
/// identical traces a Point-distribution SMC sampler produces).
fn sample(j: usize) -> [f64; 2] {
    let t = j as f64 * 0.25;
    [(t * 1.3).sin() + 1.2, (t * 0.7).cos() * 2.5]
}

/// The monitoring cycle of one trace of [`sample`] through the one-trace
/// entry points: it stops at the decision or after 40 samples.
fn cycle(plan: &CompiledBltl, s: &mut MonitorScratch, env: &[f64]) -> (bool, f64) {
    plan.begin(s, env);
    for j in 0..40 {
        if plan.feed(s, j as f64 * 0.25, &sample(j)).decided() {
            break;
        }
    }
    (plan.finish_bool(s), plan.finish_robustness(s))
}

/// The monitoring cycle of one trace of [`sample`] in each of `K` lanes
/// begun at different sweeps, lane 1 sitting out every third sweep;
/// each lane stops at its decision or after 40 samples and reports its
/// Boolean verdict and, when kept, its robustness.
fn lane_cycle<const K: usize>(
    plan: &CompiledBltl,
    s: &mut MonitorScratch,
    env: &[f64],
    robustness: bool,
) -> [Option<(bool, Option<f64>)>; K] {
    let mut fed = [0usize; K];
    let mut out = [None; K];
    for sweep in 0..80 {
        let mut mask = [false; K];
        let mut t = [0.0; K];
        let mut y = [[0.0; K]; 2];
        for l in 0..K {
            if sweep == l {
                plan.begin_lane::<K>(s, l, env, robustness);
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
}

/// Checks that `plan`'s lane cycle at `K` lanes, with and without
/// robustness, reproduces `want` in every lane and allocates nothing
/// once warm.
fn lanes_do_not_allocate<const K: usize>(
    what: &str,
    plan: &CompiledBltl,
    env: &[f64],
    want: (bool, f64),
) {
    let mut ls = MonitorScratch::new();
    let full = lane_cycle::<K>(plan, &mut ls, env, true);
    let boolean = lane_cycle::<K>(plan, &mut ls, env, false);
    for (f, b) in full.iter().zip(&boolean) {
        assert_eq!(
            *f,
            Some((want.0, Some(want.1))),
            "{what}: every lane monitors one trace"
        );
        assert_eq!(
            *b,
            Some((want.0, None)),
            "{what}: a Boolean-only lane decides alike"
        );
    }
    assert_allocation_free(what, || {
        for _ in 0..5 {
            assert_eq!(lane_cycle::<K>(plan, &mut ls, env, true), full);
            assert_eq!(lane_cycle::<K>(plan, &mut ls, env, false), boolean);
        }
    });
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

    let run = |s: &mut MonitorScratch| cycle(&plan, s, &env);

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

    // Lane feed on the arena evaluator: the cycle of `run` in four
    // lanes.
    assert!(!plan.is_flat());
    lanes_do_not_allocate::<4>("the nested lane feed", &plan, &env, want);

    // Lane feed on the flat evaluator: a depth-one formula with two
    // `Until`s, an atom read at the first sample and a negated operand,
    // in 16 lanes.
    let flat = Bltl::And(vec![
        Bltl::globally(8.0, Bltl::Not(Box::new(p(&mut cx, "x - 2.5")))),
        Bltl::Until {
            lhs: Box::new(p(&mut cx, "y + 3")),
            rhs: Box::new(Bltl::Or(vec![p(&mut cx, "1 - y"), p(&mut cx, "x - 4")])),
            bound: 6.0,
        },
        p(&mut cx, "4 - x"),
    ]);
    let plan = CompiledBltl::compile(&cx, &states, &flat);
    assert!(plan.is_flat());
    let env = vec![0.0; cx.num_vars()];
    let want = cycle(&plan, &mut MonitorScratch::new(), &env);
    lanes_do_not_allocate::<16>("the flat lane feed", &plan, &env, want);
}
