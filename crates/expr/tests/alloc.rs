//! Verifies the acceptance criterion of the scratch API: after warm-up,
//! `eval_with` / `eval_interval_with` / `Program::eval_with` and the
//! 8-lane `Program::eval_lanes` sweep perform zero heap allocations per
//! call.
//!
//! This binary holds exactly one test so the global allocation counter is
//! not disturbed by concurrently running tests.

use biocheck_expr::{Context, EvalScratch, Program};
use biocheck_interval::{IBox, Interval};
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
fn scratch_eval_paths_do_not_allocate() {
    let mut cx = Context::new();
    let f = cx
        .parse("exp(x) * sin(y) + x^3 / (1 + y^2) - tanh(x*y)")
        .unwrap();
    let g = cx
        .parse("max(x, y) * min(x - y, 2) + sqrt(abs(x))")
        .unwrap();
    let prog = Program::compile(&cx, &[f, g]);
    let env = [0.7, -0.3];
    let bx = IBox::new(vec![Interval::new(0.5, 0.9), Interval::new(-0.5, -0.1)]);

    let lane_env: Vec<[f64; 8]> = (0..2)
        .map(|v| std::array::from_fn(|l| env[v] + 0.01 * l as f64))
        .collect();

    let mut scratch = EvalScratch::new();
    let mut out = [0.0; 2];
    let mut iout = [Interval::ZERO; 2];
    let mut lane_out = [[0.0; 8]; 2];

    // Warm-up: lets every buffer reach its high-water mark.
    let _ = cx.eval_with(f, &env, &mut scratch);
    cx.eval_many_with(&[f, g], &env, &mut scratch, &mut out);
    let _ = cx.eval_interval_with(f, &bx, &mut scratch);
    prog.eval_with(&env, &mut scratch, &mut out);
    prog.eval_interval_with(&bx, &mut scratch, &mut iout);
    prog.eval_lanes(&lane_env, &mut scratch, &mut lane_out);

    // Steady state: zero allocations over many calls.
    let sum = assert_allocation_free("scratch evaluation", || {
        let mut acc = 0.0;
        for _ in 0..100 {
            acc += cx.eval_with(f, &env, &mut scratch);
            cx.eval_many_with(&[f, g], &env, &mut scratch, &mut out);
            acc += out[1];
            acc += cx.eval_interval_with(g, &bx, &mut scratch).lo();
            prog.eval_with(&env, &mut scratch, &mut out);
            acc += out[0];
            prog.eval_interval_with(&bx, &mut scratch, &mut iout);
            acc += iout[1].hi();
            prog.eval_lanes(&lane_env, &mut scratch, &mut lane_out);
            acc += lane_out[0][7];
        }
        acc
    });
    assert!(sum.is_finite());
}
