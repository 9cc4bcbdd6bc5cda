//! Verifies the scratch ports of the contractors: after warm-up,
//! `Newton::contract_with` and `Hc4::contract_with` perform zero heap
//! allocations per call (the sibling of `crates/expr/tests/alloc.rs`,
//! which covers the raw evaluation paths).
//!
//! The tests take one lock, so the global allocation counter is never
//! disturbed by a concurrently running test.

use biocheck_expr::{Atom, Context, EvalScratch, RelOp};
use biocheck_icp::{Contractor, Hc4, Newton, Outcome};
use biocheck_interval::{IBox, Interval};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Serializes the tests of this binary.
static SERIAL: Mutex<()> = Mutex::new(());

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
fn newton_contract_with_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A 2×2 system with a root in the box: x² + y² = 1, x = y.
    let mut cx = Context::new();
    let f1 = cx.parse("x^2 + y^2 - 1").unwrap();
    let f2 = cx.parse("x - y").unwrap();
    let x = cx.var_id("x").unwrap();
    let y = cx.var_id("y").unwrap();
    let newton = Newton::new(&mut cx, &[f1, f2], &[x, y]);
    let mut scratch = EvalScratch::new();

    let wide = IBox::new(vec![Interval::new(0.5, 1.0), Interval::new(0.5, 1.0)]);

    // Warm-up: one full contraction sequence grows every buffer to its
    // high-water mark.
    let mut bx = wide.clone();
    for _ in 0..4 {
        newton.contract_with(&mut bx, &mut scratch);
    }

    // Steady state: zero allocations over many contractions, including
    // restarting from a wide box (same dimensions, new values).
    let last = assert_allocation_free("Newton contraction", || {
        let mut out = Outcome::Unchanged;
        for _ in 0..50 {
            bx.dims_mut().copy_from_slice(wide.dims());
            for _ in 0..6 {
                out = newton.contract_with(&mut bx, &mut scratch);
            }
        }
        out
    });
    // The contraction still does its job…
    let c = 1.0 / 2.0f64.sqrt();
    assert!(bx[0].contains(c) && bx[1].contains(c));
    assert!(bx[0].width() < 1e-8, "Newton stopped converging");
    assert_ne!(last, Outcome::Empty);
}

#[test]
fn hc4_contract_with_does_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every operator family on one tape: a unary function, a shared
    // subterm under an integer power, and a binary max.
    let mut cx = Context::new();
    let e = cx.parse("sqrt(x) + (x*y)^2 + max(x*y, 0) - 1").unwrap();
    let hc4 = Hc4::new(&cx, Atom::new(e, RelOp::Eq));
    let mut scratch = EvalScratch::new();
    let wide = IBox::new(vec![Interval::new(0.0, 4.0), Interval::new(0.0, 1.0)]);

    let mut bx = wide.clone();
    hc4.contract_with(&mut bx, &mut scratch);

    let last = assert_allocation_free("HC4 contraction", || {
        let mut out = Outcome::Unchanged;
        for _ in 0..50 {
            bx.dims_mut().copy_from_slice(wide.dims());
            for _ in 0..6 {
                out = hc4.contract_with(&mut bx, &mut scratch);
            }
        }
        out
    });
    // The contraction still does its job: sqrt(x) ≤ 1 cuts x to [0, 1],
    // keeping the solution (1, 0).
    assert_ne!(last, Outcome::Empty);
    assert!(bx.contains_point(&[1.0, 0.0]), "{bx:?}");
    assert!(bx[0].hi() < 1.0 + 1e-9, "{bx:?}");
}
