//! Property tests for ICP soundness: contraction and branch-and-prune may
//! never lose a real solution, and `unsat` answers must survive dense
//! grid checking.

use biocheck_expr::{Atom, Context, RelOp};
use biocheck_icp::{BranchAndPrune, Contractor, Hc4};
use biocheck_interval::{IBox, Interval};
use proptest::prelude::*;

/// A random affine/quadratic atom over (x, y) guaranteed satisfiable at a
/// chosen anchor point.
#[derive(Clone, Debug)]
struct SatInstance {
    srcs: Vec<(String, RelOp)>,
    anchor: (f64, f64),
}

fn sat_instance() -> impl Strategy<Value = SatInstance> {
    (
        -1.0..1.0f64, // anchor x
        -1.0..1.0f64, // anchor y
        proptest::collection::vec(
            (
                -3.0..3.0f64,
                -3.0..3.0f64,
                0..4u8, // form selector
                prop_oneof![Just(RelOp::Ge), Just(RelOp::Le), Just(RelOp::Eq)],
            ),
            1..4,
        ),
    )
        .prop_map(|(px, py, specs)| {
            let mut srcs = Vec::new();
            for (a, b, form, op) in specs {
                // term(x, y) before offsetting
                let (term, val): (String, f64) = match form {
                    0 => (format!("{a}*x + {b}*y"), a * px + b * py),
                    1 => (format!("{a}*x^2 + {b}*y"), a * px * px + b * py),
                    2 => (format!("{a}*x*y + {b}*x"), a * px * py + b * px),
                    _ => (format!("{a}*sin(x) + {b}*y^2"), a * px.sin() + b * py * py),
                };
                // Shift so the anchor satisfies the relation with slack.
                let shifted = match op {
                    RelOp::Ge => format!("{term} - {}", val - 0.05),
                    RelOp::Le => format!("{term} - {}", val + 0.05),
                    _ => format!("{term} - {val}"),
                };
                srcs.push((shifted, op));
            }
            SatInstance {
                srcs,
                anchor: (px, py),
            }
        })
}

fn build(inst: &SatInstance) -> (Context, Vec<Atom>) {
    let mut cx = Context::new();
    cx.intern_var("x");
    cx.intern_var("y");
    let atoms = inst
        .srcs
        .iter()
        .map(|(s, op)| {
            let e = cx.parse(s).unwrap();
            Atom::new(e, *op)
        })
        .collect();
    (cx, atoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// If an instance is satisfiable at the anchor, the solver must not
    /// answer unsat (one side of δ-completeness).
    #[test]
    fn solver_never_refutes_satisfiable(inst in sat_instance()) {
        let (cx, atoms) = build(&inst);
        let init = IBox::uniform(2, Interval::new(-1.5, 1.5));
        let solver = BranchAndPrune::new(1e-2);
        let r = solver.solve(&cx, &atoms, &[], &init);
        prop_assert!(!r.is_unsat(), "anchor {:?} satisfies all atoms", inst.anchor);
    }

    /// HC4 contraction never removes a satisfying grid point.
    #[test]
    fn hc4_preserves_satisfying_points(inst in sat_instance()) {
        let (cx, atoms) = build(&inst);
        let init = IBox::uniform(2, Interval::new(-1.5, 1.5));
        let contracted = {
            let mut bx = init.clone();
            for &a in &atoms {
                if Hc4::new(&cx, a).contract(&mut bx) == biocheck_icp::Outcome::Empty {
                    // Empty means *no* point satisfies; verify on the grid.
                    for i in 0..=20 {
                        for j in 0..=20 {
                            let x = -1.5 + 3.0 * i as f64 / 20.0;
                            let y = -1.5 + 3.0 * j as f64 / 20.0;
                            let all = atoms.iter().all(|at| {
                                let v = cx.eval(at.expr, &[x, y]);
                                at.holds_at(v, 0.0)
                            });
                            prop_assert!(!all, "contractor emptied a sat box at ({x},{y})");
                        }
                    }
                    return Ok(());
                }
            }
            bx
        };
        // Satisfying grid points of the *conjunction* must survive.
        for i in 0..=20 {
            for j in 0..=20 {
                let x = -1.5 + 3.0 * i as f64 / 20.0;
                let y = -1.5 + 3.0 * j as f64 / 20.0;
                let all = atoms.iter().all(|at| {
                    let v = cx.eval(at.expr, &[x, y]);
                    at.holds_at(v, 0.0)
                });
                if all {
                    prop_assert!(
                        contracted.contains_point(&[x, y]),
                        "lost satisfying point ({x},{y})"
                    );
                }
            }
        }
    }

    /// Unsat answers are checked against a dense grid: no grid point may
    /// satisfy all original atoms.
    #[test]
    fn unsat_is_exact(
        a in -2.0..2.0f64,
        c in 1.5..3.0f64,
    ) {
        // x² + y² ≤ c is sat; combined with x + y ≥ a·10 it may be unsat.
        let mut cx = Context::new();
        let e1 = cx.parse(&format!("x^2 + y^2 - {c}")).unwrap();
        let e2 = cx.parse(&format!("x + y - {}", a * 10.0)).unwrap();
        let atoms = vec![Atom::new(e1, RelOp::Le), Atom::new(e2, RelOp::Ge)];
        let init = IBox::uniform(2, Interval::new(-2.0, 2.0));
        let r = BranchAndPrune::new(1e-3).solve(&cx, &atoms, &[], &init);
        if r.is_unsat() {
            for i in 0..=30 {
                for j in 0..=30 {
                    let x = -2.0 + 4.0 * i as f64 / 30.0;
                    let y = -2.0 + 4.0 * j as f64 / 30.0;
                    let ok = atoms.iter().all(|at| at.holds_at(cx.eval(at.expr, &[x, y]), 0.0));
                    prop_assert!(!ok, "unsat but ({x},{y}) satisfies");
                }
            }
        }
    }

    /// Paving inner boxes contain only satisfying points (sampled).
    #[test]
    fn paving_inner_boxes_are_sound(r_lo in 0.1..0.5f64, r_hi in 0.8..1.2f64) {
        let mut cx = Context::new();
        let lo = cx.parse(&format!("x^2 + y^2 - {r_lo}")).unwrap();
        let hi = cx.parse(&format!("x^2 + y^2 - {r_hi}")).unwrap();
        let atoms = vec![Atom::new(lo, RelOp::Ge), Atom::new(hi, RelOp::Le)];
        let mut solver = BranchAndPrune::new(0.05);
        solver.eps = 0.08;
        solver.max_splits = 20_000;
        let paving = solver.pave(&cx, &atoms, &IBox::uniform(2, Interval::new(-1.5, 1.5)));
        for b in paving.sat.iter().take(50) {
            for corner in [
                [b[0].lo(), b[1].lo()],
                [b[0].hi(), b[1].hi()],
                b.midpoint().try_into().unwrap(),
            ] {
                let r2 = corner[0] * corner[0] + corner[1] * corner[1];
                prop_assert!(r2 >= r_lo - 1e-9 && r2 <= r_hi + 1e-9,
                    "inner box corner {corner:?} outside ring [{r_lo},{r_hi}]");
            }
        }
    }

    /// Branch-and-prune paving is scheduling-independent: the sequential
    /// depth-first search and the batched parallel rounds classify the
    /// same boxes. The two visit boxes in different orders, so measures
    /// are summed over sorted widths before the bitwise comparison.
    #[test]
    fn pave_parallel_equals_sequential(r_lo in 0.1..0.5f64, r_hi in 0.8..1.2f64) {
        let mut cx = Context::new();
        let lo = cx.parse(&format!("x^2 + y^2 - {r_lo}")).unwrap();
        let hi = cx.parse(&format!("x^2 + y^2 - {r_hi}")).unwrap();
        let atoms = vec![Atom::new(lo, RelOp::Ge), Atom::new(hi, RelOp::Le)];
        let init = IBox::uniform(2, Interval::new(-1.5, 1.5));
        let mut solver = BranchAndPrune::new(0.02);
        solver.eps = 0.02;
        let measure = |boxes: &[IBox]| {
            let mut widths: Vec<f64> = boxes.iter().map(IBox::total_width).collect();
            widths.sort_by(f64::total_cmp);
            widths.iter().sum::<f64>()
        };
        let seq = solver.clone().sequential().pave(&cx, &atoms, &init);
        // A 2-D ring's depth-first frontier never reaches the default
        // threshold of 64 boxes, so also force batched rounds early.
        let mut batched = solver.clone();
        batched.parallel_threshold = 4;
        for par in [solver.pave(&cx, &atoms, &init), batched.pave(&cx, &atoms, &init)] {
            prop_assert_eq!(seq.sat.len(), par.sat.len());
            prop_assert_eq!(seq.undecided.len(), par.undecided.len());
            prop_assert_eq!(measure(&seq.sat).to_bits(), measure(&par.sat).to_bits());
            prop_assert_eq!(
                measure(&seq.undecided).to_bits(),
                measure(&par.undecided).to_bits()
            );
        }
    }
}
