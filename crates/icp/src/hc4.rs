//! The HC4-revise contractor: one forward interval-evaluation sweep over
//! the expression DAG, a clamp of the root to the relation's admissible
//! set, and one backward projection sweep narrowing the variables.

use crate::contract::{Contractor, Outcome};
use biocheck_expr::{
    eval_binary_interval, eval_unary_interval, Atom, BinOp, Context, EvalScratch, Node, NodeId,
    UnaryOp, VarId,
};
use biocheck_interval::{IBox, Interval};

/// HC4-revise for a single atomic constraint `t ⋈ 0`.
///
/// The contractor is compiled once from the shared [`Context`]: the
/// reachable sub-DAG of the atom's term is copied with dense slot indices,
/// so contraction itself never touches the context again.
///
/// Pruning uses the relation's exact admissible set (δ = 0), which is the
/// sound choice inside branch-and-prune: the solver prunes with the
/// original constraints and lets δ enter only its termination test.
#[derive(Clone, Debug)]
pub struct Hc4 {
    nodes: Vec<Node>,
    root: usize,
    /// slot → variable it loads (for writeback).
    var_slots: Vec<(usize, VarId)>,
    projection: Interval,
    label: String,
}

impl Hc4 {
    /// Compiles a contractor for `atom` with exact pruning (δ = 0).
    pub fn new(cx: &Context, atom: Atom) -> Hc4 {
        // Reachability over the context arena.
        let mut reach = vec![false; atom.expr.index() + 1];
        let mut stack = vec![atom.expr];
        while let Some(id) = stack.pop() {
            if reach[id.index()] {
                continue;
            }
            reach[id.index()] = true;
            match *cx.node(id) {
                Node::Unary(_, a) | Node::PowI(a, _) => stack.push(a),
                Node::Binary(_, a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                _ => {}
            }
        }
        let mut slot = vec![usize::MAX; atom.expr.index() + 1];
        let mut nodes = Vec::new();
        let mut var_slots = Vec::new();
        for i in 0..=atom.expr.index() {
            if !reach[i] {
                continue;
            }
            let remap = |c: NodeId| NodeId::from_raw(slot[c.index()] as u32);
            let node = match *cx.node(NodeId::from_raw(i as u32)) {
                Node::Unary(op, a) => Node::Unary(op, remap(a)),
                Node::Binary(op, a, b) => Node::Binary(op, remap(a), remap(b)),
                Node::PowI(a, k) => Node::PowI(remap(a), k),
                leaf => leaf,
            };
            if let Node::Var(v) = node {
                var_slots.push((nodes.len(), v));
            }
            slot[i] = nodes.len();
            nodes.push(node);
        }
        Hc4 {
            root: slot[atom.expr.index()],
            nodes,
            var_slots,
            projection: atom.projection(0.0),
            label: atom.display(cx),
        }
    }

    /// Forward sweep: interval-evaluate every slot.
    fn forward(&self, bx: &IBox, vals: &mut [Interval]) {
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match *node {
                Node::Const(c) => Interval::point(c),
                Node::Var(v) => bx[v.index()],
                Node::Unary(op, a) => eval_unary_interval(op, vals[a.index()]),
                Node::Binary(op, a, b) => {
                    eval_binary_interval(op, vals[a.index()], vals[b.index()])
                }
                Node::PowI(a, k) => vals[a.index()].powi(k),
            };
        }
    }

    /// Backward sweep: narrow children from the refined parent values.
    /// Returns `false` when some slot becomes empty (box infeasible).
    fn backward(&self, vals: &mut [Interval]) -> bool {
        for i in (0..self.nodes.len()).rev() {
            let r = vals[i];
            if r.is_empty() {
                return false;
            }
            match self.nodes[i] {
                Node::Const(_) | Node::Var(_) => {}
                Node::Unary(op, a) => {
                    let ai = a.index();
                    let na = backward_unary(op, vals[ai], r);
                    vals[ai] = vals[ai].intersect(&na);
                    if vals[ai].is_empty() {
                        return false;
                    }
                }
                Node::PowI(a, k) => {
                    let ai = a.index();
                    let na = backward_powi(vals[ai], r, k);
                    vals[ai] = vals[ai].intersect(&na);
                    if vals[ai].is_empty() {
                        return false;
                    }
                }
                Node::Binary(op, a, b) => {
                    let (ai, bi) = (a.index(), b.index());
                    let (na, nb) = backward_binary(op, vals[ai], vals[bi], r);
                    vals[ai] = vals[ai].intersect(&na);
                    if vals[ai].is_empty() {
                        return false;
                    }
                    vals[bi] = vals[bi].intersect(&nb);
                    if vals[bi].is_empty() {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl Contractor for Hc4 {
    fn contract(&self, bx: &mut IBox) -> Outcome {
        self.contract_with(bx, &mut EvalScratch::new())
    }

    fn contract_with(&self, bx: &mut IBox, scratch: &mut EvalScratch) -> Outcome {
        let vals = scratch.interval_buf(self.nodes.len());
        self.forward(bx, vals);
        let clamped = vals[self.root].intersect(&self.projection);
        if clamped.is_empty() {
            return Outcome::Empty;
        }
        vals[self.root] = clamped;
        if !self.backward(vals) {
            return Outcome::Empty;
        }
        let mut changed = false;
        for &(slot, v) in &self.var_slots {
            let narrowed = bx[v.index()].intersect(&vals[slot]);
            if narrowed.is_empty() {
                return Outcome::Empty;
            }
            if narrowed != bx[v.index()] {
                bx[v.index()] = narrowed;
                changed = true;
            }
        }
        if changed {
            Outcome::Reduced
        } else {
            Outcome::Unchanged
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Inverse image of `op` given child enclosure `a` and parent target `r`.
fn backward_unary(op: UnaryOp, a: Interval, r: Interval) -> Interval {
    use std::f64::consts::{FRAC_PI_2, PI};
    match op {
        UnaryOp::Neg => -r,
        UnaryOp::Abs => mirror_nonneg(r),
        UnaryOp::Sqrt => r.intersect(&Interval::new(0.0, f64::INFINITY)).sqr(),
        UnaryOp::Exp => r.ln(),
        UnaryOp::Ln => r.exp(),
        // Trig inversions: only prune when the child already lies in a
        // monotone window; otherwise return ENTIRE (no pruning, sound).
        UnaryOp::Sin => {
            if a.lo() >= -FRAC_PI_2 && a.hi() <= FRAC_PI_2 {
                r.asin()
            } else {
                Interval::ENTIRE
            }
        }
        UnaryOp::Cos => {
            if a.lo() >= 0.0 && a.hi() <= PI {
                r.acos()
            } else {
                Interval::ENTIRE
            }
        }
        UnaryOp::Tan => {
            if a.lo() > -FRAC_PI_2 && a.hi() < FRAC_PI_2 {
                r.atan()
            } else {
                Interval::ENTIRE
            }
        }
        UnaryOp::Asin => r.intersect(&Interval::new(-FRAC_PI_2, FRAC_PI_2)).sin(),
        UnaryOp::Acos => r.intersect(&Interval::new(0.0, PI)).cos(),
        UnaryOp::Atan => {
            let rr = r.intersect(&Interval::new(-FRAC_PI_2, FRAC_PI_2));
            rr.tan()
        }
        // asinh(r) = ln(r + sqrt(r² + 1)) — sound by composition.
        UnaryOp::Sinh => (r + (r.sqr() + Interval::ONE).sqrt()).ln(),
        // cosh(a) = r ⇒ |a| = acosh(r), r ≥ 1.
        UnaryOp::Cosh => {
            let rr = r.intersect(&Interval::new(1.0, f64::INFINITY));
            if rr.is_empty() {
                return Interval::EMPTY;
            }
            let acosh = (rr + (rr.sqr() - Interval::ONE).sqrt()).ln();
            mirror_nonneg(acosh)
        }
        // atanh(r) = ln((1+r)/(1-r)) / 2.
        UnaryOp::Tanh => {
            let rr = r.intersect(&Interval::new(-1.0, 1.0));
            if rr.is_empty() {
                return Interval::EMPTY;
            }
            ((Interval::ONE + rr) / (Interval::ONE - rr)).ln() * Interval::point(0.5)
        }
    }
}

/// Solutions of `|x| ∈ s⁺` where `s⁺ = s ∩ [0,∞)`: the union `-s⁺ ∪ s⁺`
/// (returned as its hull, which is sound).
fn mirror_nonneg(s: Interval) -> Interval {
    let sp = s.intersect(&Interval::new(0.0, f64::INFINITY));
    if sp.is_empty() {
        return Interval::EMPTY;
    }
    (-sp).hull(&sp)
}

/// Inverse image of `xᵏ = r` intersected against the child's sign info.
fn backward_powi(a: Interval, r: Interval, k: i32) -> Interval {
    if k == 0 {
        // x⁰ = 1: no info about x (if r excludes 1 forward pass already failed).
        return Interval::ENTIRE;
    }
    if k < 0 {
        // x⁻ᵏ = r ⇒ xᵏ = 1/r.
        return backward_powi(a, r.recip(), -k);
    }
    if k % 2 == 1 {
        // Odd: monotone bijection, invert sign-wise.
        let pos = nth_root(r.intersect(&Interval::new(0.0, f64::INFINITY)), k);
        let negpart = r.intersect(&Interval::new(f64::NEG_INFINITY, 0.0));
        let neg = -nth_root(-negpart, k);
        neg.hull(&pos)
    } else {
        // Even: |x| = r^(1/k).
        let s = nth_root(r.intersect(&Interval::new(0.0, f64::INFINITY)), k);
        if s.is_empty() {
            return Interval::EMPTY;
        }
        // Keep only the sign branch(es) compatible with the child.
        if a.lo() >= 0.0 {
            s
        } else if a.hi() <= 0.0 {
            -s
        } else {
            (-s).hull(&s)
        }
    }
}

/// `r^(1/k)` for `r ⊆ [0, ∞)`, outward rounded.
fn nth_root(r: Interval, k: i32) -> Interval {
    if r.is_empty() {
        return Interval::EMPTY;
    }
    debug_assert!(r.lo() >= 0.0);
    if k == 2 {
        return r.sqrt();
    }
    let e = Interval::ONE / Interval::point(k as f64);
    // powf handles 0 via ln → -inf soundly.
    r.powf(&e)
}

/// Inverse images of the binary ops: given `a ⋄ b = r`, new enclosures for
/// `(a, b)`.
fn backward_binary(op: BinOp, a: Interval, b: Interval, r: Interval) -> (Interval, Interval) {
    match op {
        BinOp::Add => (r - b, r - a),
        BinOp::Sub => (r + b, a - r),
        BinOp::Mul => (r / b, r / a),
        BinOp::Div => (r * b, a / r),
        BinOp::Pow => {
            // a^b = r, a > 0: a = r^(1/b), b = ln r / ln a.
            let inv_b = Interval::ONE / b;
            let na = if b.contains(0.0) {
                Interval::ENTIRE
            } else {
                r.powf(&inv_b)
            };
            let nb = r.ln() / a.ln();
            (na, nb)
        }
        BinOp::Min => {
            // min(a,b) = r: both ≥ r.lo; if the other side is forced above
            // r.hi, this side must carry the minimum.
            let low = Interval::new(r.lo(), f64::INFINITY);
            let mut na = low;
            let mut nb = low;
            if b.lo() > r.hi() {
                na = na.intersect(&r);
            }
            if a.lo() > r.hi() {
                nb = nb.intersect(&r);
            }
            (na, nb)
        }
        BinOp::Max => {
            let high = Interval::new(f64::NEG_INFINITY, r.hi());
            let mut na = high;
            let mut nb = high;
            if b.hi() < r.lo() {
                na = na.intersect(&r);
            }
            if a.hi() < r.lo() {
                nb = nb.intersect(&r);
            }
            (na, nb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biocheck_expr::RelOp;

    fn contract_once(src: &str, op: RelOp, dims: Vec<Interval>) -> (Outcome, IBox) {
        let mut cx = Context::new();
        let e = cx.parse(src).unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(e, op));
        let mut bx = IBox::new(dims);
        let out = hc4.contract(&mut bx);
        (out, bx)
    }

    #[test]
    fn linear_equality_pins_variable() {
        // x - 3 = 0 on x ∈ [0, 10] → x ∈ [3, 3] (up to rounding).
        let (out, bx) = contract_once("x - 3", RelOp::Eq, vec![Interval::new(0.0, 10.0)]);
        assert_eq!(out, Outcome::Reduced);
        assert!(bx[0].contains(3.0));
        assert!(bx[0].width() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x + 5 ≤ 0 on x ∈ [0, 1] is impossible.
        let (out, _) = contract_once("x + 5", RelOp::Le, vec![Interval::new(0.0, 1.0)]);
        assert_eq!(out, Outcome::Empty);
    }

    #[test]
    fn inequality_trims_half() {
        // x ≥ 0 on [-2, 2] → [0, 2].
        let (out, bx) = contract_once("x", RelOp::Ge, vec![Interval::new(-2.0, 2.0)]);
        assert_eq!(out, Outcome::Reduced);
        assert_eq!(bx[0].lo(), 0.0);
        assert_eq!(bx[0].hi(), 2.0);
    }

    #[test]
    fn two_variable_propagation() {
        // x + y = 0, x ∈ [1, 2] ⇒ y ∈ [-2, -1].
        let (out, bx) = contract_once(
            "x + y",
            RelOp::Eq,
            vec![Interval::new(1.0, 2.0), Interval::new(-10.0, 10.0)],
        );
        assert_eq!(out, Outcome::Reduced);
        assert!(bx[1].lo() <= -2.0 + 1e-9 && bx[1].hi() >= -1.0 - 1e-9);
        assert!(bx[1].width() < 1.0 + 1e-6);
    }

    #[test]
    fn square_backward_respects_sign() {
        // x² = 4 with x ∈ [0, 10] → x ≈ [2, 2].
        let (_, bx) = contract_once("x^2 - 4", RelOp::Eq, vec![Interval::new(0.0, 10.0)]);
        assert!(bx[0].contains(2.0) && bx[0].width() < 1e-6);
        // x² = 4 with x ∈ [-10, 0] → x ≈ -2.
        let (_, bx) = contract_once("x^2 - 4", RelOp::Eq, vec![Interval::new(-10.0, 0.0)]);
        assert!(bx[0].contains(-2.0) && bx[0].width() < 1e-6);
        // Straddling: hull of both roots.
        let (_, bx) = contract_once("x^2 - 4", RelOp::Eq, vec![Interval::new(-10.0, 10.0)]);
        assert!(bx[0].contains(-2.0) && bx[0].contains(2.0));
        assert!(bx[0].width() < 4.0 + 1e-6);
    }

    #[test]
    fn exp_backward() {
        // exp(x) = e² ⇒ x ≈ 2.
        let e2 = std::f64::consts::E.powi(2);
        let src = format!("exp(x) - {e2}");
        let mut cx = Context::new();
        let ex = cx.parse(&src).unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(ex, RelOp::Eq));
        let mut bx = IBox::new(vec![Interval::new(-50.0, 50.0)]);
        assert_ne!(hc4.contract(&mut bx), Outcome::Empty);
        assert!(bx[0].contains(2.0));
        assert!(bx[0].width() < 1e-6);
    }

    #[test]
    fn division_backward() {
        // x / y = 2 with x ∈ [4, 4], y ∈ [0.1, 10] ⇒ y ≈ 2.
        let (_, bx) = contract_once(
            "x / y - 2",
            RelOp::Eq,
            vec![Interval::point(4.0), Interval::new(0.1, 10.0)],
        );
        assert!(bx[1].contains(2.0));
        assert!(bx[1].width() < 1e-6);
    }

    #[test]
    fn contraction_never_loses_solutions() {
        // For x in a grid satisfying the constraint, contraction keeps x.
        let mut cx = Context::new();
        let e = cx.parse("sin(x) - 0.5").unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(e, RelOp::Ge));
        let init = Interval::new(-1.5, 1.5);
        let mut bx = IBox::new(vec![init]);
        hc4.contract(&mut bx);
        for k in 0..=100 {
            let x = init.lo() + init.width() * k as f64 / 100.0;
            if x.sin() - 0.5 >= 0.0 {
                assert!(bx[0].contains(x), "lost solution {x}");
            }
        }
    }

    #[test]
    fn min_max_backward() {
        // max(x, 0) = 0 with x ∈ [-3, 5] ⇒ x ≤ 0.
        let (_, bx) = contract_once("max(x, 0)", RelOp::Eq, vec![Interval::new(-3.0, 5.0)]);
        assert!(bx[0].hi() <= 1e-12);
        assert!(bx[0].lo() <= -3.0 + 1e-12);
        // min(x, 10) ≥ 2 ⇒ x ≥ 2.
        let (_, bx) = contract_once("min(x, 10) - 2", RelOp::Ge, vec![Interval::new(-3.0, 5.0)]);
        assert!(bx[0].lo() >= 2.0 - 1e-9);
    }

    #[test]
    fn shared_subterm_dag() {
        // (x+1)² + (x+1) = 6 has root x+1 = 2 ⇒ x = 1 (and x+1 = -3 ⇒ x = -4).
        let (_, bx) = contract_once(
            "(x+1)^2 + (x+1) - 6",
            RelOp::Eq,
            vec![Interval::new(0.0, 10.0)],
        );
        assert!(bx[0].contains(1.0));
        assert!(bx[0].width() < 2.0, "{:?}", bx[0]);
    }

    #[test]
    fn delta_relaxed_projection_prunes_less() {
        // The δ-weakening of x ≥ 0 (Definition 4) is x ≥ −δ, i.e. the
        // atom x + δ ≥ 0: with δ = 0.5 it keeps [−0.5, 0) that the exact
        // atom prunes.
        let mut cx = Context::new();
        let e = cx.parse("x").unwrap();
        let weakened = cx.parse("x + 0.5").unwrap();
        let exact = Hc4::new(&cx, Atom::new(e, RelOp::Ge));
        let relaxed = Hc4::new(&cx, Atom::new(weakened, RelOp::Ge));
        let mut b1 = IBox::new(vec![Interval::new(-2.0, 2.0)]);
        let mut b2 = b1.clone();
        exact.contract(&mut b1);
        relaxed.contract(&mut b2);
        assert_eq!(b1[0].lo(), 0.0);
        // Outward rounding of the backward subtraction may keep one ulp
        // more, never less.
        assert!(b2[0].lo() <= -0.5 && b2[0].lo() > -0.5 - 1e-12, "{b2:?}");
    }

    #[test]
    fn name_mentions_constraint() {
        let mut cx = Context::new();
        let e = cx.parse("x - 1").unwrap();
        let hc4 = Hc4::new(&cx, Atom::new(e, RelOp::Gt));
        assert!(hc4.name().contains('x'));
        assert!(hc4.name().contains('>'));
    }
}
