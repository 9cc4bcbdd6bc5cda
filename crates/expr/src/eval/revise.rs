//! HC4-revise over a compiled [`Program`] tape. The forward sweep is
//! [`Program::eval_interval_with`]; the backward sweep here projects each
//! instruction's narrowed value onto its operands (the inverse image of
//! the operation), from the root down over the same slots.

use super::{EvalScratch, Instr, Program};
use crate::context::{BinOp, Context, NodeId, UnaryOp, VarId};
use biocheck_interval::Interval;

impl Program {
    /// Compiles the term `root` as an HC4-revise tape: [`Program::compile`]
    /// without pair fusion, so every operation keeps its own slot and the
    /// backward sweep projects the term DAG's nodes in its topological
    /// order.
    pub fn compile_revise(cx: &Context, root: NodeId) -> Program {
        Program::compile_with(cx, &[root], false)
    }

    /// HC4-revise's backward sweep. Call it right after
    /// [`Program::eval_interval_with`] on the same `scratch`, with the
    /// root's enclosure narrowed to the admissible set: the sweep sets the
    /// root slot to `root` and narrows every operand from its consumers'
    /// narrowed values. Returns `false` when some slot becomes empty (no
    /// point of the box satisfies the constraint); otherwise
    /// [`Program::var_enclosures`] reads the narrowed variables.
    ///
    /// # Panics
    ///
    /// Panics on a program with more than one root or with fused pairs;
    /// [`Program::compile_revise`] builds neither.
    pub fn revise_with(&self, root: Interval, scratch: &mut EvalScratch) -> bool {
        assert_eq!(self.roots.len(), 1, "a revise tape has one root");
        let vals = scratch.interval_buf(self.instrs.len());
        vals[self.roots[0] as usize] = root;
        for i in (0..self.instrs.len()).rev() {
            let r = vals[i];
            if r.is_empty() {
                return false;
            }
            let live = match self.instrs[i] {
                Instr::Const(..) | Instr::Var(_) => true,
                Instr::Unary(op, a) => narrow(vals, a, backward_unary(op, vals[a as usize], r)),
                Instr::PowI(a, k) => narrow(vals, a, backward_powi(vals[a as usize], r, k)),
                Instr::Binary(op, a, b) => {
                    let (na, nb) = backward_binary(op, vals[a as usize], vals[b as usize], r);
                    narrow(vals, a, na) && narrow(vals, b, nb)
                }
                Instr::Fused { .. } => panic!("revise tapes are compiled without pair fusion"),
            };
            if !live {
                return false;
            }
        }
        true
    }

    /// Each variable the program reads with its slot's current enclosure,
    /// in slot order: after [`Program::revise_with`], the narrowed
    /// variables.
    pub fn var_enclosures<'a>(
        &'a self,
        scratch: &'a EvalScratch,
    ) -> impl Iterator<Item = (VarId, Interval)> + 'a {
        self.instrs
            .iter()
            .zip(&scratch.ivals)
            .filter_map(|(ins, &iv)| match *ins {
                Instr::Var(v) => Some((VarId::from_index(v as usize), iv)),
                _ => None,
            })
    }
}

/// Intersects slot `slot` with `by`; `false` when that empties it.
fn narrow(vals: &mut [Interval], slot: u32, by: Interval) -> bool {
    let v = vals[slot as usize].intersect(&by);
    vals[slot as usize] = v;
    !v.is_empty()
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
