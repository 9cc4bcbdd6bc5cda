//! A Krawczyk-style interval Newton contractor for square systems of
//! equalities, plus the small dense linear algebra it needs.

use crate::contract::{Contractor, Outcome};
use biocheck_expr::{Context, EvalScratch, NodeId, Program, VarId};
use biocheck_interval::{IBox, Interval};

/// Interval Newton (Krawczyk operator) for `f(x) = 0`, `f : ℝⁿ → ℝⁿ`.
///
/// Given a box `X` with midpoint `m`, the Krawczyk operator is
///
/// ```text
/// K(X) = m − Y·f(m) + (I − Y·J(X))·(X − m)
/// ```
///
/// where `J` is the interval Jacobian and `Y ≈ J(m)⁻¹`. Every zero of `f`
/// in `X` lies in `K(X) ∩ X`, so intersecting is a sound contraction; an
/// empty intersection proves there is no zero.
///
/// The quadratic convergence near simple roots makes this dramatically
/// faster than HC4+bisection on equality systems — it is benchmarked as an
/// ablation in experiment E8.
#[derive(Clone, Debug)]
pub struct Newton {
    f: Program,
    jac: Program,
    vars: Vec<VarId>,
    n: usize,
}

impl Newton {
    /// Builds the contractor for the system `eqs = 0` over `vars`.
    ///
    /// # Panics
    ///
    /// Panics unless `eqs.len() == vars.len()` (the system must be square)
    /// or if an equation is not differentiable.
    pub fn new(cx: &mut Context, eqs: &[NodeId], vars: &[VarId]) -> Newton {
        assert_eq!(
            eqs.len(),
            vars.len(),
            "interval Newton needs a square system"
        );
        let n = eqs.len();
        let mut jac_entries = Vec::with_capacity(n * n);
        for &e in eqs {
            for &v in vars {
                jac_entries.push(cx.diff(e, v));
            }
        }
        Newton {
            f: Program::compile(cx, eqs),
            jac: Program::compile(cx, &jac_entries),
            vars: vars.to_vec(),
            n,
        }
    }
}

impl Contractor for Newton {
    fn contract(&self, bx: &mut IBox) -> Outcome {
        self.contract_with(bx, &mut EvalScratch::new())
    }

    /// Allocation-free after warm-up: every buffer (midpoints, interval
    /// Jacobian, inverse, Krawczyk image, midpoint environment) lives in
    /// the scratch's leased [`biocheck_expr::AuxBuffers`] bundle.
    fn contract_with(&self, bx: &mut IBox, scratch: &mut EvalScratch) -> Outcome {
        let mut aux = scratch.take_aux();
        let outcome = self.contract_impl(bx, scratch, &mut aux);
        scratch.restore_aux(aux);
        outcome
    }
}

impl Newton {
    fn contract_impl(
        &self,
        bx: &mut IBox,
        scratch: &mut EvalScratch,
        aux: &mut biocheck_expr::AuxBuffers,
    ) -> Outcome {
        let n = self.n;
        // X restricted to our variables; skip degenerate/unbounded boxes.
        aux.intervals_a.clear();
        aux.intervals_a
            .extend(self.vars.iter().map(|v| bx[v.index()]));
        let x = &aux.intervals_a[..n];
        if x.iter().any(|iv| !iv.is_bounded()) {
            return Outcome::Unchanged;
        }
        aux.f64_c.clear();
        aux.f64_c.extend(x.iter().map(Interval::mid));
        let m = &aux.f64_c[..n];

        // f(m), evaluated in interval arithmetic at the point m for soundness.
        if aux.env.len() == bx.len() {
            aux.env.dims_mut().copy_from_slice(bx.dims());
        } else {
            aux.env = bx.clone();
        }
        for (&v, &mi) in self.vars.iter().zip(m) {
            aux.env[v.index()] = Interval::point(mi);
        }
        aux.intervals_b.resize(n, Interval::ZERO);
        self.f
            .eval_interval_with(&aux.env, scratch, &mut aux.intervals_b[..n]);
        let fm = &aux.intervals_b[..n];

        // Interval Jacobian over X.
        aux.intervals_c.resize(n * n, Interval::ZERO);
        self.jac
            .eval_interval_with(bx, scratch, &mut aux.intervals_c[..n * n]);
        let jx = &aux.intervals_c[..n * n];
        if jx.iter().any(Interval::is_empty) || fm.iter().any(Interval::is_empty) {
            return Outcome::Unchanged; // domain violation: let HC4 handle it
        }

        // Y = midpoint-Jacobian inverse (plain f64), computed in place.
        aux.f64_a.clear();
        aux.f64_a.extend(jx.iter().map(Interval::mid));
        aux.f64_b.resize(n * n, 0.0);
        if !invert_into(&mut aux.f64_a[..n * n], &mut aux.f64_b[..n * n], n) {
            return Outcome::Unchanged; // singular: no Newton step
        }
        let y = &aux.f64_b[..n * n];

        // K = m - Y·f(m) + (I - Y·J(X))·(X - m)
        aux.intervals_d.resize(n, Interval::ZERO);
        let k = &mut aux.intervals_d[..n];
        for i in 0..n {
            // (Y·f(m))_i
            let mut yf = Interval::ZERO;
            for j in 0..n {
                yf += Interval::point(y[i * n + j]) * fm[j];
            }
            // Σ_j (I - Y·J)_ij (X_j - m_j)
            let mut corr = Interval::ZERO;
            for j in 0..n {
                let mut yj = Interval::ZERO;
                for l in 0..n {
                    yj += Interval::point(y[i * n + l]) * jx[l * n + j];
                }
                let iyj = if i == j { Interval::ONE - yj } else { -yj };
                corr += iyj * (x[j] - Interval::point(m[j]));
            }
            k[i] = Interval::point(m[i]) - yf + corr;
        }

        // Intersect.
        let mut changed = false;
        for (idx, &v) in self.vars.iter().enumerate() {
            let narrowed = bx[v.index()].intersect(&k[idx]);
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
}

/// Inverts a dense row-major `n×n` matrix by Gauss–Jordan with partial
/// pivoting, in place: `m` is destroyed, the inverse lands in `inv`.
/// Returns `false` when (numerically) singular.
///
/// # Panics
///
/// Panics unless `m.len() == inv.len() == n * n`.
fn invert_into(m: &mut [f64], inv: &mut [f64], n: usize) -> bool {
    assert_eq!(m.len(), n * n);
    assert_eq!(inv.len(), n * n);
    inv.fill(0.0);
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        let mut best = m[col * n + col].abs();
        for r in (col + 1)..n {
            let v = m[r * n + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-12 || !best.is_finite() {
            return false;
        }
        if piv != col {
            for c in 0..n {
                m.swap(col * n + c, piv * n + c);
                inv.swap(col * n + c, piv * n + c);
            }
        }
        let d = m[col * n + col];
        for c in 0..n {
            m[col * n + c] /= d;
            inv[col * n + c] /= d;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = m[r * n + col];
            if factor == 0.0 {
                continue;
            }
            for c in 0..n {
                m[r * n + c] -= factor * m[col * n + c];
                inv[r * n + c] -= factor * inv[col * n + c];
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invert(a: &[f64], n: usize) -> Option<Vec<f64>> {
        let mut m = a.to_vec();
        let mut inv = vec![0.0; n * n];
        invert_into(&mut m, &mut inv, n).then_some(inv)
    }

    #[test]
    fn invert_identity_and_known() {
        let i2 = invert(&[1.0, 0.0, 0.0, 1.0], 2).unwrap();
        assert_eq!(i2, vec![1.0, 0.0, 0.0, 1.0]);
        // [[2,1],[1,1]]⁻¹ = [[1,-1],[-1,2]]
        let inv = invert(&[2.0, 1.0, 1.0, 1.0], 2).unwrap();
        for (got, want) in inv.iter().zip([1.0, -1.0, -1.0, 2.0]) {
            assert!((got - want).abs() < 1e-12);
        }
        assert!(invert(&[1.0, 2.0, 2.0, 4.0], 2).is_none()); // singular
    }

    #[test]
    fn newton_contracts_to_root_quadratically() {
        // x² - 2 = 0 on [1, 2] → √2.
        let mut cx = Context::new();
        let e = cx.parse("x^2 - 2").unwrap();
        let x = cx.var_id("x").unwrap();
        let newton = Newton::new(&mut cx, &[e], &[x]);
        let mut bx = IBox::new(vec![Interval::new(1.0, 2.0)]);
        for _ in 0..6 {
            newton.contract(&mut bx);
        }
        assert!(bx[0].contains(2.0f64.sqrt()));
        assert!(bx[0].width() < 1e-10, "quadratic convergence expected");
    }

    #[test]
    fn newton_proves_absence_of_roots() {
        // x² + 1 = 0 has no real root.
        let mut cx = Context::new();
        let e = cx.parse("x^2 + 1").unwrap();
        let x = cx.var_id("x").unwrap();
        let newton = Newton::new(&mut cx, &[e], &[x]);
        let mut bx = IBox::new(vec![Interval::new(0.5, 2.0)]);
        let mut out = Outcome::Unchanged;
        for _ in 0..10 {
            out = newton.contract(&mut bx);
            if out == Outcome::Empty {
                break;
            }
        }
        assert_eq!(out, Outcome::Empty);
    }

    #[test]
    fn newton_2d_system() {
        // x² + y² = 1, x = y → (±1/√2, ±1/√2); restrict to positive quadrant.
        let mut cx = Context::new();
        let f1 = cx.parse("x^2 + y^2 - 1").unwrap();
        let f2 = cx.parse("x - y").unwrap();
        let x = cx.var_id("x").unwrap();
        let y = cx.var_id("y").unwrap();
        let newton = Newton::new(&mut cx, &[f1, f2], &[x, y]);
        let mut bx = IBox::new(vec![Interval::new(0.5, 1.0), Interval::new(0.5, 1.0)]);
        for _ in 0..8 {
            newton.contract(&mut bx);
        }
        let c = 1.0 / 2.0f64.sqrt();
        assert!(bx[0].contains(c) && bx[1].contains(c));
        assert!(bx[0].width() < 1e-8 && bx[1].width() < 1e-8);
    }

    #[test]
    fn newton_keeps_root_always() {
        // Soundness: the true root never leaves the box.
        let mut cx = Context::new();
        let e = cx.parse("cos(x) - x").unwrap(); // Dottie number ≈ 0.739
        let x = cx.var_id("x").unwrap();
        let newton = Newton::new(&mut cx, &[e], &[x]);
        let mut bx = IBox::new(vec![Interval::new(0.0, 1.5)]);
        let root = 0.7390851332151607;
        for _ in 0..10 {
            if newton.contract(&mut bx) == Outcome::Empty {
                panic!("lost the Dottie fixed point");
            }
            assert!(bx[0].contains(root));
        }
        assert!(bx[0].width() < 1e-9);
    }

    #[test]
    fn newton_ignores_unbounded_boxes() {
        let mut cx = Context::new();
        let e = cx.parse("x - 1").unwrap();
        let x = cx.var_id("x").unwrap();
        let newton = Newton::new(&mut cx, &[e], &[x]);
        let mut bx = IBox::entire(1);
        assert_eq!(newton.contract(&mut bx), Outcome::Unchanged);
    }

    #[test]
    #[should_panic(expected = "square system")]
    fn non_square_rejected() {
        let mut cx = Context::new();
        let e = cx.parse("x + y").unwrap();
        let x = cx.var_id("x").unwrap();
        let y = cx.var_id("y").unwrap();
        let _ = Newton::new(&mut cx, &[e], &[x, y]);
    }
}
