//! The [`Interval`] type and its core (rational) arithmetic.

use crate::round::{next_down, next_up};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A closed real interval `[lo, hi]`, possibly empty or unbounded.
///
/// Invariants: either the interval is empty (both endpoints are NaN) or
/// `lo <= hi`, `lo < +inf`, `hi > -inf`. All arithmetic is *enclosure
/// sound*: the result interval contains every real obtainable by applying
/// the exact operation to members of the operands.
///
/// # Examples
///
/// ```
/// use biocheck_interval::Interval;
///
/// let a = Interval::new(-1.0, 2.0);
/// assert!(a.contains(0.0));
/// assert_eq!(a.mid(), 0.5);
/// let sq = a.sqr();
/// assert!(sq.contains(4.0) && sq.contains(0.0) && !sq.contains(-0.1));
/// ```
#[derive(Copy, Clone)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// The empty interval.
    pub const EMPTY: Interval = Interval {
        lo: f64::NAN,
        hi: f64::NAN,
    };

    /// The whole real line `[-inf, +inf]`.
    pub const ENTIRE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The exact singleton `[0, 0]`.
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// The exact singleton `[1, 1]`.
    pub const ONE: Interval = Interval { lo: 1.0, hi: 1.0 };

    /// A sound enclosure of π.
    // The literals are the nearest f64 neighbors bracketing the true
    // value — intentionally not `f64::consts::*`, which is a single
    // rounded point, not an enclosure.
    #[allow(clippy::approx_constant)]
    pub const PI: Interval = Interval {
        lo: 3.141592653589793,
        hi: 3.1415926535897936,
    };

    /// A sound enclosure of 2π.
    // The literals are the nearest f64 neighbors bracketing the true
    // value — intentionally not `f64::consts::*`, which is a single
    // rounded point, not an enclosure.
    #[allow(clippy::approx_constant)]
    pub const TWO_PI: Interval = Interval {
        lo: 6.283185307179586,
        hi: 6.283185307179587,
    };

    /// A sound enclosure of π/2.
    // The literals are the nearest f64 neighbors bracketing the true
    // value — intentionally not `f64::consts::*`, which is a single
    // rounded point, not an enclosure.
    #[allow(clippy::approx_constant)]
    pub const HALF_PI: Interval = Interval {
        lo: 1.5707963267948966,
        hi: 1.5707963267948968,
    };

    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN; use
    /// [`Interval::checked`] for a fallible constructor.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(
            lo <= hi,
            "invalid interval: lo={lo} must not exceed hi={hi}"
        );
        Interval { lo, hi }
    }

    /// Creates `[lo, hi]`, returning `None` when `lo > hi` or a bound is NaN.
    #[inline]
    pub fn checked(lo: f64, hi: f64) -> Option<Interval> {
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Creates the singleton `[v, v]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    #[inline]
    pub fn point(v: f64) -> Interval {
        assert!(!v.is_nan(), "cannot build a point interval from NaN");
        Interval { lo: v, hi: v }
    }

    /// A tight two-ulp enclosure of the value `v` (used when `v` arises
    /// from an inexact computation such as parsing a decimal literal).
    #[inline]
    pub fn enclose(v: f64) -> Interval {
        if v.is_nan() {
            return Interval::EMPTY;
        }
        Interval {
            lo: next_down(v),
            hi: next_up(v),
        }
    }

    /// Lower endpoint (NaN when empty).
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint (NaN when empty).
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Returns `true` when the interval contains no point.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.is_nan()
    }

    /// Returns `true` when the interval is a single point.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Returns `true` when both endpoints are finite.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Width `hi - lo` (0 for points, NaN for empty, +inf when unbounded).
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Radius: half the width.
    #[inline]
    pub fn rad(&self) -> f64 {
        self.width() / 2.0
    }

    /// Midpoint. For unbounded intervals returns a finite representative
    /// (0 for `ENTIRE`, a large finite value for half-lines).
    #[inline]
    pub fn mid(&self) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        match (self.lo.is_finite(), self.hi.is_finite()) {
            (true, true) => {
                let m = 0.5 * (self.lo + self.hi);
                if m.is_finite() {
                    m
                } else {
                    // Guard against overflow of lo+hi near the float range.
                    0.5 * self.lo + 0.5 * self.hi
                }
            }
            (true, false) => f64::MAX.min(self.lo.max(0.0) * 2.0 + 1.0e100),
            (false, true) => f64::MIN.max(self.hi.min(0.0) * 2.0 - 1.0e100),
            (false, false) => 0.0,
        }
    }

    /// Magnitude: `max(|lo|, |hi|)`.
    #[inline]
    pub fn mag(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Mignitude: the minimum absolute value over the interval.
    #[inline]
    pub fn mig(&self) -> f64 {
        if self.contains(0.0) {
            0.0
        } else {
            self.lo.abs().min(self.hi.abs())
        }
    }

    /// Returns `true` when `v` lies in the interval.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Returns `true` when `other` is a subset of `self` (empty ⊆ anything).
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Returns `true` when `self` is a subset of the *interior* of `other`.
    #[inline]
    pub fn interior_of(&self, other: &Interval) -> bool {
        self.is_empty()
            || ((other.lo < self.lo || other.lo == f64::NEG_INFINITY)
                && (self.hi < other.hi || other.hi == f64::INFINITY))
    }

    /// Intersection (empty if disjoint).
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval::EMPTY
        }
    }

    /// Convex hull of the union.
    #[inline]
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Splits at the midpoint into `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    #[inline]
    pub fn bisect(&self) -> (Interval, Interval) {
        assert!(!self.is_empty(), "cannot bisect the empty interval");
        let m = self.mid();
        (
            Interval { lo: self.lo, hi: m },
            Interval { lo: m, hi: self.hi },
        )
    }

    /// Splits at `at`, clamped inside; both halves share the split point.
    pub fn split_at(&self, at: f64) -> (Interval, Interval) {
        assert!(!self.is_empty(), "cannot split the empty interval");
        let at = at.clamp(self.lo, self.hi);
        (
            Interval {
                lo: self.lo,
                hi: at,
            },
            Interval {
                lo: at,
                hi: self.hi,
            },
        )
    }

    /// Widens both endpoints outward by `eps` (absolute inflation).
    pub fn inflate(&self, eps: f64) -> Interval {
        if self.is_empty() {
            return *self;
        }
        Interval {
            lo: next_down(self.lo - eps),
            hi: next_up(self.hi + eps),
        }
    }

    /// Outward widening by one ulp per side; sound wrapper for a
    /// round-to-nearest endpoint computation.
    #[inline]
    pub(crate) fn widen(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() {
            return Interval::EMPTY;
        }
        Interval {
            lo: next_down(lo),
            hi: next_up(hi),
        }
    }

    /// Constructs without widening; caller guarantees the endpoints are
    /// already outward-rounded (used for exact operations such as `neg`,
    /// `abs`, `min`, `max`, `hull`).
    #[inline]
    pub(crate) fn exact(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() {
            return Interval::EMPTY;
        }
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// The square `x²` (tighter than `x * x` because the operands are
    /// correlated: `[-1,2]² = [0,4]`, not `[-2,4]`).
    pub fn sqr(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let a = self.lo * self.lo;
        let b = self.hi * self.hi;
        if self.contains(0.0) {
            Interval::widen(0.0, a.max(b)).intersect(&Interval::new(0.0, f64::INFINITY))
        } else {
            Interval::widen(a.min(b), a.max(b))
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            -*self
        } else {
            Interval::exact(0.0, self.mag())
        }
    }

    /// Pointwise minimum `min(x, y)`.
    pub fn min_i(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::exact(self.lo.min(other.lo), self.hi.min(other.hi))
    }

    /// Pointwise maximum `max(x, y)`.
    pub fn max_i(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::exact(self.lo.max(other.lo), self.hi.max(other.hi))
    }

    /// Multiplicative inverse `1/x`. Division by an interval containing 0
    /// yields the appropriate half-line(s) hull or `ENTIRE`.
    pub fn recip(&self) -> Interval {
        Interval::ONE / *self
    }

    /// Extended division for the interval Newton operator: returns the up
    /// to two connected components of `{ n/d : n ∈ self, d ∈ den, d ≠ 0 }`.
    pub fn div_extended(&self, den: &Interval) -> (Option<Interval>, Option<Interval>) {
        if self.is_empty() || den.is_empty() || (den.lo == 0.0 && den.hi == 0.0) {
            return (None, None);
        }
        if !den.contains(0.0) {
            return (Some(*self / *den), None);
        }
        // den straddles (or touches) zero: the quotient splits.
        let n = *self;
        if n.contains(0.0) {
            return (Some(Interval::ENTIRE), None);
        }
        // n strictly positive or strictly negative.
        let (neg_part, pos_part);
        if n.lo > 0.0 {
            // n > 0: n / [den.lo, 0) = (-inf, n.lo/den.lo], n / (0, den.hi] = [n.lo/den.hi, inf)
            neg_part = if den.lo < 0.0 {
                Some(Interval::widen(f64::NEG_INFINITY, n.lo / den.lo))
            } else {
                None
            };
            pos_part = if den.hi > 0.0 {
                Some(Interval::widen(n.lo / den.hi, f64::INFINITY))
            } else {
                None
            };
        } else {
            // n < 0.
            neg_part = if den.hi > 0.0 {
                Some(Interval::widen(f64::NEG_INFINITY, n.hi / den.hi))
            } else {
                None
            };
            pos_part = if den.lo < 0.0 {
                Some(Interval::widen(n.hi / den.lo, f64::INFINITY))
            } else {
                None
            };
        }
        match (neg_part, pos_part) {
            (Some(a), Some(b)) => (Some(a), Some(b)),
            (Some(a), None) => (Some(a), None),
            (None, Some(b)) => (Some(b), None),
            (None, None) => (None, None),
        }
    }

    /// Integer power `xⁿ` with sign-correct even/odd handling.
    pub fn powi(&self, n: i32) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        match n {
            0 => Interval::ONE,
            1 => *self,
            2 => self.sqr(),
            n if n < 0 => self.powi(-n).recip(),
            n => {
                let a = self.lo.powi(n);
                let b = self.hi.powi(n);
                if n % 2 == 0 {
                    if self.contains(0.0) {
                        Interval::widen(0.0, a.max(b)).intersect(&Interval::new(0.0, f64::INFINITY))
                    } else {
                        Interval::widen(a.min(b), a.max(b))
                    }
                } else {
                    Interval::widen(a, b)
                }
            }
        }
    }
}

impl Default for Interval {
    /// The default interval is `ZERO`.
    fn default() -> Interval {
        Interval::ZERO
    }
}

impl PartialEq for Interval {
    fn eq(&self, other: &Interval) -> bool {
        (self.is_empty() && other.is_empty()) || (self.lo == other.lo && self.hi == other.hi)
    }
}

impl PartialOrd for Interval {
    /// Set-interval order: `a < b` iff every point of `a` is below every
    /// point of `b`. Overlapping intervals are unordered.
    fn partial_cmp(&self, other: &Interval) -> Option<Ordering> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        if self == other {
            Some(Ordering::Equal)
        } else if self.hi < other.lo {
            Some(Ordering::Less)
        } else if self.lo > other.hi {
            Some(Ordering::Greater)
        } else {
            None
        }
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "[{:?}, {:?}]", self.lo, self.hi)
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else if self.is_point() {
            write!(f, "[{}]", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl From<f64> for Interval {
    /// Converts a (non-NaN) float to a point interval; NaN maps to `EMPTY`.
    fn from(v: f64) -> Interval {
        if v.is_nan() {
            Interval::EMPTY
        } else {
            Interval::point(v)
        }
    }
}

impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval::exact(-self.hi, -self.lo)
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        Interval::widen(self.lo + rhs.lo, self.hi + rhs.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        Interval::widen(self.lo - rhs.hi, self.hi - rhs.lo)
    }
}

/// Multiplies endpoint pairs treating `0 * inf` as `0` (the convention for
/// interval multiplication: the infinite bound came from an unbounded
/// operand, and zero annihilates it).
#[inline]
fn mul_ep(a: f64, b: f64) -> f64 {
    let p = a * b;
    if p.is_nan() {
        0.0
    } else {
        p
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        let c = [
            mul_ep(self.lo, rhs.lo),
            mul_ep(self.lo, rhs.hi),
            mul_ep(self.hi, rhs.lo),
            mul_ep(self.hi, rhs.hi),
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::widen(lo, hi)
    }
}

impl Div for Interval {
    type Output = Interval;
    fn div(self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        if rhs.lo == 0.0 && rhs.hi == 0.0 {
            // x / [0,0] is empty (no real quotient exists).
            return Interval::EMPTY;
        }
        if !rhs.contains(0.0) {
            let c = [
                self.lo / rhs.lo,
                self.lo / rhs.hi,
                self.hi / rhs.lo,
                self.hi / rhs.hi,
            ];
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &v in &c {
                let v = if v.is_nan() { 0.0 } else { v };
                lo = lo.min(v);
                hi = hi.max(v);
            }
            return Interval::widen(lo, hi);
        }
        // Denominator touches zero: result is unbounded on at least one side.
        if self.contains(0.0) {
            return Interval::ENTIRE;
        }
        match self.div_extended(&rhs) {
            (Some(a), Some(b)) => a.hull(&b),
            (Some(a), None) => a,
            _ => Interval::ENTIRE,
        }
    }
}

macro_rules! scalar_ops {
    ($($op:ident :: $f:ident),*) => {$(
        impl $op<f64> for Interval {
            type Output = Interval;
            fn $f(self, rhs: f64) -> Interval {
                self.$f(Interval::from(rhs))
            }
        }
        impl $op<Interval> for f64 {
            type Output = Interval;
            fn $f(self, rhs: Interval) -> Interval {
                Interval::from(self).$f(rhs)
            }
        }
    )*};
}
scalar_ops!(Add::add, Sub::sub, Mul::mul, Div::div);

macro_rules! assign_ops {
    ($($op:ident :: $f:ident => $base:ident),*) => {$(
        impl $op for Interval {
            fn $f(&mut self, rhs: Interval) {
                *self = self.$base(rhs);
            }
        }
        impl $op<f64> for Interval {
            fn $f(&mut self, rhs: f64) {
                *self = self.$base(Interval::from(rhs));
            }
        }
    )*};
}
assign_ops!(
    AddAssign::add_assign => add,
    SubAssign::sub_assign => sub,
    MulAssign::mul_assign => mul,
    DivAssign::div_assign => div
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let a = Interval::new(1.0, 2.0);
        assert_eq!(a.lo(), 1.0);
        assert_eq!(a.hi(), 2.0);
        assert!(!a.is_empty());
        assert!(!a.is_point());
        assert!(Interval::point(3.0).is_point());
        assert!(Interval::EMPTY.is_empty());
        assert!(Interval::checked(2.0, 1.0).is_none());
        assert!(Interval::checked(1.0, 2.0).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn new_rejects_inverted() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn add_sub_enclose() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-0.5, 0.25);
        let s = a + b;
        assert!(s.contains(0.5) && s.contains(2.25));
        let d = a - b;
        assert!(d.contains(0.75) && d.contains(2.5));
        // Widening makes the result a strict superset of the exact hull.
        assert!(s.lo() <= 0.5 && s.hi() >= 2.25);
    }

    #[test]
    fn mul_sign_cases() {
        let pp = Interval::new(1.0, 2.0) * Interval::new(3.0, 4.0);
        assert!(pp.contains(3.0) && pp.contains(8.0));
        let pn = Interval::new(1.0, 2.0) * Interval::new(-4.0, -3.0);
        assert!(pn.contains(-8.0) && pn.contains(-3.0));
        let mixed = Interval::new(-1.0, 2.0) * Interval::new(-3.0, 4.0);
        assert!(mixed.contains(-6.0) && mixed.contains(8.0));
        let zero = Interval::ZERO * Interval::ENTIRE;
        assert!(zero.contains(0.0));
        assert!(zero.is_bounded());
    }

    #[test]
    fn div_no_zero() {
        let q = Interval::new(1.0, 2.0) / Interval::new(4.0, 8.0);
        assert!(q.contains(0.125) && q.contains(0.5));
    }

    #[test]
    fn div_across_zero_is_unbounded() {
        let q = Interval::new(1.0, 2.0) / Interval::new(-1.0, 1.0);
        assert_eq!(q, Interval::ENTIRE);
        let q2 = Interval::new(1.0, 2.0) / Interval::new(0.0, 1.0);
        assert_eq!(q2.hi(), f64::INFINITY);
        assert!(q2.lo() <= 1.0);
        assert!(
            (Interval::new(1.0, 1.0) / Interval::ZERO).is_empty(),
            "x/[0,0] must be empty"
        );
    }

    #[test]
    fn div_extended_splits() {
        let n = Interval::new(1.0, 2.0);
        let d = Interval::new(-1.0, 1.0);
        let (a, b) = n.div_extended(&d);
        let a = a.unwrap();
        let b = b.unwrap();
        assert_eq!(a.lo(), f64::NEG_INFINITY);
        assert!(a.hi() >= -1.0);
        assert_eq!(b.hi(), f64::INFINITY);
        assert!(b.lo() <= 1.0);
    }

    #[test]
    fn sqr_is_tight_on_straddling() {
        let a = Interval::new(-1.0, 2.0);
        let s = a.sqr();
        assert_eq!(s.lo(), 0.0);
        assert!(s.hi() >= 4.0 && s.hi() < 4.1);
        // compare: naive product is much looser on the low side
        let naive = a * a;
        assert!(naive.lo() <= -2.0);
    }

    #[test]
    fn powi_cases() {
        let a = Interval::new(-2.0, 1.0);
        assert!(a.powi(2).contains(4.0));
        assert_eq!(a.powi(2).lo(), 0.0);
        assert!(a.powi(3).contains(-8.0) && a.powi(3).contains(1.0));
        assert_eq!(a.powi(0), Interval::ONE);
        assert_eq!(a.powi(1), a);
        let b = Interval::new(2.0, 4.0);
        let inv2 = b.powi(-2);
        assert!(inv2.contains(1.0 / 16.0) && inv2.contains(0.25));
    }

    #[test]
    fn abs_min_max() {
        let a = Interval::new(-3.0, 1.0);
        assert_eq!(a.abs(), Interval::new(0.0, 3.0));
        let b = Interval::new(2.0, 5.0);
        assert_eq!(a.min_i(&b), Interval::new(-3.0, 1.0));
        assert_eq!(a.max_i(&b), Interval::new(2.0, 5.0));
        assert_eq!(a.mag(), 3.0);
        assert_eq!(a.mig(), 0.0);
        assert_eq!(b.mig(), 2.0);
    }

    #[test]
    fn set_operations() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Interval::new(1.0, 2.0));
        assert_eq!(a.hull(&b), Interval::new(0.0, 3.0));
        assert!(a.intersect(&Interval::new(5.0, 6.0)).is_empty());
        assert!(a.contains_interval(&Interval::new(0.5, 1.5)));
        assert!(!a.contains_interval(&b));
        assert!(a.contains_interval(&Interval::EMPTY));
        assert!(Interval::new(0.5, 1.5).interior_of(&Interval::new(0.0, 2.0)));
        assert!(!Interval::new(0.0, 1.5).interior_of(&Interval::new(0.0, 2.0)));
    }

    #[test]
    fn bisect_and_split() {
        let a = Interval::new(0.0, 4.0);
        let (l, r) = a.bisect();
        assert_eq!(l, Interval::new(0.0, 2.0));
        assert_eq!(r, Interval::new(2.0, 4.0));
        let (l2, r2) = a.split_at(1.0);
        assert_eq!(l2.hi(), 1.0);
        assert_eq!(r2.lo(), 1.0);
        // Split point clamps inside.
        let (l3, _) = a.split_at(-7.0);
        assert_eq!(l3.width(), 0.0);
    }

    #[test]
    fn widths_and_midpoints() {
        let a = Interval::new(1.0, 3.0);
        assert_eq!(a.width(), 2.0);
        assert_eq!(a.rad(), 1.0);
        assert_eq!(a.mid(), 2.0);
        assert_eq!(Interval::ENTIRE.mid(), 0.0);
        assert!(Interval::new(0.0, f64::INFINITY).mid().is_finite());
        assert!(Interval::new(f64::NEG_INFINITY, 0.0).mid().is_finite());
        // mid never overflows for large finite bounds
        let big = Interval::new(f64::MIN / 2.0 * 3.0, f64::MAX);
        assert!(big.mid().is_finite());
    }

    #[test]
    fn ordering() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert!(a < b);
        assert!(b > a);
        let c = Interval::new(0.5, 2.5);
        assert_eq!(a.partial_cmp(&c), None);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Interval::new(1.0, 2.0)), "[1, 2]");
        assert_eq!(format!("{}", Interval::point(1.5)), "[1.5]");
        assert_eq!(format!("{}", Interval::EMPTY), "∅");
        assert!(!format!("{:?}", Interval::EMPTY).is_empty());
    }

    #[test]
    fn inflate_grows() {
        let a = Interval::new(1.0, 2.0).inflate(0.5);
        assert!(a.lo() < 0.51 && a.lo() <= 0.5);
        assert!(a.hi() >= 2.5);
    }

    #[test]
    fn empty_propagates() {
        let e = Interval::EMPTY;
        let a = Interval::new(1.0, 2.0);
        assert!((e + a).is_empty());
        assert!((a - e).is_empty());
        assert!((e * a).is_empty());
        assert!((a / e).is_empty());
        assert!((-e).is_empty());
        assert!(e.sqr().is_empty());
        assert!(e.abs().is_empty());
    }

    #[test]
    fn recip_basic() {
        let r = Interval::new(2.0, 4.0).recip();
        assert!(r.contains(0.25) && r.contains(0.5));
    }
}
