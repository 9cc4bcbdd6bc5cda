//! `tanh` across lanes, with the bits of glibc's `tanh`.
//!
//! Every `tanh` the crate computes — [`crate::Program::eval_lanes`] at
//! any lane count, [`crate::Program::eval_with`], [`crate::Context::eval`]
//! and constant folding — is this one straight-line kernel, so the
//! result no longer depends on the host's libm. Its bits are glibc's on
//! purpose: the pinned fixtures (`golden_smc.txt`, `trajectory_bits.txt`)
//! were written with glibc 2.36's `tanh` on x86-64 CPUs with AVX2 and
//! FMA, and a kernel with other bits would move trajectories and so
//! reports. That `tanh` is fdlibm's `s_tanh.c`, compiled without FMA,
//! calling fdlibm's `s_expm1.c`, which glibc selects in a build compiled
//! with FMA on such CPUs. The kernel reproduces both sources operation by
//! operation, with every multiply–add GCC contracted in that `expm1`
//! build written as an explicit [`f64::mul_add`]. `tanh_oracle.rs` holds
//! it against the host's libm where the host is such a glibc.
//!
//! The kernel computes every branch's result for every lane and then
//! selects one, so a lane loop vectorises. On x86-64 CPUs with AVX2 and
//! FMA it runs an instance compiled for both; elsewhere it runs the
//! portable instance, whose `mul_add` is the correctly rounded libm
//! `fma`, so both compute the same bits. Runtime detection alone
//! chooses.

// fdlibm's constants, bit for bit.
/// High part of ln 2 (trailing zeros make `k·LN2_HI` exact).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// ln 2 − `LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// 1 / ln 2.
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
/// `expm1`'s scaled rational-approximation coefficients Q1..Q5.
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);

// fdlibm tests ranges on the high word of |x|; each test below is the
// same test on |x|, against the least value whose high word fails it.
/// `tanh`: |x| < 2⁻⁵⁵ returns `x·(1 + x)`.
const TANH_TINY: f64 = f64::from_bits(0x3c80_0000_0000_0000);
/// `tanh`: |x| ≥ 22 returns ±1.
const TANH_HUGE: f64 = 22.0;
/// `expm1`: |x| below this (high word ≤ that of ½·ln 2) is not reduced.
const EXPM1_K0: f64 = f64::from_bits(0x3fd6_2e43_0000_0000);

/// 1.5·2⁵²: adding it to an integral `f64` of magnitude below 2⁵¹
/// leaves that integer, two's complement, in the low bits.
const INT_SHIFTER: f64 = 6_755_399_441_055_744.0;

/// `tanh` of every lane: lane `l` of the result is [`tanh`]`(x[l])`.
///
/// Not inlined: the kernel picks its instance at the call, so one sweep
/// makes one call for all `K` lanes.
#[inline(never)]
pub fn tanh_lanes<const K: usize>(x: &[f64; K]) -> [f64; K] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the running CPU has AVX2 and FMA, the features the
        // instance is compiled for.
        return unsafe { tanh_lanes_fma(x) };
    }
    tanh_lanes_portable(x)
}

/// The kernel's portable instance, which [`tanh_lanes`] runs on CPUs
/// without AVX2 and FMA. Public so tests can hold it against the FMA
/// instance on CPUs that have both.
pub fn tanh_lanes_portable<const K: usize>(x: &[f64; K]) -> [f64; K] {
    lanes(x)
}

/// The kernel compiled for AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn tanh_lanes_fma<const K: usize>(x: &[f64; K]) -> [f64; K] {
    lanes(x)
}

/// The body of both instances, in four stages, each a loop over the
/// lanes. The compiler vectorises each loop, and a stage's lanes are
/// independent and its loop short, so the CPU overlaps their dependency
/// chains; one loop over the whole kernel took about twice as long per
/// sweep, waiting on one lane's chain of two divisions and some forty
/// dependent operations at a time.
///
/// fdlibm's `tanh(x)`, signed like `x`, is `1 − 2/(expm1(2|x|) + 2)`
/// for 1 ≤ |x| < 22 and `−t/(t + 2)` with `t = expm1(−2|x|)` for
/// 2⁻⁵⁵ ≤ |x| < 1; `x·(1 + x)` below (which keeps ±0), ±1 above, and
/// NaN for NaN. The stages compute `expm1` of `2|x|` or `−2|x|` and
/// then `tanh`, every branch for every lane, and select.
#[inline(always)]
fn lanes<const K: usize>(x: &[f64; K]) -> [f64; K] {
    let (mut k, mut r, mut c) = ([0.0; K], [0.0; K], [0.0; K]);
    for l in 0..K {
        let ax = x[l].abs();
        (k[l], r[l], c[l]) = reduce(if ax >= 1.0 { 2.0 * ax } else { -2.0 * ax });
    }
    let (mut hxs, mut e) = ([0.0; K], [0.0; K]);
    for l in 0..K {
        (hxs[l], e[l]) = rational(r[l]);
    }
    let mut t = [0.0; K];
    for l in 0..K {
        t[l] = rebuild(k[l], r[l], c[l], hxs[l], e[l]);
    }
    let mut out = [0.0; K];
    for l in 0..K {
        out[l] = finish(x[l], t[l]);
    }
    out
}

/// The hyperbolic tangent, with the bits of glibc 2.36's `tanh` on an
/// x86-64 CPU with AVX2 and FMA (see the module docs). The one-lane
/// instance of [`tanh_lanes`].
pub fn tanh(x: f64) -> f64 {
    tanh_lanes(&[x])[0]
}

// The stages of fdlibm's `expm1` (glibc's FMA build) for the arguments
// `tanh` passes it: `x` in [2, 44), where the reduction count `k` runs
// from 3 to 63, or in (−2, −2⁻⁵⁴], where it is 0, −1, −2 or −3. (`k = 1`,
// the special large and tiny arguments and overflow never occur there.)
// Other arguments give unspecified results, which `finish` never
// selects.

/// `x = k·ln 2 + r` with |r| ≤ ½·ln 2, `r = hi − lo` and `c` its
/// rounding correction: `(k, r, c)`. For the negative arguments just
/// above ½·ln 2 in magnitude fdlibm takes `k = −1` without the multiply;
/// the truncation gives the same `k` there, and `hi` and `lo` the same
/// bits.
#[inline(always)]
fn reduce(x: f64) -> (f64, f64, f64) {
    let k = if x.abs() < EXPM1_K0 {
        0.0
    } else {
        (INV_LN2 * x + 0.5f64.copysign(x)).trunc()
    };
    let hi = (-k).mul_add(LN2_HI, x);
    let lo = k * LN2_LO;
    let r = hi - lo;
    (k, r, (hi - r) - lo)
}

/// The rational approximation on the reduced argument `r`:
/// `(hxs, e)` with `hxs = r²/2`.
#[inline(always)]
fn rational(r: f64) -> (f64, f64) {
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let h2 = hxs * hxs;
    let h4 = h2 * h2;
    let r1 = h4.mul_add(
        hxs.mul_add(Q5, Q4),
        h2.mul_add(hxs.mul_add(Q3, Q2), hxs.mul_add(Q1, 1.0)),
    );
    let t = (-r1).mul_add(hfx, 3.0);
    (hxs, hxs * ((r1 - t) / (-r).mul_add(t, 6.0)))
}

/// `expm1(x)` from the reduction and the approximation.
#[inline(always)]
fn rebuild(k: f64, r: f64, c: f64, hxs: f64, e: f64) -> f64 {
    // k = 0: r is x and needs no correction.
    let k0 = r - r.mul_add(e, -hxs);
    let e = r.mul_add(e - c, -c) - hxs;
    // k = −1.
    let km1 = 0.5f64.mul_add(r - e, -0.5);
    // Otherwise y ≈ 2⁻ᵏ·(expm1(x) + 1) or 2⁻ᵏ·expm1(x), then scaled by
    // 2ᵏ through the exponent bits.
    let kbits = (k + INT_SHIFTER).to_bits() << 52;
    let p = f64::from_bits(1f64.to_bits().wrapping_sub(kbits)); // 2⁻ᵏ
    let one = if (2.0..=19.0).contains(&k) {
        1.0 - p
    } else {
        1.0
    };
    let y = if (20.0..=56.0).contains(&k) {
        (r - (e + p)) + 1.0
    } else {
        one - (e - r)
    };
    let y = f64::from_bits(y.to_bits().wrapping_add(kbits));
    if k == 0.0 {
        k0
    } else if k == -1.0 {
        km1
    } else if k <= -2.0 || k > 56.0 {
        y - 1.0
    } else {
        y
    }
}

/// fdlibm's `tanh(x)` given `t`, the `expm1` its branch calls.
#[inline(always)]
fn finish(x: f64, t: f64) -> f64 {
    let ax = x.abs();
    let big = ax >= 1.0;
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if ax >= TANH_HUGE {
        1.0
    } else if big {
        1.0 - q
    } else {
        q
    };
    // z > 0 in every branch, so copying x's sign is glibc's negation.
    let z = if ax < TANH_TINY {
        x * (1.0 + x)
    } else {
        z.copysign(x)
    };
    // glibc's `1/x ± 1` of a NaN is that NaN, quieted.
    if x.is_nan() {
        x + x
    } else {
        z
    }
}
