//! The `tanh` kernel against the host's libm, bit for bit.
//!
//! The kernel reproduces glibc's `tanh` on x86-64 CPUs with AVX2 and
//! FMA (see `src/tanh.rs`), so on such a glibc host `f64::tanh` is its
//! oracle: every lane count, and a compiled `Program`, must return the
//! same bits on the specials, on ±4096 ulps around every branch
//! threshold of `tanh` and of the `expm1` it calls, and on ten million
//! random inputs. A one-ulp change of the kernel can leave every pinned
//! report intact, so only this test holds the kernel to its bits. On
//! every x86-64 host with AVX2 and FMA the portable instance is also
//! held to the FMA instance.
#![cfg(target_arch = "x86_64")]

use biocheck_expr::{tanh_lanes, tanh_lanes_portable};
use std::f64::consts::LN_2;

/// Whether [`tanh_lanes`] runs its FMA instance on this CPU.
fn fma_host() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// `n` ulps either side of `|c|`, both signs.
fn around(c: f64, n: i64) -> impl Iterator<Item = f64> {
    let b = c.abs().to_bits() as i64;
    (b - n..=b + n).flat_map(|u| {
        let v = f64::from_bits(u as u64);
        [v, -v]
    })
}

/// Zeros, infinities, NaNs, subnormals and the extremes.
fn specials() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001), // signalling
        f64::from_bits(0x7ff8_dead_beef_0001), // with a payload
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::EPSILON,
    ];
    for b in [1, 2, 3, 0x0008_0000_0000_0000, 0x000f_ffff_ffff_ffff] {
        let v = f64::from_bits(b);
        xs.extend([v, -v]);
    }
    xs
}

/// ±4096 ulps around every branch threshold: `tanh`'s |x| = 2⁻⁵⁵, 1 and
/// 22; the reduction edges of `expm1`'s argument 2|x| (k = 0 up to
/// ½·ln 2, k = ±1 up to 1.5·ln 2, and fdlibm's high-word forms of
/// both); its 56·ln 2 filter; and every k ± ½ boundary (k + ½)·ln 2 up
/// to k = 64, which include the k = 19/20 and 56/57 branch edges.
fn thresholds() -> Vec<f64> {
    let mut at = vec![
        f64::from_bits(0x3c80_0000_0000_0000),
        1.0,
        22.0,
        0.5 * LN_2 / 2.0,
        1.5 * LN_2 / 2.0,
        f64::from_bits(0x3fd6_2e43_0000_0000) / 2.0,
        f64::from_bits(0x3ff0_a2b2_0000_0000) / 2.0,
        f64::from_bits(0x4043_687a_0000_0000) / 2.0,
    ];
    at.extend((0..=64).map(|k| (f64::from(k) + 0.5) * LN_2 / 2.0));
    at.into_iter().flat_map(|c| around(c, 4096)).collect()
}

/// `n` random inputs, splitmix64 from a fixed seed: a third with
/// random bits (any finite or subnormal value), a third with a uniform
/// exponent over [2⁻⁶⁰, 2⁶) and a random mantissa, a third uniform in
/// (−25, 25).
fn random(n: usize) -> Vec<f64> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|i| {
            let r = next();
            match i % 3 {
                0 if r & 0x7ff0_0000_0000_0000 == 0x7ff0_0000_0000_0000 => {
                    f64::from_bits(r ^ 0x4000_0000_0000_0000)
                }
                0 => f64::from_bits(r),
                1 => {
                    let exp = 1023 - 60 + (r >> 52) % 66;
                    f64::from_bits((r & 0x800f_ffff_ffff_ffff) | exp << 52)
                }
                _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 50.0 - 25.0,
            }
        })
        .collect()
}

/// Sixteen-lane chunks of `xs`, the last one padded with zeros.
fn chunks(xs: &[f64]) -> impl Iterator<Item = [f64; 16]> + '_ {
    xs.chunks(16).map(|c| {
        let mut x = [0.0; 16];
        x[..c.len()].copy_from_slice(c);
        x
    })
}

/// Every path to the kernel equals `f64::tanh` on every input.
#[cfg(target_env = "gnu")]
fn assert_matches_libm(xs: &[f64]) {
    use biocheck_expr::{Context, EvalScratch, Program};
    if !fma_host() {
        return;
    }
    let mut cx = Context::new();
    let e = cx.parse("tanh(x)").unwrap();
    let prog = Program::compile(&cx, &[e]);
    let mut scratch = EvalScratch::new();
    for x in chunks(xs) {
        let want = x.map(f64::tanh);
        let mut k4 = [0.0; 16];
        for (o, c) in k4
            .as_chunks_mut::<4>()
            .0
            .iter_mut()
            .zip(x.as_chunks::<4>().0)
        {
            *o = tanh_lanes(c);
        }
        let mut prog16 = [[0.0; 16]];
        prog.eval_lanes(&[x], &mut scratch, &mut prog16);
        let prog1 = x.map(|v| {
            let mut out = [0.0];
            prog.eval_with(&[v], &mut scratch, &mut out);
            out[0]
        });
        let paths = [
            ("K = 16", tanh_lanes(&x)),
            ("K = 4", k4),
            ("K = 1", x.map(|v| tanh_lanes(&[v])[0])),
            ("Program, 16 lanes", prog16[0]),
            ("Program, one lane", prog1),
        ];
        for (name, got) in paths {
            for l in 0..16 {
                assert_eq!(
                    got[l].to_bits(),
                    want[l].to_bits(),
                    "{name}: tanh({:e} = {:#018x}) = {:e}, libm {:e}",
                    x[l],
                    x[l].to_bits(),
                    got[l],
                    want[l]
                );
            }
        }
    }
}

#[cfg(target_env = "gnu")]
#[test]
fn specials_match_libm() {
    assert_matches_libm(&specials());
}

#[cfg(target_env = "gnu")]
#[test]
fn branch_thresholds_match_libm() {
    assert_matches_libm(&thresholds());
}

#[cfg(target_env = "gnu")]
#[test]
fn random_inputs_match_libm() {
    assert_matches_libm(&random(10_000_000));
}

#[test]
fn portable_instance_matches_the_fma_instance() {
    if !fma_host() {
        return;
    }
    let mut xs = specials();
    xs.extend(thresholds());
    xs.extend(random(1_000_000));
    for x in chunks(&xs) {
        let (fma, portable) = (tanh_lanes(&x), tanh_lanes_portable(&x));
        for l in 0..16 {
            assert_eq!(fma[l].to_bits(), portable[l].to_bits(), "tanh({:e})", x[l]);
        }
    }
}
