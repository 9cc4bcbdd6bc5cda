//! Round-trip properties: `parse_json(v.render()) == v` for random JSON
//! values (and bit-identity for the numbers inside), and
//! `report_from_json(report_to_json(r))` fingerprint-identical to `r`
//! for random reports of every wire kind — also as cache-log records,
//! whose decoder must refuse (never panic on) mutated lines.

use biocheck_engine::{
    Diagnostic, Outcome, Provenance, QueryKind, Report, RobustnessSummary, Severity,
    StabilityReport, Value,
};
use biocheck_interval::Interval;
use biocheck_serve::cache::persist::{CacheLog, CacheRecord, Memo};
use biocheck_serve::fingerprint64;
use biocheck_serve::json::{parse_json, Json};
use biocheck_serve::wire::{report_from_json, report_to_json};
use biocheck_smc::{Estimate, SprtOutcome, SprtResult};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// A random finite f64 with a wide dynamic range (uniform bits would be
/// mostly huge exponents; mix integers, small reals, and extremes).
fn random_num(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => rng.gen_range(-1000i64..1000) as f64,
        1 => rng.gen_range(-1.0..1.0),
        2 => rng.gen_range(-1.0e12..1.0e12),
        3 => {
            // Arbitrary bit patterns, rejecting non-finite.
            loop {
                let v = f64::from_bits(rng.gen::<u64>());
                if v.is_finite() {
                    break v;
                }
            }
        }
        _ => *[0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, 1.0 / 3.0]
            .get(rng.gen_range(0..5usize))
            .unwrap(),
    }
}

/// A character of random UTF-8 width: ASCII, 2-byte, 3-byte (the rest
/// of the BMP) or 4-byte (beyond it).
fn random_char(rng: &mut StdRng) -> char {
    match rng.gen_range(0..4u32) {
        0 => char::from(rng.gen_range(b' '..b'~')),
        1 => char::from_u32(rng.gen_range(0x80..0x800)).unwrap(),
        2 => char::from_u32(rng.gen_range(0x800..0x10000)).unwrap_or('ß'),
        _ => char::from_u32(rng.gen_range(0x10000..0x110000)).unwrap(),
    }
}

/// A random string: characters that need escaping (`"`, `\`, `\n`,
/// other controls) next to single characters and to runs of up to a
/// few hundred characters of every UTF-8 width, so the decoder's and
/// the renderer's run copies start and end at every kind of boundary.
fn random_string(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..12usize) {
        match rng.gen_range(0..7u32) {
            0 => s.push('"'),
            1 => s.push('\\'),
            2 => s.push('\n'),
            3 => s.push(char::from_u32(rng.gen_range(1..0x20)).unwrap()),
            4 => {
                let run = rng.gen_range(1..300usize);
                s.extend((0..run).map(|_| random_char(rng)));
            }
            _ => s.push(random_char(rng)),
        }
    }
    s
}

/// `s` as a JSON string literal in which every character is, at
/// random, written raw (where JSON allows it) or as a `\u` escape
/// (a surrogate pair beyond the BMP), and the short escapes are
/// used where they exist: the forms other encoders emit.
fn encode_loosely(rng: &mut StdRng, s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '/' => Some("\\/"),
            _ => None,
        };
        match short {
            Some(esc) if rng.gen_bool(0.5) => out.push_str(esc),
            _ if (c as u32) >= 0x20 && c != '"' && c != '\\' && rng.gen_bool(0.5) => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let top = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..top) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(random_num(rng)),
        3 => Json::Str(random_string(rng)),
        4 => {
            let n = rng.gen_range(0..4usize);
            Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4usize);
            let mut map = BTreeMap::new();
            for _ in 0..n {
                map.insert(random_string(rng), random_json(rng, depth - 1));
            }
            Json::Obj(map)
        }
    }
}

/// Structural equality with bit-level number comparison (`PartialEq` on
/// f64 would call -0.0 == 0.0 and miss sign-bit round-trip bugs).
fn bit_eq(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_eq(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && bit_eq(va, vb))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_roundtrips(seed in 0..u64::MAX) {
        let mut rng = proptest::new_rng(seed);
        let v = random_json(&mut rng, 3);
        let text = v.render();
        let back = parse_json(&text).map_err(|e| format!("{text}: {e}"))?;
        prop_assert!(bit_eq(&back, &v), "{} reparsed as {:?}", text, back);
        // Rendering is canonical: a second round-trip is a fixpoint.
        prop_assert_eq!(back.render(), text);
    }

    #[test]
    fn escaped_and_raw_characters_decode_alike(seed in 0..u64::MAX) {
        let mut rng = proptest::new_rng(seed);
        let s = random_string(&mut rng);
        let text = encode_loosely(&mut rng, &s);
        let back = parse_json(&text).map_err(|e| format!("{text}: {e}"))?;
        prop_assert_eq!(back, Json::Str(s), "{}", text);
    }
}

/// Any f64: special values (NaN, ±inf, -0.0, subnormals) or raw bits.
fn random_f64(rng: &mut StdRng) -> f64 {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324];
    match rng.gen_range(0..3u32) {
        0 => specials[rng.gen_range(0..specials.len())],
        1 => f64::from_bits(rng.gen::<u64>()),
        _ => random_num(rng),
    }
}

fn random_interval(rng: &mut StdRng) -> Interval {
    let (a, b) = (random_f64(rng), random_f64(rng));
    if a.is_nan() || b.is_nan() {
        Interval::EMPTY
    } else {
        Interval::new(a.min(b), a.max(b))
    }
}

/// A random report of a random wire-producible kind.
fn random_report(rng: &mut StdRng) -> Report {
    let count = |rng: &mut StdRng| rng.gen_range(0..1usize << 40);
    let (kind, value) = match rng.gen_range(0..5u32) {
        0 => (
            QueryKind::Estimate,
            Value::Estimate(Estimate {
                p_hat: random_f64(rng),
                samples: count(rng),
                half_width: random_f64(rng),
                confidence: random_f64(rng),
            }),
        ),
        1 => (
            QueryKind::Sprt,
            Value::Sprt(SprtResult {
                outcome: [
                    SprtOutcome::AcceptH0,
                    SprtOutcome::AcceptH1,
                    SprtOutcome::Inconclusive,
                ][rng.gen_range(0..3usize)],
                samples: count(rng),
                p_hat: random_f64(rng),
            }),
        ),
        2 => (
            QueryKind::Robustness,
            Value::Robustness(RobustnessSummary {
                p_hat: random_f64(rng),
                mean: random_f64(rng),
                min: random_f64(rng),
            }),
        ),
        3 => (
            QueryKind::Stability,
            Value::Stability(rng.gen::<bool>().then(|| StabilityReport {
                equilibrium: (0..rng.gen_range(0..4)).map(|_| random_f64(rng)).collect(),
                lyapunov: random_string(rng),
                iterations: count(rng),
                certified: rng.gen(),
            })),
        ),
        _ => (
            QueryKind::Lint,
            Value::Lint(
                (0..rng.gen_range(0..3))
                    .map(|_| Diagnostic {
                        code: random_string(rng),
                        severity: [Severity::Error, Severity::Warn, Severity::Info]
                            [rng.gen_range(0..3usize)],
                        site: random_string(rng),
                        message: random_string(rng),
                        expr: rng.gen::<bool>().then(|| random_string(rng)),
                        witness: (0..rng.gen_range(0..3))
                            .map(|_| (random_string(rng), random_interval(rng)))
                            .collect(),
                    })
                    .collect(),
            ),
        ),
    };
    Report {
        kind,
        outcome: [Outcome::Complete, Outcome::Exhausted][rng.gen_range(0..2usize)],
        value,
        provenance: Provenance {
            // Half the seeds sit at or above 2^53 (string-encoded).
            seed: rng.gen::<u64>() >> rng.gen_range(0..12u32),
            samples: count(rng),
            early_stop_rate: random_f64(rng),
            avg_steps: random_f64(rng),
            ..Provenance::default()
        },
    }
}

/// Object fields in the tree: the targets of [`mutate`].
fn fields(v: &Json) -> usize {
    match v {
        Json::Obj(m) => m.len() + m.values().map(fields).sum::<usize>(),
        Json::Arr(items) => items.iter().map(fields).sum(),
        _ => 0,
    }
}

/// Drops (`drop`) or retypes object field `n`, counting an object's own
/// fields before its children's. Returns whether field `n` existed.
fn mutate(v: &mut Json, n: &mut usize, drop: bool) -> bool {
    let children: Vec<&mut Json> = match v {
        Json::Obj(m) if *n < m.len() => {
            let key = m.keys().nth(*n).unwrap().clone();
            let retyped = match m.remove(&key).unwrap() {
                Json::Num(_) => Json::str("1"),
                Json::Str(_) => Json::Num(1.0),
                Json::Null | Json::Bool(_) => Json::Arr(vec![]),
                Json::Arr(_) | Json::Obj(_) => Json::Null,
            };
            if !drop {
                m.insert(key, retyped);
            }
            return true;
        }
        Json::Obj(m) => {
            *n -= m.len();
            m.values_mut().collect()
        }
        Json::Arr(items) => items.iter_mut().collect(),
        _ => return false,
    };
    children.into_iter().any(|c| mutate(c, n, drop))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reports_roundtrip_and_mutated_cache_records_never_panic(seed in 0..u64::MAX) {
        let mut rng = proptest::new_rng(seed);
        let report = random_report(&mut rng);
        let fingerprint = report.fingerprint();
        let text = report_to_json(&report).render();
        let back = report_from_json(&parse_json(&text)?);
        prop_assert_eq!(back.map(|r| r.fingerprint()), Some(fingerprint.clone()), "{}", text);

        // The same report as a cache-log record.
        let rec = CacheRecord {
            key: random_string(&mut rng),
            cost: rng.gen_range(0..1usize << 40),
            memo: Memo::new(report),
        };
        let line = CacheLog::encode_line(&rec).unwrap();
        let back = CacheLog::decode_line(&line).ok_or("record did not decode")?;
        prop_assert_eq!((&back.key, back.cost), (&rec.key, rec.cost));
        prop_assert_eq!(back.memo.report.fingerprint(), fingerprint.clone());

        // Mutations: each is refused, or decodes to the stored report.
        let (checksum, payload) = line.split_once(' ').unwrap();
        let reframe = |p: &str| format!("{} {p}", fingerprint64(p));
        if let Some(torn) = line.get(..rng.gen_range(0..line.len())) {
            prop_assert!(CacheLog::decode_line(torn).is_none(), "torn tail");
        }
        if let Some(cut) = payload.get(..rng.gen_range(0..payload.len())) {
            prop_assert!(CacheLog::decode_line(&reframe(cut)).is_none(), "truncated");
        }
        let mut bytes = payload.as_bytes().to_vec();
        let i = rng.gen_range(0..bytes.len());
        bytes[i] ^= 1 << rng.gen_range(0..8u32);
        if let Ok(flipped) = String::from_utf8(bytes) {
            prop_assert!(CacheLog::decode_line(&format!("{checksum} {flipped}")).is_none());
            if let Some(r) = CacheLog::decode_line(&reframe(&flipped)) {
                prop_assert_eq!(r.memo.report.fingerprint(), fingerprint.clone(), "{}", flipped);
            }
        }
        let mut tree = parse_json(payload)?;
        let mut n = rng.gen_range(0..fields(&tree));
        prop_assert!(mutate(&mut tree, &mut n, rng.gen()));
        if let Some(r) = CacheLog::decode_line(&reframe(&tree.render())) {
            prop_assert_eq!(r.memo.report.fingerprint(), fingerprint.clone(), "{}", tree.render());
        }
        let forged = payload.replacen("\"fingerprint\":\"", "\"fingerprint\":\"~", 1);
        prop_assert!(CacheLog::decode_line(&reframe(&forged)).is_none(), "forged fingerprint");
    }
}
