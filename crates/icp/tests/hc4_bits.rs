//! Pinned HC4 bits: the outcome and the bits of every bound after one
//! `Hc4::contract` and after a `Propagator::fixpoint`, over fixed-seed
//! generated atoms (every unary op, every binary op, negative, even and
//! odd integer powers, shared subterms) and over case-study atoms (the
//! decay and sawtooth reach encodings and the linear2 Lyapunov
//! synthesis and verification constraints). The lines in
//! `fixtures/hc4_bits.txt` are never regenerated by a refactor of the
//! contractor: a changed line means some bound moved, even by one ulp.

use biocheck_expr::{Atom, BinOp, Context, NodeId, RelOp, UnaryOp, VarId};
use biocheck_icp::{Contractor, Hc4, Propagator};
use biocheck_interval::{IBox, Interval};
use std::collections::HashMap;
use std::fmt::Write;

const PINNED: &str = include_str!("../../../fixtures/hc4_bits.txt");

/// SplitMix64, so the generated atoms depend on no library's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

const UNARY: [UnaryOp; 14] = [
    UnaryOp::Neg,
    UnaryOp::Abs,
    UnaryOp::Sqrt,
    UnaryOp::Exp,
    UnaryOp::Ln,
    UnaryOp::Sin,
    UnaryOp::Cos,
    UnaryOp::Tan,
    UnaryOp::Asin,
    UnaryOp::Acos,
    UnaryOp::Atan,
    UnaryOp::Sinh,
    UnaryOp::Cosh,
    UnaryOp::Tanh,
];
const BINARY: [BinOp; 7] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Pow,
    BinOp::Min,
    BinOp::Max,
];
const POWERS: [i32; 7] = [-3, -2, -1, 2, 3, 4, 5];
const RELS: [RelOp; 5] = [RelOp::Gt, RelOp::Ge, RelOp::Eq, RelOp::Le, RelOp::Lt];
const VARS: [&str; 3] = ["x", "y", "z"];

/// A constant on a 1/8 grid, so the arena folds it the same way on
/// every host.
fn constant(cx: &mut Context, rng: &mut Rng) -> NodeId {
    let c = (rng.range(-3.0, 3.0) * 8.0).round() / 8.0;
    cx.constant(c)
}

fn leaf(cx: &mut Context, rng: &mut Rng) -> NodeId {
    if rng.below(3) == 0 {
        constant(cx, rng)
    } else {
        cx.var(VARS[rng.below(VARS.len())])
    }
}

/// A random term of at most `depth` operator levels that mentions a
/// variable.
fn term(cx: &mut Context, rng: &mut Rng, depth: usize) -> NodeId {
    let t = if depth == 0 || rng.below(4) == 0 {
        leaf(cx, rng)
    } else {
        match rng.below(3) {
            0 => {
                let a = term(cx, rng, depth - 1);
                cx.unary(UNARY[rng.below(UNARY.len())], a)
            }
            1 => {
                let a = term(cx, rng, depth - 1);
                let b = term(cx, rng, depth - 1);
                cx.binary(BINARY[rng.below(BINARY.len())], a, b)
            }
            _ => {
                let a = term(cx, rng, depth - 1);
                cx.powi(a, POWERS[rng.below(POWERS.len())])
            }
        }
    };
    if cx.as_const(t).is_some() {
        cx.var(VARS[rng.below(VARS.len())])
    } else {
        t
    }
}

/// The generated terms: for every operator, terms whose root applies it
/// to random subterms, then terms that reuse one subterm twice.
fn generated_terms(cx: &mut Context, rng: &mut Rng) -> Vec<NodeId> {
    let mut terms = Vec::new();
    for op in UNARY {
        for _ in 0..3 {
            let a = term(cx, rng, 2);
            terms.push(cx.unary(op, a));
        }
    }
    for op in BINARY {
        for _ in 0..3 {
            let a = term(cx, rng, 2);
            let b = term(cx, rng, 2);
            terms.push(cx.binary(op, a, b));
        }
    }
    for k in POWERS {
        for _ in 0..2 {
            let a = term(cx, rng, 2);
            terms.push(cx.powi(a, k));
        }
    }
    for _ in 0..12 {
        let s = term(cx, rng, 2);
        let u = cx.unary(UNARY[rng.below(UNARY.len())], s);
        let p = cx.powi(s, POWERS[rng.below(POWERS.len())]);
        let l = cx.binary(BINARY[rng.below(BINARY.len())], s, u);
        terms.push(cx.binary(BINARY[rng.below(BINARY.len())], l, p));
    }
    terms
}

/// `t − c ⋈ 0` with a random relation and `c` inside the graph
/// evaluator's enclosure of `t` on `bx` (when that is bounded), so the
/// root clamp cuts the range and the backward sweep has work to do.
fn atom_on(cx: &mut Context, rng: &mut Rng, t: NodeId, bx: &IBox) -> Atom {
    let e = cx.eval_interval(t, bx);
    let c = if !e.is_empty() && e.is_bounded() {
        e.lo() + rng.range(0.0, 1.0) * (e.hi() - e.lo())
    } else {
        rng.range(-3.0, 3.0)
    };
    let c = cx.constant(c);
    Atom::new(cx.sub(t, c), RELS[rng.below(RELS.len())])
}

/// A random box over x, y, z: mostly mixed-sign, sometimes strictly
/// positive (the domain of `sqrt`, `ln` and `pow`), of widths from a
/// thousandth to about five.
fn random_box(rng: &mut Rng) -> IBox {
    let positive = rng.below(3) == 0;
    IBox::new(
        (0..VARS.len())
            .map(|_| {
                let w = 10f64.powf(rng.range(-3.0, 0.7));
                let lo = if positive {
                    rng.range(0.01, 2.0)
                } else {
                    rng.range(-3.0, 2.0)
                };
                Interval::new(lo, lo + w)
            })
            .collect(),
    )
}

fn bits(bx: &IBox) -> String {
    let mut s = String::new();
    for iv in bx.iter() {
        let _ = write!(s, " {:016x}:{:016x}", iv.lo().to_bits(), iv.hi().to_bits());
    }
    s
}

/// One line per single contraction of `atoms[i]` over `bx`.
fn contract_each(out: &mut String, tag: &str, cx: &Context, atoms: &[Atom], bx: &IBox) {
    for (i, &a) in atoms.iter().enumerate() {
        let mut b = bx.clone();
        let o = Hc4::new(cx, a).contract(&mut b);
        let _ = writeln!(out, "{tag} contract {i} {o:?}{}", bits(&b));
    }
}

/// One line for the fixpoint of all `atoms` over `bx`.
fn fixpoint(out: &mut String, tag: &str, cx: &Context, atoms: &[Atom], bx: &IBox) {
    let hc4s: Vec<Hc4> = atoms.iter().map(|&a| Hc4::new(cx, a)).collect();
    let refs: Vec<&Hc4> = hc4s.iter().collect();
    let mut b = bx.clone();
    let o = Propagator::new().fixpoint(&refs, &mut b);
    let _ = writeln!(out, "{tag} fixpoint {o:?}{}", bits(&b));
}

/// The box and its four quarters from two bisections, widest first.
fn quarters(bx: &IBox) -> Vec<IBox> {
    let (l, r) = bx.bisect();
    let (ll, lr) = l.bisect();
    let (rl, rr) = r.bisect();
    vec![bx.clone(), ll, lr, rl, rr]
}

fn generated(out: &mut String) {
    let mut rng = Rng(0x4843_3462_6974_7321);
    let mut cx = Context::new();
    for v in VARS {
        cx.intern_var(v);
    }
    let terms = generated_terms(&mut cx, &mut rng);
    for (i, &t) in terms.iter().enumerate() {
        for j in 0..4 {
            let bx = random_box(&mut rng);
            let a = atom_on(&mut cx, &mut rng, t, &bx);
            let mut b = bx.clone();
            let o = Hc4::new(&cx, a).contract(&mut b);
            let _ = writeln!(out, "gen {i}.{j} contract {o:?}{}", bits(&b));
        }
    }
    for g in 0..60 {
        let bx = random_box(&mut rng);
        let group: Vec<Atom> = (0..3)
            .map(|_| {
                let t = terms[rng.below(terms.len())];
                atom_on(&mut cx, &mut rng, t, &bx)
            })
            .collect();
        fixpoint(out, &format!("gen group {g}"), &cx, &group, &bx);
    }
}

fn parse_atoms(cx: &mut Context, srcs: &[(&str, RelOp)]) -> Vec<Atom> {
    srcs.iter()
        .map(|&(s, op)| Atom::new(cx.parse(s).unwrap(), op))
        .collect()
}

/// x' = −k·x from x = 1 to the goal x ≤ 0.5 within 5, with the flow in
/// closed form.
fn decay(out: &mut String) {
    let mut cx = Context::new();
    for v in ["k", "x0", "xe", "tau"] {
        cx.intern_var(v);
    }
    let atoms = parse_atoms(
        &mut cx,
        &[
            ("x0 - 1", RelOp::Eq),
            ("xe - x0*exp(-k*tau)", RelOp::Eq),
            ("0.5 - xe", RelOp::Ge),
            ("tau", RelOp::Ge),
            ("tau - 5", RelOp::Le),
        ],
    );
    let init = IBox::new(vec![
        Interval::new(0.1, 2.0),
        Interval::new(0.0, 2.0),
        Interval::new(0.0, 2.0),
        Interval::new(0.0, 5.0),
    ]);
    for (q, bx) in quarters(&init).iter().enumerate() {
        let tag = format!("decay {q}");
        contract_each(out, &tag, &cx, &atoms, bx);
        fixpoint(out, &tag, &cx, &atoms, bx);
    }
}

/// The sawtooth x ↑ 5, x ↓ 1 unrolled one jump deep, goal x ≤ 3 in
/// mode `fall`, flows in closed form.
fn sawtooth(out: &mut String) {
    let mut cx = Context::new();
    for v in ["x0", "x0e", "tau0", "x1", "x1e", "tau1"] {
        cx.intern_var(v);
    }
    let atoms = parse_atoms(
        &mut cx,
        &[
            ("x0 - 1", RelOp::Eq),
            ("x0e - (x0 + tau0)", RelOp::Eq),
            ("x0e - 5", RelOp::Ge),
            ("x1 - x0e", RelOp::Eq),
            ("x1e - (x1 - tau1)", RelOp::Eq),
            ("1 - x1e", RelOp::Lt),
            ("3 - x1e", RelOp::Ge),
            ("tau0 + tau1 - 6", RelOp::Le),
        ],
    );
    let x = Interval::new(-10.0, 10.0);
    let t = Interval::new(0.0, 6.0);
    let init = IBox::new(vec![x, x, t, x, x, t]);
    for (q, bx) in quarters(&init).iter().enumerate() {
        let tag = format!("sawtooth {q}");
        contract_each(out, &tag, &cx, &atoms, bx);
        fixpoint(out, &tag, &cx, &atoms, bx);
    }
}

/// linear2 (x' = −x + y, y' = −2y): the quadratic template's V and V̇ as
/// the Lyapunov synthesizer builds them, its synthesis constraints at
/// the seed counterexamples, and its verification constraints at the
/// certified coefficients over the annulus 0.1 ≤ ‖x‖∞ ≤ 0.4.
fn linear2(out: &mut String) {
    let mut cx = Context::new();
    let x = cx.intern_var("x");
    let y = cx.intern_var("y");
    let fx = cx.parse("-x + y").unwrap();
    let fy = cx.parse("-2*y").unwrap();
    let states = [x, y];
    let mut monomials = Vec::new();
    for i in 0..2 {
        for j in i..2 {
            let a = cx.var_node(states[i]);
            let b = cx.var_node(states[j]);
            monomials.push(cx.mul(a, b));
        }
    }
    let coeffs: Vec<VarId> = (0..3).map(|i| cx.intern_var(&format!("c{i}"))).collect();
    let terms: Vec<NodeId> = monomials
        .iter()
        .zip(&coeffs)
        .map(|(&m, &c)| {
            let cn = cx.var_node(c);
            cx.mul(cn, m)
        })
        .collect();
    let v = cx.sum(&terms);
    let dots: Vec<NodeId> = states
        .iter()
        .zip([fx, fy])
        .map(|(&s, f)| {
            let g = cx.diff(v, s);
            cx.mul(g, f)
        })
        .collect();
    let vdot = cx.sum(&dots);

    // Synthesis: V ≥ m and V̇ ≤ −m at each seed point, m = 0.05‖p‖².
    let (r_min, r_max) = (0.1, 0.4);
    let mut points = Vec::new();
    for i in 0..2 {
        for sign in [-1.0, 1.0] {
            let mut p = [0.0; 2];
            p[i] = sign * r_max;
            points.push(p);
            p[i] = sign * r_min;
            points.push(p);
        }
    }
    for mask in 0..4 {
        points.push([0, 1].map(|i| if mask >> i & 1 == 1 { r_max } else { -r_max }));
    }
    let mut synth = Vec::new();
    for p in &points {
        let map: HashMap<VarId, NodeId> = states
            .iter()
            .zip(p)
            .map(|(&s, &c)| (s, cx.constant(c)))
            .collect();
        let v_at = cx.subst(v, &map);
        let vd_at = cx.subst(vdot, &map);
        let m = 0.05 * (p[0] * p[0] + p[1] * p[1]);
        let pos = cx.constant(m);
        let neg = cx.constant(-m);
        synth.push(Atom::ge(&mut cx, v_at, pos));
        synth.push(Atom::le(&mut cx, vd_at, neg));
    }
    let mut coeff_box = IBox::uniform(cx.num_vars(), Interval::ZERO);
    for c in &coeffs {
        coeff_box[c.index()] = Interval::new(-1.0, 1.0);
    }
    for (q, bx) in quarters(&coeff_box).iter().enumerate() {
        let tag = format!("linear2 synth {q}");
        contract_each(out, &tag, &cx, &synth, bx);
        fixpoint(out, &tag, &cx, &synth, bx);
    }

    // Verification: V ≤ 0 or V̇ ≥ 0 somewhere on each annulus face.
    let map: HashMap<VarId, NodeId> = coeffs
        .iter()
        .zip([0.3303, -0.7347, 0.6438])
        .map(|(&c, k)| (c, cx.constant(k)))
        .collect();
    let v_fixed = cx.subst(v, &map);
    let vd_fixed = cx.subst(vdot, &map);
    let verify = [
        Atom::new(v, RelOp::Le),
        Atom::new(vdot, RelOp::Ge),
        Atom::new(v_fixed, RelOp::Le),
        Atom::new(vd_fixed, RelOp::Ge),
    ];
    for d in 0..2 {
        for sign in [-1.0, 1.0] {
            let mut bx = IBox::uniform(cx.num_vars(), Interval::ZERO);
            for (i, s) in states.iter().enumerate() {
                bx[s.index()] = if i != d {
                    Interval::new(-r_max, r_max)
                } else if sign > 0.0 {
                    Interval::new(r_min, r_max)
                } else {
                    Interval::new(-r_max, -r_min)
                };
            }
            for c in &coeffs {
                bx[c.index()] = Interval::new(-1.0, 1.0);
            }
            for (q, b) in quarters(&bx).iter().enumerate() {
                let tag = format!("linear2 verify {d}{sign} {q}");
                contract_each(out, &tag, &cx, &verify, b);
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    generated(&mut out);
    decay(&mut out);
    sawtooth(&mut out);
    linear2(&mut out);
    out
}

#[test]
fn hc4_contractions_match_the_pinned_bits() {
    let got = render();
    if got != PINNED {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hc4_bits.txt");
        let _ = std::fs::write(&path, &got);
        for (n, (g, w)) in got.lines().zip(PINNED.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "line {} drifted from fixtures/hc4_bits.txt (rendering in {})",
                n + 1,
                path.display()
            );
        }
        panic!(
            "{} lines rendered, {} pinned (rendering in {})",
            got.lines().count(),
            PINNED.lines().count(),
            path.display()
        );
    }
}
