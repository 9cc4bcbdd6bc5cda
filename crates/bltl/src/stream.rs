//! Streaming BLTL monitoring: a [`Bltl`] formula compiled once into a
//! flat monitor plan, evaluated incrementally sample-by-sample.
//!
//! The offline [`Monitor`](crate::Monitor) recurses over the formula and
//! allocates one value vector per subformula per call. This module
//! instead compiles the formula into a [`CompiledBltl`] — a table of
//! subformula operations plus **one** multi-root
//! [`Program`] evaluating every atom term in a single
//! sweep — and evaluates it through a reusable [`MonitorScratch`]:
//!
//! * [`CompiledBltl::feed`] consumes one `(t, state)` sample and returns
//!   a three-valued [`Verdict`]; `True`/`False` mean the Boolean verdict
//!   at the start of the trace is already decided *no matter how the
//!   trajectory continues*, so a simulation loop can stop integrating
//!   (bounded operators decide as early as their semantics allow).
//! * [`CompiledBltl::feed_lanes`] feeds `K` traces at once, one sample
//!   each from `[state][lane]` rows: one [`Program::eval_lanes`] sweep
//!   computes every atom term of every lane, then one of two evaluators
//!   advances the lanes. `feed` is its `K = 1` instance, so a lane's
//!   verdicts are the ones it would get alone.
//! * [`CompiledBltl::finish_bool`] / [`CompiledBltl::finish_robustness`]
//!   finalize end-of-trace semantics; satisfaction and quantitative
//!   robustness come out of the same single pass over the samples and
//!   are bit-for-bit identical to the offline monitor (property-tested
//!   in `tests/stream_prop.rs`).
//!
//! The plan's shape alone picks the evaluator:
//!
//! * **Flat plans** — no `Until` has an `Until` in either operand
//!   (temporal depth one: bounded `F`, `G` and `U` over state
//!   predicates, under any Boolean combination, plus atoms read at the
//!   first sample). Every `Until` is evaluated at the first sample only,
//!   and its operands are decided at each sample as it arrives. So the
//!   lanes advance together: each operand becomes a bit mask over the
//!   lanes, each `Until` keeps two masks (decided true, decided false)
//!   and, for lanes that keep robustness, its running `best` and
//!   `prefix` and whether its bound has passed; the root verdict is a
//!   pair of masks by Kleene logic. The state is constant per lane
//!   whatever the trace length: first and last time, sample count and
//!   the first sample's atom margins.
//! * **Nested plans** run on one arena per lane: its sample times, atom
//!   margins, memoized subformula verdicts and robustness values, and
//!   per start sample and `Until` the scan frontier, resumed on demand.
//!   A trace begun without robustness ([`CompiledBltl::begin_lane`])
//!   keeps only the Boolean arenas.
//!
//! Both fold robustness in the order of the offline monitor and decide
//! at the same sample. After warm-up (one trace through a given plan),
//! the whole begin/feed/finish cycle performs zero heap allocations —
//! enforced by the counting-allocator test `tests/alloc.rs`.

use crate::Bltl;
use biocheck_expr::{Context, EvalScratch, NodeId, Program, RelOp, VarId};
use biocheck_ode::Trace;

/// Three-valued outcome of incremental monitoring.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The property holds at the start of the trace, whatever follows.
    True,
    /// The property is violated at the start of the trace, whatever
    /// follows.
    False,
    /// The observed prefix does not determine the verdict yet.
    Undecided,
}

impl Verdict {
    /// Logical negation (Kleene).
    fn not(self) -> Verdict {
        match self {
            Verdict::True => Verdict::False,
            Verdict::False => Verdict::True,
            Verdict::Undecided => Verdict::Undecided,
        }
    }

    /// `true` when the verdict is no longer [`Verdict::Undecided`].
    pub fn decided(self) -> bool {
        self != Verdict::Undecided
    }

    fn from_bool(b: bool) -> Verdict {
        if b {
            Verdict::True
        } else {
            Verdict::False
        }
    }
}

/// One subformula of the compiled plan. Children are indices into the
/// plan's operation table (always smaller than the node's own index).
#[derive(Clone, Debug)]
enum PlanOp {
    /// An atomic proposition: index into the margin table.
    Prop(u32),
    /// Negation.
    Not(u32),
    /// Conjunction (empty = the constant *true*).
    And(Vec<u32>),
    /// Disjunction (empty = the constant *false*).
    Or(Vec<u32>),
    /// Time-bounded until; `uidx` selects this node's scan-state slot.
    Until {
        lhs: u32,
        rhs: u32,
        bound: f64,
        uidx: u32,
    },
}

/// A [`Bltl`] formula compiled for streaming evaluation: flat subformula
/// table plus a single multi-root [`Program`] computing every distinct
/// atom term in one evaluation sweep per sample.
///
/// The plan is immutable and shareable across threads; all per-trace
/// state lives in a [`MonitorScratch`].
#[derive(Clone, Debug)]
pub struct CompiledBltl {
    /// Operations in child-before-parent order; the root is last.
    ops: Vec<PlanOp>,
    /// Per atom: (program output index, relation) — the margin transform.
    atoms: Vec<(u32, RelOp)>,
    /// All distinct atom terms as one compiled multi-root program.
    prog: Program,
    /// State variables, fixing the order of `feed`'s `state` slice.
    states: Vec<VarId>,
    /// Environment width (`Context::num_vars` at compile time).
    env_len: usize,
    /// Number of `Until` nodes (scan-state slots).
    n_untils: usize,
    /// `Some` for a flat plan (no `Until` has an `Until` in either
    /// operand), holding per op whether it lies in an `Until` operand and
    /// so is evaluated at every sample, not only at the first. `None`
    /// for a nested plan, which runs on the per-lane arenas.
    flat: Option<Vec<bool>>,
}

/// Reusable evaluation workspace for a [`CompiledBltl`] monitoring one
/// trace per lane: the lanes' environment and atom-term buffers, and the
/// state of the evaluator the plan's shape picks (see the module docs):
/// for a flat plan, lane masks and constant state per lane
/// ([`CompiledBltl::feed_lanes`] takes at most 64 lanes); for a nested
/// plan, one arena per lane of sample times, atom margins, memoized
/// subformula verdicts/robustness values and the per-`Until` incremental
/// scan state. One scratch serves the one-trace entry points (lane 0 of
/// one) and [`CompiledBltl::feed_lanes`] alike, and any plan after any
/// other. All buffers keep their high-water-mark capacity across traces,
/// so steady-state monitoring is allocation-free.
#[derive(Clone, Debug, Default)]
pub struct MonitorScratch {
    /// Evaluation environment, `[var][lane]`: each lane's parameters,
    /// loaded at `begin`, with the fed states scribbled over them.
    env: Vec<f64>,
    /// The lane count `env` and `out` are laid out for.
    lanes: usize,
    /// Expression-evaluation buffers.
    eval: EvalScratch,
    /// Program outputs, `[atom term][lane]`.
    out: Vec<f64>,
    /// Whether the lanes were begun with a flat plan, so `flat` holds
    /// them rather than `arenas`.
    is_flat: bool,
    /// The flat evaluator's lane-wide state.
    flat: Flat,
    /// The nested evaluator's arena per lane.
    arenas: Vec<Arena>,
}

/// The flat evaluator's state. Lane masks hold one bit per lane;
/// `[x][lane]` tables are rows of one value per lane.
#[derive(Clone, Debug, Default)]
struct Flat {
    /// Per lane: the first and last sample time, and the sample count.
    first_t: Vec<f64>,
    last_t: Vec<f64>,
    count: Vec<usize>,
    /// The lanes that keep robustness.
    robust: u64,
    /// Atom margins `[atom][lane]` at the sample being fed.
    margins: Vec<f64>,
    /// Atom margins `[atom][lane]` at each lane's first sample.
    first: Vec<f64>,
    /// Per `Until`: the lanes where it is decided true, decided false,
    /// and where its robustness scan passed the bound.
    holds: Vec<u64>,
    fails: Vec<u64>,
    closed: Vec<u64>,
    /// Per `Until`, `[until][lane]`: running `max_j min(prefix, rhs_j)`
    /// and `min_j lhs_j`.
    best: Vec<f64>,
    prefix: Vec<f64>,
    /// Per op, the lanes where it is true and where it is false at the
    /// sample being fed (written anew by each feed).
    kleene: Vec<(u64, u64)>,
    /// Robustness `[op][lane]` of every op in an `Until` operand at the
    /// sample being fed (written anew by each feed that has a lane
    /// keeping robustness).
    rob: Vec<f64>,
}

/// One trace's monitoring state.
#[derive(Clone, Debug, Default)]
struct Arena {
    /// Sample times.
    times: Vec<f64>,
    /// Margins, flat `[sample * n_atoms + atom]`.
    margins: Vec<f64>,
    /// Memoized Boolean verdict, flat `[sample * n_ops + op]`.
    bval: Vec<Verdict>,
    /// Is the robustness value at `[sample * n_ops + op]` final?
    rknown: Vec<bool>,
    /// Memoized robustness value, flat `[sample * n_ops + op]`.
    rval: Vec<f64>,
    /// Per start sample and until, flat `[sample * n_untils + until]`:
    /// next sample its Boolean scan reads.
    bfrontier: Vec<usize>,
    /// Next sample the robustness scan reads, flat like `bfrontier`.
    rfrontier: Vec<usize>,
    /// Running `max_j min(prefix, rhs_j)`, flat like `bfrontier`.
    rbest: Vec<f64>,
    /// Running `min_j lhs_j`, flat like `bfrontier`.
    rprefix: Vec<f64>,
    /// Whether the trace keeps robustness: without it, the five `r*`
    /// arenas stay empty.
    robust: bool,
    /// Whether the trace has ended (end-of-trace semantics apply).
    ended: bool,
}

impl MonitorScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> MonitorScratch {
        MonitorScratch::default()
    }

    /// Number of samples fed since the last [`CompiledBltl::begin`].
    pub fn samples(&self) -> usize {
        self.lane_samples(0)
    }

    /// Number of samples fed to `lane` since its last
    /// [`CompiledBltl::begin_lane`].
    pub fn lane_samples(&self, lane: usize) -> usize {
        if self.is_flat {
            self.flat.count[lane]
        } else {
            self.arenas[lane].times.len()
        }
    }
}

impl CompiledBltl {
    /// Compiles `f` over the given state layout. Atom terms are
    /// deduplicated and compiled into one multi-root [`Program`];
    /// repeated subformula *occurrences* still monitor independently (the
    /// formula is a tree, not a DAG). The plan is flat when no `Until`
    /// has an `Until` in either operand.
    pub fn compile(cx: &Context, states: &[VarId], f: &Bltl) -> CompiledBltl {
        let mut ops = Vec::new();
        let mut roots: Vec<NodeId> = Vec::new();
        let mut root_of: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
        let mut atoms: Vec<(u32, RelOp)> = Vec::new();
        let mut atom_of: std::collections::HashMap<(NodeId, RelOp), u32> =
            std::collections::HashMap::new();
        let mut n_untils = 0usize;
        Self::lower(
            f,
            &mut ops,
            &mut roots,
            &mut root_of,
            &mut atoms,
            &mut atom_of,
            &mut n_untils,
        );
        CompiledBltl {
            flat: Self::flat_shape(&ops),
            ops,
            atoms,
            prog: Program::compile(cx, &roots),
            states: states.to_vec(),
            env_len: cx.num_vars(),
            n_untils,
        }
    }

    /// Per op, whether it lies in an `Until` operand, or `None` when an
    /// `Until` does (the plan is nested). Parents come after their
    /// children, and each op has one parent.
    fn flat_shape(ops: &[PlanOp]) -> Option<Vec<bool>> {
        let mut sampled = vec![false; ops.len()];
        for o in (0..ops.len()).rev() {
            match &ops[o] {
                PlanOp::Prop(_) => {}
                PlanOp::Not(c) => sampled[*c as usize] = sampled[o],
                PlanOp::And(cs) | PlanOp::Or(cs) => {
                    for &c in cs {
                        sampled[c as usize] = sampled[o];
                    }
                }
                PlanOp::Until { lhs, rhs, .. } => {
                    if sampled[o] {
                        return None;
                    }
                    sampled[*lhs as usize] = true;
                    sampled[*rhs as usize] = true;
                }
            }
        }
        Some(sampled)
    }

    /// Post-order lowering; returns the new node's op index.
    fn lower(
        f: &Bltl,
        ops: &mut Vec<PlanOp>,
        roots: &mut Vec<NodeId>,
        root_of: &mut std::collections::HashMap<NodeId, u32>,
        atoms: &mut Vec<(u32, RelOp)>,
        atom_of: &mut std::collections::HashMap<(NodeId, RelOp), u32>,
        n_untils: &mut usize,
    ) -> u32 {
        let op = match f {
            Bltl::Prop(a) => {
                let aidx = *atom_of.entry((a.expr, a.op)).or_insert_with(|| {
                    let ridx = *root_of.entry(a.expr).or_insert_with(|| {
                        roots.push(a.expr);
                        (roots.len() - 1) as u32
                    });
                    atoms.push((ridx, a.op));
                    (atoms.len() - 1) as u32
                });
                PlanOp::Prop(aidx)
            }
            Bltl::Not(g) => PlanOp::Not(Self::lower(
                g, ops, roots, root_of, atoms, atom_of, n_untils,
            )),
            Bltl::And(gs) => PlanOp::And(
                gs.iter()
                    .map(|g| Self::lower(g, ops, roots, root_of, atoms, atom_of, n_untils))
                    .collect(),
            ),
            Bltl::Or(gs) => PlanOp::Or(
                gs.iter()
                    .map(|g| Self::lower(g, ops, roots, root_of, atoms, atom_of, n_untils))
                    .collect(),
            ),
            Bltl::Until { lhs, rhs, bound } => {
                let l = Self::lower(lhs, ops, roots, root_of, atoms, atom_of, n_untils);
                let r = Self::lower(rhs, ops, roots, root_of, atoms, atom_of, n_untils);
                let uidx = *n_untils as u32;
                *n_untils += 1;
                PlanOp::Until {
                    lhs: l,
                    rhs: r,
                    bound: *bound,
                    uidx,
                }
            }
        };
        ops.push(op);
        (ops.len() - 1) as u32
    }

    /// Whether the plan is flat — no `Until` has an `Until` in either
    /// operand — and so runs on the lane-mask evaluator (see the module
    /// docs).
    pub fn is_flat(&self) -> bool {
        self.flat.is_some()
    }

    /// Environment width expected by [`CompiledBltl::begin`].
    pub fn env_len(&self) -> usize {
        self.env_len
    }

    /// Starts monitoring a new trace: resets `s` (keeping buffer
    /// capacity) and loads the parameter environment. The `K = 1`
    /// instance of [`CompiledBltl::begin_lane`], keeping robustness.
    pub fn begin(&self, s: &mut MonitorScratch, env: &[f64]) {
        self.begin_lane::<1>(s, 0, env, true);
    }

    /// Starts monitoring a new trace in `lane` of `K`: resets the lane's
    /// state (keeping buffer capacity) and loads its parameter
    /// environment, zero-extended to [`CompiledBltl::env_len`]. Without
    /// `robustness`, the trace keeps only what its Boolean verdict
    /// reads; its verdicts are the same, and
    /// [`CompiledBltl::finish_robustness_lane`] refuses it. Begin every
    /// lane of a scratch with the same `K` and plan.
    ///
    /// # Panics
    ///
    /// Panics when `lane >= K`, or when the plan is flat and `K > 64`.
    pub fn begin_lane<const K: usize>(
        &self,
        s: &mut MonitorScratch,
        lane: usize,
        env: &[f64],
        robustness: bool,
    ) {
        assert!(lane < K, "lane {lane} of {K}");
        let (vars, roots) = (self.env_len * K, self.prog.num_roots() * K);
        if s.lanes != K || s.env.len() != vars || s.out.len() != roots {
            s.lanes = K;
            s.env.clear();
            s.env.resize(vars, 0.0);
            s.out.clear();
            s.out.resize(roots, 0.0);
        }
        let rows = s.env.as_chunks_mut::<K>().0;
        for (row, &v) in rows
            .iter_mut()
            .zip(env.iter().chain(std::iter::repeat(&0.0)))
        {
            row[lane] = v;
        }
        s.is_flat = self.flat.is_some();
        if s.is_flat {
            self.begin_flat::<K>(&mut s.flat, lane, robustness);
            return;
        }
        if s.arenas.len() < K {
            s.arenas.resize_with(K, Arena::default);
        }
        let a = &mut s.arenas[lane];
        a.times.clear();
        a.margins.clear();
        a.bval.clear();
        a.rknown.clear();
        a.rval.clear();
        a.bfrontier.clear();
        a.rfrontier.clear();
        a.rbest.clear();
        a.rprefix.clear();
        a.robust = robustness;
        a.ended = false;
    }

    /// [`CompiledBltl::begin_lane`]'s reset for a flat plan: lays `f`
    /// out for this plan at `K` lanes and clears `lane`.
    fn begin_flat<const K: usize>(&self, f: &mut Flat, lane: usize, robustness: bool) {
        assert!(K <= 64, "a flat plan monitors at most 64 lanes, not {K}");
        let (atoms, ops, untils) = (self.atoms.len(), self.ops.len(), self.n_untils);
        f.first_t.resize(K, 0.0);
        f.last_t.resize(K, 0.0);
        f.count.resize(K, 0);
        f.margins.resize(atoms * K, 0.0);
        f.first.resize(atoms * K, 0.0);
        f.holds.resize(untils, 0);
        f.fails.resize(untils, 0);
        f.closed.resize(untils, 0);
        f.best.resize(untils * K, 0.0);
        f.prefix.resize(untils * K, 0.0);
        f.kleene.resize(ops, (0, 0));
        f.rob.resize(ops * K, 0.0);
        let bit = 1u64 << lane;
        f.count[lane] = 0;
        f.robust = if robustness {
            f.robust | bit
        } else {
            f.robust & !bit
        };
        for u in 0..untils {
            f.holds[u] &= !bit;
            f.fails[u] &= !bit;
            f.closed[u] &= !bit;
            f.best[u * K + lane] = f64::NEG_INFINITY;
            f.prefix[u * K + lane] = f64::INFINITY;
        }
    }

    /// Feeds one sample and returns the current verdict of the formula
    /// at the *start* of the trace. `True`/`False` are final: the
    /// Boolean verdict on any extension of this prefix — in particular
    /// on the full trajectory — is the same, so integration can stop.
    /// The `K = 1` instance of [`CompiledBltl::feed_lanes`].
    ///
    /// # Panics
    ///
    /// Panics when `state` is shorter than the compiled state layout or
    /// when fed non-increasing times.
    pub fn feed(&self, s: &mut MonitorScratch, t: f64, state: &[f64]) -> Verdict {
        let [v] = self.feed_lanes::<1>(s, &[true], &[t], state.as_chunks().0);
        v
    }

    /// Feeds one sample to each lane `l` with `mask[l]` set: time `t[l]`
    /// and state `y[i][l]`, laid out `[state][lane]` in the compiled
    /// state order. The states of all lanes go into the lanes'
    /// environment, one [`Program::eval_lanes`] sweep computes every
    /// atom term of every lane, and only then do the masked lanes
    /// advance: a flat plan's all at once, a nested plan's each in its
    /// own arena, pushing its margins and resuming its `Until` scans.
    /// Entry `l` of the result
    /// is lane `l`'s verdict, as [`CompiledBltl::feed`] returns it;
    /// masked-off lanes read [`Verdict::Undecided`] and are untouched.
    ///
    /// # Panics
    ///
    /// Panics when the scratch was begun for another lane count, when a
    /// masked lane was never begun, when `y` has fewer rows than the
    /// compiled state layout, or when a lane is fed non-increasing times.
    pub fn feed_lanes<const K: usize>(
        &self,
        s: &mut MonitorScratch,
        mask: &[bool; K],
        t: &[f64; K],
        y: &[[f64; K]],
    ) -> [Verdict; K] {
        assert_eq!(s.lanes, K, "the scratch was begun for {} lanes", s.lanes);
        assert!(y.len() >= self.states.len(), "a state per compiled state");
        let env = s.env.as_chunks_mut::<K>().0;
        for (&v, row) in self.states.iter().zip(y) {
            env[v.index()] = *row;
        }
        let out = s.out.as_chunks_mut::<K>().0;
        // One program sweep computes every distinct atom term of every
        // lane.
        self.prog.eval_lanes(env, &mut s.eval, out);
        if let Some(sampled) = &self.flat {
            return self.feed_flat(sampled, &mut s.flat, mask, t, out);
        }
        let mut verdicts = [Verdict::Undecided; K];
        for (l, v) in verdicts.iter_mut().enumerate() {
            if mask[l] {
                *v = self.push(&mut s.arenas[l], t[l], out, l);
            }
        }
        verdicts
    }

    /// Appends lane `l`'s sample at `t`, its atom terms in `out`, to its
    /// arena `a`, and returns the lane's verdict.
    fn push<const K: usize>(&self, a: &mut Arena, t: f64, out: &[[f64; K]], l: usize) -> Verdict {
        // A full assert, not a debug_assert: out-of-order times would
        // silently corrupt the bound checks of every `Until` scan, and
        // one compare per sample is noise next to the program sweep.
        assert!(
            a.times.last().is_none_or(|&last| last < t),
            "samples must arrive in strictly increasing time order"
        );
        for &(ridx, op) in &self.atoms {
            a.margins.push(margin(out[ridx as usize][l], op));
        }
        let j = a.times.len();
        a.times.push(t);
        let (ops, untils) = ((j + 1) * self.ops.len(), (j + 1) * self.n_untils);
        a.bval.resize(ops, Verdict::Undecided);
        a.bfrontier.resize(untils, j);
        if a.robust {
            a.rknown.resize(ops, false);
            a.rval.resize(ops, 0.0);
            a.rfrontier.resize(untils, j);
            a.rbest.resize(untils, f64::NEG_INFINITY);
            a.rprefix.resize(untils, f64::INFINITY);
        }
        self.eval_b(a, self.ops.len() - 1, 0)
    }

    /// The flat evaluator's feed: advances the lanes set in `mask` by
    /// their sample at `t`, their atom terms in `out`, and returns their
    /// verdicts. Each op's verdict on all lanes is a pair of lane masks
    /// (true, false), taken in child-before-parent order; an `Until`
    /// first resumes its scan on the lanes it has not decided, with its
    /// operands' masks at this sample: bound first, then the witness,
    /// then the prefix, as the offline scan does.
    fn feed_flat<const K: usize>(
        &self,
        sampled: &[bool],
        f: &mut Flat,
        mask: &[bool; K],
        t: &[f64; K],
        out: &[[f64; K]],
    ) -> [Verdict; K] {
        let margins = f.margins.as_chunks_mut::<K>().0;
        for (row, &(ridx, op)) in margins.iter_mut().zip(&self.atoms) {
            *row = out[ridx as usize].map(|v| margin(v, op));
        }
        let first = f.first.as_chunks_mut::<K>().0;
        let fed = lanes::<K>(|l| mask[l]);
        for l in each_lane(fed) {
            if f.count[l] == 0 {
                f.first_t[l] = t[l];
                for (f0, m) in first.iter_mut().zip(margins.iter()) {
                    f0[l] = m[l];
                }
            } else {
                assert!(
                    f.last_t[l] < t[l],
                    "samples must arrive in strictly increasing time order"
                );
            }
            f.last_t[l] = t[l];
            f.count[l] += 1;
        }
        let robust = fed & f.robust;
        let rob = f.rob.as_chunks_mut::<K>().0;
        for (o, op) in self.ops.iter().enumerate() {
            let (done, rest) = rob.split_at_mut(o);
            let row = &mut rest[0];
            let rows = robust != 0 && sampled[o];
            f.kleene[o] = match op {
                &PlanOp::Prop(a) => {
                    let m = if sampled[o] {
                        &margins[a as usize]
                    } else {
                        &first[a as usize]
                    };
                    if rows {
                        *row = *m;
                    }
                    let holds = lanes::<K>(|l| m[l] >= 0.0);
                    (holds, !holds)
                }
                &PlanOp::Not(c) => {
                    if rows {
                        *row = done[c as usize].map(|v| -v);
                    }
                    let (yes, no) = f.kleene[c as usize];
                    (no, yes)
                }
                PlanOp::And(cs) => {
                    if rows {
                        *row = [f64::INFINITY; K];
                        for &c in cs {
                            for (acc, &v) in row.iter_mut().zip(&done[c as usize]) {
                                *acc = acc.min(v);
                            }
                        }
                    }
                    cs.iter().fold((!0, 0), |(yes, no), &c| {
                        let (cy, cn) = f.kleene[c as usize];
                        (yes & cy, no | cn)
                    })
                }
                PlanOp::Or(cs) => {
                    if rows {
                        *row = [f64::NEG_INFINITY; K];
                        for &c in cs {
                            for (acc, &v) in row.iter_mut().zip(&done[c as usize]) {
                                *acc = acc.max(v);
                            }
                        }
                    }
                    cs.iter().fold((0, !0), |(yes, no), &c| {
                        let (cy, cn) = f.kleene[c as usize];
                        (yes | cy, no & cn)
                    })
                }
                &PlanOp::Until {
                    lhs,
                    rhs,
                    bound,
                    uidx,
                } => {
                    let (lhs, rhs, u) = (lhs as usize, rhs as usize, uidx as usize);
                    let expired = lanes::<K>(|l| t[l] - f.first_t[l] > bound);
                    let open = fed & !(f.holds[u] | f.fails[u]);
                    let (witness, prefix) = (f.kleene[rhs].0, f.kleene[lhs].0);
                    let live = open & !expired;
                    f.holds[u] |= live & witness;
                    f.fails[u] |= (open & expired) | (live & !witness & !prefix);
                    let scan = robust & !f.closed[u];
                    f.closed[u] |= scan & expired;
                    for l in each_lane(scan & !expired) {
                        let i = u * K + l;
                        f.best[i] = f.best[i].max(f.prefix[i].min(done[rhs][l]));
                        f.prefix[i] = f.prefix[i].min(done[lhs][l]);
                    }
                    (f.holds[u], f.fails[u])
                }
            };
        }
        let (yes, no) = f.kleene[self.ops.len() - 1];
        let mut verdicts = [Verdict::Undecided; K];
        for l in each_lane(fed & (yes | no)) {
            verdicts[l] = Verdict::from_bool(yes >> l & 1 == 1);
        }
        verdicts
    }

    /// The flat evaluator's end-of-trace Boolean verdict of op `node` (at
    /// the first sample, with no `Until` below it) in `lane`: an `Until`
    /// not decided true is false.
    fn flat_sat(&self, f: &Flat, node: usize, lane: usize) -> bool {
        match &self.ops[node] {
            &PlanOp::Prop(a) => f.first[a as usize * f.count.len() + lane] >= 0.0,
            &PlanOp::Not(c) => !self.flat_sat(f, c as usize, lane),
            PlanOp::And(cs) => cs.iter().all(|&c| self.flat_sat(f, c as usize, lane)),
            PlanOp::Or(cs) => cs.iter().any(|&c| self.flat_sat(f, c as usize, lane)),
            &PlanOp::Until { uidx, .. } => f.holds[uidx as usize] >> lane & 1 == 1,
        }
    }

    /// The flat evaluator's end-of-trace robustness of op `node` in
    /// `lane`, folded like the offline `rob_vec`.
    fn flat_rob(&self, f: &Flat, node: usize, lane: usize) -> f64 {
        let k = f.count.len();
        match &self.ops[node] {
            &PlanOp::Prop(a) => f.first[a as usize * k + lane],
            &PlanOp::Not(c) => -self.flat_rob(f, c as usize, lane),
            PlanOp::And(cs) => cs.iter().fold(f64::INFINITY, |acc, &c| {
                acc.min(self.flat_rob(f, c as usize, lane))
            }),
            PlanOp::Or(cs) => cs.iter().fold(f64::NEG_INFINITY, |acc, &c| {
                acc.max(self.flat_rob(f, c as usize, lane))
            }),
            &PlanOp::Until { uidx, .. } => f.best[uidx as usize * k + lane],
        }
    }

    /// Ends the trace and returns the Boolean verdict (end-of-trace
    /// semantics: an `Until` still waiting for a witness is false). The
    /// result equals [`Monitor::check`](crate::Monitor::check) on the
    /// full trace bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when no sample was fed.
    pub fn finish_bool(&self, s: &mut MonitorScratch) -> bool {
        self.finish_bool_lane(s, 0)
    }

    /// [`CompiledBltl::finish_bool`] for the trace in `lane`.
    ///
    /// # Panics
    ///
    /// Panics when no sample was fed to the lane.
    pub fn finish_bool_lane(&self, s: &mut MonitorScratch, lane: usize) -> bool {
        if self.flat.is_some() {
            assert!(s.flat.count[lane] > 0, "finish before any sample");
            return self.flat_sat(&s.flat, self.ops.len() - 1, lane);
        }
        let a = &mut s.arenas[lane];
        assert!(!a.times.is_empty(), "finish before any sample");
        a.ended = true;
        match self.eval_b(a, self.ops.len() - 1, 0) {
            Verdict::True => true,
            Verdict::False => false,
            Verdict::Undecided => unreachable!("ended traces always decide"),
        }
    }

    /// Ends the trace and returns the quantitative robustness at the
    /// first sample, bit-for-bit equal to
    /// [`Monitor::robustness`](crate::Monitor::robustness) on the full
    /// trace. Both `finish_*` calls may be made on the same trace (the
    /// Boolean and robustness streams are independent).
    ///
    /// # Panics
    ///
    /// Panics when no sample was fed.
    pub fn finish_robustness(&self, s: &mut MonitorScratch) -> f64 {
        self.finish_robustness_lane(s, 0)
    }

    /// [`CompiledBltl::finish_robustness`] for the trace in `lane`.
    ///
    /// # Panics
    ///
    /// Panics when no sample was fed to the lane, or when the lane was
    /// begun without robustness.
    pub fn finish_robustness_lane(&self, s: &mut MonitorScratch, lane: usize) -> f64 {
        if self.flat.is_some() {
            assert!(s.flat.count[lane] > 0, "finish before any sample");
            assert!(
                s.flat.robust >> lane & 1 == 1,
                "the trace was begun without robustness"
            );
            return self.flat_rob(&s.flat, self.ops.len() - 1, lane);
        }
        let a = &mut s.arenas[lane];
        assert!(!a.times.is_empty(), "finish before any sample");
        assert!(a.robust, "the trace was begun without robustness");
        a.ended = true;
        self.eval_r(a, self.ops.len() - 1, 0)
            .expect("ended traces always resolve robustness")
    }

    /// Offline convenience: monitors a whole [`Trace`], stopping the
    /// sample loop as soon as the verdict decides.
    pub fn check_trace(&self, s: &mut MonitorScratch, env: &[f64], trace: &Trace) -> bool {
        self.begin_lane::<1>(s, 0, env, false);
        for i in 0..trace.len() {
            if self.feed(s, trace.times()[i], trace.state(i)).decided() {
                break;
            }
        }
        self.finish_bool(s)
    }

    /// Offline convenience: one pass over a whole [`Trace`] producing
    /// both satisfaction and robustness.
    pub fn eval_trace(&self, s: &mut MonitorScratch, env: &[f64], trace: &Trace) -> (bool, f64) {
        self.begin(s, env);
        for i in 0..trace.len() {
            self.feed(s, trace.times()[i], trace.state(i));
        }
        (self.finish_bool(s), self.finish_robustness(s))
    }

    /// Boolean verdict of op `node` at sample index `i` under the
    /// observed prefix (three-valued; `True`/`False` are extension-proof
    /// unless the trace has ended, in which case they are final).
    fn eval_b(&self, s: &mut Arena, node: usize, i: usize) -> Verdict {
        let memo = s.bval[i * self.ops.len() + node];
        if memo.decided() {
            return memo;
        }
        let v = match &self.ops[node] {
            PlanOp::Prop(a) => {
                Verdict::from_bool(s.margins[i * self.atoms.len() + *a as usize] >= 0.0)
            }
            PlanOp::Not(c) => self.eval_b(s, *c as usize, i).not(),
            PlanOp::And(cs) => {
                let mut acc = Verdict::True;
                for &c in cs {
                    match self.eval_b(s, c as usize, i) {
                        Verdict::False => {
                            acc = Verdict::False;
                            break;
                        }
                        Verdict::Undecided => acc = Verdict::Undecided,
                        Verdict::True => {}
                    }
                }
                acc
            }
            PlanOp::Or(cs) => {
                let mut acc = Verdict::False;
                for &c in cs {
                    match self.eval_b(s, c as usize, i) {
                        Verdict::True => {
                            acc = Verdict::True;
                            break;
                        }
                        Verdict::Undecided => acc = Verdict::Undecided,
                        Verdict::False => {}
                    }
                }
                acc
            }
            &PlanOp::Until {
                lhs,
                rhs,
                bound,
                uidx,
            } => {
                // Resume the scan at its frontier; every (start, sample)
                // pair is inspected at most once across all feeds, which
                // keeps streaming as cheap as one offline pass. Mirrors
                // the offline scan exactly: bound first, then the
                // witness, then the prefix.
                let u = i * self.n_untils + uidx as usize;
                loop {
                    let j = s.bfrontier[u];
                    if j >= s.times.len() {
                        break if s.ended {
                            Verdict::False
                        } else {
                            Verdict::Undecided
                        };
                    }
                    if s.times[j] - s.times[i] > bound {
                        break Verdict::False;
                    }
                    match self.eval_b(s, rhs as usize, j) {
                        Verdict::True => break Verdict::True,
                        Verdict::Undecided => break Verdict::Undecided,
                        Verdict::False => {}
                    }
                    match self.eval_b(s, lhs as usize, j) {
                        Verdict::False => break Verdict::False,
                        Verdict::Undecided => break Verdict::Undecided,
                        Verdict::True => s.bfrontier[u] = j + 1,
                    }
                }
            }
        };
        if v.decided() {
            s.bval[i * self.ops.len() + node] = v;
        }
        v
    }

    /// Robustness of op `node` at sample index `i`; `None` while future
    /// samples can still change the value. The accumulation order is
    /// identical to the offline `rob_vec` recursion, so resolved values
    /// match it bit-for-bit.
    fn eval_r(&self, s: &mut Arena, node: usize, i: usize) -> Option<f64> {
        let memo = i * self.ops.len() + node;
        if s.rknown[memo] {
            return Some(s.rval[memo]);
        }
        let v = match &self.ops[node] {
            PlanOp::Prop(a) => Some(s.margins[i * self.atoms.len() + *a as usize]),
            PlanOp::Not(c) => self.eval_r(s, *c as usize, i).map(|v| -v),
            PlanOp::And(cs) => {
                let mut acc = f64::INFINITY;
                let mut known = true;
                for &c in cs {
                    match self.eval_r(s, c as usize, i) {
                        Some(v) => acc = acc.min(v),
                        None => {
                            known = false;
                            break;
                        }
                    }
                }
                known.then_some(acc)
            }
            PlanOp::Or(cs) => {
                let mut acc = f64::NEG_INFINITY;
                let mut known = true;
                for &c in cs {
                    match self.eval_r(s, c as usize, i) {
                        Some(v) => acc = acc.max(v),
                        None => {
                            known = false;
                            break;
                        }
                    }
                }
                known.then_some(acc)
            }
            &PlanOp::Until {
                lhs,
                rhs,
                bound,
                uidx,
            } => {
                let u = i * self.n_untils + uidx as usize;
                loop {
                    let j = s.rfrontier[u];
                    if j >= s.times.len() {
                        if s.ended {
                            break Some(s.rbest[u]);
                        }
                        break None;
                    }
                    if s.times[j] - s.times[i] > bound {
                        break Some(s.rbest[u]);
                    }
                    let Some(r) = self.eval_r(s, rhs as usize, j) else {
                        break None;
                    };
                    let Some(l) = self.eval_r(s, lhs as usize, j) else {
                        break None;
                    };
                    let best = s.rbest[u];
                    let prefix = s.rprefix[u];
                    s.rbest[u] = best.max(prefix.min(r));
                    s.rprefix[u] = prefix.min(l);
                    s.rfrontier[u] = j + 1;
                }
            }
        };
        if let Some(v) = v {
            s.rknown[memo] = true;
            s.rval[memo] = v;
        }
        v
    }
}

/// An atom's margin: its term `v` signed so that the atom holds iff the
/// margin is `>= 0`.
pub(crate) fn margin(v: f64, op: RelOp) -> f64 {
    match op {
        RelOp::Ge | RelOp::Gt => v,
        RelOp::Le | RelOp::Lt => -v,
        RelOp::Eq => -v.abs(),
    }
}

/// The lanes set in `m`, lowest first.
fn each_lane(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            l
        })
    })
}

/// The lanes `l < K` where `on(l)` holds, one bit per lane.
fn lanes<const K: usize>(on: impl Fn(usize) -> bool) -> u64 {
    (0..K).fold(0, |m, l| m | u64::from(on(l)) << l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monitor;
    use biocheck_expr::Atom;

    /// x = [0, 1, 2, 3, 2, 1, 0] at t = 0..6 (the offline tests' tent).
    fn tent() -> Trace {
        let xs = [0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0];
        Trace::new(
            (0..7).map(|i| i as f64).collect(),
            xs.iter().map(|&v| vec![v]).collect(),
            vec![vec![0.0]; 7],
        )
    }

    fn prop(cx: &mut Context, src: &str, op: RelOp) -> Bltl {
        let e = cx.parse(src).unwrap();
        Bltl::Prop(Atom::new(e, op))
    }

    /// Streaming over the tent must agree with the offline monitor for a
    /// basket of formulas — Boolean and robustness, bit-for-bit.
    #[test]
    fn streaming_matches_offline_on_tent() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let formulas = vec![
            Bltl::eventually(3.0, prop(&mut cx, "x - 3", RelOp::Ge)),
            Bltl::eventually(2.0, prop(&mut cx, "x - 3", RelOp::Ge)),
            Bltl::globally(6.0, prop(&mut cx, "x", RelOp::Ge)),
            Bltl::globally(6.0, prop(&mut cx, "2.5 - x", RelOp::Ge)),
            Bltl::globally(2.0, prop(&mut cx, "2.5 - x", RelOp::Ge)),
            Bltl::globally(6.0, prop(&mut cx, "5 - x", RelOp::Ge)),
            Bltl::eventually(6.0, prop(&mut cx, "x - 3", RelOp::Ge)),
            Bltl::truth(),
            Bltl::Until {
                lhs: Box::new(prop(&mut cx, "2.5 - x", RelOp::Ge)),
                rhs: Box::new(prop(&mut cx, "x - 3", RelOp::Ge)),
                bound: 4.0,
            },
            Bltl::globally(
                2.0,
                Bltl::implies(
                    prop(&mut cx, "x - 1", RelOp::Ge),
                    Bltl::eventually(2.0, prop(&mut cx, "x - 3", RelOp::Ge)),
                ),
            ),
        ];
        let tr = tent();
        let mut mon = Monitor::new(&cx, &states);
        let mut s = MonitorScratch::new();
        let env = vec![0.0; cx.num_vars()];
        for f in &formulas {
            let plan = CompiledBltl::compile(&cx, &states, f);
            let (sat, rob) = plan.eval_trace(&mut s, &env, &tr);
            assert_eq!(sat, mon.check(f, &tr), "{f:?}");
            assert_eq!(
                rob.to_bits(),
                mon.robustness(f, &tr).to_bits(),
                "{f:?}: {rob} vs {}",
                mon.robustness(f, &tr)
            );
            assert_eq!(plan.check_trace(&mut s, &env, &tr), sat, "{f:?}");
        }
    }

    /// An `F≤bound p` with an early witness decides True before the end;
    /// a `G≤bound p` with an early violation decides False before the
    /// end; the tail samples never flip a decided verdict.
    #[test]
    fn early_decisions_are_stable() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let tr = tent();
        let env = vec![0.0; cx.num_vars()];
        let mut s = MonitorScratch::new();

        let f = Bltl::eventually(6.0, prop(&mut cx, "x - 2", RelOp::Ge));
        let plan = CompiledBltl::compile(&cx, &states, &f);
        plan.begin(&mut s, &env);
        let mut decided_at = None;
        for i in 0..tr.len() {
            let v = plan.feed(&mut s, tr.times()[i], tr.state(i));
            if decided_at.is_none() && v.decided() {
                decided_at = Some((i, v));
            } else if let Some((_, d)) = decided_at {
                assert_eq!(v, d, "decided verdicts must be stable");
            }
        }
        assert_eq!(decided_at, Some((2, Verdict::True)), "witness at t = 2");
        assert!(plan.finish_bool(&mut s));

        let g = Bltl::globally(6.0, prop(&mut cx, "1.5 - x", RelOp::Ge));
        let plan = CompiledBltl::compile(&cx, &states, &g);
        plan.begin(&mut s, &env);
        let mut first = None;
        for i in 0..tr.len() {
            let v = plan.feed(&mut s, tr.times()[i], tr.state(i));
            if first.is_none() && v.decided() {
                first = Some((i, v));
            }
        }
        assert_eq!(first, Some((2, Verdict::False)), "violation at t = 2");
        assert!(!plan.finish_bool(&mut s));
    }

    /// A state shorter than the compiled layout is refused: the missing
    /// states would silently keep the previous sample's values.
    #[test]
    #[should_panic(expected = "a state per compiled state")]
    fn feed_refuses_a_short_state() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let y = cx.intern_var("y");
        let f = Bltl::eventually(1.0, prop(&mut cx, "x + y", RelOp::Ge));
        let plan = CompiledBltl::compile(&cx, &[x, y], &f);
        let mut s = MonitorScratch::new();
        plan.begin(&mut s, &[0.0, 0.0]);
        plan.feed(&mut s, 0.0, &[1.0]);
    }

    /// A bound reaching past the horizon stays undecided until `finish`.
    #[test]
    fn open_eventually_stays_undecided() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let f = Bltl::eventually(100.0, prop(&mut cx, "x - 10", RelOp::Ge));
        let plan = CompiledBltl::compile(&cx, &states, &f);
        let tr = tent();
        let env = vec![0.0; cx.num_vars()];
        let mut s = MonitorScratch::new();
        plan.begin(&mut s, &env);
        for i in 0..tr.len() {
            assert_eq!(plan.feed(&mut s, tr.times()[i], tr.state(i)), {
                Verdict::Undecided
            });
        }
        assert!(!plan.finish_bool(&mut s));
        assert_eq!(s.samples(), tr.len());
    }

    /// Parameters load through `begin`'s environment exactly like
    /// `Monitor::with_env`.
    #[test]
    fn parameters_via_env() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let thr = cx.intern_var("thr");
        let e = cx.parse("x - thr").unwrap();
        let f = Bltl::eventually(6.0, Bltl::Prop(Atom::new(e, RelOp::Ge)));
        let states = [x];
        let plan = CompiledBltl::compile(&cx, &states, &f);
        let tr = tent();
        let mut s = MonitorScratch::new();
        let mut env = vec![0.0; cx.num_vars()];
        env[thr.index()] = 2.5;
        assert!(plan.check_trace(&mut s, &env, &tr));
        env[thr.index()] = 3.5;
        assert!(!plan.check_trace(&mut s, &env, &tr));
    }

    /// A trace begun without robustness decides alike and leaves the
    /// five robustness arenas empty; one begun with it fills them.
    #[test]
    fn boolean_only_traces_keep_no_robustness_arenas() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let f = Bltl::globally(
            6.0,
            Bltl::eventually(2.0, prop(&mut cx, "x - 1", RelOp::Ge)),
        );
        let plan = CompiledBltl::compile(&cx, &states, &f);
        let tr = tent();
        let env = vec![0.0; cx.num_vars()];
        let mut s = MonitorScratch::new();
        for robustness in [false, true] {
            plan.begin_lane::<1>(&mut s, 0, &env, robustness);
            for i in 0..tr.len() {
                plan.feed(&mut s, tr.times()[i], tr.state(i));
            }
            assert!(!plan.finish_bool(&mut s));
            let a = &s.arenas[0];
            let sizes = [
                a.rknown.len(),
                a.rval.len(),
                a.rfrontier.len(),
                a.rbest.len(),
                a.rprefix.len(),
            ];
            assert_eq!(sizes.iter().all(|&n| n > 0), robustness, "{sizes:?}");
            assert_eq!(sizes.iter().all(|&n| n == 0), !robustness, "{sizes:?}");
        }
    }

    /// Depth-one formulas compile flat and keep no arena; a formula with
    /// an `Until` inside an `Until` operand compiles nested.
    #[test]
    fn the_plan_shape_picks_the_evaluator() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let p = prop(&mut cx, "x - 1", RelOp::Ge);
        let q = prop(&mut cx, "2.5 - x", RelOp::Le);
        let until = |l: &Bltl, r: &Bltl, bound| Bltl::Until {
            lhs: Box::new(l.clone()),
            rhs: Box::new(r.clone()),
            bound,
        };
        let flat = [
            p.clone(),
            Bltl::truth(),
            Bltl::eventually(3.0, p.clone()),
            Bltl::globally(4.0, Bltl::implies(p.clone(), q.clone())),
            Bltl::Not(Box::new(until(&p, &q, 2.0))),
            Bltl::And(vec![until(&p, &q, 2.0), q.clone(), until(&q, &p, 5.0)]),
        ];
        let nested = [
            Bltl::eventually(40.0, Bltl::globally(5.0, p.clone())),
            Bltl::globally(
                2.0,
                Bltl::implies(p.clone(), Bltl::eventually(2.0, q.clone())),
            ),
            until(&Bltl::eventually(1.0, p.clone()), &q, 3.0),
        ];
        let (tr, env) = (tent(), [0.0]);
        for (f, is_flat) in flat
            .iter()
            .map(|f| (f, true))
            .chain(nested.iter().map(|f| (f, false)))
        {
            let plan = CompiledBltl::compile(&cx, &states, f);
            assert_eq!(plan.is_flat(), is_flat, "{f:?}");
            let mut s = MonitorScratch::new();
            plan.eval_trace(&mut s, &env, &tr);
            assert_eq!(s.arenas.is_empty(), is_flat, "{f:?}");
        }
    }

    /// Every lane's verdict after each sample, Boolean verdict,
    /// robustness (even lanes only) and sample count, with lane `l` fed
    /// the tent raised by `l / 4`.
    fn run_lanes<const K: usize>(
        plan: &CompiledBltl,
        s: &mut MonitorScratch,
    ) -> Vec<(Vec<Verdict>, bool, Option<u64>, usize)> {
        let tr = tent();
        for l in 0..K {
            plan.begin_lane::<K>(s, l, &[0.0], l % 2 == 0);
        }
        let mut verdicts = vec![Vec::new(); K];
        for i in 0..tr.len() {
            let y = [std::array::from_fn(|l| tr.state(i)[0] + l as f64 / 4.0)];
            let v = plan.feed_lanes::<K>(s, &[true; K], &[tr.times()[i]; K], &y);
            for (seen, v) in verdicts.iter_mut().zip(v) {
                seen.push(v);
            }
        }
        (0..K)
            .zip(verdicts)
            .map(|(l, v)| {
                let sat = plan.finish_bool_lane(s, l);
                let rob = (l % 2 == 0).then(|| plan.finish_robustness_lane(s, l).to_bits());
                (v, sat, rob, s.lane_samples(l))
            })
            .collect()
    }

    /// One scratch lent to plans of every shape in turn (a sampler's
    /// scratch serves any sampler of any model) gives what a fresh
    /// scratch gives: a flat plan with two atoms and two `Until`s, a
    /// nested plan, and a flat plan with one atom, at 16 lanes and then
    /// at one.
    #[test]
    fn one_scratch_serves_plans_of_every_shape() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let plans = [
            Bltl::Or(vec![
                Bltl::eventually(3.0, prop(&mut cx, "x - 3", RelOp::Ge)),
                Bltl::globally(4.0, prop(&mut cx, "2.5 - x", RelOp::Ge)),
            ]),
            Bltl::globally(
                2.0,
                Bltl::implies(
                    prop(&mut cx, "x - 1", RelOp::Ge),
                    Bltl::eventually(2.0, prop(&mut cx, "x - 3", RelOp::Ge)),
                ),
            ),
            Bltl::eventually(6.0, prop(&mut cx, "x - 2", RelOp::Ge)),
        ]
        .map(|f| CompiledBltl::compile(&cx, &states, &f));
        assert_eq!(
            plans.each_ref().map(CompiledBltl::is_flat),
            [true, false, true]
        );
        assert_eq!((plans[0].atoms.len(), plans[0].n_untils), (2, 2));
        assert_eq!(plans[2].atoms.len(), 1);
        let mut s = MonitorScratch::new();
        for plan in &plans {
            let want = run_lanes::<16>(plan, &mut MonitorScratch::new());
            assert_eq!(run_lanes::<16>(plan, &mut s), want);
        }
        for plan in &plans {
            let want = run_lanes::<1>(plan, &mut MonitorScratch::new());
            assert_eq!(run_lanes::<1>(plan, &mut s), want);
        }
    }

    /// Atom dedup: a formula mentioning the same term in several guises
    /// compiles one program root per distinct term.
    #[test]
    fn atoms_are_deduplicated() {
        let mut cx = Context::new();
        let x = cx.intern_var("x");
        let states = [x];
        let e = cx.parse("x - 1").unwrap();
        let f = Bltl::And(vec![
            Bltl::Prop(Atom::new(e, RelOp::Ge)),
            Bltl::eventually(3.0, Bltl::Prop(Atom::new(e, RelOp::Ge))),
            Bltl::Prop(Atom::new(e, RelOp::Le)),
        ]);
        let plan = CompiledBltl::compile(&cx, &states, &f);
        // Two atom entries (Ge and Le on the same term), one program root.
        assert_eq!(plan.atoms.len(), 2);
        assert_eq!(plan.prog.num_roots(), 1);
        let tr = tent();
        let mut s = MonitorScratch::new();
        let mut mon = Monitor::new(&cx, &states);
        let env = vec![0.0; cx.num_vars()];
        let (sat, rob) = plan.eval_trace(&mut s, &env, &tr);
        assert_eq!(sat, mon.check(&f, &tr));
        assert_eq!(rob.to_bits(), mon.robustness(&f, &tr).to_bits());
    }
}
