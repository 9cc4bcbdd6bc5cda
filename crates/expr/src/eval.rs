//! Evaluation of expressions over `f64` points and interval boxes, plus
//! [`Program`], a compiled form for hot loops (ODE right-hand sides).

use crate::context::{eval_unary_f64, unary_lanes, BinOp, Context, Node, NodeId, UnaryOp};
use biocheck_interval::{IBox, Interval};
use std::array::from_fn;

/// Reusable evaluation workspace: buffers for node values plus the
/// reachability plan (which arena nodes a set of roots actually uses).
///
/// All `*_with` evaluation entry points take a `&mut EvalScratch` and are
/// **allocation-free after warm-up**: the first call over a given context
/// grows the buffers, subsequent calls only reuse them. One scratch can be
/// shared across contexts, programs, and value domains (`f64` and
/// [`Interval`]); it simply keeps the high-water-mark capacity.
///
/// The scratch also makes evaluation *reachability-aware*: only nodes
/// reachable from the requested roots are computed, instead of the whole
/// arena prefix up to the largest root id.
#[derive(Clone, Debug, Default)]
pub struct EvalScratch {
    /// Scalar value per node/slot (sparse: indexed by arena id or slot).
    vals: Vec<f64>,
    /// Interval value per node/slot.
    ivals: Vec<Interval>,
    /// Epoch stamps marking reachable nodes (`mark[i] == epoch`).
    mark: Vec<u32>,
    /// Current reachability epoch.
    epoch: u32,
    /// DFS worklist.
    stack: Vec<u32>,
    /// Reachable node ids in ascending (= topological) order.
    order: Vec<u32>,
    /// Leasable auxiliary workspace for contractors built on top of the
    /// evaluator (see [`AuxBuffers`]); `None` while leased out.
    aux: Option<Box<AuxBuffers>>,
}

/// Auxiliary buffer bundle for algorithms that need workspace *across*
/// evaluation calls (the interval-Newton contractor: midpoints, interval
/// Jacobian, matrix inverse, Krawczyk image).
///
/// The bundle lives inside an [`EvalScratch`] but is moved out with
/// [`EvalScratch::take_aux`] for the duration of a computation, so the
/// scratch itself stays free for `eval_*_with` calls that read or write
/// its internal value buffers. Returning it with
/// [`EvalScratch::restore_aux`] keeps the high-water-mark capacity for
/// the next call — after warm-up the take/restore cycle performs no heap
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct AuxBuffers {
    /// Scalar workspace (e.g. a row-major matrix).
    pub f64_a: Vec<f64>,
    /// Second scalar workspace.
    pub f64_b: Vec<f64>,
    /// Third scalar workspace (e.g. a vector of midpoints).
    pub f64_c: Vec<f64>,
    /// Interval workspace (e.g. the box restricted to some variables).
    pub intervals_a: Vec<Interval>,
    /// Second interval workspace.
    pub intervals_b: Vec<Interval>,
    /// Third interval workspace (e.g. an interval Jacobian).
    pub intervals_c: Vec<Interval>,
    /// Fourth interval workspace.
    pub intervals_d: Vec<Interval>,
    /// A reusable evaluation environment box.
    pub env: IBox,
}

impl EvalScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// Recomputes `self.order`: ids reachable from `roots`, ascending.
    fn plan(&mut self, cx: &Context, roots: &[NodeId]) {
        let n = cx.num_nodes();
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.mark.iter_mut().for_each(|m| *m = 0);
                1
            }
        };
        self.order.clear();
        self.stack.clear();
        for r in roots {
            self.stack.push(r.0);
        }
        while let Some(i) = self.stack.pop() {
            if self.mark[i as usize] == self.epoch {
                continue;
            }
            self.mark[i as usize] = self.epoch;
            self.order.push(i);
            match *cx.node(NodeId(i)) {
                Node::Unary(_, a) | Node::PowI(a, _) => self.stack.push(a.0),
                Node::Binary(_, a, b) => {
                    self.stack.push(a.0);
                    self.stack.push(b.0);
                }
                _ => {}
            }
        }
        // Ascending ids are child-before-parent (arena invariant).
        self.order.sort_unstable();
    }

    /// A scalar buffer of length `len` (grown, never shrunk). Contents
    /// are **unspecified** — stale values from earlier evaluations may
    /// remain; write every slot before reading it.
    pub fn scalar_buf(&mut self, len: usize) -> &mut [f64] {
        if self.vals.len() < len {
            self.vals.resize(len, 0.0);
        }
        &mut self.vals[..len]
    }

    /// An interval buffer of length `len` (grown, never shrunk). Contents
    /// are **unspecified** — stale values from earlier evaluations may
    /// remain; write every slot before reading it.
    pub fn interval_buf(&mut self, len: usize) -> &mut [Interval] {
        if self.ivals.len() < len {
            self.ivals.resize(len, Interval::ZERO);
        }
        &mut self.ivals[..len]
    }

    /// Moves the auxiliary buffer bundle out of the scratch (boxing one
    /// on the very first call). While taken, the scratch remains fully
    /// usable for `eval_*_with` calls; pair with
    /// [`EvalScratch::restore_aux`] so later callers reuse the capacity.
    pub fn take_aux(&mut self) -> Box<AuxBuffers> {
        self.aux.take().unwrap_or_default()
    }

    /// Returns a bundle previously obtained from
    /// [`EvalScratch::take_aux`], preserving its grown buffers.
    pub fn restore_aux(&mut self, aux: Box<AuxBuffers>) {
        self.aux = Some(aux);
    }
}

impl Context {
    /// Evaluates `id` at the point `env` (indexed by [`crate::VarId`]).
    ///
    /// Returns NaN when the point lies outside a partial function's domain
    /// (e.g. `ln` of a negative number).
    ///
    /// Convenience form of [`Context::eval_with`] that allocates a fresh
    /// scratch; hot loops should hold an [`EvalScratch`] (or better, a
    /// compiled [`Program`]) and reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `env` is shorter than the number of declared variables
    /// referenced by the expression.
    pub fn eval(&self, id: NodeId, env: &[f64]) -> f64 {
        self.eval_with(id, env, &mut EvalScratch::new())
    }

    /// Evaluates `id` at a point, reusing `scratch` (allocation-free after
    /// warm-up). Only nodes reachable from `id` are computed.
    pub fn eval_with(&self, id: NodeId, env: &[f64], scratch: &mut EvalScratch) -> f64 {
        scratch.plan(self, std::slice::from_ref(&id));
        self.eval_planned(env, scratch);
        scratch.vals[id.index()]
    }

    /// Evaluates several roots sharing one reachability sweep.
    pub fn eval_many(&self, ids: &[NodeId], env: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; ids.len()];
        self.eval_many_with(ids, env, &mut EvalScratch::new(), &mut out);
        out
    }

    /// Evaluates several roots into `out`, reusing `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != ids.len()`.
    pub fn eval_many_with(
        &self,
        ids: &[NodeId],
        env: &[f64],
        scratch: &mut EvalScratch,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), ids.len(), "output arity mismatch");
        if ids.is_empty() {
            return;
        }
        scratch.plan(self, ids);
        self.eval_planned(env, scratch);
        for (o, id) in out.iter_mut().zip(ids) {
            *o = scratch.vals[id.index()];
        }
    }

    /// Computes scalar values for every node in the current plan.
    fn eval_planned(&self, env: &[f64], scratch: &mut EvalScratch) {
        let n = self.num_nodes();
        if scratch.vals.len() < n {
            scratch.vals.resize(n, 0.0);
        }
        let buf = &mut scratch.vals;
        for &i in &scratch.order {
            let i = i as usize;
            buf[i] = match self.nodes()[i] {
                Node::Const(v) => v,
                Node::Var(v) => env[v.index()],
                Node::Unary(op, a) => eval_unary_f64(op, buf[a.index()]),
                Node::Binary(op, a, b) => eval_binary_f64(op, buf[a.index()], buf[b.index()]),
                Node::PowI(a, n) => buf[a.index()].powi(n),
            };
        }
    }

    /// Evaluates `id` over the box `env`, producing a sound enclosure of
    /// the range of the expression on the box.
    ///
    /// Convenience form of [`Context::eval_interval_with`] that allocates
    /// a fresh scratch.
    ///
    /// # Panics
    ///
    /// Panics if `env` has fewer dimensions than referenced variables.
    pub fn eval_interval(&self, id: NodeId, env: &IBox) -> Interval {
        self.eval_interval_with(id, env, &mut EvalScratch::new())
    }

    /// Evaluates `id` over a box, reusing `scratch` (allocation-free after
    /// warm-up). Only nodes reachable from `id` are computed.
    pub fn eval_interval_with(
        &self,
        id: NodeId,
        env: &IBox,
        scratch: &mut EvalScratch,
    ) -> Interval {
        scratch.plan(self, std::slice::from_ref(&id));
        let n = self.num_nodes();
        if scratch.ivals.len() < n {
            scratch.ivals.resize(n, Interval::ZERO);
        }
        let buf = &mut scratch.ivals;
        for &i in &scratch.order {
            let i = i as usize;
            buf[i] = match self.nodes()[i] {
                Node::Const(v) => Interval::point(v),
                Node::Var(v) => env[v.index()],
                Node::Unary(op, a) => eval_unary_interval(op, buf[a.index()]),
                Node::Binary(op, a, b) => eval_binary_interval(op, buf[a.index()], buf[b.index()]),
                Node::PowI(a, n) => buf[a.index()].powi(n),
            };
        }
        buf[id.index()]
    }
}

/// Scalar semantics of binary ops.
/// Applies a binary operation to scalars (public for downstream solvers).
pub fn eval_binary_f64(op: BinOp, a: f64, b: f64) -> f64 {
    binary_lanes(op, &[a], &[b])[0]
}

/// Applies a binary operation to each of `K` lane pairs, dispatching on
/// `op` once. Lane `l` computes exactly [`eval_binary_f64`]`(op, a[l],
/// b[l])`: the scalar form is the `K = 1` instance.
#[inline(always)]
fn binary_lanes<const K: usize>(op: BinOp, a: &[f64; K], b: &[f64; K]) -> [f64; K] {
    match op {
        BinOp::Add => from_fn(|l| a[l] + b[l]),
        BinOp::Sub => from_fn(|l| a[l] - b[l]),
        BinOp::Mul => from_fn(|l| a[l] * b[l]),
        BinOp::Div => from_fn(|l| a[l] / b[l]),
        BinOp::Pow => from_fn(|l| a[l].powf(b[l])),
        BinOp::Min => from_fn(|l| a[l].min(b[l])),
        BinOp::Max => from_fn(|l| a[l].max(b[l])),
    }
}

/// Interval semantics of unary ops.
/// Applies a unary operation to an interval (public for downstream solvers).
pub fn eval_unary_interval(op: UnaryOp, x: Interval) -> Interval {
    match op {
        UnaryOp::Neg => -x,
        UnaryOp::Abs => x.abs(),
        UnaryOp::Sqrt => x.sqrt(),
        UnaryOp::Exp => x.exp(),
        UnaryOp::Ln => x.ln(),
        UnaryOp::Sin => x.sin(),
        UnaryOp::Cos => x.cos(),
        UnaryOp::Tan => x.tan(),
        UnaryOp::Asin => x.asin(),
        UnaryOp::Acos => x.acos(),
        UnaryOp::Atan => x.atan(),
        UnaryOp::Sinh => x.sinh(),
        UnaryOp::Cosh => x.cosh(),
        UnaryOp::Tanh => x.tanh(),
    }
}

/// Interval semantics of binary ops.
/// Applies a binary operation to intervals (public for downstream solvers).
pub fn eval_binary_interval(op: BinOp, a: Interval, b: Interval) -> Interval {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Pow => a.powf(&b),
        BinOp::Min => a.min_i(&b),
        BinOp::Max => a.max_i(&b),
    }
}

/// One compiled instruction of a [`Program`]. Operands are dense slot
/// indices into the instruction list (always smaller than the
/// instruction's own slot, so a single forward scan evaluates the
/// program).
#[derive(Copy, Clone, Debug)]
enum Instr {
    /// A constant: the scalar value and its interval enclosure. For a
    /// literal leaf the enclosure is the point; for a folded subtree it
    /// is computed through the same interval semantics the graph
    /// evaluator would apply (domain errors fold to an empty enclosure,
    /// never to a NaN point), so interval evaluation of a folded program
    /// stays sound and equals the unfolded one.
    Const(f64, Interval),
    /// A variable read (the operand is the environment index).
    Var(u32),
    /// A unary function application.
    Unary(UnaryOp, u32),
    /// A binary function application.
    Binary(BinOp, u32, u32),
    /// Integer power.
    PowI(u32, i32),
    /// Two fused binary operations: `outer(inner(a, b), c)`, or
    /// `outer(c, inner(a, b))` when `swap` is set. Semantically identical
    /// (bit-for-bit, two roundings) to the unfused pair; fusing only
    /// removes an instruction slot and its dispatch.
    Fused {
        /// Inner operation (applied to `a`, `b`).
        inner: BinOp,
        /// Outer operation.
        outer: BinOp,
        /// Whether the inner result is the outer's *right* operand.
        swap: bool,
        /// Inner left operand slot.
        a: u32,
        /// Inner right operand slot.
        b: u32,
        /// The outer operation's other operand slot.
        c: u32,
    },
}

/// A compiled, self-contained evaluation program for a set of expression
/// roots: only the reachable nodes, remapped to dense slots.
///
/// `Program` decouples hot evaluation loops (ODE integration takes millions
/// of right-hand-side evaluations) from the growing [`Context`] arena.
/// Compilation optimizes the instruction stream without changing any
/// computed bit:
///
/// * **Constant folding** — subtrees whose leaves are all literals are
///   evaluated at compile time with the same scalar semantics as the
///   runtime interpreter (this catches forms the [`Context`] smart
///   constructors leave alone, e.g. `2^0.5` with a non-integer
///   exponent). Each folded constant also carries the interval
///   enclosure of its subtree, computed through the same interval
///   semantics as runtime evaluation, so interval results — including
///   empty enclosures from domain errors like `ln(-1)` — are identical
///   to the unfolded program's and remain sound.
/// * **CSE dedup** — instructions with identical semantics share one
///   slot (value numbering), including duplicates first exposed by
///   folding; folded constants merge only when both their scalar bits
///   *and* their enclosures agree.
/// * **Pair fusion** — a binary operation whose only consumer is another
///   binary operation is fused into a single instruction computing the
///   identical two-rounding result (e.g. `a*b + c` in one slot).
///
/// # Examples
///
/// ```
/// use biocheck_expr::{Context, Program};
///
/// let mut cx = Context::new();
/// let f = cx.parse("x * y + 1").unwrap();
/// let g = cx.parse("x - y").unwrap();
/// let prog = Program::compile(&cx, &[f, g]);
/// let mut out = [0.0; 2];
/// prog.eval_into(&[2.0, 3.0], &mut out);
/// assert_eq!(out, [7.0, -1.0]);
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    /// Optimized instructions in topological (operand-before-use) order.
    instrs: Vec<Instr>,
    /// Slot of each root, in the order given at compile time.
    roots: Vec<u32>,
}

/// Value-numbering key: an [`Instr`] with the constant bit-cast so it can
/// implement `Eq + Hash`.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
enum VnKey {
    /// Scalar bits plus enclosure lo/hi bits: folded constants merge
    /// only when both semantics agree.
    Const(u64, u64, u64),
    Var(u32),
    Unary(UnaryOp, u32),
    Binary(BinOp, u32, u32),
    PowI(u32, i32),
}

impl VnKey {
    fn constant(v: f64, iv: Interval) -> VnKey {
        VnKey::Const(v.to_bits(), iv.lo().to_bits(), iv.hi().to_bits())
    }
}

impl Program {
    /// Compiles the sub-DAG reachable from `roots`, folding constants,
    /// deduplicating identical subtrees, and fusing single-use binary
    /// pairs (see the type-level docs). Every optimization is bit-exact:
    /// the compiled program computes exactly the values of
    /// [`Context::eval_with`] on the same roots.
    pub fn compile(cx: &Context, roots: &[NodeId]) -> Program {
        // Mark reachable nodes.
        let n = cx.num_nodes();
        let mut reach = vec![false; n];
        let mut stack: Vec<NodeId> = roots.to_vec();
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

        // Fold + value-number in ascending (= topological) id order.
        let mut vn: std::collections::HashMap<VnKey, u32> = std::collections::HashMap::new();
        let mut slot = vec![u32::MAX; n]; // arena id → instruction slot
        let mut instrs: Vec<Instr> = Vec::new();
        // Per slot: folded (scalar, interval-enclosure) pair. Folding
        // runs *both* semantics in lockstep so the compiled constant is
        // exactly what runtime evaluation of the subtree would produce
        // in each domain.
        let mut cval: Vec<Option<(f64, Interval)>> = Vec::new();
        for i in 0..n {
            if !reach[i] {
                continue;
            }
            let (key, instr, folded) = match *cx.node(NodeId(i as u32)) {
                Node::Const(v) => {
                    // Arena constants are never NaN, so the point
                    // enclosure is well-formed.
                    let iv = Interval::point(v);
                    (VnKey::constant(v, iv), Instr::Const(v, iv), Some((v, iv)))
                }
                Node::Var(v) => {
                    let ix = v.index() as u32;
                    (VnKey::Var(ix), Instr::Var(ix), None)
                }
                Node::Unary(op, a) => {
                    let a = slot[a.index()];
                    match cval[a as usize] {
                        Some((x, xi)) => {
                            let v = eval_unary_f64(op, x);
                            let iv = eval_unary_interval(op, xi);
                            (VnKey::constant(v, iv), Instr::Const(v, iv), Some((v, iv)))
                        }
                        None => (VnKey::Unary(op, a), Instr::Unary(op, a), None),
                    }
                }
                Node::Binary(op, a, b) => {
                    let (a, b) = (slot[a.index()], slot[b.index()]);
                    match (cval[a as usize], cval[b as usize]) {
                        (Some((x, xi)), Some((y, yi))) => {
                            let v = eval_binary_f64(op, x, y);
                            let iv = eval_binary_interval(op, xi, yi);
                            (VnKey::constant(v, iv), Instr::Const(v, iv), Some((v, iv)))
                        }
                        _ => (VnKey::Binary(op, a, b), Instr::Binary(op, a, b), None),
                    }
                }
                Node::PowI(a, k) => {
                    let a = slot[a.index()];
                    match cval[a as usize] {
                        Some((x, xi)) => {
                            let v = x.powi(k);
                            let iv = xi.powi(k);
                            (VnKey::constant(v, iv), Instr::Const(v, iv), Some((v, iv)))
                        }
                        None => (VnKey::PowI(a, k), Instr::PowI(a, k), None),
                    }
                }
            };
            slot[i] = *vn.entry(key).or_insert_with(|| {
                instrs.push(instr);
                cval.push(folded);
                (instrs.len() - 1) as u32
            });
        }
        let root_slots: Vec<u32> = roots.iter().map(|r| slot[r.index()]).collect();

        // Use counts (roots count as uses), then dead-code elimination:
        // folding can orphan the literal operands it consumed.
        let mut uses = vec![0u32; instrs.len()];
        let count = |uses: &mut [u32], ins: &Instr| match *ins {
            Instr::Const(..) | Instr::Var(_) => {}
            Instr::Unary(_, a) | Instr::PowI(a, _) => uses[a as usize] += 1,
            Instr::Binary(_, a, b) => {
                uses[a as usize] += 1;
                uses[b as usize] += 1;
            }
            Instr::Fused { a, b, c, .. } => {
                uses[a as usize] += 1;
                uses[b as usize] += 1;
                uses[c as usize] += 1;
            }
        };
        for ins in &instrs {
            count(&mut uses, ins);
        }
        let mut is_root = vec![false; instrs.len()];
        for &r in &root_slots {
            is_root[r as usize] = true;
            uses[r as usize] += 1;
        }
        let mut dead = vec![false; instrs.len()];
        for i in (0..instrs.len()).rev() {
            if uses[i] == 0 && !is_root[i] {
                dead[i] = true;
                // Releasing this instruction releases its operands.
                match instrs[i] {
                    Instr::Const(..) | Instr::Var(_) => {}
                    Instr::Unary(_, a) | Instr::PowI(a, _) => uses[a as usize] -= 1,
                    Instr::Binary(_, a, b) => {
                        uses[a as usize] -= 1;
                        uses[b as usize] -= 1;
                    }
                    Instr::Fused { a, b, c, .. } => {
                        uses[a as usize] -= 1;
                        uses[b as usize] -= 1;
                        uses[c as usize] -= 1;
                    }
                }
            }
        }

        // Pair fusion: a binary op whose sole consumer is another binary
        // op collapses into it. Operand order is preserved exactly, so
        // the fused instruction performs the identical float operations.
        for i in 0..instrs.len() {
            if dead[i] {
                continue;
            }
            let Instr::Binary(outer, l, r) = instrs[i] else {
                continue;
            };
            let fusable = |child: u32, dead: &[bool], uses: &[u32]| -> Option<(BinOp, u32, u32)> {
                if dead[child as usize] || uses[child as usize] != 1 {
                    return None;
                }
                match instrs[child as usize] {
                    Instr::Binary(inner, a, b) => Some((inner, a, b)),
                    _ => None,
                }
            };
            if let Some((inner, a, b)) = fusable(l, &dead, &uses) {
                instrs[i] = Instr::Fused {
                    inner,
                    outer,
                    swap: false,
                    a,
                    b,
                    c: r,
                };
                dead[l as usize] = true;
            } else if let Some((inner, a, b)) = fusable(r, &dead, &uses) {
                instrs[i] = Instr::Fused {
                    inner,
                    outer,
                    swap: true,
                    a,
                    b,
                    c: l,
                };
                dead[r as usize] = true;
            }
        }

        // Compact away dead slots (relative order, hence topological
        // order, is preserved).
        let mut remap = vec![u32::MAX; instrs.len()];
        let mut out = Vec::with_capacity(instrs.len());
        for (i, ins) in instrs.iter().enumerate() {
            if dead[i] {
                continue;
            }
            let m = |x: u32| remap[x as usize];
            out.push(match *ins {
                Instr::Const(v, iv) => Instr::Const(v, iv),
                Instr::Var(v) => Instr::Var(v),
                Instr::Unary(op, a) => Instr::Unary(op, m(a)),
                Instr::Binary(op, a, b) => Instr::Binary(op, m(a), m(b)),
                Instr::PowI(a, k) => Instr::PowI(m(a), k),
                Instr::Fused {
                    inner,
                    outer,
                    swap,
                    a,
                    b,
                    c,
                } => Instr::Fused {
                    inner,
                    outer,
                    swap,
                    a: m(a),
                    b: m(b),
                    c: m(c),
                },
            });
            remap[i] = (out.len() - 1) as u32;
        }
        Program {
            instrs: out,
            roots: root_slots.iter().map(|&r| remap[r as usize]).collect(),
        }
    }

    /// Number of roots (outputs).
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Number of compiled instructions (after folding, dedup, and pair
    /// fusion — at most the number of reachable arena nodes).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` for a program with no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Evaluates all roots at a point (allocates a fresh value buffer;
    /// hot loops should use [`Program::eval_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_roots()`.
    pub fn eval_into(&self, env: &[f64], out: &mut [f64]) {
        self.eval_with(env, &mut EvalScratch::new(), out);
    }

    /// Evaluates all roots at a point, reusing `scratch` (allocation-free
    /// after warm-up). This is the `K = 1` instance of
    /// [`Program::eval_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_roots()`.
    pub fn eval_with(&self, env: &[f64], scratch: &mut EvalScratch, out: &mut [f64]) {
        self.eval_lanes::<1>(env.as_chunks().0, scratch, out.as_chunks_mut().0);
    }

    /// Evaluates all roots at `K` points at once: `env[var][lane]` holds
    /// lane `lane`'s environment and `out[root][lane]` receives its
    /// results. Each instruction is dispatched once and then applied to
    /// all `K` lanes, and lane `l` performs exactly the float operations
    /// of [`Program::eval_with`] at its own point, in the same order, so
    /// every lane's results are bit-identical to a scalar evaluation.
    /// Reuses `scratch` (allocation-free after warm-up). Always inlined,
    /// so a caller compiled with a target feature (the integrator's AVX2
    /// instance) compiles the sweep with it. A `tanh` instruction is one
    /// call to [`crate::tanh_lanes`] for all `K` lanes, which picks its
    /// own instance; `exp`, `powf` and the other elementary functions
    /// are one libm call per lane.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_roots()`.
    #[inline(always)]
    pub fn eval_lanes<const K: usize>(
        &self,
        env: &[[f64; K]],
        scratch: &mut EvalScratch,
        out: &mut [[f64; K]],
    ) {
        assert_eq!(out.len(), self.roots.len(), "output arity mismatch");
        let vals = scratch.scalar_buf(self.instrs.len() * K).as_chunks_mut().0;
        for (i, ins) in self.instrs.iter().enumerate() {
            vals[i] = match *ins {
                Instr::Const(v, _) => [v; K],
                Instr::Var(v) => env[v as usize],
                Instr::Unary(op, a) => unary_lanes(op, &vals[a as usize]),
                Instr::Binary(op, a, b) => binary_lanes(op, &vals[a as usize], &vals[b as usize]),
                Instr::PowI(a, k) => vals[a as usize].map(|x| x.powi(k)),
                Instr::Fused {
                    inner,
                    outer,
                    swap,
                    a,
                    b,
                    c,
                } => {
                    let p = binary_lanes(inner, &vals[a as usize], &vals[b as usize]);
                    let c = &vals[c as usize];
                    if swap {
                        binary_lanes(outer, c, &p)
                    } else {
                        binary_lanes(outer, &p, c)
                    }
                }
            };
        }
        for (o, &r) in out.iter_mut().zip(&self.roots) {
            *o = vals[r as usize];
        }
    }

    /// Evaluates all roots over a box, giving sound range enclosures
    /// (allocates a fresh buffer; hot loops should use
    /// [`Program::eval_interval_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_roots()`.
    pub fn eval_interval_into(&self, env: &IBox, out: &mut [Interval]) {
        self.eval_interval_with(env, &mut EvalScratch::new(), out);
    }

    /// Evaluates all roots over a box, reusing `scratch` (allocation-free
    /// after warm-up).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_roots()`.
    pub fn eval_interval_with(&self, env: &IBox, scratch: &mut EvalScratch, out: &mut [Interval]) {
        assert_eq!(out.len(), self.roots.len(), "output arity mismatch");
        let vals = scratch.interval_buf(self.instrs.len());
        for (i, ins) in self.instrs.iter().enumerate() {
            vals[i] = match *ins {
                Instr::Const(_, iv) => iv,
                Instr::Var(v) => env[v as usize],
                Instr::Unary(op, a) => eval_unary_interval(op, vals[a as usize]),
                Instr::Binary(op, a, b) => {
                    eval_binary_interval(op, vals[a as usize], vals[b as usize])
                }
                Instr::PowI(a, k) => vals[a as usize].powi(k),
                Instr::Fused {
                    inner,
                    outer,
                    swap,
                    a,
                    b,
                    c,
                } => {
                    let p = eval_binary_interval(inner, vals[a as usize], vals[b as usize]);
                    let c = vals[c as usize];
                    if swap {
                        eval_binary_interval(outer, c, p)
                    } else {
                        eval_binary_interval(outer, p, c)
                    }
                }
            };
        }
        for (o, &r) in out.iter_mut().zip(&self.roots) {
            *o = vals[r as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_polynomial() {
        let mut cx = Context::new();
        let e = cx.parse("3*x^2 - 2*x + 1").unwrap();
        assert_eq!(cx.eval(e, &[2.0]), 9.0);
        assert_eq!(cx.eval(e, &[0.0]), 1.0);
    }

    #[test]
    fn eval_transcendental() {
        let mut cx = Context::new();
        let e = cx.parse("exp(x) + sin(y) * cos(y)").unwrap();
        let v = cx.eval(e, &[1.0, 0.5]);
        let expected = 1.0f64.exp() + 0.5f64.sin() * 0.5f64.cos();
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn eval_skips_unreachable_nodes() {
        // A later, unrelated expression mentions variable `z`; evaluating
        // the earlier roots with a 2-entry env must not touch `z`'s slot
        // (the old whole-prefix sweep indexed env[2] and panicked).
        let mut cx = Context::new();
        let a = cx.parse("x + y").unwrap();
        let _unrelated = cx.parse("sin(z) * z^3").unwrap();
        let b = cx.parse("x * y").unwrap();
        let env = [2.0, 5.0];
        assert_eq!(cx.eval(a, &env), 7.0);
        assert_eq!(cx.eval_many(&[a, b], &env), vec![7.0, 10.0]);
        let bx = IBox::new(vec![Interval::point(2.0), Interval::point(5.0)]);
        let enc = cx.eval_interval(a, &bx);
        assert!(enc.contains(7.0) && enc.width() < 1e-12);
    }

    #[test]
    fn scratch_reuse_matches_fresh_eval() {
        let mut cx = Context::new();
        let e = cx.parse("exp(x) * sin(y) + x^3 / (1 + y^2)").unwrap();
        let f = cx.parse("max(x, y) - min(x, y)").unwrap();
        let mut scratch = EvalScratch::new();
        for k in 0..5 {
            let env = [0.3 * k as f64, 1.0 - 0.2 * k as f64];
            assert_eq!(cx.eval_with(e, &env, &mut scratch), cx.eval(e, &env));
            assert_eq!(cx.eval_with(f, &env, &mut scratch), cx.eval(f, &env));
            let mut out = [0.0; 2];
            cx.eval_many_with(&[e, f], &env, &mut scratch, &mut out);
            assert_eq!(out, [cx.eval(e, &env), cx.eval(f, &env)]);
            let bx = IBox::new(vec![
                Interval::new(env[0], env[0] + 0.1),
                Interval::new(env[1] - 0.1, env[1]),
            ]);
            assert_eq!(
                cx.eval_interval_with(e, &bx, &mut scratch),
                cx.eval_interval(e, &bx)
            );
        }
    }

    #[test]
    fn scratch_shared_across_contexts() {
        let mut scratch = EvalScratch::new();
        let mut cx1 = Context::new();
        let e1 = cx1.parse("x + 1").unwrap();
        let mut cx2 = Context::new();
        let e2 = cx2.parse("sin(x) * cos(y) + x*y*x*y").unwrap();
        assert_eq!(cx1.eval_with(e1, &[1.0], &mut scratch), 2.0);
        let big = cx2.eval_with(e2, &[0.5, 0.25], &mut scratch);
        assert!((big - (0.5f64.sin() * 0.25f64.cos() + 0.5 * 0.25 * 0.5 * 0.25)).abs() < 1e-15);
        assert_eq!(cx1.eval_with(e1, &[41.0], &mut scratch), 42.0);
    }

    #[test]
    fn program_eval_with_matches_eval_into() {
        let mut cx = Context::new();
        let f = cx.parse("x*sin(y) + exp(-x^2)").unwrap();
        let p = Program::compile(&cx, &[f]);
        let mut scratch = EvalScratch::new();
        let env = [0.7, -1.3];
        let (mut a, mut b) = ([0.0], [0.0]);
        p.eval_into(&env, &mut a);
        p.eval_with(&env, &mut scratch, &mut b);
        assert_eq!(a, b);
        let bx = IBox::new(vec![Interval::new(0.5, 0.9), Interval::new(-1.5, -1.0)]);
        let (mut ia, mut ib) = ([Interval::ZERO], [Interval::ZERO]);
        p.eval_interval_into(&bx, &mut ia);
        p.eval_interval_with(&bx, &mut scratch, &mut ib);
        assert_eq!(ia, ib);
    }

    #[test]
    fn eval_many_shares_scan() {
        let mut cx = Context::new();
        let a = cx.parse("x + y").unwrap();
        let b = cx.parse("x * y").unwrap();
        let vs = cx.eval_many(&[a, b], &[2.0, 5.0]);
        assert_eq!(vs, vec![7.0, 10.0]);
        assert!(cx.eval_many(&[], &[]).is_empty());
    }

    #[test]
    fn interval_eval_encloses_points() {
        let mut cx = Context::new();
        let e = cx.parse("x^2 - y / (1 + x^2)").unwrap();
        let bx = IBox::new(vec![Interval::new(-1.0, 2.0), Interval::new(0.0, 3.0)]);
        let enc = cx.eval_interval(e, &bx);
        for &x in &[-1.0, 0.0, 0.5, 2.0] {
            for &y in &[0.0, 1.5, 3.0] {
                let v = cx.eval(e, &[x, y]);
                assert!(enc.contains(v), "{enc:?} missing {v}");
            }
        }
    }

    #[test]
    fn interval_eval_respects_domains() {
        let mut cx = Context::new();
        let e = cx.parse("sqrt(x)").unwrap();
        let bad = cx.eval_interval(e, &IBox::new(vec![Interval::new(-2.0, -1.0)]));
        assert!(bad.is_empty());
        let clipped = cx.eval_interval(e, &IBox::new(vec![Interval::new(-1.0, 4.0)]));
        assert!(clipped.contains(2.0) && clipped.lo() >= 0.0);
    }

    #[test]
    fn program_matches_context_eval() {
        let mut cx = Context::new();
        let f = cx.parse("x*sin(y) + exp(-x^2)").unwrap();
        let g = cx.parse("min(x, y) + max(x, 0)").unwrap();
        let p = Program::compile(&cx, &[f, g]);
        assert_eq!(p.num_roots(), 2);
        assert!(p.len() <= cx.num_nodes());
        let env = [0.7, -1.3];
        let mut out = [0.0f64; 2];
        p.eval_into(&env, &mut out);
        assert!((out[0] - cx.eval(f, &env)).abs() < 1e-15);
        assert!((out[1] - cx.eval(g, &env)).abs() < 1e-15);
    }

    #[test]
    fn program_interval_matches() {
        let mut cx = Context::new();
        let f = cx.parse("x / (1 + y^2)").unwrap();
        let p = Program::compile(&cx, &[f]);
        let bx = IBox::new(vec![Interval::new(1.0, 2.0), Interval::new(-1.0, 1.0)]);
        let mut out = [Interval::ZERO; 1];
        p.eval_interval_into(&bx, &mut out);
        assert_eq!(out[0], cx.eval_interval(f, &bx));
    }

    #[test]
    fn program_prunes_unreachable() {
        let mut cx = Context::new();
        let _unrelated = cx.parse("sin(cos(tan(q + r + s)))").unwrap();
        let f = cx.parse("x + 1").unwrap();
        let p = Program::compile(&cx, &[f]);
        assert!(p.len() <= 3);
    }

    #[test]
    fn shared_roots_identical_slots() {
        let mut cx = Context::new();
        let f = cx.parse("x + 1").unwrap();
        let p = Program::compile(&cx, &[f, f]);
        let mut out = [0.0f64; 2];
        p.eval_into(&[41.0], &mut out);
        assert_eq!(out, [42.0, 42.0]);
    }

    #[test]
    fn compile_folds_nonint_const_pow() {
        // The arena's `pow` smart constructor leaves `2^0.5` symbolic
        // (non-integer exponent); compile-time folding collapses it —
        // and its now-orphaned literal operands — to a single constant.
        let mut cx = Context::new();
        let f = cx.parse("2^0.5").unwrap();
        assert!(cx.as_const(f).is_none(), "arena must not have folded this");
        let p = Program::compile(&cx, &[f]);
        assert_eq!(p.len(), 1, "folded program is one Const instruction");
        let mut out = [0.0];
        p.eval_into(&[], &mut out);
        assert_eq!(out[0].to_bits(), 2.0f64.powf(0.5).to_bits());
    }

    #[test]
    fn compile_cse_merges_fold_exposed_duplicates() {
        // `x + 2^0.5` and `x + max(2^0.5, 1)` are distinct arena nodes,
        // but both folded constants have the same scalar bits AND the
        // same interval enclosure (the max against a smaller point is
        // exact), so value numbering merges the folded constants and
        // then the two adds into one slot each.
        let mut cx = Context::new();
        let x = cx.var("x");
        let pow = cx.parse("2^0.5").unwrap();
        let capped = cx.parse("max(2^0.5, 1)").unwrap();
        let a = cx.add(x, pow);
        let b = cx.add(x, capped);
        assert_ne!(a, b, "arena keeps the two adds distinct");
        let p = Program::compile(&cx, &[a, b]);
        // x, the shared folded constant, one shared add.
        assert_eq!(p.len(), 3, "CSE must merge the adds: {p:?}");
        let mut out = [0.0; 2];
        p.eval_into(&[1.5], &mut out);
        assert_eq!(out[0].to_bits(), out[1].to_bits());
        assert_eq!(out[0], 1.5 + 2.0f64.powf(0.5));
    }

    #[test]
    fn cse_keeps_constants_with_different_enclosures_apart() {
        // `2^0.5` folds with an outward-rounded enclosure; the literal
        // with the same scalar bits has a point enclosure. Merging them
        // would make interval evaluation of the pow-derived root
        // unsoundly tight, so they must stay separate slots.
        let mut cx = Context::new();
        let x = cx.var("x");
        let pow = cx.parse("2^0.5").unwrap();
        let lit = cx.constant(2.0f64.powf(0.5));
        let a = cx.sub(x, pow);
        let b = cx.sub(x, lit);
        let p = Program::compile(&cx, &[a, b]);
        let bx = IBox::new(vec![Interval::point(2.0f64.powf(0.5))]);
        let mut out = [Interval::ZERO; 2];
        p.eval_interval_into(&bx, &mut out);
        assert_eq!(out[0], cx.eval_interval(a, &bx), "pow-derived enclosure");
        assert_eq!(out[1], cx.eval_interval(b, &bx), "literal enclosure");
        // The pow-derived enclosure carries √2's rounding slack; the
        // literal's is a point. A merge would have collapsed them.
        assert!(
            out[0].width() > out[1].width(),
            "folded enclosure must stay outward-rounded: {out:?}"
        );
    }

    #[test]
    fn folded_domain_errors_match_graph_interval_semantics() {
        // `ln(-1)` folds to scalar NaN with an *empty* enclosure — the
        // exact pair runtime evaluation produces — instead of a NaN
        // point interval (which would panic).
        let mut cx = Context::new();
        let f = cx.parse("x + ln(0 - 1)").unwrap();
        let p = Program::compile(&cx, &[f]);
        let mut out = [0.0];
        p.eval_into(&[1.0], &mut out);
        assert_eq!(out[0].to_bits(), cx.eval(f, &[1.0]).to_bits());
        assert!(out[0].is_nan());
        let bx = IBox::new(vec![Interval::new(0.0, 1.0)]);
        let mut iout = [Interval::ZERO];
        p.eval_interval_into(&bx, &mut iout);
        assert_eq!(iout[0], cx.eval_interval(f, &bx));
    }

    #[test]
    fn compile_fuses_single_use_binary_pairs() {
        let mut cx = Context::new();
        let f = cx.parse("x*y + z").unwrap();
        let p = Program::compile(&cx, &[f]);
        // x, y, z, fused mul-add: the standalone Mul slot is gone.
        assert_eq!(p.len(), 4, "{p:?}");
        let env = [3.0, 5.0, 7.0];
        let mut out = [0.0];
        p.eval_into(&env, &mut out);
        assert_eq!(out[0].to_bits(), (3.0f64 * 5.0 + 7.0).to_bits());
        assert_eq!(out[0].to_bits(), cx.eval(f, &env).to_bits());
    }

    #[test]
    fn fusion_skips_multi_use_subtrees() {
        // `x*y` feeds two consumers: it must stay a standalone slot (no
        // duplicated computation), and both consumers still evaluate right.
        let mut cx = Context::new();
        let f = cx.parse("(x*y + 1) - (x*y - 1)").unwrap();
        let p = Program::compile(&cx, &[f]);
        let env = [2.0, 3.0];
        let mut out = [0.0];
        p.eval_into(&env, &mut out);
        assert_eq!(out[0].to_bits(), cx.eval(f, &env).to_bits());
        // x, y, 1, mul (shared), add, sub, outer sub — the outer Sub fuses
        // one of its single-use children; the shared Mul survives.
        assert!(p.len() <= 6, "{p:?}");
    }

    #[test]
    fn fused_interval_matches_graph_interval() {
        let mut cx = Context::new();
        let f = cx.parse("x*y + z/(1 + x^2) - min(x, y)").unwrap();
        let p = Program::compile(&cx, &[f]);
        let bx = IBox::new(vec![
            Interval::new(-1.0, 2.0),
            Interval::new(0.5, 1.5),
            Interval::new(-3.0, 0.0),
        ]);
        let mut out = [Interval::ZERO];
        p.eval_interval_into(&bx, &mut out);
        assert_eq!(out[0], cx.eval_interval(f, &bx));
    }
}
