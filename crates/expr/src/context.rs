//! The expression arena: nodes, hash-consing, and smart constructors.

use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an expression node inside a [`Context`].
///
/// Ids are dense indices; a child's id is always smaller than its parent's,
/// so a single forward scan of the arena evaluates any expression.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index.
    ///
    /// Intended for solver back-ends that re-index compiled sub-DAGs (the
    /// id is then relative to the back-end's own node table, not to a
    /// [`Context`]).
    #[inline]
    pub fn from_raw(i: u32) -> NodeId {
        NodeId(i)
    }
}

/// Identifier of a variable inside a [`Context`].
///
/// Doubles as the index into evaluation environments (`&[f64]` / `IBox`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The raw environment index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VarId` from a raw environment index.
    #[inline]
    pub fn from_index(i: usize) -> VarId {
        VarId(i as u32)
    }
}

/// Unary operations of the term language.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    Neg,
    Abs,
    Sqrt,
    Exp,
    Ln,
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Sinh,
    Cosh,
    Tanh,
}

impl UnaryOp {
    /// The surface-syntax function name.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Abs => "abs",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Exp => "exp",
            UnaryOp::Ln => "ln",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
            UnaryOp::Tan => "tan",
            UnaryOp::Asin => "asin",
            UnaryOp::Acos => "acos",
            UnaryOp::Atan => "atan",
            UnaryOp::Sinh => "sinh",
            UnaryOp::Cosh => "cosh",
            UnaryOp::Tanh => "tanh",
        }
    }
}

/// Binary operations of the term language.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Real power `a^b` (defined for `a > 0`); use [`Node::PowI`] for
    /// integer exponents, which also handles negative bases.
    Pow,
    Min,
    Max,
}

/// An expression node. Constants and variables are leaves; everything else
/// references children by [`NodeId`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Node {
    /// A real constant.
    Const(f64),
    /// A variable reference.
    Var(VarId),
    /// A unary function application.
    Unary(UnaryOp, NodeId),
    /// A binary function application.
    Binary(BinOp, NodeId, NodeId),
    /// Integer power `a^n` (sign-correct for negative bases).
    PowI(NodeId, i32),
}

/// Interner key: identical to [`Node`] but with the constant bit-cast so it
/// can implement `Eq + Hash`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
enum Key {
    Const(u64),
    Var(u32),
    Unary(UnaryOp, u32),
    Binary(BinOp, u32, u32),
    PowI(u32, i32),
}

impl Key {
    fn of(node: &Node) -> Key {
        match *node {
            Node::Const(v) => Key::Const(v.to_bits()),
            Node::Var(v) => Key::Var(v.0),
            Node::Unary(op, a) => Key::Unary(op, a.0),
            Node::Binary(op, a, b) => Key::Binary(op, a.0, b.0),
            Node::PowI(a, n) => Key::PowI(a.0, n),
        }
    }
}

/// The arena holding a family of expressions plus the variable table.
///
/// All BioCheck components that exchange expressions (models, constraints,
/// solvers) share one `Context`.
///
/// Clones share the variable table until one of them declares a new
/// variable (copy on write), so a clone costs the node arena only.
#[derive(Clone, Default, Debug)]
pub struct Context {
    nodes: Vec<Node>,
    interner: HashMap<Key, NodeId>,
    vars: Arc<Vars>,
}

/// The variable table: names indexed by [`VarId`], and the reverse map.
#[derive(Clone, Default, Debug)]
struct Vars {
    names: Vec<String>,
    index: HashMap<String, VarId>,
}

impl Context {
    /// Creates an empty context.
    pub fn new() -> Context {
        Context::default()
    }

    /// Number of nodes in the arena.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.names.len()
    }

    /// The node stored at `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All nodes in topological (child-before-parent) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Declares (or retrieves) the variable `name` and returns its node.
    pub fn var(&mut self, name: &str) -> NodeId {
        let vid = self.intern_var(name);
        self.push(Node::Var(vid))
    }

    /// Declares (or retrieves) the variable `name`, returning its [`VarId`].
    pub fn intern_var(&mut self, name: &str) -> VarId {
        if let Some(&vid) = self.vars.index.get(name) {
            return vid;
        }
        let vars = Arc::make_mut(&mut self.vars);
        let vid = VarId(vars.names.len() as u32);
        vars.names.push(name.to_string());
        vars.index.insert(name.to_string(), vid);
        vid
    }

    /// Looks up an already-declared variable.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars.index.get(name).copied()
    }

    /// The node for an already-declared variable id.
    pub fn var_node(&mut self, vid: VarId) -> NodeId {
        assert!(
            vid.index() < self.vars.names.len(),
            "unknown variable id {vid:?}"
        );
        self.push(Node::Var(vid))
    }

    /// The name of a variable.
    pub fn var_name(&self, vid: VarId) -> &str {
        &self.vars.names[vid.index()]
    }

    /// All variable names, indexed by [`VarId`].
    pub fn var_names(&self) -> &[String] {
        &self.vars.names
    }

    /// Interns a constant.
    pub fn constant(&mut self, v: f64) -> NodeId {
        assert!(!v.is_nan(), "NaN constant in expression");
        self.push(Node::Const(v))
    }

    fn push(&mut self, node: Node) -> NodeId {
        let key = Key::of(&node);
        if let Some(&id) = self.interner.get(&key) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.interner.insert(key, id);
        id
    }

    /// Reads a constant value back, if `id` is a constant node.
    pub fn as_const(&self, id: NodeId) -> Option<f64> {
        match self.node(id) {
            Node::Const(v) => Some(*v),
            _ => None,
        }
    }

    fn is_zero(&self, id: NodeId) -> bool {
        self.as_const(id) == Some(0.0)
    }

    fn is_one(&self, id: NodeId) -> bool {
        self.as_const(id) == Some(1.0)
    }

    /// `a + b` with constant folding and unit laws.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x + y);
        }
        if self.is_zero(a) {
            return b;
        }
        if self.is_zero(b) {
            return a;
        }
        self.push(Node::Binary(BinOp::Add, a, b))
    }

    /// `a - b` with constant folding, `a-0 = a`, `0-b = -b`, `a-a = 0`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x - y);
        }
        if self.is_zero(b) {
            return a;
        }
        if self.is_zero(a) {
            return self.neg(b);
        }
        if a == b {
            return self.constant(0.0);
        }
        self.push(Node::Binary(BinOp::Sub, a, b))
    }

    /// `a * b` with constant folding, absorbing zero, unit laws, and
    /// `a*a → a²` (tighter under interval evaluation).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x * y);
        }
        if self.is_zero(a) || self.is_zero(b) {
            return self.constant(0.0);
        }
        if self.is_one(a) {
            return b;
        }
        if self.is_one(b) {
            return a;
        }
        if a == b {
            return self.powi(a, 2);
        }
        self.push(Node::Binary(BinOp::Mul, a, b))
    }

    /// `a / b` with constant folding and `a/1 = a`.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            if y != 0.0 {
                return self.constant(x / y);
            }
        }
        if self.is_one(b) {
            return a;
        }
        self.push(Node::Binary(BinOp::Div, a, b))
    }

    /// Real power `a^b`.
    pub fn pow(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.as_const(b) {
            if n.fract() == 0.0 && n.abs() <= i32::MAX as f64 {
                return self.powi(a, n as i32);
            }
        }
        self.push(Node::Binary(BinOp::Pow, a, b))
    }

    /// Integer power `aⁿ` with `a⁰ = 1`, `a¹ = a` and constant folding.
    pub fn powi(&mut self, a: NodeId, n: i32) -> NodeId {
        match n {
            0 => self.constant(1.0),
            1 => a,
            _ => {
                if let Some(x) = self.as_const(a) {
                    return self.constant(x.powi(n));
                }
                self.push(Node::PowI(a, n))
            }
        }
    }

    /// `min(a, b)`.
    pub fn min(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.min(y));
        }
        if a == b {
            return a;
        }
        self.push(Node::Binary(BinOp::Min, a, b))
    }

    /// `max(a, b)`.
    pub fn max(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(x.max(y));
        }
        if a == b {
            return a;
        }
        self.push(Node::Binary(BinOp::Max, a, b))
    }

    /// `-a` with double-negation elimination and constant folding.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        if let Some(x) = self.as_const(a) {
            return self.constant(-x);
        }
        if let Node::Unary(UnaryOp::Neg, inner) = *self.node(a) {
            return inner;
        }
        self.push(Node::Unary(UnaryOp::Neg, a))
    }

    /// Applies a unary function.
    pub fn unary(&mut self, op: UnaryOp, a: NodeId) -> NodeId {
        if op == UnaryOp::Neg {
            return self.neg(a);
        }
        if let Some(x) = self.as_const(a) {
            let v = eval_unary_f64(op, x);
            if !v.is_nan() {
                return self.constant(v);
            }
        }
        self.push(Node::Unary(op, a))
    }

    /// Applies a binary function.
    pub fn binary(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        match op {
            BinOp::Add => self.add(a, b),
            BinOp::Sub => self.sub(a, b),
            BinOp::Mul => self.mul(a, b),
            BinOp::Div => self.div(a, b),
            BinOp::Pow => self.pow(a, b),
            BinOp::Min => self.min(a, b),
            BinOp::Max => self.max(a, b),
        }
    }

    /// Convenience wrappers for the named unary functions.
    pub fn sqrt(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Sqrt, a)
    }
    /// `exp(a)`.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Exp, a)
    }
    /// `ln(a)`.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Ln, a)
    }
    /// `sin(a)`.
    pub fn sin(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Sin, a)
    }
    /// `cos(a)`.
    pub fn cos(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Cos, a)
    }
    /// `tan(a)`.
    pub fn tan(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Tan, a)
    }
    /// `abs(a)`.
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Abs, a)
    }
    /// `tanh(a)`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.unary(UnaryOp::Tanh, a)
    }

    /// Builds `Σ terms` (0 for the empty sum).
    pub fn sum(&mut self, terms: &[NodeId]) -> NodeId {
        let mut acc = self.constant(0.0);
        for &t in terms {
            acc = self.add(acc, t);
        }
        acc
    }

    /// Builds `Π factors` (1 for the empty product).
    pub fn product(&mut self, factors: &[NodeId]) -> NodeId {
        let mut acc = self.constant(1.0);
        for &f in factors {
            acc = self.mul(acc, f);
        }
        acc
    }
}

/// Scalar semantics of unary ops (shared between folding and evaluation).
/// Applies a unary operation to a scalar (public for downstream solvers).
pub fn eval_unary_f64(op: UnaryOp, x: f64) -> f64 {
    unary_lanes(op, &[x])[0]
}

/// Applies a unary operation to each of `K` lanes, dispatching on `op`
/// once. Lane `l` computes exactly [`eval_unary_f64`]`(op, x[l])`: the
/// scalar form is the `K = 1` instance.
#[inline(always)]
pub(crate) fn unary_lanes<const K: usize>(op: UnaryOp, x: &[f64; K]) -> [f64; K] {
    match op {
        UnaryOp::Neg => x.map(|v| -v),
        UnaryOp::Abs => x.map(f64::abs),
        UnaryOp::Sqrt => x.map(f64::sqrt),
        UnaryOp::Exp => x.map(f64::exp),
        UnaryOp::Ln => x.map(f64::ln),
        UnaryOp::Sin => x.map(f64::sin),
        UnaryOp::Cos => x.map(f64::cos),
        UnaryOp::Tan => x.map(f64::tan),
        UnaryOp::Asin => x.map(f64::asin),
        UnaryOp::Acos => x.map(f64::acos),
        UnaryOp::Atan => x.map(f64::atan),
        UnaryOp::Sinh => x.map(f64::sinh),
        UnaryOp::Cosh => x.map(f64::cosh),
        UnaryOp::Tanh => crate::tanh::tanh_lanes(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut cx = Context::new();
        let x = cx.var("x");
        let a = cx.add(x, x);
        let b = cx.add(x, x);
        assert_eq!(a, b);
        let n = cx.num_nodes();
        let _ = cx.add(x, x);
        assert_eq!(cx.num_nodes(), n);
    }

    #[test]
    fn variable_table() {
        let mut cx = Context::new();
        let x1 = cx.var("x");
        let x2 = cx.var("x");
        assert_eq!(x1, x2);
        assert_eq!(cx.num_vars(), 1);
        let vid = cx.var_id("x").unwrap();
        assert_eq!(cx.var_name(vid), "x");
        assert!(cx.var_id("nope").is_none());
        assert_eq!(cx.var_node(vid), x1);
    }

    #[test]
    fn constant_folding() {
        let mut cx = Context::new();
        let two = cx.constant(2.0);
        let three = cx.constant(3.0);
        let s = cx.add(two, three);
        assert_eq!(cx.as_const(s), Some(5.0));
        let p = cx.mul(two, three);
        assert_eq!(cx.as_const(p), Some(6.0));
        let q = cx.div(three, two);
        assert_eq!(cx.as_const(q), Some(1.5));
        let e = cx.exp(two);
        assert_eq!(cx.as_const(e), Some(2.0f64.exp()));
    }

    #[test]
    fn unit_laws() {
        let mut cx = Context::new();
        let x = cx.var("x");
        let zero = cx.constant(0.0);
        let one = cx.constant(1.0);
        assert_eq!(cx.add(x, zero), x);
        assert_eq!(cx.add(zero, x), x);
        assert_eq!(cx.sub(x, zero), x);
        assert_eq!(cx.mul(x, one), x);
        assert_eq!(cx.mul(one, x), x);
        assert_eq!(cx.mul(x, zero), zero);
        assert_eq!(cx.div(x, one), x);
        assert_eq!(cx.sub(x, x), zero);
        assert_eq!(cx.powi(x, 1), x);
        let p0 = cx.powi(x, 0);
        assert_eq!(cx.as_const(p0), Some(1.0));
    }

    #[test]
    fn x_times_x_becomes_square() {
        let mut cx = Context::new();
        let x = cx.var("x");
        let p = cx.mul(x, x);
        assert!(matches!(cx.node(p), Node::PowI(_, 2)));
    }

    #[test]
    fn double_negation() {
        let mut cx = Context::new();
        let x = cx.var("x");
        let n = cx.neg(x);
        let nn = cx.neg(n);
        assert_eq!(nn, x);
    }

    #[test]
    fn pow_const_exponent_becomes_powi() {
        let mut cx = Context::new();
        let x = cx.var("x");
        let two = cx.constant(2.0);
        let p = cx.pow(x, two);
        assert!(matches!(cx.node(p), Node::PowI(_, 2)));
        let half = cx.constant(0.5);
        let q = cx.pow(x, half);
        assert!(matches!(cx.node(q), Node::Binary(BinOp::Pow, _, _)));
    }

    #[test]
    fn sum_and_product() {
        let mut cx = Context::new();
        let xs: Vec<_> = (0..4).map(|i| cx.constant(i as f64 + 1.0)).collect();
        let s = cx.sum(&xs);
        assert_eq!(cx.as_const(s), Some(10.0));
        let p = cx.product(&xs);
        assert_eq!(cx.as_const(p), Some(24.0));
        let empty = cx.sum(&[]);
        assert_eq!(cx.as_const(empty), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "NaN constant")]
    fn nan_constant_rejected() {
        let mut cx = Context::new();
        let _ = cx.constant(f64::NAN);
    }

    #[test]
    fn topological_order_invariant() {
        let mut cx = Context::new();
        let e = cx.parse("exp(x) * (y + 3) - sin(x*y)").unwrap();
        for (i, n) in cx.nodes().iter().enumerate() {
            match *n {
                Node::Unary(_, a) => assert!(a.index() < i),
                Node::Binary(_, a, b) => assert!(a.index() < i && b.index() < i),
                Node::PowI(a, _) => assert!(a.index() < i),
                _ => {}
            }
        }
        assert!(e.index() < cx.num_nodes());
    }
}
