//! The CDCL solver proper.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A Boolean variable (dense index).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable or its negation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal with an explicit sign (`true` = positive).
    #[inline]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Is this the positive literal?
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[inline]
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    #[inline]
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "¬x{}", self.var().0)
        }
    }
}

/// Outcome of [`Solver::solve`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The clause set (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The interrupt flag ([`Solver::set_interrupt`]) was raised before
    /// the search decided. No answer is claimed; the clause set (learned
    /// clauses included) is intact and the solver stays usable, so a
    /// later `solve` resumes from everything learned so far.
    Interrupted,
}

const UNASSIGNED: u8 = 2;

/// Value of literal `l` under a raw assignment array.
#[inline]
fn lit_val(assign: &[u8], l: Lit) -> u8 {
    let a = assign[l.var().index()];
    if a == UNASSIGNED {
        UNASSIGNED
    } else if l.is_pos() {
        a
    } else {
        1 - a
    }
}

type ClauseRef = u32;
const NO_REASON: ClauseRef = u32::MAX;

/// A conflict-driven clause-learning SAT solver.
///
/// See the crate docs for an example. Clauses may be added between calls
/// to [`Solver::solve`]; learned clauses persist, so repeated solving
/// (the lazy SMT loop) is cheap.
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    /// watches[lit.code()] = clause indices watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    /// Assignment: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// Saved phase for each variable.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Set when an empty clause was added directly.
    broken: bool,
    conflicts: u64,
    restarts: u64,
    /// Cooperative interruption: polled once per search-loop iteration
    /// (every conflict and every decision), so a raised flag stops even
    /// a hopeless exponential search within microseconds.
    interrupt: Option<Arc<AtomicBool>>,
    /// Live progress mirrors of `conflicts`/`restarts` (see
    /// [`Solver::set_progress`]). One relaxed store each time the
    /// internal counter moves; purely observational.
    progress_conflicts: Option<Arc<AtomicU64>>,
    progress_restarts: Option<Arc<AtomicU64>>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            broken: false,
            conflicts: 0,
            restarts: 0,
            interrupt: None,
            progress_conflicts: None,
            progress_restarts: None,
        }
    }

    /// Attaches a cooperative interrupt flag. Raising it from any
    /// thread makes an in-flight (or future) [`Solver::solve`] return
    /// [`SolveResult::Interrupted`] at its next poll point instead of
    /// running the search to completion.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Detaches the interrupt flag.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Attaches live progress counters. The solver mirrors its
    /// cumulative conflict and restart totals into the handles with
    /// one relaxed store per event, at the same cadence as the
    /// [`Solver::set_interrupt`] poll — cheap enough to leave on, and
    /// strictly observational (never read back by the search).
    pub fn set_progress(&mut self, conflicts: Arc<AtomicU64>, restarts: Arc<AtomicU64>) {
        self.progress_conflicts = Some(conflicts);
        self.progress_restarts = Some(restarts);
    }

    fn interrupted(&self) -> bool {
        self.interrupt
            .as_deref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of conflicts encountered so far.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// The current model value of `v` (meaningful after `Sat`).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v.index()] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn lit_value(&self, l: Lit) -> u8 {
        lit_val(&self.assign, l)
    }

    /// Adds a clause (ORs of literals). Returns `false` when the clause is
    /// empty or immediately conflicting at the root level, in which case
    /// the instance is unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics when called with a literal over an unallocated variable or
    /// while the solver is mid-search (it never is through the public API).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        // Adding clauses resets the search to the root level (incremental
        // use: read the model *before* blocking it).
        self.cancel_until(0);
        // Dedup and drop tautologies.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_by_key(|l| l.code());
        c.dedup();
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return true; // l ∨ ¬l: tautology, trivially satisfied
            }
        }
        // Remove root-level falsified literals; detect satisfied clauses.
        c.retain(|&l| self.lit_value(l) != 0);
        if c.iter().any(|&l| self.lit_value(l) == 1) {
            return true;
        }
        match c.len() {
            0 => {
                self.broken = true;
                false
            }
            1 => {
                if !self.enqueue(c[0], NO_REASON) {
                    self.broken = true;
                    return false;
                }
                self.propagate().is_none() || {
                    self.broken = true;
                    false
                }
            }
            _ => {
                let idx = self.clauses.len() as ClauseRef;
                for &l in &c[..2] {
                    self.watches[l.negated().code()].push(idx);
                }
                self.clauses.push(c);
                true
            }
        }
    }

    fn enqueue(&mut self, l: Lit, reason: ClauseRef) -> bool {
        match self.lit_value(l) {
            1 => true,
            0 => false,
            _ => {
                let v = l.var().index();
                self.assign[v] = l.is_pos() as u8;
                self.phase[v] = l.is_pos();
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Clauses watching ¬p must find a new watch or propagate.
            let ws = std::mem::take(&mut self.watches[p.code()]);
            let mut keep = Vec::with_capacity(ws.len());
            let mut conflict = None;
            for (wi, &ci) in ws.iter().enumerate() {
                let falsified = p.negated();
                // Normalize: watched literals are positions 0 and 1, the
                // falsified one at position 1. Search a replacement watch.
                let (first, moved) = {
                    let assign = &self.assign;
                    let clause = &mut self.clauses[ci as usize];
                    if clause[0] == falsified {
                        clause.swap(0, 1);
                    }
                    debug_assert_eq!(clause[1], falsified);
                    let first = clause[0];
                    if lit_val(assign, first) == 1 {
                        keep.push(ci);
                        continue;
                    }
                    let mut moved = false;
                    for k in 2..clause.len() {
                        if lit_val(assign, clause[k]) != 0 {
                            clause.swap(1, k);
                            moved = true;
                            break;
                        }
                    }
                    (first, moved)
                };
                if moved {
                    let new_watch = self.clauses[ci as usize][1];
                    self.watches[new_watch.negated().code()].push(ci);
                    continue;
                }
                // Unit or conflict.
                keep.push(ci);
                if !self.enqueue(first, ci) {
                    // Conflict: keep the remaining watchers as-is.
                    keep.extend_from_slice(&ws[wi + 1..]);
                    conflict = Some(ci);
                    break;
                }
            }
            self.watches[p.code()] = keep;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump level).
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            let start = if p.is_none() { 0 } else { 1 };
            let clause: Vec<Lit> = self.clauses[conflict as usize][start..].to_vec();
            for &q in &clause {
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump(v);
                    if self.level[v.index()] == cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk back the trail to the next marked literal.
            loop {
                idx -= 1;
                if seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let uip = self.trail[idx];
            seen[uip.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = uip.negated();
                break;
            }
            conflict = self.reason[uip.var().index()];
            debug_assert_ne!(conflict, NO_REASON);
            p = Some(uip);
        }
        // Backjump level = max level among learned[1..].
        let bj = learned[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Put a literal of the backjump level in position 1 (watch invariant).
        if learned.len() > 1 {
            let pos = learned[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == bj)
                .unwrap()
                + 1;
            learned.swap(1, pos);
        }
        (learned, bj)
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.trail_lim.len() as u32 > lvl {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().index();
                self.assign[v] = UNASSIGNED;
                self.reason[v] = NO_REASON;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<Var> = None;
        let mut best_act = f64::NEG_INFINITY;
        for i in 0..self.num_vars() {
            if self.assign[i] == UNASSIGNED && self.activity[i] > best_act {
                best_act = self.activity[i];
                best = Some(Var(i as u32));
            }
        }
        best.map(|v| Lit::new(v, self.phase[v.index()]))
    }

    /// Luby sequence value (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
    fn luby(mut i: u64) -> u64 {
        loop {
            let mut k = 1u64;
            while (1u64 << k) - 1 < i {
                k += 1;
            }
            if (1u64 << k) - 1 == i {
                return 1u64 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under temporary assumptions (they are not kept afterwards).
    ///
    /// Assumptions occupy the first decision levels; a conflict that
    /// ultimately falsifies an assumption yields `Unsat` for this call
    /// only, leaving the solver reusable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.broken {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        let mut restart_budget = 64 * Self::luby(self.restarts + 1);
        loop {
            if self.interrupted() {
                self.cancel_until(0);
                return SolveResult::Interrupted;
            }
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if let Some(p) = &self.progress_conflicts {
                    p.store(self.conflicts, Ordering::Relaxed);
                }
                if self.trail_lim.is_empty() {
                    self.broken = true;
                    return SolveResult::Unsat;
                }
                let (learned, bj) = self.analyze(conflict);
                self.cancel_until(bj);
                let asserting = learned[0];
                if learned.len() == 1 {
                    debug_assert_eq!(bj, 0);
                    if !self.enqueue(asserting, NO_REASON) {
                        self.broken = true;
                        return SolveResult::Unsat;
                    }
                } else {
                    let ci = self.clauses.len() as ClauseRef;
                    for &l in &learned[..2] {
                        self.watches[l.negated().code()].push(ci);
                    }
                    self.clauses.push(learned);
                    let ok = self.enqueue(asserting, ci);
                    debug_assert!(ok, "learned clause must be asserting");
                }
                self.var_inc /= 0.95;
                restart_budget = restart_budget.saturating_sub(1);
            } else {
                if restart_budget == 0 {
                    self.restarts += 1;
                    if let Some(p) = &self.progress_restarts {
                        p.store(self.restarts, Ordering::Relaxed);
                    }
                    restart_budget = 64 * Self::luby(self.restarts + 1);
                    self.cancel_until(0);
                    continue;
                }
                // Re-establish the assumption prefix, one level per lit.
                if self.trail_lim.len() < assumptions.len() {
                    let a = assumptions[self.trail_lim.len()];
                    match self.lit_value(a) {
                        0 => return SolveResult::Unsat, // assumption refuted
                        1 => self.trail_lim.push(self.trail.len()),
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            let ok = self.enqueue(a, NO_REASON);
                            debug_assert!(ok);
                        }
                    }
                    continue;
                }
                match self.decide() {
                    None => return SolveResult::Sat,
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, NO_REASON);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }

    /// The satisfying assignment as a bit vector (after `Sat`).
    pub fn model(&self) -> Vec<bool> {
        self.assign.iter().map(|&a| a == 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, vs: &mut Vec<Var>, i: i32) -> Lit {
        let idx = i.unsigned_abs() as usize - 1;
        while vs.len() <= idx {
            vs.push(s.new_var());
        }
        Lit::new(vs[idx], i > 0)
    }

    fn solve_cnf(cnf: &[&[i32]]) -> (SolveResult, Solver, Vec<Var>) {
        let mut s = Solver::new();
        let mut vs = Vec::new();
        for c in cnf {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(&mut s, &mut vs, i)).collect();
            if !s.add_clause(&lits) {
                return (SolveResult::Unsat, s, vs);
            }
        }
        let r = s.solve();
        (r, s, vs)
    }

    fn check_model(cnf: &[&[i32]], s: &Solver, vs: &[Var]) {
        for c in cnf {
            let sat = c.iter().any(|&i| {
                let v = s.value(vs[i.unsigned_abs() as usize - 1]).unwrap();
                (i > 0) == v
            });
            assert!(sat, "clause {c:?} not satisfied");
        }
    }

    #[test]
    fn trivial_sat() {
        let cnf: &[&[i32]] = &[&[1, 2], &[-1]];
        let (r, s, vs) = solve_cnf(cnf);
        assert_eq!(r, SolveResult::Sat);
        check_model(cnf, &s, &vs);
        assert_eq!(s.value(vs[1]), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let (r, _, _) = solve_cnf(&[&[1], &[-1]]);
        assert_eq!(r, SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn tautology_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a), Lit::neg(a)]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pigeonhole_2_into_1_unsat() {
        // p11, p21, ¬p11∨¬p21 — two pigeons one hole.
        let cnf: &[&[i32]] = &[&[1], &[2], &[-1, -2]];
        let (r, _, _) = solve_cnf(cnf);
        assert_eq!(r, SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // Pigeons 1..3, holes 1..2. Var p(i,h) = 2(i-1)+h.
        let mut cnf: Vec<Vec<i32>> = Vec::new();
        for i in 0..3 {
            cnf.push(vec![2 * i + 1, 2 * i + 2]);
        }
        for h in 1..=2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    cnf.push(vec![-(2 * i + h), -(2 * j + h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cnf.iter().map(|c| c.as_slice()).collect();
        let (r, _, _) = solve_cnf(&refs);
        assert_eq!(r, SolveResult::Unsat);
    }

    #[test]
    fn chain_implications() {
        // x1 ∧ (x1→x2) ∧ ... ∧ (x9→x10): all true.
        let mut cnf: Vec<Vec<i32>> = vec![vec![1]];
        for i in 1..10 {
            cnf.push(vec![-i, i + 1]);
        }
        let refs: Vec<&[i32]> = cnf.iter().map(|c| c.as_slice()).collect();
        let (r, s, vs) = solve_cnf(&refs);
        assert_eq!(r, SolveResult::Sat);
        for v in &vs {
            assert_eq!(s.value(*v), Some(true));
        }
    }

    #[test]
    fn assumptions_basic() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]); // a → b
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(a)]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[Lit::pos(a), Lit::neg(b)]),
            SolveResult::Unsat
        );
        // Solver still usable afterwards.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_blocking_loop() {
        // Enumerate all 4 models of (a ∨ b) by blocking.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        let mut models = 0;
        while s.solve() == SolveResult::Sat {
            models += 1;
            let block: Vec<Lit> = [a, b]
                .iter()
                .map(|&v| Lit::new(v, !s.value(v).unwrap()))
                .collect();
            if !s.add_clause(&block) {
                break;
            }
            assert!(models <= 3, "too many models");
        }
        assert_eq!(models, 3);
    }

    #[test]
    fn brute_force_cross_check() {
        // Deterministic pseudo-random 3-CNFs, compared against brute force.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for inst in 0..60 {
            let nv = 4 + (rng() % 6) as i32; // 4..9 vars
            let nc = 5 + (rng() % 25) as usize;
            let mut cnf: Vec<Vec<i32>> = Vec::new();
            for _ in 0..nc {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = 1 + (rng() % nv as u64) as i32;
                    let sign = if rng() % 2 == 0 { 1 } else { -1 };
                    clause.push(sign * v);
                }
                cnf.push(clause);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for m in 0u32..(1 << nv) {
                for c in &cnf {
                    let ok = c.iter().any(|&l| {
                        let bit = (m >> (l.unsigned_abs() - 1)) & 1 == 1;
                        (l > 0) == bit
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            let refs: Vec<&[i32]> = cnf.iter().map(|c| c.as_slice()).collect();
            let (r, s, vs) = solve_cnf(&refs);
            assert_eq!(
                r == SolveResult::Sat,
                brute_sat,
                "instance {inst}: cnf {cnf:?}"
            );
            if r == SolveResult::Sat {
                check_model(&refs, &s, &vs);
            }
        }
    }

    #[test]
    fn luby_sequence() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64 + 1), w, "luby({})", i + 1);
        }
    }

    /// Pigeonhole CNF: `pigeons` pigeons into `holes` holes. Unsat (and
    /// exponentially hard for resolution/CDCL) when pigeons > holes.
    fn pigeonhole_cnf(pigeons: i32, holes: i32) -> Vec<Vec<i32>> {
        let var = |i: i32, h: i32| (i - 1) * holes + h;
        let mut cnf: Vec<Vec<i32>> = Vec::new();
        for i in 1..=pigeons {
            cnf.push((1..=holes).map(|h| var(i, h)).collect());
        }
        for h in 1..=holes {
            for i in 1..=pigeons {
                for j in (i + 1)..=pigeons {
                    cnf.push(vec![-var(i, h), -var(j, h)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pre_raised_interrupt_returns_immediately() {
        let mut s = Solver::new();
        let mut vs = Vec::new();
        for c in &pigeonhole_cnf(6, 5) {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(&mut s, &mut vs, i)).collect();
            assert!(s.add_clause(&lits));
        }
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Arc::clone(&flag));
        assert_eq!(s.solve(), SolveResult::Interrupted);
        // Lowering the flag makes the same solver finish the search.
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn mid_solve_interrupt_stops_hard_instance() {
        // php(11, 10) takes far longer than the interrupt delay on any
        // machine, so the timer thread always wins the race.
        let mut s = Solver::new();
        let mut vs = Vec::new();
        for c in &pigeonhole_cnf(11, 10) {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(&mut s, &mut vs, i)).collect();
            assert!(s.add_clause(&lits));
        }
        let flag = Arc::new(AtomicBool::new(false));
        s.set_interrupt(Arc::clone(&flag));
        let timer = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                flag.store(true, Ordering::Relaxed);
            })
        };
        let start = std::time::Instant::now();
        let r = s.solve();
        timer.join().unwrap();
        assert_eq!(r, SolveResult::Interrupted);
        // Well-formed partial state: conflicts were counted, the trail is
        // reset, and the solver answers small follow-up queries.
        assert!(start.elapsed() < std::time::Duration::from_secs(20));
        assert!(s.num_conflicts() > 0, "search never ran");
        s.clear_interrupt();
        let extra = s.new_var();
        assert!(s.add_clause(&[Lit::pos(extra)]));
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(extra)]),
            SolveResult::Unsat
        );
    }

    #[test]
    fn literal_encoding() {
        let v = Var(3);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert!(p.is_pos() && !n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(p.negated().negated(), p);
        assert_eq!(format!("{p}"), "x3");
        assert_eq!(format!("{n}"), "¬x3");
    }
}
