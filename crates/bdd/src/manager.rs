//! The BDD manager: node arena, hash-consing, and core operations.
//!
//! The kernel uses **complement edges** (CUDD-fashion): a [`Ref`] tags
//! the low bit as a negation mark, there is a single terminal node
//! (TRUE), and `FALSE` is its complemented edge. Negation is O(1) — one
//! xor — and every binary operation canonicalizes complement marks out
//! of its cache key so a function and its negation share cache lines:
//!
//! * `or(f, g) = ¬and(¬f, ¬g)` — one And cache serves both ops;
//! * `xor` strips both operands' marks and re-applies the parity to the
//!   result (`f ⊕ g`, `¬f ⊕ g`, `f ⊕ ¬g`, `¬f ⊕ ¬g` are one key);
//! * `ite` swaps branches to make the condition regular and complements
//!   the result to make the then-branch regular;
//! * `restrict` caches on the regular operand and re-applies the mark.
//!
//! The hot path is `mk` (hash-consed node construction under the
//! then-edge-regular rule) and the memoized Shannon expansions
//! `apply`/`ite`. Both go through the tables in [`crate::tables`]: an
//! open-addressed unique table plus direct-mapped lossy op caches.

use crate::node::{Node, Ref, Var};
use crate::tables::{Cache2, Cache3, ManagerStats, Sizing, UniqueTable, ENGINE};

/// Binary operation codes used as memoization keys.
///
/// Only And and Xor exist at the cache level: Or is derived through De
/// Morgan (`¬and(¬f, ¬g)`) so that disjunctions and conjunctions of the
/// same operands populate the same cache lines. Each op has its own
/// specialized recursion (`and_rec`/`xor_rec`) so the codes are folded
/// into the call sites rather than dispatched per level.
const OP_AND: u32 = 0;
const OP_XOR: u32 = 1;

/// The BDD manager. Owns every node; all operations go through it.
///
/// Construction is cheap; variables are allocated with [`Manager::new_var`].
/// All operations are deterministic for a given call sequence, which keeps
/// the experiment harness reproducible. Use [`Manager::with_capacity`]
/// when the rough node count is known (e.g. `policy-symbolic`'s 40+
/// variable route space) to avoid rehash churn while the table warms up.
pub struct Manager {
    nodes: Vec<Node>,
    unique: UniqueTable,
    apply_cache: Cache3,
    ite_cache: Cache3,
    restrict_cache: Cache2,
    /// Positive projection functions, CUDD's `bddVars`: `lits[v] = v`,
    /// filled lazily (the negative literal is its complement edge, so a
    /// single entry covers both polarities). Route-space constraint
    /// builders call `var`/`literal` once per conjunct, so resolving
    /// them without a unique-table probe matters.
    lits: Vec<Ref>,
    n_vars: u32,
}

/// Sentinel for an unfilled literal-cache entry (no edge has this value:
/// it would be the complement edge of node `(u32::MAX >> 1)`, far beyond
/// any real arena).
const NO_REF: Ref = Ref(u32::MAX);

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates an empty manager with no variables and default table
    /// sizes (tuned for a few tens of thousands of nodes).
    pub fn new() -> Self {
        Self::with_sizing(Sizing::default())
    }

    /// Creates a manager pre-sized for roughly `nodes_hint` live nodes.
    ///
    /// The unique table starts large enough to hold the hint at ≤50%
    /// load and the op caches scale with it, so a route-space workload
    /// never pays for table doubling during its hot phase. The hint is
    /// not a limit — tables still grow past it.
    pub fn with_capacity(nodes_hint: usize) -> Self {
        Self::with_sizing(Sizing::for_nodes(nodes_hint))
    }

    fn with_sizing(s: Sizing) -> Self {
        // Index 0 is the single TRUE terminal; FALSE is its complement
        // edge. It is never looked at as a decision node; we store a
        // sentinel with an out-of-range var so a bug that dereferences
        // it is loud (the out-of-range var also keeps it from ever
        // winning the `min` level comparison in apply/ite).
        let sentinel = Node {
            var: u32::MAX,
            lo: Ref::TRUE,
            hi: Ref::TRUE,
        };
        let mut nodes = Vec::with_capacity(s.unique_capacity.saturating_add(1));
        nodes.push(sentinel);
        Manager {
            nodes,
            unique: UniqueTable::with_capacity(s.unique_capacity),
            apply_cache: Cache3::new(s.apply_bits),
            ite_cache: Cache3::new(s.ite_bits),
            restrict_cache: Cache2::new(s.restrict_bits),
            lits: Vec::new(),
            n_vars: 0,
        }
    }

    /// The name of the table engine (`"open-addressed"`).
    pub fn engine() -> &'static str {
        ENGINE
    }

    /// A snapshot of node/table sizes and cache hit statistics.
    pub fn stats(&self) -> ManagerStats {
        let bytes = self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.unique.bytes()
            + self.apply_cache.bytes()
            + self.ite_cache.bytes()
            + self.restrict_cache.bytes();
        ManagerStats {
            engine: ENGINE,
            node_count: self.nodes.len(),
            unique_capacity: self.unique.capacity(),
            bytes,
            apply: self.apply_cache.stats,
            ite: self.ite_cache.stats,
            restrict: self.restrict_cache.stats,
        }
    }

    /// Recycles the manager: drops every node, variable, and memoized
    /// result while **keeping every allocation** — the node arena, the
    /// unique table's slot array (at whatever size it grew to), and the
    /// op-cache line arrays. After `clear()` the manager is
    /// observationally identical to a freshly constructed one (the same
    /// call sequence produces the same `Ref` values, because refs are
    /// assigned in insertion order and both start from an empty arena),
    /// but the next workload pays no allocation, no page faults, and no
    /// unique-table doubling up to the previous high-water mark.
    ///
    /// Op-cache lines are invalidated rather than kept: node indices are
    /// reassigned from scratch, so a stale entry would alias a new key
    /// onto an old result. Cache *counters* survive (they account the
    /// manager's lifetime, like `reset_stats` documents); callers that
    /// want per-cycle numbers call [`Manager::reset_stats`] too.
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        self.unique.clear();
        self.apply_cache.clear();
        self.ite_cache.clear();
        self.restrict_cache.clear();
        self.lits.clear();
        self.n_vars = 0;
    }

    /// Zeroes all cache counters (the tables themselves are untouched).
    pub fn reset_stats(&mut self) {
        self.apply_cache.stats = Default::default();
        self.ite_cache.stats = Default::default();
        self.restrict_cache.stats = Default::default();
    }

    /// Verifies the structural invariants hash-consing with complement
    /// edges relies on: no duplicate `(var, lo, hi)` triple, no
    /// redundant node (`lo == hi`), **no complemented then-edge**,
    /// children allocated before parents, and the variable order
    /// strictly increasing along every edge. O(n); for tests and
    /// debugging.
    pub fn check_canonical(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        if self.unique.len() != self.nodes.len() - 1 {
            return Err(format!(
                "unique table holds {} entries for {} non-terminal nodes",
                self.unique.len(),
                self.nodes.len() - 1
            ));
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.hi.is_complemented() {
                return Err(format!("node {i} has a complemented then-edge {:?}", n.hi));
            }
            if n.lo == n.hi {
                return Err(format!("node {i} is redundant: lo == hi == {:?}", n.lo));
            }
            if n.lo.index() >= i || n.hi.index() >= i {
                return Err(format!("node {i} references a later node"));
            }
            for child in [n.lo, n.hi] {
                if !child.is_const() && self.nodes[child.index()].var <= n.var {
                    return Err(format!(
                        "node {i} (var {}) has child with var {} out of order",
                        n.var,
                        self.nodes[child.index()].var
                    ));
                }
            }
            if !seen.insert((n.var, n.lo, n.hi)) {
                return Err(format!("duplicate triple at node {i}: {n:?}"));
            }
        }
        Ok(())
    }

    /// Allocates a fresh variable at the end of the order.
    pub fn new_var(&mut self) -> Var {
        let v = self.n_vars;
        self.n_vars += 1;
        self.lits.push(NO_REF);
        v
    }

    /// Allocates `n` fresh variables, returning their indices in order.
    pub fn new_vars(&mut self, n: u32) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables allocated.
    pub fn var_count(&self) -> u32 {
        self.n_vars
    }

    /// Number of live nodes (including the terminal). With complement
    /// edges a function and its negation share all their nodes, so this
    /// runs roughly half the pre-complement kernel's count on
    /// negation-heavy workloads.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The constant true function.
    pub fn top(&self) -> Ref {
        Ref::TRUE
    }

    /// The constant false function.
    pub fn bot(&self) -> Ref {
        Ref::FALSE
    }

    /// The function that is true iff `v` is true.
    #[inline]
    pub fn var(&mut self, v: Var) -> Ref {
        debug_assert!(v < self.n_vars, "variable {v} not allocated");
        let cached = self.lits[v as usize];
        if cached != NO_REF {
            return cached;
        }
        let r = self.mk(v, Ref::FALSE, Ref::TRUE);
        self.lits[v as usize] = r;
        r
    }

    /// The function that is true iff `v` is false: the complement edge
    /// of [`Manager::var`] — no separate node is allocated.
    #[inline]
    pub fn nvar(&mut self, v: Var) -> Ref {
        !self.var(v)
    }

    /// A literal: `var(v)` if `positive` else `nvar(v)`.
    pub fn literal(&mut self, v: Var, positive: bool) -> Ref {
        let r = self.var(v);
        if positive {
            r
        } else {
            !r
        }
    }

    /// Checked arena read resolving the complement mark: the cofactors
    /// of `¬f` are the negated cofactors of `f`, so a complemented
    /// reference pushes its mark onto both children (one xor each).
    ///
    /// The bounds check stays: a `Ref` is `Copy`, so a caller could hand
    /// us one minted by a *different* manager — the check keeps that a
    /// panic rather than UB. (The unchecked accesses in `tables.rs` are
    /// different: their indices are masked to the table length and sound
    /// for any input.)
    #[inline]
    fn cofactors(&self, r: Ref) -> (Var, Ref, Ref) {
        let n = self.nodes[r.index()];
        let mark = r.0 & 1;
        (n.var, Ref(n.lo.0 ^ mark), Ref(n.hi.0 ^ mark))
    }

    /// Hash-consed node construction with the reduction rule and the
    /// complement-edge canonicalization: a triple whose then-edge is
    /// complemented is stored with both children negated and returned
    /// through a complemented edge, so the then-edge of every *stored*
    /// node is regular and each function/negation pair owns exactly one
    /// node. The canonicalization is branchless: xor the then-edge's
    /// mark onto both children and back onto the (regular) result.
    #[inline]
    fn mk(&mut self, var: Var, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        let mark = hi.0 & 1;
        let node = Node {
            var,
            lo: Ref(lo.0 ^ mark),
            hi: Ref(hi.0 ^ mark),
        };
        let r = self.unique.get_or_insert(node, &mut self.nodes);
        Ref(r.0 | mark)
    }

    /// Negation: O(1) — flip the complement mark. No traversal, no
    /// cache, no allocation.
    #[inline]
    pub fn not(&self, f: Ref) -> Ref {
        !f
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.and_rec(f, g)
    }

    /// Disjunction, via De Morgan: `¬(¬f ∧ ¬g)`. Negation is free, so
    /// Or shares the And cache — `and(a, b)` and `or(¬a, ¬b)` are the
    /// same cache line.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        !self.and_rec(!f, !g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.xor_rec(f, g)
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Ref, g: Ref) -> Ref {
        !self.and_rec(f, !g)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Ref, g: Ref) -> Ref {
        !self.xor_rec(f, g)
    }

    /// Difference `f ∧ ¬g` — the "behaviour present in f but not g" space
    /// that Campion-lite reports on.
    pub fn diff(&mut self, f: Ref, g: Ref) -> Ref {
        self.and_rec(f, !g)
    }

    /// Conjunction over many operands.
    pub fn and_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::TRUE;
        for f in items {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction over many operands.
    pub fn or_all<I: IntoIterator<Item = Ref>>(&mut self, items: I) -> Ref {
        let mut acc = Ref::FALSE;
        for f in items {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// The And recursion. Terminal cases exploit complement edges: the
    /// common both-operands-internal path is two compares (const check,
    /// same-node check via `f.0 ^ g.0 ≤ 1`) before the cache probe.
    fn and_rec(&mut self, f: Ref, g: Ref) -> Ref {
        if f.is_const() || g.is_const() {
            return if f.is_false() || g.is_false() {
                Ref::FALSE
            } else if f.is_true() {
                g
            } else {
                f
            };
        }
        let x = f.0 ^ g.0;
        if x <= 1 {
            // Same node: x == 0 is f == g (→ f); x == 1 is f == ¬g
            // (→ ⊥) — a rule the pre-complement kernel could not see
            // without a traversal.
            return if x == 0 { f } else { Ref::FALSE };
        }
        // Commutative: order the operands, halving the key space.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.apply_cache.get(OP_AND, f.0, g.0) {
            return r;
        }
        // One arena load per operand; the node carries both the level
        // and the cofactors (complement marks resolved by `cofactors`).
        let (vf, f_lo0, f_hi0) = self.cofactors(f);
        let (vg, g_lo0, g_hi0) = self.cofactors(g);
        let v = vf.min(vg);
        let (f_lo, f_hi) = if vf == v { (f_lo0, f_hi0) } else { (f, f) };
        let (g_lo, g_hi) = if vg == v { (g_lo0, g_hi0) } else { (g, g) };
        let lo = self.and_rec(f_lo, g_lo);
        let hi = self.and_rec(f_hi, g_hi);
        let r = self.mk(v, lo, hi);
        self.apply_cache.put(OP_AND, f.0, g.0, r);
        r
    }

    /// The Xor recursion. Complement marks factor out of xor entirely
    /// (`¬a ⊕ b = ¬(a ⊕ b)`), so the parity of the operands' marks is
    /// xor-folded onto the result and the cache sees only regular
    /// operands: all four polarity combinations of a pair share one
    /// cache line, and the fold is a bit-xor, not a branch.
    fn xor_rec(&mut self, f: Ref, g: Ref) -> Ref {
        let mark = (f.0 ^ g.0) & 1;
        let (f, g) = (f.regular(), g.regular());
        if f == g {
            // Same polarity → ⊥, opposite → ⊤, i.e. `Ref(1 ^ mark)`.
            return Ref(1 ^ mark);
        }
        if f.is_true() {
            return Ref(g.0 ^ 1 ^ mark);
        }
        if g.is_true() {
            return Ref(f.0 ^ 1 ^ mark);
        }
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(r) = self.apply_cache.get(OP_XOR, f.0, g.0) {
            return Ref(r.0 ^ mark);
        }
        let (vf, f_lo0, f_hi0) = self.cofactors(f);
        let (vg, g_lo0, g_hi0) = self.cofactors(g);
        let v = vf.min(vg);
        let (f_lo, f_hi) = if vf == v { (f_lo0, f_hi0) } else { (f, f) };
        let (g_lo, g_hi) = if vg == v { (g_lo0, g_hi0) } else { (g, g) };
        let lo = self.xor_rec(f_lo, g_lo);
        let hi = self.xor_rec(f_hi, g_hi);
        let r = self.mk(v, lo, hi);
        self.apply_cache.put(OP_XOR, f.0, g.0, r);
        Ref(r.0 ^ mark)
    }

    /// If-then-else: `(c ∧ t) ∨ (¬c ∧ e)`.
    pub fn ite(&mut self, c: Ref, t: Ref, e: Ref) -> Ref {
        if c.is_const() {
            return if c.is_true() { t } else { e };
        }
        // Branch collapses: inside the then-branch c is true, inside the
        // else-branch it is false, so a branch equal to ±c reduces to a
        // constant. `x ≤ 1` detects "same node as c" and the low bit of
        // `x` is the polarity, which with `TRUE = 0`/`FALSE = 1` makes
        // the collapsed constant a one-xor rewrite.
        let xt = t.0 ^ c.0;
        let t = if xt <= 1 { Ref(xt) } else { t };
        let xe = e.0 ^ c.0;
        let e = if xe <= 1 { Ref(xe ^ 1) } else { e };
        if t == e {
            return t;
        }
        if t.is_const() || e.is_const() {
            // Constant branches are binary ops; delegating lands them in
            // the shared And cache instead of burning ite-cache lines.
            return if t.is_true() {
                self.or(c, e)
            } else if t.is_false() {
                self.and_rec(!c, e)
            } else if e.is_false() {
                self.and_rec(c, t)
            } else {
                self.implies(c, t)
            };
        }
        // Key canonicalization: make the condition regular (swap the
        // branches) and the then-branch regular (complement the result),
        // so all four mark placements of a triple share one cache line.
        let (mut c, mut t, mut e) = (c, t, e);
        if c.is_complemented() {
            c = !c;
            std::mem::swap(&mut t, &mut e);
        }
        let mark = t.0 & 1;
        if mark == 1 {
            t = !t;
            e = !e;
        }
        if let Some(r) = self.ite_cache.get(c.0, t.0, e.0) {
            return Ref(r.0 ^ mark);
        }
        // One arena load per operand; all three are non-constant here.
        let (vc, c_lo0, c_hi0) = self.cofactors(c);
        let (vt, t_lo0, t_hi0) = self.cofactors(t);
        let (ve, e_lo0, e_hi0) = self.cofactors(e);
        let v = vc.min(vt).min(ve);
        let (c_lo, c_hi) = if vc == v { (c_lo0, c_hi0) } else { (c, c) };
        let (t_lo, t_hi) = if vt == v { (t_lo0, t_hi0) } else { (t, t) };
        let (e_lo, e_hi) = if ve == v { (e_lo0, e_hi0) } else { (e, e) };
        let lo = self.ite(c_lo, t_lo, e_lo);
        let hi = self.ite(c_hi, t_hi, e_hi);
        let r = self.mk(v, lo, hi);
        self.ite_cache.put(c.0, t.0, e.0, r);
        Ref(r.0 ^ mark)
    }

    /// Restriction (cofactor): substitutes a constant for a variable.
    ///
    /// Restriction commutes with complement, so the memo is keyed on the
    /// regular reference (its dense node index) and the mark is
    /// xor-folded onto the result — `f` and `¬f` share their
    /// restrict-cache lines.
    pub fn restrict(&mut self, f: Ref, v: Var, value: bool) -> Ref {
        if f.is_const() {
            return f;
        }
        let mark = f.0 & 1;
        let fr = f.regular();
        let n = self.nodes[fr.index()];
        if n.var > v {
            return f;
        }
        if n.var == v {
            let child = if value { n.hi } else { n.lo };
            return Ref(child.0 ^ mark);
        }
        let key = v << 1 | value as u32;
        if let Some(r) = self.restrict_cache.get(fr.0 >> 1, key) {
            return Ref(r.0 ^ mark);
        }
        let lo = self.restrict(n.lo, v, value);
        let hi = self.restrict(n.hi, v, value);
        let r = self.mk(n.var, lo, hi);
        self.restrict_cache.put(fr.0 >> 1, key, r);
        Ref(r.0 ^ mark)
    }

    /// Existential quantification over a single variable.
    pub fn exists(&mut self, f: Ref, v: Var) -> Ref {
        let f0 = self.restrict(f, v, false);
        let f1 = self.restrict(f, v, true);
        self.or(f0, f1)
    }

    /// Existential quantification over a set of variables.
    pub fn exists_all(&mut self, f: Ref, vars: &[Var]) -> Ref {
        let mut acc = f;
        for &v in vars {
            acc = self.exists(acc, v);
        }
        acc
    }

    /// Universal quantification over a single variable.
    pub fn forall(&mut self, f: Ref, v: Var) -> Ref {
        let f0 = self.restrict(f, v, false);
        let f1 = self.restrict(f, v, true);
        self.and(f0, f1)
    }

    /// Universal quantification over a set of variables.
    pub fn forall_all(&mut self, f: Ref, vars: &[Var]) -> Ref {
        let mut acc = f;
        for &v in vars {
            acc = self.forall(acc, v);
        }
        acc
    }

    /// Whether the function is satisfiable.
    pub fn satisfiable(&self, f: Ref) -> bool {
        !f.is_false()
    }

    /// Whether the function is a tautology.
    pub fn tautology(&self, f: Ref) -> bool {
        f.is_true()
    }

    /// Semantic equivalence — with hash-consing this is just `==`, exposed
    /// as a method for readability at call sites.
    pub fn equivalent(&self, f: Ref, g: Ref) -> bool {
        f == g
    }

    /// Whether `f → g` holds for all assignments.
    pub fn implies_check(&mut self, f: Ref, g: Ref) -> bool {
        self.and_rec(f, !g).is_false()
    }

    /// Evaluates `f` under a total assignment given as a closure from
    /// variable to value.
    pub fn eval<A: Fn(Var) -> bool>(&self, f: Ref, assignment: A) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let (var, lo, hi) = self.cofactors(cur);
            cur = if assignment(var) { hi } else { lo };
        }
        cur.is_true()
    }

    /// The set of variables the function actually depends on, ascending.
    pub fn support(&self, f: Ref) -> Vec<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        // Complement marks do not change support; walking regular
        // references halves the visited set for mixed-polarity graphs.
        let mut stack = vec![f.regular()];
        while let Some(r) = stack.pop() {
            if r.is_const() || !seen.insert(r) {
                continue;
            }
            let n = self.nodes[r.index()];
            vars.insert(n.var);
            stack.push(n.lo.regular());
            stack.push(n.hi);
        }
        vars.into_iter().collect()
    }

    /// The cofactors of `r` with complement marks resolved (for the
    /// sat/model-counting walkers in `sat.rs`).
    pub(crate) fn node_children(&self, r: Ref) -> (Var, Ref, Ref) {
        self.cofactors(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u32) -> (Manager, Vec<Ref>) {
        let mut m = Manager::new();
        let vars = m.new_vars(n);
        let lits: Vec<Ref> = vars.iter().map(|&v| m.var(v)).collect();
        (m, lits)
    }

    #[test]
    fn constants_behave() {
        let mut m = Manager::new();
        assert!(m.top().is_true());
        assert!(m.bot().is_false());
        let t = m.top();
        let b = m.bot();
        assert_eq!(m.and(t, b), Ref::FALSE);
        assert_eq!(m.or(t, b), Ref::TRUE);
        assert_eq!(m.not(t), Ref::FALSE);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut m = Manager::new();
        let v = m.new_var();
        let a = m.var(v);
        let b = m.var(v);
        assert_eq!(a, b);
        let count = m.node_count();
        let _ = m.var(v);
        assert_eq!(m.node_count(), count, "no new nodes for repeat var()");
    }

    #[test]
    fn negation_is_node_free() {
        let (mut m, l) = setup(3);
        let f = m.and(l[0], l[1]);
        let count = m.node_count();
        let nf = m.not(f);
        assert_eq!(m.node_count(), count, "not() must not allocate");
        assert_ne!(nf, f);
        assert_eq!(nf.index(), f.index(), "f and ¬f share their node");
        // nvar shares var's node through the complement edge.
        let pos = m.var(2);
        let neg = m.nvar(2);
        assert_eq!(neg, !pos);
        assert_eq!(m.node_count(), count);
    }

    #[test]
    fn complement_terminal_rules() {
        let (mut m, l) = setup(2);
        let f = m.or(l[0], l[1]);
        let nf = m.not(f);
        assert_eq!(m.and(f, nf), Ref::FALSE);
        assert_eq!(m.or(f, nf), Ref::TRUE);
        assert_eq!(m.xor(f, nf), Ref::TRUE);
        assert_eq!(m.iff(f, nf), Ref::FALSE);
        assert!(m.implies_check(Ref::FALSE, f));
    }

    #[test]
    fn double_negation_is_identity() {
        let (mut m, l) = setup(3);
        let f = m.and(l[0], l[1]);
        let g = m.or(f, l[2]);
        let ng = m.not(g);
        let nng = m.not(ng);
        assert_eq!(nng, g);
    }

    #[test]
    fn de_morgan() {
        let (mut m, l) = setup(2);
        let conj = m.and(l[0], l[1]);
        let lhs = m.not(conj);
        let n0 = m.not(l[0]);
        let n1 = m.not(l[1]);
        let rhs = m.or(n0, n1);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_truth_table() {
        let (mut m, l) = setup(2);
        let x = m.xor(l[0], l[1]);
        assert!(!m.eval(x, |_| true));
        assert!(!m.eval(x, |_| false));
        assert!(m.eval(x, |v| v == 0));
        assert!(m.eval(x, |v| v == 1));
    }

    #[test]
    fn xor_complement_parity_shares_cache() {
        let (mut m, l) = setup(2);
        let x = m.xor(l[0], l[1]);
        let n0 = m.not(l[0]);
        let n1 = m.not(l[1]);
        // All four polarity combinations resolve without new misses
        // beyond the first: ¬a⊕b = a⊕¬b = ¬(a⊕b), ¬a⊕¬b = a⊕b.
        let before = m.stats().apply.misses;
        assert_eq!(m.xor(n0, n1), x);
        let nx = m.not(x);
        assert_eq!(m.xor(n0, l[1]), nx);
        assert_eq!(m.xor(l[0], n1), nx);
        assert_eq!(m.stats().apply.misses, before, "polarity variants must hit");
    }

    #[test]
    fn or_shares_the_and_cache() {
        let (mut m, l) = setup(4);
        let a = m.and(l[0], l[1]);
        let b = m.and(l[2], l[3]);
        let na = m.not(a);
        let nb = m.not(b);
        let union = m.or(a, b);
        // ¬a ∧ ¬b is the De Morgan dual the or() above just computed.
        let before = m.stats().apply.misses;
        let dual = m.and(na, nb);
        assert_eq!(dual, !union);
        assert_eq!(m.stats().apply.misses, before, "De Morgan dual must hit");
    }

    #[test]
    fn ite_equals_formula() {
        let (mut m, l) = setup(3);
        let via_ite = m.ite(l[0], l[1], l[2]);
        let t1 = m.and(l[0], l[1]);
        let n0 = m.not(l[0]);
        let t2 = m.and(n0, l[2]);
        let via_formula = m.or(t1, t2);
        assert_eq!(via_ite, via_formula);
    }

    #[test]
    fn ite_special_cases() {
        let (mut m, l) = setup(2);
        let t = m.top();
        let b = m.bot();
        assert_eq!(m.ite(t, l[0], l[1]), l[0]);
        assert_eq!(m.ite(b, l[0], l[1]), l[1]);
        assert_eq!(m.ite(l[0], t, b), l[0]);
        let n0 = m.not(l[0]);
        assert_eq!(m.ite(l[0], b, t), n0);
        assert_eq!(m.ite(l[0], l[1], l[1]), l[1]);
    }

    #[test]
    fn ite_complement_canonicalization() {
        let (mut m, l) = setup(3);
        let r = m.ite(l[0], l[1], l[2]);
        let n0 = m.not(l[0]);
        let n1 = m.not(l[1]);
        let n2 = m.not(l[2]);
        // ite(¬c, t, e) = ite(c, e, t); ite(c, ¬t, ¬e) = ¬ite(c, t, e).
        assert_eq!(m.ite(n0, l[2], l[1]), r);
        let nr = m.not(r);
        assert_eq!(m.ite(l[0], n1, n2), nr);
        assert_eq!(m.ite(n0, n2, n1), nr);
    }

    #[test]
    fn restrict_cofactors() {
        let (mut m, l) = setup(2);
        let f = m.and(l[0], l[1]);
        assert_eq!(m.restrict(f, 0, true), l[1]);
        assert_eq!(m.restrict(f, 0, false), Ref::FALSE);
        // Restricting a variable not in support is identity.
        let g = m.var(1);
        assert_eq!(m.restrict(g, 0, true), g);
    }

    #[test]
    fn restrict_commutes_with_complement() {
        let (mut m, l) = setup(3);
        let f = m.ite(l[0], l[1], l[2]);
        let nf = m.not(f);
        let r = m.restrict(f, 1, true);
        let nr = m.restrict(nf, 1, true);
        assert_eq!(nr, !r);
    }

    #[test]
    fn exists_and_forall() {
        let (mut m, l) = setup(2);
        let f = m.and(l[0], l[1]);
        // ∃x0. x0∧x1  ==  x1
        assert_eq!(m.exists(f, 0), l[1]);
        // ∀x0. x0∧x1  ==  false
        assert_eq!(m.forall(f, 0), Ref::FALSE);
        let g = m.or(l[0], l[1]);
        // ∀x0. x0∨x1 == x1
        assert_eq!(m.forall(g, 0), l[1]);
        // ∃ over everything in a satisfiable function is true.
        assert_eq!(m.exists_all(f, &[0, 1]), Ref::TRUE);
        assert_eq!(m.forall_all(g, &[0, 1]), Ref::FALSE);
    }

    #[test]
    fn implies_check_works() {
        let (mut m, l) = setup(2);
        let conj = m.and(l[0], l[1]);
        let disj = m.or(l[0], l[1]);
        assert!(m.implies_check(conj, disj));
        assert!(!m.implies_check(disj, conj));
        assert!(m.implies_check(conj, conj));
    }

    #[test]
    fn diff_is_relative_complement() {
        let (mut m, l) = setup(2);
        let disj = m.or(l[0], l[1]);
        let d = m.diff(disj, l[0]);
        // (x0 ∨ x1) ∧ ¬x0 == ¬x0 ∧ x1
        let n0 = m.not(l[0]);
        let expect = m.and(n0, l[1]);
        assert_eq!(d, expect);
    }

    #[test]
    fn support_lists_dependencies() {
        let (mut m, l) = setup(4);
        let f = m.and(l[1], l[3]);
        assert_eq!(m.support(f), vec![1, 3]);
        assert_eq!(m.support(Ref::TRUE), Vec::<Var>::new());
        // Support is complement-invariant.
        let nf = m.not(f);
        assert_eq!(m.support(nf), vec![1, 3]);
        // x2 ∨ ¬x2 collapses to true → empty support.
        let n2 = m.not(l[2]);
        let taut = m.or(l[2], n2);
        assert_eq!(m.support(taut), Vec::<Var>::new());
    }

    #[test]
    fn eval_walks_correctly() {
        let (mut m, l) = setup(3);
        let t0 = m.and(l[0], l[1]);
        let f = m.or(t0, l[2]);
        assert!(m.eval(f, |v| v == 2));
        assert!(m.eval(f, |v| v == 0 || v == 1));
        assert!(!m.eval(f, |v| v == 0));
        assert!(!m.eval(f, |_| false));
        // Complemented references evaluate to the negation pointwise.
        let nf = m.not(f);
        assert!(!m.eval(nf, |v| v == 2));
        assert!(m.eval(nf, |_| false));
    }

    #[test]
    fn and_or_all_fold() {
        let (mut m, l) = setup(4);
        let all = m.and_all(l.iter().copied());
        assert!(m.eval(all, |_| true));
        assert!(!m.eval(all, |v| v != 3));
        let any = m.or_all(l.iter().copied());
        assert!(m.eval(any, |v| v == 2));
        assert!(!m.eval(any, |_| false));
        assert_eq!(m.and_all(std::iter::empty()), Ref::TRUE);
        assert_eq!(m.or_all(std::iter::empty()), Ref::FALSE);
    }

    #[test]
    fn iff_and_implies_algebra() {
        let (mut m, l) = setup(2);
        let imp_ab = m.implies(l[0], l[1]);
        let imp_ba = m.implies(l[1], l[0]);
        let both = m.and(imp_ab, imp_ba);
        let iff = m.iff(l[0], l[1]);
        assert_eq!(both, iff);
    }

    #[test]
    fn larger_function_consistency() {
        // Parity of 8 variables: BDD size is linear, eval must agree with
        // direct computation on sampled assignments.
        let (mut m, l) = setup(8);
        let mut parity = Ref::FALSE;
        for &lit in &l {
            parity = m.xor(parity, lit);
        }
        for seed in 0u32..64 {
            let assignment = |v: Var| (seed >> v) & 1 == 1;
            let expect = (seed & 0xff).count_ones() % 2 == 1;
            assert_eq!(m.eval(parity, assignment), expect, "seed {seed}");
        }
    }

    #[test]
    fn with_capacity_prereserves_and_behaves_identically() {
        let mut small = Manager::new();
        let mut big = Manager::with_capacity(1 << 18);
        assert!(big.stats().unique_capacity > small.stats().unique_capacity);
        for m in [&mut small, &mut big] {
            m.new_vars(10);
        }
        let build = |m: &mut Manager| {
            let mut acc = Ref::FALSE;
            for v in 0..10 {
                let lit = m.var(v);
                acc = m.xor(acc, lit);
            }
            acc
        };
        // Same call sequence → same Refs, regardless of pre-sizing.
        assert_eq!(build(&mut small), build(&mut big));
        assert_eq!(small.node_count(), big.node_count());
    }

    #[test]
    fn stats_track_cache_traffic() {
        let (mut m, l) = setup(8);
        let before = m.stats();
        assert_eq!(before.apply.hits + before.apply.misses, 0);
        let mut acc = Ref::FALSE;
        for &lit in &l {
            acc = m.xor(acc, lit);
        }
        // Repeat the same fold: now the apply cache must hit.
        let mut acc2 = Ref::FALSE;
        for &lit in &l {
            acc2 = m.xor(acc2, lit);
        }
        assert_eq!(acc, acc2);
        let after = m.stats();
        assert!(after.apply.misses > 0, "{after:?}");
        assert!(after.apply.hits > 0, "{after:?}");
        assert!(after.bytes > 0);
        assert_eq!(after.engine, Manager::engine());
        m.reset_stats();
        let reset = m.stats();
        assert_eq!(reset.apply.hits + reset.apply.misses, 0);
    }

    #[test]
    fn canonical_invariants_hold_after_mixed_ops() {
        let (mut m, l) = setup(8);
        let mut acc = l[0];
        for (i, &lit) in l.iter().enumerate() {
            acc = match i % 3 {
                0 => m.and(acc, lit),
                1 => m.or(acc, lit),
                _ => m.xor(acc, lit),
            };
            let na = m.not(acc);
            acc = m.ite(lit, acc, na);
            acc = m.exists(acc, (i as u32) % 4);
        }
        m.check_canonical().expect("canonical");
    }

    #[test]
    fn clear_recycles_to_a_fresh_manager() {
        // Build a real mixed workload, clear, rebuild the same call
        // sequence: the recycled manager must reproduce the fresh
        // manager's Refs bit-for-bit and stay canonical throughout.
        let build = |m: &mut Manager| {
            let vars = m.new_vars(12);
            let lits: Vec<Ref> = vars.iter().map(|&v| m.var(v)).collect();
            let mut acc = lits[0];
            for (i, &lit) in lits.iter().enumerate() {
                acc = match i % 3 {
                    0 => m.and(acc, lit),
                    1 => m.or(acc, lit),
                    _ => m.xor(acc, lit),
                };
                let na = m.not(acc);
                acc = m.ite(lit, acc, na);
                acc = m.exists(acc, (i as u32) % 5);
            }
            (acc, m.node_count())
        };
        let mut fresh = Manager::new();
        let (f_ref, f_nodes) = build(&mut fresh);
        fresh.check_canonical().expect("fresh canonical");

        let mut recycled = Manager::new();
        let _ = build(&mut recycled);
        let grown_capacity = recycled.stats().unique_capacity;
        recycled.clear();
        assert_eq!(recycled.node_count(), 1, "only the terminal survives");
        assert_eq!(recycled.var_count(), 0);
        assert!(
            recycled.stats().unique_capacity >= grown_capacity,
            "clear must keep the grown table"
        );
        recycled.check_canonical().expect("empty is canonical");
        let (r_ref, r_nodes) = build(&mut recycled);
        assert_eq!(r_ref, f_ref, "recycled refs must match fresh refs");
        assert_eq!(r_nodes, f_nodes);
        recycled.check_canonical().expect("recycled canonical");

        // Stale memo entries must not leak across the clear: a third
        // cycle with a *different* workload over the same variable
        // range still agrees with a fresh manager.
        recycled.clear();
        let other = |m: &mut Manager| {
            let vars = m.new_vars(6);
            let lits: Vec<Ref> = vars.iter().map(|&v| m.var(v)).collect();
            let a = m.and(lits[0], lits[1]);
            let b = m.or(lits[2], lits[3]);
            let c = m.xor(lits[4], lits[5]);
            let i = m.ite(a, b, c);
            m.exists(i, 2)
        };
        let mut fresh2 = Manager::new();
        assert_eq!(other(&mut recycled), other(&mut fresh2));
        recycled.check_canonical().expect("third cycle canonical");
    }

    #[test]
    fn apply_key_canonicalization_is_order_insensitive() {
        let (mut m, l) = setup(4);
        let a = m.and(l[0], l[1]);
        let b = m.and(l[2], l[3]);
        let ab = m.or(a, b);
        let stats_before = m.stats().apply;
        let ba = m.or(b, a);
        let stats_after = m.stats().apply;
        assert_eq!(ab, ba);
        // The reversed call must be answered from cache or terminal
        // rules alone: no new misses.
        assert_eq!(stats_before.misses, stats_after.misses);
    }
}
