//! # cosynth-bdd — reduced ordered binary decision diagrams
//!
//! A small, dependency-free ROBDD engine in the spirit of the JavaBDD
//! library that Batfish and Minesweeper use for symbolic route analysis.
//! `policy-symbolic` compiles route maps into predicates over a fixed
//! variable order (prefix bits, prefix-length bits, community atoms,
//! protocol tag bits); this crate provides the underlying decision-diagram
//! algebra.
//!
//! ## Design
//!
//! * One [`Manager`] owns all nodes in a flat `Vec` arena. Nodes are
//!   hash-consed and edges carry **complement marks** (the low bit of a
//!   [`Ref`] means "negated"): each canonical `(var, lo, hi)` triple
//!   exists at most once and a function shares every node with its
//!   negation, so semantic equality of functions is equality of tagged
//!   [`Ref`]s and negation is a single xor.
//! * Canonical form: there is one terminal (TRUE; FALSE is its
//!   complement edge) and the then-edge of a stored node is never
//!   complemented — `mk` pushes a complemented then-edge onto both
//!   children and the result. `Manager::check_canonical` verifies this.
//! * Binary ops normalize complement marks out of their cache keys:
//!   `or` is the De Morgan dual sharing the `and` cache, `xor` strips
//!   operand marks and re-applies the parity, `ite` canonicalizes to a
//!   regular condition and then-branch. A predicate and its negation
//!   therefore hit the same cache lines.
//! * The unique table is **open-addressed** (CUDD-style): a power-of-two
//!   slot array of node indices, fx multiplicative hashing, linear
//!   probing without tombstones (nodes are never deleted), amortized
//!   doubling at 50% load. There is no `HashMap` on the hot path.
//! * The memo tables for `apply`/`ite`/`restrict` are fixed-size
//!   **direct-mapped lossy caches**: a lookup is one index computation
//!   and one compare; a colliding insert simply overwrites. Commutative
//!   apply keys are canonicalized by operand order first. (`not` needs
//!   no cache — it is O(1).)
//! * [`Manager::stats`] reports node counts, byte footprint, and
//!   per-cache hit/miss/eviction counters; [`Manager::with_capacity`]
//!   pre-sizes everything for a known workload.
//! * Variables are `u32` indices; the variable order *is* the index order.
//!   Callers allocate variables up front with [`Manager::new_var`] /
//!   [`Manager::new_vars`].
//! * No garbage collection: the node table only grows. This is the
//!   smoltcp trade: simplicity and predictability over peak memory use.
//! * `unsafe` is confined to bounds-check elision on *masked* table
//!   indices inside `tables.rs` (every index is `hash & (len - 1)`
//!   with a power-of-two length, so it is in bounds for any input);
//!   arena reads through caller-supplied `Ref`s stay checked.
//!
//! ## Supported operations
//!
//! Constants, variables, negation, and/or/xor/implies/iff, if-then-else,
//! existential and universal quantification over variable sets, restriction
//! (cofactor), satisfiability, model counting, one-solution extraction, and
//! support computation.
//!
//! ## Example
//!
//! ```
//! use bdd::Manager;
//!
//! let mut m = Manager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let fx = m.var(x);
//! let fy = m.var(y);
//! let conj = m.and(fx, fy);
//! let disj = m.or(fx, fy);
//! assert!(m.implies_check(conj, disj));
//! assert_eq!(m.sat_count(conj, 2), 1);
//! assert_eq!(m.sat_count(disj, 2), 3);
//! assert!(m.stats().apply.misses > 0);
//! ```

mod hash;
mod manager;
mod node;
mod sat;
mod tables;

pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use manager::Manager;
pub use node::{Ref, Var};
pub use tables::{CacheStats, ManagerStats};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_holds() {
        let mut m = Manager::new();
        let x = m.new_var();
        let y = m.new_var();
        let fx = m.var(x);
        let fy = m.var(y);
        let conj = m.and(fx, fy);
        let disj = m.or(fx, fy);
        assert!(m.implies_check(conj, disj));
        assert_eq!(m.sat_count(conj, 2), 1);
        assert_eq!(m.sat_count(disj, 2), 3);
        assert!(m.stats().apply.misses > 0);
    }

    #[test]
    fn engine_name_matches_feature() {
        assert_eq!(Manager::engine(), "open-addressed");
    }
}
