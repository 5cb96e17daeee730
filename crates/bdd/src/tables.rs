//! The kernel's tables: the hash-consing unique table and the lossy
//! operation caches.
//!
//! A CUDD-style power-of-two unique table with fx multiplicative
//! hashing and tombstone-free linear probing over the node arena, plus
//! fixed-size **direct-mapped** op caches — a lookup is one multiply,
//! one mask, one compare, zero allocation; entries are overwritten
//! (lossily) on index collision, which is sound because op caches are
//! only an optimization. Every op cache keeps [`CacheStats`] accounting.

use crate::hash::{fx_mix, hash3};
use crate::node::{Node, Ref};

/// Hit/miss/eviction counters for one operation cache.
///
/// An eviction is a colliding entry overwriting the previous one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a previously computed result.
    pub hits: u64,
    /// Lookups that found nothing (or a colliding key).
    pub misses: u64,
    /// Valid entries overwritten by a different key.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A point-in-time snapshot of the manager's memory and cache behaviour.
#[derive(Debug, Clone)]
pub struct ManagerStats {
    /// The table engine's name (`"open-addressed"`; `BENCH_bdd.json`
    /// keys each engine's block by it).
    pub engine: &'static str,
    /// Live nodes, including the terminal.
    pub node_count: usize,
    /// Slot count of the unique table.
    pub unique_capacity: usize,
    /// Approximate bytes held by the node arena plus all tables.
    pub bytes: usize,
    /// Apply (and/xor — or is the De Morgan dual of and) cache counters.
    pub apply: CacheStats,
    /// If-then-else cache counters.
    pub ite: CacheStats,
    /// Restrict (cofactor) cache counters. (There is no negation cache:
    /// with complement edges `not` is a bit flip.)
    pub restrict: CacheStats,
}

/// Capacity plan: how large each table starts
/// for a given expected node count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizing {
    pub unique_capacity: usize,
    pub apply_bits: u32,
    pub ite_bits: u32,
    pub restrict_bits: u32,
}

impl Sizing {
    /// Sizing for an expected number of live nodes.
    pub(crate) fn for_nodes(nodes_hint: usize) -> Sizing {
        // One cache slot per expected node keeps hit rates high on the
        // route-space workloads; clamp so tiny managers stay tiny and
        // huge hints cannot allocate absurd caches up front.
        let bits = usize::BITS - nodes_hint.max(1).next_power_of_two().leading_zeros() - 1;
        let apply_bits = bits.clamp(12, 22);
        Sizing {
            unique_capacity: nodes_hint.clamp(1 << 10, 1 << 28),
            apply_bits,
            // The complement-edge canonicalizations collapse ite keys
            // (regular condition, regular then-branch), so ite spreads
            // no wider than apply; give it the same budget.
            ite_bits: apply_bits,
            restrict_bits: apply_bits,
        }
    }
}

impl Default for Sizing {
    fn default() -> Self {
        Sizing::for_nodes(1 << 14)
    }
}

pub(crate) const ENGINE: &str = "open-addressed";

/// Slot sentinel: no node. Valid node indices stay far below this
/// (the arena is indexed by tagged `u32` refs and holds the
/// terminal).
const EMPTY: u32 = u32::MAX;

/// One unique-table slot: the node triple inlined next to its arena
/// index (`lo`/`hi` are the *tagged* child refs of the canonical
/// form — the complement mark is part of the key). Empty slots carry
/// `idx == EMPTY` and `var == u32::MAX` (which never matches a
/// probe, since the terminal is not stored).
///
/// Inlining the triple means a probe is a single 16-byte load and
/// three compares — no dependent load into the node arena, which is
/// the difference between L1 and L2 latency once the arena outgrows
/// cache. The arena stays the identity store; the slots are a
/// read-optimized copy.
#[derive(Clone, Copy)]
struct Slot {
    var: u32,
    lo: u32,
    hi: u32,
    idx: u32,
}

const EMPTY_SLOT: Slot = Slot {
    var: u32::MAX,
    lo: 0,
    hi: 0,
    idx: EMPTY,
};

/// Open-addressed unique table: power-of-two slot array, fx-hashed
/// on `(var, lo, hi)`, linear probing. Nodes are never deleted (no
/// GC), so probing needs no tombstones and a probe chain ends at the
/// first empty slot.
pub(crate) struct UniqueTable {
    slots: Vec<Slot>,
    len: usize,
}

impl UniqueTable {
    pub(crate) fn with_capacity(nodes_hint: usize) -> UniqueTable {
        // ≤ 50% load at the hinted size.
        let slots = (nodes_hint.max(8) * 2).next_power_of_two();
        UniqueTable {
            slots: vec![EMPTY_SLOT; slots],
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Empties the table while keeping its slot array (and thus the
    /// capacity it grew to) — one `memset`-class fill, no
    /// deallocation, no page faults on the next warm-up.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }

    /// Finds the canonical regular `Ref` for `node` (arena index
    /// shifted past the complement bit), appending it to the arena
    /// if it is new. Amortized O(1); doubles at 50% load.
    ///
    /// SAFETY: every probe index is masked by `slots.len() - 1` and
    /// the slot vector's length is a power of two, so the unchecked
    /// accesses are always in bounds.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, node: Node, nodes: &mut Vec<Node>) -> Ref {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let (var, lo, hi) = (node.var, node.lo.0, node.hi.0);
        let mask = self.slots.len() - 1;
        let mut i = hash3(var, lo, hi) as usize & mask;
        loop {
            debug_assert!(i < self.slots.len());
            let s = unsafe { *self.slots.get_unchecked(i) };
            if s.var == var && s.lo == lo && s.hi == hi {
                return Ref(s.idx << 1);
            }
            if s.idx == EMPTY {
                let r = nodes.len() as u32;
                // The complement tag claims bit 0 of a Ref, so the
                // arena tops out at 2^31 nodes; wrapping would alias
                // new nodes onto existing refs (index 0 is TRUE).
                // Misuse must be loud, and the check is insert-only.
                assert!(r < 1 << 31, "BDD arena exceeds 2^31 nodes");
                nodes.push(node);
                *unsafe { self.slots.get_unchecked_mut(i) } = Slot {
                    var,
                    lo,
                    hi,
                    idx: r,
                };
                self.len += 1;
                return Ref(r << 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot array and rehashes every occupied slot.
    #[cold]
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![EMPTY_SLOT; new_len];
        for s in self.slots.iter().filter(|s| s.idx != EMPTY) {
            let mut i = hash3(s.var, s.lo, s.hi) as usize & mask;
            while slots[i].idx != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = *s;
        }
        self.slots = slots;
    }
}

/// One direct-mapped cache line for a 3-word key.
#[derive(Clone, Copy)]
struct Line3 {
    a: u32,
    b: u32,
    c: u32,
    r: u32,
}

/// Direct-mapped lossy cache keyed by three words: `(op, f, g)` for
/// apply, `(c, t, e)` for ite. The first key word is never
/// `u32::MAX`, which doubles as the invalid sentinel.
pub(crate) struct Cache3 {
    lines: Vec<Line3>,
    pub(crate) stats: CacheStats,
}

impl Cache3 {
    pub(crate) fn new(bits: u32) -> Cache3 {
        Cache3 {
            lines: vec![
                Line3 {
                    a: EMPTY,
                    b: 0,
                    c: 0,
                    r: 0,
                };
                1 << bits
            ],
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<Line3>()
    }

    /// Invalidates every line (keeps the allocation and the stats
    /// counters). Required on manager recycling: node indices are
    /// reassigned, so a stale line would alias a new key onto an old
    /// result.
    pub(crate) fn clear(&mut self) {
        self.lines.fill(Line3 {
            a: EMPTY,
            b: 0,
            c: 0,
            r: 0,
        });
    }

    #[inline]
    fn index(&self, a: u32, b: u32, c: u32) -> usize {
        hash3(a, b, c) as usize & (self.lines.len() - 1)
    }

    // SAFETY (get/put): the index is masked by `lines.len() - 1`
    // and the line vector's length is a power of two.

    #[inline]
    pub(crate) fn get(&mut self, a: u32, b: u32, c: u32) -> Option<Ref> {
        let i = self.index(a, b, c);
        debug_assert!(i < self.lines.len());
        let line = unsafe { *self.lines.get_unchecked(i) };
        if line.a == a && line.b == b && line.c == c {
            self.stats.hits += 1;
            Some(Ref(line.r))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    #[inline]
    pub(crate) fn put(&mut self, a: u32, b: u32, c: u32, r: Ref) {
        let i = self.index(a, b, c);
        debug_assert!(i < self.lines.len());
        let line = unsafe { self.lines.get_unchecked_mut(i) };
        if line.a != EMPTY && (line.a != a || line.b != b || line.c != c) {
            self.stats.evictions += 1;
        }
        *line = Line3 { a, b, c, r: r.0 };
    }
}

#[derive(Clone, Copy)]
struct Line2 {
    a: u32,
    b: u32,
    r: u32,
}

/// Direct-mapped cache keyed by two words (`restrict`'s
/// `(f, var·2+value)` key).
pub(crate) struct Cache2 {
    lines: Vec<Line2>,
    pub(crate) stats: CacheStats,
}

impl Cache2 {
    pub(crate) fn new(bits: u32) -> Cache2 {
        Cache2 {
            lines: vec![
                Line2 {
                    a: EMPTY,
                    b: 0,
                    r: 0
                };
                1 << bits
            ],
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        self.lines.len() * std::mem::size_of::<Line2>()
    }

    /// Invalidates every line (see [`Cache3::clear`]).
    pub(crate) fn clear(&mut self) {
        self.lines.fill(Line2 {
            a: EMPTY,
            b: 0,
            r: 0,
        });
    }

    #[inline]
    fn index(&self, a: u32, b: u32) -> usize {
        fx_mix(fx_mix(0, a), b) as usize & (self.lines.len() - 1)
    }

    // SAFETY (get/put): masked index, power-of-two length.

    #[inline]
    pub(crate) fn get(&mut self, a: u32, b: u32) -> Option<Ref> {
        let i = self.index(a, b);
        debug_assert!(i < self.lines.len());
        let line = unsafe { *self.lines.get_unchecked(i) };
        if line.a == a && line.b == b {
            self.stats.hits += 1;
            Some(Ref(line.r))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    #[inline]
    pub(crate) fn put(&mut self, a: u32, b: u32, r: Ref) {
        let i = self.index(a, b);
        debug_assert!(i < self.lines.len());
        let line = unsafe { self.lines.get_unchecked_mut(i) };
        if line.a != EMPTY && (line.a != a || line.b != b) {
            self.stats.evictions += 1;
        }
        *line = Line2 { a, b, r: r.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, Ref};

    fn node(var: u32, lo: u32, hi: u32) -> Node {
        Node {
            var,
            lo: Ref(lo),
            hi: Ref(hi),
        }
    }

    /// An arena holding just the terminal (complement edges: one
    /// constant node, FALSE is its complemented edge).
    fn arena() -> Vec<Node> {
        vec![node(u32::MAX, 0, 0)]
    }

    #[test]
    fn unique_table_dedupes_and_grows() {
        let mut nodes = arena();
        let mut t = UniqueTable::with_capacity(4);
        let mut refs = Vec::new();
        for v in 0..2000u32 {
            refs.push(t.get_or_insert(node(v, 1, 0), &mut nodes));
        }
        assert_eq!(t.len(), 2000);
        assert_eq!(nodes.len(), 2001);
        // Returned refs are regular (complement bit clear) and point at
        // the arena slot that was appended.
        for (v, r) in refs.iter().enumerate() {
            assert!(!r.is_complemented());
            assert_eq!(r.index(), v + 1);
        }
        // Re-inserting returns the same refs, allocates nothing.
        for v in 0..2000u32 {
            assert_eq!(t.get_or_insert(node(v, 1, 0), &mut nodes), refs[v as usize]);
        }
        assert_eq!(nodes.len(), 2001);
    }

    #[test]
    fn cache3_lossy_roundtrip() {
        let mut c = Cache3::new(4);
        assert_eq!(c.get(1, 2, 3), None);
        c.put(1, 2, 3, Ref(7));
        assert_eq!(c.get(1, 2, 3), Some(Ref(7)));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        // Flood a tiny cache; lookups must stay consistent (hit ⇒ the
        // exact stored key) even as entries are evicted.
        for i in 0..64u32 {
            c.put(0, i, i, Ref(i + 2));
        }
        for i in 0..64u32 {
            if let Some(r) = c.get(0, i, i) {
                assert_eq!(r, Ref(i + 2));
            }
        }
    }

    #[test]
    fn cache2_roundtrip() {
        let mut c2 = Cache2::new(4);
        c2.put(5, 1, Ref(9));
        assert_eq!(c2.get(5, 1), Some(Ref(9)));
        assert_eq!(c2.get(5, 0), None);
    }

    #[test]
    fn sizing_scales_and_clamps() {
        let small = Sizing::for_nodes(1);
        assert!(small.apply_bits >= 12);
        assert_eq!(small.unique_capacity, 1 << 10);
        let big = Sizing::for_nodes(1 << 24);
        assert!(big.apply_bits <= 22);
        let mid = Sizing::for_nodes(1 << 16);
        assert_eq!(mid.apply_bits, 16);
    }
}
