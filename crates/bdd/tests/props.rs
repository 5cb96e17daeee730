//! Property tests: the ROBDD engine satisfies the Boolean-algebra laws
//! on randomly generated formulas, canonicity makes semantic equality
//! pointer equality, and the unique table never holds a duplicate
//! `(var, lo, hi)` triple.
//!
//! They use a self-contained splitmix64 generator instead of an
//! external property-testing crate (the build is fully offline).

use bdd::{Manager, Ref};

/// Deterministic splitmix64: good 64-bit avalanche, two lines, no deps.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A tiny formula AST to generate random functions.
#[derive(Debug, Clone)]
enum Formula {
    Var(u32),
    Not(Box<Formula>),
    And(Box<Formula>, Box<Formula>),
    Or(Box<Formula>, Box<Formula>),
    Xor(Box<Formula>, Box<Formula>),
}

/// Random formula over `n_vars` variables with bounded depth.
fn random_formula(rng: &mut Rng, n_vars: u32, depth: u32) -> Formula {
    if depth == 0 || rng.below(8) == 0 {
        return Formula::Var(rng.below(n_vars as u64) as u32);
    }
    match rng.below(4) {
        0 => Formula::Not(Box::new(random_formula(rng, n_vars, depth - 1))),
        1 => Formula::And(
            Box::new(random_formula(rng, n_vars, depth - 1)),
            Box::new(random_formula(rng, n_vars, depth - 1)),
        ),
        2 => Formula::Or(
            Box::new(random_formula(rng, n_vars, depth - 1)),
            Box::new(random_formula(rng, n_vars, depth - 1)),
        ),
        _ => Formula::Xor(
            Box::new(random_formula(rng, n_vars, depth - 1)),
            Box::new(random_formula(rng, n_vars, depth - 1)),
        ),
    }
}

fn build(m: &mut Manager, f: &Formula) -> Ref {
    match f {
        Formula::Var(v) => m.var(*v),
        Formula::Not(a) => {
            let a = build(m, a);
            m.not(a)
        }
        Formula::And(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.and(a, b)
        }
        Formula::Or(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.or(a, b)
        }
        Formula::Xor(a, b) => {
            let (a, b) = (build(m, a), build(m, b));
            m.xor(a, b)
        }
    }
}

fn eval_formula(f: &Formula, assignment: u32) -> bool {
    match f {
        Formula::Var(v) => (assignment >> v) & 1 == 1,
        Formula::Not(a) => !eval_formula(a, assignment),
        Formula::And(a, b) => eval_formula(a, assignment) && eval_formula(b, assignment),
        Formula::Or(a, b) => eval_formula(a, assignment) || eval_formula(b, assignment),
        Formula::Xor(a, b) => eval_formula(a, assignment) ^ eval_formula(b, assignment),
    }
}

fn fresh(n_vars: u32) -> Manager {
    let mut m = Manager::new();
    m.new_vars(n_vars);
    m
}

/// The differential test the new kernel is gated on: BDD evaluation and
/// model counting agree with brute-force truth-table enumeration for
/// every assignment, up to 12 variables.
#[test]
fn differential_vs_truth_table_up_to_12_vars() {
    let mut rng = Rng(0xb00);
    for n_vars in [2u32, 6, 12] {
        let mut m = fresh(n_vars);
        for _ in 0..24 {
            let f = random_formula(&mut rng, n_vars, 5);
            let b = build(&mut m, &f);
            let mut models = 0u128;
            for a in 0u32..(1 << n_vars) {
                let expect = eval_formula(&f, a);
                models += expect as u128;
                assert_eq!(
                    m.eval(b, |v| (a >> v) & 1 == 1),
                    expect,
                    "{n_vars} vars, assignment {a:#b}, formula {f:?}"
                );
            }
            assert_eq!(m.sat_count(b, n_vars), models, "{f:?}");
        }
        m.check_canonical()
            .expect("canonical after differential runs");
    }
}

/// Canonicity: semantically equal functions get the same node; unequal
/// ones never do.
#[test]
fn canonical_forms_coincide() {
    let mut rng = Rng(0xc0de);
    const N_VARS: u32 = 6;
    let mut m = fresh(N_VARS);
    for _ in 0..200 {
        let f = random_formula(&mut rng, N_VARS, 4);
        let g = random_formula(&mut rng, N_VARS, 4);
        let (bf, bg) = (build(&mut m, &f), build(&mut m, &g));
        let semantically_equal =
            (0u32..(1 << N_VARS)).all(|a| eval_formula(&f, a) == eval_formula(&g, a));
        assert_eq!(bf == bg, semantically_equal, "{f:?} vs {g:?}");
    }
}

/// Structural canonicity: along a long randomized op sequence (including
/// ite, restrict, and quantification), **after every single op** the
/// table holds no duplicate `(var, lo, hi)` triple, no redundant node,
/// no complemented then-edge, and respects the variable order. This is
/// the hash-consing + complement-edge contract every verifier
/// equivalence check rests on.
#[test]
fn canonical_invariants_hold_after_every_op() {
    let mut rng = Rng(0x5eed);
    const N_VARS: u32 = 10;
    let mut m = fresh(N_VARS);
    let mut pool: Vec<Ref> = (0..N_VARS).map(|v| m.var(v)).collect();
    for round in 0..600 {
        let a = pool[rng.below(pool.len() as u64) as usize];
        let b = pool[rng.below(pool.len() as u64) as usize];
        let c = pool[rng.below(pool.len() as u64) as usize];
        let r = match rng.below(7) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            3 => m.not(a),
            4 => m.ite(a, b, c),
            5 => m.restrict(a, rng.below(N_VARS as u64) as u32, rng.below(2) == 1),
            _ => m.exists(a, rng.below(N_VARS as u64) as u32),
        };
        pool.push(r);
        m.check_canonical()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

/// Complement-edge laws on random op sequences: double negation is the
/// exact same `Ref`, negation allocates no nodes, both De Morgan duals
/// hold as pointer equalities, and xor's polarity identities factor the
/// marks out exactly as the cache normalization assumes.
#[test]
fn complement_edge_laws_on_random_ops() {
    let mut rng = Rng(0xced6e);
    const N_VARS: u32 = 8;
    let mut m = fresh(N_VARS);
    for _ in 0..150 {
        let a = build_random(&mut m, &mut rng, N_VARS);
        let b = build_random(&mut m, &mut rng, N_VARS);
        let nodes_before = m.node_count();
        let na = m.not(a);
        let nb = m.not(b);
        assert_eq!(m.node_count(), nodes_before, "not() must not allocate");
        // ¬¬a == a, as refs.
        assert_eq!(m.not(na), a);
        // De Morgan both ways.
        let ab = m.and(a, b);
        let lhs = m.not(ab);
        let rhs = m.or(na, nb);
        assert_eq!(lhs, rhs);
        let a_or_b = m.or(a, b);
        let lhs2 = m.not(a_or_b);
        let rhs2 = m.and(na, nb);
        assert_eq!(lhs2, rhs2);
        // Xor polarity: ¬a⊕b == a⊕¬b == ¬(a⊕b); ¬a⊕¬b == a⊕b.
        let x = m.xor(a, b);
        let nx = m.not(x);
        assert_eq!(m.xor(na, b), nx);
        assert_eq!(m.xor(a, nb), nx);
        assert_eq!(m.xor(na, nb), x);
        // Complements of distinct functions stay distinct; a ∧ ¬a == ⊥.
        assert_ne!(na, a);
        assert!(m.and(a, na).is_false());
        assert!(m.or(a, na).is_true());
    }
    m.check_canonical()
        .expect("canonical after complement laws");
}

/// Sat extraction is sound and complete on random formulas.
#[test]
fn any_sat_is_sound_and_complete() {
    let mut rng = Rng(0xa5a5);
    const N_VARS: u32 = 6;
    for _ in 0..100 {
        let mut m = fresh(N_VARS);
        let f = random_formula(&mut rng, N_VARS, 4);
        let b = build(&mut m, &f);
        match m.any_sat_total(b, N_VARS) {
            Some(a) => assert!(m.eval(b, |v| a[v as usize]), "{f:?}"),
            None => assert!((0u32..(1 << N_VARS)).all(|a| !eval_formula(&f, a)), "{f:?}"),
        }
    }
}

/// Algebra: distribution, De Morgan, double negation, absorption.
#[test]
fn boolean_laws() {
    let mut rng = Rng(0x1a75);
    const N_VARS: u32 = 6;
    let mut m = fresh(N_VARS);
    for _ in 0..150 {
        let a = build_random(&mut m, &mut rng, N_VARS);
        let b = build_random(&mut m, &mut rng, N_VARS);
        let c = build_random(&mut m, &mut rng, N_VARS);
        // a ∧ (b ∨ c) == (a ∧ b) ∨ (a ∧ c)
        let bc = m.or(b, c);
        let lhs = m.and(a, bc);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs);
        // ¬(a ∧ b) == ¬a ∨ ¬b
        let nab = m.not(ab);
        let na = m.not(a);
        let nb = m.not(b);
        let n_or = m.or(na, nb);
        assert_eq!(nab, n_or);
        // ¬¬a == a
        let nna = m.not(na);
        assert_eq!(nna, a);
        // a ∨ (a ∧ b) == a
        let absorb = m.or(a, ab);
        assert_eq!(absorb, a);
    }
}

/// Quantification: ∃v.f is implied by f; ∀v.f implies f; neither result
/// depends on the quantified variable.
#[test]
fn quantifier_laws() {
    let mut rng = Rng(0x9_0210);
    const N_VARS: u32 = 6;
    let mut m = fresh(N_VARS);
    for _ in 0..100 {
        let b = build_random(&mut m, &mut rng, N_VARS);
        let v = rng.below(N_VARS as u64) as u32;
        let ex = m.exists(b, v);
        let fa = m.forall(b, v);
        assert!(m.implies_check(b, ex));
        assert!(m.implies_check(fa, b));
        assert!(!m.support(ex).contains(&v));
        assert!(!m.support(fa).contains(&v));
    }
}

/// Restriction agrees with conditioned evaluation at every point.
#[test]
fn restrict_is_cofactor() {
    let mut rng = Rng(0xc0fa);
    const N_VARS: u32 = 6;
    let mut m = fresh(N_VARS);
    for _ in 0..60 {
        let f = random_formula(&mut rng, N_VARS, 4);
        let b = build(&mut m, &f);
        let v = rng.below(N_VARS as u64) as u32;
        let val = rng.below(2) == 1;
        let r = m.restrict(b, v, val);
        for a in 0u32..(1 << N_VARS) {
            let forced = if val { a | (1 << v) } else { a & !(1 << v) };
            assert_eq!(
                m.eval(r, |x| (a >> x) & 1 == 1),
                eval_formula(&f, forced),
                "{f:?} at {a:#b}"
            );
        }
    }
}

fn build_random(m: &mut Manager, rng: &mut Rng, n_vars: u32) -> Ref {
    let f = random_formula(rng, n_vars, 4);
    build(m, &f)
}

/// Recycling: `clear()` returns the manager to the empty state while
/// keeping its allocations, and a recycled manager is observationally
/// identical to a fresh one — same `Ref` for every formula of the same
/// build sequence, same node count, canonical after every cycle. This is
/// the contract the worker-resident verifier pools rest on: a pooled
/// manager must never let one session's state leak into the next.
#[test]
fn recycled_manager_is_observationally_fresh() {
    let mut rng = Rng(0xf1ee7);
    const N_VARS: u32 = 9;
    const CYCLES: usize = 8;
    const FORMULAS_PER_CYCLE: usize = 12;
    let mut recycled = Manager::new();
    for cycle in 0..CYCLES {
        // Clone the generator state so the fresh manager sees the exact
        // same formula stream as the recycled one.
        let mut rng_fresh = Rng(rng.0);
        recycled.clear();
        recycled.new_vars(N_VARS);
        let mut fresh_m = fresh(N_VARS);
        for i in 0..FORMULAS_PER_CYCLE {
            let f = random_formula(&mut rng, N_VARS, 4);
            let f2 = random_formula(&mut rng_fresh, N_VARS, 4);
            let br = build(&mut recycled, &f);
            let bf = build(&mut fresh_m, &f2);
            assert_eq!(br, bf, "cycle {cycle}, formula {i}: {f:?}");
            // Semantics survive recycling too, not just ref identity.
            for a in [
                0u32,
                1,
                0b1010_1010 & ((1 << N_VARS) - 1),
                (1 << N_VARS) - 1,
            ] {
                assert_eq!(
                    recycled.eval(br, |v| (a >> v) & 1 == 1),
                    eval_formula(&f, a),
                    "cycle {cycle}: {f:?} at {a:#b}"
                );
            }
        }
        assert_eq!(recycled.node_count(), fresh_m.node_count(), "cycle {cycle}");
        recycled
            .check_canonical()
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
    }
}
