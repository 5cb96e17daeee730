//! Topology families beyond the paper's star.
//!
//! Every family builds with [`topo_model::TopologyBuilder`] (automatic
//! addressing, AS assignment, router ids) and returns a [`StubSet`]
//! naming the customer stub and the peer stubs — the handle the intent
//! synthesizers work from. All internal routers use
//! [`RouterRole::Core`]; stubs are [`RouterRole::ExternalStub`].

use llm_sim::rng::SimRng;
use topo_model::builder::TopologyBuilder;
pub use topo_model::StubSet;
use topo_model::{RouterRole, Topology};

/// A line `R1 — R2 — … — Rn`, customer stub on `R1`, one peer stub per
/// remaining router. `n >= 3`.
pub fn chain(n: usize) -> (Topology, StubSet) {
    assert!(n >= 3, "chain needs n >= 3");
    let mut b = TopologyBuilder::new();
    let routers: Vec<usize> = (1..=n)
        .map(|i| b.router(format!("R{i}"), RouterRole::Core))
        .collect();
    for w in routers.windows(2) {
        b.link(w[0], w[1]);
    }
    finish_with_stub_per_router(b, &routers)
}

/// A cycle of `n` routers, customer stub on `R1`, one peer stub per
/// remaining router. `n >= 3`.
pub fn ring(n: usize) -> (Topology, StubSet) {
    assert!(n >= 3, "ring needs n >= 3");
    let mut b = TopologyBuilder::new();
    let routers: Vec<usize> = (1..=n)
        .map(|i| b.router(format!("R{i}"), RouterRole::Core))
        .collect();
    for w in routers.windows(2) {
        b.link(w[0], w[1]);
    }
    b.link(routers[n - 1], routers[0]);
    finish_with_stub_per_router(b, &routers)
}

/// A full mesh of `n` routers, customer stub on `R1`, one peer stub per
/// remaining router. `n >= 3`.
pub fn full_mesh(n: usize) -> (Topology, StubSet) {
    assert!(n >= 3, "full mesh needs n >= 3");
    let mut b = TopologyBuilder::new();
    let routers: Vec<usize> = (1..=n)
        .map(|i| b.router(format!("R{i}"), RouterRole::Core))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            b.link(routers[i], routers[j]);
        }
    }
    finish_with_stub_per_router(b, &routers)
}

/// One pod of a `k`-ary fat tree (`k` even, `k >= 4`): `k/2` aggregation
/// routers fully bipartite-connected to `k/2` edge routers. The customer
/// stub hangs off `E1`; peer stubs hang off the other edge routers and
/// off `A1` (the pod's uplink stand-in — and, being adjacent to `E1`,
/// the provider the prefer-customer intent needs).
pub fn fat_tree_pod(k: usize) -> (Topology, StubSet) {
    assert!(
        k >= 4 && k.is_multiple_of(2),
        "fat-tree pod needs even k >= 4"
    );
    let mut b = TopologyBuilder::new();
    let aggs: Vec<usize> = (1..=k / 2)
        .map(|i| b.router(format!("A{i}"), RouterRole::Core))
        .collect();
    let edges: Vec<usize> = (1..=k / 2)
        .map(|i| b.router(format!("E{i}"), RouterRole::Core))
        .collect();
    for &a in &aggs {
        for &e in &edges {
            b.link(a, e);
        }
    }
    let (_, customer_prefix) = b.stub("CUSTOMER", edges[0]);
    let mut peers = Vec::new();
    let (_, p) = b.stub("PEER-A1", aggs[0]);
    peers.push(("PEER-A1".to_string(), p));
    for (i, &e) in edges.iter().enumerate().skip(1) {
        let name = format!("PEER-E{}", i + 1);
        let (_, p) = b.stub(name.clone(), e);
        peers.push((name, p));
    }
    (
        b.build(),
        StubSet {
            customer: "CUSTOMER".into(),
            customer_prefix,
            peers,
        },
    )
}

/// A multi-homed customer stub on two border routers, both uplinked to a
/// two-router ISP core carrying `n_isps >= 2` ISP stubs (alternating
/// between the core routers).
pub fn multi_homed(n_isps: usize) -> (Topology, StubSet) {
    assert!(n_isps >= 2, "multi-homed needs >= 2 ISPs");
    let mut b = TopologyBuilder::new();
    let b1 = b.router("B1", RouterRole::Core);
    let b2 = b.router("B2", RouterRole::Core);
    let c1 = b.router("C1", RouterRole::Core);
    let c2 = b.router("C2", RouterRole::Core);
    b.link(b1, c1);
    b.link(b2, c2);
    b.link(c1, c2);
    let (cust, customer_prefix) = b.stub("CUSTOMER", b1);
    b.multihome(cust, b2);
    let mut peers = Vec::new();
    for i in 1..=n_isps {
        let name = format!("ISP-{i}");
        let attach = if i % 2 == 1 { c1 } else { c2 };
        let (_, p) = b.stub(name.clone(), attach);
        peers.push((name, p));
    }
    (
        b.build(),
        StubSet {
            customer: "CUSTOMER".into(),
            customer_prefix,
            peers,
        },
    )
}

/// A multi-pod fat tree: `pods` pods of 4 aggregation + 4 edge routers
/// (fully bipartite in-pod) plus one core router per pod; core `c`
/// uplinks aggregation router `c mod 4` of every pod. `9 * pods`
/// internal routers, so pods ∈ {4, 8, 16} gives the 36/72/144 sweep.
///
/// The stub set — and with it the policy-relevant neighborhood — stays
/// **bounded** regardless of `pods`: the customer hangs off pod 0's
/// first edge router, a provider peer off pod 0's first aggregation
/// router (adjacent to the customer's entry router, which is what the
/// prefer-customer intent needs), and one peer off the first edge
/// router of each of the next three pods. Internal routers do not
/// originate their link subnets (see `originate_stubs_only`), so the
/// simulated route universe also stays bounded.
pub fn fat_tree_multi(pods: usize) -> (Topology, StubSet) {
    assert!(pods >= 2, "multi-pod fat-tree needs >= 2 pods");
    let mut b = TopologyBuilder::new();
    let mut aggs: Vec<Vec<usize>> = Vec::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    for p in 0..pods {
        let pa: Vec<usize> = (0..4)
            .map(|i| b.router(format!("P{p}A{i}"), RouterRole::Core))
            .collect();
        let pe: Vec<usize> = (0..4)
            .map(|i| b.router(format!("P{p}E{i}"), RouterRole::Core))
            .collect();
        for &a in &pa {
            for &e in &pe {
                b.link(a, e);
            }
        }
        aggs.push(pa);
        edges.push(pe);
    }
    for c in 0..pods {
        let core = b.router(format!("C{c}"), RouterRole::Core);
        for pod_aggs in &aggs {
            b.link(core, pod_aggs[c % 4]);
        }
    }
    let (_, customer_prefix) = b.stub("CUSTOMER", edges[0][0]);
    let mut peers = Vec::new();
    let (_, p0) = b.stub("PEER-A0", aggs[0][0]);
    peers.push(("PEER-A0".to_string(), p0));
    for (p, pod_edges) in edges.iter().enumerate().take(pods.min(4)).skip(1) {
        let name = format!("PEER-P{p}");
        let (_, px) = b.stub(name.clone(), pod_edges[0]);
        peers.push((name, px));
    }
    (
        originate_stubs_only(b.build()),
        StubSet {
            customer: "CUSTOMER".into(),
            customer_prefix,
            peers,
        },
    )
}

/// An AS-level graph with realistic (hub-heavy) peering degree: a seed
/// triangle `R0–R1–R2`, then router `k` peers with 2–3 distinct existing
/// routers drawn proportionally to current degree (the repeated-
/// endpoints form of preferential attachment). Mean degree ~5 with a
/// heavy tail, like real AS graphs.
///
/// Stubs are bounded regardless of `n`: the customer on `R0`, a provider
/// peer on `R1` (linked to `R0` by the seed triangle — the
/// prefer-customer adjacency), and peers on the two highest-degree hubs
/// outside `{R0, R1}`. Internal routers do not originate link subnets.
pub fn as_graph(n: usize, rng: &mut SimRng) -> (Topology, StubSet) {
    assert!(n >= 8, "as-graph needs n >= 8");
    let mut b = TopologyBuilder::new();
    let routers: Vec<usize> = (0..n)
        .map(|k| b.router(format!("R{k}"), RouterRole::Core))
        .collect();
    // Degree-weighted endpoint pool: every link pushes both endpoints,
    // so a uniform draw from the pool is a degree-proportional draw.
    let mut pool: Vec<usize> = Vec::with_capacity(6 * n);
    let mut degree = vec![0usize; n];
    let add_link = |b: &mut TopologyBuilder,
                    pool: &mut Vec<usize>,
                    degree: &mut Vec<usize>,
                    i: usize,
                    j: usize| {
        b.link(routers[i], routers[j]);
        pool.push(i);
        pool.push(j);
        degree[i] += 1;
        degree[j] += 1;
    };
    add_link(&mut b, &mut pool, &mut degree, 0, 1);
    add_link(&mut b, &mut pool, &mut degree, 1, 2);
    add_link(&mut b, &mut pool, &mut degree, 2, 0);
    for k in 3..n {
        let m = 2 + rng.index(2); // 2..=3 new peerings
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m {
            let pick = pool[rng.index(pool.len())];
            if pick != k {
                chosen.insert(pick);
            }
        }
        for j in chosen {
            add_link(&mut b, &mut pool, &mut degree, k, j);
        }
    }
    let (_, customer_prefix) = b.stub("CUSTOMER", routers[0]);
    let mut peers = Vec::new();
    let (_, p1) = b.stub("PEER-1", routers[1]);
    peers.push(("PEER-1".to_string(), p1));
    // The two biggest hubs outside the seed pair get the remaining peers.
    let mut by_degree: Vec<usize> = (2..n).collect();
    by_degree.sort_by_key(|&k| (std::cmp::Reverse(degree[k]), k));
    for &hub in by_degree.iter().take(2) {
        let name = format!("PEER-R{hub}");
        let (_, px) = b.stub(name.clone(), routers[hub]);
        peers.push((name, px));
    }
    (
        originate_stubs_only(b.build()),
        StubSet {
            customer: "CUSTOMER".into(),
            customer_prefix,
            peers,
        },
    )
}

/// Strips link-subnet announcements from internal routers, leaving only
/// the stubs as route originators. The large families use this so the
/// whole-network simulation's route universe — and every per-round
/// global check — scales with the bounded stub set instead of the link
/// count, which is what makes 144–512-router sessions tractable while
/// keeping every expectation about stub prefixes intact.
fn originate_stubs_only(mut t: Topology) -> Topology {
    for r in &mut t.routers {
        if r.role != RouterRole::ExternalStub {
            r.networks.clear();
        }
    }
    t
}

/// Shared tail for the uniform families: CUSTOMER on the first router,
/// `PEER-i` on each other router.
fn finish_with_stub_per_router(mut b: TopologyBuilder, routers: &[usize]) -> (Topology, StubSet) {
    let (_, customer_prefix) = b.stub("CUSTOMER", routers[0]);
    let mut peers = Vec::new();
    for (i, &r) in routers.iter().enumerate().skip(1) {
        let name = format!("PEER-{}", i + 1);
        let (_, p) = b.stub(name.clone(), r);
        peers.push((name, p));
    }
    (
        b.build(),
        StubSet {
            customer: "CUSTOMER".into(),
            customer_prefix,
            peers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_validate() {
        let cases: Vec<(&str, Topology, StubSet)> = vec![
            ("chain", chain(4).0, chain(4).1),
            ("ring", ring(5).0, ring(5).1),
            ("mesh", full_mesh(4).0, full_mesh(4).1),
            ("fat-tree", fat_tree_pod(4).0, fat_tree_pod(4).1),
            ("multi-homed", multi_homed(3).0, multi_homed(3).1),
        ];
        for (name, t, stubs) in cases {
            assert!(t.validate().is_empty(), "{name}: {:?}", t.validate());
            assert!(stubs.peers.len() >= 2, "{name} needs >= 2 peers");
            assert!(t.router(&stubs.customer).is_some(), "{name}");
            for (p, _) in &stubs.peers {
                assert!(t.router(p).is_some(), "{name}: {p}");
            }
        }
    }

    #[test]
    fn shapes_are_right() {
        let (t, _) = ring(5);
        // 5 internal + 5 stubs; each internal has 2 ring links + 1 stub.
        assert_eq!(t.internal_routers().count(), 5);
        assert_eq!(t.stubs().count(), 5);
        for r in t.internal_routers() {
            assert_eq!(r.interfaces.len(), 3, "{}", r.name);
        }
        let (t, _) = full_mesh(4);
        for r in t.internal_routers() {
            assert_eq!(r.interfaces.len(), 4, "{}", r.name); // 3 mesh + stub
        }
        let (t, _) = fat_tree_pod(4);
        assert_eq!(t.internal_routers().count(), 4);
        assert_eq!(t.stubs().count(), 3); // customer + PEER-A1 + PEER-E2
        assert!(t.has_link("A1", "E1"));
        assert!(t.has_link("A2", "E2"));
        assert!(!t.has_link("E1", "E2"));
        let (t, _) = multi_homed(2);
        let cust = t.router("CUSTOMER").unwrap();
        assert_eq!(cust.interfaces.len(), 2); // multi-homed
    }

    #[test]
    fn determinism() {
        assert_eq!(chain(4).0, chain(4).0);
        assert_eq!(multi_homed(3).0, multi_homed(3).0);
    }
}
