//! Per-family intent synthesis: turns a generated topology + stub set
//! into a [`Scenario`] — per-router policies in the formulaic prompt
//! vocabulary plus machine-checkable global expectations.
//!
//! All four intents are generic over the topology: they only reason
//! about stub adjacency (which internal router a stub hangs off and the
//! neighbor address seen from that router), so the same intent applies
//! to a chain, a ring, a mesh, a fat-tree pod, or a multi-homed stub.

use crate::families::StubSet;
use net_model::Community;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use topo_model::{Expectation, RouterPolicy, Scenario, Topology};

/// The intent families the generator can attach to a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intent {
    /// Peers must not reach each other through the network; the customer
    /// stays reachable (the paper's star policy, generalized to
    /// stub-adjacent tagging/filtering).
    NoTransit,
    /// Every peer's routes are tagged at ingress; nothing is filtered
    /// (pure reachability plus the tagging invariants).
    CommunityTagging,
    /// One designated peer's prefix is contained at its entry router and
    /// must not reach any other stub.
    PrefixBlock,
    /// A contested prefix announced by both the customer and a provider
    /// peer must win via the customer (ingress local-preference).
    PreferCustomer,
}

impl Intent {
    /// All intents, in generator rotation order.
    pub const ALL: [Intent; 4] = [
        Intent::NoTransit,
        Intent::CommunityTagging,
        Intent::PrefixBlock,
        Intent::PreferCustomer,
    ];

    /// The intent's kebab-case name (scenario metadata).
    pub fn as_str(self) -> &'static str {
        match self {
            Intent::NoTransit => "no-transit",
            Intent::CommunityTagging => "community-tagging",
            Intent::PrefixBlock => "prefix-block",
            Intent::PreferCustomer => "prefer-customer",
        }
    }
}

/// The community tagged onto peer `i`'s routes (the star's scheme,
/// indexed over peer stubs instead of hub edges).
pub fn peer_community(i: usize) -> Community {
    Community::new(100 + i as u16, 1)
}

/// Local-preference stamped on customer ingress under prefer-customer.
pub const CUSTOMER_PREF: u32 = 200;
/// Local-preference stamped on provider ingress under prefer-customer.
pub const PROVIDER_PREF: u32 = 50;

/// Route-map-safe spelling of a stub name.
fn san(name: &str) -> String {
    name.replace('-', "_")
}

/// The internal routers adjacent to `stub`, with the stub's address as
/// seen from each router (`(router name, neighbor address)`).
fn adjacencies(t: &Topology, stub: &str) -> Vec<(String, Ipv4Addr)> {
    t.internal_routers()
        .filter_map(|r| {
            r.neighbors
                .iter()
                .find(|n| n.peer_router == stub)
                .map(|n| (r.name.clone(), n.addr))
        })
        .collect()
}

/// Applies an intent to a generated topology, producing the scenario.
/// `name` becomes the scenario's unique name; `family` its topology
/// family label. The scenario keeps `topology`'s allocation, except
/// under prefer-customer, which extends the network and so works on a
/// copy when the `Arc` is shared.
pub fn apply(
    intent: Intent,
    topology: Arc<Topology>,
    stubs: &StubSet,
    family: &str,
    name: String,
) -> Scenario {
    match intent {
        Intent::NoTransit => no_transit(topology, stubs, family, name),
        Intent::CommunityTagging => community_tagging(topology, stubs, family, name),
        Intent::PrefixBlock => prefix_block(topology, stubs, family, name),
        Intent::PreferCustomer => prefer_customer(topology, stubs, family, name),
    }
}

/// Accumulates policies per router, then flattens in topology order so
/// the prompt sequence is deterministic.
fn collect(t: &Topology, by_router: BTreeMap<String, RouterPolicy>) -> Vec<(String, RouterPolicy)> {
    t.internal_routers()
        .filter_map(|r| {
            by_router
                .get(&r.name)
                .filter(|p| !p.is_empty())
                .map(|p| (r.name.clone(), p.clone()))
        })
        .collect()
}

/// Ingress tags for every peer stub at its entry router(s).
fn tag_peers(t: &Topology, stubs: &StubSet, by_router: &mut BTreeMap<String, RouterPolicy>) {
    for (i, (peer, _)) in stubs.peers.iter().enumerate() {
        for (router, addr) in adjacencies(t, peer) {
            by_router.entry(router).or_default().ingress_tags.push((
                addr,
                peer_community(i),
                format!("ADD_COMM_{}", san(peer)),
            ));
        }
    }
}

fn no_transit(t: Arc<Topology>, stubs: &StubSet, family: &str, name: String) -> Scenario {
    let mut by_router: BTreeMap<String, RouterPolicy> = BTreeMap::new();
    tag_peers(&t, stubs, &mut by_router);
    // Egress toward each peer: deny every *other* peer's tag.
    for (j, (peer_j, _)) in stubs.peers.iter().enumerate() {
        let others: Vec<Community> = (0..stubs.peers.len())
            .filter(|&i| i != j)
            .map(peer_community)
            .collect();
        if others.is_empty() {
            continue;
        }
        for (router, addr) in adjacencies(&t, peer_j) {
            by_router.entry(router).or_default().egress_filters.push((
                addr,
                others.clone(),
                format!("FILTER_COMM_OUT_{}", san(peer_j)),
            ));
        }
    }
    let mut expectations = Vec::new();
    for (j, (peer_j, _)) in stubs.peers.iter().enumerate() {
        expectations.push(Expectation::Reachable {
            at: peer_j.clone(),
            prefix: stubs.customer_prefix,
        });
        for (i, (_, p_i)) in stubs.peers.iter().enumerate() {
            if i != j {
                expectations.push(Expectation::Unreachable {
                    at: peer_j.clone(),
                    prefix: *p_i,
                });
            }
        }
    }
    for (_, p) in &stubs.peers {
        expectations.push(Expectation::Reachable {
            at: stubs.customer.clone(),
            prefix: *p,
        });
    }
    Scenario {
        name,
        family: family.into(),
        intent: Intent::NoTransit.as_str().into(),
        policies: collect(&t, by_router),
        topology: t,
        expectations,
    }
}

fn community_tagging(t: Arc<Topology>, stubs: &StubSet, family: &str, name: String) -> Scenario {
    let mut by_router: BTreeMap<String, RouterPolicy> = BTreeMap::new();
    tag_peers(&t, stubs, &mut by_router);
    // No filters: every stub reaches every other stub's prefix.
    let all = stubs.all();
    let mut expectations = Vec::new();
    for (observer, _) in &all {
        for (origin, p) in &all {
            if observer != origin {
                expectations.push(Expectation::Reachable {
                    at: observer.clone(),
                    prefix: *p,
                });
            }
        }
    }
    Scenario {
        name,
        family: family.into(),
        intent: Intent::CommunityTagging.as_str().into(),
        policies: collect(&t, by_router),
        topology: t,
        expectations,
    }
}

fn prefix_block(t: Arc<Topology>, stubs: &StubSet, family: &str, name: String) -> Scenario {
    let blocked_idx = stubs.peers.len() - 1;
    let (blocked, blocked_prefix) = stubs.peers[blocked_idx].clone();
    let c_b = peer_community(blocked_idx);
    let mut by_router: BTreeMap<String, RouterPolicy> = BTreeMap::new();
    // Tag the blocked peer's routes at its entry router(s)…
    for (router, addr) in adjacencies(&t, &blocked) {
        by_router.entry(router).or_default().ingress_tags.push((
            addr,
            c_b,
            format!("ADD_COMM_{}", san(&blocked)),
        ));
    }
    // …and deny the tag at egress toward every other stub.
    let all = stubs.all();
    for (s, _) in all.iter().filter(|(s, _)| s != &blocked) {
        for (router, addr) in adjacencies(&t, s) {
            by_router.entry(router).or_default().egress_filters.push((
                addr,
                vec![c_b],
                format!("FILTER_COMM_OUT_{}", san(s)),
            ));
        }
    }
    let mut expectations = Vec::new();
    for (observer, _) in &all {
        for (origin, p) in &all {
            if observer == origin {
                continue;
            }
            if origin == &blocked {
                expectations.push(Expectation::Unreachable {
                    at: observer.clone(),
                    prefix: blocked_prefix,
                });
            } else {
                expectations.push(Expectation::Reachable {
                    at: observer.clone(),
                    prefix: *p,
                });
            }
        }
    }
    Scenario {
        name,
        family: family.into(),
        intent: Intent::PrefixBlock.as_str().into(),
        policies: collect(&t, by_router),
        topology: t,
        expectations,
    }
}

fn prefer_customer(t: Arc<Topology>, stubs: &StubSet, family: &str, name: String) -> Scenario {
    // The only intent that extends the network: copy a shared one, once.
    let mut t = Arc::unwrap_or_clone(t);
    let cust_adj = adjacencies(&t, &stubs.customer);
    // Provider: the first peer with an entry router that is (or links to)
    // a customer entry router — guaranteeing the customer-origin route is
    // one hop from every provider entry router, so the preference (which
    // does not propagate over eBGP) decides the winner there.
    let provider = stubs
        .peers
        .iter()
        .map(|(p, _)| p.clone())
        .find(|p| {
            adjacencies(&t, p).iter().any(|(rp, _)| {
                cust_adj
                    .iter()
                    .any(|(rc, _)| rc == rp || t.has_link(rc, rp))
            })
        })
        .expect("every family provides a provider adjacent to the customer's router");
    // The contested prefix, announced by both origins. Allocated outside
    // the builder's stub range so it collides with nothing.
    let contested: net_model::Prefix = "172.31.255.0/24".parse().unwrap();
    for stub in [&stubs.customer, &provider] {
        let spec = t
            .routers
            .iter_mut()
            .find(|r| &r.name == stub)
            .expect("stub exists");
        spec.networks.push(contested);
    }
    let customer_asn = t.router(&stubs.customer).expect("customer").asn;
    let mut by_router: BTreeMap<String, RouterPolicy> = BTreeMap::new();
    for (router, addr) in &cust_adj {
        by_router
            .entry(router.clone())
            .or_default()
            .ingress_prefs
            .push((*addr, CUSTOMER_PREF, "PREF_CUSTOMER".to_string()));
    }
    let provider_adj = adjacencies(&t, &provider);
    for (router, addr) in &provider_adj {
        by_router
            .entry(router.clone())
            .or_default()
            .ingress_prefs
            .push((*addr, PROVIDER_PREF, format!("PREF_{}", san(&provider))));
    }
    let mut expectations = Vec::new();
    // The observable: at every provider entry router the contested route
    // must originate from the customer's AS.
    for (router, _) in &provider_adj {
        expectations.push(Expectation::PreferVia {
            at: router.clone(),
            prefix: contested,
            origin: customer_asn,
        });
    }
    // Baseline reachability is unaffected by preferences.
    for (peer, p) in &stubs.peers {
        expectations.push(Expectation::Reachable {
            at: stubs.customer.clone(),
            prefix: *p,
        });
        expectations.push(Expectation::Reachable {
            at: peer.clone(),
            prefix: stubs.customer_prefix,
        });
    }
    Scenario {
        name,
        family: family.into(),
        intent: Intent::PreferCustomer.as_str().into(),
        policies: collect(&t, by_router),
        topology: Arc::new(t),
        expectations,
    }
}
