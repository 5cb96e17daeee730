//! The Modularizer: topology JSON → per-router prompts and local policy
//! specs (the Lightyear-style decomposition of the global no-transit
//! policy). Works over any [`Scenario`]; the paper's star is one
//! instance, built by [`Modularizer::star_scenario`].

use bf_lite::LocalPolicyCheck;
use llm_sim::prompts;
use net_model::Community;
use std::net::Ipv4Addr;
use topo_model::{
    describe_network, describe_router, Expectation, RouterPolicy, Scenario, StarRoles, Topology,
};

/// The local policy assigned to one router (re-exported from
/// `topo_model::scenario` so the generator, the Modularizer and the
/// fleet share one vocabulary).
pub type LocalPolicySpec = RouterPolicy;

/// Everything COSYNTH needs to drive one router's synthesis: the prompt,
/// the policy spec, and the verifier checks.
#[derive(Debug, Clone)]
pub struct RouterAssignment {
    /// Router name.
    pub name: String,
    /// The full synthesis prompt (description + policy + task sentence).
    pub prompt: String,
    /// The structured local policy (for building checks).
    pub policy: LocalPolicySpec,
    /// The Lightyear-style local checks the verifier runs.
    pub checks: Vec<LocalPolicyCheck>,
}

/// The Modularizer.
pub struct Modularizer;

impl Modularizer {
    /// The community probed by the preserve (additive) check — never a
    /// community any policy actually sets.
    pub const PRESERVE_PROBE: Community = Community {
        high: 65_000,
        low: 99,
    };

    /// The community assigned to edge router `Rk` (R2 → 100:1, R3 →
    /// 101:1, … exactly the paper's scheme).
    pub fn edge_community(edge_index: usize) -> Community {
        Community::new(100 + edge_index as u16, 1)
    }

    /// Decomposes the global no-transit policy over a star into
    /// per-router assignments, hub first. Equivalent to
    /// `assign_scenario(&star_scenario(topology, roles))`.
    pub fn assign(topology: &Topology, roles: &StarRoles) -> Vec<RouterAssignment> {
        Self::assign_scenario(&Self::star_scenario(topology, roles))
    }

    /// Decomposes any scenario into per-router assignments, one per
    /// internal router in topology order (routers without a policy get a
    /// plain-forwarding prompt and no checks).
    pub fn assign_scenario(scenario: &Scenario) -> Vec<RouterAssignment> {
        scenario
            .topology
            .internal_routers()
            .map(|r| {
                let policy = scenario.policy_for(&r.name).cloned().unwrap_or_default();
                RouterAssignment {
                    prompt: Self::prompt_for(&scenario.topology, &r.name, &policy),
                    checks: Self::checks_for(&policy),
                    name: r.name.clone(),
                    policy,
                }
            })
            .collect()
    }

    /// The Lightyear-style local checks implied by a policy: a carry and
    /// a preserve check per ingress tag, a value check per ingress
    /// preference, a deny check per filtered community.
    pub fn checks_for(policy: &LocalPolicySpec) -> Vec<LocalPolicyCheck> {
        let mut checks = Vec::new();
        for (_, community, map) in &policy.ingress_tags {
            checks.push(LocalPolicyCheck::PermittedRoutesCarry {
                chain: vec![map.clone()],
                community: *community,
            });
            checks.push(LocalPolicyCheck::PermittedRoutesPreserve {
                chain: vec![map.clone()],
                community: Self::PRESERVE_PROBE,
            });
        }
        for (_, value, map) in &policy.ingress_prefs {
            checks.push(LocalPolicyCheck::PermittedRoutesSetLocalPref {
                chain: vec![map.clone()],
                value: *value,
            });
        }
        for (_, communities, map) in &policy.egress_filters {
            for c in communities {
                checks.push(LocalPolicyCheck::RoutesWithCommunityDenied {
                    chain: vec![map.clone()],
                    community: *c,
                });
            }
        }
        checks
    }

    /// The paper's star experiment as a [`Scenario`]: the hub tags each
    /// edge's routes at ingress and filters the other edges' tags at
    /// egress; the expectations are the no-transit triple (ISPs
    /// mutually unreachable, customer reachable everywhere).
    pub fn star_scenario(topology: &Topology, roles: &StarRoles) -> Scenario {
        let hub_spec = topology.router(&roles.hub).expect("hub exists");
        let mut policy = LocalPolicySpec::default();
        let edge_neighbors: Vec<(usize, Ipv4Addr)> = roles
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, edge)| {
                hub_spec
                    .neighbors
                    .iter()
                    .find(|n| &n.peer_router == edge)
                    .map(|n| (i, n.addr))
            })
            .collect();
        for &(i, addr) in &edge_neighbors {
            let map = format!("ADD_COMM_{}", roles.edges[i]);
            policy
                .ingress_tags
                .push((addr, Self::edge_community(i), map));
        }
        for &(i, addr) in &edge_neighbors {
            let others: Vec<Community> = edge_neighbors
                .iter()
                .filter(|&&(j, _)| j != i)
                .map(|&(j, _)| Self::edge_community(j))
                .collect();
            if others.is_empty() {
                continue;
            }
            let map = format!("FILTER_COMM_OUT_{}", roles.edges[i]);
            policy.egress_filters.push((addr, others, map));
        }
        let mut expectations = Vec::new();
        for (j, isp_j) in roles.isps.iter().enumerate() {
            expectations.push(Expectation::Reachable {
                at: isp_j.clone(),
                prefix: roles.customer_prefix,
            });
            for (i, _) in roles.isps.iter().enumerate() {
                if i != j {
                    expectations.push(Expectation::Unreachable {
                        at: isp_j.clone(),
                        prefix: roles.isp_prefixes[i],
                    });
                }
            }
        }
        for p in &roles.isp_prefixes {
            expectations.push(Expectation::Reachable {
                at: roles.customer.clone(),
                prefix: *p,
            });
        }
        Scenario {
            name: format!("star-{}", roles.edges.len()),
            family: "star".into(),
            intent: "no-transit".into(),
            topology: std::sync::Arc::new(topology.clone()),
            policies: vec![(roles.hub.clone(), policy)],
            expectations,
        }
    }

    /// Builds the synthesis prompt for one router.
    fn prompt_for(topology: &Topology, name: &str, policy: &LocalPolicySpec) -> String {
        let mut p = String::new();
        p.push_str(&describe_router(topology, name).expect("router exists"));
        for (addr, c, map) in &policy.ingress_tags {
            p.push_str(&prompts::ingress_tag_sentence(*addr, *c, map));
            p.push('\n');
        }
        for (addr, v, map) in &policy.ingress_prefs {
            p.push_str(&prompts::ingress_pref_sentence(*addr, *v, map));
            p.push('\n');
        }
        for (addr, cs, map) in &policy.egress_filters {
            p.push_str(&prompts::egress_filter_sentence(*addr, cs, map));
            p.push('\n');
        }
        p.push_str(prompts::SYNTH_TASK);
        p.push('\n');
        p
    }

    /// The global-specification prompt (the ablation's style): network
    /// description plus the global policy in one shot.
    pub fn global_prompt(topology: &Topology) -> String {
        format!("{}\n{}\n", describe_network(topology), prompts::GLOBAL_TASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_model::star;

    #[test]
    fn hub_gets_tags_and_filters_edges_get_none() {
        let (t, roles) = star(3);
        let assignments = Modularizer::assign(&t, &roles);
        assert_eq!(assignments.len(), 4);
        let hub = &assignments[0];
        assert_eq!(hub.name, "R1");
        assert_eq!(hub.policy.ingress_tags.len(), 3);
        assert_eq!(hub.policy.egress_filters.len(), 3);
        // Each egress filter denies the other two communities.
        for (_, cs, _) in &hub.policy.egress_filters {
            assert_eq!(cs.len(), 2);
        }
        for a in &assignments[1..] {
            assert!(a.policy.ingress_tags.is_empty());
            assert!(a.checks.is_empty());
        }
    }

    #[test]
    fn community_scheme_matches_paper() {
        assert_eq!(Modularizer::edge_community(0).to_string(), "100:1");
        assert_eq!(Modularizer::edge_community(1).to_string(), "101:1");
        assert_eq!(Modularizer::edge_community(4).to_string(), "104:1");
    }

    #[test]
    fn hub_checks_cover_tagging_and_filtering() {
        let (t, roles) = star(2);
        let assignments = Modularizer::assign(&t, &roles);
        let hub = &assignments[0];
        let carry = hub
            .checks
            .iter()
            .filter(|c| matches!(c, LocalPolicyCheck::PermittedRoutesCarry { .. }))
            .count();
        let deny = hub
            .checks
            .iter()
            .filter(|c| matches!(c, LocalPolicyCheck::RoutesWithCommunityDenied { .. }))
            .count();
        let preserve = hub
            .checks
            .iter()
            .filter(|c| matches!(c, LocalPolicyCheck::PermittedRoutesPreserve { .. }))
            .count();
        assert_eq!(carry, 2);
        assert_eq!(preserve, 2);
        assert_eq!(deny, 2); // 2 edges × 1 other community each
    }

    #[test]
    fn prompts_parse_back_in_the_simulated_model() {
        let (t, roles) = star(2);
        let assignments = Modularizer::assign(&t, &roles);
        let hub = &assignments[0];
        let u = llm_sim::synth_task::understand_prompt(&hub.prompt);
        assert_eq!(u.name, "R1");
        assert_eq!(u.ingress_tags.len(), 2);
        assert_eq!(u.egress_filters.len(), 2);
        assert_eq!(u.neighbors.len(), 3); // 2 edges + customer
        assert!(hub.prompt.contains(prompts::SYNTH_TASK));
    }

    #[test]
    fn global_prompt_mentions_policy_and_network() {
        let (t, _) = star(2);
        let p = Modularizer::global_prompt(&t);
        assert!(p.contains("no-transit"));
        assert!(p.contains("is connected to"));
    }
}
