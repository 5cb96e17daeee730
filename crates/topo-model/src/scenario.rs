//! Verification scenarios: a topology plus per-router policy intents and
//! whole-network expectations.
//!
//! The paper evaluates exactly two hand-built scenarios; a [`Scenario`]
//! is the generalized input the VPP loop runs on instead. It carries the
//! same two artifacts the star experiment had — the topology JSON and
//! the per-router policy specs the Modularizer turns into prompts — plus
//! the machine-checkable global expectations the Composer verifies after
//! simulation (the generalization of the star's hard-coded no-transit
//! checks).

use crate::json::quote;
use crate::topology::Topology;
use net_model::{Asn, Community, Prefix};
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The local policy assigned to one router, in the formulaic vocabulary
/// the prompt contract supports: ingress community tagging, ingress
/// local-preference, and egress community filtering.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct RouterPolicy {
    /// `(neighbor, community, route-map name)` ingress tags.
    pub ingress_tags: Vec<(Ipv4Addr, Community, String)>,
    /// `(neighbor, local-pref value, route-map name)` ingress preferences.
    pub ingress_prefs: Vec<(Ipv4Addr, u32, String)>,
    /// `(neighbor, communities-to-deny, route-map name)` egress filters.
    pub egress_filters: Vec<(Ipv4Addr, Vec<Community>, String)>,
}

impl RouterPolicy {
    /// Whether the policy is empty (plain eBGP forwarding).
    pub fn is_empty(&self) -> bool {
        self.ingress_tags.is_empty()
            && self.ingress_prefs.is_empty()
            && self.egress_filters.is_empty()
    }
}

/// A whole-network expectation checked against the converged RIBs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expectation {
    /// `prefix` must appear in `at`'s RIB.
    Reachable {
        /// Observing device (router or stub name).
        at: String,
        /// The expected prefix.
        prefix: Prefix,
    },
    /// `prefix` must NOT appear in `at`'s RIB.
    Unreachable {
        /// Observing device.
        at: String,
        /// The forbidden prefix.
        prefix: Prefix,
    },
    /// `at`'s best route for `prefix` must originate from AS `origin`
    /// (the prefer-customer intent's observable).
    PreferVia {
        /// Observing device.
        at: String,
        /// The contested prefix.
        prefix: Prefix,
        /// Required origin AS of the winning route.
        origin: Asn,
    },
}

/// The stubs of a generated topology, by role in the intent: the handle
/// the `scenario-gen` intent synthesizers work from, and (with the
/// topology) everything a pinned network fixes before an intent is
/// applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StubSet {
    /// The designated customer stub (reachable under every intent).
    pub customer: String,
    /// The customer's announced prefix.
    pub customer_prefix: Prefix,
    /// Peer stubs `(name, announced prefix)` — the ISPs/peers the
    /// intents tag, filter, or block.
    pub peers: Vec<(String, Prefix)>,
}

impl StubSet {
    /// All stubs, customer first.
    pub fn all(&self) -> Vec<(String, Prefix)> {
        let mut v = vec![(self.customer.clone(), self.customer_prefix)];
        v.extend(self.peers.iter().cloned());
        v
    }
}

/// One generated verification scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique scenario name (`ring-no-transit-s7-i3`).
    pub name: String,
    /// Topology family (`ring`, `chain`, `star`, …).
    pub family: String,
    /// Intent family (`no-transit`, `prefer-customer`, …).
    pub intent: String,
    /// The network, shared: every scenario of a pinned large family
    /// whose intent leaves the network as drawn holds the same
    /// allocation, so a clone of the scenario copies no router.
    pub topology: Arc<Topology>,
    /// Per-router policies, `(router name, policy)`; routers absent from
    /// the list get an empty policy (plain eBGP forwarding).
    pub policies: Vec<(String, RouterPolicy)>,
    /// The global expectations.
    pub expectations: Vec<Expectation>,
}

impl Scenario {
    /// The policy assigned to `router`, if any.
    pub fn policy_for(&self, router: &str) -> Option<&RouterPolicy> {
        self.policies
            .iter()
            .find(|(n, _)| n == router)
            .map(|(_, p)| p)
    }

    /// Serializes the scenario (topology JSON nested inside the policy
    /// spec) — the generator's on-disk artifact for debugging and for
    /// driving external tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": {},", quote(&self.name));
        let _ = writeln!(out, "  \"family\": {},", quote(&self.family));
        let _ = writeln!(out, "  \"intent\": {},", quote(&self.intent));
        out.push_str("  \"policies\": [");
        for (i, (router, p)) in self.policies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let tags: Vec<String> = p
                .ingress_tags
                .iter()
                .map(|(addr, c, map)| quote(&format!("{addr} {c} {map}")))
                .collect();
            let prefs: Vec<String> = p
                .ingress_prefs
                .iter()
                .map(|(addr, v, map)| quote(&format!("{addr} {v} {map}")))
                .collect();
            let filters: Vec<String> = p
                .egress_filters
                .iter()
                .map(|(addr, cs, map)| {
                    let cs: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                    quote(&format!("{addr} [{}] {map}", cs.join(" ")))
                })
                .collect();
            let _ = write!(
                out,
                "\n    {{ \"router\": {}, \"tags\": [{}], \"prefs\": [{}], \"filters\": [{}] }}",
                quote(router),
                tags.join(", "),
                prefs.join(", "),
                filters.join(", ")
            );
        }
        out.push_str(if self.policies.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"expectations\": [");
        for (i, e) in self.expectations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let line = match e {
                Expectation::Reachable { at, prefix } => format!("reachable {at} {prefix}"),
                Expectation::Unreachable { at, prefix } => format!("unreachable {at} {prefix}"),
                Expectation::PreferVia { at, prefix, origin } => {
                    format!("prefer-via {at} {prefix} {origin}")
                }
            };
            let _ = write!(out, "\n    {}", quote(&line));
        }
        out.push_str(if self.expectations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        // The nested topology JSON, indented to match.
        out.push_str("  \"topology\": ");
        for (i, line) in self.topology.to_json().lines().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(line);
            out.push('\n');
        }
        out.pop();
        out.push_str("\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::star;

    fn demo() -> Scenario {
        let (topology, roles) = star(2);
        Scenario {
            name: "star-demo".into(),
            family: "star".into(),
            intent: "no-transit".into(),
            topology: Arc::new(topology),
            policies: vec![(
                roles.hub.clone(),
                RouterPolicy {
                    ingress_tags: vec![(
                        "2.0.0.2".parse().unwrap(),
                        "100:1".parse().unwrap(),
                        "ADD_COMM_R2".into(),
                    )],
                    ingress_prefs: vec![],
                    egress_filters: vec![(
                        "3.0.0.2".parse().unwrap(),
                        vec!["100:1".parse().unwrap()],
                        "FILTER_COMM_OUT_R3".into(),
                    )],
                },
            )],
            expectations: vec![Expectation::Unreachable {
                at: "ISP-3".into(),
                prefix: "200.2.0.0/24".parse().unwrap(),
            }],
        }
    }

    #[test]
    fn policy_lookup() {
        let s = demo();
        assert!(s.policy_for("R1").is_some());
        assert!(s.policy_for("R2").is_none());
        assert!(!s.policy_for("R1").unwrap().is_empty());
        assert!(RouterPolicy::default().is_empty());
    }

    #[test]
    fn json_contains_all_sections() {
        let s = demo();
        let j = s.to_json();
        assert!(j.contains("\"family\": \"star\""), "{j}");
        assert!(j.contains("unreachable ISP-3 200.2.0.0/24"), "{j}");
        assert!(j.contains("\"routers\""), "{j}");
        // The nested topology is valid JSON in its own right.
        assert!(crate::json::parse(&j).is_ok(), "{j}");
    }
}
