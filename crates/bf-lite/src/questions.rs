//! The `searchRoutePolicies` question and Lightyear-style local policy
//! checks built on it.

use config_ir::Device;
use net_model::{Community, RouteAdvertisement};
use policy_symbolic::{search_route_policies, RouteQuery, RouteSpace};

/// Runs a route-policy search against one device's named policy chain,
/// building a fresh symbolic space for the query.
pub fn search_route_policies_question(
    device: &Device,
    chain: &[String],
    query: &RouteQuery,
) -> Option<RouteAdvertisement> {
    let mut space = RouteSpace::for_devices(&[device]);
    search_route_policies(&mut space, device, chain, query)
}

/// A local policy check in the style of Lightyear's per-router invariants,
/// expressed as "no counterexample route may exist".
#[derive(Debug, Clone)]
pub enum LocalPolicyCheck {
    /// Every route permitted by the chain must carry this community on
    /// output (R1's ingress tagging policy).
    PermittedRoutesCarry {
        /// The policy chain to check.
        chain: Vec<String>,
        /// The community that must be present on output.
        community: Community,
    },
    /// No route carrying this community on input may be permitted (R1's
    /// egress filtering policy).
    RoutesWithCommunityDenied {
        /// The policy chain to check.
        chain: Vec<String>,
        /// The community that must cause a deny.
        community: Community,
    },
    /// Routes permitted by the chain must not lose this input community
    /// (the `additive` check: tagging must not wipe existing communities).
    PermittedRoutesPreserve {
        /// The policy chain to check.
        chain: Vec<String>,
        /// The community that must survive.
        community: Community,
    },
    /// Every route permitted by the chain must come out with this
    /// local-preference (the prefer-customer intent's ingress policy).
    /// Checked concretely — local-pref is not a symbolic space variable.
    PermittedRoutesSetLocalPref {
        /// The policy chain to check.
        chain: Vec<String>,
        /// The required local-preference value.
        value: u32,
    },
}

impl LocalPolicyCheck {
    /// A one-line description for reports.
    pub fn describe(&self) -> String {
        match self {
            LocalPolicyCheck::PermittedRoutesCarry { chain, community } => format!(
                "every route permitted by {} must carry community {community}",
                chain.join(",")
            ),
            LocalPolicyCheck::RoutesWithCommunityDenied { chain, community } => format!(
                "routes carrying community {community} must be denied by {}",
                chain.join(",")
            ),
            LocalPolicyCheck::PermittedRoutesPreserve { chain, community } => format!(
                "routes permitted by {} must not lose community {community}",
                chain.join(",")
            ),
            LocalPolicyCheck::PermittedRoutesSetLocalPref { chain, value } => format!(
                "routes permitted by {} must carry local-preference {value}",
                chain.join(",")
            ),
        }
    }

    /// Whether the check is decided symbolically (needs a [`RouteSpace`])
    /// rather than by a concrete probe. Callers that build one space per
    /// router draft for all its checks (cosynth's local verdict) use this
    /// to skip space construction when every check is concrete.
    pub fn is_symbolic(&self) -> bool {
        !matches!(self, LocalPolicyCheck::PermittedRoutesSetLocalPref { .. })
    }

    /// The community the check constrains, for the symbolic variants.
    fn community(&self) -> Option<Community> {
        match self {
            LocalPolicyCheck::PermittedRoutesCarry { community, .. }
            | LocalPolicyCheck::RoutesWithCommunityDenied { community, .. }
            | LocalPolicyCheck::PermittedRoutesPreserve { community, .. } => Some(*community),
            LocalPolicyCheck::PermittedRoutesSetLocalPref { .. } => None,
        }
    }

    /// The violation query for this check (symbolic variants only; the
    /// local-pref check is concrete and handled in
    /// [`check_local_policy`] directly).
    fn violation_query(&self) -> Option<(Vec<String>, RouteQuery)> {
        match self {
            LocalPolicyCheck::PermittedRoutesCarry { chain, community } => Some((
                chain.clone(),
                RouteQuery {
                    action_permit: true,
                    output_communities_absent: vec![*community],
                    ..Default::default()
                },
            )),
            LocalPolicyCheck::RoutesWithCommunityDenied { chain, community } => Some((
                chain.clone(),
                RouteQuery {
                    action_permit: true,
                    input_communities_present: vec![*community],
                    ..Default::default()
                },
            )),
            LocalPolicyCheck::PermittedRoutesPreserve { chain, community } => Some((
                chain.clone(),
                RouteQuery {
                    action_permit: true,
                    input_communities_present: vec![*community],
                    output_communities_absent: vec![*community],
                    ..Default::default()
                },
            )),
            LocalPolicyCheck::PermittedRoutesSetLocalPref { .. } => None,
        }
    }
}

/// Checks a local policy on a device, building a fresh symbolic space
/// for the query. Returns `Ok(())` when the invariant holds, or the
/// violating route (the example Batfish prints and the humanizer
/// forwards).
///
/// Callers that run several checks on one router draft (the VPP local
/// verdict) should build the space once with [`space_for_checks`] and
/// use [`check_local_policy_in`] instead.
pub fn check_local_policy(
    device: &Device,
    check: &LocalPolicyCheck,
) -> Result<(), RouteAdvertisement> {
    if !check.is_symbolic() {
        return check_local_policy_concrete(device, check);
    }
    let mut space = space_for_checks(device, std::slice::from_ref(check));
    check_local_policy_in(&mut space, device, check)
}

/// Checks a local policy against a caller-supplied space (built with
/// [`space_for_checks`] over a check set including this one). The space
/// may be shared across checks and across verification rounds of the
/// same draft: the underlying BDD manager is monotone, so reuse only
/// warms its unique table and op caches.
pub fn check_local_policy_in(
    space: &mut RouteSpace,
    device: &Device,
    check: &LocalPolicyCheck,
) -> Result<(), RouteAdvertisement> {
    if !check.is_symbolic() {
        return check_local_policy_concrete(device, check);
    }
    let (chain, query) = check.violation_query().expect("symbolic variant");
    // Release-mode guard, not a debug_assert: a space missing the
    // check's community would silently make "carries c" constant-false
    // (the symbolic query treats out-of-universe communities as absent)
    // and report a spurious violation. Misuse must be loud.
    assert!(
        check
            .community()
            .is_none_or(|c| space.community_var(c).is_some()),
        "space was not built over this check's community (build it with \
         space_for_checks over a check set including this one): {}",
        check.describe()
    );
    match search_route_policies(space, device, &chain, &query) {
        Some(route) => Err(route),
        None => Ok(()),
    }
}

/// The concrete probe behind [`LocalPolicyCheck::PermittedRoutesSetLocalPref`]:
/// a preference map must permit and must stamp the value (a deny would
/// starve the session of the neighbor's routes). The contract matches
/// the prompt sentence — "set local-preference N on ALL routes" — so an
/// unconditional permit+set chain is expected; a map that discriminates
/// by prefix/community is judged only on this one probe (local-pref is
/// not a symbolic space variable).
fn check_local_policy_concrete(
    device: &Device,
    check: &LocalPolicyCheck,
) -> Result<(), RouteAdvertisement> {
    let LocalPolicyCheck::PermittedRoutesSetLocalPref { chain, value } = check else {
        unreachable!("symbolic checks are routed through a RouteSpace")
    };
    let probe = RouteAdvertisement::bgp("192.0.2.0/24".parse().expect("TEST-NET-1"));
    let env = config_ir::PolicyEnv::new(device);
    match config_ir::eval_policy_chain(&env, chain, &probe) {
        config_ir::PolicyOutcome::Permit(out) if out.local_pref == Some(*value) => Ok(()),
        config_ir::PolicyOutcome::Permit(out) => Err(out),
        config_ir::PolicyOutcome::Deny => Err(probe),
    }
}

/// Builds the symbolic space for a device draft under a set of checks:
/// the device's own community/AS-path universes plus every symbolic
/// check's community. The checks' communities must be space variables
/// even if the (possibly buggy) config never mentions them — otherwise
/// "carries community c" would be trivially false rather than checkable.
///
/// One space built here serves *all* the given checks, which is what
/// makes sharing it across a draft's checks sound: a community variable
/// unconstrained by both the policy and the query never appears on a
/// counterexample path, so witnesses are identical to those from a
/// single-check space.
pub fn space_for_checks(device: &Device, checks: &[LocalPolicyCheck]) -> RouteSpace {
    space_for_checks_in(
        bdd::Manager::with_capacity(RouteSpace::DEFAULT_NODE_CAPACITY),
        device,
        checks,
    )
}

/// [`space_for_checks`] over a caller-supplied BDD manager — the pooled
/// path. The manager is recycled in place (see
/// [`RouteSpace::in_manager`]): a worker that keeps managers resident
/// across sessions pays table allocation once per worker instead of
/// once per space, and a grown unique table stays grown. Results are
/// bit-identical to the fresh path — `Ref`s depend only on the op
/// sequence, never on table capacity.
pub fn space_for_checks_in(
    mgr: bdd::Manager,
    device: &Device,
    checks: &[LocalPolicyCheck],
) -> RouteSpace {
    let mut communities = device.community_universe();
    for check in checks {
        if let Some(c) = check.community() {
            communities.insert(c);
        }
    }
    let mut aspaths = std::collections::BTreeSet::new();
    for p in &device.policies {
        for cl in &p.clauses {
            for cond in &cl.conditions {
                if let config_ir::Condition::MatchAsPath(re) = cond {
                    aspaths.insert(re.clone());
                }
            }
        }
    }
    RouteSpace::in_manager(mgr, communities, aspaths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use config_ir::{ClauseAction, Condition, IrClause, IrCommunitySet, IrPolicy, Modifier};
    use std::collections::BTreeSet;

    fn comm(s: &str) -> Community {
        s.parse().unwrap()
    }

    /// A device with R1-style ingress tagging: ADD_COMM adds 100:1
    /// additively (correct) or non-additively (buggy).
    fn tagging_device(additive: bool) -> Device {
        let mut d = Device::named("r1");
        let mut p = IrPolicy::new("ADD_COMM");
        p.clauses.push(IrClause {
            id: "10".into(),
            action: ClauseAction::Permit,
            conditions: vec![],
            modifiers: vec![Modifier::SetCommunities {
                communities: BTreeSet::from([comm("100:1")]),
                additive,
            }],
        });
        d.policies.push(p);
        d
    }

    #[test]
    fn carry_check_passes_for_tagging_policy() {
        let d = tagging_device(true);
        let check = LocalPolicyCheck::PermittedRoutesCarry {
            chain: vec!["ADD_COMM".into()],
            community: comm("100:1"),
        };
        assert!(check_local_policy(&d, &check).is_ok());
    }

    #[test]
    fn carry_check_fails_without_tagging() {
        let mut d = Device::named("r1");
        let mut p = IrPolicy::new("NOOP");
        p.clauses.push(IrClause::permit_all("10"));
        d.policies.push(p);
        let check = LocalPolicyCheck::PermittedRoutesCarry {
            chain: vec!["NOOP".into()],
            community: comm("100:1"),
        };
        let violation = check_local_policy(&d, &check).unwrap_err();
        assert!(!violation.communities.contains(&comm("100:1")));
    }

    #[test]
    fn preserve_check_catches_missing_additive() {
        // The Section 4.2 "Adding Communities" bug: non-additive set wipes
        // pre-existing communities.
        let buggy = tagging_device(false);
        // The input community that gets wiped must be in the universe;
        // model a route already carrying 999:9 by including it via a set.
        let mut buggy = buggy;
        buggy
            .community_sets
            .push(IrCommunitySet::single("other", comm("999:9")));
        let check = LocalPolicyCheck::PermittedRoutesPreserve {
            chain: vec!["ADD_COMM".into()],
            community: comm("999:9"),
        };
        let violation = check_local_policy(&buggy, &check).unwrap_err();
        assert!(violation.communities.contains(&comm("999:9")));
        // The additive version preserves.
        let mut good = tagging_device(true);
        good.community_sets
            .push(IrCommunitySet::single("other", comm("999:9")));
        assert!(check_local_policy(&good, &check).is_ok());
    }

    #[test]
    fn deny_check_catches_and_semantics() {
        // Egress filter with AND semantics: one deny clause requiring BOTH
        // 101:1 and 102:1. Routes with only 101:1 slip through — the
        // counterexample the paper describes Batfish producing.
        let mut d = Device::named("r1");
        d.community_sets
            .push(IrCommunitySet::single("c2", comm("101:1")));
        d.community_sets
            .push(IrCommunitySet::single("c3", comm("102:1")));
        let mut p = IrPolicy::new("FILTER_COMM_OUT_R2");
        p.clauses.push(IrClause {
            id: "10".into(),
            action: ClauseAction::Deny,
            conditions: vec![
                Condition::community_set("c2"),
                Condition::community_set("c3"),
            ],
            modifiers: vec![],
        });
        p.clauses.push(IrClause::permit_all("20"));
        d.policies.push(p);
        let check = LocalPolicyCheck::RoutesWithCommunityDenied {
            chain: vec!["FILTER_COMM_OUT_R2".into()],
            community: comm("101:1"),
        };
        let violation = check_local_policy(&d, &check).unwrap_err();
        assert!(violation.communities.contains(&comm("101:1")));
        // The OR-shaped fix: one condition listing both sets.
        let fixed_policy = {
            let mut p = IrPolicy::new("FILTER_COMM_OUT_R2");
            p.clauses.push(IrClause {
                id: "10".into(),
                action: ClauseAction::Deny,
                conditions: vec![Condition::MatchCommunity(vec!["c2".into(), "c3".into()])],
                modifiers: vec![],
            });
            p.clauses.push(IrClause::permit_all("20"));
            p
        };
        d.policies.clear();
        d.policies.push(fixed_policy);
        assert!(check_local_policy(&d, &check).is_ok());
    }

    #[test]
    fn local_pref_check_is_concrete() {
        let mut d = Device::named("r1");
        let mut p = IrPolicy::new("PREF_CUST");
        let mut clause = IrClause::permit_all("10");
        clause.modifiers.push(Modifier::SetLocalPref(200));
        p.clauses.push(clause);
        d.policies.push(p);
        let check = LocalPolicyCheck::PermittedRoutesSetLocalPref {
            chain: vec!["PREF_CUST".into()],
            value: 200,
        };
        assert!(check_local_policy(&d, &check).is_ok());
        // Wrong value is a violation carrying the evaluated route.
        let wrong = LocalPolicyCheck::PermittedRoutesSetLocalPref {
            chain: vec!["PREF_CUST".into()],
            value: 50,
        };
        let witness = check_local_policy(&d, &wrong).unwrap_err();
        assert_eq!(witness.local_pref, Some(200));
        // A missing map denies the probe — also a violation.
        let missing = LocalPolicyCheck::PermittedRoutesSetLocalPref {
            chain: vec!["NOPE".into()],
            value: 200,
        };
        assert!(check_local_policy(&d, &missing).is_err());
    }

    #[test]
    fn describe_is_informative() {
        let check = LocalPolicyCheck::RoutesWithCommunityDenied {
            chain: vec!["X".into()],
            community: comm("101:1"),
        };
        let s = check.describe();
        assert!(s.contains("101:1"));
        assert!(s.contains('X'));
    }

    #[test]
    fn question_wrapper_builds_space() {
        let d = tagging_device(true);
        let q = RouteQuery::any_permitted();
        assert!(search_route_policies_question(&d, &["ADD_COMM".to_string()], &q).is_some());
    }
}
