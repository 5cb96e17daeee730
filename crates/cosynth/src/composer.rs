//! The Composer: reassembles per-router configs into a Batfish-lite
//! snapshot and runs the whole-network no-transit check — the paper's
//! final step ("we simulate the entire BGP communication using Batfish as
//! a final step, in order to ensure that the global policy is
//! satisfied").

use bf_lite::sim::{run, Snapshot};
use config_ir::{Device, IrBgp, IrInterface, IrNeighbor};
use net_model::{Asn, Prefix};
use std::collections::BTreeMap;
use topo_model::{Expectation, RouterSpec, Scenario, StarRoles, Topology};

/// A violation of the global policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlobalViolation {
    /// ISP `to_isp` can reach ISP `from_isp`'s prefix — transit.
    TransitLeak {
        /// Prefix owner.
        from_isp: String,
        /// The ISP that (wrongly) learned the route.
        to_isp: String,
        /// The leaked prefix.
        prefix: Prefix,
    },
    /// The customer prefix never reached an ISP.
    CustomerUnreachable {
        /// The ISP missing the route.
        at_isp: String,
    },
    /// An ISP prefix never reached the customer.
    IspUnreachableFromCustomer {
        /// The ISP whose prefix is missing.
        isp: String,
        /// The missing prefix.
        prefix: Prefix,
    },
    /// A scenario expectation `Reachable { at, prefix }` failed.
    MissingRoute {
        /// The device missing the route.
        at: String,
        /// The expected prefix.
        prefix: Prefix,
    },
    /// A scenario expectation `Unreachable { at, prefix }` failed.
    ForbiddenRoute {
        /// The device that (wrongly) learned the route.
        at: String,
        /// The forbidden prefix.
        prefix: Prefix,
    },
    /// A scenario expectation `PreferVia` failed: the winning route does
    /// not originate from the required AS.
    WrongPreference {
        /// The observing device.
        at: String,
        /// The contested prefix.
        prefix: Prefix,
        /// The required origin AS.
        expected_origin: Asn,
        /// The origin AS of the route actually installed (`None` = no
        /// route at all).
        found_origin: Option<Asn>,
    },
}

/// The whole-network check report.
#[derive(Debug, Clone)]
pub struct GlobalCheckReport {
    /// All violations found (empty = the global policy holds).
    pub violations: Vec<GlobalViolation>,
    /// Simulation rounds to the fixed point.
    pub sim_rounds: usize,
    /// Whether the simulation diverged (policy oscillation).
    pub diverged: bool,
    /// Session-establishment problems (configs that broke peering).
    pub session_problems: Vec<String>,
}

impl GlobalCheckReport {
    /// Whether the global no-transit policy is satisfied.
    pub fn holds(&self) -> bool {
        self.violations.is_empty() && !self.diverged
    }
}

/// Builds the IR device for an external stub directly from its topology
/// spec (stubs are simulated, not synthesized).
pub fn device_from_spec(spec: &RouterSpec) -> Device {
    let mut d = Device::named(&spec.name);
    for i in &spec.interfaces {
        let mut ir = IrInterface::named(&i.name);
        ir.address = Some(i.address);
        d.interfaces.push(ir);
    }
    let mut bgp = IrBgp::new(spec.asn);
    bgp.router_id = Some(spec.router_id);
    bgp.networks = spec.networks.clone();
    for n in &spec.neighbors {
        let mut irn = IrNeighbor::new(n.addr);
        irn.remote_as = Some(n.asn);
        irn.send_community = true;
        bgp.neighbors.push(irn);
    }
    d.bgp = Some(bgp);
    d
}

/// Parses an internal router's config text and applies the hostname
/// fixup (config files may omit the hostname; the composer names devices
/// from the folder layout as Batfish does). Pure in `(name, text)` — the
/// local verdict parses through here, which is what lets the memo's
/// parse hooks substitute its stored devices for fresh parses.
pub(crate) fn parse_internal(name: &str, text: &str) -> bf_lite::ParsedConfig {
    let mut parsed = bf_lite::parse_config(text, Some(bf_lite::Vendor::Cisco));
    if parsed.device.name.is_empty() {
        parsed.device.name = name.to_string();
    }
    parsed
}

/// An internal router's device from its config text, if it has one: the
/// parsed text ([`parse_internal`]), or an empty device when the config
/// is missing — sessions to it fail and show up in session_problems.
pub(crate) fn lower_internal(name: &str, text: Option<&str>) -> Device {
    match text {
        Some(text) => parse_internal(name, text).device,
        None => Device::named(name),
    }
}

/// Assembles the simulation snapshot: internal routers as `internal`
/// lowers them by name, stubs straight from their topology specs.
/// `internal` must agree with [`lower_internal`] on the configs being
/// checked (the incremental verifier passes a memo-backed hook that
/// clones already-parsed devices instead of re-parsing the whole
/// network per simulation).
fn build_snapshot_with(topology: &Topology, internal: &mut dyn FnMut(&str) -> Device) -> Snapshot {
    let mut devices = Vec::new();
    for spec in topology.internal_routers() {
        devices.push(internal(&spec.name));
    }
    for spec in topology.stubs() {
        devices.push(device_from_spec(spec));
    }
    Snapshot::new(devices)
}

fn build_snapshot(topology: &Topology, configs: &BTreeMap<String, String>) -> Snapshot {
    build_snapshot_with(topology, &mut |name| {
        lower_internal(name, configs.get(name).map(String::as_str))
    })
}

/// Composes a scenario's configs, runs the simulation, and evaluates the
/// scenario's expectations — the whole-network check for any generated
/// scenario.
pub fn check_scenario(
    scenario: &Scenario,
    configs: &BTreeMap<String, String>,
) -> GlobalCheckReport {
    check_scenario_with(scenario, |name| {
        lower_internal(name, configs.get(name).map(String::as_str))
    })
}

/// [`check_scenario`] with a caller-supplied internal-router lowering:
/// `internal(name)` must return exactly what [`lower_internal`] returns
/// for that router's config — the incremental verifier serves clones of
/// devices it already parsed during localization, which keeps the
/// report byte-identical while skipping an O(network) reparse per
/// simulation.
pub(crate) fn check_scenario_with(
    scenario: &Scenario,
    mut internal: impl FnMut(&str) -> Device,
) -> GlobalCheckReport {
    let snapshot = build_snapshot_with(&scenario.topology, &mut internal);
    let report = run(&snapshot);
    let mut violations = Vec::new();
    for e in &scenario.expectations {
        match e {
            Expectation::Reachable { at, prefix } => {
                let present = snapshot
                    .device_index(at)
                    .and_then(|i| report.route_at(i, prefix))
                    .is_some();
                if !present {
                    violations.push(GlobalViolation::MissingRoute {
                        at: at.clone(),
                        prefix: *prefix,
                    });
                }
            }
            Expectation::Unreachable { at, prefix } => {
                let present = snapshot
                    .device_index(at)
                    .and_then(|i| report.route_at(i, prefix))
                    .is_some();
                if present {
                    violations.push(GlobalViolation::ForbiddenRoute {
                        at: at.clone(),
                        prefix: *prefix,
                    });
                }
            }
            Expectation::PreferVia { at, prefix, origin } => {
                let found = snapshot
                    .device_index(at)
                    .and_then(|i| report.route_at(i, prefix));
                // A locally originated route has an empty AS path: its
                // origin is the observing device's own AS.
                let found_origin = found.and_then(|r| {
                    r.as_path
                        .origin_as()
                        .or_else(|| scenario.topology.router(at).map(|s| s.asn))
                });
                if found.is_none() || found_origin != Some(*origin) {
                    violations.push(GlobalViolation::WrongPreference {
                        at: at.clone(),
                        prefix: *prefix,
                        expected_origin: *origin,
                        found_origin,
                    });
                }
            }
        }
    }
    GlobalCheckReport {
        violations,
        sim_rounds: report.rounds,
        diverged: report.diverged,
        session_problems: snapshot.session_problems.clone(),
    }
}

/// Composes internal router configs (Cisco text, as returned by the LLM)
/// with the topology's stubs, runs the BGP simulation, and checks
/// no-transit.
pub fn compose_and_check(
    topology: &Topology,
    roles: &StarRoles,
    configs: &BTreeMap<String, String>,
) -> GlobalCheckReport {
    let snapshot = build_snapshot(topology, configs);
    let report = run(&snapshot);
    let mut violations = Vec::new();
    // ISP-side checks.
    for (j, isp_j) in roles.isps.iter().enumerate() {
        let Some(jdx) = snapshot.device_index(isp_j) else {
            continue;
        };
        if report.route_at(jdx, &roles.customer_prefix).is_none() {
            violations.push(GlobalViolation::CustomerUnreachable {
                at_isp: isp_j.clone(),
            });
        }
        for (i, isp_i) in roles.isps.iter().enumerate() {
            if i == j {
                continue;
            }
            let p = roles.isp_prefixes[i];
            if report.route_at(jdx, &p).is_some() {
                violations.push(GlobalViolation::TransitLeak {
                    from_isp: isp_i.clone(),
                    to_isp: isp_j.clone(),
                    prefix: p,
                });
            }
        }
    }
    // Customer-side checks.
    if let Some(cdx) = snapshot.device_index(&roles.customer) {
        for (i, isp) in roles.isps.iter().enumerate() {
            let p = roles.isp_prefixes[i];
            if report.route_at(cdx, &p).is_none() {
                violations.push(GlobalViolation::IspUnreachableFromCustomer {
                    isp: isp.clone(),
                    prefix: p,
                });
            }
        }
    }
    GlobalCheckReport {
        violations,
        sim_rounds: report.rounds,
        diverged: report.diverged,
        session_problems: snapshot.session_problems.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularizer::Modularizer;
    use llm_sim::synth_task::SynthesisDraft;
    use std::collections::BTreeSet;
    use topo_model::star;

    /// Builds the reference (correct) configs for all internal routers.
    fn reference_configs(topology: &Topology, roles: &StarRoles) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for a in Modularizer::assign(topology, roles) {
            let draft = SynthesisDraft::new(&a.prompt, BTreeSet::new());
            out.insert(a.name.clone(), draft.render());
        }
        out
    }

    #[test]
    fn correct_configs_satisfy_no_transit() {
        let (t, roles) = star(3);
        let configs = reference_configs(&t, &roles);
        let report = compose_and_check(&t, &roles, &configs);
        assert!(
            report.holds(),
            "violations: {:#?}\nsession problems: {:#?}",
            report.violations,
            report.session_problems
        );
    }

    #[test]
    fn unfiltered_hub_leaks_transit() {
        let (t, roles) = star(3);
        let mut configs = reference_configs(&t, &roles);
        // Strip the filters from R1 (keep sessions alive): resynthesize
        // the hub with no egress filters.
        let assignments = Modularizer::assign(&t, &roles);
        let hub = &assignments[0];
        let mut stripped_prompt = String::new();
        for line in hub.prompt.lines() {
            if !line.starts_with("At egress to neighbor ") {
                stripped_prompt.push_str(line);
                stripped_prompt.push('\n');
            }
        }
        let draft = SynthesisDraft::new(&stripped_prompt, BTreeSet::new());
        configs.insert(hub.name.clone(), draft.render());
        let report = compose_and_check(&t, &roles, &configs);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, GlobalViolation::TransitLeak { .. })),
            "{:#?}",
            report.violations
        );
        // The customer is still reachable (filters only affect ISP↔ISP).
        assert!(!report
            .violations
            .iter()
            .any(|v| matches!(v, GlobalViolation::CustomerUnreachable { .. })));
    }

    #[test]
    fn missing_config_breaks_reachability() {
        let (t, roles) = star(2);
        let mut configs = reference_configs(&t, &roles);
        configs.remove("R2");
        let report = compose_and_check(&t, &roles, &configs);
        assert!(!report.holds());
        assert!(!report.session_problems.is_empty());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, GlobalViolation::CustomerUnreachable { .. })));
    }

    #[test]
    fn scenario_check_matches_star_check() {
        let (t, roles) = star(3);
        let scenario = Modularizer::star_scenario(&t, &roles);
        let configs = reference_configs(&t, &roles);
        let report = check_scenario(&scenario, &configs);
        assert!(
            report.holds(),
            "{:#?} / {:#?}",
            report.violations,
            report.session_problems
        );
        // A dropped edge config surfaces as generic missing-route
        // violations (the star check's CustomerUnreachable analogue).
        let mut broken = configs.clone();
        broken.remove("R2");
        let report = check_scenario(&scenario, &broken);
        assert!(!report.holds());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, GlobalViolation::MissingRoute { .. })));
    }

    #[test]
    fn stub_devices_match_their_specs() {
        let (t, _) = star(2);
        let stub = t.router("ISP-2").unwrap();
        let d = device_from_spec(stub);
        assert_eq!(d.name, "ISP-2");
        assert_eq!(d.bgp.as_ref().unwrap().networks, stub.networks);
        assert_eq!(d.interfaces.len(), 1);
    }
}
