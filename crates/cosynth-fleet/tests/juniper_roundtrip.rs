//! Multi-vendor round-trip over the fleet's own scenario snapshots:
//! every internal router's rendered (Cisco) config is lowered to
//! config-IR, printed as Junos through `to_juniper`, re-parsed with
//! `juniper-cfg`, and lowered back — exercising the otherwise dormant
//! Juniper path against the full scenario diversity of the generator
//! (all six topology families, all intents).
//!
//! Asserted contract, per router:
//!
//! 1. the emitted Junos text parses warning-free and the emitter needs
//!    no approximation notes;
//! 2. crossing vendors preserves behaviour — `campion-lite` finds no
//!    structural or policy difference against the Cisco-lowered IR;
//! 3. **config-IR identity through the Juniper path**: a second
//!    emit→parse→lower cycle reproduces an equal `config_ir::Device`,
//!    i.e. the Junos round trip is idempotent on the IR. This pins the
//!    `default-term` fold and the origination/redistribution carrier
//!    recovery in `from_juniper` — before those, every cycle accreted an
//!    extra default clause and a duplicate carrier policy, so the IR
//!    drifted per cycle.

use cosynth_fleet::{clean_configs_for, scenario_for};

/// One emit→print→parse→lower cycle through the Juniper path.
fn juniper_cycle(device: &config_ir::Device, label: &str) -> config_ir::Device {
    let (jcfg, notes) = config_ir::to_juniper(device);
    assert!(
        notes.is_empty(),
        "{label}: emission approximated: {notes:?}"
    );
    let text = juniper_cfg::print(&jcfg);
    let (reparsed, warnings) = juniper_cfg::parse(&text);
    assert!(
        warnings.is_empty(),
        "{label}: Junos text must parse warning-free: {warnings:?}\n{text}"
    );
    let (lowered, _) = config_ir::from_juniper(&reparsed);
    lowered
}

#[test]
fn fleet_snapshots_round_trip_through_juniper_with_stable_fingerprints() {
    let mut routers = 0usize;
    // Two full family rotations of the fleet's own scenario stream.
    for index in 0..12usize {
        let scenario = scenario_for(5, index);
        for (name, text) in clean_configs_for(&scenario) {
            let label = format!("{}/{name}", scenario.name);
            let parsed = bf_lite::parse_config(&text, Some(bf_lite::Vendor::Cisco));
            assert!(
                parsed.warnings.is_empty(),
                "{label}: clean snapshot must parse: {:?}",
                parsed.warnings
            );
            let cisco_ir = parsed.device;

            let junos_ir = juniper_cycle(&cisco_ir, &label);
            // Crossing vendors preserves behaviour (interface naming
            // differs by design — ge-x/y/z units — so equality is
            // judged by Campion, not by field identity).
            let findings = campion_lite::compare(&cisco_ir, &junos_ir);
            assert!(
                findings.is_empty(),
                "{label}: vendor crossing changed behaviour: {findings:#?}"
            );

            // The Juniper path is idempotent on the IR: one more cycle
            // reaches an identical config IR.
            let junos_ir2 = juniper_cycle(&junos_ir, &label);
            assert_eq!(junos_ir, junos_ir2, "{label}: IR must be identical");
            routers += 1;
        }
    }
    assert!(
        routers >= 30,
        "the stream must exercise a real snapshot corpus, got {routers}"
    );
}
