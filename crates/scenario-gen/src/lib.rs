//! # scenario-gen — seeded generator of verification scenarios
//!
//! The paper evaluates Verified Prompt Programming on two hand-built
//! scenarios; this crate generates arbitrarily many. A scenario is a
//! topology drawn from one of five families beyond the star —
//! [`families::chain`], [`families::ring`], [`families::full_mesh`],
//! [`families::fat_tree_pod`], [`families::multi_homed`] — combined with
//! one of four intents ([`intents::Intent`]): no-transit,
//! community-tagging, prefix-block, prefer-customer. The output is a
//! [`topo_model::Scenario`]: the same topology-JSON + policy-spec pair
//! the `cosynth` Modularizer consumes for the star.
//!
//! ## Determinism contract
//!
//! [`generate(seed, index)`](generate) is a pure function: the same
//! `(seed, index)` always yields a structurally identical scenario
//! (`Scenario` derives `PartialEq`; equality is exact). The topology
//! family rotates with `index % 5` so any window of five consecutive
//! indices covers every family; the intent and the family's size
//! parameter are drawn from a splitmix64 stream keyed on
//! `(seed, index)`. No global state, no ambient randomness.

pub mod families;
pub mod intents;

pub use families::StubSet;
pub use intents::Intent;
use llm_sim::rng::SimRng;
use std::sync::Arc;
use topo_model::{Scenario, Topology};

/// The generator's topology families, in rotation order.
pub const FAMILIES: [&str; 5] = ["chain", "ring", "full-mesh", "fat-tree", "multi-homed"];

/// The large generated families for the internet-scale sweep: multi-pod
/// fat trees ([`families::fat_tree_multi`]) and preferential-attachment
/// AS graphs ([`families::as_graph`]). The trailing number is the
/// internal-router count. These are **not** part of the default
/// rotation — they are reachable only by name via [`generate_family`] —
/// so every committed per-seed pin of the rotation stays stable.
pub const LARGE_FAMILIES: [&str; 7] = [
    "fat-tree-36",
    "fat-tree-72",
    "fat-tree-144",
    "as-graph-64",
    "as-graph-128",
    "as-graph-256",
    "as-graph-512",
];

/// The internal-router count of a large family, `None` for rotation
/// families (whose size is drawn per scenario).
pub fn large_family_size(family: &str) -> Option<usize> {
    match family {
        "fat-tree-36" => Some(36),
        "fat-tree-72" => Some(72),
        "fat-tree-144" => Some(144),
        "as-graph-64" => Some(64),
        "as-graph-128" => Some(128),
        "as-graph-256" => Some(256),
        "as-graph-512" => Some(512),
        _ => None,
    }
}

/// Derives the per-scenario RNG stream: one splitmix64 stream keyed on
/// `(seed, index)` (golden-ratio mixing keeps neighbouring indices
/// uncorrelated).
fn stream(seed: u64, index: usize) -> SimRng {
    SimRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// Builds the family topology for `(seed, index)` with a size drawn from
/// the scenario's RNG stream.
fn build_family(rng: &mut SimRng, family: &str) -> (Topology, StubSet) {
    match family {
        "chain" => families::chain(3 + rng.index(4)), // 3..=6 routers
        "ring" => families::ring(3 + rng.index(4)),   // 3..=6 routers
        "full-mesh" => families::full_mesh(3 + rng.index(3)), // 3..=5 routers
        "fat-tree" => families::fat_tree_pod(4 + 2 * rng.index(2)), // k = 4 or 6
        "multi-homed" => families::multi_homed(2 + rng.index(3)), // 2..=4 ISPs
        other => panic!("unknown family {other:?}"),
    }
}

/// The intent a scenario's stream draws first, before any size.
fn draw_intent(rng: &mut SimRng) -> Intent {
    Intent::ALL[rng.index(Intent::ALL.len())]
}

/// The unique name of scenario `index` of stream `seed`.
fn scenario_name(family: &str, intent: Intent, seed: u64, index: usize) -> String {
    format!("{family}-{}-s{seed}-i{index}", intent.as_str())
}

/// Generates scenario `index` of the stream `seed`. Deterministic: see
/// the crate-level determinism contract.
pub fn generate(seed: u64, index: usize) -> Scenario {
    rotation_scenario(FAMILIES[index % FAMILIES.len()], seed, index)
}

/// Scenario `index` of the stream `seed` on rotation family `family`:
/// the intent, then the family's size, drawn from one stream.
fn rotation_scenario(family: &str, seed: u64, index: usize) -> Scenario {
    let mut rng = stream(seed, index);
    let intent = draw_intent(&mut rng);
    let (topology, stubs) = build_family(&mut rng, family);
    let name = scenario_name(family, intent, seed, index);
    intents::apply(intent, Arc::new(topology), &stubs, family, name)
}

/// The AS-graph attachment stream: keyed on `(seed, size)` only — NOT
/// the index — so every session index at one seed runs against the
/// same network and only the intent (and downstream fault) varies.
/// That is the workload the incremental verifier is built for: a fleet
/// of edits against one topology, where per-device verdicts are
/// reusable across sessions.
fn topology_stream(seed: u64, size: usize) -> SimRng {
    SimRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((size as u64).wrapping_mul(0x94D0_49BB_1331_11EB)),
    )
}

/// The network every index of a large family runs on at `seed`: the
/// topology and its stub set, fixed per `(seed, family)` — the multi-pod
/// fat trees structurally, the AS graphs via `topology_stream`. `None`
/// for the rotation families, whose size (and so topology) is drawn per
/// index. A caller that runs many indices of one large family draws this
/// once and shares the topology's `Arc` with [`pinned_scenario`] per
/// index.
pub fn pinned_network(family: &str, seed: u64) -> Option<(Arc<Topology>, StubSet)> {
    let (topology, stubs) = match family {
        "fat-tree-36" => families::fat_tree_multi(4),
        "fat-tree-72" => families::fat_tree_multi(8),
        "fat-tree-144" => families::fat_tree_multi(16),
        "as-graph-64" => families::as_graph(64, &mut topology_stream(seed, 64)),
        "as-graph-128" => families::as_graph(128, &mut topology_stream(seed, 128)),
        "as-graph-256" => families::as_graph(256, &mut topology_stream(seed, 256)),
        "as-graph-512" => families::as_graph(512, &mut topology_stream(seed, 512)),
        _ => return None,
    };
    Some((Arc::new(topology), stubs))
}

/// The intent and the name of scenario `index` of large family `family`
/// at `seed`: the only draw a pinned family makes per index. Every
/// index that draws the same intent gets the same scenario but for its
/// name, so a caller that keeps one scenario per `(family, seed,
/// intent)` serves an index by renaming that scenario.
pub fn pinned_intent(family: &str, seed: u64, index: usize) -> (Intent, String) {
    let intent = draw_intent(&mut stream(seed, index));
    (intent, scenario_name(family, intent, seed, index))
}

/// Scenario `index` of a large family at `seed`, on `topology` and
/// `stubs` — the family's [`pinned_network`] at that seed — with the
/// intent [`pinned_intent`] draws. No-transit, community-tagging and
/// prefix-block keep `topology`'s allocation; prefer-customer announces
/// the contested prefix from two stubs, so it extends a copy of a
/// shared topology.
pub fn pinned_scenario(
    family: &str,
    seed: u64,
    index: usize,
    topology: Arc<Topology>,
    stubs: &StubSet,
) -> Scenario {
    let (intent, name) = pinned_intent(family, seed, index);
    intents::apply(intent, topology, stubs, family, name)
}

/// Generates scenario `index` of the stream `seed` for one **named**
/// family, bypassing the rotation. Rotation families draw their size
/// from the stream exactly like [`generate`]; the [`LARGE_FAMILIES`]
/// have their size fixed by name and their topology fixed per
/// `(seed, family)` ([`pinned_network`]), while the intent still varies
/// per index ([`pinned_scenario`]). Same determinism contract as
/// [`generate`]. Panics on unknown names — CLIs validate against
/// [`FAMILIES`] + [`LARGE_FAMILIES`] first.
pub fn generate_family(family: &str, seed: u64, index: usize) -> Scenario {
    match pinned_network(family, seed) {
        Some((topology, stubs)) => pinned_scenario(family, seed, index, topology, &stubs),
        None => rotation_scenario(family, seed, index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for index in 0..10 {
            assert_eq!(generate(7, index), generate(7, index), "index {index}");
        }
        // Different seeds key different streams: the names differ even
        // when the drawn shape happens to coincide.
        assert_ne!(generate(1, 0).name, generate(2, 0).name);
    }

    #[test]
    fn rotation_covers_every_family() {
        let seen: std::collections::BTreeSet<String> =
            (0..5).map(|i| generate(1, i).family).collect();
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn generate_family_matches_generate_draw_order() {
        // A rotation family generated by name is identical to the
        // rotation output at an index that lands on it: the RNG draw
        // order (intent, then size) is shared.
        let s = generate(9, 5); // index 5 % 5 == 0 -> "chain"
        assert_eq!(generate_family("chain", 9, 5), s);
        // Rotation families draw their network per index: nothing pins.
        assert!(FAMILIES.iter().all(|f| pinned_network(f, 9).is_none()));
    }

    #[test]
    fn large_families_validate_and_have_fixed_size() {
        for family in LARGE_FAMILIES {
            let size = large_family_size(family).unwrap();
            let (topology, stubs) = pinned_network(family, 11).expect("large families pin");
            for index in 0..3 {
                let s = generate_family(family, 11, index);
                assert_eq!(s, generate_family(family, 11, index), "{family}");
                assert_eq!(
                    s,
                    pinned_scenario(family, 11, index, topology.clone(), &stubs),
                    "{family}: network + intent must compose to generate_family"
                );
                assert!(
                    s.topology.validate().is_empty(),
                    "{}: {:?}",
                    s.name,
                    s.topology.validate()
                );
                let internal = s
                    .topology
                    .routers
                    .iter()
                    .filter(|r| r.role != topo_model::RouterRole::ExternalStub)
                    .count();
                assert_eq!(internal, size, "{family}");
                // Only stubs originate prefixes: the simulated route
                // universe is bounded by the stub set, not the links.
                for r in &s.topology.routers {
                    if r.role != topo_model::RouterRole::ExternalStub {
                        assert!(r.networks.is_empty(), "{}: {}", s.name, r.name);
                    }
                }
                // The policy-relevant neighborhood stays bounded as the
                // network grows: stubs, policies, and expectations are
                // O(1) in the router count.
                let stubs = s.topology.routers.len() - internal;
                assert!(stubs <= 6, "{}: {stubs} stubs", s.name);
                assert!(s.policies.len() <= 12, "{}: {}", s.name, s.policies.len());
                assert!(!s.expectations.is_empty(), "{}", s.name);
                assert!(s.expectations.len() <= 24, "{}", s.name);
                for (r, _) in &s.policies {
                    assert!(s.topology.router(r).is_some(), "{}: {r}", s.name);
                }
            }
        }
    }

    #[test]
    fn large_family_topology_is_pinned_per_seed() {
        // The whole point of the large families: every index at one seed
        // shares one network, so cross-session verdict reuse is sound.
        for family in ["as-graph-64", "fat-tree-36"] {
            let a = generate_family(family, 5, 0);
            let b = generate_family(family, 5, 9);
            assert_eq!(a.topology, b.topology, "{family}");
        }
        // Different seeds still draw different AS graphs.
        assert_ne!(
            generate_family("as-graph-64", 5, 0).topology,
            generate_family("as-graph-64", 6, 0).topology
        );
    }

    #[test]
    fn large_families_support_every_intent() {
        // Scan a window of indices per family so every intent (drawn
        // from the stream) is exercised — prefer-customer in particular
        // requires a provider adjacent to the customer's entry router.
        for family in LARGE_FAMILIES {
            let mut intents = std::collections::BTreeSet::new();
            for index in 0..16 {
                intents.insert(generate_family(family, 3, index).intent);
            }
            assert_eq!(intents.len(), 4, "{family}: {intents:?}");
        }
    }

    #[test]
    fn generated_topologies_validate_and_have_policies() {
        for index in 0..20 {
            let s = generate(42, index);
            assert!(
                s.topology.validate().is_empty(),
                "{}: {:?}",
                s.name,
                s.topology.validate()
            );
            assert!(!s.policies.is_empty(), "{}", s.name);
            assert!(!s.expectations.is_empty(), "{}", s.name);
            // Policies name real internal routers; expectations name real
            // devices.
            for (r, _) in &s.policies {
                assert!(s.topology.router(r).is_some(), "{}: {r}", s.name);
            }
            for e in &s.expectations {
                let at = match e {
                    topo_model::Expectation::Reachable { at, .. }
                    | topo_model::Expectation::Unreachable { at, .. }
                    | topo_model::Expectation::PreferVia { at, .. } => at,
                };
                assert!(s.topology.router(at).is_some(), "{}: {at}", s.name);
            }
        }
    }
}
