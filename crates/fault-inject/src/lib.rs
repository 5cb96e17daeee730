//! # fault-inject — the seeded fault corpus for repair sessions
//!
//! The VPP loop so far starts from an LLM *draft*; the repair workload
//! starts from a known-good **running** config that an operator (or a
//! bad change) has broken. This crate is the deterministic mutation
//! engine that produces those broken snapshots: it takes the rendered
//! Cisco configs of any `scenario-gen` scenario, parses them to the
//! `cisco-cfg` AST, applies one typed fault drawn from the paper's
//! observed error classes plus classic operator mistakes, and re-prints
//! canonically — so every mutation survives the print/parse cycle and
//! its **ground-truth metadata** (device, line span, class) stays
//! pinned to stable line numbers.
//!
//! ## Fault classes
//!
//! | class | mutation | first verifier that can see it |
//! |---|---|---|
//! | `wrong-neighbor` | a `neighbor` address rewritten | topology verifier |
//! | `missing-neighbor` | a neighbor's statements dropped | topology verifier |
//! | `community-wiped` | a `set community` clause removed | local carry check |
//! | `community-mistagged` | the tagged community value changed | local carry check |
//! | `permit-deny-flipped` | a route-map stanza action inverted | local check or intent diff |
//! | `prefix-bound-off-by-one` | a `network` statement's mask length ±1 | topology verifier |
//! | `clause-dropped` | a route-map stanza deleted | local deny check |
//! | `clause-reordered` | the final stanza rotated to the front | local deny check |
//! | `local-pref-inverted` | a `set local-preference` value inverted | local pref check |
//!
//! ## Determinism contract
//!
//! [`inject(configs, seed)`](inject) and [`corpus(configs, seed)`](corpus)
//! are pure functions of their inputs: the same snapshot and seed always
//! select the same router, class, and mutation site (splitmix64 stream,
//! `BTreeMap` iteration order, no ambient randomness). This is what makes
//! `BENCH_repair.json` reproducible and fault classes *enumerable* rather
//! than ad hoc. Both are a [`FaultSites::scan`] of the snapshot followed
//! by a draw; a caller that breaks one snapshot under many seeds keeps
//! the scan and pays only for the draw, and [`FaultSites::draw`] returns
//! just the broken router's text, so that caller copies no snapshot.

use cisco_cfg::{CiscoConfig, SetClause};
use llm_sim::rng::SimRng;
use net_model::{Community, Prefix};
use std::collections::BTreeMap;

/// The typed fault classes the corpus can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultClass {
    /// A BGP neighbor statement rewritten to the wrong address.
    WrongNeighbor,
    /// A BGP neighbor's statements removed entirely.
    MissingNeighbor,
    /// A `set community` clause removed from a route-map stanza.
    CommunityWiped,
    /// The community value in a `set community` clause changed.
    CommunityMistagged,
    /// A route-map stanza's permit/deny action flipped.
    PermitDenyFlipped,
    /// A `network` statement's prefix length off by one.
    PrefixBoundOffByOne,
    /// A route-map stanza deleted from a multi-stanza map.
    ClauseDropped,
    /// A multi-stanza route-map's final stanza rotated to the front.
    ClauseReordered,
    /// A `set local-preference` value inverted across the default.
    LocalPrefInverted,
}

impl FaultClass {
    /// Every class, in injection-rotation order.
    pub const ALL: [FaultClass; 9] = [
        FaultClass::WrongNeighbor,
        FaultClass::MissingNeighbor,
        FaultClass::CommunityWiped,
        FaultClass::CommunityMistagged,
        FaultClass::PermitDenyFlipped,
        FaultClass::PrefixBoundOffByOne,
        FaultClass::ClauseDropped,
        FaultClass::ClauseReordered,
        FaultClass::LocalPrefInverted,
    ];

    /// Stable kebab-case name used in `BENCH_repair.json` keys.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::WrongNeighbor => "wrong-neighbor",
            FaultClass::MissingNeighbor => "missing-neighbor",
            FaultClass::CommunityWiped => "community-wiped",
            FaultClass::CommunityMistagged => "community-mistagged",
            FaultClass::PermitDenyFlipped => "permit-deny-flipped",
            FaultClass::PrefixBoundOffByOne => "prefix-bound-off-by-one",
            FaultClass::ClauseDropped => "clause-dropped",
            FaultClass::ClauseReordered => "clause-reordered",
            FaultClass::LocalPrefInverted => "local-pref-inverted",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Ground-truth metadata for one injected fault: enough to score
/// localization without re-parsing any config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// The mutated router.
    pub device: String,
    /// The fault class.
    pub class: FaultClass,
    /// First changed line in the *mutated* text (1-based, inclusive).
    pub line_start: usize,
    /// Last changed line in the mutated text (1-based, inclusive). For a
    /// pure deletion this is the line now occupying the deletion point.
    pub line_end: usize,
    /// Human-readable description of the exact mutation.
    pub detail: String,
}

/// One broken snapshot: the full config set with exactly one router
/// mutated, plus the ground truth.
#[derive(Debug, Clone)]
pub struct Injection {
    /// All configs, keyed by router name; only `fault.device` differs
    /// from the clean snapshot.
    pub configs: BTreeMap<String, String>,
    /// What was broken, where.
    pub fault: GroundTruth,
}

/// The classes that can be injected into this config (parsed shape
/// permitting: a local-pref inversion needs a `set local-preference`,
/// a clause reorder needs a multi-stanza map, and so on).
pub fn applicable_classes(text: &str) -> Vec<FaultClass> {
    let (ast, warnings) = cisco_cfg::parse(text);
    if !warnings.is_empty() {
        return Vec::new();
    }
    FaultClass::ALL
        .into_iter()
        .filter(|c| class_applies(&ast, *c))
        .collect()
}

fn class_applies(ast: &CiscoConfig, class: FaultClass) -> bool {
    let bgp = ast.bgp.as_ref();
    let stanzas = || ast.route_maps.iter().flat_map(|m| &m.stanzas);
    match class {
        FaultClass::WrongNeighbor | FaultClass::MissingNeighbor => {
            bgp.map(|b| !b.neighbors.is_empty()).unwrap_or(false)
        }
        FaultClass::CommunityWiped | FaultClass::CommunityMistagged => stanzas().any(|s| {
            s.sets
                .iter()
                .any(|c| matches!(c, SetClause::Community { .. }))
        }),
        FaultClass::PermitDenyFlipped => stanzas().next().is_some(),
        FaultClass::PrefixBoundOffByOne => bgp.map(|b| !b.networks.is_empty()).unwrap_or(false),
        FaultClass::ClauseDropped | FaultClass::ClauseReordered => {
            ast.route_maps.iter().any(|m| m.stanzas.len() >= 2)
        }
        FaultClass::LocalPrefInverted => stanzas().any(|s| {
            s.sets
                .iter()
                .any(|c| matches!(c, SetClause::LocalPreference(_)))
        }),
    }
}

/// Mutates one clean config with one fault of `class`. Returns the
/// mutated canonical text and its ground-truth span/detail, or `None`
/// when the class does not apply to this config.
pub fn mutate_config(
    text: &str,
    class: FaultClass,
    rng: &mut SimRng,
) -> Option<(String, usize, usize, String)> {
    let (ast, warnings) = cisco_cfg::parse(text);
    if !warnings.is_empty() {
        return None;
    }
    // Canonicalize first so the changed-line diff below is exact.
    let base = cisco_cfg::print(&ast);
    let mut mutated_ast = ast.clone();
    let detail = apply_fault(&mut mutated_ast, class, rng)?;
    let mutated = cisco_cfg::print(&mutated_ast);
    if mutated == base {
        return None;
    }
    let (start, end) = changed_span(&base, &mutated);
    Some((mutated, start, end, detail))
}

fn apply_fault(ast: &mut CiscoConfig, class: FaultClass, rng: &mut SimRng) -> Option<String> {
    match class {
        FaultClass::WrongNeighbor => {
            let bgp = ast.bgp.as_mut()?;
            let i = rng.index(bgp.neighbors.len().max(1));
            let old = bgp.neighbors.get(i)?.addr;
            let mut octets = old.octets();
            // Walk the host octet forward until the address is fresh
            // (collisions would silently merge two neighbors).
            loop {
                octets[3] = octets[3].wrapping_add(1).max(1);
                let candidate = std::net::Ipv4Addr::from(octets);
                if bgp.neighbors.iter().all(|n| n.addr != candidate) {
                    bgp.neighbors[i].addr = candidate;
                    return Some(format!("neighbor {old} rewritten to {candidate}"));
                }
            }
        }
        FaultClass::MissingNeighbor => {
            let bgp = ast.bgp.as_mut()?;
            if bgp.neighbors.is_empty() {
                return None;
            }
            let i = rng.index(bgp.neighbors.len());
            let gone = bgp.neighbors.remove(i);
            Some(format!("neighbor {} statements removed", gone.addr))
        }
        FaultClass::CommunityWiped => {
            let (map, stanza, set) =
                pick_set_clause(ast, rng, |c| matches!(c, SetClause::Community { .. }))?;
            let name = ast.route_maps[map].name.clone();
            let seq = ast.route_maps[map].stanzas[stanza].seq;
            ast.route_maps[map].stanzas[stanza].sets.remove(set);
            Some(format!(
                "set community removed from route-map {name} seq {seq}"
            ))
        }
        FaultClass::CommunityMistagged => {
            let (map, stanza, set) =
                pick_set_clause(ast, rng, |c| matches!(c, SetClause::Community { .. }))?;
            let name = ast.route_maps[map].name.clone();
            if let SetClause::Community { communities, .. } =
                &mut ast.route_maps[map].stanzas[stanza].sets[set]
            {
                let old = *communities.first()?;
                let new = Community::new(old.high, old.low.wrapping_add(1));
                communities[0] = new;
                return Some(format!("route-map {name} tags {new} instead of {old}"));
            }
            None
        }
        FaultClass::PermitDenyFlipped => {
            let candidates: Vec<(usize, usize)> = ast
                .route_maps
                .iter()
                .enumerate()
                .flat_map(|(m, map)| (0..map.stanzas.len()).map(move |s| (m, s)))
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let (m, s) = candidates[rng.index(candidates.len())];
            let name = ast.route_maps[m].name.clone();
            let stanza = &mut ast.route_maps[m].stanzas[s];
            stanza.permit = !stanza.permit;
            Some(format!(
                "route-map {name} seq {} flipped to {}",
                stanza.seq,
                if stanza.permit { "permit" } else { "deny" }
            ))
        }
        FaultClass::PrefixBoundOffByOne => {
            let bgp = ast.bgp.as_mut()?;
            if bgp.networks.is_empty() {
                return None;
            }
            let i = rng.index(bgp.networks.len());
            let old = bgp.networks[i].prefix;
            let len = if old.len() < 30 {
                old.len() + 1
            } else {
                old.len() - 1
            };
            let new = Prefix::new(old.network(), len).ok()?;
            bgp.networks[i].prefix = new;
            Some(format!("network {old} announced as {new}"))
        }
        FaultClass::ClauseDropped => {
            let candidates: Vec<usize> = ast
                .route_maps
                .iter()
                .enumerate()
                .filter(|(_, m)| m.stanzas.len() >= 2)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let m = candidates[rng.index(candidates.len())];
            // Drop a non-final stanza (the final one is usually the
            // permit-all catch-all; dropping a deny is the classic slip).
            let s = rng.index(ast.route_maps[m].stanzas.len() - 1);
            let name = ast.route_maps[m].name.clone();
            let gone = ast.route_maps[m].stanzas.remove(s);
            Some(format!("route-map {name} seq {} dropped", gone.seq))
        }
        FaultClass::ClauseReordered => {
            let candidates: Vec<usize> = ast
                .route_maps
                .iter()
                .enumerate()
                .filter(|(_, m)| m.stanzas.len() >= 2)
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let m = candidates[rng.index(candidates.len())];
            let map = &mut ast.route_maps[m];
            // Rotate the final (catch-all) stanza to the front: with
            // first-match-wins every later stanza goes dead. Renumber so
            // the printed order is the evaluated order.
            let last = map.stanzas.pop().expect("len >= 2");
            map.stanzas.insert(0, last);
            let seqs: Vec<u32> = (1..=map.stanzas.len() as u32).map(|i| i * 10).collect();
            for (stanza, seq) in map.stanzas.iter_mut().zip(seqs) {
                stanza.seq = seq;
            }
            Some(format!("route-map {} catch-all moved first", map.name))
        }
        FaultClass::LocalPrefInverted => {
            let (map, stanza, set) =
                pick_set_clause(ast, rng, |c| matches!(c, SetClause::LocalPreference(_)))?;
            let name = ast.route_maps[map].name.clone();
            if let SetClause::LocalPreference(v) =
                &mut ast.route_maps[map].stanzas[stanza].sets[set]
            {
                let old = *v;
                *v = if old >= 100 { 50 } else { 200 };
                return Some(format!(
                    "route-map {name} local-preference {old} inverted to {}",
                    *v
                ));
            }
            None
        }
    }
}

/// Picks a `(map, stanza, set-clause)` index triple matching `pred`,
/// uniformly over all matches.
fn pick_set_clause(
    ast: &CiscoConfig,
    rng: &mut SimRng,
    pred: impl Fn(&SetClause) -> bool,
) -> Option<(usize, usize, usize)> {
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (m, map) in ast.route_maps.iter().enumerate() {
        for (s, stanza) in map.stanzas.iter().enumerate() {
            for (c, clause) in stanza.sets.iter().enumerate() {
                if pred(clause) {
                    candidates.push((m, s, c));
                }
            }
        }
    }
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.index(candidates.len())])
    }
}

/// The changed-line span between two texts: 1-based inclusive bounds in
/// the *mutated* text, computed by stripping the common line prefix and
/// suffix. A pure deletion has no changed line to point at, so its span
/// covers the deletion boundary: the surviving lines on either side of
/// the cut.
fn changed_span(base: &str, mutated: &str) -> (usize, usize) {
    let a: Vec<&str> = base.lines().collect();
    let b: Vec<&str> = mutated.lines().collect();
    let mut prefix = 0usize;
    while prefix < a.len() && prefix < b.len() && a[prefix] == b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0usize;
    while suffix < a.len() - prefix
        && suffix < b.len() - prefix
        && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    let last = b.len().max(1);
    if b.len() - prefix - suffix == 0 {
        // Pure deletion: bracket the cut point.
        let start = prefix.max(1).min(last);
        let end = (prefix + 1).clamp(start, last);
        return (start, end);
    }
    let start = (prefix + 1).min(last);
    let end = (b.len() - suffix).clamp(start, last);
    (start, end)
}

/// Derives the injection RNG stream for a snapshot seed.
fn stream(seed: u64) -> SimRng {
    SimRng::seed_from_u64(
        seed.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            .wrapping_add(0x5851_F42D),
    )
}

/// The per-router fault classes of one clean snapshot: the parse-heavy
/// half of [`inject`] and [`corpus`], split out so a caller that breaks
/// the same snapshot under many seeds parses every router once instead
/// of once per seed. The sites belong to the snapshot they were scanned
/// from; [`FaultSites::inject`] and [`FaultSites::draw`] must be handed
/// that same snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSites {
    /// Every router with the classes applicable to it, in name order
    /// (the snapshot's `BTreeMap` order, which every draw indexes into).
    routers: Vec<(String, Vec<FaultClass>)>,
}

impl FaultSites {
    /// Parses every router of `configs` for its applicable classes.
    pub fn scan(configs: &BTreeMap<String, String>) -> Self {
        FaultSites {
            routers: configs
                .iter()
                .map(|(name, text)| (name.clone(), applicable_classes(text)))
                .collect(),
        }
    }

    /// The sites of a snapshot whose routers' [`applicable_classes`] the
    /// caller already knows, in any order: equal to a [`FaultSites::scan`]
    /// of that snapshot. Routers are kept in name order, so every seed
    /// draws the same fault it would after a scan.
    pub fn from_classes(routers: impl IntoIterator<Item = (String, Vec<FaultClass>)>) -> Self {
        let mut routers: Vec<(String, Vec<FaultClass>)> = routers.into_iter().collect();
        routers.sort_by(|a, b| a.0.cmp(&b.0));
        FaultSites { routers }
    }

    /// The routers `class` applies to, in snapshot order.
    fn routers_for(&self, class: FaultClass) -> Vec<&str> {
        self.routers
            .iter()
            .filter(|(_, cs)| cs.contains(&class))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Draws one fault in the scanned snapshot, whose texts `text_of`
    /// looks up by router name: picks a class uniformly over the classes
    /// applicable *somewhere* in it, then a router uniformly over the
    /// routers that class applies to. Returns the broken router's text
    /// and the ground truth — every other router is unchanged, so no
    /// snapshot is copied. Deterministic per `(snapshot, seed)`. Returns
    /// `None` only for snapshots where no class applies at all (no BGP
    /// anywhere).
    pub fn draw<'a>(
        &self,
        text_of: impl Fn(&str) -> Option<&'a str>,
        seed: u64,
    ) -> Option<(String, GroundTruth)> {
        let mut rng = stream(seed);
        let mut classes: Vec<FaultClass> = FaultClass::ALL
            .into_iter()
            .filter(|c| self.routers.iter().any(|(_, cs)| cs.contains(c)))
            .collect();
        // A mutation can still come back as a no-op for a particular
        // router (e.g. the drawn site renders identically); rotate
        // through the remaining classes rather than give up.
        while !classes.is_empty() {
            let class = classes.remove(rng.index(classes.len()));
            let routers = self.routers_for(class);
            let router = routers[rng.index(routers.len())];
            let Some(clean) = text_of(router) else {
                continue;
            };
            if let Some(broken) = break_router(clean, router, class, &mut rng) {
                return Some(broken);
            }
        }
        None
    }

    /// [`FaultSites::draw`] on `configs`, returned as the whole broken
    /// snapshot. Deterministic per `(configs, seed)`.
    pub fn inject(&self, configs: &BTreeMap<String, String>, seed: u64) -> Option<Injection> {
        let broken = self.draw(|name| configs.get(name).map(String::as_str), seed)?;
        Some(with_broken(configs, broken))
    }
}

/// Injects one fault into a clean snapshot ([`FaultSites::inject`] over
/// a fresh scan). Deterministic per `(configs, seed)`.
pub fn inject(configs: &BTreeMap<String, String>, seed: u64) -> Option<Injection> {
    FaultSites::scan(configs).inject(configs, seed)
}

/// The enumerable corpus for one snapshot: one injection per applicable
/// fault class (router drawn per class). Deterministic per
/// `(configs, seed)`.
pub fn corpus(configs: &BTreeMap<String, String>, seed: u64) -> Vec<Injection> {
    let sites = FaultSites::scan(configs);
    let mut rng = stream(seed);
    let mut out = Vec::new();
    for class in FaultClass::ALL {
        let routers = sites.routers_for(class);
        if routers.is_empty() {
            continue;
        }
        let router = routers[rng.index(routers.len())];
        let Some(clean) = configs.get(router) else {
            continue;
        };
        if let Some(broken) = break_router(clean, router, class, &mut rng) {
            out.push(with_broken(configs, broken));
        }
    }
    out
}

/// Mutates `router`'s clean text with one fault of `class`: the broken
/// text plus its ground truth.
fn break_router(
    clean: &str,
    router: &str,
    class: FaultClass,
    rng: &mut SimRng,
) -> Option<(String, GroundTruth)> {
    let (mutated, line_start, line_end, detail) = mutate_config(clean, class, rng)?;
    Some((
        mutated,
        GroundTruth {
            device: router.to_string(),
            class,
            line_start,
            line_end,
            detail,
        },
    ))
}

/// The clean snapshot with one router replaced by its broken text.
fn with_broken(
    configs: &BTreeMap<String, String>,
    (text, fault): (String, GroundTruth),
) -> Injection {
    let mut configs = configs.clone();
    configs.insert(fault.device.clone(), text);
    Injection { configs, fault }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "\
hostname R1
!
interface Ethernet0/1
 ip address 2.0.0.1 255.255.255.0
!
interface Ethernet0/2
 ip address 3.0.0.1 255.255.255.0
!
router bgp 1
 bgp router-id 1.0.0.1
 network 2.0.0.0 mask 255.255.255.0
 network 3.0.0.0 mask 255.255.255.0
 neighbor 2.0.0.2 remote-as 2
 neighbor 2.0.0.2 send-community
 neighbor 2.0.0.2 route-map ADD_COMM_R2 in
 neighbor 2.0.0.2 route-map FILTER_COMM_OUT_R2 out
 neighbor 3.0.0.2 remote-as 3
 neighbor 3.0.0.2 send-community
!
ip community-list standard cl-101-1 permit 101:1
!
route-map ADD_COMM_R2 permit 10
 set community 100:1 additive
!
route-map FILTER_COMM_OUT_R2 deny 10
 match community cl-101-1
route-map FILTER_COMM_OUT_R2 permit 20
!
route-map PREF permit 10
 set local-preference 200
!
";

    /// A second router with BGP but no route-maps.
    const PEER: &str = "\
hostname R2
!
router bgp 2
 bgp router-id 2.0.0.2
 network 9.0.0.0 mask 255.255.255.0
 neighbor 2.0.0.1 remote-as 1
!
";

    fn canonical(text: &str) -> String {
        let (ast, warnings) = cisco_cfg::parse(text);
        assert!(warnings.is_empty(), "{warnings:?}");
        cisco_cfg::print(&ast)
    }

    fn snapshot() -> BTreeMap<String, String> {
        BTreeMap::from([("R1".to_string(), canonical(CLEAN))])
    }

    #[test]
    fn every_class_applies_to_the_rich_config() {
        let snap = snapshot();
        assert_eq!(
            applicable_classes(&snap["R1"]),
            FaultClass::ALL.to_vec(),
            "the test config exercises every class"
        );
    }

    #[test]
    fn corpus_covers_all_classes_with_valid_ground_truth() {
        let snap = snapshot();
        let corpus = corpus(&snap, 7);
        assert_eq!(corpus.len(), FaultClass::ALL.len());
        for inj in &corpus {
            let text = &inj.configs["R1"];
            assert_ne!(
                text, &snap["R1"],
                "{:?} must change the text",
                inj.fault.class
            );
            let n = text.lines().count();
            assert!(inj.fault.line_start >= 1, "{:?}", inj.fault);
            assert!(
                inj.fault.line_start <= inj.fault.line_end,
                "{:?}",
                inj.fault
            );
            assert!(inj.fault.line_end <= n, "{:?} vs {n} lines", inj.fault);
            // The span really covers a changed line.
            let clean_lines: Vec<&str> = snap["R1"].lines().collect();
            let mutated_lines: Vec<&str> = text.lines().collect();
            let changed = (inj.fault.line_start..=inj.fault.line_end)
                .any(|i| clean_lines.get(i - 1) != mutated_lines.get(i - 1));
            assert!(changed, "{:?} span must cover a difference", inj.fault);
        }
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let snap = snapshot();
        let a = inject(&snap, 42).unwrap();
        let b = inject(&snap, 42).unwrap();
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.configs, b.configs);
        // Different seeds explore different faults eventually.
        let classes: std::collections::BTreeSet<FaultClass> = (0..32)
            .filter_map(|s| inject(&snap, s))
            .map(|i| i.fault.class)
            .collect();
        assert!(
            classes.len() >= 5,
            "seeds must spread over classes: {classes:?}"
        );
    }

    #[test]
    fn one_scan_serves_every_seed_with_pinned_draws() {
        // The draws the snapshot gave before the scan was split from the
        // draw: which class, router and site each seed picks must not move.
        let mut snap = snapshot();
        snap.insert("R2".to_string(), canonical(PEER));
        let sites = FaultSites::scan(&snap);
        use FaultClass::*;
        let draws = [
            (0, "R1", MissingNeighbor, 12, 13),
            (1, "R1", PermitDenyFlipped, 25, 25),
            (2, "R2", WrongNeighbor, 6, 6),
            (3, "R2", PrefixBoundOffByOne, 5, 5),
            (4, "R1", ClauseDropped, 24, 25),
            (5, "R2", MissingNeighbor, 5, 6),
            (6, "R2", PrefixBoundOffByOne, 5, 5),
            (7, "R1", PermitDenyFlipped, 22, 22),
            (8, "R1", WrongNeighbor, 17, 18),
            (9, "R2", MissingNeighbor, 5, 6),
            (10, "R1", CommunityWiped, 22, 23),
            (11, "R1", MissingNeighbor, 12, 13),
        ];
        // Sites assembled from per-router classes in any order are the
        // scan, and a draw is the injection without the snapshot copy.
        let assembled = FaultSites::from_classes(
            snap.iter()
                .rev()
                .map(|(name, text)| (name.clone(), applicable_classes(text))),
        );
        assert_eq!(assembled, sites);
        for (seed, device, class, start, end) in draws {
            let injection = sites.inject(&snap, seed).expect("applicable");
            let f = &injection.fault;
            assert_eq!(
                (f.device.as_str(), f.class, f.line_start, f.line_end),
                (device, class, start, end),
                "seed {seed}"
            );
            let (text, fault) = assembled
                .draw(|name| snap.get(name).map(String::as_str), seed)
                .expect("applicable");
            assert_eq!(&fault, f, "seed {seed}");
            assert_eq!(text, injection.configs[device], "seed {seed}");
        }
        let corpus: Vec<(String, FaultClass)> = corpus(&snap, 3)
            .into_iter()
            .map(|i| (i.fault.device, i.fault.class))
            .collect();
        let mut expected = vec![
            ("R2".to_string(), WrongNeighbor),
            ("R2".to_string(), MissingNeighbor),
        ];
        expected.extend(FaultClass::ALL[2..].iter().map(|&c| ("R1".to_string(), c)));
        assert_eq!(corpus, expected);
    }

    #[test]
    fn mutations_survive_the_print_parse_cycle() {
        let snap = snapshot();
        for inj in corpus(&snap, 3) {
            let text = &inj.configs["R1"];
            let (ast, warnings) = cisco_cfg::parse(text);
            assert!(warnings.is_empty(), "{:?}: {warnings:?}", inj.fault.class);
            assert_eq!(
                &cisco_cfg::print(&ast),
                text,
                "{:?} must already be canonical",
                inj.fault.class
            );
        }
    }

    #[test]
    fn changed_span_handles_edits_and_deletions() {
        assert_eq!(changed_span("a\nb\nc\n", "a\nX\nc\n"), (2, 2));
        // Deletions bracket the cut point.
        assert_eq!(changed_span("a\nb\nc\n", "a\nc\n"), (1, 2));
        assert_eq!(changed_span("a\nb\nc\n", "b\nc\n"), (1, 1));
        assert_eq!(changed_span("a\nb\n", "a\nb\nX\n"), (3, 3));
        assert_eq!(changed_span("a\nb\nc\n", "a\nX\nY\nc\n"), (2, 3));
    }

    #[test]
    fn local_pref_inversion_crosses_the_default() {
        let snap = snapshot();
        let mut rng = SimRng::seed_from_u64(1);
        let (text, _, _, detail) =
            mutate_config(&snap["R1"], FaultClass::LocalPrefInverted, &mut rng).unwrap();
        assert!(text.contains("set local-preference 50"), "{detail}: {text}");
        assert!(!text.contains("set local-preference 200"));
    }
}
