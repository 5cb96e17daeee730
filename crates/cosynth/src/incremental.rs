//! Incremental re-verification: session cost that scales with the
//! *edit*, not the network.
//!
//! The repair loop historically re-verified the whole snapshot after
//! every model edit — every router re-parsed, re-checked against the
//! topology, re-checked symbolically, and (when all local channels were
//! silent) re-diffed against its intent with `campion-lite`, plus a
//! whole-network simulation per round. At 5–12 routers that is noise; at
//! the internet-scale families (36–512 routers) the campion BDD
//! behaviour diffs and the sweep dominate the session, even though a
//! repair round edits exactly one device.
//!
//! This module lifts the `bf-lite::sim` dirty-set idea to the symbolic
//! layer:
//!
//! * [`DependencyTracker`] maps a rectification edit to the set of
//!   devices whose import/export reachability can change: the edited
//!   device itself plus its internal BGP neighbors (an edit changes what
//!   the device announces, so the neighbors' imports move). This is
//!   deliberately **conservative** — the per-device verdicts below
//!   depend only on the device's own config, so `{edited}` alone would
//!   already be sound; the BGP neighborhood is the honest bound on
//!   reachability influence and is what the soundness property test
//!   pins.
//! * `IncrementalVerifier` memoizes the two per-device verdicts the
//!   sweep computes — the *local* verdict (parse warnings → topology
//!   verifier → symbolic local checks) and the *campion* verdict (the
//!   structural/behavioral diff against the router's intent) — and
//!   invalidates exactly the dirty set after each edit. Verdicts are
//!   pure functions of `(scenario, assignment, config text)` (see
//!   `local_verdict`), so a memo hit is byte-identical to a recompute;
//!   each entry stores the fingerprint of the text it was computed from
//!   and debug-asserts it on every hit.
//!
//! The sweep preserves the full sweep's semantics exactly: devices are
//! visited in assignment order, the first local finding wins, and the
//! campion phase runs only when every device's local channels are
//! silent. Lazily-memoized early exit means the first rounds do no more
//! work than the full sweep did — the win is that rounds 2..n recompute
//! only the dirty neighborhood instead of everything before the suspect.
//!
//! ## Cross-session sharing
//!
//! The fleet pins one topology per `(seed, family)` and varies only the
//! intent and fault per session, so almost everything a session derives
//! from the scenario is derivable once per family:
//!
//! * `SessionStatics` — the assignments, the per-device memo-key
//!   bases, the snapshot name layout, the dependency tracker, and
//!   (built on first request) the [`ReferenceSnapshot`] — is a pure
//!   function of `(topology, policies)` and is shared through an `Arc`
//!   in the worker memo; a later session pays at most one streamed hash
//!   of the topology (none on a pinned scenario's, below) instead of
//!   re-deriving ~n prompts and keys, and a later
//!   repair job ([`VerifierContext::prepare_repair`]) draws its fault
//!   from the stored known-good texts instead of re-rendering and
//!   re-parsing the network. The reference holds no `Arc` back to its
//!   bundle, so an evicted bundle is freed with its snapshot.
//! * `VerdictMemo` keeps per-device local/campion verdicts, whole
//!   sweeps and whole `GlobalCheckReport`s keyed by content
//!   fingerprints, so a warm worker answers the sweeps and the final
//!   simulation of session *k+1* from session *k*'s work. Whole-snapshot
//!   keys fold the per-text fingerprints a [`ConfigSnapshot`] carries.
//!   Every entry stores a confirmation (text length plus an independent
//!   second fingerprint) that each hit compares. The memo also keeps
//!   each rendered known-good text by its exact prompt and each drawn
//!   pinned network by `(family, seed)`.
//! * A pinned network's intents are applied once per worker: the memo
//!   keeps one scenario body per `(family, seed, intent)` with its
//!   topology's fingerprint ([`VerifierContext::pinned_scenario`]). A
//!   job gets a clone of the body under its own name, sharing the
//!   body's `Arc<Topology>` (the network's own allocation under every
//!   intent but prefer-customer, which extends a copy), so a warm job
//!   copies, hashes and frees no router. A statics lookup finds the
//!   body that holds the job's topology by `Arc::ptr_eq` and reads its
//!   fingerprint: sound, because the body keeps the allocation alive
//!   and an `Arc` held twice cannot be mutated in place.
//!
//! ## Synthesis
//!
//! A synthesis session re-checks a router's draft every rectification
//! round, and the model often returns the draft unchanged. Every draft
//! goes through the same memoized local verdict as repair's sweep, under
//! the same per-device key, so a draft the worker has checked before —
//! in this session or an earlier one — costs one hash; the final
//! whole-network check goes through the same report memo as repair's.
//! A synthesis session builds no statics bundle: `DraftKeys` computes
//! its routers' key bases with the code the bundle uses and keeps each
//! final draft's fingerprints for the report key, and its entries keep
//! no parsed device, since the report memo serves most final checks.
//!
//! ## What "byte-identical" excludes
//!
//! Per-seed session **content** — configs, repaired, rounds,
//! localizations, the global report, leverage, the prompt log, cost —
//! is identical across full and incremental re-verification, in both
//! use cases; the fleet A/B tests pin this. Wall-clock, trace span
//! *counts* (skipped parses, checks and sims), and space-cache/pool
//! counters necessarily differ between modes and are excluded from the
//! identity.

use crate::composer::{self, GlobalCheckReport};
use crate::modularizer::{Modularizer, RouterAssignment};
use crate::repair::{self, Localization};
use crate::snapshot::{ConfigSnapshot, SnapshotLayout, SnapshotText, TextPrint};
use crate::verifier_ctx::VerifierContext;
use bdd::FxHasher;
use bf_lite::LocalPolicyCheck;
use config_ir::Device;
use fault_inject::{FaultClass, FaultSites, GroundTruth};
use llm_sim::synth_task::SynthesisDraft;
use net_model::{ParseWarning, RouteAdvertisement};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash as _, Hasher as _};
use std::sync::{Arc, OnceLock};
use telemetry::Stage;
use topo_model::{Scenario, StubSet, Topology, TopologyFinding};

/// Streams `Debug` renderings straight into an `FxHasher`, skipping the
/// intermediate `String` a format-then-hash pass would allocate — at
/// 512 routers those allocations are a measurable slice of a warm
/// session once everything else is memoized.
struct HashWriter<'a>(&'a mut FxHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Re-verification strategy for a session. Default: incremental on —
/// the `--no-incremental` fleet flag turns it off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyMode {
    /// Memoize per-device verdicts across rounds and re-verify only the
    /// dirty set after each edit (plus defer unobservable sims).
    pub incremental: bool,
}

impl Default for VerifyMode {
    fn default() -> Self {
        VerifyMode { incremental: true }
    }
}

impl VerifyMode {
    /// The historical schedule: full re-verification every round.
    pub fn full() -> Self {
        VerifyMode { incremental: false }
    }
}

/// Maps a rectification edit to the devices whose import/export
/// reachability can change: the edited device plus its internal BGP
/// neighbors, precomputed from the scenario topology.
#[derive(Debug, Clone)]
pub struct DependencyTracker {
    neighbors: BTreeMap<String, Vec<String>>,
}

impl DependencyTracker {
    /// Builds the tracker from the scenario's internal BGP adjacency.
    /// Reads each router's interface peer list directly — one pass over
    /// the edges — rather than `Topology::internal_neighbors_of`, whose
    /// all-pairs probing is quadratic in the router count and was the
    /// single largest fixed cost of an incremental session on the
    /// 512-router families. Same sets: an interface's `peer_router` is
    /// exactly what `internal_neighbors_of` probes for.
    pub fn new(scenario: &Scenario) -> Self {
        let internal: BTreeSet<&str> = scenario
            .topology
            .internal_routers()
            .map(|r| r.name.as_str())
            .collect();
        let neighbors = scenario
            .topology
            .internal_routers()
            .map(|r| {
                (
                    r.name.clone(),
                    r.interfaces
                        .iter()
                        .filter(|i| internal.contains(i.peer_router.as_str()))
                        .map(|i| i.peer_router.clone())
                        .collect(),
                )
            })
            .collect();
        DependencyTracker { neighbors }
    }

    /// The dirty set of an edit to `device`: the device itself plus its
    /// internal BGP neighbors. Every device outside this set keeps a
    /// byte-identical rendered config and verdict across the edit — the
    /// soundness property the `cosynth-fleet` test suite pins.
    pub fn dirty_of(&self, device: &str) -> BTreeSet<String> {
        let mut dirty = BTreeSet::from([device.to_string()]);
        if let Some(ns) = self.neighbors.get(device) {
            dirty.extend(ns.iter().cloned());
        }
        dirty
    }
}

/// A memoized verdict and the fingerprint of the config text it was
/// computed from (the text is the verdict's entire input besides the
/// immutable scenario, so the fingerprint doubles as a soundness
/// witness for the dirty-set bookkeeping).
#[derive(Clone)]
struct MemoEntry {
    textfx: u64,
    verdict: Option<Localization>,
}

/// The first finding of a router draft's local verdict, in VPP order.
/// Each use case renders its own feedback from it: synthesis a
/// rectification prompt, repair a [`Localization`].
#[derive(Debug, Clone)]
pub(crate) enum LocalFinding {
    /// The first parse warning.
    Syntax(ParseWarning),
    /// The first topology-verifier finding.
    Topology(TopologyFinding),
    /// The first local policy check the draft violates, with the route
    /// that violates it.
    Semantic {
        check: LocalPolicyCheck,
        witness: RouteAdvertisement,
    },
}

/// The VPP local verdict of one router draft: parse warnings, then the
/// topology verifier, then the router's local policy checks (symbolic
/// ones on the draft's warm space from the context's cache). Returns the
/// parsed device — named by the assignment when the draft carries no
/// hostname, as the composer names it — and the first finding, `None`
/// when every channel is silent. Records one [`Stage::Parse`] span and
/// one [`Stage::Check`] span per check run.
///
/// The verdict is pure in the router's own topology spec, its check set
/// and the text: `topo_model::verify_router` reads nothing else, no
/// channel reads the device's name, and the context only caches the
/// symbolic space, which never changes a witness. That purity is what
/// makes the per-device memo sound, within a session and across
/// sessions and use cases on one worker.
pub(crate) fn local_verdict(
    topology: &Topology,
    assignment: &RouterAssignment,
    text: &str,
    ctx: &mut VerifierContext,
) -> (Device, Option<LocalFinding>) {
    let parsed = ctx.trace.time(Stage::Parse, || {
        composer::parse_internal(&assignment.name, text)
    });
    if let Some(w) = parsed.warnings.into_iter().next() {
        return (parsed.device, Some(LocalFinding::Syntax(w)));
    }
    let device = parsed.device;
    let findings = topo_model::verify_router(topology, &assignment.name, &device);
    if let Some(f) = findings.into_iter().next() {
        return (device, Some(LocalFinding::Topology(f)));
    }
    let finding = ctx
        .first_violation(&assignment.name, &device, &assignment.checks)
        .map(|(check, witness)| LocalFinding::Semantic { check, witness });
    (device, finding)
}

/// The route map a failing local check implicates: the first element of
/// its policy chain.
pub(crate) fn check_map(check: &LocalPolicyCheck) -> String {
    match check {
        LocalPolicyCheck::PermittedRoutesCarry { chain, .. }
        | LocalPolicyCheck::RoutesWithCommunityDenied { chain, .. }
        | LocalPolicyCheck::PermittedRoutesPreserve { chain, .. }
        | LocalPolicyCheck::PermittedRoutesSetLocalPref { chain, .. } => {
            chain.first().cloned().unwrap_or_default()
        }
    }
}

/// A cross-session local verdict, kept compact (with its confirmation,
/// 32 bytes per map value): the first finding, boxed because most
/// verdicts are clean, and the parsed device where the caller keeps one.
/// Repair's sweep keeps it with clean verdicts, for the campion phase
/// and the whole-network parse hook; synthesis keeps none.
pub(crate) struct CachedLocal {
    finding: Option<Box<LocalFinding>>,
    device: Option<Box<Device>>,
}

/// The local memo-key base of every assignment, in order: the router's
/// topology spec hash and its check set. The full key appends the text's
/// fingerprint. Repair's statics bundle and each synthesis session both
/// compute their bases here, so the two use cases share entries.
fn local_key_bases(topology: &Topology, assignments: &[RouterAssignment]) -> Vec<u64> {
    let specs: HashMap<&str, &topo_model::RouterSpec> = topology
        .routers
        .iter()
        .map(|r| (r.name.as_str(), r))
        .collect();
    assignments
        .iter()
        .map(|a| {
            let spec_hash = specs.get(a.name.as_str()).map_or(0, |r| {
                let mut h = FxHasher::default();
                r.hash(&mut h);
                h.finish()
            });
            let mut h = FxHasher::default();
            h.write(&spec_hash.to_le_bytes());
            let _ = write!(HashWriter(&mut h), "{:?}", a.checks);
            h.finish()
        })
        .collect()
}

/// The fingerprint of a topology: the first half of a statics key and
/// the input of every report key.
fn topology_fp(topology: &Topology) -> u64 {
    let mut h = FxHasher::default();
    topology.routers.hash(&mut h);
    h.finish()
}

/// The input half of a whole-network report key: the topology
/// fingerprint plus the expectations, everything `check_scenario` reads
/// besides the configs. Scenarios at different indices that share
/// topology and intent collide here on purpose — that is what lets
/// their simulations share a memo entry.
fn report_base(topology_fp: u64, scenario: &Scenario) -> u64 {
    let mut h = FxHasher::default();
    h.write(&topology_fp.to_le_bytes());
    scenario.expectations.hash(&mut h);
    h.finish()
}

/// The memo keys of one synthesis session's drafts, computed per session:
/// each router's local key base and, as each router's loop ends, the
/// fingerprints of its final draft, both aligned with the assignments.
pub(crate) struct DraftKeys {
    pub(crate) local: Vec<u64>,
    finals: Vec<TextPrint>,
}

impl DraftKeys {
    pub(crate) fn new(topology: &Topology, assignments: &[RouterAssignment]) -> Self {
        DraftKeys {
            local: local_key_bases(topology, assignments),
            finals: Vec::with_capacity(assignments.len()),
        }
    }

    /// Records the next router's final draft `text`; `print` is its
    /// fingerprints when the router's loop already computed them.
    pub(crate) fn finish(&mut self, text: &str, print: Option<TextPrint>) {
        self.finals
            .push(print.unwrap_or_else(|| TextPrint::of(text)));
    }

    /// The whole-network check of the session's final drafts through the
    /// worker's report memo. `configs` holds every assignment's final
    /// draft; the snapshot reuses the fingerprints [`Self::finish`]
    /// recorded instead of hashing the texts again.
    pub(crate) fn check_global(
        &self,
        scenario: &Scenario,
        assignments: &[RouterAssignment],
        configs: &BTreeMap<String, String>,
        ctx: &mut VerifierContext,
    ) -> GlobalCheckReport {
        let layout = SnapshotLayout::new(assignments.iter().map(|a| a.name.clone()).collect());
        let texts = assignments
            .iter()
            .zip(&self.finals)
            .map(|(a, &print)| {
                configs
                    .get(&a.name)
                    .map(|t| SnapshotText::printed(t, print))
            })
            .collect();
        let snapshot = ConfigSnapshot::from_texts(Arc::new(layout), texts);
        let base = report_base(topology_fp(&scenario.topology), scenario);
        ctx.checked_report(scenario, base, &snapshot, &self.local)
    }
}

/// Renders the known-good config of every assignment: the draft a
/// fault-free model writes for the router's own prompt, keyed by router
/// name. This is the snapshot a repair job breaks and the fixed point a
/// repair session should restore.
pub fn reference_configs(assignments: &[RouterAssignment]) -> BTreeMap<String, String> {
    assignments
        .iter()
        .map(|a| (a.name.clone(), render_reference(&a.prompt)))
        .collect()
}

/// The known-good config for one router prompt — a pure function of the
/// prompt alone.
fn render_reference(prompt: &str) -> String {
    SynthesisDraft::new(prompt, BTreeSet::new()).render()
}

/// The known-good snapshot of one `(topology, policies)` pair, kept in
/// the worker memo next to the assignments it was rendered from: the
/// clean config texts, fingerprinted, plus their [`FaultSites`], so
/// every repair job on that network draws its fault without rendering
/// or parsing a router. Get it through
/// [`VerifierContext::reference_snapshot`].
///
/// It holds no reference to the statics bundle that owns it (only the
/// shared name layout), so evicting the bundle frees both.
#[derive(Debug)]
pub struct ReferenceSnapshot {
    snapshot: ConfigSnapshot,
    /// The fault classes applicable to each router of the snapshot.
    pub sites: FaultSites,
}

impl ReferenceSnapshot {
    /// Every internal router's known-good config, keyed by name.
    pub fn configs(&self) -> BTreeMap<String, String> {
        self.snapshot.to_map()
    }

    /// Renders and scans the reference of `statics`' network. A text is
    /// a pure function of its prompt, so a router whose exact prompt the
    /// worker has rendered before reuses that text and its fault classes
    /// from the memo instead of rendering and parsing it again.
    fn build(statics: &SessionStatics, memo: &mut VerdictMemo) -> Self {
        let n = statics.assignments.len();
        let mut texts = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        for a in statics.assignments.iter() {
            let rendered = match memo.rendered.get(&a.prompt) {
                Some(r) => {
                    memo.texts_reused += 1;
                    r.clone()
                }
                None => {
                    memo.texts_rendered += 1;
                    let text = render_reference(&a.prompt);
                    let r = Rendered {
                        classes: fault_inject::applicable_classes(&text),
                        text: SnapshotText::new(text),
                    };
                    memo.insert_rendered(a.prompt.clone(), r.clone());
                    r
                }
            };
            classes.push((a.name.clone(), rendered.classes));
            texts.push(Some(rendered.text));
        }
        ReferenceSnapshot {
            snapshot: ConfigSnapshot::from_texts(Arc::clone(&statics.layout), texts),
            sites: FaultSites::from_classes(classes),
        }
    }
}

/// One rendered known-good text and the fault classes that apply to it.
#[derive(Clone)]
struct Rendered {
    text: SnapshotText,
    classes: Vec<FaultClass>,
}

/// Everything a repair session derives from the scenario that is a pure
/// function of `(topology, policies)`: the modular assignments, the
/// per-device memo-key bases, the name layout of its snapshots, the
/// dependency tracker, and the reference snapshot. Built once per
/// `(topology, policies)` per worker and shared via `Arc` — a session on
/// a pinned family pays one streamed topology hash instead of
/// re-deriving ~n prompts, keys, and adjacency lists.
pub(crate) struct SessionStatics {
    assignments: Arc<Vec<RouterAssignment>>,
    /// Local memo-key bases ([`local_key_bases`]), aligned with
    /// `assignments`.
    local_bases: Vec<u64>,
    /// Campion memo-key bases (the router's name and prompt), aligned
    /// with `assignments`.
    campion_bases: Vec<u64>,
    /// The assignment order every snapshot of this network follows.
    layout: Arc<SnapshotLayout>,
    tracker: DependencyTracker,
    /// Built on the first [`VerifierContext::reference_snapshot`] or
    /// [`VerifierContext::prepare_repair`] call, so a bundle built for a
    /// caller that brings its own broken snapshot (a direct
    /// `RepairSession::run_in` call) never renders it.
    reference: OnceLock<Arc<ReferenceSnapshot>>,
}

impl SessionStatics {
    fn build(scenario: &Scenario) -> Self {
        let assignments = Modularizer::assign_scenario(scenario);
        let campion_bases = assignments
            .iter()
            .map(|a| {
                let mut h = FxHasher::default();
                h.write(a.name.as_bytes());
                h.write(a.prompt.as_bytes());
                h.finish()
            })
            .collect();
        let layout = SnapshotLayout::new(assignments.iter().map(|a| a.name.clone()).collect());
        SessionStatics {
            local_bases: local_key_bases(&scenario.topology, &assignments),
            campion_bases,
            assignments: Arc::new(assignments),
            layout: Arc::new(layout),
            tracker: DependencyTracker::new(scenario),
            reference: OnceLock::new(),
        }
    }
}

/// The worker's statics bundle for `scenario`'s `(topology, policies)`
/// pair and that pair's fingerprint, built and memoized on first sight.
/// The topology fingerprint is the only O(network) hashing cost of a
/// lookup, and a topology the memo holds in a pinned scenario is
/// fingerprinted once per worker, not once per lookup; field-walk
/// hashing via the derived `Hash` impls is an order of magnitude
/// cheaper than rendering `Debug` text at 512 routers.
fn statics_for(
    scenario: &Scenario,
    ctx: &mut VerifierContext,
) -> ((u64, u64), Arc<SessionStatics>) {
    let mut p = FxHasher::default();
    scenario.policies.hash(&mut p);
    let memo = &mut ctx.memo;
    let key = (memo.fingerprint(&scenario.topology), p.finish());
    let statics = match memo.statics.get(&key) {
        Some(s) => {
            memo.statics_hits += 1;
            Arc::clone(s)
        }
        None => {
            memo.statics_builds += 1;
            let s = Arc::new(SessionStatics::build(scenario));
            memo.insert_statics(key, Arc::clone(&s));
            s
        }
    };
    (key, statics)
}

/// A repair job ready to run: its scenario, the known-good snapshot with
/// one fault drawn into it, the fault's ground truth, and the statics
/// bundle of its network. Prepared by [`VerifierContext::prepare_repair`]
/// and run by [`crate::RepairSession::run_job`]; the snapshot and the
/// scenario travel together, so a session cannot pair one with another
/// network.
pub struct RepairJob {
    scenario: Scenario,
    snapshot: ConfigSnapshot,
    fault: GroundTruth,
    statics: Arc<SessionStatics>,
    /// The statics bundle's `(topology, policies)` fingerprint.
    key: (u64, u64),
}

impl RepairJob {
    /// The scenario the job repairs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The broken snapshot: the reference texts with the fault's router
    /// replaced.
    pub fn snapshot(&self) -> &ConfigSnapshot {
        &self.snapshot
    }

    /// What was broken, where.
    pub fn fault(&self) -> &GroundTruth {
        &self.fault
    }
}

impl VerifierContext {
    /// The known-good snapshot of `scenario`'s network — every internal
    /// router's clean config plus its scanned fault sites — built once
    /// per `(topology, policies)` pair this context has seen, and shared
    /// by every later call on the same pair. Equal to rendering the
    /// scenario's assignments afresh and scanning them.
    pub fn reference_snapshot(&mut self, scenario: &Scenario) -> Arc<ReferenceSnapshot> {
        let (_, statics) = statics_for(scenario, self);
        self.reference_of(&statics)
    }

    fn reference_of(&mut self, statics: &SessionStatics) -> Arc<ReferenceSnapshot> {
        let memo = &mut self.memo;
        let reference = statics
            .reference
            .get_or_init(|| Arc::new(ReferenceSnapshot::build(statics, memo)));
        Arc::clone(reference)
    }

    /// Prepares repair job `scenario` broken under `fault_seed`: one
    /// statics lookup, one fault draw from the network's reference
    /// snapshot, and a job snapshot that shares every other text with
    /// that reference. The broken snapshot and ground truth equal
    /// `fault_inject::inject` on the scenario's freshly rendered configs.
    /// `None` only when no fault class applies anywhere in the network.
    pub fn prepare_repair(&mut self, scenario: Scenario, fault_seed: u64) -> Option<RepairJob> {
        let (key, statics) = statics_for(&scenario, self);
        let reference = self.reference_of(&statics);
        let (text, fault) = reference
            .sites
            .draw(|name| reference.snapshot.get(name), fault_seed)?;
        let mut snapshot = reference.snapshot.clone();
        snapshot.set(&fault.device, text);
        Some(RepairJob {
            scenario,
            snapshot,
            fault,
            statics,
            key,
        })
    }

    /// The pinned network of large family `family` at `seed` — its
    /// topology and stub set — drawn by `draw` the first time this
    /// context sees the pair and shared afterwards. The context keys the
    /// network on `(family, seed)` alone, so `draw` must be that pair's
    /// generator (`scenario_gen::pinned_network`).
    pub fn pinned_network(
        &mut self,
        family: &str,
        seed: u64,
        draw: impl FnOnce() -> (Arc<Topology>, StubSet),
    ) -> Arc<(Arc<Topology>, StubSet)> {
        let memo = &mut self.memo;
        if let Some((_, network)) = memo
            .networks
            .iter()
            .find(|((f, s), _)| f == family && *s == seed)
        {
            memo.networks_reused += 1;
            return Arc::clone(network);
        }
        memo.networks_drawn += 1;
        let network = Arc::new(draw());
        if memo.networks.len() >= NETWORK_CAP {
            memo.networks.clear();
        }
        memo.networks
            .push(((family.to_string(), seed), Arc::clone(&network)));
        network
    }

    /// Scenario `name` of pinned large family `family` at `seed`, whose
    /// per-index draw was `intent` (`scenario_gen::pinned_intent`). Every
    /// index of one `(family, seed, intent)` runs the same scenario but
    /// for its name, so `build` runs the first time this context sees
    /// the triple, and every call returns a clone of that body under
    /// `name`: it shares the body's topology allocation, so no router is
    /// copied, and a statics lookup reads the fingerprint the body
    /// carries instead of hashing the network again. `build` must
    /// return the triple's scenario (`scenario_gen::pinned_scenario` on
    /// the context's [`Self::pinned_network`]).
    pub fn pinned_scenario(
        &mut self,
        family: &str,
        seed: u64,
        intent: &str,
        name: String,
        build: impl FnOnce() -> Scenario,
    ) -> Scenario {
        let memo = &mut self.memo;
        let found = memo.scenarios.iter().position(|b| {
            b.seed == seed && b.scenario.intent == intent && b.scenario.family == family
        });
        let i = match found {
            Some(i) => i,
            None => {
                memo.scenarios_built += 1;
                let scenario = build();
                debug_assert!(scenario.family == family && scenario.intent == intent);
                let topology_fp = memo.fingerprint(&scenario.topology);
                if memo.scenarios.len() >= SCENARIO_CAP {
                    memo.scenarios.clear();
                }
                memo.scenarios.push(PinnedScenario {
                    seed,
                    scenario,
                    topology_fp,
                });
                memo.scenarios.len() - 1
            }
        };
        let mut scenario = memo.scenarios[i].scenario.clone();
        scenario.name = name;
        scenario
    }
}

/// Entries per cross-session verdict map before the map is cleared
/// wholesale. A worker pinned to one large family needs one entry per
/// device per distinct config text — a few thousand covers every family
/// with room for the faulted/repaired variants; clearing on overflow
/// only costs recomputation, never correctness.
const CROSS_CAP: usize = 4096;

/// Distinct `(topology, policies)` bundles kept per worker — one per
/// family the worker has seen.
const STATICS_CAP: usize = 64;

/// Distinct pinned networks kept per worker — one per large family and
/// seed the worker has run.
const NETWORK_CAP: usize = 8;

/// Pinned scenario bodies kept per worker — one per intent of every
/// network [`NETWORK_CAP`] keeps.
const SCENARIO_CAP: usize = 4 * NETWORK_CAP;

/// A pinned network's `(family, seed)`.
type PinnedKey = (String, u64);

/// A pinned network: its shared topology and its stub set.
type PinnedNetwork = (Arc<Topology>, StubSet);

/// The scenario every index of one pinned `(family, seed, intent)`
/// runs, but for its name, keyed by `seed` and the scenario's own
/// family and intent, with its topology's fingerprint.
struct PinnedScenario {
    seed: u64,
    scenario: Scenario,
    topology_fp: u64,
}

/// The confirmation stored beside every verdict-memo entry: a text's
/// length and second fingerprint ([`TextPrint::confirmation`]) for a
/// per-device entry, their fold over the network
/// ([`ConfigSnapshot::confirmation`]) for a whole-snapshot one.
type Confirmation = (usize, u64);

/// A verdict map: values keyed on `(input fingerprint, text fingerprint)`,
/// each stored beside its [`Confirmation`].
type Confirmed<V> = HashMap<(u64, u64), (Confirmation, V)>;

/// The **worker-lifetime** verdict memo, resident in the
/// [`VerifierContext`] next to the manager pool.
///
/// Per-device verdicts are pure functions of `(own topology spec, check
/// set, config text)` — local — and `(assignment name, prompt, config
/// text)` — campion. On the internet-scale families the fleet pins one
/// topology per `(seed, family)` and varies only the intent and fault
/// per session, so almost every device of session *k+1* carries the
/// same spec, checks, and text as in session *k*: a resident worker can
/// answer those sweeps from this memo without recomputing anything.
///
/// Per-device keys are `(input fingerprint, text fingerprint)` 64-bit
/// FxHash pairs; whole-snapshot keys fold one fingerprint per router.
/// Every entry also stores a [`Confirmation`] computed with an
/// independent hasher — the text's length and second fingerprint, or
/// their fold over the snapshot — and every hit compares it: a hit whose
/// confirmation differs is a key collision, so it is counted
/// (`confirm_mismatches`), recomputed and replaced. A parsed device is
/// reused by a parse hook only under the same comparison, so no hit
/// returns a value its confirmation has not matched. Both use cases
/// consult the memo in incremental mode only — `--no-incremental` keeps
/// the historical recompute-everything path untouched — and hits return
/// clones of pure values, so session content stays byte-identical across
/// modes and across worker placements.
#[derive(Default)]
pub(crate) struct VerdictMemo {
    local: Confirmed<CachedLocal>,
    campion: Confirmed<Option<Box<Localization>>>,
    /// Whole-network check reports, keyed on `(topology + expectations,
    /// every internal config text)` — `check_scenario` is pure in
    /// exactly those inputs, so sessions that converge back to the same
    /// snapshot (the common case: a repair restores the reference text)
    /// share one simulation.
    global: Confirmed<GlobalCheckReport>,
    /// Whole-sweep localizations, keyed on `(topology + policies, every
    /// internal config text)`. The sweep is pure in exactly those
    /// inputs (assignment order, checks, and prompts all derive from
    /// topology + policies), so a snapshot the worker has swept before
    /// — above all the per-intent reference snapshot every converging
    /// session ends on, whose clean sweep is the costliest scan of the
    /// session — returns its verdict for the cost of folding the texts'
    /// fingerprints.
    sweep: Confirmed<Option<Localization>>,
    /// Scenario-static bundles, keyed on `(topology fingerprint,
    /// policies fingerprint)`.
    statics: HashMap<(u64, u64), Arc<SessionStatics>>,
    /// Known-good texts by their exact prompt (the render's only input).
    rendered: HashMap<String, Rendered>,
    /// Pinned networks by `(family, seed)`.
    networks: Vec<(PinnedKey, Arc<PinnedNetwork>)>,
    /// Pinned scenario bodies by `(family, seed, intent)`.
    scenarios: Vec<PinnedScenario>,
    /// Verdicts answered from the memo.
    pub(crate) hits: usize,
    /// Verdicts computed (and inserted).
    pub(crate) misses: usize,
    /// Hits whose confirmation differed (recomputed and replaced).
    pub(crate) confirm_mismatches: usize,
    /// Statics lookups that had to build the bundle.
    pub(crate) statics_builds: usize,
    /// Statics lookups answered by a resident bundle.
    pub(crate) statics_hits: usize,
    /// Reference texts rendered and scanned.
    pub(crate) texts_rendered: usize,
    /// Reference texts served by an earlier render of the same prompt.
    pub(crate) texts_reused: usize,
    /// Pinned networks drawn.
    pub(crate) networks_drawn: usize,
    /// Pinned-network lookups answered by a drawn network.
    pub(crate) networks_reused: usize,
    /// Pinned scenario bodies built.
    pub(crate) scenarios_built: usize,
    /// Topology fingerprints computed.
    pub(crate) topology_fps: usize,
}

impl VerdictMemo {
    fn insert_local(&mut self, key: (u64, u64), entry: (Confirmation, CachedLocal)) {
        if self.local.len() >= CROSS_CAP {
            self.local.clear();
        }
        self.local.insert(key, entry);
    }

    fn insert_campion(
        &mut self,
        key: (u64, u64),
        entry: (Confirmation, Option<Box<Localization>>),
    ) {
        if self.campion.len() >= CROSS_CAP {
            self.campion.clear();
        }
        self.campion.insert(key, entry);
    }

    fn insert_global(&mut self, key: (u64, u64), entry: (Confirmation, GlobalCheckReport)) {
        if self.global.len() >= CROSS_CAP {
            self.global.clear();
        }
        self.global.insert(key, entry);
    }

    fn insert_sweep(&mut self, key: (u64, u64), entry: (Confirmation, Option<Localization>)) {
        if self.sweep.len() >= CROSS_CAP {
            self.sweep.clear();
        }
        self.sweep.insert(key, entry);
    }

    fn insert_statics(&mut self, key: (u64, u64), statics: Arc<SessionStatics>) {
        if self.statics.len() >= STATICS_CAP {
            self.statics.clear();
        }
        self.statics.insert(key, statics);
    }

    fn insert_rendered(&mut self, prompt: String, rendered: Rendered) {
        if self.rendered.len() >= CROSS_CAP {
            self.rendered.clear();
        }
        self.rendered.insert(prompt, rendered);
    }

    /// The fingerprint of `topology`: the one a pinned scenario body
    /// carries when the body holds this very allocation, else computed
    /// (and counted). Matching by pointer is sound because the body
    /// keeps the allocation alive, and an `Arc` held twice cannot be
    /// mutated in place: a caller that changes its copy gets a new
    /// allocation, which is fingerprinted afresh.
    fn fingerprint(&mut self, topology: &Arc<Topology>) -> u64 {
        if let Some(b) = self
            .scenarios
            .iter()
            .find(|b| Arc::ptr_eq(&b.scenario.topology, topology))
        {
            return b.topology_fp;
        }
        self.topology_fps += 1;
        topology_fp(topology)
    }

    /// The parsed device memoized for the text printed `print` of the
    /// router whose local key base is `base`, if an entry holds one and
    /// its confirmation matches the text's. A parse hook that finds none
    /// parses the text itself.
    fn parsed_device(&self, base: u64, print: TextPrint) -> Option<&Device> {
        let (confirm, entry) = self.local.get(&(base, print.fx))?;
        if *confirm == print.confirmation() {
            entry.device.as_deref()
        } else {
            None
        }
    }

    /// The memoized entry under `key`, if its stored confirmation
    /// matches; a mismatch is counted and reads as a miss.
    fn confirmed<'a, V>(
        map: &'a Confirmed<V>,
        key: &(u64, u64),
        confirm: Confirmation,
        mismatches: &mut usize,
    ) -> Option<&'a V> {
        let (stored, value) = map.get(key)?;
        if *stored == confirm {
            Some(value)
        } else {
            *mismatches += 1;
            None
        }
    }
}

impl VerifierContext {
    /// [`local_verdict`] through the worker memo, under the per-device key
    /// `(base, print.fx)`: `base` is the router's local key base and
    /// `print` the fingerprints of `text`. A hit whose confirmation
    /// matches costs one lookup; a mismatch is counted, recomputed and
    /// replaced. `keep_device` stores the parsed device beside a clean
    /// verdict, for callers that read it back through a parse hook.
    pub(crate) fn memo_local_verdict(
        &mut self,
        topology: &Topology,
        assignment: &RouterAssignment,
        base: u64,
        text: &str,
        print: TextPrint,
        keep_device: bool,
    ) -> Option<LocalFinding> {
        let key = (base, print.fx);
        let confirm = print.confirmation();
        let memo = &mut self.memo;
        if let Some(cached) =
            VerdictMemo::confirmed(&memo.local, &key, confirm, &mut memo.confirm_mismatches)
        {
            memo.hits += 1;
            return cached.finding.as_deref().cloned();
        }
        memo.misses += 1;
        let (device, finding) = local_verdict(topology, assignment, text, self);
        let cached = CachedLocal {
            finding: finding.clone().map(Box::new),
            device: (keep_device && finding.is_none()).then(|| Box::new(device)),
        };
        self.memo.insert_local(key, (confirm, cached));
        finding
    }

    /// The whole-network check of `snapshot` through the worker's report
    /// memo, keyed on `(base, snapshot.key())` where `base` is the
    /// scenario's report base; the one body behind repair's deferred
    /// check and synthesis's final one. On a miss the parse hook serves
    /// clones of devices the memo holds for these texts (`local_bases`
    /// aligns with the snapshot's positions) and parses the rest, so the
    /// report is byte-identical to the hook-free path either way.
    fn checked_report(
        &mut self,
        scenario: &Scenario,
        base: u64,
        snapshot: &ConfigSnapshot,
        local_bases: &[u64],
    ) -> GlobalCheckReport {
        let key = (base, snapshot.key());
        let confirm = snapshot.confirmation();
        let memo = &mut self.memo;
        if let Some(report) =
            VerdictMemo::confirmed(&memo.global, &key, confirm, &mut memo.confirm_mismatches)
        {
            memo.hits += 1;
            return report.clone();
        }
        memo.misses += 1;
        let report = composer::check_scenario_with(scenario, |name| {
            let parsed = snapshot.index_of(name).and_then(|i| {
                let text = snapshot.text(i)?;
                memo.parsed_device(local_bases[i], text.print)
            });
            match parsed {
                Some(device) => device.clone(),
                None => composer::lower_internal(name, snapshot.get(name)),
            }
        });
        memo.insert_global(key, (confirm, report.clone()));
        report
    }
}

/// Session-scoped incremental re-verification state: the shared
/// scenario statics plus the two per-device verdict memos (index-
/// aligned with the assignments). Created per repair session by
/// `RepairSession::run_job` / `run_in` when [`VerifyMode::incremental`]
/// is on.
pub(crate) struct IncrementalVerifier {
    statics: Arc<SessionStatics>,
    /// The scenario's report key base ([`report_base`]).
    scenario_hash: u64,
    /// Input-side base of the whole-sweep memo key: topology +
    /// policies, i.e. everything a sweep reads besides the configs.
    sweep_base: u64,
    local: Vec<Option<MemoEntry>>,
    campion: Vec<Option<MemoEntry>>,
}

impl IncrementalVerifier {
    /// The verifier for a session that brings its own snapshot: looks
    /// the scenario's statics bundle up in the worker memo.
    pub(crate) fn new(scenario: &Scenario, ctx: &mut VerifierContext) -> Self {
        let (key, statics) = statics_for(scenario, ctx);
        Self::with_statics(scenario, statics, key)
    }

    /// The verifier for a prepared job, on the bundle its preparation
    /// already looked up.
    pub(crate) fn for_job(job: &RepairJob) -> Self {
        Self::with_statics(&job.scenario, Arc::clone(&job.statics), job.key)
    }

    fn with_statics(scenario: &Scenario, statics: Arc<SessionStatics>, skey: (u64, u64)) -> Self {
        let mut sb = FxHasher::default();
        sb.write(&skey.0.to_le_bytes());
        sb.write(&skey.1.to_le_bytes());
        let n = statics.assignments.len();
        IncrementalVerifier {
            statics,
            scenario_hash: report_base(skey.0, scenario),
            sweep_base: sb.finish(),
            local: vec![None; n],
            campion: vec![None; n],
        }
    }

    /// The session's modular assignments, shared with every other
    /// session on the same `(topology, policies)` pair.
    pub(crate) fn assignments(&self) -> Arc<Vec<RouterAssignment>> {
        Arc::clone(&self.statics.assignments)
    }

    /// The name layout the session's snapshot must follow.
    pub(crate) fn layout(&self) -> Arc<SnapshotLayout> {
        Arc::clone(&self.statics.layout)
    }

    /// The deferred whole-network check. Two memo layers, both sound by
    /// purity of `check_scenario` in `(topology, expectations, configs)`:
    /// the whole **report** is served from the worker memo when this
    /// exact snapshot was simulated before (sessions that converge back
    /// to the reference text share one simulation), and on a report
    /// miss the parse hook serves clones of devices the sweeps already
    /// parsed instead of re-parsing every internal router.
    pub(crate) fn check_global(
        &self,
        scenario: &Scenario,
        snapshot: &ConfigSnapshot,
        ctx: &mut VerifierContext,
    ) -> GlobalCheckReport {
        ctx.checked_report(
            scenario,
            self.scenario_hash,
            snapshot,
            &self.statics.local_bases,
        )
    }

    /// Drops the memo entries of every device in the edit's dirty set;
    /// the next sweep recomputes exactly those.
    pub(crate) fn invalidate_edit(&mut self, device: &str) {
        for d in self.statics.tracker.dirty_of(device) {
            if let Some(i) = self.statics.layout.index_of(&d) {
                self.local[i] = None;
                self.campion[i] = None;
            }
        }
    }

    /// The memoized sweep: identical semantics to `repair::localize`
    /// (assignment order, first local finding wins, campion only when
    /// all local channels are silent), with verdicts served from the
    /// memo where the dependency tracker proved them still valid.
    ///
    /// The whole sweep is itself a pure function of `(topology,
    /// policies, configs)`, so a snapshot the worker has swept before is
    /// answered from the worker memo for the cost of folding the texts'
    /// fingerprints — the per-intent reference snapshot every converging
    /// session ends on makes this the common case on a pinned family.
    pub(crate) fn localize(
        &mut self,
        scenario: &Scenario,
        snapshot: &ConfigSnapshot,
        ctx: &mut VerifierContext,
    ) -> Option<Localization> {
        debug_assert!(snapshot.follows(&self.statics.layout));
        let key = (self.sweep_base, snapshot.key());
        let confirm = snapshot.confirmation();
        let memo = &mut ctx.memo;
        if let Some(v) =
            VerdictMemo::confirmed(&memo.sweep, &key, confirm, &mut memo.confirm_mismatches)
        {
            memo.hits += 1;
            return v.clone();
        }
        let verdict = self.localize_uncached(scenario, snapshot, ctx);
        ctx.memo.insert_sweep(key, (confirm, verdict.clone()));
        verdict
    }

    fn localize_uncached(
        &mut self,
        scenario: &Scenario,
        snapshot: &ConfigSnapshot,
        ctx: &mut VerifierContext,
    ) -> Option<Localization> {
        let statics = Arc::clone(&self.statics);
        for (i, assignment) in statics.assignments.iter().enumerate() {
            let Some(text) = snapshot.text(i) else {
                continue;
            };
            let verdict = match &self.local[i] {
                Some(m) => {
                    debug_assert_eq!(
                        m.textfx, text.print.fx,
                        "memo entry for {} outlived an edit the tracker missed",
                        assignment.name
                    );
                    m.verdict.clone()
                }
                None => {
                    let verdict = ctx
                        .memo_local_verdict(
                            &scenario.topology,
                            assignment,
                            statics.local_bases[i],
                            text.as_str(),
                            text.print,
                            true,
                        )
                        .map(|f| Localization::of(&assignment.name, &f, text.as_str()));
                    self.local[i] = Some(MemoEntry {
                        textfx: text.print.fx,
                        verdict: verdict.clone(),
                    });
                    verdict
                }
            };
            if verdict.is_some() {
                return verdict;
            }
        }
        for (i, assignment) in statics.assignments.iter().enumerate() {
            let Some(text) = snapshot.text(i) else {
                continue;
            };
            let verdict = match &self.campion[i] {
                Some(m) => {
                    debug_assert_eq!(
                        m.textfx, text.print.fx,
                        "campion memo for {} outlived an edit the tracker missed",
                        assignment.name
                    );
                    m.verdict.clone()
                }
                None => {
                    let ckey = (statics.campion_bases[i], text.print.fx);
                    let confirm = text.print.confirmation();
                    let memo = &mut ctx.memo;
                    let cached = VerdictMemo::confirmed(
                        &memo.campion,
                        &ckey,
                        confirm,
                        &mut memo.confirm_mismatches,
                    )
                    .map(|v| v.as_deref().cloned());
                    let verdict = match cached {
                        Some(v) => {
                            ctx.memo.hits += 1;
                            v
                        }
                        None => {
                            ctx.memo.misses += 1;
                            // The device passed its local channels this
                            // round, so the reparse is warning-free —
                            // and skippable when the worker memo still
                            // holds the parse.
                            let device =
                                match ctx.memo.parsed_device(statics.local_bases[i], text.print) {
                                    Some(device) => device.clone(),
                                    None => {
                                        composer::parse_internal(&assignment.name, text.as_str())
                                            .device
                                    }
                                };
                            let verdict =
                                repair::campion_verdict_in(assignment, text.as_str(), &device, ctx);
                            ctx.memo
                                .insert_campion(ckey, (confirm, verdict.clone().map(Box::new)));
                            verdict
                        }
                    };
                    self.campion[i] = Some(MemoEntry {
                        textfx: text.print.fx,
                        verdict: verdict.clone(),
                    });
                    verdict
                }
            };
            if verdict.is_some() {
                return verdict;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_incremental_sequential() {
        assert_eq!(VerifyMode::default(), VerifyMode { incremental: true });
        assert!(!VerifyMode::full().incremental);
    }

    #[test]
    fn dirty_set_is_the_edit_plus_its_internal_neighbors() {
        let scenario = scenario_gen::generate(1, 0); // chain family
        let tracker = DependencyTracker::new(&scenario);
        let internal: Vec<String> = scenario
            .topology
            .internal_routers()
            .map(|r| r.name.clone())
            .collect();
        for name in &internal {
            let dirty = tracker.dirty_of(name);
            assert!(dirty.contains(name), "the edit itself is always dirty");
            for d in &dirty {
                assert!(
                    d == name || scenario.topology.has_link(name, d),
                    "{d} is dirty for an edit to {name} without an adjacency"
                );
            }
            // Everything outside the set is a non-neighbor.
            for other in &internal {
                if !dirty.contains(other) {
                    assert!(!scenario.topology.has_link(name, other));
                }
            }
        }
        // A chain interior router has exactly two internal neighbors.
        let mid = &internal[1];
        assert_eq!(tracker.dirty_of(mid).len(), 3);
    }

    #[test]
    fn dirty_set_stays_bounded_on_large_families() {
        // The whole point: on the 144-router fat tree the dirty set of
        // any edit is a bounded neighborhood, not the network.
        let scenario = scenario_gen::generate_family("fat-tree-144", 1, 0);
        let tracker = DependencyTracker::new(&scenario);
        let n = scenario.topology.internal_routers().count();
        assert_eq!(n, 144);
        for r in scenario.topology.internal_routers() {
            let dirty = tracker.dirty_of(&r.name);
            assert!(
                dirty.len() <= 17,
                "{}: dirty set of {} devices on a degree-bounded topology",
                r.name,
                dirty.len()
            );
        }
    }

    #[test]
    fn a_colliding_sweep_entry_is_confirmed_recomputed_and_counted() {
        // Plant the clean snapshot's sweep verdict under the broken
        // snapshot's key, as a key collision would: the broken snapshot's
        // sweep must see the confirmation disagree, return its own
        // verdict, and replace the planted entry.
        let scenario = scenario_gen::generate(3, 1);
        let clean = crate::reference_configs(&Modularizer::assign_scenario(&scenario));
        let broken = fault_inject::inject(&clean, 5).expect("applicable fault");
        let expected = repair::localize(
            &scenario,
            &Modularizer::assign_scenario(&scenario),
            &broken.configs,
            &mut VerifierContext::new(),
        );
        assert!(expected.is_some(), "the fault is localizable");

        let mut ctx = VerifierContext::new();
        let mut inc = IncrementalVerifier::new(&scenario, &mut ctx);
        let a = ConfigSnapshot::with_layout(inc.layout(), &clean);
        let b = ConfigSnapshot::with_layout(inc.layout(), &broken.configs);
        assert_eq!(inc.localize(&scenario, &a, &mut ctx), None);
        let planted = ctx.memo.sweep[&(inc.sweep_base, a.key())].clone();
        let b_key = (inc.sweep_base, b.key());
        ctx.memo.sweep.insert(b_key, planted);

        let mut inc = IncrementalVerifier::new(&scenario, &mut ctx);
        assert_eq!(inc.localize(&scenario, &b, &mut ctx), expected);
        assert_eq!(ctx.memo_counters().confirm_mismatches, 1);
        assert_eq!(ctx.memo.sweep[&b_key], (b.confirmation(), expected.clone()));
        // The replaced entry now confirms: a second sweep is a plain hit.
        let mut inc = IncrementalVerifier::new(&scenario, &mut ctx);
        assert_eq!(inc.localize(&scenario, &b, &mut ctx), expected);
        assert_eq!(ctx.memo_counters().confirm_mismatches, 1);
    }

    #[test]
    fn a_colliding_local_entry_is_confirmed_recomputed_and_counted() {
        // Plant a clean draft's local entry under a broken draft's key,
        // as a key collision would: the broken draft's lookup must see
        // the confirmation disagree, return its own finding, and replace
        // the planted entry — and no parse hook may serve the planted
        // device for the broken text meanwhile.
        let scenario = scenario_gen::generate(3, 1);
        let assignments = Modularizer::assign_scenario(&scenario);
        let clean = crate::reference_configs(&assignments);
        let topology = &scenario.topology;
        let (i, text_b, expected) = (0..)
            .flat_map(|seed| fault_inject::corpus(&clean, seed))
            .find_map(|injection| {
                let i = assignments
                    .iter()
                    .position(|a| a.name == injection.fault.device)?;
                let text = injection.configs[&injection.fault.device].clone();
                let mut ctx = VerifierContext::new();
                let (_, finding) = local_verdict(topology, &assignments[i], &text, &mut ctx);
                Some((i, text, finding?))
            })
            .expect("some fault shows on a local channel");
        let a = &assignments[i];
        let text_a = clean[&a.name].as_str();
        let base = local_key_bases(topology, &assignments)[i];
        let (print_a, print_b) = (TextPrint::of(text_a), TextPrint::of(&text_b));

        let mut ctx = VerifierContext::new();
        assert!(ctx
            .memo_local_verdict(topology, a, base, text_a, print_a, true)
            .is_none());
        assert!(ctx.memo.parsed_device(base, print_a).is_some());
        let planted = ctx
            .memo
            .local
            .remove(&(base, print_a.fx))
            .expect("inserted");
        ctx.memo.local.insert((base, print_b.fx), planted);
        assert!(
            ctx.memo.parsed_device(base, print_b).is_none(),
            "a colliding entry's device is never served"
        );

        let lookup = |ctx: &mut VerifierContext| {
            let got = ctx.memo_local_verdict(topology, a, base, &text_b, print_b, true);
            format!("{got:?}")
        };
        assert_eq!(lookup(&mut ctx), format!("{:?}", Some(&expected)));
        let counters = ctx.memo_counters();
        assert_eq!(counters.confirm_mismatches, 1);
        // The replaced entry now confirms: a second lookup is a plain hit.
        assert_eq!(lookup(&mut ctx), format!("{:?}", Some(&expected)));
        let again = ctx.memo_counters();
        assert_eq!(again.confirm_mismatches, 1);
        assert_eq!(again.verdict_hits, counters.verdict_hits + 1);
        assert_eq!(again.verdict_misses, counters.verdict_misses);
    }

    #[test]
    fn local_entries_stay_compact() {
        // 4,096 entries take 8,192 buckets: every byte of a value counts
        // twice per worker.
        assert_eq!(std::mem::size_of::<(Confirmation, CachedLocal)>(), 32);
    }

    #[test]
    fn session_statics_are_shared_across_sessions_on_a_pinned_family() {
        // Two sessions on the same (seed, family) share the topology;
        // when they also share the intent (and thus the policies) the
        // second must reuse the first's statics bundle. A different
        // seed — different topology — must not.
        let mut ctx = VerifierContext::new();
        let a = scenario_gen::generate_family("as-graph-64", 3, 0);
        let b = (1..32)
            .map(|i| scenario_gen::generate_family("as-graph-64", 3, i))
            .find(|s| s.intent == a.intent)
            .expect("some later index repeats the intent");
        assert_eq!(a.policies, b.policies, "same intent, same policies");
        let v1 = IncrementalVerifier::new(&a, &mut ctx);
        let v2 = IncrementalVerifier::new(&b, &mut ctx);
        assert!(Arc::ptr_eq(&v1.statics, &v2.statics));
        let c = scenario_gen::generate_family("as-graph-64", 4, 0);
        let mut c2 = c.clone();
        c2.policies = a.policies.clone();
        let v3 = IncrementalVerifier::new(&c2, &mut ctx);
        assert!(
            !Arc::ptr_eq(&v1.statics, &v3.statics),
            "a different topology must not share statics even with equal policies"
        );
    }
}
