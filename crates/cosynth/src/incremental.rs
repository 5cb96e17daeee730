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
//! from the scenario is derivable once per family. One [`VerdictMemo`]
//! serves a whole worker pool: every worker's [`VerifierContext`] holds
//! the same memo, so the pool derives each of the following once, not
//! once per worker.
//!
//! * `SessionStatics` — the assignments, the per-device memo-key
//!   bases, the snapshot name layout, the dependency tracker, and
//!   (built on first request) the [`ReferenceSnapshot`] — is a pure
//!   function of `(topology, policies)` and is shared through an `Arc`
//!   in the pool's memo; a later session pays at most one streamed hash
//!   of the topology (none on a pinned scenario's, below) instead of
//!   re-deriving ~n prompts and keys, and a later
//!   repair job ([`VerifierContext::prepare_repair`]) draws its fault
//!   from the stored known-good texts instead of re-rendering and
//!   re-parsing the network. The reference holds no `Arc` back to its
//!   bundle, so an evicted bundle is freed with its snapshot.
//! * [`VerdictMemo`] keeps per-device local/campion verdicts, whole
//!   sweeps and whole `GlobalCheckReport`s keyed by content
//!   fingerprints, so a warm pool answers the sweeps and the final
//!   simulation of session *k+1* from session *k*'s work, whichever
//!   worker ran it. Whole-snapshot keys fold the per-text fingerprints a
//!   [`ConfigSnapshot`] carries. Every entry stores a confirmation (text
//!   length plus an independent second fingerprint) that each hit
//!   compares. The memo also keeps each rendered known-good text by its
//!   exact prompt and each drawn pinned network by `(family, seed)`.
//! * A pinned network's intents are applied once per pool: the memo
//!   keeps one scenario body per `(family, seed, intent)` with its
//!   topology's fingerprint ([`VerifierContext::pinned_scenario`]). A
//!   job gets a clone of the body under its own name, sharing the
//!   body's `Arc<Topology>` (the network's own allocation under every
//!   intent but prefer-customer, which extends a copy), so a warm job
//!   copies, hashes and frees no router. A statics lookup finds the
//!   network or body that holds the job's topology by `Arc::ptr_eq` and
//!   reads its fingerprint: sound, because the memo keeps the
//!   allocation alive and an `Arc` held twice cannot be mutated in place.
//!
//! Sharing rules: one mutex guards the maps, and it is held only for a
//! map operation — every parse, check, campion diff and simulation runs
//! outside it. A worker that misses a verdict claims its key and
//! computes it; another worker that misses the same key meanwhile waits
//! for the claim to end instead of computing it again, so the pool
//! computes each verdict once and publishes one value for it, and every
//! hit still compares its confirmation. The per-network builds (a
//! pinned network, a scenario body, a statics bundle with its reference
//! render, one rendered text) run once per pool the same way: the map
//! holds a once-cell for each, the build runs outside the lock, and a
//! second worker that asks for it waits for the first. No wait is ever
//! taken while holding the lock, and waits nest one way only — a sweep
//! waits on per-device verdicts, a reference render on rendered texts —
//! while those wait on nothing, so waits cannot form a cycle. A
//! computation or build that panics publishes nothing, so the next
//! caller computes afresh, and a poisoned lock is recovered, since the
//! maps only change by whole-value operations.
//!
//! ## Synthesis
//!
//! A synthesis session re-checks a router's draft every rectification
//! round, and the model often returns the draft unchanged. Every draft
//! goes through the same memoized local verdict as repair's sweep, under
//! the same per-device key, so a draft the pool has checked before —
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
use crate::verifier_ctx::MemoCounters;
use crate::verifier_ctx::VerifierContext;
use bdd::FxHasher;
use bf_lite::LocalPolicyCheck;
use config_ir::Device;
use fault_inject::{FaultClass, FaultSites, GroundTruth};
use llm_sim::synth_task::SynthesisDraft;
use net_model::{ParseWarning, RouteAdvertisement};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher as _};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
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
/// 32 bytes per map value): the first finding, behind a pointer because
/// most verdicts are clean, and the parsed device where the caller keeps
/// one. Repair's sweep keeps it with clean verdicts, for the campion
/// phase and the whole-network parse hook; synthesis keeps none. Both
/// are `Arc`s, so a hit copies two pointers under the memo lock and
/// clones the finding outside it.
#[derive(Clone)]
pub(crate) struct CachedLocal {
    finding: Option<Arc<LocalFinding>>,
    device: Option<Arc<Device>>,
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
/// the pool's memo next to the assignments it was rendered from: the
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
    /// pool has rendered before reuses that text and its fault classes
    /// from the memo instead of rendering and parsing it again, and each
    /// prompt is rendered once per pool.
    fn build(statics: &SessionStatics, memo: &VerdictMemo) -> Self {
        let n = statics.assignments.len();
        let mut texts = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(n);
        for a in statics.assignments.iter() {
            let slot = slot_in(
                &mut memo.maps().rendered,
                a.prompt.as_str(),
                memo.cap(CROSS_CAP),
            );
            let (rendered, built) = build_once(&slot, || {
                let text = render_reference(&a.prompt);
                Rendered {
                    classes: fault_inject::applicable_classes(&text),
                    text: SnapshotText::new(text),
                }
            });
            let c = &memo.counters;
            bump(if built {
                &c.texts_rendered
            } else {
                &c.texts_reused
            });
            classes.push((a.name.clone(), rendered.classes.clone()));
            texts.push(Some(rendered.text.clone()));
        }
        ReferenceSnapshot {
            snapshot: ConfigSnapshot::from_texts(Arc::clone(&statics.layout), texts),
            sites: FaultSites::from_classes(classes),
        }
    }
}

/// One rendered known-good text and the fault classes that apply to it.
struct Rendered {
    text: SnapshotText,
    classes: Vec<FaultClass>,
}

/// Everything a repair session derives from the scenario that is a pure
/// function of `(topology, policies)`: the modular assignments, the
/// per-device memo-key bases, the name layout of its snapshots, the
/// dependency tracker, and the reference snapshot. Built once per
/// `(topology, policies)` per pool and shared via `Arc` — a session on
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

/// The pool's statics bundle for `scenario`'s `(topology, policies)`
/// pair and that pair's fingerprint, built once per pool on first sight.
/// The topology fingerprint is the only O(network) hashing cost of a
/// lookup, and a topology the memo holds in a pinned network or scenario
/// is fingerprinted once per pool, not once per lookup; field-walk
/// hashing via the derived `Hash` impls is an order of magnitude
/// cheaper than rendering `Debug` text at 512 routers.
fn statics_for(scenario: &Scenario, memo: &VerdictMemo) -> ((u64, u64), Arc<SessionStatics>) {
    let mut p = FxHasher::default();
    scenario.policies.hash(&mut p);
    let key = (memo.fingerprint(&scenario.topology), p.finish());
    let slot = slot_in(&mut memo.maps().statics, &key, memo.cap(STATICS_CAP));
    let (statics, built) = build_once(&slot, || Arc::new(SessionStatics::build(scenario)));
    let c = &memo.counters;
    bump(if built {
        &c.statics_builds
    } else {
        &c.statics_hits
    });
    (key, Arc::clone(statics))
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
    /// per `(topology, policies)` pair the context's pool has seen, and
    /// shared by every later call on the same pair. Equal to rendering
    /// the scenario's assignments afresh and scanning them.
    pub fn reference_snapshot(&mut self, scenario: &Scenario) -> Arc<ReferenceSnapshot> {
        let (_, statics) = statics_for(scenario, &self.memo);
        self.reference_of(&statics)
    }

    /// The bundle's reference, rendered by the first worker that asks;
    /// another worker asking meanwhile waits for that render.
    fn reference_of(&self, statics: &SessionStatics) -> Arc<ReferenceSnapshot> {
        let reference = statics
            .reference
            .get_or_init(|| Arc::new(ReferenceSnapshot::build(statics, &self.memo)));
        Arc::clone(reference)
    }

    /// Prepares repair job `scenario` broken under `fault_seed`: one
    /// statics lookup, one fault draw from the network's reference
    /// snapshot, and a job snapshot that shares every other text with
    /// that reference. The broken snapshot and ground truth equal
    /// `fault_inject::inject` on the scenario's freshly rendered configs.
    /// `None` only when no fault class applies anywhere in the network.
    pub fn prepare_repair(&mut self, scenario: Scenario, fault_seed: u64) -> Option<RepairJob> {
        let (key, statics) = statics_for(&scenario, &self.memo);
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
    /// topology and stub set — drawn by `draw` the first time the
    /// context's pool sees the pair and shared afterwards; a worker that
    /// asks while another draws waits for that draw. The draw also
    /// fingerprints the topology once, for every statics lookup on it.
    /// The pool keys the network on `(family, seed)` alone, so `draw`
    /// must be that pair's generator (`scenario_gen::pinned_network`).
    pub fn pinned_network(
        &mut self,
        family: &str,
        seed: u64,
        draw: impl FnOnce() -> (Arc<Topology>, StubSet),
    ) -> Arc<(Arc<Topology>, StubSet)> {
        let memo = &*self.memo;
        let key = (family.to_string(), seed);
        let slot = slot_in(&mut memo.maps().networks, &key, memo.cap(NETWORK_CAP));
        let (drawn, built) = build_once(&slot, || {
            let network = Arc::new(draw());
            bump(&memo.counters.topology_fps);
            DrawnNetwork {
                topology_fp: topology_fp(&network.0),
                network,
            }
        });
        let c = &memo.counters;
        bump(if built {
            &c.networks_drawn
        } else {
            &c.networks_reused
        });
        Arc::clone(&drawn.network)
    }

    /// Scenario `name` of pinned large family `family` at `seed`, whose
    /// per-index draw was `intent` (`scenario_gen::pinned_intent`). Every
    /// index of one `(family, seed, intent)` runs the same scenario but
    /// for its name, so `build` runs the first time the context's pool
    /// sees the triple (a worker asking meanwhile waits for it), and
    /// every call returns a clone of that body under `name`: it shares
    /// the body's topology allocation, so no router is copied, and a
    /// statics lookup reads the fingerprint the body carries instead of
    /// hashing the network again. `build` must return the triple's
    /// scenario (`scenario_gen::pinned_scenario` on the context's
    /// [`Self::pinned_network`]).
    pub fn pinned_scenario(
        &mut self,
        family: &str,
        seed: u64,
        intent: &str,
        name: String,
        build: impl FnOnce() -> Scenario,
    ) -> Scenario {
        let memo = &*self.memo;
        let key = (family.to_string(), seed, intent.to_string());
        let slot = slot_in(&mut memo.maps().scenarios, &key, memo.cap(SCENARIO_CAP));
        let (body, built) = build_once(&slot, || {
            let scenario = build();
            debug_assert!(scenario.family == family && scenario.intent == intent);
            PinnedScenario {
                topology_fp: memo.fingerprint(&scenario.topology),
                scenario,
            }
        });
        if built {
            bump(&memo.counters.scenarios_built);
        }
        let mut scenario = body.scenario.clone();
        scenario.name = name;
        scenario
    }
}

/// Entries per cross-session verdict map, per worker of the pool, before
/// the map is cleared wholesale: a pool of `n` workers keeps `n` times
/// this many, so the process-wide bound is the one per-worker memos had.
/// A worker pinned to one large family needs one entry per device per
/// distinct config text — a few thousand covers every family with room
/// for the faulted/repaired variants; clearing on overflow only costs
/// recomputation, never correctness.
const CROSS_CAP: usize = 4096;

/// Distinct `(topology, policies)` bundles kept per worker of the pool —
/// one per family a worker has seen.
const STATICS_CAP: usize = 64;

/// Distinct pinned networks kept per worker of the pool — one per large
/// family and seed a worker has run.
const NETWORK_CAP: usize = 8;

/// Pinned scenario bodies kept per worker of the pool — one per intent
/// of every network [`NETWORK_CAP`] keeps.
const SCENARIO_CAP: usize = 4 * NETWORK_CAP;

/// A pinned network's `(family, seed)`.
type PinnedKey = (String, u64);

/// A pinned scenario body's `(family, seed, intent)`.
type ScenarioKey = (String, u64, String);

/// A pinned network: its shared topology and its stub set.
type PinnedNetwork = (Arc<Topology>, StubSet);

/// A pinned network as drawn, with its topology's fingerprint.
struct DrawnNetwork {
    network: Arc<PinnedNetwork>,
    topology_fp: u64,
}

/// The scenario every index of one pinned `(family, seed, intent)`
/// runs, but for its name, with its topology's fingerprint.
struct PinnedScenario {
    scenario: Scenario,
    topology_fp: u64,
}

/// A value the pool builds once: the map holds the cell, the build runs
/// outside the memo lock ([`build_once`]).
type Slot<T> = Arc<OnceLock<T>>;

/// The confirmation stored beside every verdict-memo entry: a text's
/// length and second fingerprint ([`TextPrint::confirmation`]) for a
/// per-device entry, their fold over the network
/// ([`ConfigSnapshot::confirmation`]) for a whole-snapshot one.
type Confirmation = (usize, u64);

/// A verdict map: values keyed on `(input fingerprint, text fingerprint)`,
/// each stored beside its [`Confirmation`], and the keys a worker is
/// computing right now.
struct VerdictMap<V> {
    entries: HashMap<(u64, u64), (Confirmation, V)>,
    /// Keys claimed by a worker computing their verdict ([`Claim`]); a
    /// worker that misses one waits for it instead of computing it too.
    computing: Vec<(u64, u64)>,
}

impl<V> Default for VerdictMap<V> {
    fn default() -> Self {
        VerdictMap {
            entries: HashMap::new(),
            computing: Vec::new(),
        }
    }
}

/// Selects one verdict map of the memo.
type Pick<V> = fn(&mut MemoMaps) -> &mut VerdictMap<V>;

/// The answer of a verdict lookup: a confirmed hit, or a claim on the
/// verdict, which the caller computes and publishes.
enum Lookup<'m, V> {
    Hit(V),
    Miss(Claim<'m, V>),
}

/// A worker's claim on computing the verdict under one key: while it
/// lasts, another worker that misses the key waits for it instead of
/// computing the verdict again. [`Claim::publish`] ends it with the
/// verdict; dropping it unpublished (the computation panicked) ends it
/// with nothing, and a waiting worker computes the verdict itself.
struct Claim<'m, V> {
    memo: &'m VerdictMemo,
    pick: Pick<V>,
    key: (u64, u64),
    confirm: Confirmation,
    ended: bool,
}

impl<V> Claim<'_, V> {
    /// Publishes the claimed key's verdict and ends the claim. No other
    /// worker computed the key meanwhile, so this is the one value
    /// published for it; an entry already there under another
    /// confirmation is a collision and is replaced.
    fn publish(mut self, value: V) {
        let cap = self.memo.cap(CROSS_CAP);
        // A replaced entry is dropped after the lock is released.
        let _replaced = {
            let mut maps = self.memo.maps();
            let entries = &mut (self.pick)(&mut maps).entries;
            if entries.len() >= cap {
                entries.clear();
            }
            let replaced = entries.insert(self.key, (self.confirm, value));
            self.end(&mut maps);
            replaced
        };
    }

    /// Removes the claim and wakes the workers waiting on the memo.
    fn end(&mut self, maps: &mut MemoMaps) {
        let computing = &mut (self.pick)(maps).computing;
        if let Some(i) = computing.iter().position(|k| *k == self.key) {
            computing.swap_remove(i);
        }
        if maps.waiting > 0 {
            self.memo.published.notify_all();
        }
        self.ended = true;
    }
}

impl<V> Drop for Claim<'_, V> {
    fn drop(&mut self) {
        if !self.ended {
            let mut maps = self.memo.maps();
            self.end(&mut maps);
        }
    }
}

/// The value in `slot`, built by `build` unless some worker has built it
/// already, and whether this call built it. A worker that finds the
/// build in progress waits for it; a build that panics leaves the cell
/// empty, so the next caller builds afresh and nothing half-built is
/// ever read. Never call this while holding the memo lock: the build
/// may take it.
fn build_once<T>(slot: &OnceLock<T>, build: impl FnOnce() -> T) -> (&T, bool) {
    let mut built = false;
    let value = slot.get_or_init(|| {
        let value = build();
        built = true;
        value
    });
    (value, built)
}

/// The cell under `key` in `map`, inserted empty if absent (clearing a
/// map that holds `cap` cells first).
fn slot_in<K, Q, T>(map: &mut HashMap<K, Slot<T>>, key: &Q, cap: usize) -> Slot<T>
where
    K: Borrow<Q> + Hash + Eq,
    Q: ToOwned<Owned = K> + Hash + Eq + ?Sized,
{
    if let Some(slot) = map.get(key) {
        return Arc::clone(slot);
    }
    if map.len() >= cap {
        map.clear();
    }
    Arc::clone(map.entry(key.to_owned()).or_default())
}

fn bump(counter: &AtomicUsize) {
    counter.fetch_add(1, Relaxed);
}

/// The memo's maps, behind its one lock.
#[derive(Default)]
struct MemoMaps {
    local: VerdictMap<CachedLocal>,
    campion: VerdictMap<Option<Arc<Localization>>>,
    /// Whole-network check reports, keyed on `(topology + expectations,
    /// every internal config text)` — `check_scenario` is pure in
    /// exactly those inputs, so sessions that converge back to the same
    /// snapshot (the common case: a repair restores the reference text)
    /// share one simulation.
    global: VerdictMap<Arc<GlobalCheckReport>>,
    /// Whole-sweep localizations, keyed on `(topology + policies, every
    /// internal config text)`. The sweep is pure in exactly those
    /// inputs (assignment order, checks, and prompts all derive from
    /// topology + policies), so a snapshot the pool has swept before
    /// — above all the per-intent reference snapshot every converging
    /// session ends on, whose clean sweep is the costliest scan of the
    /// session — returns its verdict for the cost of folding the texts'
    /// fingerprints.
    sweep: VerdictMap<Option<Arc<Localization>>>,
    /// Scenario-static bundles, keyed on `(topology fingerprint,
    /// policies fingerprint)`.
    statics: HashMap<(u64, u64), Slot<Arc<SessionStatics>>>,
    /// Known-good texts by their exact prompt (the render's only input).
    rendered: HashMap<String, Slot<Rendered>>,
    /// Pinned networks by `(family, seed)`.
    networks: HashMap<PinnedKey, Slot<DrawnNetwork>>,
    /// Pinned scenario bodies by `(family, seed, intent)`.
    scenarios: HashMap<ScenarioKey, Slot<PinnedScenario>>,
    /// Workers waiting on [`VerdictMemo::published`] for a claimed verdict.
    waiting: usize,
}

/// The memo's lifetime counters (see [`MemoCounters`] for each one's
/// meaning), counted once per pool.
#[derive(Default)]
struct Counters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    confirm_mismatches: AtomicUsize,
    statics_builds: AtomicUsize,
    statics_hits: AtomicUsize,
    texts_rendered: AtomicUsize,
    texts_reused: AtomicUsize,
    networks_drawn: AtomicUsize,
    networks_reused: AtomicUsize,
    scenarios_built: AtomicUsize,
    topology_fps: AtomicUsize,
}

/// The **pool-lifetime** verdict memo: one per worker pool, shared by
/// the [`VerifierContext`] of every worker (a context made alone, by
/// [`VerifierContext::new`] or [`VerifierContext::without_pooling`], is
/// a pool of one), while each worker keeps its own manager pool and
/// space cache.
///
/// Per-device verdicts are pure functions of `(own topology spec, check
/// set, config text)` — local — and `(assignment name, prompt, config
/// text)` — campion. On the internet-scale families the fleet pins one
/// topology per `(seed, family)` and varies only the intent and fault
/// per session, so almost every device of session *k+1* carries the
/// same spec, checks, and text as in session *k*: a resident pool can
/// answer those sweeps from this memo without recomputing anything, on
/// whichever worker session *k* ran.
///
/// Per-device keys are `(input fingerprint, text fingerprint)` 64-bit
/// FxHash pairs; whole-snapshot keys fold one fingerprint per router.
/// Every entry also stores a confirmation computed with an
/// independent hasher — the text's length and second fingerprint, or
/// their fold over the snapshot — and every hit compares it: a hit whose
/// confirmation differs is a key collision, so it is counted
/// (`confirm_mismatches`), recomputed and replaced. A parsed device is
/// reused by a parse hook only under the same comparison, so no hit
/// returns a value its confirmation has not matched. Both use cases
/// consult the memo in incremental mode only — `--no-incremental` keeps
/// the historical recompute-everything path untouched — and hits return
/// clones of pure values, so session content stays byte-identical across
/// modes and across worker placements. The module docs give the locking
/// rules.
pub struct VerdictMemo {
    /// Workers sharing the memo: every cap is its per-worker value
    /// times this.
    workers: usize,
    maps: Mutex<MemoMaps>,
    /// Signalled when a claim ends, with its verdict or without.
    published: Condvar,
    counters: Counters,
}

impl VerdictMemo {
    /// The memo of a pool of `workers` workers (at least one): each map
    /// holds up to `workers` times the entries one worker's would.
    pub fn for_pool(workers: usize) -> Arc<Self> {
        Arc::new(VerdictMemo {
            workers: workers.max(1),
            maps: Mutex::default(),
            published: Condvar::new(),
            counters: Counters::default(),
        })
    }

    /// The pool's lifetime counters.
    pub fn counters(&self) -> MemoCounters {
        let c = &self.counters;
        let read = |n: &AtomicUsize| n.load(Relaxed);
        MemoCounters {
            verdict_hits: read(&c.hits),
            verdict_misses: read(&c.misses),
            confirm_mismatches: read(&c.confirm_mismatches),
            statics_builds: read(&c.statics_builds),
            statics_hits: read(&c.statics_hits),
            texts_rendered: read(&c.texts_rendered),
            texts_reused: read(&c.texts_reused),
            networks_drawn: read(&c.networks_drawn),
            networks_reused: read(&c.networks_reused),
            scenarios_built: read(&c.scenarios_built),
            topology_fps: read(&c.topology_fps),
        }
    }

    /// The maps, locked. A poisoned lock is recovered: the maps only
    /// change by whole-value operations, so a holder that panicked left
    /// them sound.
    fn maps(&self) -> MutexGuard<'_, MemoMaps> {
        self.maps.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The pool-wide cap of a map whose per-worker cap is `per_worker`.
    fn cap(&self, per_worker: usize) -> usize {
        per_worker * self.workers
    }

    /// The verdict under `key` in the map `pick` selects: a clone of
    /// the entry if its stored confirmation matches (a hit, counted), or
    /// else a claim on computing it (a mismatch is counted first). When
    /// another worker holds the claim, this waits until that claim ends
    /// and looks again. Values are `Arc`s or small, so the lock is held
    /// for the lookup alone.
    fn lookup<V: Clone>(
        &self,
        pick: Pick<V>,
        key: (u64, u64),
        confirm: Confirmation,
    ) -> Lookup<'_, V> {
        let mut maps = self.maps();
        loop {
            let map = pick(&mut maps);
            let collided = match map.entries.get(&key) {
                Some((stored, value)) if *stored == confirm => {
                    bump(&self.counters.hits);
                    return Lookup::Hit(value.clone());
                }
                found => found.is_some(),
            };
            if !map.computing.contains(&key) {
                if collided {
                    bump(&self.counters.confirm_mismatches);
                }
                map.computing.push(key);
                return Lookup::Miss(Claim {
                    memo: self,
                    pick,
                    key,
                    confirm,
                    ended: false,
                });
            }
            maps.waiting += 1;
            maps = self.published.wait(maps).unwrap_or_else(|e| e.into_inner());
            maps.waiting -= 1;
        }
    }

    /// The fingerprint of `topology`: the one a pinned network or
    /// scenario body carries when it holds this very allocation, else
    /// computed (and counted). Matching by pointer is sound because the
    /// memo keeps the allocation alive, and an `Arc` held twice cannot
    /// be mutated in place: a caller that changes its copy gets a new
    /// allocation, which is fingerprinted afresh.
    fn fingerprint(&self, topology: &Arc<Topology>) -> u64 {
        let held = {
            let maps = self.maps();
            let networks = maps
                .networks
                .values()
                .filter_map(|slot| slot.get())
                .map(|n| (&n.network.0, n.topology_fp));
            let bodies = maps
                .scenarios
                .values()
                .filter_map(|slot| slot.get())
                .map(|b| (&b.scenario.topology, b.topology_fp));
            networks
                .chain(bodies)
                .find(|(held, _)| Arc::ptr_eq(held, topology))
                .map(|(_, fp)| fp)
        };
        held.unwrap_or_else(|| {
            bump(&self.counters.topology_fps);
            topology_fp(topology)
        })
    }

    /// The parsed device memoized for the text printed `print` of the
    /// router whose local key base is `base`, if an entry holds one and
    /// its confirmation matches the text's. A parse hook that finds none
    /// parses the text itself.
    fn parsed_device(&self, base: u64, print: TextPrint) -> Option<Arc<Device>> {
        let maps = self.maps();
        let (confirm, entry) = maps.local.entries.get(&(base, print.fx))?;
        if *confirm == print.confirmation() {
            entry.device.clone()
        } else {
            None
        }
    }
}

impl VerifierContext {
    /// [`local_verdict`] through the pool's memo, under the per-device
    /// key `(base, print.fx)`: `base` is the router's local key base and
    /// `print` the fingerprints of `text`. A hit whose confirmation
    /// matches costs one lookup; a mismatch is counted, recomputed and
    /// replaced; a verdict another worker is computing is waited for.
    /// `keep_device` stores the parsed device beside a clean verdict, for
    /// callers that read it back through a parse hook.
    pub(crate) fn memo_local_verdict(
        &mut self,
        topology: &Topology,
        assignment: &RouterAssignment,
        base: u64,
        text: &str,
        print: TextPrint,
        keep_device: bool,
    ) -> Option<LocalFinding> {
        let memo = Arc::clone(&self.memo);
        let claim = match memo.lookup(|m| &mut m.local, (base, print.fx), print.confirmation()) {
            Lookup::Hit(cached) => return cached.finding.as_deref().cloned(),
            Lookup::Miss(claim) => claim,
        };
        bump(&memo.counters.misses);
        let (device, finding) = local_verdict(topology, assignment, text, self);
        claim.publish(CachedLocal {
            finding: finding.clone().map(Arc::new),
            device: (keep_device && finding.is_none()).then(|| Arc::new(device)),
        });
        finding
    }

    /// The whole-network check of `snapshot` through the pool's report
    /// memo, keyed on `(base, snapshot.key())` where `base` is the
    /// scenario's report base; the one body behind repair's deferred
    /// check and synthesis's final one. On a miss the parse hook serves
    /// clones of devices the memo holds for these texts (`local_bases`
    /// aligns with the snapshot's positions) and parses the rest, so the
    /// report is byte-identical to the hook-free path either way.
    fn checked_report(
        &self,
        scenario: &Scenario,
        base: u64,
        snapshot: &ConfigSnapshot,
        local_bases: &[u64],
    ) -> GlobalCheckReport {
        let memo = &*self.memo;
        let key = (base, snapshot.key());
        let claim = match memo.lookup(|m| &mut m.global, key, snapshot.confirmation()) {
            Lookup::Hit(report) => return GlobalCheckReport::clone(&report),
            Lookup::Miss(claim) => claim,
        };
        bump(&memo.counters.misses);
        let report = composer::check_scenario_with(scenario, |name| {
            let parsed = snapshot.index_of(name).and_then(|i| {
                let text = snapshot.text(i)?;
                memo.parsed_device(local_bases[i], text.print)
            });
            match parsed {
                Some(device) => Device::clone(&device),
                None => composer::lower_internal(name, snapshot.get(name)),
            }
        });
        claim.publish(Arc::new(report.clone()));
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
    /// the scenario's statics bundle up in the pool's memo.
    pub(crate) fn new(scenario: &Scenario, ctx: &mut VerifierContext) -> Self {
        let (key, statics) = statics_for(scenario, &ctx.memo);
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
    /// the whole **report** is served from the pool's memo when this
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
    /// policies, configs)`, so a snapshot the pool has swept before is
    /// answered from the pool's memo for the cost of folding the texts'
    /// fingerprints — the per-intent reference snapshot every converging
    /// session ends on makes this the common case on a pinned family.
    pub(crate) fn localize(
        &mut self,
        scenario: &Scenario,
        snapshot: &ConfigSnapshot,
        ctx: &mut VerifierContext,
    ) -> Option<Localization> {
        debug_assert!(snapshot.follows(&self.statics.layout));
        let memo = Arc::clone(&ctx.memo);
        let key = (self.sweep_base, snapshot.key());
        let claim = match memo.lookup(|m| &mut m.sweep, key, snapshot.confirmation()) {
            Lookup::Hit(verdict) => return verdict.as_deref().cloned(),
            Lookup::Miss(claim) => claim,
        };
        let verdict = self.localize_uncached(scenario, snapshot, ctx);
        claim.publish(verdict.clone().map(Arc::new));
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
                    let memo = Arc::clone(&ctx.memo);
                    let ckey = (statics.campion_bases[i], text.print.fx);
                    let confirm = text.print.confirmation();
                    let verdict = match memo.lookup(|m| &mut m.campion, ckey, confirm) {
                        Lookup::Hit(verdict) => verdict.as_deref().cloned(),
                        Lookup::Miss(claim) => {
                            bump(&memo.counters.misses);
                            // The device passed its local channels this
                            // round, so the reparse is warning-free —
                            // and skippable when the pool's memo still
                            // holds the parse.
                            let device = memo
                                .parsed_device(statics.local_bases[i], text.print)
                                .unwrap_or_else(|| {
                                    let parsed =
                                        composer::parse_internal(&assignment.name, text.as_str());
                                    Arc::new(parsed.device)
                                });
                            let verdict =
                                repair::campion_verdict_in(assignment, text.as_str(), &device, ctx);
                            claim.publish(verdict.clone().map(Arc::new));
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
        let planted = ctx.memo.maps().sweep.entries[&(inc.sweep_base, a.key())].clone();
        let b_key = (inc.sweep_base, b.key());
        ctx.memo.maps().sweep.entries.insert(b_key, planted);

        let mut inc = IncrementalVerifier::new(&scenario, &mut ctx);
        assert_eq!(inc.localize(&scenario, &b, &mut ctx), expected);
        assert_eq!(ctx.memo_counters().confirm_mismatches, 1);
        let (confirm, replaced) = ctx.memo.maps().sweep.entries[&b_key].clone();
        assert_eq!(
            (confirm, replaced.as_deref().cloned()),
            (b.confirmation(), expected.clone())
        );
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
            .maps()
            .local
            .entries
            .remove(&(base, print_a.fx))
            .expect("inserted");
        ctx.memo
            .maps()
            .local
            .entries
            .insert((base, print_b.fx), planted);
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
    fn a_panicking_build_or_a_poisoned_lock_leaves_the_shared_memo_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let memo = VerdictMemo::for_pool(2);
        let mut first = VerifierContext::with_memo(Arc::clone(&memo));
        let mut second = VerifierContext::with_memo(Arc::clone(&memo));
        // A draw that panics mid-build, as a chaos-injected panic would,
        // publishes nothing.
        let drawn = catch_unwind(AssertUnwindSafe(|| {
            first.pinned_network("as-graph-64", 1, || panic!("injected draw panic"))
        }));
        assert!(drawn.is_err());
        assert_eq!(memo.counters(), MemoCounters::default());
        // A verdict computation that panics ends its claim unpublished.
        let key = (1, 2);
        let claimed = catch_unwind(AssertUnwindSafe(|| {
            let Lookup::Miss(_claim) = memo.lookup(|m| &mut m.sweep, key, (3, 4)) else {
                unreachable!("an empty memo misses");
            };
            panic!("injected panic mid-verdict");
        }));
        assert!(claimed.is_err());
        assert!(memo.maps().sweep.computing.is_empty());
        assert!(memo.maps().sweep.entries.is_empty());
        // A panic while the lock is held poisons it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _held = memo.maps();
            panic!("injected panic under the memo lock");
        }));
        assert!(memo.maps.is_poisoned());

        // The other context still draws, and both answer from the memo.
        let network = second.pinned_network("as-graph-64", 1, || {
            scenario_gen::pinned_network("as-graph-64", 1).expect("large family")
        });
        let again = first.pinned_network("as-graph-64", 1, || unreachable!("drawn above"));
        assert!(Arc::ptr_eq(&network, &again));
        let scenario = scenario_gen::generate(3, 1);
        let assignments = Modularizer::assign_scenario(&scenario);
        let a = &assignments[0];
        let text = render_reference(&a.prompt);
        let base = local_key_bases(&scenario.topology, &assignments)[0];
        let print = TextPrint::of(&text);
        for ctx in [&mut second, &mut first] {
            let finding = ctx.memo_local_verdict(&scenario.topology, a, base, &text, print, false);
            assert!(finding.is_none(), "a reference text is clean");
        }
        // And the pool counts once: one draw, one reuse, one verdict
        // computed and answered once.
        let c = memo.counters();
        assert_eq!((c.networks_drawn, c.networks_reused), (1, 1), "{c:?}");
        assert_eq!((c.verdict_misses, c.verdict_hits), (1, 1), "{c:?}");
        assert_eq!(c.topology_fps, 1, "{c:?}");
        // The key the panicked claim held is free: the next lookup
        // claims it instead of waiting forever.
        assert!(matches!(
            memo.lookup(|m| &mut m.sweep, key, (3, 4)),
            Lookup::Miss(_)
        ));
    }

    #[test]
    fn a_worker_asking_for_a_network_mid_draw_waits_for_that_draw() {
        let memo = VerdictMemo::for_pool(2);
        let drawing = std::sync::Barrier::new(2);
        let networks = std::thread::scope(|scope| {
            let drawer = scope.spawn(|| {
                let mut ctx = VerifierContext::with_memo(Arc::clone(&memo));
                ctx.pinned_network("as-graph-64", 1, || {
                    drawing.wait();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    scenario_gen::pinned_network("as-graph-64", 1).expect("large family")
                })
            });
            let waiter = scope.spawn(|| {
                drawing.wait();
                let mut ctx = VerifierContext::with_memo(Arc::clone(&memo));
                ctx.pinned_network("as-graph-64", 1, || unreachable!("the other worker draws"))
            });
            [drawer.join().unwrap(), waiter.join().unwrap()]
        });
        assert!(Arc::ptr_eq(&networks[0], &networks[1]));
        let c = memo.counters();
        assert_eq!((c.networks_drawn, c.networks_reused), (1, 1), "{c:?}");
    }

    #[test]
    fn local_entries_stay_compact() {
        // 4,096 entries per worker take 8,192 buckets: every byte of a
        // value counts twice per worker of the pool.
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
