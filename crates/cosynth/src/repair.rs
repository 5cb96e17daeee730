//! Use case 3: fault repair — start from a broken *running* config,
//! localize the fault, and let the verifier loop drive the fix.
//!
//! The synthesis and translation drivers begin from an LLM draft; this
//! driver begins from a known-good snapshot that `fault-inject` has
//! broken. Each round it re-verifies the whole snapshot through the
//! same machinery the synthesis loop uses — `bf-lite` parse warnings,
//! the topology verifier, the cached symbolic local checks — and, when
//! those channels are silent, falls back to a `campion-lite`-style
//! structural/behavioral diff of each router against the *intent* (the
//! reference device rebuilt from its Modularizer prompt). The first
//! finding becomes a [`Localization`]: suspect router plus a line span
//! in its rendered config, which is also what makes localization
//! precision measurable against `fault-inject`'s ground truth.
//!
//! The localized router is then re-prompted with the repair task (its
//! description and policy sentences, the localization hint, and the
//! broken config). Repair prompts are automated until the per-session
//! attempt budget is spent, after which the session escalates to the
//! human rewrite instruction — same leverage accounting as the other
//! two use cases.

use crate::composer::{check_scenario_with, lower_internal, GlobalCheckReport};
use crate::humanizer::Humanizer;
use crate::iip::IipDatabase;
use crate::incremental::{
    check_map, local_verdict, IncrementalVerifier, LocalFinding, RepairJob, VerifyMode,
};
use crate::leverage::Leverage;
use crate::modularizer::{Modularizer, RouterAssignment};
use crate::session::{
    LoggedPrompt, PromptKind, RetryPolicy, SessionBudget, SessionLimits, SessionTranscript,
    TransportStats,
};
use crate::snapshot::ConfigSnapshot;
use crate::verifier_ctx::VerifierContext;
use campion_lite::CampionFinding;
use fault_inject::{GroundTruth, Injection};
use llm_sim::{prompts, CostLedger, LanguageModel};
use std::collections::BTreeMap;
use telemetry::Stage;
use topo_model::{Scenario, TopologyFinding};

/// A localized fault: the suspect router and a 1-based inclusive line
/// span in its current rendered config, plus the verifier finding that
/// implicated it (reused verbatim as the repair prompt's hint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Localization {
    /// Suspect router.
    pub device: String,
    /// First suspect line (1-based, inclusive).
    pub line_start: usize,
    /// Last suspect line (1-based, inclusive).
    pub line_end: usize,
    /// The humanized finding that pointed here.
    pub reason: String,
}

impl Localization {
    /// Localizes a local finding to router `device`: the line span of
    /// `text` it implicates and the humanized finding.
    pub(crate) fn of(device: &str, finding: &LocalFinding, text: &str) -> Self {
        let ((line_start, line_end), reason) = match finding {
            LocalFinding::Syntax(w) => {
                let span = if w.line > 0 {
                    (w.line, w.line)
                } else {
                    whole_file(text)
                };
                (span, Humanizer::syntax(w))
            }
            LocalFinding::Topology(f) => (topology_span(text, f), Humanizer::topology(f)),
            LocalFinding::Semantic { check, witness } => {
                let map = check_map(check);
                let span = map_span(text, &map).unwrap_or(whole_file(text));
                (span, Humanizer::semantic(&map, check, witness))
            }
        };
        Localization {
            device: device.to_string(),
            line_start,
            line_end,
            reason,
        }
    }

    /// Whether this localization agrees with the injector's ground
    /// truth: same device, overlapping line spans. Computable without
    /// re-parsing any config — the metadata carries everything.
    pub fn agrees(&self, fault: &GroundTruth) -> bool {
        self.device == fault.device
            && self.line_start <= fault.line_end
            && fault.line_start <= self.line_end
    }
}

/// The outcome of one repair session.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Final per-router configs.
    pub configs: BTreeMap<String, String>,
    /// Whether the snapshot verifies again: all local checks pass and
    /// the scenario's global expectations hold.
    pub repaired: bool,
    /// Repair prompts issued (auto + human) before the verdict.
    pub rounds: usize,
    /// The first localization of the session (`None` when the snapshot
    /// verified immediately — nothing to localize).
    pub first_localization: Option<Localization>,
    /// The final whole-network check report.
    pub global: GlobalCheckReport,
    /// Prompt accounting.
    pub leverage: Leverage,
    /// Full prompt log.
    pub log: Vec<LoggedPrompt>,
    /// Whether the session stopped early on its [`SessionBudget`].
    pub deadline_exceeded: bool,
    /// Transport retry/escalation accounting for the whole session.
    pub transport: TransportStats,
    /// Where the session's wall-clock went, by pipeline stage
    /// (localization rounds, backend calls, re-simulations). Span
    /// counts are deterministic; durations are wall-clock.
    pub trace: telemetry::SessionTrace,
    /// Per-backend model-cost accounting for this session (calls ×
    /// unit milli-cost, with simulated latency).
    pub cost: CostLedger,
}

/// The repair session driver.
pub struct RepairSession {
    /// Loop bounds: `attempts_per_finding` automated repair prompts
    /// before the human rewrite escalation, `max_rounds` total repair
    /// prompts before the session gives up. Repair rounds are whole
    /// snapshot re-verifications, so the default bound is far tighter
    /// than the synthesis loop's.
    pub limits: SessionLimits,
    /// The IIP database loaded at chat start.
    pub iips: IipDatabase,
    /// Per-session deadline (default unlimited).
    pub budget: SessionBudget,
    /// Transport retry policy.
    pub retry: RetryPolicy,
    /// Re-verification strategy (default: incremental, sequential).
    /// Per-seed session content is byte-identical across every mode —
    /// only wall-clock, trace span counts, and pool counters differ;
    /// `cosynth-fleet` pins this A/B identity.
    pub verify: VerifyMode,
}

impl Default for RepairSession {
    fn default() -> Self {
        RepairSession {
            limits: SessionLimits {
                attempts_per_finding: SessionLimits::default().attempts_per_finding,
                max_rounds: 6,
            },
            iips: IipDatabase::paper_default(),
            budget: SessionBudget::default(),
            retry: RetryPolicy::default(),
            verify: VerifyMode::default(),
        }
    }
}

impl RepairSession {
    /// Runs the session: localize, prompt, re-verify, until the
    /// scenario's expectations hold or the round budget is spent.
    /// Builds a one-shot verifier context; resident workers use
    /// [`RepairSession::run_in`].
    pub fn run<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        scenario: &Scenario,
        injection: &Injection,
    ) -> RepairOutcome {
        self.run_in(
            llm,
            scenario,
            injection,
            &mut VerifierContext::without_pooling(),
        )
    }

    /// [`RepairSession::run`] against a caller-owned [`VerifierContext`]
    /// whose manager pool survives the session — the resident-worker
    /// entry point for a broken snapshot the caller built itself. The
    /// map becomes a [`ConfigSnapshot`], which hashes every text once.
    /// Content and accounting are byte-identical to the one-shot path
    /// and to [`RepairSession::run_job`] on the same fault.
    pub fn run_in<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        scenario: &Scenario,
        injection: &Injection,
        ctx: &mut VerifierContext,
    ) -> RepairOutcome {
        let inc = self
            .verify
            .incremental
            .then(|| IncrementalVerifier::new(scenario, ctx));
        let snapshot = match &inc {
            Some(inc) => ConfigSnapshot::with_layout(inc.layout(), &injection.configs),
            None => ConfigSnapshot::from_map(
                scenario.topology.internal_routers().map(|r| r.name.clone()),
                &injection.configs,
            ),
        };
        self.run_snapshot(llm, scenario, snapshot, inc, ctx)
    }

    /// Runs a job prepared by [`VerifierContext::prepare_repair`]: the
    /// session starts from the job's snapshot, which shares every
    /// unbroken text with the worker's reference snapshot, and reuses the
    /// statics bundle the preparation looked up.
    pub fn run_job<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        job: &RepairJob,
        ctx: &mut VerifierContext,
    ) -> RepairOutcome {
        let inc = self
            .verify
            .incremental
            .then(|| IncrementalVerifier::for_job(job));
        self.run_snapshot(llm, job.scenario(), job.snapshot().clone(), inc, ctx)
    }

    /// The one repair loop of both verification modes.
    fn run_snapshot<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        scenario: &Scenario,
        mut configs: ConfigSnapshot,
        mut inc: Option<IncrementalVerifier>,
        ctx: &mut VerifierContext,
    ) -> RepairOutcome {
        ctx.begin_session();
        let cost0 = llm.cost();
        let mut t = SessionTranscript::new(llm, self.iips.system_message())
            .with_budget(self.budget)
            .with_retry(self.retry);
        let mut first_localization: Option<Localization> = None;
        let mut rounds = 0usize;
        let mut deadline_exceeded = false;
        // Assignments are pure in (topology, policies); incremental mode
        // shares one Arc'd copy across sessions on a pinned family via
        // the pool's memo instead of re-deriving ~n prompts per session.
        // Same bytes either way, so content stays identical across modes.
        let assignments_arc = match inc.as_ref() {
            Some(inc) => inc.assignments(),
            None => std::sync::Arc::new(Modularizer::assign_scenario(scenario)),
        };
        let assignments: &[RouterAssignment] = &assignments_arc;
        // Incremental mode memoizes per-device verdicts across rounds
        // and defers the whole-network simulation until its result is
        // observable (`global` is `None` while stale). Full mode keeps
        // the historical eager schedule: one sim up front and one after
        // every edit. Both modes simulate exactly the configs the
        // outcome reports, so `outcome.global` — like every other
        // content field — is byte-identical between them.
        let mut global = if inc.is_some() {
            None
        } else {
            Some(
                t.trace
                    .time(Stage::Sim, || simulate(scenario, &configs, None, ctx)),
            )
        };
        let repaired = loop {
            // The localize span covers the whole sweep; the space
            // build/hit (and parse) spans it contains are recorded
            // separately into the context's trace, so stage totals
            // overlap by design.
            let loc = t.trace.time(Stage::Localize, || match inc.as_mut() {
                Some(inc) => inc.localize(scenario, &configs, ctx),
                None => localize_by(scenario, assignments, |name| configs.get(name), ctx),
            });
            if loc.is_none() {
                let report = global.get_or_insert_with(|| {
                    t.trace.time(Stage::Sim, || {
                        simulate(scenario, &configs, inc.as_ref(), ctx)
                    })
                });
                if report.holds() {
                    break true;
                }
            }
            if t.over_budget() {
                deadline_exceeded = true;
                break false;
            }
            if rounds >= self.limits.max_rounds {
                break false;
            }
            // A failing global check with every local channel silent
            // still needs a target; fall back to the first policy
            // router (scored as a localization miss).
            let loc = loc.unwrap_or_else(|| fallback_localization(assignments, &configs));
            if first_localization.is_none() {
                first_localization = Some(loc.clone());
            }
            rounds += 1;
            let assignment = assignments
                .iter()
                .find(|a| a.name == loc.device)
                .expect("localization names an internal router");
            let escalate = rounds > self.limits.attempts_per_finding;
            let kind = if escalate {
                PromptKind::Human
            } else {
                PromptKind::Auto
            };
            let current = configs.get(&loc.device).unwrap_or_default();
            let prompt = repair_prompt(assignment, &loc, current, escalate);
            let next = t.send_expecting_config(kind, prompt, current);
            configs.set(&loc.device, next);
            global = match inc.as_mut() {
                Some(inc) => {
                    // The edit dirties its dependency neighborhood and
                    // staleness-marks the sim; both are recomputed only
                    // when next observed.
                    inc.invalidate_edit(&loc.device);
                    None
                }
                None => Some(
                    t.trace
                        .time(Stage::Sim, || simulate(scenario, &configs, None, ctx)),
                ),
            };
        };
        // Incremental mode simulates a snapshot only once its report is
        // observable: here, when the session stopped without a clean
        // sweep.
        let global = global.unwrap_or_else(|| {
            t.trace.time(Stage::Sim, || {
                simulate(scenario, &configs, inc.as_ref(), ctx)
            })
        });
        let mut trace = t.trace;
        trace.merge(&ctx.trace);
        let cost = t.backend_cost().since(&cost0);
        RepairOutcome {
            configs: configs.to_map(),
            repaired,
            rounds,
            first_localization,
            global,
            leverage: t.leverage,
            log: t.log,
            deadline_exceeded,
            transport: t.transport,
            trace,
            cost,
        }
    }
}

/// The whole-network check of `configs`: through the incremental
/// verifier's report memo and parse hook when there is one, else the
/// reference path that parses every router.
fn simulate(
    scenario: &Scenario,
    configs: &ConfigSnapshot,
    inc: Option<&IncrementalVerifier>,
    ctx: &mut VerifierContext,
) -> GlobalCheckReport {
    match inc {
        Some(inc) => inc.check_global(scenario, configs, ctx),
        None => check_scenario_with(scenario, |name| lower_internal(name, configs.get(name))),
    }
}

/// Builds the repair prompt: the router's description and policy
/// sentences (so the model can re-derive the reference), the repair task
/// sentence — or the human rewrite escalation — the localization hint,
/// and the broken config in a fence.
fn repair_prompt(
    assignment: &RouterAssignment,
    loc: &Localization,
    current: &str,
    escalate: bool,
) -> String {
    let mut p = String::new();
    for line in assignment.prompt.lines() {
        // The synthesis task sentence would ask for a fresh config; the
        // repair task below replaces it.
        if line.trim() != prompts::SYNTH_TASK {
            p.push_str(line);
            p.push('\n');
        }
    }
    p.push_str(if escalate {
        prompts::REPAIR_REWRITE
    } else {
        prompts::REPAIR_TASK
    });
    p.push('\n');
    p.push_str(&format!(
        "The verifier localized the fault near lines {}-{}: {}\n",
        loc.line_start, loc.line_end, loc.reason
    ));
    p.push_str("```\n");
    p.push_str(current);
    if !current.ends_with('\n') {
        p.push('\n');
    }
    p.push_str("```\n");
    p
}

/// Localizes the first fault the verifier channels can see, in the
/// order the VPP loop runs them: parse warnings, then the topology
/// verifier, then the cached symbolic local checks — and only when all
/// of those are silent on every router, the campion-lite structural/
/// behavioral diff against each router's intent.
pub fn localize(
    scenario: &Scenario,
    assignments: &[RouterAssignment],
    configs: &BTreeMap<String, String>,
    ctx: &mut VerifierContext,
) -> Option<Localization> {
    localize_by(
        scenario,
        assignments,
        |name| configs.get(name).map(String::as_str),
        ctx,
    )
}

/// [`localize`] over any snapshot, whose texts `text_of` looks up by
/// router name.
fn localize_by<'a>(
    scenario: &Scenario,
    assignments: &[RouterAssignment],
    text_of: impl Fn(&str) -> Option<&'a str>,
    ctx: &mut VerifierContext,
) -> Option<Localization> {
    let mut clean: Vec<(&RouterAssignment, &str, config_ir::Device)> = Vec::new();
    for assignment in assignments {
        let Some(text) = text_of(&assignment.name) else {
            continue;
        };
        match local_verdict(&scenario.topology, assignment, text, ctx) {
            (_, Some(f)) => return Some(Localization::of(&assignment.name, &f, text)),
            (device, None) => clean.push((assignment, text, device)),
        }
    }
    // Campion-style diff against the intent: the reference device
    // rebuilt from the router's own prompt is the embodiment of its
    // spec, so any structural or behavioral divergence localizes a
    // fault the local checks could not phrase (e.g. a permit flipped
    // on a clause no check is vacuously quantified over).
    for (assignment, text, device) in clean {
        if let Some(loc) = campion_verdict_in(assignment, text, &device, ctx) {
            return Some(loc);
        }
    }
    None
}

/// The campion verdict for one locally-clean device: the structural/
/// behavioral diff against the reference device rebuilt from the
/// router's own prompt. Pure in `(assignment, text, device)`.
pub(crate) fn campion_verdict_in(
    assignment: &RouterAssignment,
    text: &str,
    device: &config_ir::Device,
    ctx: &mut VerifierContext,
) -> Option<Localization> {
    let intended = llm_sim::synth_task::reference_device(&llm_sim::synth_task::understand_prompt(
        &assignment.prompt,
    ));
    // The behaviour diff builds the largest BDDs in the workspace;
    // drawing its manager from the worker pool is what keeps the
    // final (all-channels-silent) verification round off the
    // fresh-allocation path.
    let (findings, mgr) = campion_lite::compare_in(ctx.pool.acquire(), &intended, device);
    ctx.pool.release(mgr);
    findings.first().map(|f| {
        let (line_start, line_end) = campion_span(text, f);
        Localization {
            device: assignment.name.clone(),
            line_start,
            line_end,
            reason: Humanizer::campion(f),
        }
    })
}

fn fallback_localization(
    assignments: &[RouterAssignment],
    configs: &ConfigSnapshot,
) -> Localization {
    let assignment = assignments
        .iter()
        .find(|a| !a.checks.is_empty())
        .or_else(|| assignments.first())
        .expect("scenario has internal routers");
    let text = configs.get(&assignment.name).unwrap_or("");
    let (line_start, line_end) = whole_file(text);
    Localization {
        device: assignment.name.clone(),
        line_start,
        line_end,
        reason: "The global expectations fail but no local finding pinpoints a line; \
                 review this policy router."
            .to_string(),
    }
}

// ---- line-span helpers (all 1-based, inclusive) ----

fn whole_file(text: &str) -> (usize, usize) {
    (1, text.lines().count().max(1))
}

/// Span of the lines matching `pred` (first to last match).
fn matching_span(text: &str, pred: impl Fn(&str) -> bool) -> Option<(usize, usize)> {
    let mut start = None;
    let mut end = 0;
    for (i, line) in text.lines().enumerate() {
        if pred(line) {
            let n = i + 1;
            if start.is_none() {
                start = Some(n);
            }
            end = n;
        }
    }
    start.map(|s| (s, end))
}

/// Span of a block: the header lines matching `header` plus any
/// following indented continuation lines (covers multi-stanza route
/// maps and interface/router blocks alike).
fn block_span(text: &str, header: impl Fn(&str) -> bool) -> Option<(usize, usize)> {
    let mut start = None;
    let mut end = 0;
    let mut inside = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if header(line) {
            if start.is_none() {
                start = Some(n);
            }
            end = n;
            inside = true;
        } else if inside && line.starts_with(' ') {
            end = n;
        } else {
            inside = false;
        }
    }
    start.map(|s| (s, end))
}

/// Span of every stanza of `route-map <map>`.
fn map_span(text: &str, map: &str) -> Option<(usize, usize)> {
    let header = format!("route-map {map} ");
    block_span(text, |l| l.starts_with(&header))
}

/// Span of the `router bgp` block.
fn bgp_span(text: &str) -> Option<(usize, usize)> {
    block_span(text, |l| l.starts_with("router bgp"))
}

/// Span of the lines configuring neighbor `addr`.
fn neighbor_span(text: &str, addr: std::net::Ipv4Addr) -> Option<(usize, usize)> {
    let marker = format!("neighbor {addr} ");
    matching_span(text, |l| l.trim_start().starts_with(&marker))
}

fn topology_span(text: &str, f: &TopologyFinding) -> (usize, usize) {
    let span = match f {
        TopologyFinding::InterfaceAddressMismatch { iface, .. } => {
            let header = format!("interface {iface}");
            block_span(text, |l| l.trim_end() == header)
        }
        TopologyFinding::LocalAsMismatch { .. } => {
            matching_span(text, |l| l.starts_with("router bgp"))
        }
        TopologyFinding::RouterIdMismatch { .. } => {
            matching_span(text, |l| l.trim_start().starts_with("bgp router-id"))
                .or_else(|| bgp_span(text))
        }
        TopologyFinding::NeighborNotDeclared { .. }
        | TopologyFinding::NetworkNotDeclared { .. } => {
            // The artifact is *missing*; the deletion point is inside
            // the BGP block.
            bgp_span(text)
        }
        TopologyFinding::IncorrectNeighbor { addr, .. } => {
            neighbor_span(text, *addr).or_else(|| bgp_span(text))
        }
        TopologyFinding::IncorrectNetwork { prefix, .. } => {
            let marker = format!("network {}", prefix.network());
            matching_span(text, |l| l.trim_start().starts_with(&marker)).or_else(|| bgp_span(text))
        }
    };
    span.unwrap_or(whole_file(text))
}

fn campion_span(text: &str, f: &CampionFinding) -> (usize, usize) {
    let span = match f {
        CampionFinding::MissingNeighbor { addr, in_original } => {
            if *in_original {
                bgp_span(text)
            } else {
                neighbor_span(text, *addr).or_else(|| bgp_span(text))
            }
        }
        CampionFinding::MissingPolicy { neighbor, .. }
        | CampionFinding::RemoteAsMismatch { neighbor, .. } => {
            neighbor_span(text, *neighbor).or_else(|| bgp_span(text))
        }
        CampionFinding::MissingNetwork {
            prefix,
            in_original,
        } => {
            if *in_original {
                bgp_span(text)
            } else {
                let marker = format!("network {}", prefix.network());
                matching_span(text, |l| l.trim_start().starts_with(&marker))
                    .or_else(|| bgp_span(text))
            }
        }
        CampionFinding::LocalAsMismatch { .. } => {
            matching_span(text, |l| l.starts_with("router bgp"))
        }
        CampionFinding::RouterIdMismatch { .. } => {
            matching_span(text, |l| l.trim_start().starts_with("bgp router-id"))
                .or_else(|| bgp_span(text))
        }
        CampionFinding::InterfaceAddressDiff {
            translated_name, ..
        }
        | CampionFinding::OspfCostDiff {
            translated_name, ..
        }
        | CampionFinding::OspfPassiveDiff {
            translated_name, ..
        } => {
            let header = format!("interface {}", translated_name.as_str());
            block_span(text, |l| l.trim_end() == header)
        }
        CampionFinding::PolicyBehavior {
            translated_policy,
            original_policy,
            ..
        } => translated_policy
            .as_deref()
            .or(original_policy.as_deref())
            .and_then(|m| map_span(text, m)),
        CampionFinding::MissingInterface { .. } | CampionFinding::MissingRedistribution { .. } => {
            None
        }
    };
    span.unwrap_or(whole_file(text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_sim::{ErrorModel, SimulatedGpt4};
    use std::collections::BTreeSet;

    /// Clean rendered configs for every internal router of a scenario.
    fn clean_configs(scenario: &Scenario) -> BTreeMap<String, String> {
        crate::reference_configs(&Modularizer::assign_scenario(scenario))
    }

    #[test]
    fn clean_snapshots_localize_to_nothing() {
        // No false positives: every channel (including the campion
        // intent diff) must stay silent on reference snapshots, across
        // families and intents.
        for index in 0..10 {
            let scenario = scenario_gen::generate(11, index);
            let assignments = Modularizer::assign_scenario(&scenario);
            let configs = clean_configs(&scenario);
            let mut ctx = VerifierContext::new();
            let loc = localize(&scenario, &assignments, &configs, &mut ctx);
            assert!(loc.is_none(), "{}: {loc:?}", scenario.name);
        }
    }

    #[test]
    fn every_injected_class_is_localized_to_the_right_device() {
        let mut seen = BTreeSet::new();
        for index in 0..12 {
            let scenario = scenario_gen::generate(11, index);
            let assignments = Modularizer::assign_scenario(&scenario);
            let configs = clean_configs(&scenario);
            for injection in fault_inject::corpus(&configs, 100 + index as u64) {
                let mut ctx = VerifierContext::new();
                let loc = localize(&scenario, &assignments, &injection.configs, &mut ctx)
                    .unwrap_or_else(|| {
                        panic!(
                            "{}: {:?} must be localizable",
                            scenario.name, injection.fault
                        )
                    });
                assert_eq!(
                    loc.device, injection.fault.device,
                    "{}: {:?} vs {loc:?}",
                    scenario.name, injection.fault
                );
                assert!(
                    loc.agrees(&injection.fault),
                    "{}: span miss {:?} vs {loc:?}",
                    scenario.name,
                    injection.fault
                );
                seen.insert(injection.fault.class);
            }
        }
        assert!(
            seen.len() >= 8,
            "corpus must exercise (nearly) all classes: {seen:?}"
        );
    }

    #[test]
    fn repair_session_fixes_an_injected_fault() {
        let scenario = scenario_gen::generate(3, 1); // ring family
        let configs = clean_configs(&scenario);
        let injection = fault_inject::inject(&configs, 5).expect("applicable fault");
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 17);
        let outcome = RepairSession::default().run(&mut llm, &scenario, &injection);
        assert!(outcome.repaired, "{:#?}", outcome.log.last());
        assert!(outcome.rounds >= 1);
        let loc = outcome.first_localization.expect("fault was localized");
        assert!(
            loc.agrees(&injection.fault),
            "{loc:?} vs {:?}",
            injection.fault
        );
        assert!(outcome.global.holds());
    }

    #[test]
    fn repair_deadline_yields_typed_outcome() {
        let scenario = scenario_gen::generate(3, 1);
        let configs = clean_configs(&scenario);
        let injection = fault_inject::inject(&configs, 5).expect("applicable fault");
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 17);
        let session = RepairSession {
            budget: SessionBudget {
                max_wall_ms: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let outcome = session.run(&mut llm, &scenario, &injection);
        assert!(outcome.deadline_exceeded, "an expired budget must trip");
        assert!(!outcome.repaired);
        assert_eq!(outcome.rounds, 0, "no repair prompt past the deadline");
    }

    #[test]
    fn dead_transport_repair_escalates_every_send_and_still_fixes() {
        // Every request times out: each send burns its whole retry
        // budget, escalates to the human re-issue, and the session still
        // lands the fix — the worst transport cannot wedge a repair.
        let scenario = scenario_gen::generate(3, 1);
        let configs = clean_configs(&scenario);
        let injection = fault_inject::inject(&configs, 5).expect("applicable fault");
        let mut model = ErrorModel::paper_default();
        model.transport = llm_sim::TransportModel {
            p_timeout: 1.0,
            ..Default::default()
        };
        let mut llm = SimulatedGpt4::new(model, 17);
        let outcome = RepairSession::default().run(&mut llm, &scenario, &injection);
        assert!(outcome.repaired, "{:#?}", outcome.log.last());
        assert!(outcome.transport.retries > 0, "dead backend forces retries");
        assert_eq!(
            outcome.transport.escalations,
            outcome.log.len(),
            "every send exhausts its budget"
        );
        assert_eq!(
            outcome.transport.retries,
            outcome.log.len() * RetryPolicy::default().max_retries
        );
    }

    #[test]
    fn stalled_auto_repairs_escalate_to_the_human_channel() {
        // A model that always fixes the wrong line never repairs on the
        // automated channel; the session must escalate and the forced
        // rewrite must land the fix.
        let scenario = scenario_gen::generate(3, 0);
        let configs = clean_configs(&scenario);
        let injection = fault_inject::inject(&configs, 9).expect("applicable fault");
        let mut model = ErrorModel::paper_default();
        model.p_repair_wrong_line = 1.0;
        let mut llm = SimulatedGpt4::new(model, 4);
        let outcome = RepairSession::default().run(&mut llm, &scenario, &injection);
        assert!(outcome.repaired, "{:#?}", outcome.log.last());
        assert!(outcome.leverage.human >= 1, "{}", outcome.leverage);
        assert_eq!(
            outcome.leverage.auto,
            SessionLimits::default().attempts_per_finding
        );
        assert!(outcome.rounds > SessionLimits::default().attempts_per_finding);
    }

    #[test]
    fn repair_outcome_is_deterministic_per_seed() {
        let scenario = scenario_gen::generate(7, 2);
        let configs = clean_configs(&scenario);
        let injection = fault_inject::inject(&configs, 13).expect("applicable fault");
        let run = || {
            let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 99);
            RepairSession::default().run(&mut llm, &scenario, &injection)
        };
        let a = run();
        let b = run();
        assert_eq!(a.repaired, b.repaired);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.configs, b.configs);
        assert_eq!(a.leverage, b.leverage);
        assert_eq!(a.first_localization, b.first_localization);
    }
}
