//! Use case 2: global no-transit policy via local synthesis (Section 4).
//!
//! Local style: the Modularizer decomposes the global policy into
//! per-router prompts and Lightyear-style local checks; each router goes
//! through syntax → topology → semantics loops; the Composer then runs
//! the whole-network simulation as the final global check.
//!
//! Global style (the ablation of Section 4.1): the whole policy is given
//! at once and feedback is a whole-network counterexample — which the
//! paper found leaves GPT-4 "confused and oscillating between incorrect
//! strategies".

use crate::composer::{check_scenario, compose_and_check, GlobalCheckReport};
use crate::humanizer::{HumanFixKind, Humanizer};
use crate::iip::IipDatabase;
use crate::incremental::{check_map, local_verdict, DraftKeys, LocalFinding};
use crate::leverage::Leverage;
use crate::modularizer::{Modularizer, RouterAssignment};
use crate::session::{
    LoggedPrompt, PromptKind, RetryPolicy, SessionBudget, SessionLimits, SessionTranscript,
    TransportStats,
};
use crate::snapshot::TextPrint;
use crate::verifier_ctx::VerifierContext;
use llm_sim::{CostLedger, LanguageModel};
use net_model::WarningKind;
use std::collections::BTreeMap;
use telemetry::{SessionTrace, Stage};
use topo_model::{star, Scenario, StarRoles, Topology};

/// Whether the policy is specified per router (local) or all at once
/// (global).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecStyle {
    /// Lightyear-style local policies per router.
    Local,
    /// One global specification (the oscillation ablation).
    Global,
}

/// The outcome of a synthesis session.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// Per-router final configs.
    pub configs: BTreeMap<String, String>,
    /// Whether all per-router loops verified (syntax + topology + local
    /// policies).
    pub verified_local: bool,
    /// The whole-network check report.
    pub global: GlobalCheckReport,
    /// Whether the session converged at all (the global style may not).
    pub converged: bool,
    /// Prompt accounting.
    pub leverage: Leverage,
    /// Full prompt log.
    pub log: Vec<LoggedPrompt>,
    /// Symbolic-space cache lookups answered from a warm space (see
    /// [`crate::space_cache`]). Zero for the global style, which runs no
    /// local symbolic checks.
    pub space_cache_hits: usize,
    /// Symbolic-space cache (re)builds: first sight of a router draft or
    /// a rectification edit to it.
    pub space_cache_misses: usize,
    /// Whether the session stopped early because it tripped its
    /// [`SessionBudget`] (a typed outcome, not a panic).
    pub deadline_exceeded: bool,
    /// Transport retry/escalation accounting for the whole session.
    pub transport: TransportStats,
    /// Where the session's wall-clock went, by pipeline stage. Span
    /// *counts* are deterministic session content; durations are
    /// wall-clock (and excluded from trace equality).
    pub trace: SessionTrace,
    /// Per-backend model-cost accounting for this session (calls ×
    /// unit milli-cost, with simulated latency). Empty for cost-free
    /// backends like the scripted test doubles.
    pub cost: CostLedger,
}

/// The synthesis session driver.
pub struct SynthesisSession {
    /// Loop bounds.
    pub limits: SessionLimits,
    /// The IIP database loaded at chat start.
    pub iips: IipDatabase,
    /// Specification style.
    pub style: SpecStyle,
    /// Attempt bound for the global style before declaring divergence.
    pub max_global_attempts: usize,
    /// Per-session deadline (default unlimited).
    pub budget: SessionBudget,
    /// Transport retry policy.
    pub retry: RetryPolicy,
    /// Re-verification strategy (default: incremental). Incremental mode
    /// checks each draft through the worker's verdict memo, so a draft
    /// the worker has checked before — the model often returns one
    /// unchanged — costs one hash, and sends the final whole-network
    /// check through the report memo. Full mode recomputes every verdict
    /// and report. Session content is byte-identical across the two (the
    /// fleet A/B test pins it); trace span counts, memo counters and
    /// space-cache counters differ.
    pub verify: crate::incremental::VerifyMode,
}

impl Default for SynthesisSession {
    fn default() -> Self {
        SynthesisSession {
            limits: SessionLimits::default(),
            iips: IipDatabase::paper_default(),
            style: SpecStyle::Local,
            max_global_attempts: 6,
            budget: SessionBudget::default(),
            retry: RetryPolicy::default(),
            verify: crate::incremental::VerifyMode::default(),
        }
    }
}

impl SynthesisSession {
    /// Runs the session on a generated star with `n_isps` edge routers.
    pub fn run<M: LanguageModel + ?Sized>(&self, llm: &mut M, n_isps: usize) -> SynthesisOutcome {
        let (topology, roles) = star(n_isps);
        self.run_on(llm, &topology, &roles)
    }

    /// Runs the session on an existing topology.
    pub fn run_on<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        topology: &Topology,
        roles: &StarRoles,
    ) -> SynthesisOutcome {
        match self.style {
            SpecStyle::Local => self.run_local(llm, topology, roles),
            SpecStyle::Global => self.run_global(llm, topology, roles),
        }
    }

    /// Runs the session on any generated scenario: the same per-router
    /// VPP loop as the star experiment, followed by the scenario's own
    /// whole-network expectations. Builds a one-shot verifier context;
    /// resident workers use [`SynthesisSession::run_scenario_in`].
    pub fn run_scenario<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        scenario: &Scenario,
    ) -> SynthesisOutcome {
        self.run_scenario_in(llm, scenario, &mut VerifierContext::without_pooling())
    }

    /// [`SynthesisSession::run_scenario`] against a caller-owned
    /// [`VerifierContext`]: the context's manager pool and verdict memo
    /// survive the session, so a worker that runs many sessions
    /// amortizes BDD table allocation, draft checks and final
    /// simulations across all of them. Session content and accounting
    /// are byte-identical to the one-shot path.
    pub fn run_scenario_in<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        scenario: &Scenario,
        ctx: &mut VerifierContext,
    ) -> SynthesisOutcome {
        let mut drive = self.drive_scenario(llm, scenario, ctx);
        let global = drive.trace.time(Stage::Sim, || match &drive.keys {
            Some(keys) => keys.check_global(scenario, &drive.assignments, &drive.configs, ctx),
            None => check_scenario(scenario, &drive.configs),
        });
        drive.into_outcome(global)
    }

    fn run_local<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        topology: &Topology,
        roles: &StarRoles,
    ) -> SynthesisOutcome {
        // The star is just a scenario: the per-router loops (and with
        // them all leverage/escalation accounting) run through the one
        // shared path, so the two entry points cannot drift. Only the
        // final whole-network report differs — the star keeps its named
        // no-transit violation classes (TransitLeak & friends).
        let scenario = Modularizer::star_scenario(topology, roles);
        let mut ctx = VerifierContext::without_pooling();
        let mut drive = self.drive_scenario(llm, &scenario, &mut ctx);
        let global = drive.trace.time(Stage::Sim, || {
            compose_and_check(topology, roles, &drive.configs)
        });
        drive.into_outcome(global)
    }

    /// Drives every per-router syntax → topology → semantics loop of a
    /// scenario through one transcript and one space cache. This is the
    /// **single** accounting path behind both [`Self::run_on`] (the
    /// paper's star) and [`Self::run_scenario`] (generated scenarios):
    /// prompts, escalations from a failed verify, and cache counters are
    /// tallied here and nowhere else. In incremental mode it also
    /// computes the session's memo keys.
    fn drive_scenario<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        scenario: &Scenario,
        ctx: &mut VerifierContext,
    ) -> ScenarioDrive {
        ctx.begin_session();
        let cost0 = llm.cost();
        let mut t = SessionTranscript::new(llm, self.iips.system_message())
            .with_budget(self.budget)
            .with_retry(self.retry);
        let mut configs = BTreeMap::new();
        let mut verified_local = true;
        let mut deadline_exceeded = false;
        let assignments = t.trace.time(Stage::PromptRender, || {
            Modularizer::assign_scenario(scenario)
        });
        let mut keys = self
            .verify
            .incremental
            .then(|| DraftKeys::new(&scenario.topology, &assignments));
        for (i, assignment) in assignments.iter().enumerate() {
            let (config, print, ok, over) = if t.over_budget() {
                // The deadline tripped between routers: remaining routers
                // get no drafts and the session reports the typed outcome.
                (String::new(), None, false, true)
            } else {
                let base = keys.as_ref().map(|k| k.local[i]);
                self.rectify_router(&mut t, ctx, &scenario.topology, assignment, base)
            };
            deadline_exceeded |= over;
            verified_local &= ok;
            if let Some(keys) = &mut keys {
                keys.finish(&config, print);
            }
            configs.insert(assignment.name.clone(), config);
        }
        let mut trace = t.trace;
        trace.merge(&ctx.trace);
        let cost = t.backend_cost().since(&cost0);
        ScenarioDrive {
            configs,
            assignments,
            keys,
            verified_local,
            leverage: t.leverage,
            log: t.log,
            space_cache_hits: ctx.cache.hits,
            space_cache_misses: ctx.cache.misses,
            deadline_exceeded,
            transport: t.transport,
            trace,
            cost,
        }
    }

    /// Drives one router's syntax → topology → semantics loop. Returns
    /// the final config text, its fingerprints if a round computed them,
    /// whether all three phases verified, and whether the deadline
    /// tripped.
    ///
    /// Each round checks the current draft once ([`local_verdict`]):
    /// through the worker's verdict memo under the router's key `base` in
    /// incremental mode, directly in full mode. The symbolic checks run
    /// on `ctx`'s session-scoped space cache, so a rectification edit to
    /// this router invalidates only this router's space.
    fn rectify_router<M: LanguageModel + ?Sized>(
        &self,
        t: &mut SessionTranscript<'_, M>,
        ctx: &mut VerifierContext,
        topology: &Topology,
        assignment: &RouterAssignment,
        base: Option<u64>,
    ) -> (String, Option<TextPrint>, bool, bool) {
        let mut current = t.send_expecting_config(PromptKind::Task, assignment.prompt.clone(), "");
        // `current`'s fingerprints, once a round has computed them.
        let mut print = None;
        let mut attempts: BTreeMap<String, usize> = BTreeMap::new();
        let mut rounds = 0usize;
        let mut router_ok = false;
        let mut over_budget = false;
        while rounds < self.limits.max_rounds {
            if t.over_budget() {
                over_budget = true;
                break;
            }
            rounds += 1;
            let finding = match base {
                Some(base) => {
                    let p = *print.get_or_insert_with(|| TextPrint::of(&current));
                    ctx.memo_local_verdict(topology, assignment, base, &current, p, false)
                }
                None => local_verdict(topology, assignment, &current, ctx).1,
            };
            let Some(finding) = finding else {
                router_ok = true;
                break;
            };
            // A finding the model left the draft unchanged on
            // `attempts_per_finding` times escalates to the human.
            let key = attempt_key(&finding);
            let stalled =
                attempts.get(&key).copied().unwrap_or(0) >= self.limits.attempts_per_finding;
            let (kind, prompt) = rectification(&finding, stalled);
            let next = t.send_expecting_config(kind, prompt, &current);
            if next == current {
                *attempts.entry(key).or_insert(0) += 1;
            } else {
                print = None;
            }
            current = next;
        }
        (current, print, router_ok, over_budget)
    }

    fn run_global<M: LanguageModel + ?Sized>(
        &self,
        llm: &mut M,
        topology: &Topology,
        roles: &StarRoles,
    ) -> SynthesisOutcome {
        let cost0 = llm.cost();
        let mut t = SessionTranscript::new(llm, self.iips.system_message())
            .with_budget(self.budget)
            .with_retry(self.retry);
        let prompt = t
            .trace
            .time(Stage::PromptRender, || Modularizer::global_prompt(topology));
        let mut response = t.send(PromptKind::Task, prompt);
        let mut configs = parse_multi_configs(&response);
        let mut converged = false;
        let mut global = t
            .trace
            .time(Stage::Sim, || compose_and_check(topology, roles, &configs));
        let mut deadline_exceeded = false;
        for _ in 0..self.max_global_attempts {
            if global.holds() {
                converged = true;
                break;
            }
            if t.over_budget() {
                deadline_exceeded = true;
                break;
            }
            // Whole-network counterexample feedback (Minesweeper-style),
            // which the paper found unactionable for GPT-4.
            let feedback = match global.violations.first() {
                Some(crate::composer::GlobalViolation::TransitLeak {
                    from_isp,
                    to_isp,
                    prefix,
                }) => format!(
                    "The no-transit policy is violated: a packet to {prefix} \
                     (announced by {from_isp}) can be forwarded from {to_isp} through \
                     the network. Fix the configurations."
                ),
                Some(crate::composer::GlobalViolation::CustomerUnreachable { at_isp }) => {
                    format!(
                        "The policy is violated: the CUSTOMER prefix is not reachable \
                         from {at_isp}. Fix the configurations."
                    )
                }
                Some(crate::composer::GlobalViolation::IspUnreachableFromCustomer {
                    isp, ..
                }) => format!(
                    "The policy is violated: {isp}'s prefix is not reachable from the \
                     CUSTOMER. Fix the configurations."
                ),
                Some(crate::composer::GlobalViolation::MissingRoute { at, prefix }) => format!(
                    "The policy is violated: {prefix} is not reachable from {at}. \
                     Fix the configurations."
                ),
                Some(crate::composer::GlobalViolation::ForbiddenRoute { at, prefix }) => format!(
                    "The policy is violated: a packet to {prefix} can be forwarded \
                     from {at} through the network. Fix the configurations."
                ),
                Some(crate::composer::GlobalViolation::WrongPreference {
                    at,
                    prefix,
                    expected_origin,
                    ..
                }) => format!(
                    "The policy is violated: {at} does not prefer the route to {prefix} \
                     originating from AS {expected_origin}. Fix the configurations."
                ),
                None => "The network does not converge. Fix the configurations.".to_string(),
            };
            response = t.send(PromptKind::Auto, feedback);
            configs = parse_multi_configs(&response);
            global = t
                .trace
                .time(Stage::Sim, || compose_and_check(topology, roles, &configs));
        }
        let cost = t.backend_cost().since(&cost0);
        SynthesisOutcome {
            configs,
            verified_local: false,
            global,
            converged,
            leverage: t.leverage,
            space_cache_hits: 0,
            space_cache_misses: 0,
            deadline_exceeded,
            transport: t.transport,
            trace: t.trace,
            log: t.log,
            cost,
        }
    }
}

/// The per-router-loop results of one scenario drive, before the final
/// whole-network check picks its report flavor.
struct ScenarioDrive {
    configs: BTreeMap<String, String>,
    assignments: Vec<RouterAssignment>,
    /// The session's memo keys; `None` in full mode.
    keys: Option<DraftKeys>,
    verified_local: bool,
    leverage: Leverage,
    log: Vec<LoggedPrompt>,
    space_cache_hits: usize,
    space_cache_misses: usize,
    deadline_exceeded: bool,
    transport: TransportStats,
    trace: SessionTrace,
    cost: CostLedger,
}

impl ScenarioDrive {
    fn into_outcome(self, global: GlobalCheckReport) -> SynthesisOutcome {
        SynthesisOutcome {
            configs: self.configs,
            verified_local: self.verified_local,
            global,
            converged: self.verified_local,
            leverage: self.leverage,
            log: self.log,
            space_cache_hits: self.space_cache_hits,
            space_cache_misses: self.space_cache_misses,
            deadline_exceeded: self.deadline_exceeded,
            transport: self.transport,
            trace: self.trace,
            cost: self.cost,
        }
    }
}

/// The key under which a router's loop counts the rounds a finding left
/// the draft unchanged.
fn attempt_key(finding: &LocalFinding) -> String {
    match finding {
        LocalFinding::Syntax(w) => format!("syntax:{:?}:{}", w.kind, w.text),
        LocalFinding::Topology(f) => format!("topo:{f:?}"),
        LocalFinding::Semantic { check, .. } => format!("semantic:{}", check.describe()),
    }
}

/// The rectification prompt for a finding. A `stalled` syntax or
/// semantic finding escalates to the human channel; topology prompts
/// always go through the automated channel (the verifier's output is
/// directly usable).
fn rectification(finding: &LocalFinding, stalled: bool) -> (PromptKind, String) {
    match finding {
        LocalFinding::Syntax(w) if stalled => {
            let human = match w.kind {
                WarningKind::MisplacedCommand => {
                    Humanizer::human_escalation(HumanFixKind::NeighborPlacement)
                }
                _ => format!(
                    "The following line is still invalid, please rewrite it correctly: '{}'",
                    w.text
                ),
            };
            (PromptKind::Human, human)
        }
        LocalFinding::Syntax(w) => (PromptKind::Auto, Humanizer::syntax(w)),
        LocalFinding::Topology(f) => (PromptKind::Auto, Humanizer::topology(f)),
        // The AND/OR pathology: the counterexample alone fails; a human
        // asks for separate stanzas.
        LocalFinding::Semantic { .. } if stalled => (
            PromptKind::Human,
            Humanizer::human_escalation(HumanFixKind::SeparateStanzas),
        ),
        LocalFinding::Semantic { check, witness } => (
            PromptKind::Auto,
            Humanizer::semantic(&check_map(check), check, witness),
        ),
    }
}

/// Parses a multi-router response: `### NAME ###` section headers with
/// config bodies (fenced or raw).
fn parse_multi_configs(response: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let body = llm_sim::model::last_fenced_block(response).unwrap_or_else(|| response.to_string());
    let mut current_name: Option<String> = None;
    let mut current_text = String::new();
    for line in body.lines() {
        let trimmed = line.trim();
        if let Some(name) = trimmed
            .strip_prefix("###")
            .and_then(|r| r.strip_suffix("###"))
        {
            if let Some(n) = current_name.take() {
                out.insert(n, std::mem::take(&mut current_text));
            }
            current_name = Some(name.trim().to_string());
        } else if current_name.is_some() && !trimmed.starts_with("```") {
            current_text.push_str(line);
            current_text.push('\n');
        }
    }
    if let Some(n) = current_name {
        out.insert(n, current_text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_sim::{ErrorModel, SimulatedGpt4};
    use std::collections::BTreeSet;

    #[test]
    fn flawless_model_synthesizes_with_zero_prompts() {
        let mut llm = SimulatedGpt4::new(ErrorModel::flawless(), 42);
        let s = SynthesisSession::default();
        let outcome = s.run(&mut llm, 3);
        assert!(outcome.verified_local);
        assert!(
            outcome.global.holds(),
            "{:#?} / {:#?}",
            outcome.global.violations,
            outcome.global.session_problems
        );
        assert_eq!(outcome.leverage.auto, 0);
        assert_eq!(outcome.leverage.human, 0);
    }

    #[test]
    fn paper_model_on_figure4_star_converges_with_two_human_prompts() {
        // The paper's experiment: 7 routers (hub + 6 edges), IIPs loaded.
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
        let s = SynthesisSession::default();
        let outcome = s.run(&mut llm, 6);
        assert!(outcome.verified_local, "{:#?}", outcome.log.last());
        assert!(
            outcome.global.holds(),
            "{:#?} / {:#?}",
            outcome.global.violations,
            outcome.global.session_problems
        );
        // The two egregious cases: AND/OR stanzas and neighbor placement.
        assert_eq!(outcome.leverage.human, 2, "{}", outcome.leverage);
        assert!(outcome.leverage.auto >= 4, "{}", outcome.leverage);
    }

    #[test]
    fn scenario_run_matches_star_run() {
        // The scenario path issues byte-identical prompts to the star
        // path, so the same seed must produce the same leverage.
        let (t, roles) = star(3);
        let scenario = Modularizer::star_scenario(&t, &roles);
        let s = SynthesisSession::default();
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
        let o = s.run_scenario(&mut llm, &scenario);
        assert!(o.verified_local, "{:#?}", o.log.last());
        assert!(
            o.global.holds(),
            "{:#?} / {:#?}",
            o.global.violations,
            o.global.session_problems
        );
        let mut llm2 = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
        let o2 = s.run(&mut llm2, 3);
        assert_eq!(o.leverage, o2.leverage);
        assert_eq!(o.configs, o2.configs);
    }

    #[test]
    fn failed_final_verify_accounts_identically_on_both_paths() {
        // Regression guard for the unified accounting path: a session
        // whose routers never verify (and whose final whole-network
        // check therefore fails) must tally exactly the same automated
        // and human escalations whether it entered through the star API
        // or the scenario API. Before the unification the two entry
        // points duplicated the rectification drive, so their counts
        // could drift around a failed final verify.
        use llm_sim::ScriptedLlm;
        let session = SynthesisSession {
            limits: crate::session::SessionLimits {
                attempts_per_finding: 2,
                max_rounds: 5,
            },
            ..Default::default()
        };
        // A model that never returns a config: every round re-finds the
        // same topology/syntax findings until the budget is spent.
        let (t, roles) = star(3);
        let mut llm_star = ScriptedLlm::new(vec!["I cannot produce that.".to_string()]);
        let star_outcome = session.run_on(&mut llm_star, &t, &roles);
        let scenario = Modularizer::star_scenario(&t, &roles);
        let mut llm_scenario = ScriptedLlm::new(vec!["I cannot produce that.".to_string()]);
        let scenario_outcome = session.run_scenario(&mut llm_scenario, &scenario);
        assert!(!star_outcome.verified_local);
        assert!(!star_outcome.global.holds());
        assert!(!scenario_outcome.global.holds());
        assert_eq!(star_outcome.leverage, scenario_outcome.leverage);
        assert_eq!(star_outcome.log.len(), scenario_outcome.log.len());
        for (a, b) in star_outcome.log.iter().zip(&scenario_outcome.log) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.prompt, b.prompt);
        }
        assert_eq!(star_outcome.configs, scenario_outcome.configs);
    }

    #[test]
    fn unchanged_drafts_are_memo_hits_across_rectification_rounds() {
        // The paper-calibrated model needs several rectification rounds,
        // so the same draft is re-verified repeatedly: the worker's
        // verdict memo must answer those re-checks (hits) and compute a
        // verdict only once per distinct draft (misses bounded by
        // distinct drafts plus the final report, not by rounds).
        let (t, roles) = star(6);
        let scenario = Modularizer::star_scenario(&t, &roles);
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
        let mut ctx = VerifierContext::new();
        let outcome = SynthesisSession::default().run_scenario_in(&mut llm, &scenario, &mut ctx);
        assert!(outcome.verified_local);
        assert!(outcome.space_cache_misses > 0, "spaces must be built");
        // Every draft the loop can have checked: each router's task
        // response and each rectification response, per router (a
        // response without a config leaves the draft as it was).
        let mut drafts = BTreeSet::new();
        let (mut router, mut current) = (0, String::new());
        for p in &outcome.log {
            if p.kind == PromptKind::Task {
                router += 1;
                current.clear();
            }
            if let Some(text) = llm_sim::model::last_fenced_block(&p.response) {
                current = text;
            }
            drafts.insert((router, current.clone()));
        }
        let memo = ctx.memo_counters();
        assert!(
            memo.verdict_hits > 0,
            "re-verification of unchanged drafts must hit the memo \
             (hits={}, misses={})",
            memo.verdict_hits,
            memo.verdict_misses
        );
        assert!(
            memo.verdict_misses <= drafts.len() + 1,
            "one verdict per distinct draft and one report: misses={} drafts={}",
            memo.verdict_misses,
            drafts.len()
        );
        assert_eq!(memo.confirm_mismatches, 0);
    }

    #[test]
    fn trace_counts_are_deterministic_and_reconcile_with_counters() {
        let run = || {
            let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
            SynthesisSession::default().run(&mut llm, 6)
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace, "span counts are session content");
        assert_eq!(
            a.trace.get(Stage::Backend).count as usize,
            a.log.len(),
            "clean transport: one backend span per logged prompt"
        );
        assert_eq!(
            a.trace.get(Stage::SpaceBuild).count as usize,
            a.space_cache_misses,
            "every cache miss is a build span"
        );
        assert_eq!(
            a.trace.get(Stage::SpaceHit).count as usize,
            a.space_cache_hits,
            "every cache hit is a hit span"
        );
        assert_eq!(a.trace.get(Stage::Sim).count, 1, "one final global check");
        assert_eq!(a.trace.get(Stage::PromptRender).count, 1);
        assert!(
            a.trace.get(Stage::Parse).count > 0,
            "parse rounds are traced"
        );
        assert!(
            a.trace.get(Stage::Check).count > 0,
            "local checks are traced"
        );
        assert_eq!(
            a.trace.get(Stage::Localize).count,
            0,
            "synthesis sessions never localize"
        );
    }

    #[test]
    fn global_style_oscillates_and_fails() {
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 5);
        let s = SynthesisSession {
            style: SpecStyle::Global,
            ..Default::default()
        };
        let outcome = s.run(&mut llm, 3);
        assert!(!outcome.converged, "global style must not converge");
        assert!(!outcome.global.holds());
        assert!(outcome.leverage.auto >= s.max_global_attempts);
    }

    #[test]
    fn multi_config_parsing() {
        let response = "strategy text\n```\n### R1 ###\nhostname R1\nrouter bgp 1\n### R2 ###\nhostname R2\n```\n";
        let configs = parse_multi_configs(response);
        assert_eq!(configs.len(), 2);
        assert!(configs["R1"].contains("router bgp 1"));
        assert!(configs["R2"].contains("hostname R2"));
    }

    #[test]
    fn prompt_budget_yields_typed_deadline_outcome() {
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
        let s = SynthesisSession {
            budget: crate::session::SessionBudget {
                max_prompts: Some(3),
                ..Default::default()
            },
            ..Default::default()
        };
        let outcome = s.run(&mut llm, 6);
        assert!(
            outcome.deadline_exceeded,
            "3 prompts cannot finish 7 routers"
        );
        assert!(!outcome.converged);
        assert!(
            outcome.log.len() <= 4,
            "at most one send past the ceiling, got {}",
            outcome.log.len()
        );
    }

    #[test]
    fn unlimited_budget_never_reports_deadline() {
        let mut llm = SimulatedGpt4::new(ErrorModel::paper_default(), 11);
        let outcome = SynthesisSession::default().run(&mut llm, 6);
        assert!(!outcome.deadline_exceeded);
        assert_eq!(outcome.transport, TransportStats::default());
    }

    #[test]
    fn flaky_transport_retries_and_still_converges() {
        let mut model = ErrorModel::paper_default();
        model.transport = llm_sim::TransportModel::flaky();
        let mut llm = SimulatedGpt4::new(model, 11);
        let s = SynthesisSession {
            retry: crate::session::RetryPolicy {
                max_retries: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let outcome = s.run(&mut llm, 6);
        assert!(
            outcome.transport.retries > 0,
            "flaky backend forces retries"
        );
        assert!(
            outcome.global.holds(),
            "retry absorbs transport faults: {:#?}",
            outcome.global.violations
        );
        assert!(outcome.transport.backoff_ms_total > 0);
    }

    #[test]
    fn iip_off_costs_more_auto_prompts() {
        // Ablation E9: without IIPs the preventable faults appear and
        // must be repaired, so the automated count grows.
        let run_with = |model: ErrorModel, seed: u64| {
            let mut llm = SimulatedGpt4::new(model, seed);
            let s = SynthesisSession {
                iips: IipDatabase::paper_default(),
                ..Default::default()
            };
            s.run(&mut llm, 3).leverage
        };
        let run_without = |seed: u64| {
            let mut llm = SimulatedGpt4::new(ErrorModel::without_iip(), seed);
            let s = SynthesisSession {
                iips: IipDatabase::empty(),
                ..Default::default()
            };
            s.run(&mut llm, 3).leverage
        };
        let mut with_total = 0usize;
        let mut without_total = 0usize;
        for seed in 0..3 {
            with_total += run_with(ErrorModel::paper_default(), seed).auto;
            without_total += run_without(seed).auto;
        }
        assert!(
            without_total > with_total,
            "without IIP {without_total} should exceed with IIP {with_total}"
        );
    }
}
