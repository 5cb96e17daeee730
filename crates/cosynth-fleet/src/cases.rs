//! The two shipped [`UseCase`] implementations — synthesis and repair —
//! plus their session results and aggregate rows.
//!
//! Everything pipeline-shaped (job distribution, resident worker
//! contexts, panic containment, report assembly) lives in the crate
//! root; this module only knows how to run *one* session of each shape
//! and how to fold results into rows and JSON.

use crate::{bench_prelude, family_of, FleetReport, SessionTuning, UseCase};
use cosynth::session::RetryPolicy;
use cosynth::{FamilyRow, Modularizer, RepairSession, SynthesisSession, VerifierContext};
use criterion::SampleStats;
use llm_sim::CostLedger;
use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::SessionTrace;
use topo_model::json::ObjBuilder;
use topo_model::Scenario;

// ---- the synthesis use case ----

/// One synthesis session's outcome, reduced to the fleet's metrics.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// Session index in the stream.
    pub index: usize,
    /// Scenario name.
    pub scenario: String,
    /// Topology family.
    pub family: String,
    /// Intent family.
    pub intent: String,
    /// Automated prompts issued.
    pub auto: usize,
    /// Human prompts issued.
    pub human: usize,
    /// Whether all per-router loops verified.
    pub local_ok: bool,
    /// Whether the whole-network expectations held.
    pub global_ok: bool,
    /// BGP simulation rounds to the fixed point.
    pub sim_rounds: usize,
    /// Global violations found.
    pub violations: usize,
    /// Session wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Whether the session panicked (counted as failed).
    pub panicked: bool,
    /// Whether the session stopped on its deadline (typed outcome,
    /// counted as failed but *accounted*, never a panic).
    pub deadline_exceeded: bool,
    /// Transport retries the session's retry/backoff layer absorbed.
    pub retries: usize,
    /// Per-stage span trace (counts are content, durations wall-clock).
    pub trace: SessionTrace,
    /// Per-backend model-cost ledger for the session.
    pub cost: CostLedger,
}

impl SessionResult {
    /// Converged = locally verified and globally clean, within budget.
    pub fn converged(&self) -> bool {
        self.local_ok && self.global_ok && !self.panicked && !self.deadline_exceeded
    }

    /// The session's typed outcome class (the accounting identity's
    /// vocabulary: every session is exactly one of these).
    pub fn outcome(&self) -> &'static str {
        outcome_of(self.panicked, self.deadline_exceeded)
    }
}

/// The shared outcome vocabulary for both use cases.
pub(crate) fn outcome_of(panicked: bool, deadline_exceeded: bool) -> &'static str {
    if panicked {
        "panicked"
    } else if deadline_exceeded {
        "deadline_exceeded"
    } else {
        "completed"
    }
}

/// The per-session retry policy: the fleet policy with its jitter seed
/// mixed per `(seed, index)`, so backoff accounting is deterministic per
/// session regardless of worker scheduling.
fn session_retry(tuning: &SessionTuning, llm_seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_seed: tuning.retry.jitter_seed ^ llm_seed,
        ..tuning.retry
    }
}

/// Runs one synthesis session against a caller-owned verifier context
/// under the fleet's robustness tuning: scenario `index` of stream
/// `seed` through the full VPP loop with the paper-calibrated simulated
/// model (plus the tuning's transport faults, deadline, and retry
/// policy).
pub fn run_session_tuned(
    seed: u64,
    index: usize,
    ctx: &mut VerifierContext,
    tuning: &SessionTuning,
) -> SessionResult {
    let scenario = crate::scenario_for_tuned(seed, index, tuning);
    let llm_seed = seed
        .wrapping_mul(0xA24B_AED4_963E_E407)
        .wrapping_add((index as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25));
    let mut llm = tuning.backend.build(llm_seed, tuning.transport);
    let session = SynthesisSession {
        budget: tuning.budget,
        retry: session_retry(tuning, llm_seed),
        verify: tuning.verify,
        ..Default::default()
    };
    let t0 = Instant::now();
    let outcome = session.run_scenario_in(&mut *llm, &scenario, ctx);
    SessionResult {
        index,
        scenario: scenario.name,
        family: scenario.family,
        intent: scenario.intent,
        auto: outcome.leverage.auto,
        human: outcome.leverage.human,
        local_ok: outcome.verified_local,
        global_ok: outcome.global.holds(),
        sim_rounds: outcome.global.sim_rounds,
        violations: outcome.global.violations.len(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        panicked: false,
        deadline_exceeded: outcome.deadline_exceeded,
        retries: outcome.transport.retries,
        trace: outcome.trace,
        cost: outcome.cost,
    }
}

/// [`run_session_tuned`] under the default (trusting) tuning — the
/// pre-robustness entry point, byte-identical content.
pub fn run_session_in(seed: u64, index: usize, ctx: &mut VerifierContext) -> SessionResult {
    run_session_tuned(seed, index, ctx, &SessionTuning::default())
}

/// [`run_session_in`] with a one-shot (unpooled) context — the
/// byte-identical convenience entry point.
pub fn run_session(seed: u64, index: usize) -> SessionResult {
    run_session_in(seed, index, &mut VerifierContext::without_pooling())
}

/// The synthesis [`UseCase`]: the full VPP loop per session, aggregated
/// per topology family.
#[derive(Debug, Clone, Copy)]
pub struct Synthesis;

impl UseCase for Synthesis {
    const NAME: &'static str = "synthesis";
    const DEFAULT_OUT: &'static str = "BENCH_scenarios.json";
    type Result = SessionResult;
    type Row = FamilyRow;

    fn run_session(
        seed: u64,
        index: usize,
        ctx: &mut VerifierContext,
        tuning: &SessionTuning,
    ) -> SessionResult {
        run_session_tuned(seed, index, ctx, tuning)
    }

    fn panic_result(index: usize) -> SessionResult {
        SessionResult {
            index,
            scenario: format!("panic-i{index}"),
            family: family_of(index).to_string(),
            intent: String::new(),
            auto: 0,
            human: 0,
            local_ok: false,
            global_ok: false,
            sim_rounds: 0,
            violations: 0,
            wall_ms: 0.0,
            panicked: true,
            deadline_exceeded: false,
            retries: 0,
            trace: SessionTrace::new(),
            cost: CostLedger::new(),
        }
    }

    fn deadline_exceeded(r: &SessionResult) -> bool {
        r.deadline_exceeded
    }

    fn retries(r: &SessionResult) -> usize {
        r.retries
    }

    fn wall_ms(r: &SessionResult) -> f64 {
        r.wall_ms
    }

    fn index(r: &SessionResult) -> usize {
        r.index
    }

    fn trace(r: &SessionResult) -> SessionTrace {
        r.trace
    }

    fn cost(r: &SessionResult) -> &CostLedger {
        &r.cost
    }

    fn session_ok(r: &SessionResult) -> bool {
        r.converged()
    }

    fn failure_line(r: &SessionResult) -> String {
        format!(
            "FAILED session {} ({}): panicked={} local_ok={} global_ok={} violations={}",
            r.index, r.scenario, r.panicked, r.local_ok, r.global_ok, r.violations
        )
    }

    /// Reduces session results to one [`FamilyRow`] per topology family.
    fn aggregate(results: &[SessionResult]) -> Vec<FamilyRow> {
        let mut by_family: BTreeMap<&str, Vec<&SessionResult>> = BTreeMap::new();
        for r in results {
            by_family.entry(&r.family).or_default().push(r);
        }
        by_family
            .into_iter()
            .map(|(family, rs)| {
                let walls: Vec<f64> = rs.iter().map(|r| r.wall_ms).collect();
                let stats = SampleStats::from_samples(&walls).expect("non-empty family");
                FamilyRow {
                    family: family.to_string(),
                    sessions: rs.len(),
                    converged: rs.iter().filter(|r| r.converged()).count(),
                    fault_survivals: rs.iter().filter(|r| r.local_ok && !r.global_ok).count(),
                    auto: rs.iter().map(|r| r.auto).sum(),
                    human: rs.iter().map(|r| r.human).sum(),
                    mean_sim_rounds: rs.iter().map(|r| r.sim_rounds as f64).sum::<f64>()
                        / rs.len() as f64,
                    llm_calls: rs.iter().map(|r| r.cost.total_calls()).sum(),
                    milli_cost: rs.iter().map(|r| r.cost.total_milli_cost()).sum(),
                    session_ms: stats,
                }
            })
            .collect()
    }

    fn table(rows: &[FamilyRow]) -> String {
        cosynth::scenario_table(rows)
    }

    fn summary_line(report: &FleetReport<Self>) -> String {
        format!(
            "{} sessions in {:.1} ms on {} workers ({:.2} sessions/s)",
            report.results.len(),
            report.wall_ms,
            report.threads,
            report.throughput()
        )
    }

    fn fleet_ok(report: &FleetReport<Self>) -> bool {
        report.all_sessions_ok()
    }

    /// Renders `BENCH_scenarios.json`: the shared prelude (run metadata,
    /// throughput, `manager_pool` reuse block) plus the per-family
    /// aggregates — extending the `BENCH_*.json` trajectory begun by
    /// `BENCH_bdd.json`, not replacing it.
    fn bench_json(report: &FleetReport<Self>, sessions_requested: usize) -> String {
        use std::fmt::Write as _;
        let mut out = bench_prelude("cosynth_fleet", report, sessions_requested);
        let _ = writeln!(out, "  \"all_converged\": {},", report.all_sessions_ok());
        out.push_str("  \"families\": {\n");
        for (i, r) in report.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    \"{}\": {{ \"sessions\": {}, \"converged\": {}, \"fault_survivals\": {}, \
                 \"auto\": {}, \"human\": {}, \"leverage\": {:.2}, \"mean_sim_rounds\": {:.1}, \
                 \"llm_calls\": {}, \"milli_cost\": {}, \
                 \"session_ms\": {} }}",
                r.family,
                r.sessions,
                r.converged,
                r.fault_survivals,
                r.auto,
                r.human,
                r.leverage(),
                r.mean_sim_rounds,
                r.llm_calls,
                r.milli_cost,
                r.session_ms.to_json()
            );
            out.push_str(if i + 1 < report.rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    fn result_json(r: &SessionResult) -> String {
        ObjBuilder::new()
            .str("use_case", "synthesis")
            .u64("session", r.index as u64)
            .str("scenario", &r.scenario)
            .str("family", &r.family)
            .str("intent", &r.intent)
            .bool("converged", r.converged())
            .u64("auto", r.auto as u64)
            .u64("human", r.human as u64)
            .u64("sim_rounds", r.sim_rounds as u64)
            .u64("violations", r.violations as u64)
            .f64("wall_ms", r.wall_ms, 2)
            .bool("panicked", r.panicked)
            .str("outcome", r.outcome())
            .u64("retries", r.retries as u64)
            .u64("llm_calls", r.cost.total_calls())
            .u64("milli_cost", r.cost.total_milli_cost())
            .finish()
    }
}

// ---- the repair use case ----

/// Renders the known-good config for every internal router of a
/// scenario (the snapshot `fault-inject` breaks and the fixed point a
/// repair session should restore), from scratch on every call. Repair
/// jobs take the same texts from the pool's reference snapshot
/// ([`VerifierContext::prepare_repair`]), which renders each distinct
/// router prompt once per worker pool.
pub fn clean_configs_for(scenario: &Scenario) -> BTreeMap<String, String> {
    cosynth::reference_configs(&Modularizer::assign_scenario(scenario))
}

/// The deterministic fault-stream seed for repair session `index` of
/// fleet seed `seed` (distinct mixing constants from the scenario and
/// model streams, so the three stay uncorrelated).
pub fn fault_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add((index as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
}

/// One repair session's outcome, reduced to the fleet's metrics.
#[derive(Debug, Clone)]
pub struct RepairSessionResult {
    /// Session index in the stream.
    pub index: usize,
    /// Scenario name.
    pub scenario: String,
    /// Topology family.
    pub family: String,
    /// Intent family.
    pub intent: String,
    /// Injected fault class (kebab-case name).
    pub class: String,
    /// Router the fault was injected into.
    pub device: String,
    /// Whether the snapshot verified again (local + global).
    pub repaired: bool,
    /// Repair prompts issued before the verdict.
    pub rounds: usize,
    /// Whether the first localization agreed with the ground truth
    /// (same device, overlapping line span).
    pub localized: bool,
    /// Automated prompts issued.
    pub auto: usize,
    /// Human prompts issued.
    pub human: usize,
    /// Session wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Whether the session panicked (counted as failed).
    pub panicked: bool,
    /// Whether the session stopped on its deadline (typed outcome).
    pub deadline_exceeded: bool,
    /// Transport retries the session's retry/backoff layer absorbed.
    pub retries: usize,
    /// Per-stage span trace (counts are content, durations wall-clock).
    pub trace: SessionTrace,
    /// Per-backend model-cost ledger for the session.
    pub cost: CostLedger,
}

impl RepairSessionResult {
    /// The session's typed outcome class.
    pub fn outcome(&self) -> &'static str {
        outcome_of(self.panicked, self.deadline_exceeded)
    }
}

/// Runs one repair session against a caller-owned verifier context
/// under the fleet's robustness tuning: scenario `index` of stream
/// `seed`, broken by its deterministic fault, repaired by the
/// paper-calibrated simulated model with the repair error-model
/// pathologies. The job comes from the context
/// ([`VerifierContext::prepare_repair`]): a pinned family's network is
/// drawn once per worker pool, each known-good text is rendered once
/// per distinct prompt, and the broken snapshot shares every unbroken
/// text with the pool's reference.
pub fn run_repair_session_tuned(
    seed: u64,
    index: usize,
    ctx: &mut VerifierContext,
    tuning: &SessionTuning,
) -> RepairSessionResult {
    let scenario = crate::scenario_in(seed, index, tuning, ctx);
    let job = ctx
        .prepare_repair(scenario, fault_seed(seed, index))
        .expect("every rendered snapshot has an applicable fault class");
    let llm_seed = seed
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .wrapping_add((index as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
    let mut llm = tuning.backend.build(llm_seed, tuning.transport);
    let session = RepairSession {
        budget: tuning.budget,
        retry: session_retry(tuning, llm_seed),
        verify: tuning.verify,
        ..Default::default()
    };
    let t0 = Instant::now();
    let outcome = session.run_job(&mut *llm, &job, ctx);
    let (scenario, fault) = (job.scenario(), job.fault());
    RepairSessionResult {
        index,
        scenario: scenario.name.clone(),
        family: scenario.family.clone(),
        intent: scenario.intent.clone(),
        class: fault.class.as_str().to_string(),
        device: fault.device.clone(),
        repaired: outcome.repaired,
        rounds: outcome.rounds,
        localized: outcome
            .first_localization
            .as_ref()
            .map(|l| l.agrees(fault))
            .unwrap_or(false),
        auto: outcome.leverage.auto,
        human: outcome.leverage.human,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        panicked: false,
        deadline_exceeded: outcome.deadline_exceeded,
        retries: outcome.transport.retries,
        trace: outcome.trace,
        cost: outcome.cost,
    }
}

/// [`run_repair_session_tuned`] under the default (trusting) tuning —
/// the pre-robustness entry point, byte-identical content.
pub fn run_repair_session_in(
    seed: u64,
    index: usize,
    ctx: &mut VerifierContext,
) -> RepairSessionResult {
    run_repair_session_tuned(seed, index, ctx, &SessionTuning::default())
}

/// [`run_repair_session_in`] with a one-shot (unpooled) context.
pub fn run_repair_session(seed: u64, index: usize) -> RepairSessionResult {
    run_repair_session_in(seed, index, &mut VerifierContext::without_pooling())
}

/// One aggregate row of the repair report: every session of one fault
/// class × topology family cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRow {
    /// Fault class (kebab-case).
    pub class: String,
    /// Topology family.
    pub family: String,
    /// Sessions run in this cell.
    pub sessions: usize,
    /// Sessions that verified again.
    pub repaired: usize,
    /// Sessions whose first localization matched the ground truth.
    pub localized: usize,
    /// Total automated prompts.
    pub auto: usize,
    /// Total human prompts.
    pub human: usize,
    /// Mean repair prompts until the fix, over repaired sessions.
    pub mean_rounds_to_fix: f64,
    /// Total backend calls across the cell's sessions.
    pub llm_calls: u64,
    /// Total model cost across the cell's sessions, milli-units.
    pub milli_cost: u64,
    /// Per-session wall-clock spread, milliseconds.
    pub session_ms: SampleStats,
}

impl RepairRow {
    /// Fraction of this cell's sessions that verified again.
    pub fn repair_rate(&self) -> f64 {
        self.repaired as f64 / self.sessions.max(1) as f64
    }

    /// Fraction of this cell's sessions whose first localization
    /// matched the ground truth.
    pub fn localization_precision(&self) -> f64 {
        self.localized as f64 / self.sessions.max(1) as f64
    }
}

impl FleetReport<Repair> {
    /// Overall fraction of sessions that verified again.
    pub fn repair_rate(&self) -> f64 {
        let repaired = self.results.iter().filter(|r| r.repaired).count();
        repaired as f64 / self.results.len().max(1) as f64
    }

    /// Overall localization precision.
    pub fn localization_precision(&self) -> f64 {
        let hits = self.results.iter().filter(|r| r.localized).count();
        hits as f64 / self.results.len().max(1) as f64
    }

    /// Whether any session panicked.
    pub fn any_panicked(&self) -> bool {
        self.results.iter().any(|r| r.panicked)
    }
}

/// The repair [`UseCase`]: break a known-good snapshot, localize,
/// repair, aggregated per fault class × topology family.
#[derive(Debug, Clone, Copy)]
pub struct Repair;

impl UseCase for Repair {
    const NAME: &'static str = "repair";
    const DEFAULT_OUT: &'static str = "BENCH_repair.json";
    type Result = RepairSessionResult;
    type Row = RepairRow;

    fn run_session(
        seed: u64,
        index: usize,
        ctx: &mut VerifierContext,
        tuning: &SessionTuning,
    ) -> RepairSessionResult {
        run_repair_session_tuned(seed, index, ctx, tuning)
    }

    fn panic_result(index: usize) -> RepairSessionResult {
        RepairSessionResult {
            index,
            scenario: format!("panic-i{index}"),
            family: family_of(index).to_string(),
            intent: String::new(),
            class: String::new(),
            device: String::new(),
            repaired: false,
            rounds: 0,
            localized: false,
            auto: 0,
            human: 0,
            wall_ms: 0.0,
            panicked: true,
            deadline_exceeded: false,
            retries: 0,
            trace: SessionTrace::new(),
            cost: CostLedger::new(),
        }
    }

    fn deadline_exceeded(r: &RepairSessionResult) -> bool {
        r.deadline_exceeded
    }

    fn retries(r: &RepairSessionResult) -> usize {
        r.retries
    }

    fn wall_ms(r: &RepairSessionResult) -> f64 {
        r.wall_ms
    }

    fn index(r: &RepairSessionResult) -> usize {
        r.index
    }

    fn trace(r: &RepairSessionResult) -> SessionTrace {
        r.trace
    }

    fn cost(r: &RepairSessionResult) -> &CostLedger {
        &r.cost
    }

    fn session_ok(r: &RepairSessionResult) -> bool {
        r.repaired && !r.panicked && !r.deadline_exceeded
    }

    fn failure_line(r: &RepairSessionResult) -> String {
        format!(
            "FAILED session {} ({}): panicked={} repaired={} class={} device={}",
            r.index, r.scenario, r.panicked, r.repaired, r.class, r.device
        )
    }

    /// Reduces repair session results to one [`RepairRow`] per fault
    /// class × topology family cell, in (class, family) order.
    fn aggregate(results: &[RepairSessionResult]) -> Vec<RepairRow> {
        let mut cells: BTreeMap<(&str, &str), Vec<&RepairSessionResult>> = BTreeMap::new();
        for r in results {
            cells.entry((&r.class, &r.family)).or_default().push(r);
        }
        cells
            .into_iter()
            .map(|((class, family), rs)| {
                let walls: Vec<f64> = rs.iter().map(|r| r.wall_ms).collect();
                let stats = SampleStats::from_samples(&walls).expect("non-empty cell");
                let repaired: Vec<&&RepairSessionResult> =
                    rs.iter().filter(|r| r.repaired).collect();
                let mean_rounds = if repaired.is_empty() {
                    0.0
                } else {
                    repaired.iter().map(|r| r.rounds as f64).sum::<f64>() / repaired.len() as f64
                };
                RepairRow {
                    class: class.to_string(),
                    family: family.to_string(),
                    sessions: rs.len(),
                    repaired: repaired.len(),
                    localized: rs.iter().filter(|r| r.localized).count(),
                    auto: rs.iter().map(|r| r.auto).sum(),
                    human: rs.iter().map(|r| r.human).sum(),
                    mean_rounds_to_fix: mean_rounds,
                    llm_calls: rs.iter().map(|r| r.cost.total_calls()).sum(),
                    milli_cost: rs.iter().map(|r| r.cost.total_milli_cost()).sum(),
                    session_ms: stats,
                }
            })
            .collect()
    }

    /// Renders a human-readable repair summary table (one row per fault
    /// class × family cell).
    fn table(rows: &[RepairRow]) -> String {
        let mut out = String::from(
            "Table R: repair fleet aggregate per fault class x topology family\n\
             (rate = repaired/sessions; loc = first localization matches ground truth)\n",
        );
        out.push_str(&format!(
            "{:<24} {:<12} {:>5} {:>5} {:>5} {:>6} {:>6} {:>7} {:>9} {:>9}\n",
            "class", "family", "runs", "fixed", "loc", "rate", "prec", "rounds", "med ms", "p90 ms"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<24} {:<12} {:>5} {:>5} {:>5} {:>5.0}% {:>5.0}% {:>7.1} {:>9.1} {:>9.1}\n",
                r.class,
                r.family,
                r.sessions,
                r.repaired,
                r.localized,
                100.0 * r.repair_rate(),
                100.0 * r.localization_precision(),
                r.mean_rounds_to_fix,
                r.session_ms.median,
                r.session_ms.p90
            ));
        }
        out
    }

    fn summary_line(report: &FleetReport<Self>) -> String {
        format!(
            "{} sessions in {:.1} ms on {} workers ({:.2} sessions/s); repair rate {:.0}%, \
             localization precision {:.0}%",
            report.results.len(),
            report.wall_ms,
            report.threads,
            report.throughput(),
            100.0 * report.repair_rate(),
            100.0 * report.localization_precision()
        )
    }

    /// The repair contract: no panics and a non-zero repair rate (a
    /// zero rate means the repair loop itself is broken).
    fn fleet_ok(report: &FleetReport<Self>) -> bool {
        !report.any_panicked() && report.repair_rate() > 0.0
    }

    /// Renders `BENCH_repair.json`: the shared prelude plus headline
    /// rates and the per class × family cells. Per-seed content is
    /// deterministic; re-runs move only the wall-clock fields.
    fn bench_json(report: &FleetReport<Self>, sessions_requested: usize) -> String {
        use std::fmt::Write as _;
        let mut out = bench_prelude("cosynth_repair", report, sessions_requested);
        let _ = writeln!(out, "  \"repair_rate\": {:.4},", report.repair_rate());
        let _ = writeln!(
            out,
            "  \"localization_precision\": {:.4},",
            report.localization_precision()
        );
        let _ = writeln!(out, "  \"any_panicked\": {},", report.any_panicked());
        out.push_str("  \"cells\": [\n");
        for (i, r) in report.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"class\": \"{}\", \"family\": \"{}\", \"sessions\": {}, \
                 \"repaired\": {}, \"repair_rate\": {:.4}, \"localized\": {}, \
                 \"localization_precision\": {:.4}, \"auto\": {}, \"human\": {}, \
                 \"mean_rounds_to_fix\": {:.2}, \
                 \"llm_calls\": {}, \"milli_cost\": {}, \
                 \"session_ms\": {} }}",
                r.class,
                r.family,
                r.sessions,
                r.repaired,
                r.repair_rate(),
                r.localized,
                r.localization_precision(),
                r.auto,
                r.human,
                r.mean_rounds_to_fix,
                r.llm_calls,
                r.milli_cost,
                r.session_ms.to_json()
            );
            out.push_str(if i + 1 < report.rows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn result_json(r: &RepairSessionResult) -> String {
        ObjBuilder::new()
            .str("use_case", "repair")
            .u64("session", r.index as u64)
            .str("scenario", &r.scenario)
            .str("family", &r.family)
            .str("class", &r.class)
            .str("device", &r.device)
            .bool("repaired", r.repaired)
            .bool("localized", r.localized)
            .u64("rounds", r.rounds as u64)
            .u64("auto", r.auto as u64)
            .u64("human", r.human as u64)
            .f64("wall_ms", r.wall_ms, 2)
            .bool("panicked", r.panicked)
            .str("outcome", r.outcome())
            .u64("retries", r.retries as u64)
            .u64("llm_calls", r.cost.total_calls())
            .u64("milli_cost", r.cost.total_milli_cost())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn single_session_runs_end_to_end() {
        let r = run_session(1, 0);
        assert!(r.converged(), "{r:?}");
        assert!(r.auto > 0, "paper model must need rectification: {r:?}");
        assert!(r.sim_rounds > 0);
    }

    #[test]
    fn star_sessions_flow_through_the_fleet() {
        let n_families = scenario_gen::FAMILIES.len() + 1;
        let star_index = scenario_gen::FAMILIES.len(); // first star slot
        assert_eq!(star_index % n_families, scenario_gen::FAMILIES.len());
        let s = crate::scenario_for(3, star_index);
        assert_eq!(s.family, "star");
        let r = run_session(3, star_index);
        assert!(r.converged(), "{r:?}");
    }

    #[test]
    fn single_repair_session_runs_end_to_end() {
        let r = run_repair_session(1, 0);
        assert!(!r.panicked);
        assert!(!r.class.is_empty());
        assert!(!r.device.is_empty());
        assert!(r.rounds >= 1, "a broken snapshot needs at least one prompt");
    }

    #[test]
    fn fault_stream_spreads_over_classes() {
        // Across a window of sessions the injected classes must vary —
        // the corpus is enumerable, not a single hard-coded mistake.
        let classes: BTreeSet<String> = (0..12).map(|i| run_repair_session(1, i).class).collect();
        assert!(classes.len() >= 4, "{classes:?}");
    }

    #[test]
    fn resident_context_reproduces_one_shot_sessions() {
        // The same worker context run back-to-back over several
        // sessions (the resident shape) must emit exactly what the
        // one-shot entry points emit.
        let mut ctx = VerifierContext::new();
        for index in 0..4 {
            let resident = run_session_in(7, index, &mut ctx);
            let one_shot = run_session(7, index);
            assert_eq!(resident.scenario, one_shot.scenario);
            assert_eq!(resident.auto, one_shot.auto);
            assert_eq!(resident.human, one_shot.human);
            assert_eq!(resident.local_ok, one_shot.local_ok);
            assert_eq!(resident.global_ok, one_shot.global_ok);
            assert_eq!(resident.sim_rounds, one_shot.sim_rounds);
        }
        assert!(ctx.pool.reuses > 0, "the resident context must recycle");
    }

    #[test]
    fn result_json_lines_are_parseable() {
        let s = run_session(1, 0);
        let line = Synthesis::result_json(&s);
        let v = topo_model::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("use_case").unwrap().as_str(), Some("synthesis"));
        assert_eq!(v.get("session").unwrap().as_u32(), Some(0));
        let r = run_repair_session(1, 0);
        let line = Repair::result_json(&r);
        let v = topo_model::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("use_case").unwrap().as_str(), Some("repair"));
        assert!(v.get("repaired").is_some());
    }
}
