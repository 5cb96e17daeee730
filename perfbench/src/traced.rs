//! The traced pass: runs the same `(seed, index)` sessions the batch
//! entry point runs, but from the benchmark's own code, so it can put a
//! span around every call into a crate's public functions.
//!
//! Per job it times the preparation calls (`scenario_for_tuned`,
//! `clean_configs_for`, `fault_inject::inject`), the session entry
//! (`run_scenario_in` / `run_in`) and every model call, through a timing
//! wrapper around the `LanguageModel` the session is handed. Every
//! `replay_every`-th session keeps its inputs, and once the timed pass
//! is over they are replayed through the substrate calls: the configs
//! the model returned, each policy router's final config, the final
//! snapshot and, for repair, the faulted snapshot and the faulted device
//! against its clean render. Replaying after the pass keeps it out of
//! the session spans and out of the traced throughput.
//!
//! Spans are held in memory; [`write_spans`] writes them when the run
//! ends. Each thread owns one benchmark-owned `VerifierContext` for the
//! sessions, whose counters are read once its sessions are done; the
//! replay has a context of its own, so it never disturbs them.

use crate::batch::{Kind, SessionRow, THREADS};
use crate::stats;
use bf_lite::{LocalPolicyCheck, Vendor};
use cosynth::session::RetryPolicy;
use cosynth::{
    check_scenario, DependencyTracker, Modularizer, RepairSession, SynthesisSession,
    VerifierContext,
};
use cosynth_fleet::{clean_configs_for, fault_seed, scenario_for_tuned, SessionTuning};
use llm_sim::{CostLedger, LanguageModel, Message, TransportError};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use topo_model::Scenario;

/// One job of a traced pass.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub kind: Kind,
    pub seed: u64,
    pub index: usize,
}

/// One timed call: which layer, which call caused it, and when.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Position of the job in the pass (spans of one job share it).
    pub job: u32,
    pub layer: &'static str,
    /// The enclosing span's layer (`job`, `cosynth.session` or `replay`).
    pub parent: &'static str,
    /// Offset from the pass start, ns.
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct Recorder {
    t0: Instant,
    job: u32,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(t0: Instant) -> Recorder {
        Recorder {
            t0,
            job: 0,
            spans: Vec::new(),
        }
    }

    fn push(&mut self, layer: &'static str, parent: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            job: self.job,
            layer,
            parent,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    fn time<R>(&mut self, layer: &'static str, parent: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.push(layer, parent, start, Instant::now());
        out
    }
}

/// A `LanguageModel` that forwards to the session's backend and times
/// every call. It only observes: transcripts, completions and the cost
/// ledger pass through untouched, so content is byte-identical.
struct TimedModel<'a> {
    inner: &'a mut (dyn LanguageModel + Send),
    calls: Vec<(Instant, Instant)>,
}

impl TimedModel<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut (dyn LanguageModel + Send)) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner);
        self.calls.push((start, Instant::now()));
        out
    }
}

impl LanguageModel for TimedModel<'_> {
    fn complete(&mut self, transcript: &[Message]) -> String {
        self.timed(|m| m.complete(transcript))
    }

    fn try_complete(&mut self, transcript: &[Message]) -> Result<String, TransportError> {
        self.timed(|m| m.try_complete(transcript))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cost(&self) -> CostLedger {
        self.inner.cost()
    }
}

/// The per-session retry policy of the batch entry point (its jitter
/// seed mixed with the model seed).
fn session_retry(tuning: &SessionTuning, llm_seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_seed: tuning.retry.jitter_seed ^ llm_seed,
        ..tuning.retry
    }
}

/// The model-stream seed the batch entry point derives per session.
fn llm_seed(kind: Kind, seed: u64, index: usize) -> u64 {
    let (a, b) = match kind {
        Kind::Synthesis => (0xA24B_AED4_963E_E407, 0x9FB2_1C65_1E98_DF25),
        Kind::Repair => (0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9),
    };
    seed.wrapping_mul(a)
        .wrapping_add((index as u64).wrapping_mul(b))
}

/// What a session leaves for the replay.
struct ReplayInput {
    scenario: Scenario,
    /// Every config the model returned, in log order.
    drafts: Vec<String>,
    final_configs: BTreeMap<String, String>,
    /// Repair: the faulted snapshot, the faulted router, its clean render.
    fault: Option<(BTreeMap<String, String>, String, String)>,
}

/// Counters the replay reads from the substrate (not times).
#[derive(Default, Debug, Clone)]
pub struct ReplayCounters {
    pub sessions: usize,
    pub spaces: usize,
    pub space_nodes: usize,
    pub apply_hits: u64,
    pub apply_misses: u64,
    pub sim_rounds: Vec<f64>,
    pub dirty_sizes: Vec<f64>,
    /// Replays whose verdicts disagreed with the session (a converged or
    /// repaired final snapshot the replay's checks reject).
    pub disagreements: usize,
}

/// Session-context counters, summed over threads at the end of a pass.
#[derive(Default, Debug, Clone, Copy)]
pub struct CtxCounters {
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub reuses: usize,
    pub allocs: usize,
    pub peak_nodes: usize,
}

/// Everything one traced pass measured.
#[derive(Debug)]
pub struct TracedPass {
    pub rows: Vec<SessionRow>,
    pub spans: Vec<Span>,
    /// Wall time of the sessions, replay excluded.
    pub wall_s: f64,
    /// Per job: time from taking the job to its result, minus the
    /// session's own wall (preparation plus model-building), ms.
    pub wait_ms: Vec<f64>,
    /// Per worker, the longest gap between finishing one job and starting
    /// the next, ms: the closed loop's lateness.
    pub late_ms_max: f64,
    pub replay: ReplayCounters,
    pub ctx: CtxCounters,
}

impl TracedPass {
    pub fn sessions_per_s(&self) -> f64 {
        self.rows.len() as f64 / self.wall_s
    }
}

/// Runs `jobs` on [`THREADS`] workers with spans, then replays every job
/// whose position is a multiple of `replay_every`.
pub fn run(jobs: &[Job], tuning: &SessionTuning, replay_every: usize) -> TracedPass {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<ThreadOut>> = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let done = worker(jobs, tuning, replay_every, &next, t0);
                out.lock().expect("a worker panicked").push(done);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut pass = TracedPass {
        rows: Vec::with_capacity(jobs.len()),
        spans: Vec::new(),
        wall_s,
        wait_ms: Vec::with_capacity(jobs.len()),
        late_ms_max: 0.0,
        replay: ReplayCounters::default(),
        ctx: CtxCounters::default(),
    };
    let mut kept = Vec::new();
    for t in out.into_inner().expect("a worker panicked") {
        pass.rows.extend(t.rows);
        pass.spans.extend(t.rec.spans);
        pass.wait_ms.extend(t.wait_ms);
        pass.late_ms_max = pass.late_ms_max.max(t.late_ms_max);
        kept.extend(t.kept);
        let c = &mut pass.ctx;
        c.cache_hits += t.ctx.cache_hits;
        c.cache_misses += t.ctx.cache_misses;
        c.reuses += t.ctx.reuses;
        c.allocs += t.ctx.allocs;
        c.peak_nodes = c.peak_nodes.max(t.ctx.peak_nodes);
    }
    pass.rows.sort_by_key(|r| (r.seed, r.index, r.kind.name()));
    kept.sort_by_key(|k| k.0);
    let mut rec = Recorder::new(t0);
    let mut replay_ctx = VerifierContext::new();
    for (pos, job, ok, input) in &kept {
        rec.job = *pos as u32;
        replay(input, job, *ok, &mut replay_ctx, &mut rec, &mut pass.replay);
    }
    pass.spans.extend(rec.spans);
    pass
}

/// A job whose inputs the replay needs: position, job, whether the
/// session met its contract, inputs.
type Kept = (usize, Job, bool, ReplayInput);

struct ThreadOut {
    rows: Vec<SessionRow>,
    rec: Recorder,
    wait_ms: Vec<f64>,
    late_ms_max: f64,
    kept: Vec<Kept>,
    ctx: CtxCounters,
}

fn worker(
    jobs: &[Job],
    tuning: &SessionTuning,
    replay_every: usize,
    next: &AtomicUsize,
    t0: Instant,
) -> ThreadOut {
    let mut ctx = VerifierContext::new();
    let mut out = ThreadOut {
        rows: Vec::new(),
        rec: Recorder::new(t0),
        wait_ms: Vec::new(),
        late_ms_max: 0.0,
        kept: Vec::new(),
        ctx: CtxCounters::default(),
    };
    let mut last_end: Option<Instant> = None;
    loop {
        let pos = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(pos) else { break };
        let taken = Instant::now();
        if let Some(end) = last_end {
            let gap = taken.duration_since(end).as_secs_f64() * 1e3;
            out.late_ms_max = out.late_ms_max.max(gap);
        }
        out.rec.job = pos as u32;
        let keep = pos.is_multiple_of(replay_every.max(1));
        let (row, input) = run_job(job, tuning, &mut ctx, &mut out.rec, keep);
        let done = Instant::now();
        out.wait_ms
            .push(done.duration_since(taken).as_secs_f64() * 1e3 - row.wall_ms);
        if let Some(input) = input {
            out.kept.push((pos, *job, row.ok, input));
        }
        out.rows.push(row);
        last_end = Some(Instant::now());
    }
    ctx.flush();
    let (cache_hits, cache_misses) = ctx.cache_totals();
    out.ctx = CtxCounters {
        cache_hits,
        cache_misses,
        reuses: ctx.pool.reuses,
        allocs: ctx.pool.allocs,
        peak_nodes: ctx.pool.peak_nodes,
    };
    out
}

/// Pulls the configs out of a session log's model responses.
fn drafts_of(log: &[cosynth::LoggedPrompt]) -> Vec<String> {
    log.iter()
        .filter_map(|p| llm_sim::model::last_fenced_block(&p.response))
        .collect()
}

/// Runs one job with spans; returns its row and, when `keep` is set, the
/// inputs its replay needs.
fn run_job(
    job: &Job,
    tuning: &SessionTuning,
    ctx: &mut VerifierContext,
    rec: &mut Recorder,
    keep: bool,
) -> (SessionRow, Option<ReplayInput>) {
    let (seed, index) = (job.seed, job.index);
    let scenario = rec.time("scenario-gen.generate", "job", || {
        scenario_for_tuned(seed, index, tuning)
    });
    let llm_seed = llm_seed(job.kind, seed, index);
    let mut backend = tuning.backend.build(llm_seed, tuning.transport);
    let mut model = TimedModel {
        inner: &mut *backend,
        calls: Vec::new(),
    };
    let (row, input, start, end) = match job.kind {
        Kind::Synthesis => {
            let session = SynthesisSession {
                budget: tuning.budget,
                retry: session_retry(tuning, llm_seed),
                verify: tuning.verify,
                ..Default::default()
            };
            let start = Instant::now();
            let outcome = session.run_scenario_in(&mut model, &scenario, ctx);
            let end = Instant::now();
            let row = SessionRow {
                kind: job.kind,
                seed,
                index,
                ok: outcome.verified_local && outcome.global.holds() && !outcome.deadline_exceeded,
                auto: outcome.leverage.auto,
                human: outcome.leverage.human,
                rounds: outcome.global.sim_rounds,
                llm_calls: outcome.cost.total_calls(),
                milli_cost: outcome.cost.total_milli_cost(),
                wall_ms: end.duration_since(start).as_secs_f64() * 1e3,
            };
            let input = keep.then(|| ReplayInput {
                drafts: drafts_of(&outcome.log),
                final_configs: outcome.configs,
                scenario,
                fault: None,
            });
            (row, input, start, end)
        }
        Kind::Repair => {
            let clean = rec.time("cosynth-fleet.clean_render", "job", || {
                clean_configs_for(&scenario)
            });
            let injection = rec
                .time("fault-inject.inject", "job", || {
                    fault_inject::inject(&clean, fault_seed(seed, index))
                })
                .expect("every rendered snapshot has an applicable fault class");
            let session = RepairSession {
                budget: tuning.budget,
                retry: session_retry(tuning, llm_seed),
                verify: tuning.verify,
                ..Default::default()
            };
            let start = Instant::now();
            let outcome = session.run_in(&mut model, &scenario, &injection, ctx);
            let end = Instant::now();
            let row = SessionRow {
                kind: job.kind,
                seed,
                index,
                ok: outcome.repaired && !outcome.deadline_exceeded,
                auto: outcome.leverage.auto,
                human: outcome.leverage.human,
                rounds: outcome.rounds,
                llm_calls: outcome.cost.total_calls(),
                milli_cost: outcome.cost.total_milli_cost(),
                wall_ms: end.duration_since(start).as_secs_f64() * 1e3,
            };
            let input = keep.then(|| {
                let device = injection.fault.device;
                let clean_text = clean.get(&device).cloned().unwrap_or_default();
                ReplayInput {
                    drafts: drafts_of(&outcome.log),
                    final_configs: outcome.configs,
                    scenario,
                    fault: Some((injection.configs, device, clean_text)),
                }
            });
            (row, input, start, end)
        }
    };
    rec.push("cosynth.session", "job", start, end);
    for &(s, e) in &model.calls {
        rec.push("llm-sim.call", "cosynth.session", s, e);
    }
    (row, input)
}

fn parse(rec: &mut Recorder, text: &str, name: &str) -> config_ir::Device {
    let mut parsed = rec.time("bf-lite.parse", "replay", || {
        bf_lite::parse_config(text, Some(Vendor::Cisco))
    });
    if parsed.device.name.is_empty() {
        parsed.device.name = name.to_string();
    }
    parsed.device
}

fn replay(
    input: &ReplayInput,
    job: &Job,
    session_ok: bool,
    rctx: &mut VerifierContext,
    rec: &mut Recorder,
    acc: &mut ReplayCounters,
) {
    let scenario = &input.scenario;
    let assignments = Modularizer::assign_scenario(scenario);
    acc.sessions += 1;

    // Synthesis prepares no clean snapshot and injects no fault; the
    // replay times both so the layers read on every workload.
    let clean_reference: BTreeMap<String, String> = match &input.fault {
        Some(_) => BTreeMap::new(),
        None => {
            let clean = rec.time("cosynth-fleet.clean_render", "replay", || {
                clean_configs_for(scenario)
            });
            rec.time("fault-inject.inject", "replay", || {
                fault_inject::inject(&clean, fault_seed(job.seed, job.index))
            });
            clean
        }
    };

    for (i, text) in input.drafts.iter().enumerate() {
        parse(rec, text, &format!("draft-{i}"));
    }

    // Each policy router's final config: topology verifier, symbolic
    // space, every symbolic check. Repair replays the faulted router's
    // dependency neighbourhood (the routers its edit can affect) rather
    // than all 512.
    let tracker = DependencyTracker::new(scenario);
    let targets: Vec<&cosynth::RouterAssignment> = match &input.fault {
        None => assignments.iter().collect(),
        Some((_, device, _)) => {
            let dirty = tracker.dirty_of(device);
            acc.dirty_sizes.push(dirty.len() as f64);
            assignments
                .iter()
                .filter(|a| dirty.contains(&a.name))
                .collect()
        }
    };
    if input.fault.is_none() {
        for a in &assignments {
            acc.dirty_sizes.push(tracker.dirty_of(&a.name).len() as f64);
        }
    }
    let mut rejected = false;
    for a in targets {
        let Some(text) = input.final_configs.get(&a.name) else {
            continue;
        };
        let device = parse(rec, text, &a.name);
        let findings = rec.time("topo-model.verify_router", "replay", || {
            topo_model::verify_router(&scenario.topology, &a.name, &device)
        });
        rejected |= !findings.is_empty();
        let symbolic: Vec<&LocalPolicyCheck> =
            a.checks.iter().filter(|c| c.is_symbolic()).collect();
        if symbolic.is_empty() {
            continue;
        }
        let mgr = rctx.pool.acquire();
        let mut space = rec.time("policy-symbolic.space_build", "replay", || {
            bf_lite::space_for_checks_in(mgr, &device, &a.checks)
        });
        for check in symbolic {
            let verdict = rec.time("bf-lite.check", "replay", || {
                bf_lite::check_local_policy_in(&mut space, &device, check)
            });
            rejected |= verdict.is_err();
        }
        let stats = space.stats();
        acc.spaces += 1;
        acc.space_nodes += stats.node_count;
        acc.apply_hits += stats.apply.hits;
        acc.apply_misses += stats.apply.misses;
        rctx.pool.release(space.into_manager());
    }

    let report = rec.time("bf-lite.sim", "replay", || {
        check_scenario(scenario, &input.final_configs)
    });
    acc.sim_rounds.push(report.sim_rounds as f64);
    rejected |= !report.holds();
    if session_ok && rejected {
        acc.disagreements += 1;
    }

    // Localize the faulted snapshot (synthesis: the final one) with the
    // sequential sweep, then diff one device against its clean render.
    let snapshot = input
        .fault
        .as_ref()
        .map_or(&input.final_configs, |(faulted, _, _)| faulted);
    rctx.begin_session();
    rec.time("cosynth.localize", "replay", || {
        cosynth::repair::localize(scenario, &assignments, snapshot, rctx)
    });
    let (name, broken, clean) = match &input.fault {
        Some((faulted, device, clean)) => (
            device.clone(),
            faulted.get(device).cloned().unwrap_or_default(),
            clean.clone(),
        ),
        None => {
            let a = assignments
                .iter()
                .find(|a| a.checks.iter().any(LocalPolicyCheck::is_symbolic))
                .unwrap_or(&assignments[0]);
            (
                a.name.clone(),
                input
                    .final_configs
                    .get(&a.name)
                    .cloned()
                    .unwrap_or_default(),
                clean_reference.get(&a.name).cloned().unwrap_or_default(),
            )
        }
    };
    let clean_device = parse(rec, &clean, &name);
    let other_device = parse(rec, &broken, &name);
    let mgr = rctx.pool.acquire();
    let (_, mgr) = rec.time("campion-lite.compare", "replay", || {
        campion_lite::compare_in(mgr, &clean_device, &other_device)
    });
    rctx.pool.release(mgr);
}

/// Writes spans as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"job\":{},\"layer\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.job, s.layer, s.parent, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()
}

/// Durations (ms) of every span of `layer`.
pub fn durations_ms(spans: &[Span], layer: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect()
}

/// Per job, the session span's self time: its duration minus the model
/// calls it encloses, ms.
pub fn session_self_ms(spans: &[Span]) -> Vec<f64> {
    let mut model: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.layer == "llm-sim.call") {
        *model.entry(s.job).or_default() += s.dur_ns;
    }
    spans
        .iter()
        .filter(|s| s.layer == "cosynth.session")
        .map(|s| {
            s.dur_ns
                .saturating_sub(model.get(&s.job).copied().unwrap_or(0)) as f64
                / 1e6
        })
        .collect()
}

/// Mean of `samples`, 0 when empty.
pub fn mean_or_zero(samples: &[f64]) -> f64 {
    stats::mean(samples).unwrap_or(0.0)
}
