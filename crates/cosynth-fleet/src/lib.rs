//! # cosynth-fleet — the resident VPP session engine
//!
//! Executes verification sessions across a fixed pool of `std::thread`
//! workers with a work-stealing queue — one pool and one queue under
//! every front-end: the batch fleet ([`run_case`]) and both `fleetd`
//! daemons ([`serve`], [`serve_listener`]). Every session shape is a
//! [`UseCase`] — job construction, per-session run against a
//! worker-resident [`VerifierContext`], aggregation row, bench-JSON
//! block — and one generic pipeline ([`run_case`]) drives them all:
//!
//! * [`cases::Synthesis`] (the default): the full VPP loop (generate →
//!   modularize → simulated-LLM drafts → verify → rectify → compose →
//!   simulate), aggregated into leverage ratios, fault-survival counts,
//!   and convergence rounds per topology family
//!   (`BENCH_scenarios.json`).
//! * [`cases::Repair`]: each session's job comes from the worker's
//!   context ([`VerifierContext::prepare_repair`]): a pinned large
//!   family's network is drawn once per pool and each of its intents
//!   applied once (every job shares that scenario's topology), each
//!   known-good text is rendered and scanned once per distinct prompt,
//!   and `fault-inject` breaks exactly one router in a snapshot that
//!   shares every other text with the pool's reference.
//!   `cosynth::RepairSession::run_job` then localizes via the verifier
//!   channels, prompts and re-verifies, aggregating repair rate,
//!   localization precision, and rounds-to-fix per fault class ×
//!   topology family (`BENCH_repair.json`).
//!
//! Workers are **resident**: each owns a [`VerifierContext`] whose
//! manager pool recycles BDD tables across every session the worker
//! runs (see `cosynth::verifier_ctx`), and every worker's context holds
//! the pool's one [`VerdictMemo`], so the pool derives each pinned
//! network, reference text and verdict once, whichever worker asks
//! first. A batch run pushes its whole job list onto the queue and
//! closes it; the daemons keep the pool alive between batches for the
//! `fleet --serve` mode ([`service`], [`server`]).
//!
//! Determinism: session `i` of seed `s` always runs the same scenario
//! (and, for repair, the same injected fault) against the same
//! simulated-model stream, regardless of worker count, scheduling, or
//! manager pooling — only wall-clock figures vary between runs. The
//! `pooling_determinism` test pins a pooled fleet against one-shot
//! sessions, each on its own unpooled context, field by field.

use cosynth::session::RetryPolicy;
use cosynth::{MemoCounters, Modularizer, VerdictMemo, VerifierContext};
use llm_sim::{CostLedger, Tier, TransportModel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Scope;
use std::time::Instant;
use topo_model::Scenario;

pub mod cases;
pub mod chaos;
pub mod loadgen;
pub mod server;
pub mod service;

pub use cases::{
    clean_configs_for, fault_seed, run_repair_session, run_repair_session_in,
    run_repair_session_tuned, run_session, run_session_in, run_session_tuned, Repair, RepairRow,
    RepairSessionResult, SessionResult, Synthesis,
};
pub use chaos::{
    run_chaos, ChaosConfig, ChaosPlan, ChaosReport, SessionDirective, CHAOS_MIN_SESSIONS,
};
pub use cosynth::session::{RetryPolicy as SessionRetryPolicy, SessionBudget};
pub use server::serve_listener;
pub use service::{serve, RequestError, ServeOptions, ServeSummary};

/// Locks a mutex, recovering the guard if a previous holder panicked.
/// The fleet's shared state (job deques, result vectors, counters) is
/// only ever mutated through single whole-value operations, so a
/// poisoned guard is still structurally sound — before this recovery,
/// one panicking worker poisoned the queue and every *other* worker's
/// `.unwrap()` aborted the whole fleet.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fleet run parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Sessions to run.
    pub sessions: usize,
    /// Scenario/model stream seed.
    pub seed: u64,
    /// Worker threads (min 2 — the fleet is a parallelism harness).
    pub threads: usize,
    /// Optional family filter (names from [`family_names`]).
    pub families: Option<Vec<String>>,
    /// Robustness knobs applied to every session: deadline, transport
    /// fault rates, retry policy. The default is the trusting shape
    /// (unlimited budget, perfect transport) — byte-identical to the
    /// pre-robustness fleet.
    pub tuning: SessionTuning,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 16,
            seed: 1,
            threads: default_threads(),
            families: None,
            tuning: SessionTuning::default(),
        }
    }
}

/// Per-session robustness knobs threaded from the fleet (or the served
/// request) down into the session drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionTuning {
    /// Per-session deadline (wall-clock and/or prompt ceiling).
    pub budget: SessionBudget,
    /// Transport fault rates for the simulated backend.
    pub transport: TransportModel,
    /// Retry policy for transport failures. The per-session jitter seed
    /// is derived from `(seed, index)` on top of this policy's seed, so
    /// backoff accounting stays deterministic per session.
    pub retry: RetryPolicy,
    /// Which simulated model tier serves the session's completions. The
    /// default is the historical `simulated-gpt4` — byte-identical
    /// session content to the pre-backend fleet.
    pub backend: Tier,
    /// Re-verification strategy (the worker's verdict memo and repair's
    /// dirty-set bookkeeping; see `cosynth::incremental`). Per-seed
    /// session content is byte-identical across modes — the `fleet` flag
    /// `--no-incremental` maps onto this.
    pub verify: cosynth::VerifyMode,
    /// Pin every session to one named scenario family instead of the
    /// default rotation — how the large internet-scale families
    /// (`scenario_gen::LARGE_FAMILIES`) are reached, since adding them
    /// to the rotation would shift every committed per-seed pin. When
    /// set, session `index` runs `generate_family(family, seed, index)`
    /// and job indices are simply `0..sessions`.
    pub scenario_family: Option<&'static str>,
}

/// Default worker count: the machine's parallelism, clamped to [2, 8].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(2, 8)
}

/// The family rotation the fleet draws from: the five generated families
/// plus the paper's star.
pub fn family_names() -> Vec<&'static str> {
    let mut v = scenario_gen::FAMILIES.to_vec();
    v.push("star");
    v
}

/// Every family name a `--families` filter may legally name: the
/// rotation (including the star) plus the large internet-scale
/// families. CLIs validate against this and exit 2 on anything else —
/// an unknown name used to silently yield an empty rotation.
pub fn all_family_names() -> Vec<&'static str> {
    let mut v = family_names();
    v.extend(scenario_gen::LARGE_FAMILIES);
    v
}

/// The family session `index` runs — purely positional (star occupies
/// index ≡ 5 (mod 6); the rest follow the generator's rotation), so the
/// label is available without building the scenario.
pub fn family_of(index: usize) -> &'static str {
    let n_families = scenario_gen::FAMILIES.len() + 1;
    if index % n_families == scenario_gen::FAMILIES.len() {
        "star"
    } else {
        scenario_gen::FAMILIES[(index - index / n_families) % scenario_gen::FAMILIES.len()]
    }
}

/// The paper's star scenario for session `index` of stream `seed`: 3..=8
/// edges, seeded like the generated families.
fn star_scenario(seed: u64, index: usize) -> Scenario {
    let n = 3 + llm_sim::rng::SimRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64),
    )
    .index(6);
    let (topology, roles) = topo_model::star(n);
    let mut s = Modularizer::star_scenario(&topology, &roles);
    s.name = format!("star-no-transit-s{seed}-i{index}");
    s
}

/// The scenario session `index` of stream `seed` runs. Indices rotate
/// through all six families; the star family sizes its edge count from
/// the same per-index stream the generator uses.
pub fn scenario_for(seed: u64, index: usize) -> Scenario {
    let n_families = scenario_gen::FAMILIES.len() + 1;
    if index % n_families == scenario_gen::FAMILIES.len() {
        star_scenario(seed, index)
    } else {
        // Collapse the index space onto the generator's 5-family
        // rotation: star slots sit at index ≡ 5 (mod 6), so dropping
        // one index per completed window keeps `gen_index % 5` equal to
        // `index % 6` while staying unique per fleet index.
        let gen_index = index - index / n_families;
        scenario_gen::generate(seed, gen_index)
    }
}

/// [`scenario_for`] honoring the tuning's family pin: a pinned family
/// (large or rotation) generates by name with the fleet index as the
/// stream index; otherwise the default rotation applies.
pub fn scenario_for_tuned(seed: u64, index: usize, tuning: &SessionTuning) -> Scenario {
    match tuning.scenario_family {
        Some("star") => star_scenario(seed, index),
        Some(family) => scenario_gen::generate_family(family, seed, index),
        None => scenario_for(seed, index),
    }
}

/// [`scenario_for_tuned`] drawn through the worker's context: a pinned
/// large family's network is drawn once per pool
/// ([`VerifierContext::pinned_network`]), each of its intents is applied
/// once per pool ([`VerifierContext::pinned_scenario`]), and each index
/// gets that scenario under its own name, sharing its topology. Equal to
/// [`scenario_for_tuned`].
pub(crate) fn scenario_in(
    seed: u64,
    index: usize,
    tuning: &SessionTuning,
    ctx: &mut VerifierContext,
) -> Scenario {
    match tuning.scenario_family {
        Some(family) if scenario_gen::large_family_size(family).is_some() => {
            let network = ctx.pinned_network(family, seed, || {
                scenario_gen::pinned_network(family, seed).expect("large families pin a network")
            });
            let (intent, name) = scenario_gen::pinned_intent(family, seed, index);
            ctx.pinned_scenario(family, seed, intent.as_str(), name, || {
                let (topology, stubs) = &*network;
                scenario_gen::pinned_scenario(family, seed, index, Arc::clone(topology), stubs)
            })
        }
        _ => scenario_for_tuned(seed, index, tuning),
    }
}

/// A use case the generic fleet pipeline can drive: how to run one
/// session against a worker-resident [`VerifierContext`], how to reduce
/// session results to aggregate rows, and how to render reports. The
/// synthesis and repair shapes implement this in [`cases`]; a future
/// backend (a real LLM API, a new session shape, sharded managers)
/// plugs in here without touching the pipeline.
pub trait UseCase: Sized + Sync {
    /// Kebab-case use-case name (`--use-case` value, JSONL tag).
    const NAME: &'static str;
    /// Default report path for `fleet`.
    const DEFAULT_OUT: &'static str;
    /// One session's outcome, reduced to the fleet's metrics.
    type Result: Send + Clone + std::fmt::Debug;
    /// One aggregate row of the report.
    type Row: Clone + std::fmt::Debug;

    /// Runs session `index` of stream `seed` against `ctx` under the
    /// fleet's robustness `tuning`. Must be deterministic per
    /// `(seed, index, tuning)` — content independent of the context's
    /// history (no verifier state outlives a verdict, the memo serves
    /// only pure, confirmed values, and manager recycling reproduces a
    /// fresh manager's `Ref`s).
    fn run_session(
        seed: u64,
        index: usize,
        ctx: &mut VerifierContext,
        tuning: &SessionTuning,
    ) -> Self::Result;

    /// The sentinel result for a session that panicked.
    fn panic_result(index: usize) -> Self::Result;

    /// Whether this session stopped on its deadline (typed outcome).
    fn deadline_exceeded(result: &Self::Result) -> bool;

    /// Transport retries this session recorded.
    fn retries(result: &Self::Result) -> usize;

    /// The session's wall-clock, milliseconds.
    fn wall_ms(result: &Self::Result) -> f64;

    /// The session's index in the stream.
    fn index(result: &Self::Result) -> usize;

    /// The session's per-stage span trace (span counts are
    /// deterministic content; durations are wall-clock).
    fn trace(result: &Self::Result) -> telemetry::SessionTrace;

    /// The session's per-backend cost ledger.
    fn cost(result: &Self::Result) -> &CostLedger;

    /// Whether this session met the use case's per-session contract
    /// (synthesis: converged; repair: repaired without panicking).
    fn session_ok(result: &Self::Result) -> bool;

    /// One diagnostic line for a failed session.
    fn failure_line(result: &Self::Result) -> String;

    /// Reduces session results to aggregate rows.
    fn aggregate(results: &[Self::Result]) -> Vec<Self::Row>;

    /// Renders the human-readable aggregate table.
    fn table(rows: &[Self::Row]) -> String;

    /// One-line run summary for the console.
    fn summary_line(report: &FleetReport<Self>) -> String;

    /// Whether the whole fleet met the use case's contract (the CI
    /// smoke criterion; the `fleet` binary's exit status).
    fn fleet_ok(report: &FleetReport<Self>) -> bool;

    /// Renders the use case's `BENCH_*.json` document.
    fn bench_json(report: &FleetReport<Self>, sessions_requested: usize) -> String;

    /// Renders one session result as a single-line JSON object (the
    /// `fleet --serve` streaming format).
    fn result_json(result: &Self::Result) -> String;
}

/// Reuse counters of a run's worker pool: the manager pools' allocation
/// amortization, summed over workers, and the pool memo's verdict and
/// statics counters, read once for the pool. This is the observability
/// payload behind the `manager_pool` bench block and the `fleetd` drain
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Workers that contributed.
    pub workers: usize,
    /// Sessions started across all workers.
    pub sessions: usize,
    /// Space builds served by a recycled manager.
    pub manager_reuses: usize,
    /// Space builds that allocated a fresh manager.
    pub manager_allocs: usize,
    /// Largest BDD node arena seen at any space release
    /// (`Manager::stats().node_count` at its high-water mark).
    pub peak_nodes: usize,
    /// Managers dropped (never recycled) because the session that held
    /// them panicked — see `VerifierContext::quarantine`.
    pub quarantined: usize,
    /// The pool verdict memo's counters, read once for the pool after
    /// it has joined.
    pub memo: MemoCounters,
}

impl PoolCounters {
    /// Folds one worker's finished context into the per-worker totals.
    /// The memo's counters are the pool's, not the worker's: the pool's
    /// owner sets `memo` once its workers have joined.
    fn absorb(&mut self, ctx: &VerifierContext) {
        self.workers += 1;
        self.sessions += ctx.sessions;
        self.manager_reuses += ctx.pool.reuses;
        self.manager_allocs += ctx.pool.allocs;
        self.peak_nodes = self.peak_nodes.max(ctx.pool.peak_nodes);
        self.quarantined += ctx.pool.quarantined;
    }

    /// Fraction of space builds served by a recycled manager.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.manager_reuses + self.manager_allocs;
        if total == 0 {
            0.0
        } else {
            self.manager_reuses as f64 / total as f64
        }
    }
}

/// The whole fleet's outcome for one use case.
#[derive(Debug, Clone)]
pub struct FleetReport<U: UseCase> {
    /// Per-session results, in index order.
    pub results: Vec<U::Result>,
    /// Aggregate rows (per family for synthesis, per class × family for
    /// repair).
    pub rows: Vec<U::Row>,
    /// Worker threads used.
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
    /// Total wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Manager-pool counters, summed over workers, and the pool memo's
    /// counters.
    pub pool: PoolCounters,
}

impl<U: UseCase> FleetReport<U> {
    /// Sessions per second of wall-clock.
    pub fn throughput(&self) -> f64 {
        self.results.len() as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// Whether every session met the per-session contract.
    pub fn all_sessions_ok(&self) -> bool {
        self.results.iter().all(U::session_ok)
    }
}

/// Resolves the session-index job list for a fleet run, applying the
/// family filter by probing the deterministic scenario stream.
pub(crate) fn job_indices(sessions: usize, families: Option<&[String]>) -> Vec<usize> {
    let mut jobs = Vec::with_capacity(sessions);
    let mut index = 0usize;
    while jobs.len() < sessions {
        let keep = match families {
            None => true,
            Some(allow) => allow.iter().any(|f| f == family_of(index)),
        };
        if keep {
            jobs.push(index);
        }
        index += 1;
        // A filter naming no real family would loop forever; probe a
        // bounded window instead.
        if index > sessions * 64 + 64 {
            break;
        }
    }
    jobs
}

/// The one job queue behind every front-end (batch `run_case`, the
/// stdin and socket daemons): one `VecDeque` shard per worker, with
/// work-stealing.
///
/// Sharding keeps the hot path a short, mostly-uncontended lock: a
/// worker pops its own shard first and only scans the others when it
/// comes up empty. Producers distribute jobs round-robin via an atomic
/// cursor, so the daemon's **total** admission bound (`queue_depth`)
/// stays one occupancy check at admission — per-shard occupancy is at
/// most `ceil(depth / shards)` by construction, never enforced
/// per-push.
///
/// Wakeups go through one doorbell mutex + condvar. A producer pushes
/// to the shards *then* takes the doorbell to notify; a worker that
/// found every shard empty re-scans while holding the doorbell before
/// parking. A push therefore cannot slip between a worker's last scan
/// and its wait: if the notification fired before the wait began, the
/// producer held the doorbell after its push, which orders the push
/// before the worker's re-scan.
pub(crate) struct ShardedQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Round-robin producer cursor.
    cursor: AtomicUsize,
    /// `true` once the queue is closed; workers drain, then exit.
    doorbell: Mutex<bool>,
    available: Condvar,
}

impl<T> ShardedQueue<T> {
    pub(crate) fn new(shards: usize) -> Self {
        ShardedQueue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            cursor: AtomicUsize::new(0),
            doorbell: Mutex::new(false),
            available: Condvar::new(),
        }
    }

    /// Pushes one item onto the next shard in round-robin order. Call
    /// [`Self::notify`] once the batch is distributed.
    pub(crate) fn push(&self, item: T) {
        let s = self.cursor.fetch_add(1, Relaxed) % self.shards.len();
        lock_clean(&self.shards[s]).push_back(item);
    }

    /// Wakes every parked worker, holding the doorbell so the
    /// notification orders after the pushes (see the type docs).
    pub(crate) fn notify(&self) {
        let _held = lock_clean(&self.doorbell);
        self.available.notify_all();
    }

    /// One steal scan: worker `w`'s own shard first, then the others in
    /// ring order.
    fn try_pop(&self, w: usize) -> Option<T> {
        let n = self.shards.len();
        (0..n).find_map(|i| lock_clean(&self.shards[(w + i) % n]).pop_front())
    }

    /// Pops the next job for worker `w`, parking on the doorbell while
    /// the queue is globally empty. Returns `None` only once the queue
    /// is closed **and** drained, so no admitted job is ever dropped.
    pub(crate) fn pop(&self, w: usize) -> Option<T> {
        loop {
            if let Some(item) = self.try_pop(w) {
                return Some(item);
            }
            let closed = lock_clean(&self.doorbell);
            // Re-scan under the doorbell: any producer that pushed after
            // the scan above must take this lock to notify, so either
            // its item is visible here or its notification has not yet
            // fired and will wake the wait below.
            if let Some(item) = self.try_pop(w) {
                return Some(item);
            }
            if *closed {
                return None;
            }
            drop(
                self.available
                    .wait(closed)
                    .unwrap_or_else(|e| e.into_inner()),
            );
        }
    }

    /// Closes the queue: workers drain what remains, then exit.
    pub(crate) fn close(&self) {
        *lock_clean(&self.doorbell) = true;
        self.available.notify_all();
    }
}

/// Spawns the resident worker pool on `scope`: one worker per queue
/// shard, the one pool behind every front-end. Worker `w` owns one
/// [`VerifierContext`] for its whole lifetime, on the pool's `memo`
/// (made for as many workers as `queue` has shards), pops shard `w`
/// first (stealing from the others when it comes up dry), and hands
/// each job to `run` along with its context. Once the queue is closed
/// and drained, the worker folds its context into `counters`; the
/// caller reads the memo's counters once the pool has joined.
pub(crate) fn spawn_workers<'scope, T: Send + 'scope>(
    scope: &'scope Scope<'scope, '_>,
    queue: &'scope ShardedQueue<T>,
    memo: &'scope Arc<VerdictMemo>,
    counters: &'scope Mutex<PoolCounters>,
    run: impl Fn(usize, T, &mut VerifierContext) + Copy + Send + 'scope,
) {
    for w in 0..queue.shards.len() {
        scope.spawn(move || {
            let mut ctx = VerifierContext::with_memo(Arc::clone(memo));
            while let Some(job) = queue.pop(w) {
                run(w, job, &mut ctx);
            }
            lock_clean(counters).absorb(&ctx);
        });
    }
}

/// Runs one job on a worker's resident context, panic-contained: a job
/// that panics is caught, the context is quarantined (the managers the
/// unwind dropped are counted, never recycled — see
/// `VerifierContext::quarantine`), `sentinel` supplies the result, and
/// the worker carries on.
pub(crate) fn run_contained<R>(
    ctx: &mut VerifierContext,
    job: impl FnOnce(&mut VerifierContext) -> R,
    sentinel: impl FnOnce() -> R,
) -> R {
    // AssertUnwindSafe is sound because nothing a verdict builds outlives
    // it: a space and its manager live on the verdict's stack, so the
    // unwind drops whatever a panic left half-mutated, and quarantine
    // only counts the managers that never came back. What the context
    // keeps across jobs is the free list of cleared managers, the trace
    // (reset by the next `begin_session`) and the memo, which publishes
    // nothing for a claim a panic dropped. The sentinel must not
    // re-enter the job (if generation panicked, a second call would
    // re-panic).
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&mut *ctx))).unwrap_or_else(|_| {
        ctx.quarantine();
        sentinel()
    })
}

/// Runs session indices on the resident pool: every index is pushed
/// onto a closed `ShardedQueue` (round-robin over the worker shards)
/// and each worker runs `run` panic-contained (`run_contained`, with
/// `on_panic` as the sentinel). Shared locks are taken through
/// [`lock_clean`], so even a panic that escapes the containment (e.g.
/// inside a result's `Clone`) cannot cascade into aborting every other
/// worker. Results come back sorted by index, along with the pool's
/// counters.
fn run_pool<R: Send>(
    threads: usize,
    jobs: &[usize],
    run: impl Fn(usize, &mut VerifierContext) -> R + Sync,
    on_panic: impl Fn(usize) -> R + Sync,
) -> (Vec<(usize, R)>, PoolCounters) {
    let queue = ShardedQueue::new(threads);
    for &index in jobs {
        queue.push(index);
    }
    queue.close();
    let memo = VerdictMemo::for_pool(threads);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let counters: Mutex<PoolCounters> = Mutex::new(PoolCounters::default());
    std::thread::scope(|scope| {
        spawn_workers(scope, &queue, &memo, &counters, |_, index, ctx| {
            let result = run_contained(ctx, |ctx| run(index, ctx), || on_panic(index));
            lock_clean(&results).push((index, result));
        });
    });
    let mut results = results.into_inner().unwrap_or_else(|e| e.into_inner());
    results.sort_by_key(|r| r.0);
    let counters = PoolCounters {
        memo: memo.counters(),
        ..counters.into_inner().unwrap_or_else(|e| e.into_inner())
    };
    (results, counters)
}

/// Runs a fleet of `U` sessions — the one pipeline behind both use
/// cases (and any future one).
pub fn run_case<U: UseCase>(cfg: &FleetConfig) -> FleetReport<U> {
    let threads = cfg.threads.max(2);
    // A pinned family has no rotation to probe: every index runs it.
    let jobs = if cfg.tuning.scenario_family.is_some() {
        (0..cfg.sessions).collect()
    } else {
        job_indices(cfg.sessions, cfg.families.as_deref())
    };
    let seed = cfg.seed;
    let tuning = cfg.tuning;
    let t0 = Instant::now();
    let (results, pool) = run_pool(
        threads,
        &jobs,
        |index, ctx| U::run_session(seed, index, ctx, &tuning),
        U::panic_result,
    );
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let results: Vec<U::Result> = results.into_iter().map(|(_, r)| r).collect();
    let rows = U::aggregate(&results);
    FleetReport {
        results,
        rows,
        threads,
        seed: cfg.seed,
        wall_ms,
        pool,
    }
}

/// Runs the synthesis fleet (convenience wrapper over
/// [`run_case`]`::<`[`Synthesis`]`>`).
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport<Synthesis> {
    run_case::<Synthesis>(cfg)
}

/// Writes the shared head of every fleet `BENCH_*.json` document: run
/// metadata, throughput, and the `manager_pool` reuse block. Use-case
/// impls append their own aggregate blocks after this.
pub fn bench_prelude<U: UseCase>(
    bench: &str,
    report: &FleetReport<U>,
    sessions_requested: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"{bench}\",");
    let _ = writeln!(out, "  \"seed\": {},", report.seed);
    let _ = writeln!(out, "  \"sessions_requested\": {sessions_requested},");
    let _ = writeln!(out, "  \"sessions_run\": {},", report.results.len());
    let _ = writeln!(out, "  \"threads\": {},", report.threads);
    let _ = writeln!(out, "  \"wall_ms\": {:.1},", report.wall_ms);
    let _ = writeln!(
        out,
        "  \"throughput_sessions_per_s\": {:.2},",
        report.throughput()
    );
    let p = &report.pool;
    let _ = writeln!(out, "  \"manager_pool\": {{");
    let _ = writeln!(out, "    \"workers\": {},", p.workers);
    let _ = writeln!(out, "    \"manager_allocs\": {},", p.manager_allocs);
    let _ = writeln!(out, "    \"manager_reuses\": {},", p.manager_reuses);
    let _ = writeln!(out, "    \"reuse_rate\": {:.4},", p.reuse_rate());
    let _ = writeln!(out, "    \"peak_nodes\": {}", p.peak_nodes);
    let _ = writeln!(out, "  }},");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_stream_is_deterministic_and_covers_families() {
        let families: std::collections::BTreeSet<String> =
            (0..6).map(|i| scenario_for(5, i).family).collect();
        assert_eq!(families.len(), 6, "{families:?}");
        for i in 0..8 {
            assert_eq!(scenario_for(5, i), scenario_for(5, i));
        }
        // The positional family label agrees with the built scenario.
        for i in 0..13 {
            assert_eq!(scenario_for(5, i).family, family_of(i), "index {i}");
        }
        // Same family slot, different index → different scenario name.
        assert_ne!(scenario_for(5, 0).name, scenario_for(5, 6).name);
    }

    #[test]
    fn fleet_runs_in_parallel_and_aggregates() {
        let cfg = FleetConfig {
            sessions: 8,
            seed: 1,
            threads: 3,
            families: None,
            tuning: SessionTuning::default(),
        };
        let report = run_fleet(&cfg);
        assert_eq!(report.results.len(), 8);
        assert!(report.all_sessions_ok(), "{:#?}", report.results);
        // Deterministic content under a different thread count.
        let report2 = run_fleet(&FleetConfig {
            threads: 2,
            ..cfg.clone()
        });
        for (a, b) in report.results.iter().zip(&report2.results) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.auto, b.auto);
            assert_eq!(a.human, b.human);
            assert_eq!(a.sim_rounds, b.sim_rounds);
        }
        let json = Synthesis::bench_json(&report, 8);
        assert!(json.contains("\"cosynth_fleet\""), "{json}");
        assert!(json.contains("\"families\""), "{json}");
        assert!(json.contains("\"manager_pool\""), "{json}");
        let total: usize = report.rows.iter().map(|r| r.sessions).sum();
        assert_eq!(total, 8);
        // Resident workers really recycled: 8 sessions across ≤3
        // workers must reuse managers, and the counters must say so.
        assert!(report.pool.manager_reuses > 0, "{:?}", report.pool);
        assert_eq!(report.pool.sessions, 8);
    }

    #[test]
    fn family_filter_selects_only_that_family() {
        let report = run_fleet(&FleetConfig {
            sessions: 3,
            seed: 2,
            threads: 2,
            families: Some(vec!["ring".into()]),
            tuning: SessionTuning::default(),
        });
        assert_eq!(report.results.len(), 3);
        assert!(report.results.iter().all(|r| r.family == "ring"));
    }

    #[test]
    fn repair_fleet_is_deterministic_and_aggregates_cells() {
        let cfg = FleetConfig {
            sessions: 10,
            seed: 1,
            threads: 3,
            families: None,
            tuning: SessionTuning::default(),
        };
        let report = run_case::<Repair>(&cfg);
        assert_eq!(report.results.len(), 10);
        assert!(report.all_sessions_ok(), "{:#?}", report.results);
        // Deterministic content under a different thread count.
        let report2 = run_case::<Repair>(&FleetConfig {
            threads: 2,
            ..cfg.clone()
        });
        for (a, b) in report.results.iter().zip(&report2.results) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.class, b.class);
            assert_eq!(a.device, b.device);
            assert_eq!(a.repaired, b.repaired);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.localized, b.localized);
            assert_eq!((a.auto, a.human), (b.auto, b.human));
        }
        let total: usize = report.rows.iter().map(|r| r.sessions).sum();
        assert_eq!(total, 10);
        let json = Repair::bench_json(&report, 10);
        assert!(json.contains("\"cosynth_repair\""), "{json}");
        assert!(json.contains("\"localization_precision\""), "{json}");
        assert!(json.contains("\"mean_rounds_to_fix\""), "{json}");
        assert!(json.contains("\"manager_pool\""), "{json}");
    }

    #[test]
    fn pinned_repair_fleet_builds_each_network_once_per_worker() {
        let report = run_case::<Repair>(&FleetConfig {
            sessions: 16,
            seed: 1,
            threads: 2,
            families: None,
            tuning: SessionTuning {
                scenario_family: Some("as-graph-64"),
                ..SessionTuning::default()
            },
        });
        assert_eq!(report.results.len(), 16);
        let p = report.pool;
        // One topology and at most four intents, on two workers.
        assert!(p.memo.statics_builds <= 8, "{p:?}");
        // Each session looks its bundle up once, when its job is
        // prepared; the incremental verifier reuses the job's bundle.
        assert_eq!(p.memo.statics_builds + p.memo.statics_hits, 16, "{p:?}");
        // One network draw per worker, and the intents' references
        // share the texts of every router whose prompt they share.
        assert!(p.memo.networks_drawn <= 2, "{p:?}");
        assert_eq!(p.memo.networks_drawn + p.memo.networks_reused, 16, "{p:?}");
        assert!(p.memo.texts_reused > p.memo.texts_rendered, "{p:?}");
        assert!(
            p.memo.verdict_hits > 0 && p.memo.verdict_misses > 0,
            "{p:?}"
        );
        assert_eq!(p.memo.confirm_mismatches, 0, "{p:?}");
        // At most one scenario body per intent on each worker, and one
        // fingerprint per topology allocation on each: the pinned
        // network and prefer-customer's extended copy.
        assert!(p.memo.scenarios_built <= 8, "{p:?}");
        assert!(p.memo.topology_fps <= 4, "{p:?}");
    }

    #[test]
    fn pinned_repair_fleet_builds_each_network_once_per_pool() {
        let tuning = SessionTuning {
            scenario_family: Some("as-graph-64"),
            ..SessionTuning::default()
        };
        let report = run_case::<Repair>(&FleetConfig {
            sessions: 16,
            seed: 1,
            threads: 2,
            families: None,
            tuning,
        });
        assert_eq!(report.results.len(), 16);
        let p = report.pool;
        // Both workers share one memo: one network draw, one body per
        // intent, one fingerprint for the network and one for
        // prefer-customer's copy, one statics bundle per intent.
        assert_eq!(p.memo.networks_drawn, 1, "{p:?}");
        assert_eq!(p.memo.networks_drawn + p.memo.networks_reused, 16, "{p:?}");
        assert!(p.memo.scenarios_built <= 4, "{p:?}");
        assert!(p.memo.topology_fps <= 2, "{p:?}");
        assert!(p.memo.statics_builds <= 4, "{p:?}");
        assert_eq!(p.memo.confirm_mismatches, 0, "{p:?}");
        // Each distinct prompt is rendered once by the pool: exactly as
        // many texts as one context renders over the same jobs.
        let mut ctx = VerifierContext::new();
        for index in 0..16 {
            cases::run_repair_session_tuned(1, index, &mut ctx, &tuning);
        }
        assert_eq!(
            p.memo.texts_rendered,
            ctx.memo_counters().texts_rendered,
            "{p:?}"
        );
    }

    #[test]
    fn pinned_scenarios_share_their_network_and_equal_the_generator() {
        let seed = 1;
        let mut ctx = VerifierContext::new();
        for family in ["as-graph-64", "fat-tree-36"] {
            let tuning = SessionTuning {
                scenario_family: Some(family),
                ..SessionTuning::default()
            };
            let mut by_intent: std::collections::BTreeMap<String, Arc<topo_model::Topology>> =
                Default::default();
            for index in 0..32 {
                let s = scenario_in(seed, index, &tuning, &mut ctx);
                assert_eq!(
                    s,
                    scenario_for_tuned(seed, index, &tuning),
                    "{family} {index}"
                );
                let shared = by_intent
                    .entry(s.intent.clone())
                    .or_insert_with(|| Arc::clone(&s.topology));
                assert!(Arc::ptr_eq(shared, &s.topology), "{}", s.name);
            }
            assert_eq!(by_intent.len(), 4, "{family}: {:?}", by_intent.keys());
            // Only prefer-customer extends the network, so only its
            // bodies hold a copy.
            let network = ctx.pinned_network(family, seed, || unreachable!("drawn above"));
            for (intent, topology) in &by_intent {
                assert_eq!(
                    Arc::ptr_eq(&network.0, topology),
                    intent != "prefer-customer",
                    "{family} {intent}"
                );
            }
        }
        let memo = ctx.memo_counters();
        assert_eq!(memo.scenarios_built, 8, "{memo:?}");
        assert_eq!(memo.topology_fps, 4, "{memo:?}");
    }

    #[test]
    fn lock_clean_recovers_a_poisoned_mutex() {
        let m = Mutex::new(41);
        // Poison it: a panic while the guard is held.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison");
        }));
        assert!(m.is_poisoned());
        *lock_clean(&m) += 1;
        assert_eq!(*lock_clean(&m), 42);
    }

    #[test]
    fn one_panicking_job_does_not_abort_the_fleet() {
        // Regression: the shared queues and result vector used
        // `.lock().unwrap()`, so a panic inside `run` (while other
        // workers contend for the same locks) could cascade into
        // aborting the whole pool. Now the pool catches the panic,
        // quarantines the worker's context, and substitutes the
        // sentinel.
        let jobs: Vec<usize> = (0..12).collect();
        let (results, counters) = run_pool(
            3,
            &jobs,
            |index, _ctx| {
                if index % 4 == 2 {
                    panic!("injected worker panic");
                }
                index * 10
            },
            |index| usize::MAX - index,
        );
        assert_eq!(results.len(), 12, "every job gets a result");
        for (index, r) in &results {
            if index % 4 == 2 {
                assert_eq!(*r, usize::MAX - index, "sentinel for panicked job");
            } else {
                assert_eq!(*r, index * 10);
            }
        }
        assert_eq!(counters.workers, 3, "all workers survived to report");
    }

    #[test]
    fn panicked_session_quarantines_its_managers() {
        // A job that builds a space on its pool's manager and panics
        // while holding it: the unwind drops the manager, and quarantine
        // counts it instead of parking it for the next session.
        let jobs: Vec<usize> = (0..6).collect();
        let (results, counters) = run_pool(
            2,
            &jobs,
            |index, ctx| {
                ctx.begin_session();
                let scenario = scenario_for(1, 0);
                let assignments = Modularizer::assign_scenario(&scenario);
                let a = assignments
                    .iter()
                    .find(|a| a.checks.iter().any(bf_lite::LocalPolicyCheck::is_symbolic))
                    .expect("scenario has a symbolic policy router");
                let d = bf_lite::parse_config(
                    &llm_sim::synth_task::SynthesisDraft::new(
                        &a.prompt,
                        std::collections::BTreeSet::new(),
                    )
                    .render(),
                    Some(bf_lite::Vendor::Cisco),
                )
                .device;
                let space = bf_lite::space_for_checks_in(ctx.pool.acquire(), &d, &a.checks);
                if index % 2 == 1 {
                    panic!("injected worker panic");
                }
                ctx.pool.release(space.into_manager());
                index
            },
            |index| index + 1000,
        );
        assert_eq!(results.len(), 6);
        // Three of the six jobs panic, each holding one manager.
        assert_eq!(
            counters.quarantined, 3,
            "panicked sessions must quarantine: {counters:?}"
        );
        // Conservation: every alloc is parked (at most one per worker)
        // or quarantined — the absorbed totals can't count a quarantined
        // manager as reusable.
        assert!(counters.manager_allocs >= counters.quarantined);
        assert!(
            counters.manager_allocs <= counters.quarantined + counters.workers,
            "{counters:?}"
        );
    }

    #[test]
    fn fleets_hold_one_bdd_manager_per_worker() {
        // A local verdict builds its space on a manager from the
        // worker's pool and returns it before the verdict ends, so no
        // worker ever holds two managers: each allocates one and
        // recycles it for every space it builds, in both use cases.
        let cfg = FleetConfig {
            sessions: 64,
            seed: 1,
            threads: 2,
            families: None,
            tuning: SessionTuning::default(),
        };
        for pool in [
            run_case::<Synthesis>(&cfg).pool,
            run_case::<Repair>(&cfg).pool,
        ] {
            assert_eq!(pool.workers, 2, "{pool:?}");
            assert!(pool.manager_allocs <= pool.workers, "{pool:?}");
            assert!(pool.manager_reuses > 0, "{pool:?}");
            assert_eq!(pool.quarantined, 0, "{pool:?}");
        }
    }

    #[test]
    fn repair_fleet_respects_the_family_filter() {
        let report = run_case::<Repair>(&FleetConfig {
            sessions: 3,
            seed: 2,
            threads: 2,
            families: Some(vec!["star".into()]),
            tuning: SessionTuning::default(),
        });
        assert_eq!(report.results.len(), 3);
        assert!(report.results.iter().all(|r| r.family == "star"));
    }
}
