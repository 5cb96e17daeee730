//! `fleetd` — the resident service behind `fleet --serve`: its
//! protocol, its ledger, and the stdin front-end.
//!
//! Both daemon front-ends run on one engine (`server::Core`): the
//! resident worker pool that the batch fleet also uses, so workers are
//! spawned once and each owns a warm [`VerifierContext`] (and its
//! manager pool) for its whole lifetime, across every batch. The stdin
//! front-end ([`serve`]) is one connection on that engine; the socket
//! front-end ([`crate::server`]) is many. The protocol is
//! line-oriented on both sides:
//!
//! * **Requests** (one JSON object per line on stdin):
//!   `{"use_case": "synthesis" | "repair", "seed": 1, "count": 8,
//!   "families": ["ring", "star"], "deadline_ms": 500}` — `use_case`
//!   defaults to `synthesis`, `seed` to 1 (at most 2^53 - 1, the
//!   largest integer a JSON number carries exactly), `count` to 1;
//!   `families` (array or comma-separated string; `family` is accepted
//!   as an alias) filters the deterministic scenario stream exactly like
//!   `fleet --families`; `deadline_ms` is the batch's admission
//!   deadline (jobs still queued when it expires are shed, and `0`
//!   means already-expired: the whole batch is shed at admission).
//! * **Results** (one JSON object per line on stdout): each session's
//!   metrics as rendered by [`UseCase::result_json`], streamed in
//!   completion order as workers finish them. Every session result
//!   carries a typed `outcome`: `completed`, `deadline_exceeded`, or
//!   `panicked`.
//! * **Rejects**: work the service refuses is *accounted*, never
//!   dropped silently — one `{"event":"reject","reason":...}` line per
//!   refusal (aggregated with a `shed` count for admission-time sheds).
//!   Reasons: `bad_request` (with the [`RequestError`] `code`),
//!   `queue_full`, `over_deadline`.
//! * **Batch end**: after every batch, one
//!   `{"event":"batch","requested":N,"completed":N,"failed":N,"shed":S}`
//!   line.
//! * **Drain**: on stdin EOF the pool drains and the final line reports
//!   the resident-engine counters plus the robustness ledger —
//!   submitted/completed/shed/deadline-exceeded/quarantined and
//!   `"accounted":true` when the identity
//!   `submitted = completed + shed + deadline_exceeded + quarantined`
//!   holds.
//!
//! Stdin runs in lockstep: a line's events are written until its batch
//! is done before the next line is read. That keeps admission
//! deterministic: the queue is empty at every admission, so
//! `queue_full` sheds exactly `max(0, batch - depth)` jobs regardless
//! of worker scheduling (the chaos gauntlet relies on this).

use crate::server::{Conn, ConnReader, ConnWriter, Core};
use crate::{cases, chaos, run_contained, PoolCounters, SessionTuning, UseCase};
use cosynth::session::SessionBudget;
use cosynth::{MemoCounters, VerifierContext};
use criterion::SampleStats;
use llm_sim::{CostLedger, Tier, TransportModel};
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::Instant;
use telemetry::{
    CounterId, GaugeId, HistId, LabeledId, Registry, SessionTrace, Snapshot, StageHists,
};
use topo_model::json::{self, Json, ObjBuilder};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Resident worker threads (min 2).
    pub threads: usize,
    /// Topology-family filter applied to requests that carry none of
    /// their own (the CLI's `--families` under `--serve`).
    pub default_families: Option<Vec<String>>,
    /// Admission control: the most jobs queued at once, across every
    /// batch and connection. A batch is admitted up to the room left
    /// and the excess is shed with a typed `queue_full` reject. The
    /// stdin front-end admits a batch only once the previous one is
    /// done, so there the bound is per batch.
    pub queue_depth: usize,
    /// Robustness knobs applied to every served session.
    pub tuning: SessionTuning,
    /// Seeded chaos plan: per-job fault directives (worker panics, slow
    /// sessions, flaky backends) assigned by global job sequence number
    /// at enqueue time, so injection is deterministic per plan seed
    /// regardless of worker scheduling.
    pub chaos: Option<chaos::ChaosPlan>,
    /// Emit a `{"event":"metrics"}` registry snapshot at drain (the
    /// CLI's `--metrics`). A `{"metrics":true}` request line always
    /// gets one regardless of this flag.
    pub emit_metrics: bool,
    /// Stream one `{"event":"trace"}` line (the session's per-stage
    /// span totals) after each session result (the CLI's `--trace`).
    pub stream_traces: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: crate::default_threads(),
            default_families: None,
            queue_depth: 1024,
            tuning: SessionTuning::default(),
            chaos: None,
            emit_metrics: false,
            stream_traces: false,
        }
    }
}

/// What the service did. The daemon-wide ledger that [`serve`] and
/// [`crate::serve_listener`] return is a view of the service registry
/// ([`ServeSummary::from_snapshot`]); a socket connection's own ledger
/// is folded by `record` and dropped with the connection.
///
/// The service's exit contract is deliberately **stricter** than the
/// batch fleet's: every served session must meet its *per-session*
/// contract (synthesis: converged; repair: repaired without panic),
/// where batch-mode repair only requires no panics and a non-zero
/// overall rate. A service consumer submits jobs it expects to
/// succeed, and the CI smoke asserts exactly this; a legitimately
/// hard batch can still be judged from the streamed per-session lines
/// while ignoring the exit status.
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Batches accepted.
    pub batches: usize,
    /// Sessions run (all typed outcomes: completed + deadline-exceeded
    /// + quarantined).
    pub sessions: usize,
    /// Sessions that failed their use case's per-session contract.
    pub failures: usize,
    /// Malformed request lines (each also a `bad_request` reject).
    pub protocol_errors: usize,
    /// Jobs submitted across all well-formed batches (run + shed).
    pub submitted: usize,
    /// Sessions that ran to a `completed` outcome (whether or not they
    /// met the per-session contract).
    pub completed: usize,
    /// Jobs shed at admission because the batch overflowed the queue.
    pub shed_queue_full: usize,
    /// Jobs shed because their batch deadline expired before a worker
    /// picked them up (or the batch arrived already expired).
    pub shed_over_deadline: usize,
    /// Sessions that stopped on their own deadline (typed outcome).
    pub deadline_exceeded: usize,
    /// Sessions that panicked; each quarantined its worker's managers.
    pub quarantined: usize,
    /// Jobs still queued or running when the ledger was read: a
    /// snapshot's `queue_depth` plus `in_flight_sessions` gauges. Zero
    /// at drain and on a connection's ledger.
    pub pending: usize,
    /// Transport retries absorbed across all sessions.
    pub transport_retries: usize,
    /// Model calls billed by every session that ran (shed jobs and
    /// panicked sessions bill none).
    pub llm_calls: u64,
    /// Their total price, milli-units.
    pub milli_cost: u64,
    /// Calls per backend tier, indexed like [`Tier::ALL`].
    pub backend_calls: [u64; Tier::ALL.len()],
    /// Wall-clock spread of every session that ran, panicked ones
    /// included, from the registry's `session` histogram (None on a
    /// connection's ledger, or when no session ran).
    pub session_ms: Option<SampleStats>,
    /// Resident-pool counters summed over workers at drain.
    pub pool: PoolCounters,
}

impl ServeSummary {
    /// The ledger a registry snapshot holds, read by counter name;
    /// `pool` is left for the caller.
    pub fn from_snapshot(snap: &Snapshot) -> ServeSummary {
        let n = |name: &str| snap.counter(name) as usize;
        ServeSummary {
            batches: n("batches"),
            sessions: n("completed") + n("deadline_exceeded") + n("quarantined"),
            failures: n("failures"),
            protocol_errors: n("protocol_errors"),
            submitted: n("submitted"),
            completed: n("completed"),
            shed_queue_full: n("shed_queue_full"),
            shed_over_deadline: n("shed_over_deadline"),
            deadline_exceeded: n("deadline_exceeded"),
            quarantined: n("quarantined"),
            pending: (snap.gauge("queue_depth") + snap.gauge("in_flight_sessions")) as usize,
            transport_retries: n("transport_retries"),
            llm_calls: snap.counter("llm_calls"),
            milli_cost: snap.counter("milli_cost"),
            backend_calls: Tier::ALL.map(|t| snap.counter(&backend_calls_name(t))),
            session_ms: snap.hist("session").and_then(|h| h.stats_ms()),
            pool: PoolCounters::default(),
        }
    }

    /// Whether every submitted job is accounted for by exactly one
    /// state: `submitted = completed + shed + deadline_exceeded +
    /// quarantined + pending`. This is the robustness layer's
    /// conservation law.
    pub fn accounted(&self) -> bool {
        self.submitted
            == self.completed
                + self.shed_queue_full
                + self.shed_over_deadline
                + self.deadline_exceeded
                + self.quarantined
                + self.pending
    }

    /// Whether the total milli-cost equals each tier's calls priced at
    /// its unit cost: the cost-side mirror of [`Self::accounted`].
    pub fn cost_accounted(&self) -> bool {
        self.milli_cost
            == Tier::ALL
                .iter()
                .zip(self.backend_calls)
                .map(|(t, calls)| calls * t.unit_milli_cost())
                .sum::<u64>()
    }

    /// The service met its strict contract: every session ok, every
    /// request well-formed, nothing shed, everything accounted.
    pub fn ok(&self) -> bool {
        self.failures == 0
            && self.protocol_errors == 0
            && self.shed_queue_full == 0
            && self.shed_over_deadline == 0
            && self.accounted()
    }

    /// Appends the ledger's fields to a drain line, in wire order: the
    /// counts, the conservation verdict, and the model-cost totals.
    pub(crate) fn ledger_fields(&self, b: ObjBuilder) -> ObjBuilder {
        b.u64("batches", self.batches as u64)
            .u64("sessions", self.sessions as u64)
            .u64("failures", self.failures as u64)
            .u64("protocol_errors", self.protocol_errors as u64)
            .u64("submitted", self.submitted as u64)
            .u64("completed", self.completed as u64)
            .u64("shed_queue_full", self.shed_queue_full as u64)
            .u64("shed_over_deadline", self.shed_over_deadline as u64)
            .u64("deadline_exceeded", self.deadline_exceeded as u64)
            .u64("quarantined", self.quarantined as u64)
            .u64("transport_retries", self.transport_retries as u64)
            .bool("accounted", self.accounted())
            .u64("llm_calls", self.llm_calls)
            .u64("milli_cost", self.milli_cost)
            .bool("cost_accounted", self.cost_accounted())
    }

    /// Folds one dequeued job's typed outcome into a connection's
    /// ledger: the outcome counter, the per-session contract, and — for
    /// a session that ran — its retries and model cost.
    pub(crate) fn record(&mut self, done: &Completion) {
        match done.class {
            CompletionClass::Completed { ok } => {
                self.sessions += 1;
                self.completed += 1;
                if !ok {
                    self.failures += 1;
                }
            }
            CompletionClass::DeadlineExceeded => {
                self.sessions += 1;
                self.deadline_exceeded += 1;
                self.failures += 1;
            }
            CompletionClass::Panicked => {
                self.sessions += 1;
                self.quarantined += 1;
                self.failures += 1;
            }
            CompletionClass::Shed => {
                self.shed_over_deadline += 1;
                return;
            }
        }
        self.transport_retries += done.retries;
        self.llm_calls += done.cost.total_calls();
        self.milli_cost += done.cost.total_milli_cost();
        for (calls, t) in self.backend_calls.iter_mut().zip(Tier::ALL) {
            *calls += done.cost.calls_for(t.name());
        }
    }
}

/// A typed request-parse failure: the `code` is what lands in the
/// `bad_request` reject event, so consumers can dispatch without
/// string-matching the human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line is not JSON at all (includes a line truncated at EOF).
    BadJson(String),
    /// The line is JSON but not an object.
    NotAnObject,
    /// `use_case` names no known session shape.
    UnknownUseCase(String),
    /// A known field carries the wrong type or range.
    BadField {
        /// The offending field.
        field: &'static str,
        /// What it must be.
        expected: &'static str,
    },
    /// `count` is zero: a batch with no sessions is a protocol error,
    /// not a no-op.
    EmptyBatch,
}

impl RequestError {
    /// Stable snake_case code for the reject event.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::BadJson(_) => "bad_json",
            RequestError::NotAnObject => "not_an_object",
            RequestError::UnknownUseCase(_) => "unknown_use_case",
            RequestError::BadField { .. } => "bad_field",
            RequestError::EmptyBatch => "empty_batch",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BadJson(e) => write!(f, "bad JSON: {e}"),
            RequestError::NotAnObject => write!(f, "request must be a JSON object"),
            RequestError::UnknownUseCase(s) => {
                write!(f, "unknown use_case {s:?} (known: synthesis, repair)")
            }
            RequestError::BadField { field, expected } => {
                write!(f, "{field} must be {expected}")
            }
            RequestError::EmptyBatch => write!(f, "count must be at least 1"),
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a batch of sessions.
    Batch(BatchRequest),
    /// `{"metrics":true}` — emit one `{"event":"metrics"}` snapshot of
    /// the service's telemetry registry and read the next line.
    Metrics,
    /// `{"shutdown":true}` — graceful drain: stop accepting work (and,
    /// on the socket front-end, new connections), finish every
    /// in-flight batch, and emit the final drain summary.
    Shutdown,
}

/// One parsed batch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Which session shape to run.
    pub use_case: CaseKind,
    /// Scenario/fault/model stream seed.
    pub seed: u64,
    /// Sessions to run.
    pub count: usize,
    /// Optional topology-family filter.
    pub families: Option<Vec<String>>,
    /// Optional admission deadline for the batch, milliseconds from
    /// admission. `Some(0)` means already expired.
    pub deadline_ms: Option<u64>,
    /// Optional tenant id: completions fold into the per-`client`
    /// labeled counters (sessions, shed, deadline-exceeded, llm_calls,
    /// milli_cost). Batches without one are accounted under
    /// [`ANONYMOUS_CLIENT`].
    pub client: Option<String>,
    /// Optional opaque batch tag, echoed on the `{"event":"batch"}`
    /// line so pipelined clients (the `loadgen` bin) can attribute
    /// batch completions without counting lines.
    pub tag: Option<String>,
}

/// The tenant label batches without a `client` id fold into.
pub const ANONYMOUS_CLIENT: &str = "anonymous";

/// The use cases the service can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// Full VPP synthesis sessions.
    Synthesis,
    /// Fault-injection repair sessions.
    Repair,
}

impl CaseKind {
    pub(crate) fn name(self) -> &'static str {
        match self {
            CaseKind::Synthesis => cases::Synthesis::NAME,
            CaseKind::Repair => cases::Repair::NAME,
        }
    }
}

/// The largest seed a request may carry: 2^53 - 1, the largest integer
/// a JSON number (an f64) carries exactly. A larger seed would run a
/// different stream than the one requested.
const MAX_EXACT_SEED: f64 = 9_007_199_254_740_991.0;

/// Parses one request line. Unknown fields are ignored (forward
/// compatibility); a wrong type, unknown use case, or empty batch is a
/// typed [`RequestError`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let v = json::parse(line).map_err(|e| RequestError::BadJson(e.to_string()))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(RequestError::NotAnObject);
    }
    match v.get("metrics") {
        None => {}
        Some(Json::Bool(true)) => return Ok(Request::Metrics),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "metrics",
                expected: "the literal true",
            })
        }
    }
    match v.get("shutdown") {
        None => {}
        Some(Json::Bool(true)) => return Ok(Request::Shutdown),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "shutdown",
                expected: "the literal true",
            })
        }
    }
    let use_case = match v.get("use_case").or_else(|| v.get("use-case")) {
        None => CaseKind::Synthesis,
        Some(Json::Str(s)) if s == cases::Synthesis::NAME => CaseKind::Synthesis,
        Some(Json::Str(s)) if s == cases::Repair::NAME => CaseKind::Repair,
        Some(Json::Str(s)) => return Err(RequestError::UnknownUseCase(s.clone())),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "use_case",
                expected: "a string",
            })
        }
    };
    let seed = match v.get("seed") {
        None => 1,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_SEED => *n as u64,
        Some(_) => {
            return Err(RequestError::BadField {
                field: "seed",
                expected: "a non-negative integer of at most 2^53 - 1",
            })
        }
    };
    let count = match v.get("count").or_else(|| v.get("sessions")) {
        None => 1,
        Some(Json::Num(n)) if *n == 0.0 => return Err(RequestError::EmptyBatch),
        Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 && *n <= 1e6 => *n as usize,
        Some(_) => {
            return Err(RequestError::BadField {
                field: "count",
                expected: "a positive integer",
            })
        }
    };
    let families = match v.get("families").or_else(|| v.get("family")) {
        None => None,
        Some(Json::Str(s)) => Some(s.split(',').map(|f| f.trim().to_string()).collect()),
        Some(Json::Arr(items)) => {
            let mut fams = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(f) => fams.push(f.to_string()),
                    None => {
                        return Err(RequestError::BadField {
                            field: "families",
                            expected: "a string or an array of strings",
                        })
                    }
                }
            }
            Some(fams)
        }
        Some(_) => {
            return Err(RequestError::BadField {
                field: "families",
                expected: "a string or an array of strings",
            })
        }
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "deadline_ms",
                expected: "a non-negative integer",
            })
        }
    };
    let client = match v.get("client") {
        None => None,
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= 64 => Some(s.clone()),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "client",
                expected: "a non-empty string of at most 64 bytes",
            })
        }
    };
    let tag = match v.get("tag") {
        None => None,
        Some(Json::Str(s)) if s.len() <= 128 => Some(s.clone()),
        Some(_) => {
            return Err(RequestError::BadField {
                field: "tag",
                expected: "a string of at most 128 bytes",
            })
        }
    };
    Ok(Request::Batch(BatchRequest {
        use_case,
        seed,
        count,
        families,
        deadline_ms,
        client,
        tag,
    }))
}

/// One enqueued session job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub(crate) kind: CaseKind,
    pub(crate) seed: u64,
    pub(crate) index: usize,
    /// Chaos directive assigned at enqueue (by global sequence number).
    pub(crate) directive: Option<chaos::SessionDirective>,
    /// Wall-clock admission deadline; a job still queued past it is
    /// shed at dequeue.
    pub(crate) deadline: Option<Instant>,
}

/// The typed outcome class of one dequeued job.
pub(crate) enum CompletionClass {
    /// The session ran to completion; `ok` is the per-session contract.
    Completed { ok: bool },
    /// The session stopped on its own deadline budget.
    DeadlineExceeded,
    /// The session panicked; the worker quarantined its context.
    Panicked,
    /// The job was shed at dequeue: its admission deadline had expired.
    Shed,
}

/// What a worker sends back per dequeued job.
pub(crate) struct Completion {
    pub(crate) line: String,
    pub(crate) class: CompletionClass,
    pub(crate) wall_ms: f64,
    pub(crate) retries: usize,
    /// The session's per-stage spans (empty for shed/panicked jobs);
    /// folded into the service registry's stage histograms.
    pub(crate) trace: SessionTrace,
    /// Pre-rendered `{"event":"trace"}` line when trace streaming is on.
    pub(crate) trace_line: Option<String>,
    /// The session's cost ledger (empty for shed/panicked jobs).
    pub(crate) cost: CostLedger,
}

/// Runs one job on a worker's resident context, panic-contained: a
/// panicking session (organic or chaos-injected) quarantines the
/// context's live managers and reports the typed `panicked` outcome.
pub(crate) fn run_job(
    job: Job,
    ctx: &mut VerifierContext,
    base: &SessionTuning,
    want_trace: bool,
) -> Completion {
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            return Completion {
                line: ObjBuilder::event("reject")
                    .str("reason", "over_deadline")
                    .str("use_case", job.kind.name())
                    .u64("session", job.index as u64)
                    .finish(),
                class: CompletionClass::Shed,
                wall_ms: 0.0,
                retries: 0,
                trace: SessionTrace::new(),
                trace_line: None,
                cost: CostLedger::new(),
            };
        }
    }
    let mut tuning = *base;
    let inject_panic = match job.directive {
        Some(d) => {
            if d.flaky {
                tuning.transport = TransportModel::flaky();
            }
            if d.slow {
                // A "slow" session is modelled as a prompt budget of
                // zero — it trips its deadline immediately and
                // deterministically (a wall-clock stall would make the
                // injection racy).
                tuning.budget = SessionBudget {
                    max_prompts: Some(0),
                    ..tuning.budget
                };
            }
            d.inject_panic
        }
        None => false,
    };
    fn one<U: UseCase>(
        seed: u64,
        index: usize,
        ctx: &mut VerifierContext,
        tuning: &SessionTuning,
        inject_panic: bool,
        want_trace: bool,
    ) -> Completion {
        let t0 = Instant::now();
        run_contained(
            ctx,
            |ctx| {
                if inject_panic {
                    chaos::poison_and_panic(ctx);
                }
                let result = U::run_session(seed, index, ctx, tuning);
                let trace = U::trace(&result);
                Completion {
                    class: if U::deadline_exceeded(&result) {
                        CompletionClass::DeadlineExceeded
                    } else {
                        CompletionClass::Completed {
                            ok: U::session_ok(&result),
                        }
                    },
                    wall_ms: U::wall_ms(&result),
                    retries: U::retries(&result),
                    trace,
                    trace_line: want_trace.then(|| {
                        ObjBuilder::event("trace")
                            .str("use_case", U::NAME)
                            .u64("session", index as u64)
                            .raw("stages", &trace.to_json())
                            .finish()
                    }),
                    cost: U::cost(&result).clone(),
                    line: U::result_json(&result),
                }
            },
            || Completion {
                line: U::result_json(&U::panic_result(index)),
                class: CompletionClass::Panicked,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
                retries: 0,
                trace: SessionTrace::new(),
                trace_line: None,
                cost: CostLedger::new(),
            },
        )
    }
    match job.kind {
        CaseKind::Synthesis => {
            one::<cases::Synthesis>(job.seed, job.index, ctx, &tuning, inject_panic, want_trace)
        }
        CaseKind::Repair => {
            one::<cases::Repair>(job.seed, job.index, ctx, &tuning, inject_panic, want_trace)
        }
    }
}

/// The registry name of a tier's call counter.
fn backend_calls_name(t: Tier) -> String {
    format!("backend_calls_{}", t.metric_suffix())
}

/// The service's telemetry registry handles: one counter per ledger
/// field, the queue gauges, the per-stage latency histograms, and a
/// whole-session one. The registry is the daemon's only copy of each
/// count; [`ServeSummary::from_snapshot`] reads it back by name.
pub(crate) struct MetricIds {
    pub(crate) batches: CounterId,
    pub(crate) failures: CounterId,
    pub(crate) submitted: CounterId,
    pub(crate) completed: CounterId,
    pub(crate) shed_queue_full: CounterId,
    pub(crate) shed_over_deadline: CounterId,
    pub(crate) deadline_exceeded: CounterId,
    pub(crate) quarantined: CounterId,
    pub(crate) protocol_errors: CounterId,
    pub(crate) transport_retries: CounterId,
    pub(crate) llm_calls: CounterId,
    pub(crate) milli_cost: CounterId,
    /// Per-tier call counters (`backend_calls_<tier>`), indexed like
    /// [`Tier::ALL`]; together with the unit prices they let any
    /// snapshot recompute the cost-conservation identity.
    pub(crate) backend_calls: [CounterId; Tier::ALL.len()],
    pub(crate) queue_depth_hwm: GaugeId,
    /// Instantaneous queue depth (zero between stdin lines, which the
    /// stdin front-end admits one batch at a time).
    pub(crate) queue_depth: GaugeId,
    /// Sessions currently running on a worker.
    pub(crate) in_flight_sessions: GaugeId,
    /// Open client connections (socket front-end).
    pub(crate) open_connections: GaugeId,
    pub(crate) session: HistId,
    /// Admission-to-dequeue wait per job.
    pub(crate) queue_wait: HistId,
    pub(crate) stages: StageHists,
    /// Per-tenant (`client`-labeled) accounting families.
    pub(crate) tenant_sessions: LabeledId,
    pub(crate) tenant_shed: LabeledId,
    pub(crate) tenant_deadline_exceeded: LabeledId,
    pub(crate) tenant_llm_calls: LabeledId,
    pub(crate) tenant_milli_cost: LabeledId,
}

impl MetricIds {
    pub(crate) fn register(reg: &mut Registry) -> MetricIds {
        MetricIds {
            batches: reg.counter("batches"),
            failures: reg.counter("failures"),
            submitted: reg.counter("submitted"),
            completed: reg.counter("completed"),
            shed_queue_full: reg.counter("shed_queue_full"),
            shed_over_deadline: reg.counter("shed_over_deadline"),
            deadline_exceeded: reg.counter("deadline_exceeded"),
            quarantined: reg.counter("quarantined"),
            protocol_errors: reg.counter("protocol_errors"),
            transport_retries: reg.counter("transport_retries"),
            llm_calls: reg.counter("llm_calls"),
            milli_cost: reg.counter("milli_cost"),
            backend_calls: Tier::ALL.map(|t| reg.counter(&backend_calls_name(t))),
            queue_depth_hwm: reg.gauge("queue_depth_hwm"),
            queue_depth: reg.gauge("queue_depth"),
            in_flight_sessions: reg.gauge("in_flight_sessions"),
            open_connections: reg.gauge("open_connections"),
            session: reg.histogram("session"),
            queue_wait: reg.histogram("queue_wait"),
            stages: StageHists::register(reg, "stage_"),
            tenant_sessions: reg.labeled_counter("tenant_sessions", "client"),
            tenant_shed: reg.labeled_counter("tenant_shed", "client"),
            tenant_deadline_exceeded: reg.labeled_counter("tenant_deadline_exceeded", "client"),
            tenant_llm_calls: reg.labeled_counter("tenant_llm_calls", "client"),
            tenant_milli_cost: reg.labeled_counter("tenant_milli_cost", "client"),
        }
    }

    /// Folds one dequeued job's typed outcome into the registry (shard
    /// `shard`, tenant `client`), counting what
    /// [`ServeSummary::record`] counts for a connection.
    pub(crate) fn record(&self, reg: &Registry, shard: usize, client: &str, done: &Completion) {
        match done.class {
            CompletionClass::Completed { ok } => {
                reg.inc(shard, self.completed);
                reg.add(shard, self.failures, u64::from(!ok));
                reg.add_labeled(self.tenant_sessions, client, 1);
            }
            CompletionClass::DeadlineExceeded => {
                reg.inc(shard, self.deadline_exceeded);
                reg.inc(shard, self.failures);
                reg.add_labeled(self.tenant_sessions, client, 1);
                reg.add_labeled(self.tenant_deadline_exceeded, client, 1);
            }
            CompletionClass::Panicked => {
                reg.inc(shard, self.quarantined);
                reg.inc(shard, self.failures);
                reg.add_labeled(self.tenant_sessions, client, 1);
            }
            CompletionClass::Shed => {
                reg.inc(shard, self.shed_over_deadline);
                reg.add_labeled(self.tenant_shed, client, 1);
                return;
            }
        }
        reg.add(shard, self.transport_retries, done.retries as u64);
        reg.observe_ns(shard, self.session, (done.wall_ms * 1e6) as u64);
        self.stages.observe(reg, shard, &done.trace);
        let cost = &done.cost;
        reg.add(shard, self.llm_calls, cost.total_calls());
        reg.add(shard, self.milli_cost, cost.total_milli_cost());
        for (id, t) in self.backend_calls.iter().zip(Tier::ALL) {
            reg.add(shard, *id, cost.calls_for(t.name()));
        }
        reg.add_labeled(self.tenant_llm_calls, client, cost.total_calls());
        reg.add_labeled(self.tenant_milli_cost, client, cost.total_milli_cost());
    }
}

/// The two conservation identities, recomputed from a registry
/// snapshot alone: `(accounted, cost_accounted)`. A snapshot can land
/// mid-flight, so jobs sitting in the queue or on a worker count as
/// `pending` (zero between stdin lines, where this is the drain
/// identity).
pub(crate) fn identities(snap: &Snapshot) -> (bool, bool) {
    let ledger = ServeSummary::from_snapshot(snap);
    (ledger.accounted(), ledger.cost_accounted())
}

/// Renders one `{"event":"metrics"}` line: the accounting counters,
/// queue high-water mark, and per-stage latency histograms, with the
/// [`identities`] recomputed from the snapshot itself (so a consumer
/// can check the conservation law without waiting for the drain line),
/// plus the pool memo's verdict hit rate and confirmation mismatches,
/// read from `memo` at any point. The per-worker manager reuse rate
/// comes from `drain`, the pool's counters after the workers have
/// reported their contexts, so only the drain line (the one call that
/// passes them) carries it.
pub(crate) fn metrics_json(
    reg: &Registry,
    memo: &MemoCounters,
    drain: Option<&PoolCounters>,
) -> String {
    let snap = reg.snapshot();
    let (accounted, cost_accounted) = identities(&snap);
    let mut b = ObjBuilder::event("metrics")
        .bool("drain", drain.is_some())
        .bool("accounted", accounted)
        .bool("cost_accounted", cost_accounted);
    let rate = |hits: usize, misses: usize| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    if let Some(p) = drain {
        b = b.f64("manager_reuse_rate", p.reuse_rate(), 4);
    }
    b.f64(
        "verdict_memo_hit_rate",
        rate(memo.verdict_hits, memo.verdict_misses),
        4,
    )
    .u64("confirm_mismatches", memo.confirm_mismatches as u64)
    .raw("registry", &format!("{{{}}}", snap.to_json_fields()))
    .finish()
}

/// Runs the stdin front-end: one lockstep connection on the daemon
/// core (see [`crate::server`]). Reads request lines from `input`,
/// streams result lines to `output`, drains on EOF (or a
/// `{"shutdown":true}` line), and returns the ledger. Workers (and
/// their warm contexts) live for the whole call. A write error on
/// `output` ends the call with that error.
pub fn serve(
    input: impl BufRead,
    output: impl Write,
    opts: &ServeOptions,
) -> std::io::Result<ServeSummary> {
    let core = Core::new(opts);
    let conn = Conn::default();
    let (tx, rx) = mpsc::channel();
    let mut writer = ConnWriter::new(output, &conn);
    let summary = core.run(|_| {
        let mut reader = ConnReader::new(&core, &conn, tx);
        for line in input.lines() {
            let more = match line {
                Ok(line) => reader.handle_line(&line),
                // A read error (e.g. a final line with invalid bytes,
                // cut off mid-write) is a bad request, not a service
                // abort: reject it and drain so the ledger balances.
                Err(e) => {
                    reader.reject("read_error", &e.to_string());
                    false
                }
            };
            // Lockstep: write this line's events until its batch is
            // done, and only then read the next line. The queue is
            // therefore empty at every admission, which makes the
            // `queue_full` shed exactly max(0, batch - depth).
            loop {
                let event = if conn.idle() {
                    match rx.try_recv() {
                        Ok(event) => event,
                        Err(_) => break,
                    }
                } else {
                    rx.recv().expect("the reader holds the connection's sender")
                };
                writer.fold(event);
            }
            writer.take_error()?;
            if !more {
                break;
            }
        }
        Ok(())
    })?;

    let mut output = writer.into_inner();
    let p = &summary.pool;
    // The metrics snapshot (when asked for) goes out before the drain
    // line so the drain line stays the stream's last word.
    if opts.emit_metrics {
        writeln!(
            output,
            "{}",
            metrics_json(&core.reg, &core.memo.counters(), Some(p))
        )?;
    }
    writeln!(
        output,
        "{}",
        summary
            .ledger_fields(ObjBuilder::event("drain"))
            .u64("workers", p.workers as u64)
            .u64("manager_reuses", p.manager_reuses as u64)
            .u64("manager_allocs", p.manager_allocs as u64)
            .u64("manager_quarantined", p.quarantined as u64)
            .f64("reuse_rate", p.reuse_rate(), 4)
            .u64("peak_nodes", p.peak_nodes as u64)
            .finish()
    )?;
    output.flush()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a line that must be a batch request.
    fn batch(line: &str) -> Result<BatchRequest, RequestError> {
        parse_request(line).map(|r| match r {
            Request::Batch(b) => b,
            Request::Metrics => panic!("{line:?} parsed as a metrics request"),
            Request::Shutdown => panic!("{line:?} parsed as a shutdown request"),
        })
    }

    #[test]
    fn request_parsing_accepts_the_documented_shapes() {
        let r = batch(r#"{"use_case":"repair","seed":3,"count":5}"#).unwrap();
        assert_eq!(r.use_case, CaseKind::Repair);
        assert_eq!((r.seed, r.count), (3, 5));
        assert_eq!(r.families, None);
        assert_eq!(r.deadline_ms, None);
        // Defaults.
        let r = batch("{}").unwrap();
        assert_eq!(r.use_case, CaseKind::Synthesis);
        assert_eq!((r.seed, r.count), (1, 1));
        // families as array, family as comma string.
        let r = batch(r#"{"families":["ring","star"]}"#).unwrap();
        assert_eq!(
            r.families.as_deref(),
            Some(&["ring".into(), "star".into()][..])
        );
        let r = batch(r#"{"family":"chain, ring"}"#).unwrap();
        assert_eq!(
            r.families.as_deref(),
            Some(&["chain".into(), "ring".into()][..])
        );
        let r = batch(r#"{"count":2,"deadline_ms":500}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(500));
    }

    #[test]
    fn a_metrics_request_is_its_own_shape() {
        assert_eq!(parse_request(r#"{"metrics":true}"#), Ok(Request::Metrics));
        // Anything but the literal true is a typed bad field.
        assert!(matches!(
            parse_request(r#"{"metrics":false}"#),
            Err(RequestError::BadField {
                field: "metrics",
                ..
            })
        ));
        assert!(matches!(
            parse_request(r#"{"metrics":1}"#),
            Err(RequestError::BadField {
                field: "metrics",
                ..
            })
        ));
    }

    #[test]
    fn request_errors_are_typed_per_failure_mode() {
        // Malformed JSON — including a line truncated at EOF.
        assert!(matches!(
            parse_request("not json"),
            Err(RequestError::BadJson(_))
        ));
        assert!(matches!(
            parse_request(r#"{"use_case":"synth"#),
            Err(RequestError::BadJson(_))
        ));
        // JSON but not an object.
        assert_eq!(parse_request("[1,2]"), Err(RequestError::NotAnObject));
        // Unknown use case.
        assert_eq!(
            parse_request(r#"{"use_case":"translate"}"#),
            Err(RequestError::UnknownUseCase("translate".into()))
        );
        // Empty batch is its own error, not a generic bad field.
        assert_eq!(
            parse_request(r#"{"count":0}"#),
            Err(RequestError::EmptyBatch)
        );
        // Wrong-typed fields.
        assert!(matches!(
            parse_request(r#"{"seed":"one"}"#),
            Err(RequestError::BadField { field: "seed", .. })
        ));
        assert!(matches!(
            parse_request(r#"{"count":-3}"#),
            Err(RequestError::BadField { field: "count", .. })
        ));
        // Seeds an f64 cannot carry exactly would run another stream.
        for line in [r#"{"seed":9007199254740993}"#, r#"{"seed":1e300}"#] {
            assert!(
                matches!(
                    parse_request(line),
                    Err(RequestError::BadField { field: "seed", .. })
                ),
                "{line}"
            );
        }
        assert!(matches!(
            parse_request(r#"{"seed":9007199254740991}"#),
            Ok(Request::Batch(BatchRequest {
                seed: 9_007_199_254_740_991,
                ..
            }))
        ));
        assert!(matches!(
            parse_request(r#"{"deadline_ms":"soon"}"#),
            Err(RequestError::BadField {
                field: "deadline_ms",
                ..
            })
        ));
        // Codes are stable.
        assert_eq!(parse_request("x").unwrap_err().code(), "bad_json");
        assert_eq!(parse_request("[]").unwrap_err().code(), "not_an_object");
        assert_eq!(
            parse_request(r#"{"count":0}"#).unwrap_err().code(),
            "empty_batch"
        );
        assert_eq!(
            parse_request(r#"{"use_case":"x"}"#).unwrap_err().code(),
            "unknown_use_case"
        );
        assert_eq!(
            parse_request(r#"{"seed":-1}"#).unwrap_err().code(),
            "bad_field"
        );
    }

    #[test]
    fn serve_streams_a_mixed_batch_and_drains() {
        let input = b"{\"use_case\":\"synthesis\",\"seed\":1,\"count\":3}\n\
                      {\"use_case\":\"repair\",\"seed\":1,\"count\":2}\n";
        let mut out = Vec::new();
        let summary = serve(
            &input[..],
            &mut out,
            &ServeOptions {
                threads: 2,
                ..Default::default()
            },
        )
        .expect("serve io");
        assert!(summary.ok(), "{summary:?}");
        assert_eq!(summary.batches, 2);
        assert_eq!(summary.sessions, 5);
        assert_eq!(summary.submitted, 5);
        assert_eq!(summary.completed, 5);
        assert!(summary.accounted());
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 5 session lines + 2 batch lines + 1 drain line, all valid JSON.
        assert_eq!(lines.len(), 8, "{text}");
        for line in &lines {
            json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"use_case\":\"synthesis\""))
                .count(),
            3
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"use_case\":\"repair\""))
                .count(),
            2
        );
        let drain = lines.last().unwrap();
        assert!(drain.contains("\"event\":\"drain\""), "{drain}");
        assert!(drain.contains("\"manager_reuses\""), "{drain}");
        assert!(drain.contains("\"accounted\":true"), "{drain}");
        // The second batch reuses the first batch's managers: residency
        // across batches is the whole point.
        assert!(summary.pool.manager_reuses > 0, "{:?}", summary.pool);
        assert_eq!(summary.pool.sessions, 5);
    }

    #[test]
    fn serve_rejects_malformed_lines_with_typed_codes_and_keeps_going() {
        let input =
            b"this is not json\n[1]\n{\"count\":0}\n{\"use_case\":\"nope\"}\n{\"count\":1}\n";
        let mut out = Vec::new();
        let summary = serve(&input[..], &mut out, &ServeOptions::default()).expect("serve io");
        assert_eq!(summary.protocol_errors, 4);
        assert_eq!(summary.sessions, 1);
        assert!(!summary.ok());
        assert!(summary.accounted(), "{summary:?}");
        let text = String::from_utf8(out).unwrap();
        for code in [
            "bad_json",
            "not_an_object",
            "empty_batch",
            "unknown_use_case",
        ] {
            assert!(
                text.contains(&format!(
                    "\"event\":\"reject\",\"reason\":\"bad_request\",\"code\":\"{code}\""
                )),
                "missing {code} reject:\n{text}"
            );
        }
        assert!(text.contains("\"event\":\"drain\""), "{text}");
    }

    #[test]
    fn serve_survives_a_truncated_final_line() {
        // A final request cut off mid-JSON (no newline, half an object)
        // must produce a typed bad_request reject and a clean drain —
        // never a panic or a wedged worker pool.
        let input = b"{\"count\":1}\n{\"use_case\":\"synth";
        let mut out = Vec::new();
        let summary = serve(&input[..], &mut out, &ServeOptions::default()).expect("serve io");
        assert_eq!(summary.sessions, 1);
        assert_eq!(summary.protocol_errors, 1);
        assert!(summary.accounted());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"code\":\"bad_json\""), "{text}");
        assert!(text.contains("\"event\":\"drain\""), "{text}");
    }

    #[test]
    fn queue_depth_sheds_the_batch_excess_with_a_typed_reject() {
        let input = b"{\"count\":5,\"seed\":1}\n";
        let mut out = Vec::new();
        let summary = serve(
            &input[..],
            &mut out,
            &ServeOptions {
                threads: 2,
                queue_depth: 3,
                ..Default::default()
            },
        )
        .expect("serve io");
        assert_eq!(summary.submitted, 5);
        assert_eq!(summary.completed, 3);
        assert_eq!(summary.shed_queue_full, 2);
        assert!(summary.accounted(), "{summary:?}");
        assert!(!summary.ok(), "shed work fails the strict contract");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains(
                "\"event\":\"reject\",\"reason\":\"queue_full\",\"use_case\":\"synthesis\",\
                 \"shed\":2,\"queue_depth\":3"
            ),
            "{text}"
        );
        assert!(
            text.contains("\"shed\":2}"),
            "batch line carries the shed: {text}"
        );
    }

    #[test]
    fn stdin_admits_each_batch_onto_an_empty_queue() {
        // The second batch is read only once the first is done, so the
        // queue is empty at both admissions and each sheds exactly
        // max(0, 5 - 3) = 2. Admitting it while the first batch still
        // held queue slots would shed more.
        let input = b"{\"count\":5}\n{\"count\":5}\n";
        let mut out = Vec::new();
        let summary = serve(
            &input[..],
            &mut out,
            &ServeOptions {
                threads: 2,
                queue_depth: 3,
                ..Default::default()
            },
        )
        .expect("serve io");
        assert_eq!(summary.submitted, 10);
        assert_eq!(summary.shed_queue_full, 4, "{summary:?}");
        assert!(summary.accounted(), "{summary:?}");
        let text = String::from_utf8(out).unwrap();
        let rejects: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"reason\":\"queue_full\""))
            .collect();
        assert_eq!(rejects.len(), 2, "{text}");
        assert!(rejects.iter().all(|l| l.contains("\"shed\":2,")), "{text}");
    }

    #[test]
    fn a_failed_write_ends_serve_with_the_error() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let input = b"{\"count\":2}\n{\"count\":2}\n";
        let err = serve(&input[..], Closed, &ServeOptions::default())
            .expect_err("a closed output is an I/O error");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn expired_batch_deadline_sheds_everything_at_admission() {
        let input = b"{\"count\":4,\"deadline_ms\":0}\n{\"count\":1}\n";
        let mut out = Vec::new();
        let summary = serve(&input[..], &mut out, &ServeOptions::default()).expect("serve io");
        assert_eq!(summary.submitted, 5);
        assert_eq!(summary.shed_over_deadline, 4);
        assert_eq!(summary.completed, 1, "the next batch still runs");
        assert!(summary.accounted(), "{summary:?}");
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("\"event\":\"reject\",\"reason\":\"over_deadline\""),
            "{text}"
        );
        assert!(text.contains("\"shed\":4"), "{text}");
    }

    #[test]
    fn default_families_applies_only_to_unfiltered_requests() {
        // The CLI's --serve --families becomes the default filter for
        // requests that carry none of their own; a request-level filter
        // still wins.
        let input = b"{\"count\":2}\n{\"count\":2,\"families\":\"star\"}\n";
        let mut out = Vec::new();
        let summary = serve(
            &input[..],
            &mut out,
            &ServeOptions {
                threads: 2,
                default_families: Some(vec!["ring".into()]),
                ..Default::default()
            },
        )
        .expect("serve io");
        assert!(summary.ok(), "{summary:?}");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.matches("\"family\":\"ring\"").count(),
            2,
            "first batch takes the default filter:\n{text}"
        );
        assert_eq!(
            text.matches("\"family\":\"star\"").count(),
            2,
            "second batch's own filter wins:\n{text}"
        );
    }

    #[test]
    fn serve_flags_an_unmatchable_family_filter() {
        let input = b"{\"count\":2,\"families\":\"nonesuch\"}\n";
        let mut out = Vec::new();
        let summary = serve(&input[..], &mut out, &ServeOptions::default()).expect("serve io");
        assert_eq!(summary.sessions, 0);
        assert!(!summary.ok(), "{summary:?}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("family filter"), "{text}");
        assert!(text.contains("\"code\":\"family_filter\""), "{text}");
    }

    #[test]
    fn served_sessions_carry_typed_outcomes_under_a_prompt_budget() {
        // A serve-wide prompt budget of zero forces every session into
        // the deadline_exceeded outcome — typed, accounted, no panic.
        let input = b"{\"count\":3,\"seed\":1}\n";
        let mut out = Vec::new();
        let summary = serve(
            &input[..],
            &mut out,
            &ServeOptions {
                threads: 2,
                tuning: SessionTuning {
                    budget: SessionBudget {
                        max_prompts: Some(0),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("serve io");
        assert_eq!(summary.deadline_exceeded, 3);
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.failures, 3, "{summary:?}");
        assert!(summary.accounted(), "{summary:?}");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.matches("\"outcome\":\"deadline_exceeded\"").count(),
            3,
            "{text}"
        );
    }

    /// Pulls a counter out of a parsed `{"event":"metrics"}` line.
    fn counter(metrics: &Json, name: &str) -> u64 {
        metrics
            .get("registry")
            .and_then(|r| r.get(name))
            .and_then(Json::as_u32)
            .unwrap_or_else(|| panic!("metrics line missing counter {name}: {metrics:?}"))
            as u64
    }

    #[test]
    fn metrics_snapshots_balance_the_ledger_even_under_chaos() {
        // The registry must satisfy the same conservation law as the
        // drain ledger — submitted = completed + shed + deadline_exceeded
        // + quarantined — at any snapshot point, chaos or not.
        for chaos in [None, Some(chaos::ChaosPlan::paper_default(7))] {
            let input = b"{\"count\":4,\"seed\":1}\n\
                          {\"metrics\":true}\n\
                          {\"use_case\":\"repair\",\"count\":3,\"seed\":1}\n\
                          {\"count\":4,\"deadline_ms\":0}\n";
            let mut out = Vec::new();
            let summary = serve(
                &input[..],
                &mut out,
                &ServeOptions {
                    threads: 2,
                    chaos,
                    emit_metrics: true,
                    ..Default::default()
                },
            )
            .expect("serve io");
            assert!(summary.accounted(), "{summary:?}");
            let text = String::from_utf8(out).unwrap();
            let metrics: Vec<Json> = text
                .lines()
                .filter(|l| l.contains("\"event\":\"metrics\""))
                .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
                .collect();
            // One mid-run snapshot (the {"metrics":true} request) and
            // one at drain (--metrics).
            assert_eq!(metrics.len(), 2, "{text}");
            for m in &metrics {
                assert_eq!(m.get("accounted").and_then(Json::as_bool), Some(true));
                let spent = counter(m, "completed")
                    + counter(m, "shed_queue_full")
                    + counter(m, "shed_over_deadline")
                    + counter(m, "deadline_exceeded")
                    + counter(m, "quarantined");
                assert_eq!(counter(m, "submitted"), spent, "{text}");
            }
            // The mid-run snapshot only covers the first batch and
            // already carries the pool memo's rates; the drain one
            // covers everything and adds the per-worker rates.
            let mid = &metrics[0];
            assert_eq!(counter(mid, "submitted"), 4);
            assert_eq!(mid.get("drain").and_then(Json::as_bool), Some(false));
            let Some(Json::Num(mid_rate)) = mid.get("verdict_memo_hit_rate") else {
                panic!("a mid-run line carries the verdict-memo hit rate: {text}");
            };
            assert!(
                *mid_rate > 0.0 && *mid_rate < 1.0,
                "the first batch's drafts went through the memo: {text}"
            );
            assert_eq!(
                mid.get("confirm_mismatches").and_then(Json::as_u32),
                Some(0),
                "{text}"
            );
            assert!(mid.get("manager_reuse_rate").is_none(), "{text}");
            let drain = &metrics[1];
            assert_eq!(drain.get("drain").and_then(Json::as_bool), Some(true));
            assert_eq!(counter(drain, "submitted"), summary.submitted as u64);
            assert_eq!(counter(drain, "quarantined"), summary.quarantined as u64);
            assert!(drain.get("manager_reuse_rate").is_some(), "{text}");
            let Some(Json::Num(memo_rate)) = drain.get("verdict_memo_hit_rate") else {
                panic!("drain carries the verdict-memo hit rate: {text}");
            };
            assert!(
                *memo_rate > 0.0 && *memo_rate < 1.0,
                "both use cases check drafts through the memo: {text}"
            );
            assert_eq!(
                drain.get("confirm_mismatches").and_then(Json::as_u32),
                Some(0),
                "{text}"
            );
            assert!(
                drain
                    .get("registry")
                    .and_then(|r| r.get("latency_ms"))
                    .is_some(),
                "{text}"
            );
            // The drain line is a view of the same registry: every
            // ledger field agrees by name with the drain-time snapshot.
            let drain_line = json::parse(text.lines().last().unwrap()).unwrap();
            assert_eq!(
                drain_line.get("event").and_then(Json::as_str),
                Some("drain")
            );
            for name in [
                "batches",
                "failures",
                "protocol_errors",
                "submitted",
                "completed",
                "shed_queue_full",
                "shed_over_deadline",
                "deadline_exceeded",
                "quarantined",
                "transport_retries",
                "llm_calls",
                "milli_cost",
            ] {
                assert_eq!(
                    Some(counter(drain, name)),
                    drain_line.get(name).and_then(Json::as_u32).map(u64::from),
                    "{name}: {text}"
                );
            }
        }
    }

    #[test]
    fn trace_and_metrics_streaming_never_change_session_content() {
        // Telemetry is an observer: a 64-session fleet must produce
        // byte-identical session results with streaming on and off —
        // only the wall-clock field may differ.
        let input: &[u8] = b"{\"count\":32,\"seed\":1}\n\
                             {\"use_case\":\"repair\",\"count\":32,\"seed\":1}\n";
        let run = |instrumented: bool| {
            let mut out = Vec::new();
            serve(
                input,
                &mut out,
                &ServeOptions {
                    threads: 4,
                    emit_metrics: instrumented,
                    stream_traces: instrumented,
                    ..Default::default()
                },
            )
            .expect("serve io");
            String::from_utf8(out).unwrap()
        };
        let plain = run(false);
        let instrumented = run(true);
        // Session lines stream in completion order, which races across
        // threads: compare the sorted multiset, with the one legitimate
        // timing field cut out.
        let content = |text: &str| -> Vec<String> {
            let mut lines: Vec<String> = text
                .lines()
                .filter(|l| !l.contains("\"event\":"))
                .map(|l| {
                    let start = l.find("\"wall_ms\":").expect("session line has wall_ms");
                    let rest = &l[start..];
                    let end = start + rest.find(",\"").expect("wall_ms is not last") + 1;
                    format!("{}{}", &l[..start], &l[end..])
                })
                .collect();
            lines.sort();
            lines
        };
        let plain_content = content(&plain);
        assert_eq!(plain_content.len(), 64, "{plain}");
        assert_eq!(plain_content, content(&instrumented));
        // And the instrumented run actually streamed its traces.
        let traces: Vec<Json> = instrumented
            .lines()
            .filter(|l| l.contains("\"event\":\"trace\""))
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}")))
            .collect();
        assert_eq!(traces.len(), 64, "{instrumented}");
        assert!(
            traces
                .iter()
                .any(|t| t.get("stages").is_some_and(|s| matches!(s, Json::Obj(_)))),
            "at least one trace carries stage spans"
        );
        assert!(!plain.contains("\"event\":\"trace\""));
        assert!(!plain.contains("\"event\":\"metrics\""));
    }
}
