//! Seeded chaos harness for the resident service.
//!
//! `fleet --chaos` drives [`crate::service::serve`] through a scripted
//! gauntlet that exercises every fault class the robustness layer
//! claims to survive, **deterministically per seed**:
//!
//! * **Malformed requests** — non-JSON lines, unknown use cases, empty
//!   batches, and a final line truncated mid-object at EOF (no trailing
//!   newline), each of which must yield a typed `bad_request` reject.
//! * **Queue overflow** — one batch deliberately larger than the queue
//!   depth, shedding the excess with a `queue_full` reject.
//! * **Expired deadlines** — one batch admitted with `deadline_ms: 0`,
//!   shed wholesale as `over_deadline`.
//! * **Worker panics** — a seeded fraction of jobs build a route space
//!   and then panic mid-session; the worker must quarantine its
//!   managers and report the typed `panicked` outcome.
//! * **Slow sessions** — a seeded fraction run under a zero prompt
//!   budget, tripping the typed `deadline_exceeded` outcome (modelling
//!   a stall with a budget keeps the injection deterministic where a
//!   wall-clock sleep would race the scheduler).
//! * **Flaky backends** — a seeded fraction run against
//!   [`llm_sim::TransportModel::flaky`], forcing retry/backoff and, on
//!   exhaustion, escalation to the human channel.
//!
//! The per-job directives are assigned by **global job sequence
//! number** at enqueue time (not by worker), so the same plan seed
//! produces the same fault schedule regardless of thread count or
//! scheduling. The harness's verdict is the accounting identity:
//! every submitted job ends in exactly one typed outcome —
//! `submitted = completed + shed + deadline_exceeded + quarantined`.

use crate::service::{serve, ServeOptions, ServeSummary};
use crate::SessionTuning;
use cosynth::{Modularizer, VerifierContext};
use llm_sim::rng::SimRng;
use std::fmt::Write as _;

/// Fault directives for one job, drawn from the plan by sequence
/// number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionDirective {
    /// Build a space, then panic mid-session.
    pub inject_panic: bool,
    /// Run under a zero prompt budget (deterministic stall).
    pub slow: bool,
    /// Run against the flaky transport model.
    pub flaky: bool,
}

/// A seeded fault schedule: maps each job's global sequence number to a
/// [`SessionDirective`]. Pure function of `(seed, seq)` — replaying the
/// same request script against the same plan reproduces the same
/// injections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Plan seed (independent of the scenario seed).
    pub seed: u64,
    /// Probability a job panics mid-session.
    pub p_panic: f64,
    /// Probability a job runs under a zero prompt budget.
    pub p_slow: f64,
    /// Probability a job runs against a flaky backend.
    pub p_flaky: f64,
}

impl ChaosPlan {
    /// The rates the committed `BENCH_robustness.json` is produced
    /// under: panics rare, stalls uncommon, transport flakiness common
    /// — roughly the ordering a real fleet sees.
    pub fn paper_default(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            p_panic: 0.08,
            p_slow: 0.10,
            p_flaky: 0.25,
        }
    }

    /// The directive for the `seq`-th enqueued job. Deterministic:
    /// derives a fresh splitmix stream from `(seed, seq)` and draws the
    /// three faults independently.
    pub fn directive(&self, seq: u64) -> SessionDirective {
        let mut rng = SimRng::seed_from_u64(
            self.seed ^ seq.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        SessionDirective {
            inject_panic: rng.next_f64() < self.p_panic,
            slow: rng.next_f64() < self.p_slow,
            flaky: rng.next_f64() < self.p_flaky,
        }
    }
}

/// Builds a route space on a manager from the worker's pool, then
/// panics while holding it. Called (under `catch_unwind`) for jobs whose
/// directive injects a panic: the unwind drops the space, so its manager
/// never returns to the pool and quarantine has something real to
/// count.
pub(crate) fn poison_and_panic(ctx: &mut VerifierContext) -> ! {
    ctx.begin_session();
    let scenario = crate::scenario_for(1, 0);
    let assignments = Modularizer::assign_scenario(&scenario);
    let a = assignments
        .iter()
        .find(|a| a.checks.iter().any(bf_lite::LocalPolicyCheck::is_symbolic))
        .expect("every scenario has a symbolic policy router");
    let device = bf_lite::parse_config(
        &llm_sim::synth_task::SynthesisDraft::new(&a.prompt, std::collections::BTreeSet::new())
            .render(),
        Some(bf_lite::Vendor::Cisco),
    )
    .device;
    let _space = bf_lite::space_for_checks_in(ctx.pool.acquire(), &device, &a.checks);
    panic!("chaos: injected worker panic");
}

/// The fewest jobs a gauntlet submits: the script carves an oversized
/// batch (a quarter of the jobs) and an expired one (an eighth) out of
/// the count and spreads the rest over six ordinary batches.
/// [`chaos_script`] and [`run_chaos`] raise a smaller count to this;
/// `fleet --chaos` rejects one.
pub const CHAOS_MIN_SESSIONS: usize = 16;

/// Chaos-run shape: how many sessions, under which seeds and limits.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Total jobs submitted across the scripted batches (at least
    /// [`CHAOS_MIN_SESSIONS`]).
    pub sessions: usize,
    /// Scenario/plan seed.
    pub seed: u64,
    /// Resident worker threads.
    pub threads: usize,
    /// Queue depth — deliberately small so the oversized batch sheds.
    pub queue_depth: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            sessions: 64,
            seed: 1,
            threads: crate::default_threads(),
            queue_depth: 8,
        }
    }
}

/// What a chaos run established.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The run's configuration.
    pub cfg: ChaosConfig,
    /// The service's drain summary.
    pub summary: ServeSummary,
}

impl ChaosReport {
    /// Every injected fault class, with whether the run exercised it.
    pub fn fault_classes(&self) -> [(&'static str, bool); 6] {
        let s = &self.summary;
        [
            ("malformed_request", s.protocol_errors > 0),
            ("queue_full", s.shed_queue_full > 0),
            ("over_deadline", s.shed_over_deadline > 0),
            ("worker_panic", s.quarantined > 0),
            ("slow_session", s.deadline_exceeded > 0),
            ("flaky_backend", s.transport_retries > 0),
        ]
    }

    /// All six fault classes fired at this seed.
    pub fn all_faults_exercised(&self) -> bool {
        self.fault_classes().iter().all(|(_, hit)| *hit)
    }

    /// The service survived: it drained (no abort — `run_chaos`
    /// returning at all implies this) and every submitted job landed in
    /// exactly one typed outcome.
    pub fn survived(&self) -> bool {
        self.summary.accounted()
    }

    /// Fraction of submitted jobs that ran to a `completed` outcome.
    pub fn survival_rate(&self) -> f64 {
        if self.summary.submitted == 0 {
            return 0.0;
        }
        self.summary.completed as f64 / self.summary.submitted as f64
    }

    /// Renders `BENCH_robustness.json`. Counter fields are
    /// deterministic per seed; only the `latency_ms` block moves
    /// between runs.
    pub fn bench_json(&self) -> String {
        let s = &self.summary;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"robustness\",");
        let _ = writeln!(out, "  \"seed\": {},", self.cfg.seed);
        let _ = writeln!(out, "  \"sessions_requested\": {},", self.cfg.sessions);
        let _ = writeln!(out, "  \"threads\": {},", self.cfg.threads);
        let _ = writeln!(out, "  \"queue_depth\": {},", self.cfg.queue_depth);
        let _ = writeln!(out, "  \"submitted\": {},", s.submitted);
        let _ = writeln!(out, "  \"completed\": {},", s.completed);
        let _ = writeln!(out, "  \"shed_queue_full\": {},", s.shed_queue_full);
        let _ = writeln!(out, "  \"shed_over_deadline\": {},", s.shed_over_deadline);
        let _ = writeln!(out, "  \"deadline_exceeded\": {},", s.deadline_exceeded);
        let _ = writeln!(out, "  \"quarantined\": {},", s.quarantined);
        let _ = writeln!(out, "  \"manager_quarantined\": {},", s.pool.quarantined);
        let _ = writeln!(out, "  \"transport_retries\": {},", s.transport_retries);
        let _ = writeln!(out, "  \"protocol_errors\": {},", s.protocol_errors);
        let _ = writeln!(out, "  \"survival_rate\": {:.4},", self.survival_rate());
        let _ = writeln!(out, "  \"llm_calls\": {},", s.llm_calls);
        let _ = writeln!(out, "  \"milli_cost\": {},", s.milli_cost);
        let _ = writeln!(out, "  \"cost_conserved\": {},", s.cost_accounted());
        let _ = writeln!(out, "  \"accounted\": {},", s.accounted());
        let _ = writeln!(out, "  \"survived\": {},", self.survived());
        let _ = writeln!(out, "  \"fault_classes\": {{");
        let classes = self.fault_classes();
        for (i, (name, hit)) in classes.iter().enumerate() {
            let comma = if i + 1 < classes.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {hit}{comma}");
        }
        let _ = writeln!(out, "  }},");
        match s.session_ms {
            Some(l) => {
                let _ = writeln!(out, "  \"latency_ms\": {}", l.to_json());
            }
            None => {
                let _ = writeln!(out, "  \"latency_ms\": null");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The scripted request gauntlet: interleaves well-formed batches
/// (alternating use cases) with every malformed-request shape, one
/// oversized batch, and one already-expired batch. Ends with a line
/// truncated mid-object and **no trailing newline** — the EOF
/// hardening case. Submits exactly `sessions` jobs across the
/// well-formed batches, or [`CHAOS_MIN_SESSIONS`] if that is more.
pub fn chaos_script(sessions: usize, seed: u64) -> String {
    let sessions = sessions.max(CHAOS_MIN_SESSIONS);
    // One oversized batch (to overflow the queue), one expired batch
    // (shed at admission), the rest spread over six ordinary batches.
    let oversized = sessions / 4;
    let expired = sessions / 8;
    let rest = sessions - oversized - expired;
    let mut script = String::new();
    let _ = writeln!(script, "this is not json");
    let mut remaining = rest;
    for i in 0..6 {
        let n = if i == 5 {
            remaining
        } else {
            (rest / 6).max(1).min(remaining)
        };
        remaining -= n;
        if n == 0 {
            continue;
        }
        let use_case = if i % 2 == 0 { "synthesis" } else { "repair" };
        let _ = writeln!(
            script,
            "{{\"use_case\":\"{use_case}\",\"seed\":{seed},\"count\":{n}}}"
        );
        match i {
            1 => {
                let _ = writeln!(script, "{{\"use_case\":\"nope\",\"count\":1}}");
            }
            3 => {
                let _ = writeln!(script, "{{\"count\":0}}");
            }
            _ => {}
        }
    }
    let _ = writeln!(
        script,
        "{{\"use_case\":\"synthesis\",\"seed\":{seed},\"count\":{oversized}}}"
    );
    let _ = writeln!(
        script,
        "{{\"use_case\":\"repair\",\"seed\":{seed},\"count\":{expired},\"deadline_ms\":0}}"
    );
    // Truncated mid-object at EOF, deliberately without a newline.
    script.push_str("{\"use_case\":\"synth");
    script
}

/// Runs the chaos gauntlet against an in-memory service instance and
/// folds the drain summary into a [`ChaosReport`].
pub fn run_chaos(cfg: &ChaosConfig) -> std::io::Result<ChaosReport> {
    let cfg = ChaosConfig {
        sessions: cfg.sessions.max(CHAOS_MIN_SESSIONS),
        ..*cfg
    };
    let script = chaos_script(cfg.sessions, cfg.seed);
    let summary = serve(
        script.as_bytes(),
        std::io::sink(),
        &ServeOptions {
            threads: cfg.threads,
            default_families: None,
            queue_depth: cfg.queue_depth,
            tuning: SessionTuning::default(),
            chaos: Some(ChaosPlan::paper_default(cfg.seed)),
            emit_metrics: false,
            stream_traces: false,
        },
    )?;
    Ok(ChaosReport { cfg, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_are_deterministic_and_cover_every_fault() {
        let plan = ChaosPlan::paper_default(1);
        let first: Vec<SessionDirective> = (0..200).map(|s| plan.directive(s)).collect();
        let second: Vec<SessionDirective> = (0..200).map(|s| plan.directive(s)).collect();
        assert_eq!(first, second, "directives must be pure in (seed, seq)");
        assert!(first.iter().any(|d| d.inject_panic));
        assert!(first.iter().any(|d| d.slow));
        assert!(first.iter().any(|d| d.flaky));
        // A different seed reshuffles the schedule.
        let other = ChaosPlan::paper_default(2);
        assert_ne!(
            first,
            (0..200).map(|s| other.directive(s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chaos_script_carries_every_malformed_shape_and_truncated_eof() {
        let script = chaos_script(32, 1);
        assert!(script.contains("this is not json"));
        assert!(script.contains("\"use_case\":\"nope\""));
        assert!(script.contains("{\"count\":0}"));
        assert!(script.contains("\"deadline_ms\":0"));
        assert!(
            script.ends_with("{\"use_case\":\"synth"),
            "the script must end mid-object with no newline"
        );
    }

    #[test]
    fn chaos_run_is_deterministic_accounted_and_survives() {
        let cfg = ChaosConfig {
            sessions: 24,
            seed: 1,
            threads: 2,
            queue_depth: 4,
        };
        let a = run_chaos(&cfg).expect("chaos io");
        let b = run_chaos(&cfg).expect("chaos io");
        assert!(a.survived(), "{:?}", a.summary);
        assert!(a.summary.accounted(), "{:?}", a.summary);
        assert_eq!(a.summary.submitted, 24);
        // Every counter (everything except wall-clock) replays exactly.
        for (x, y) in [
            (a.summary.submitted, b.summary.submitted),
            (a.summary.completed, b.summary.completed),
            (a.summary.shed_queue_full, b.summary.shed_queue_full),
            (a.summary.shed_over_deadline, b.summary.shed_over_deadline),
            (a.summary.deadline_exceeded, b.summary.deadline_exceeded),
            (a.summary.quarantined, b.summary.quarantined),
            (a.summary.transport_retries, b.summary.transport_retries),
            (a.summary.protocol_errors, b.summary.protocol_errors),
        ] {
            assert_eq!(x, y, "chaos counters must be deterministic per seed");
        }
        // The scripted gauntlet exercises the admission faults even at
        // this small scale; the probabilistic classes (panic / slow /
        // flaky) are covered at the committed 64-session scale and in
        // the integration test.
        assert!(a.summary.protocol_errors >= 3, "{:?}", a.summary);
        assert!(a.summary.shed_queue_full > 0, "{:?}", a.summary);
        assert!(a.summary.shed_over_deadline > 0, "{:?}", a.summary);
        // The latency block covers every session that ran, panicked
        // ones included.
        let latency = a.summary.session_ms.expect("sessions ran");
        assert_eq!(
            latency.count as usize,
            a.summary.completed + a.summary.deadline_exceeded + a.summary.quarantined,
            "{:?}",
            a.summary
        );
        let json = a.bench_json();
        topo_model::json::parse(&json).expect("bench json parses");
        assert!(json.contains("\"bench\": \"robustness\""));
        assert!(json.contains("\"accounted\": true"));
    }
}
