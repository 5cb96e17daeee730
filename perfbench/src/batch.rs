//! The closed-loop batch workloads, driven through the program's public
//! batch entry point `cosynth_fleet::run_case` with tracing off and
//! timed from outside the call.

use crate::{probe, stats};
use cosynth_fleet::{run_case, FleetConfig, Repair, SessionTuning, Synthesis, UseCase};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads of every workload: this benchmark's reference host has
/// two cores, and the count is part of the workload, never read from the
/// machine it runs on.
pub const THREADS: usize = 2;

/// Timed calls per run, at least (the median needs a middle).
const MIN_CALLS: usize = 3;

/// Which session shape a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Synthesis,
    Repair,
}

impl Kind {
    /// The protocol's `use_case` value.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Synthesis => "synthesis",
            Kind::Repair => "repair",
        }
    }
}

/// One batch workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    pub kind: Kind,
    /// `SessionTuning::scenario_family`; `None` runs the six-family rotation.
    pub family: Option<&'static str>,
    /// Sessions per timed `run_case` call (about 1.5–2 s of work each on
    /// the reference host, so one call is never noise-dominated).
    pub sessions: usize,
    /// The traced run replays the substrate calls of every
    /// `replay_every`-th session.
    pub replay_every: usize,
}

/// `synth-batch`: synthesis over the chain … star rotation (3–12 routers).
pub const SYNTH_BATCH: BatchSpec = BatchSpec {
    kind: Kind::Synthesis,
    family: None,
    sessions: 1024,
    replay_every: 8,
};

/// `repair-as512`: repair pinned to the 512-router AS graph, incremental.
pub const REPAIR_AS512: BatchSpec = BatchSpec {
    kind: Kind::Repair,
    family: Some("as-graph-512"),
    sessions: 128,
    replay_every: 8,
};

impl BatchSpec {
    /// The robustness/backends tuning every session of the workload runs:
    /// the program defaults plus the family pin.
    pub fn tuning(&self) -> SessionTuning {
        SessionTuning {
            scenario_family: self.family,
            ..SessionTuning::default()
        }
    }

    fn config(&self, seed: u64, sessions: usize) -> FleetConfig {
        FleetConfig {
            sessions,
            seed,
            threads: THREADS,
            tuning: self.tuning(),
            ..FleetConfig::default()
        }
    }
}

/// One session's content (everything the digest covers) plus its wall.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionRow {
    pub kind: Kind,
    pub seed: u64,
    pub index: usize,
    /// Synthesis converged / repair repaired, within budget, no panic.
    pub ok: bool,
    pub auto: usize,
    pub human: usize,
    /// Synthesis: BGP simulation rounds; repair: repair prompts.
    pub rounds: usize,
    pub llm_calls: u64,
    pub milli_cost: u64,
    /// The session's own wall-clock as the session entry times it, ms.
    pub wall_ms: f64,
}

impl SessionRow {
    /// The canonical content line the digest hashes (no wall-clock).
    pub fn content_line(&self) -> String {
        format!(
            "{} seed={} index={} ok={} auto={} human={} rounds={} llm_calls={} milli_cost={}",
            self.kind.name(),
            self.seed,
            self.index,
            self.ok,
            self.auto,
            self.human,
            self.rounds,
            self.llm_calls,
            self.milli_cost
        )
    }
}

/// Digest over rows in the order given.
pub fn digest(rows: &[SessionRow]) -> String {
    let lines: Vec<String> = rows.iter().map(SessionRow::content_line).collect();
    stats::digest(lines.iter().map(String::as_str))
}

/// One `run_case` call timed from outside: wall seconds plus its rows in
/// index order.
pub fn timed_call(spec: &BatchSpec, seed: u64, sessions: usize) -> (f64, Vec<SessionRow>) {
    let cfg = spec.config(seed, sessions);
    match spec.kind {
        Kind::Synthesis => {
            let t0 = Instant::now();
            let report = run_case::<Synthesis>(&cfg);
            let wall = t0.elapsed().as_secs_f64();
            let rows = report
                .results
                .iter()
                .map(|r| SessionRow {
                    kind: Kind::Synthesis,
                    seed,
                    index: r.index,
                    ok: Synthesis::session_ok(r),
                    auto: r.auto,
                    human: r.human,
                    rounds: r.sim_rounds,
                    llm_calls: r.cost.total_calls(),
                    milli_cost: r.cost.total_milli_cost(),
                    wall_ms: r.wall_ms,
                })
                .collect();
            (wall, rows)
        }
        Kind::Repair => {
            let t0 = Instant::now();
            let report = run_case::<Repair>(&cfg);
            let wall = t0.elapsed().as_secs_f64();
            let rows = report
                .results
                .iter()
                .map(|r| SessionRow {
                    kind: Kind::Repair,
                    seed,
                    index: r.index,
                    ok: Repair::session_ok(r),
                    auto: r.auto,
                    human: r.human,
                    rounds: r.rounds,
                    llm_calls: r.cost.total_calls(),
                    milli_cost: r.cost.total_milli_cost(),
                    wall_ms: r.wall_ms,
                })
                .collect();
            (wall, rows)
        }
    }
}

/// The seed of timed call `call`: call 0 runs the run's own seed and
/// every later call a fresh topology and fault stream, so one run
/// averages over many scenario draws instead of repeating one.
pub fn call_seed(seed: u64, call: usize) -> u64 {
    seed.wrapping_add((call as u64) << 32)
}

/// The seed of set-up repetition `rep`: outside every timed stream and
/// the same in every run, so set-up time varies with the host, not with
/// which scenarios a run's seed happens to draw.
pub fn setup_seed(rep: usize) -> u64 {
    (1 << 48) + ((rep as u64) << 32)
}

/// Cold-engine set-up: a fresh `run_case` whose workers each run their
/// first session, at a seed outside the timed stream. Returns seconds
/// and whether every set-up session met its contract.
pub fn setup_once(spec: &BatchSpec, rep: usize) -> (f64, bool) {
    let (wall, rows) = timed_call(spec, setup_seed(rep), THREADS);
    (wall, rows.iter().all(|r| r.ok))
}

/// One timed call, measured in a process of its own: a cold set-up
/// round, then the timed `run_case` call.
///
/// Each call gets a fresh process because repeated calls in one process
/// drift with that process's history (allocator state left by earlier
/// calls moved one 512-router run from 69 to 52 sessions/s over 14
/// calls), while fresh processes agree with each other and with `fleet`.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    pub setup_s: f64,
    pub setup_ok: bool,
    /// Wall time of the timed `run_case` call, timed from outside it.
    pub wall_s: f64,
    pub sessions: usize,
    /// Timed sessions that missed their contract.
    pub failed: usize,
    pub digest: String,
    /// Peak resident memory of the call's process, MB.
    pub peak_rss_mb: f64,
    /// CPU seconds the call's process spent in the timed call.
    pub cpu_s: f64,
}

impl Call {
    /// Runs the call in this process.
    pub fn run(
        spec: &BatchSpec,
        seed: u64,
        sessions: usize,
        setup_rep: usize,
    ) -> Result<Call, String> {
        let (setup_s, setup_ok) = setup_once(spec, setup_rep);
        let cpu0 = crate::cpu_s("/proc/self/stat")?;
        let (wall_s, rows) = timed_call(spec, seed, sessions);
        let cpu_s = crate::cpu_s("/proc/self/stat")? - cpu0;
        Ok(Call {
            setup_s,
            setup_ok,
            wall_s,
            sessions: rows.len(),
            failed: rows.iter().filter(|r| !r.ok).count(),
            digest: digest(&rows),
            peak_rss_mb: crate::peak_rss_mb("/proc/self/status")?,
            cpu_s,
        })
    }

    pub fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.wall_s
    }

    /// The line a call process prints for its parent.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"setup_s\":{},\"setup_ok\":{},\"wall_s\":{},\"sessions\":{},\"failed\":{},\"digest\":\"{}\",\"peak_rss_mb\":{},\"cpu_s\":{}}}",
            self.setup_s, self.setup_ok, self.wall_s, self.sessions, self.failed, self.digest, self.peak_rss_mb, self.cpu_s
        )
    }

    pub fn from_json(line: &str) -> Option<Call> {
        use topo_model::json::{parse, Json};
        let v = parse(line.trim()).ok()?;
        let num = |k: &str| match v.get(k) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        };
        Some(Call {
            setup_s: num("setup_s")?,
            setup_ok: matches!(v.get("setup_ok"), Some(Json::Bool(true))),
            wall_s: num("wall_s")?,
            sessions: num("sessions")? as usize,
            failed: num("failed")? as usize,
            digest: match v.get("digest") {
                Some(Json::Str(d)) => d.clone(),
                _ => return None,
            },
            peak_rss_mb: num("peak_rss_mb")?,
            cpu_s: num("cpu_s")?,
        })
    }
}

/// The calls of an untraced phase, with the host speed around them.
pub struct Calls {
    pub calls: Vec<Call>,
    /// Host-speed probe seconds before call 0, between calls, and after
    /// the last call (one more than there are calls).
    pub probes: Vec<f64>,
}

impl Calls {
    /// How much slower than the reference the host ran during call `c`:
    /// the scale of the mean of the probes either side of it.
    pub fn scale(&self, c: usize) -> f64 {
        probe::scale((self.probes[c] + self.probes[c + 1]) / 2.0)
    }

    /// Median over calls of `f(call) · scale^power`, each call's figure
    /// quoted at the reference host speed (power 1 for rates, -1 for
    /// times).
    pub fn at_reference(&self, f: impl Fn(&Call) -> f64, power: i32) -> f64 {
        let v: Vec<f64> = (0..self.calls.len())
            .map(|c| f(&self.calls[c]) * self.scale(c).powi(power))
            .collect();
        stats::median(&v).unwrap_or(f64::NAN)
    }
}

/// The untraced phase: timed calls of `sessions` each, every one in a
/// fresh `perfbench --call` process, until `budget` has elapsed, at least
/// [`MIN_CALLS`] calls and `min_rows` sessions have run — or `cap` is
/// reached. Call `c` runs [`call_seed`]`(seed, c)`, or `seed` itself in
/// every call when `repeat_seed` is set; its set-up round runs
/// [`setup_seed`]`(c)`. The host-speed probe runs in this process before,
/// between and after the calls, never beside one.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    exe: &Path,
    workload: &str,
    seed: u64,
    repeat_seed: bool,
    sessions: usize,
    budget: Duration,
    min_rows: usize,
    cap: Duration,
) -> Result<Calls, String> {
    let start = Instant::now();
    let mut out = Calls {
        calls: Vec::new(),
        probes: vec![probe::measure()],
    };
    loop {
        let c = out.calls.len();
        let call_seed = call_seed(seed, if repeat_seed { 0 } else { c });
        let run = Command::new(exe)
            .args(["--workload", workload, "--seed"])
            .arg(call_seed.to_string())
            .arg("--call")
            .arg(c.to_string())
            .arg("--sessions")
            .arg(sessions.to_string())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a call process: {e}"))?;
        let text = String::from_utf8_lossy(&run.stdout);
        let call = text
            .lines()
            .last()
            .and_then(Call::from_json)
            .filter(|_| run.status.success())
            .ok_or_else(|| format!("call {c} failed ({}): {text}", run.status))?;
        out.calls.push(call);
        out.probes.push(probe::measure());
        let rows: usize = out.calls.iter().map(|c| c.sessions).sum();
        let elapsed = start.elapsed();
        let enough = elapsed >= budget && out.calls.len() >= MIN_CALLS && rows >= min_rows;
        if enough || elapsed >= cap {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(wall_s: f64, setup_s: f64) -> Call {
        Call {
            setup_s,
            setup_ok: true,
            wall_s,
            sessions: 100,
            failed: 0,
            digest: "0".repeat(16),
            peak_rss_mb: 8.0,
            cpu_s: 2.0 * wall_s,
        }
    }

    #[test]
    fn each_call_is_quoted_at_the_reference_host_speed() {
        // The host slowed to half the reference speed and recovered: a
        // call is scaled by the probes either side of it, so the three
        // calls, 2, 1.5 and 1 times slower than the reference, all read
        // 100 sessions/s and 0.1 s of set-up at the reference speed.
        let r = probe::REFERENCE_S;
        let m = Calls {
            calls: vec![call(2.0, 0.2), call(1.5, 0.15), call(1.0, 0.1)],
            probes: vec![2.0 * r, 2.0 * r, r, r],
        };
        assert_eq!([m.scale(0), m.scale(1), m.scale(2)], [2.0, 1.5, 1.0]);
        let rate = m.at_reference(Call::sessions_per_s, 1);
        assert!((rate - 100.0).abs() < 1e-9, "{rate}");
        let setup = m.at_reference(|c| c.setup_s, -1);
        assert!((setup - 0.1).abs() < 1e-9, "{setup}");
    }

    #[test]
    fn a_call_round_trips_through_its_json_line() {
        let c = call(1.25, 0.003);
        assert_eq!(Call::from_json(&c.to_json()), Some(c));
    }
}
