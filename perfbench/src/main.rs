//! `perfbench` — the benchmark of record for the VPP engine.
//!
//! ```text
//! perfbench --workload <synth-batch|repair-as512|serve-open> --seed N
//!           --seconds S --trace <0|1> [--fleet PATH] [--smoke]
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this binary
//! and the `fleet` daemon from source first. With `--trace 0` the run is
//! untraced and its last stdout line carries every end-to-end metric;
//! with `--trace 1` it runs the traced pass and prints every per-layer
//! metric. The line before it is a report: host fingerprint, content
//! digest, the sample count behind each percentile, per-point lateness
//! and the tracing-overhead bases. Any failed correctness check exits 1.
//! `README.md` next to this crate defines every metric.

mod batch;
mod probe;
mod serve;
mod stats;
mod traced;

use batch::{BatchSpec, Kind, REPAIR_AS512, SYNTH_BATCH};
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 3] = ["synth-batch", "repair-as512", "serve-open"];

/// Served requests the serve-open traced run replays in process.
const SERVE_REPLAY: usize = 48;

/// No measurement loop runs past this, whatever the host's speed.
const LOOP_CAP: Duration = Duration::from_secs(110);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fleet: PathBuf,
    smoke: bool,
    /// Internal: run one timed batch call with this set-up repetition
    /// and print it (see `batch::Call`).
    call: Option<usize>,
    sessions: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fleet: PathBuf::from("fleet"),
        smoke: false,
        call: None,
        sessions: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--smoke" {
            args.smoke = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("duration (0 < s <= 60)"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace switch")),
                }
            }
            "--fleet" => args.fleet = PathBuf::from(&value),
            "--call" => args.call = Some(value.parse().map_err(|_| bad("call"))?),
            "--sessions" => args.sessions = Some(value.parse().map_err(|_| bad("count"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Peak resident memory recorded in a `/proc/<pid>/status` file, MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{status_path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// CPU seconds a process has run, all threads: `utime + stime` from a
/// `/proc/<pid>/stat` file, in clock ticks of 1/100 s. The kernel leaves
/// hypervisor steal out of it.
pub fn cpu_s(stat_path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    // The fields after the parenthesised command name start at field 3,
    // so utime and stime (fields 14 and 15) are the 12th and 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(format!("{stat_path}: no utime/stime")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A run's result: the metrics, the contract counts, and the report.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Report fields, each a rendered JSON value.
    report: Vec<(String, String)>,
    /// Percentile name → samples behind it.
    samples: Vec<(&'static str, usize)>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("{name} is not a finite number ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// A percentile metric plus its sample count.
    fn pct(&mut self, name: &'static str, samples: &[f64], p: u32, unit: &'static str) {
        let v = stats::percentile(samples, p).unwrap_or(f64::NAN);
        self.metric(name, v, unit);
        self.samples.push((name, samples.len()));
    }

    fn note(&mut self, key: &str, value: String) {
        self.report.push((key.to_string(), value));
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(f64::NAN)
}

fn spec_of(workload: &str) -> BatchSpec {
    match workload {
        "synth-batch" => SYNTH_BATCH,
        _ => REPAIR_AS512,
    }
}

/// Out of smoke mode every tail percentile needs ten samples beyond it.
fn min_rows(args: &Args) -> usize {
    if args.smoke {
        0
    } else {
        stats::min_samples(99)
    }
}

fn sessions_per_call(args: &Args, spec: &BatchSpec) -> usize {
    if args.smoke {
        6
    } else {
        spec.sessions
    }
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("spans-{}-s{}.jsonl", args.workload, args.seed))
}

/// Timed calls of the workload, each in a fresh process of this binary.
fn batch_calls(
    args: &Args,
    repeat_seed: bool,
    budget: f64,
    min_rows: usize,
) -> Result<batch::Calls, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    batch::measure(
        &exe,
        &args.workload,
        args.seed,
        repeat_seed,
        sessions_per_call(args, &spec_of(&args.workload)),
        Duration::from_secs_f64(budget),
        min_rows,
        LOOP_CAP,
    )
}

fn list_note(values: impl Iterator<Item = f64>) -> String {
    format!(
        "[{}]",
        values.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
    )
}

fn batch_untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let m = batch_calls(args, false, args.seconds, min_rows(args))?;
    let calls = &m.calls;
    out.metric(
        "sessions_per_s",
        m.at_reference(batch::Call::sessions_per_s, 1),
        "sessions/s",
    );
    out.metric("setup_s", m.at_reference(|c| c.setup_s, -1), "s");
    out.metric(
        "peak_rss_mb",
        median(&calls.iter().map(|c| c.peak_rss_mb).collect::<Vec<_>>()),
        "MB",
    );
    out.metric(
        "cpu_ms_per_session",
        m.at_reference(|c| c.cpu_s * 1e3 / c.sessions as f64, -1),
        "ms",
    );
    out.attempted = calls.iter().map(|c| c.sessions).sum();
    out.failed = calls.iter().map(|c| c.failed).sum();
    let setup_failures = calls.iter().filter(|c| !c.setup_ok).count();
    out.check(setup_failures == 0, || {
        format!("{setup_failures} set-up rounds missed their contract")
    });
    out.note("digest", json_str(&calls[0].digest));
    out.note(
        "call_sessions_per_s",
        list_note(calls.iter().map(batch::Call::sessions_per_s)),
    );
    out.note("call_setup_s", list_note(calls.iter().map(|c| c.setup_s)));
    out.note("call_cpu_s", list_note(calls.iter().map(|c| c.cpu_s)));
    out.note(
        "call_peak_rss_mb",
        list_note(calls.iter().map(|c| c.peak_rss_mb)),
    );
    out.note("probe_s", list_note(m.probes.iter().copied()));
    out.note(
        "host_scale",
        list_note((0..calls.len()).map(|c| m.scale(c))),
    );
    Ok(())
}

fn batch_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let spec = spec_of(&args.workload);
    let sessions = sessions_per_call(args, &spec);
    // The untraced base repeats call 0, the sessions the traced pass
    // runs, so the overhead ratio compares equal work.
    let base = batch_calls(args, true, args.seconds / 2.0, 0)?.calls;
    let jobs: Vec<traced::Job> = (0..sessions)
        .map(|index| traced::Job {
            kind: spec.kind,
            seed: batch::call_seed(args.seed, 0),
            index,
        })
        .collect();
    let pass = traced::run(&jobs, &spec.tuning(), spec.replay_every);
    let traced_digest = batch::digest(&pass.rows);
    out.check(traced_digest == base[0].digest, || {
        format!(
            "the traced run's digest {traced_digest} differs from the untraced {}",
            base[0].digest
        )
    });
    let untraced_rate = median(
        &base
            .iter()
            .map(batch::Call::sessions_per_s)
            .collect::<Vec<_>>(),
    );
    out.attempted = base.iter().map(|c| c.sessions).sum::<usize>() + pass.rows.len();
    out.failed =
        base.iter().map(|c| c.failed).sum::<usize>() + pass.rows.iter().filter(|r| !r.ok).count();
    layer_metrics(out, &pass);
    let session_ms = traced::durations_ms(&pass.spans, "cosynth.session");
    out.pct("cosynth.session_ms_p50", &session_ms, 50, "ms");
    out.pct("cosynth.session_ms_p90", &session_ms, 90, "ms");
    let model_calls = traced::durations_ms(&pass.spans, "llm-sim.call").len();
    out.metric("llm-sim.calls", model_calls as f64, "count");
    let sum = |f: fn(&batch::SessionRow) -> usize| pass.rows.iter().map(f).sum::<usize>() as f64;
    out.metric("cosynth.auto_prompts", sum(|r| r.auto), "count");
    out.metric("cosynth.human_prompts", sum(|r| r.human), "count");
    out.metric(
        "cosynth.repair_rounds",
        sum(|r| if r.kind == Kind::Repair { r.rounds } else { 0 }),
        "count",
    );
    out.pct("cosynth-fleet.wait_ms_p50", &pass.wait_ms, 50, "ms");
    out.pct("cosynth-fleet.wait_ms_p99", &pass.wait_ms, 99, "ms");
    out.metric("client.late_ms_max", pass.late_ms_max, "ms");
    let traced_rate = pass.sessions_per_s();
    out.metric("trace.overhead", traced_rate / untraced_rate, "ratio");
    out.note(
        "trace_overhead_bases",
        format!(
            "{{\"traced_sessions_per_s\":{traced_rate},\"untraced_sessions_per_s\":{untraced_rate}}}"
        ),
    );
    out.note("digest", json_str(&traced_digest));
    out.note("replayed_sessions", pass.replay.sessions.to_string());
    write_spans(args, out, &pass.spans);
    Ok(())
}

fn write_spans(args: &Args, out: &mut Outcome, spans: &[traced::Span]) {
    let path = spans_path(args);
    match traced::write_spans(&path, spans) {
        Ok(()) => out.note("spans", json_str(&path.display().to_string())),
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// The per-layer metrics every traced pass yields the same way.
fn layer_metrics(out: &mut Outcome, pass: &traced::TracedPass) {
    use traced::{durations_ms, mean_or_zero};
    let spans = &pass.spans;
    let mean_ms = |layer: &str| mean_or_zero(&durations_ms(spans, layer));
    let job = |layer: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.layer == layer && s.parent == "job")
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    };
    out.metric(
        "scenario-gen.generate_ms",
        mean_ms("scenario-gen.generate"),
        "ms",
    );
    out.metric(
        "cosynth-fleet.clean_render_ms",
        mean_ms("cosynth-fleet.clean_render"),
        "ms",
    );
    out.metric(
        "fault-inject.inject_ms",
        mean_ms("fault-inject.inject"),
        "ms",
    );
    let prepare: f64 = [
        "scenario-gen.generate",
        "cosynth-fleet.clean_render",
        "fault-inject.inject",
    ]
    .iter()
    .map(|l| job(l).iter().sum::<f64>())
    .sum();
    let session: f64 = durations_ms(spans, "cosynth.session").iter().sum();
    out.metric(
        "cosynth-fleet.prepare_share",
        prepare / (prepare + session),
        "fraction",
    );
    out.metric(
        "cosynth.verify_self_ms",
        median(&traced::session_self_ms(spans)),
        "ms",
    );
    let model = durations_ms(spans, "llm-sim.call");
    out.metric(
        "llm-sim.us_per_call",
        model.iter().sum::<f64>() * 1e3 / model.len().max(1) as f64,
        "us",
    );
    out.metric(
        "llm-sim.share",
        model.iter().sum::<f64>() / session,
        "fraction",
    );
    let parses = durations_ms(spans, "bf-lite.parse");
    out.metric("bf-lite.parse_us", mean_or_zero(&parses) * 1e3, "us");
    out.metric("bf-lite.parse_calls", parses.len() as f64, "count");
    out.metric(
        "topo-model.verify_us",
        mean_ms("topo-model.verify_router") * 1e3,
        "us",
    );
    let builds = durations_ms(spans, "policy-symbolic.space_build");
    out.metric(
        "policy-symbolic.space_build_us",
        mean_or_zero(&builds) * 1e3,
        "us",
    );
    out.metric("policy-symbolic.space_builds", builds.len() as f64, "count");
    out.metric("bf-lite.check_us", mean_ms("bf-lite.check") * 1e3, "us");
    let r = &pass.replay;
    out.metric(
        "bdd.nodes_per_space",
        r.space_nodes as f64 / r.spaces.max(1) as f64,
        "nodes",
    );
    out.metric(
        "bdd.apply_hit_rate",
        r.apply_hits as f64 / (r.apply_hits + r.apply_misses).max(1) as f64,
        "fraction",
    );
    out.metric("bf-lite.sim_ms", mean_ms("bf-lite.sim"), "ms");
    out.metric("bf-lite.sim_rounds", mean_or_zero(&r.sim_rounds), "rounds");
    out.metric("cosynth.localize_ms", mean_ms("cosynth.localize"), "ms");
    out.metric(
        "campion-lite.compare_us",
        mean_ms("campion-lite.compare") * 1e3,
        "us",
    );
    out.metric(
        "cosynth.dirty_set_size",
        mean_or_zero(&r.dirty_sizes),
        "routers",
    );
    let c = &pass.ctx;
    out.metric(
        "cosynth.space_cache_hit_rate",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "fraction",
    );
    out.metric(
        "cosynth.manager_reuse_rate",
        c.reuses as f64 / (c.reuses + c.allocs).max(1) as f64,
        "fraction",
    );
    out.metric("bdd.peak_nodes", c.peak_nodes as f64, "nodes");
    out.check(r.disagreements == 0, || {
        format!(
            "{} replayed sessions passed in the session but failed the replayed checks",
            r.disagreements
        )
    });
}

/// Starts a daemon and drains its warm-up batches: the set-up time, s.
fn start_daemon(args: &Args, rep: usize) -> Result<(serve::Daemon, f64), String> {
    let daemon = serve::Daemon::spawn(&args.fleet)?;
    let setup = serve::warm_up(&daemon, daemon.started, batch::setup_seed(rep))?;
    Ok((daemon, setup))
}

/// Runs one rung of `windows` windows, each on a fresh connection and
/// holding the arrivals one p99 needs (ten beyond it), or 8 in smoke
/// runs. With `probes`, the host-speed probe runs after every window.
fn run_rate(
    args: &Args,
    daemon: &serve::Daemon,
    rate: f64,
    windows: usize,
    mut probes: Option<&mut Vec<f64>>,
) -> Result<serve::Point, String> {
    let window = if args.smoke {
        8
    } else {
        stats::min_samples(99)
    };
    let mut parts = Vec::with_capacity(windows);
    for w in 0..windows {
        let cpu0 = daemon.cpu_s()?;
        let mut part = serve::run_window(daemon.addr, rate, window, w * window, args.seed)?;
        part.cpu_s = vec![daemon.cpu_s()? - cpu0];
        parts.push(part);
        if let Some(probes) = probes.as_deref_mut() {
            probes.push(probe::measure());
        }
    }
    Ok(serve::Point::join(parts))
}

fn point_note(p: &serve::Point) -> String {
    let late = p.late_ms();
    let walls: Vec<f64> = p.results.iter().flatten().map(|r| r.wall_ms).collect();
    let list = |v: Vec<f64>| {
        let v: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("[{}]", v.join(","))
    };
    format!(
        "{{\"offered\":{},\"requests\":{},\"windows\":{},\"window\":{},\"achieved\":{},\
         \"p50_ms\":{},\"p99_ms\":{},\"window_p99_ms\":{},\"pooled_p99_ms\":{},\
         \"session_p50_ms\":{},\"session_p99_ms\":{},\
         \"late_ms_max\":{},\"late_ms_p99\":{},\"failed\":{},\"shed\":{},\"meets_slo\":{}}}",
        p.rate,
        p.spans.len(),
        p.spans.len() / p.window,
        p.window,
        p.achieved(),
        p.latency_ms(50),
        p.latency_ms(99),
        list(p.window_percentiles(99)),
        stats::percentile(&p.latencies_ms(), 99).unwrap_or(-1.0),
        stats::median(&walls).unwrap_or(-1.0),
        stats::percentile(&walls, 99).unwrap_or(-1.0),
        late.iter().copied().fold(0.0, f64::max),
        stats::percentile(&late, 99).unwrap_or(-1.0),
        p.failed,
        p.shed,
        p.meets_slo()
    )
}

/// A serve latency for the report: the median over windows of the
/// windows' percentile, with the window count and size behind it.
fn window_note(p: &serve::Point, pct: u32) -> String {
    format!(
        "{{\"value\":{},\"windows\":{},\"samples_per_window\":{},\"beyond_per_window\":{}}}",
        p.latency_ms(pct),
        p.spans.len() / p.window,
        p.window,
        stats::beyond(p.window, pct)
    )
}

fn check_point(out: &mut Outcome, p: &serve::Point) {
    for problem in &p.problems {
        out.problems.push(format!("{}/s: {problem}", p.rate));
    }
}

/// The serve digest: the content of the first window of `low` and of
/// `high`, which the untraced and the traced run both serve.
fn serve_digest(low: &serve::Point, high: &serve::Point) -> String {
    let lines: Vec<String> = [low, high]
        .iter()
        .flat_map(|p| p.content_lines().into_iter().take(p.window))
        .collect();
    stats::digest(lines.iter().map(String::as_str))
}

fn serve_untraced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    // The host-speed probe runs before every cold start, before the
    // ladder and after every window, never beside the daemon's work.
    // Each gated time is scaled by the probes either side of it.
    let mut probes = Vec::new();
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..serve::SETUP_REPS {
        probes.push(probe::measure());
        let (d, setup) = start_daemon(args, rep)?;
        setups.push(setup);
        if rep + 1 < serve::SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let windows = serve::windows_for(args.seconds, stats::min_samples(99));
    // `low` and `high` always run; the rungs above them stop at the
    // first rung that misses the limit.
    let mut ladder: Vec<serve::Point> = Vec::new();
    probes.push(probe::measure());
    for rate in serve::LADDER {
        if rate > serve::HIGH_RATE && !ladder.iter().all(serve::Point::meets_slo) {
            break;
        }
        let p = run_rate(args, &daemon, rate, windows, Some(&mut probes))?;
        check_point(out, &p);
        ladder.push(p);
    }
    let rss = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    let max_qps = ladder
        .iter()
        .take_while(|p| p.meets_slo())
        .last()
        .map_or(0.0, |p| p.rate);
    let (low, high) = (&ladder[0], &ladder[1]);
    // Probe `i` runs before cold start `i`; probe `setups.len() + w` runs
    // before window `w` of the ladder.
    let scale = |i: usize| probe::scale((probes[i] + probes[i + 1]) / 2.0);
    let setups_at_reference: Vec<f64> = (0..setups.len()).map(|i| setups[i] / scale(i)).collect();
    out.metric("sessions_per_s", high.achieved(), "sessions/s");
    out.metric("setup_s", median(&setups_at_reference), "s");
    out.metric("peak_rss_mb", rss, "MB");
    // The daemon's CPU per session over every window of `low` and `high`.
    let cpu_at_reference: Vec<f64> = [low, high]
        .iter()
        .flat_map(|p| p.cpu_s.iter().map(move |c| c * 1e3 / p.window as f64))
        .enumerate()
        .map(|(w, ms)| ms / scale(setups.len() + w))
        .collect();
    out.metric("cpu_ms_per_session", median(&cpu_at_reference), "ms");
    out.note(
        "window_cpu_s",
        list_note(low.cpu_s.iter().chain(&high.cpu_s).copied()),
    );
    out.note("latency_ms_p50.low", window_note(low, 50));
    out.note("latency_ms_p99.low", window_note(low, 99));
    out.note("latency_ms_p50.high", window_note(high, 50));
    out.note("latency_ms_p99.high", window_note(high, 99));
    out.note("max_qps_under_slo", max_qps.to_string());
    out.attempted = low.spans.len() + high.spans.len();
    out.failed = low.failed + high.failed;
    out.note("digest", json_str(&serve_digest(low, high)));
    out.note(
        "points",
        format!(
            "[{}]",
            ladder.iter().map(point_note).collect::<Vec<_>>().join(",")
        ),
    );
    out.note("setup_reps", setups.len().to_string());
    out.note("call_setup_s", list_note(setups.iter().copied()));
    out.note("host_scale", list_note((0..probes.len() - 1).map(scale)));
    out.note("probe_s", list_note(probes.iter().copied()));
    Ok(())
}

fn serve_traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let (daemon, _) = start_daemon(args, 0)?;
    let low = run_rate(args, &daemon, serve::LOW_RATE, 1, None)?;
    let high = run_rate(args, &daemon, serve::HIGH_RATE, 1, None)?;
    daemon.shutdown()?;
    for p in [&low, &high] {
        check_point(out, p);
    }

    // The first served requests, run again in process through the
    // traced pass: the model wrapper and the substrate calls. Their
    // content must match the daemon's untraced answers.
    let jobs: Vec<traced::Job> = (0..SERVE_REPLAY.min(low.spans.len()))
        .map(|k| {
            let a = serve::arrival(k, args.seed);
            traced::Job {
                kind: a.kind,
                seed: a.seed,
                index: serve::family_index(a.family),
            }
        })
        .collect();
    let pass = traced::run(&jobs, &cosynth_fleet::SessionTuning::default(), 1);
    let replayed: Vec<String> = pass.rows.iter().map(|r| r.content_line()).collect();
    let served = &low.content_lines()[..replayed.len()];
    let traced_digest = stats::digest(replayed.iter().map(String::as_str));
    let served_digest = stats::digest(served.iter().map(String::as_str));
    out.check(traced_digest == served_digest, || {
        format!(
            "the traced sessions' digest {traced_digest} differs from the daemon's {served_digest} for the same requests"
        )
    });
    layer_metrics(out, &pass);

    let points = [&low, &high];
    let results = || points.iter().flat_map(|p| p.results.iter().flatten());
    let walls: Vec<f64> = results().map(|r| r.wall_ms).collect();
    out.pct("cosynth.session_ms_p50", &walls, 50, "ms");
    out.pct("cosynth.session_ms_p90", &walls, 90, "ms");
    let calls: f64 = results().map(|r| r.llm_calls as f64).sum();
    out.metric("llm-sim.calls", calls, "count");
    out.metric(
        "cosynth.auto_prompts",
        results().map(|r| r.auto as f64).sum(),
        "count",
    );
    out.metric(
        "cosynth.human_prompts",
        results().map(|r| r.human as f64).sum(),
        "count",
    );
    out.metric(
        "cosynth.repair_rounds",
        results()
            .filter(|r| r.repair)
            .map(|r| r.rounds as f64)
            .sum(),
        "count",
    );
    let wait: Vec<f64> = points.iter().flat_map(|p| p.wait_ms()).collect();
    out.pct("cosynth-fleet.wait_ms_p50", &wait, 50, "ms");
    out.pct("cosynth-fleet.wait_ms_p99", &wait, 99, "ms");
    let late = points.iter().flat_map(|p| p.late_ms()).fold(0.0, f64::max);
    out.metric("client.late_ms_max", late, "ms");
    // Tracing happens in process only, so its overhead is the traced
    // session rate over the daemon's untraced rate for the same sessions.
    let untraced_ms = median(
        &low.results[..replayed.len()]
            .iter()
            .flatten()
            .map(|r| r.wall_ms)
            .collect::<Vec<_>>(),
    );
    let traced_ms = median(&pass.rows.iter().map(|r| r.wall_ms).collect::<Vec<_>>());
    out.metric("trace.overhead", untraced_ms / traced_ms, "ratio");
    out.attempted = low.spans.len() + high.spans.len() + pass.rows.len();
    out.failed = low.failed + high.failed + pass.rows.iter().filter(|r| !r.ok).count();
    out.note(
        "trace_overhead_bases",
        format!(
            "{{\"traced_sessions_per_s\":{},\"untraced_sessions_per_s\":{}}}",
            1e3 / traced_ms,
            1e3 / untraced_ms
        ),
    );
    out.note("digest", json_str(&serve_digest(&low, &high)));
    out.note(
        "points",
        format!("[{},{}]", point_note(&low), point_note(&high)),
    );
    out.note("replayed_sessions", pass.replay.sessions.to_string());
    let client_spans = client_spans(&[&low, &high]);
    let path = spans_path(args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(&path, client_spans));
    match written {
        Ok(()) => out.note("spans", json_str(&path.display().to_string())),
        Err(e) => out
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
    Ok(())
}

/// One JSON line per arrival: due, sent, result line, batch line (ns
/// from the point start).
fn client_spans(points: &[&serve::Point]) -> String {
    let ns = |d: Option<Duration>| d.map_or(-1, |d| d.as_nanos() as i128);
    let mut text = String::new();
    for p in points {
        for (k, s) in p.spans.iter().enumerate() {
            text.push_str(&format!(
                "{{\"rate\":{},\"arrival\":{k},\"due_ns\":{},\"sent_ns\":{},\"result_ns\":{},\"batch_ns\":{}}}\n",
                p.rate,
                s.due.as_nanos(),
                ns(s.sent),
                ns(s.result),
                ns(s.batch)
            ));
        }
    }
    text
}

/// First line a command prints, or `unknown` when it cannot run (a
/// checkout without git has no revision).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|t| t.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint: core count, CPU model, compiler, git revision.
fn host_note() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"rev\":{}}}",
        json_str(&cpu),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"]))
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(rep) = args.call {
        let spec = spec_of(&args.workload);
        let sessions = args.sessions.unwrap_or(spec.sessions);
        match batch::Call::run(&spec, args.seed, sessions, rep) {
            Ok(call) => println!("{}", call.to_json()),
            Err(e) => {
                eprintln!("perfbench: call failed: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let mut out = Outcome::default();
    let ran = match (args.workload.as_str(), args.trace) {
        ("serve-open", false) => serve_untraced(&args, &mut out),
        ("serve-open", true) => serve_traced(&args, &mut out),
        (_, false) => batch_untraced(&args, &mut out),
        (_, true) => batch_traced(&args, &mut out),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(2);
    }
    let (failed, attempted) = (out.failed, out.attempted);
    out.check(failed == 0, || {
        format!("{failed} of {attempted} sessions failed")
    });
    out.check(attempted > 0, || "no session ran".into());
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = out.problems.is_empty();

    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(name, n)| format!("{}:{n}", json_str(name)))
        .collect();
    let mut report = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("smoke".to_string(), args.smoke.to_string()),
        ("threads".to_string(), batch::THREADS.to_string()),
        ("host".to_string(), host_note()),
        (
            "failed_share".to_string(),
            (out.failed as f64 / out.attempted.max(1) as f64).to_string(),
        ),
        ("samples".to_string(), format!("{{{}}}", samples.join(","))),
    ];
    report.append(&mut out.report);
    let report: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"perfbench_report\":{{{}}}}}", report.join(","));

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
