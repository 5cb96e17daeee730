//! The `serve-open` workload: a `fleet --serve --listen` daemon in its
//! own process, driven open-loop over its JSONL socket protocol.
//!
//! A rung of the ladder is a run of windows, each on a fresh connection.
//! Arrival `i` of a window at `rate`/s is due at `t0 + i/rate`, whether or
//! not earlier answers have come back; one sender thread writes the
//! single-session requests on the connection and one reader thread
//! timestamps every line the daemon writes back. Latency runs from an
//! arrival's due time to its `{"event":"batch"}` line, so a stalled
//! sender or daemon charges its delay to every arrival behind it.

use crate::batch::{Kind, THREADS};
use crate::stats;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use topo_model::json::{self, Json};

/// The `low` load point, sessions/s.
pub const LOW_RATE: f64 = 200.0;
/// The `high` load point, sessions/s.
pub const HIGH_RATE: f64 = 400.0;
/// The saturation ladder, lowest first; `low` and `high` are its first
/// two rungs and always run.
pub const LADDER: [f64; 4] = [LOW_RATE, HIGH_RATE, 600.0, 800.0];
/// The p99 latency limit of `max_qps_under_slo`, ms.
pub const P99_LIMIT_MS: f64 = 25.0;
/// A point keeps up when its achieved rate reaches this share of the
/// offered rate; the shortfall allowed is the drain of the last answers.
pub const KEEP_UP: f64 = 0.95;
/// Daemon start-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// How long any single wait on the daemon may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(60);

/// Arrival `k`'s request: it alternates synthesis and repair and names
/// one family of the six-family rotation, so both use cases visit every
/// family; its content seed is `base + k`.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    pub kind: Kind,
    pub family: &'static str,
    pub seed: u64,
}

/// The arrival schedule's content: a pure function of `(k, base)`.
pub fn arrival(k: usize, base: u64) -> Arrival {
    let rotation = cosynth_fleet::family_names();
    Arrival {
        kind: if k.is_multiple_of(2) {
            Kind::Synthesis
        } else {
            Kind::Repair
        },
        family: rotation[(k / 2) % rotation.len()],
        seed: base + k as u64,
    }
}

/// The rotation index a one-session request naming `family` runs (the
/// daemon's family filter takes the first matching index).
pub fn family_index(family: &str) -> usize {
    (0..)
        .find(|&i| cosynth_fleet::family_of(i) == family)
        .expect("a rotation family")
}

/// Due offset of arrival `k` at `rate`/s from the point's start.
pub fn due(k: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(k as f64 / rate)
}

/// Windows per ladder rung for a run of `seconds`: each window is
/// `window` consecutive arrivals, and a rung's percentiles are medians
/// over its windows, so one stalled stretch of a noisy host cannot
/// decide them. Odd, so the median is a window's own value. The host-
/// speed probe runs between windows, so each can be quoted at the
/// reference speed.
pub fn windows_for(seconds: f64, window: usize) -> usize {
    let per_window: f64 = LADDER.iter().map(|r| window as f64 / r).sum();
    let w = ((seconds / per_window).round() as usize).clamp(1, 5);
    if w.is_multiple_of(2) {
        w - 1
    } else {
        w
    }
}

/// One arrival's client-side spans, as offsets from the point start.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    pub due: Duration,
    pub sent: Option<Duration>,
    pub result: Option<Duration>,
    pub batch: Option<Duration>,
}

impl Spans {
    /// How late the generator sent it, ms.
    pub fn late_ms(&self) -> Option<f64> {
        Some(self.sent?.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// Due time to batch line, ms: a late send counts against latency.
    pub fn latency_ms(&self) -> Option<f64> {
        Some(self.batch?.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// A running daemon; dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to listening line.
    pub started: Duration,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Spawns `fleet --serve --listen 127.0.0.1:0` and reads the port off
    /// its `listening on` line.
    pub fn spawn(fleet: &Path) -> Result<Daemon, String> {
        let t0 = Instant::now();
        let mut child = Command::new(fleet)
            .args(["--serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fleet.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining stderr after the listening line so the daemon
        // never blocks on a full pipe; the lines are kept for diagnostics.
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line.clone());
                lines.push(line);
            }
            lines
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            started: Duration::ZERO,
            stderr: Some(reader),
        };
        let deadline = Instant::now() + PATIENCE;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            let line = rx
                .recv_timeout(wait)
                .map_err(|_| "the daemon never printed its listening line".to_string())?;
            if let Some(rest) = line.split("listening on ").nth(1) {
                let addr = rest.split(',').next().unwrap_or_default().trim();
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("bad listening address {addr:?}: {e}"))?;
                daemon.started = t0.elapsed();
                return Ok(daemon);
            }
        }
    }

    /// CPU seconds the daemon has run so far.
    pub fn cpu_s(&self) -> Result<f64, String> {
        crate::cpu_s(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Peak resident memory of the daemon so far, MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful drain: `{"shutdown":true}`, then waits for the exit. The
    /// daemon's own exit contract (no failed session, balanced ledger)
    /// must hold.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("shutdown: {e}"))?;
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        writeln!(stream, "{{\"shutdown\":true}}").map_err(|e| format!("shutdown: {e}"))?;
        let _ = stream.shutdown(Shutdown::Write);
        let mut sink = String::new();
        let _ = stream.read_to_string(&mut sink);
        let deadline = Instant::now() + PATIENCE;
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("the daemon did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let log = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        if status.success() {
            Ok(())
        } else {
            Err(format!(
                "the daemon exited with {status} (its contract failed): {}",
                log.join(" | ")
            ))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One parsed result line.
#[derive(Clone, Debug)]
pub struct ResultLine {
    pub repair: bool,
    pub ok: bool,
    /// The content line the digest hashes (wall-clock excluded).
    pub content: String,
    pub auto: u64,
    pub human: u64,
    pub rounds: u64,
    pub llm_calls: u64,
    pub wall_ms: f64,
}

fn num(v: &Json, key: &str) -> u64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n as u64,
        _ => 0,
    }
}

fn flag(v: &Json, key: &str) -> bool {
    matches!(v.get(key), Some(Json::Bool(true)))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    match v.get(key) {
        Some(Json::Str(s)) => s,
        _ => "",
    }
}

impl ResultLine {
    fn parse(v: &Json, seed: u64) -> ResultLine {
        let kind = text(v, "use_case");
        let (ok, rounds) = if kind == "repair" {
            (flag(v, "repaired"), num(v, "rounds"))
        } else {
            (flag(v, "converged"), num(v, "sim_rounds"))
        };
        let ok = ok && text(v, "outcome") == "completed";
        let (auto, human) = (num(v, "auto"), num(v, "human"));
        ResultLine {
            repair: kind == "repair",
            ok,
            content: format!(
                "{kind} seed={seed} index={} ok={ok} auto={auto} human={human} rounds={rounds} \
                 llm_calls={} milli_cost={}",
                num(v, "session"),
                num(v, "llm_calls"),
                num(v, "milli_cost")
            ),
            auto,
            human,
            rounds,
            llm_calls: num(v, "llm_calls"),
            wall_ms: match v.get("wall_ms") {
                Some(Json::Num(n)) => *n,
                _ => 0.0,
            },
        }
    }
}

/// What one load point measured: one window, or a rung of them.
#[derive(Clone, Debug)]
pub struct Point {
    pub rate: f64,
    /// Arrivals per window (see [`windows_for`]).
    pub window: usize,
    /// Every arrival's spans, each window's from its own start.
    pub spans: Vec<Spans>,
    pub results: Vec<Option<ResultLine>>,
    /// Arrivals without exactly one clean batch line (shed, failed, no
    /// answer, or answered twice).
    pub failed: usize,
    pub shed: usize,
    /// Summed over windows: window start to its last batch line.
    pub elapsed: Duration,
    /// Per window, the daemon's CPU seconds while it ran, when measured.
    pub cpu_s: Vec<f64>,
    /// Protocol problems (each fails the run).
    pub problems: Vec<String>,
}

impl Point {
    /// The windows of one rung, in order, as one point.
    pub fn join(windows: Vec<Point>) -> Point {
        let mut it = windows.into_iter();
        let mut rung = it.next().expect("a rung has a window");
        for w in it {
            rung.spans.extend(w.spans);
            rung.results.extend(w.results);
            rung.failed += w.failed;
            rung.shed += w.shed;
            rung.elapsed += w.elapsed;
            rung.cpu_s.extend(w.cpu_s);
            rung.problems.extend(w.problems);
        }
        rung
    }

    /// Completions per second while the windows ran.
    pub fn achieved(&self) -> f64 {
        (self.spans.len() - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Every arrival's latency; an unanswered one counts as infinite.
    pub fn latencies_ms(&self) -> Vec<f64> {
        latencies(&self.spans)
    }

    /// The `p`-th latency percentile of each window, ms.
    pub fn window_percentiles(&self, p: u32) -> Vec<f64> {
        self.spans
            .chunks(self.window)
            .filter_map(|w| stats::percentile(&latencies(w), p))
            .collect()
    }

    /// Median over windows of the `p`-th latency percentile, ms.
    pub fn latency_ms(&self, p: u32) -> f64 {
        stats::median(&self.window_percentiles(p)).unwrap_or(f64::INFINITY)
    }

    pub fn late_ms(&self) -> Vec<f64> {
        self.spans.iter().filter_map(Spans::late_ms).collect()
    }

    /// Client latency minus the session wall on the result line, ms.
    pub fn wait_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.results)
            .filter_map(|(s, r)| Some(s.latency_ms()? - r.as_ref()?.wall_ms))
            .collect()
    }

    /// Within the latency limit, nothing shed or failed, kept up.
    pub fn meets_slo(&self) -> bool {
        self.failed == 0
            && self.shed == 0
            && self.latency_ms(99) <= P99_LIMIT_MS
            && self.achieved() >= KEEP_UP * self.rate
    }

    pub fn content_lines(&self) -> Vec<String> {
        self.results
            .iter()
            .map(|r| {
                r.as_ref()
                    .map_or_else(|| "missing".into(), |r| r.content.clone())
            })
            .collect()
    }
}

fn latencies(spans: &[Spans]) -> Vec<f64> {
    spans
        .iter()
        .map(|s| s.latency_ms().unwrap_or(f64::INFINITY))
        .collect()
}

/// Arrival `k`'s request, tagged with its place `i` on the connection.
fn request_line(k: usize, i: usize, base: u64) -> String {
    let a = arrival(k, base);
    format!(
        "{{\"use_case\":\"{}\",\"seed\":{},\"count\":1,\"families\":\"{}\",\"client\":\"perfbench\",\"tag\":\"b{i}\"}}",
        a.kind.name(),
        a.seed,
        a.family
    )
}

/// Runs one open-loop window of `window` arrivals at `rate`, arrivals
/// `first ..` of the rung, on a fresh connection, then half-closes and
/// waits for every answer and the connection's drain line.
pub fn run_window(
    addr: SocketAddr,
    rate: f64,
    window: usize,
    first: usize,
    base: u64,
) -> Result<Point, String> {
    let n = window;
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    let lines: Vec<String> = (0..n).map(|i| request_line(first + i, i, base)).collect();
    // Start a little ahead so the first arrival is not late by the
    // reader thread's start-up.
    let t0 = Instant::now() + Duration::from_millis(5);
    let reader = std::thread::spawn(move || -> Vec<(Duration, String)> {
        let mut got = Vec::new();
        let mut r = BufReader::new(read_half);
        let mut line = String::new();
        while matches!(r.read_line(&mut line), Ok(n) if n > 0) {
            got.push((Instant::now().saturating_duration_since(t0), line.clone()));
            line.clear();
        }
        got
    });
    let mut spans: Vec<Spans> = (0..n)
        .map(|k| Spans {
            due: due(k, rate),
            ..Spans::default()
        })
        .collect();
    let mut out = &stream;
    let mut send_error = None;
    for (k, line) in lines.iter().enumerate() {
        if let Some(wait) = (t0 + spans[k].due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if let Err(e) = out
            .write_all(line.as_bytes())
            .and_then(|_| out.write_all(b"\n"))
        {
            send_error = Some(format!("send: {e}"));
            break;
        }
        spans[k].sent = Some(Instant::now().saturating_duration_since(t0));
    }
    let _ = stream.shutdown(Shutdown::Write);
    let got = reader.join().map_err(|_| "reader thread panicked")?;
    if let Some(e) = send_error {
        return Err(e);
    }
    Ok(collate(rate, first, spans, &got, base))
}

/// Attributes the daemon's lines to the window's arrivals (`first ..` of
/// the rung): on one connection each one-session batch writes its result
/// line, then its batch line.
fn collate(
    rate: f64,
    first: usize,
    mut spans: Vec<Spans>,
    got: &[(Duration, String)],
    base: u64,
) -> Point {
    let n = spans.len();
    let mut results: Vec<Option<ResultLine>> = vec![None; n];
    let mut answers = vec![0usize; n];
    let mut clean = vec![false; n];
    let mut problems = Vec::new();
    let mut shed = 0;
    let mut drain: Option<Json> = None;
    let mut pending: Option<(Duration, Json)> = None;
    for (at, line) in got {
        let Ok(v) = json::parse(line.trim()) else {
            problems.push(format!("unparseable line {line:?}"));
            continue;
        };
        match v.get("event") {
            None => pending = Some((*at, v)),
            Some(Json::Str(e)) if e == "batch" => {
                let k = text(&v, "tag")
                    .strip_prefix('b')
                    .and_then(|k| k.parse::<usize>().ok())
                    .filter(|&k| k < n);
                let Some(k) = k else {
                    problems.push(format!("batch line with an unknown tag: {line:?}"));
                    continue;
                };
                answers[k] += 1;
                shed += num(&v, "shed") as usize;
                clean[k] = num(&v, "completed") == 1 && num(&v, "failed") == 0;
                spans[k].batch = Some(*at);
                if let Some((when, result)) = pending.take() {
                    spans[k].result = Some(when);
                    results[k] = Some(ResultLine::parse(&result, arrival(first + k, base).seed));
                }
            }
            Some(Json::Str(e)) if e == "drain" => drain = Some(v),
            Some(Json::Str(e)) if e == "reject" && text(&v, "reason") == "bad_request" => {
                problems.push(format!("request rejected: {line:?}"));
            }
            _ => {}
        }
    }
    match &drain {
        Some(d) if flag(d, "accounted") => {
            if num(d, "submitted") as usize != n {
                problems.push(format!(
                    "drain line counts {} of {n} submitted",
                    num(d, "submitted")
                ));
            }
        }
        Some(_) => problems.push("the connection's drain line is not accounted".into()),
        None => problems.push("the daemon closed without a drain line".into()),
    }
    let mut failed = 0;
    for k in 0..n {
        let ok = answers[k] == 1 && clean[k] && results[k].as_ref().is_some_and(|r| r.ok);
        if !ok {
            failed += 1;
        }
        if answers[k] > 1 {
            problems.push(format!(
                "arrival {} answered {} times",
                first + k,
                answers[k]
            ));
        }
    }
    let last = spans
        .iter()
        .filter_map(|s| s.batch)
        .max()
        .unwrap_or_default();
    Point {
        rate,
        window: n,
        elapsed: last,
        cpu_s: Vec::new(),
        spans,
        results,
        failed,
        shed,
        problems,
    }
}

/// Spawn to listening line to a drained warm-up batch of each use case,
/// seconds. Each batch gives every worker one session per family of the
/// rotation (content seed `warm`, outside the timed stream).
pub fn warm_up(daemon: &Daemon, spawn_to_listen: Duration, warm: u64) -> Result<f64, String> {
    let t = Instant::now();
    let stream = TcpStream::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(PATIENCE))
        .map_err(|e| e.to_string())?;
    let mut out = &stream;
    for (i, kind) in [Kind::Synthesis, Kind::Repair].iter().enumerate() {
        writeln!(
            out,
            "{{\"use_case\":\"{}\",\"seed\":{warm},\"count\":{},\"client\":\"warm-up\",\"tag\":\"w{i}\"}}",
            kind.name(),
            THREADS * cosynth_fleet::family_names().len()
        )
        .map_err(|e| format!("warm-up: {e}"))?;
    }
    let mut batches = 0;
    let mut failed = 0;
    for line in BufReader::new(&stream).lines() {
        let line = line.map_err(|e| format!("warm-up: {e}"))?;
        let Ok(v) = json::parse(&line) else { continue };
        if matches!(v.get("event"), Some(Json::Str(e)) if e == "batch") {
            batches += 1;
            failed += num(&v, "failed") + num(&v, "shed");
            if batches == 2 {
                break;
            }
        }
    }
    let elapsed = spawn_to_listen + t.elapsed();
    drop(stream);
    if batches < 2 || failed > 0 {
        return Err(format!(
            "warm-up batches did not drain cleanly ({batches} of 2, {failed} failed)"
        ));
    }
    Ok(elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_rate_and_index() {
        assert_eq!(due(0, 400.0), Duration::ZERO);
        assert_eq!(due(400, 400.0), Duration::from_secs(1));
        assert_eq!(due(3, 200.0), Duration::from_millis(15));
        // A 30 s run gets three windows per rung; windows stay odd.
        let window = stats::min_samples(99);
        assert_eq!(windows_for(30.0, window), 3);
        assert_eq!(windows_for(1.0, window), 1);
        assert_eq!(windows_for(60.0, window), 5);
        assert!((1..=60).all(|s| windows_for(s as f64, window) % 2 == 1));
    }

    #[test]
    fn arrivals_alternate_use_cases_and_visit_every_family() {
        let kinds: Vec<Kind> = (0..4).map(|k| arrival(k, 7).kind).collect();
        assert_eq!(
            kinds,
            [Kind::Synthesis, Kind::Repair, Kind::Synthesis, Kind::Repair]
        );
        let families = cosynth_fleet::family_names();
        for kind in [Kind::Synthesis, Kind::Repair] {
            let seen: std::collections::BTreeSet<&str> = (0..24)
                .map(|k| arrival(k, 7))
                .filter(|a| a.kind == kind)
                .map(|a| a.family)
                .collect();
            assert_eq!(seen.len(), families.len(), "{kind:?} sees {seen:?}");
        }
        assert_eq!(arrival(5, 100).seed, 105);
        for f in families {
            assert_eq!(cosynth_fleet::family_of(family_index(f)), f);
        }
    }

    #[test]
    fn lateness_counts_against_latency_from_the_due_time() {
        // A sender stalled 30 ms: the arrival is 30 ms late, and its
        // latency runs from when it was due, not from when it was sent.
        let stalled = Spans {
            due: Duration::from_millis(10),
            sent: Some(Duration::from_millis(40)),
            result: Some(Duration::from_millis(42)),
            batch: Some(Duration::from_millis(43)),
        };
        assert!((stalled.late_ms().unwrap() - 30.0).abs() < 1e-9);
        assert!((stalled.latency_ms().unwrap() - 33.0).abs() < 1e-9);
        let unanswered = Spans {
            due: Duration::ZERO,
            sent: Some(Duration::ZERO),
            ..Spans::default()
        };
        assert_eq!(unanswered.latency_ms(), None);
    }

    #[test]
    fn collate_attributes_lines_and_flags_bad_answers() {
        let spans: Vec<Spans> = (0..3)
            .map(|k| Spans {
                due: due(k, 100.0),
                sent: Some(due(k, 100.0)),
                ..Spans::default()
            })
            .collect();
        let at = Duration::from_millis;
        let result = |k: usize| {
            let s = 10 + k as u64;
            format!(
                "{{\"use_case\":\"synthesis\",\"session\":0,\"converged\":true,\"auto\":2,\"human\":0,\"sim_rounds\":3,\"wall_ms\":1.5,\"outcome\":\"completed\",\"llm_calls\":4,\"milli_cost\":9,\"seed\":{s}}}"
            )
        };
        let batch = |k: usize| {
            format!("{{\"event\":\"batch\",\"requested\":1,\"completed\":1,\"failed\":0,\"shed\":0,\"tag\":\"b{k}\"}}")
        };
        let drain =
            "{\"event\":\"drain\",\"scope\":\"connection\",\"submitted\":3,\"accounted\":true}";
        let got = vec![
            (at(3), result(0)),
            (at(4), batch(0)),
            (at(14), result(1)),
            (at(15), batch(1)),
            (at(16), batch(1)),
            (at(30), drain.to_string()),
        ];
        let p = collate(100.0, 0, spans, &got, 10);
        assert_eq!(p.failed, 2, "arrival 1 answered twice, arrival 2 never");
        assert!(
            p.problems.iter().any(|m| m.contains("answered 2 times")),
            "{:?}",
            p.problems
        );
        assert!((p.spans[0].latency_ms().unwrap() - 4.0).abs() < 1e-9);
        assert!((p.wait_ms()[0] - 2.5).abs() < 1e-9, "latency minus wall_ms");
        assert_eq!(p.content_lines()[2], "missing");
        assert_eq!(
            p.latency_ms(99),
            f64::INFINITY,
            "an unanswered arrival misses every limit"
        );
    }

    #[test]
    fn a_rung_joins_its_windows_in_order() {
        // Two windows of two arrivals at 100/s, the second one arrivals
        // 2 and 3 of the rung: content seeds continue, and the rung's
        // rate is its completions over the windows' summed time.
        let window = |first: usize, answered: usize| {
            let spans: Vec<Spans> = (0..2)
                .map(|i| Spans {
                    due: due(i, 100.0),
                    sent: Some(due(i, 100.0)),
                    ..Spans::default()
                })
                .collect();
            let mut got = Vec::new();
            for i in 0..answered {
                let at = Duration::from_millis(10 * i as u64 + 5);
                got.push((at, "{\"use_case\":\"repair\",\"session\":3,\"repaired\":true,\"rounds\":1,\"outcome\":\"completed\"}".to_string()));
                got.push((at, format!("{{\"event\":\"batch\",\"completed\":1,\"failed\":0,\"shed\":0,\"tag\":\"b{i}\"}}")));
            }
            got.push((
                Duration::from_millis(40),
                "{\"event\":\"drain\",\"submitted\":2,\"accounted\":true}".to_string(),
            ));
            collate(100.0, first, spans, &got, 50)
        };
        let rung = Point::join(vec![window(0, 2), window(2, 1)]);
        assert_eq!(rung.spans.len(), 4);
        assert_eq!(rung.failed, 1, "the last arrival went unanswered");
        assert_eq!(rung.elapsed, Duration::from_millis(15 + 5));
        assert!((rung.achieved() - 3.0 / 0.020).abs() < 1e-6);
        assert!(
            rung.content_lines()[2].contains("seed=52"),
            "{:?}",
            rung.content_lines()
        );
        assert_eq!(rung.window_percentiles(50).len(), 2, "one per window");
    }
}
