//! `fleet` — run N sessions through the VPP loop on a work-stealing
//! thread pool and write a `BENCH_*.json` report, stay resident with
//! `--serve` and stream batches over stdin/stdout, or run the seeded
//! fault gauntlet with `--chaos`.
//!
//! ```sh
//! cargo run --release --bin fleet -- --sessions 64 --seed 1
//! cargo run --release --bin fleet -- --use-case repair --sessions 64 --seed 1
//! echo '{"use_case":"repair","count":8}' | cargo run --release --bin fleet -- --serve
//! cargo run --release --bin fleet -- --chaos --sessions 64 --seed 1
//! ```
//!
//! Run with `--help` for the full flag reference. Exit status is
//! non-zero if any session fails its use case's contract (synthesis:
//! non-convergence or panic; repair: panic or zero repair rate) — the
//! CI smoke contract. Unknown flags are usage errors (exit 2).

use cosynth::VerifyMode;
use cosynth_fleet::SessionBudget;
use cosynth_fleet::{
    all_family_names, family_names, family_of, run_case, run_chaos, scenario_for_tuned, serve,
    ChaosConfig, ChaosPlan, FleetConfig, Repair, ServeOptions, SessionTuning, Synthesis, UseCase,
    CHAOS_MIN_SESSIONS,
};
use criterion::SampleStats;
use llm_sim::Tier;
use std::io::Write as _;
use telemetry::{Registry, Stage, StageHists};
use topo_model::json::ObjBuilder;

const HELP: &str = "\
fleet — parallel VPP session runner (synthesis and repair use cases)

USAGE:
    fleet [FLAGS]

FLAGS:
    --use-case CASE     Which session shape to run: 'synthesis' (the
                        full generate->draft->verify->rectify loop,
                        default) or 'repair' (fault-inject breaks each
                        scenario's known-good snapshot; the session
                        localizes and repairs it).
    --sessions N        Sessions to run, at least 1 (default 16;
                        --chaos submits exactly N jobs across its
                        scripted batches, and N must be at least 16).
    --seed S            Scenario/fault/model stream seed (default 1;
                        --chaos also seeds its fault schedule from S).
    --threads T         Worker threads (default: machine parallelism
                        clamped to [2, 8]; minimum 2).
    --families a,b,c    Only run sessions whose topology family is in
                        the list (chain, ring, full-mesh, fat-tree,
                        multi-homed, star). Applies to both use cases
                        and to --serve batches without a filter of
                        their own. A large internet-scale family
                        (fat-tree-36, fat-tree-72, fat-tree-144,
                        as-graph-64, as-graph-128, as-graph-256,
                        as-graph-512) replaces the rotation instead of
                        filtering it — every session index runs that
                        family — so it must be the only value. Unknown
                        names are usage errors (exit 2).
    --out PATH          Report path (default BENCH_scenarios.json for
                        synthesis, BENCH_repair.json for repair,
                        BENCH_robustness.json for --chaos,
                        BENCH_backends.json for --bench-backends).
    --backend NAME      Model backend serving every session's
                        completions: 'simulated-gpt4' (the paper's
                        error model, default), or one of the derived
                        price/quality tiers 'sim-cheap', 'sim-std',
                        'sim-premium'. Applies to batch, serve, and
                        chaos sessions alike.
    --bench-backends    Backend cost sweep: run both use cases at
                        --sessions/--seed once per tier and write
                        BENCH_backends.json (default --out) with each
                        tier's contract counts, cost ledger and
                        cost-leverage (milli-cost of always-premium
                        over the tier's milli-cost).
    --serve             Resident service mode ('fleetd'): keep the
                        worker pool and its warm verifier contexts
                        alive, read newline-delimited JSON batch
                        requests from stdin ({\"use_case\", \"seed\",
                        \"count\", \"families\", \"deadline_ms\"}), stream
                        one JSON result line per session as it finishes
                        (each with a typed 'outcome'), emit typed
                        {\"event\":\"reject\"} lines for refused work
                        (reasons: bad_request, queue_full,
                        over_deadline), and report the pool counters
                        plus the robustness ledger on drain.
    --chaos             Seeded fault gauntlet: drive the service through
                        malformed requests, a queue-overflow batch, an
                        expired-deadline batch, and per-job injected
                        worker panics / slow sessions / flaky backends
                        (schedule is a pure function of --seed), then
                        write BENCH_robustness.json. Combined with
                        --serve, applies the same fault schedule to
                        jobs read from stdin instead.
    --queue-depth N     Admission control: max jobs queued at once,
                        across batches and connections; the excess is
                        shed with a typed queue_full reject (default
                        1024; --chaos defaults to 8 so its oversized
                        batch sheds). Stdin admits a batch only once
                        the previous one is done, so there it bounds
                        each batch.
    --deadline-ms MS    Per-session wall-clock budget: a session still
                        running past it stops at the next checkpoint
                        with the typed deadline_exceeded outcome
                        (default: unlimited). Applies to batch, serve,
                        and chaos sessions alike.
    --trace             Stream one {\"event\":\"trace\"} line per session
                        with its per-stage wall-clock spans (prompt
                        render, backend, parse, space build, check,
                        sim, localize). Batch mode prints them after
                        the run; --serve streams each one right after
                        its session's result line.
    --listen ADDR       (--serve only) Socket front-end: accept
                        connections on ADDR (host:port) instead of
                        reading stdin. Every connection speaks the same
                        newline-JSON protocol, pipelining freely; all
                        connections share one admission queue and the
                        resident worker pool. A {\"shutdown\":true} line
                        on any connection drains the daemon (same exit
                        contract as stdin EOF).
    --metrics-addr ADDR (--listen only) Serve GET /metrics on ADDR in
                        Prometheus text format: the ledger counters,
                        per-tier backend call counters, per-tenant
                        (client-labeled) families, queue/in-flight/
                        connection gauges, latency histograms with
                        cumulative buckets, and the fleetd_accounted /
                        fleetd_cost_accounted conservation verdicts
                        recomputed per scrape.
    --metrics           (--serve only) Emit a {\"event\":\"metrics\"}
                        registry snapshot at drain: the accounting
                        counters, queue high-water mark, pool reuse
                        and verdict-memo hit rates, memo confirmation
                        mismatches, and per-stage latency histograms.
                        A {\"metrics\":true} request line gets a
                        mid-run snapshot whether or not this flag is
                        set; it carries the same fields but the pool
                        reuse rate, which the workers report only at
                        drain (the verdict memo is the whole pool's,
                        so its hit rate and mismatches are live).
    --profile           Stage-cost profile: run the synthesis AND repair
                        fleets at --sessions/--seed, fold every
                        session's trace into per-family stage
                        histograms, and write BENCH_telemetry.json
                        (default --out) instead of the usual reports.
    --no-incremental    Full re-verification, bypassing the pool's
                        verdict memo: a repair session re-checks every
                        device and re-runs the whole-network sim after
                        each edit, instead of only the edited device's
                        dirty set (itself plus its internal BGP
                        neighbors) with the sim deferred to the rounds
                        that read it; a synthesis session recomputes
                        every draft's verdict and its final sim instead
                        of reusing the ones the pool has computed.
                        Per-seed session content is byte-identical
                        either way — this is the A/B lever --bench-scale
                        measures.
    --bench-scale       Size sweep: run the repair fleet at --sessions/
                        --seed once per large family per verification
                        mode (full, incremental), check per-seed
                        session content is identical across the two
                        modes, and write BENCH_scale.json (default
                        --out) with sessions/s and the wall-clock
                        spread vs router count. --families may name a
                        subset of the large families to sweep.
    --dump-scenario I   Print the JSON of the scenario session I runs
                        at --seed (a large --families value pins it)
                        and exit.
    --help              Print this reference and exit.

EXIT STATUS:
    0  every session met the use case's contract; --serve: every batch
       session met its per-session contract (synthesis: converged;
       repair: repaired — deliberately stricter than the batch repair
       contract), every request line was well-formed, and nothing was
       shed; --serve --listen: every ran session met its per-session
       contract and the drain ledger balanced (sheds are legitimate —
       admission control under competing clients — so only losing or
       double-counting work fails the daemon); --chaos: the gauntlet
       drained with every submitted job in exactly one typed outcome
       (submitted = completed + shed + deadline_exceeded + quarantined)
       and every fault class exercised; --bench-backends: every tier
       ran the full fleet in both use cases and billed exactly
       llm_calls x its unit_milli_cost (a cheap tier may miss sessions'
       contracts — that gap is what the sweep measures)
    1  synthesis: a session failed to converge or panicked;
       repair: a session panicked or the overall repair rate is zero;
       either: fewer sessions ran than requested (bad --families?);
       --serve/--chaos/--bench-backends: the exit contract above failed
    2  usage error (unknown flag, bad value) or the report file could
       not be written
";

/// Everything the strict parser accepts.
struct Args {
    use_case: String,
    sessions: usize,
    seed: u64,
    threads: usize,
    families: Option<Vec<String>>,
    out: Option<String>,
    serve: bool,
    listen: Option<String>,
    metrics_addr: Option<String>,
    chaos: bool,
    trace: bool,
    metrics: bool,
    profile: bool,
    queue_depth: Option<usize>,
    deadline_ms: Option<u64>,
    dump_scenario: Option<usize>,
    backend: Tier,
    bench_backends: bool,
    incremental: bool,
    bench_scale: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("fleet: {message}");
    eprintln!("Run 'fleet --help' for the flag reference.");
    std::process::exit(2);
}

/// Strict flag parsing: every argument must be a known flag (with its
/// value where one is required); anything else is a usage error.
fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        use_case: "synthesis".into(),
        sessions: 16,
        seed: 1,
        threads: cosynth_fleet::default_threads(),
        families: None,
        out: None,
        serve: false,
        listen: None,
        metrics_addr: None,
        chaos: false,
        trace: false,
        metrics: false,
        profile: false,
        queue_depth: None,
        deadline_ms: None,
        dump_scenario: None,
        backend: Tier::default(),
        bench_backends: false,
        incremental: true,
        bench_scale: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match argv.get(*i) {
            Some(v) => v.clone(),
            None => usage_error(&format!("{flag} requires a value")),
        }
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "--serve" => args.serve = true,
            "--listen" => args.listen = Some(value(&mut i, "--listen")),
            "--metrics-addr" => args.metrics_addr = Some(value(&mut i, "--metrics-addr")),
            "--chaos" => args.chaos = true,
            "--trace" => args.trace = true,
            "--metrics" => args.metrics = true,
            "--profile" => args.profile = true,
            "--bench-backends" => args.bench_backends = true,
            "--no-incremental" => args.incremental = false,
            "--bench-scale" => args.bench_scale = true,
            "--backend" => {
                let v = value(&mut i, "--backend");
                args.backend = Tier::parse(&v).unwrap_or_else(|| {
                    usage_error(&format!(
                        "unknown --backend {v:?} (known: {})",
                        Tier::ALL.map(Tier::name).join(", ")
                    ))
                });
            }
            "--use-case" => args.use_case = value(&mut i, "--use-case"),
            "--sessions" => {
                let v = value(&mut i, "--sessions");
                args.sessions = match v.parse() {
                    Ok(0) => usage_error("--sessions: the count must be at least 1"),
                    Ok(n) => n,
                    Err(_) => usage_error(&format!("--sessions: bad count {v:?}")),
                };
            }
            "--seed" => {
                let v = value(&mut i, "--seed");
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed: bad seed {v:?}")));
            }
            "--threads" => {
                let v = value(&mut i, "--threads");
                args.threads = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--threads: bad count {v:?}")));
            }
            "--queue-depth" => {
                let v = value(&mut i, "--queue-depth");
                args.queue_depth =
                    Some(v.parse().unwrap_or_else(|_| {
                        usage_error(&format!("--queue-depth: bad depth {v:?}"))
                    }));
            }
            "--deadline-ms" => {
                let v = value(&mut i, "--deadline-ms");
                args.deadline_ms = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--deadline-ms: bad deadline {v:?}"))
                }));
            }
            "--families" => {
                let v = value(&mut i, "--families");
                args.families = Some(v.split(',').map(|f| f.trim().to_string()).collect());
            }
            "--out" => args.out = Some(value(&mut i, "--out")),
            "--dump-scenario" => {
                let v = value(&mut i, "--dump-scenario");
                args.dump_scenario =
                    Some(v.parse().unwrap_or_else(|_| {
                        usage_error(&format!("--dump-scenario: bad index {v:?}"))
                    }));
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    validate_families(&args);
    args
}

/// `--families` validation: every name must be known (an unknown name
/// used to silently run zero sessions and exit 1 with a hint), and the
/// large internet-scale families — which replace the rotation rather
/// than filter it — must stand alone (or, under --bench-scale, name the
/// sweep's subset).
fn validate_families(args: &Args) {
    let Some(fams) = &args.families else { return };
    let known = all_family_names();
    for f in fams {
        if !known.contains(&f.as_str()) {
            usage_error(&format!(
                "unknown family {f:?} in --families (known: {})",
                known.join(", ")
            ));
        }
    }
    let n_large = fams
        .iter()
        .filter(|f| scenario_gen::large_family_size(f).is_some())
        .count();
    if args.bench_scale {
        if n_large < fams.len() {
            usage_error(&format!(
                "--bench-scale sweeps only the large families (known: {})",
                scenario_gen::LARGE_FAMILIES.join(", ")
            ));
        }
    } else if n_large > 0 && fams.len() > 1 {
        usage_error(
            "a large family replaces the rotation rather than filtering it, \
             so it must be the only --families value",
        );
    }
}

/// The large family a sole `--families` value pins every session to,
/// if any (validated by [`validate_families`]).
fn pinned_family(args: &Args) -> Option<&'static str> {
    let fams = args.families.as_ref()?;
    match fams.as_slice() {
        [one] => scenario_gen::LARGE_FAMILIES
            .iter()
            .copied()
            .find(|n| n == one),
        _ => None,
    }
}

/// The robustness knobs shared by every mode: only the wall deadline is
/// CLI-settable today (transport faults and retry policy keep their
/// paper defaults).
fn tuning_of(args: &Args) -> SessionTuning {
    SessionTuning {
        budget: SessionBudget {
            max_wall_ms: args.deadline_ms,
            ..Default::default()
        },
        backend: args.backend,
        verify: VerifyMode {
            incremental: args.incremental,
        },
        scenario_family: pinned_family(args),
        ..Default::default()
    }
}

/// Injected chaos panics are part of the experiment, not crashes:
/// silence their default-hook backtrace spam while letting every
/// organic panic report as loudly as ever.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("chaos: injected"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("chaos: injected"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    if let Some(index) = args.dump_scenario {
        dump_scenario(&args, index);
        return;
    }
    if args.chaos {
        quiet_injected_panics();
    }
    if args.metrics && !args.serve {
        usage_error("--metrics only applies to --serve (batch runs report through --out)");
    }
    if args.listen.is_some() && !args.serve {
        usage_error("--listen only applies to --serve (it replaces the stdin front-end)");
    }
    if args.metrics_addr.is_some() && args.listen.is_none() {
        usage_error(
            "--metrics-addr requires --serve --listen (the scrape endpoint belongs \
             to the socket daemon; stdin mode reports through --metrics)",
        );
    }
    if args.profile && (args.serve || args.chaos) {
        usage_error("--profile is a batch mode; it cannot combine with --serve or --chaos");
    }
    if args.bench_backends && (args.serve || args.chaos || args.profile) {
        usage_error(
            "--bench-backends is a batch mode; it cannot combine with --serve, --chaos, or --profile",
        );
    }
    if args.bench_scale && (args.serve || args.chaos || args.profile || args.bench_backends) {
        usage_error(
            "--bench-scale is a batch mode; it cannot combine with --serve, --chaos, \
             --profile, or --bench-backends",
        );
    }
    if args.chaos && !args.serve && args.sessions < CHAOS_MIN_SESSIONS {
        usage_error(&format!(
            "--chaos submits at least {CHAOS_MIN_SESSIONS} jobs; --sessions {} is too few",
            args.sessions
        ));
    }
    if args.bench_backends {
        run_bench_backends(&args);
        return;
    }
    if args.bench_scale {
        run_bench_scale(&args);
        return;
    }
    if args.serve {
        run_serve(&args);
        return;
    }
    if args.chaos {
        run_chaos_bench(&args);
        return;
    }
    if args.profile {
        run_profile(&args);
        return;
    }
    let cfg = FleetConfig {
        sessions: args.sessions,
        seed: args.seed,
        threads: args.threads,
        families: args.families.clone(),
        tuning: tuning_of(&args),
    };
    match args.use_case.as_str() {
        "synthesis" => run_and_report::<Synthesis>(&cfg, &args),
        "repair" => run_and_report::<Repair>(&cfg, &args),
        other => usage_error(&format!(
            "unknown --use-case {other:?} (known: synthesis, repair)"
        )),
    }
}

/// `--dump-scenario`: prints the scenario JSON. A reader that hangs up
/// early (`| head`) has taken all it wanted, so a broken pipe ends the
/// dump quietly with exit 0; any other write error exits 2.
fn dump_scenario(args: &Args, index: usize) {
    let json = scenario_for_tuned(args.seed, index, &tuning_of(args)).to_json();
    let mut stdout = std::io::stdout().lock();
    let written = writeln!(stdout, "{json}").and_then(|()| stdout.flush());
    if let Err(e) = written {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("fleet: cannot write the scenario: {e}");
            std::process::exit(2);
        }
    }
}

/// Resident service mode: stdin → worker pool → stdout. Exit contract:
/// strict (every session ok, nothing shed) normally; under --chaos the
/// point is surviving faults, so the contract is the accounting
/// identity instead.
fn run_serve(args: &Args) {
    let opts = ServeOptions {
        threads: args.threads,
        default_families: args.families.clone(),
        queue_depth: args.queue_depth.unwrap_or(1024),
        tuning: tuning_of(args),
        chaos: args.chaos.then(|| ChaosPlan::paper_default(args.seed)),
        emit_metrics: args.metrics,
        stream_traces: args.trace,
    };
    let served = if let Some(addr) = &args.listen {
        let listener = match std::net::TcpListener::bind(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fleetd: cannot listen on {addr}: {e}");
                std::process::exit(2);
            }
        };
        let metrics_listener =
            args.metrics_addr
                .as_ref()
                .map(|m| match std::net::TcpListener::bind(m) {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("fleetd: cannot serve /metrics on {m}: {e}");
                        std::process::exit(2);
                    }
                });
        eprintln!(
            "fleetd: listening on {}{}, {} workers, queue depth {}{}",
            listener
                .local_addr()
                .map_or_else(|_| addr.clone(), |a| a.to_string()),
            match &metrics_listener {
                Some(m) => format!(
                    ", /metrics on {}",
                    m.local_addr()
                        .map_or_else(|_| String::new(), |a| a.to_string())
                ),
                None => String::new(),
            },
            opts.threads.max(2),
            opts.queue_depth,
            if args.chaos { ", chaos on" } else { "" }
        );
        cosynth_fleet::serve_listener(listener, metrics_listener, &opts)
    } else {
        eprintln!(
            "fleetd: serving on stdin/stdout, {} workers, queue depth {}{}",
            opts.threads.max(2),
            opts.queue_depth,
            if args.chaos { ", chaos on" } else { "" }
        );
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve(stdin.lock(), stdout.lock(), &opts)
    };
    match served {
        Ok(summary) => {
            eprintln!(
                "fleetd: drained after {} batch(es), {} session(s), {} failure(s), \
                 {} shed, {} quarantined",
                summary.batches,
                summary.sessions,
                summary.failures,
                summary.shed_queue_full + summary.shed_over_deadline,
                summary.quarantined
            );
            // Exit contract: stdin batches are work the caller expects
            // to succeed wholesale, so the strict no-shed `ok()` binds.
            // The socket daemon serves competing clients that may drive
            // it past saturation on purpose — shedding there is the
            // admission control working, so its contract is the ledger:
            // nothing lost (accounted) and every ran session met its
            // per-session contract. Chaos keeps the accounting identity
            // alone (failures are the experiment).
            let met = if args.chaos {
                summary.accounted()
            } else if args.listen.is_some() {
                summary.failures == 0 && summary.accounted()
            } else {
                summary.ok()
            };
            if !met {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fleetd: I/O error: {e}");
            std::process::exit(2);
        }
    }
}

/// `--chaos` without `--serve`: the scripted gauntlet, then the
/// robustness bench report.
fn run_chaos_bench(args: &Args) {
    let cfg = ChaosConfig {
        sessions: args.sessions,
        seed: args.seed,
        threads: args.threads,
        queue_depth: args.queue_depth.unwrap_or(8),
    };
    eprintln!(
        "fleet: chaos gauntlet, {} sessions, seed {}, {} workers, queue depth {}",
        cfg.sessions,
        cfg.seed,
        cfg.threads.max(2),
        cfg.queue_depth
    );
    let report = match run_chaos(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet: chaos I/O error: {e}");
            std::process::exit(2);
        }
    };
    let s = &report.summary;
    println!(
        "chaos: submitted {} | completed {} | shed {}+{} | deadline {} | \
         quarantined {} | retries {} | rejects {} | survival {:.1}%",
        s.submitted,
        s.completed,
        s.shed_queue_full,
        s.shed_over_deadline,
        s.deadline_exceeded,
        s.quarantined,
        s.transport_retries,
        s.protocol_errors,
        report.survival_rate() * 100.0
    );
    for (name, hit) in report.fault_classes() {
        println!(
            "chaos:   fault class {name:<18} {}",
            if hit { "exercised" } else { "NOT EXERCISED" }
        );
    }
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_robustness.json".into());
    if let Err(e) = std::fs::write(&out_path, report.bench_json()) {
        eprintln!("fleet: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");
    if !report.survived() {
        eprintln!("fleet: chaos accounting identity failed: {s:?}");
        std::process::exit(1);
    }
    if !report.all_faults_exercised() {
        eprintln!(
            "fleet: a fault class was not exercised at this seed/scale — \
             raise --sessions or change --seed"
        );
        std::process::exit(1);
    }
}

/// `--profile`: run both use cases at the requested scale, fold every
/// session's stage trace into per-(use case × family) histograms, and
/// write the stage-cost breakdown as `BENCH_telemetry.json`.
fn run_profile(args: &Args) {
    let cfg = FleetConfig {
        sessions: args.sessions,
        seed: args.seed,
        threads: args.threads,
        families: args.families.clone(),
        tuning: tuning_of(args),
    };
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_telemetry.json".into());
    let mut reg = Registry::new(1);
    let mut hists = std::collections::BTreeMap::new();
    for case in [Synthesis::NAME, Repair::NAME] {
        for family in family_names() {
            hists.insert(
                (case, family),
                StageHists::register(&mut reg, &format!("{case}.{family}.")),
            );
        }
    }
    fn fold<U: UseCase>(
        cfg: &FleetConfig,
        reg: &Registry,
        hists: &std::collections::BTreeMap<(&str, &str), StageHists>,
    ) -> (usize, f64, bool) {
        eprintln!(
            "fleet: profiling {}, {} sessions, seed {}, {} workers",
            U::NAME,
            cfg.sessions,
            cfg.seed,
            cfg.threads.max(2)
        );
        let report = run_case::<U>(cfg);
        for r in &report.results {
            hists[&(U::NAME, family_of(U::index(r)))].observe(reg, 0, &U::trace(r));
        }
        (
            report.results.len(),
            report.throughput(),
            report.results.len() >= cfg.sessions,
        )
    }
    let (syn_n, syn_tput, syn_full) = fold::<Synthesis>(&cfg, &reg, &hists);
    let (rep_n, rep_tput, rep_full) = fold::<Repair>(&cfg, &reg, &hists);

    let snap = reg.snapshot();
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"telemetry\",");
    let _ = writeln!(out, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(out, "  \"sessions\": {},", cfg.sessions);
    let _ = writeln!(out, "  \"threads\": {},", cfg.threads.max(2));
    let _ = writeln!(out, "  \"use_cases\": {{");
    let cases = [
        (Synthesis::NAME, syn_n, syn_tput),
        (Repair::NAME, rep_n, rep_tput),
    ];
    for (ci, (case, n, tput)) in cases.iter().enumerate() {
        let _ = writeln!(out, "    \"{case}\": {{");
        let _ = writeln!(out, "      \"sessions\": {n},");
        let _ = writeln!(out, "      \"sessions_per_s\": {tput:.2},");
        let _ = writeln!(out, "      \"stage_ms\": {{");
        // Families (then stages) that never recorded a span are
        // omitted rather than written as empty objects.
        let mut family_blocks = Vec::new();
        for family in family_names() {
            let mut stage_lines = Vec::new();
            for stage in Stage::ALL {
                let stats = snap
                    .hist(&format!("{case}.{family}.{}", stage.name()))
                    .and_then(|h| h.stats_ms());
                if let Some(stats) = stats {
                    stage_lines.push(format!(
                        "          \"{}\": {}",
                        stage.name(),
                        stats.to_json()
                    ));
                }
            }
            if !stage_lines.is_empty() {
                family_blocks.push(format!(
                    "        \"{family}\": {{\n{}\n        }}",
                    stage_lines.join(",\n")
                ));
            }
        }
        let _ = writeln!(out, "{}", family_blocks.join(",\n"));
        let _ = writeln!(out, "      }}");
        let _ = writeln!(out, "    }}{}", if ci == 0 { "," } else { "" });
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");

    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("fleet: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!(
        "profile: synthesis {syn_n} sessions at {syn_tput:.0}/s | repair {rep_n} \
         sessions at {rep_tput:.0}/s"
    );
    println!("wrote {out_path}");
    if !(syn_full && rep_full) {
        eprintln!(
            "fleet: fewer sessions ran than requested (does --families name a real \
             family? known: {:?})",
            family_names()
        );
        std::process::exit(1);
    }
}

/// One tier's column of the `--bench-backends` sweep: a whole fleet
/// run reduced to its contract counts and cost ledger totals.
struct BackendSweepRow {
    tier: Tier,
    sessions: usize,
    /// Sessions that met the use case's per-session contract
    /// (synthesis: converged; repair: repaired).
    ok: usize,
    auto: usize,
    human: usize,
    llm_calls: u64,
    milli_cost: u64,
}

impl BackendSweepRow {
    /// This tier's cost-leverage against always-premium: how many times
    /// cheaper the same fleet ran. 1.0 for premium itself.
    fn leverage_vs(&self, premium_milli_cost: u64) -> f64 {
        premium_milli_cost as f64 / (self.milli_cost.max(1)) as f64
    }
}

/// `--bench-backends`: run both use cases once per backend tier and
/// report each tier's contract counts, cost ledger and cost-leverage
/// against always-premium.
fn run_bench_backends(args: &Args) {
    let cfg_for = |tier: Tier| FleetConfig {
        sessions: args.sessions,
        seed: args.seed,
        threads: args.threads,
        families: args.families.clone(),
        tuning: SessionTuning {
            backend: tier,
            ..tuning_of(args)
        },
    };
    fn sweep<U: UseCase>(
        cfg: &FleetConfig,
        auto_human: impl Fn(&U::Result) -> (usize, usize),
    ) -> BackendSweepRow {
        let tier = cfg.tuning.backend;
        eprintln!(
            "fleet: backend sweep: {} on {}, {} sessions, seed {}",
            U::NAME,
            tier.name(),
            cfg.sessions,
            cfg.seed
        );
        let report = run_case::<U>(cfg);
        let mut row = BackendSweepRow {
            tier,
            sessions: report.results.len(),
            ok: 0,
            auto: 0,
            human: 0,
            llm_calls: 0,
            milli_cost: 0,
        };
        for r in &report.results {
            if U::session_ok(r) {
                row.ok += 1;
            }
            let (a, h) = auto_human(r);
            row.auto += a;
            row.human += h;
            row.llm_calls += U::cost(r).total_calls();
            row.milli_cost += U::cost(r).total_milli_cost();
        }
        row
    }
    let syn_rows: Vec<BackendSweepRow> = Tier::ALL
        .iter()
        .map(|t| sweep::<Synthesis>(&cfg_for(*t), |r| (r.auto, r.human)))
        .collect();
    let rep_rows: Vec<BackendSweepRow> = Tier::ALL
        .iter()
        .map(|t| sweep::<Repair>(&cfg_for(*t), |r| (r.auto, r.human)))
        .collect();

    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"backends\",");
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"sessions\": {},", args.sessions);
    let _ = writeln!(out, "  \"threads\": {},", args.threads.max(2));
    let _ = writeln!(out, "  \"unit_milli_cost\": {{");
    for (i, t) in Tier::ALL.iter().enumerate() {
        let comma = if i + 1 < Tier::ALL.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{}\": {}{comma}", t.name(), t.unit_milli_cost());
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"use_cases\": {{");
    let cases: [(&str, &str, &[BackendSweepRow]); 2] = [
        ("synthesis", "converged", &syn_rows),
        ("repair", "repaired", &rep_rows),
    ];
    for (ci, (case, ok_key, rows)) in cases.iter().enumerate() {
        let premium_row = rows.iter().find(|r| r.tier == Tier::Premium).unwrap();
        let _ = writeln!(out, "    \"{case}\": {{");
        let _ = writeln!(out, "      \"backends\": {{");
        for (ri, r) in rows.iter().enumerate() {
            let comma = if ri + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        \"{}\": {{\"sessions\": {}, \"{ok_key}\": {}, \"auto\": {}, \
                 \"human\": {}, \"llm_calls\": {}, \"milli_cost\": {}, \
                 \"cost_leverage\": {:.4}}}{comma}",
                r.tier.name(),
                r.sessions,
                r.ok,
                r.auto,
                r.human,
                r.llm_calls,
                r.milli_cost,
                r.leverage_vs(premium_row.milli_cost)
            );
        }
        let _ = writeln!(out, "      }}");
        let _ = writeln!(out, "    }}{}", if ci == 0 { "," } else { "" });
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");

    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_backends.json".into());
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("fleet: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");
    // Cheap tiers are allowed to miss sessions' contracts — that gap is
    // the experiment. The sweep binds the accounting: every tier ran the
    // full fleet and billed exactly its own price for every call.
    let contract_ok = syn_rows.iter().chain(&rep_rows).all(|r| {
        r.sessions == args.sessions && r.milli_cost == r.llm_calls * r.tier.unit_milli_cost()
    });
    if !contract_ok {
        eprintln!(
            "fleet: the backend-sweep contract failed (every tier must run the full \
             fleet and bill llm_calls x its unit_milli_cost)"
        );
        std::process::exit(1);
    }
}

/// One (family × verification mode) leg of the `--bench-scale` sweep.
struct ScaleLeg {
    mode: &'static str,
    sessions_per_s: f64,
    wall: SampleStats,
    repaired: usize,
    /// Per-session content signature: everything per-seed-deterministic
    /// across verification modes — outcome, rounds, localization, edit
    /// leverage, retries, model cost. Wall-clock, stage spans, and
    /// pool counters are excluded by contract (see
    /// `cosynth::incremental`).
    signatures: Vec<String>,
}

/// `--bench-scale`: the repair fleet once per large family per
/// verification mode, with a cross-mode content-identity check — the
/// incremental verifier's A/B evidence that session cost scales with
/// the edit rather than the network.
fn run_bench_scale(args: &Args) {
    let modes = [
        ("full", VerifyMode::full()),
        ("incremental", VerifyMode::default()),
    ];
    // Sweep smallest-first so a contract failure surfaces cheaply;
    // --families restricts the sweep (validated large-only).
    let mut sweep: Vec<&'static str> = scenario_gen::LARGE_FAMILIES
        .iter()
        .copied()
        .filter(|n| {
            args.families
                .as_ref()
                .is_none_or(|fams| fams.iter().any(|f| f == n))
        })
        .collect();
    sweep.sort_by_key(|n| scenario_gen::large_family_size(n).expect("sweep is large-only"));
    if sweep.is_empty() {
        usage_error("--bench-scale: --families filtered out every large family");
    }
    let signature = |r: &cosynth_fleet::RepairSessionResult| {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            r.index,
            r.scenario,
            r.intent,
            r.class,
            r.device,
            r.repaired,
            r.rounds,
            r.localized,
            r.auto,
            r.human,
            r.retries,
            r.panicked,
            r.deadline_exceeded,
            r.cost.total_calls(),
            r.cost.total_milli_cost()
        )
    };
    let mut families: Vec<(&'static str, usize, Vec<ScaleLeg>, bool)> = Vec::new();
    let mut contract_ok = true;
    for family in &sweep {
        let routers = scenario_gen::large_family_size(family).expect("sweep is large-only");
        let mut legs = Vec::new();
        for (mode, verify) in modes {
            eprintln!(
                "fleet: scale sweep: {family} ({routers} routers) × {mode}, \
                 {} sessions, seed {}",
                args.sessions, args.seed
            );
            let cfg = FleetConfig {
                sessions: args.sessions,
                seed: args.seed,
                threads: args.threads,
                families: None,
                tuning: SessionTuning {
                    verify,
                    scenario_family: Some(family),
                    ..tuning_of(args)
                },
            };
            let report = run_case::<Repair>(&cfg);
            let walls: Vec<f64> = report.results.iter().map(|r| r.wall_ms).collect();
            legs.push(ScaleLeg {
                mode,
                sessions_per_s: report.throughput(),
                wall: SampleStats::from_samples(&walls).expect("non-empty leg"),
                repaired: report.results.iter().filter(|r| r.repaired).count(),
                signatures: report.results.iter().map(&signature).collect(),
            });
            if report.results.len() < args.sessions {
                eprintln!("fleet: scale leg {family}×{mode} ran short");
                contract_ok = false;
            }
        }
        let identical = legs.iter().all(|l| l.signatures == legs[0].signatures);
        if !identical {
            eprintln!(
                "fleet: verification modes disagree on {family}'s session content — \
                 the incremental dirty set is unsound at this seed"
            );
            contract_ok = false;
        }
        let speedup = legs[0].wall.median / legs[1].wall.median.max(f64::MIN_POSITIVE);
        println!(
            "scale: {family:<14} {routers:>3} routers | full {:>8.1} ms | incr {:>8.1} ms | \
             speedup {speedup:.2}x | content {}",
            legs[0].wall.median,
            legs[1].wall.median,
            if identical { "identical" } else { "DIVERGED" }
        );
        families.push((family, routers, legs, identical));
    }

    // Contract: at the largest family, incremental beats full
    // re-verification ≥3× on median session wall-clock; and the
    // per-edit cost grows sub-linearly in router count across the
    // sweep. Per-edit cost is estimated by the p10 session wall — the
    // steady-state cost of one repair edit on a warm resident worker.
    // The median folds in the pool's one-time per-family warm-up
    // (statics build, the first simulation of each intent's snapshot)
    // and each worker's first-seen space builds, which amortize with
    // fleet lifetime and are visible separately in the percentile
    // block; both ratios are recorded in the contract for transparency.
    let (largest, largest_routers, largest_legs, _) = families.last().expect("non-empty sweep");
    let largest_speedup =
        largest_legs[0].wall.median / largest_legs[1].wall.median.max(f64::MIN_POSITIVE);
    let (smallest, smallest_routers, smallest_legs, _) = families.first().expect("non-empty");
    let median_growth =
        largest_legs[1].wall.median / smallest_legs[1].wall.median.max(f64::MIN_POSITIVE);
    let p10_growth = largest_legs[1].wall.p10 / smallest_legs[1].wall.p10.max(f64::MIN_POSITIVE);
    let sublinear = if families.len() < 2 {
        true // a single-family sweep has no growth to measure
    } else {
        let size_ratio = *largest_routers as f64 / *smallest_routers as f64;
        println!(
            "scale: incremental per-edit growth {smallest} -> {largest}: p10 {p10_growth:.2}x \
             (median {median_growth:.2}x) over routers {size_ratio:.2}x"
        );
        p10_growth < size_ratio
    };
    if largest_speedup < 3.0 {
        eprintln!(
            "fleet: scale contract: incremental is only {largest_speedup:.2}x \
             faster than full at {largest} ({largest_routers} routers); the bar is 3x"
        );
        contract_ok = false;
    }
    if !sublinear {
        eprintln!("fleet: scale contract: incremental cost grew linearly or worse");
        contract_ok = false;
    }

    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"scale\",");
    let _ = writeln!(out, "  \"use_case\": \"repair\",");
    let _ = writeln!(out, "  \"seed\": {},", args.seed);
    let _ = writeln!(out, "  \"sessions_per_leg\": {},", args.sessions);
    let _ = writeln!(out, "  \"threads\": {},", args.threads.max(2));
    let _ = writeln!(out, "  \"families\": {{");
    for (fi, (family, routers, legs, identical)) in families.iter().enumerate() {
        let _ = writeln!(out, "    \"{family}\": {{");
        let _ = writeln!(out, "      \"routers\": {routers},");
        let _ = writeln!(
            out,
            "      \"content_identical_across_modes\": {identical},"
        );
        let _ = writeln!(
            out,
            "      \"speedup_incremental_vs_full\": {:.4},",
            legs[0].wall.median / legs[1].wall.median.max(f64::MIN_POSITIVE)
        );
        let _ = writeln!(out, "      \"modes\": {{");
        for (li, leg) in legs.iter().enumerate() {
            let comma = if li + 1 < legs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        \"{}\": {{\"sessions_per_s\": {:.2}, \"repaired\": {}, \
                 \"session_ms\": {}}}{comma}",
                leg.mode,
                leg.sessions_per_s,
                leg.repaired,
                leg.wall.to_json()
            );
        }
        let _ = writeln!(out, "      }}");
        let _ = writeln!(
            out,
            "    }}{}",
            if fi + 1 < families.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"contract\": {{");
    let _ = writeln!(out, "    \"largest_family\": \"{largest}\",");
    let _ = writeln!(out, "    \"largest_speedup_median\": {largest_speedup:.4},");
    let _ = writeln!(
        out,
        "    \"speedup_at_largest_ge_3x\": {},",
        largest_speedup >= 3.0
    );
    let _ = writeln!(out, "    \"growth_statistic\": \"p10\",");
    let _ = writeln!(out, "    \"incremental_p10_growth\": {p10_growth:.4},");
    let _ = writeln!(
        out,
        "    \"incremental_median_growth\": {median_growth:.4},"
    );
    let _ = writeln!(out, "    \"sublinear_incremental_growth\": {sublinear},");
    let _ = writeln!(
        out,
        "    \"content_identical\": {}",
        families.iter().all(|(_, _, _, ok)| *ok)
    );
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");

    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_scale.json".into());
    if let Err(e) = std::fs::write(&out_path, &out) {
        eprintln!("fleet: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");
    if !contract_ok {
        eprintln!("fleet: the scale-sweep contract failed");
        std::process::exit(1);
    }
}

/// The one batch pipeline both use cases run through: fleet, console
/// table, bench JSON, contract-checked exit status.
fn run_and_report<U: UseCase>(cfg: &FleetConfig, args: &Args) {
    let out_path = args.out.clone().unwrap_or_else(|| U::DEFAULT_OUT.into());
    eprintln!(
        "fleet: {}, {} sessions, seed {}, {} workers",
        U::NAME,
        cfg.sessions,
        cfg.seed,
        cfg.threads.max(2)
    );
    let report = run_case::<U>(cfg);

    if args.trace {
        for r in &report.results {
            println!(
                "{}",
                ObjBuilder::event("trace")
                    .str("use_case", U::NAME)
                    .u64("session", U::index(r) as u64)
                    .raw("stages", &U::trace(r).to_json())
                    .finish()
            );
        }
    }
    println!("{}", U::table(&report.rows));
    println!("{}", U::summary_line(&report));
    let m = &report.pool.memo;
    eprintln!(
        "fleet: pool memo: {} verdict hits, {} misses, {} confirmation mismatches; \
         reference texts {} rendered, {} reused; pinned networks {} drawn, {} reused; \
         pinned scenarios {} built; topology fingerprints {}",
        m.verdict_hits,
        m.verdict_misses,
        m.confirm_mismatches,
        m.texts_rendered,
        m.texts_reused,
        m.networks_drawn,
        m.networks_reused,
        m.scenarios_built,
        m.topology_fps
    );
    if report.results.len() < cfg.sessions {
        eprintln!(
            "fleet: only {} of {} requested sessions ran (does --families name \
             a real family? known: {:?})",
            report.results.len(),
            cfg.sessions,
            cosynth_fleet::family_names()
        );
        std::process::exit(1);
    }

    for r in report.results.iter().filter(|r| !U::session_ok(r)) {
        eprintln!("{}", U::failure_line(r));
    }

    let json = U::bench_json(&report, cfg.sessions);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("fleet: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out_path}");

    if !U::fleet_ok(&report) {
        eprintln!("fleet: the {} contract failed", U::NAME);
        std::process::exit(1);
    }
}
