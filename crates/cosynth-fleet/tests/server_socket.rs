//! Socket front-end contract tests: concurrent clients over TCP, the
//! graceful `{"shutdown":true}` drain (no session lost or counted
//! twice), and the `GET /metrics` Prometheus endpoint holding the
//! accounting identities mid-flight and under chaos.

use cosynth_fleet::{serve, serve_listener, ChaosPlan, ServeOptions, ServeSummary};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use topo_model::json::{self, Json};

struct Daemon {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

fn start_daemon(opts: ServeOptions, with_metrics: bool) -> Daemon {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let (metrics_listener, metrics_addr) = if with_metrics {
        let ml = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
        let ma = ml.local_addr().unwrap();
        (Some(ml), Some(ma))
    } else {
        (None, None)
    };
    let handle = std::thread::spawn(move || serve_listener(listener, metrics_listener, &opts));
    Daemon {
        addr,
        metrics_addr,
        handle,
    }
}

/// Sends `lines`, half-closes, and returns every response line.
fn transact_lines(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut out = stream.try_clone().unwrap();
    for line in lines {
        writeln!(out, "{line}").unwrap();
    }
    out.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("read line"))
        .collect()
}

/// Sends `lines`, half-closes, and returns every response line parsed.
fn transact(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
    transact_lines(addr, lines)
        .iter()
        .map(|l| json::parse(l).expect("response line is JSON"))
        .collect()
}

fn event(v: &Json, name: &str) -> bool {
    matches!(v.get("event"), Some(Json::Str(e)) if e == name)
}

fn num(v: &Json, key: &str) -> u64 {
    match v.get(key) {
        Some(Json::Num(n)) => *n as u64,
        other => panic!("{key} missing or non-numeric: {other:?}"),
    }
}

fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a head");
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    body.to_string()
}

fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not in scrape:\n{text}"))
        .parse()
        .expect(name)
}

#[test]
fn concurrent_clients_share_the_daemon_and_fold_per_tenant_counters() {
    let daemon = start_daemon(
        ServeOptions {
            threads: 4,
            ..Default::default()
        },
        false,
    );

    let clients: Vec<_> = ["alice", "bob"]
        .iter()
        .map(|name| {
            let addr = daemon.addr;
            let req = format!(
                "{{\"use_case\":\"synthesis\",\"seed\":7,\"count\":6,\"client\":\"{name}\",\"tag\":\"{name}-t\"}}"
            );
            std::thread::spawn(move || transact(addr, &[&req, "{\"metrics\":true}"]))
        })
        .collect();
    let responses: Vec<Vec<Json>> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    for (name, lines) in ["alice", "bob"].iter().zip(&responses) {
        let batch = lines
            .iter()
            .find(|v| event(v, "batch"))
            .expect("batch line");
        assert_eq!(num(batch, "requested"), 6);
        assert_eq!(num(batch, "completed"), 6);
        assert_eq!(
            batch.get("tag"),
            Some(&Json::Str(format!("{name}-t"))),
            "tag echoes on the batch line"
        );
        let drain = lines
            .iter()
            .find(|v| event(v, "drain"))
            .expect("connection drain line");
        assert_eq!(drain.get("scope"), Some(&Json::Str("connection".into())));
        assert_eq!(num(drain, "sessions"), 6);
        assert_eq!(drain.get("accounted"), Some(&Json::Bool(true)), "{drain:?}");
        // Identical seeds => identical content, whoever ran first.
        assert!(num(drain, "llm_calls") > 0);
    }
    assert_eq!(
        responses[0]
            .iter()
            .map(|v| event(v, "drain") as u32)
            .sum::<u32>(),
        1
    );
    let (a, b) = (&responses[0], &responses[1]);
    assert_eq!(
        a.iter()
            .find(|v| event(v, "drain"))
            .map(|v| num(v, "milli_cost")),
        b.iter()
            .find(|v| event(v, "drain"))
            .map(|v| num(v, "milli_cost")),
        "same seed, same content cost for both tenants"
    );

    // The mid-run metrics snapshots carry the per-tenant families.
    let metrics = a
        .iter()
        .find(|v| event(v, "metrics"))
        .expect("metrics line");
    assert_eq!(metrics.get("accounted"), Some(&Json::Bool(true)));
    assert_eq!(metrics.get("cost_accounted"), Some(&Json::Bool(true)));

    let summary = transact(daemon.addr, &["{\"shutdown\":true}"]);
    assert!(summary.iter().any(|v| event(v, "shutdown")));
    let summary = daemon.handle.join().unwrap().expect("daemon I/O ok");
    assert_eq!(summary.sessions, 12, "6 sessions per tenant");
    assert_eq!(summary.batches, 2);
    assert!(summary.accounted(), "{summary:?}");
    assert!(summary.ok(), "{summary:?}");
}

#[test]
fn shutdown_drains_in_flight_batches_without_losing_or_double_counting() {
    let daemon = start_daemon(
        ServeOptions {
            threads: 2,
            ..Default::default()
        },
        false,
    );

    // Client A floods a batch, keeps its connection open (no half-close
    // yet), while client B orders the shutdown mid-flight.
    let a = TcpStream::connect(daemon.addr).unwrap();
    let mut a_out = a.try_clone().unwrap();
    writeln!(
        a_out,
        "{{\"use_case\":\"synthesis\",\"seed\":3,\"count\":10,\"client\":\"a\",\"tag\":\"flood\"}}"
    )
    .unwrap();
    a_out.flush().unwrap();
    // Readers stop taking new requests once the drain starts, so the
    // shutdown must not overtake A's batch: wait until the batch is
    // admitted and in flight, which its first streamed result shows.
    let mut a_in = BufReader::new(a);
    let mut first = String::new();
    a_in.read_line(&mut first).expect("first result");

    let b = transact(daemon.addr, &["{\"shutdown\":true}"]);
    assert!(
        b.iter()
            .any(|v| event(v, "shutdown") && v.get("draining") == Some(&Json::Bool(true))),
        "{b:?}"
    );

    // A's stream must still deliver every result, the batch line, and a
    // balanced drain line — the shutdown waited for the backlog.
    let a_lines: Vec<Json> = std::iter::once(first.trim_end().to_string())
        .chain(a_in.lines().map(|l| l.expect("read")))
        .map(|l| json::parse(&l).expect("json"))
        .collect();
    let results = a_lines
        .iter()
        .filter(|v| matches!(v.get("outcome"), Some(Json::Str(_))))
        .count();
    assert_eq!(
        results, 10,
        "every in-flight session completed: {a_lines:?}"
    );
    let batch = a_lines.iter().find(|v| event(v, "batch")).expect("batch");
    assert_eq!(num(batch, "completed"), 10);
    let drain = a_lines.iter().find(|v| event(v, "drain")).expect("drain");
    assert_eq!(num(drain, "submitted"), 10);
    assert_eq!(num(drain, "completed"), 10);
    assert_eq!(drain.get("accounted"), Some(&Json::Bool(true)));

    let summary = daemon.handle.join().unwrap().expect("daemon I/O ok");
    // No loss (10 sessions ran) and no double count (exactly 10).
    assert_eq!(summary.sessions, 10, "{summary:?}");
    assert_eq!(summary.submitted, 10, "{summary:?}");
    assert!(summary.accounted(), "{summary:?}");
}

#[test]
fn metrics_scrapes_hold_the_identities_under_chaos() {
    let daemon = start_daemon(
        ServeOptions {
            threads: 3,
            queue_depth: 8,
            chaos: Some(ChaosPlan::paper_default(11)),
            ..Default::default()
        },
        true,
    );
    let metrics_addr = daemon.metrics_addr.unwrap();

    // Load thread: an oversized batch (sheds at the 8-deep queue), a
    // deadline'd batch, and plain batches, under the chaos plan's
    // injected panics/slow sessions/flaky transports.
    let addr = daemon.addr;
    let load = std::thread::spawn(move || {
        transact(
            addr,
            &[
                "{\"use_case\":\"repair\",\"seed\":11,\"count\":12,\"client\":\"chaos-a\"}",
                "{\"use_case\":\"synthesis\",\"seed\":11,\"count\":6,\"client\":\"chaos-b\",\"deadline_ms\":0}",
                "{\"use_case\":\"synthesis\",\"seed\":11,\"count\":6,\"client\":\"chaos-b\"}",
                "this is not json",
            ],
        )
    });

    // Scrape continuously while the load runs: the conservation
    // identities must hold at every instant, not just at drain.
    for _ in 0..20 {
        let mid = scrape(metrics_addr);
        assert_eq!(sample(&mid, "fleetd_accounted"), 1.0, "{mid}");
        assert_eq!(sample(&mid, "fleetd_cost_accounted"), 1.0, "{mid}");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let lines = load.join().unwrap();
    assert!(
        lines.iter().any(|v| event(v, "reject")),
        "chaos load must draw typed rejects: {lines:?}"
    );

    // Post-load scrape: exposition shape and ledger agreement.
    let text = scrape(metrics_addr);
    assert_eq!(sample(&text, "fleetd_accounted"), 1.0, "{text}");
    assert_eq!(sample(&text, "fleetd_cost_accounted"), 1.0, "{text}");
    assert!(sample(&text, "fleetd_uptime_seconds") > 0.0);
    assert!(
        text.contains("fleetd_tenant_sessions_total{client=\"chaos-a\"}"),
        "{text}"
    );
    // Histogram buckets are cumulative and le="+Inf" equals _count.
    let buckets: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("fleetd_session_seconds_bucket"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "{text}");
    for w in buckets.windows(2) {
        assert!(w[0] <= w[1], "buckets must be cumulative: {text}");
    }
    assert_eq!(
        *buckets.last().unwrap(),
        sample(&text, "fleetd_session_seconds_count"),
        "{text}"
    );
    // Scrape-vs-ledger identity: the drained summary's counters match
    // the last scrape (all load finished before it was taken).
    let summary_scrape = (
        sample(&text, "fleetd_submitted_total") as usize,
        sample(&text, "fleetd_completed_total") as usize,
        sample(&text, "fleetd_shed_queue_full_total") as usize,
        sample(&text, "fleetd_shed_over_deadline_total") as usize,
    );
    assert!(transact(daemon.addr, &["{\"shutdown\":true}"])
        .iter()
        .any(|v| event(v, "shutdown")));
    let summary = daemon.handle.join().unwrap().expect("daemon I/O ok");
    assert!(summary.accounted(), "{summary:?}");
    assert!(summary.cost_accounted(), "{summary:?}");
    assert_eq!(
        summary_scrape,
        (
            summary.submitted,
            summary.completed,
            summary.shed_queue_full,
            summary.shed_over_deadline
        ),
        "scrape and drain ledger must agree: {summary:?}\n{text}"
    );
    assert!(summary.protocol_errors >= 1, "the bad line was counted");
    // The chaos plan sheds the oversized batch at the 8-deep queue.
    assert!(summary.shed_queue_full >= 4, "{summary:?}");
}

#[test]
fn an_over_long_request_line_is_rejected_once_and_the_connection_carries_on() {
    let daemon = start_daemon(
        ServeOptions {
            threads: 2,
            ..Default::default()
        },
        false,
    );
    // 1 MiB with no newline, then a valid batch on the same connection.
    let stream = TcpStream::connect(daemon.addr).expect("connect");
    let mut out = stream.try_clone().unwrap();
    out.write_all(&vec![b'x'; 1 << 20]).unwrap();
    writeln!(out).unwrap();
    writeln!(out, "{{\"count\":2,\"tag\":\"after\"}}").unwrap();
    out.flush().unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let lines: Vec<Json> = BufReader::new(stream)
        .lines()
        .map(|l| json::parse(&l.expect("read line")).expect("response line is JSON"))
        .collect();

    let rejects: Vec<&Json> = lines.iter().filter(|v| event(v, "reject")).collect();
    assert_eq!(rejects.len(), 1, "{lines:?}");
    assert_eq!(
        rejects[0].get("code"),
        Some(&Json::Str("line_too_long".into())),
        "{lines:?}"
    );
    let results = lines
        .iter()
        .filter(|v| matches!(v.get("outcome"), Some(Json::Str(_))))
        .count();
    assert_eq!(results, 2, "{lines:?}");
    let batch = lines
        .iter()
        .find(|v| event(v, "batch"))
        .expect("batch line");
    assert_eq!(num(batch, "completed"), 2);
    assert_eq!(batch.get("tag"), Some(&Json::Str("after".into())));
    let drain = lines
        .iter()
        .find(|v| event(v, "drain"))
        .expect("drain line");
    assert_eq!(num(drain, "protocol_errors"), 1, "{drain:?}");
    assert_eq!(num(drain, "submitted"), 2, "{drain:?}");
    assert_eq!(drain.get("accounted"), Some(&Json::Bool(true)), "{drain:?}");

    transact(daemon.addr, &["{\"shutdown\":true}"]);
    let summary = daemon.handle.join().unwrap().expect("daemon I/O ok");
    assert_eq!(summary.protocol_errors, 1, "{summary:?}");
    assert!(summary.accounted(), "{summary:?}");
}

#[test]
fn http_responder_rejects_unknown_paths_and_methods() {
    let daemon = start_daemon(ServeOptions::default(), true);
    let metrics_addr = daemon.metrics_addr.unwrap();

    let mut stream = TcpStream::connect(metrics_addr).unwrap();
    write!(stream, "GET /other HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");

    let mut stream = TcpStream::connect(metrics_addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 405"), "{response}");

    transact(daemon.addr, &["{\"shutdown\":true}"]);
    daemon.handle.join().unwrap().expect("daemon I/O ok");
}

#[test]
fn a_socket_connection_sees_what_a_stdin_caller_sees() {
    // One script through the stdin front-end and through one socket
    // connection: the same result, reject and batch lines come back.
    // Lines stream in completion order and carry their own wall-clock,
    // so compare the sorted lines with `wall_ms` cut out; the drain
    // lines differ by design (global vs per-connection).
    let script = [
        r#"{"use_case":"synthesis","seed":1,"count":3}"#,
        "this is not json",
        r#"{"use_case":"repair","seed":1,"count":2}"#,
        r#"{"count":2,"deadline_ms":0}"#,
        r#"{"count":2,"families":"nonesuch"}"#,
        r#"{"families":"ring,star","seed":4,"count":2}"#,
    ];
    let content = |lines: Vec<String>| -> Vec<String> {
        let mut lines: Vec<String> = lines
            .into_iter()
            .filter(|l| !l.contains("\"event\":\"drain\""))
            .map(|l| match l.find("\"wall_ms\":") {
                Some(start) => {
                    let end = start + l[start..].find(",\"").expect("wall_ms is not last") + 1;
                    format!("{}{}", &l[..start], &l[end..])
                }
                None => l,
            })
            .collect();
        lines.sort();
        lines
    };
    let opts = ServeOptions {
        threads: 2,
        ..Default::default()
    };

    let mut out = Vec::new();
    serve(script.join("\n").as_bytes(), &mut out, &opts).expect("serve io");
    let stdin = content(
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect(),
    );

    let daemon = start_daemon(opts, false);
    let socket = content(transact_lines(daemon.addr, &script));
    transact(daemon.addr, &["{\"shutdown\":true}"]);
    daemon.handle.join().unwrap().expect("daemon I/O ok");

    // 3 + 2 + 2 results, 5 batch lines, 3 rejects.
    assert_eq!(stdin.len(), 15, "{stdin:#?}");
    assert_eq!(stdin, socket);
}
