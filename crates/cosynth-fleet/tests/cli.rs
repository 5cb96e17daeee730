//! CLI contract tests for the `fleet` binary: `--help` documents the
//! service flags and exits 0; unknown flags and bad values exit
//! non-zero with a message that names the offender.

use std::process::Command;

fn fleet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
}

#[test]
fn help_covers_the_serve_flags_and_exits_zero() {
    let out = fleet().arg("--help").output().expect("spawn fleet");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    for flag in [
        "--use-case",
        "--sessions",
        "--seed",
        "--threads",
        "--families",
        "--out",
        "--serve",
        "--dump-scenario",
        "--backend",
        "--bench-backends",
        "--help",
    ] {
        assert!(text.contains(flag), "--help must document {flag}:\n{text}");
    }
    assert!(text.contains("EXIT STATUS"), "{text}");
    assert!(
        text.contains("stdin"),
        "--serve docs must describe the batch protocol:\n{text}"
    );
}

#[test]
fn unknown_flag_exits_nonzero_with_a_usable_message() {
    // The removed A/B switches and the removed cascade route are
    // unknown flags like any other.
    for flag in [
        "--bogus-flag",
        "--parallel-verify",
        "--no-pool",
        "--no-baseline",
        "--route",
    ] {
        let out = fleet().arg(flag).output().expect("spawn fleet");
        assert!(!out.status.success());
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(flag), "{err}");
        assert!(err.contains("--help"), "must point at the reference: {err}");
    }
}

#[test]
fn bad_values_and_unknown_use_cases_exit_nonzero() {
    let out = fleet()
        .args(["--sessions", "many"])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--sessions"), "{err}");

    let out = fleet()
        .args(["--use-case", "translate"])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("translate"), "{err}");
    assert!(
        err.contains("synthesis"),
        "must list the known cases: {err}"
    );

    // A value-taking flag at the end of the line is missing its value.
    let out = fleet().arg("--seed").output().expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--seed"), "{err}");

    // An empty fleet is a usage error in every mode, before anything
    // runs or a report is written.
    let out = fleet()
        .args(["--sessions", "0", "--out", "/dev/null"])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--sessions"), "{err}");
}

#[test]
fn unknown_backend_exits_two_and_lists_the_known_tiers() {
    let out = fleet()
        .args(["--backend", "gpt5"])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("gpt5"), "{err}");
    for name in ["sim-cheap", "sim-std", "sim-premium", "simulated-gpt4"] {
        assert!(err.contains(name), "must list {name}: {err}");
    }
}

#[test]
fn help_covers_the_socket_flags() {
    let out = fleet().arg("--help").output().expect("spawn fleet");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    for flag in ["--listen", "--metrics-addr"] {
        assert!(text.contains(flag), "--help must document {flag}:\n{text}");
    }
    assert!(
        text.contains("/metrics"),
        "--metrics-addr docs must name the endpoint:\n{text}"
    );
}

#[test]
fn listen_without_serve_exits_two() {
    let out = fleet()
        .args(["--listen", "127.0.0.1:0"])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--listen"), "{err}");
    assert!(err.contains("--serve"), "must name the missing flag: {err}");
}

#[test]
fn metrics_addr_without_listen_exits_two() {
    // Even with --serve: the scrape endpoint belongs to the socket
    // front-end, not the stdin pump.
    for args in [
        vec!["--metrics-addr", "127.0.0.1:0"],
        vec!["--serve", "--metrics-addr", "127.0.0.1:0"],
    ] {
        let out = fleet().args(&args).output().expect("spawn fleet");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--metrics-addr"), "{err}");
        assert!(
            err.contains("--listen"),
            "must name the missing flag: {err}"
        );
    }
}

#[test]
fn metrics_without_serve_exits_two() {
    let out = fleet().arg("--metrics").output().expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--metrics"), "{err}");
    assert!(err.contains("--serve"), "must name the missing flag: {err}");
}

#[test]
fn dump_scenario_prints_json_and_exits_zero() {
    let out = fleet()
        .args(["--dump-scenario", "0", "--seed", "5"])
        .output()
        .expect("spawn fleet");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    topo_model::json::parse(text.trim()).expect("scenario dump is valid JSON");
}

#[test]
fn dump_scenario_honours_a_pinned_large_family() {
    let name = |args: &[&str]| {
        let out = fleet().args(args).output().expect("spawn fleet");
        assert!(out.status.success(), "{out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let dump = topo_model::json::parse(text.trim()).expect("scenario dump is valid JSON");
        dump.get("name")
            .and_then(|n| n.as_str())
            .unwrap()
            .to_string()
    };
    // Every session of a pinned run is an as-graph-64 scenario, so the
    // dump must be one too.
    assert_eq!(
        name(&["--families", "as-graph-64", "--dump-scenario", "0"]),
        "as-graph-64-no-transit-s1-i0"
    );
    // The default rotation is unchanged.
    assert_eq!(name(&["--dump-scenario", "0"]), "chain-no-transit-s1-i0");
}

#[test]
fn dump_scenario_exits_quietly_when_the_reader_hangs_up() {
    use std::io::Read as _;
    use std::process::Stdio;
    // The as-graph-512 dump is about 500 KB, far more than a pipe
    // buffer holds, so fleet is still writing when the reader leaves.
    let mut child = fleet()
        .args(["--families", "as-graph-512", "--dump-scenario", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet");
    let mut head = [0u8; 200];
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_exact(&mut head)
        .expect("read the dump's head");
    let out = child.wait_with_output().expect("wait for fleet");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn chaos_below_its_minimum_is_a_usage_error() {
    let out = fleet()
        .args([
            "--chaos",
            "--sessions",
            "8",
            "--seed",
            "1",
            "--out",
            "/dev/null",
        ])
        .output()
        .expect("spawn fleet");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--sessions 8"), "{err}");
    assert!(
        err.contains(&cosynth_fleet::CHAOS_MIN_SESSIONS.to_string()),
        "must name the minimum: {err}"
    );
}
