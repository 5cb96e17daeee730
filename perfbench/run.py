#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <synth-batch|repair-as512|serve-open> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout. It builds, offline and into
$CARGO_TARGET_DIR (default: .bench_build), the `fleet` daemon through the
root workspace and the `perfbench` binary through perfbench/Cargo.toml,
whose [profile.release] repeats the root workspace's. It then runs that
binary under a wall-time cap and relays its output: a report line (host
fingerprint, content digest, sample counts) and, last, the result line.
Every build and the run go in a process group of their own, killed and
reaped on every way out: normal exit, the cap, or SIGTERM/SIGINT. The
exit status is the binary's; a failed build, a missing program or a hang
exits non-zero without a result line.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
BUILD_CAP_S = 850
RUN_CAP_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


RUNNING = []  # the process groups this script has started and not yet reaped


def stop_group(proc):
    """Kills a process group this script started and waits until no
    process of it is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_group(cmd, cap, **kwargs):
    """Runs cmd in a process group of its own for at most cap seconds and
    returns (exit status, stdout), or (None, None) when the cap is hit. The
    whole group is killed and reaped on every path out."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    RUNNING.append(proc)
    try:
        out, _ = proc.communicate(timeout=cap)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        stop_group(proc)
        RUNNING.remove(proc)


def on_signal(signum, _frame):
    for proc in list(RUNNING):
        stop_group(proc)
    fail(f"stopped by signal {signum}", 128 + signum)


def cargo(args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    status, _ = run_group(cmd, BUILD_CAP_S, env=env, stdout=sys.stderr)
    if status is None:
        fail(f"cargo build {' '.join(args)} exceeded {BUILD_CAP_S} s")
    if status != 0:
        fail(f"cargo build {' '.join(args)} failed", status or 2)


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail("run from the root of a checkout: the program's sources are not here")
    cargo(["-p", "cosynth-fleet", "--bin", "fleet"])
    cargo(["--manifest-path", "perfbench/Cargo.toml"])
    release = target_dir() / "release"
    return release / "perfbench", release / "fleet"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    binary, fleet = build()
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--fleet", str(fleet),
    ] + (["--smoke"] if args.smoke else [])
    status, stdout = run_group(cmd, RUN_CAP_S, stdout=subprocess.PIPE, text=True)
    if status is None:
        fail(f"{args.workload} did not finish within {RUN_CAP_S} s; its processes were killed", 3)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    sys.exit(status)


if __name__ == "__main__":
    main()
