#!/usr/bin/env python3
"""Build the benchmark and run one workload (or all of them).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> [--seconds <s>]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from source with
cargo (offline) into $CARGO_TARGET_DIR, default `.bench_build`; scratch
files (synthetic snapshots, span traces) go under `<target>/perfbench-out`.
Each workload runs in a process of its own. The last line of standard
output is the run's JSON result; the exit code is 0 only when the build
succeeded and every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Worker threads per workload: never more than the CPUs the host has.
THREADS = {
    "build-quick": 2,
    "publish-internet": 1,
    "serve-1m-binary": 1,
    "serve-line-hot": 1,
}
WORKLOADS = list(THREADS)
# A run that has not ended by then is stopped and counts as failed.
RUN_TIMEOUT_S = 170


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds the measuring binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_one(exe, workload, seed, seconds, trace):
    """Runs one workload in its own process, relaying its output;
    returns (exit code, last stdout line)."""
    out_dir = os.path.join(target_dir(), "perfbench-out")
    threads = min(THREADS[workload], os.cpu_count() or 1)
    env = dict(os.environ, IPGEO_THREADS=str(threads))
    cmd = [
        exe, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} did not end within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    lines = stdout.rstrip("\n").split("\n")
    # Everything but the result line goes to stderr, so that the JSON
    # result is the only line of standard output.
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return proc.returncode, lines[-1] if lines else ""


def parse(line):
    """The result object of a run's last line, or None."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) and "correct" in obj else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2023)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="selftest, then every workload")
    ap.add_argument("--selftest", action="store_true", help="only the checker self-test")
    a = ap.parse_args()
    if not (a.workload or a.all or a.selftest):
        ap.error("give --workload, --all or --selftest")

    exe = build()
    if exe is None:
        return 1
    if a.selftest or a.all:
        if subprocess.run([exe, "selftest"], cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: checker self-test failed", file=sys.stderr)
            return 1
        if a.selftest:
            return 0
    if a.workload:
        code, result = run_one(exe, a.workload, a.seed, a.seconds, a.trace)
        if parse(result) is not None:
            print(result)
        return code

    worst = 0
    for w in WORKLOADS:
        code, result = run_one(exe, w, a.seed, a.seconds, a.trace)
        worst = worst or code
        print(json.dumps({"workload": w, "exit": code, "result": parse(result)}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
