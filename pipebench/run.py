#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 pipebench/run.py --workload fleet_ingest --seed 1 --seconds 10 --trace 0

Builds pipebench/ (which compiles the library from src/) into
.bench_build/pipebench, runs the binary, and forwards its output. The last
line of stdout is the result JSON. A traced run (--trace 1) also prints the
tracing overhead against the most recent untraced run of the same workload
in this checkout, when there is one. Exits non-zero if the build fails, the
run fails, or an output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "pipebench")
WORKDIR = os.path.join(BUILD_ROOT, "run")
BINARY = os.path.join(BUILD, "pipebench")
RUN_TIMEOUT_S = 170
OVERHEAD_METRICS = ("beat_call_ns.p50", "beat_call_ns.p99", "monitor_cpu_pct",
                    "verdict_lag_ms.p50", "verdict_lag_ms.p99")


def build_env():
    # Keep compiler temporaries inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    env = build_env()
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)


def record_path(workload, trace):
    return os.path.join(WORKDIR, "last-%s-trace%d.json" % (workload, trace))


def print_overhead(workload):
    try:
        with open(record_path(workload, 0)) as f:
            base = json.load(f)["metrics"]
        with open(record_path(workload, 1)) as f:
            traced = json.load(f)["metrics"]
    except (OSError, ValueError, KeyError):
        return
    print("tracing overhead vs the last untraced run of %s:" % workload)
    for name in OVERHEAD_METRICS:
        b, t = base[name]["value"], traced[name]["value"]
        share = (t - b) / b * 100.0 if b else 0.0
        print("  %-26s untraced %12.4f traced %12.4f  %+.1f%%" % (name, b, t, share))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("pipebench: build failed: %s" % e, file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR, "--out", record_path(args.workload, args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pipebench: run timed out", file=sys.stderr)
        return 2
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        print("pipebench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    if args.trace == 1:
        print_overhead(args.workload)
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
