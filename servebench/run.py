#!/usr/bin/env python3
"""Serving benchmark of the quadratic Transformer through serve::Server.

Usage (from the repository root):

    python3 servebench/run.py --workload chat --seed 1 --seconds 36 --trace 0

Builds the library and the benchmark from source into .bench_build/
(Release, the library's default options), runs the benchmark's
self-test, then runs one workload:

    chat           open loop, short unique prompts, long answers
    shared_prompt  closed loop, 24 clients over 4 shared 64-token prompts

--trace 0 prints the end-to-end metrics; --trace 1 runs the same seeded
trace with tracing on and prints the per-layer metrics, writing a Chrome
trace-event JSON (Perfetto / chrome://tracing) and every run's stored
result under .bench_build/servebench-out/.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit code
is 0 only when the run completed and its outputs checked out.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "servebench")
OUT = os.path.join(BUILD_ROOT, "servebench-out")

# A run must end within 180 s; a first run that also builds, within 900 s.
RUN_LIMIT_S = 175
FIRST_RUN_LIMIT_S = 890


def fail(message):
    sys.stderr.write("servebench: %s\n" % message)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    log.write("$ %s\n" % " ".join(cmd))
    log.flush()
    try:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def build(deadline):
    """Configures and builds incrementally, then runs the self-test.
    Returns True when the benchmark binary did not exist yet (a first
    run, which may take longer)."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    first = not os.path.exists(os.path.join(BUILD, "servebench"))
    log_path = os.path.join(BUILD_ROOT, "servebench-build.log")
    with open(log_path, "w") as log:
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
            [os.path.join(BUILD, "servebench_selftest")],
        ]
        for cmd in steps:
            code = run_logged(cmd, log, max(1.0, deadline - time.monotonic()))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                fail("step failed: %s (log: %s)" % (" ".join(cmd), log_path))
    return first


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["chat", "shared_prompt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    first = build(start + FIRST_RUN_LIMIT_S)
    limit = FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    remaining = start + limit - time.monotonic()
    if remaining <= 0:
        fail("no time left to run after the build")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=remaining,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % limit)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
